//! Linear VAR Granger causality — the classical statistic-based comparator
//! the paper's related work opens with (§2.1): fit a vector autoregression
//! and test, per pair, whether series `i`'s lags improve the prediction of
//! series `j` (nested-regression F-test).
//!
//! `x_j[t] = Σ_τ Σ_i w_{i,j}^τ x_i[t−τ] + e`; `i → j` iff dropping all of
//! `i`'s lags significantly increases the residual sum of squares. The
//! delay annotation is the lag with the largest absolute coefficient in
//! the full model.

use crate::common::lagged_design;
use crate::Discoverer;
use cf_data::window::standardize;
use cf_metrics::CausalGraph;
use cf_stats::{f_test_nested, ols};
use cf_tensor::Tensor;
use rand::RngCore;

/// Hyper-parameters of the VAR-Granger baseline.
#[derive(Debug, Clone, Copy)]
pub struct VarGrangerConfig {
    /// VAR order (maximum lag).
    pub lag: usize,
    /// Significance level of the per-edge F-test.
    pub alpha: f64,
}

impl Default for VarGrangerConfig {
    fn default() -> Self {
        Self {
            lag: 4,
            alpha: 0.01,
        }
    }
}

/// The VAR-Granger discoverer. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct VarGranger {
    /// Hyper-parameters.
    pub config: VarGrangerConfig,
}

impl VarGranger {
    /// A VAR-Granger tester with the given configuration.
    pub fn new(config: VarGrangerConfig) -> Self {
        Self { config }
    }
}

impl Discoverer for VarGranger {
    fn name(&self) -> &'static str {
        "VAR-Granger"
    }

    fn outputs_delays(&self) -> bool {
        true
    }

    fn discover(&self, _rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph {
        let cfg = self.config;
        let n = series.shape()[0];
        let std_series = standardize(series);
        let (inputs, targets) = lagged_design(&std_series, cfg.lag);
        let s = inputs.shape()[0];
        let full_params = n * cfg.lag + 1;
        assert!(
            s > full_params + 1,
            "too few samples ({s}) for a VAR({}) over {n} series",
            cfg.lag
        );

        // Column views of the design: column (i, τ) is at i·lag + (τ−1).
        let design_cols: Vec<Vec<f64>> = (0..n * cfg.lag).map(|c| inputs.col(c)).collect();

        let mut graph = CausalGraph::new(n);
        for target in 0..n {
            let y = targets.col(target);
            let (beta_full, rss_full) = ols(&design_cols, &y, 1e-8);
            let resid_df = s - full_params;

            for cause in 0..n {
                // Restricted model: drop all of `cause`'s lag columns.
                let restricted: Vec<Vec<f64>> = (0..n * cfg.lag)
                    .filter(|&c| c / cfg.lag != cause)
                    .map(|c| design_cols[c].clone())
                    .collect();
                let (_, rss_restricted) = ols(&restricted, &y, 1e-8);
                let (_, p) = f_test_nested(rss_restricted, rss_full, cfg.lag, resid_df);
                if p < cfg.alpha {
                    // Delay: the strongest full-model coefficient of the
                    // cause (beta[0] is the intercept).
                    let mut best_lag = 1;
                    let mut best = f64::NEG_INFINITY;
                    for tau in 1..=cfg.lag {
                        let coef = beta_full[1 + cause * cfg.lag + (tau - 1)].abs();
                        if coef > best {
                            best = coef;
                            best_lag = tau;
                        }
                    }
                    graph.add_edge(cause, target, Some(best_lag));
                }
            }
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::synthetic::{generate, Structure};
    use cf_metrics::score;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_fork_structure() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = generate(&mut rng, Structure::Fork, 800);
        let g = VarGranger::default().discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &g);
        // Linear Granger on a mildly non-linear SEM still finds the strong
        // couplings.
        assert!(f1 >= 0.6, "F1 {f1}, graph {g}, truth {}", data.truth);
    }

    #[test]
    fn delays_match_generator_lags() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate(&mut rng, Structure::Mediator, 1000);
        let g = VarGranger::default().discover(&mut rng, &data.series);
        if let Some(Some(d)) = g.delay(0, 1) {
            assert_eq!(d, 1, "S1→S2 lag should be 1");
        }
        let pod = score::pod(&data.truth, &g);
        if let Some(p) = pod {
            assert!(p >= 0.5, "PoD {p} too low for a linear fit");
        }
    }

    #[test]
    fn stricter_alpha_yields_sparser_graph() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = generate(&mut rng, Structure::Diamond, 600);
        let loose = VarGranger::new(VarGrangerConfig {
            alpha: 0.2,
            ..Default::default()
        })
        .discover(&mut rng, &data.series);
        let strict = VarGranger::new(VarGrangerConfig {
            alpha: 1e-6,
            ..Default::default()
        })
        .discover(&mut rng, &data.series);
        assert!(strict.num_edges() <= loose.num_edges());
    }
}
