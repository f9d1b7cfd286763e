//! PCMCI-lite — constraint-based temporal causal discovery (Runge et al.
//! [25], referenced in the paper's §2.1).
//!
//! PCMCI runs two phases: PC₁ condition selection (iteratively prune the
//! lagged-parent candidate set of each variable with conditional
//! independence tests of growing conditioning size) and the MCI test
//! (momentary conditional independence of each remaining link given both
//! variables' parents). This `-lite` re-implementation keeps both phases
//! with partial-correlation / Fisher-z tests (ParCorr, PCMCI's default
//! test) but caps the conditioning size and conditions the MCI step on the
//! target's selected parents only — adequate at benchmark sizes and
//! documented in DESIGN.md.

use crate::Discoverer;
use cf_data::window::standardize;
use cf_metrics::CausalGraph;
use cf_stats::{fisher_z_test, partial_correlation};
use cf_tensor::Tensor;
use rand::RngCore;

/// Hyper-parameters of the PCMCI-lite baseline.
#[derive(Debug, Clone, Copy)]
pub struct PcmciConfig {
    /// Maximum lag τ_max.
    pub max_lag: usize,
    /// Significance level for both phases.
    pub alpha: f64,
    /// Maximum conditioning-set size in the PC₁ phase.
    pub max_cond: usize,
}

impl Default for PcmciConfig {
    fn default() -> Self {
        Self {
            max_lag: 4,
            alpha: 0.01,
            max_cond: 3,
        }
    }
}

/// The PCMCI-lite discoverer. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct Pcmci {
    /// Hyper-parameters.
    pub config: PcmciConfig,
}

impl Pcmci {
    /// A PCMCI-lite with the given configuration.
    pub fn new(config: PcmciConfig) -> Self {
        Self { config }
    }
}

/// A lagged variable `(series, lag)` with `lag ≥ 1`.
type Parent = (usize, usize);

/// Extracts the aligned sample column of `(series, lag)` against targets at
/// time `t ∈ [max_lag, len)`.
fn lagged_column(series: &Tensor, max_lag: usize, parent: Parent) -> Vec<f64> {
    let (i, lag) = parent;
    let len = series.shape()[1];
    (max_lag..len).map(|t| series.get2(i, t - lag)).collect()
}

impl Discoverer for Pcmci {
    fn name(&self) -> &'static str {
        "PCMCI"
    }

    fn outputs_delays(&self) -> bool {
        true
    }

    fn discover(&self, _rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph {
        let cfg = self.config;
        let n = series.shape()[0];
        let len = series.shape()[1];
        assert!(len > cfg.max_lag + 10, "series too short for PCMCI");
        let std_series = standardize(series);
        let n_samples = len - cfg.max_lag;

        // Phase 1: PC₁ parent selection per target.
        let mut parents: Vec<Vec<Parent>> = Vec::with_capacity(n);
        for target in 0..n {
            let y: Vec<f64> = (cfg.max_lag..len)
                .map(|t| std_series.get2(target, t))
                .collect();
            // Start from all lagged candidates, strongest-first.
            let mut candidates: Vec<(Parent, f64)> = (0..n)
                .flat_map(|i| (1..=cfg.max_lag).map(move |lag| (i, lag)))
                .map(|p| {
                    let xcol = lagged_column(&std_series, cfg.max_lag, p);
                    let r = cf_stats::pearson(&xcol, &y);
                    (p, r.abs())
                })
                .collect();
            candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            let mut selected: Vec<Parent> = candidates.iter().map(|(p, _)| *p).collect();

            // Iteratively prune with growing conditioning size.
            for cond_size in 0..=cfg.max_cond {
                let mut keep = Vec::new();
                for (k, &p) in selected.iter().enumerate() {
                    let xcol = lagged_column(&std_series, cfg.max_lag, p);
                    // Condition on the strongest `cond_size` other parents.
                    let z: Vec<Vec<f64>> = selected
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .take(cond_size)
                        .map(|(_, &q)| lagged_column(&std_series, cfg.max_lag, q))
                        .collect();
                    if z.len() < cond_size {
                        keep.push(p);
                        continue; // not enough conditions at this size
                    }
                    let r = partial_correlation(&xcol, &y, &z);
                    let pval = fisher_z_test(r, n_samples, z.len());
                    if pval < cfg.alpha {
                        keep.push(p);
                    }
                }
                selected = keep;
                if selected.len() <= 1 {
                    break;
                }
            }
            parents.push(selected);
        }

        // Phase 2: MCI — retest every surviving link conditioned on the
        // target's other parents; keep the most significant lag per pair.
        let mut graph = CausalGraph::new(n);
        for target in 0..n {
            let y: Vec<f64> = (cfg.max_lag..len)
                .map(|t| std_series.get2(target, t))
                .collect();
            let mut best_per_cause: Vec<Option<(usize, f64)>> = vec![None; n];
            for &p in &parents[target] {
                let (cause, lag) = p;
                let xcol = lagged_column(&std_series, cfg.max_lag, p);
                let z: Vec<Vec<f64>> = parents[target]
                    .iter()
                    .filter(|&&q| q != p)
                    .take(cfg.max_cond)
                    .map(|&q| lagged_column(&std_series, cfg.max_lag, q))
                    .collect();
                let r = partial_correlation(&xcol, &y, &z);
                let pval = fisher_z_test(r, n_samples, z.len());
                if pval < cfg.alpha {
                    match best_per_cause[cause] {
                        Some((_, best_p)) if best_p <= pval => {}
                        _ => best_per_cause[cause] = Some((lag, pval)),
                    }
                }
            }
            for (cause, entry) in best_per_cause.iter().enumerate() {
                if let Some((lag, _)) = entry {
                    graph.add_edge(cause, target, Some(*lag));
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
    fn recovers_vstructure() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = generate(&mut rng, Structure::VStructure, 800);
        let g = Pcmci::default().discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &g);
        assert!(f1 >= 0.6, "F1 {f1}, graph {g}, truth {}", data.truth);
    }

    #[test]
    fn conditioning_prunes_indirect_links() {
        // Mediator: S1→S2→S3 with a weaker direct S1→S3. The chain
        // correlation S1↔S3 at lag 2 must not produce extra false links
        // relative to raw correlation thresholding.
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate(&mut rng, Structure::Mediator, 1000);
        let g = Pcmci::default().discover(&mut rng, &data.series);
        let c = score::confusion(&data.truth, &g);
        assert!(
            c.precision() >= 0.6,
            "precision {} too low: {g}",
            c.precision()
        );
    }

    #[test]
    fn outputs_one_edge_per_pair_with_delay() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = generate(&mut rng, Structure::Fork, 600);
        let g = Pcmci::default().discover(&mut rng, &data.series);
        for e in g.edges() {
            assert!(e.delay.is_some());
            assert!(e.delay.unwrap() >= 1 && e.delay.unwrap() <= 4);
        }
    }
}
