//! DYNOTEARS-lite — score-based structure learning from time series
//! (Pamfil et al. [30], referenced in the paper's §2.1).
//!
//! DYNOTEARS learns per-lag weighted adjacency matrices `W^τ` by
//! minimising the one-step prediction error with L1 sparsity; the
//! acyclicity (NOTEARS) penalty applies only to the *intra-slice*
//! (instantaneous) matrix. This `-lite` version learns lagged matrices
//! only — inter-slice edges cannot form cycles, so no acyclicity machinery
//! is needed — which matches our benchmarks, where instantaneous edges are
//! rare. Trained with the workspace autodiff tape and Adam; edges are the
//! top k-means class of `max_τ |W^τ_{i,j}|` and the delay is the argmax τ.

use crate::Discoverer;
use cf_data::window::standardize;
use cf_metrics::kmeans::top_class_mask;
use cf_metrics::CausalGraph;
use cf_nn::{Adam, Optimizer, ParamStore};
use cf_tensor::{with_pooled_tape, Tensor};
use rand::RngCore;

/// Hyper-parameters of the DYNOTEARS-lite baseline.
#[derive(Debug, Clone, Copy)]
pub struct DynotearsConfig {
    /// Maximum lag (number of `W^τ` matrices).
    pub lag: usize,
    /// L1 sparsity coefficient.
    pub lambda: f64,
    /// Training epochs (full batch).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Default for DynotearsConfig {
    fn default() -> Self {
        Self {
            lag: 4,
            lambda: 5e-3,
            epochs: 300,
            lr: 2e-2,
        }
    }
}

/// The DYNOTEARS-lite discoverer. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dynotears {
    /// Hyper-parameters.
    pub config: DynotearsConfig,
}

impl Dynotears {
    /// A DYNOTEARS-lite with the given configuration.
    pub fn new(config: DynotearsConfig) -> Self {
        Self { config }
    }
}

impl Discoverer for Dynotears {
    fn name(&self) -> &'static str {
        "DYNOTEARS"
    }

    fn outputs_delays(&self) -> bool {
        true
    }

    fn discover(&self, rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph {
        let cfg = self.config;
        let n = series.shape()[0];
        let l = series.shape()[1];
        assert!(l > cfg.lag + 2, "series too short for lag {}", cfg.lag);
        let std_series = standardize(series);

        // Lagged design per τ: X_τ ∈ R^{S×N} with rows x[·, t−τ].
        let s = l - cfg.lag;
        let mut x_lags = Vec::with_capacity(cfg.lag);
        for tau in 1..=cfg.lag {
            let mut x = Tensor::zeros(&[s, n]);
            for sample in 0..s {
                let t = sample + cfg.lag;
                for i in 0..n {
                    x.set2(sample, i, std_series.get2(i, t - tau));
                }
            }
            x_lags.push(x);
        }
        let mut y = Tensor::zeros(&[s, n]);
        for sample in 0..s {
            let t = sample + cfg.lag;
            for i in 0..n {
                y.set2(sample, i, std_series.get2(i, t));
            }
        }

        let mut store = ParamStore::new();
        let w_ids: Vec<_> = (0..cfg.lag)
            .map(|tau| store.register(format!("w{tau}"), Tensor::zeros(&[n, n])))
            .collect();
        let mut adam = Adam::new(cfg.lr);

        for _ in 0..cfg.epochs {
            with_pooled_tape(|tape| {
                let bound = store.bind(tape);
                let mut pred = None;
                for (tau, &wid) in w_ids.iter().enumerate() {
                    let x = tape.constant(x_lags[tau].clone());
                    let term = tape.matmul(x, bound.var(wid));
                    pred = Some(match pred {
                        None => term,
                        Some(acc) => tape.add(acc, term),
                    });
                }
                let pred = pred.expect("lag ≥ 1");
                let yv = tape.constant(y.clone());
                let diff = tape.sub(pred, yv);
                let sq = tape.square(diff);
                let mse = tape.mean_all(sq);
                let mut loss = mse;
                for &wid in &w_ids {
                    let l1 = tape.l1(bound.var(wid));
                    let pen = tape.scale(l1, cfg.lambda);
                    loss = tape.add(loss, pen);
                }
                let grads = tape.backward(loss);
                adam.step(&mut store, &bound, &grads);
            });
        }

        // Edge scores: max over lags of |W^τ[i,j]|; delay = argmax τ.
        let mut graph = CausalGraph::new(n);
        for target in 0..n {
            let mut scores = vec![0.0f64; n];
            let mut delays = vec![1usize; n];
            for cause in 0..n {
                for (tau, &wid) in w_ids.iter().enumerate() {
                    let v = store.value(wid).get2(cause, target).abs();
                    if v > scores[cause] {
                        scores[cause] = v;
                        delays[cause] = tau + 1;
                    }
                }
            }
            let mask = top_class_mask(rng, &scores, 2, 1);
            for (cause, &selected) in mask.iter().enumerate() {
                if selected {
                    graph.add_edge(cause, target, Some(delays[cause]));
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
    fn recovers_diamond_structure() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = generate(&mut rng, Structure::Diamond, 800);
        let g = Dynotears::default().discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &g);
        assert!(f1 >= 0.6, "F1 {f1}, graph {g}, truth {}", data.truth);
    }

    #[test]
    fn l1_shrinks_spurious_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate(&mut rng, Structure::Fork, 600);
        let sparse = Dynotears::new(DynotearsConfig {
            lambda: 2e-2,
            ..Default::default()
        })
        .discover(&mut rng, &data.series);
        let c = score::confusion(&data.truth, &sparse);
        assert!(
            c.precision() >= 0.6,
            "precision {}: {sparse}",
            c.precision()
        );
    }

    #[test]
    fn delays_are_within_lag_budget() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = generate(&mut rng, Structure::Mediator, 500);
        let g = Dynotears::default().discover(&mut rng, &data.series);
        for e in g.edges() {
            let d = e.delay.expect("DYNOTEARS annotates delays");
            assert!((1..=4).contains(&d));
        }
    }
}
