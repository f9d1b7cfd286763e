//! CUTS-lite — neural causal discovery from irregular time series [50].
//!
//! CUTS alternates (a) imputing unobserved points with a delayed-supervision
//! graph neural network and (b) learning a sparse causal graph of
//! per-edge gates under a sparsity penalty. Our benchmarks are regular and
//! fully observed, so stage (a) has nothing to impute; this `-lite`
//! re-implementation keeps stage (b) — the component that produces the
//! causal scores the paper feeds into k-means (§5.3).
//!
//! Per target `j`, a small MLP predicts `x_j[t]` from all series' lagged
//! values, each multiplied by a learnable gate `σ(g)` per (source, lag).
//! The sparsity penalty pushes gates of non-causal inputs to 0. The causal
//! score of `i → j` is the maximum gate over lags; k-means selects the
//! causal class. CUTS does not output delays (Table 2 omits it).

use crate::common::lagged_design;
use crate::Discoverer;
use cf_data::window::standardize;
use cf_metrics::kmeans::top_class_mask;
use cf_metrics::CausalGraph;
use cf_nn::{Adam, Linear, Optimizer, ParamStore};
use cf_tensor::{with_pooled_tape, Tensor};
use rand::RngCore;

/// Hyper-parameters of the CUTS-lite baseline.
#[derive(Debug, Clone, Copy)]
pub struct CutsConfig {
    /// Maximum lag considered.
    pub lag: usize,
    /// Hidden width of each per-target MLP.
    pub hidden: usize,
    /// Sparsity coefficient on the gates.
    pub lambda: f64,
    /// Training epochs (full batch).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// k-means classes for edge selection.
    pub n_clusters: usize,
    /// Top classes kept as causal.
    pub m_top: usize,
}

impl Default for CutsConfig {
    fn default() -> Self {
        Self {
            lag: 4,
            hidden: 16,
            lambda: 2e-3,
            epochs: 150,
            lr: 2e-2,
            n_clusters: 2,
            m_top: 1,
        }
    }
}

/// The CUTS-lite discoverer. See the [crate docs](crate).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cuts {
    /// Hyper-parameters.
    pub config: CutsConfig,
}

impl Cuts {
    /// A CUTS-lite with the given configuration.
    pub fn new(config: CutsConfig) -> Self {
        Self { config }
    }
}

impl Discoverer for Cuts {
    fn name(&self) -> &'static str {
        "CUTS"
    }

    fn discover(&self, rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph {
        let cfg = self.config;
        let n = series.shape()[0];
        let std_series = standardize(series);
        let (inputs, targets) = lagged_design(&std_series, cfg.lag);
        let s = inputs.shape()[0];

        let mut graph = CausalGraph::new(n);
        for target in 0..n {
            let mut store = ParamStore::new();
            // Per-(source,lag) gate logits; σ(1) ≈ 0.73 starts gates open.
            let gates = store.register("gates", Tensor::ones(&[n * cfg.lag]));
            let l1 = Linear::xavier(&mut store, rng, "in", n * cfg.lag, cfg.hidden, true);
            let l2 = Linear::xavier(&mut store, rng, "out", cfg.hidden, 1, true);
            let mut adam = Adam::new(cfg.lr);

            let y_col =
                Tensor::from_vec(vec![s, 1], targets.col(target)).expect("column extraction");

            for _ in 0..cfg.epochs {
                with_pooled_tape(|tape| {
                    let bound = store.bind(tape);
                    let gate_probs = tape.sigmoid(bound.var(gates));
                    let x = tape.constant(inputs.clone());
                    let gated = tape.mul_row_vector(x, gate_probs);
                    let h_lin = l1.forward(tape, &bound, gated);
                    let h = tape.leaky_relu(h_lin, 0.01);
                    let pred = l2.forward(tape, &bound, h);
                    let tgt = tape.constant(y_col.clone());
                    let diff = tape.sub(pred, tgt);
                    let sq = tape.square(diff);
                    let mse = tape.mean_all(sq);
                    // σ > 0 ⇒ L1 = plain sum.
                    let gsum = tape.sum_all(gate_probs);
                    let penalty = tape.scale(gsum, cfg.lambda);
                    let loss = tape.add(mse, penalty);
                    let grads = tape.backward(loss);
                    adam.step(&mut store, &bound, &grads);
                });
            }

            // Score i→target: max gate over lags.
            let g_final = store.value(gates).map(|v| 1.0 / (1.0 + (-v).exp()));
            let scores: Vec<f64> = (0..n)
                .map(|i| {
                    (0..cfg.lag)
                        .map(|el| g_final.data()[i * cfg.lag + el])
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .collect();
            let mask = top_class_mask(rng, &scores, cfg.n_clusters, cfg.m_top);
            for (i, &selected) in mask.iter().enumerate() {
                if selected {
                    graph.add_edge(i, target, None);
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
    fn recovers_fork_better_than_chance() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = generate(&mut rng, Structure::Fork, 400);
        let cuts = Cuts::new(CutsConfig {
            epochs: 80,
            ..Default::default()
        });
        let g = cuts.discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &g);
        assert!(f1 >= 0.3, "F1 {f1}, graph {g}, truth {}", data.truth);
    }

    #[test]
    fn does_not_output_delays() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate(&mut rng, Structure::Fork, 200);
        let cuts = Cuts::new(CutsConfig {
            epochs: 10,
            ..Default::default()
        });
        assert!(!cuts.outputs_delays());
        let g = cuts.discover(&mut rng, &data.series);
        for e in g.edges() {
            assert_eq!(e.delay, None);
        }
    }
}
