//! DVGNN-lite — dynamic diffusion-variational graph neural network [49].
//!
//! DVGNN learns a latent causal adjacency whose edge probabilities drive a
//! graph-convolutional predictor; the paper evaluates its edge scores with
//! k-means thresholding (§5.3: "Since DVGNN and CUTS output the causal
//! scores for each potential causal relation, we also identify the causal
//! relations by k-means as CausalFormer"), which is exactly how this
//! re-implementation reads its result.
//!
//! `-lite`: the diffusion-model decoder and variational machinery are
//! dropped — on fully-observed benchmark series they regularise the same
//! adjacency this module learns directly. What is kept is the causal
//! scoring core: sigmoid edge probabilities `σ(L)` gating a two-lag graph
//! predictor, trained end-to-end with a sparsity penalty. DVGNN does not
//! output causal delays (Table 2 omits it).

use crate::Discoverer;
use cf_data::window::standardize;
use cf_metrics::kmeans::top_class_mask;
use cf_metrics::CausalGraph;
use cf_nn::{Adam, Optimizer, ParamStore};
use cf_tensor::{with_pooled_tape, xavier_uniform, Tensor};
use rand::RngCore;

/// Hyper-parameters of the DVGNN-lite baseline.
#[derive(Debug, Clone, Copy)]
pub struct DvgnnConfig {
    /// Training epochs (full batch).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L1 coefficient on the edge probabilities.
    pub lambda: f64,
    /// k-means classes for edge selection.
    pub n_clusters: usize,
    /// Top classes kept as causal.
    pub m_top: usize,
}

impl Default for DvgnnConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            lr: 2e-2,
            lambda: 1e-3,
            n_clusters: 2,
            m_top: 1,
        }
    }
}

/// The DVGNN-lite discoverer. See the [crate docs](crate).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dvgnn {
    /// Hyper-parameters.
    pub config: DvgnnConfig,
}

impl Dvgnn {
    /// A DVGNN-lite with the given configuration.
    pub fn new(config: DvgnnConfig) -> Self {
        Self { config }
    }
}

impl Discoverer for Dvgnn {
    fn name(&self) -> &'static str {
        "DVGNN"
    }

    fn discover(&self, rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph {
        let cfg = self.config;
        let n = series.shape()[0];
        let l = series.shape()[1];
        assert!(l > 3, "series too short");
        let std_series = standardize(series);

        // One-step design with two lags: predict x[:,t] from x[:,t−1], x[:,t−2].
        let s = l - 2;
        let mut x1 = Tensor::zeros(&[s, n]); // lag 1
        let mut x2 = Tensor::zeros(&[s, n]); // lag 2
        let mut y = Tensor::zeros(&[s, n]);
        for sample in 0..s {
            let t = sample + 2;
            for i in 0..n {
                x1.set2(sample, i, std_series.get2(i, t - 1));
                x2.set2(sample, i, std_series.get2(i, t - 2));
                y.set2(sample, i, std_series.get2(i, t));
            }
        }

        let mut store = ParamStore::new();
        // Edge logits; σ(0) = 0.5 keeps the initial graph undecided.
        let logits = store.register("edge_logits", Tensor::zeros(&[n, n]));
        // Per-lag mixing weights (edge-probability–gated message passing).
        let w1 = store.register("w1", xavier_uniform(rng, &[n, n], n, n));
        let w2 = store.register("w2", xavier_uniform(rng, &[n, n], n, n));
        let decoder = store.register("decoder", Tensor::eye(n));
        let mut adam = Adam::new(cfg.lr);

        for _ in 0..cfg.epochs {
            with_pooled_tape(|tape| {
                let bound = store.bind(tape);
                let probs = tape.sigmoid(bound.var(logits));
                // Gated adjacency per lag: A_k[i,j] = σ(L[i,j]) · W_k[i,j].
                let a1 = tape.mul(probs, bound.var(w1));
                let a2 = tape.mul(probs, bound.var(w2));
                let x1v = tape.constant(x1.clone());
                let x2v = tape.constant(x2.clone());
                // Message passing: column j of (X·A) mixes sources i weighted
                // by the i→j edge.
                let m1 = tape.matmul(x1v, a1);
                let m2 = tape.matmul(x2v, a2);
                let mixed = tape.add(m1, m2);
                let act = tape.leaky_relu(mixed, 0.1);
                let pred = tape.matmul(act, bound.var(decoder));
                let yv = tape.constant(y.clone());
                let diff = tape.sub(pred, yv);
                let sq = tape.square(diff);
                let mse = tape.mean_all(sq);
                // σ(L) > 0, so the L1 penalty is just the sum.
                let psum = tape.sum_all(probs);
                let penalty = tape.scale(psum, cfg.lambda);
                let loss = tape.add(mse, penalty);
                let grads = tape.backward(loss);
                adam.step(&mut store, &bound, &grads);
            });
        }

        // Edge scores = σ(L); k-means per target (column of the adjacency).
        let probs = store.value(logits).map(|v| 1.0 / (1.0 + (-v).exp()));
        let mut graph = CausalGraph::new(n);
        for target in 0..n {
            let scores: Vec<f64> = (0..n).map(|i| probs.get2(i, target)).collect();
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
        let g = Dvgnn::default().discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &g);
        assert!(f1 >= 0.4, "F1 {f1}, graph {g}, truth {}", data.truth);
    }

    #[test]
    fn does_not_output_delays() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate(&mut rng, Structure::VStructure, 200);
        let dvgnn = Dvgnn::new(DvgnnConfig {
            epochs: 30,
            ..Default::default()
        });
        assert!(!dvgnn.outputs_delays());
        let g = dvgnn.discover(&mut rng, &data.series);
        for e in g.edges() {
            assert_eq!(e.delay, None);
        }
    }
}
