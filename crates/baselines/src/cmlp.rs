//! cMLP — component-wise MLP neural Granger causality (Tank et al. [31]).
//!
//! One MLP per target series predicts `x_j[t]` from the lagged values of
//! *all* series. A group-sparse penalty on the input layer (one group per
//! source series) drives non-causal input groups toward zero; series `i`
//! Granger-causes `j` iff its group norm survives. The delay of a
//! discovered relation is the lag whose input row carries the largest norm
//! (cMLP's hierarchical variant penalises longer lags more; we reproduce
//! the base group-lasso variant and obtain delays by per-lag attribution).
//!
//! The group-lasso is optimised with proximal steps after each Adam update
//! (the original uses proximal gradient descent / ISTA); surviving groups
//! are selected by k-means on the group norms, which reduces to a non-zero
//! check when the proximal operator has zeroed the rest.

use crate::common::{group_norm, lag_norm, lagged_design};
use crate::Discoverer;
use cf_data::window::standardize;
use cf_metrics::kmeans::top_class_mask;
use cf_metrics::CausalGraph;
use cf_nn::{Adam, Linear, Optimizer, ParamStore};
use cf_tensor::{with_pooled_tape, Tensor};
use rand::RngCore;

/// Hyper-parameters of the cMLP baseline.
#[derive(Debug, Clone, Copy)]
pub struct CmlpConfig {
    /// Maximum lag considered.
    pub lag: usize,
    /// Hidden width of each per-target MLP.
    pub hidden: usize,
    /// Group-lasso coefficient on the input layer.
    pub lambda: f64,
    /// Training epochs (full-batch Adam).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Default for CmlpConfig {
    fn default() -> Self {
        Self {
            lag: 4,
            hidden: 16,
            lambda: 5e-3,
            epochs: 150,
            lr: 2e-2,
        }
    }
}

/// The cMLP discoverer. See the [crate docs](crate).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cmlp {
    /// Hyper-parameters.
    pub config: CmlpConfig,
}

impl Cmlp {
    /// A cMLP with the given configuration.
    pub fn new(config: CmlpConfig) -> Self {
        Self { config }
    }
}

impl Discoverer for Cmlp {
    fn name(&self) -> &'static str {
        "cMLP"
    }

    fn outputs_delays(&self) -> bool {
        true
    }

    fn discover(&self, rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph {
        let cfg = self.config;
        let n = series.shape()[0];
        let std_series = standardize(series);
        let (inputs, targets) = lagged_design(&std_series, cfg.lag);
        let s = inputs.shape()[0];

        // Tank et al.'s design makes each target series an independent
        // model, so the per-target training loops run concurrently. RNG use
        // stays sequential and thread-free: all initialisations draw from
        // `rng` up front (phase A), the rng-free training fans out across
        // the pool (phase B), and the k-means edge selection consumes `rng`
        // again in target order (phase C) — the discovered graph is
        // identical at any thread count.
        struct TargetState {
            store: ParamStore,
            l1: Linear,
            l2: Linear,
            y_col: Tensor,
        }

        // Phase A: sequential init (consumes rng).
        let mut states: Vec<TargetState> = (0..n)
            .map(|target| {
                // Per-target MLP: (N·lag) → hidden → 1.
                let mut store = ParamStore::new();
                let l1 = Linear::xavier(&mut store, rng, "in", n * cfg.lag, cfg.hidden, true);
                let l2 = Linear::xavier(&mut store, rng, "out", cfg.hidden, 1, true);
                let y_col =
                    Tensor::from_vec(vec![s, 1], targets.col(target)).expect("column extraction");
                TargetState {
                    store,
                    l1,
                    l2,
                    y_col,
                }
            })
            .collect();

        // Phase B: parallel rng-free training.
        // The heartbeat unit opens at 0/n from serial code so repeated
        // sweeps in one process restart the bar.
        cf_obs::heartbeat::progress("baseline.cmlp.target", 0, n as u64);
        cf_par::par_each_mut(&mut states, |_, st| {
            let mut adam = Adam::new(cfg.lr);
            for _ in 0..cfg.epochs {
                with_pooled_tape(|tape| {
                    let bound = st.store.bind(tape);
                    let x = tape.constant(inputs.clone());
                    let h_lin = st.l1.forward(tape, &bound, x);
                    let h = tape.leaky_relu(h_lin, 0.01);
                    let pred = st.l2.forward(tape, &bound, h);
                    let tgt = tape.constant(st.y_col.clone());
                    let diff = tape.sub(pred, tgt);
                    let sq = tape.square(diff);
                    let mse = tape.mean_all(sq);
                    let grads = tape.backward(mse);
                    adam.step(&mut st.store, &bound, &grads);
                });

                // Proximal group-lasso step (cMLP trains with proximal
                // gradient descent): shrink each source series' input rows
                // toward zero, zeroing whole groups whose norm falls below
                // the threshold.
                let thresh = cfg.lr * cfg.lambda;
                let norms: Vec<f64> = {
                    let w = st.store.value(st.l1.weight());
                    (0..n).map(|i| group_norm(w, i, cfg.lag)).collect()
                };
                let w = st.store.value_mut(st.l1.weight());
                let hcols = w.shape()[1];
                for (i, &norm) in norms.iter().enumerate() {
                    let factor = if norm > thresh {
                        1.0 - thresh / norm
                    } else {
                        0.0
                    };
                    for r in i * cfg.lag..(i + 1) * cfg.lag {
                        for c in 0..hcols {
                            let v = w.get2(r, c);
                            w.set2(r, c, v * factor);
                        }
                    }
                }
            }
            // Per-target heartbeat tick: sweep progress for the monitor.
            cf_obs::heartbeat::progress_inc("baseline.cmlp.target", n as u64);
        });

        // Phase C: sequential edge selection (consumes rng).
        let mut graph = CausalGraph::new(n);
        for (target, st) in states.iter().enumerate() {
            // Causal scores: group norms of the trained input layer.
            let w_in = st.store.value(st.l1.weight());
            let scores: Vec<f64> = (0..n).map(|i| group_norm(w_in, i, cfg.lag)).collect();
            let mask = top_class_mask(rng, &scores, 2, 1);
            for (i, &selected) in mask.iter().enumerate() {
                if !selected {
                    continue;
                }
                // Delay: the lag with the largest input-row norm.
                let mut best_lag = 1;
                let mut best = f64::NEG_INFINITY;
                for el in 1..=cfg.lag {
                    let v = lag_norm(w_in, i, cfg.lag, el);
                    if v > best {
                        best = v;
                        best_lag = el;
                    }
                }
                graph.add_edge(i, target, Some(best_lag));
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
        let data = generate(&mut rng, Structure::Fork, 500);
        let cmlp = Cmlp::new(CmlpConfig {
            epochs: 80,
            ..Default::default()
        });
        let g = cmlp.discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &g);
        assert!(f1 >= 0.4, "F1 {f1}, graph {g}, truth {}", data.truth);
    }

    #[test]
    fn outputs_delays_on_every_edge() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate(&mut rng, Structure::VStructure, 300);
        let cmlp = Cmlp::new(CmlpConfig {
            epochs: 40,
            ..Default::default()
        });
        let g = cmlp.discover(&mut rng, &data.series);
        assert!(cmlp.outputs_delays());
        for e in g.edges() {
            let d = e.delay.expect("cMLP must annotate delays");
            assert!((1..=4).contains(&d), "delay {d} outside lag range");
        }
    }

    #[test]
    fn graph_covers_all_targets() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = generate(&mut rng, Structure::Mediator, 200);
        let g = Cmlp::new(CmlpConfig {
            epochs: 20,
            ..Default::default()
        })
        .discover(&mut rng, &data.series);
        assert_eq!(g.num_series(), 3);
    }
}
