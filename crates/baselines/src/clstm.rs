//! cLSTM — component-wise LSTM neural Granger causality (Tank et al. [31]).
//!
//! One LSTM per target series consumes all `N` series as input features and
//! predicts the target one step ahead. A group penalty over the *columns*
//! of the input projections (one group per source series, across all four
//! gates) shrinks non-causal inputs; series `i` Granger-causes the target
//! iff its input-weight group survives. Like the original — and like the
//! paper's Table 2, which omits cLSTM — the method does not output delays:
//! the recurrent state mixes all past lags.
//!
//! As with [`Cmlp`](crate::Cmlp), the group penalty is applied as a
//! proximal shrinkage step after each Adam update, and survivors are
//! selected by k-means on the group norms.

use crate::sweep_cache::{fingerprint_payload, SweepCache};
use crate::Discoverer;
use cf_data::window::standardize;
use cf_metrics::kmeans::top_class_mask;
use cf_metrics::CausalGraph;
use cf_nn::{Adam, Linear, LstmCell, Optimizer, ParamStore};
use cf_tensor::{with_pooled_tape, Tensor};
use rand::RngCore;
use std::path::Path;

/// Minimum estimated per-target training FLOPs (MACs through the four gate
/// projections, forward only) before the per-target sweep is dispatched to
/// the worker pool. Below this, pool dispatch plus thread contention on
/// small hosts outweighs any overlap — the sweep runs on the calling
/// thread, producing bitwise-identical weights either way.
const CLSTM_PAR_WORK_THRESHOLD: usize = 64 * 1024 * 1024;

/// Hyper-parameters of the cLSTM baseline.
#[derive(Debug, Clone, Copy)]
pub struct ClstmConfig {
    /// LSTM hidden width.
    pub hidden: usize,
    /// BPTT sequence length.
    pub seq_len: usize,
    /// Stride between training sequences.
    pub stride: usize,
    /// Group-penalty coefficient on the input projections.
    pub lambda: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
}

impl Default for ClstmConfig {
    fn default() -> Self {
        Self {
            hidden: 12,
            seq_len: 12,
            stride: 6,
            lambda: 3e-3,
            epochs: 30,
            lr: 2e-2,
        }
    }
}

/// The cLSTM discoverer. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct Clstm {
    /// Hyper-parameters.
    pub config: ClstmConfig,
}

impl Clstm {
    /// A cLSTM with the given configuration.
    pub fn new(config: ClstmConfig) -> Self {
        Self { config }
    }

    /// [`Discoverer::discover`] with per-target checkpointing under `dir`:
    /// the four trained gate input-projection matrices of each finished
    /// target are persisted, and a restarted sweep skips those targets. The
    /// resulting graph is bitwise identical to an uninterrupted
    /// [`discover`] call with the same rng seed (see
    /// [`crate::sweep_cache`]).
    ///
    /// [`discover`]: Discoverer::discover
    pub fn discover_resumable(
        &self,
        rng: &mut dyn RngCore,
        series: &Tensor,
        dir: &Path,
    ) -> std::io::Result<CausalGraph> {
        let payload = fingerprint_payload(&format!("{:?}", self.config), series);
        let cache = SweepCache::open(dir, "cLSTM", &payload)?;
        Ok(self.discover_impl(rng, series, Some(&cache)))
    }
}

impl Discoverer for Clstm {
    fn name(&self) -> &'static str {
        "cLSTM"
    }

    fn discover(&self, rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph {
        self.discover_impl(rng, series, None)
    }
}

impl Clstm {
    fn discover_impl(
        &self,
        rng: &mut dyn RngCore,
        series: &Tensor,
        cache: Option<&SweepCache>,
    ) -> CausalGraph {
        let cfg = self.config;
        let n = series.shape()[0];
        let l = series.shape()[1];
        assert!(l > cfg.seq_len + 1, "series too short for BPTT window");
        let std_series = standardize(series);

        // Sequence start offsets (each sequence predicts seq_len steps).
        let starts: Vec<usize> = (0..l - cfg.seq_len - 1).step_by(cfg.stride).collect();

        // Same three-phase split as cMLP: sequential rng-consuming init,
        // parallel rng-free BPTT training, sequential rng-consuming edge
        // selection — graph output is identical at any thread count.
        struct TargetState {
            store: ParamStore,
            cell: LstmCell,
            head: Linear,
            target: usize,
        }

        // Phase A: sequential init (consumes rng).
        let mut states: Vec<TargetState> = (0..n)
            .map(|target| {
                let mut store = ParamStore::new();
                let cell = LstmCell::new(&mut store, rng, "lstm", n, cfg.hidden);
                let head = Linear::xavier(&mut store, rng, "head", cfg.hidden, 1, true);
                TargetState {
                    store,
                    cell,
                    head,
                    target,
                }
            })
            .collect();

        // Resume: restore already-trained gate input projections from the
        // sweep cache (sequentially). Phase C's group norms read only
        // these four matrices, so nothing else needs restoring.
        let gate_names = ["wx0", "wx1", "wx2", "wx3"];
        let restored: Vec<bool> = if let Some(c) = cache {
            states
                .iter_mut()
                .enumerate()
                .map(|(t, st)| {
                    let Some(arts) = c.load(t) else {
                        return false;
                    };
                    let ids = st.cell.input_weights();
                    let ok = arts.len() == ids.len()
                        && arts.iter().zip(&ids).zip(&gate_names).all(
                            |(((name, w), &id), &expect)| {
                                name == expect && w.shape() == st.store.value(id).shape()
                            },
                        );
                    if !ok {
                        return false;
                    }
                    for ((_, w), &id) in arts.into_iter().zip(&ids) {
                        *st.store.value_mut(id) = w;
                    }
                    true
                })
                .collect()
        } else {
            vec![false; n]
        };

        // Phase B: parallel rng-free training (restored targets skip it).
        let train_target = |idx: usize, st: &mut TargetState| {
            if restored[idx] {
                cf_obs::heartbeat::progress_inc("baseline.clstm.target", n as u64);
                return;
            }
            let target = st.target;
            let (store, cell, head) = (&mut st.store, &st.cell, &st.head);
            let mut adam = Adam::new(cfg.lr);

            for _ in 0..cfg.epochs {
                with_pooled_tape(|tape| {
                    let bound = store.bind(tape);
                    let mut loss_acc: Option<cf_tensor::VarId> = None;
                    let mut count = 0usize;
                    for &start in &starts {
                        let mut state = cell.zero_state(tape, 1);
                        for step in 0..cfg.seq_len {
                            let t = start + step;
                            let x_t = Tensor::from_vec(
                                vec![1, n],
                                (0..n).map(|i| std_series.get2(i, t)).collect(),
                            )
                            .expect("consistent");
                            let xv = tape.constant(x_t);
                            state = cell.step(tape, &bound, xv, state);
                            let pred = head.forward(tape, &bound, state.h);
                            let tgt = tape.constant(
                                Tensor::from_vec(vec![1, 1], vec![std_series.get2(target, t + 1)])
                                    .expect("consistent"),
                            );
                            let diff = tape.sub(pred, tgt);
                            let sq = tape.square(diff);
                            let term = tape.sum_all(sq);
                            loss_acc = Some(match loss_acc {
                                None => term,
                                Some(acc) => tape.add(acc, term),
                            });
                            count += 1;
                        }
                    }
                    let sum = loss_acc.expect("at least one sequence");
                    let loss = tape.scale(sum, 1.0 / count as f64);
                    let grads = tape.backward(loss);
                    adam.step(store, &bound, &grads);
                });

                // Proximal group shrinkage over input columns (rows of W_x,
                // which is input_dim×hidden — one row per source series)
                // jointly across the four gates.
                let thresh = cfg.lr * cfg.lambda;
                let norms = input_group_norms(store, cell, n);
                for (i, &norm) in norms.iter().enumerate() {
                    let factor = if norm > thresh {
                        1.0 - thresh / norm
                    } else {
                        0.0
                    };
                    for wx in cell.input_weights() {
                        let w = store.value_mut(wx);
                        let h = w.shape()[1];
                        for c in 0..h {
                            let v = w.get2(i, c);
                            w.set2(i, c, v * factor);
                        }
                    }
                }
            }
            // Per-target heartbeat tick: covers both the serial and the
            // fanned-out path, since both go through this closure.
            cf_obs::heartbeat::progress_inc("baseline.clstm.target", n as u64);
        };
        // Each target trains independently and consumes no rng, so the
        // serial and parallel paths produce bitwise-identical weights —
        // pick by per-target work size. Small models lose more to pool
        // dispatch and thread contention than they gain (the quick-budget
        // Fork cLSTM once read 0.40 s at 1 thread and 0.49 s at 4, one
        // sample each on a 1-core host), so they stay on this thread.
        let per_target_flops = cfg.epochs
            * starts.len()
            * cfg.seq_len
            * 4 // gates
            * (n + cfg.hidden)
            * cfg.hidden;
        // The heartbeat unit opens at 0/n from serial code so repeated
        // sweeps in one process restart the bar.
        cf_obs::heartbeat::progress("baseline.clstm.target", 0, n as u64);
        if !cf_par::should_fan_out(per_target_flops as u64, CLSTM_PAR_WORK_THRESHOLD as u64) {
            for (idx, st) in states.iter_mut().enumerate() {
                train_target(idx, st);
            }
        } else {
            cf_par::par_each_mut(&mut states, train_target);
        }

        // Checkpoint each freshly trained target (sequential writes).
        if let Some(c) = cache {
            for (t, st) in states.iter().enumerate() {
                if !restored[t] {
                    let ids = st.cell.input_weights();
                    let tensors: Vec<(&str, &Tensor)> = gate_names
                        .iter()
                        .zip(&ids)
                        .map(|(&name, &id)| (name, st.store.value(id)))
                        .collect();
                    c.store(t, &tensors);
                }
            }
        }

        // Phase C: sequential edge selection (consumes rng).
        let mut graph = CausalGraph::new(n);
        for st in &states {
            let scores = input_group_norms(&st.store, &st.cell, n);
            let mask = top_class_mask(rng, &scores, 2, 1);
            for (i, &selected) in mask.iter().enumerate() {
                if selected {
                    graph.add_edge(i, st.target, None);
                }
            }
        }
        graph
    }
}

/// Joint L2 norm, per source series, of that series' rows across the four
/// gate input-projection matrices.
fn input_group_norms(store: &ParamStore, cell: &LstmCell, n: usize) -> Vec<f64> {
    let mut norms = vec![0.0f64; n];
    for wx in cell.input_weights() {
        let w = store.value(wx);
        let h = w.shape()[1];
        for (i, norm) in norms.iter_mut().enumerate() {
            for c in 0..h {
                let v = w.get2(i, c);
                *norm += v * v;
            }
        }
    }
    norms.into_iter().map(f64::sqrt).collect()
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
        let data = generate(&mut rng, Structure::Fork, 300);
        let clstm = Clstm::new(ClstmConfig {
            epochs: 15,
            ..Default::default()
        });
        let g = clstm.discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &g);
        assert!(f1 >= 0.3, "F1 {f1}, graph {g}, truth {}", data.truth);
    }

    #[test]
    fn does_not_output_delays() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = generate(&mut rng, Structure::VStructure, 150);
        let clstm = Clstm::new(ClstmConfig {
            epochs: 3,
            ..Default::default()
        });
        assert!(!clstm.outputs_delays());
        let g = clstm.discover(&mut rng, &data.series);
        for e in g.edges() {
            assert_eq!(e.delay, None);
        }
    }
}
