//! The decomposition-based causality detector (paper §4.2).
//!
//! For each sample window the detector:
//!
//! 1. runs one [RRP](crate::rrp) pass to get the relevance of every
//!    attention matrix `𝒜` and of the causal convolution kernel bank `𝒦`
//!    (Fig. 6a),
//! 2. runs one backward pass on the autodiff tape for the gradients
//!    `∂(Σ_t X̃[i,t])/∂𝒜` and `∂/∂𝒦`, and *modulates* the relevance:
//!    `S = E_h(|∇f| ⊙ R)⁺` (Eq. 19, Fig. 6b),
//! 3. averages causal scores over a batch of sample windows,
//! 4. k-means-clusters each target's attention scores and keeps the top
//!    `m/n` classes as causal edges; the causal delay of an edge comes from
//!    the argmax kernel tap (Eq. 20, Fig. 6c).
//!
//! Both passes are seeded with ones on every target row at once, and
//! target `i` reads its scores from attention row `𝒜[h][i,:]` and kernel
//! slab `𝒦[:, i, :]`. That is exact, not an approximation: prediction row
//! `i` reads only those entries (`attn_apply` row `i` reads `shifted[:, i,
//! :]`, the FFN and output layer act row-wise), so no other target's seed
//! reaches them; and RRP is linear in its seed and skips zero relevance,
//! so each row and slab holds bitwise what a one-hot seed on row `i`
//! would give.
//!
//! Every ablation of the paper's Table 3 is a [`DetectorMode`] switch (plus
//! `ModelConfig::single_kernel` for the conv ablation).

use crate::config::{DetectorConfig, DetectorMode};
use crate::model::{CausalityAwareTransformer, ForwardTrace};
use crate::rrp::{self, RrpLayers, RrpResult, WidenedWeights};
use cf_metrics::kmeans::top_class_mask;
use cf_metrics::CausalGraph;
use cf_nn::ParamStoreBase;
use cf_tensor::{with_pooled_tape, Scalar, TapeBase, Tensor, TensorBase};
use rand::Rng;

/// Accumulated causal scores: per target series `i`, an `N`-vector of
/// attention scores over candidate causes and an `N×T` matrix of kernel
/// scores (cause × tap).
#[derive(Debug, Clone)]
pub struct CausalScores {
    /// `attn[i][j]` — causal score of the relation `j → i`.
    pub attn: Vec<Vec<f64>>,
    /// `kernel[i]` — `N×T`; row `j` holds the per-tap scores of `j → i`.
    pub kernel: Vec<Tensor>,
}

impl CausalScores {
    fn zeros(n: usize, t: usize) -> Self {
        Self {
            attn: vec![vec![0.0; n]; n],
            kernel: vec![Tensor::zeros(&[n, t]); n],
        }
    }

    fn add_scaled(&mut self, other: &CausalScores, w: f64) {
        for i in 0..self.attn.len() {
            for j in 0..self.attn[i].len() {
                self.attn[i][j] += w * other.attn[i][j];
            }
            self.kernel[i].axpy(w, &other.kernel[i]);
        }
    }

    fn scale(&mut self, w: f64) {
        for row in &mut self.attn {
            for v in row {
                *v *= w;
            }
        }
        for k in &mut self.kernel {
            for v in k.data_mut() {
                *v *= w;
            }
        }
    }
}

/// Computes the causal scores contributed by a single window: one forward
/// pass, then one gradient pass and one relevance pass, each seeded with
/// ones on every target row (see the module docs for why the rows stay
/// apart). Scores are always f64 — for an f32-trained model the forward
/// values cross into f64 at the RRP/read-out boundary.
pub fn window_scores<E: Scalar>(
    model: &CausalityAwareTransformer,
    store: &ParamStoreBase<E>,
    x_window: &TensorBase<E>,
    mode: DetectorMode,
) -> CausalScores {
    let weights = WidenedWeights::of(model, store);
    scores_with(model, store, &weights, x_window, mode)
}

/// [`window_scores`] with the model's RRP weights already widened, so a
/// detection over many windows widens and transposes them once.
fn scores_with<E: Scalar>(
    model: &CausalityAwareTransformer,
    store: &ParamStoreBase<E>,
    weights: &WidenedWeights,
    x_window: &TensorBase<E>,
    mode: DetectorMode,
) -> CausalScores {
    let _span = cf_obs::span!("window_scores");
    score_window(
        model,
        store,
        weights,
        x_window,
        mode,
        |tape, trace, layers| {
            let (n, t) = (layers.pred.shape()[0], layers.pred.shape()[1]);
            let grads = (mode != DetectorMode::NoGradient)
                .then(|| cut_gradients(tape, trace, TensorBase::ones(&[n, t])));
            let rel = (mode != DetectorMode::NoRelevance)
                .then(|| rrp::propagate(layers, &Tensor::ones(&[n, t])));
            let shape = (n, t, trace.attn.len());
            let (attn, kernel) = (0..n)
                .map(|i| combine_target(i, shape, grads.as_ref(), rel.as_ref()))
                .unzip();
            CausalScores { attn, kernel }
        },
    )
}

/// Runs the forward pass on a pooled tape and hands `passes` the tape, the
/// trace, and the RRP inputs read off it. `NoInterpretation` reads the
/// model weights directly and never calls `passes`.
fn score_window<E: Scalar>(
    model: &CausalityAwareTransformer,
    store: &ParamStoreBase<E>,
    weights: &WidenedWeights,
    x_window: &TensorBase<E>,
    mode: DetectorMode,
    passes: impl FnOnce(&TapeBase<E>, &ForwardTrace, &RrpLayers<'_>) -> CausalScores,
) -> CausalScores {
    let cfg = model.config();
    let (n, t) = (cfg.n_series, cfg.window);
    with_pooled_tape(|tape| {
        let bound = store.bind(tape);
        let trace = model.forward(tape, &bound, x_window);
        // The forward pass is done recording; the passes only read it.
        let tape: &TapeBase<E> = tape;

        if mode == DetectorMode::NoInterpretation {
            // Read model weights directly: attention matrices and |kernel|.
            let mut scores = CausalScores::zeros(n, t);
            let heads = trace.attn.len();
            let bank = tape.value(trace.bank);
            for i in 0..n {
                for j in 0..n {
                    let mean_attn: f64 = trace
                        .attn
                        .iter()
                        .map(|&a| tape.value(a).get2(i, j))
                        .sum::<f64>()
                        / heads as f64;
                    scores.attn[i][j] = mean_attn;
                    for u in 0..t {
                        scores.kernel[i].set2(j, u, bank.get3(j, i, u).abs());
                    }
                }
            }
            return scores;
        }

        // Pull the forward values needed by RRP off the tape once. RRP
        // itself stays f64 whatever the training dtype: relevance
        // propagation is a read-out, not a hot loop, so the forward
        // values are materialised as f64 tensors here (an identity copy
        // when E = f64), as the caller did the weights.
        let head_out: Vec<Tensor> = trace
            .head_out
            .iter()
            .map(|&v| tape.value(v).to_f64_tensor())
            .collect();
        let attn_vals: Vec<Tensor> = trace
            .attn
            .iter()
            .map(|&v| tape.value(v).to_f64_tensor())
            .collect();
        let x_v = tape.value(trace.x).to_f64_tensor();
        let pred_v = tape.value(trace.pred).to_f64_tensor();
        let ffn_out_v = tape.value(trace.ffn_out).to_f64_tensor();
        let ffn_act_v = tape.value(trace.ffn_act).to_f64_tensor();
        let ffn_pre_v = tape.value(trace.ffn_pre).to_f64_tensor();
        let att_v = tape.value(trace.att).to_f64_tensor();
        let shifted_v = tape.value(trace.shifted).to_f64_tensor();
        let bank_v = tape.value(trace.bank).to_f64_tensor();
        let layers = RrpLayers {
            x: &x_v,
            pred: &pred_v,
            ffn_out: &ffn_out_v,
            ffn_act: &ffn_act_v,
            ffn_pre: &ffn_pre_v,
            att: &att_v,
            head_out: &head_out,
            attn: &attn_vals,
            shifted: &shifted_v,
            bank: &bank_v,
            weights,
            with_bias: mode != DetectorMode::NoBias,
        };
        layers.validate_shapes();
        passes(tape, &trace, &layers)
    })
}

/// Gradients of the seeded prediction at the two tensors the detector
/// scores.
struct CutGradients<E: Scalar> {
    /// `∂/∂𝒜` per head (`N×N`).
    attn: Vec<TensorBase<E>>,
    /// `∂/∂𝒦` (`N×N×T`).
    bank: TensorBase<E>,
}

/// One backward pass from the prediction, seeded with `seed` (`N×T`), that
/// stops at the cut: only the nodes between `pred` and the attention
/// matrices / kernel bank are differentiated.
fn cut_gradients<E: Scalar>(
    tape: &TapeBase<E>,
    trace: &ForwardTrace,
    seed: TensorBase<E>,
) -> CutGradients<E> {
    let (n, t) = (seed.shape()[0], seed.shape()[1]);
    let mut cut = trace.attn.clone();
    cut.push(trace.bank);
    let mut grads = tape.backward_to(trace.pred, seed, &cut);
    CutGradients {
        attn: trace
            .attn
            .iter()
            .map(|&a| grads.take(a).unwrap_or_else(|| TensorBase::zeros(&[n, n])))
            .collect(),
        bank: grads
            .take(trace.bank)
            .unwrap_or_else(|| TensorBase::zeros(&[n, n, t])),
    }
}

/// One entry of Eq. 19 before the (·)⁺ rectifier: `|∇f|·R`, or the
/// ablated `|∇f|` (w/o relevance) or `R` (w/o gradient).
#[inline]
fn eq19_term<E: Scalar>(grad: Option<E>, rel: Option<f64>) -> f64 {
    match (grad, rel) {
        (Some(g), Some(r)) => g.to_f64().abs() * r,
        (Some(g), None) => g.to_f64().abs(),
        (None, Some(r)) => r,
        (None, None) => unreachable!("Eq. 19 needs a gradient or a relevance"),
    }
}

/// Eq. 19 (or its ablated variants: whichever of `grads` and `rel` the mode
/// computed) for target `i`: row `i` of every attention gradient and
/// relevance, slab `[:, i, :]` of the kernel ones. Returns the target's
/// attention-score row and its `N×T` kernel scores.
fn combine_target<E: Scalar>(
    i: usize,
    (n, t, heads): (usize, usize, usize),
    grads: Option<&CutGradients<E>>,
    rel: Option<&RrpResult>,
) -> (Vec<f64>, Tensor) {
    // Heads accumulate in order per entry, then average.
    let mut attn_row = vec![0.0; n];
    for h in 0..heads {
        let g = grads.map(|g| g.attn[h].row(i));
        let r = rel.map(|r| r.attn[h].row(i));
        for (j, acc) in attn_row.iter_mut().enumerate() {
            *acc += eq19_term(g.map(|g| g[j]), r.map(|r| r[j])).max(0.0);
        }
    }
    for acc in &mut attn_row {
        *acc /= heads as f64;
    }

    let mut kernel_i = Tensor::zeros(&[n, t]);
    for (j, out) in kernel_i.data_mut().chunks_exact_mut(t).enumerate() {
        let slab = (j * n + i) * t..(j * n + i + 1) * t;
        let g = grads.map(|g| &g.bank.data()[slab.clone()]);
        let r = rel.map(|r| &r.kernel.data()[slab.clone()]);
        for (u, o) in out.iter_mut().enumerate() {
            *o += eq19_term(g.map(|g| g[u]), r.map(|r| r[u])).max(0.0);
        }
    }
    (attn_row, kernel_i)
}

/// Windows [`aggregate_scores`] scores per block and per cf-par thread
/// before folding the block into the running sum: detection holds
/// `SCORE_BLOCK_PER_THREAD × threads` per-window scores at a time, however
/// many windows it samples.
pub const SCORE_BLOCK_PER_THREAD: usize = 8;

/// Averages [`window_scores`] over up to `cfg.sample_windows` windows
/// (evenly spaced through `windows`).
pub fn aggregate_scores<E: Scalar>(
    model: &CausalityAwareTransformer,
    store: &ParamStoreBase<E>,
    windows: &[TensorBase<E>],
    cfg: &DetectorConfig,
) -> CausalScores {
    let _span = cf_obs::span!("aggregate_scores");
    assert!(
        !windows.is_empty(),
        "need at least one window for detection"
    );
    cfg.validate();
    let mcfg = model.config();
    let mut total = CausalScores::zeros(mcfg.n_series, mcfg.window);
    let k = cfg.sample_windows.min(windows.len());
    let step = windows.len() as f64 / k as f64;
    // Open the heartbeat unit at 0/k from serial code so a repeated
    // detection pass in the same process restarts its bar instead of
    // accumulating past `total`.
    cf_obs::heartbeat::progress("detect.window", 0, k as u64);
    // Each sampled window is an independent, rng-free scoring pass — the
    // coarse grain the scheduler wants, and the only fan-out of detection:
    // within a window, one gradient pass and one relevance pass serve every
    // target. Score a block of windows as chunks, fold it into `total` in
    // sample order, then start the next: the same left fold the old serial
    // loop performed, so the sum stays bitwise identical at any thread
    // count, and at most one block of per-window scores is alive at once.
    let weights = WidenedWeights::of(model, store);
    let block = SCORE_BLOCK_PER_THREAD * cf_par::threads();
    for start in (0..k).step_by(block) {
        let scored = cf_par::par_map(block.min(k - start), |b| {
            let idx = ((start + b) as f64 * step) as usize;
            let window = &windows[idx.min(windows.len() - 1)];
            let scores = scores_with(model, store, &weights, window, cfg.mode);
            // Parallel progress: each completed window ticks the heartbeat
            // unit. Tick order varies with scheduling; the scores don't.
            cf_obs::heartbeat::progress_inc("detect.window", k as u64);
            scores
        });
        for ws in &scored {
            total.add_scaled(ws, 1.0);
        }
    }
    total.scale(1.0 / k as f64);
    total
}

/// Builds the causal graph from aggregated scores (paper §4.2.3): per
/// target, k-means the attention scores into `n` classes, keep the top `m`
/// classes as causes, and annotate each edge with the argmax kernel delay
/// (Eq. 20).
pub fn build_graph<R: Rng + ?Sized>(
    rng: &mut R,
    scores: &CausalScores,
    window: usize,
    cfg: &DetectorConfig,
) -> CausalGraph {
    let _span = cf_obs::span!("build_graph");
    let n = scores.attn.len();
    let mut graph = CausalGraph::new(n);
    for i in 0..n {
        // Causal scores span orders of magnitude (relevance × gradient
        // products compound small factors), so cluster in log space; the
        // floor keeps exact zeros finite and in the bottom class.
        let row_max = scores.attn[i].iter().cloned().fold(0.0f64, f64::max);
        let floor = row_max.max(f64::MIN_POSITIVE) * 1e-6;
        let row: Vec<f64> = scores.attn[i].iter().map(|&v| (v + floor).ln()).collect();
        let mask = top_class_mask(rng, &row, cfg.n_clusters, cfg.m_top);
        for (j, &selected) in mask.iter().enumerate() {
            if !selected {
                continue;
            }
            // Eq. 20 (0-indexed): tap u touches lag T−1−u; the diagonal
            // right-shift adds one slot of delay for self-causation.
            let mut best_u = 0usize;
            let mut best_v = f64::NEG_INFINITY;
            for u in 0..window {
                let v = scores.kernel[i].get2(j, u);
                if v > best_v {
                    best_v = v;
                    best_u = u;
                }
            }
            let mut delay = window - 1 - best_u;
            if i == j {
                delay += 1;
            }
            graph.add_edge(j, i, Some(delay));
        }
    }
    graph
}

/// Permutation-importance causal scores — the perturbation-based
/// attribution family the paper reviews in §2.2 ([41, 42]), provided as an
/// alternative read-out of the same trained model for comparison with the
/// decomposition-based detector.
///
/// The score of `j → i` is the increase in series `i`'s prediction error
/// when series `j`'s *input* row is replaced by a permuted copy (breaking
/// its temporal alignment while preserving its marginal distribution),
/// averaged over `windows`. Kernel-tap scores are not defined under
/// permutation, so the returned `CausalScores::kernel` holds the per-window
/// error increase replicated across taps — delays fall back to the
/// most-recent tap.
pub fn permutation_scores<E: Scalar, R: Rng + ?Sized>(
    rng: &mut R,
    model: &CausalityAwareTransformer,
    store: &ParamStoreBase<E>,
    windows: &[TensorBase<E>],
) -> CausalScores {
    use rand::seq::SliceRandom;
    let _span = cf_obs::span!("permutation_scores");
    assert!(!windows.is_empty(), "need at least one window");
    let cfg = model.config();
    let (n, t) = (cfg.n_series, cfg.window);
    let mut scores = CausalScores::zeros(n, t);

    // Per-series squared error of a forward pass, ignoring slot 0 (as the
    // training loss does).
    let per_series_err = |x: &TensorBase<E>, target_like: &TensorBase<E>| -> Vec<f64> {
        with_pooled_tape(|tape| {
            let bound = store.bind(tape);
            let trace = model.forward(tape, &bound, x);
            let pred = tape.value(trace.pred);
            (0..n)
                .map(|i| {
                    (1..t)
                        .map(|tt| {
                            let d = pred.get2(i, tt) - target_like.get2(i, tt);
                            d * d
                        })
                        .sum::<f64>()
                        / (t - 1) as f64
                })
                .collect()
        })
    };

    for w in windows {
        let base = per_series_err(w, w);
        for j in 0..n {
            // Permute series j's row within the window (shuffled as f64
            // values; `set2` narrows back to E).
            let mut perm: Vec<f64> = w.row(j).iter().map(|v| v.to_f64()).collect();
            perm.shuffle(rng);
            let mut xp = w.clone();
            for (tt, &v) in perm.iter().enumerate() {
                xp.set2(j, tt, v);
            }
            let perturbed = per_series_err(&xp, w);
            for i in 0..n {
                let delta = (perturbed[i] - base[i]).max(0.0);
                scores.attn[i][j] += delta / windows.len() as f64;
                // No tap resolution under permutation: mark the newest tap
                // so the delay read-out degrades gracefully to "lag 0/1".
                let prev = scores.kernel[i].get2(j, t - 1);
                scores.kernel[i].set2(j, t - 1, prev + delta / windows.len() as f64);
            }
        }
    }
    scores
}

/// Convenience wrapper: aggregate scores over `windows` and build the graph.
pub fn detect<E: Scalar, R: Rng + ?Sized>(
    rng: &mut R,
    model: &CausalityAwareTransformer,
    store: &ParamStoreBase<E>,
    windows: &[TensorBase<E>],
    cfg: &DetectorConfig,
) -> (CausalGraph, CausalScores) {
    let scores = aggregate_scores(model, store, windows, cfg);
    crate::diag::record_detect(&scores, model.config().window);
    let graph = build_graph(rng, &scores, model.config().window, cfg);
    (graph, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use cf_nn::ParamStore;
    use cf_tensor::uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, CausalityAwareTransformer, Vec<Tensor>) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let cfg = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            ..ModelConfig::compact(3, 6)
        };
        let model = CausalityAwareTransformer::new(&mut store, &mut rng, cfg);
        let windows: Vec<Tensor> = (0..4)
            .map(|_| uniform(&mut rng, &[3, 6], -1.0, 1.0))
            .collect();
        (store, model, windows)
    }

    #[test]
    fn scores_are_finite_and_non_negative_in_all_modes() {
        let (store, model, windows) = setup();
        for mode in [
            DetectorMode::Full,
            DetectorMode::NoInterpretation,
            DetectorMode::NoRelevance,
            DetectorMode::NoGradient,
            DetectorMode::NoBias,
        ] {
            let s = window_scores(&model, &store, &windows[0], mode);
            for i in 0..3 {
                for j in 0..3 {
                    let v = s.attn[i][j];
                    assert!(v.is_finite(), "{mode:?} attn[{i}][{j}] = {v}");
                    if mode != DetectorMode::NoInterpretation {
                        assert!(v >= 0.0, "{mode:?} attn[{i}][{j}] = {v} negative");
                    }
                }
                assert!(s.kernel[i].all_finite(), "{mode:?} kernel[{i}]");
            }
        }
    }

    /// The per-target detector the one-pass [`window_scores`] replaced:
    /// for each target `i`, one backward pass and one RRP pass, each seeded
    /// one-hot on row `i`.
    fn per_target_scores<E: Scalar>(
        model: &CausalityAwareTransformer,
        store: &ParamStoreBase<E>,
        x_window: &TensorBase<E>,
        mode: DetectorMode,
    ) -> CausalScores {
        let weights = WidenedWeights::of(model, store);
        score_window(
            model,
            store,
            &weights,
            x_window,
            mode,
            |tape, trace, layers| {
                let (n, t) = (layers.pred.shape()[0], layers.pred.shape()[1]);
                let shape = (n, t, trace.attn.len());
                let (attn, kernel) = (0..n)
                    .map(|i| {
                        let mut seed = Tensor::zeros(&[n, t]);
                        for tt in 0..t {
                            seed.set2(i, tt, 1.0);
                        }
                        let grads = (mode != DetectorMode::NoGradient).then(|| {
                            cut_gradients(tape, trace, TensorBase::<E>::from_f64_tensor(&seed))
                        });
                        let rel = (mode != DetectorMode::NoRelevance)
                            .then(|| rrp::propagate(layers, &seed));
                        combine_target(i, shape, grads.as_ref(), rel.as_ref())
                    })
                    .unzip();
                CausalScores { attn, kernel }
            },
        )
    }

    fn assert_one_pass_matches_per_target<E: Scalar>(n: usize, single_kernel: bool) {
        const MODES: [DetectorMode; 5] = [
            DetectorMode::Full,
            DetectorMode::NoInterpretation,
            DetectorMode::NoRelevance,
            DetectorMode::NoGradient,
            DetectorMode::NoBias,
        ];
        let t = 6;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut store = ParamStoreBase::<E>::new();
        let cfg = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            single_kernel,
            ..ModelConfig::compact(n, t)
        };
        let model = CausalityAwareTransformer::new(&mut store, &mut rng, cfg);
        let x = TensorBase::<E>::from_f64_tensor(&uniform(&mut rng, &[n, t], -1.0, 1.0));
        for mode in MODES {
            let one = window_scores(&model, &store, &x, mode);
            let reference = per_target_scores(&model, &store, &x, mode);
            let mut nonzero = 0;
            for i in 0..n {
                for j in 0..n {
                    let (a, b) = (one.attn[i][j], reference.attn[i][j]);
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{mode:?} n={n} attn[{i}][{j}]: {a} vs {b}"
                    );
                    nonzero += usize::from(a != 0.0);
                    for u in 0..t {
                        let (a, b) = (one.kernel[i].get2(j, u), reference.kernel[i].get2(j, u));
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{mode:?} n={n} kernel[{i}]({j},{u}): {a} vs {b}"
                        );
                    }
                }
            }
            assert!(nonzero > 0, "{mode:?} n={n}: all-zero scores pin nothing");
        }
    }

    #[test]
    fn one_pass_scores_match_per_target_passes_bitwise() {
        for n in [3, 8, 20] {
            for single_kernel in [false, true] {
                assert_one_pass_matches_per_target::<f64>(n, single_kernel);
                assert_one_pass_matches_per_target::<f32>(n, single_kernel);
            }
        }
    }

    /// The detector's backward pass stops at the cut: at the attention
    /// matrices and the kernel bank it must give bitwise the full pass's
    /// gradients, and no parameter off the cut may receive one.
    fn assert_cut_walk_matches_full_backward<E: Scalar>(single_kernel: bool) {
        let (n, t) = (5, 6);
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStoreBase::<E>::new();
        let cfg = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            single_kernel,
            ..ModelConfig::compact(n, t)
        };
        let model = CausalityAwareTransformer::new(&mut store, &mut rng, cfg);
        let x = TensorBase::<E>::from_f64_tensor(&uniform(&mut rng, &[n, t], -1.0, 1.0));
        let mut tape = TapeBase::<E>::new();
        let bound = store.bind(&mut tape);
        let trace = model.forward(&mut tape, &bound, &x);
        let mut cut = trace.attn.clone();
        cut.push(trace.bank);
        let full = tape.backward_with_seed(trace.pred, TensorBase::ones(&[n, t]));
        let part = tape.backward_to(trace.pred, TensorBase::ones(&[n, t]), &cut);
        let bits = |g: &TensorBase<E>| -> Vec<u64> {
            g.data().iter().map(|v| v.to_f64().to_bits()).collect()
        };
        for &c in &cut {
            let what = format!("single_kernel={single_kernel} node {}", c.index());
            assert_eq!(
                bits(part.expect(c, &what)),
                bits(full.expect(c, &what)),
                "{what}"
            );
        }
        // Without `single_kernel` the bank is the kernel parameter itself,
        // a cut node; with it, the bank is tiled from the parameter below.
        for id in store.ids().filter(|&id| !cut.contains(&bound.var(id))) {
            let var = bound.var(id);
            assert!(
                full.get(var).is_some(),
                "full pass misses {}",
                store.name(id)
            );
            assert!(
                part.get(var).is_none(),
                "single_kernel={single_kernel}: parameter {} got a gradient",
                store.name(id)
            );
        }
    }

    #[test]
    fn cut_backward_matches_full_backward_and_skips_parameters() {
        for single_kernel in [false, true] {
            assert_cut_walk_matches_full_backward::<f64>(single_kernel);
            assert_cut_walk_matches_full_backward::<f32>(single_kernel);
        }
    }

    #[test]
    fn aggregate_averages_not_sums() {
        let (store, model, windows) = setup();
        let one = aggregate_scores(
            &model,
            &store,
            &windows[..1],
            &DetectorConfig {
                sample_windows: 1,
                ..Default::default()
            },
        );
        let four = aggregate_scores(
            &model,
            &store,
            &windows,
            &DetectorConfig {
                sample_windows: 4,
                ..Default::default()
            },
        );
        // Averaged scores stay on the same order of magnitude.
        let m1: f64 = one.attn.iter().flatten().sum();
        let m4: f64 = four.attn.iter().flatten().sum();
        assert!(
            m4 < 4.0 * m1 + 1e-9,
            "aggregation summed instead of averaged"
        );
    }

    #[test]
    fn build_graph_respects_m_over_n_density() {
        let mut rng = StdRng::seed_from_u64(0);
        let n = 4;
        let t = 6;
        // Construct synthetic scores with one clear cause per target.
        let mut scores = CausalScores {
            attn: vec![vec![0.01; n]; n],
            kernel: vec![Tensor::zeros(&[n, t]); n],
        };
        for i in 0..n {
            scores.attn[i][(i + 1) % n] = 5.0;
            scores.kernel[i].set2((i + 1) % n, t - 2, 3.0); // lag 1
        }
        let cfg = DetectorConfig {
            n_clusters: 2,
            m_top: 1,
            ..Default::default()
        };
        let g = build_graph(&mut rng, &scores, t, &cfg);
        assert_eq!(g.num_edges(), n, "{g}");
        for i in 0..n {
            assert!(g.has_edge((i + 1) % n, i));
            assert_eq!(g.delay((i + 1) % n, i), Some(Some(1)));
        }
    }

    #[test]
    fn self_edge_delay_accounts_for_shift() {
        let mut rng = StdRng::seed_from_u64(1);
        let (n, t) = (2, 6);
        let mut scores = CausalScores {
            attn: vec![vec![0.01; n]; n],
            kernel: vec![Tensor::zeros(&[n, t]); n],
        };
        // Target 0 caused by itself: kernel argmax at the last tap (u=T−1 ⇒
        // raw lag 0) must be reported as delay 1 because of the self shift.
        scores.attn[0][0] = 5.0;
        scores.kernel[0].set2(0, t - 1, 9.0);
        let cfg = DetectorConfig {
            n_clusters: 2,
            m_top: 1,
            ..Default::default()
        };
        let g = build_graph(&mut rng, &scores, t, &cfg);
        assert_eq!(g.delay(0, 0), Some(Some(1)));
    }

    #[test]
    fn permutation_scores_are_finite_nonnegative_and_sized() {
        let (store, model, windows) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let s = permutation_scores(&mut rng, &model, &store, &windows);
        assert_eq!(s.attn.len(), 3);
        for i in 0..3 {
            for j in 0..3 {
                let v = s.attn[i][j];
                assert!(v.is_finite() && v >= 0.0, "perm score ({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn permuting_an_informative_series_raises_its_score() {
        // Train a tiny model where series 0 drives series 1 strongly, then
        // check the permutation score of 0→1 exceeds that of 2→1.
        use crate::config::TrainConfig;
        use crate::trainer::train;
        use cf_data::synthetic::{generate, Structure};
        use cf_data::window;
        // Seed chosen to give a clear margin under the vendored RNG stream.
        let mut rng = StdRng::seed_from_u64(4);
        let data = generate(&mut rng, Structure::Fork, 300);
        let std_series = window::standardize(&data.series);
        let windows: Vec<Tensor> = window::windows(&std_series, 8, 2);
        let mc = ModelConfig {
            d_model: 12,
            d_qk: 12,
            d_ffn: 12,
            ..ModelConfig::compact(3, 8)
        };
        let tc = TrainConfig {
            max_epochs: 20,
            ..TrainConfig::default()
        };
        let (trained, _) = train(&mut rng, mc, tc, &windows);
        let s = permutation_scores(&mut rng, &trained.model, &trained.store, &windows[..6]);
        // Fork: S1 (index 0) causes S2 (index 1); S3 (index 2) does not.
        assert!(
            s.attn[1][0] > s.attn[1][2],
            "cause score {} should beat non-cause {}",
            s.attn[1][0],
            s.attn[1][2]
        );
    }

    #[test]
    fn detect_end_to_end_returns_graph_over_all_series() {
        let (store, model, windows) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let (graph, scores) = detect(
            &mut rng,
            &model,
            &store,
            &windows,
            &DetectorConfig::default(),
        );
        assert_eq!(graph.num_series(), 3);
        assert_eq!(scores.attn.len(), 3);
        // With m/n = 1/2 at least one edge per target is selected.
        for i in 0..3 {
            assert!(!graph.parents(i).is_empty(), "target {i} has no causes");
        }
    }
}
