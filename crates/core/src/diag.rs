//! Model diagnostics recorder: per-epoch interpretability snapshots.
//!
//! CausalFormer's product is the *interpretable* state of the model —
//! the causal attention masks, the convolution kernel bank, and the
//! relevance-modulated causal scores. This module streams that state to
//! a versioned JSONL artifact (`diagnostics.cfdiag`, via the CLI's
//! `--diag-out`) so the `causalformer report` dashboard can show how
//! attention sparsity, mask entropy, and the causal-score matrix evolve
//! over training.
//!
//! The stream is the `diag` sink of the current [`cf_obs::Recorder`];
//! this module only formats its records. Two contracts, both
//! load-bearing:
//!
//! * **Zero overhead when off.** Every hook first checks for the sink;
//!   with none installed the training loop does no extra work (not even
//!   the snapshot arithmetic).
//! * **Bitwise determinism when on.** Records carry *no timestamps* and
//!   are emitted only from serial code (the epoch loop and the
//!   aggregated detect stage, never from inside a parallel region), so
//!   the artifact is byte-identical at any `CF_THREADS` and with the
//!   buffer pool on or off — the property `tests/diag_determinism.rs`
//!   pins down.

use crate::config::ModelConfig;
use crate::detector::CausalScores;
use crate::model::CausalityAwareTransformer;
use cf_nn::{ParamId, ParamStoreBase};
use cf_obs::json::{Arr, Obj};
use cf_obs::Recorder;
use cf_tensor::{Scalar, TensorBase};
use std::sync::Arc;

/// Artifact format version (major.minor). Major bumps are breaking:
/// `causalformer report` refuses majors it does not know.
pub const FORMAT_VERSION: &str = "1.0";

/// The current recorder, when it has a diagnostics sink.
fn recorder() -> Option<Arc<Recorder>> {
    Some(Recorder::current()).filter(|r| r.diag.is_installed())
}

/// The parameter group a name belongs to: the prefix before the first
/// `.`, with trailing digits stripped — `head0.wq` and `head1.mask`
/// both land in `head`, `conv.kernel` in `conv`.
fn param_group(name: &str) -> &str {
    let prefix = name.split('.').next().unwrap_or(name);
    prefix.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// Per-epoch accumulator for gradient norms, grouped by parameter
/// family. Built fresh each epoch by the trainer (and discarded on
/// rollback, so a retried epoch starts clean).
#[derive(Default)]
pub struct GradGroupAccum {
    /// (group, sum of squared gradient elements), insertion-ordered.
    groups: Vec<(String, f64)>,
    steps: usize,
}

impl GradGroupAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one optimizer step's gradient pairs in.
    pub fn observe<E: Scalar>(
        &mut self,
        store: &ParamStoreBase<E>,
        pairs: &[(ParamId, TensorBase<E>)],
    ) {
        for (id, g) in pairs {
            let group = param_group(store.name(*id));
            let sumsq: f64 = g
                .data()
                .iter()
                .map(|v| {
                    let x = v.to_f64();
                    x * x
                })
                .sum();
            match self.groups.iter_mut().find(|(name, _)| name == group) {
                Some((_, acc)) => *acc += sumsq,
                None => self.groups.push((group.to_string(), sumsq)),
            }
        }
        self.steps += 1;
    }

    /// Mean per-step L2 norm per group, in first-seen order.
    fn norms(&self) -> Vec<(&str, f64)> {
        let steps = self.steps.max(1) as f64;
        self.groups
            .iter()
            .map(|(name, sumsq)| (name.as_str(), (sumsq / steps).sqrt()))
            .collect()
    }
}

/// Mask statistics of one attention head.
struct MaskStats {
    /// Fraction of entries with |m| ≤ 1% of the head's max |m|.
    sparsity: f64,
    /// Shannon entropy (nats) of the normalised |m| distribution.
    entropy: f64,
}

fn mask_stats<E: Scalar>(mask: &TensorBase<E>) -> MaskStats {
    let data = mask.data();
    let max_abs = data.iter().fold(0.0f64, |m, v| m.max(v.to_f64().abs()));
    if max_abs == 0.0 || data.is_empty() {
        return MaskStats {
            sparsity: 1.0,
            entropy: 0.0,
        };
    }
    let near_zero = data
        .iter()
        .filter(|v| v.to_f64().abs() <= 0.01 * max_abs)
        .count();
    let total: f64 = data.iter().map(|v| v.to_f64().abs()).sum();
    let entropy = -data
        .iter()
        .map(|v| v.to_f64().abs() / total)
        .filter(|&p| p > 0.0)
        .map(|p| p * p.ln())
        .sum::<f64>();
    MaskStats {
        sparsity: near_zero as f64 / data.len() as f64,
        entropy,
    }
}

/// Emits the artifact header: format, version, and the model shape the
/// rest of the records describe. Called once by the trainer before the
/// first epoch.
pub fn record_header(config: &ModelConfig) {
    let Some(recorder) = recorder() else { return };
    recorder.diag.emit(
        &Obj::new()
            .str("record", "header")
            .str("format", "cfdiag")
            .str("version", FORMAT_VERSION)
            .u64("n_series", config.n_series as u64)
            .u64("window", config.window as u64)
            .u64("heads", config.heads as u64)
            .f64("temperature", config.temperature)
            .finish(),
    );
}

/// Emits one epoch's interpretability snapshot: losses, per-head mask
/// sparsity/entropy, the mean-|mask| causal proxy matrix (the report's
/// causal-matrix-evolution panel), and per-group gradient norms.
pub fn record_epoch<E: Scalar>(
    epoch: usize,
    train_loss: f64,
    val_loss: f64,
    model: &CausalityAwareTransformer,
    store: &ParamStoreBase<E>,
    grads: &GradGroupAccum,
) {
    let Some(recorder) = recorder() else { return };
    let cfg = model.config();
    let n = cfg.n_series;
    let mask_ids = model.masks();
    let mut sparsity = Arr::new();
    let mut entropy = Arr::new();
    let mut proxy = vec![vec![0.0f64; n]; n];
    for &id in &mask_ids {
        let mask = store.value(id);
        let stats = mask_stats(mask);
        sparsity = sparsity.f64(stats.sparsity);
        entropy = entropy.f64(stats.entropy);
        for i in 0..n {
            for j in 0..n {
                proxy[i][j] += mask.get2(i, j).abs() / mask_ids.len() as f64;
            }
        }
    }
    let mut grad_obj = Obj::new();
    for (group, norm) in grads.norms() {
        grad_obj = grad_obj.f64(group, norm);
    }
    recorder.diag.emit(
        &Obj::new()
            .str("record", "epoch")
            .u64("epoch", epoch as u64)
            .f64("train_loss", train_loss)
            .f64("val_loss", val_loss)
            .f64("temperature", cfg.temperature)
            .raw("mask_sparsity", &sparsity.finish())
            .raw("mask_entropy", &entropy.finish())
            .raw("causal_proxy", &matrix(&proxy))
            .raw("grad_norms", &grad_obj.finish())
            .finish(),
    );
}

/// A matrix as a JSON array of row arrays.
fn matrix(rows: &[Vec<f64>]) -> String {
    let row = |r: &Vec<f64>| r.iter().fold(Arr::new(), |a, &v| a.f64(v)).finish();
    rows.iter().fold(Arr::new(), |a, r| a.raw(&row(r))).finish()
}

/// Deterministic quantiles (min/p25/p50/p75/max) of a value set, by
/// total-order sort — no interpolation, so the output is a bitwise
/// function of the input multiset.
fn quantiles(mut values: Vec<f64>) -> [f64; 5] {
    if values.is_empty() {
        return [0.0; 5];
    }
    values.sort_by(f64::total_cmp);
    let pick = |q: f64| values[((values.len() - 1) as f64 * q).round() as usize];
    [
        values[0],
        pick(0.25),
        pick(0.5),
        pick(0.75),
        values[values.len() - 1],
    ]
}

/// Emits the final detection snapshot: the aggregated causal attention
/// score matrix, per-(cause,effect) argmax kernel delays, and the
/// distribution of the relevance-modulated kernel scores.
pub fn record_detect(scores: &CausalScores, window: usize) {
    let Some(recorder) = recorder() else { return };
    let n = scores.attn.len();
    // delays[i][j]: the lag read off the argmax kernel tap of j → i
    // (Eq. 20's read-out, without the self-shift adjustment — the graph
    // applies that; this is the raw per-pair trajectory endpoint).
    let mut delay_rows = Arr::new();
    let mut kernel_values = Vec::with_capacity(n * n * window);
    for i in 0..n {
        let mut r = Arr::new();
        for j in 0..n {
            let mut best_u = 0usize;
            let mut best_v = f64::NEG_INFINITY;
            for u in 0..window {
                let v = scores.kernel[i].get2(j, u);
                kernel_values.push(v);
                if v > best_v {
                    best_v = v;
                    best_u = u;
                }
            }
            r = r.u64((window - 1 - best_u) as u64);
        }
        delay_rows = delay_rows.raw(&r.finish());
    }
    let q = quantiles(kernel_values);
    recorder.diag.emit(
        &Obj::new()
            .str("record", "detect")
            .raw("attn", &matrix(&scores.attn))
            .raw("delays", &delay_rows.finish())
            .raw(
                "relevance_quantiles",
                &Obj::new()
                    .f64("min", q[0])
                    .f64("p25", q[1])
                    .f64("p50", q[2])
                    .f64("p75", q[3])
                    .f64("max", q[4])
                    .finish(),
            )
            .finish(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_tensor::Tensor;

    #[test]
    fn t_param_groups_strip_trailing_digits() {
        assert_eq!(param_group("head0.wq"), "head");
        assert_eq!(param_group("head12.mask"), "head");
        assert_eq!(param_group("conv.kernel"), "conv");
        assert_eq!(param_group("emb.w"), "emb");
        assert_eq!(param_group("plain"), "plain");
    }

    #[test]
    fn t_mask_stats_on_known_matrix() {
        let m = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let s = mask_stats(&m);
        assert_eq!(s.sparsity, 0.75);
        // All mass on one entry: zero entropy.
        assert_eq!(s.entropy, 0.0);

        let u = Tensor::from_vec(vec![2, 2], vec![0.5, 0.5, 0.5, 0.5]).unwrap();
        let su = mask_stats(&u);
        assert_eq!(su.sparsity, 0.0);
        assert!((su.entropy - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn t_quantiles_are_order_statistics() {
        let q = quantiles(vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(q, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(quantiles(vec![]), [0.0; 5]);
        assert_eq!(quantiles(vec![7.0]), [7.0; 5]);
    }
}
