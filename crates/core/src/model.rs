//! The causality-aware transformer (paper §4.1).
//!
//! Architecture, for an `N×T` observation window `X`:
//!
//! 1. **Time-series embedding** (Eq. 2): `X_emb = X·W_emb + b_emb`, used
//!    only by the query/key projections — the value path must preserve
//!    temporal order for the temporal-priority constraint.
//! 2. **Multi-kernel causal convolution** (Eq. 3): a learnable bank
//!    `𝒦 ∈ R^{N×N×T}` convolves each series' zero-padded history for each
//!    prediction target, giving `X̂ ∈ R^{N×N×T}`; diagonal rows are
//!    right-shifted (Eq. 4) so a series never sees its own current value.
//! 3. **Multi-variate causal attention** (Eq. 5–7): per head, 𝒜 =
//!    softmax(Q·Kᵀ/(τ·√d_QK) ⊙ M) with a learnable mask `M`, applied to the
//!    shifted convolution as `A[i,t] = Σ_j 𝒜[i,j]·V[j,i,t]`; heads are
//!    combined with the scalar weights `W_O ∈ R^h`.
//! 4. **Feed-forward** (Eq. 8) along the time dimension and an **output
//!    layer** produce the prediction `X̃ ∈ R^{N×T}`.
//!
//! The loss (Eq. 9) is the MSE over all slots except the first, plus L1
//! sparsity penalties on `𝒦` and the attention masks.

use crate::config::ModelConfig;
use cf_nn::{BoundParams, Linear, ParamId, ParamStoreBase};
use cf_tensor::{he_normal, Scalar, TapeBase, TensorBase, VarId};
use rand::Rng;

/// Per-head parameters of the multi-variate causal attention.
struct AttentionHead {
    w_q: ParamId,
    b_q: ParamId,
    w_k: ParamId,
    b_k: ParamId,
    mask: ParamId,
}

/// The causality-aware transformer. Owns [`ParamId`]s into a
/// [`ParamStore`](cf_nn::ParamStore); see [`CausalityAwareTransformer::forward`].
pub struct CausalityAwareTransformer {
    config: ModelConfig,
    w_emb: ParamId,
    b_emb: ParamId,
    kernel: ParamId,
    heads: Vec<AttentionHead>,
    w_o: ParamId,
    ffn1: Linear,
    ffn2: Linear,
    output: Linear,
}

/// Tape handles for every intermediate of one forward pass. The
/// decomposition-based causality detector walks these backwards (relevance)
/// and forwards (values/gradients).
pub struct ForwardTrace {
    /// The input window leaf (`N×T`).
    pub x: VarId,
    /// The `N×N×T` kernel bank as used by the convolution — the kernel
    /// parameter itself, or its tiled expansion in single-kernel mode.
    pub bank: VarId,
    /// Raw convolution result `X̂` (`N×N×T`).
    pub conv: VarId,
    /// Self-shifted convolution — the attention value tensor (`N×N×T`).
    pub shifted: VarId,
    /// Per-head attention matrices `𝒜` after softmax (`N×N`).
    pub attn: Vec<VarId>,
    /// Per-head attention outputs `A^{(k)}` (`N×T`).
    pub head_out: Vec<VarId>,
    /// Per-head outputs scaled by their `W_O` weight (`N×T`).
    pub head_scaled: Vec<VarId>,
    /// Combined attention output `Att` (`N×T`).
    pub att: VarId,
    /// FFN hidden pre-activation (`N×d_FFN`).
    pub ffn_pre: VarId,
    /// FFN hidden post-activation (`N×d_FFN`).
    pub ffn_act: VarId,
    /// FFN output (`N×T`).
    pub ffn_out: VarId,
    /// Final prediction `X̃` (`N×T`).
    pub pred: VarId,
}

impl CausalityAwareTransformer {
    /// Registers all parameters (He-initialised, paper §5.3) in `store`.
    ///
    /// The attention masks start at 1 (no masking) and the head-combination
    /// weights at `1/h`, so the initial model averages heads uniformly.
    pub fn new<E: Scalar, R: Rng + ?Sized>(
        store: &mut ParamStoreBase<E>,
        rng: &mut R,
        config: ModelConfig,
    ) -> Self {
        config.validate();
        let n = config.n_series;
        let t = config.window;
        let d = config.d_model;

        let w_emb = store.register("emb.w", he_normal(rng, &[t, d], t));
        let b_emb = store.register("emb.b", TensorBase::zeros(&[d]));

        let kernel_shape: &[usize] = if config.single_kernel {
            &[n, t]
        } else {
            &[n, n, t]
        };
        let kernel = store.register("conv.kernel", he_normal(rng, kernel_shape, t));

        let heads = (0..config.heads)
            .map(|h| AttentionHead {
                w_q: store.register(format!("head{h}.wq"), he_normal(rng, &[d, config.d_qk], d)),
                b_q: store.register(format!("head{h}.bq"), TensorBase::zeros(&[config.d_qk])),
                w_k: store.register(format!("head{h}.wk"), he_normal(rng, &[d, config.d_qk], d)),
                b_k: store.register(format!("head{h}.bk"), TensorBase::zeros(&[config.d_qk])),
                mask: store.register(format!("head{h}.mask"), TensorBase::ones(&[n, n])),
            })
            .collect();

        let w_o = store.register(
            "attn.wo",
            TensorBase::full(&[config.heads], 1.0 / config.heads as f64),
        );

        let ffn1 = Linear::he(store, rng, "ffn.lin1", t, config.d_ffn, true);
        let ffn2 = Linear::he(store, rng, "ffn.lin2", config.d_ffn, t, true);
        let output = Linear::he(store, rng, "out", t, t, true);

        Self {
            config,
            w_emb,
            b_emb,
            kernel,
            heads,
            w_o,
            ffn1,
            ffn2,
            output,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The causal convolution kernel parameter (`N×N×T`, or `N×T` in
    /// single-kernel mode).
    pub fn kernel(&self) -> ParamId {
        self.kernel
    }

    /// The per-head attention mask parameters.
    pub fn masks(&self) -> Vec<ParamId> {
        self.heads.iter().map(|h| h.mask).collect()
    }

    /// Bias parameters of the layers the RRP pass walks through (output
    /// layer, FFN) — needed by the bias-aware relevance rule (Eq. 15/16).
    pub fn rrp_biases(&self) -> RrpBiases {
        RrpBiases {
            output_b: self.output.bias().expect("output layer has bias"),
            ffn2_b: self.ffn2.bias().expect("ffn2 has bias"),
            ffn1_b: self.ffn1.bias().expect("ffn1 has bias"),
        }
    }

    /// Weight parameters needed by the RRP pass.
    pub fn rrp_weights(&self) -> RrpWeights {
        RrpWeights {
            output_w: self.output.weight(),
            ffn2_w: self.ffn2.weight(),
            ffn1_w: self.ffn1.weight(),
            w_o: self.w_o,
        }
    }

    /// Runs the forward pass for one `N×T` window, recording every
    /// intermediate on `tape`.
    ///
    /// # Panics
    /// Panics if `x`'s shape does not match the configuration.
    pub fn forward<E: Scalar>(
        &self,
        tape: &mut TapeBase<E>,
        bound: &BoundParams,
        x_window: &TensorBase<E>,
    ) -> ForwardTrace {
        assert_eq!(
            x_window.shape(),
            &[self.config.n_series, self.config.window],
            "window shape mismatch"
        );
        let x = tape.constant(x_window.clone());

        // Embedding (Eq. 2) — query/key path only.
        let emb_lin = tape.matmul(x, bound.var(self.w_emb));
        let emb = tape.add_row_vector(emb_lin, bound.var(self.b_emb));

        // Multi-kernel causal convolution (Eq. 3) + self shift (Eq. 4).
        let kernel_bank = if self.config.single_kernel {
            tape.tile_pairs(bound.var(self.kernel))
        } else {
            bound.var(self.kernel)
        };
        let bank = kernel_bank;
        let conv = tape.causal_conv(x, bank);
        let shifted = tape.self_shift(conv);

        // Multi-variate causal attention per head (Eq. 5–6).
        let scale = 1.0 / (self.config.temperature * (self.config.d_qk as f64).sqrt());
        let mut attn = Vec::with_capacity(self.heads.len());
        let mut head_out = Vec::with_capacity(self.heads.len());
        let mut head_scaled = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let q_lin = tape.matmul(emb, bound.var(head.w_q));
            let q = tape.add_row_vector(q_lin, bound.var(head.b_q));
            let k_lin = tape.matmul(emb, bound.var(head.w_k));
            let k = tape.add_row_vector(k_lin, bound.var(head.b_k));
            let scores = tape.matmul_nt(q, k);
            let scaled = tape.scale(scores, scale);
            let masked = tape.mul(scaled, bound.var(head.mask));
            let a = tape.softmax_rows(masked);
            let out = tape.attn_apply(a, shifted);
            attn.push(a);
            head_out.push(out);
        }

        // Head combination (Eq. 7): Att = Σ_k W_O[k]·A^{(k)}.
        let mut att = None;
        for (h, &out) in head_out.iter().enumerate() {
            let scaled = tape.scale_by_elem(out, bound.var(self.w_o), h);
            head_scaled.push(scaled);
            att = Some(match att {
                None => scaled,
                Some(acc) => tape.add(acc, scaled),
            });
        }
        let att = att.expect("at least one head (validated)");

        // Feed forward (Eq. 8) + output layer.
        let ffn_pre = self.ffn1.forward(tape, bound, att);
        let ffn_act = tape.leaky_relu(ffn_pre, self.config.leaky_slope);
        let ffn_out = self.ffn2.forward(tape, bound, ffn_act);
        let pred = self.output.forward(tape, bound, ffn_out);

        ForwardTrace {
            x,
            bank,
            conv,
            shifted,
            attn,
            head_out,
            head_scaled,
            att,
            ffn_pre,
            ffn_act,
            ffn_out,
            pred,
        }
    }

    /// Builds the per-window prediction loss: MSE over every slot except
    /// the first (Eq. 9, "we ignore the prediction of the first time slot").
    /// Returns a scalar node.
    pub fn prediction_loss<E: Scalar>(
        &self,
        tape: &mut TapeBase<E>,
        trace: &ForwardTrace,
        target: &TensorBase<E>,
    ) -> VarId {
        let n = self.config.n_series;
        let t = self.config.window;
        assert_eq!(target.shape(), &[n, t], "target shape mismatch");
        let tgt = tape.constant(target.clone());
        let diff = tape.sub(trace.pred, tgt);
        let sq = tape.square(diff);
        // Mask out the first slot of every series.
        let mut mask = TensorBase::ones(&[n, t]);
        for i in 0..n {
            mask.set2(i, 0, 0.0);
        }
        let masked = tape.mul_const(sq, mask);
        let total = tape.sum_all(masked);
        tape.scale(total, 1.0 / (n * (t - 1)) as f64)
    }

    /// Adds the L1 sparsity penalties of Eq. 9: `λ_𝒦‖𝒦‖₁ + λ_M Σ_h‖M_h‖₁`.
    /// Returns a scalar node (zero work when both λ are 0).
    pub fn sparsity_penalty<E: Scalar>(
        &self,
        tape: &mut TapeBase<E>,
        bound: &BoundParams,
    ) -> VarId {
        let mut acc = tape.constant(TensorBase::scalar(0.0));
        if self.config.lambda_kernel > 0.0 {
            let l1k = tape.l1(bound.var(self.kernel));
            let scaled = tape.scale(l1k, self.config.lambda_kernel);
            acc = tape.add(acc, scaled);
        }
        if self.config.lambda_mask > 0.0 {
            for head in &self.heads {
                let l1m = tape.l1(bound.var(head.mask));
                let scaled = tape.scale(l1m, self.config.lambda_mask);
                acc = tape.add(acc, scaled);
            }
        }
        if self.config.lambda_lag > 0.0 {
            // Future-work lag-decay penalty: tap u touches lag T−1−u, so
            // weight its L1 contribution by that lag. |w⊙𝒦|₁ = w·|𝒦| for
            // the non-negative weight tensor w.
            let t = self.config.window;
            let shape = if self.config.single_kernel {
                vec![self.config.n_series, t]
            } else {
                vec![self.config.n_series, self.config.n_series, t]
            };
            let mut weights = TensorBase::<E>::zeros(&shape);
            let per_row: Vec<E> = (0..t).map(|u| E::from_f64((t - 1 - u) as f64)).collect();
            for chunk in weights.data_mut().chunks_mut(t) {
                chunk.copy_from_slice(&per_row);
            }
            let weighted = tape.mul_const(bound.var(self.kernel), weights);
            let l1lag = tape.l1(weighted);
            let scaled = tape.scale(l1lag, self.config.lambda_lag);
            acc = tape.add(acc, scaled);
        }
        acc
    }
}

/// Bias parameters consumed by the RRP rules (Eq. 15/16).
pub struct RrpBiases {
    /// Output-layer bias.
    pub output_b: ParamId,
    /// Second FFN linear bias.
    pub ffn2_b: ParamId,
    /// First FFN linear bias.
    pub ffn1_b: ParamId,
}

/// Weight parameters consumed by the RRP rules.
pub struct RrpWeights {
    /// Output-layer weight (`T×T`).
    pub output_w: ParamId,
    /// Second FFN linear weight (`d_FFN×T`).
    pub ffn2_w: ParamId,
    /// First FFN linear weight (`T×d_FFN`).
    pub ffn1_w: ParamId,
    /// Head-combination weights (`h`).
    pub w_o: ParamId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_nn::ParamStore;
    use cf_tensor::{uniform, Tape, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(config: ModelConfig) -> (ParamStore, CausalityAwareTransformer, Tensor) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let model = CausalityAwareTransformer::new(&mut store, &mut rng, config);
        let x = uniform(&mut rng, &[config.n_series, config.window], -1.0, 1.0);
        (store, model, x)
    }

    #[test]
    fn forward_shapes() {
        let config = ModelConfig::compact(4, 8);
        let (store, model, x) = setup(config);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let trace = model.forward(&mut tape, &bound, &x);
        assert_eq!(tape.value(trace.pred).shape(), &[4, 8]);
        assert_eq!(tape.value(trace.conv).shape(), &[4, 4, 8]);
        assert_eq!(tape.value(trace.att).shape(), &[4, 8]);
        assert_eq!(trace.attn.len(), 2);
        for &a in &trace.attn {
            let attn = tape.value(a);
            assert_eq!(attn.shape(), &[4, 4]);
            // Softmax rows sum to one.
            for i in 0..4 {
                let s: f64 = attn.row(i).iter().sum();
                assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let config = ModelConfig::compact(3, 8);
        let (store, model, x) = setup(config);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let trace = model.forward(&mut tape, &bound, &x);
        let loss = model.prediction_loss(&mut tape, &trace, &x);
        let penalty = model.sparsity_penalty(&mut tape, &bound);
        let total = tape.add(loss, penalty);
        let v = tape.value(total).item();
        assert!(v.is_finite() && v > 0.0, "loss = {v}");
    }

    #[test]
    fn loss_ignores_first_slot() {
        // Changing the target's first column must not change the loss.
        let config = ModelConfig::compact(3, 8);
        let (store, model, x) = setup(config);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let trace = model.forward(&mut tape, &bound, &x);
        let l1 = model.prediction_loss(&mut tape, &trace, &x);
        let mut x2 = x.clone();
        for i in 0..3 {
            x2.set2(i, 0, 99.0);
        }
        let l2 = model.prediction_loss(&mut tape, &trace, &x2);
        assert_eq!(tape.value(l1).item(), tape.value(l2).item());
    }

    #[test]
    fn every_parameter_receives_gradient() {
        let config = ModelConfig::compact(3, 8);
        let (store, model, x) = setup(config);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let trace = model.forward(&mut tape, &bound, &x);
        let loss = model.prediction_loss(&mut tape, &trace, &x);
        let penalty = model.sparsity_penalty(&mut tape, &bound);
        let total = tape.add(loss, penalty);
        let grads = tape.backward(total);
        for id in store.ids() {
            assert!(
                grads.get(bound.var(id)).is_some(),
                "parameter {} got no gradient",
                store.name(id)
            );
        }
    }

    #[test]
    fn self_prediction_does_not_see_current_value() {
        // Perturbing x_i at the final slot must not change pred[i, T−1]'s
        // dependence via the value path... it *can* via attention logits
        // (embedding uses the full window). The temporal-priority guarantee
        // the paper makes is about the value path: with attention frozen
        // (single head, mask irrelevant), the *convolution value* feeding
        // series i at slot t excludes x_i[t]. Check the shifted tensor
        // directly.
        let config = ModelConfig::compact(3, 8);
        let (store, model, x) = setup(config);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let trace = model.forward(&mut tape, &bound, &x);

        let mut x2 = x.clone();
        x2.set2(1, 7, x.get2(1, 7) + 10.0);
        let mut tape2 = Tape::new();
        let bound2 = store.bind(&mut tape2);
        let trace2 = model.forward(&mut tape2, &bound2, &x2);

        // The diagonal (self) value row of series 1 is identical at the
        // final slot: the shift hides the current value.
        let v1 = tape.value(trace.shifted);
        let v2 = tape2.value(trace2.shifted);
        assert_eq!(v1.get3(1, 1, 7), v2.get3(1, 1, 7));
        // But other series' value rows for predicting series ≠1 at slot 7
        // do see it (instantaneous cross-causality is allowed):
        assert_ne!(v1.get3(1, 0, 7), v2.get3(1, 0, 7));
    }

    #[test]
    fn single_kernel_mode_builds_and_runs() {
        let mut config = ModelConfig::compact(3, 8);
        config.single_kernel = true;
        let (store, model, x) = setup(config);
        assert_eq!(store.value(model.kernel()).shape(), &[3, 8]);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let trace = model.forward(&mut tape, &bound, &x);
        assert_eq!(tape.value(trace.pred).shape(), &[3, 8]);
        // In single-kernel mode the conv result is identical across targets.
        let c = tape.value(trace.conv);
        for t in 0..8 {
            assert_eq!(c.get3(0, 0, t), c.get3(0, 2, t));
        }
    }

    #[test]
    fn lag_penalty_shrinks_long_lag_taps() {
        // Train the kernel against pure noise with a strong lag penalty:
        // long-lag taps (small u) pay more, so after a few steps the
        // average |tap| must increase with u.
        use cf_nn::{Adam, Optimizer};
        let mut config = ModelConfig::compact(3, 8);
        config.lambda_lag = 5e-2;
        config.lambda_kernel = 0.0;
        config.lambda_mask = 0.0;
        let (mut store, model, x) = setup(config);
        let mut adam = Adam::new(5e-3);
        for _ in 0..60 {
            let mut tape = Tape::new();
            let bound = store.bind(&mut tape);
            let trace = model.forward(&mut tape, &bound, &x);
            let loss = model.prediction_loss(&mut tape, &trace, &x);
            let pen = model.sparsity_penalty(&mut tape, &bound);
            let total = tape.add(loss, pen);
            let grads = tape.backward(total);
            adam.step(&mut store, &bound, &grads);
        }
        let k = store.value(model.kernel());
        let mean_abs_tap = |u: usize| -> f64 {
            let mut acc = 0.0;
            for i in 0..3 {
                for j in 0..3 {
                    acc += k.get3(i, j, u).abs();
                }
            }
            acc / 9.0
        };
        // The oldest tap (u = 0, lag 7) must be clearly smaller than the
        // newest (u = 7, lag 0).
        assert!(
            mean_abs_tap(0) < 0.5 * mean_abs_tap(7),
            "lag penalty had no effect: tap0 {} vs tap7 {}",
            mean_abs_tap(0),
            mean_abs_tap(7)
        );
    }

    #[test]
    fn zero_lambda_penalty_is_zero() {
        let mut config = ModelConfig::compact(3, 8);
        config.lambda_kernel = 0.0;
        config.lambda_mask = 0.0;
        let (store, model, _) = setup(config);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let p = model.sparsity_penalty(&mut tape, &bound);
        assert_eq!(tape.value(p).item(), 0.0);
    }
}
