//! Regression relevance propagation (RRP, paper §4.2.1).
//!
//! RRP extends layer-wise relevance propagation \[45\] from classifiers to
//! regression models. Starting from a relevance seed on the output rows of
//! the target series, relevance is decomposed layer by layer using the
//! generic rule (Eq. 17)
//!
//! ```text
//! R_i^(l) = Σ_j x_i · (∂f_j/∂x_i) · R_j^(l+1) / f_j(x)
//! ```
//!
//! with the bias included in the denominator (Eq. 15/16) — letting biases
//! *absorb* relevance that would otherwise be mis-attributed to inputs —
//! and the two-operand product rule (Eq. 18) for the attention·value
//! contraction. The propagation runs from the output layer down to the
//! attention matrices `𝒜` and the causal convolution kernel bank `𝒦`
//! (paper §4.2.3: the embedding and Q/K projections are not decomposed —
//! they never mix information *across* series' value paths).
//!
//! The paper seeds one target at a time (a one-hot seed on its row). Every
//! rule below is linear in the incoming relevance, works row by row
//! (attention row `a` and kernel slab `[:, a, :]` receive relevance only
//! from output row `a`), and skips zero relevance, so a seed of ones on
//! every row yields, in row `a` and slab `a`, bitwise what the one-hot seed
//! on `a` would. The detector relies on that to score all targets in one
//! pass.
//!
//! Leaky ReLU propagates relevance unchanged: applying Eq. 17 to an
//! elementwise `y = φ(x)` gives `R·x·φ'(x)/φ(x) = R` for both branches of
//! the leaky ReLU.
//!
//! **Stabilisation.** The plain z-rule divides by the layer output, which
//! lets large positive and negative contributions cancel in the
//! denominator and blow relevance up with arbitrary sign — a well-known
//! failure mode of LRP on attention models. Following the transformer-LRP
//! practice the paper builds on (Chefer et al. \[11\] propagate only
//! positive elements), the product decompositions here use the **z⁺
//! rule**: relevance is distributed proportionally to the *positive*
//! contributions, `R_i = Σ_j (z_ij)⁺ / (Σ_i' (z_i'j)⁺ [+ (b_j)⁺]) · R_j`.
//! The bias keeps its Eq. 15/16 role — a positive bias absorbs part of the
//! relevance (ablatable via `with_bias`).

use cf_tensor::{ops, Tensor};

/// Numerical stabiliser added (sign-preservingly) to RRP denominators — the
/// ε of LRP-ε. Keeps relevance finite when an activation is ≈ 0.
const EPS: f64 = 1e-6;

#[inline]
fn stab(d: f64) -> f64 {
    if d >= 0.0 {
        d + EPS
    } else {
        d - EPS
    }
}

/// Positive part (the z⁺ rule keeps only positive contributions).
#[inline]
fn pos(v: f64) -> f64 {
    v.max(0.0)
}

/// Relevance results of one RRP pass.
#[derive(Debug, Clone)]
pub struct RrpResult {
    /// Per-head relevance of the attention matrix `𝒜` (`N×N` each).
    pub attn: Vec<Tensor>,
    /// Relevance of the causal convolution kernel bank (`N×N×T`).
    pub kernel: Tensor,
}

/// Inputs to an RRP pass: forward values and weights, all plain tensors
/// (already pulled off the tape by the detector).
pub struct RrpLayers<'a> {
    /// Input window (`N×T`).
    pub x: &'a Tensor,
    /// Final prediction (`N×T`).
    pub pred: &'a Tensor,
    /// FFN output (`N×T`).
    pub ffn_out: &'a Tensor,
    /// FFN hidden post-activation (`N×d_FFN`).
    pub ffn_act: &'a Tensor,
    /// FFN hidden pre-activation (`N×d_FFN`).
    pub ffn_pre: &'a Tensor,
    /// Combined attention output (`N×T`).
    pub att: &'a Tensor,
    /// Per-head attention outputs (`N×T`).
    pub head_out: &'a [Tensor],
    /// Per-head attention matrices (`N×N`).
    pub attn: &'a [Tensor],
    /// Shifted convolution values (`N×N×T`).
    pub shifted: &'a Tensor,
    /// Kernel bank as used by the convolution (`N×N×T`).
    pub bank: &'a Tensor,
    /// Output layer weight (`T×T`) and bias (`T`).
    pub w_out: &'a Tensor,
    /// Output layer bias.
    pub b_out: &'a Tensor,
    /// Second FFN weight (`d_FFN×T`) and bias (`T`).
    pub w2: &'a Tensor,
    /// Second FFN bias.
    pub b2: &'a Tensor,
    /// First FFN weight (`T×d_FFN`) and bias (`d_FFN`).
    pub w1: &'a Tensor,
    /// First FFN bias.
    pub b1: &'a Tensor,
    /// Head-combination weights (`h`).
    pub w_o: &'a Tensor,
    /// Whether biases join the denominators (Eq. 15/16). `false` is the
    /// "w/o bias" ablation (plain z-rule, Eq. 14).
    pub with_bias: bool,
}

/// Runs RRP from the relevance `seed` on the prediction (`N×T`; Fig. 6a
/// seeds ones on the row of the series whose causes are sought) and
/// returns the relevance of every attention matrix and of the kernel bank.
///
/// # Panics
/// Panics if `seed` is not shaped like the prediction.
pub fn propagate(layers: &RrpLayers<'_>, seed: &Tensor) -> RrpResult {
    let _span = cf_obs::span!("rrp.propagate");
    let n = layers.pred.shape()[0];
    let t = layers.pred.shape()[1];
    assert_eq!(seed.shape(), layers.pred.shape(), "seed shape");

    // Output layer: pred = ffn_out · W_out + b_out.
    let r_ffn_out = linear_rrp(
        layers.ffn_out,
        layers.w_out,
        layers.pred,
        layers.b_out,
        seed,
        layers.with_bias,
    );

    // FFN second linear: ffn_out = ffn_act · W2 + b2.
    let r_ffn_act = linear_rrp(
        layers.ffn_act,
        layers.w2,
        layers.ffn_out,
        layers.b2,
        &r_ffn_out,
        layers.with_bias,
    );

    // Leaky ReLU: identity under Eq. 17 (see module docs). The first FFN
    // linear then maps relevance to the combined attention output.
    // ffn_pre = att · W1 + b1, and r_ffn_pre == r_ffn_act.
    let r_att = linear_rrp(
        layers.att,
        layers.w1,
        layers.ffn_pre,
        layers.b1,
        &r_ffn_act,
        layers.with_bias,
    );

    // Head combination: att = Σ_h W_O[h] · head_out[h] — a sum of products;
    // each term takes the share of its positive contribution (z⁺).
    let h = layers.head_out.len();
    let w_o = layers.w_o.data();
    let mut r_heads = vec![Tensor::zeros(&[n, t]); h];
    let mut z = vec![0.0; h];
    for (p, &r) in r_att.data().iter().enumerate() {
        if r == 0.0 {
            continue;
        }
        for ((zk, &wk), out) in z.iter_mut().zip(w_o).zip(layers.head_out) {
            *zk = pos(wk * out.data()[p]);
        }
        let denom = stab(z.iter().sum());
        for (r_head, &zk) in r_heads.iter_mut().zip(&z) {
            r_head.data_mut()[p] = zk / denom * r;
        }
    }

    // Attention application (Eq. 18 product rule, z⁺):
    // out[a,t] = Σ_j 𝒜[a,j] · V[j,a,t]. Target `a` reads the value
    // column V[:, a, :], gathered once as `v_a[t][j]` so each z⁺ row is
    // contiguous; its relevance collects in `r_v_a` and is scattered back.
    // The goldens pin the summation order: 𝒜 relevance sums over time,
    // V relevance over heads, each ascending.
    let mut attn_rel = vec![Tensor::zeros(&[n, n]); h];
    let mut r_shifted = Tensor::zeros(layers.shifted.shape());
    let (mut v_a, mut r_v_a) = (vec![0.0; t * n], vec![0.0; t * n]);
    let mut z = vec![0.0; n];
    let shifted = layers.shifted.data();
    for a in 0..n {
        for j in 0..n {
            let src = &shifted[(j * n + a) * t..(j * n + a + 1) * t];
            for (tt, &v) in src.iter().enumerate() {
                v_a[tt * n + j] = v;
            }
        }
        r_v_a.fill(0.0);
        for ((r_head, attn), r_attn) in r_heads.iter().zip(layers.attn).zip(&mut attn_rel) {
            let attn_row = attn.row(a);
            let r_attn_row = &mut r_attn.data_mut()[a * n..(a + 1) * n];
            for (tt, &r_out) in r_head.row(a).iter().enumerate() {
                if r_out == 0.0 {
                    continue;
                }
                let v_row = &v_a[tt * n..(tt + 1) * n];
                for ((zj, &aj), &vj) in z.iter_mut().zip(attn_row).zip(v_row) {
                    *zj = pos(aj * vj);
                }
                let denom = stab(z.iter().sum());
                let r_v_row = &mut r_v_a[tt * n..(tt + 1) * n];
                for ((ra, rv), &zj) in r_attn_row.iter_mut().zip(r_v_row).zip(&z) {
                    let contrib = zj / denom * r_out;
                    *ra += contrib;
                    *rv += contrib;
                }
            }
        }
        let rsd = r_shifted.data_mut();
        for j in 0..n {
            let dst = &mut rsd[(j * n + a) * t..(j * n + a + 1) * t];
            for (tt, d) in dst.iter_mut().enumerate() {
                *d = r_v_a[tt * n + j];
            }
        }
    }

    // Self-shift: relevance relocates exactly like gradients (pure index
    // permutation), so reuse the adjoint.
    let r_conv = ops::self_shift_backward(&r_shifted);

    // Convolution → kernel (conv-specialised Eq. 18, z⁺):
    // conv[a,b,t] = Σ_s 𝒦[a,b,u]·x[a,s]/(t+1) with u = T−1−t+s, so output
    // slot t reads the last t+1 taps of kernel row (a,b) against x[a, ..=t].
    let mut r_kernel = Tensor::zeros(layers.bank.shape());
    let mut z = vec![0.0; t];
    let (bank, rcd) = (layers.bank.data(), r_conv.data());
    let rkd = r_kernel.data_mut();
    for a in 0..n {
        let x_row = layers.x.row(a);
        for b in 0..n {
            let ab = (a * n + b) * t..(a * n + b + 1) * t;
            let (bank_row, out) = (&bank[ab.clone()], &mut rkd[ab.clone()]);
            for (tt, &r_out) in rcd[ab].iter().enumerate() {
                if r_out == 0.0 {
                    continue;
                }
                let scale = 1.0 / (tt + 1) as f64;
                let taps = t - 1 - tt..;
                let z_tt = &mut z[..=tt];
                for ((zs, &k), &xv) in z_tt.iter_mut().zip(&bank_row[taps.clone()]).zip(x_row) {
                    *zs = pos(k * xv * scale);
                }
                let denom = stab(z_tt.iter().sum());
                for (o, &zs) in out[taps].iter_mut().zip(z_tt.iter()) {
                    *o += zs / denom * r_out;
                }
            }
        }
    }

    RrpResult {
        attn: attn_rel,
        kernel: r_kernel,
    }
}

/// The parametric-layer rule (Eq. 15 with bias, Eq. 14 without) in its z⁺
/// form, for a row-wise linear layer `y = x·W + b`:
///
/// ```text
/// R_x[n,i] = Σ_j (x[n,i]·W[i,j])⁺ · R_y[n,j] / (Σ_i' (x[n,i']·W[i',j])⁺ [+ (b[j])⁺])
/// ```
///
/// A positive bias joins the denominator and absorbs its share of the
/// relevance (the Eq. 16 bias relevance) — exactly the "bias also matters"
/// effect the w/o-bias ablation removes.
fn linear_rrp(
    x: &Tensor,
    w: &Tensor,
    y: &Tensor,
    b: &Tensor,
    r_y: &Tensor,
    with_bias: bool,
) -> Tensor {
    let (rows, p) = (x.shape()[0], x.shape()[1]);
    let q = y.shape()[1];
    assert_eq!(w.shape(), &[p, q], "weight shape");
    assert_eq!(r_y.shape(), y.shape(), "relevance shape");
    // Row j of Wᵀ is the column that output j reads.
    let w_t = w.transpose2();
    let mut r_x = Tensor::zeros(&[rows, p]);
    let mut z = vec![0.0; p];
    for nrow in 0..rows {
        let x_row = x.row(nrow);
        let out = &mut r_x.data_mut()[nrow * p..(nrow + 1) * p];
        for (j, &r) in r_y.row(nrow).iter().enumerate() {
            if r == 0.0 {
                continue;
            }
            for ((zi, &xv), &wv) in z.iter_mut().zip(x_row).zip(w_t.row(j)) {
                *zi = pos(xv * wv);
            }
            let mut denom: f64 = z.iter().sum();
            if with_bias {
                denom += pos(b.data()[j]);
            }
            let denom = stab(denom);
            for (o, &zi) in out.iter_mut().zip(&z) {
                *o += zi / denom * r;
            }
        }
    }
    r_x
}

impl<'a> RrpLayers<'a> {
    /// Checks internal shape consistency; called by the detector before a
    /// propagation pass in debug builds.
    pub fn validate_shapes(&self) {
        let n = self.pred.shape()[0];
        let t = self.pred.shape()[1];
        debug_assert_eq!(self.x.shape(), &[n, t]);
        debug_assert_eq!(self.att.shape(), &[n, t]);
        debug_assert_eq!(self.shifted.shape(), &[n, n, t]);
        debug_assert_eq!(self.bank.shape(), &[n, n, t]);
        debug_assert_eq!(self.head_out.len(), self.attn.len());
        debug_assert_eq!(self.w_o.len(), self.head_out.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::CausalityAwareTransformer;
    use cf_nn::ParamStore;
    use cf_tensor::{uniform, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_rrp_identity_distributes_to_matching_inputs() {
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let w = Tensor::eye(2);
        let y = x.clone(); // y = x·I
        let b = Tensor::zeros(&[2]);
        let r_y = Tensor::ones(&[1, 2]);
        let r_x = linear_rrp(&x, &w, &y, &b, &r_y, true);
        // Each output's relevance flows to its single positive contributor.
        assert!((r_x.get2(0, 0) - 1.0).abs() < 1e-5);
        assert!((r_x.get2(0, 1) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn positive_bias_absorbs_relevance() {
        // y0 gets equal contributions from x0 (=1) and bias (=1): with the
        // bias in the denominator x0 keeps only half the relevance.
        let x = Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap();
        let w = Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap();
        let y = Tensor::from_vec(vec![1, 1], vec![2.0]).unwrap();
        let b = Tensor::from_slice(&[1.0]);
        let r_y = Tensor::ones(&[1, 1]);
        let with = linear_rrp(&x, &w, &y, &b, &r_y, true).get2(0, 0);
        let without = linear_rrp(&x, &w, &y, &b, &r_y, false).get2(0, 0);
        assert!((with - 0.5).abs() < 1e-5, "with bias: {with}");
        assert!((without - 1.0).abs() < 1e-5, "without bias: {without}");
        assert!(with < without, "bias must reduce input relevance");
    }

    #[test]
    fn negative_contributions_receive_no_relevance() {
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, -1.0]).unwrap();
        let w = Tensor::from_vec(vec![2, 1], vec![1.0, 1.0]).unwrap();
        let y = Tensor::from_vec(vec![1, 1], vec![0.0]).unwrap();
        let b = Tensor::zeros(&[1]);
        let r_y = Tensor::ones(&[1, 1]);
        let r_x = linear_rrp(&x, &w, &y, &b, &r_y, true);
        assert!(r_x.get2(0, 0) > 0.9, "positive contributor keeps relevance");
        assert_eq!(r_x.get2(0, 1), 0.0, "negative contributor gets none");
    }

    /// Relevance 1 on every slot of `target`'s row, zero elsewhere.
    fn one_hot(target: usize, n: usize, t: usize) -> Tensor {
        let mut seed = Tensor::zeros(&[n, t]);
        for tt in 0..t {
            seed.set2(target, tt, 1.0);
        }
        seed
    }

    /// Builds a real forward state via the model and runs a propagation
    /// from `seed` (`3×6`).
    fn run_on_model(seed: &Tensor) -> (RrpResult, usize) {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            ..ModelConfig::compact(3, 6)
        };
        let mut store = ParamStore::new();
        let model = CausalityAwareTransformer::new(&mut store, &mut rng, cfg);
        let x = uniform(&mut rng, &[3, 6], -1.0, 1.0);
        let mut tape = Tape::new();
        let bound = store.bind(&mut tape);
        let trace = model.forward(&mut tape, &bound, &x);
        let weights = model.rrp_weights();
        let biases = model.rrp_biases();
        let head_out: Vec<Tensor> = trace
            .head_out
            .iter()
            .map(|&v| tape.value(v).clone())
            .collect();
        let attn: Vec<Tensor> = trace.attn.iter().map(|&v| tape.value(v).clone()).collect();
        let layers = RrpLayers {
            x: tape.value(trace.x),
            pred: tape.value(trace.pred),
            ffn_out: tape.value(trace.ffn_out),
            ffn_act: tape.value(trace.ffn_act),
            ffn_pre: tape.value(trace.ffn_pre),
            att: tape.value(trace.att),
            head_out: &head_out,
            attn: &attn,
            shifted: tape.value(trace.shifted),
            bank: tape.value(trace.bank),
            w_out: store.value(weights.output_w),
            b_out: store.value(biases.output_b),
            w2: store.value(weights.ffn2_w),
            b2: store.value(biases.ffn2_b),
            w1: store.value(weights.ffn1_w),
            b1: store.value(biases.ffn1_b),
            w_o: store.value(weights.w_o),
            with_bias: true,
        };
        layers.validate_shapes();
        (propagate(&layers, seed), cfg.heads)
    }

    #[test]
    fn relevance_is_nonnegative_and_lands_on_target_row_only() {
        // The all-target seed the detector uses must give each target's
        // row and slab bitwise what its own one-hot seed gives.
        let (all, _) = run_on_model(&Tensor::ones(&[3, 6]));
        for target in 0..3 {
            let (rel, heads) = run_on_model(&one_hot(target, 3, 6));
            assert_eq!(rel.attn.len(), heads);
            for head_rel in &rel.attn {
                for i in 0..3 {
                    for j in 0..3 {
                        let v = head_rel.get2(i, j);
                        assert!(v >= 0.0 && v.is_finite(), "rel({i},{j}) = {v}");
                        if i != target {
                            assert_eq!(v, 0.0, "relevance leaked from target {target} to row {i}");
                        }
                    }
                }
            }
            for (head_rel, head_all) in rel.attn.iter().zip(&all.attn) {
                for j in 0..3 {
                    assert_eq!(
                        head_rel.get2(target, j).to_bits(),
                        head_all.get2(target, j).to_bits(),
                        "all-target seed differs on attention row {target}"
                    );
                }
            }
            // Kernel relevance lands only on the target's value slabs
            // [:, target, :].
            for a in 0..3 {
                for b in 0..3 {
                    for u in 0..6 {
                        let v = rel.kernel.get3(a, b, u);
                        assert!(v >= 0.0 && v.is_finite());
                        if b != target {
                            assert_eq!(v, 0.0, "kernel relevance leaked to slab {b}");
                        } else {
                            assert_eq!(
                                v.to_bits(),
                                all.kernel.get3(a, b, u).to_bits(),
                                "all-target seed differs on kernel slab {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn relevance_totals_are_bounded_by_seed() {
        // With the z⁺ rule every layer distributes at most the incoming
        // relevance (bias shares are dropped, zero-denominator slots lose
        // theirs), so the total at the attention matrices cannot exceed the
        // seed total (T = 6).
        let (rel, _) = run_on_model(&one_hot(1, 3, 6));
        let total: f64 = rel.attn.iter().map(|t| t.sum()).sum();
        assert!(total > 0.0, "some relevance must survive");
        assert!(total <= 6.0 + 1e-6, "total {total} exceeds seed");
    }
}
