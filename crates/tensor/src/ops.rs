//! CausalFormer-specific tensor primitives and their backward rules.
//!
//! These are the custom operations of the causality-aware transformer
//! (paper §4.1) that a generic linear-algebra library does not supply:
//!
//! * [`causal_conv`] — the multi-kernel causal convolution of Eq. 3,
//! * [`self_shift`] — the self-causation shift of Eq. 4,
//! * [`attn_apply`] — the multi-variate attention application of Eq. 6.
//!
//! Each forward function has matching `*_backward_*` companions used by the
//! autodiff [`Tape`](crate::Tape); keeping them here as pure functions makes
//! them unit-testable in isolation (including finite-difference checks in
//! `tape::tests`).
//!
//! The functions here check shapes and fan the convolution out over series;
//! the arithmetic runs on the dtype's [`Kernels`](crate::kernels::Kernels)
//! (register-tiled AVX2 where the CPU has it, portable loops elsewhere,
//! bitwise equal for f64 — see [`crate::kernels`]).

use crate::scalar::Scalar;
use crate::tensor::TensorBase;

/// Multiply-add count (≈ n²·T² for a causal convolution) below which the
/// convolution kernels stay serial; mirrors
/// [`PAR_FLOP_THRESHOLD`](crate::tensor::PAR_FLOP_THRESHOLD) for matmuls.
/// Gated through [`cf_par::should_fan_out`], so nested calls (from inside
/// a scheduler task) need 4× this much work to fan out.
const PAR_ELEM_THRESHOLD: usize = 131_072;

/// Multi-kernel causal convolution (paper Eq. 3).
///
/// `x` is the `N×T` input window, `kernel` the `N×N×T` bank 𝒦 whose axes are
/// (series convolved `i`, series predicted `j`, tap `u`). The output
/// `X̂ ∈ R^{N×N×T}` is, in the paper's 1-indexed notation,
///
/// ```text
/// X̂[i,j,t] = (1/t) · Σ_{s=1..t} 𝒦[i,j, T−t+s] · X[i,s]
/// ```
///
/// i.e. the length-`T` kernel slides over the zero-left-padded series so
/// that tap `u = T` always touches the *current* slot (lag 0) and tap
/// `u = T−δ` touches lag `δ`. The division by `t` (the number of non-zero
/// window entries) rescales early slots where most of the window is padding.
pub fn causal_conv<E: Scalar>(x: &TensorBase<E>, kernel: &TensorBase<E>) -> TensorBase<E> {
    let (n, t_len) = dims_2(x, "causal_conv x");
    let (kn, kn2, kt) = dims_3(kernel, "causal_conv kernel");
    assert_eq!(kn, n, "kernel axis 0 must equal series count");
    assert_eq!(kn2, n, "kernel axis 1 must equal series count");
    assert_eq!(kt, t_len, "kernel taps must equal window length");

    let mut out = TensorBase::<E>::zeros(&[n, n, t_len]);
    if t_len == 0 {
        return out;
    }
    // Slab-parallel over i: out[i,·,·] is a contiguous, disjoint n·t_len
    // block computed purely from x.row(i) and kernel[i,·,·], so the parallel
    // result is bitwise identical to serial at any thread count.
    let slab_len = n * t_len;
    let kdata = kernel.data();
    let conv = E::kernels().conv;
    let slab = |i: usize, oslab: &mut [E]| {
        conv(
            x.row(i),
            &kdata[i * slab_len..(i + 1) * slab_len],
            oslab,
            t_len,
        );
    };
    if !cf_par::should_fan_out((n * n * t_len * t_len) as u64, PAR_ELEM_THRESHOLD as u64) {
        for i in 0..n {
            let oslab = &mut out.data_mut()[i * slab_len..(i + 1) * slab_len];
            slab(i, oslab);
        }
    } else {
        cf_par::par_chunks_mut(out.data_mut(), slab_len, slab);
    }
    out
}

/// Gradient of [`causal_conv`] with respect to the kernel.
pub fn causal_conv_backward_kernel<E: Scalar>(
    x: &TensorBase<E>,
    grad_out: &TensorBase<E>,
) -> TensorBase<E> {
    let (n, t_len) = dims_2(x, "causal_conv_backward_kernel x");
    let mut grad_k = TensorBase::<E>::zeros(&[n, n, t_len]);
    causal_conv_backward_kernel_into(x, grad_out, &mut grad_k);
    grad_k
}

/// In-place form of [`causal_conv_backward_kernel`]: writes the gradient
/// into `grad_k`, which the caller provides freshly zeroed (typically a
/// pooled buffer). Identical arithmetic and ordering to the allocating
/// form, so results are bitwise equal.
pub fn causal_conv_backward_kernel_into<E: Scalar>(
    x: &TensorBase<E>,
    grad_out: &TensorBase<E>,
    grad_k: &mut TensorBase<E>,
) {
    let (n, t_len) = dims_2(x, "causal_conv_backward_kernel x");
    assert_eq!(
        grad_k.shape(),
        &[n, n, t_len],
        "causal_conv_backward_kernel_into output shape"
    );
    if t_len == 0 {
        return;
    }
    // Same per-i slab decomposition as the forward pass: grad_k[i,·,·]
    // depends only on x.row(i) and grad_out[i,·,·].
    let slab_len = n * t_len;
    let gdata = grad_out.data();
    let backward_kernel = E::kernels().conv_backward_kernel;
    let slab = |i: usize, gkslab: &mut [E]| {
        backward_kernel(
            x.row(i),
            &gdata[i * slab_len..(i + 1) * slab_len],
            gkslab,
            t_len,
        );
    };
    if !cf_par::should_fan_out((n * n * t_len * t_len) as u64, PAR_ELEM_THRESHOLD as u64) {
        for i in 0..n {
            let gkslab = &mut grad_k.data_mut()[i * slab_len..(i + 1) * slab_len];
            slab(i, gkslab);
        }
    } else {
        cf_par::par_chunks_mut(grad_k.data_mut(), slab_len, slab);
    }
}

/// Gradient of [`causal_conv`] with respect to the input window.
pub fn causal_conv_backward_x<E: Scalar>(
    kernel: &TensorBase<E>,
    grad_out: &TensorBase<E>,
) -> TensorBase<E> {
    let (n, _, t_len) = dims_3(kernel, "causal_conv_backward_x kernel");
    let mut grad_x = TensorBase::<E>::zeros(&[n, t_len]);
    causal_conv_backward_x_into(kernel, grad_out, &mut grad_x);
    grad_x
}

/// In-place form of [`causal_conv_backward_x`]: accumulates into a
/// caller-provided freshly zeroed `grad_x` (bitwise identical to the
/// allocating form).
pub fn causal_conv_backward_x_into<E: Scalar>(
    kernel: &TensorBase<E>,
    grad_out: &TensorBase<E>,
    grad_x: &mut TensorBase<E>,
) {
    let (n, _, t_len) = dims_3(kernel, "causal_conv_backward_x kernel");
    assert_eq!(
        grad_x.shape(),
        &[n, t_len],
        "causal_conv_backward_x_into output shape"
    );
    if t_len == 0 {
        return;
    }
    // Row-parallel over i: grad_x.row(i) depends only on kernel[i,·,·] and
    // grad_out[i,·,·], so rows are disjoint work units.
    let slab_len = n * t_len;
    let kdata = kernel.data();
    let gdata = grad_out.data();
    let backward_x = E::kernels().conv_backward_x;
    let row = |i: usize, gxrow: &mut [E]| {
        let slab = i * slab_len..(i + 1) * slab_len;
        backward_x(&kdata[slab.clone()], &gdata[slab], gxrow, t_len);
    };
    if !cf_par::should_fan_out((n * n * t_len * t_len) as u64, PAR_ELEM_THRESHOLD as u64) {
        for i in 0..n {
            let gxrow = &mut grad_x.data_mut()[i * t_len..(i + 1) * t_len];
            row(i, gxrow);
        }
    } else {
        cf_par::par_chunks_mut(grad_x.data_mut(), t_len, row);
    }
}

/// Self-causation shift (paper Eq. 4).
///
/// Right-shifts each *diagonal* row `X̂[i,i,·]` of the convolution result by
/// one slot (dropping the last, zero-filling the first) so a series' current
/// ground-truth value never contributes to its own prediction. Off-diagonal
/// rows pass through unchanged — other series' *current* values are allowed
/// (instantaneous causality).
pub fn self_shift<E: Scalar>(v: &TensorBase<E>) -> TensorBase<E> {
    let (n, n2, t_len) = dims_3(v, "self_shift");
    assert_eq!(n, n2, "self_shift requires an N×N×T tensor");
    let mut out = v.clone();
    let data = out.data_mut();
    for i in 0..n {
        let drow = &mut data[(i * n + i) * t_len..(i * n + i + 1) * t_len];
        for t in (1..t_len).rev() {
            drow[t] = drow[t - 1];
        }
        drow[0] = E::ZERO;
    }
    out
}

/// Gradient of [`self_shift`]: the inverse (left) shift on diagonal rows.
pub fn self_shift_backward<E: Scalar>(grad_out: &TensorBase<E>) -> TensorBase<E> {
    let (n, _, t_len) = dims_3(grad_out, "self_shift_backward");
    let mut grad_in = grad_out.clone();
    let data = grad_in.data_mut();
    for i in 0..n {
        let drow = &mut data[(i * n + i) * t_len..(i * n + i + 1) * t_len];
        for t in 0..t_len - 1 {
            drow[t] = drow[t + 1];
        }
        drow[t_len - 1] = E::ZERO;
    }
    grad_in
}

/// Multi-variate attention application (paper Eq. 6, Fig. 3).
///
/// `attn` is the `N×N` attention matrix 𝒜 (row `i` = candidate causes of
/// series `i`), `v` the `N×N×T` value tensor (the shifted convolution
/// result, where `v[j,i,·]` is series `j` convolved *for predicting* series
/// `i`). Output `A ∈ R^{N×T}`:
///
/// ```text
/// A[i,t] = Σ_j 𝒜[i,j] · V[j,i,t]
/// ```
pub fn attn_apply<E: Scalar>(attn: &TensorBase<E>, v: &TensorBase<E>) -> TensorBase<E> {
    let (n, n2) = dims_2(attn, "attn_apply attn");
    assert_eq!(n, n2, "attention matrix must be square");
    let (vn, vn2, t_len) = dims_3(v, "attn_apply v");
    assert_eq!(vn, n, "value axis 0 vs attention size");
    assert_eq!(vn2, n, "value axis 1 vs attention size");
    let mut out = TensorBase::<E>::zeros(&[n, t_len]);
    (E::kernels().attn_apply)(attn.data(), v.data(), out.data_mut(), n, t_len);
    out
}

/// Gradient of [`attn_apply`] with respect to the attention matrix.
pub fn attn_apply_backward_attn<E: Scalar>(
    v: &TensorBase<E>,
    grad_out: &TensorBase<E>,
) -> TensorBase<E> {
    let (n, _, _) = dims_3(v, "attn_apply_backward_attn v");
    let mut grad_a = TensorBase::<E>::zeros(&[n, n]);
    attn_apply_backward_attn_into(v, grad_out, &mut grad_a);
    grad_a
}

/// In-place form of [`attn_apply_backward_attn`]: writes into a
/// caller-provided freshly zeroed `grad_a` (bitwise identical to the
/// allocating form — every cell is overwritten).
pub fn attn_apply_backward_attn_into<E: Scalar>(
    v: &TensorBase<E>,
    grad_out: &TensorBase<E>,
    grad_a: &mut TensorBase<E>,
) {
    let (n, _, t_len) = dims_3(v, "attn_apply_backward_attn v");
    assert_eq!(
        grad_a.shape(),
        &[n, n],
        "attn_apply_backward_attn_into output shape"
    );
    (E::kernels().attn_backward_attn)(v.data(), grad_out.data(), grad_a.data_mut(), n, t_len);
}

/// Gradient of [`attn_apply`] with respect to the value tensor.
pub fn attn_apply_backward_v<E: Scalar>(
    attn: &TensorBase<E>,
    grad_out: &TensorBase<E>,
) -> TensorBase<E> {
    let (n, _) = dims_2(attn, "attn_apply_backward_v attn");
    let t_len = grad_out.shape()[1];
    let mut grad_v = TensorBase::<E>::zeros(&[n, n, t_len]);
    attn_apply_backward_v_into(attn, grad_out, &mut grad_v);
    grad_v
}

/// In-place form of [`attn_apply_backward_v`]: adds one term,
/// `attn[i,j]·grad_out[i,t]`, into each cell of `grad_v` (bitwise the
/// allocating form when `grad_v` starts zeroed).
pub fn attn_apply_backward_v_into<E: Scalar>(
    attn: &TensorBase<E>,
    grad_out: &TensorBase<E>,
    grad_v: &mut TensorBase<E>,
) {
    let (n, _) = dims_2(attn, "attn_apply_backward_v attn");
    let t_len = grad_out.shape()[1];
    assert_eq!(
        grad_v.shape(),
        &[n, n, t_len],
        "attn_apply_backward_v_into output shape"
    );
    (E::kernels().attn_backward_v)(attn.data(), grad_out.data(), grad_v.data_mut(), n, t_len);
}

fn dims_2<E: Scalar>(t: &TensorBase<E>, what: &str) -> (usize, usize) {
    assert_eq!(t.rank(), 2, "{what} must be 2-d, got shape {:?}", t.shape());
    (t.shape()[0], t.shape()[1])
}

fn dims_3<E: Scalar>(t: &TensorBase<E>, what: &str) -> (usize, usize, usize) {
    assert_eq!(t.rank(), 3, "{what} must be 3-d, got shape {:?}", t.shape());
    (t.shape()[0], t.shape()[1], t.shape()[2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn causal_conv_hand_case() {
        // N=1, T=3, x = [1, 2, 3], kernel taps k = [k0, k1, k2] = [10, 20, 30].
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let k = Tensor::from_vec(vec![1, 1, 3], vec![10.0, 20.0, 30.0]).unwrap();
        let out = causal_conv(&x, &k);
        // t=0: only s=0, tap u = T-1-0+0 = 2 → 30*1 / 1 = 30
        // t=1: s=0 tap1=20*1, s=1 tap2=30*2 → (20+60)/2 = 40
        // t=2: s=0 tap0=10*1, s=1 tap1=20*2, s=2 tap2=30*3 → (10+40+90)/3 = 46.666…
        assert!((out.get3(0, 0, 0) - 30.0).abs() < 1e-12);
        assert!((out.get3(0, 0, 1) - 40.0).abs() < 1e-12);
        assert!((out.get3(0, 0, 2) - 140.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn causal_conv_last_tap_is_instantaneous() {
        // With a kernel that is zero except the last tap, the output at t is
        // exactly x[t] (scaled by 1/t-count weighting of that single term).
        let x = Tensor::from_vec(vec![1, 4], vec![5.0, -1.0, 2.0, 7.0]).unwrap();
        let mut k = Tensor::zeros(&[1, 1, 4]);
        k.set3(0, 0, 3, 1.0);
        let out = causal_conv(&x, &k);
        for t in 0..4 {
            let expected = x.get2(0, t) / (t + 1) as f64;
            assert!((out.get3(0, 0, t) - expected).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn causal_conv_respects_temporal_priority() {
        // Future values must never influence earlier outputs: changing x at
        // slot 3 must leave outputs at t<3 untouched.
        let xa = Tensor::from_vec(vec![1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut xb = xa.clone();
        xb.set2(0, 3, 100.0);
        let k = Tensor::from_vec(vec![1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let (oa, ob) = (causal_conv(&xa, &k), causal_conv(&xb, &k));
        for t in 0..3 {
            assert_eq!(oa.get3(0, 0, t), ob.get3(0, 0, t), "t={t}");
        }
        assert_ne!(oa.get3(0, 0, 3), ob.get3(0, 0, 3));
    }

    #[test]
    fn causal_conv_kernels_are_independent_per_pair() {
        // The (i,j) output depends only on kernel slice (i,j): multi-kernel
        // independence, the property the "w/o multi conv kernel" ablation
        // removes.
        let x = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut k = Tensor::zeros(&[2, 2, 2]);
        k.set3(0, 1, 1, 1.0);
        let out = causal_conv(&x, &k);
        for i in 0..2 {
            for j in 0..2 {
                for t in 0..2 {
                    if i == 0 && j == 1 {
                        continue;
                    }
                    assert_eq!(out.get3(i, j, t), 0.0, "({i},{j},{t})");
                }
            }
        }
        assert!(out.get3(0, 1, 0) != 0.0);
    }

    #[test]
    fn self_shift_moves_diagonal_only() {
        let mut v = Tensor::zeros(&[2, 2, 3]);
        for t in 0..3 {
            v.set3(0, 0, t, (t + 1) as f64); // diagonal row
            v.set3(0, 1, t, 10.0 * (t + 1) as f64); // off-diagonal row
        }
        let s = self_shift(&v);
        assert_eq!(s.get3(0, 0, 0), 0.0);
        assert_eq!(s.get3(0, 0, 1), 1.0);
        assert_eq!(s.get3(0, 0, 2), 2.0);
        // off-diagonal untouched
        for t in 0..3 {
            assert_eq!(s.get3(0, 1, t), 10.0 * (t + 1) as f64);
        }
    }

    #[test]
    fn self_shift_backward_is_adjoint() {
        // <shift(v), g> == <v, shift_backward(g)> for all v, g (adjoint test).
        let v = Tensor::from_vec(vec![2, 2, 2], (1..=8).map(f64::from).collect()).unwrap();
        let g = Tensor::from_vec(vec![2, 2, 2], (1..=8).rev().map(f64::from).collect()).unwrap();
        let lhs: f64 = self_shift(&v).mul(&g).sum();
        let rhs: f64 = v.mul(&self_shift_backward(&g)).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn attn_apply_hand_case() {
        // N=2, T=1. out[i,0] = Σ_j attn[i,j] * v[j,i,0].
        let attn = Tensor::from_vec(vec![2, 2], vec![0.5, 0.5, 1.0, 0.0]).unwrap();
        let mut v = Tensor::zeros(&[2, 2, 1]);
        v.set3(0, 0, 0, 2.0);
        v.set3(1, 0, 0, 4.0);
        v.set3(0, 1, 0, 6.0);
        v.set3(1, 1, 0, 8.0);
        let out = attn_apply(&attn, &v);
        assert_eq!(out.get2(0, 0), 0.5 * 2.0 + 0.5 * 4.0);
        assert_eq!(out.get2(1, 0), 1.0 * 6.0 + 0.0 * 8.0);
    }

    #[test]
    fn attn_apply_backward_attn_is_adjoint() {
        let attn = Tensor::from_vec(vec![2, 2], vec![0.1, 0.9, 0.4, 0.6]).unwrap();
        let v = Tensor::from_vec(vec![2, 2, 3], (1..=12).map(f64::from).collect()).unwrap();
        let g = Tensor::ones(&[2, 3]);
        // d<out,g>/dattn[i,j] must equal Σ_t v[j,i,t]*g[i,t]; verify by
        // perturbation.
        let ga = attn_apply_backward_attn(&v, &g);
        let eps = 1e-6;
        for i in 0..2 {
            for j in 0..2 {
                let mut ap = attn.clone();
                ap.set2(i, j, ap.get2(i, j) + eps);
                let num =
                    (attn_apply(&ap, &v).mul(&g).sum() - attn_apply(&attn, &v).mul(&g).sum()) / eps;
                assert!((num - ga.get2(i, j)).abs() < 1e-5, "({i},{j})");
            }
        }
    }

    #[test]
    fn attn_apply_backward_v_matches_finite_difference() {
        let attn = Tensor::from_vec(vec![2, 2], vec![0.3, 0.7, 0.2, 0.8]).unwrap();
        let v = Tensor::from_vec(vec![2, 2, 2], (1..=8).map(f64::from).collect()).unwrap();
        let g = Tensor::from_vec(vec![2, 2], vec![1.0, -1.0, 0.5, 2.0]).unwrap();
        let gv = attn_apply_backward_v(&attn, &g);
        let eps = 1e-6;
        let base = attn_apply(&attn, &v).mul(&g).sum();
        for j in 0..2 {
            for i in 0..2 {
                for t in 0..2 {
                    let mut vp = v.clone();
                    vp.set3(j, i, t, vp.get3(j, i, t) + eps);
                    let num = (attn_apply(&attn, &vp).mul(&g).sum() - base) / eps;
                    assert!((num - gv.get3(j, i, t)).abs() < 1e-5, "({j},{i},{t})");
                }
            }
        }
    }

    #[test]
    fn causal_conv_backward_matches_finite_difference() {
        let x = Tensor::from_vec(vec![2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]).unwrap();
        let k =
            Tensor::from_vec(vec![2, 2, 3], (1..=12).map(|v| v as f64 / 6.0).collect()).unwrap();
        let g = Tensor::ones(&[2, 2, 3]);
        let base = causal_conv(&x, &k).mul(&g).sum();
        let eps = 1e-6;

        let gk = causal_conv_backward_kernel(&x, &g);
        for idx in 0..k.len() {
            let mut kp = k.clone();
            kp.data_mut()[idx] += eps;
            let num = (causal_conv(&x, &kp).mul(&g).sum() - base) / eps;
            assert!((num - gk.data()[idx]).abs() < 1e-5, "kernel idx {idx}");
        }

        let gx = causal_conv_backward_x(&k, &g);
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let num = (causal_conv(&xp, &k).mul(&g).sum() - base) / eps;
            assert!((num - gx.data()[idx]).abs() < 1e-5, "x idx {idx}");
        }
    }

    #[test]
    fn f32_causal_conv_matches_f64_within_tolerance() {
        let n = 5;
        let t = 24;
        let xv: Vec<f64> = (0..n * t)
            .map(|i| ((i * 13 % 29) as f64 - 14.0) / 10.0)
            .collect();
        let kv: Vec<f64> = (0..n * n * t)
            .map(|i| ((i * 7 % 31) as f64 - 15.0) / 20.0)
            .collect();
        let x64 = Tensor::from_vec(vec![n, t], xv).unwrap();
        let k64 = Tensor::from_vec(vec![n, n, t], kv).unwrap();
        let x32 = TensorBase::<f32>::from_f64_tensor(&x64);
        let k32 = TensorBase::<f32>::from_f64_tensor(&k64);
        let o64 = causal_conv(&x64, &k64);
        let o32 = causal_conv(&x32, &k32);
        for (a, b) in o64.data().iter().zip(o32.data()) {
            assert!((a - b.to_f64()).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
