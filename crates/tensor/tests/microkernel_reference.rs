//! Pins every cache-blocked microkernel against a naive triple-loop
//! reference, at both element types.
//!
//! The contract being proven (DESIGN.md, "Compute backend & precision"):
//!
//! * **f64 is bitwise-pinned** — the blocked kernels preserve the exact
//!   per-element accumulation order of the historical loops, so against a
//!   naive reference that accumulates in the same ascending order the
//!   result is equal *to the bit*. Any reassociation sneaking into the
//!   f64 path (an over-eager SIMD reduction, a changed block order)
//!   fails here immediately.
//! * **f32 is tolerance-pinned** — `Scalar::dot_from` uses an 8-lane
//!   pairwise tile for f32, which reassociates on purpose, so kernels
//!   built on it (`matmul_nt`, `causal_conv`) are compared within a
//!   relative tolerance; kernels with plain ascending accumulation
//!   (`matmul`, `matmul_tn`, the backward axpy panels, elementwise ops)
//!   match the naive f32 loop bitwise as well.

use cf_tensor::{ops, Scalar, TensorBase};
use proptest::prelude::*;

/// Relative tolerance for the f32 reassociating kernels, in f64 space.
const F32_RTOL: f64 = 1e-4;

/// Compares `got` against the naive reference `want`: bitwise for f64,
/// bitwise or within `F32_RTOL` for f32 depending on `exact`.
fn check<E: Scalar>(
    kernel: &str,
    got: &TensorBase<E>,
    want: &TensorBase<E>,
    exact: bool,
) -> Result<(), String> {
    prop_assert_eq!(got.shape(), want.shape(), "{} shape", kernel);
    for (idx, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        let (g, w) = (g.to_f64(), w.to_f64());
        if exact {
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{}[{}] ({:?}): blocked {} != naive {}",
                kernel,
                idx,
                E::DTYPE,
                g,
                w
            );
        } else {
            prop_assert!(
                (g - w).abs() <= F32_RTOL * (1.0 + w.abs()),
                "{}[{}] ({:?}): blocked {} vs naive {}",
                kernel,
                idx,
                E::DTYPE,
                g,
                w
            );
        }
    }
    Ok(())
}

fn lift<E: Scalar>(shape: &[usize], vals: &[f64]) -> TensorBase<E> {
    TensorBase::from_vec(
        shape.to_vec(),
        vals.iter().map(|&v| E::from_f64(v)).collect(),
    )
    .expect("sized")
}

// ---------------------------------------------------------------------
// Naive references: definitionally-obvious loops, accumulating in the
// native element type in the same ascending index order the production
// kernels promise.
// ---------------------------------------------------------------------

fn naive_matmul<E: Scalar>(a: &TensorBase<E>, b: &TensorBase<E>) -> TensorBase<E> {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let mut out = TensorBase::<E>::zeros(&[m, n]);
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                let add = a.data()[i * k + p] * b.data()[p * n + j];
                out.data_mut()[i * n + j] += add;
            }
        }
    }
    out
}

fn naive_matmul_nt<E: Scalar>(a: &TensorBase<E>, b: &TensorBase<E>) -> TensorBase<E> {
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[0]);
    let mut out = TensorBase::<E>::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = E::ZERO;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[j * k + p];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

fn naive_matmul_tn<E: Scalar>(a: &TensorBase<E>, b: &TensorBase<E>) -> TensorBase<E> {
    let (k, m, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let mut out = TensorBase::<E>::zeros(&[m, n]);
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                let add = a.data()[p * m + i] * b.data()[p * n + j];
                out.data_mut()[i * n + j] += add;
            }
        }
    }
    out
}

fn naive_causal_conv<E: Scalar>(x: &TensorBase<E>, kernel: &TensorBase<E>) -> TensorBase<E> {
    let (n, t_len) = (x.shape()[0], x.shape()[1]);
    let mut out = TensorBase::<E>::zeros(&[n, n, t_len]);
    for i in 0..n {
        for j in 0..n {
            for t in 0..t_len {
                let mut acc = E::ZERO;
                for s in 0..=t {
                    let tap = kernel.data()[(i * n + j) * t_len + (t_len - 1 - t + s)];
                    acc += tap * x.data()[i * t_len + s];
                }
                out.data_mut()[(i * n + j) * t_len + t] = acc / E::from_f64((t + 1) as f64);
            }
        }
    }
    out
}

fn naive_conv_backward_kernel<E: Scalar>(
    x: &TensorBase<E>,
    grad_out: &TensorBase<E>,
) -> TensorBase<E> {
    let (n, t_len) = (x.shape()[0], x.shape()[1]);
    let mut grad_k = TensorBase::<E>::zeros(&[n, n, t_len]);
    for i in 0..n {
        for j in 0..n {
            for t in 0..t_len {
                let g = grad_out.data()[(i * n + j) * t_len + t] / E::from_f64((t + 1) as f64);
                for s in 0..=t {
                    let u = t_len - 1 - t + s;
                    grad_k.data_mut()[(i * n + j) * t_len + u] += g * x.data()[i * t_len + s];
                }
            }
        }
    }
    grad_k
}

fn naive_conv_backward_x<E: Scalar>(
    kernel: &TensorBase<E>,
    grad_out: &TensorBase<E>,
) -> TensorBase<E> {
    let (n, t_len) = (kernel.shape()[0], kernel.shape()[2]);
    let mut grad_x = TensorBase::<E>::zeros(&[n, t_len]);
    for i in 0..n {
        for j in 0..n {
            for t in 0..t_len {
                let g = grad_out.data()[(i * n + j) * t_len + t] / E::from_f64((t + 1) as f64);
                for s in 0..=t {
                    let tap = kernel.data()[(i * n + j) * t_len + (t_len - 1 - t + s)];
                    grad_x.data_mut()[i * t_len + s] += g * tap;
                }
            }
        }
    }
    grad_x
}

fn naive_softmax_rows<E: Scalar>(m: &TensorBase<E>) -> TensorBase<E> {
    let (r, c) = (m.shape()[0], m.shape()[1]);
    let mut out = m.clone();
    for i in 0..r {
        let row = &mut out.data_mut()[i * c..(i + 1) * c];
        let mx = row.iter().copied().fold(E::NEG_INFINITY, E::max);
        let mut z = E::ZERO;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            z += *v;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
    }
    out
}

// ---------------------------------------------------------------------
// The per-dtype check drivers. `dot_from`-based kernels (`matmul_nt`,
// `causal_conv`) are exact only at f64; everything else is exact at
// both element types.
// ---------------------------------------------------------------------

fn check_matmuls<E: Scalar>(
    m: usize,
    k: usize,
    n: usize,
    a_vals: &[f64],
    b_vals: &[f64],
) -> Result<(), String> {
    let exact_dot = E::DTYPE == cf_tensor::Dtype::F64;
    let a = lift::<E>(&[m, k], a_vals);
    let b = lift::<E>(&[k, n], b_vals);
    check("matmul", &a.matmul(&b), &naive_matmul(&a, &b), true)?;
    let bt = lift::<E>(&[n, k], &transpose(b_vals, k, n));
    check(
        "matmul_nt",
        &a.matmul_nt(&bt),
        &naive_matmul_nt(&a, &bt),
        exact_dot,
    )?;
    let at = lift::<E>(&[k, m], &transpose(a_vals, m, k));
    check(
        "matmul_tn",
        &at.matmul_tn(&b),
        &naive_matmul_tn(&at, &b),
        true,
    )
}

fn check_conv<E: Scalar>(
    n: usize,
    t_len: usize,
    x_vals: &[f64],
    k_vals: &[f64],
    g_vals: &[f64],
) -> Result<(), String> {
    let exact_dot = E::DTYPE == cf_tensor::Dtype::F64;
    let x = lift::<E>(&[n, t_len], x_vals);
    let kern = lift::<E>(&[n, n, t_len], k_vals);
    let g = lift::<E>(&[n, n, t_len], g_vals);
    check(
        "causal_conv",
        &ops::causal_conv(&x, &kern),
        &naive_causal_conv(&x, &kern),
        exact_dot,
    )?;
    check(
        "causal_conv_backward_kernel",
        &ops::causal_conv_backward_kernel(&x, &g),
        &naive_conv_backward_kernel(&x, &g),
        true,
    )?;
    check(
        "causal_conv_backward_x",
        &ops::causal_conv_backward_x(&kern, &g),
        &naive_conv_backward_x(&kern, &g),
        true,
    )
}

fn check_elementwise<E: Scalar>(
    r: usize,
    c: usize,
    m_vals: &[f64],
    n_vals: &[f64],
    alpha: f64,
) -> Result<(), String> {
    let m = lift::<E>(&[r, c], m_vals);
    let n = lift::<E>(&[r, c], n_vals);
    check(
        "softmax_rows",
        &m.softmax_rows(),
        &naive_softmax_rows(&m),
        true,
    )?;

    // axpy: self += alpha · other, accumulated elementwise in E.
    let mut got = m.clone();
    got.axpy(alpha, &n);
    let alpha_e = E::from_f64(alpha);
    let mut want = m.clone();
    for (w, &v) in want.data_mut().iter_mut().zip(n.data()) {
        *w += alpha_e * v;
    }
    check("axpy", &got, &want, true)?;

    // add_mul_assign: self += a · b, the fused elementwise accumulator.
    let mut got = m.clone();
    got.add_mul_assign(&n, &m);
    let mut want = m.clone();
    for ((w, &a), &b) in want.data_mut().iter_mut().zip(n.data()).zip(m.data()) {
        *w += a * b;
    }
    check("add_mul_assign", &got, &want, true)
}

fn transpose(vals: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let mut out = vec![0.0; vals.len()];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = vals[i * cols + j];
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three matmul variants match their naive references at random
    /// small shapes, for both element types.
    #[test]
    fn matmul_variants_match_naive_reference(
        m in 1usize..6,
        k in 1usize..8,
        n in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let (a_vals, b_vals) = gen_vals(seed, m * k, k * n);
        check_matmuls::<f64>(m, k, n, &a_vals, &b_vals)?;
        check_matmuls::<f32>(m, k, n, &a_vals, &b_vals)?;
    }

    /// Causal-convolution forward and both backward kernels match their
    /// definitional loops, for both element types.
    #[test]
    fn causal_conv_kernels_match_naive_reference(
        n in 1usize..5,
        t_len in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let (x_vals, kg_vals) = gen_vals(seed, n * t_len, 2 * n * n * t_len);
        let (k_vals, g_vals) = kg_vals.split_at(n * n * t_len);
        check_conv::<f64>(n, t_len, &x_vals, k_vals, g_vals)?;
        check_conv::<f32>(n, t_len, &x_vals, k_vals, g_vals)?;
    }

    /// Softmax and the fused accumulators match elementwise references
    /// bitwise at both element types.
    #[test]
    fn elementwise_kernels_match_naive_reference(
        r in 1usize..6,
        c in 1usize..9,
        alpha in -2.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let (m_vals, n_vals) = gen_vals(seed, r * c, r * c);
        check_elementwise::<f64>(r, c, &m_vals, &n_vals, alpha)?;
        check_elementwise::<f32>(r, c, &m_vals, &n_vals, alpha)?;
    }
}

/// Deterministic pseudo-random values in [-2, 2) from a seed — cheaper
/// than a `vec(..)` strategy at these sizes and keeps the shape/value
/// generation decoupled.
fn gen_vals(seed: u64, len_a: usize, len_b: usize) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    };
    let a = (0..len_a).map(|_| next()).collect();
    let b = (0..len_b).map(|_| next()).collect();
    (a, b)
}

/// The `matmul_nt` j/p blocking (JB=64, PB=256) only kicks in past one
/// block: a dedicated large case crosses both block boundaries so the
/// panel-stitching arithmetic is exercised, not just the single-block
/// fast path.
#[test]
fn matmul_nt_block_boundaries_match_naive_reference() {
    let (m, k, n) = (3, 300, 70);
    let (a_vals, b_vals) = gen_vals(99, m * k, n * k);
    let a64 = lift::<f64>(&[m, k], &a_vals);
    let b64 = lift::<f64>(&[n, k], &b_vals);
    let got = a64.matmul_nt(&b64);
    let want = naive_matmul_nt(&a64, &b64);
    assert_eq!(got.shape(), want.shape());
    for (g, w) in got.data().iter().zip(want.data()) {
        assert_eq!(g.to_bits(), w.to_bits(), "f64 matmul_nt reassociated");
    }
    let a32 = lift::<f32>(&[m, k], &a_vals);
    let b32 = lift::<f32>(&[n, k], &b_vals);
    let got = a32.matmul_nt(&b32);
    let want = naive_matmul_nt(&a32, &b32);
    for (g, w) in got.data().iter().zip(want.data()) {
        let (g, w) = (g.to_f64(), w.to_f64());
        assert!(
            (g - w).abs() <= F32_RTOL * (1.0 + w.abs()),
            "f32 matmul_nt drifted: {g} vs {w}"
        );
    }
}
