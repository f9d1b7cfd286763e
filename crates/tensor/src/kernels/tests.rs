//! The AVX2 kernels against the portable ones, cell for cell.
//!
//! Every kernel of both tables runs on the same operands and must agree
//! bit for bit, at both dtypes, over every shape in `1..=37` along each
//! axis (every tile remainder of 4-row × 2-vector and 4-vector tiles at
//! both lane widths). Operands mix ordinary values with exact zeros and
//! `−0.0` (the zero-skips and the sign of a zero sum), and a second sweep
//! adds `±∞` and NaN. NaNs are compared as a class: which NaN payload a sum
//! of two NaNs carries depends on an instruction's operand order, which the
//! compiler may commute, and no result depends on it. Skipped on CPUs
//! without AVX2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{avx2, portable, Kernels, Lhs};
use crate::scalar::Scalar;

const MAX: usize = 37;

/// Bit pattern with every NaN folded onto one.
fn bits<E: Scalar>(v: E) -> u64 {
    let v = v.to_f64();
    if v.is_nan() {
        u64::MAX
    } else {
        v.to_bits()
    }
}

fn operands<E: Scalar>(rng: &mut StdRng, len: usize, special: bool) -> Vec<E> {
    (0..len)
        .map(|_| {
            let roll: f64 = rng.gen_range(0.0..1.0);
            let v = match roll {
                r if r < 0.15 => 0.0,
                r if r < 0.22 => -0.0,
                r if special && r < 0.235 => f64::INFINITY,
                r if special && r < 0.25 => f64::NEG_INFINITY,
                r if special && r < 0.265 => f64::NAN,
                _ => rng.gen_range(-2.0..2.0),
            };
            E::from_f64(v)
        })
        .collect()
}

fn assert_same<E: Scalar>(what: &str, shape: &[usize], want: &[E], got: &[E]) {
    for (idx, (w, g)) in want.iter().zip(got).enumerate() {
        assert!(
            bits(*w) == bits(*g),
            "{what} {:?} shape {shape:?} cell {idx}: portable {w} vs avx2 {g}",
            E::DTYPE
        );
    }
}

/// Runs `kernel` of both tables on copies of `out` and compares them.
fn both<E: Scalar>(
    tables: &(Kernels<E>, Kernels<E>),
    what: &str,
    shape: &[usize],
    out: &[E],
    kernel: impl Fn(&Kernels<E>, &mut [E]),
) {
    let (mut want, mut got) = (out.to_vec(), out.to_vec());
    kernel(&tables.0, &mut want);
    kernel(&tables.1, &mut got);
    assert_same(what, shape, &want, &got);
}

fn tables<E: Scalar>() -> Option<(Kernels<E>, Kernels<E>)> {
    avx2::<E>().map(|fast| (portable::<E>(), fast))
}

fn matmul_family<E: Scalar>(special: bool) {
    let Some(tables) = tables::<E>() else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(if special { 2 } else { 1 });
    for m in 1..=MAX {
        for n in 1..=MAX {
            let k = 1 + (m * 7 + n * 3) % MAX;
            let shape = [m, k, n];
            let a = operands::<E>(&mut rng, m * k, special);
            let b = operands::<E>(&mut rng, k * n, special);
            let bt = operands::<E>(&mut rng, n * k, special);
            let out = operands::<E>(&mut rng, m * n, special);
            let rows = Lhs {
                data: &a,
                row_stride: k,
                col_stride: 1,
            };
            let cols = Lhs {
                data: &a,
                row_stride: 1,
                col_stride: m,
            };
            both(&tables, "matmul", &shape, &out, |t, o| {
                (t.gemm)(rows, &b, o, 0, k, n)
            });
            both(&tables, "matmul_tn", &shape, &out, |t, o| {
                (t.gemm)(cols, &b, o, 0, k, n)
            });
            both(&tables, "matmul_nt", &shape, &out, |t, o| {
                (t.gemm_nt)(&a, &bt, o, 0, k, n)
            });
            // A band that starts part-way down the operand, as a parallel
            // chunk does.
            if m > 2 {
                let band = &out[2 * n..];
                both(&tables, "matmul band", &shape, band, |t, o| {
                    (t.gemm)(rows, &b, o, 2, k, n)
                });
                both(&tables, "matmul_nt band", &shape, band, |t, o| {
                    (t.gemm_nt)(&a, &bt, o, 2, k, n)
                });
            }
        }
    }
}

/// `matmul_nt` with reductions longer than one of `gemm_nt`'s 256-term
/// panels, which restart the f32 partial sums from the running value.
fn matmul_nt_panels<E: Scalar>() {
    let Some(tables) = tables::<E>() else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(7);
    for k in [255, 256, 257, 263, 520] {
        for (m, n) in [(4, 9), (5, 16), (7, 3)] {
            let shape = [m, k, n];
            let a = operands::<E>(&mut rng, m * k, false);
            let bt = operands::<E>(&mut rng, n * k, false);
            let out = operands::<E>(&mut rng, m * n, false);
            both(&tables, "matmul_nt panels", &shape, &out, |t, o| {
                (t.gemm_nt)(&a, &bt, o, 0, k, n)
            });
        }
    }
}

fn conv_family<E: Scalar>(special: bool) {
    let Some(tables) = tables::<E>() else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(if special { 4 } else { 3 });
    for n in 1..=MAX {
        for t_len in 1..=MAX {
            let shape = [n, t_len];
            let x = operands::<E>(&mut rng, t_len, special);
            let slab = operands::<E>(&mut rng, n * t_len, special);
            let g = operands::<E>(&mut rng, n * t_len, special);
            let out = operands::<E>(&mut rng, n * t_len, special);
            both(&tables, "causal_conv", &shape, &out, |t, o| {
                (t.conv)(&x, &slab, o, t_len)
            });
            both(&tables, "causal_conv bwd kernel", &shape, &out, |t, o| {
                (t.conv_backward_kernel)(&x, &g, o, t_len)
            });
            both(
                &tables,
                "causal_conv bwd x",
                &shape,
                &out[..t_len],
                |t, o| (t.conv_backward_x)(&slab, &g, o, t_len),
            );
        }
    }
}

fn attn_family<E: Scalar>(special: bool) {
    let Some(tables) = tables::<E>() else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(if special { 6 } else { 5 });
    for n in 1..=MAX {
        for t_len in 1..=MAX {
            let shape = [n, t_len];
            let attn = operands::<E>(&mut rng, n * n, special);
            let v = operands::<E>(&mut rng, n * n * t_len, special);
            let g = operands::<E>(&mut rng, n * t_len, special);
            let out = operands::<E>(&mut rng, n * n * t_len, special);
            both(&tables, "attn_apply", &shape, &out[..n * t_len], |t, o| {
                (t.attn_apply)(&attn, &v, o, n, t_len)
            });
            both(
                &tables,
                "attn_apply bwd attn",
                &shape,
                &out[..n * n],
                |t, o| (t.attn_backward_attn)(&v, &g, o, n, t_len),
            );
            both(&tables, "attn_apply bwd v", &shape, &out, |t, o| {
                (t.attn_backward_v)(&attn, &g, o, n, t_len)
            });
        }
    }
}

#[test]
fn matmul_kernels_agree_f64() {
    matmul_family::<f64>(false);
    matmul_family::<f64>(true);
    matmul_nt_panels::<f64>();
}

#[test]
fn matmul_kernels_agree_f32() {
    matmul_family::<f32>(false);
    matmul_family::<f32>(true);
    matmul_nt_panels::<f32>();
}

#[test]
fn conv_kernels_agree_f64() {
    conv_family::<f64>(false);
    conv_family::<f64>(true);
}

#[test]
fn conv_kernels_agree_f32() {
    conv_family::<f32>(false);
    conv_family::<f32>(true);
}

#[test]
fn attn_kernels_agree_f64() {
    attn_family::<f64>(false);
    attn_family::<f64>(true);
}

#[test]
fn attn_kernels_agree_f32() {
    attn_family::<f32>(false);
    attn_family::<f32>(true);
}

#[test]
fn dispatch_picks_avx2_exactly_when_the_cpu_has_it() {
    let want = if avx2::<f64>().is_some() {
        "avx2"
    } else {
        "portable"
    };
    assert_eq!(f64::kernels().name, want);
    assert_eq!(f32::kernels().name, want);
}
