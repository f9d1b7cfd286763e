//! The RRP rules on AVX2: four f64 lanes over independent cells.
//!
//! Each rule computes, for every output cell, the same terms as its scalar
//! form in [`super`] in the same order: every z⁺ sum starts from `−0.0`
//! (the start of `Iterator::sum` for floats) and adds its terms in
//! ascending order, every share is `z / denom * r` (a vector divide is the
//! same IEEE quotient), each step a separate multiply, divide or add, and
//! relevance accumulates in the scalar loop's order. The lanes only run
//! over cells the scalar loop treats independently:
//!
//! * the linear rule: over outputs `j` for the denominators, then over
//!   inputs `i` for the distribution, `j` ascending per cell;
//! * the head combination: over cells of the `N×T` relevance;
//! * the attention application: over steps `t` for the denominators (the
//!   value column `V[j, a, ·]` is contiguous in `t`), then over `j` for
//!   the shares, against the column transposed in registers, so the 𝒜
//!   relevance sums its shares over `t` in ascending order;
//! * the convolution rule: over 4 kernel rows `b` for the denominators
//!   (the bank rows transposed in registers), then over the terms of one
//!   step for the shares, each tap taking its steps in ascending order.
//!
//! Terms with zero relevance are skipped exactly where the scalar loop
//! skips them, and a cell keeps its value wherever the scalar loop leaves
//! it alone: lanes a cell does not own are masked or blended, so a `−0.0`
//! never becomes `+0.0`.
//!
//! The divides bound every rule. The divider's throughput per element is
//! about the same at two lanes (which the compiler already uses for the
//! scalar loops' share updates) and at four, so the gain comes from the
//! rest of the arithmetic.
//!
//! Every `unsafe fn` here requires AVX2 on the running CPU and the slice
//! lengths its safe entry point asserts; [`rules`] hands them out only
//! after `is_x86_feature_detected!("avx2")`.

use std::arch::x86_64::*;

use super::{Rules, EPS};
use cf_tensor::Tensor;

/// The AVX2 rules, or `None` when the CPU lacks AVX2.
pub(super) fn rules() -> Option<Rules> {
    is_x86_feature_detected!("avx2").then_some(Rules {
        linear: linear_entry,
        heads: heads_entry,
        attn: attn_entry,
        conv: conv_entry,
    })
}

// ---------------------------------------------------------------------------
// Safe entry points: check every shape the unsafe rules rely on.
// ---------------------------------------------------------------------------

fn linear_entry(
    x: &Tensor,
    w_t: &Tensor,
    y: &Tensor,
    b: &Tensor,
    r_y: &Tensor,
    with_bias: bool,
) -> Tensor {
    let (rows, p) = (x.shape()[0], x.shape()[1]);
    let q = y.shape()[1];
    assert_eq!(w_t.shape(), &[q, p], "transposed weight shape");
    assert_eq!(r_y.shape(), y.shape(), "relevance shape");
    assert_eq!(y.shape()[0], rows, "relevance rows");
    assert!(!with_bias || b.len() >= q, "bias too short");
    // W (p × qp), rows zero-padded to whole vectors, so the denominators'
    // lanes over `j` load whole vectors.
    let qp = q.next_multiple_of(4);
    let mut w = vec![0.0; p * qp];
    for (j, wrow) in w_t.data().chunks_exact(p.max(1)).take(q).enumerate() {
        for (i, &v) in wrow.iter().enumerate() {
            w[i * qp + j] = v;
        }
    }
    let mut denom = vec![0.0; qp];
    let mut r_x = Tensor::zeros(&[rows, p]);
    // SAFETY: AVX2 is present (this entry is only handed out by `rules`);
    // `x`/`r_x` hold `rows·p`, `r_y` `rows·q`, `w_t` `q·p`, `w` `p·qp`,
    // `denom` `qp` and `b` (when read) `q` elements, asserted or sized
    // above.
    unsafe {
        linear(
            x.data().as_ptr(),
            w_t.data().as_ptr(),
            &w,
            with_bias.then(|| b.data().as_ptr()),
            r_y.data().as_ptr(),
            &mut denom,
            r_x.data_mut().as_mut_ptr(),
            (rows, p, q),
        )
    };
    r_x
}

fn heads_entry(r_att: &Tensor, w_o: &[f64], head_out: &[Tensor]) -> Vec<Tensor> {
    let mut r_heads = vec![Tensor::zeros(r_att.shape()); head_out.len()];
    let len = r_att.len();
    assert!(w_o.len() >= head_out.len(), "head weights too short");
    assert!(
        head_out.iter().all(|o| o.len() >= len),
        "head output too short"
    );
    let outs: Vec<*const f64> = head_out.iter().map(|o| o.data().as_ptr()).collect();
    let rels: Vec<*mut f64> = r_heads
        .iter_mut()
        .map(|r| r.data_mut().as_mut_ptr())
        .collect();
    // SAFETY: AVX2 is present; `r_att`, every head output and every head
    // relevance hold `len` elements, `w_o` one weight per head, asserted or
    // sized above.
    unsafe { heads(r_att.data().as_ptr(), w_o, &outs, &rels, len) };
    r_heads
}

fn attn_entry(r_heads: &[Tensor], attn: &[Tensor], shifted: &Tensor) -> (Vec<Tensor>, Tensor) {
    let (n, t) = (shifted.shape()[0], shifted.shape()[2]);
    assert_eq!(shifted.shape(), &[n, n, t], "shifted values shape");
    assert_eq!(r_heads.len(), attn.len(), "one attention matrix per head");
    assert!(
        r_heads.iter().all(|r| r.len() >= n * t),
        "head relevance too short"
    );
    assert!(
        attn.iter().all(|a| a.len() >= n * n),
        "attention matrix too short"
    );
    let mut attn_rel = vec![Tensor::zeros(&[n, n]); r_heads.len()];
    let mut r_shifted = Tensor::zeros(shifted.shape());
    let heads: Vec<AttnHead> = r_heads
        .iter()
        .zip(attn)
        .zip(&mut attn_rel)
        .map(|((r, a), ra)| AttnHead {
            r: r.data().as_ptr(),
            attn: a.data().as_ptr(),
            r_attn: ra.data_mut().as_mut_ptr(),
        })
        .collect();
    let mut scratch = vec![0.0; attn_scratch(n, t)];
    let mut steps = vec![0; t];
    // SAFETY: AVX2 is present; every head's relevance holds `n·t` and its
    // attention matrices `n·n`, `shifted`/`r_shifted` `n·n·t` elements,
    // `scratch` `attn_scratch(n, t)` and `steps` `t`, asserted or sized
    // above.
    unsafe {
        attn_rule(
            &heads,
            shifted.data().as_ptr(),
            r_shifted.data_mut().as_mut_ptr(),
            (&mut scratch, &mut steps),
            n,
            t,
        )
    };
    (attn_rel, r_shifted)
}

fn conv_entry(x: &Tensor, bank: &Tensor, r_conv: &Tensor) -> Tensor {
    let (n, t) = (x.shape()[0], x.shape()[1]);
    assert_eq!(bank.shape(), &[n, n, t], "kernel bank shape");
    assert_eq!(r_conv.shape(), &[n, n, t], "convolution relevance shape");
    let mut r_kernel = Tensor::zeros(bank.shape());
    let mut scratch = vec![0.0; conv_scratch(t)];
    let mut steps = vec![0; t];
    // SAFETY: AVX2 is present; `x` holds `n·t`, `bank`/`r_conv`/`r_kernel`
    // `n·n·t` elements (asserted above), `r_kernel` is zero, `scratch`
    // holds `conv_scratch(t)` and `steps` `t`.
    unsafe {
        conv(
            x.data().as_ptr(),
            bank.data().as_ptr(),
            r_conv.data().as_ptr(),
            r_kernel.data_mut().as_mut_ptr(),
            (&mut scratch, &mut steps),
            n,
            t,
        )
    };
    r_kernel
}

/// The convolution rule's scratch for window `t` (`tp = ⌈t/4⌉·4`):
/// `1/(tt+1)` per step, then the transposed taps and the denominators of
/// 4 rows (`tp` vectors each).
fn conv_scratch(t: usize) -> usize {
    9 * t.next_multiple_of(4)
}

// ---------------------------------------------------------------------------
// Lane helpers.
// ---------------------------------------------------------------------------

/// `max(v, +0.0)` per lane: `+0.0` for `±0.0` and NaN, like
/// `f64::max(v, 0.0)`.
#[inline(always)]
unsafe fn pos(v: __m256d) -> __m256d {
    _mm256_max_pd(v, _mm256_setzero_pd())
}

/// `d + ε` where `d ≥ 0`, `d − ε` elsewhere (NaN included), per lane.
#[inline(always)]
unsafe fn stab(d: __m256d) -> __m256d {
    let eps = _mm256_set1_pd(EPS);
    let nonneg = _mm256_cmp_pd::<_CMP_GE_OQ>(d, _mm256_setzero_pd());
    _mm256_blendv_pd(_mm256_sub_pd(d, eps), _mm256_add_pd(d, eps), nonneg)
}

/// The start of a z⁺ sum: `Iterator::sum` folds floats from `−0.0`.
#[inline(always)]
unsafe fn sum_start() -> __m256d {
    _mm256_set1_pd(-0.0)
}

/// Lanes `0..len` (all four when `len ≥ 4`).
#[inline(always)]
unsafe fn prefix(len: usize) -> __m256i {
    let idx = _mm256_setr_epi64x(0, 1, 2, 3);
    _mm256_cmpgt_epi64(_mm256_set1_epi64x(len.min(4) as i64), idx)
}

/// Lanes whose relevance the scalar loop does not skip: `r != 0.0` (NaN
/// included).
#[inline(always)]
unsafe fn nonzero(r: __m256d) -> __m256d {
    _mm256_cmp_pd::<_CMP_NEQ_UQ>(r, _mm256_setzero_pd())
}

/// `z / denom * r`, the share every rule hands one term.
#[inline(always)]
unsafe fn share(z: __m256d, denom: __m256d, r: __m256d) -> __m256d {
    _mm256_mul_pd(_mm256_div_pd(z, denom), r)
}

/// `out[c][r] = rows[r][c]`: a 4×4 transpose in registers.
#[inline(always)]
unsafe fn transpose4(r: [__m256d; 4]) -> [__m256d; 4] {
    let lo01 = _mm256_unpacklo_pd(r[0], r[1]);
    let hi01 = _mm256_unpackhi_pd(r[0], r[1]);
    let lo23 = _mm256_unpacklo_pd(r[2], r[3]);
    let hi23 = _mm256_unpackhi_pd(r[2], r[3]);
    [
        _mm256_permute2f128_pd::<0x20>(lo01, lo23),
        _mm256_permute2f128_pd::<0x20>(hi01, hi23),
        _mm256_permute2f128_pd::<0x31>(lo01, lo23),
        _mm256_permute2f128_pd::<0x31>(hi01, hi23),
    ]
}

/// Copies `rows` rows of `t` elements (`row(q)` is row `q`) into `dst` as
/// `⌈t/4⌉·4` vectors of 4 lanes: vector `u` holds element `u` of each row,
/// zero in the lanes of missing rows and past `t`.
#[inline(always)]
unsafe fn transpose_in(row: impl Fn(usize) -> *const f64, rows: usize, t: usize, dst: *mut f64) {
    for u0 in (0..t).step_by(4) {
        let m = prefix(t - u0);
        let mut r = [_mm256_setzero_pd(); 4];
        for (q, rq) in r.iter_mut().enumerate().take(rows) {
            *rq = _mm256_maskload_pd(row(q).add(u0), m);
        }
        for (l, col) in transpose4(r).into_iter().enumerate() {
            _mm256_storeu_pd(dst.add((u0 + l) * 4), col);
        }
    }
}

// ---------------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------------

/// The linear rule (see `linear_rrp`) over `rows` rows of `p` inputs and
/// `q` outputs. `w` is `W = w_tᵀ` with rows padded to `qp = ⌈q/4⌉·4`.
///
/// # Safety
/// AVX2; `x` and `r_x` point at `rows·p`, `r_y` at `rows·q`, `w_t` at
/// `q·p` elements, `b` (when given) at `q`; `w` holds `p·qp` and `denom`
/// `qp`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn linear(
    x: *const f64,
    w_t: *const f64,
    w: &[f64],
    b: Option<*const f64>,
    r_y: *const f64,
    denom: &mut [f64],
    r_x: *mut f64,
    (rows, p, q): (usize, usize, usize),
) {
    const C: usize = 4;
    let qp = denom.len();
    for row in 0..rows {
        let x_row = x.add(row * p);
        let r_row = r_y.add(row * q);
        // Denominators, lanes over j: Σ_i (x[i]·W[i,j])⁺ in ascending i,
        // then the positive bias, then the stabiliser; C vectors of j at
        // once, so their sums form independent chains.
        for j0 in (0..q).step_by(C * 4) {
            let mut acc = [sum_start(); C];
            let vecs = (qp - j0).min(C * 4) / 4;
            for i in 0..p {
                let xi = _mm256_set1_pd(*x_row.add(i));
                for (c, acc) in acc.iter_mut().enumerate().take(vecs) {
                    let wv = _mm256_loadu_pd(w.as_ptr().add(i * qp + j0 + 4 * c));
                    *acc = _mm256_add_pd(*acc, pos(_mm256_mul_pd(xi, wv)));
                }
            }
            for (c, acc) in acc.into_iter().enumerate().take(vecs) {
                let j = j0 + 4 * c;
                let acc = match b {
                    Some(b) => _mm256_add_pd(acc, pos(_mm256_maskload_pd(b.add(j), prefix(q - j)))),
                    None => acc,
                };
                _mm256_storeu_pd(denom.as_mut_ptr().add(j), stab(acc));
            }
        }
        // Distribution, lanes over i: each tile of C vectors of inputs
        // stays in registers across every output j, in ascending order.
        for i0 in (0..p).step_by(C * 4) {
            let mut m = [_mm256_setzero_si256(); C];
            let mut xv = [_mm256_setzero_pd(); C];
            let mut acc = [_mm256_setzero_pd(); C];
            for c in 0..C {
                m[c] = prefix((p - i0).saturating_sub(c * 4));
                // Vectors past `p` are fully masked: never dereferenced.
                xv[c] = _mm256_maskload_pd(x_row.wrapping_add(i0 + c * 4), m[c]);
            }
            for j in 0..q {
                let r = *r_row.add(j);
                if r == 0.0 {
                    continue;
                }
                let (d, r) = (_mm256_set1_pd(denom[j]), _mm256_set1_pd(r));
                let wrow = w_t.add(j * p + i0);
                for c in 0..C {
                    let wv = _mm256_maskload_pd(wrow.wrapping_add(c * 4), m[c]);
                    let z = pos(_mm256_mul_pd(xv[c], wv));
                    acc[c] = _mm256_add_pd(acc[c], share(z, d, r));
                }
            }
            for c in 0..C {
                _mm256_maskstore_pd(r_x.wrapping_add(row * p + i0 + c * 4), m[c], acc[c]);
            }
        }
    }
}

/// The head combination (see `heads_rrp`) over `len` cells, lanes over
/// cells.
///
/// # Safety
/// AVX2; `r_att`, each `outs[k]` and each `rels[k]` point at `len`
/// elements; `w_o` holds one weight per head.
#[target_feature(enable = "avx2")]
unsafe fn heads(
    r_att: *const f64,
    w_o: &[f64],
    outs: &[*const f64],
    rels: &[*mut f64],
    len: usize,
) {
    for p0 in (0..len).step_by(4) {
        let m = prefix(len - p0);
        let r = _mm256_maskload_pd(r_att.add(p0), m);
        let live = nonzero(r);
        let z = |k: usize| {
            let out = _mm256_maskload_pd(outs[k].add(p0), m);
            pos(_mm256_mul_pd(_mm256_set1_pd(w_o[k]), out))
        };
        let mut acc = sum_start();
        for k in 0..outs.len() {
            acc = _mm256_add_pd(acc, z(k));
        }
        let denom = stab(acc);
        for (k, &rel) in rels.iter().enumerate() {
            let v = _mm256_blendv_pd(_mm256_setzero_pd(), share(z(k), denom, r), live);
            _mm256_maskstore_pd(rel.add(p0), m, v);
        }
    }
}

/// One head's operands of the attention-application rule.
struct AttnHead {
    /// The head output's relevance (`N×T`).
    r: *const f64,
    /// The attention matrix (`N×N`).
    attn: *const f64,
    /// Its relevance (`N×N`), zero on entry.
    r_attn: *mut f64,
}

/// The attention rule's scratch: the value column of one target and its
/// relevance (`⌈t/4⌉·4 × ⌈n/4⌉·4` each, row `t` holding every `j`), then
/// the denominators of one head.
fn attn_scratch(n: usize, t: usize) -> usize {
    2 * t.next_multiple_of(4) * n.next_multiple_of(4) + t.next_multiple_of(16)
}

/// The attention-application rule (see `attn_rrp`), one target `a` at a
/// time. Its value column `V[j, a, ·]` is transposed into `v_a` (row `t`
/// holds every `j`). Per head, the denominators run lanes over `t`
/// straight from `V`, 16 steps at once; the shares then run lanes over
/// `j` against `v_a`, 16 `j` at once, over the steps with nonzero
/// relevance in ascending `t`, gathered without a branch per step. The
/// value relevance collects in `r_v_a` across heads and is transposed
/// back at the end.
///
/// # Safety
/// AVX2; each head's `r` points at `n·t` and `attn`/`r_attn` at `n·n`
/// elements, `shifted`/`r_shifted` at `n·n·t`; `scratch` holds
/// [`attn_scratch`]`(n, t)` and `steps` `t`.
#[target_feature(enable = "avx2")]
unsafe fn attn_rule(
    heads: &[AttnHead],
    shifted: *const f64,
    r_shifted: *mut f64,
    (scratch, steps): (&mut [f64], &mut [usize]),
    n: usize,
    t: usize,
) {
    const C: usize = 4;
    let (np, tp) = (n.next_multiple_of(4), t.next_multiple_of(4));
    let (v_a, rest) = scratch.split_at_mut(tp * np);
    let (r_v_a, denom) = rest.split_at_mut(tp * np);
    let (v_a, r_v_a, denom) = (v_a.as_mut_ptr(), r_v_a.as_mut_ptr(), denom.as_mut_ptr());
    let steps = steps.as_mut_ptr();
    for a in 0..n {
        // V[j, a, ·] and its relevance.
        let v = |j: usize| shifted.add((j * n + a) * t);
        let rv = |j: usize| r_shifted.add((j * n + a) * t);
        for j0 in (0..n).step_by(4) {
            let rows = (n - j0).min(4);
            for t0 in (0..t).step_by(4) {
                let m = prefix(t - t0);
                let mut r = [_mm256_setzero_pd(); 4];
                for (q, rq) in r.iter_mut().enumerate().take(rows) {
                    *rq = _mm256_maskload_pd(v(j0 + q).add(t0), m);
                }
                for (l, col) in transpose4(r).into_iter().enumerate() {
                    _mm256_storeu_pd(v_a.add((t0 + l) * np + j0), col);
                }
            }
        }
        std::ptr::write_bytes(r_v_a, 0, tp * np);
        for head in heads {
            let attn_row = head.attn.add(a * n);
            let r_out = head.r.add(a * t);
            // Denominators, lanes over t: Σ_j (𝒜[a,j]·V[j,a,t])⁺, j
            // ascending, for 16 steps at once.
            for t0 in (0..t).step_by(C * 4) {
                let m = [0, 1, 2, 3].map(|c| prefix((t - t0).saturating_sub(4 * c)));
                let mut acc = [sum_start(); C];
                for j in 0..n {
                    let aj = _mm256_set1_pd(*attn_row.add(j));
                    for c in 0..C {
                        // Fully masked past the row: never dereferenced.
                        let vj = _mm256_maskload_pd(v(j).wrapping_add(t0 + 4 * c), m[c]);
                        acc[c] = _mm256_add_pd(acc[c], pos(_mm256_mul_pd(aj, vj)));
                    }
                }
                for (c, acc) in acc.into_iter().enumerate() {
                    _mm256_storeu_pd(denom.add(t0 + 4 * c), stab(acc));
                }
            }
            let mut live = 0;
            for tt in 0..t {
                *steps.add(live) = tt;
                live += usize::from(*r_out.add(tt) != 0.0);
            }
            let steps = std::slice::from_raw_parts(steps, live);
            // Shares, lanes over j: 𝒜 relevance sums them over t in
            // registers, V relevance takes each in place.
            for j0 in (0..n).step_by(C * 4) {
                let m = [0, 1, 2, 3].map(|c| prefix((n - j0).saturating_sub(4 * c)));
                let mut av = [_mm256_setzero_pd(); C];
                for c in 0..C {
                    // Fully masked past the row: never dereferenced.
                    av[c] = _mm256_maskload_pd(attn_row.wrapping_add(j0 + 4 * c), m[c]);
                }
                let mut r_a = [_mm256_setzero_pd(); C];
                for &tt in steps {
                    let (d, r) = (
                        _mm256_set1_pd(*denom.add(tt)),
                        _mm256_set1_pd(*r_out.add(tt)),
                    );
                    let (vrow, rvrow) = (v_a.add(tt * np + j0), r_v_a.add(tt * np + j0));
                    for c in 0..C {
                        let vj = _mm256_maskload_pd(vrow.wrapping_add(4 * c), m[c]);
                        let contrib = share(pos(_mm256_mul_pd(av[c], vj)), d, r);
                        r_a[c] = _mm256_add_pd(r_a[c], contrib);
                        let dst = rvrow.wrapping_add(4 * c);
                        let old = _mm256_maskload_pd(dst, m[c]);
                        _mm256_maskstore_pd(dst, m[c], _mm256_add_pd(old, contrib));
                    }
                }
                for c in 0..C {
                    let dst = head.r_attn.add(a * n).wrapping_add(j0 + 4 * c);
                    _mm256_maskstore_pd(dst, m[c], r_a[c]);
                }
            }
        }
        for j0 in (0..n).step_by(4) {
            let rows = (n - j0).min(4);
            for t0 in (0..t).step_by(4) {
                let cols = [0, 1, 2, 3].map(|l| _mm256_loadu_pd(r_v_a.add((t0 + l) * np + j0)));
                let m = prefix(t - t0);
                for (q, row) in transpose4(cols).into_iter().enumerate().take(rows) {
                    _mm256_maskstore_pd(rv(j0 + q).add(t0), m, row);
                }
            }
        }
    }
}

/// The convolution rule (see `conv_rrp`), 4 kernel rows `b` at a time.
/// The denominators run lanes over the 4 rows ([`conv_denominators`]).
/// The shares then run lanes over the terms `s` of one step: step `tt` of
/// row `(a, b)` adds `z / d * r` to taps `u = T−1−tt+s`, so every tap
/// takes its steps in ascending order, in place in `r_kernel`. Steps with
/// zero relevance are skipped, as in the scalar loop, from a list gathered
/// without a branch per step; masked stores leave every other tap alone.
///
/// # Safety
/// AVX2; `x` points at `n·t`, `bank`, `r_conv` and `r_kernel` at `n·n·t`
/// elements, `r_kernel` zero on entry; `scratch` holds
/// [`conv_scratch`]`(t)` and `steps` `t`.
#[target_feature(enable = "avx2")]
unsafe fn conv(
    x: *const f64,
    bank: *const f64,
    r_conv: *const f64,
    r_kernel: *mut f64,
    (scratch, steps): (&mut [f64], &mut [usize]),
    n: usize,
    t: usize,
) {
    let tp = t.next_multiple_of(4);
    let (inv, rest) = scratch.split_at_mut(tp);
    let (kt, dt) = rest.split_at_mut(4 * tp);
    for (tt, v) in inv.iter_mut().enumerate() {
        *v = 1.0 / (tt + 1) as f64;
    }
    let (inv, kt, dt) = (inv.as_ptr(), kt.as_mut_ptr(), dt.as_mut_ptr());
    let steps = steps.as_mut_ptr();
    for a in 0..n {
        let x_row = x.add(a * t);
        for b0 in (0..n).step_by(4) {
            let rows = (n - b0).min(4);
            let row = |q: usize| (a * n + b0 + q) * t;
            transpose_in(|q| bank.add(row(q)), rows, t, kt);
            conv_denominators(kt, x_row, inv, dt, t);
            for q in 0..rows {
                let (krow, rrow, orow) =
                    (bank.add(row(q)), r_conv.add(row(q)), r_kernel.add(row(q)));
                let mut live = 0;
                for tt in 0..t {
                    *steps.add(live) = tt;
                    live += usize::from(*rrow.add(tt) != 0.0);
                }
                for &tt in std::slice::from_raw_parts(steps, live) {
                    let base = t - 1 - tt;
                    let r = _mm256_set1_pd(*rrow.add(tt));
                    let d = _mm256_set1_pd(*dt.add(tt * 4 + q));
                    let scale = _mm256_set1_pd(*inv.add(tt));
                    for s0 in (0..=tt).step_by(4) {
                        let m = prefix(tt + 1 - s0);
                        let k = _mm256_maskload_pd(krow.add(base + s0), m);
                        let xv = _mm256_maskload_pd(x_row.add(s0), m);
                        let z = pos(_mm256_mul_pd(_mm256_mul_pd(k, xv), scale));
                        let o = orow.add(base + s0);
                        let sum = _mm256_add_pd(_mm256_maskload_pd(o, m), share(z, d, r));
                        _mm256_maskstore_pd(o, m, sum);
                    }
                }
            }
        }
    }
}

/// `d[4·tt + q] = stab(Σ_{s ≤ tt} (kt[T−1−tt+s][q]·x[s]·scale)⁺)` for every
/// step `tt` of the 4 rows `q` in `kt` (tap `u` of the 4 rows at
/// `kt[4u ..]`), `s` ascending from `−0.0`. Four steps run at once, so
/// their sums form 4 independent chains.
///
/// # Safety
/// AVX2; `kt` points at `4t`, `x` at `t`, `inv` at `1/(tt+1)` for every
/// step, `d` at `4·⌈t/4⌉·4` elements.
#[inline(always)]
unsafe fn conv_denominators(kt: *const f64, x: *const f64, inv: *const f64, d: *mut f64, t: usize) {
    let term = |acc: __m256d, tt: usize, s: usize, xs: __m256d| {
        let k = _mm256_loadu_pd(kt.add((t - 1 - tt + s) * 4));
        let scale = _mm256_set1_pd(*inv.add(tt));
        _mm256_add_pd(acc, pos(_mm256_mul_pd(_mm256_mul_pd(k, xs), scale)))
    };
    let whole = t / 4 * 4;
    for tt0 in (0..whole).step_by(4) {
        let mut acc = [sum_start(); 4];
        // Every step has the terms s ≤ tt0; step tt0+i has i more.
        for s in 0..=tt0 {
            let xs = _mm256_set1_pd(*x.add(s));
            for (i, acc) in acc.iter_mut().enumerate() {
                *acc = term(*acc, tt0 + i, s, xs);
            }
        }
        for s in tt0 + 1..tt0 + 4 {
            let xs = _mm256_set1_pd(*x.add(s));
            for (i, acc) in acc.iter_mut().enumerate().skip(s - tt0) {
                *acc = term(*acc, tt0 + i, s, xs);
            }
        }
        for (i, acc) in acc.into_iter().enumerate() {
            _mm256_storeu_pd(d.add((tt0 + i) * 4), stab(acc));
        }
    }
    for tt in whole..t {
        let mut acc = sum_start();
        for s in 0..=tt {
            acc = term(acc, tt, s, _mm256_set1_pd(*x.add(s)));
        }
        _mm256_storeu_pd(d.add(tt * 4), stab(acc));
    }
}
