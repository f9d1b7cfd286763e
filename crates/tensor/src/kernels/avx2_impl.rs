//! The AVX2 kernels: register-tiled `std::arch` code for x86-64.
//!
//! Each kernel keeps a tile of output cells — up to 4 rows × 2 vectors, or
//! one row of 4 vectors, or for the f32 kernels in `dot_from` order 8
//! cells with 8 partial sums each — in `ymm` registers across its whole
//! reduction and writes it back once. Lanes always run over independent
//! output cells; every cell sees the terms, the start value and the
//! zero-skip of the portable loop in the same order, each term a separate
//! multiply then add, so results are bitwise those of `portable_impl` (see
//! the module docs of [`super`]).
//!
//! Cells past the end of a row and terms a cell does not have (the causal
//! convolution's triangular sums) are handled with lane masks: masked
//! loads never touch the memory of an inactive lane, and a blend keeps an
//! inactive lane's accumulator unchanged instead of adding a zero term
//! (which could turn `−0.0` into `+0.0`, or `0·∞` into NaN).
//!
//! Every `unsafe fn` here requires AVX2 on the running CPU and the slice
//! lengths its safe entry point asserts; the tables are only built after
//! `is_x86_feature_detected!("avx2")`.

use std::arch::x86_64::*;
use std::cell::RefCell;

use super::{portable_impl, Kernels, Lhs};
use crate::scalar::Scalar;

/// One `ymm` register of lanes: four `f64` or eight `f32`.
trait Lane: Copy {
    type E: Scalar;
    type Mask: Copy;
    /// Lanes per register.
    const W: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(v: Self::E) -> Self;
    unsafe fn load(p: *const Self::E) -> Self;
    unsafe fn store(self, p: *mut Self::E);
    /// Lanes `l` with `lo ≤ l < hi` (either bound may lie outside `0..W`).
    unsafe fn mask(lo: isize, hi: isize) -> Self::Mask;
    /// Loads the lanes of `m`, zero elsewhere; touches no other memory.
    unsafe fn load_masked(p: *const Self::E, m: Self::Mask) -> Self;
    /// Stores the lanes of `m`; touches no other memory.
    unsafe fn store_masked(self, p: *mut Self::E, m: Self::Mask);
    /// `yes` in the lanes of `m`, `no` elsewhere.
    unsafe fn select(m: Self::Mask, yes: Self, no: Self) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn div(self, o: Self) -> Self;
    /// Lane order reversed.
    unsafe fn reverse(self) -> Self;
    /// A per-thread scratch buffer (transposed operands, padded rows).
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<Self::E>) -> R) -> R;
}

thread_local! {
    static SCRATCH_F64: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static SCRATCH_F32: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

#[derive(Clone, Copy)]
struct F64x4(__m256d);

#[derive(Clone, Copy)]
struct F32x8(__m256);

impl Lane for F64x4 {
    type E = f64;
    type Mask = __m256i;
    const W: usize = 4;
    #[inline(always)]
    unsafe fn zero() -> Self {
        F64x4(_mm256_setzero_pd())
    }
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        F64x4(_mm256_set1_pd(v))
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        F64x4(_mm256_loadu_pd(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        _mm256_storeu_pd(p, self.0)
    }
    #[inline(always)]
    unsafe fn mask(lo: isize, hi: isize) -> __m256i {
        let idx = _mm256_setr_epi64x(0, 1, 2, 3);
        let below_hi = _mm256_cmpgt_epi64(_mm256_set1_epi64x(hi.clamp(-1, 5) as i64), idx);
        let below_lo = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lo.clamp(-1, 5) as i64), idx);
        _mm256_andnot_si256(below_lo, below_hi)
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f64, m: __m256i) -> Self {
        F64x4(_mm256_maskload_pd(p, m))
    }
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f64, m: __m256i) {
        _mm256_maskstore_pd(p, m, self.0)
    }
    #[inline(always)]
    unsafe fn select(m: __m256i, yes: Self, no: Self) -> Self {
        F64x4(_mm256_blendv_pd(no.0, yes.0, _mm256_castsi256_pd(m)))
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        F64x4(_mm256_add_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        F64x4(_mm256_mul_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        F64x4(_mm256_div_pd(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn reverse(self) -> Self {
        F64x4(_mm256_permute4x64_pd::<0b00_01_10_11>(self.0))
    }
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        SCRATCH_F64.with(|s| f(&mut s.borrow_mut()))
    }
}

impl Lane for F32x8 {
    type E = f32;
    type Mask = __m256i;
    const W: usize = 8;
    #[inline(always)]
    unsafe fn zero() -> Self {
        F32x8(_mm256_setzero_ps())
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        F32x8(_mm256_set1_ps(v))
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        F32x8(_mm256_loadu_ps(p))
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        _mm256_storeu_ps(p, self.0)
    }
    #[inline(always)]
    unsafe fn mask(lo: isize, hi: isize) -> __m256i {
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let below_hi = _mm256_cmpgt_epi32(_mm256_set1_epi32(hi.clamp(-1, 9) as i32), idx);
        let below_lo = _mm256_cmpgt_epi32(_mm256_set1_epi32(lo.clamp(-1, 9) as i32), idx);
        _mm256_andnot_si256(below_lo, below_hi)
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f32, m: __m256i) -> Self {
        F32x8(_mm256_maskload_ps(p, m))
    }
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f32, m: __m256i) {
        _mm256_maskstore_ps(p, m, self.0)
    }
    #[inline(always)]
    unsafe fn select(m: __m256i, yes: Self, no: Self) -> Self {
        F32x8(_mm256_blendv_ps(no.0, yes.0, _mm256_castsi256_ps(m)))
    }
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        F32x8(_mm256_add_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        F32x8(_mm256_mul_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn div(self, o: Self) -> Self {
        F32x8(_mm256_div_ps(self.0, o.0))
    }
    #[inline(always)]
    unsafe fn reverse(self) -> Self {
        let idx = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
        F32x8(_mm256_permutevar8x32_ps(self.0, idx))
    }
    fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
        SCRATCH_F32.with(|s| f(&mut s.borrow_mut()))
    }
}

/// The f64 table: every kernel register-tiled.
pub(super) fn f64_table() -> Option<Kernels<f64>> {
    is_x86_feature_detected!("avx2").then_some(Kernels {
        name: "avx2",
        gemm: gemm_entry::<F64x4>,
        gemm_nt: gemm_nt_entry::<F64x4>,
        conv: conv_entry::<F64x4>,
        conv_backward_kernel: conv_backward_kernel_entry::<F64x4>,
        conv_backward_x: conv_backward_x_entry::<F64x4>,
        attn_apply: attn_apply_entry::<F64x4>,
        attn_backward_attn: attn_backward_attn_entry,
        attn_backward_v: attn_backward_v_entry::<F64x4>,
    })
}

/// The f32 table: every kernel register-tiled. The three built on f32's
/// 8-lane `dot_from` (`gemm_nt`, `conv`, `attn_backward_attn`) run their
/// lanes over 8 output cells, each cell keeping `dot_from`'s 8 partial
/// sums and reducing them in its order (see [`dot8_reduce`]).
pub(super) fn f32_table() -> Option<Kernels<f32>> {
    is_x86_feature_detected!("avx2").then_some(Kernels {
        name: "avx2",
        gemm: gemm_entry::<F32x8>,
        gemm_nt: gemm_nt_f32_entry,
        conv: conv_f32_entry,
        conv_backward_kernel: conv_backward_kernel_entry::<F32x8>,
        conv_backward_x: conv_backward_x_entry::<F32x8>,
        attn_apply: attn_apply_entry::<F32x8>,
        attn_backward_attn: attn_backward_attn_f32_entry,
        attn_backward_v: attn_backward_v_entry::<F32x8>,
    })
}

// ---------------------------------------------------------------------------
// Safe entry points: check every length the unsafe kernels rely on.
// ---------------------------------------------------------------------------

fn gemm_entry<V: Lane>(
    a: Lhs<'_, V::E>,
    b: &[V::E],
    out: &mut [V::E],
    i0: usize,
    k: usize,
    n: usize,
) {
    if n == 0 || k == 0 || out.len() < n {
        return;
    }
    let rows = out.len() / n;
    assert_eq!(rows * n, out.len(), "gemm band is not whole rows");
    assert!(b.len() >= k * n, "gemm rhs too short");
    let last = (i0 + rows - 1) * a.row_stride + (k - 1) * a.col_stride;
    assert!(last < a.data.len(), "gemm lhs too short");
    // SAFETY: the table holding this entry is only built on CPUs with AVX2,
    // and the asserts above cover every index `gemm` reads or writes.
    unsafe { gemm::<V, true>(a, b.as_ptr(), out.as_mut_ptr(), i0, rows, k, n) }
}

fn gemm_nt_entry<V: Lane>(a: &[V::E], b: &[V::E], out: &mut [V::E], i0: usize, k: usize, n: usize) {
    if n == 0 || k == 0 || out.len() < n {
        return;
    }
    let rows = out.len() / n;
    // Packing `b` costs one pass over it; below four rows that is as much
    // work as the product itself, and the portable panels (bitwise the
    // same for f64) are as fast.
    if rows < 4 {
        return portable_impl::gemm_nt(a, b, out, i0, k, n);
    }
    assert_eq!(rows * n, out.len(), "gemm_nt band is not whole rows");
    assert!(a.len() >= (i0 + rows) * k, "gemm_nt lhs too short");
    assert!(b.len() >= n * k, "gemm_nt rhs too short");
    V::with_scratch(|bt| {
        // bt = bᵀ (k×n), so each output row is a plain ikj product with no
        // zero-skip — exactly the f64 `dot_from` order, term p after p.
        pack_transposed(b, k, n, n, bt);
        let lhs = Lhs {
            data: a,
            row_stride: k,
            col_stride: 1,
        };
        // SAFETY: AVX2 is present (see `gemm_entry`); `lhs` covers rows
        // `i0 .. i0 + rows` of `k` columns, `bt` holds `k·n` elements and
        // `out` `rows·n`, all asserted above.
        unsafe { gemm::<V, false>(lhs, bt.as_ptr(), out.as_mut_ptr(), i0, rows, k, n) }
    })
}

/// `bt[p·stride + j] = b[j·k + p]` for the `n` rows of `b`, zero in the
/// columns `n .. stride`.
fn pack_transposed<E: Scalar>(b: &[E], k: usize, n: usize, stride: usize, bt: &mut Vec<E>) {
    bt.clear();
    bt.resize(k * stride, E::ZERO);
    for (j, brow) in b.chunks_exact(k).take(n).enumerate() {
        for (p, &v) in brow.iter().enumerate() {
            bt[p * stride + j] = v;
        }
    }
}

fn conv_entry<V: Lane>(xi: &[V::E], kslab: &[V::E], oslab: &mut [V::E], t_len: usize) {
    if t_len == 0 {
        return;
    }
    let n = oslab.len() / t_len;
    assert!(
        xi.len() >= t_len && kslab.len() >= n * t_len,
        "conv slab too short"
    );
    // SAFETY: AVX2 is present; `xi` holds `T` and `kslab`/`oslab` `n·T`
    // elements, asserted above.
    unsafe { conv::<V>(xi.as_ptr(), kslab.as_ptr(), oslab.as_mut_ptr(), n, t_len) }
}

fn conv_backward_kernel_entry<V: Lane>(
    xi: &[V::E],
    gslab: &[V::E],
    gkslab: &mut [V::E],
    t_len: usize,
) {
    if t_len == 0 {
        return;
    }
    let n = gkslab.len() / t_len;
    assert!(
        xi.len() >= t_len && gslab.len() >= n * t_len,
        "conv gradient slab too short"
    );
    V::with_scratch(|scratch| {
        // x with `W` zeros before it and `2W` after, so every vector of x
        // the kernel reads is in bounds (the lanes of taps past `T` read up
        // to `2W − 2` beyond x); lanes that fall on the padding are blended
        // out or never stored, never added to a live cell. The scaled
        // gradient follows it.
        let pad = t_len + 3 * V::W;
        scratch.clear();
        scratch.resize(pad + n * t_len, V::E::ZERO);
        scratch[V::W..V::W + t_len].copy_from_slice(&xi[..t_len]);
        let (xpad, gs) = scratch.split_at_mut(pad);
        // SAFETY: AVX2 is present; `xpad` holds `T + 3W` elements and
        // `gslab`/`gs`/`gkslab` `n·T`, asserted above.
        unsafe {
            scale_by_slot::<V>(gslab.as_ptr(), gs.as_mut_ptr(), n, t_len);
            conv_backward_kernel::<V>(xpad.as_ptr(), gs.as_ptr(), gkslab.as_mut_ptr(), n, t_len)
        }
    })
}

fn conv_backward_x_entry<V: Lane>(
    kslab: &[V::E],
    gslab: &[V::E],
    gxrow: &mut [V::E],
    t_len: usize,
) {
    if t_len == 0 {
        return;
    }
    assert!(gxrow.len() >= t_len, "conv input-gradient row too short");
    let n = kslab.len() / t_len;
    assert!(gslab.len() >= n * t_len, "conv gradient slab too short");
    V::with_scratch(|gs| {
        gs.clear();
        gs.resize(n * t_len, V::E::ZERO);
        // SAFETY: AVX2 is present; `kslab`/`gslab`/`gs` hold `n·T` and
        // `gxrow` `T` elements, asserted above.
        unsafe {
            scale_by_slot::<V>(gslab.as_ptr(), gs.as_mut_ptr(), n, t_len);
            conv_backward_x::<V>(kslab.as_ptr(), gs.as_ptr(), gxrow.as_mut_ptr(), n, t_len)
        }
    })
}

fn attn_apply_entry<V: Lane>(attn: &[V::E], v: &[V::E], out: &mut [V::E], n: usize, t_len: usize) {
    assert!(attn.len() >= n * n && v.len() >= n * n * t_len && out.len() >= n * t_len);
    if t_len == 0 {
        return;
    }
    // SAFETY: AVX2 is present; the lengths are asserted above.
    unsafe { attn_apply::<V>(attn.as_ptr(), v.as_ptr(), out.as_mut_ptr(), n, t_len) }
}

fn attn_backward_attn_entry(v: &[f64], g: &[f64], ga: &mut [f64], n: usize, t_len: usize) {
    assert!(v.len() >= n * n * t_len && g.len() >= n * t_len && ga.len() >= n * n);
    // SAFETY: AVX2 is present; the lengths are asserted above.
    unsafe { attn_backward_attn(v.as_ptr(), g.as_ptr(), ga.as_mut_ptr(), n, t_len) }
}

fn gemm_nt_f32_entry(a: &[f32], b: &[f32], out: &mut [f32], i0: usize, k: usize, n: usize) {
    if n == 0 || k == 0 || out.len() < n {
        return;
    }
    let rows = out.len() / n;
    // As for f64: below four rows packing `b` costs as much as the product.
    if rows < 4 {
        return portable_impl::gemm_nt(a, b, out, i0, k, n);
    }
    assert_eq!(rows * n, out.len(), "gemm_nt band is not whole rows");
    assert!(a.len() >= (i0 + rows) * k, "gemm_nt lhs too short");
    assert!(b.len() >= n * k, "gemm_nt rhs too short");
    F32x8::with_scratch(|bt| {
        // bt = bᵀ (k×np) with its rows padded to whole vectors, so a tile
        // of 8 columns loads term p of its 8 cells as one vector.
        let np = n.next_multiple_of(8);
        pack_transposed(b, k, n, np, bt);
        // SAFETY: AVX2 is present (see `gemm_entry`); `a` covers rows
        // `i0 .. i0 + rows` of `k` columns, `bt` holds `k·np` elements and
        // `out` `rows·n`, all asserted or sized above.
        unsafe { gemm_nt_f32(a.as_ptr(), bt.as_ptr(), out.as_mut_ptr(), i0, rows, k, n) }
    })
}

fn conv_f32_entry(xi: &[f32], kslab: &[f32], oslab: &mut [f32], t_len: usize) {
    if t_len == 0 {
        return;
    }
    let n = oslab.len() / t_len;
    assert!(
        xi.len() >= t_len && kslab.len() >= n * t_len,
        "conv slab too short"
    );
    F32x8::with_scratch(|kt| {
        kt.clear();
        kt.resize(t_len.next_multiple_of(8) * 8, 0.0);
        // SAFETY: AVX2 is present; `xi` holds `T` and `kslab`/`oslab` `n·T`
        // elements (asserted above), `kt` `8·⌈T/8⌉·8`.
        unsafe {
            conv_f32(
                xi.as_ptr(),
                kslab.as_ptr(),
                oslab.as_mut_ptr(),
                kt.as_mut_ptr(),
                n,
                t_len,
            )
        }
    })
}

fn attn_backward_attn_f32_entry(v: &[f32], g: &[f32], ga: &mut [f32], n: usize, t_len: usize) {
    assert!(v.len() >= n * n * t_len && g.len() >= n * t_len && ga.len() >= n * n);
    // SAFETY: AVX2 is present; the lengths are asserted above.
    unsafe { attn_backward_attn_f32(v.as_ptr(), g.as_ptr(), ga.as_mut_ptr(), n, t_len) }
}

fn attn_backward_v_entry<V: Lane>(
    attn: &[V::E],
    g: &[V::E],
    gv: &mut [V::E],
    n: usize,
    t_len: usize,
) {
    assert!(attn.len() >= n * n && g.len() >= n * t_len && gv.len() >= n * n * t_len);
    // SAFETY: AVX2 is present; the lengths are asserted above.
    unsafe { attn_backward_v::<V>(attn.as_ptr(), g.as_ptr(), gv.as_mut_ptr(), n, t_len) }
}

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

/// `prefix[c]` holds lanes `0..c`, for every `c` in `0..=W`.
#[inline(always)]
unsafe fn prefix_masks<V: Lane>() -> [V::Mask; 9] {
    let mut m = [V::mask(0, 0); 9];
    for (c, mc) in m.iter_mut().enumerate().take(V::W + 1) {
        *mc = V::mask(0, c as isize);
    }
    m
}

/// How many lanes of a vector take one term of a convolution tile: none,
/// some (masked and blended), or all.
const NONE: u8 = 0;
const PART: u8 = 1;
const FULL: u8 = 2;

/// One convolution tile's operands: the two input pointers (`x` and the
/// kernel slab, or the padded `x` and the scaled gradient), its first row,
/// its first slot or tap, `T`, and the [`prefix_masks`].
type Tile<'a, V> = (
    *const <V as Lane>::E,
    *const <V as Lane>::E,
    usize,
    usize,
    usize,
    &'a [<V as Lane>::Mask; 9],
);

/// Masks of the valid lanes of `C` consecutive vectors starting at column
/// `j` of a row of length `len`.
#[inline(always)]
unsafe fn valid_masks<V: Lane, const C: usize>(j: usize, len: usize) -> [V::Mask; C] {
    let mut m = [V::mask(0, 0); C];
    for (c, mc) in m.iter_mut().enumerate() {
        *mc = V::mask(0, len as isize - (j + c * V::W) as isize);
    }
    m
}

/// `gemm` over `rows` output rows: tiles of 4 rows, then the 1–3 left.
///
/// # Safety
/// AVX2; `a` covers rows `i0 .. i0 + rows` × `k` columns, `b` points at
/// `k·n` elements and `out` at `rows·n`.
#[target_feature(enable = "avx2")]
unsafe fn gemm<V: Lane, const SKIP: bool>(
    a: Lhs<'_, V::E>,
    b: *const V::E,
    out: *mut V::E,
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    let mut r = 0;
    while r + 4 <= rows {
        gemm_rows::<V, 4, SKIP>(a, b, out, i0, r, k, n);
        r += 4;
    }
    match rows - r {
        3 => gemm_rows::<V, 3, SKIP>(a, b, out, i0, r, k, n),
        2 => gemm_rows::<V, 2, SKIP>(a, b, out, i0, r, k, n),
        1 => gemm_rows::<V, 1, SKIP>(a, b, out, i0, r, k, n),
        _ => {}
    }
}

/// `R` output rows from local row `r0`, in column tiles of two vectors;
/// the last tile masks the columns past `n`.
#[inline(always)]
unsafe fn gemm_rows<V: Lane, const R: usize, const SKIP: bool>(
    a: Lhs<'_, V::E>,
    b: *const V::E,
    out: *mut V::E,
    i0: usize,
    r0: usize,
    k: usize,
    n: usize,
) {
    let step = 2 * V::W;
    let mut j = 0;
    while j + step <= n {
        gemm_tile::<V, R, SKIP, false>(a, b, out, i0, r0, j, k, n);
        j += step;
    }
    if j < n {
        gemm_tile::<V, R, SKIP, true>(a, b, out, i0, r0, j, k, n);
    }
}

/// One `R × 2W` output tile held in registers across all `k` terms.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn gemm_tile<V: Lane, const R: usize, const SKIP: bool, const MASKED: bool>(
    a: Lhs<'_, V::E>,
    b: *const V::E,
    out: *mut V::E,
    i0: usize,
    r0: usize,
    j: usize,
    k: usize,
    n: usize,
) {
    let m = valid_masks::<V, 2>(j, n);
    let mut acc = [[V::zero(); 2]; R];
    for r in 0..R {
        for c in 0..2 {
            let p = out.wrapping_add((r0 + r) * n + j + c * V::W);
            acc[r][c] = if MASKED {
                V::load_masked(p, m[c])
            } else {
                V::load(p)
            };
        }
    }
    for p in 0..k {
        let mut bv = [V::zero(); 2];
        for c in 0..2 {
            let q = b.wrapping_add(p * n + j + c * V::W);
            bv[c] = if MASKED {
                V::load_masked(q, m[c])
            } else {
                V::load(q)
            };
        }
        for r in 0..R {
            let av = *a
                .data
                .get_unchecked((i0 + r0 + r) * a.row_stride + p * a.col_stride);
            if SKIP && av == V::E::ZERO {
                continue;
            }
            let av = V::splat(av);
            for c in 0..2 {
                acc[r][c] = acc[r][c].add(av.mul(bv[c]));
            }
        }
    }
    for r in 0..R {
        for c in 0..2 {
            let p = out.wrapping_add((r0 + r) * n + j + c * V::W);
            if MASKED {
                acc[r][c].store_masked(p, m[c]);
            } else {
                acc[r][c].store(p);
            }
        }
    }
}

/// One convolution slab: tiles of 4 kernel rows × two vectors of output
/// slots, then 1–3 rows; slots past the last whole vector go through the
/// portable per-slot dot.
///
/// # Safety
/// AVX2; `x` points at `T`, `k` and `out` at `n·T` elements.
#[target_feature(enable = "avx2")]
unsafe fn conv<V: Lane>(x: *const V::E, k: *const V::E, out: *mut V::E, n: usize, t_len: usize) {
    let mut j = 0;
    while j + 4 <= n {
        conv_rows::<V, 4>(x, k, out, j, t_len);
        j += 4;
    }
    match n - j {
        3 => conv_rows::<V, 3>(x, k, out, j, t_len),
        2 => conv_rows::<V, 2>(x, k, out, j, t_len),
        1 => conv_rows::<V, 1>(x, k, out, j, t_len),
        _ => {}
    }
}

#[inline(always)]
unsafe fn conv_rows<V: Lane, const R: usize>(
    x: *const V::E,
    k: *const V::E,
    out: *mut V::E,
    j0: usize,
    t_len: usize,
) {
    let w = V::W;
    let mut t0 = 0;
    while t0 + 2 * w <= t_len {
        conv_tile::<V, R, 2>(x, k, out, j0, t0, t_len);
        t0 += 2 * w;
    }
    if t0 + w <= t_len {
        conv_tile::<V, R, 1>(x, k, out, j0, t0, t_len);
        t0 += w;
    }
    let xs = std::slice::from_raw_parts(x, t_len);
    for r in 0..R {
        let krow = std::slice::from_raw_parts(k.add((j0 + r) * t_len), t_len);
        for t in t0..t_len {
            let acc = V::E::dot_from(V::E::ZERO, &krow[t_len - 1 - t..], &xs[..=t]);
            *out.add((j0 + r) * t_len + t) = acc / V::E::from_f64((t + 1) as f64);
        }
    }
}

/// `R` kernel rows × `C` vectors of output slots from `t0`. Lanes run over
/// slots in *descending* order (lane `l` of vector `c` is slot
/// `t0 + cW + W−1−l`), so the taps one term needs across the lanes are
/// consecutive in memory: `k[j, T−W−t0−cW + s + l]`. Slot `t` sums
/// `s = 0..=t`; the terms with `s > t0` exist only in the lower lanes and
/// are masked there.
#[inline(always)]
unsafe fn conv_tile<V: Lane, const R: usize, const C: usize>(
    x: *const V::E,
    k: *const V::E,
    out: *mut V::E,
    j0: usize,
    t0: usize,
    t_len: usize,
) {
    let w = V::W;
    let mut acc = [[V::zero(); C]; R];
    let prefix = prefix_masks::<V>();
    // Vector c (slots tc = t0 + cW ..) takes term s in every lane while
    // s ≤ tc, in its lanes l < tc + W − s for the next W − 1 terms, then in
    // none. Each phase of the term range has a fixed pattern.
    let tile = (x, k, j0, t0, t_len, &prefix);
    if C == 1 {
        conv_phase::<V, R, C, FULL, NONE>(&mut acc, tile, 0..t0 + 1);
        conv_phase::<V, R, C, PART, NONE>(&mut acc, tile, t0 + 1..t0 + w);
    } else {
        conv_phase::<V, R, C, FULL, FULL>(&mut acc, tile, 0..t0 + 1);
        conv_phase::<V, R, C, PART, FULL>(&mut acc, tile, t0 + 1..t0 + w + 1);
        conv_phase::<V, R, C, NONE, PART>(&mut acc, tile, t0 + w + 1..t0 + 2 * w);
    }
    let mut div = [V::E::ZERO; 8];
    for c in 0..C {
        for (l, d) in div.iter_mut().take(w).enumerate() {
            *d = V::E::from_f64((t0 + c * w + w - l) as f64);
        }
        let d = V::load(div.as_ptr());
        for r in 0..R {
            acc[r][c]
                .div(d)
                .reverse()
                .store(out.add((j0 + r) * t_len + t0 + c * w));
        }
    }
}

/// The terms `ss` of a convolution tile, which vector 0 takes as `M0`
/// says and vector 1 (when `C = 2`) as `M1`.
#[inline(always)]
unsafe fn conv_phase<V: Lane, const R: usize, const C: usize, const M0: u8, const M1: u8>(
    acc: &mut [[V; C]; R],
    (x, k, j0, t0, t_len, prefix): Tile<'_, V>,
    ss: std::ops::Range<usize>,
) {
    let w = V::W;
    let modes = [M0, M1];
    for s in ss {
        let xs = V::splat(*x.add(s));
        let mut live = [prefix[0]; C];
        for c in 0..C {
            if modes[c] == PART {
                live[c] = prefix[t0 + c * w + w - s];
            }
        }
        for r in 0..R {
            let krow = k.add((j0 + r) * t_len);
            for c in 0..C {
                // Lane l's tap is k[j, T−W−tc + s + l].
                let taps = krow.add(t_len - w - t0 - c * w + s);
                if modes[c] == FULL {
                    acc[r][c] = acc[r][c].add(V::load(taps).mul(xs));
                } else if modes[c] == PART {
                    let term = V::load_masked(taps, live[c]).mul(xs);
                    acc[r][c] = V::select(live[c], acc[r][c].add(term), acc[r][c]);
                }
            }
        }
    }
}

/// `gs[j·T + t] = g[j·T + t] / (t+1)`: the scaled gradient both backward
/// kernels step through, the same IEEE quotient the portable loops take
/// per step, `W` slots per division.
///
/// # Safety
/// AVX2; `g` and `gs` point at `n·T` elements.
#[target_feature(enable = "avx2")]
unsafe fn scale_by_slot<V: Lane>(g: *const V::E, gs: *mut V::E, n: usize, t_len: usize) {
    let w = V::W;
    let whole = t_len - t_len % w;
    let mut first = [V::E::ZERO; 8];
    for (l, d) in first.iter_mut().take(w).enumerate() {
        *d = V::E::from_f64((l + 1) as f64);
    }
    let first = V::load(first.as_ptr());
    let step = V::splat(V::E::from_f64(w as f64));
    for j in 0..n {
        let (grow, srow) = (g.add(j * t_len), gs.add(j * t_len));
        let mut div = first;
        let mut t = 0;
        while t < whole {
            V::load(grow.add(t)).div(div).store(srow.add(t));
            div = div.add(step);
            t += w;
        }
        for t in whole..t_len {
            *srow.add(t) = *grow.add(t) / V::E::from_f64((t + 1) as f64);
        }
    }
}

/// One kernel-gradient slab: tiles of 4 rows × two vectors of taps, then
/// 1–3 rows; the last tile of a row masks the taps past `T`.
///
/// # Safety
/// AVX2; `xpad` points at `T + 3W` elements (x at offset `W`, zeros
/// around it), `gs` (the gradient scaled by [`scale_by_slot`]) and `gk`
/// at `n·T`.
#[target_feature(enable = "avx2")]
unsafe fn conv_backward_kernel<V: Lane>(
    xpad: *const V::E,
    g: *const V::E,
    gk: *mut V::E,
    n: usize,
    t_len: usize,
) {
    let mut j = 0;
    while j + 4 <= n {
        conv_backward_kernel_rows::<V, 4>(xpad, g, gk, j, t_len);
        j += 4;
    }
    match n - j {
        3 => conv_backward_kernel_rows::<V, 3>(xpad, g, gk, j, t_len),
        2 => conv_backward_kernel_rows::<V, 2>(xpad, g, gk, j, t_len),
        1 => conv_backward_kernel_rows::<V, 1>(xpad, g, gk, j, t_len),
        _ => {}
    }
}

#[inline(always)]
unsafe fn conv_backward_kernel_rows<V: Lane, const R: usize>(
    xpad: *const V::E,
    g: *const V::E,
    gk: *mut V::E,
    j0: usize,
    t_len: usize,
) {
    let mut u0 = 0;
    while u0 < t_len {
        conv_backward_kernel_tile::<V, R>(xpad, g, gk, j0, u0, t_len);
        u0 += 2 * V::W;
    }
}

/// `R` rows × two vectors of taps from `u0`. Tap `u` receives
/// `(g[j,t]/(t+1))·x[u + t − (T−1)]` for every `t ≥ T−1−u`, in ascending
/// `t`; across the lanes of one step the x values are consecutive, and the
/// lanes whose x index is still negative are blended out.
#[inline(always)]
unsafe fn conv_backward_kernel_tile<V: Lane, const R: usize>(
    xpad: *const V::E,
    g: *const V::E,
    gk: *mut V::E,
    j0: usize,
    u0: usize,
    t_len: usize,
) {
    let w = V::W;
    let valid = valid_masks::<V, 2>(u0, t_len);
    let mut acc = [[V::zero(); 2]; R];
    for r in 0..R {
        for c in 0..2 {
            acc[r][c] = V::load_masked(gk.wrapping_add((j0 + r) * t_len + u0 + c * w), valid[c]);
        }
    }
    let prefix = prefix_masks::<V>();
    // Lane l of vector c is tap u0 + cW + l, whose terms start at step
    // T−1−u: the vector's top lane joins at `join[c]`, its lane 0 at
    // `full[c]`, and vector 1 runs ahead of vector 0. Each phase of the
    // step range has a fixed pattern of live vectors.
    let full = [0, 1].map(|c| (t_len - 1).saturating_sub(u0 + c * w));
    let join = [0, 1].map(|c| (t_len - 1).saturating_sub(u0 + c * w + w - 1));
    let tile = (xpad, g, j0, u0, t_len, &prefix);
    kernel_grad_phase::<V, R, NONE, PART>(&mut acc, tile, join[1]..full[1]);
    kernel_grad_phase::<V, R, NONE, FULL>(&mut acc, tile, full[1]..join[0]);
    kernel_grad_phase::<V, R, PART, FULL>(&mut acc, tile, join[0]..full[0]);
    kernel_grad_phase::<V, R, FULL, FULL>(&mut acc, tile, full[0]..t_len);
    for r in 0..R {
        for c in 0..2 {
            acc[r][c].store_masked(gk.wrapping_add((j0 + r) * t_len + u0 + c * w), valid[c]);
        }
    }
}

/// The steps `ts` of a kernel-gradient tile, over which vector 0 takes
/// its terms as `M0` says and vector 1 as `M1`.
#[inline(always)]
unsafe fn kernel_grad_phase<V: Lane, const R: usize, const M0: u8, const M1: u8>(
    acc: &mut [[V; 2]; R],
    (xpad, g, j0, u0, t_len, prefix): Tile<'_, V>,
    ts: std::ops::Range<usize>,
) {
    let w = V::W;
    let modes = [M0, M1];
    for t in ts {
        let mut xv = [V::zero(); 2];
        let mut dead = [prefix[0]; 2];
        for c in 0..2 {
            if modes[c] != NONE {
                // x index u + t − (T−1) of lane 0, shifted by the padding;
                // the lanes below T−1−u0−cW−t are not live yet.
                xv[c] = V::load(xpad.add(u0 + c * w + t + w + 1 - t_len));
            }
            if modes[c] == PART {
                dead[c] = prefix[t_len - 1 - u0 - c * w - t];
            }
        }
        for r in 0..R {
            let gs = *g.add((j0 + r) * t_len + t);
            if gs == V::E::ZERO {
                continue;
            }
            let gs = V::splat(gs);
            for c in 0..2 {
                if modes[c] != NONE {
                    let sum = acc[r][c].add(gs.mul(xv[c]));
                    acc[r][c] = if modes[c] == FULL {
                        sum
                    } else {
                        V::select(dead[c], acc[r][c], sum)
                    };
                }
            }
        }
    }
}

/// One input-gradient row in tiles of four vectors of slots, each tile
/// held in registers across every `(j, t)` step.
///
/// # Safety
/// AVX2; `k` and `g` (the gradient scaled by [`scale_by_slot`]) point at
/// `n·T` elements, `gx` at `T`.
#[target_feature(enable = "avx2")]
unsafe fn conv_backward_x<V: Lane>(
    k: *const V::E,
    g: *const V::E,
    gx: *mut V::E,
    n: usize,
    t_len: usize,
) {
    const C: usize = 4;
    let w = V::W;
    let mut s0 = 0;
    while s0 < t_len {
        let valid = valid_masks::<V, C>(s0, t_len);
        let mut acc = [V::zero(); C];
        for c in 0..C {
            acc[c] = V::load_masked(gx.wrapping_add(s0 + c * w), valid[c]);
        }
        for j in 0..n {
            let grow = g.add(j * t_len);
            let krow = k.add(j * t_len);
            // Slot s only has terms t ≥ s.
            for t in s0..t_len {
                let gs = *grow.add(t);
                if gs == V::E::ZERO {
                    continue;
                }
                let gs = V::splat(gs);
                // Lane l of vector c is slot s0 + cW + l; its tap is
                // k[j, T−1−t + s].
                let taps = krow.add(t_len - 1 - t + s0);
                for c in 0..C {
                    let live = (t + 1).saturating_sub(s0 + c * w);
                    if live == 0 {
                        break;
                    }
                    if live >= w {
                        acc[c] = acc[c].add(gs.mul(V::load(taps.add(c * w))));
                    } else {
                        let m = V::mask(0, live as isize);
                        let sum = acc[c].add(gs.mul(V::load_masked(taps.add(c * w), m)));
                        acc[c] = V::select(m, sum, acc[c]);
                    }
                }
            }
        }
        for c in 0..C {
            acc[c].store_masked(gx.wrapping_add(s0 + c * w), valid[c]);
        }
        s0 += C * w;
    }
}

/// `out[i,·] += Σ_j attn[i,j]·v[j,i,·]` in tiles of four vectors of slots.
///
/// # Safety
/// AVX2; `attn` points at `n·n`, `v` at `n·n·T`, `out` at `n·T` elements.
#[target_feature(enable = "avx2")]
unsafe fn attn_apply<V: Lane>(
    attn: *const V::E,
    v: *const V::E,
    out: *mut V::E,
    n: usize,
    t_len: usize,
) {
    const C: usize = 4;
    let w = V::W;
    for i in 0..n {
        let orow = out.add(i * t_len);
        let mut t0 = 0;
        while t0 < t_len {
            let valid = valid_masks::<V, C>(t0, t_len);
            let mut acc = [V::zero(); C];
            for c in 0..C {
                acc[c] = V::load_masked(orow.wrapping_add(t0 + c * w), valid[c]);
            }
            for j in 0..n {
                let a = *attn.add(i * n + j);
                if a == V::E::ZERO {
                    continue;
                }
                let a = V::splat(a);
                let vrow = v.add((j * n + i) * t_len);
                for c in 0..C {
                    let vv = V::load_masked(vrow.wrapping_add(t0 + c * w), valid[c]);
                    acc[c] = acc[c].add(a.mul(vv));
                }
            }
            for c in 0..C {
                acc[c].store_masked(orow.wrapping_add(t0 + c * w), valid[c]);
            }
            t0 += C * w;
        }
    }
}

/// `ga[i,j] = 0 + Σ_t v[j,i,t]·g[i,t]` in f64 `dot_from`'s sequential
/// order (f32 sums in eight partials: [`attn_backward_attn_f32`]). Lanes
/// run over four `j` at a time: four value rows `v[j..j+4, i, t..t+4]` are
/// loaded and transposed in registers, so each step `t` adds one vector of
/// four cells. The `j` that do not fill a group of four take the
/// sequential dot.
///
/// # Safety
/// AVX2; `v` points at `n·n·T`, `g` at `n·T`, `ga` at `n·n` elements.
#[target_feature(enable = "avx2")]
unsafe fn attn_backward_attn(v: *const f64, g: *const f64, ga: *mut f64, n: usize, t_len: usize) {
    let whole = t_len - t_len % 4;
    for i in 0..n {
        let grow = g.add(i * t_len);
        let mut j0 = 0;
        while j0 + 4 <= n {
            let rows = [0, 1, 2, 3].map(|q| v.add(((j0 + q) * n + i) * t_len));
            let mut acc = _mm256_setzero_pd();
            let mut t = 0;
            while t < whole {
                let r = rows.map(|row| _mm256_loadu_pd(row.add(t)));
                let lo01 = _mm256_unpacklo_pd(r[0], r[1]);
                let hi01 = _mm256_unpackhi_pd(r[0], r[1]);
                let lo23 = _mm256_unpacklo_pd(r[2], r[3]);
                let hi23 = _mm256_unpackhi_pd(r[2], r[3]);
                let cols = [
                    _mm256_permute2f128_pd::<0x20>(lo01, lo23),
                    _mm256_permute2f128_pd::<0x20>(hi01, hi23),
                    _mm256_permute2f128_pd::<0x31>(lo01, lo23),
                    _mm256_permute2f128_pd::<0x31>(hi01, hi23),
                ];
                for (d, col) in cols.into_iter().enumerate() {
                    let gt = _mm256_set1_pd(*grow.add(t + d));
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(col, gt));
                }
                t += 4;
            }
            for t in whole..t_len {
                let col = _mm256_setr_pd(
                    *rows[0].add(t),
                    *rows[1].add(t),
                    *rows[2].add(t),
                    *rows[3].add(t),
                );
                acc = _mm256_add_pd(acc, _mm256_mul_pd(col, _mm256_set1_pd(*grow.add(t))));
            }
            _mm256_storeu_pd(ga.add(i * n + j0), acc);
            j0 += 4;
        }
        let grow = std::slice::from_raw_parts(grow, t_len);
        for j in j0..n {
            let vrow = std::slice::from_raw_parts(v.add((j * n + i) * t_len), t_len);
            *ga.add(i * n + j) = f64::dot_from(0.0, vrow, grow);
        }
    }
}

/// `gv[j,i,·] += attn[i,j]·g[i,·]`: one term per cell, vectorised over `t`.
///
/// # Safety
/// AVX2; `attn` points at `n·n`, `g` at `n·T`, `gv` at `n·n·T` elements.
#[target_feature(enable = "avx2")]
unsafe fn attn_backward_v<V: Lane>(
    attn: *const V::E,
    g: *const V::E,
    gv: *mut V::E,
    n: usize,
    t_len: usize,
) {
    let w = V::W;
    let tail = V::mask(0, (t_len % w) as isize);
    let whole = t_len - t_len % w;
    for i in 0..n {
        let grow = g.add(i * t_len);
        for j in 0..n {
            let a = V::splat(*attn.add(i * n + j));
            let orow = gv.add((j * n + i) * t_len);
            let mut t = 0;
            while t < whole {
                let o = V::load(orow.add(t));
                o.add(a.mul(V::load(grow.add(t)))).store(orow.add(t));
                t += w;
            }
            if whole < t_len {
                let o = V::load_masked(orow.add(whole), tail);
                let term = a.mul(V::load_masked(grow.add(whole), tail));
                o.add(term).store_masked(orow.add(whole), tail);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// f32 kernels in `dot_from` order.
// ---------------------------------------------------------------------------

/// `f32::dot_from`'s reduction for 8 cells at once: `acc` plus the eight
/// partial sums `p` (partial `l` holds terms `l, l+8, l+16, …`, each added
/// in ascending order from `0.0`) combined as
/// `acc + ((p0+p4)+(p1+p5)) + ((p2+p6)+(p3+p7))`, then the `tail` (the
/// terms past the last whole chunk, summed in order from `0.0`). `acc` is
/// added even when it is zero, as `dot_from` does: `0.0 + −0.0` is `+0.0`.
#[inline(always)]
unsafe fn dot8_reduce(acc: __m256, p: &[__m256; 8], tail: __m256) -> __m256 {
    let head = _mm256_add_ps(_mm256_add_ps(p[0], p[4]), _mm256_add_ps(p[1], p[5]));
    let rest = _mm256_add_ps(_mm256_add_ps(p[2], p[6]), _mm256_add_ps(p[3], p[7]));
    _mm256_add_ps(_mm256_add_ps(acc, _mm256_add_ps(head, rest)), tail)
}

/// `out[c][r] = rows[r][c]`: an 8×8 transpose in registers.
#[inline(always)]
unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ]
}

/// Eight row segments `base + r·stride + col ..` of `len` elements (at
/// most 8; the rest of each lane zero), for the rows `r < rows`; rows past
/// `rows` read as zero.
#[inline(always)]
unsafe fn load_rows8(
    base: *const f32,
    stride: usize,
    col: usize,
    len: usize,
    rows: usize,
) -> [__m256; 8] {
    let m = F32x8::mask(0, len as isize);
    let mut r = [_mm256_setzero_ps(); 8];
    for (q, rq) in r.iter_mut().enumerate().take(rows) {
        *rq = _mm256_maskload_ps(base.add(q * stride + col), m);
    }
    r
}

/// One f32 `dot_from` over `len` terms for 8 cells: term `s` of lane `c`
/// is `lhs(s)[c] · rhs(s)`. Returns the 8 partial sums and the tail.
#[inline(always)]
unsafe fn dot8_terms(
    len: usize,
    lhs: impl Fn(usize) -> __m256,
    rhs: impl Fn(usize) -> __m256,
) -> ([__m256; 8], __m256) {
    let whole = len / 8 * 8;
    let mut p = [_mm256_setzero_ps(); 8];
    let mut s = 0;
    while s < whole {
        for (l, pl) in p.iter_mut().enumerate() {
            *pl = _mm256_add_ps(*pl, _mm256_mul_ps(lhs(s + l), rhs(s + l)));
        }
        s += 8;
    }
    let mut tail = _mm256_setzero_ps();
    for s in whole..len {
        tail = _mm256_add_ps(tail, _mm256_mul_ps(lhs(s), rhs(s)));
    }
    (p, tail)
}

/// `out[i−i0, j] += a[i,·]·b[j,·]` in `dot_from`'s panels of `PB` terms,
/// lanes over 8 columns `j`: term `p` of the 8 cells is `a[i,p]` times
/// row `p` of the packed `bᵀ`.
///
/// # Safety
/// AVX2; `a` covers rows `i0 .. i0 + rows` × `k`, `bt` points at
/// `k·⌈n/8⌉·8` elements (bᵀ, zero-padded rows), `out` at `rows·n`.
#[target_feature(enable = "avx2")]
unsafe fn gemm_nt_f32(
    a: *const f32,
    bt: *const f32,
    out: *mut f32,
    i0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    // The panel length of `portable_impl::gemm_nt`: each panel restarts
    // `dot_from`'s partial sums from the cell's running value.
    const PB: usize = 256;
    let np = n.next_multiple_of(8);
    for di in 0..rows {
        let arow = a.add((i0 + di) * k);
        let orow = out.add(di * n);
        for j0 in (0..n).step_by(8) {
            let valid = F32x8::mask(0, (n - j0) as isize);
            let mut acc = _mm256_maskload_ps(orow.add(j0), valid);
            for pb in (0..k).step_by(PB) {
                let len = PB.min(k - pb);
                let (p, tail) = dot8_terms(
                    len,
                    |s| _mm256_loadu_ps(bt.add((pb + s) * np + j0)),
                    |s| _mm256_broadcast_ss(&*arow.add(pb + s)),
                );
                acc = dot8_reduce(acc, &p, tail);
            }
            _mm256_maskstore_ps(orow.add(j0), valid, acc);
        }
    }
}

/// One f32 convolution slab, lanes over 8 kernel rows. Each tile of rows
/// is transposed into `kt` (tap `u` of the 8 rows as one vector), so slot
/// `t`'s `dot_from` over taps `T−1−t ..` against `x[..=t]` runs as one
/// 8-cell sum per term. The results of 8 consecutive slots are
/// transposed back in registers and stored row by row.
///
/// # Safety
/// AVX2; `x` points at `T`, `k` and `out` at `n·T` elements, `kt` at
/// `⌈T/8⌉·8·8`.
#[target_feature(enable = "avx2")]
unsafe fn conv_f32(
    x: *const f32,
    k: *const f32,
    out: *mut f32,
    kt: *mut f32,
    n: usize,
    t_len: usize,
) {
    for j0 in (0..n).step_by(8) {
        let rows = (n - j0).min(8);
        let krows = k.add(j0 * t_len);
        for u0 in (0..t_len).step_by(8) {
            let cols = transpose8(load_rows8(krows, t_len, u0, t_len - u0, rows));
            for (l, col) in cols.iter().enumerate() {
                _mm256_storeu_ps(kt.add((u0 + l) * 8), *col);
            }
        }
        let mut slots = [_mm256_setzero_ps(); 8];
        for t in 0..t_len {
            let taps = kt.add((t_len - 1 - t) * 8);
            let (p, tail) = dot8_terms(
                t + 1,
                |s| _mm256_loadu_ps(taps.add(s * 8)),
                |s| _mm256_broadcast_ss(&*x.add(s)),
            );
            let sum = dot8_reduce(_mm256_setzero_ps(), &p, tail);
            slots[t % 8] = _mm256_div_ps(sum, _mm256_set1_ps((t + 1) as f32));
            if t % 8 == 7 || t + 1 == t_len {
                let t0 = t - t % 8;
                let m = F32x8::mask(0, (t_len - t0) as isize);
                for (r, row) in transpose8(slots).iter().enumerate().take(rows) {
                    _mm256_maskstore_ps(out.add((j0 + r) * t_len + t0), m, *row);
                }
            }
        }
    }
}

/// `ga[i,j] = 0 + Σ_t v[j,i,t]·g[i,t]` in `dot_from` order, lanes over 8
/// `j`: each chunk of 8 steps loads the 8 value rows and transposes them
/// in registers, so step `t` of the 8 cells is one vector.
///
/// # Safety
/// AVX2; `v` points at `n·n·T`, `g` at `n·T`, `ga` at `n·n` elements.
#[target_feature(enable = "avx2")]
unsafe fn attn_backward_attn_f32(
    v: *const f32,
    g: *const f32,
    ga: *mut f32,
    n: usize,
    t_len: usize,
) {
    let whole = t_len / 8 * 8;
    for i in 0..n {
        let grow = g.add(i * t_len);
        for j0 in (0..n).step_by(8) {
            let rows = (n - j0).min(8);
            // Row q of the tile is v[j0+q, i, ·].
            let base = v.add((j0 * n + i) * t_len);
            let stride = n * t_len;
            let mut p = [_mm256_setzero_ps(); 8];
            for t0 in (0..whole).step_by(8) {
                let cols = transpose8(load_rows8(base, stride, t0, 8, rows));
                for (l, (pl, col)) in p.iter_mut().zip(cols).enumerate() {
                    let gt = _mm256_broadcast_ss(&*grow.add(t0 + l));
                    *pl = _mm256_add_ps(*pl, _mm256_mul_ps(col, gt));
                }
            }
            let mut tail = _mm256_setzero_ps();
            if whole < t_len {
                let cols = transpose8(load_rows8(base, stride, whole, t_len - whole, rows));
                for (l, col) in cols.iter().enumerate().take(t_len - whole) {
                    let gt = _mm256_broadcast_ss(&*grow.add(whole + l));
                    tail = _mm256_add_ps(tail, _mm256_mul_ps(*col, gt));
                }
            }
            let sum = dot8_reduce(_mm256_setzero_ps(), &p, tail);
            let valid = F32x8::mask(0, rows as isize);
            _mm256_maskstore_ps(ga.add(i * n + j0), valid, sum);
        }
    }
}
