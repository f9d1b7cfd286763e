//! The dense compute kernels behind the tensor and tape ops, and the
//! run-time choice between their two implementations.
//!
//! Every kernel that dominates a training step — the three matmul forms,
//! the causal convolution (Eq. 3) with its two backward kernels, and the
//! attention application (Eq. 6) with its two backward kernels — exists
//! twice:
//!
//! * [`portable`] — plain slice loops, compiled for the build's baseline
//!   target. They run on every CPU and architecture and are the reference
//!   the other implementation is tested against.
//! * [`avx2`] — register-tiled `std::arch` kernels for x86-64 CPUs with
//!   AVX2, chosen once per process with `is_x86_feature_detected!`.
//!   Nothing else selects them: no flag, variable or build feature.
//!
//! [`Scalar::kernels`] hands out the chosen table per element type; the
//! ops in `tensor.rs` and `ops.rs` keep their shape checks and their
//! row/slab fan-out and call the table for the arithmetic.
//!
//! # Bitwise contract
//!
//! The AVX2 kernels run their SIMD lanes over *independent output cells*,
//! never over the terms of one sum. Each cell keeps the start value, term
//! order and zero-skip of the portable loop, and every term is a separate
//! multiply then add (no fused multiply-add), so every result, f64 and
//! f32, is bitwise equal to the portable one. For the f32 kernels built on
//! the 8-lane [`Scalar::dot_from`] (the `matmul_nt` panels, the
//! convolution forward and the attention-matrix gradient) each cell keeps
//! `dot_from`'s 8 partial sums — term `p` into partial `p mod 8`, the
//! terms past the last whole chunk into a sequential tail — and reduces
//! them in its order, `acc + ((p0+p4)+(p1+p5)) + ((p2+p6)+(p3+p7)) +
//! tail`. The speed-up comes from keeping a tile of output cells in
//! registers across the whole reduction, which turns one dependent add
//! chain (or one load-add-store per term) into several independent
//! chains.

use crate::scalar::Scalar;

#[cfg(target_arch = "x86_64")]
mod avx2_impl;
mod portable_impl;
#[cfg(test)]
mod tests;

/// A read-only matrix operand addressed through strides: element `(i, p)`
/// sits at `data[i * row_stride + p * col_stride]`. `matmul` passes a
/// row-major `m×k` matrix (`k`, `1`), `matmul_tn` a transposed one
/// (`1`, `m`).
#[derive(Debug, Clone, Copy)]
pub struct Lhs<'a, E> {
    /// The backing buffer.
    pub data: &'a [E],
    /// Distance between consecutive rows `i`.
    pub row_stride: usize,
    /// Distance between consecutive columns `p`.
    pub col_stride: usize,
}

impl<E: Copy> Lhs<'_, E> {
    /// Element `(i, p)`.
    #[inline(always)]
    pub fn at(&self, i: usize, p: usize) -> E {
        self.data[i * self.row_stride + p * self.col_stride]
    }
}

/// The signature of [`Kernels::gemm`].
pub type GemmFn<E> = fn(Lhs<'_, E>, &[E], &mut [E], usize, usize, usize);

/// The signature of [`Kernels::gemm_nt`].
pub type GemmNtFn<E> = fn(&[E], &[E], &mut [E], usize, usize, usize);

/// One implementation of every dense kernel, for element type `E`.
///
/// Band kernels (`gemm`, `gemm_nt`) compute output rows `i0 ..` of a
/// row-major `out` whose row length is `n`; slab kernels take the
/// per-series slices the convolution fans out over. Every kernel adds into
/// `out` (`+=`) except [`Kernels::conv`] and [`Kernels::attn_backward_attn`],
/// which overwrite each output cell.
#[derive(Clone, Copy)]
pub struct Kernels<E: 'static> {
    /// `"portable"` or `"avx2"`.
    pub name: &'static str,
    /// `out[i−i0, j] += Σ_p a(i,p)·b[p·n + j]` over `p` ascending, skipping
    /// terms whose `a(i,p)` is zero. Arguments: `a`, `b`, `out`, `i0`, `k`,
    /// `n`.
    pub gemm: GemmFn<E>,
    /// `out[i−i0, j] += a[i,·]·b[j,·]` for row-major `a` (`·×k`) and `b`
    /// (`n×k`), accumulated through [`Scalar::dot_from`] in `p` panels.
    /// Arguments: `a`, `b`, `out`, `i0`, `k`, `n`.
    pub gemm_nt: GemmNtFn<E>,
    /// One convolution slab: `out[j,t] = (Σ_{s≤t} k[j, T−1−t+s]·x[s]) / (t+1)`.
    /// Arguments: `x` row (`T`), kernel slab (`n×T`), output slab, `T`.
    pub conv: fn(&[E], &[E], &mut [E], usize),
    /// One kernel-gradient slab: `gk[j, T−1−t+s] += (g[j,t]/(t+1))·x[s]`
    /// over `t` ascending, skipping zero `g[j,t]/(t+1)`. Arguments: `x` row,
    /// upstream gradient slab, kernel-gradient slab, `T`.
    pub conv_backward_kernel: fn(&[E], &[E], &mut [E], usize),
    /// One input-gradient row: `gx[s] += (g[j,t]/(t+1))·k[j, T−1−t+s]` over
    /// `j`, then `t`, ascending, skipping zero scaled gradients. Arguments:
    /// kernel slab, upstream gradient slab, input-gradient row, `T`.
    pub conv_backward_x: fn(&[E], &[E], &mut [E], usize),
    /// `out[i,t] += Σ_j attn[i,j]·v[j,i,t]`, skipping zero `attn[i,j]`.
    /// Arguments: `attn` (`n×n`), `v` (`n×n×T`), `out` (`n×T`), `n`, `T`.
    pub attn_apply: fn(&[E], &[E], &mut [E], usize, usize),
    /// `ga[i,j] = Σ_t v[j,i,t]·g[i,t]` through [`Scalar::dot_from`].
    /// Arguments: `v`, `g` (`n×T`), `ga` (`n×n`), `n`, `T`.
    pub attn_backward_attn: fn(&[E], &[E], &mut [E], usize, usize),
    /// `gv[j,i,t] += attn[i,j]·g[i,t]`. Arguments: `attn`, `g`, `gv`, `n`,
    /// `T`.
    pub attn_backward_v: fn(&[E], &[E], &mut [E], usize, usize),
}

impl<E> std::fmt::Debug for Kernels<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels").field("name", &self.name).finish()
    }
}

/// The portable kernels for `E`.
pub fn portable<E: Scalar>() -> Kernels<E> {
    Kernels {
        name: "portable",
        gemm: portable_impl::gemm,
        gemm_nt: portable_impl::gemm_nt,
        conv: portable_impl::conv,
        conv_backward_kernel: portable_impl::conv_backward_kernel,
        conv_backward_x: portable_impl::conv_backward_x,
        attn_apply: portable_impl::attn_apply,
        attn_backward_attn: portable_impl::attn_backward_attn,
        attn_backward_v: portable_impl::attn_backward_v,
    }
}

/// The AVX2 kernels for `E`, or `None` when this CPU (or architecture)
/// lacks AVX2.
pub fn avx2<E: Scalar>() -> Option<Kernels<E>> {
    E::avx2_kernels()
}

/// The kernels [`Scalar::kernels`] settles on: AVX2 where the CPU has it,
/// the portable ones elsewhere.
pub(crate) fn select<E: Scalar>() -> Kernels<E> {
    avx2::<E>().unwrap_or_else(portable::<E>)
}

/// The AVX2 table for f64, when the CPU supports it.
pub(crate) fn avx2_f64() -> Option<Kernels<f64>> {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_impl::f64_table()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// The AVX2 table for f32, when the CPU supports it.
pub(crate) fn avx2_f32() -> Option<Kernels<f32>> {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_impl::f32_table()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}
