//! The portable kernels: plain slice loops for any CPU, and the reference
//! the AVX2 kernels are tested against. See [`super::Kernels`] for what
//! each one computes.

use super::Lhs;
use crate::scalar::Scalar;

pub(super) fn gemm<E: Scalar>(
    a: Lhs<'_, E>,
    b: &[E],
    out: &mut [E],
    i0: usize,
    k: usize,
    n: usize,
) {
    // ikj loop order: the inner loop runs over contiguous memory in both
    // `b` and `out`, which LLVM vectorises.
    for (di, orow) in out.chunks_mut(n).enumerate() {
        let i = i0 + di;
        for p in 0..k {
            let av = a.at(i, p);
            // Zero-skip: the group-lasso penalty and proximal shrinkage
            // drive many weights *exactly* to 0, and causal masks zero
            // whole bands — skipping dodges a full length-n multiply-add
            // row per zero. For finite operands this never changes the
            // result (adding a ±0.0 term is the identity under IEEE ==).
            if av == E::ZERO {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for j in 0..n {
                orow[j] += av * brow[j];
            }
        }
    }
}

pub(super) fn gemm_nt<E: Scalar>(a: &[E], b: &[E], out: &mut [E], i0: usize, k: usize, n: usize) {
    // Block sizes: JB rows of `b` (JB·PB elements ≈ 128 KiB of f64, 64 KiB
    // of f32) stay resident while a band of `a` rows streams against them.
    const JB: usize = 64;
    const PB: usize = 256;
    let rows = out.len() / n;
    for jb in (0..n).step_by(JB) {
        let jhi = (jb + JB).min(n);
        for pb in (0..k).step_by(PB) {
            let phi = (pb + PB).min(k);
            for di in 0..rows {
                let arow = &a[(i0 + di) * k + pb..(i0 + di) * k + phi];
                let orow = &mut out[di * n..(di + 1) * n];
                for j in jb..jhi {
                    let brow = &b[j * k + pb..j * k + phi];
                    orow[j] = E::dot_from(orow[j], arow, brow);
                }
            }
        }
    }
}

pub(super) fn conv<E: Scalar>(xi: &[E], kslab: &[E], oslab: &mut [E], t_len: usize) {
    for (krow, orow) in kslab.chunks(t_len).zip(oslab.chunks_mut(t_len)) {
        for t in 0..t_len {
            // s ranges over the observed prefix [0, t]; the matching kernel
            // taps are u = T−1−t .. T−1, a contiguous suffix — one
            // microkernel dot per output slot.
            let acc = E::dot_from(E::ZERO, &krow[t_len - 1 - t..], &xi[..=t]);
            orow[t] = acc / E::from_f64((t + 1) as f64);
        }
    }
}

pub(super) fn conv_backward_kernel<E: Scalar>(
    xi: &[E],
    gslab: &[E],
    gkslab: &mut [E],
    t_len: usize,
) {
    for (grow, gkrow) in gslab.chunks(t_len).zip(gkslab.chunks_mut(t_len)) {
        for t in 0..t_len {
            let g = grow[t] / E::from_f64((t + 1) as f64);
            if g == E::ZERO {
                continue;
            }
            // Taps u = T−1−t .. T−1 receive g · x[0..=t]: a contiguous
            // axpy panel.
            let panel = &mut gkrow[t_len - 1 - t..];
            for (gk, &xv) in panel.iter_mut().zip(&xi[..=t]) {
                *gk += g * xv;
            }
        }
    }
}

pub(super) fn conv_backward_x<E: Scalar>(kslab: &[E], gslab: &[E], gxrow: &mut [E], t_len: usize) {
    for (grow, krow) in gslab.chunks(t_len).zip(kslab.chunks(t_len)) {
        for t in 0..t_len {
            let g = grow[t] / E::from_f64((t + 1) as f64);
            if g == E::ZERO {
                continue;
            }
            // x[0..=t] receives g · taps[T−1−t..]: the transpose panel of
            // the kernel-gradient axpy above.
            let taps = &krow[t_len - 1 - t..];
            for (gx, &kv) in gxrow[..=t].iter_mut().zip(taps) {
                *gx += g * kv;
            }
        }
    }
}

pub(super) fn attn_apply<E: Scalar>(
    adata: &[E],
    vdata: &[E],
    odata: &mut [E],
    n: usize,
    t_len: usize,
) {
    for i in 0..n {
        let orow = &mut odata[i * t_len..(i + 1) * t_len];
        for j in 0..n {
            let a = adata[i * n + j];
            if a == E::ZERO {
                continue;
            }
            let vrow = &vdata[(j * n + i) * t_len..(j * n + i + 1) * t_len];
            for (o, &vv) in orow.iter_mut().zip(vrow) {
                *o += a * vv;
            }
        }
    }
}

pub(super) fn attn_backward_attn<E: Scalar>(
    vdata: &[E],
    gdata: &[E],
    ga: &mut [E],
    n: usize,
    t_len: usize,
) {
    for i in 0..n {
        let grow = &gdata[i * t_len..(i + 1) * t_len];
        for j in 0..n {
            let vrow = &vdata[(j * n + i) * t_len..(j * n + i + 1) * t_len];
            ga[i * n + j] = E::dot_from(E::ZERO, vrow, grow);
        }
    }
}

pub(super) fn attn_backward_v<E: Scalar>(
    adata: &[E],
    gdata: &[E],
    gv: &mut [E],
    n: usize,
    t_len: usize,
) {
    for i in 0..n {
        let grow = &gdata[i * t_len..(i + 1) * t_len];
        for j in 0..n {
            let a = adata[i * n + j];
            let gvrow = &mut gv[(j * n + i) * t_len..(j * n + i + 1) * t_len];
            for (o, &g) in gvrow.iter_mut().zip(grow) {
                *o += a * g;
            }
        }
    }
}
