//! Element-type abstraction: the sealed [`Scalar`] trait and the [`Dtype`]
//! runtime selector.
//!
//! Every numeric container in this crate — [`TensorBase`], the autodiff
//! [`TapeBase`](crate::tape::TapeBase), the size-class buffer pool — is
//! generic over an element type `E: Scalar`, with `f32` and `f64` as the
//! only implementations (the trait is sealed so kernels can rely on this
//! closed set). Public type aliases (`Tensor = TensorBase<f64>`, …) keep the
//! historical f64 API unchanged.
//!
//! Two policies live here rather than in the kernels:
//!
//! * **Accumulation-order policy** ([`Scalar::dot_from`]): contiguous dot
//!   products are the inner loop of `matmul_nt` and the causal convolution.
//!   The `f64` implementation accumulates strictly in ascending index order
//!   — that ordering is part of the crate's bitwise-reproducibility contract
//!   (pool on/off, any thread count, and across refactors). The `f32`
//!   implementation uses eight independent accumulator lanes, which LLVM
//!   maps onto SIMD registers and which doubles throughput again on top of
//!   the 2× vector-width win of f32 itself. Its reduction order is pinned
//!   too: the AVX2 kernels reproduce it cell by cell, and
//!   `crates/core/tests/f32_golden.rs` pins the bits of an f32 discovery.
//! * **Storage policy**: Rust thread-locals cannot be generic, so each
//!   dtype owns its statics (buffer-pool free lists, tape pool, gradient
//!   scratch) and exposes them through the `#[doc(hidden)]` hooks below.
//!   The pool and tape code is written once, generically, against the hooks.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};

use crate::kernels::{self, Kernels};
use crate::pool::{ThreadPool, NUM_CLASSES};
use crate::tape::TapeBase;
use crate::tensor::TensorBase;

/// Runtime element-type selector, threaded from the CLI/`TrainConfig` down
/// to the generic compute path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dtype {
    /// IEEE-754 single precision: 2× memory bandwidth and SIMD width; its
    /// results are held to f64's within a tolerance, and its own bits are
    /// pinned.
    F32,
    /// IEEE-754 double precision — the default, bitwise-reproducible path.
    #[default]
    F64,
}

impl Dtype {
    /// Size of one element in bytes.
    pub fn size_of(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }

    /// The canonical lowercase name (`"f32"` / `"f64"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Dtype {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Dtype::F32),
            "f64" => Ok(Dtype::F64),
            other => Err(format!("unknown dtype {other:?} (expected f32 or f64)")),
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// A tensor element type: `f32` or `f64` (sealed).
///
/// Scalar entry points on tensors keep `f64` signatures (`item`, `at`,
/// `set2`, `scale`, …) and convert at the boundary via
/// [`Scalar::from_f64`]/[`Scalar::to_f64`]; for `E = f64` both are the
/// identity, which is what keeps the legacy `Tensor` API bitwise unchanged.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + std::fmt::Debug
    + std::fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + std::ops::DivAssign
    + 'static
{
    /// The matching runtime selector.
    const DTYPE: Dtype;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// `-∞`, the fold seed for max-reductions.
    const NEG_INFINITY: Self;
    /// `+∞`, the fold seed for min-reductions.
    const INFINITY: Self;
    /// Backward-pass gradient scale (loss scaling): the trainer seeds
    /// backpropagation with this value and folds `1/GRAD_SCALE` into the
    /// batch-averaging factor, so optimizer-visible gradients are
    /// unchanged. `1.0` for `f64` (dividing by it is an exact identity,
    /// preserving the bitwise contract). `2^32` for `f32`: true gradients
    /// routinely reach `1e-20`, and backward-kernel products of such a
    /// gradient with a small activation land in the `f32` subnormal range
    /// (`< 1.2e-38`), where x86 multiplies fall off the fast path by ~2
    /// orders of magnitude — measured as the *backward* pass running 2–3×
    /// slower than f64. Pre-scaling by an exact power of two shifts those
    /// products back into normal range without changing any mantissa.
    const GRAD_SCALE: f64;

    /// Converts from `f64`, rounding to nearest for `f32`.
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact for both element types).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Sign of the value (`±1.0`, propagating NaN) — matches `f64::signum`.
    fn signum(self) -> Self;
    /// IEEE maximum (NaN-propagation matches `f64::max`).
    fn max(self, other: Self) -> Self;
    /// IEEE minimum.
    fn min(self, other: Self) -> Self;
    /// `true` iff neither NaN nor ±∞.
    fn is_finite(self) -> bool;

    /// `acc + Σ a[i]·b[i]` over `min(a.len(), b.len())` terms — the shared
    /// inner microkernel of `matmul_nt` and the causal convolution.
    ///
    /// Accumulation order is a per-dtype policy, not an implementation
    /// detail: `f64` adds terms one at a time in ascending index order
    /// starting from `acc` (bitwise-pinned), `f32` uses a multi-lane
    /// register tile (tolerance-pinned). See the module docs.
    fn dot_from(acc: Self, a: &[Self], b: &[Self]) -> Self;

    /// The dense kernels every tensor and tape op of this dtype runs on,
    /// chosen once per process: the AVX2 ones where the CPU has AVX2, the
    /// portable ones elsewhere (see [`crate::kernels`]).
    fn kernels() -> &'static Kernels<Self>;

    /// This dtype's AVX2 kernels, or `None` without AVX2; what
    /// [`crate::kernels::avx2`] returns.
    fn avx2_kernels() -> Option<Kernels<Self>>;

    #[doc(hidden)]
    fn with_pool<R>(f: impl FnOnce(&ThreadPool<Self>) -> R) -> R;
    #[doc(hidden)]
    fn global_pool() -> &'static Mutex<Vec<Vec<Vec<Self>>>>;
    #[doc(hidden)]
    fn with_tape_pool<R>(f: impl FnOnce(&RefCell<Vec<TapeBase<Self>>>) -> R) -> R;
    #[doc(hidden)]
    fn with_grad_scratch<R>(f: impl FnOnce(&RefCell<ScratchStack<Self>>) -> R) -> R;
}

/// Parked gradient-scratch vectors (see `tape::GradientsBase`); exposed only
/// through the [`Scalar`] storage hooks.
pub type ScratchStack<E> = Vec<Vec<Option<TensorBase<E>>>>;

thread_local! {
    static POOL_F64: ThreadPool<f64> = ThreadPool::new();
    static POOL_F32: ThreadPool<f32> = ThreadPool::new();
    static TAPES_F64: RefCell<Vec<TapeBase<f64>>> = const { RefCell::new(Vec::new()) };
    static TAPES_F32: RefCell<Vec<TapeBase<f32>>> = const { RefCell::new(Vec::new()) };
    static SCRATCH_F64: RefCell<ScratchStack<f64>> = const { RefCell::new(Vec::new()) };
    static SCRATCH_F32: RefCell<ScratchStack<f32>> = const { RefCell::new(Vec::new()) };
}

fn empty_classes<E>() -> Mutex<Vec<Vec<Vec<E>>>> {
    Mutex::new((0..NUM_CLASSES).map(|_| Vec::new()).collect())
}

impl Scalar for f64 {
    const DTYPE: Dtype = Dtype::F64;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const INFINITY: Self = f64::INFINITY;
    const GRAD_SCALE: f64 = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }
    #[inline(always)]
    fn signum(self) -> Self {
        f64::signum(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline]
    fn dot_from(mut acc: Self, a: &[Self], b: &[Self]) -> Self {
        // Strictly sequential ascending-index accumulation: every f64 kernel
        // result is bitwise-pinned against the serial reference, so the
        // order here must never change (a multi-lane reduction would
        // re-associate the sum).
        let n = a.len().min(b.len());
        for (&x, &y) in a[..n].iter().zip(&b[..n]) {
            acc += x * y;
        }
        acc
    }

    fn kernels() -> &'static Kernels<Self> {
        static K: OnceLock<Kernels<f64>> = OnceLock::new();
        K.get_or_init(kernels::select)
    }
    fn avx2_kernels() -> Option<Kernels<Self>> {
        kernels::avx2_f64()
    }

    fn with_pool<R>(f: impl FnOnce(&ThreadPool<Self>) -> R) -> R {
        POOL_F64.with(f)
    }
    fn global_pool() -> &'static Mutex<Vec<Vec<Vec<Self>>>> {
        static G: OnceLock<Mutex<Vec<Vec<Vec<f64>>>>> = OnceLock::new();
        G.get_or_init(empty_classes)
    }
    fn with_tape_pool<R>(f: impl FnOnce(&RefCell<Vec<TapeBase<Self>>>) -> R) -> R {
        TAPES_F64.with(f)
    }
    fn with_grad_scratch<R>(f: impl FnOnce(&RefCell<ScratchStack<Self>>) -> R) -> R {
        SCRATCH_F64.with(f)
    }
}

impl Scalar for f32 {
    const DTYPE: Dtype = Dtype::F32;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const INFINITY: Self = f32::INFINITY;
    const GRAD_SCALE: f64 = 4_294_967_296.0; // 2^32, exact in both formats

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline(always)]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }
    #[inline(always)]
    fn signum(self) -> Self {
        f32::signum(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    #[inline]
    fn dot_from(acc: Self, a: &[Self], b: &[Self]) -> Self {
        // Eight independent accumulator lanes: the fixed-size `lanes` array
        // lives in SIMD registers after vectorisation, and the per-lane
        // dependency chains are 8× shorter than a sequential fold, so the
        // FMA pipeline stays full. Slicing to `n` up front moves every
        // bounds check out of the inner loop.
        const LANES: usize = 8;
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let mut lanes = [0.0f32; LANES];
        let chunks = n / LANES;
        for (ao, bo) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
            for l in 0..LANES {
                lanes[l] += ao[l] * bo[l];
            }
        }
        let mut tail = 0.0f32;
        for (&x, &y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
            tail += x * y;
        }
        let head = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
        let rest = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
        acc + (head + rest) + tail
    }

    fn kernels() -> &'static Kernels<Self> {
        static K: OnceLock<Kernels<f32>> = OnceLock::new();
        K.get_or_init(kernels::select)
    }
    fn avx2_kernels() -> Option<Kernels<Self>> {
        kernels::avx2_f32()
    }

    fn with_pool<R>(f: impl FnOnce(&ThreadPool<Self>) -> R) -> R {
        POOL_F32.with(f)
    }
    fn global_pool() -> &'static Mutex<Vec<Vec<Vec<Self>>>> {
        static G: OnceLock<Mutex<Vec<Vec<Vec<f32>>>>> = OnceLock::new();
        G.get_or_init(empty_classes)
    }
    fn with_tape_pool<R>(f: impl FnOnce(&RefCell<Vec<TapeBase<Self>>>) -> R) -> R {
        TAPES_F32.with(f)
    }
    fn with_grad_scratch<R>(f: impl FnOnce(&RefCell<ScratchStack<Self>>) -> R) -> R {
        SCRATCH_F32.with(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_parses_and_prints() {
        assert_eq!("f32".parse::<Dtype>().unwrap(), Dtype::F32);
        assert_eq!("f64".parse::<Dtype>().unwrap(), Dtype::F64);
        assert!("f16".parse::<Dtype>().is_err());
        assert_eq!(Dtype::F32.to_string(), "f32");
        assert_eq!(Dtype::F64.size_of(), 8);
        assert_eq!(Dtype::F32.size_of(), 4);
        assert_eq!(Dtype::default(), Dtype::F64);
    }

    #[test]
    fn f64_dot_is_sequential_order() {
        // The f64 policy must match a plain ascending fold bit-for-bit.
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut want = 0.125f64;
        for i in 0..37 {
            want += a[i] * b[i];
        }
        let got = f64::dot_from(0.125, &a, &b);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn f32_dot_matches_f64_reference_within_tolerance() {
        let a: Vec<f32> = (0..103).map(|i| (i as f32 * 0.17).sin()).collect();
        let b: Vec<f32> = (0..103).map(|i| (i as f32 * 0.29).cos()).collect();
        let want: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x as f64 * y as f64)
            .sum::<f64>()
            + 0.5;
        let got = f32::dot_from(0.5, &a, &b) as f64;
        assert!((got - want).abs() < 1e-3, "got {got}, want {want}");
    }

    #[test]
    fn dot_handles_short_and_empty_slices() {
        assert_eq!(f32::dot_from(1.0, &[], &[]), 1.0);
        assert_eq!(f32::dot_from(0.0, &[2.0, 3.0], &[4.0, 5.0]), 23.0);
        assert_eq!(f64::dot_from(1.5, &[], &[]), 1.5);
    }
}
