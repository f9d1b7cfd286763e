//! The dense row-major tensor type, generic over its element type.
//!
//! [`TensorBase<E>`] is the storage + kernel layer; [`Tensor`] is the
//! crate's historical `f64` alias and keeps every pre-existing call site
//! compiling (and, for `f64`, producing bitwise-identical results).
//! Scalar-valued entry points (`item`, `at`, `set2`, `scale`, reductions…)
//! deliberately keep `f64` signatures and convert at the boundary — for
//! `E = f64` the conversion is the identity, and for `E = f32` it gives
//! reductions f64 accumulation for free (the tolerance tests rely on it).

use crate::kernels::Lhs;
use crate::scalar::Scalar;
use crate::{pool, TensorError};

/// Maximum tensor rank. CausalFormer shapes are at most rank 3 (`N×N×T`
/// kernel banks); keeping one spare axis costs nothing because the dims
/// array lives inline.
const MAX_RANK: usize = 4;

/// An inline shape: up to [`MAX_RANK`] dimensions in a fixed array, so a
/// tensor's metadata never touches the heap. Unused trailing dims are zero,
/// which makes derived equality correct.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    #[inline]
    fn from_dims(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "tensor rank {} exceeds the supported maximum {MAX_RANK}",
            dims.len()
        );
        let mut inline = [0usize; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Self {
            dims: inline,
            rank: dims.len() as u8,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    #[inline]
    fn rank(&self) -> usize {
        self.rank as usize
    }
}

impl std::ops::Index<usize> for Shape {
    type Output = usize;
    #[inline]
    fn index(&self, i: usize) -> &usize {
        &self.as_slice()[i]
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Pooled storage for tensor elements. Construction draws a buffer from the
/// size-class pool ([`crate::pool`]); `Drop` returns it. The `home` field is
/// the thread the buffer was handed out on — recycling consults it to route
/// same-thread drops to the lock-free local free list and cross-thread drops
/// (worker-born gradients dropped on the main thread) to the global list.
pub(crate) struct Buf<E: Scalar> {
    vec: Vec<E>,
    home: u32,
}

impl<E: Scalar> Buf<E> {
    /// An empty buffer with pooled capacity for `n` elements. The caller
    /// must push/extend exactly the elements it will read.
    #[inline]
    fn with_capacity(n: usize) -> Self {
        let (vec, home) = pool::grab::<E>(n);
        Self { vec, home }
    }

    /// A length-`n` buffer of `value`.
    #[inline]
    fn filled(n: usize, value: E) -> Self {
        let mut b = Self::with_capacity(n);
        b.vec.resize(n, value);
        b
    }

    /// A pooled copy of `values`.
    #[inline]
    fn copy_of(values: &[E]) -> Self {
        let mut b = Self::with_capacity(values.len());
        b.vec.extend_from_slice(values);
        b
    }

    /// Adopts a caller-allocated `Vec` (counted as an external allocation;
    /// it joins the pool when dropped).
    #[inline]
    fn adopt(vec: Vec<E>) -> Self {
        pool::note_external::<E>(vec.capacity());
        Self {
            vec,
            home: pool::thread_id(),
        }
    }
}

impl<E: Scalar> Drop for Buf<E> {
    #[inline]
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.vec), self.home);
    }
}

impl<E: Scalar> Clone for Buf<E> {
    #[inline]
    fn clone(&self) -> Self {
        Self::copy_of(&self.vec)
    }
}

impl<E: Scalar> PartialEq for Buf<E> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.vec == other.vec
    }
}

impl<E: Scalar> std::ops::Deref for Buf<E> {
    type Target = [E];
    #[inline]
    fn deref(&self) -> &[E] {
        &self.vec
    }
}

impl<E: Scalar> std::ops::DerefMut for Buf<E> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [E] {
        &mut self.vec
    }
}

impl<E: Scalar> std::fmt::Debug for Buf<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.vec.fmt(f)
    }
}

/// A dense, row-major, heap-allocated n-dimensional array of `E`.
///
/// The design is deliberately simple: no views, no strides beyond
/// row-major, one generic element type (`f32` or `f64` via the sealed
/// [`Scalar`] trait). The CausalFormer workloads are small (tens of series,
/// tens of time slots) and dominated by clarity-sensitive numeric code, so
/// a copying design is the right trade-off; hot inner loops (matmul,
/// convolution) operate on contiguous slices through fixed-shape
/// microkernels the compiler vectorises. Element storage is drawn from (and
/// returned to) the size-class buffer pool in [`crate::pool`], so the
/// copies stop costing allocations once the pool is warm.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorBase<E: Scalar = f64> {
    shape: Shape,
    data: Buf<E>,
}

/// The crate's historical dense `f64` tensor — an alias of [`TensorBase`].
pub type Tensor = TensorBase<f64>;

/// FLOP count (2·m·k·n for a matmul) below which the linear-algebra kernels
/// stay serial: a pool dispatch costs on the order of a microsecond, which
/// only pays for itself once the kernel does roughly this much arithmetic.
/// The comparison goes through [`cf_par::should_fan_out`], which raises the
/// bar by `NESTED_FANOUT_FACTOR` when the kernel already runs inside a
/// scheduler task (coarse-grained parallelism has first claim on workers).
pub(crate) const PAR_FLOP_THRESHOLD: usize = 262_144;

/// Output rows per parallel chunk, targeting ~32 KFLOPs of work per chunk so
/// dispatch overhead stays small while chunks outnumber any plausible pool.
/// Depends only on the problem size — never on thread count — which keeps
/// chunk boundaries (and thus scheduling-independent results) deterministic.
pub(crate) fn rows_per_block(m: usize, flops_per_row: usize) -> usize {
    (32_768 / flops_per_row.max(1)).clamp(1, m)
}

/// `out += A·b` for an `m×k` operand `A` (read through `lhs`'s strides)
/// and a row-major `k×n` `b`, on the dtype's [`Kernels::gemm`]:
/// row-parallel above `PAR_FLOP_THRESHOLD` flops, each band of output rows
/// computed whole by one worker, so results are bitwise the same at any
/// thread count.
///
/// [`Kernels::gemm`]: crate::kernels::Kernels::gemm
fn gemm_bands<E: Scalar>(
    lhs: Lhs<'_, E>,
    b: &[E],
    out: &mut [E],
    (m, k, n): (usize, usize, usize),
) {
    if n == 0 {
        return;
    }
    let gemm = E::kernels().gemm;
    let band = |i0: usize, orows: &mut [E]| gemm(lhs, b, orows, i0, k, n);
    if !cf_par::should_fan_out((2 * m * k * n) as u64, PAR_FLOP_THRESHOLD as u64) {
        band(0, out);
    } else {
        let rb = rows_per_block(m, 2 * k * n);
        cf_par::par_chunks_mut(out, rb * n, |ci, chunk| band(ci * rb, chunk));
    }
}

impl<E: Scalar> TensorBase<E> {
    // ---------------------------------------------------------------------
    // Construction
    // ---------------------------------------------------------------------

    /// Builds a tensor from a shape and a flat row-major buffer.
    pub fn from_vec(shape: Vec<usize>, data: Vec<E>) -> Result<Self, TensorError> {
        if shape.is_empty() || shape.contains(&0) {
            return Err(TensorError::EmptyShape);
        }
        // Saturating: a shape whose element count overflows `usize` (a
        // hostile file header) can match no buffer.
        let expected = shape.iter().fold(1usize, |n, &d| n.saturating_mul(d));
        if expected != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape,
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            shape: Shape::from_dims(&shape),
            data: Buf::adopt(data),
        })
    }

    /// Internal constructor: an empty pooled buffer the caller will fill to
    /// exactly `shape.iter().product()` elements.
    #[inline]
    fn with_shape(shape: Shape) -> (Self, usize) {
        let n: usize = shape.as_slice().iter().product();
        (
            Self {
                shape,
                data: Buf::with_capacity(n),
            },
            n,
        )
    }

    /// A tensor filled with zeros.
    ///
    /// # Panics
    /// Panics if `shape` is empty or contains a zero axis.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f64) -> Self {
        assert!(
            !shape.is_empty() && !shape.contains(&0),
            "tensor shape must be non-empty and positive, got {shape:?}"
        );
        let n: usize = shape.iter().product();
        Self {
            shape: Shape::from_dims(shape),
            data: Buf::filled(n, E::from_f64(value)),
        }
    }

    /// A 1×1…×1-free scalar wrapped as a rank-1 tensor of length 1.
    pub fn scalar(value: f64) -> Self {
        Self {
            shape: Shape::from_dims(&[1]),
            data: Buf::copy_of(&[E::from_f64(value)]),
        }
    }

    /// A rank-1 tensor from a slice of `f64` values (converted to `E`).
    pub fn from_slice(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "from_slice requires at least one value");
        let mut data = Buf::with_capacity(values.len());
        data.vec.extend(values.iter().map(|&v| E::from_f64(v)));
        Self {
            shape: Shape::from_dims(&[values.len()]),
            data,
        }
    }

    /// A 2-d tensor from nested rows. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Buf::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.vec.extend(r.iter().map(|&v| E::from_f64(v)));
        }
        Self {
            shape: Shape::from_dims(&[rows.len(), cols]),
            data,
        }
    }

    /// The N×N identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = E::ONE;
        }
        t
    }

    // ---------------------------------------------------------------------
    // Dtype conversion
    // ---------------------------------------------------------------------

    /// Widens to an `f64` tensor. For `E = f64` this is an exact copy, so
    /// the dtype-agnostic read-out paths (detector/RRP, checkpointing)
    /// remain bitwise-identical to direct access on the f64 path.
    pub fn to_f64_tensor(&self) -> TensorBase<f64> {
        let (mut out, _) = TensorBase::<f64>::with_shape(self.shape);
        out.data.vec.extend(self.data.iter().map(|&v| v.to_f64()));
        out
    }

    /// Converts an `f64` tensor to element type `E` (exact for `E = f64`).
    pub fn from_f64_tensor(t: &TensorBase<f64>) -> Self {
        let (mut out, _) = Self::with_shape(t.shape);
        out.data.vec.extend(t.data.iter().map(|&v| E::from_f64(v)));
        out
    }

    /// Copies all elements out as `f64` (exact widening).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.data.iter().map(|&v| v.to_f64()).collect()
    }

    // ---------------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------------

    /// The runtime element type.
    pub fn dtype(&self) -> crate::Dtype {
        E::DTYPE
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the tensor holds a single element.
    pub fn is_scalar(&self) -> bool {
        self.data.len() == 1
    }

    /// Always `false`: tensors cannot be empty. Provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The underlying row-major buffer.
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer. The buffer leaves the
    /// pool's accounting (it belongs to the caller now).
    pub fn into_data(mut self) -> Vec<E> {
        let vec = std::mem::take(&mut self.data.vec);
        pool::forget::<E>(vec.capacity());
        vec
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f64 {
        assert!(
            self.is_scalar(),
            "item() on tensor of shape {:?}",
            self.shape
        );
        self.data[0].to_f64()
    }

    // ---------------------------------------------------------------------
    // Indexing
    // ---------------------------------------------------------------------

    #[inline]
    fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.rank(), "index rank mismatch");
        let mut flat = 0usize;
        for (axis, (&i, &dim)) in idx.iter().zip(self.shape.as_slice()).enumerate() {
            debug_assert!(
                i < dim,
                "index {i} out of bounds for axis {axis} (dim {dim})"
            );
            flat = flat * dim + i;
        }
        flat
    }

    /// Element access by multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.data[self.flat_index(idx)].to_f64()
    }

    /// 2-d element access: row `i`, column `j`.
    #[inline]
    pub fn get2(&self, i: usize, j: usize) -> f64 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j].to_f64()
    }

    /// 2-d mutable element access.
    #[inline]
    pub fn set2(&mut self, i: usize, j: usize, v: f64) {
        debug_assert_eq!(self.rank(), 2);
        let cols = self.shape[1];
        self.data[i * cols + j] = E::from_f64(v);
    }

    /// 3-d element access.
    #[inline]
    pub fn get3(&self, i: usize, j: usize, k: usize) -> f64 {
        debug_assert_eq!(self.rank(), 3);
        self.data[(i * self.shape[1] + j) * self.shape[2] + k].to_f64()
    }

    /// 3-d mutable element access.
    #[inline]
    pub fn set3(&mut self, i: usize, j: usize, k: usize, v: f64) {
        debug_assert_eq!(self.rank(), 3);
        let (d1, d2) = (self.shape[1], self.shape[2]);
        self.data[(i * d1 + j) * d2 + k] = E::from_f64(v);
    }

    /// Borrow row `i` of a 2-d tensor as a slice.
    pub fn row(&self, i: usize) -> &[E] {
        assert_eq!(self.rank(), 2, "row() requires a 2-d tensor");
        let cols = self.shape[1];
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Copy column `j` of a 2-d tensor into a new `f64` vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert_eq!(self.rank(), 2, "col() requires a 2-d tensor");
        let (rows, cols) = (self.shape[0], self.shape[1]);
        (0..rows)
            .map(|i| self.data[i * cols + j].to_f64())
            .collect()
    }

    // ---------------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------------

    /// Returns a tensor with the same data but a new shape.
    pub fn reshape(&self, shape: Vec<usize>) -> Result<Self, TensorError> {
        let n: usize = shape.iter().product();
        if shape.is_empty() || n != self.data.len() {
            return Err(TensorError::BadReshape {
                from: self.data.len(),
                to: shape,
            });
        }
        Ok(Self {
            shape: Shape::from_dims(&shape),
            data: self.data.clone(),
        })
    }

    /// Transpose of a 2-d tensor.
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose2 requires a 2-d tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Self::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    // ---------------------------------------------------------------------
    // Elementwise operations (same-shape)
    // ---------------------------------------------------------------------

    fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Self) -> Self {
        self.assert_same_shape(other, "add");
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Self) -> Self {
        self.assert_same_shape(other, "sub");
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Self) -> Self {
        self.assert_same_shape(other, "mul");
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    pub fn div(&self, other: &Self) -> Self {
        self.assert_same_shape(other, "div");
        self.zip_map(other, |a, b| a / b)
    }

    /// In-place elementwise accumulation: `self += other`.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place scaled accumulation: `self += alpha * other` (axpy).
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        self.assert_same_shape(other, "axpy");
        let alpha = E::from_f64(alpha);
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place elementwise multiply-accumulate: `self[i] += a[i] · b[i]`.
    /// The fused form of `self.add_assign(&a.mul(b))` without the
    /// intermediate allocation; same rounding (multiply then add).
    pub fn add_mul_assign(&mut self, a: &Self, b: &Self) {
        self.assert_same_shape(a, "add_mul_assign");
        self.assert_same_shape(b, "add_mul_assign");
        for ((s, &av), &bv) in self.data.iter_mut().zip(a.data.iter()).zip(b.data.iter()) {
            *s += av * bv;
        }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, alpha: f64) -> Self {
        let alpha = E::from_f64(alpha);
        self.map(move |v| v * alpha)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Self {
        self.map(E::abs)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(E) -> E) -> Self {
        let (mut out, _) = Self::with_shape(self.shape);
        out.data.vec.extend(self.data.iter().map(|&v| f(v)));
        out
    }

    /// Elementwise binary map over two same-shape tensors.
    pub fn zip_map(&self, other: &Self, f: impl Fn(E, E) -> E) -> Self {
        self.assert_same_shape(other, "zip_map");
        let (mut out, _) = Self::with_shape(self.shape);
        out.data.vec.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        out
    }

    // ---------------------------------------------------------------------
    // Reductions
    //
    // All reductions accumulate in f64 regardless of `E` (exact identity
    // for f64; the f32 tolerance policy — losses, norms, and stopping
    // criteria stay in double precision even when the weights are single).
    // ---------------------------------------------------------------------

    /// Sum of all elements (f64 accumulation).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&v| v.to_f64()).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// L1 norm: `Σ |x|`.
    pub fn l1_norm(&self) -> f64 {
        self.data.iter().map(|&v| v.to_f64().abs()).sum()
    }

    /// L2 norm: `sqrt(Σ x²)`.
    pub fn l2_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| {
                let x = v.to_f64();
                x * x
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum element (NaN-ignoring is *not* attempted; NaNs propagate).
    pub fn max(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| v.to_f64())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| v.to_f64())
            .fold(f64::INFINITY, f64::min)
    }

    /// Flat index of the maximum element (first occurrence).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// `true` iff every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// Matrix product of two 2-d tensors: `(m×k)·(k×n) → m×n`.
    ///
    /// Row-parallel above `PAR_FLOP_THRESHOLD` (2^18) flops: each worker
    /// owns a disjoint band of output rows, and every output cell is
    /// computed entirely within one band, so the result is bitwise
    /// identical to the serial kernel at any thread count.
    pub fn matmul(&self, other: &Self) -> Self {
        let (m, _, n) = self.matmul_dims(other);
        let mut out = Self::zeros(&[m, n]);
        self.matmul_into(other, &mut out);
        out
    }

    /// Accumulates `self · other` into `out` (`out += a·b`). Writing into a
    /// freshly zeroed pooled buffer makes this the allocation-free form the
    /// backward pass uses; the accumulation order per cell is identical to
    /// [`TensorBase::matmul`], so results are bitwise equal.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        let (m, k, n) = self.matmul_dims(other);
        assert_eq!(out.shape(), &[m, n], "matmul_into output shape");
        let lhs = Lhs {
            data: &self.data,
            row_stride: k,
            col_stride: 1,
        };
        gemm_bands(lhs, &other.data, &mut out.data, (m, k, n));
    }

    fn matmul_dims(&self, other: &Self) -> (usize, usize, usize) {
        assert_eq!(self.rank(), 2, "matmul lhs must be 2-d");
        assert_eq!(other.rank(), 2, "matmul rhs must be 2-d");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        (m, k, n)
    }

    /// `self · otherᵀ` for 2-d tensors: `(m×k)·(n×k)ᵀ → m×n`.
    ///
    /// Row-parallel above `PAR_FLOP_THRESHOLD` (2^18) flops. Per `(i,j)`
    /// cell the terms accumulate as [`Scalar::dot_from`] orders them —
    /// ascending and sequential for f64 (bitwise-pinned), an 8-lane
    /// register tile for f32. The portable kernel is cache-blocked over
    /// `j`/`p` panels; the AVX2 one (f64) packs `otherᵀ` and runs the
    /// `matmul` tile (see [`crate::kernels`]).
    pub fn matmul_nt(&self, other: &Self) -> Self {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be 2-d");
        assert_eq!(other.rank(), 2, "matmul_nt rhs must be 2-d");
        let (m, n) = (self.shape[0], other.shape[0]);
        let mut out = Self::zeros(&[m, n]);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// Accumulates `self · otherᵀ` into `out`; see [`TensorBase::matmul_nt`].
    pub fn matmul_nt_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(self.rank(), 2, "matmul_nt lhs must be 2-d");
        assert_eq!(other.rank(), 2, "matmul_nt rhs must be 2-d");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dims: {k} vs {k2}");
        assert_eq!(out.shape(), &[m, n], "matmul_nt_into output shape");
        if n == 0 {
            return;
        }
        let gemm_nt = E::kernels().gemm_nt;
        let (a, b) = (&self.data[..], &other.data[..]);
        let band = |i0: usize, orows: &mut [E]| gemm_nt(a, b, orows, i0, k, n);
        if !cf_par::should_fan_out((2 * m * k * n) as u64, PAR_FLOP_THRESHOLD as u64) {
            band(0, &mut out.data);
        } else {
            let rb = rows_per_block(m, 2 * k * n);
            cf_par::par_chunks_mut(&mut out.data, rb * n, |ci, chunk| band(ci * rb, chunk));
        }
    }

    /// `selfᵀ · other` for 2-d tensors: `(k×m)ᵀ·(k×n) → m×n`.
    ///
    /// Output-row-parallel above `PAR_FLOP_THRESHOLD` (2^18) flops; per
    /// cell the `p` terms accumulate in ascending order with the same
    /// zero-skip as the serial kernel (see [`TensorBase::matmul`] for why
    /// the skip is free), so results are bitwise identical at any thread
    /// count.
    pub fn matmul_tn(&self, other: &Self) -> Self {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be 2-d");
        assert_eq!(other.rank(), 2, "matmul_tn rhs must be 2-d");
        let (m, n) = (self.shape[1], other.shape[1]);
        let mut out = Self::zeros(&[m, n]);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// Accumulates `selfᵀ · other` into `out`; see [`TensorBase::matmul_tn`].
    pub fn matmul_tn_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(self.rank(), 2, "matmul_tn lhs must be 2-d");
        assert_eq!(other.rank(), 2, "matmul_tn rhs must be 2-d");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dims: {k} vs {k2}");
        assert_eq!(out.shape(), &[m, n], "matmul_tn_into output shape");
        let lhs = Lhs {
            data: &self.data,
            row_stride: 1,
            col_stride: m,
        };
        gemm_bands(lhs, &other.data, &mut out.data, (m, k, n));
    }

    /// Adds a length-`c` row vector to every row of an `r×c` matrix.
    pub fn add_row_vector(&self, bias: &Self) -> Self {
        assert_eq!(self.rank(), 2, "add_row_vector target must be 2-d");
        assert_eq!(bias.rank(), 1, "add_row_vector bias must be 1-d");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert_eq!(bias.shape[0], c, "bias length vs columns");
        let mut out = self.clone();
        for i in 0..r {
            for j in 0..c {
                out.data[i * c + j] += bias.data[j];
            }
        }
        out
    }

    /// Row-wise softmax of a 2-d tensor (numerically stabilised). Row math
    /// runs in the native element type — the f64 path is order-identical to
    /// the historical kernel.
    pub fn softmax_rows(&self) -> Self {
        assert_eq!(self.rank(), 2, "softmax_rows requires a 2-d tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = self.clone();
        for i in 0..r {
            let row = &mut out.data[i * c..(i + 1) * c];
            let m = row.iter().copied().fold(E::NEG_INFINITY, E::max);
            let mut z = E::ZERO;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: &[&[f64]]) -> Tensor {
        Tensor::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(vec![2, 3], vec![0.0; 6]).is_ok());
        let err = Tensor::from_vec(vec![2, 3], vec![0.0; 5]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeDataMismatch { .. }));
        assert_eq!(
            Tensor::from_vec(vec![], vec![]).unwrap_err(),
            TensorError::EmptyShape
        );
        assert_eq!(
            Tensor::from_vec(vec![0, 3], vec![]).unwrap_err(),
            TensorError::EmptyShape
        );
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set3(1, 2, 3, 7.5);
        assert_eq!(t.get3(1, 2, 3), 7.5);
        assert_eq!(t.at(&[1, 2, 3]), 7.5);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t2(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = t2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = t2(&[&[1.0, 0.5, -1.0], &[2.0, -2.0, 0.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose2()));
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = t2(&[&[1.0, -1.0], &[0.5, 2.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose2().matmul(&b));
    }

    #[test]
    fn matmul_into_accumulates_into_existing_buffer() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t2(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Tensor::ones(&[2, 2]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[20.0, 23.0, 44.0, 51.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = t2(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let row_sum: f64 = s.row(i).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-12);
        }
        assert!(s.get2(0, 2) > s.get2(0, 1));
        assert!(s.get2(0, 1) > s.get2(0, 0));
        // Large equal logits must not overflow.
        assert!((s.get2(1, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.l1_norm(), 10.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.argmax(), 3);
        assert!((t.l2_norm() - 30.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let m = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        let r = m.add_row_vector(&b);
        assert_eq!(r.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn transpose_is_involution() {
        let t = t2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(t.transpose2().transpose2(), t);
        assert_eq!(t.transpose2().shape(), &[3, 2]);
        assert_eq!(t.transpose2().get2(2, 1), 6.0);
    }

    #[test]
    fn reshape_checks_element_count() {
        let t = Tensor::zeros(&[2, 6]);
        assert_eq!(t.reshape(vec![3, 4]).unwrap().shape(), &[3, 4]);
        assert!(t.reshape(vec![5, 2]).is_err());
    }

    #[test]
    fn eye_and_identity_product() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let _ = Tensor::zeros(&[2, 2]).add(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        a.axpy(2.0, &Tensor::from_slice(&[3.0, -1.0]));
        assert_eq!(a.data(), &[7.0, -1.0]);
    }

    #[test]
    fn row_and_col_views() {
        let t = t2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(Tensor::from_slice(&[1.0, 2.0]).all_finite());
        assert!(!Tensor::from_slice(&[1.0, f64::NAN]).all_finite());
        assert!(!Tensor::from_slice(&[f64::INFINITY]).all_finite());
    }

    #[test]
    fn pooled_buffers_come_back_clean() {
        // A dropped tensor's buffer is reused by the next same-class
        // construction, and constructors fully initialise it — stale bytes
        // must never leak through.
        let marker = 7.25;
        let t = Tensor::full(&[257], marker); // odd class, test-private
        drop(t);
        let z = Tensor::zeros(&[257]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        drop(z);
        let m = Tensor::from_slice(&[1.0; 257]).map(|v| v + 1.0);
        assert!(m.data().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn into_data_returns_exact_elements() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(t.into_data(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn f32_tensors_roundtrip_through_f64() {
        let t = TensorBase::<f32>::from_slice(&[1.5, -2.25, 0.0]);
        assert_eq!(t.dtype(), crate::Dtype::F32);
        let wide = t.to_f64_tensor();
        assert_eq!(wide.data(), &[1.5, -2.25, 0.0]);
        let back = TensorBase::<f32>::from_f64_tensor(&wide);
        assert_eq!(back, t);
        assert_eq!(t.to_f64_vec(), vec![1.5, -2.25, 0.0]);
    }

    #[test]
    fn f64_to_f64_tensor_is_bitwise_copy() {
        let t = Tensor::from_slice(&[0.1, 0.2, 1.0 / 3.0]);
        let c = t.to_f64_tensor();
        for (a, b) in t.data().iter().zip(c.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f32_matmul_family_matches_f64_within_tolerance() {
        // The f32 kernels re-associate sums (8-lane dot); pin them against
        // the f64 kernels on the same values instead of bitwise.
        let n = 37; // not a multiple of the lane count
        let vals: Vec<f64> = (0..n * n)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
            .collect();
        let a64 = Tensor::from_vec(vec![n, n], vals.clone()).unwrap();
        let b64 =
            Tensor::from_vec(vec![n, n], vals.iter().map(|v| v * 0.5 - 0.1).collect()).unwrap();
        let a32 = TensorBase::<f32>::from_f64_tensor(&a64);
        let b32 = TensorBase::<f32>::from_f64_tensor(&b64);
        for (c64, c32) in [
            (a64.matmul(&b64), a32.matmul(&b32)),
            (a64.matmul_nt(&b64), a32.matmul_nt(&b32)),
            (a64.matmul_tn(&b64), a32.matmul_tn(&b32)),
        ] {
            for (x, y) in c64.data().iter().zip(c32.data()) {
                assert!(
                    (x - y.to_f64()).abs() < 1e-2,
                    "f32 kernel diverged: {x} vs {y}"
                );
            }
        }
    }
}
