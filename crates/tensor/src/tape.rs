//! Reverse-mode automatic differentiation on an explicit op tape.
//!
//! A [`Tape`] is a define-by-run computation graph: each operation appends a
//! node holding its output [`Tensor`] and an [`Op`] descriptor naming its
//! parents. [`Tape::backward`] then walks the nodes in reverse topological
//! order (which is simply reverse insertion order) accumulating gradients.
//!
//! Design notes:
//!
//! * **Explicit op enum, no closures.** Every backward rule is a `match` arm
//!   that can be located, read, and finite-difference-tested. This is what
//!   lets the CausalFormer detector trust the `∇f` terms it feeds into
//!   gradient modulation (paper Eq. 19).
//! * **Tapes are re-recorded per step, but reused.** Parameters live outside
//!   the tape (in `cf-nn`'s parameter store); a training step copies them in
//!   as leaves, runs forward, calls [`Tape::backward`], and reads gradients
//!   out. Since every step re-records the same topology, steady-state
//!   callers hold a persistent tape and call [`Tape::reset`] between steps
//!   (or use [`with_pooled_tape`], which keeps one tape per thread): node
//!   storage capacity is retained, tensor buffers recycle through the
//!   size-class pool, and backward draws its gradient scratch from a
//!   per-thread free list — after one warm-up pass a step performs no heap
//!   allocation.
//! * **`requires_grad` pruning, and cut pruning.** Constant leaves (input
//!   data, masks) are marked as not requiring gradients; backward skips
//!   whole subtrees that cannot reach a parameter. [`TapeBase::backward_to`]
//!   prunes further for callers that want gradients at a few interior
//!   nodes only (the detector's `𝒜` and `𝒦`): it propagates only into
//!   nodes on a path from one of those *cut* nodes to the root and stops
//!   at the lowest cut node.
//! * **Generic element type.** [`TapeBase<E>`] is generic over the
//!   [`Scalar`] element; `Tape`/`Gradients` are the historical `f64`
//!   aliases. Per-dtype tape pools and gradient scratch live behind the
//!   `Scalar` storage hooks, so each dtype recycles its own storage.

use crate::ops;
use crate::scalar::Scalar;
use crate::tensor::TensorBase;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

impl VarId {
    /// The node's position on the tape (insertion order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operation descriptor for one tape node.
///
/// Variants reference parent nodes by [`VarId`]. The tensor-valued payloads
/// (`MulConst`) hold *constants* that do not receive gradients. Scalar
/// hyper-parameters (`Scale`, `LeakyRelu`) stay `f64` regardless of the
/// element type — they are configuration, not data.
#[derive(Debug, Clone)]
pub enum Op<E: Scalar = f64> {
    /// An input: parameter (requires grad) or constant (does not).
    Leaf,
    /// Elementwise `a + b` (same shapes).
    Add(VarId, VarId),
    /// Elementwise `a - b`.
    Sub(VarId, VarId),
    /// Elementwise `a ⊙ b`.
    Mul(VarId, VarId),
    /// `matrix + row-vector` broadcast over rows.
    AddRowVector(VarId, VarId),
    /// `matrix ⊙ row-vector` broadcast over rows (column-wise gating).
    MulRowVector(VarId, VarId),
    /// `alpha · a`.
    Scale(VarId, f64),
    /// Matrix product `a · b`.
    MatMul(VarId, VarId),
    /// Matrix product `a · bᵀ`.
    MatMulNT(VarId, VarId),
    /// Row-wise softmax.
    SoftmaxRows(VarId),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(VarId, f64),
    /// Hyperbolic tangent.
    Tanh(VarId),
    /// Logistic sigmoid.
    Sigmoid(VarId),
    /// Elementwise square.
    Square(VarId),
    /// Elementwise product with a constant tensor (masking).
    MulConst(VarId, TensorBase<E>),
    /// Sum of all elements (scalar output).
    SumAll(VarId),
    /// Mean of all elements (scalar output).
    MeanAll(VarId),
    /// L1 norm `Σ|x|` (scalar output); backward uses the sign subgradient.
    L1(VarId),
    /// `w[idx] · x` where `w` is a 1-d parameter vector: per-head output
    /// weighting (paper Eq. 7).
    ScaleByElem {
        /// Tensor being scaled.
        x: VarId,
        /// 1-d weight vector.
        w: VarId,
        /// Index into `w`.
        idx: usize,
    },
    /// Multi-kernel causal convolution (paper Eq. 3): `x: N×T`, `kernel:
    /// N×N×T` → `N×N×T`.
    CausalConv {
        /// Input window.
        x: VarId,
        /// Convolution kernel bank 𝒦.
        kernel: VarId,
    },
    /// Self-causation shift (paper Eq. 4) on an `N×N×T` tensor.
    SelfShift(VarId),
    /// Attention application (paper Eq. 6): `attn: N×N`, `v: N×N×T` → `N×T`.
    AttnApply {
        /// Attention matrix 𝒜.
        attn: VarId,
        /// Value tensor.
        v: VarId,
    },
    /// Tiles an `N×T` per-source kernel across all target series to an
    /// `N×N×T` bank: `out[i,j,t] = x[i,t]`. Used by the "w/o multi conv
    /// kernel" ablation (paper §5.5), which replaces the per-pair kernels
    /// with a single kernel per source series.
    TilePairs(VarId),
}

impl<E: Scalar> Op<E> {
    /// Stable kind name, used as the profiling key for forward execution.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::AddRowVector(..) => "add_row_vector",
            Op::MulRowVector(..) => "mul_row_vector",
            Op::Scale(..) => "scale",
            Op::MatMul(..) => "matmul",
            Op::MatMulNT(..) => "matmul_nt",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Tanh(..) => "tanh",
            Op::Sigmoid(..) => "sigmoid",
            Op::Square(..) => "square",
            Op::MulConst(..) => "mul_const",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::L1(..) => "l1",
            Op::ScaleByElem { .. } => "scale_by_elem",
            Op::CausalConv { .. } => "causal_conv",
            Op::SelfShift(..) => "self_shift",
            Op::AttnApply { .. } => "attn_apply",
            Op::TilePairs(..) => "tile_pairs",
        }
    }

    /// Profiling key for this op's backward rule.
    fn bwd_kind(&self) -> &'static str {
        match self {
            Op::Leaf => "bwd.leaf",
            Op::Add(..) => "bwd.add",
            Op::Sub(..) => "bwd.sub",
            Op::Mul(..) => "bwd.mul",
            Op::AddRowVector(..) => "bwd.add_row_vector",
            Op::MulRowVector(..) => "bwd.mul_row_vector",
            Op::Scale(..) => "bwd.scale",
            Op::MatMul(..) => "bwd.matmul",
            Op::MatMulNT(..) => "bwd.matmul_nt",
            Op::SoftmaxRows(..) => "bwd.softmax_rows",
            Op::LeakyRelu(..) => "bwd.leaky_relu",
            Op::Tanh(..) => "bwd.tanh",
            Op::Sigmoid(..) => "bwd.sigmoid",
            Op::Square(..) => "bwd.square",
            Op::MulConst(..) => "bwd.mul_const",
            Op::SumAll(..) => "bwd.sum_all",
            Op::MeanAll(..) => "bwd.mean_all",
            Op::L1(..) => "bwd.l1",
            Op::ScaleByElem { .. } => "bwd.scale_by_elem",
            Op::CausalConv { .. } => "bwd.causal_conv",
            Op::SelfShift(..) => "bwd.self_shift",
            Op::AttnApply { .. } => "bwd.attn_apply",
            Op::TilePairs(..) => "bwd.tile_pairs",
        }
    }

    /// The nodes this op reads.
    fn parents(&self) -> [Option<VarId>; 2] {
        match *self {
            Op::Leaf => [None, None],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRowVector(a, b)
            | Op::MulRowVector(a, b)
            | Op::MatMul(a, b)
            | Op::MatMulNT(a, b)
            | Op::ScaleByElem { x: a, w: b, .. }
            | Op::CausalConv { x: a, kernel: b }
            | Op::AttnApply { attn: a, v: b } => [Some(a), Some(b)],
            Op::Scale(a, _)
            | Op::SoftmaxRows(a)
            | Op::LeakyRelu(a, _)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Square(a)
            | Op::MulConst(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::L1(a)
            | Op::SelfShift(a)
            | Op::TilePairs(a) => [Some(a), None],
        }
    }
}

struct Node<E: Scalar> {
    value: TensorBase<E>,
    op: Op<E>,
    requires_grad: bool,
}

/// Upper bound on spare scratch vectors retained per thread; beyond this
/// they are genuinely freed.
const GRAD_SCRATCH_RETAIN: usize = 8;

/// Runs `f` with a tape drawn from this thread's tape pool, resetting and
/// returning it afterwards. cf-par workers are long-lived, so a training
/// loop that builds one tape per window through this helper re-records onto
/// the same node storage every step instead of growing a fresh `Tape::new()`
/// each time. Nested calls work (the pool is a stack); the tape is handed
/// over empty, exactly like `Tape::new()`. Each dtype has its own per-thread
/// pool (see the [`Scalar`] storage hooks).
pub fn with_pooled_tape<E: Scalar, R>(f: impl FnOnce(&mut TapeBase<E>) -> R) -> R {
    let mut tape = E::with_tape_pool(|p| p.borrow_mut().pop()).unwrap_or_default();
    tape.reset();
    let out = f(&mut tape);
    tape.reset();
    E::with_tape_pool(|p| p.borrow_mut().push(tape));
    out
}

/// Gradients produced by [`Tape::backward`], indexed by [`VarId`].
///
/// The backing scratch vector is pooled: dropping a `Gradients` recycles
/// the contained tensors through the buffer pool and parks the (emptied)
/// vector on a per-thread, per-dtype free list for the next backward pass.
pub struct GradientsBase<E: Scalar = f64> {
    grads: Vec<Option<TensorBase<E>>>,
}

/// The `f64` gradients container (the historical API).
pub type Gradients = GradientsBase<f64>;

impl<E: Scalar> GradientsBase<E> {
    /// The gradient accumulated at `id`, if that node required gradients and
    /// was reached by backpropagation.
    pub fn get(&self, id: VarId) -> Option<&TensorBase<E>> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Moves the gradient at `id` out, leaving `None` behind. The ownership
    /// counterpart of [`GradientsBase::get`] for callers that would
    /// otherwise clone (the trainer ships per-window gradients to the
    /// reducer).
    pub fn take(&mut self, id: VarId) -> Option<TensorBase<E>> {
        self.grads.get_mut(id.0).and_then(|g| g.take())
    }

    /// Like [`GradientsBase::get`] but panics with context when absent —
    /// for parameters that must always receive a gradient.
    pub fn expect(&self, id: VarId, what: &str) -> &TensorBase<E> {
        self.get(id)
            .unwrap_or_else(|| panic!("no gradient for {what} (VarId {})", id.0))
    }
}

impl<E: Scalar> Drop for GradientsBase<E> {
    fn drop(&mut self) {
        let mut scratch = std::mem::take(&mut self.grads);
        // Dropping remaining tensors recycles their buffers; the emptied
        // shell returns to this thread's scratch list.
        scratch.clear();
        E::with_grad_scratch(|s| {
            let mut s = s.borrow_mut();
            if s.len() < GRAD_SCRATCH_RETAIN {
                s.push(scratch);
            }
        });
    }
}

/// The gradient slots of one backward walk and the filter naming the nodes
/// it propagates into: every node that requires gradients for
/// [`TapeBase::backward_with_seed`], the live nodes for
/// [`TapeBase::backward_to`].
struct GradSink<'g, E: Scalar, W> {
    grads: &'g mut [Option<TensorBase<E>>],
    wants: W,
}

impl<E: Scalar, W: Fn(VarId) -> bool> GradSink<'_, E, W> {
    #[inline]
    fn wants(&self, id: VarId) -> bool {
        (self.wants)(id)
    }

    fn accumulate(&mut self, id: VarId, contribution: TensorBase<E>) {
        if !self.wants(id) {
            return;
        }
        match &mut self.grads[id.0] {
            Some(existing) => existing.add_assign(&contribution),
            slot @ None => *slot = Some(contribution),
        }
    }

    /// Accumulates `alpha · src` into the slot for `id`, axpy-ing into the
    /// existing buffer when one is present instead of materialising a scaled
    /// copy first. Numerically identical to
    /// `accumulate(…, src.scale(alpha))`: both round `alpha·srcᵢ` once, then
    /// add.
    fn accumulate_scaled(&mut self, id: VarId, alpha: f64, src: &TensorBase<E>) {
        if !self.wants(id) {
            return;
        }
        match &mut self.grads[id.0] {
            Some(existing) => existing.axpy(alpha, src),
            slot @ None => {
                *slot = Some(if alpha == 1.0 {
                    src.clone()
                } else {
                    src.scale(alpha)
                })
            }
        }
    }

    /// Accumulates the Hadamard product `g ⊙ other` into the slot for `id`
    /// without allocating the product tensor when a buffer already exists.
    fn accumulate_mul(&mut self, id: VarId, g: &TensorBase<E>, other: &TensorBase<E>) {
        if !self.wants(id) {
            return;
        }
        match &mut self.grads[id.0] {
            Some(existing) => existing.add_mul_assign(g, other),
            slot @ None => *slot = Some(g.mul(other)),
        }
    }

    /// Accumulates a contribution produced by writing *in place* into a
    /// freshly zeroed pooled buffer of `shape`. An empty slot receives the
    /// filled buffer directly; an occupied slot gets a pooled temporary
    /// then a single `add_assign` — computing into zeros and adding
    /// afterwards preserves the exact rounding of the allocate-then-
    /// accumulate path, so results stay bitwise identical while no path
    /// allocates once the pool is warm.
    fn accumulate_into(
        &mut self,
        id: VarId,
        shape: &[usize],
        fill: impl FnOnce(&mut TensorBase<E>),
    ) {
        if !self.wants(id) {
            return;
        }
        let mut contribution = TensorBase::zeros(shape);
        fill(&mut contribution);
        match &mut self.grads[id.0] {
            Some(existing) => existing.add_assign(&contribution),
            slot @ None => *slot = Some(contribution),
        }
    }
}

/// A reverse-mode autodiff tape over element type `E`: a define-by-run
/// list of nodes, each holding its output tensor and the [`Op`] that made
/// it, which [`TapeBase::backward`] walks in reverse. See the
/// [crate docs](crate).
#[derive(Default)]
pub struct TapeBase<E: Scalar = f64> {
    nodes: Vec<Node<E>>,
}

/// The `f64` tape (the historical API).
pub type Tape = TapeBase<f64>;

impl<E: Scalar> TapeBase<E> {
    /// An empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Clears all recorded nodes while retaining the node storage capacity,
    /// returning the tape to the `Tape::new()` state for re-recording.
    /// Dropped node values (and `MulConst` payloads) recycle their buffers
    /// through the pool, so the next recording re-uses them.
    pub fn reset(&mut self) {
        cf_obs::trace::instant("tape.reset");
        self.nodes.clear();
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value at `id`.
    pub fn value(&self, id: VarId) -> &TensorBase<E> {
        &self.nodes[id.0].value
    }

    /// Whether the node at `id` participates in gradient computation.
    pub fn requires_grad(&self, id: VarId) -> bool {
        self.nodes[id.0].requires_grad
    }

    fn push(&mut self, value: TensorBase<E>, op: Op<E>, requires_grad: bool) -> VarId {
        debug_assert!(value.all_finite(), "non-finite value from {op:?}");
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        VarId(self.nodes.len() - 1)
    }

    fn rg(&self, id: VarId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// Rough floating-point-operation estimate for one forward execution
    /// of `op`, from its parents' shapes. Order-of-magnitude accounting
    /// for profiles, not an exact count.
    fn op_flops(&self, op: &Op<E>) -> u64 {
        let len = |id: &VarId| self.value(*id).len() as u64;
        match op {
            Op::Leaf => 0,
            Op::Add(a, _) | Op::Sub(a, _) | Op::Mul(a, _) => len(a),
            Op::AddRowVector(m, _) | Op::MulRowVector(m, _) => len(m),
            Op::Scale(a, _)
            | Op::LeakyRelu(a, _)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Square(a)
            | Op::MulConst(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::L1(a)
            | Op::SelfShift(a) => len(a),
            Op::SoftmaxRows(a) => 4 * len(a),
            Op::MatMul(a, b) => {
                let (sa, sb) = (self.value(*a).shape(), self.value(*b).shape());
                (2 * sa[0] * sa[1] * sb[1]) as u64
            }
            Op::MatMulNT(a, b) => {
                let (sa, sb) = (self.value(*a).shape(), self.value(*b).shape());
                (2 * sa[0] * sa[1] * sb[0]) as u64
            }
            Op::ScaleByElem { x, .. } => len(x),
            Op::CausalConv { x, .. } => {
                let s = self.value(*x).shape();
                (s[0] * s[0] * s[1] * s[1]) as u64
            }
            Op::AttnApply { v, .. } => 2 * len(v),
            Op::TilePairs(x) => {
                let s = self.value(*x).shape();
                (s[0] * s[0] * s[1]) as u64
            }
        }
    }

    /// Opens the op span of a forward `op`; inert (one atomic load, no
    /// clock read or FLOP estimate) while op detail is off.
    fn op_span(&self, op: &Op<E>) -> cf_obs::span::Span {
        cf_obs::span!(op.kind(), flops = self.op_flops(op))
    }

    // -----------------------------------------------------------------
    // Node constructors
    // -----------------------------------------------------------------

    /// Records an input leaf. `requires_grad = true` for parameters,
    /// `false` for data/constants.
    pub fn leaf(&mut self, value: TensorBase<E>, requires_grad: bool) -> VarId {
        self.push(value, Op::Leaf, requires_grad)
    }

    /// Convenience: a constant leaf.
    pub fn constant(&mut self, value: TensorBase<E>) -> VarId {
        self.leaf(value, false)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let op = Op::Add(a, b);
        let _t = self.op_span(&op);
        let v = self.value(a).add(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, op, rg)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let op = Op::Sub(a, b);
        let _t = self.op_span(&op);
        let v = self.value(a).sub(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, op, rg)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let op = Op::Mul(a, b);
        let _t = self.op_span(&op);
        let v = self.value(a).mul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, op, rg)
    }

    /// Matrix-plus-row-vector broadcast (bias addition).
    pub fn add_row_vector(&mut self, m: VarId, bias: VarId) -> VarId {
        let op = Op::AddRowVector(m, bias);
        let _t = self.op_span(&op);
        let v = self.value(m).add_row_vector(self.value(bias));
        let rg = self.rg(m) || self.rg(bias);
        self.push(v, op, rg)
    }

    /// Matrix-times-row-vector broadcast (per-column gating): `out[r,c] =
    /// m[r,c] · v[c]`.
    pub fn mul_row_vector(&mut self, m: VarId, v: VarId) -> VarId {
        let op = Op::MulRowVector(m, v);
        let _t = self.op_span(&op);
        let mv = self.value(m);
        let vv = self.value(v);
        assert_eq!(mv.rank(), 2, "mul_row_vector matrix must be 2-d");
        assert_eq!(vv.rank(), 1, "mul_row_vector vector must be 1-d");
        let (r, c) = (mv.shape()[0], mv.shape()[1]);
        assert_eq!(vv.len(), c, "vector length vs columns");
        let mut out = mv.clone();
        {
            let vd = vv.data();
            let od = out.data_mut();
            for i in 0..r {
                for j in 0..c {
                    od[i * c + j] *= vd[j];
                }
            }
        }
        let rg = self.rg(m) || self.rg(v);
        self.push(out, op, rg)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: VarId, alpha: f64) -> VarId {
        let op = Op::Scale(a, alpha);
        let _t = self.op_span(&op);
        let v = self.value(a).scale(alpha);
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let op = Op::MatMul(a, b);
        let _t = self.op_span(&op);
        let v = self.value(a).matmul(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, op, rg)
    }

    /// Matrix product with transposed right operand.
    pub fn matmul_nt(&mut self, a: VarId, b: VarId) -> VarId {
        let op = Op::MatMulNT(a, b);
        let _t = self.op_span(&op);
        let v = self.value(a).matmul_nt(self.value(b));
        let rg = self.rg(a) || self.rg(b);
        self.push(v, op, rg)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: VarId) -> VarId {
        let op = Op::SoftmaxRows(a);
        let _t = self.op_span(&op);
        let v = self.value(a).softmax_rows();
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// Leaky ReLU.
    pub fn leaky_relu(&mut self, a: VarId, slope: f64) -> VarId {
        let op = Op::LeakyRelu(a, slope);
        let _t = self.op_span(&op);
        let s = E::from_f64(slope);
        let v = self.value(a).map(|x| if x >= E::ZERO { x } else { s * x });
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let op = Op::Tanh(a);
        let _t = self.op_span(&op);
        let v = self.value(a).map(E::tanh);
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let op = Op::Sigmoid(a);
        let _t = self.op_span(&op);
        let v = self.value(a).map(|x| E::ONE / (E::ONE + (-x).exp()));
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: VarId) -> VarId {
        let op = Op::Square(a);
        let _t = self.op_span(&op);
        let v = self.value(a).map(|x| x * x);
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// Elementwise product with a constant tensor (e.g. a loss mask).
    pub fn mul_const(&mut self, a: VarId, c: TensorBase<E>) -> VarId {
        let _t = cf_obs::span!("mul_const", flops = self.value(a).len() as u64);
        let v = self.value(a).mul(&c);
        let rg = self.rg(a);
        self.push(v, Op::MulConst(a, c), rg)
    }

    /// Sum of all elements, as a scalar node.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let op = Op::SumAll(a);
        let _t = self.op_span(&op);
        let v = TensorBase::scalar(self.value(a).sum());
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// Mean of all elements, as a scalar node.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let op = Op::MeanAll(a);
        let _t = self.op_span(&op);
        let v = TensorBase::scalar(self.value(a).mean());
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// L1 norm, as a scalar node.
    pub fn l1(&mut self, a: VarId) -> VarId {
        let op = Op::L1(a);
        let _t = self.op_span(&op);
        let v = TensorBase::scalar(self.value(a).l1_norm());
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// `w[idx] · x` — scales a tensor by one element of a parameter vector.
    pub fn scale_by_elem(&mut self, x: VarId, w: VarId, idx: usize) -> VarId {
        let op = Op::ScaleByElem { x, w, idx };
        let _t = self.op_span(&op);
        let weight = self.value(w).data()[idx].to_f64();
        let v = self.value(x).scale(weight);
        let rg = self.rg(x) || self.rg(w);
        self.push(v, op, rg)
    }

    /// Multi-kernel causal convolution (paper Eq. 3).
    pub fn causal_conv(&mut self, x: VarId, kernel: VarId) -> VarId {
        let op = Op::CausalConv { x, kernel };
        let _t = self.op_span(&op);
        let v = ops::causal_conv(self.value(x), self.value(kernel));
        let rg = self.rg(x) || self.rg(kernel);
        self.push(v, op, rg)
    }

    /// Self-causation shift (paper Eq. 4).
    pub fn self_shift(&mut self, a: VarId) -> VarId {
        let op = Op::SelfShift(a);
        let _t = self.op_span(&op);
        let v = ops::self_shift(self.value(a));
        let rg = self.rg(a);
        self.push(v, op, rg)
    }

    /// Attention application (paper Eq. 6).
    pub fn attn_apply(&mut self, attn: VarId, v: VarId) -> VarId {
        let op = Op::AttnApply { attn, v };
        let _t = self.op_span(&op);
        let out = ops::attn_apply(self.value(attn), self.value(v));
        let rg = self.rg(attn) || self.rg(v);
        self.push(out, op, rg)
    }

    /// Tiles an `N×T` kernel to an `N×N×T` bank (single-kernel ablation).
    pub fn tile_pairs(&mut self, x: VarId) -> VarId {
        let op = Op::TilePairs(x);
        let _t = self.op_span(&op);
        let src = self.value(x);
        assert_eq!(src.rank(), 2, "tile_pairs expects N×T");
        let (n, t_len) = (src.shape()[0], src.shape()[1]);
        let mut out = TensorBase::zeros(&[n, n, t_len]);
        {
            let sd = src.data();
            let od = out.data_mut();
            for i in 0..n {
                let srow = &sd[i * t_len..(i + 1) * t_len];
                for j in 0..n {
                    od[(i * n + j) * t_len..(i * n + j + 1) * t_len].copy_from_slice(srow);
                }
            }
        }
        let rg = self.rg(x);
        self.push(out, op, rg)
    }

    // -----------------------------------------------------------------
    // Backward
    // -----------------------------------------------------------------

    /// Backpropagates from a *scalar* root node, seeding with gradient 1.
    ///
    /// # Panics
    /// Panics if `root`'s value is not a single element.
    pub fn backward(&self, root: VarId) -> GradientsBase<E> {
        assert!(
            self.value(root).is_scalar(),
            "backward() requires a scalar root; use backward_with_seed for tensor roots"
        );
        self.backward_with_seed(root, TensorBase::scalar(1.0))
    }

    /// Backpropagates from `root` with an explicit output gradient `seed`
    /// (same shape as `root`'s value): every node that requires gradients
    /// and is reached from `root` receives its gradient.
    pub fn backward_with_seed(&self, root: VarId, seed: TensorBase<E>) -> GradientsBase<E> {
        self.walk(root, seed, 0, |id| self.rg(id), |_| true)
    }

    /// Backpropagates from `root` with `seed`, but only as far as the `cut`
    /// nodes. This is how the causality detector obtains
    /// `∂(Σ_t X̃[i,t])/∂𝒜` and `∂/∂𝒦` for every target `i` at once: it
    /// seeds the prediction with ones on every row, and because prediction
    /// row `i` depends only on attention row `i` and kernel slab
    /// `[:, i, :]`, those entries of the result are exactly target `i`'s
    /// gradients.
    ///
    /// Gradients flow only into *live* nodes — cut nodes, and nodes that
    /// read a live node — and the walk ends at the lowest cut node, so
    /// nothing below the cut and no parameter above it is differentiated.
    /// A live node's consumers are all live, so it receives the same
    /// contributions in the same order as under
    /// [`TapeBase::backward_with_seed`]: the gradients at the cut nodes
    /// are bitwise equal. Nodes off every path from a cut node to `root`
    /// have no gradient in the result.
    pub fn backward_to(&self, root: VarId, seed: TensorBase<E>, cut: &[VarId]) -> GradientsBase<E> {
        /// Receives gradient: a cut node, or a node that reads a live one.
        const LIVE: u8 = 1;
        /// Passes gradient on: reads a live node.
        const FEEDS: u8 = 2;
        let mut mask = vec![0u8; root.0 + 1];
        let mut lo = root.0 + 1;
        for &c in cut.iter().filter(|c| c.0 <= root.0 && self.rg(**c)) {
            mask[c.0] = LIVE;
            lo = lo.min(c.0);
        }
        for idx in lo..=root.0 {
            let [a, b] = self.nodes[idx].op.parents();
            if [a, b].into_iter().flatten().any(|p| mask[p.0] & LIVE != 0) {
                mask[idx] |= LIVE | FEEDS;
            }
        }
        self.walk(
            root,
            seed,
            lo,
            |id| mask[id.0] & LIVE != 0,
            |idx| mask[idx] & FEEDS != 0,
        )
    }

    /// The reverse walk shared by both backward passes: seeds `root`, then
    /// visits nodes `root..=lo` in reverse insertion order, propagating
    /// each node that `steps` admits into the parents that `wants` admits.
    /// Both filters are closure types, so each pass compiles its own walk
    /// and the full pass keeps its plain `requires_grad` test.
    fn walk(
        &self,
        root: VarId,
        seed: TensorBase<E>,
        lo: usize,
        wants: impl Fn(VarId) -> bool,
        steps: impl Fn(usize) -> bool,
    ) -> GradientsBase<E> {
        assert_eq!(
            self.value(root).shape(),
            seed.shape(),
            "seed shape must match root value shape"
        );
        // Gradient scratch comes from the per-thread free list (warm after
        // the first backward on each thread) instead of `vec![None; n]`.
        let mut grads = E::with_grad_scratch(|s| s.borrow_mut().pop()).unwrap_or_default();
        grads.clear();
        grads.resize_with(self.nodes.len(), || None);
        if !wants(root) {
            return GradientsBase { grads };
        }
        grads[root.0] = Some(seed);

        let mut sink = GradSink {
            grads: &mut grads,
            wants,
        };
        for idx in (lo..=root.0).rev() {
            if !steps(idx) {
                continue;
            }
            let Some(g) = sink.grads[idx].take() else {
                continue;
            };
            // Re-store: callers may want gradients of interior nodes too.
            let node = &self.nodes[idx];
            let _t = cf_obs::span!(node.op.bwd_kind(), flops = 2 * self.op_flops(&node.op));
            self.propagate(&node.op, &g, idx, &mut sink);
            sink.grads[idx] = Some(g);
        }
        GradientsBase { grads }
    }

    fn propagate<W: Fn(VarId) -> bool>(
        &self,
        op: &Op<E>,
        g: &TensorBase<E>,
        idx: usize,
        sink: &mut GradSink<'_, E, W>,
    ) {
        match op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                sink.accumulate_scaled(*a, 1.0, g);
                sink.accumulate_scaled(*b, 1.0, g);
            }
            Op::Sub(a, b) => {
                sink.accumulate_scaled(*a, 1.0, g);
                sink.accumulate_scaled(*b, -1.0, g);
            }
            Op::Mul(a, b) => {
                sink.accumulate_mul(*a, g, self.value(*b));
                sink.accumulate_mul(*b, g, self.value(*a));
            }
            Op::AddRowVector(m, bias) => {
                sink.accumulate_scaled(*m, 1.0, g);
                if sink.wants(*bias) {
                    // Column sums of g.
                    let (r, c) = (g.shape()[0], g.shape()[1]);
                    let mut gb = TensorBase::zeros(&[c]);
                    {
                        let gd = g.data();
                        let gbd = gb.data_mut();
                        for i in 0..r {
                            for (bj, &gv) in gbd.iter_mut().zip(&gd[i * c..(i + 1) * c]) {
                                *bj += gv;
                            }
                        }
                    }
                    sink.accumulate(*bias, gb);
                }
            }
            Op::MulRowVector(m, v) => {
                let (r, c) = (g.shape()[0], g.shape()[1]);
                if sink.wants(*m) {
                    let vv = self.value(*v);
                    let mut gm = g.clone();
                    {
                        let vd = vv.data();
                        let gmd = gm.data_mut();
                        for i in 0..r {
                            for j in 0..c {
                                gmd[i * c + j] *= vd[j];
                            }
                        }
                    }
                    sink.accumulate(*m, gm);
                }
                if sink.wants(*v) {
                    let mv = self.value(*m);
                    let mut gv = TensorBase::zeros(&[c]);
                    {
                        let gd = g.data();
                        let md = mv.data();
                        let gvd = gv.data_mut();
                        for i in 0..r {
                            for j in 0..c {
                                gvd[j] += gd[i * c + j] * md[i * c + j];
                            }
                        }
                    }
                    sink.accumulate(*v, gv);
                }
            }
            Op::Scale(a, alpha) => sink.accumulate_scaled(*a, *alpha, g),
            Op::MatMul(a, b) => {
                // y = a·b : da = g·bᵀ, db = aᵀ·g — each written in place
                // into a pooled zeroed buffer of the parent's shape.
                sink.accumulate_into(*a, self.value(*a).shape(), |da| {
                    g.matmul_nt_into(self.value(*b), da)
                });
                sink.accumulate_into(*b, self.value(*b).shape(), |db| {
                    self.value(*a).matmul_tn_into(g, db)
                });
            }
            Op::MatMulNT(a, b) => {
                // y = a·bᵀ : da = g·b, db = gᵀ·a
                sink.accumulate_into(*a, self.value(*a).shape(), |da| {
                    g.matmul_into(self.value(*b), da)
                });
                sink.accumulate_into(*b, self.value(*b).shape(), |db| {
                    g.matmul_tn_into(self.value(*a), db)
                });
            }
            Op::SoftmaxRows(a) => {
                // ds = (g − Σ_j g·s per row) ⊙ s
                let s = &self.nodes[idx].value;
                let (r, c) = (s.shape()[0], s.shape()[1]);
                sink.accumulate_into(*a, &[r, c], |out| {
                    let od = out.data_mut();
                    for i in 0..r {
                        let srow = s.row(i);
                        let grow = g.row(i);
                        // Sequential ascending accumulation from zero: the
                        // f64 dot_from policy, bitwise equal to the previous
                        // `iter().zip().map().sum()` fold.
                        let dot = E::dot_from(E::ZERO, srow, grow);
                        let orow = &mut od[i * c..(i + 1) * c];
                        for j in 0..c {
                            orow[j] = (grow[j] - dot) * srow[j];
                        }
                    }
                });
            }
            Op::LeakyRelu(a, slope) => {
                let x = self.value(*a);
                let s = E::from_f64(*slope);
                let gx = g.zip_map(x, |gv, xv| if xv >= E::ZERO { gv } else { gv * s });
                sink.accumulate(*a, gx);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[idx].value;
                sink.accumulate(*a, g.zip_map(y, |gv, yv| gv * (E::ONE - yv * yv)));
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[idx].value;
                sink.accumulate(*a, g.zip_map(y, |gv, yv| gv * yv * (E::ONE - yv)));
            }
            Op::Square(a) => {
                let x = self.value(*a);
                let two = E::from_f64(2.0);
                sink.accumulate(*a, g.zip_map(x, |gv, xv| gv * two * xv));
            }
            Op::MulConst(a, c) => sink.accumulate_mul(*a, g, c),
            Op::SumAll(a) => {
                let val = TensorBase::full(self.value(*a).shape(), g.item());
                sink.accumulate(*a, val);
            }
            Op::MeanAll(a) => {
                let n = self.value(*a).len() as f64;
                let val = TensorBase::full(self.value(*a).shape(), g.item() / n);
                sink.accumulate(*a, val);
            }
            Op::L1(a) => {
                let x = self.value(*a);
                let gi = E::from_f64(g.item());
                sink.accumulate(*a, x.map(|v| gi * v.signum()));
            }
            Op::ScaleByElem { x, w, idx: wi } => {
                let weight = self.value(*w).data()[*wi].to_f64();
                if sink.wants(*x) {
                    sink.accumulate_scaled(*x, weight, g);
                }
                if sink.wants(*w) {
                    let mut gw = TensorBase::zeros(self.value(*w).shape());
                    let dot = g.mul(self.value(*x)).sum();
                    gw.data_mut()[*wi] = E::from_f64(dot);
                    sink.accumulate(*w, gw);
                }
            }
            Op::CausalConv { x, kernel } => {
                sink.accumulate_into(*x, self.value(*x).shape(), |gx| {
                    ops::causal_conv_backward_x_into(self.value(*kernel), g, gx)
                });
                sink.accumulate_into(*kernel, self.value(*kernel).shape(), |gk| {
                    ops::causal_conv_backward_kernel_into(self.value(*x), g, gk)
                });
            }
            Op::SelfShift(a) => sink.accumulate(*a, ops::self_shift_backward(g)),
            Op::TilePairs(a) => {
                // Sum gradients over the tiled (target) axis.
                let (n, t_len) = (g.shape()[0], g.shape()[2]);
                let mut gx = TensorBase::zeros(&[n, t_len]);
                {
                    let gd = g.data();
                    let gxd = gx.data_mut();
                    for i in 0..n {
                        let gxrow = &mut gxd[i * t_len..(i + 1) * t_len];
                        for j in 0..n {
                            let grow = &gd[(i * n + j) * t_len..(i * n + j + 1) * t_len];
                            for (o, &gv) in gxrow.iter_mut().zip(grow) {
                                *o += gv;
                            }
                        }
                    }
                }
                sink.accumulate(*a, gx);
            }
            Op::AttnApply { attn, v } => {
                sink.accumulate_into(*attn, self.value(*attn).shape(), |ga| {
                    ops::attn_apply_backward_attn_into(self.value(*v), g, ga)
                });
                sink.accumulate_into(*v, self.value(*v).shape(), |gv| {
                    ops::attn_apply_backward_v_into(self.value(*attn), g, gv)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference check: builds the graph twice per perturbed input
    /// element and compares the numeric directional derivative against the
    /// analytic gradient.
    fn gradcheck<F>(inputs: &[Tensor], f: F)
    where
        F: Fn(&mut Tape, &[VarId]) -> VarId,
    {
        let eps = 1e-6;
        let tol = 1e-4;

        // Analytic gradients.
        let mut tape = Tape::new();
        let ids: Vec<VarId> = inputs.iter().map(|t| tape.leaf(t.clone(), true)).collect();
        let root = f(&mut tape, &ids);
        let grads = tape.backward(root);
        let base = tape.value(root).item();

        for (which, input) in inputs.iter().enumerate() {
            let analytic = grads
                .get(ids[which])
                .unwrap_or_else(|| panic!("missing grad for input {which}"));
            for e in 0..input.len() {
                let mut perturbed: Vec<Tensor> = inputs.to_vec();
                perturbed[which].data_mut()[e] += eps;
                let mut tape2 = Tape::new();
                let ids2: Vec<VarId> = perturbed
                    .iter()
                    .map(|t| tape2.leaf(t.clone(), true))
                    .collect();
                let root2 = f(&mut tape2, &ids2);
                let numeric = (tape2.value(root2).item() - base) / eps;
                let a = analytic.data()[e];
                assert!(
                    (numeric - a).abs() < tol * (1.0 + a.abs()),
                    "input {which} elem {e}: numeric {numeric} vs analytic {a}"
                );
            }
        }
    }

    fn rand_t(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        crate::init::uniform(&mut rng, shape, -1.0, 1.0)
    }

    #[test]
    fn gradcheck_add_sub_mul() {
        let a = rand_t(&[3, 4], 1);
        let b = rand_t(&[3, 4], 2);
        gradcheck(&[a.clone(), b.clone()], |t, ids| {
            let s = t.add(ids[0], ids[1]);
            let d = t.sub(s, ids[1]);
            let m = t.mul(d, ids[1]);
            t.sum_all(m)
        });
    }

    #[test]
    fn gradcheck_matmul() {
        let a = rand_t(&[3, 4], 3);
        let b = rand_t(&[4, 2], 4);
        gradcheck(&[a, b], |t, ids| {
            let y = t.matmul(ids[0], ids[1]);
            t.sum_all(y)
        });
    }

    #[test]
    fn gradcheck_matmul_nt() {
        let a = rand_t(&[3, 4], 5);
        let b = rand_t(&[2, 4], 6);
        gradcheck(&[a, b], |t, ids| {
            let y = t.matmul_nt(ids[0], ids[1]);
            let sq = t.square(y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_softmax() {
        let a = rand_t(&[3, 5], 7);
        let w = rand_t(&[3, 5], 8);
        gradcheck(&[a, w], |t, ids| {
            let s = t.softmax_rows(ids[0]);
            let weighted = t.mul(s, ids[1]);
            t.sum_all(weighted)
        });
    }

    #[test]
    fn gradcheck_activations() {
        let a = rand_t(&[4, 4], 9);
        gradcheck(std::slice::from_ref(&a), |t, ids| {
            let l = t.leaky_relu(ids[0], 0.01);
            let th = t.tanh(l);
            let sg = t.sigmoid(th);
            t.sum_all(sg)
        });
    }

    #[test]
    fn gradcheck_bias_broadcast() {
        let m = rand_t(&[3, 4], 10);
        let b = rand_t(&[4], 11);
        gradcheck(&[m, b], |t, ids| {
            let y = t.add_row_vector(ids[0], ids[1]);
            let sq = t.square(y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_mean_and_scale() {
        let a = rand_t(&[2, 6], 12);
        gradcheck(&[a], |t, ids| {
            let s = t.scale(ids[0], 2.5);
            t.mean_all(s)
        });
    }

    #[test]
    fn gradcheck_l1() {
        // Keep elements away from zero where |·| is non-differentiable.
        let a = rand_t(&[3, 3], 13).map(|v| if v.abs() < 0.1 { 0.5 } else { v });
        gradcheck(&[a], |t, ids| t.l1(ids[0]));
    }

    #[test]
    fn gradcheck_scale_by_elem() {
        let x = rand_t(&[2, 3], 14);
        let w = rand_t(&[4], 15);
        gradcheck(&[x, w], |t, ids| {
            let y0 = t.scale_by_elem(ids[0], ids[1], 0);
            let y2 = t.scale_by_elem(ids[0], ids[1], 2);
            let s = t.add(y0, y2);
            t.sum_all(s)
        });
    }

    #[test]
    fn gradcheck_causal_conv_and_shift() {
        let x = rand_t(&[2, 4], 16);
        let k = rand_t(&[2, 2, 4], 17);
        gradcheck(&[x, k], |t, ids| {
            let c = t.causal_conv(ids[0], ids[1]);
            let sh = t.self_shift(c);
            let sq = t.square(sh);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_mul_row_vector() {
        let m = rand_t(&[3, 4], 28);
        let v = rand_t(&[4], 29);
        gradcheck(&[m, v], |t, ids| {
            let y = t.mul_row_vector(ids[0], ids[1]);
            let sq = t.square(y);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_tile_pairs() {
        let x = rand_t(&[3, 4], 26);
        let w = rand_t(&[3, 3, 4], 27);
        gradcheck(&[x, w], |t, ids| {
            let tiled = t.tile_pairs(ids[0]);
            let prod = t.mul(tiled, ids[1]);
            t.sum_all(prod)
        });
    }

    #[test]
    fn tile_pairs_replicates_rows() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        let y = tape.tile_pairs(x);
        let v = tape.value(y);
        assert_eq!(v.shape(), &[2, 2, 2]);
        for j in 0..2 {
            assert_eq!(v.get3(0, j, 0), 1.0);
            assert_eq!(v.get3(0, j, 1), 2.0);
            assert_eq!(v.get3(1, j, 0), 3.0);
        }
    }

    #[test]
    fn gradcheck_attn_apply() {
        let attn_logits = rand_t(&[3, 3], 18);
        let v = rand_t(&[3, 3, 4], 19);
        gradcheck(&[attn_logits, v], |t, ids| {
            let a = t.softmax_rows(ids[0]);
            let out = t.attn_apply(a, ids[1]);
            let sq = t.square(out);
            t.sum_all(sq)
        });
    }

    #[test]
    fn gradcheck_full_mini_transformer_block() {
        // A miniature end-to-end slice of the causality-aware transformer:
        // embed → QK attention (masked, temperature) → conv values → output.
        let x = rand_t(&[3, 4], 20);
        let w_emb = rand_t(&[4, 5], 21);
        let wq = rand_t(&[5, 5], 22);
        let wk = rand_t(&[5, 5], 23);
        let mask = rand_t(&[3, 3], 24);
        let kernel = rand_t(&[3, 3, 4], 25);
        gradcheck(&[x, w_emb, wq, wk, mask, kernel], |t, ids| {
            let (x, w_emb, wq, wk, mask, kernel) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
            let emb = t.matmul(x, w_emb);
            let q = t.matmul(emb, wq);
            let k = t.matmul(emb, wk);
            let scores = t.matmul_nt(q, k);
            let scaled = t.scale(scores, 1.0 / (5.0f64).sqrt());
            let masked = t.mul(scaled, mask);
            let attn = t.softmax_rows(masked);
            let conv = t.causal_conv(x, kernel);
            let shifted = t.self_shift(conv);
            let out = t.attn_apply(attn, shifted);
            let sq = t.square(out);
            t.mean_all(sq)
        });
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::ones(&[2, 2]));
        let p = tape.leaf(Tensor::ones(&[2, 2]), true);
        let y = tape.mul(c, p);
        let s = tape.sum_all(y);
        let grads = tape.backward(s);
        assert!(grads.get(c).is_none());
        assert!(grads.get(p).is_some());
    }

    #[test]
    fn gradient_accumulates_over_shared_subexpression() {
        // y = x + x  ⇒ dy/dx = 2
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0), true);
        let y = tape.add(x, x);
        let grads = tape.backward(y);
        assert_eq!(grads.expect(x, "x").item(), 2.0);
    }

    #[test]
    fn backward_with_seed_selects_rows() {
        // Seeding row 1 only: gradients must flow only from that row.
        let mut tape = Tape::new();
        let x = tape.leaf(
            Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
            true,
        );
        let y = tape.square(x);
        let mut seed = Tensor::zeros(&[2, 2]);
        seed.set2(1, 0, 1.0);
        seed.set2(1, 1, 1.0);
        let grads = tape.backward_with_seed(y, seed);
        let gx = grads.expect(x, "x");
        assert_eq!(gx.data(), &[0.0, 0.0, 6.0, 8.0]);
    }

    #[test]
    fn backward_to_matches_full_backward_at_the_cut_and_skips_the_rest() {
        let mut tape = Tape::new();
        let x = tape.constant(rand_t(&[3, 4], 40));
        let w_below = tape.leaf(rand_t(&[4, 3], 41), true);
        let h = tape.matmul(x, w_below);
        let a = tape.softmax_rows(h);
        let w_above = tape.leaf(rand_t(&[3, 3], 42), true);
        let y1 = tape.matmul(a, w_above);
        let y2 = tape.mul(a, a);
        let y = tape.add(y1, y2);
        let root = tape.tanh(y);
        let seed = rand_t(&[3, 3], 43);
        let full = tape.backward_with_seed(root, seed.clone());
        // One cut node, and two where one lies above the other: the lower
        // one must still collect every path through the upper one.
        for cut in [vec![a], vec![h, y1]] {
            let part = tape.backward_to(root, seed.clone(), &cut);
            for &c in &cut {
                let (p, f) = (part.expect(c, "cut"), full.expect(c, "cut"));
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(p), bits(f), "cut node {c:?}");
            }
            for p in [w_below, w_above, x] {
                assert!(part.get(p).is_none(), "{p:?} got a gradient");
            }
        }
        let part = tape.backward_to(root, seed, &[a]);
        assert!(part.get(h).is_none(), "walk went below the cut");
        assert!(part.get(y).is_some());
    }

    #[test]
    #[should_panic(expected = "scalar root")]
    fn backward_rejects_non_scalar_root() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2, 2]), true);
        let _ = tape.backward(x);
    }

    #[test]
    fn profiling_captures_forward_and_backward_ops() {
        let _run = cf_obs::Recorder::new().enter();
        cf_obs::span::set_op_detail(true);
        {
            let mut tape = Tape::new();
            let a = tape.leaf(rand_t(&[4, 6], 30), true);
            let b = tape.leaf(rand_t(&[6, 4], 31), true);
            let y = tape.matmul(a, b);
            let th = tape.tanh(y);
            let loss = tape.sum_all(th);
            let _ = tape.backward(loss);
        }
        let snap = cf_obs::span::ops();
        let stats = |kind: &str| {
            snap.iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| panic!("no profile entry for {kind}"))
        };
        let fwd = stats("matmul");
        assert!(fwd.count >= 1);
        // matmul 4×6 · 6×4 = 192 FLOPs per execution.
        assert!(fwd.flops >= 192, "matmul flops {}", fwd.flops);
        let bwd = stats("bwd.matmul");
        assert!(bwd.count >= 1);
        assert!(stats("bwd.tanh").count >= 1);
        assert!(stats("bwd.sum_all").count >= 1);
    }

    #[test]
    fn reset_reuses_node_storage_and_matches_fresh_tape() {
        // The same computation recorded on a reset tape must produce the
        // same VarIds, values, and gradients as on a fresh tape.
        let a_t = rand_t(&[4, 3], 40);
        let b_t = rand_t(&[3, 4], 41);
        let run = |tape: &mut Tape| {
            let a = tape.leaf(a_t.clone(), true);
            let b = tape.leaf(b_t.clone(), true);
            let y = tape.matmul(a, b);
            let s = tape.softmax_rows(y);
            let loss = tape.mean_all(s);
            let grads = tape.backward(loss);
            (
                a,
                grads.expect(a, "a").clone(),
                grads.expect(b, "b").clone(),
            )
        };
        let mut fresh = Tape::new();
        let (id_fresh, ga_fresh, gb_fresh) = run(&mut fresh);

        let mut reused = Tape::new();
        // Pollute with an unrelated recording, then reset.
        let junk = reused.leaf(rand_t(&[7, 7], 42), true);
        let junk2 = reused.square(junk);
        let junk3 = reused.sum_all(junk2);
        let _ = reused.backward(junk3);
        reused.reset();
        assert!(reused.is_empty());
        let (id_reused, ga_reused, gb_reused) = run(&mut reused);
        assert_eq!(id_fresh, id_reused, "VarIds must restart from zero");
        assert_eq!(ga_fresh, ga_reused);
        assert_eq!(gb_fresh, gb_reused);
    }

    #[test]
    fn with_pooled_tape_hands_out_an_empty_tape_and_nests() {
        let outer = with_pooled_tape(|tape: &mut Tape| {
            assert!(tape.is_empty());
            let x = tape.leaf(Tensor::scalar(2.0), true);
            let y = tape.square(x);
            let inner = with_pooled_tape(|tape2: &mut Tape| {
                assert!(tape2.is_empty());
                let a = tape2.leaf(Tensor::scalar(5.0), true);
                let s = tape2.square(a);
                tape2.value(s).item()
            });
            let grads = tape.backward(y);
            (tape.value(y).item(), grads.expect(x, "x").item(), inner)
        });
        assert_eq!(outer, (4.0, 4.0, 25.0));
        // The tape went back to the per-thread pool; the next use must see
        // it empty again.
        with_pooled_tape(|tape: &mut Tape| assert!(tape.is_empty()));
    }

    #[test]
    fn gradients_take_moves_and_leaves_none() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_slice(&[1.0, 2.0]), true);
        let y = tape.square(x);
        let s = tape.sum_all(y);
        let mut grads = tape.backward(s);
        let gx = grads.take(x).expect("gradient present");
        assert_eq!(gx.data(), &[2.0, 4.0]);
        assert!(grads.get(x).is_none(), "take must leave the slot empty");
        assert!(grads.take(x).is_none());
    }

    #[test]
    fn mse_loss_composition_matches_closed_form() {
        // loss = mean((pred − target)²) via tape ops; compare to direct
        // computation and check the gradient 2(pred−target)/n.
        let pred_t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let target_t = Tensor::from_slice(&[0.0, 2.0, 5.0]);
        let mut tape = Tape::new();
        let pred = tape.leaf(pred_t.clone(), true);
        let target = tape.constant(target_t.clone());
        let diff = tape.sub(pred, target);
        let sq = tape.square(diff);
        let loss = tape.mean_all(sq);
        assert!((tape.value(loss).item() - (1.0 + 0.0 + 4.0) / 3.0).abs() < 1e-12);
        let grads = tape.backward(loss);
        let g = grads.expect(pred, "pred");
        for i in 0..3 {
            let expected = 2.0 * (pred_t.data()[i] - target_t.data()[i]) / 3.0;
            assert!((g.data()[i] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn f32_tape_trains_a_quadratic_toward_zero() {
        // Minimal end-to-end sanity for the f32 tape: gradient-descent on
        // loss = mean(x²) shrinks x.
        let mut x = TensorBase::<f32>::from_f64_tensor(&Tensor::from_slice(&[2.0, -3.0]));
        for _ in 0..50 {
            let mut tape = TapeBase::<f32>::new();
            let xv = tape.leaf(x.clone(), true);
            let sq = tape.square(xv);
            let loss = tape.mean_all(sq);
            let grads = tape.backward(loss);
            let g = grads.expect(xv, "x");
            x.axpy(-0.5, g);
        }
        assert!(x.data().iter().all(|v| v.abs() < 1e-3), "{:?}", x.data());
    }

    #[test]
    fn f32_backward_matches_f64_within_tolerance() {
        // The same mini transformer block on both dtypes: f32 gradients must
        // track the f64 reference.
        let x64 = rand_t(&[3, 4], 50);
        let k64 = rand_t(&[3, 3, 4], 51);
        let run_f64 = {
            let mut tape = Tape::new();
            let x = tape.leaf(x64.clone(), true);
            let k = tape.leaf(k64.clone(), true);
            let c = tape.causal_conv(x, k);
            let sh = tape.self_shift(c);
            let sq = tape.square(sh);
            let loss = tape.mean_all(sq);
            let grads = tape.backward(loss);
            grads.expect(k, "k").clone()
        };
        let run_f32 = {
            let mut tape = TapeBase::<f32>::new();
            let x = tape.leaf(TensorBase::<f32>::from_f64_tensor(&x64), true);
            let k = tape.leaf(TensorBase::<f32>::from_f64_tensor(&k64), true);
            let c = tape.causal_conv(x, k);
            let sh = tape.self_shift(c);
            let sq = tape.square(sh);
            let loss = tape.mean_all(sq);
            let grads = tape.backward(loss);
            grads.expect(k, "k").to_f64_tensor()
        };
        for (a, b) in run_f64.data().iter().zip(run_f32.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
