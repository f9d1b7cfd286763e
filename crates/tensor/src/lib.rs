//! # cf-tensor
//!
//! Dense tensors and reverse-mode automatic differentiation, built from
//! scratch as the numeric substrate for the CausalFormer reproduction.
//!
//! The crate has three layers:
//!
//! * [`Scalar`] — the sealed element-type trait (`f32`/`f64`), with the
//!   runtime [`Dtype`] selector. Each dtype carries its own accumulation
//!   policy for the dot-product microkernel (sequential and bitwise-pinned
//!   for `f64`, multi-lane SIMD for `f32`) and its own pooled storage.
//! * [`TensorBase`] — a row-major, heap-allocated n-dimensional array,
//!   generic over the element type; [`Tensor`] is the `f64` alias that
//!   keeps the historical API. Shape errors panic with a descriptive
//!   message (they are programming errors, not runtime conditions);
//!   fallible construction from user data goes through
//!   [`Tensor::from_vec`] which returns a [`TensorError`].
//! * [`TapeBase`] / [`Tape`] — a define-by-run reverse-mode autodiff tape.
//!   Every operation appends a node holding its output value and an
//!   explicit [`Op`] descriptor; [`Tape::backward`] walks the nodes in
//!   reverse and accumulates gradients. The op set includes the custom
//!   primitives the paper requires: the multi-kernel *causal convolution*
//!   (Eq. 3), the *self-shift* that hides a series' own current value from
//!   its prediction (Eq. 4), the *multi-variate attention application*
//!   `A[i,t] = Σ_j 𝒜[i,j]·V[j,i,t]` (Eq. 6), and per-head scalar
//!   combination (Eq. 7).
//!
//! Keeping the op set explicit (an enum rather than boxed closures) makes
//! every backward rule unit-testable against finite differences — see
//! `tests/gradcheck.rs` style tests in `tape::tests`.
//!
//! ```
//! use cf_tensor::{Tensor, Tape};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap(), true);
//! let y = tape.mul(x, x);        // elementwise square
//! let s = tape.sum_all(y);       // scalar
//! let grads = tape.backward(s);
//! // d(Σ x²)/dx = 2x
//! assert_eq!(grads.get(x).unwrap().data(), &[2.0, 4.0, 6.0, 8.0]);
//! ```

// Numeric kernels in this workspace use explicit index loops on purpose:
// the indices mirror the paper's subscripts (i, j, t, τ, u) and several
// co-indexed buffers are updated per iteration, which iterator chains
// would obscure.
#![allow(clippy::needless_range_loop)]
// The AVX2 kernels (`kernels`) are the crate's only `unsafe` code; each
// block states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

mod error;
mod init;
pub mod kernels;
pub mod ops;
pub mod pool;
pub mod rngstate;
mod scalar;
mod tape;
mod tensor;

pub use error::TensorError;
pub use init::{he_normal, uniform, xavier_uniform};
pub use rngstate::{capture_rng, restore_rng};
pub use scalar::{Dtype, Scalar, ScratchStack};
pub use tape::{with_pooled_tape, Gradients, GradientsBase, Op, Tape, TapeBase, VarId};
pub use tensor::{Tensor, TensorBase};
