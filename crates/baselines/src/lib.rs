//! # cf-baselines
//!
//! The five baseline temporal causal discovery methods of the paper's
//! Table 1, re-implemented from scratch on the `cf-tensor`/`cf-nn`
//! substrate:
//!
//! * [`Cmlp`] — component-wise MLP neural Granger causality (Tank et al.
//!   \[31\]): one MLP per target over lagged inputs, group-sparse penalty on
//!   the input layer; causal scores are input-group norms, delays come from
//!   the strongest lag group.
//! * [`Clstm`] — component-wise LSTM neural Granger causality \[31\]: one
//!   LSTM per target, group-sparse penalty on the input projections; no
//!   delay output (matching the paper's Table 2, which omits cLSTM).
//! * [`Tcdf`] — the Temporal Causal Discovery Framework (Nauta et al.
//!   \[10\]): attention-gated causal convolutions per target; causes are
//!   selected with TCDF's largest-gap rule on sorted attention scores and
//!   delays read from the convolution kernels.
//! * [`Dvgnn`] — DVGNN-lite \[49\]: a learned dense adjacency (edge
//!   probabilities) driving a two-lag graph predictor; the paper applies
//!   k-means to its edge scores, as do we. No delay output.
//! * [`Cuts`] — CUTS-lite \[50\]: per-edge multiplicative gates on lagged
//!   inputs of per-target MLPs with a sparsity penalty; k-means on the
//!   learned gates. No delay output.
//!
//! The `-lite` qualifiers are deliberate and documented in DESIGN.md §2:
//! each re-implementation keeps the component that *produces the causal
//! scores* and drops machinery that does not bind on our regular,
//! fully-observed benchmark data (DVGNN's diffusion decoder, CUTS's
//! missing-data imputation).
//!
//! All methods implement [`Discoverer`], the common interface the
//! experiment harness fans out over.

// Numeric kernels in this workspace use explicit index loops on purpose:
// the indices mirror the paper's subscripts (i, j, t, τ, u) and several
// co-indexed buffers are updated per iteration, which iterator chains
// would obscure.
#![allow(clippy::needless_range_loop)]

mod clstm;
mod cmlp;
mod common;
mod cuts;
mod dvgnn;
mod dynotears;
mod pcmci_lite;
mod tcdf;
mod var_granger;

pub use clstm::{Clstm, ClstmConfig};
pub use cmlp::{Cmlp, CmlpConfig};
pub use common::largest_gap_threshold;
pub use cuts::{Cuts, CutsConfig};
pub use dvgnn::{Dvgnn, DvgnnConfig};
pub use dynotears::{Dynotears, DynotearsConfig};
pub use pcmci_lite::{Pcmci, PcmciConfig};
pub use tcdf::{Tcdf, TcdfConfig};
pub use var_granger::{VarGranger, VarGrangerConfig};

use cf_metrics::CausalGraph;
use cf_tensor::Tensor;
use rand::RngCore;

/// A temporal causal discovery method: series in, causal graph out.
///
/// Takes `&mut dyn RngCore` (rather than a generic) so heterogeneous method
/// collections can be iterated by the experiment harness.
pub trait Discoverer {
    /// Short method name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Discovers the causal graph of an `N×L` series matrix.
    fn discover(&self, rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph;

    /// Whether the method annotates edges with causal delays (Table 2 only
    /// compares methods that do).
    fn outputs_delays(&self) -> bool {
        false
    }
}
