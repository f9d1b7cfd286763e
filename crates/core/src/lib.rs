//! # CausalFormer
//!
//! A from-scratch Rust implementation of **CausalFormer: An Interpretable
//! Transformer for Temporal Causal Discovery** (Kong et al., ICDE 2025).
//!
//! CausalFormer discovers the temporal causal graph of a set of time series
//! in two stages:
//!
//! 1. the [**causality-aware transformer**](model::CausalityAwareTransformer)
//!    is trained on a self-prediction task under the temporal-priority
//!    constraint, using a multi-kernel causal convolution (one learnable
//!    kernel per series pair) and multi-variate causal attention with
//!    learnable masks;
//! 2. the [**decomposition-based causality detector**](detector) interprets
//!    the *whole* trained model — not just attention weights — via
//!    regression relevance propagation ([`rrp`]) modulated by gradients,
//!    then k-means-thresholds the causal scores into a delay-annotated
//!    [`CausalGraph`](cf_metrics::CausalGraph).
//!
//! The easiest entry point is the [`CausalFormer`] pipeline with a preset:
//!
//! ```
//! use causalformer::{presets, CausalFormer};
//! use cf_data::synthetic::{generate, Structure};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let data = generate(&mut rng, Structure::Fork, 200);
//! let mut cf = presets::synthetic_sparse(3);
//! cf.model.window = 8;           // small & quick for the doctest
//! cf.model.d_model = 8;
//! cf.model.d_qk = 8;
//! cf.model.d_ffn = 8;
//! cf.train.max_epochs = 2;
//! let result = cf.discover(&mut rng, &data.series);
//! assert_eq!(result.graph.num_series(), 3);
//! ```
//!
//! The same pipeline streams a chunked on-disk store with
//! [`CausalFormer::discover_store`], and checkpoints and resumes training
//! from either source ([`Windows`]) with
//! [`CausalFormer::discover_resumable`]. Every [`DiscoveryResult`] carries
//! the model it trained ([`DiscoveredModel`]), ready to
//! [`save`](DiscoveredModel::save).

// Numeric kernels in this workspace use explicit index loops on purpose:
// the indices mirror the paper's subscripts (i, j, t, τ, u) and several
// co-indexed buffers are updated per iteration, which iterator chains
// would obscure.
#![allow(clippy::needless_range_loop)]

pub mod checkpoint;
pub mod config;
pub mod detector;
pub mod diag;
pub mod model;
pub mod persist;
pub mod pipeline;
pub mod rrp;
pub mod trainer;

pub use checkpoint::{CheckpointConfig, CheckpointError};
pub use config::{DetectorConfig, DetectorMode, ModelConfig, TrainConfig};
pub use detector::{detect, CausalScores};
pub use model::{CausalityAwareTransformer, ForwardTrace};
pub use pipeline::{
    effective_stride, presets, CausalFormer, DiscoveredModel, DiscoveryResult, StreamError,
    StreamOptions, Windows,
};
pub use trainer::{train, TrainError, TrainReport, TrainedModel, TrainedModelBase, Trainer};

pub use cf_tensor::Dtype;
