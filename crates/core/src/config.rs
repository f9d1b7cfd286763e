//! Configuration types for the model, the trainer, and the detector.

use cf_tensor::Dtype;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of the causality-aware transformer
/// (paper §4.1 and the per-dataset settings of §5.3).
///
/// Saved models and checkpoints store it as a JSON object with these field
/// names in this order, so renaming or reordering a field changes both
/// file formats (`tests/checkpoint_fixtures.rs` pins the checkpoint one).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Number of time series `N`.
    pub n_series: usize,
    /// Observation window length `T`.
    pub window: usize,
    /// Embedding dimension `d` (paper uses 256–512; defaults here are
    /// scaled for CPU training — see DESIGN.md §2).
    pub d_model: usize,
    /// Query/key projection dimension `d_QK`.
    pub d_qk: usize,
    /// Feed-forward hidden dimension `d_FFN`.
    pub d_ffn: usize,
    /// Number of attention heads `h`.
    pub heads: usize,
    /// Softmax temperature `τ` (paper Eq. 6).
    pub temperature: f64,
    /// L1 coefficient `λ_𝒦` on the causal convolution kernels (Eq. 9).
    pub lambda_kernel: f64,
    /// L1 coefficient `λ_M` on the attention masks (Eq. 9).
    pub lambda_mask: f64,
    /// Lag-decay penalty `λ_lag` on the convolution kernels — the paper's
    /// stated future-work direction (§5.4): "the constraint or penalty on
    /// the causal convolution process is worth exploring to improve the
    /// PoD". Each tap is L1-penalised proportionally to the lag it touches
    /// (`(T−1−u)·|𝒦[·,·,u]|`), so long-lag taps must earn their weight —
    /// the hierarchical-penalty idea that makes cMLP's delays precise.
    /// `0` (the default) reproduces the paper's published model.
    pub lambda_lag: f64,
    /// Negative slope of the feed-forward leaky ReLU.
    pub leaky_slope: f64,
    /// `true` enables the "w/o multi conv kernel" ablation: one kernel per
    /// *source* series shared across all targets instead of one per pair
    /// (paper §5.5).
    pub single_kernel: bool,
}

impl ModelConfig {
    /// A compact configuration for `n_series` series and window `T`,
    /// suitable for CPU training. Mirrors the paper's synthetic-dataset
    /// settings with `d` scaled down.
    pub fn compact(n_series: usize, window: usize) -> Self {
        Self {
            n_series,
            window,
            d_model: 32,
            d_qk: 32,
            d_ffn: 32,
            heads: 2,
            temperature: 1.0,
            lambda_kernel: 1e-4,
            lambda_mask: 1e-4,
            lambda_lag: 0.0,
            leaky_slope: 0.01,
            single_kernel: false,
        }
    }

    /// Checks internal consistency, naming the first constraint that
    /// fails. Code that reads a config from outside (a model file) maps the
    /// error to its own; [`Self::validate`] panics on it.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.n_series >= 1, "need at least one series"),
            (self.window >= 2, "window must cover at least two slots"),
            (
                self.d_model >= 1 && self.d_qk >= 1 && self.d_ffn >= 1,
                "dimensions must be positive",
            ),
            (self.heads >= 1, "need at least one attention head"),
            (self.temperature > 0.0, "temperature must be positive"),
            (
                self.lambda_kernel >= 0.0 && self.lambda_mask >= 0.0 && self.lambda_lag >= 0.0,
                "L1 coefficients must be non-negative",
            ),
        ];
        match rules.into_iter().find(|(ok, _)| !ok) {
            Some((_, msg)) => Err(msg.to_string()),
            None => Ok(()),
        }
    }

    /// Validates internal consistency; call before building a model.
    ///
    /// # Panics
    /// Panics with [`Self::check`]'s message on an inconsistent config.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

/// Training hyper-parameters (paper §5.3: Adam with early stopping).
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub max_epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Windows per gradient step.
    pub batch_size: usize,
    /// Early-stopping patience in epochs (monitoring validation loss).
    pub patience: usize,
    /// Minimum improvement to reset patience.
    pub min_delta: f64,
    /// Global gradient-norm clip.
    pub clip_norm: f64,
    /// Fraction of windows held out for validation (temporal tail).
    pub val_frac: f64,
    /// Stride between consecutive training windows.
    pub stride: usize,
    /// Multiplicative learning-rate decay applied after each epoch
    /// (1.0 = constant rate).
    pub lr_decay: f64,
    /// How many consecutive rollback-and-retry attempts a non-finite
    /// loss/gradient may trigger before the trainer gives up on further
    /// progress and returns the best weights found so far (see
    /// DESIGN.md, "Fault tolerance").
    pub max_retries: usize,
    /// Element type of the compute backend. [`Dtype::F64`] (the default)
    /// reproduces the historical bitwise-deterministic path; [`Dtype::F32`]
    /// trains in single precision (≈2× faster on the SIMD microkernels)
    /// with f64 accumulation in reductions. Dispatch happens at the
    /// pipeline/CLI boundary — the generic training loop itself is
    /// monomorphised over the scalar type this selects.
    pub dtype: Dtype,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            max_epochs: 60,
            lr: 5e-3,
            batch_size: 8,
            patience: 8,
            min_delta: 1e-5,
            clip_norm: 5.0,
            val_frac: 0.2,
            stride: 4,
            lr_decay: 1.0,
            max_retries: 2,
            dtype: Dtype::F64,
        }
    }
}

impl TrainConfig {
    /// Validates internal consistency.
    pub fn validate(&self) {
        assert!(self.max_epochs >= 1);
        assert!(self.lr > 0.0);
        assert!(self.batch_size >= 1);
        assert!((0.0..1.0).contains(&self.val_frac));
        assert!(self.stride >= 1);
        assert!(self.clip_norm > 0.0);
        assert!(
            self.lr_decay > 0.0 && self.lr_decay <= 1.0,
            "lr_decay must be in (0, 1]"
        );
    }
}

/// Ablation switches for the decomposition-based causality detector
/// (paper §5.5 / Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorMode {
    /// Full CausalFormer: RRP relevance × |gradient|, rectified (Eq. 19).
    #[default]
    Full,
    /// "w/o interpretation": read the attention matrix and kernel weights
    /// of the trained model directly as causal scores.
    NoInterpretation,
    /// "w/o relevance": causal scores are `E_h(|∇f|)⁺` only.
    NoRelevance,
    /// "w/o gradient": causal scores are `E_h(R)⁺` only.
    NoGradient,
    /// "w/o bias": RRP denominators exclude the bias term (Eq. 14 instead
    /// of Eq. 15/16).
    NoBias,
}

/// Detector hyper-parameters (paper §4.2.3 and §5.3).
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Number of k-means classes `n`.
    pub n_clusters: usize,
    /// Number of top classes `m` kept as causal (`m/n` controls density).
    pub m_top: usize,
    /// How many windows to average causal scores over.
    pub sample_windows: usize,
    /// Ablation mode.
    pub mode: DetectorMode,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            n_clusters: 2,
            m_top: 1,
            sample_windows: 8,
            mode: DetectorMode::Full,
        }
    }
}

impl DetectorConfig {
    /// Validates internal consistency (`m ≤ n`, at least one sample).
    pub fn validate(&self) {
        assert!(self.n_clusters >= 1, "need at least one cluster");
        assert!(
            self.m_top <= self.n_clusters,
            "m must not exceed n (m/n ∈ [0,1])"
        );
        assert!(self.sample_windows >= 1, "need at least one sample window");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_config_is_valid() {
        let c = ModelConfig::compact(4, 16);
        c.validate();
        assert_eq!(c.n_series, 4);
        assert_eq!(c.window, 16);
        assert!(!c.single_kernel);
    }

    #[test]
    #[should_panic(expected = "temperature")]
    fn zero_temperature_rejected() {
        let mut c = ModelConfig::compact(3, 8);
        c.temperature = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "m must not exceed n")]
    fn detector_m_bounded_by_n() {
        DetectorConfig {
            n_clusters: 2,
            m_top: 3,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn defaults_validate() {
        TrainConfig::default().validate();
        DetectorConfig::default().validate();
        assert_eq!(DetectorMode::default(), DetectorMode::Full);
    }
}
