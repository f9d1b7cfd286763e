//! End-to-end discovery pipeline and per-dataset presets.
//!
//! [`CausalFormer`] bundles the three configs and runs the full workflow of
//! Fig. 2: standardise the series, slice windows, train the
//! causality-aware transformer, run the decomposition-based detector, and
//! return the temporal causal graph. The series comes from memory or from
//! a chunked store ([`Windows`]); training is plain or checkpointed
//! ([`CausalFormer::discover_resumable`]). Every entry point runs the same
//! body, so the sources and training modes cannot drift apart.
//!
//! The [`presets`] mirror the paper's per-dataset hyper-parameters (§5.3)
//! with CPU-scaled model widths — the paper trains d=256–512 on a 4090; the
//! experiment *shapes* are preserved at the smaller widths (see DESIGN.md).

use crate::checkpoint::CheckpointConfig;
use crate::config::{DetectorConfig, ModelConfig, TrainConfig};
use crate::detector::{detect, CausalScores};
use crate::persist::{self, PersistError};
use crate::trainer::{train, TrainError, TrainReport, TrainedModelBase, Trainer};
use cf_data::window::{standardize, windows};
use cf_metrics::CausalGraph;
use cf_store::{SeriesStore, StoreError};
use cf_tensor::{Dtype, Scalar, Tensor, TensorBase};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::fmt;
use std::path::Path;

/// The complete CausalFormer method: model + training + detector configs.
#[derive(Debug, Clone, Copy)]
pub struct CausalFormer {
    /// Architecture of the causality-aware transformer.
    pub model: ModelConfig,
    /// Training schedule.
    pub train: TrainConfig,
    /// Detector / graph-construction parameters.
    pub detector: DetectorConfig,
}

/// Everything [`CausalFormer::discover`] produces.
pub struct DiscoveryResult {
    /// The discovered temporal causal graph (edges annotated with delays).
    pub graph: CausalGraph,
    /// Training telemetry.
    pub train_report: TrainReport,
    /// The aggregated causal scores behind the graph (useful for
    /// threshold-free analyses and the case studies).
    pub scores: CausalScores,
    /// The trained model the detector interpreted.
    pub model: DiscoveredModel,
}

/// The trained model of a discovery, at the precision it trained in
/// ([`TrainConfig::dtype`]).
pub enum DiscoveredModel {
    /// Trained in double precision.
    F64(TrainedModelBase<f64>),
    /// Trained in single precision.
    F32(TrainedModelBase<f32>),
}

impl DiscoveredModel {
    /// Writes the model with [`persist::save`]: `.cft` keeps the training
    /// dtype, any other extension writes JSON widened to f64.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        match self {
            Self::F64(trained) => persist::save(trained, path),
            Self::F32(trained) => persist::save(trained, path),
        }
    }
}

/// Where discovery reads its series from.
#[derive(Clone, Copy)]
pub enum Windows<'a> {
    /// An `N×L` series matrix in memory.
    InRam(&'a Tensor),
    /// A chunked on-disk store, streamed under the given memory knobs
    /// (see [`CausalFormer::discover_store`]).
    Store(&'a SeriesStore, StreamOptions),
}

/// How the train stage runs. Checkpointing captures and restores RNG
/// state, so it needs a concrete [`StdRng`]; plain training takes any RNG
/// (an unsized one behind a second reference).
enum Fit<'r> {
    Plain(&'r mut dyn RngCore),
    Checkpointed(&'r mut StdRng, CheckpointConfig, bool),
}

impl CausalFormer {
    /// Builds a pipeline from explicit configs (validated).
    pub fn new(model: ModelConfig, train: TrainConfig, detector: DetectorConfig) -> Self {
        model.validate();
        train.validate();
        detector.validate();
        Self {
            model,
            train,
            detector,
        }
    }

    /// Runs the full workflow on an `N×L` series matrix. The input series
    /// is always f64; [`TrainConfig::dtype`] selects the precision the
    /// training and detection stages run in (each window is cast once after
    /// the f64 preprocessing, so standardisation is dtype-invariant).
    ///
    /// # Panics
    /// Panics if the series shape disagrees with the model config or is too
    /// short to produce a single window.
    pub fn discover<R: Rng + ?Sized>(&self, rng: &mut R, series: &Tensor) -> DiscoveryResult {
        self.run(Fit::Plain(&mut { rng }), Windows::InRam(series))
            .expect("in-RAM discovery without checkpoints cannot fail")
    }

    /// Out-of-core discovery: streams training windows from a chunked
    /// [`SeriesStore`] instead of materialising the `N×L` matrix. Peak
    /// memory is set by [`StreamOptions::max_windows`] (and one decoded
    /// chunk), not by the series length — a 10M-step store trains under a
    /// couple hundred MB. Each chunk is read once.
    ///
    /// Standardisation statistics fold over the chunks in the same
    /// addition order as the in-RAM path, so when the window budget is not
    /// exceeded (`stream.max_windows` ≥ the natural window count at
    /// [`TrainConfig::stride`]) the result is **bitwise identical** to
    /// [`CausalFormer::discover`] on the materialised series. When the
    /// budget is exceeded, the stride is deterministically widened so at
    /// most `max_windows` evenly spaced windows are trained on.
    pub fn discover_store<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        store: &SeriesStore,
        stream: &StreamOptions,
    ) -> Result<DiscoveryResult, StreamError> {
        self.run(Fit::Plain(&mut { rng }), Windows::Store(store, *stream))
    }

    /// Discovery with crash safety, from either source: training
    /// checkpoints into `checkpoint.dir` and, when `resume` is set,
    /// continues from the newest usable checkpoint there. A resumed
    /// discovery is *bitwise identical* to an uninterrupted one — the
    /// checkpoint carries the RNG state, so the detector's window sampling
    /// matches too.
    ///
    /// Takes a concrete [`StdRng`] because resumable training must capture
    /// and restore RNG state.
    ///
    /// # Panics
    /// Panics on an in-RAM series that [`CausalFormer::discover`] would
    /// reject.
    pub fn discover_resumable(
        &self,
        rng: &mut StdRng,
        source: Windows<'_>,
        checkpoint: CheckpointConfig,
        resume: bool,
    ) -> Result<DiscoveryResult, StreamError> {
        self.run(Fit::Checkpointed(rng, checkpoint, resume), source)
    }

    /// The one discovery body behind every entry point; the only place the
    /// compute dtype is chosen.
    fn run(&self, fit: Fit<'_>, source: Windows<'_>) -> Result<DiscoveryResult, StreamError> {
        match self.train.dtype {
            Dtype::F64 => self.run_typed(fit, source, DiscoveredModel::F64),
            Dtype::F32 => self.run_typed(fit, source, DiscoveredModel::F32),
        }
    }

    fn run_typed<E: Scalar>(
        &self,
        fit: Fit<'_>,
        source: Windows<'_>,
        wrap: fn(TrainedModelBase<E>) -> DiscoveredModel,
    ) -> Result<DiscoveryResult, StreamError> {
        let _pipeline_span = cf_obs::span!("discover");
        let windows = self.windows::<E>(source)?;
        let (rng, (trained, train_report)): (&mut dyn RngCore, _) = match fit {
            Fit::Plain(rng) => {
                let out = stage("train", || {
                    train(&mut *rng, self.model, self.train, &windows)
                });
                (rng, out)
            }
            Fit::Checkpointed(rng, checkpoint, resume) => {
                let out = stage("train", || {
                    Trainer::new(self.model, self.train)
                        .with_checkpoints(checkpoint)
                        .resume(resume)
                        .fit(&mut *rng, &windows)
                })
                .map_err(StreamError::Train)?;
                (rng, out)
            }
        };
        // `detect` runs relevance propagation (RRP) and graph construction;
        // the finer-grained spans live inside `detector.rs`.
        let (graph, scores) = stage("detect", || {
            detect(
                rng,
                &trained.model,
                &trained.store,
                &windows,
                &self.detector,
            )
        });
        Ok(DiscoveryResult {
            graph,
            train_report,
            scores,
            model: wrap(trained),
        })
    }

    /// Standardises the source and slices it into training windows, each
    /// cast into the compute dtype as soon as it is cut. Standardisation
    /// always runs in f64, so the f32 path trains on the rounded image of
    /// exactly the f64 windows.
    fn windows<E: Scalar>(&self, source: Windows<'_>) -> Result<Vec<TensorBase<E>>, StreamError> {
        let window = self.model.window;
        let (n, len, stride, windows) = match source {
            Windows::InRam(series) => {
                let (n, len) = (series.shape()[0], series.shape()[1]);
                assert_eq!(
                    n, self.model.n_series,
                    "series count disagrees with model config"
                );
                let stride = self.train.stride;
                let windows = stage("windowing", || {
                    windows(&standardize(series), window, stride)
                });
                (n, len, stride, windows)
            }
            Windows::Store(store, stream) => {
                let (n, len) = (store.manifest().n_series, store.manifest().length);
                let invalid = |detail| Err(StreamError::Store(StoreError::Invalid { detail }));
                if n != self.model.n_series {
                    return invalid(format!(
                        "store has {n} series, model config expects {}",
                        self.model.n_series
                    ));
                }
                if len < window {
                    return invalid(format!(
                        "store length {len} is shorter than one window of {window}"
                    ));
                }
                let stride = effective_stride(len, window, self.train.stride, stream.max_windows);
                let windows = stage("windowing", || {
                    let scan = store.standardized_windows(window, stride, stream.read_ahead)?;
                    let mut windows = Vec::with_capacity(scan.expected_windows());
                    for w in scan {
                        windows.push(TensorBase::from_f64_tensor(&w?));
                    }
                    Ok::<_, StoreError>(windows)
                })
                .map_err(StreamError::Store)?;
                (n, len, stride, windows)
            }
        };
        cf_obs::debug!(
            "discover: {n} series of {len} steps, {} windows of {window} slots at stride {stride}",
            windows.len()
        );
        Ok(windows)
    }
}

/// One segment of a rolling discovery: the slot range analysed and the
/// causal graph found within it.
pub struct RollingResult {
    /// First slot of the segment (inclusive).
    pub start: usize,
    /// One past the last slot of the segment.
    pub end: usize,
    /// The graph discovered on this segment.
    pub graph: CausalGraph,
}

impl CausalFormer {
    /// Rolling-window discovery for *non-stationary* data: runs the full
    /// pipeline independently on consecutive segments of `segment_len`
    /// slots advanced by `hop`, returning one causal graph per segment.
    /// Useful when the causal structure itself drifts (the paper's SST case
    /// study looks at a decade of data where currents shift seasonally).
    ///
    /// # Panics
    /// Panics if `segment_len` cannot hold a single training window or the
    /// series is shorter than one segment.
    pub fn discover_rolling<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        series: &Tensor,
        segment_len: usize,
        hop: usize,
    ) -> Vec<RollingResult> {
        assert!(hop >= 1, "hop must be positive");
        assert!(
            segment_len > self.model.window,
            "segment must exceed the model window"
        );
        let l = series.shape()[1];
        assert!(l >= segment_len, "series shorter than one segment");
        let n = series.shape()[0];
        let mut out = Vec::new();
        let mut start = 0;
        while start + segment_len <= l {
            let mut data = Vec::with_capacity(n * segment_len);
            for i in 0..n {
                data.extend_from_slice(&series.row(i)[start..start + segment_len]);
            }
            let segment =
                Tensor::from_vec(vec![n, segment_len], data).expect("consistent by construction");
            cf_obs::info!(
                "rolling segment {}..{} ({} of ~{})",
                start,
                start + segment_len,
                out.len() + 1,
                (l - segment_len) / hop + 1
            );
            let result = self.discover(rng, &segment);
            out.push(RollingResult {
                start,
                end: start + segment_len,
                graph: result.graph,
            });
            start += hop;
        }
        out
    }
}

/// Runs one pipeline stage inside its `cf_obs` span, then emits a
/// `stage` JSONL record with its wall time (if a metrics sink is
/// installed).
fn stage<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = cf_obs::span!(name);
    let started = std::time::Instant::now();
    let out = f();
    if cf_obs::sink::is_installed() {
        cf_obs::sink::emit(
            &cf_obs::json::Obj::new()
                .str("event", "stage")
                .f64("ts", cf_obs::unix_time())
                .str("stage", name)
                .f64("wall_secs", started.elapsed().as_secs_f64())
                .finish(),
        );
    }
    out
}

/// Memory knobs for out-of-core discovery ([`CausalFormer::discover_store`]).
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Upper bound on the number of training windows materialised from the
    /// store. When the series would naturally yield more windows at the
    /// configured stride, the stride widens deterministically (evenly
    /// spaced windows) so peak memory stays `max_windows · n · window`
    /// elements regardless of the series length.
    pub max_windows: usize,
    /// Has no effect. It bounded the raw-data carry of an earlier
    /// streaming scan; the one-read scan keeps no carry (see
    /// `cf_store::SeriesStore::standardized_windows`). Kept so existing
    /// callers still build.
    pub read_ahead: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            max_windows: 4096,
            read_ahead: 2,
        }
    }
}

/// Errors from out-of-core discovery: either the store side (I/O,
/// corruption, geometry mismatch) or the training side (interruption,
/// checkpoint problems).
#[derive(Debug)]
pub enum StreamError {
    /// Reading the chunk store failed.
    Store(StoreError),
    /// Training failed (kill fault, unusable checkpoint, …).
    Train(TrainError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Store(e) => write!(f, "{e}"),
            StreamError::Train(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Store(e) => Some(e),
            StreamError::Train(e) => Some(e),
        }
    }
}

/// The stride that keeps the window count within `max_windows`: the base
/// stride when it already fits, otherwise the smallest wider stride whose
/// evenly spaced windows stay under the budget. Deterministic in its
/// inputs — resuming a run recomputes the same stride.
pub fn effective_stride(
    length: usize,
    window: usize,
    base_stride: usize,
    max_windows: usize,
) -> usize {
    debug_assert!(window <= length && base_stride >= 1 && max_windows >= 1);
    let span = length - window;
    let natural = span / base_stride + 1;
    if natural <= max_windows {
        return base_stride;
    }
    if max_windows == 1 {
        return span + 1;
    }
    base_stride.max(span.div_ceil(max_windows - 1))
}

/// Per-dataset presets mirroring the paper's §5.3 hyper-parameter table.
pub mod presets {
    use super::*;

    /// Shared CPU-scaled model width.
    fn base_model(n: usize, window: usize) -> ModelConfig {
        ModelConfig {
            n_series: n,
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

    /// Diamond/mediator (paper: τ=1, λ=1e-4, m/n=1/2, T=16).
    pub fn synthetic_dense(n: usize) -> CausalFormer {
        CausalFormer {
            model: base_model(n, 16),
            train: TrainConfig::default(),
            detector: DetectorConfig {
                n_clusters: 2,
                m_top: 1,
                ..Default::default()
            },
        }
    }

    /// V-structure/fork (paper: τ=100, λ=1e-10 — sparser non-self causality
    /// calls for a flatter softmax and effectively no sparsity penalty).
    pub fn synthetic_sparse(n: usize) -> CausalFormer {
        let mut cf = synthetic_dense(n);
        cf.model.temperature = 100.0;
        cf.model.lambda_kernel = 1e-10;
        cf.model.lambda_mask = 1e-10;
        cf
    }

    /// Lorenz-96 (paper: τ=10, λ=5e-4, m/n=2/3, T=32; width scaled down,
    /// window halved for CPU budgets — both are config fields). As with
    /// [`fmri`], the temperature is rescaled to the smaller `d_QK`: the
    /// paper's τ=10 at d_QK=512 corresponds to τ≈1 here.
    pub fn lorenz96(n: usize) -> CausalFormer {
        let mut model = base_model(n, 16);
        model.temperature = 1.0;
        model.lambda_kernel = 5e-4;
        model.lambda_mask = 5e-4;
        CausalFormer {
            model,
            train: TrainConfig::default(),
            detector: DetectorConfig {
                // The paper's m/n = 2/3.
                n_clusters: 3,
                m_top: 2,
                ..Default::default()
            },
        }
    }

    /// fMRI (paper: τ=100, λ=0 to encourage more relations, m/n=1/2, T=32).
    /// The temperature is rescaled to the smaller `d_QK` used here — the
    /// paper's τ=100 at d_QK=256 flattens softmax logits by ≈1600×; at our
    /// width the same flattening effect needs a far smaller τ, and τ=10
    /// reproduces the intended "encourage more relations" behaviour without
    /// erasing the attention signal entirely.
    pub fn fmri(n: usize) -> CausalFormer {
        let mut model = base_model(n, 16);
        model.temperature = 10.0;
        model.lambda_kernel = 0.0;
        model.lambda_mask = 0.0;
        CausalFormer {
            model,
            train: TrainConfig::default(),
            detector: DetectorConfig {
                // Four log-score classes, keep the top one: the causal
                // class sits far above the noise floor in log space.
                n_clusters: 4,
                m_top: 1,
                ..Default::default()
            },
        }
    }

    /// SST case study: long-range lattice, sparse graph — each cell has at
    /// most one upstream cause plus itself, so sharpen the attention
    /// (low temperature, sparse masks) and keep only the top quarter of
    /// the k-means classes.
    pub fn sst(n: usize) -> CausalFormer {
        let mut cf = fmri(n);
        cf.model.temperature = 1.0;
        cf.model.lambda_mask = 1e-3;
        cf.model.lambda_kernel = 1e-4;
        cf.model.window = 12;
        cf.train.max_epochs = 30;
        // Only 97 slots are available (the paper's 38-day slots over 10
        // years) — use every window.
        cf.train.stride = 1;
        // Self-persistence scores dominate the top k-means class; the
        // upstream advection causes sit in the second class, so keep two of
        // four classes.
        cf.detector.n_clusters = 4;
        cf.detector.m_top = 2;
        cf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::synthetic::{self, Structure};
    use cf_metrics::score;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// End-to-end: CausalFormer on a fork dataset should clearly beat a
    /// random/empty baseline and find the fork's causal skeleton.
    #[test]
    fn discovers_fork_structure_better_than_chance() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = synthetic::generate(&mut rng, Structure::Fork, 400);
        let mut cf = presets::synthetic_sparse(3);
        // Keep the test quick but meaningful.
        cf.model.d_model = 16;
        cf.model.d_qk = 16;
        cf.model.d_ffn = 16;
        cf.model.window = 8;
        cf.train.max_epochs = 25;
        cf.train.stride = 2;
        let result = cf.discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &result.graph);
        // The paper reports 0.79±0.11 at full scale; at test scale we only
        // require clearly-better-than-random (empty graph scores 0, random
        // m/n=1/2 graph ≈ 0.5 on this dense-ish truth).
        assert!(
            f1 >= 0.5,
            "F1 {f1} too low; graph = {} truth = {}",
            result.graph,
            data.truth
        );
        // Training actually happened.
        assert!(result.train_report.train_losses.len() >= 2);
        let first = result.train_report.train_losses[0];
        let last = *result.train_report.train_losses.last().unwrap();
        assert!(last < first, "loss did not improve: {first} → {last}");
    }

    #[test]
    fn presets_validate_and_differ() {
        let dense = presets::synthetic_dense(4);
        let sparse = presets::synthetic_sparse(3);
        let lorenz = presets::lorenz96(10);
        let fmri = presets::fmri(15);
        let sst = presets::sst(64);
        for cf in [&dense, &sparse, &lorenz, &fmri, &sst] {
            cf.model.validate();
            cf.train.validate();
            cf.detector.validate();
        }
        assert!(sparse.model.temperature > dense.model.temperature);
        assert_eq!(lorenz.detector.n_clusters, 3);
        assert_eq!(fmri.model.lambda_kernel, 0.0);
    }

    #[test]
    #[should_panic(expected = "series count disagrees")]
    fn discover_rejects_mismatched_series() {
        let mut rng = StdRng::seed_from_u64(0);
        let cf = presets::synthetic_dense(4);
        let series = Tensor::zeros(&[3, 100]);
        let _ = cf.discover(&mut rng, &series);
    }

    #[test]
    fn rolling_discovery_detects_regime_change() {
        // Three series; first half: S1→S2, second half: S2→S1, S3 is an
        // independent bystander (with only two series the top-1-of-2
        // k-means class always holds the self edge alone).
        // Seed chosen to give a clear margin under the vendored RNG stream.
        let mut rng = StdRng::seed_from_u64(0);
        let len = 240usize;
        let mut data = vec![0.0f64; 3 * len];
        use rand::Rng as _;
        for t in 2..len {
            let (n0, n1, n2): (f64, f64, f64) = (
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
                rng.gen::<f64>() - 0.5,
            );
            if t < len / 2 {
                data[t] = 0.3 * data[t - 1] + n0; // S1 autonomous
                data[len + t] = 0.8 * data[t - 2] + 0.7 * n1; // S2 ← S1 (lag 2)
            } else {
                data[len + t] = 0.3 * data[len + t - 1] + n1; // S2 autonomous
                data[t] = 0.8 * data[len + t - 2] + 0.7 * n0; // S1 ← S2 (lag 2)
            }
            data[2 * len + t] = 0.3 * data[2 * len + t - 1] + n2; // S3 noise
        }
        let series = Tensor::from_vec(vec![3, len], data).unwrap();
        let mut cf = presets::synthetic_dense(3);
        cf.model.window = 8;
        cf.model.d_model = 8;
        cf.model.d_qk = 8;
        cf.model.d_ffn = 8;
        cf.train.max_epochs = 20;
        cf.train.stride = 2;
        let segments = cf.discover_rolling(&mut rng, &series, len / 2, len / 2);
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].start, 0);
        assert_eq!(segments[1].end, len);
        // First regime: 0→1 present; second regime: 1→0 present.
        assert!(
            segments[0].graph.has_edge(0, 1),
            "regime 1 missed S1→S2: {}",
            segments[0].graph
        );
        assert!(
            segments[1].graph.has_edge(1, 0),
            "regime 2 missed S2→S1: {}",
            segments[1].graph
        );
    }

    #[test]
    fn standardize_handles_constant_rows() {
        let series = Tensor::full(&[2, 50], 3.0);
        let s = standardize(&series);
        assert!(s.all_finite());
    }

    /// A row whose std is nonzero but below the `1e-12` floor: cf-data's
    /// windows (what the bench tools and the decomposed pipeline train on)
    /// and `discover`'s own must agree bitwise, down to the scores.
    #[test]
    fn cf_data_windows_match_discover_on_a_near_constant_row() {
        use cf_data::window;
        let len = 60;
        let data: Vec<f64> = (0..3 * len)
            .map(|k| match k / len {
                0 => (k as f64 * 0.7).sin(),
                1 => (k as f64 * 0.3).cos(),
                _ => 0.1 + 1e-14 * ((k % 7) as f64),
            })
            .collect();
        let series = Tensor::from_vec(vec![3, len], data).unwrap();
        let mut cf = presets::synthetic_sparse(3);
        cf.model.window = 6;
        cf.model.d_model = 8;
        cf.model.d_qk = 8;
        cf.model.d_ffn = 8;
        cf.train.max_epochs = 2;
        cf.train.stride = 3;

        let std_series = window::standardize(&series);
        let windows: Vec<Tensor> = window::windows(&std_series, cf.model.window, cf.train.stride);
        // The floored row is rescaled, not left at its raw ~1e-14 spread.
        assert!(windows.iter().any(|w| w.get2(2, 0).abs() > 1e-3));

        let mut rng = StdRng::seed_from_u64(5);
        let result = cf.discover(&mut rng, &series);
        let mut rng = StdRng::seed_from_u64(5);
        let (trained, _) = train(&mut rng, cf.model, cf.train, &windows);
        let (graph, scores) = detect(
            &mut rng,
            &trained.model,
            &trained.store,
            &windows,
            &cf.detector,
        );
        assert_eq!(graph, result.graph);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    scores.attn[i][j].to_bits(),
                    result.scores.attn[i][j].to_bits(),
                    "attn[{i}][{j}]"
                );
            }
        }
    }
}
