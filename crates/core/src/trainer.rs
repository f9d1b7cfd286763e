//! Training loop for the causality-aware transformer.
//!
//! The paper trains the model on the self-prediction task (Eq. 1/9) with
//! Adam and early stopping (§5.3). A training *sample* is one `N×T` window;
//! each gradient step averages the masked-MSE loss over a mini-batch of
//! windows and adds the L1 sparsity penalties once per step.
//!
//! ## Fault tolerance
//!
//! The loop is built to survive the two ways long CPU runs actually die:
//!
//! * **Non-finite values.** Every gradient step checks the step loss and
//!   the pre-clip gradient norm for finiteness *before* Adam touches the
//!   parameters; validation is checked too. A non-finite value rolls the
//!   epoch back to a guard snapshot taken at its start and retries, at most
//!   [`TrainConfig::max_retries`] consecutive times; after that the run
//!   *degrades* — it stops early and returns the best weights seen so far
//!   rather than panicking or emitting NaN weights.
//! * **Crashes.** With a [`CheckpointConfig`], [`Trainer::fit`] writes a
//!   full-state checkpoint every `every` epochs and can resume from the
//!   newest usable one. Resumption is bitwise: the checkpoint carries the
//!   RNG state, Adam moments, the accumulated shuffle order, and the
//!   early-stopping state, so a killed-and-resumed run produces exactly the
//!   weights (and downstream causal graph) of an uninterrupted one.
//!
//! Fault points for all of this live in `cf-faults` (`CF_FAULT=nan:step17`,
//! `io_fail:epoch3`, `kill:epoch2`), so the recovery paths are tested
//! rather than hoped for — see `tests/fault_injection.rs`.

use crate::checkpoint::{self, CheckpointConfig, CheckpointError, CHECKPOINT_FORMAT_VERSION};
use crate::config::{ModelConfig, TrainConfig};
use crate::model::CausalityAwareTransformer;
use crate::persist;
use cf_nn::{
    clip_global_norm, AdamBase, AdamStateBase, EarlyStopper, Optimizer, ParamId, ParamStoreBase,
    StopDecision,
};
use cf_tensor::{with_pooled_tape, Scalar, TensorBase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;
use std::path::Path;

/// A trained causality-aware transformer: the model definition plus the
/// parameter store holding the best weights found.
pub struct TrainedModelBase<E: Scalar = f64> {
    /// The architecture (parameter ids, config).
    pub model: CausalityAwareTransformer,
    /// Parameter values (best validation epoch).
    pub store: ParamStoreBase<E>,
}

/// The `f64`-trained model (the historical API).
pub type TrainedModel = TrainedModelBase<f64>;

/// Per-epoch training telemetry.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch (prediction + penalty).
    pub train_losses: Vec<f64>,
    /// Validation prediction loss per epoch.
    pub val_losses: Vec<f64>,
    /// Wall-clock seconds spent in each epoch (including validation).
    pub epoch_wall_secs: Vec<f64>,
    /// Mean pre-clip global gradient norm per epoch.
    pub grad_norms: Vec<f64>,
    /// Epoch (1-based) whose weights were kept.
    pub best_epoch: usize,
    /// Whether early stopping fired before `max_epochs`.
    pub early_stopped: bool,
    /// Total non-finite rollback retries consumed across the run.
    pub retries: u64,
    /// True if the retry budget was exhausted and training stopped early,
    /// returning the best weights seen so far.
    pub degraded: bool,
    /// The epoch index (0-based) this run resumed at, if it resumed from a
    /// checkpoint.
    pub resumed_at: Option<usize>,
}

/// Errors from the checkpointing trainer ([`Trainer::fit`]).
#[derive(Debug)]
pub enum TrainError {
    /// A simulated kill (`CF_FAULT=kill:epochN`) stopped the run between
    /// epochs. State up to `epochs_done` is on disk; re-run with resume.
    Interrupted {
        /// Completed epochs at the time of the kill.
        epochs_done: usize,
    },
    /// The resume path failed: no usable checkpoint, or the checkpoint
    /// disagrees with this run's configuration.
    Checkpoint(CheckpointError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Interrupted { epochs_done } => {
                write!(f, "training interrupted after {epochs_done} epochs")
            }
            TrainError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Interrupted { .. } => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// A trainer with optional checkpoint/resume behaviour.
///
/// [`train`] is the plain entry point for fire-and-forget runs; `Trainer`
/// adds crash safety on top of the same loop:
///
/// ```no_run
/// use causalformer::{trainer::Trainer, CheckpointConfig, ModelConfig, TrainConfig};
/// # use cf_tensor::Tensor; use rand::{rngs::StdRng, SeedableRng};
/// # let windows: Vec<Tensor> = vec![];
/// let trainer = Trainer::new(ModelConfig::compact(3, 8), TrainConfig::default())
///     .with_checkpoints(CheckpointConfig::new("run/checkpoints").every(2))
///     .resume(true); // continue from the newest checkpoint if one exists
/// let mut rng = StdRng::seed_from_u64(0);
/// let (trained, report) = trainer.fit(&mut rng, &windows).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Architecture to train.
    pub model: ModelConfig,
    /// Training schedule.
    pub train: TrainConfig,
    /// Checkpointing; `None` disables it.
    pub checkpoint: Option<CheckpointConfig>,
    /// Whether to resume from the newest usable checkpoint. With no
    /// checkpoint on disk this silently trains from scratch.
    pub resume: bool,
}

impl Trainer {
    /// A trainer with no checkpointing (equivalent to [`train`]).
    pub fn new(model: ModelConfig, train: TrainConfig) -> Self {
        Self {
            model,
            train,
            checkpoint: None,
            resume: false,
        }
    }

    /// Enables checkpointing.
    pub fn with_checkpoints(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Sets whether [`Trainer::fit`] resumes from an existing checkpoint.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Trains, checkpointing and resuming per the configuration. Takes a
    /// concrete [`StdRng`] because resumable training must capture and
    /// restore the RNG state; on resume the RNG is rewound to the
    /// checkpointed stream position so everything downstream (e.g. the
    /// detector's sampling) matches an uninterrupted run bitwise.
    pub fn fit<E: Scalar>(
        &self,
        rng: &mut StdRng,
        windows: &[TensorBase<E>],
    ) -> Result<(TrainedModelBase<E>, TrainReport), TrainError> {
        fit_inner(
            rng,
            self.model,
            self.train,
            self.checkpoint.as_ref(),
            self.resume,
            windows,
        )
    }
}

/// Trains a fresh causality-aware transformer on the given windows.
///
/// `windows` are `N×T` tensors (see `cf_data::window::windows`); the last
/// `val_frac` of them (temporal tail) are held out for early stopping. The
/// model predicts each window from itself under the temporal-priority
/// constraint, so input and target coincide.
///
/// This path never checkpoints (its RNG is opaque, so state capture is
/// impossible) but still carries the non-finite guards: a persistent NaN
/// degrades to the best-so-far weights instead of panicking.
pub fn train<E: Scalar, R: Rng + ?Sized>(
    rng: &mut R,
    model_config: ModelConfig,
    train_config: TrainConfig,
    windows: &[TensorBase<E>],
) -> (TrainedModelBase<E>, TrainReport) {
    let mut rng = OpaqueRng(rng);
    fit_inner(&mut rng, model_config, train_config, None, false, windows)
        .expect("training without checkpointing cannot fail")
}

/// The trainer's view of its RNG. Checkpointing must capture and restore
/// RNG state, which a generic `R: Rng` cannot do — so [`train`] wraps its
/// RNG in the null-capture [`OpaqueRng`], while the [`Trainer::fit`] path
/// uses [`StdRng`]'s real state words. Everything else (model init,
/// shuffling) goes through the trait so both paths share one loop.
trait TrainRng<E: Scalar> {
    fn init_model(
        &mut self,
        store: &mut ParamStoreBase<E>,
        config: ModelConfig,
    ) -> CausalityAwareTransformer;
    fn shuffle(&mut self, order: &mut [usize]);
    /// RNG state words, if this RNG supports capture.
    fn capture(&self) -> Option<Vec<u64>>;
    /// Restores captured state; `false` if unsupported or invalid.
    fn restore_words(&mut self, words: &[u64]) -> bool;
}

impl<E: Scalar> TrainRng<E> for StdRng {
    fn init_model(
        &mut self,
        store: &mut ParamStoreBase<E>,
        config: ModelConfig,
    ) -> CausalityAwareTransformer {
        CausalityAwareTransformer::new(store, self, config)
    }
    fn shuffle(&mut self, order: &mut [usize]) {
        order.shuffle(self);
    }
    fn capture(&self) -> Option<Vec<u64>> {
        Some(cf_tensor::capture_rng(self))
    }
    fn restore_words(&mut self, words: &[u64]) -> bool {
        match cf_tensor::restore_rng(words) {
            Ok(r) => {
                *self = r;
                true
            }
            Err(_) => false,
        }
    }
}

/// An RNG whose state cannot be captured (any `R: Rng`). Rollback still
/// works — the retried epoch just reshuffles with fresh draws — but
/// checkpoints cannot be written, which [`train`] never asks for.
struct OpaqueRng<'a, R: Rng + ?Sized>(&'a mut R);

impl<E: Scalar, R: Rng + ?Sized> TrainRng<E> for OpaqueRng<'_, R> {
    fn init_model(
        &mut self,
        store: &mut ParamStoreBase<E>,
        config: ModelConfig,
    ) -> CausalityAwareTransformer {
        CausalityAwareTransformer::new(store, self.0, config)
    }
    fn shuffle(&mut self, order: &mut [usize]) {
        order.shuffle(self.0);
    }
    fn capture(&self) -> Option<Vec<u64>> {
        None
    }
    fn restore_words(&mut self, _words: &[u64]) -> bool {
        false
    }
}

/// Everything the training loop mutates, captured at the top of an epoch so
/// a mid-epoch non-finite value can rewind as if the epoch never ran.
struct Guard<E: Scalar> {
    step: u64,
    params: Vec<TensorBase<E>>,
    best: Vec<TensorBase<E>>,
    adam: AdamStateBase<E>,
    stopper: cf_nn::StopperState,
    rng: Option<Vec<u64>>,
    order: Vec<usize>,
    /// History length (all four telemetry vectors move in lock step).
    hist: usize,
}

fn fit_inner<E: Scalar, Q: TrainRng<E>>(
    rng: &mut Q,
    model_config: ModelConfig,
    train_config: TrainConfig,
    ckpt: Option<&CheckpointConfig>,
    resume: bool,
    windows: &[TensorBase<E>],
) -> Result<(TrainedModelBase<E>, TrainReport), TrainError> {
    model_config.validate();
    train_config.validate();
    if let Some(cfg) = ckpt {
        cfg.validate();
    }
    assert!(!windows.is_empty(), "no training windows");
    for w in windows {
        assert_eq!(
            w.shape(),
            &[model_config.n_series, model_config.window],
            "window shape mismatch"
        );
    }

    let mut store = ParamStoreBase::<E>::new();
    let model = rng.init_model(&mut store, model_config);
    crate::diag::record_header(&model_config);
    let mut adam = AdamBase::<E>::new(train_config.lr);
    let mut stopper = EarlyStopper::new(train_config.patience, train_config.min_delta);

    // Temporal split: validation = chronological tail.
    let n_val = ((windows.len() as f64) * train_config.val_frac).round() as usize;
    let n_val = n_val.min(windows.len().saturating_sub(1));
    let (train_set, val_set) = windows.split_at(windows.len() - n_val);

    let mut train_losses = Vec::new();
    let mut val_losses = Vec::new();
    let mut epoch_wall_secs = Vec::new();
    let mut grad_norms = Vec::new();
    let mut best_snapshot = store.snapshot();
    let mut early_stopped = false;
    let mut degraded = false;
    let mut order: Vec<usize> = (0..train_set.len()).collect();
    let mut epoch = 0usize;
    let mut step = 0u64;
    let mut retries_total = 0u64;
    let mut retries = 0u64; // consecutive, reset on each clean epoch
    let mut resumed_at = None;

    if let (Some(cfg), true) = (ckpt, resume) {
        if let Some((saved, path)) = checkpoint::load_latest(&cfg.dir)? {
            let applied = apply_checkpoint(
                saved,
                &path,
                &model_config,
                &train_config,
                windows.len(),
                train_set.len(),
                &mut store,
                &mut adam,
                &mut stopper,
            )?;
            if !rng.restore_words(&applied.rng) {
                return Err(CheckpointError::Mismatch {
                    path,
                    detail: "saved RNG state cannot be restored".into(),
                }
                .into());
            }
            epoch = applied.next_epoch;
            step = applied.step;
            retries_total = applied.retries;
            order = applied.order;
            best_snapshot = applied.best_snapshot;
            train_losses = applied.train_losses;
            val_losses = applied.val_losses;
            epoch_wall_secs = applied.epoch_wall_secs;
            grad_norms = applied.grad_norms;
            resumed_at = Some(epoch);
            cf_obs::info!(
                "resumed from {} at epoch {}/{}",
                path.display(),
                epoch + 1,
                train_config.max_epochs
            );
        } else {
            cf_obs::info!(
                "resume requested but no checkpoint under {}; training from scratch",
                cfg.dir.display()
            );
        }
    }

    while epoch < train_config.max_epochs {
        let _epoch_span = cf_obs::span!("epoch");
        // Fault point: the run wedges here without crashing (models a
        // deadlocked worker). The epoch span above stays open, so the
        // watchdog's thread dump names where the hang sits; only
        // CF_WATCHDOG=fatal ends the process.
        if cf_faults::fire(cf_faults::FaultSite::Hang, (epoch + 1) as u64) {
            cf_obs::warn!(
                "injected hang at epoch {}: spinning until killed",
                epoch + 1
            );
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        let epoch_start = std::time::Instant::now();
        // Per-epoch gradient-group diagnostics; dropped (not emitted) if
        // this epoch rolls back, so retries leave no trace in the artifact.
        let mut grad_diag = crate::diag::GradGroupAccum::new();
        let diag_on = cf_obs::Recorder::current().diag.is_installed();

        // Guard snapshot: enough to rewind this epoch on a non-finite value.
        let guard = Guard {
            step,
            params: store.snapshot(),
            best: best_snapshot.clone(),
            adam: adam.export_state(),
            stopper: stopper.export_state(),
            rng: rng.capture(),
            order: order.clone(),
            hist: train_losses.len(),
        };

        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut epoch_grad_norm = 0.0;
        let mut steps = 0usize;
        let mut stop = false;
        let mut poisoned: Option<String> = None;
        for batch in order.chunks(train_config.batch_size) {
            step += 1;
            // Data-parallel step: each window runs forward + backward on a
            // persistent per-thread tape (reset between uses, retaining its
            // node and buffer capacity); per-parameter gradients combine via
            // the fixed-order tree reduction, so the loss/gradient
            // trajectory is bitwise identical at any thread count (the
            // reduction shape depends only on the batch size).
            let n_params = store.len();
            // The sparsity penalty depends only on the parameters, not
            // the windows, so it runs as one more slot of the batch's
            // `par_map` (slot `batch.len()`) and is popped off before the
            // reduction: it is rng-free, reads the store immutably and
            // records on its own pooled tape, so every tensor is bitwise
            // identical to the sequential order — only the wall-clock
            // overlap changes.
            let mut per_window = cf_par::par_map(batch.len() + 1, |bi| {
                with_pooled_tape(|tape| {
                    let bound = store.bind(tape);
                    let (value, mut grads) = match batch.get(bi) {
                        Some(&wi) => {
                            let w = &train_set[wi];
                            let trace = model.forward(tape, &bound, w);
                            let loss = model.prediction_loss(tape, &trace, w);
                            let loss_val = tape.value(loss).item();
                            // Loss scaling: seed with GRAD_SCALE (1.0 for
                            // f64 — identical to plain backward; 2^32 for
                            // f32, keeping backward-kernel products out of
                            // the subnormal range). Unscaled below via
                            // `inv`.
                            let seed = TensorBase::scalar(E::GRAD_SCALE);
                            (loss_val, tape.backward_with_seed(loss, seed))
                        }
                        None => {
                            let penalty = model.sparsity_penalty(tape, &bound);
                            (tape.value(penalty).item(), tape.backward(penalty))
                        }
                    };
                    let mut gvec: Vec<Option<TensorBase<E>>> = vec![None; n_params];
                    bound.take_gradients(&mut grads, |id, g| gvec[id.index()] = Some(g));
                    (value, gvec)
                })
            });
            let (penalty_val, mut pvec) = per_window.pop().expect("penalty slot");
            let batch_len = per_window.len();
            let (loss_sum, mut grad_sum) = cf_par::tree_reduce(per_window, |mut a, b| {
                a.0 += b.0;
                for (slot, gb) in a.1.iter_mut().zip(b.1) {
                    if let Some(gb) = gb {
                        match slot {
                            Some(ga) => ga.add_assign(&gb),
                            None => *slot = Some(gb),
                        }
                    }
                }
                a
            })
            .expect("non-empty batch");

            let inv = 1.0 / batch_len as f64;
            // Batch averaging and gradient unscaling in one multiply; the
            // divide by GRAD_SCALE (an exact power of two) is exact for
            // f64 (where it is 1.0) and for every normal f32 gradient.
            let inv_e = E::from_f64(inv / E::GRAD_SCALE);
            let mut pairs: Vec<(ParamId, TensorBase<E>)> = Vec::with_capacity(n_params);
            for id in store.ids() {
                let idx = id.index();
                let pred = grad_sum[idx].take().map(|mut g| {
                    for v in g.data_mut() {
                        *v *= inv_e;
                    }
                    g
                });
                let merged = match (pred, pvec[idx].take()) {
                    (Some(mut g), Some(pg)) => {
                        g.add_assign(&pg);
                        Some(g)
                    }
                    (Some(g), None) => Some(g),
                    (None, Some(pg)) => Some(pg),
                    (None, None) => None,
                };
                if let Some(g) = merged {
                    pairs.push((id, g));
                }
            }
            // Fault point: a cosmic-ray gradient (CF_FAULT=nan:stepN).
            if cf_faults::fire(cf_faults::FaultSite::Nan, step) {
                if let Some(v) = pairs
                    .first_mut()
                    .and_then(|(_, g)| g.data_mut().first_mut())
                {
                    *v = E::from_f64(f64::NAN);
                }
            }
            // Non-finite guard: check the step loss and the pre-clip
            // gradient norm (the sum over every gradient element, so one
            // NaN anywhere poisons it) *before* Adam touches the weights.
            let pre_clip = clip_global_norm(&mut pairs, train_config.clip_norm);
            let step_loss = loss_sum * inv + penalty_val;
            if !step_loss.is_finite() || !pre_clip.is_finite() {
                poisoned = Some(format!(
                    "step {step}: loss {step_loss}, pre-clip grad norm {pre_clip}"
                ));
                break;
            }
            if diag_on {
                grad_diag.observe(&store, &pairs);
            }
            adam.step_pairs(&mut store, &pairs);
            epoch_grad_norm += pre_clip;
            epoch_loss += step_loss;
            steps += 1;
        }

        if poisoned.is_none() {
            grad_norms.push(epoch_grad_norm / steps.max(1) as f64);
            train_losses.push(epoch_loss / steps.max(1) as f64);
            if train_config.lr_decay < 1.0 {
                adam.set_lr(adam.lr() * train_config.lr_decay);
            }

            // Validation loss (prediction term only, no penalty).
            let monitored = if val_set.is_empty() {
                *train_losses.last().expect("pushed above")
            } else {
                evaluate(&model, &store, val_set)
            };
            if !monitored.is_finite() {
                poisoned = Some(format!("epoch {}: validation loss {monitored}", epoch + 1));
            } else {
                val_losses.push(monitored);
                let epoch_secs = epoch_start.elapsed().as_secs_f64();
                epoch_wall_secs.push(epoch_secs);

                cf_obs::info!(
                    "epoch {:>3}/{} train_loss {:.6} val_loss {:.6} grad_norm {:.4} ({:.2}s)",
                    epoch + 1,
                    train_config.max_epochs,
                    train_losses.last().expect("pushed above"),
                    monitored,
                    grad_norms.last().expect("pushed above"),
                    epoch_secs,
                );
                // The run's pool counters: one sample per epoch on the
                // trace's counter tracks, and in the epoch record.
                let pool = cf_tensor::pool::stats();
                cf_obs::trace::counter("mem.pool.hit", pool.hit as f64);
                cf_obs::trace::counter("mem.pool.miss", pool.miss as f64);
                cf_obs::trace::counter("mem.pool.bytes_outstanding", pool.bytes_outstanding as f64);
                if cf_obs::sink::is_installed() {
                    cf_obs::sink::emit(
                        &cf_obs::json::Obj::new()
                            .str("event", "epoch")
                            .f64("ts", cf_obs::unix_time())
                            .u64("epoch", (epoch + 1) as u64)
                            .f64("train_loss", *train_losses.last().expect("pushed above"))
                            .f64("val_loss", monitored)
                            .f64("grad_norm", *grad_norms.last().expect("pushed above"))
                            .f64("wall_secs", epoch_secs)
                            .u64("pool_hit", pool.hit)
                            .u64("pool_miss", pool.miss)
                            .finish(),
                    );
                }

                crate::diag::record_epoch(
                    epoch + 1,
                    *train_losses.last().expect("pushed above"),
                    monitored,
                    &model,
                    &store,
                    &grad_diag,
                );

                match stopper.observe(monitored) {
                    StopDecision::Improved => best_snapshot = store.snapshot(),
                    StopDecision::NoImprovement => {}
                    StopDecision::Stop => stop = true,
                }
            }
        }

        if let Some(detail) = poisoned {
            retries += 1;
            retries_total += 1;
            if retries > train_config.max_retries as u64 {
                cf_obs::warn!(
                    "non-finite value ({detail}); retry budget of {} exhausted — \
                     degrading to best-so-far weights",
                    train_config.max_retries
                );
                degraded = true;
                break;
            }
            cf_obs::warn!(
                "non-finite value ({detail}); rolling epoch {} back (retry {}/{})",
                epoch + 1,
                retries,
                train_config.max_retries
            );
            store.restore(&guard.params);
            best_snapshot = guard.best;
            adam.import_state(guard.adam);
            stopper.import_state(&guard.stopper);
            step = guard.step;
            order = guard.order;
            train_losses.truncate(guard.hist);
            val_losses.truncate(guard.hist);
            epoch_wall_secs.truncate(guard.hist);
            grad_norms.truncate(guard.hist);
            if let Some(words) = &guard.rng {
                let ok = rng.restore_words(words);
                debug_assert!(ok, "own captured state must restore");
            }
            continue; // re-run the same epoch
        }
        retries = 0;
        // Live progress for the heartbeat sampler: done/total only —
        // the ETA (the only wall-clock-derived field) is computed on
        // the sampler thread, keeping this path bitwise invariant.
        cf_obs::heartbeat::progress(
            "train.epoch",
            (epoch + 1) as u64,
            train_config.max_epochs as u64,
        );

        if let Some(cfg) = ckpt {
            let done = (epoch + 1) as u64;
            if (epoch + 1).is_multiple_of(cfg.every) {
                let saved = build_checkpoint(
                    &model_config,
                    &train_config,
                    windows.len(),
                    epoch + 1,
                    step,
                    retries_total,
                    rng.capture().unwrap_or_default(),
                    &order,
                    &store,
                    &best_snapshot,
                    &adam,
                    &stopper,
                    &train_losses,
                    &val_losses,
                    &epoch_wall_secs,
                    &grad_norms,
                );
                // A failed checkpoint write must not kill a healthy run:
                // warn and keep training (the previous checkpoint stands).
                let _ckpt_span = cf_obs::span!("checkpoint.write");
                match checkpoint::save(cfg, &saved, done) {
                    Ok(path) => cf_obs::debug!("checkpoint written: {}", path.display()),
                    Err(e) => cf_obs::warn!("checkpoint write failed (training continues): {e}"),
                }
            }
            // Fault point: the process dies between epochs
            // (CF_FAULT=kill:epochN). Only meaningful when checkpointing —
            // there is nothing to resume from otherwise.
            if cf_faults::fire(cf_faults::FaultSite::Kill, done) {
                cf_obs::warn!("simulated kill after epoch {done}");
                return Err(TrainError::Interrupted {
                    epochs_done: epoch + 1,
                });
            }
        }

        if stop {
            early_stopped = true;
            break;
        }
        epoch += 1;
    }

    store.restore(&best_snapshot);
    cf_obs::debug!(
        "training done: {} epochs, best epoch {}, early_stopped {}, retries {}, degraded {}",
        train_losses.len(),
        stopper.best_epoch(),
        early_stopped,
        retries_total,
        degraded,
    );
    Ok((
        TrainedModelBase { model, store },
        TrainReport {
            train_losses,
            val_losses,
            epoch_wall_secs,
            grad_norms,
            best_epoch: stopper.best_epoch(),
            early_stopped,
            retries: retries_total,
            degraded,
            resumed_at,
        },
    ))
}

#[allow(clippy::too_many_arguments)]
fn build_checkpoint<E: Scalar>(
    model_config: &ModelConfig,
    train_config: &TrainConfig,
    n_windows: usize,
    next_epoch: usize,
    step: u64,
    retries: u64,
    rng: Vec<u64>,
    order: &[usize],
    store: &ParamStoreBase<E>,
    best_snapshot: &[TensorBase<E>],
    adam: &AdamBase<E>,
    stopper: &EarlyStopper,
    train_losses: &[f64],
    val_losses: &[f64],
    epoch_wall_secs: &[f64],
    grad_norms: &[f64],
) -> checkpoint::SavedCheckpoint {
    let astate = adam.export_state();
    let sstate = stopper.export_state();
    let moments = |m: &[Option<TensorBase<E>>]| -> Vec<Option<Vec<f64>>> {
        m.iter()
            .map(|o| {
                o.as_ref()
                    .map(|t| t.data().iter().map(|v| v.to_f64()).collect())
            })
            .collect()
    };
    checkpoint::SavedCheckpoint {
        format_version: CHECKPOINT_FORMAT_VERSION,
        dtype: E::DTYPE.as_str().to_string(),
        config: persist::saved_config(model_config),
        n_windows,
        batch_size: train_config.batch_size,
        next_epoch,
        step,
        retries,
        rng,
        order: order.to_vec(),
        params: persist::saved_params(store),
        best_params: persist::saved_params_from(store, best_snapshot),
        adam_t: astate.t,
        adam_lr: astate.lr,
        adam_m: moments(&astate.m),
        adam_v: moments(&astate.v),
        stopper_best: sstate.best,
        stopper_best_epoch: sstate.best_epoch,
        stopper_epochs_seen: sstate.epochs_seen,
        stopper_stale: sstate.stale,
        train_losses: train_losses.to_vec(),
        val_losses: val_losses.to_vec(),
        epoch_wall_secs: epoch_wall_secs.to_vec(),
        grad_norms: grad_norms.to_vec(),
    }
}

/// The loop state recovered from a checkpoint (the pieces that are plain
/// values; `store`/`adam`/`stopper` are restored in place).
struct Applied<E: Scalar> {
    next_epoch: usize,
    step: u64,
    retries: u64,
    rng: Vec<u64>,
    order: Vec<usize>,
    best_snapshot: Vec<TensorBase<E>>,
    train_losses: Vec<f64>,
    val_losses: Vec<f64>,
    epoch_wall_secs: Vec<f64>,
    grad_norms: Vec<f64>,
}

/// Validates a loaded checkpoint against this run's configuration and
/// applies it. Every mismatch is a typed error naming the file — a
/// checkpoint from a different run must never be silently half-applied.
#[allow(clippy::too_many_arguments)]
fn apply_checkpoint<E: Scalar>(
    saved: checkpoint::SavedCheckpoint,
    path: &Path,
    model_config: &ModelConfig,
    train_config: &TrainConfig,
    n_windows: usize,
    train_len: usize,
    store: &mut ParamStoreBase<E>,
    adam: &mut AdamBase<E>,
    stopper: &mut EarlyStopper,
) -> Result<Applied<E>, CheckpointError> {
    let mismatch = |detail: String| CheckpointError::Mismatch {
        path: path.to_path_buf(),
        detail,
    };

    // A checkpoint is a bitwise continuation of one precision's training
    // trajectory; resuming it under another dtype would silently change
    // every subsequent step. Refuse rather than round-trip through f64.
    if saved.dtype != E::DTYPE.as_str() {
        return Err(mismatch(format!(
            "checkpoint was written by a {} run, this run uses {}",
            saved.dtype,
            E::DTYPE
        )));
    }

    let saved_mc = persist::model_config(&saved.config);
    if saved_mc != *model_config {
        return Err(mismatch(format!(
            "model config differs: checkpoint {saved_mc:?}, run {model_config:?}"
        )));
    }
    if saved.n_windows != n_windows {
        return Err(mismatch(format!(
            "checkpoint trained on {} windows, this run has {n_windows}",
            saved.n_windows
        )));
    }
    if saved.batch_size != train_config.batch_size {
        return Err(mismatch(format!(
            "checkpoint batch size {}, this run uses {}",
            saved.batch_size, train_config.batch_size
        )));
    }
    if saved.order.len() != train_len {
        return Err(mismatch(format!(
            "shuffle order covers {} windows, training split has {train_len}",
            saved.order.len()
        )));
    }
    let mut seen = vec![false; train_len];
    for &i in &saved.order {
        if i >= train_len || seen[i] {
            return Err(mismatch("shuffle order is not a permutation".into()));
        }
        seen[i] = true;
    }
    let hist = saved.train_losses.len();
    if hist != saved.next_epoch
        || saved.val_losses.len() != hist
        || saved.epoch_wall_secs.len() != hist
        || saved.grad_norms.len() != hist
    {
        return Err(mismatch(format!(
            "history lengths ({}, {}, {}, {}) disagree with {} completed epochs",
            hist,
            saved.val_losses.len(),
            saved.epoch_wall_secs.len(),
            saved.grad_norms.len(),
            saved.next_epoch
        )));
    }
    if !(saved.adam_lr.is_finite() && saved.adam_lr > 0.0) {
        return Err(mismatch(format!(
            "saved learning rate {} is not positive",
            saved.adam_lr
        )));
    }

    let values = persist::restore_values(store, &saved.params).map_err(&mismatch)?;
    let best_snapshot = persist::restore_values(store, &saved.best_params)
        .map_err(|d| mismatch(format!("best-epoch snapshot: {d}")))?;

    // Rebuild Adam moments with the architecture's shapes.
    let ids: Vec<ParamId> = store.ids().collect();
    let rebuild = |name: &str,
                   m: Vec<Option<Vec<f64>>>|
     -> Result<Vec<Option<TensorBase<E>>>, CheckpointError> {
        if m.len() > ids.len() {
            return Err(mismatch(format!(
                "{name} covers {} parameters, architecture has {}",
                m.len(),
                ids.len()
            )));
        }
        m.into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.map(|data| {
                    let shape = store.value(ids[i]).shape().to_vec();
                    let data = data.into_iter().map(E::from_f64).collect();
                    TensorBase::from_vec(shape, data).map_err(|e| {
                        mismatch(format!("{name} for parameter {}: {e}", store.name(ids[i])))
                    })
                })
                .transpose()
            })
            .collect()
    };
    let adam_m = rebuild("Adam first moments", saved.adam_m)?;
    let adam_v = rebuild("Adam second moments", saved.adam_v)?;

    store.restore(&values);
    adam.import_state(AdamStateBase {
        t: saved.adam_t,
        lr: saved.adam_lr,
        m: adam_m,
        v: adam_v,
    });
    stopper.import_state(&cf_nn::StopperState {
        best: saved.stopper_best,
        best_epoch: saved.stopper_best_epoch,
        epochs_seen: saved.stopper_epochs_seen,
        stale: saved.stopper_stale,
    });

    Ok(Applied {
        next_epoch: saved.next_epoch,
        step: saved.step,
        retries: saved.retries,
        rng: saved.rng,
        order: saved.order,
        best_snapshot,
        train_losses: saved.train_losses,
        val_losses: saved.val_losses,
        epoch_wall_secs: saved.epoch_wall_secs,
        grad_norms: saved.grad_norms,
    })
}

/// Mean masked-MSE prediction loss of `model` over `windows` (no penalty).
pub fn evaluate<E: Scalar>(
    model: &CausalityAwareTransformer,
    store: &ParamStoreBase<E>,
    windows: &[TensorBase<E>],
) -> f64 {
    assert!(!windows.is_empty(), "no evaluation windows");
    // Per-window losses in parallel, combined with the fixed-order tree
    // reduction: the same value at any thread count.
    let losses = cf_par::par_map(windows.len(), |i| {
        with_pooled_tape(|tape| {
            let bound = store.bind(tape);
            let trace = model.forward(tape, &bound, &windows[i]);
            let loss = model.prediction_loss(tape, &trace, &windows[i]);
            tape.value(loss).item()
        })
    });
    let total = cf_par::tree_reduce(losses, |a, b| a + b).expect("non-empty windows");
    total / windows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::{synthetic, window};
    use cf_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fork_windows(seed: u64, len: usize, t: usize) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = synthetic::generate(&mut rng, synthetic::Structure::Fork, len);
        let std = window::standardize(&d.series);
        window::windows(&std, t, 4)
    }

    #[test]
    fn training_reduces_loss() {
        let windows = fork_windows(0, 300, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let mc = ModelConfig {
            d_model: 16,
            d_qk: 16,
            d_ffn: 16,
            ..ModelConfig::compact(3, 8)
        };
        let tc = TrainConfig {
            max_epochs: 15,
            patience: 15,
            ..TrainConfig::default()
        };
        let (_trained, report) = train(&mut rng, mc, tc, &windows);
        let first = report.train_losses[0];
        let last = *report.train_losses.last().unwrap();
        assert!(
            last < 0.9 * first,
            "training loss did not drop: {first} → {last}"
        );
        assert_eq!(report.retries, 0);
        assert!(!report.degraded);
        assert!(report.resumed_at.is_none());
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let windows = fork_windows(2, 200, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let mc = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            heads: 1,
            ..ModelConfig::compact(3, 8)
        };
        let tc = TrainConfig {
            max_epochs: 40,
            patience: 3,
            lr: 2e-2, // aggressive on purpose so validation loss oscillates
            ..TrainConfig::default()
        };
        let (trained, report) = train(&mut rng, mc, tc, &windows);
        // Weights restored to the best epoch: evaluating on the validation
        // tail must reproduce (approximately) the best recorded val loss.
        let n_val = ((windows.len() as f64) * tc.val_frac).round() as usize;
        let val = &windows[windows.len() - n_val..];
        let loss_now = evaluate(&trained.model, &trained.store, val);
        let best = report
            .val_losses
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(
            (loss_now - best).abs() < 1e-9,
            "restored loss {loss_now} vs best {best}"
        );
        assert!(report.best_epoch >= 1);
    }

    #[test]
    fn report_lengths_are_consistent() {
        let windows = fork_windows(4, 150, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let mc = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            heads: 1,
            ..ModelConfig::compact(3, 8)
        };
        let tc = TrainConfig {
            max_epochs: 5,
            patience: 10,
            ..TrainConfig::default()
        };
        let (_, report) = train(&mut rng, mc, tc, &windows);
        assert_eq!(report.train_losses.len(), report.val_losses.len());
        assert!(report.train_losses.len() <= 5);
    }

    #[test]
    #[should_panic(expected = "no training windows")]
    fn empty_windows_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = train::<f64, _>(
            &mut rng,
            ModelConfig::compact(3, 8),
            TrainConfig::default(),
            &[],
        );
    }

    #[test]
    fn trainer_without_checkpoints_matches_train() {
        let windows = fork_windows(6, 150, 8);
        let mc = ModelConfig {
            d_model: 8,
            d_qk: 8,
            d_ffn: 8,
            heads: 1,
            ..ModelConfig::compact(3, 8)
        };
        let tc = TrainConfig {
            max_epochs: 4,
            ..TrainConfig::default()
        };
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        let (a, _) = train(&mut r1, mc, tc, &windows);
        let (b, _) = Trainer::new(mc, tc).fit(&mut r2, &windows).unwrap();
        for (ia, ib) in a.store.ids().zip(b.store.ids()) {
            assert_eq!(a.store.value(ia), b.store.value(ib));
        }
    }
}
