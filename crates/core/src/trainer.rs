//! Training loop for the causality-aware transformer.
//!
//! The paper trains the model on the self-prediction task (Eq. 1/9) with
//! Adam and early stopping (§5.3). A training *sample* is one `N×T` window;
//! each gradient step averages the masked-MSE loss over a mini-batch of
//! windows and adds the L1 sparsity penalties once per step.
//!
//! ## Fault tolerance
//!
//! Everything the loop carries from one epoch to the next is one value,
//! `TrainState`: parameters and best-epoch parameters, Adam and
//! early-stopping state, the RNG words, the shuffle order, the counters
//! and the loss history. It survives the two ways long CPU runs die:
//!
//! * **Non-finite values.** Every gradient step checks the step loss and
//!   the pre-clip gradient norm for finiteness *before* Adam touches the
//!   parameters; validation is checked too. The state is taken at the top
//!   of each epoch, and a non-finite value restores it and retries the
//!   epoch, at most [`TrainConfig::max_retries`] consecutive times; after
//!   that the run *degrades* — it stops early and returns the best weights
//!   seen so far rather than panicking or emitting NaN weights.
//! * **Crashes.** With a [`CheckpointConfig`], [`Trainer::fit`] writes the
//!   state to disk every `every` epochs (see [`crate::checkpoint`]) and can
//!   resume from the newest usable file. Resume restores it through the
//!   same path as a rollback, so a killed-and-resumed run produces exactly
//!   the weights (and downstream causal graph) of an uninterrupted one.
//!
//! Fault points for all of this live in `cf-faults` (`CF_FAULT=nan:step17`,
//! `io_fail:epoch3`, `kill:epoch2`), so the recovery paths are tested
//! rather than hoped for — see `tests/fault_injection.rs`.

use crate::checkpoint::{self, CheckpointConfig, CheckpointError, RunIdentity};
use crate::config::{ModelConfig, TrainConfig};
use crate::model::CausalityAwareTransformer;
use cf_nn::{
    clip_global_norm, AdamBase, AdamStateBase, EarlyStopper, Optimizer, ParamId, ParamStoreBase,
    StopDecision, StopperState,
};
use cf_tensor::{with_pooled_tape, Scalar, TensorBase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

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

/// Everything the training loop carries from one epoch to the next, as one
/// value: the epoch guard taken at the top of each epoch, the contents of
/// a checkpoint, and what rollback and resume put back with
/// [`Run::restore`].
#[derive(Clone)]
pub(crate) struct TrainState<E: Scalar> {
    /// Epochs completed: the index of the next epoch to run.
    pub(crate) epoch: usize,
    /// Global gradient-step counter (drives `CF_FAULT=nan:stepN` indices).
    pub(crate) step: u64,
    /// Non-finite rollback retries consumed by the run so far.
    pub(crate) retries: u64,
    /// RNG state words (see `cf_tensor::capture_rng`); `None` for an RNG
    /// whose state cannot be captured.
    pub(crate) rng: Option<Vec<u64>>,
    /// The accumulated shuffle order. Each epoch shuffles the *previous*
    /// epoch's order in place, so the permutation itself is state.
    pub(crate) order: Vec<usize>,
    /// Parameter values, in registration order.
    pub(crate) params: Vec<TensorBase<E>>,
    /// Parameter values of the best validation epoch.
    pub(crate) best: Vec<TensorBase<E>>,
    pub(crate) adam: AdamStateBase<E>,
    pub(crate) stopper: StopperState,
    pub(crate) train_losses: Vec<f64>,
    pub(crate) val_losses: Vec<f64>,
    pub(crate) epoch_wall_secs: Vec<f64>,
    pub(crate) grad_norms: Vec<f64>,
}

/// The loop's working objects: [`Run::state`] reads them as a
/// [`TrainState`], [`Run::restore`] sets them from one.
struct Run<'r, E: Scalar, Q> {
    rng: &'r mut Q,
    store: ParamStoreBase<E>,
    adam: AdamBase<E>,
    stopper: EarlyStopper,
    epoch: usize,
    step: u64,
    retries: u64,
    order: Vec<usize>,
    best: Vec<TensorBase<E>>,
    train_losses: Vec<f64>,
    val_losses: Vec<f64>,
    epoch_wall_secs: Vec<f64>,
    grad_norms: Vec<f64>,
}

impl<E: Scalar, Q: TrainRng<E>> Run<'_, E, Q> {
    fn state(&self) -> TrainState<E> {
        TrainState {
            epoch: self.epoch,
            step: self.step,
            retries: self.retries,
            rng: self.rng.capture(),
            order: self.order.clone(),
            params: self.store.snapshot(),
            best: self.best.clone(),
            adam: self.adam.export_state(),
            stopper: self.stopper.export_state(),
            train_losses: self.train_losses.clone(),
            val_losses: self.val_losses.clone(),
            epoch_wall_secs: self.epoch_wall_secs.clone(),
            grad_norms: self.grad_norms.clone(),
        }
    }

    /// Sets the loop to `st` once it is checked to fit this run: the order
    /// permutes the training split, the history covers `st.epoch` epochs,
    /// the learning rate is positive, and the parameters, best parameters
    /// and Adam moments have the architecture's count and shapes. A refused
    /// state leaves the run as it was; the error names what disagrees.
    fn restore(&mut self, st: TrainState<E>) -> Result<(), String> {
        let n = self.order.len();
        let mut seen = vec![false; n];
        let permutes = st.order.len() == n
            && st
                .order
                .iter()
                .all(|&i| i < n && !std::mem::replace(&mut seen[i], true));
        if !permutes {
            return Err(format!(
                "shuffle order is not a permutation of the {n} training windows"
            ));
        }
        let hist = [
            st.train_losses.len(),
            st.val_losses.len(),
            st.epoch_wall_secs.len(),
            st.grad_norms.len(),
        ];
        if hist.iter().any(|&h| h != st.epoch) {
            return Err(format!(
                "history lengths {hist:?} disagree with {} completed epochs",
                st.epoch
            ));
        }
        if !(st.adam.lr.is_finite() && st.adam.lr > 0.0) {
            return Err(format!(
                "saved learning rate {} is not positive",
                st.adam.lr
            ));
        }
        self.check_shapes(&st.params, "parameters")?;
        self.check_shapes(&st.best, "best-epoch parameters")?;
        let m = self.shaped_moments(st.adam.m, "Adam first moments")?;
        let v = self.shaped_moments(st.adam.v, "Adam second moments")?;
        if let Some(words) = &st.rng {
            if !self.rng.restore_words(words) {
                return Err("saved RNG state cannot be restored".into());
            }
        }
        self.store.restore(&st.params);
        self.adam.import_state(AdamStateBase { m, v, ..st.adam });
        self.stopper.import_state(&st.stopper);
        self.epoch = st.epoch;
        self.step = st.step;
        self.retries = st.retries;
        self.order = st.order;
        self.best = st.best;
        self.train_losses = st.train_losses;
        self.val_losses = st.val_losses;
        self.epoch_wall_secs = st.epoch_wall_secs;
        self.grad_norms = st.grad_norms;
        Ok(())
    }

    fn check_shapes(&self, values: &[TensorBase<E>], what: &str) -> Result<(), String> {
        if values.len() != self.store.len() {
            return Err(format!(
                "{what}: {} saved, architecture has {}",
                values.len(),
                self.store.len()
            ));
        }
        for (id, t) in self.store.ids().zip(values) {
            let want = self.store.value(id).shape();
            if t.shape() != want {
                return Err(format!(
                    "{what}: shape mismatch for {:?}: expected {want:?}, found {:?}",
                    self.store.name(id),
                    t.shape()
                ));
            }
        }
        Ok(())
    }

    /// Gives each Adam moment its parameter's shape (a checkpoint stores
    /// moments flat), refusing more moments than parameters or a moment
    /// whose length does not fit its parameter.
    fn shaped_moments(
        &self,
        moments: Vec<Option<TensorBase<E>>>,
        what: &str,
    ) -> Result<Vec<Option<TensorBase<E>>>, String> {
        if moments.len() > self.store.len() {
            return Err(format!(
                "{what} cover {} parameters, architecture has {}",
                moments.len(),
                self.store.len()
            ));
        }
        self.store
            .ids()
            .zip(moments)
            .map(|(id, m)| {
                m.map(|m| {
                    let shape = self.store.value(id).shape().to_vec();
                    TensorBase::from_vec(shape, m.into_data())
                        .map_err(|e| format!("{what} for parameter {}: {e}", self.store.name(id)))
                })
                .transpose()
            })
            .collect()
    }
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

    // Temporal split: validation = chronological tail.
    let n_val = ((windows.len() as f64) * train_config.val_frac).round() as usize;
    let n_val = n_val.min(windows.len().saturating_sub(1));
    let (train_set, val_set) = windows.split_at(windows.len() - n_val);

    let identity = RunIdentity {
        dtype: E::DTYPE.as_str().to_string(),
        config: model_config,
        n_windows: windows.len(),
        batch_size: train_config.batch_size,
        param_names: store.ids().map(|id| store.name(id).to_string()).collect(),
    };
    let mut run = Run {
        rng,
        best: store.snapshot(),
        store,
        adam: AdamBase::<E>::new(train_config.lr),
        stopper: EarlyStopper::new(train_config.patience, train_config.min_delta),
        epoch: 0,
        step: 0,
        retries: 0,
        order: (0..train_set.len()).collect(),
        train_losses: Vec::new(),
        val_losses: Vec::new(),
        epoch_wall_secs: Vec::new(),
        grad_norms: Vec::new(),
    };
    let mut early_stopped = false;
    let mut degraded = false;
    let mut consecutive_retries = 0u64; // reset on each clean epoch
    let mut resumed_at = None;

    if let (Some(cfg), true) = (ckpt, resume) {
        if let Some((saved, st, path)) = checkpoint::load_latest::<E>(&cfg.dir)? {
            // A mismatch is a hard error naming the file: a checkpoint from
            // another run must never be half-applied, nor silently skipped
            // for an older one.
            let mismatch = |detail| CheckpointError::Mismatch {
                path: path.clone(),
                detail,
            };
            if let Some(detail) = identity.differs_from(&saved) {
                return Err(mismatch(detail).into());
            }
            run.restore(st).map_err(mismatch)?;
            resumed_at = Some(run.epoch);
            cf_obs::info!(
                "resumed from {} at epoch {}/{}",
                path.display(),
                run.epoch + 1,
                train_config.max_epochs
            );
        } else {
            cf_obs::info!(
                "resume requested but no checkpoint under {}; training from scratch",
                cfg.dir.display()
            );
        }
    }

    while run.epoch < train_config.max_epochs {
        let epoch = run.epoch;
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

        // The epoch guard: enough to rewind this epoch on a non-finite value.
        let guard = run.state();

        run.rng.shuffle(&mut run.order);
        let mut epoch_loss = 0.0;
        let mut epoch_grad_norm = 0.0;
        let mut steps = 0usize;
        let mut stop = false;
        let mut poisoned: Option<String> = None;
        for batch in run.order.chunks(train_config.batch_size) {
            run.step += 1;
            let step = run.step;
            let store = &run.store;
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
                grad_diag.observe(store, &pairs);
            }
            run.adam.step_pairs(&mut run.store, &pairs);
            epoch_grad_norm += pre_clip;
            epoch_loss += step_loss;
            steps += 1;
        }

        if poisoned.is_none() {
            let train_loss = epoch_loss / steps.max(1) as f64;
            let grad_norm = epoch_grad_norm / steps.max(1) as f64;
            run.grad_norms.push(grad_norm);
            run.train_losses.push(train_loss);
            if train_config.lr_decay < 1.0 {
                run.adam.set_lr(run.adam.lr() * train_config.lr_decay);
            }

            // Validation loss (prediction term only, no penalty).
            let monitored = if val_set.is_empty() {
                train_loss
            } else {
                evaluate(&model, &run.store, val_set)
            };
            if !monitored.is_finite() {
                poisoned = Some(format!("epoch {}: validation loss {monitored}", epoch + 1));
            } else {
                run.val_losses.push(monitored);
                let epoch_secs = epoch_start.elapsed().as_secs_f64();
                run.epoch_wall_secs.push(epoch_secs);

                cf_obs::info!(
                    "epoch {:>3}/{} train_loss {:.6} val_loss {:.6} grad_norm {:.4} ({:.2}s)",
                    epoch + 1,
                    train_config.max_epochs,
                    train_loss,
                    monitored,
                    grad_norm,
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
                            .f64("train_loss", train_loss)
                            .f64("val_loss", monitored)
                            .f64("grad_norm", grad_norm)
                            .f64("wall_secs", epoch_secs)
                            .u64("pool_hit", pool.hit)
                            .u64("pool_miss", pool.miss)
                            .finish(),
                    );
                }

                crate::diag::record_epoch(
                    epoch + 1,
                    train_loss,
                    monitored,
                    &model,
                    &run.store,
                    &grad_diag,
                );

                match run.stopper.observe(monitored) {
                    StopDecision::Improved => run.best = run.store.snapshot(),
                    StopDecision::NoImprovement => {}
                    StopDecision::Stop => stop = true,
                }
            }
        }

        if let Some(detail) = poisoned {
            run.retries += 1;
            consecutive_retries += 1;
            if consecutive_retries > train_config.max_retries as u64 {
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
                consecutive_retries,
                train_config.max_retries
            );
            // Everything rewinds but the run's retry count.
            run.restore(TrainState {
                retries: run.retries,
                ..guard
            })
            .expect("the epoch guard fits its own run");
            continue; // re-run the same epoch
        }
        consecutive_retries = 0;
        run.epoch += 1;
        // Live progress for the heartbeat sampler: done/total only —
        // the ETA (the only wall-clock-derived field) is computed on
        // the sampler thread, keeping this path bitwise invariant.
        cf_obs::heartbeat::progress(
            "train.epoch",
            run.epoch as u64,
            train_config.max_epochs as u64,
        );

        if let Some(cfg) = ckpt {
            if run.epoch.is_multiple_of(cfg.every) {
                // A failed checkpoint write must not kill a healthy run:
                // warn and keep training (the previous checkpoint stands).
                let _ckpt_span = cf_obs::span!("checkpoint.write");
                match checkpoint::save(cfg, &identity, &run.state()) {
                    Ok(path) => cf_obs::debug!("checkpoint written: {}", path.display()),
                    Err(e) => cf_obs::warn!("checkpoint write failed (training continues): {e}"),
                }
            }
            // Fault point: the process dies between epochs
            // (CF_FAULT=kill:epochN). Only meaningful when checkpointing —
            // there is nothing to resume from otherwise.
            if cf_faults::fire(cf_faults::FaultSite::Kill, run.epoch as u64) {
                cf_obs::warn!("simulated kill after epoch {}", run.epoch);
                return Err(TrainError::Interrupted {
                    epochs_done: run.epoch,
                });
            }
        }

        if stop {
            early_stopped = true;
            break;
        }
    }

    run.store.restore(&run.best);
    cf_obs::debug!(
        "training done: {} epochs, best epoch {}, early_stopped {}, retries {}, degraded {}",
        run.train_losses.len(),
        run.stopper.best_epoch(),
        early_stopped,
        run.retries,
        degraded,
    );
    Ok((
        TrainedModelBase {
            model,
            store: run.store,
        },
        TrainReport {
            train_losses: run.train_losses,
            val_losses: run.val_losses,
            epoch_wall_secs: run.epoch_wall_secs,
            grad_norms: run.grad_norms,
            best_epoch: run.stopper.best_epoch(),
            early_stopped,
            retries: run.retries,
            degraded,
            resumed_at,
        },
    ))
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
