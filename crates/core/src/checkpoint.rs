//! Crash-safe training checkpoints.
//!
//! A checkpoint is the trainer's `TrainState` — everything the loop carries
//! from one epoch to the next — beside the identity of the run that wrote
//! it (dtype, model config, window count, batch size, parameter names). A
//! killed run resumed from disk restores the state through the same path
//! as a non-finite rollback and continues **bitwise identically** to one
//! that never died (see `tests/resume_determinism.rs`).
//!
//! ## On-disk format
//!
//! One file per checkpoint, `ckpt-NNNNNN.cfck` (NNNNNN = epochs completed),
//! holding a one-line envelope header followed by a binary CFTENS1 payload
//! (see `cf_store::tensors`):
//!
//! ```text
//! CFCKPT1 len=<payload bytes> fnv1a64=<16 hex digits>\n
//! CFTENS1\n<header_len><JSON header><raw little-endian tensors>
//! ```
//!
//! The identity and the scalar state live in the CFTENS1 `meta` JSON
//! string; every array (parameters, best-epoch snapshot, Adam moments, RNG
//! words, shuffle order, loss history) is a named tensor section, widened
//! to f64 whatever the run's dtype. Format versions ≤ 2 used a JSON payload
//! and are rejected with a clear [`CheckpointError::Mismatch`]; version 3
//! is pinned by `tests/checkpoint_fixtures.rs`.
//!
//! The checksum turns silent corruption (torn writes, bad disks) into a
//! loud [`CheckpointError::Corrupt`]; `load_latest` then falls back to
//! the next-newest intact file. Whether an intact state fits the resuming
//! run is the trainer's check, and a difference there is a hard error.
//! Writes are atomic — temp file, `fsync`, `rename`, directory `fsync` — so
//! a crash mid-write can never destroy an existing checkpoint. Retention
//! keeps the newest [`CheckpointConfig::keep`] files.

use crate::config::ModelConfig;
use crate::trainer::TrainState;
use cf_nn::{AdamStateBase, StopperState};
use cf_store::{TensorFile, TensorFileBuilder};
use cf_tensor::{Scalar, TensorBase};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version stamp embedded in every checkpoint payload. Version 2 added the
/// `dtype` tag: a checkpoint is a bitwise continuation of one precision's
/// trajectory, so resume refuses to cross dtypes (or read v1 files, which
/// predate the tag). Version 3 moved the payload from JSON to the binary
/// CFTENS1 envelope — earlier versions are rejected on load.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 3;

/// File extension of checkpoint files.
pub const CHECKPOINT_EXTENSION: &str = "cfck";

const ENVELOPE_MAGIC: &str = "CFCKPT1";
const FILE_PREFIX: &str = "ckpt-";

/// Where and how often the trainer checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding `ckpt-NNNNNN.cfck` files (created on first save).
    pub dir: PathBuf,
    /// Save after every `every`-th completed epoch.
    pub every: usize,
    /// How many newest checkpoints to retain; older ones are pruned. Keep
    /// at least 2 so a checkpoint corrupted *after* being written still
    /// leaves a usable predecessor.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` after every epoch, keeping the newest two.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            every: 1,
            keep: 2,
        }
    }

    /// Sets the epoch interval between saves.
    pub fn every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }

    /// Sets how many newest checkpoints to retain.
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) {
        assert!(self.every >= 1, "checkpoint interval must be positive");
        assert!(self.keep >= 1, "must retain at least one checkpoint");
    }
}

/// Errors from checkpoint persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure on the named file or directory.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// The file exists but fails the envelope/checksum/JSON checks.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What exactly was wrong.
        detail: String,
    },
    /// The checkpoint is intact but disagrees with the run trying to
    /// resume from it (different config, window count, batch size, …).
    Mismatch {
        /// The offending file.
        path: PathBuf,
        /// What exactly disagrees.
        detail: String,
    },
    /// Checkpoint files exist but every one of them is unreadable.
    NoUsableCheckpoint {
        /// The directory that was scanned.
        dir: PathBuf,
        /// Why the newest candidate was rejected.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(
                    f,
                    "checkpoint I/O error: {source} (file: {})",
                    path.display()
                )
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint: {detail} (file: {})", path.display())
            }
            CheckpointError::Mismatch { path, detail } => {
                write!(
                    f,
                    "checkpoint mismatch: {detail} (file: {})",
                    path.display()
                )
            }
            CheckpointError::NoUsableCheckpoint { dir, detail } => {
                write!(f, "no usable checkpoint in {}: {detail}", dir.display())
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// What a checkpoint records about the run it belongs to. Resume compares
/// it with its own run's and refuses a checkpoint from another run.
pub(crate) struct RunIdentity {
    /// Element type the run trained in (`"f32"`/`"f64"`); arrays are stored
    /// widened to f64 whatever this says.
    pub(crate) dtype: String,
    pub(crate) config: ModelConfig,
    /// Total window count (the train/validation split follows from it).
    pub(crate) n_windows: usize,
    pub(crate) batch_size: usize,
    /// Parameter names, in registration order.
    pub(crate) param_names: Vec<String>,
}

impl RunIdentity {
    /// Names the first field in which a checkpoint's identity `saved`
    /// differs from this run's. A checkpoint continues one run's trajectory
    /// bit for bit, so any difference — even only the dtype — refuses it.
    pub(crate) fn differs_from(&self, saved: &RunIdentity) -> Option<String> {
        macro_rules! check {
            ($field:ident, $name:literal) => {
                if saved.$field != self.$field {
                    return Some(format!(
                        concat!($name, " differs: checkpoint {:?}, this run {:?}"),
                        saved.$field, self.$field
                    ));
                }
            };
        }
        check!(dtype, "dtype");
        check!(config, "model config");
        check!(n_windows, "window count");
        check!(batch_size, "batch size");
        check!(param_names, "parameter names");
        None
    }
}

/// The scalar half of a v3 checkpoint, serialised as the CFTENS1 `meta`
/// JSON string; the field order is part of the format. Floating-point
/// scalars that may be non-finite (`stopper.best` starts at `+∞`) live in
/// the `scalars` tensor section instead, where the raw-bits encoding is
/// exact by construction.
#[derive(Serialize, Deserialize)]
struct MetaV3 {
    format_version: u32,
    dtype: String,
    config: ModelConfig,
    n_windows: usize,
    batch_size: usize,
    next_epoch: usize,
    step: u64,
    retries: u64,
    adam_t: u64,
    stopper_best_epoch: usize,
    stopper_epochs_seen: usize,
    stopper_stale: usize,
    param_names: Vec<String>,
}

/// Encodes a run's training state as a CFTENS1 document.
fn encode<E: Scalar>(id: &RunIdentity, st: &TrainState<E>) -> Result<Vec<u8>, String> {
    let meta = MetaV3 {
        format_version: CHECKPOINT_FORMAT_VERSION,
        dtype: id.dtype.clone(),
        config: id.config,
        n_windows: id.n_windows,
        batch_size: id.batch_size,
        next_epoch: st.epoch,
        step: st.step,
        retries: st.retries,
        adam_t: st.adam.t,
        stopper_best_epoch: st.stopper.best_epoch,
        stopper_epochs_seen: st.stopper.epochs_seen,
        stopper_stale: st.stopper.stale,
        param_names: id.param_names.clone(),
    };
    let meta_json = serde_json::to_string(&meta).map_err(|e| format!("meta encoding: {e}"))?;
    let mut b = TensorFileBuilder::new().meta(meta_json);
    for (prefix, values) in [("param", &st.params), ("best", &st.best)] {
        for (i, t) in values.iter().enumerate() {
            b.push_tensor(&format!("{prefix}.{i}"), &t.to_f64_tensor());
        }
    }
    for (prefix, moments) in [("adam_m", &st.adam.m), ("adam_v", &st.adam.v)] {
        for (i, m) in moments.iter().enumerate() {
            if let Some(m) = m {
                b.push_f64(&format!("{prefix}.{i}"), m.to_f64_tensor().data());
            }
        }
    }
    b.push_u64("rng", st.rng.as_deref().unwrap_or_default());
    let order: Vec<u64> = st.order.iter().map(|&o| o as u64).collect();
    b.push_u64("order", &order);
    b.push_f64("scalars", &[st.adam.lr, st.stopper.best]);
    b.push_f64("train_losses", &st.train_losses);
    b.push_f64("val_losses", &st.val_losses);
    b.push_f64("epoch_wall_secs", &st.epoch_wall_secs);
    b.push_f64("grad_norms", &st.grad_norms);
    Ok(b.finish())
}

/// Decodes a CFTENS1 checkpoint payload into the run's identity and its
/// training state. Only the file's own consistency is checked here, so a
/// failure is [`CheckpointError::Corrupt`] (and `load_latest` tries the
/// next-newest file); whether the state fits the run resuming it is
/// checked by the trainer, where a difference is a hard error.
fn decode<E: Scalar>(
    path: &Path,
    payload: &[u8],
) -> Result<(RunIdentity, TrainState<E>), CheckpointError> {
    // Versions ≤ 2 stored JSON here; give those a version message rather
    // than a baffling "bad magic".
    if payload.first() == Some(&b'{') {
        return Err(CheckpointError::Mismatch {
            path: path.to_path_buf(),
            detail: format!(
                "legacy JSON checkpoint (format version ≤ 2); this build reads \
                 version {CHECKPOINT_FORMAT_VERSION} (CFTENS1 payload)"
            ),
        });
    }
    let origin = path.display().to_string();
    let file = TensorFile::parse(payload, &origin).map_err(|e| corrupt(path, e.to_string()))?;
    let meta: MetaV3 = serde_json::from_str(file.meta())
        .map_err(|e| corrupt(path, format!("checkpoint meta does not parse: {e}")))?;
    if meta.format_version != CHECKPOINT_FORMAT_VERSION {
        return Err(CheckpointError::Mismatch {
            path: path.to_path_buf(),
            detail: format!(
                "format version {} unsupported (this build reads {CHECKPOINT_FORMAT_VERSION})",
                meta.format_version
            ),
        });
    }
    let read = |e: cf_store::StoreError| corrupt(path, e.to_string());
    let tensor = |name: &str, shape: Option<&[usize]>| -> Result<TensorBase<E>, CheckpointError> {
        let data: Vec<E> = file
            .f64s(name)
            .map_err(read)?
            .into_iter()
            .map(E::from_f64)
            .collect();
        let shape = shape.map_or_else(|| vec![data.len()], <[usize]>::to_vec);
        TensorBase::from_vec(shape, data)
            .map_err(|e| corrupt(path, format!("section {name:?}: {e}")))
    };
    let n = meta.param_names.len();
    let values = |prefix: &str| -> Result<Vec<TensorBase<E>>, CheckpointError> {
        (0..n)
            .map(|i| {
                let key = format!("{prefix}.{i}");
                tensor(&key, Some(file.shape(&key).map_err(read)?))
            })
            .collect()
    };
    // Moments are stored flat, and only for parameters that have one. Past
    // the last parameter, any further moments in sequence are read too, so
    // one the file has no parameter for reaches the trainer's count check
    // instead of vanishing here.
    let moments = |prefix: &str| -> Result<Vec<Option<TensorBase<E>>>, CheckpointError> {
        (0..)
            .map(|i| (i, format!("{prefix}.{i}")))
            .take_while(|(i, key)| *i < n || file.has(key))
            .map(|(_, key)| file.has(&key).then(|| tensor(&key, None)).transpose())
            .collect()
    };
    let scalars = file.f64s("scalars").map_err(read)?;
    let &[lr, stopper_best] = scalars.as_slice() else {
        return Err(corrupt(
            path,
            format!("scalars section has {} entries, expected 2", scalars.len()),
        ));
    };
    let st = TrainState {
        epoch: meta.next_epoch,
        step: meta.step,
        retries: meta.retries,
        rng: Some(file.u64s("rng").map_err(read)?),
        order: file
            .u64s("order")
            .map_err(read)?
            .into_iter()
            .map(|o| o as usize)
            .collect(),
        params: values("param")?,
        best: values("best")?,
        adam: AdamStateBase {
            t: meta.adam_t,
            lr,
            m: moments("adam_m")?,
            v: moments("adam_v")?,
        },
        stopper: StopperState {
            best: stopper_best,
            best_epoch: meta.stopper_best_epoch,
            epochs_seen: meta.stopper_epochs_seen,
            stale: meta.stopper_stale,
        },
        train_losses: file.f64s("train_losses").map_err(read)?,
        val_losses: file.f64s("val_losses").map_err(read)?,
        epoch_wall_secs: file.f64s("epoch_wall_secs").map_err(read)?,
        grad_norms: file.f64s("grad_norms").map_err(read)?,
    };
    let id = RunIdentity {
        dtype: meta.dtype,
        config: meta.config,
        n_windows: meta.n_windows,
        batch_size: meta.batch_size,
        param_names: meta.param_names,
    };
    Ok((id, st))
}

/// Decodes a checkpoint payload and encodes the result again. Format v3
/// has one encoding per state, so this gives `payload` back byte for byte.
/// Public only for the format tests: `tests/checkpoint_fixtures.rs` pins
/// the bytes against files an earlier build wrote, and
/// `tests/resume_refusals.rs` probes the decoder with damaged payloads.
#[doc(hidden)]
pub fn reencode(path: &Path, payload: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    fn again<E: Scalar>(path: &Path, payload: &[u8]) -> Result<Vec<u8>, CheckpointError> {
        let (id, st) = decode::<E>(path, payload)?;
        encode(&id, &st).map_err(|e| corrupt(path, e))
    }
    // At the run's own dtype, so an f32 state makes the trip through f32.
    match decode::<f64>(path, payload)?.0.dtype.as_str() {
        "f32" => again::<f32>(path, payload),
        _ => again::<f64>(path, payload),
    }
}

/// FNV-1a 64-bit: tiny, dependency-free, and plenty to catch torn writes
/// and bit rot (this is an integrity check, not an adversarial one).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `payload` under the checksummed envelope, atomically: temp file
/// in the same directory, `fsync`, `rename` over the target, directory
/// `fsync`. A crash at any point leaves either the old file or the new
/// one, never a torn hybrid.
pub fn write_envelope(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    let header = format!(
        "{ENVELOPE_MAGIC} len={} fnv1a64={:016x}\n",
        payload.len(),
        fnv1a64(payload)
    );
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("envelope path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = path.with_file_name(format!(".{file_name}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(header.as_bytes())?;
        f.write_all(payload)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Durability of the rename itself; best-effort (not all filesystems
    // support fsync on directories).
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads and verifies an envelope written by [`write_envelope`], returning
/// the payload bytes.
pub fn read_envelope(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt(path, "missing envelope header line"))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| corrupt(path, "envelope header is not UTF-8"))?;
    let mut parts = header.split_whitespace();
    match parts.next() {
        Some(ENVELOPE_MAGIC) => {}
        other => {
            return Err(corrupt(
                path,
                format!("bad magic {other:?}, expected {ENVELOPE_MAGIC:?}"),
            ))
        }
    }
    let len: usize = parts
        .next()
        .and_then(|p| p.strip_prefix("len="))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(path, "envelope header missing len= field"))?;
    let sum: u64 = parts
        .next()
        .and_then(|p| p.strip_prefix("fnv1a64="))
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| corrupt(path, "envelope header missing fnv1a64= field"))?;
    let payload = &bytes[nl + 1..];
    if payload.len() != len {
        return Err(corrupt(
            path,
            format!(
                "payload is {} bytes, header says {len} (truncated?)",
                payload.len()
            ),
        ));
    }
    let actual = fnv1a64(payload);
    if actual != sum {
        return Err(corrupt(
            path,
            format!("checksum mismatch: computed {actual:016x}, header says {sum:016x}"),
        ));
    }
    Ok(payload.to_vec())
}

/// The canonical file name for a checkpoint taken after `epoch` completed
/// epochs.
pub(crate) fn file_name(epoch: u64) -> String {
    format!("{FILE_PREFIX}{epoch:06}.{CHECKPOINT_EXTENSION}")
}

/// Lists `(epochs_completed, path)` for every checkpoint file in `dir`,
/// sorted oldest-first. Files not matching the naming scheme are ignored.
pub(crate) fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err(dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name
            .strip_prefix(FILE_PREFIX)
            .and_then(|s| s.strip_suffix(&format!(".{CHECKPOINT_EXTENSION}")))
        else {
            continue;
        };
        if let Ok(epoch) = stem.parse::<u64>() {
            out.push((epoch, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Saves a checkpoint taken after `epoch` completed epochs, then prunes old
/// files down to `cfg.keep`. Plants the `io_fail` fault point (indexed by
/// epoch) so checkpoint-write failures are drillable.
pub(crate) fn save<E: Scalar>(
    cfg: &CheckpointConfig,
    id: &RunIdentity,
    st: &TrainState<E>,
) -> Result<PathBuf, CheckpointError> {
    let epoch = st.epoch as u64;
    fs::create_dir_all(&cfg.dir).map_err(|e| io_err(&cfg.dir, e))?;
    let path = cfg.dir.join(file_name(epoch));
    if cf_faults::fire(cf_faults::FaultSite::IoFail, epoch) {
        return Err(io_err(
            &path,
            cf_faults::injected_io_error(&format!("checkpoint write at epoch {epoch}")),
        ));
    }
    let payload = encode(id, st).map_err(|e| CheckpointError::Corrupt {
        path: path.clone(),
        detail: format!("payload encoding failed: {e}"),
    })?;
    write_envelope(&path, &payload).map_err(|e| io_err(&path, e))?;
    prune(cfg);
    Ok(path)
}

/// Best-effort retention: removes all but the newest `cfg.keep` files.
fn prune(cfg: &CheckpointConfig) {
    let Ok(files) = list(&cfg.dir) else { return };
    if files.len() <= cfg.keep {
        return;
    }
    for (_, path) in &files[..files.len() - cfg.keep] {
        if fs::remove_file(path).is_err() {
            cf_obs::warn!("could not prune old checkpoint {}", path.display());
        }
    }
}

/// Loads and verifies one checkpoint file.
pub(crate) fn load<E: Scalar>(
    path: &Path,
) -> Result<(RunIdentity, TrainState<E>), CheckpointError> {
    let payload = read_envelope(path)?;
    decode(path, &payload)
}

/// Loads the newest *usable* checkpoint in `dir`.
///
/// Returns `Ok(None)` when the directory is missing or holds no checkpoint
/// files (a fresh start, not an error). A corrupt newest file logs a
/// warning and falls back to its predecessor — this is the whole point of
/// retaining more than one. Only when every file is unreadable does this
/// fail, with [`CheckpointError::NoUsableCheckpoint`].
pub(crate) fn load_latest<E: Scalar>(
    dir: &Path,
) -> Result<Option<(RunIdentity, TrainState<E>, PathBuf)>, CheckpointError> {
    let files = list(dir)?;
    if files.is_empty() {
        return Ok(None);
    }
    let mut last_reason = String::new();
    for (_, path) in files.iter().rev() {
        match load(path) {
            Ok((id, st)) => return Ok(Some((id, st, path.clone()))),
            Err(e) => {
                cf_obs::warn!("skipping unusable checkpoint: {e}");
                last_reason = e.to_string();
            }
        }
    }
    Err(CheckpointError::NoUsableCheckpoint {
        dir: dir.to_path_buf(),
        detail: last_reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cf_ckpt_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn envelope_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("payload.cfck");
        let payload = br#"{"hello": [1, 2.5, -3]}"#;
        write_envelope(&path, payload).unwrap();
        assert_eq!(read_envelope(&path).unwrap(), payload);
        // No temp file left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_detects_corruption_and_truncation() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("payload.cfck");
        write_envelope(&path, b"some checkpoint payload").unwrap();

        // Flip one payload byte.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = read_envelope(&path).expect_err("must fail");
        assert!(
            matches!(&err, CheckpointError::Corrupt { detail, .. } if detail.contains("checksum")),
            "wrong error: {err}"
        );

        // Truncate.
        write_envelope(&path, b"some checkpoint payload").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = read_envelope(&path).expect_err("must fail");
        assert!(
            matches!(&err, CheckpointError::Corrupt { detail, .. } if detail.contains("truncated")),
            "wrong error: {err}"
        );

        // Wrong magic.
        fs::write(&path, b"NOTCKPT len=1 fnv1a64=0\nx").unwrap();
        assert!(matches!(
            read_envelope(&path).expect_err("must fail"),
            CheckpointError::Corrupt { .. }
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn listing_sorts_and_ignores_strangers() {
        let dir = tmp_dir("list");
        for epoch in [3u64, 1, 2] {
            write_envelope(&dir.join(file_name(epoch)), b"x").unwrap();
        }
        fs::write(dir.join("notes.txt"), "not a checkpoint").unwrap();
        fs::write(dir.join("ckpt-bad.cfck"), "not numbered").unwrap();
        let epochs: Vec<u64> = list(&dir).unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
        // Missing directory is an empty listing, not an error.
        assert!(list(&dir.join("nope")).unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_payload_roundtrips_bitwise() {
        let mk = |k: usize| {
            let data = (0..2 * k).map(|i| (i as f64 * 0.7).sin()).collect();
            TensorBase::from_vec(vec![2, k], data).unwrap()
        };
        let flat = |v: &[f64]| TensorBase::from_vec(vec![v.len()], v.to_vec()).unwrap();
        let id = RunIdentity {
            dtype: "f64".to_string(),
            config: ModelConfig::compact(3, 6),
            n_windows: 12,
            batch_size: 4,
            param_names: vec!["a".into(), "b".into()],
        };
        let st = TrainState::<f64> {
            epoch: 7,
            step: 99,
            retries: 1,
            rng: Some(vec![0xDEAD_BEEF, 7, u64::MAX]),
            order: vec![3, 0, 2, 1],
            params: vec![mk(3), mk(5)],
            best: vec![mk(3), mk(5)],
            adam: AdamStateBase {
                t: 42,
                lr: 1e-3,
                m: vec![Some(flat(&[0.1, -0.2])), None],
                v: vec![None, Some(flat(&[f64::MIN_POSITIVE]))],
            },
            // +∞ is the stopper's initial best: it must survive the trip
            // (the old JSON payload could not have represented it).
            stopper: StopperState {
                best: f64::INFINITY,
                best_epoch: 5,
                epochs_seen: 7,
                stale: 2,
            },
            train_losses: vec![1.5, 1.25, 1.0],
            val_losses: vec![],
            epoch_wall_secs: vec![0.01; 3],
            grad_norms: vec![2.0, 1.0, 0.5],
        };
        let payload = encode(&id, &st).unwrap();
        let path = Path::new("ckpt-000007.cfck");
        let (back_id, back) = decode::<f64>(path, &payload).unwrap();
        assert_eq!(back_id.dtype, "f64");
        assert_eq!(back_id.config, id.config);
        assert_eq!(back_id.n_windows, 12);
        assert_eq!(back_id.param_names, id.param_names);
        assert_eq!(back.epoch, 7);
        assert_eq!(back.step, 99);
        assert_eq!(back.rng, st.rng);
        assert_eq!(back.order, st.order);
        assert_eq!(back.params.len(), 2);
        assert_eq!(back.params[1].shape(), &[2, 5]);
        for (a, b) in back.params[1].data().iter().zip(st.params[1].data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.adam.m[0].as_ref().unwrap().data(), &[0.1, -0.2]);
        assert!(back.adam.m[1].is_none() && back.adam.v[0].is_none());
        assert_eq!(
            back.adam.v[1].as_ref().unwrap().data(),
            &[f64::MIN_POSITIVE]
        );
        assert_eq!(back.adam.lr.to_bits(), st.adam.lr.to_bits());
        assert!(back.stopper.best.is_infinite() && back.stopper.best > 0.0);
        assert_eq!(back.val_losses, Vec::<f64>::new());
        assert_eq!(back.grad_norms, st.grad_norms);
        // One encoding per state: the decoded state encodes to the same bytes.
        assert!(encode(&back_id, &back).unwrap() == payload);
    }

    #[test]
    fn legacy_json_payload_is_rejected_with_version_message() {
        let err = decode::<f64>(
            Path::new("ckpt-000001.cfck"),
            br#"{"format_version":2,"dtype":"f64"}"#,
        )
        .err()
        .expect("legacy payload must be rejected");
        let msg = err.to_string();
        assert!(
            matches!(err, CheckpointError::Mismatch { .. }) && msg.contains("legacy"),
            "wrong error: {msg}"
        );
    }

    #[test]
    fn garbage_payload_is_corrupt_not_a_panic() {
        let err = decode::<f64>(Path::new("ckpt-000001.cfck"), b"CFTENS1\nzzzzzzzz")
            .err()
            .expect("garbage must be rejected");
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn fnv_is_stable() {
        // Reference values of FNV-1a 64 (offset basis, and "a").
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
