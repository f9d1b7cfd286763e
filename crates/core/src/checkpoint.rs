//! Crash-safe training checkpoints.
//!
//! A checkpoint captures *everything* the training loop mutates — parameter
//! values, best-epoch snapshot, Adam moments and step count, early-stopping
//! state, the RNG state, the (accumulated) shuffle order, and the loss
//! history — so a killed run resumed from disk continues **bitwise
//! identically** to one that never died (see `tests/resume_determinism.rs`).
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
//! The scalar training state (epoch counters, Adam step, early-stopping
//! counters, config) lives in the CFTENS1 `meta` JSON string; every array
//! (parameters, best-epoch snapshot, Adam moments, RNG words, shuffle
//! order, loss history) is a named tensor section read back with a bulk
//! copy instead of per-element JSON parsing. Format versions ≤ 2 used a
//! JSON payload and are rejected with a clear [`CheckpointError::Mismatch`].
//!
//! The checksum turns silent corruption (torn writes, bad disks) into a
//! loud [`CheckpointError::Corrupt`]; `load_latest` then falls back to
//! the next-newest intact file. Writes are atomic — temp file, `fsync`,
//! `rename`, directory `fsync` — so a crash mid-write can never destroy an
//! existing checkpoint. Retention keeps the newest
//! [`CheckpointConfig::keep`] files.

use crate::persist::{SavedConfig, SavedParam};
use cf_store::{TensorFile, TensorFileBuilder};
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

/// The full training state, mirroring every variable the training loop
/// mutates across epochs. Flat primitives/containers only — the vendored
/// serde derive handles exactly non-generic named-field structs.
#[derive(Serialize, Deserialize)]
pub(crate) struct SavedCheckpoint {
    pub(crate) format_version: u32,
    /// Element type the run trained in (`"f32"`/`"f64"`); resume refuses a
    /// dtype mismatch. Parameter payloads below are always stored widened
    /// to f64 regardless of this tag.
    pub(crate) dtype: String,
    /// Architecture this state belongs to; resume verifies equality.
    pub(crate) config: SavedConfig,
    /// Total window count of the run (train + validation split derives
    /// from it deterministically).
    pub(crate) n_windows: usize,
    pub(crate) batch_size: usize,
    /// Epochs completed; resume continues at this epoch index.
    pub(crate) next_epoch: usize,
    /// Global gradient-step counter (drives `CF_FAULT=nan:stepN` indices).
    pub(crate) step: u64,
    /// Total rollback retries consumed so far (telemetry).
    pub(crate) retries: u64,
    /// RNG state words (see `cf_tensor::capture_rng`).
    pub(crate) rng: Vec<u64>,
    /// The accumulated shuffle order. Each epoch shuffles the *previous*
    /// epoch's order in place, so the permutation itself is state.
    pub(crate) order: Vec<usize>,
    /// Current parameter values.
    pub(crate) params: Vec<SavedParam>,
    /// Best-validation-epoch parameter values.
    pub(crate) best_params: Vec<SavedParam>,
    pub(crate) adam_t: u64,
    pub(crate) adam_lr: f64,
    /// Adam first moments, indexed by parameter; data only, shapes follow
    /// the architecture.
    pub(crate) adam_m: Vec<Option<Vec<f64>>>,
    /// Adam second moments.
    pub(crate) adam_v: Vec<Option<Vec<f64>>>,
    pub(crate) stopper_best: f64,
    pub(crate) stopper_best_epoch: usize,
    pub(crate) stopper_epochs_seen: usize,
    pub(crate) stopper_stale: usize,
    pub(crate) train_losses: Vec<f64>,
    pub(crate) val_losses: Vec<f64>,
    pub(crate) epoch_wall_secs: Vec<f64>,
    pub(crate) grad_norms: Vec<f64>,
}

/// The scalar half of a v3 checkpoint, serialised as the CFTENS1 `meta`
/// JSON string. Floating-point scalars that may be non-finite
/// (`stopper_best` starts at `+∞`) live in the `scalars` tensor section
/// instead, where the raw-bits encoding is exact by construction.
#[derive(Serialize, Deserialize)]
struct MetaV3 {
    format_version: u32,
    dtype: String,
    config: SavedConfig,
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

/// Encodes the full training state as a CFTENS1 document.
fn encode_payload(saved: &SavedCheckpoint) -> Result<Vec<u8>, String> {
    let meta = MetaV3 {
        format_version: saved.format_version,
        dtype: saved.dtype.clone(),
        config: saved.config.clone(),
        n_windows: saved.n_windows,
        batch_size: saved.batch_size,
        next_epoch: saved.next_epoch,
        step: saved.step,
        retries: saved.retries,
        adam_t: saved.adam_t,
        stopper_best_epoch: saved.stopper_best_epoch,
        stopper_epochs_seen: saved.stopper_epochs_seen,
        stopper_stale: saved.stopper_stale,
        param_names: saved.params.iter().map(|p| p.name.clone()).collect(),
    };
    let meta_json = serde_json::to_string(&meta).map_err(|e| format!("meta encoding: {e}"))?;
    let mut b = TensorFileBuilder::new().meta(meta_json);
    for (i, p) in saved.params.iter().enumerate() {
        b.push_slice(&format!("param.{i}"), p.shape.clone(), &p.data);
    }
    for (i, p) in saved.best_params.iter().enumerate() {
        b.push_slice(&format!("best.{i}"), p.shape.clone(), &p.data);
    }
    for (i, m) in saved.adam_m.iter().enumerate() {
        if let Some(m) = m {
            b.push_f64(&format!("adam_m.{i}"), m);
        }
    }
    for (i, v) in saved.adam_v.iter().enumerate() {
        if let Some(v) = v {
            b.push_f64(&format!("adam_v.{i}"), v);
        }
    }
    b.push_u64("rng", &saved.rng);
    let order: Vec<u64> = saved.order.iter().map(|&o| o as u64).collect();
    b.push_u64("order", &order);
    b.push_f64("scalars", &[saved.adam_lr, saved.stopper_best]);
    b.push_f64("train_losses", &saved.train_losses);
    b.push_f64("val_losses", &saved.val_losses);
    b.push_f64("epoch_wall_secs", &saved.epoch_wall_secs);
    b.push_f64("grad_norms", &saved.grad_norms);
    Ok(b.finish())
}

/// Decodes a CFTENS1 checkpoint payload back into the training state.
fn decode_payload(path: &Path, payload: &[u8]) -> Result<SavedCheckpoint, CheckpointError> {
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
    let n = meta.param_names.len();
    let read = |e: cf_store::StoreError| corrupt(path, e.to_string());
    let mut params = Vec::with_capacity(n);
    let mut best_params = Vec::with_capacity(n);
    let mut adam_m = Vec::with_capacity(n);
    let mut adam_v = Vec::with_capacity(n);
    for (i, name) in meta.param_names.iter().enumerate() {
        let pk = format!("param.{i}");
        let bk = format!("best.{i}");
        params.push(SavedParam {
            name: name.clone(),
            shape: file.shape(&pk).map_err(read)?.to_vec(),
            data: file.f64s(&pk).map_err(read)?,
        });
        best_params.push(SavedParam {
            name: name.clone(),
            shape: file.shape(&bk).map_err(read)?.to_vec(),
            data: file.f64s(&bk).map_err(read)?,
        });
        let mk = format!("adam_m.{i}");
        adam_m.push(if file.has(&mk) {
            Some(file.f64s(&mk).map_err(read)?)
        } else {
            None
        });
        let vk = format!("adam_v.{i}");
        adam_v.push(if file.has(&vk) {
            Some(file.f64s(&vk).map_err(read)?)
        } else {
            None
        });
    }
    let scalars = file.f64s("scalars").map_err(read)?;
    if scalars.len() != 2 {
        return Err(corrupt(
            path,
            format!("scalars section has {} entries, expected 2", scalars.len()),
        ));
    }
    Ok(SavedCheckpoint {
        format_version: meta.format_version,
        dtype: meta.dtype,
        config: meta.config,
        n_windows: meta.n_windows,
        batch_size: meta.batch_size,
        next_epoch: meta.next_epoch,
        step: meta.step,
        retries: meta.retries,
        rng: file.u64s("rng").map_err(read)?,
        order: file
            .u64s("order")
            .map_err(read)?
            .into_iter()
            .map(|o| o as usize)
            .collect(),
        params,
        best_params,
        adam_t: meta.adam_t,
        adam_lr: scalars[0],
        adam_m,
        adam_v,
        stopper_best: scalars[1],
        stopper_best_epoch: meta.stopper_best_epoch,
        stopper_epochs_seen: meta.stopper_epochs_seen,
        stopper_stale: meta.stopper_stale,
        train_losses: file.f64s("train_losses").map_err(read)?,
        val_losses: file.f64s("val_losses").map_err(read)?,
        epoch_wall_secs: file.f64s("epoch_wall_secs").map_err(read)?,
        grad_norms: file.f64s("grad_norms").map_err(read)?,
    })
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
pub(crate) fn save(
    cfg: &CheckpointConfig,
    saved: &SavedCheckpoint,
    epoch: u64,
) -> Result<PathBuf, CheckpointError> {
    fs::create_dir_all(&cfg.dir).map_err(|e| io_err(&cfg.dir, e))?;
    let path = cfg.dir.join(file_name(epoch));
    if cf_faults::fire(cf_faults::FaultSite::IoFail, epoch) {
        return Err(io_err(
            &path,
            cf_faults::injected_io_error(&format!("checkpoint write at epoch {epoch}")),
        ));
    }
    let payload = encode_payload(saved).map_err(|e| CheckpointError::Corrupt {
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
pub(crate) fn load(path: &Path) -> Result<SavedCheckpoint, CheckpointError> {
    let payload = read_envelope(path)?;
    decode_payload(path, &payload)
}

/// Loads the newest *usable* checkpoint in `dir`.
///
/// Returns `Ok(None)` when the directory is missing or holds no checkpoint
/// files (a fresh start, not an error). A corrupt newest file logs a
/// warning and falls back to its predecessor — this is the whole point of
/// retaining more than one. Only when every file is unreadable does this
/// fail, with [`CheckpointError::NoUsableCheckpoint`].
pub(crate) fn load_latest(
    dir: &Path,
) -> Result<Option<(SavedCheckpoint, PathBuf)>, CheckpointError> {
    let files = list(dir)?;
    if files.is_empty() {
        return Ok(None);
    }
    let mut last_reason = String::new();
    for (_, path) in files.iter().rev() {
        match load(path) {
            Ok(saved) => return Ok(Some((saved, path.clone()))),
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
        let config = crate::persist::saved_config(&crate::config::ModelConfig::compact(3, 6));
        let mk = |name: &str, k: usize| SavedParam {
            name: name.to_string(),
            shape: vec![2, k],
            data: (0..2 * k).map(|i| (i as f64 * 0.7).sin()).collect(),
        };
        let saved = SavedCheckpoint {
            format_version: CHECKPOINT_FORMAT_VERSION,
            dtype: "f64".to_string(),
            config,
            n_windows: 12,
            batch_size: 4,
            next_epoch: 7,
            step: 99,
            retries: 1,
            rng: vec![0xDEAD_BEEF, 7, u64::MAX],
            order: vec![3, 0, 2, 1],
            params: vec![mk("a", 3), mk("b", 5)],
            best_params: vec![mk("a", 3), mk("b", 5)],
            adam_t: 42,
            adam_lr: 1e-3,
            adam_m: vec![Some(vec![0.1, -0.2]), None],
            adam_v: vec![None, Some(vec![f64::MIN_POSITIVE])],
            // +∞ is the stopper's initial best: it must survive the trip
            // (the old JSON payload could not have represented it).
            stopper_best: f64::INFINITY,
            stopper_best_epoch: 5,
            stopper_epochs_seen: 7,
            stopper_stale: 2,
            train_losses: vec![1.5, 1.25, 1.0],
            val_losses: vec![],
            epoch_wall_secs: vec![0.01; 3],
            grad_norms: vec![2.0, 1.0, 0.5],
        };
        let payload = encode_payload(&saved).unwrap();
        let back = decode_payload(Path::new("ckpt-000007.cfck"), &payload).unwrap();
        assert_eq!(back.dtype, "f64");
        assert_eq!(back.n_windows, 12);
        assert_eq!(back.next_epoch, 7);
        assert_eq!(back.step, 99);
        assert_eq!(back.rng, saved.rng);
        assert_eq!(back.order, saved.order);
        assert_eq!(back.params.len(), 2);
        assert_eq!(back.params[1].name, "b");
        assert_eq!(back.params[1].shape, vec![2, 5]);
        for (a, b) in back.params[1].data.iter().zip(&saved.params[1].data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.adam_m[0].as_deref(), Some(&[0.1, -0.2][..]));
        assert!(back.adam_m[1].is_none());
        assert!(back.adam_v[0].is_none());
        assert_eq!(back.adam_v[1].as_deref(), Some(&[f64::MIN_POSITIVE][..]));
        assert_eq!(back.adam_lr.to_bits(), saved.adam_lr.to_bits());
        assert!(back.stopper_best.is_infinite() && back.stopper_best > 0.0);
        assert_eq!(back.val_losses, Vec::<f64>::new());
        assert_eq!(back.grad_norms, saved.grad_norms);
    }

    #[test]
    fn legacy_json_payload_is_rejected_with_version_message() {
        let err = decode_payload(
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
        let err = decode_payload(Path::new("ckpt-000001.cfck"), b"CFTENS1\nzzzzzzzz")
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
