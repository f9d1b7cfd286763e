//! The chunked time-series store.
//!
//! An `N×L` series matrix is cut on a fixed grid: `chunk_series` rows by
//! `chunk_len` columns per cell (edge cells are smaller). Each cell is one
//! storage object named `c{vi:04}_{ti:08}.cfc` (`vi` = variable-block
//! index, `ti` = time-block index), laid out as:
//!
//! ```text
//! offset 0   magic    b"CFCHNK1\n"          (8 bytes)
//! offset 8   u32 LE   crc32(encoded payload)
//! offset 12  u32 LE   raw payload length in bytes (rows·cols·8)
//! offset 16  u32 LE   rows   (series in this block)
//! offset 20  u32 LE   cols   (time steps in this block)
//! offset 24  encoded payload (codec pipeline over row-major f64 LE)
//! ```
//!
//! The CRC covers the *encoded* bytes, so a torn write or bit flip is
//! caught before the codec ever runs. A `manifest.json` object records the
//! grid geometry and codec so readers never guess, and each series' sum
//! `Σx` (see [`Manifest::sums`]).
//!
//! [`SeriesWriter`] ingests one time-step sample at a time (the shape a
//! simulator produces) under `O(n_series · chunk_len)` memory, folding the
//! sums as it goes. [`SeriesStore::standardized_windows`] reads every
//! chunk once: one scan checks each chunk's CRC, decodes it, folds the
//! squared deviations from the stored means and copies out the columns of
//! the requested windows, which it standardizes once the scan has seen
//! every chunk. Memory is one chunk plus the windows themselves, so both
//! generation and discovery stay independent of the series length.
//!
//! ## Bitwise contract
//!
//! Standardization statistics accumulate each series' sums in ascending
//! time order — at ingest for `Σx`, chunk by chunk in the scan for
//! `Σ(x − mean)²` — the *same addition order* as the in-RAM pipeline's
//! `row.iter().sum()`, and windows apply the same `(x - mean) / std`
//! expression per element, so a streamed window is bitwise identical to
//! one sliced from the fully materialised, standardized matrix. Every
//! scan also refolds `Σx` from the chunks and fails unless it matches the
//! stored sums bit for bit.

use crate::codec::Pipeline;
use crate::storage::Storage;
use crate::{crc32, StoreError};
use cf_tensor::Tensor;
use serde::{Deserialize, Serialize, Value};
use std::ops::Range;
use std::sync::Arc;

const CHUNK_MAGIC: &[u8; 8] = b"CFCHNK1\n";
const HEADER_LEN: usize = 24;
const MANIFEST_KEY: &str = "manifest.json";
const MANIFEST_MAGIC: &str = "CFSTORE1";

/// Store geometry and encoding, persisted as `manifest.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Format magic, always `"CFSTORE1"`.
    pub magic: String,
    /// Number of series (variables), the matrix's row count.
    pub n_series: usize,
    /// Total time steps, the matrix's column count.
    pub length: usize,
    /// Rows per chunk block (the last block may be smaller).
    pub chunk_series: usize,
    /// Columns per chunk block (the last block may be smaller).
    pub chunk_len: usize,
    /// Codec pipeline name (`"raw"`, `"delta"`, `"delta-varint"`).
    pub codec: String,
    /// Element type of the stored samples; always `"f64"` today.
    pub dtype: String,
    /// Each series' `Σx`, folded in ascending time order at ingest, as
    /// `f64` bits (one per series). Readers take the means from it and
    /// check it against the chunks on every scan. `None` for stores
    /// written before the field existed; those still open, and their
    /// scans first stream a pass that folds the sums.
    pub sums: Option<Vec<u64>>,
}

impl Manifest {
    /// Number of variable blocks along the series axis.
    pub fn v_blocks(&self) -> usize {
        self.n_series.div_ceil(self.chunk_series)
    }

    /// Number of time blocks along the time axis.
    pub fn t_blocks(&self) -> usize {
        self.length.div_ceil(self.chunk_len)
    }

    /// Rows in variable block `vi`.
    fn rows_of(&self, vi: usize) -> usize {
        (self.n_series - vi * self.chunk_series).min(self.chunk_series)
    }

    /// Columns in time block `ti`.
    fn cols_of(&self, ti: usize) -> usize {
        (self.length - ti * self.chunk_len).min(self.chunk_len)
    }
}

/// The storage key of chunk `(vi, ti)`.
pub fn chunk_key(vi: usize, ti: usize) -> String {
    format!("c{vi:04}_{ti:08}.cfc")
}

/// Streams time-step samples into a chunked store. Memory is bounded by
/// one column-block: `n_series × chunk_len` samples.
pub struct SeriesWriter {
    storage: Arc<dyn Storage>,
    codec: Pipeline,
    n_series: usize,
    chunk_series: usize,
    chunk_len: usize,
    /// Row-major `[n_series × buffered]` raw samples of the current block.
    buf: Vec<f64>,
    buffered: usize,
    /// Completed time blocks already flushed.
    t_blocks_done: usize,
    length: usize,
    /// Per-series `Σx` over every appended sample, in ascending time.
    sums: Vec<f64>,
    /// The chunk being written, reused across chunks.
    chunk: Vec<u8>,
}

impl SeriesWriter {
    /// Starts a new store. `chunk_series`/`chunk_len` set the grid;
    /// `codec` is a registered pipeline name.
    pub fn new(
        storage: Arc<dyn Storage>,
        n_series: usize,
        chunk_series: usize,
        chunk_len: usize,
        codec: &str,
    ) -> Result<Self, StoreError> {
        if n_series == 0 || chunk_series == 0 || chunk_len == 0 {
            return Err(StoreError::Invalid {
                detail: format!(
                    "store geometry must be nonzero (n_series={n_series}, \
                     chunk_series={chunk_series}, chunk_len={chunk_len})"
                ),
            });
        }
        let chunk_series = chunk_series.min(n_series);
        // The chunk header holds the payload's byte length in a u32.
        let raw_len = chunk_series
            .checked_mul(chunk_len)
            .and_then(|s| s.checked_mul(8));
        if raw_len.and_then(|b| u32::try_from(b).ok()).is_none() {
            return Err(StoreError::Invalid {
                detail: format!("a {chunk_series}×{chunk_len} chunk exceeds the 4 GiB chunk limit"),
            });
        }
        let codec = Pipeline::by_name(codec)?;
        Ok(Self {
            storage,
            codec,
            n_series,
            chunk_series,
            chunk_len,
            buf: vec![0.0; n_series * chunk_len],
            buffered: 0,
            t_blocks_done: 0,
            length: 0,
            sums: vec![0.0; n_series],
            chunk: Vec::new(),
        })
    }

    /// Appends one time step (`sample.len()` must equal `n_series`).
    pub fn append(&mut self, sample: &[f64]) -> Result<(), StoreError> {
        if sample.len() != self.n_series {
            return Err(StoreError::Invalid {
                detail: format!(
                    "sample has {} values, store holds {} series",
                    sample.len(),
                    self.n_series
                ),
            });
        }
        let c = self.buffered;
        for (i, &v) in sample.iter().enumerate() {
            self.buf[i * self.chunk_len + c] = v;
            self.sums[i] += v;
        }
        self.buffered += 1;
        self.length += 1;
        if self.buffered == self.chunk_len {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Writes the buffered column block as one chunk per variable block,
    /// each encoded straight behind its header.
    fn flush_block(&mut self) -> Result<(), StoreError> {
        let cols = self.buffered;
        if cols == 0 {
            return Ok(());
        }
        let ti = self.t_blocks_done;
        let v_blocks = self.n_series.div_ceil(self.chunk_series);
        let (buf, chunk_len) = (&self.buf, self.chunk_len);
        for vi in 0..v_blocks {
            let r0 = vi * self.chunk_series;
            let rows = (self.n_series - r0).min(self.chunk_series);
            let chunk = &mut self.chunk;
            chunk.clear();
            chunk.extend_from_slice(CHUNK_MAGIC);
            // The CRC slot, filled once the payload is in.
            chunk.extend_from_slice(&[0; 4]);
            // `new` bounded the largest chunk's byte length by `u32::MAX`.
            chunk.extend_from_slice(&((rows * cols * 8) as u32).to_le_bytes());
            chunk.extend_from_slice(&(rows as u32).to_le_bytes());
            chunk.extend_from_slice(&(cols as u32).to_le_bytes());
            let row = |r: usize| &buf[r * chunk_len..][..cols];
            self.codec.encode_f64s((r0..r0 + rows).map(row), chunk);
            let crc = crc32(&chunk[HEADER_LEN..]);
            chunk[8..12].copy_from_slice(&crc.to_le_bytes());
            self.storage.put(&chunk_key(vi, ti), chunk)?;
        }
        self.t_blocks_done += 1;
        self.buffered = 0;
        Ok(())
    }

    /// Flushes the tail block and writes the manifest. Returns the final
    /// manifest.
    pub fn finish(mut self) -> Result<Manifest, StoreError> {
        self.flush_block()?;
        if self.length == 0 {
            return Err(StoreError::Invalid {
                detail: "cannot finish an empty store (no samples appended)".into(),
            });
        }
        let manifest = Manifest {
            magic: MANIFEST_MAGIC.to_string(),
            n_series: self.n_series,
            length: self.length,
            chunk_series: self.chunk_series,
            chunk_len: self.chunk_len,
            codec: self.codec.name().to_string(),
            dtype: "f64".to_string(),
            sums: Some(self.sums.iter().map(|s| s.to_bits()).collect()),
        };
        let json = serde_json::to_string(&manifest).map_err(|e| StoreError::Invalid {
            detail: format!("manifest: {e}"),
        })?;
        self.storage.put(MANIFEST_KEY, json.as_bytes())?;
        Ok(manifest)
    }
}

/// Read access to a chunked store.
pub struct SeriesStore {
    storage: Arc<dyn Storage>,
    manifest: Manifest,
    codec: Pipeline,
}

impl SeriesStore {
    /// Opens a store by reading and validating its manifest.
    pub fn open(storage: Arc<dyn Storage>) -> Result<Self, StoreError> {
        let target = storage.target(MANIFEST_KEY);
        let bytes = storage.get(MANIFEST_KEY)?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| StoreError::corrupt(&target, format!("manifest is not UTF-8: {e}")))?;
        let mut value: Value = serde_json::from_str(text)
            .map_err(|e| StoreError::corrupt(&target, format!("unparseable manifest: {e}")))?;
        // A manifest from before `sums` existed lacks the field, which the
        // derived `Deserialize` would reject even for an `Option`.
        if let Value::Object(fields) = &mut value {
            if !fields.iter().any(|(k, _)| k == "sums") {
                fields.push(("sums".into(), Value::Null));
            }
        }
        let manifest = Manifest::from_value(&value)
            .map_err(|e| StoreError::corrupt(&target, format!("unparseable manifest: {e}")))?;
        if manifest.magic != MANIFEST_MAGIC {
            return Err(StoreError::corrupt(
                &target,
                format!(
                    "manifest magic {:?}, expected {MANIFEST_MAGIC:?}",
                    manifest.magic
                ),
            ));
        }
        if manifest.dtype != "f64" {
            return Err(StoreError::mismatch(
                &target,
                format!(
                    "store dtype {:?}, this build reads f64 stores",
                    manifest.dtype
                ),
            ));
        }
        if manifest.n_series == 0
            || manifest.length == 0
            || manifest.chunk_series == 0
            || manifest.chunk_len == 0
        {
            return Err(StoreError::corrupt(&target, "manifest has zero geometry"));
        }
        if let Some(sums) = &manifest.sums {
            if sums.len() != manifest.n_series {
                return Err(StoreError::corrupt(
                    &target,
                    format!(
                        "manifest stores {} sums for {} series",
                        sums.len(),
                        manifest.n_series
                    ),
                ));
            }
        }
        let codec = Pipeline::by_name(&manifest.codec)?;
        Ok(Self {
            storage,
            manifest,
            codec,
        })
    }

    /// Opens a filesystem store rooted at `dir`.
    pub fn open_dir(dir: impl Into<std::path::PathBuf>) -> Result<Self, StoreError> {
        Self::open(Arc::new(crate::storage::FsStorage::new(dir)))
    }

    /// The store's manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Reads and fully validates chunk `(vi, ti)`: magic, CRC, codec
    /// decode, and length/geometry agreement. Returns the raw row-major
    /// samples (`rows × cols`).
    pub fn read_chunk(&self, vi: usize, ti: usize) -> Result<Vec<f64>, StoreError> {
        let mut out = Vec::new();
        self.read_chunk_into(vi, ti, &mut out)?;
        Ok(out)
    }

    /// [`SeriesStore::read_chunk`] into a caller's buffer, so a scan
    /// reuses one allocation for every chunk.
    fn read_chunk_into(&self, vi: usize, ti: usize, out: &mut Vec<f64>) -> Result<(), StoreError> {
        let key = chunk_key(vi, ti);
        let target = self.storage.target(&key);
        let bytes = self.storage.get(&key)?;
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::corrupt(
                &target,
                format!("truncated chunk: {} bytes, header needs 24", bytes.len()),
            ));
        }
        if &bytes[..8] != CHUNK_MAGIC {
            return Err(StoreError::corrupt(&target, "bad chunk magic"));
        }
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let want_crc = word(8);
        let raw_len = word(12) as usize;
        let rows = word(16) as usize;
        let cols = word(20) as usize;
        let encoded = &bytes[HEADER_LEN..];
        let got_crc = crc32(encoded);
        if got_crc != want_crc {
            return Err(StoreError::corrupt(
                &target,
                format!("checksum mismatch: stored {want_crc:08x}, computed {got_crc:08x}"),
            ));
        }
        if rows != self.manifest.rows_of(vi) || cols != self.manifest.cols_of(ti) {
            return Err(StoreError::corrupt(
                &target,
                format!(
                    "chunk claims {rows}×{cols}, manifest grid expects {}×{}",
                    self.manifest.rows_of(vi),
                    self.manifest.cols_of(ti)
                ),
            ));
        }
        // Checked: a hostile header's geometry can overflow `usize`.
        let samples = rows.checked_mul(cols);
        self.codec
            .decode_f64s(encoded, samples.unwrap_or(usize::MAX), out)
            .map_err(|e| StoreError::corrupt(&target, format!("codec decode failed: {e}")))?;
        let need = samples.and_then(|n| n.checked_mul(8));
        let decoded = out.len() * 8;
        if decoded != raw_len || need != Some(raw_len) {
            let need = need.map_or("more than usize::MAX".into(), |n| n.to_string());
            return Err(StoreError::corrupt(
                &target,
                format!("decoded {decoded} bytes, header claims {raw_len}, geometry needs {need}"),
            ));
        }
        Ok(())
    }

    /// Materialises columns `[t0, t1)` as an `n_series × (t1-t0)` tensor.
    pub fn read_range(&self, t0: usize, t1: usize) -> Result<Tensor, StoreError> {
        let m = &self.manifest;
        if t0 >= t1 || t1 > m.length {
            return Err(StoreError::Invalid {
                detail: format!("range [{t0}, {t1}) outside store of length {}", m.length),
            });
        }
        let width = t1 - t0;
        let samples = m
            .n_series
            .checked_mul(width)
            .ok_or_else(|| StoreError::Invalid {
                detail: format!("{} series × {width} steps overflows usize", m.n_series),
            })?;
        let mut data = vec![0.0f64; samples];
        let mut chunk = Vec::new();
        for ti in t0 / m.chunk_len..=(t1 - 1) / m.chunk_len {
            let block_t0 = ti * m.chunk_len;
            let cols = m.cols_of(ti);
            // Columns of this block that intersect [t0, t1).
            let lo = t0.max(block_t0) - block_t0;
            let hi = t1.min(block_t0 + cols) - block_t0;
            for vi in 0..m.v_blocks() {
                self.read_chunk_into(vi, ti, &mut chunk)?;
                let r0 = vi * m.chunk_series;
                for (r, row) in chunk.chunks_exact(cols).enumerate() {
                    let dst_t = block_t0 + lo - t0;
                    data[(r0 + r) * width + dst_t..][..hi - lo].copy_from_slice(&row[lo..hi]);
                }
            }
        }
        Tensor::from_vec(vec![m.n_series, width], data).map_err(|e| StoreError::Invalid {
            detail: e.to_string(),
        })
    }

    /// Materialises the whole series. For tests and small stores; the point
    /// of this crate is that discovery does *not* need this.
    pub fn read_all(&self) -> Result<Tensor, StoreError> {
        self.read_range(0, self.manifest.length)
    }

    /// Per-series standardization statistics: the scan behind
    /// [`SeriesStore::standardized_windows`], with no windows. The folds,
    /// the `1e-12` std floor and the final division are those of
    /// `cf_data::window::standardize`, the workspace's one z-score:
    /// addition order per series is ascending `t`, so the results are
    /// bitwise identical to its `row.iter().sum()` folds.
    pub fn stats(&self) -> Result<StandardizeStats, StoreError> {
        self.scan(&WindowPlan::NONE).map(|(stats, _)| stats)
    }

    /// Standardized `n_series × window` training windows at `stride`,
    /// from one read of every chunk (two for a store whose manifest lacks
    /// [`Manifest::sums`]). The scan holds the windows it will yield,
    /// `expected_windows · n_series · window` samples, plus one decoded
    /// chunk. Every read error, and a mismatch between the chunks' sums
    /// and the stored ones, fails here, before any window is yielded.
    ///
    /// `read_ahead` has no effect: it bounded a carry buffer the one-read
    /// scan no longer keeps, and stays so existing callers still build.
    pub fn standardized_windows(
        &self,
        window: usize,
        stride: usize,
        read_ahead: usize,
    ) -> Result<WindowScan, StoreError> {
        let _ = read_ahead;
        let m = &self.manifest;
        if window == 0 || stride == 0 {
            return Err(StoreError::Invalid {
                detail: format!("window ({window}) and stride ({stride}) must be nonzero"),
            });
        }
        if window > m.length {
            return Err(StoreError::Invalid {
                detail: format!("window {window} exceeds store length {}", m.length),
            });
        }
        let plan = WindowPlan {
            window,
            stride,
            count: (m.length - window) / stride + 1,
        };
        let (stats, windows) = self.scan(&plan)?;
        Ok(WindowScan {
            stats,
            shape: vec![m.n_series, window],
            windows: windows.into_iter(),
        })
    }

    /// Each series' `Σx` from a pass over every chunk, for stores whose
    /// manifest does not carry them.
    fn column_sums(&self) -> Result<Vec<f64>, StoreError> {
        let m = &self.manifest;
        let mut sums = vec![0.0f64; m.n_series];
        let mut chunk = Vec::new();
        for ti in 0..m.t_blocks() {
            for vi in 0..m.v_blocks() {
                self.read_chunk_into(vi, ti, &mut chunk)?;
                let rows = chunk.chunks_exact(m.cols_of(ti));
                for (sum, row) in sums[vi * m.chunk_series..].iter_mut().zip(rows) {
                    for &v in row {
                        *sum += v;
                    }
                }
            }
        }
        Ok(sums)
    }

    /// The one scan: reads every chunk once in ascending time order,
    /// folds `Σx` and `Σ(x − mean)²` per series with the stored means, and
    /// copies each chunk's columns into the planned windows it touches.
    /// After the last chunk it checks the refolded `Σx` against the stored
    /// sums, then standardizes the windows in place.
    fn scan(&self, plan: &WindowPlan) -> Result<(StandardizeStats, Vec<Vec<f64>>), StoreError> {
        let m = &self.manifest;
        let n = m.n_series;
        let len = m.length as f64;
        let stored: Vec<f64> = match &m.sums {
            Some(bits) => bits.iter().map(|&b| f64::from_bits(b)).collect(),
            None => self.column_sums()?,
        };
        let means: Vec<f64> = stored.iter().map(|s| s / len).collect();
        let size = n
            .checked_mul(plan.window)
            .filter(|s| s.checked_mul(plan.count).is_some())
            .ok_or_else(|| StoreError::Invalid {
                detail: format!(
                    "{} windows of {n} series × {} steps overflow usize",
                    plan.count, plan.window
                ),
            })?;
        let mut windows = vec![vec![0.0f64; size]; plan.count];
        let (mut sums, mut sq) = (vec![0.0f64; n], vec![0.0f64; n]);
        let mut chunk = Vec::new();
        for ti in 0..m.t_blocks() {
            let (b0, cols) = (ti * m.chunk_len, m.cols_of(ti));
            let touching = plan.touching(b0, cols);
            for vi in 0..m.v_blocks() {
                self.read_chunk_into(vi, ti, &mut chunk)?;
                let r0 = vi * m.chunk_series;
                for (r, row) in chunk.chunks_exact(cols).enumerate() {
                    let i = r0 + r;
                    let mean = means[i];
                    let (mut s, mut q) = (sums[i], sq[i]);
                    for &v in row {
                        s += v;
                        q += (v - mean) * (v - mean);
                    }
                    sums[i] = s;
                    sq[i] = q;
                    for k in touching.clone() {
                        let start = k * plan.stride;
                        let lo = start.max(b0);
                        let hi = (start + plan.window).min(b0 + cols);
                        windows[k][i * plan.window + lo - start..][..hi - lo]
                            .copy_from_slice(&row[lo - b0..hi - b0]);
                    }
                }
            }
        }
        if let Some(i) = (0..n).find(|&i| sums[i].to_bits() != stored[i].to_bits()) {
            return Err(StoreError::corrupt(
                self.storage.target(MANIFEST_KEY),
                format!(
                    "series {i}: the chunks sum to {}, the manifest stores {}",
                    sums[i], stored[i]
                ),
            ));
        }
        let stds: Vec<f64> = sq.iter().map(|q| (q / len).sqrt().max(1e-12)).collect();
        for w in &mut windows {
            for (i, row) in w.chunks_exact_mut(plan.window).enumerate() {
                let (mean, std) = (means[i], stds[i]);
                for v in row {
                    // The exact expression of `cf_data::window::standardize`.
                    *v = (*v - mean) / std;
                }
            }
        }
        Ok((StandardizeStats { means, stds }, windows))
    }
}

/// The windows one scan collects: `count` windows of `window` columns,
/// starting at every multiple of `stride`.
struct WindowPlan {
    window: usize,
    stride: usize,
    count: usize,
}

impl WindowPlan {
    /// No windows: the scan only folds the statistics.
    const NONE: WindowPlan = WindowPlan {
        window: 0,
        stride: 1,
        count: 0,
    };

    /// Indices of the windows that overlap columns `[b0, b0 + cols)`.
    fn touching(&self, b0: usize, cols: usize) -> Range<usize> {
        if self.count == 0 {
            return 0..0;
        }
        // First window ending past `b0`; one past the last starting
        // before the block ends.
        let first = match b0.checked_sub(self.window) {
            Some(gap) => gap / self.stride + 1,
            None => 0,
        };
        let end = ((b0 + cols - 1) / self.stride + 1).min(self.count);
        first..end.max(first)
    }
}

/// Per-series mean and standard deviation (the standardization
/// parameters), computed by [`SeriesStore::stats`].
#[derive(Debug, Clone)]
pub struct StandardizeStats {
    /// Per-series mean.
    pub means: Vec<f64>,
    /// Per-series std, floored at `1e-12` like `cf_data::window::standardize`.
    pub stds: Vec<f64>,
}

/// The standardized training windows of one scan, yielded by value as
/// `n_series × window` tensors in ascending start order. The scan already
/// read and checked every chunk, so no item is an `Err` from storage.
pub struct WindowScan {
    stats: StandardizeStats,
    shape: Vec<usize>,
    windows: std::vec::IntoIter<Vec<f64>>,
}

impl WindowScan {
    /// The standardization statistics in effect for this scan.
    pub fn stats(&self) -> &StandardizeStats {
        &self.stats
    }

    /// Windows this scan has yet to yield (all of them before the first
    /// `next`).
    pub fn expected_windows(&self) -> usize {
        self.windows.len()
    }
}

impl Iterator for WindowScan {
    type Item = Result<Tensor, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let data = self.windows.next()?;
        Some(
            Tensor::from_vec(self.shape.clone(), data).map_err(|e| StoreError::Invalid {
                detail: e.to_string(),
            }),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.windows.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    /// Deterministic pseudo-random series (no RNG dependency needed here).
    fn synth(n: usize, l: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..l)
                    .map(|t| ((i * 31 + t * 7) as f64 * 0.137).sin() * (i + 1) as f64 + i as f64)
                    .collect()
            })
            .collect()
    }

    fn build_store(
        rows: &[Vec<f64>],
        chunk_series: usize,
        chunk_len: usize,
        codec: &str,
    ) -> SeriesStore {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let n = rows.len();
        let l = rows[0].len();
        let mut w =
            SeriesWriter::new(Arc::clone(&storage), n, chunk_series, chunk_len, codec).unwrap();
        for t in 0..l {
            let sample: Vec<f64> = rows.iter().map(|r| r[t]).collect();
            w.append(&sample).unwrap();
        }
        let manifest = w.finish().unwrap();
        assert_eq!(manifest.length, l);
        SeriesStore::open(storage).unwrap()
    }

    #[test]
    fn write_read_roundtrip_bitwise() {
        // Length 103 with chunk_len 16 exercises a ragged tail block;
        // chunk_series 2 over 5 series exercises a ragged variable block.
        let rows = synth(5, 103);
        for codec in ["raw", "delta", "delta-varint"] {
            let store = build_store(&rows, 2, 16, codec);
            let all = store.read_all().unwrap();
            assert_eq!(all.shape(), &[5, 103]);
            for (i, row) in rows.iter().enumerate() {
                for (t, v) in row.iter().enumerate() {
                    assert_eq!(
                        all.row(i)[t].to_bits(),
                        v.to_bits(),
                        "codec {codec}, series {i}, t {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn read_range_matches_read_all() {
        let rows = synth(3, 50);
        let store = build_store(&rows, 3, 8, "delta-varint");
        let all = store.read_all().unwrap();
        let mid = store.read_range(13, 29).unwrap();
        assert_eq!(mid.shape(), &[3, 16]);
        for i in 0..3 {
            assert_eq!(&all.row(i)[13..29], mid.row(i));
        }
        assert!(store.read_range(40, 40).is_err());
        assert!(store.read_range(0, 51).is_err());
    }

    #[test]
    fn stats_match_in_ram_folds_bitwise() {
        let rows = synth(4, 77);
        let store = build_store(&rows, 4, 10, "delta");
        let stats = store.stats().unwrap();
        for (i, row) in rows.iter().enumerate() {
            let mean = row.iter().sum::<f64>() / row.len() as f64;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / row.len() as f64;
            // `cf_data::window::standardize`'s expressions, spelled out
            // here because cf-store does not depend on cf-data.
            let std = var.sqrt().max(1e-12);
            assert_eq!(
                stats.means[i].to_bits(),
                mean.to_bits(),
                "mean of series {i}"
            );
            assert_eq!(stats.stds[i].to_bits(), std.to_bits(), "std of series {i}");
        }
    }

    /// Standardizes `rows` in RAM with `stats`, then slices every
    /// `window` at `stride`: what a scan must yield, bit for bit.
    fn reference_windows(
        rows: &[Vec<f64>],
        stats: &StandardizeStats,
        window: usize,
        stride: usize,
    ) -> Vec<Vec<f64>> {
        let len = rows[0].len();
        (0..=(len - window) / stride)
            .map(|k| {
                let start = k * stride;
                rows.iter()
                    .enumerate()
                    .flat_map(|(i, row)| {
                        row[start..start + window]
                            .iter()
                            .map(move |&v| (v - stats.means[i]) / stats.stds[i])
                    })
                    .collect()
            })
            .collect()
    }

    /// Asserts that the scan's windows are bitwise those of
    /// [`reference_windows`].
    fn assert_scan_matches_reference(
        store: &SeriesStore,
        rows: &[Vec<f64>],
        window: usize,
        stride: usize,
        read_ahead: usize,
    ) {
        let stats = store.stats().unwrap();
        let scan = store
            .standardized_windows(window, stride, read_ahead)
            .unwrap();
        let expected = scan.expected_windows();
        let got: Vec<Tensor> = scan.collect::<Result<_, _>>().unwrap();
        let want = reference_windows(rows, &stats, window, stride);
        assert_eq!(got.len(), want.len(), "stride {stride}");
        assert_eq!(got.len(), expected, "stride {stride}");
        for (w, (g, wref)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.shape(), &[rows.len(), window]);
            for (a, b) in g.data().iter().zip(wref) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "window {w}, stride {stride}, read_ahead {read_ahead}"
                );
            }
        }
    }

    #[test]
    fn windows_match_materialized_reference_bitwise() {
        let rows = synth(3, 61);
        let store = build_store(&rows, 2, 7, "delta-varint");
        for read_ahead in [1, 4] {
            assert_scan_matches_reference(&store, &rows, 9, 4, read_ahead);
        }
    }

    /// Strides wider than the window leave gaps between windows; 23 over
    /// chunks of 7 skips whole chunks. Every window must still start at a
    /// multiple of the stride.
    #[test]
    fn strided_windows_past_the_window_match_reference_bitwise() {
        let rows = synth(3, 100);
        let store = build_store(&rows, 2, 7, "delta-varint");
        for stride in [11, 23] {
            for read_ahead in [1, 4] {
                assert_scan_matches_reference(&store, &rows, 4, stride, read_ahead);
            }
        }
    }

    /// Rewrites the stored manifest through `edit`.
    fn edit_manifest(storage: &MemStorage, edit: impl FnOnce(&mut Vec<(String, Value)>)) {
        let bytes = storage.get(MANIFEST_KEY).unwrap();
        let mut value: Value = serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        let Value::Object(fields) = &mut value else {
            panic!("manifest is an object")
        };
        edit(fields);
        storage
            .put(
                MANIFEST_KEY,
                serde_json::to_string(&value).unwrap().as_bytes(),
            )
            .unwrap();
    }

    fn build_mem_store(rows: &[Vec<f64>]) -> Arc<MemStorage> {
        let storage = Arc::new(MemStorage::new());
        let mut w = SeriesWriter::new(storage.clone(), rows.len(), 2, 7, "delta").unwrap();
        for t in 0..rows[0].len() {
            let sample: Vec<f64> = rows.iter().map(|r| r[t]).collect();
            w.append(&sample).unwrap();
        }
        w.finish().unwrap();
        storage
    }

    fn window_bits(store: &SeriesStore) -> Vec<u64> {
        store
            .standardized_windows(5, 3, 1)
            .unwrap()
            .flat_map(|w| w.unwrap().data().to_vec())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn manifest_sums_are_the_in_ram_folds() {
        let rows = synth(3, 40);
        let store = SeriesStore::open(build_mem_store(&rows)).unwrap();
        let sums = store
            .manifest()
            .sums
            .clone()
            .expect("new stores carry sums");
        for (row, bits) in rows.iter().zip(sums) {
            let mut sum = 0.0f64;
            for &v in row {
                sum += v;
            }
            assert_eq!(bits, sum.to_bits());
        }
    }

    #[test]
    fn store_without_sums_opens_and_scans_bitwise_alike() {
        let rows = synth(3, 40);
        let storage = build_mem_store(&rows);
        let new = SeriesStore::open(storage.clone()).unwrap();
        let (stats, windows) = (new.stats().unwrap(), window_bits(&new));
        edit_manifest(&storage, |fields| fields.retain(|(k, _)| k != "sums"));
        let text = String::from_utf8(storage.get(MANIFEST_KEY).unwrap()).unwrap();
        assert!(!text.contains("sums"), "{text}");
        let old = SeriesStore::open(storage).unwrap();
        assert!(old.manifest().sums.is_none());
        let old_stats = old.stats().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&stats.means), bits(&old_stats.means));
        assert_eq!(bits(&stats.stds), bits(&old_stats.stds));
        assert_eq!(windows, window_bits(&old));
    }

    #[test]
    fn flipped_bit_in_stored_sums_fails_the_scan() {
        let rows = synth(3, 40);
        let storage = build_mem_store(&rows);
        edit_manifest(&storage, |fields| {
            let (_, Value::Array(sums)) = fields.iter_mut().find(|(k, _)| k == "sums").unwrap()
            else {
                panic!("sums is an array")
            };
            let Value::UInt(bits) = &mut sums[1] else {
                panic!("sums holds u64 bits")
            };
            *bits ^= 1;
        });
        let store = SeriesStore::open(storage).unwrap();
        let err = store.standardized_windows(5, 3, 1).err().expect("bad sums");
        let msg = err.to_string();
        assert!(msg.contains(MANIFEST_KEY), "{msg}");
        assert!(msg.contains("series 1"), "{msg}");
        assert!(store.stats().is_err());
    }

    #[test]
    fn stored_sums_of_the_wrong_length_fail_open() {
        let storage = build_mem_store(&synth(3, 40));
        edit_manifest(&storage, |fields| {
            let (_, sums) = fields.iter_mut().find(|(k, _)| k == "sums").unwrap();
            *sums = Value::Array(vec![Value::UInt(0); 2]);
        });
        let err = SeriesStore::open(storage).err().expect("2 sums, 3 series");
        assert!(err.to_string().contains("2 sums for 3 series"), "{err}");
    }

    #[test]
    fn chunk_keys_are_stable() {
        assert_eq!(chunk_key(0, 0), "c0000_00000000.cfc");
        assert_eq!(chunk_key(3, 12), "c0003_00000012.cfc");
    }

    #[test]
    fn corrupt_chunk_is_detected_and_named() {
        let rows = synth(2, 20);
        let storage = Arc::new(MemStorage::new());
        {
            let s: Arc<dyn Storage> = Arc::clone(&storage) as Arc<dyn Storage>;
            let mut w = SeriesWriter::new(s, 2, 2, 8, "delta").unwrap();
            for (a, b) in rows[0].iter().zip(&rows[1]) {
                w.append(&[*a, *b]).unwrap();
            }
            w.finish().unwrap();
        }
        // Flip one payload bit in the second time block.
        let key = chunk_key(0, 1);
        let mut bytes = storage.get(&key).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        storage.put(&key, &bytes).unwrap();
        let store = SeriesStore::open(storage as Arc<dyn Storage>).unwrap();
        assert!(store.read_chunk(0, 0).is_ok(), "other chunks stay readable");
        let err = store.read_chunk(0, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("checksum"), "{msg}");
        assert!(msg.contains(&key), "error must name the chunk: {msg}");
        // The streaming paths propagate the same error (the scan reads
        // every chunk before it yields a window).
        assert!(store.read_all().is_err());
        assert!(store.standardized_windows(4, 2, 1).is_err());
    }

    #[test]
    fn writer_validates_input() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        assert!(SeriesWriter::new(Arc::clone(&storage), 0, 1, 8, "raw").is_err());
        assert!(SeriesWriter::new(Arc::clone(&storage), 2, 1, 8, "lz4").is_err());
        let err = SeriesWriter::new(Arc::clone(&storage), 2, 1, 1 << 29, "raw")
            .err()
            .expect("2^29 samples of 8 bytes overflow the u32 header field");
        assert!(err.to_string().contains("4 GiB"), "{err}");
        let mut w = SeriesWriter::new(Arc::clone(&storage), 2, 1, 8, "raw").unwrap();
        assert!(w.append(&[1.0]).is_err(), "wrong sample arity");
        drop(w);
        let w = SeriesWriter::new(storage, 2, 1, 8, "raw").unwrap();
        assert!(w.finish().is_err(), "empty store rejected");
    }

    #[test]
    fn open_rejects_bad_manifests() {
        let storage = Arc::new(MemStorage::new());
        assert!(SeriesStore::open(Arc::clone(&storage) as Arc<dyn Storage>).is_err());
        storage.put(MANIFEST_KEY, b"not json").unwrap();
        let err = SeriesStore::open(Arc::clone(&storage) as Arc<dyn Storage>)
            .err()
            .expect("bad manifest must be rejected");
        assert!(err.to_string().contains("manifest"), "{err}");
        let bad = Manifest {
            magic: "WRONG".into(),
            n_series: 1,
            length: 1,
            chunk_series: 1,
            chunk_len: 1,
            codec: "raw".into(),
            dtype: "f64".into(),
            sums: None,
        };
        storage
            .put(
                MANIFEST_KEY,
                serde_json::to_string(&bad).unwrap().as_bytes(),
            )
            .unwrap();
        assert!(SeriesStore::open(storage as Arc<dyn Storage>).is_err());
    }
}
