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
//! grid geometry and codec so readers never guess.
//!
//! [`SeriesWriter`] ingests one time-step sample at a time (the shape a
//! simulator produces) under `O(n_series · chunk_len)` memory.
//! [`WindowScan`] streams standardized training windows back out under a
//! bounded carry buffer — together they keep both generation and discovery
//! memory independent of the series length.
//!
//! ## Bitwise contract
//!
//! Standardization statistics ([`SeriesStore::stats`]) accumulate each
//! series' sums chunk-by-chunk in ascending time order — the *same
//! addition order* as the in-RAM pipeline's `row.iter().sum()` — and
//! windows apply the same `(x - mean) / std` expression per element, so a
//! streamed window is bitwise identical to one sliced from the fully
//! materialised, standardized matrix.

use crate::codec::Pipeline;
use crate::storage::Storage;
use crate::{crc32, StoreError};
use cf_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const CHUNK_MAGIC: &[u8; 8] = b"CFCHNK1\n";
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

fn encode_chunk(
    raw: &[u8],
    rows: usize,
    cols: usize,
    codec: &Pipeline,
) -> Result<Vec<u8>, StoreError> {
    let encoded = codec.encode(raw)?;
    let mut out = Vec::with_capacity(24 + encoded.len());
    out.extend_from_slice(CHUNK_MAGIC);
    out.extend_from_slice(&crc32(&encoded).to_le_bytes());
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(cols as u32).to_le_bytes());
    out.extend_from_slice(&encoded);
    Ok(out)
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
        let codec = Pipeline::by_name(codec)?;
        Ok(Self {
            storage,
            codec,
            n_series,
            chunk_series: chunk_series.min(n_series),
            chunk_len,
            buf: vec![0.0; n_series * chunk_len],
            buffered: 0,
            t_blocks_done: 0,
            length: 0,
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
        }
        self.buffered += 1;
        self.length += 1;
        if self.buffered == self.chunk_len {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Writes the buffered column block as one chunk per variable block.
    fn flush_block(&mut self) -> Result<(), StoreError> {
        let cols = self.buffered;
        if cols == 0 {
            return Ok(());
        }
        let ti = self.t_blocks_done;
        let v_blocks = self.n_series.div_ceil(self.chunk_series);
        for vi in 0..v_blocks {
            let r0 = vi * self.chunk_series;
            let rows = (self.n_series - r0).min(self.chunk_series);
            let mut raw = Vec::with_capacity(rows * cols * 8);
            for r in 0..rows {
                let row = &self.buf[(r0 + r) * self.chunk_len..][..cols];
                for &v in row {
                    raw.extend_from_slice(&v.to_le_bytes());
                }
            }
            let chunk = encode_chunk(&raw, rows, cols, &self.codec)?;
            self.storage.put(&chunk_key(vi, ti), &chunk)?;
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
        let manifest: Manifest = serde_json::from_str(text)
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
        let key = chunk_key(vi, ti);
        let target = self.storage.target(&key);
        let bytes = self.storage.get(&key)?;
        if bytes.len() < 24 {
            return Err(StoreError::corrupt(
                &target,
                format!("truncated chunk: {} bytes, header needs 24", bytes.len()),
            ));
        }
        if &bytes[..8] != CHUNK_MAGIC {
            return Err(StoreError::corrupt(&target, "bad chunk magic"));
        }
        let want_crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let raw_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let rows = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let cols = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
        let encoded = &bytes[24..];
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
        let raw = self
            .codec
            .decode(encoded)
            .map_err(|e| StoreError::corrupt(&target, format!("codec decode failed: {e}")))?;
        // Checked: a hostile header's geometry can overflow `usize`.
        let need = rows.checked_mul(cols).and_then(|n| n.checked_mul(8));
        if raw.len() != raw_len || need != Some(raw_len) {
            let need = need.map_or("more than usize::MAX".into(), |n| n.to_string());
            return Err(StoreError::corrupt(
                &target,
                format!(
                    "decoded {} bytes, header claims {raw_len}, geometry needs {need}",
                    raw.len()
                ),
            ));
        }
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
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
        for ti in t0 / m.chunk_len..=(t1 - 1) / m.chunk_len {
            let block_t0 = ti * m.chunk_len;
            let cols = m.cols_of(ti);
            // Columns of this block that intersect [t0, t1).
            let lo = t0.max(block_t0) - block_t0;
            let hi = t1.min(block_t0 + cols) - block_t0;
            for vi in 0..m.v_blocks() {
                let chunk = self.read_chunk(vi, ti)?;
                let r0 = vi * m.chunk_series;
                let rows = m.rows_of(vi);
                for r in 0..rows {
                    let src = &chunk[r * cols + lo..r * cols + hi];
                    let dst_t = block_t0 + lo - t0;
                    data[(r0 + r) * width + dst_t..][..hi - lo].copy_from_slice(src);
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

    /// Per-series standardization statistics, streamed in two passes.
    /// Both folds, the `1e-12` std floor and the final division are those
    /// of `cf_data::window::standardize`, the workspace's one z-score:
    /// addition order per series is ascending `t`, so the results are
    /// bitwise identical to its `row.iter().sum()` folds.
    pub fn stats(&self) -> Result<StandardizeStats, StoreError> {
        let m = &self.manifest;
        let n = m.n_series;
        let mut sums = vec![0.0f64; n];
        for ti in 0..m.t_blocks() {
            let cols = m.cols_of(ti);
            for vi in 0..m.v_blocks() {
                let chunk = self.read_chunk(vi, ti)?;
                let r0 = vi * m.chunk_series;
                for r in 0..m.rows_of(vi) {
                    let mut acc = sums[r0 + r];
                    for &v in &chunk[r * cols..(r + 1) * cols] {
                        acc += v;
                    }
                    sums[r0 + r] = acc;
                }
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / m.length as f64).collect();
        let mut sq = vec![0.0f64; n];
        for ti in 0..m.t_blocks() {
            let cols = m.cols_of(ti);
            for vi in 0..m.v_blocks() {
                let chunk = self.read_chunk(vi, ti)?;
                let r0 = vi * m.chunk_series;
                for r in 0..m.rows_of(vi) {
                    let mean = means[r0 + r];
                    let mut acc = sq[r0 + r];
                    for &v in &chunk[r * cols..(r + 1) * cols] {
                        acc += (v - mean) * (v - mean);
                    }
                    sq[r0 + r] = acc;
                }
            }
        }
        let stds: Vec<f64> = sq
            .iter()
            .map(|s| (s / m.length as f64).sqrt().max(1e-12))
            .collect();
        Ok(StandardizeStats { means, stds })
    }

    /// Streams standardized `n_series × window` training windows at
    /// `stride`, holding at most `window + read_ahead·chunk_len` columns
    /// of raw data in memory.
    pub fn standardized_windows(
        &self,
        window: usize,
        stride: usize,
        read_ahead: usize,
    ) -> Result<WindowScan<'_>, StoreError> {
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
        let stats = self.stats()?;
        Ok(WindowScan {
            store: self,
            stats,
            window,
            stride,
            read_ahead: read_ahead.max(1),
            next_start: 0,
            buf: vec![Vec::new(); m.n_series],
            buf_t0: 0,
            t_loaded: 0,
            done: false,
        })
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

/// Streaming iterator over standardized training windows. Yields
/// `n_series × window` tensors in ascending start order; chunk-read
/// failures surface as `Err` items and end the scan.
pub struct WindowScan<'a> {
    store: &'a SeriesStore,
    stats: StandardizeStats,
    window: usize,
    stride: usize,
    read_ahead: usize,
    next_start: usize,
    /// Per-series carry of raw columns `[buf_t0, t_loaded)`.
    buf: Vec<Vec<f64>>,
    buf_t0: usize,
    t_loaded: usize,
    done: bool,
}

impl WindowScan<'_> {
    /// The standardization statistics in effect for this scan.
    pub fn stats(&self) -> &StandardizeStats {
        &self.stats
    }

    /// Total windows this scan will yield (absent read errors).
    pub fn expected_windows(&self) -> usize {
        let l = self.store.manifest.length;
        if l < self.window {
            0
        } else {
            (l - self.window) / self.stride + 1
        }
    }

    /// Drops columns before `next_start` and loads time blocks until the
    /// next window is buffered (plus up to `read_ahead` blocks of
    /// prefetch).
    fn fill(&mut self) -> Result<(), StoreError> {
        let m = &self.store.manifest;
        // Trim the carry to the columns still needed.
        let keep_from = self.next_start;
        if keep_from > self.buf_t0 {
            let k = keep_from - self.buf_t0;
            for row in &mut self.buf {
                row.drain(..k.min(row.len()));
            }
            self.buf_t0 = keep_from;
        }
        let need = self.next_start + self.window;
        let cap = self.window + self.read_ahead * m.chunk_len;
        while self.t_loaded < m.length
            && (self.t_loaded < need || self.t_loaded - self.buf_t0 + m.chunk_len <= cap)
        {
            let ti = self.t_loaded / m.chunk_len;
            let cols = m.cols_of(ti);
            for vi in 0..m.v_blocks() {
                let chunk = self.store.read_chunk(vi, ti)?;
                let r0 = vi * m.chunk_series;
                for r in 0..m.rows_of(vi) {
                    self.buf[r0 + r].extend_from_slice(&chunk[r * cols..(r + 1) * cols]);
                }
            }
            self.t_loaded += cols;
        }
        Ok(())
    }
}

impl Iterator for WindowScan<'_> {
    type Item = Result<Tensor, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let m = &self.store.manifest;
        if self.next_start + self.window > m.length {
            self.done = true;
            return None;
        }
        if self.t_loaded < self.next_start + self.window {
            if let Err(e) = self.fill() {
                self.done = true;
                return Some(Err(e));
            }
        }
        let off = self.next_start - self.buf_t0;
        let n = m.n_series;
        let mut data = Vec::with_capacity(n * self.window);
        for i in 0..n {
            let mean = self.stats.means[i];
            let std = self.stats.stds[i];
            for &v in &self.buf[i][off..off + self.window] {
                // The exact expression of `cf_data::window::standardize`.
                data.push((v - mean) / std);
            }
        }
        self.next_start += self.stride;
        Some(
            Tensor::from_vec(vec![n, self.window], data).map_err(|e| StoreError::Invalid {
                detail: e.to_string(),
            }),
        )
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

    #[test]
    fn windows_match_materialized_reference_bitwise() {
        let rows = synth(3, 61);
        let (window, stride) = (9, 4);
        for read_ahead in [1, 4] {
            let store = build_store(&rows, 2, 7, "delta-varint");
            let stats = store.stats().unwrap();
            let got: Vec<Tensor> = store
                .standardized_windows(window, stride, read_ahead)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            // Reference: standardize in RAM, then slice.
            let mut want = Vec::new();
            let mut start = 0;
            while start + window <= 61 {
                let mut data = Vec::new();
                for (i, row) in rows.iter().enumerate() {
                    for &v in &row[start..start + window] {
                        data.push((v - stats.means[i]) / stats.stds[i]);
                    }
                }
                want.push(data);
                start += stride;
            }
            assert_eq!(got.len(), want.len());
            assert_eq!(got.len(), {
                let scan = store
                    .standardized_windows(window, stride, read_ahead)
                    .unwrap();
                scan.expected_windows()
            });
            for (w, (g, wref)) in got.iter().zip(&want).enumerate() {
                for (a, b) in g.data().iter().zip(wref) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "window {w}, read_ahead {read_ahead}"
                    );
                }
            }
        }
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
        // The streaming paths propagate the same error (the stats pass
        // touches every chunk, so the scan fails at construction).
        assert!(store.read_all().is_err());
        assert!(store.standardized_windows(4, 2, 1).is_err());
    }

    #[test]
    fn writer_validates_input() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        assert!(SeriesWriter::new(Arc::clone(&storage), 0, 1, 8, "raw").is_err());
        assert!(SeriesWriter::new(Arc::clone(&storage), 2, 1, 8, "lz4").is_err());
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
