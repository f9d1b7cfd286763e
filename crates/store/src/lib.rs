//! # cf-store
//!
//! Out-of-core storage for the CausalFormer reproduction. Two halves:
//!
//! * [`series`] — a chunked, columnar, checksummed on-disk store for
//!   `N×L` time-series matrices. The series is cut on a fixed chunk grid
//!   over `[variable × time]`; each grid cell becomes one chunk file with
//!   a CRC-32 header and an optional delta/varint compression pipeline
//!   ([`codec`]). Chunks live behind the [`storage::Storage`] trait, with
//!   filesystem ([`storage::FsStorage`]) and in-memory
//!   ([`storage::MemStorage`]) backends.
//!   [`series::SeriesStore::standardized_windows`] reads each chunk once
//!   and keeps only the requested windows, so discovery memory is set by
//!   the window budget, not the series length.
//! * [`tensors`] — the `CFTENS1` envelope, a safetensors-style binary
//!   format for named tensors: a JSON header mapping
//!   `name → {dtype, shape, offset}` followed by a raw little-endian
//!   payload. On little-endian hosts the payload decodes into
//!   [`cf_tensor::TensorBase`] storage with a single bulk copy and no
//!   per-element parsing, for both `f32` and `f64`. Model files and
//!   training checkpoints (the `CFCKPT1` payload since format version 3)
//!   are CFTENS1 documents.
//!
//! Every read path is checksummed: a bit flip, a truncated header, or a
//! torn chunk write (drillable via `cf_faults::FaultSite::Torn`) surfaces
//! as a [`StoreError`] naming the offending file, never as silently wrong
//! numbers.

pub mod codec;
pub mod series;
pub mod storage;
pub mod tensors;

pub use series::{Manifest, SeriesStore, SeriesWriter, WindowScan};
pub use storage::{FsStorage, MemStorage, Storage};
pub use tensors::{TensorFile, TensorFileBuilder};

use std::fmt;

/// Errors from the store. Corruption and mismatch errors always name the
/// offending target (a file path for [`FsStorage`], a `mem:` key for
/// [`MemStorage`]) so a failure deep inside a streaming pipeline still
/// points at the bad chunk.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure on the named target.
    Io {
        /// The file or key involved.
        target: String,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// The target exists but fails a structural or checksum check.
    Corrupt {
        /// The offending file or key.
        target: String,
        /// What exactly was wrong.
        detail: String,
    },
    /// The target is intact but disagrees with what the caller asked for
    /// (wrong dtype, missing tensor name, shape disagreement, …).
    Mismatch {
        /// The offending file or key.
        target: String,
        /// What exactly disagrees.
        detail: String,
    },
    /// Invalid configuration (unknown codec name, zero chunk size, …),
    /// detected before touching storage.
    Invalid {
        /// What was wrong with the request.
        detail: String,
    },
}

impl StoreError {
    /// Builds a [`StoreError::Corrupt`].
    pub fn corrupt(target: impl Into<String>, detail: impl Into<String>) -> Self {
        StoreError::Corrupt {
            target: target.into(),
            detail: detail.into(),
        }
    }

    /// Builds a [`StoreError::Mismatch`].
    pub fn mismatch(target: impl Into<String>, detail: impl Into<String>) -> Self {
        StoreError::Mismatch {
            target: target.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { target, source } => {
                write!(f, "store I/O error: {source} (target: {target})")
            }
            StoreError::Corrupt { target, detail } => {
                write!(f, "corrupt store data: {detail} (target: {target})")
            }
            StoreError::Mismatch { target, detail } => {
                write!(f, "store mismatch: {detail} (target: {target})")
            }
            StoreError::Invalid { detail } => write!(f, "invalid store request: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) slicing-by-8 tables, built
/// at compile time. `CRC32_TABLES[0]` is the classic bytewise table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the per-chunk integrity check. Like the
/// checkpoint envelope's FNV-1a this guards against torn writes and bit
/// rot, not adversaries. Folds eight bytes per step (slicing-by-8); the
/// values are those of the bytewise CRC-32/ISO-HDLC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise CRC the slicing-by-8 fold must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every length (so every remainder after the 8-byte steps) and
        /// every start offset (so every alignment of the slice).
        #[test]
        fn crc32_slicing_matches_bytewise(
            bytes in proptest::collection::vec(0u8..=255, 0..200),
            offset in 0usize..16,
        ) {
            let slice = &bytes[offset.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }

    #[test]
    fn errors_name_their_target() {
        let e = StoreError::corrupt("/data/c0001_00000002.cfc", "checksum mismatch");
        let msg = e.to_string();
        assert!(msg.contains("c0001_00000002.cfc"), "{msg}");
        assert!(msg.contains("checksum"), "{msg}");
    }
}
