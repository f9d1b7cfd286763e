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

// The carry-less-multiply CRC and the tensor byte views are the crate's
// only `unsafe` code; each block states why it is sound.
#![deny(clippy::undocumented_unsafe_blocks)]

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
/// rot, not adversaries. The values are those of the bytewise
/// CRC-32/ISO-HDLC on every path.
///
/// Dispatches at run time: on x86-64 CPUs with PCLMULQDQ and SSE4.1 an
/// input of 128 bytes or more is folded 64 bytes per step with
/// carry-less multiplies; shorter inputs, other CPUs and other
/// architectures run [`crc32_portable`].
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= pclmul::MIN_LEN && pclmul::available() {
        // SAFETY: `available` checked that this CPU has both target
        // features of `update`.
        return !unsafe { pclmul::update(!0, bytes) };
    }
    crc32_portable(bytes)
}

/// [`crc32`] without the carry-less multiply path: slicing-by-8, eight
/// bytes per step through compile-time tables, on any CPU.
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Advances the (pre-inversion) CRC register `c` over `bytes`,
/// slicing-by-8.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
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
    c
}

/// CRC-32 by carry-less multiplication: Intel's "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (2009), in its
/// bit-reflected form, with the folding and Barrett constants of the
/// reflected IEEE polynomial that zlib, Linux and crc32fast use.
///
/// Four 128-bit lanes fold 64 bytes per step, then fold into one lane,
/// which is reduced to 64 bits and, by Barrett reduction, to the 32-bit
/// register. The under-16-byte tail goes through [`crc32_update`].
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`super::crc32`] folds; below it the table path is
    /// as fast.
    pub(crate) const MIN_LEN: usize = 128;

    // The folding constants are bit-reflected and shifted left by one,
    // as the reflected algorithm wants them.
    /// x^(4·128+32) and x^(4·128−32) mod P: fold a lane 512 bits on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32) mod P: fold a lane 128 bits on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: the 128 → 64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// The reflected polynomial P(x) and the Barrett constant ⌊x^64 / P(x)⌋.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Whether this CPU can run [`update`].
    pub(crate) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the (pre-inversion) CRC register `crc` over `bytes`,
    /// which must be at least 64 bytes long.
    ///
    /// # Safety
    ///
    /// Calling it from code not compiled for both target features is
    /// sound only on a CPU that has them: check [`available`] first.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(crate) fn update(crc: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 64, "the four-lane fold needs 64 bytes");
        let mut blocks = bytes.chunks_exact(16);
        let mut next = || {
            let block = blocks.next().expect("a 16-byte block");
            // SAFETY: `block` is 16 readable bytes, and `loadu` has no
            // alignment requirement.
            unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
        };
        let mut x3 = next();
        let mut x2 = next();
        let mut x1 = next();
        let mut x0 = next();
        // The register enters as the first 32 bits of the message.
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for _ in 1..bytes.len() / 64 {
            x3 = fold(x3, next(), k1k2);
            x2 = fold(x2, next(), k1k2);
            x1 = fold(x1, next(), k1k2);
            x0 = fold(x0, next(), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        for _ in 0..bytes.len() % 64 / 16 {
            x = fold(x, next(), k3k4);
        }

        // 128 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 → 32 bits: T1 = ⌊R mod x^32⌋·μ,
        // T2 = ⌊T1 mod x^32⌋·P, and the register is the high half of R ⊕ T2.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_update(c, &bytes[bytes.len() / 16 * 16..])
    }

    /// Folds lane `a` over the next 128 bits `b`: `a.lo·k.lo ⊕ a.hi·k.hi ⊕ b`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dispatched CRC, the table path and, where the CPU has it, the
    /// carry-less multiply path called directly.
    fn every_crc32(bytes: &[u8]) -> Vec<u32> {
        let mut all = vec![crc32(bytes), crc32_portable(bytes)];
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= 64 && pclmul::available() {
            // SAFETY: `available` checked both target features.
            all.push(!unsafe { pclmul::update(!0, bytes) });
        }
        all
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check values for CRC-32/ISO-HDLC, and two long enough
        // for the folding path (values from zlib's `crc32`).
        let long_digits = b"123456789".repeat(100);
        let long_ramp: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        for (bytes, want) in [
            (&b""[..], 0),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&long_digits, 0x09FD_0FD7),
            (&long_ramp, 0xB70B_4C26),
        ] {
            for got in every_crc32(bytes) {
                assert_eq!(got, want, "{} bytes", bytes.len());
            }
        }
    }

    /// The bytewise CRC both paths must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every length up to 4 KiB (so every tail after the 8-, 16- and
        /// 64-byte steps, on both sides of the folding path's 128-byte
        /// floor) and every start offset (so every alignment of the
        /// slice): the dispatched CRC, the table path and the folding
        /// path all equal the bytewise one.
        #[test]
        fn crc32_slicing_matches_bytewise(
            bytes in proptest::collection::vec(0u8..=255, 0..4096 + 16),
            offset in 0usize..16,
        ) {
            let slice = &bytes[offset.min(bytes.len())..];
            let want = crc32_bytewise(slice);
            for got in every_crc32(slice) {
                proptest::prop_assert_eq!(got, want);
            }
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
