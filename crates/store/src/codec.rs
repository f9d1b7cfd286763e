//! Chunk compression codecs.
//!
//! A chunk's payload is the stream of little-endian `u64` words of its
//! samples' `f64` bit patterns, row after row. A [`Pipeline`] names how
//! the words are stored:
//!
//! * `"raw"` — the words as they are.
//! * `"delta"` — each word XORed with its predecessor (the first passes
//!   through). Smooth trajectories (sign, exponent, and high mantissa
//!   bits change slowly between consecutive samples) turn into words full
//!   of leading zero bytes.
//! * `"delta-varint"` — the XOR deltas as LEB128 varints: seven bits per
//!   byte, low groups first, the high bit set on every byte but a word's
//!   last. The zero-heavy deltas shrink to 1–3 bytes; a full-width word
//!   takes 10.
//!
//! Both transforms are exactly invertible on the byte level —
//! compression never touches numeric values, only their encoding — so
//! the store's bitwise-reproducibility story is unaffected by the codec
//! choice. The pipeline name is recorded in the store manifest, so
//! readers never guess.
//!
//! [`Pipeline::encode_f64s`] writes the encoded words straight behind a
//! chunk header and [`Pipeline::decode_f64s`] yields the `f64`s, each in
//! one pass over the samples.
//!
//! ## Varints a word at a time
//!
//! Encoding takes a word's length from its leading zeros, spreads its
//! 7-bit groups one to a byte with three mask-and-shift steps, sets the
//! continuation bits by mask and writes the word with one 16-byte store.
//!
//! Decoding reads 64 bytes at a time. Eight `u64` loads give a bitmap of
//! the bytes that end a word (high bit clear); walking its set bits gives
//! every word's start and length before any word is decoded, so each
//! word's load does not wait on its predecessor's length. A word is one
//! unaligned 8-byte load plus bytes 8 and 9, compacted by the inverse
//! shifts. A word longer than 10 bytes, the last block and the tail go
//! through the byte-at-a-time loop, which returns the stream's errors
//! (a word that overflows `u64`, a stream that ends mid-word); the fast
//! path never decodes past such a word, so every stream fails exactly
//! where the byte loop alone would.

use crate::StoreError;

/// A named encoding of a chunk's words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// The little-endian words as they are.
    Raw,
    /// Each word XORed with the previous one.
    Delta,
    /// The XOR deltas as LEB128 varints.
    DeltaVarint,
}

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_LEN: usize = 10;

/// Bytes one encoded word's store writes, its own and the overhang the
/// next word overwrites.
const STORE_LEN: usize = 16;

impl Pipeline {
    /// Looks up a named pipeline: `"raw"`, `"delta"`, or `"delta-varint"`.
    pub fn by_name(name: &str) -> Result<Self, StoreError> {
        match name {
            "raw" => Ok(Pipeline::Raw),
            "delta" => Ok(Pipeline::Delta),
            "delta-varint" => Ok(Pipeline::DeltaVarint),
            other => Err(StoreError::Invalid {
                detail: format!("unknown codec {other:?} (expected raw, delta, or delta-varint)"),
            }),
        }
    }

    /// The pipeline's registered name (what the manifest records).
    pub fn name(self) -> &'static str {
        match self {
            Pipeline::Raw => "raw",
            Pipeline::Delta => "delta",
            Pipeline::DeltaVarint => "delta-varint",
        }
    }

    /// Encodes the little-endian words of `rows`, read as one sample
    /// stream, in a single pass, appending to `out`.
    pub fn encode_f64s<'a>(self, rows: impl IntoIterator<Item = &'a [f64]>, out: &mut Vec<u8>) {
        let mut prev = 0u64;
        if self == Pipeline::DeltaVarint {
            let mut at = out.len();
            for row in rows {
                // Room for every word of the row at its longest, and the
                // last store's overhang. Bytes past `at` are scratch.
                let need = at + row.len() * MAX_VARINT_LEN + (STORE_LEN - MAX_VARINT_LEN);
                if out.len() < need {
                    out.resize(need, 0);
                }
                for v in row {
                    let bits = v.to_bits();
                    let (word, len) = varint(bits ^ prev);
                    prev = bits;
                    out[at..at + STORE_LEN].copy_from_slice(&word.to_le_bytes());
                    at += len;
                }
            }
            out.truncate(at);
            return;
        }
        let delta = self == Pipeline::Delta;
        for row in rows {
            out.reserve(row.len() * 8);
            for v in row {
                let bits = v.to_bits();
                let w = if delta { bits ^ prev } else { bits };
                prev = bits;
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }

    /// Decodes `bytes` into `out` (cleared first) in a single pass. A
    /// `"raw"` or `"delta"` input whose length is not a multiple of 8 is
    /// an error, since it holds no whole number of samples, as are a
    /// varint word that overflows `u64` and a varint stream that ends
    /// mid-word.
    ///
    /// `expected` is the sample count the caller's header claims. It only
    /// sizes `out`, and never past what `bytes` can encode, so a hostile
    /// header cannot force a large allocation.
    pub fn decode_f64s(
        self,
        bytes: &[u8],
        expected: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), StoreError> {
        out.clear();
        if self == Pipeline::DeltaVarint {
            // A varint word takes at least one byte.
            out.reserve(expected.min(bytes.len()));
            return decode_varints(bytes, out);
        }
        if !bytes.len().is_multiple_of(8) {
            return Err(StoreError::Invalid {
                detail: format!("codec input length {} is not a multiple of 8", bytes.len()),
            });
        }
        out.reserve(expected.min(bytes.len() / 8));
        let delta = self == Pipeline::Delta;
        let mut prev = 0u64;
        for &c in bytes.as_chunks::<8>().0 {
            let w = u64::from_le_bytes(c);
            prev = if delta { w ^ prev } else { w };
            out.push(f64::from_bits(prev));
        }
        Ok(())
    }
}

/// The LEB128 encoding of `w` in the low bytes of the result, and its
/// length in bytes (1..=10).
#[inline]
fn varint(w: u64) -> (u128, usize) {
    // ⌈significant bits / 7⌉, at least 1. (Written out: `div_ceil` here
    // compiles to a hardware divide and slows the encoder 2.5×.)
    let len = ((70 - (w | 1).leading_zeros()) / 7) as usize;
    // Spread the low eight 7-bit groups to one a byte: halves, quarters,
    // then eighths of the 56 bits, each moved up to its byte boundary.
    let x = w & ((1 << 56) - 1);
    let x = (x & 0x0000_0000_0FFF_FFFF) | ((x << 4) & 0x0FFF_FFFF_0000_0000);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x << 2) & 0x3FFF_0000_3FFF_0000);
    let x = (x & 0x007F_007F_007F_007F) | ((x << 1) & 0x7F00_7F00_7F00_7F00);
    // Groups 8 (bits 56..62) and 9 (bit 63) go to bytes 8 and 9.
    let groups = u128::from(x) | (u128::from((w >> 56) & 0x7F) << 64) | (u128::from(w >> 63) << 72);
    // A continuation bit on each of the first `len - 1` bytes.
    let more = 0x80_8080_8080_8080_8080u128 & ((1u128 << (8 * (len - 1))) - 1);
    (groups | more, len)
}

/// Per word length (1..=10), the masks [`word_at`] keeps a word's bits
/// with: its 7-bit groups among the first eight bytes, its group in byte
/// 8 and its bit from byte 9, each shifted into place. Only the low bit
/// of byte 9 fits in a u64, as in the byte loop.
const WORD_MASKS: [[u64; 3]; MAX_VARINT_LEN + 1] = {
    let mut masks = [[0; 3]; MAX_VARINT_LEN + 1];
    let mut len = 1;
    while len <= MAX_VARINT_LEN {
        let bytes = if len >= 8 {
            u64::MAX
        } else {
            (1 << (8 * len)) - 1
        };
        masks[len][0] = bytes & 0x7F7F_7F7F_7F7F_7F7F;
        masks[len][1] = if len > 8 { 0x7F << 56 } else { 0 };
        masks[len][2] = if len > 9 { 1 << 63 } else { 0 };
        len += 1;
    }
    masks
};

/// The 64-bit value of the `len`-byte (1..=10) varint word at the start
/// of `at`; bytes past the word are ignored.
#[inline]
fn word_at(at: &[u8; MAX_VARINT_LEN], len: usize) -> u64 {
    let [low, b8, b9] = WORD_MASKS[len];
    let [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9] = *at;
    let x = u64::from_le_bytes([a0, a1, a2, a3, a4, a5, a6, a7]) & low;
    // Compact the eight 7-bit groups: byte pairs, then quarters, then
    // halves, each closing the gap its continuation bits left.
    let x = (x & 0x007F_007F_007F_007F) | ((x >> 1) & 0x3F80_3F80_3F80_3F80);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x >> 2) & 0x0FFF_C000_0FFF_C000);
    let x = (x & 0x0000_0000_0FFF_FFFF) | ((x >> 4) & 0x00FF_FFFF_F000_0000);
    x | ((u64::from(a8) << 56) & b8) | ((u64::from(a9) << 63) & b9)
}

/// Bit `i` is set where byte `i` of `block` ends a varint word (its high
/// bit is clear).
#[inline]
fn terminators(block: &[u8; 64]) -> u64 {
    let mut ends = 0u64;
    for (k, &lane) in block.as_chunks::<8>().0.iter().enumerate() {
        let w = u64::from_le_bytes(lane);
        // 0x01 in each byte whose high bit is clear; the multiply gathers
        // byte j's flag into bit 56 + j, carry-free.
        let flags = (!w >> 7) & 0x0101_0101_0101_0101;
        ends |= (flags.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    ends
}

/// Decodes a `"delta-varint"` stream into `out`: 64-byte blocks a word
/// at a time while every word in the block can be loaded whole, then
/// [`decode_varints_bytewise`] from the first word left.
fn decode_varints(bytes: &[u8], out: &mut Vec<f64>) -> Result<(), StoreError> {
    let mut prev = 0u64;
    // The first byte of the next word, and of the next block.
    let (mut start, mut block) = (0, 0);
    // A word ending in the block starts at most 63 bytes into it, so the
    // 10 bytes `word_at` reads lie inside `bytes`.
    'blocks: while block + 64 + MAX_VARINT_LEN <= bytes.len() {
        let mut ends = terminators(bytes[block..].first_chunk().expect("the loop bound"));
        while ends != 0 {
            let end = block + ends.trailing_zeros() as usize;
            ends &= ends - 1;
            let len = end + 1 - start;
            if len > MAX_VARINT_LEN {
                break 'blocks;
            }
            let at = bytes[start..].first_chunk().expect("the loop bound");
            prev ^= word_at(at, len);
            out.push(f64::from_bits(prev));
            start = end + 1;
        }
        block += 64;
    }
    decode_varints_bytewise(&bytes[start..], prev, out)
}

/// Decodes `"delta-varint"` words one byte at a time, XOR-chaining from
/// `prev`: the slow path that owns every error.
fn decode_varints_bytewise(
    bytes: &[u8],
    mut prev: u64,
    out: &mut Vec<f64>,
) -> Result<(), StoreError> {
    let mut iter = bytes.iter();
    while let Some(&first) = iter.next() {
        let mut w = u64::from(first & 0x7F);
        let mut byte = first;
        let mut shift = 7u32;
        while byte & 0x80 != 0 {
            byte = *iter.next().ok_or_else(|| StoreError::Invalid {
                detail: "varint stream ends mid-word".into(),
            })?;
            if shift >= 64 {
                return Err(StoreError::Invalid {
                    detail: "varint word overflows u64".into(),
                });
            }
            w |= u64::from(byte & 0x7F) << shift;
            shift += 7;
        }
        prev ^= w;
        out.push(f64::from_bits(prev));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["raw", "delta", "delta-varint"];

    fn encode(p: Pipeline, vals: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        p.encode_f64s([vals], &mut out);
        out
    }

    fn decode(p: Pipeline, bytes: &[u8]) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::new();
        p.decode_f64s(bytes, usize::MAX, &mut out)?;
        Ok(out.iter().map(|v| v.to_bits()).collect())
    }

    fn bits(vals: &[f64]) -> Vec<u64> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn named_pipelines_roundtrip() {
        let smooth: Vec<f64> = (0..256).map(|i| (i as f64 * 0.01).sin() * 3.0).collect();
        for name in NAMES {
            let p = Pipeline::by_name(name).unwrap();
            assert_eq!(p.name(), name);
            let dec = decode(p, &encode(p, &smooth)).unwrap();
            assert_eq!(
                dec,
                bits(&smooth),
                "pipeline {name} must be exactly invertible"
            );
        }
    }

    #[test]
    fn delta_varint_compresses_smooth_series() {
        // A smooth trajectory: consecutive f64 words share their high bytes,
        // so delta+varint should beat raw by a wide margin.
        let smooth: Vec<f64> = (0..4096).map(|i| 8.0 + (i as f64 * 0.002).sin()).collect();
        let enc = encode(Pipeline::DeltaVarint, &smooth);
        let raw_len = smooth.len() * 8;
        assert!(
            enc.len() * 10 < raw_len * 9,
            "expected >10% saving, got {} of {raw_len} bytes",
            enc.len(),
        );
    }

    #[test]
    fn extreme_bit_patterns_roundtrip() {
        let vals = [
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.5e-300,
        ];
        // Repeated past the fast decoder's first block.
        let vals: Vec<f64> = vals.iter().copied().cycle().take(200).collect();
        for name in ["delta", "delta-varint"] {
            let p = Pipeline::by_name(name).unwrap();
            // Compare bits (not values): NaN payloads must survive too.
            assert_eq!(decode(p, &encode(p, &vals)).unwrap(), bits(&vals), "{name}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Pipeline::by_name("zstd").is_err());
        assert!(
            decode(Pipeline::Delta, &[1, 2, 3]).is_err(),
            "length not multiple of 8"
        );
        // A truncated varint stream must error, not silently drop a word.
        let enc = encode(Pipeline::DeltaVarint, &[1.0, 2.0, 3.0]);
        assert!(decode(Pipeline::DeltaVarint, &enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn varint_rejects_overflow() {
        // 10 continuation bytes push past 64 bits, on their own and in the
        // middle of a stream long enough for the block decoder.
        assert!(decode(Pipeline::DeltaVarint, &[0xFF; 11]).is_err());
        let mut long = encode(Pipeline::DeltaVarint, &[1.5; 100]);
        long.splice(40..40, [0xFF; 11]);
        assert!(decode(Pipeline::DeltaVarint, &long).is_err());
    }
}
