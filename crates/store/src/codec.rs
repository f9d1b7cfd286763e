//! Chunk compression codecs.
//!
//! A chunk's payload is a sequence of little-endian `u64` words (the bit
//! patterns of its `f64` samples, or pairs of `f32` samples). A
//! [`Pipeline`] is an ordered list of [`Codec`] stages applied on write
//! and unwound in reverse on read. Stages are exactly invertible on the
//! byte level — compression never touches numeric values, only their
//! encoding — so the store's bitwise-reproducibility story is unaffected
//! by the codec choice.
//!
//! Two stages ship:
//!
//! * [`Codec::DeltaXor`] — XORs each 8-byte word with its predecessor.
//!   Smooth trajectories (sign, exponent, and high mantissa bits change
//!   slowly between consecutive samples) turn into words full of leading
//!   zero bytes.
//! * [`Codec::Varint`] — LEB128 variable-length integers over the 8-byte
//!   words. On its own it does nothing useful for floating-point data;
//!   after `DeltaXor` the zero-heavy words shrink to 1–3 bytes.
//!
//! The named pipelines are `"raw"` (no stages), `"delta"` (`DeltaXor`),
//! and `"delta-varint"` (`DeltaXor` then `Varint`). The pipeline name is
//! recorded in the store manifest, so readers never guess.
//!
//! The chunk store runs each pipeline in one pass over its samples:
//! [`Pipeline::encode_f64s`] writes the encoded words straight behind a
//! chunk header and [`Pipeline::decode_f64s`] folds every stage into the
//! loop that yields the `f64`s. They produce exactly the bytes and
//! values of the staged [`Pipeline::encode`] / [`Pipeline::decode`],
//! with the same errors.

use crate::StoreError;

/// One invertible byte-transform stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// XOR each little-endian `u64` word with the previous word (the first
    /// word passes through). Input length must be a multiple of 8.
    DeltaXor,
    /// LEB128 varint encoding of each little-endian `u64` word. Input
    /// length must be a multiple of 8; output is variable-length.
    Varint,
}

impl Codec {
    fn encode(self, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        match self {
            Codec::DeltaXor => {
                let words = as_words(bytes)?;
                let mut out = Vec::with_capacity(bytes.len());
                let mut prev = 0u64;
                for w in words {
                    out.extend_from_slice(&(w ^ prev).to_le_bytes());
                    prev = w;
                }
                Ok(out)
            }
            Codec::Varint => {
                let words = as_words(bytes)?;
                // Worst case 10 bytes per word; typical (post-delta) far less.
                let mut out = Vec::with_capacity(bytes.len() / 2);
                for mut w in words {
                    loop {
                        let byte = (w & 0x7F) as u8;
                        w >>= 7;
                        if w == 0 {
                            out.push(byte);
                            break;
                        }
                        out.push(byte | 0x80);
                    }
                }
                Ok(out)
            }
        }
    }

    fn decode(self, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        match self {
            Codec::DeltaXor => {
                let words = as_words(bytes)?;
                let mut out = Vec::with_capacity(bytes.len());
                let mut prev = 0u64;
                for w in words {
                    let orig = w ^ prev;
                    out.extend_from_slice(&orig.to_le_bytes());
                    prev = orig;
                }
                Ok(out)
            }
            Codec::Varint => {
                let mut out = Vec::with_capacity(bytes.len() * 2);
                let mut iter = bytes.iter();
                loop {
                    let mut w = 0u64;
                    let mut shift = 0u32;
                    let mut started = false;
                    loop {
                        let Some(&byte) = iter.next() else {
                            if started {
                                return Err(StoreError::Invalid {
                                    detail: "varint stream ends mid-word".into(),
                                });
                            }
                            return Ok(out);
                        };
                        started = true;
                        if shift >= 64 {
                            return Err(StoreError::Invalid {
                                detail: "varint word overflows u64".into(),
                            });
                        }
                        w |= u64::from(byte & 0x7F) << shift;
                        shift += 7;
                        if byte & 0x80 == 0 {
                            break;
                        }
                    }
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
    }
}

fn as_words(bytes: &[u8]) -> Result<impl Iterator<Item = u64> + '_, StoreError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(StoreError::Invalid {
            detail: format!("codec input length {} is not a multiple of 8", bytes.len()),
        });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap())))
}

/// An ordered list of codec stages, applied left-to-right on encode and
/// right-to-left on decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    stages: Vec<Codec>,
    name: &'static str,
}

impl Pipeline {
    /// Looks up a named pipeline: `"raw"`, `"delta"`, or `"delta-varint"`.
    pub fn by_name(name: &str) -> Result<Self, StoreError> {
        let (stages, name) = match name {
            "raw" => (vec![], "raw"),
            "delta" => (vec![Codec::DeltaXor], "delta"),
            "delta-varint" => (vec![Codec::DeltaXor, Codec::Varint], "delta-varint"),
            other => {
                return Err(StoreError::Invalid {
                    detail: format!(
                        "unknown codec {other:?} (expected raw, delta, or delta-varint)"
                    ),
                })
            }
        };
        Ok(Self { stages, name })
    }

    /// The pipeline's registered name (what the manifest records).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Applies every stage in order.
    pub fn encode(&self, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        let mut cur = None;
        for stage in &self.stages {
            let input = cur.as_deref().unwrap_or(bytes);
            cur = Some(stage.encode(input)?);
        }
        Ok(cur.unwrap_or_else(|| bytes.to_vec()))
    }

    /// Unwinds every stage in reverse order.
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        let mut cur = None;
        for stage in self.stages.iter().rev() {
            let input = cur.as_deref().unwrap_or(bytes);
            cur = Some(stage.decode(input)?);
        }
        Ok(cur.unwrap_or_else(|| bytes.to_vec()))
    }

    fn has(&self, codec: Codec) -> bool {
        self.stages.contains(&codec)
    }

    /// Encodes the little-endian words of `rows`, read as one sample
    /// stream, in a single pass, appending to `out`. The bytes are those
    /// [`Pipeline::encode`] makes of the concatenated rows.
    pub fn encode_f64s<'a>(&self, rows: impl IntoIterator<Item = &'a [f64]>, out: &mut Vec<u8>) {
        let (delta, varint) = (self.has(Codec::DeltaXor), self.has(Codec::Varint));
        let mut prev = 0u64;
        for row in rows {
            if !varint {
                out.reserve(row.len() * 8);
            }
            for v in row {
                let bits = v.to_bits();
                let mut w = if delta { bits ^ prev } else { bits };
                prev = bits;
                if !varint {
                    out.extend_from_slice(&w.to_le_bytes());
                    continue;
                }
                while w >= 0x80 {
                    out.push((w & 0x7F) as u8 | 0x80);
                    w >>= 7;
                }
                out.push(w as u8);
            }
        }
    }

    /// Decodes `bytes` into `out` (cleared first) in a single pass,
    /// yielding the samples whose little-endian words
    /// [`Pipeline::decode`] returns, with its errors. A decoded length
    /// that is not a multiple of 8 (possible only for `"raw"`) is an
    /// error, since it holds no whole number of samples.
    ///
    /// `expected` is the sample count the caller's header claims. It only
    /// sizes `out`, and never past what `bytes` can encode, so a hostile
    /// header cannot force a large allocation.
    pub fn decode_f64s(
        &self,
        bytes: &[u8],
        expected: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), StoreError> {
        out.clear();
        let (delta, varint) = (self.has(Codec::DeltaXor), self.has(Codec::Varint));
        // A varint word takes at least one byte, a fixed word eight.
        let most = if varint { bytes.len() } else { bytes.len() / 8 };
        out.reserve(expected.min(most));
        let mut prev = 0u64;
        if !varint {
            for w in as_words(bytes)? {
                prev = if delta { w ^ prev } else { w };
                out.push(f64::from_bits(prev));
            }
            return Ok(());
        }
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
            prev = if delta { w ^ prev } else { w };
            out.push(f64::from_bits(prev));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_bytes(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn named_pipelines_roundtrip() {
        let smooth: Vec<f64> = (0..256).map(|i| (i as f64 * 0.01).sin() * 3.0).collect();
        let bytes = f64_bytes(&smooth);
        for name in ["raw", "delta", "delta-varint"] {
            let p = Pipeline::by_name(name).unwrap();
            assert_eq!(p.name(), name);
            let enc = p.encode(&bytes).unwrap();
            let dec = p.decode(&enc).unwrap();
            assert_eq!(dec, bytes, "pipeline {name} must be exactly invertible");
        }
    }

    #[test]
    fn delta_varint_compresses_smooth_series() {
        // A smooth trajectory: consecutive f64 words share their high bytes,
        // so delta+varint should beat raw by a wide margin.
        let smooth: Vec<f64> = (0..4096).map(|i| 8.0 + (i as f64 * 0.002).sin()).collect();
        let bytes = f64_bytes(&smooth);
        let enc = Pipeline::by_name("delta-varint")
            .unwrap()
            .encode(&bytes)
            .unwrap();
        assert!(
            enc.len() * 10 < bytes.len() * 9,
            "expected >10% saving, got {} of {} bytes",
            enc.len(),
            bytes.len()
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
        let bytes = f64_bytes(&vals);
        for name in ["delta", "delta-varint"] {
            let p = Pipeline::by_name(name).unwrap();
            let dec = p.decode(&p.encode(&bytes).unwrap()).unwrap();
            // Compare bytes (not values): NaN payloads must survive too.
            assert_eq!(dec, bytes, "{name}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Pipeline::by_name("zstd").is_err());
        let p = Pipeline::by_name("delta").unwrap();
        assert!(p.encode(&[1, 2, 3]).is_err(), "length not multiple of 8");
        let pv = Pipeline::by_name("delta-varint").unwrap();
        // A truncated varint stream must error, not silently drop a word.
        let enc = pv.encode(&f64_bytes(&[1.0, 2.0, 3.0])).unwrap();
        assert!(pv.decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn varint_rejects_overflow() {
        // 10 continuation bytes push past 64 bits.
        let bad = [0xFFu8; 11];
        assert!(Codec::Varint.decode(&bad).is_err());
    }
}
