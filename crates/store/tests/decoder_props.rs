//! The on-disk decoders on hostile bytes: truncated, bit-flipped and
//! random inputs return errors, never panic, and valid inputs round-trip
//! exactly.
//!
//! Covers the CFTENS1 tensor envelope (`TensorFile::parse` and its
//! `typed` / `f64s` / `u64s` readers), the CFSTORE1 manifest
//! (`SeriesStore::open`), CFCHNK1 chunks (`SeriesStore::read_chunk` over
//! `MemStorage`) and every codec pipeline (`Pipeline::decode`).

use cf_store::codec::Pipeline;
use cf_store::{MemStorage, SeriesStore, SeriesWriter, Storage, TensorFile, TensorFileBuilder};
use cf_tensor::TensorBase;
use proptest::prelude::*;
use std::sync::Arc;

const CODECS: [&str; 3] = ["raw", "delta", "delta-varint"];

/// A byte-buffer mutation: cut to a prefix, flip one bit, or replace
/// with random bytes.
#[derive(Debug, Clone)]
enum Mutation {
    Truncate(usize),
    Flip(usize, u8),
    Random(Vec<u8>),
}

impl Mutation {
    /// Applies the mutation to `bytes`; `None` when it leaves them as
    /// they were.
    fn apply(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let out = match self {
            Mutation::Truncate(at) => bytes[..at % bytes.len().max(1)].to_vec(),
            Mutation::Flip(at, bit) => {
                let mut out = bytes.to_vec();
                *out.get_mut(at % bytes.len().max(1))? ^= 1 << (bit % 8);
                out
            }
            Mutation::Random(random) => random.clone(),
        };
        (out != bytes).then_some(out)
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let random = proptest::collection::vec(0u8..=255, 0..64);
    (0u8..3, 0usize..1 << 16, 0u8..8, random).prop_map(|(kind, at, bit, random)| match kind {
        0 => Mutation::Truncate(at),
        1 => Mutation::Flip(at, bit),
        _ => Mutation::Random(random),
    })
}

/// A CFTENS1 document with an f64 tensor, an f32 tensor and u64 words.
fn tensor_file(values: &[f64], words: &[u64]) -> Vec<u8> {
    let mut b = TensorFileBuilder::new().meta("{\"k\":1}");
    let n = values.len();
    b.push_tensor(
        "w",
        &TensorBase::<f64>::from_vec(vec![n], values.to_vec()).unwrap(),
    );
    let narrow: Vec<f32> = values.iter().map(|&v| v as f32).collect();
    b.push_tensor("h", &TensorBase::<f32>::from_vec(vec![n], narrow).unwrap());
    b.push_f64("hist", values);
    b.push_u64("rng", words);
    b.finish()
}

/// Reads every section the way checkpoint and model loaders do.
fn read_tensor_file(bytes: &[u8]) -> Result<(), cf_store::StoreError> {
    let f = TensorFile::parse(bytes, "prop.cft")?;
    for name in f.names().map(str::to_string).collect::<Vec<_>>() {
        let _ = f.typed::<f64>(&name);
        let _ = f.typed::<f32>(&name);
        let _ = f.f64s(&name);
        let _ = f.u64s(&name);
    }
    Ok(())
}

/// A small store of `n × len` samples in memory.
fn store(n: usize, len: usize, codec: &str, values: &[f64]) -> Arc<MemStorage> {
    let storage = Arc::new(MemStorage::new());
    let mut w = SeriesWriter::new(storage.clone(), n, 2, 5, codec).unwrap();
    for t in 0..len {
        let sample: Vec<f64> = (0..n).map(|i| values[(t * n + i) % values.len()]).collect();
        w.append(&sample).unwrap();
    }
    w.finish().unwrap();
    storage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tensor_envelope_round_trips_and_rejects_damage(
        values in proptest::collection::vec(-1e6f64..1e6, 1..12),
        words in proptest::collection::vec(0u64..=u64::MAX, 0..4),
        damage in mutation(),
    ) {
        let bytes = tensor_file(&values, &words);
        let f = TensorFile::parse(&bytes, "prop.cft").unwrap();
        let w = f.typed::<f64>("w").unwrap();
        prop_assert_eq!(w.data(), &values[..]);
        prop_assert_eq!(f.f64s("hist").unwrap(), values.clone());
        prop_assert_eq!(f.u64s("rng").unwrap(), words.clone());
        if let Some(bad) = damage.apply(&bytes) {
            let result = read_tensor_file(&bad);
            if !matches!(damage, Mutation::Flip(..)) {
                // Any prefix cuts the last section short; random bytes
                // lack the magic.
                prop_assert!(result.is_err(), "{damage:?} parsed");
            }
        }
    }

    #[test]
    fn store_manifest_rejects_damage(
        values in proptest::collection::vec(-1e3f64..1e3, 1..8),
        damage in mutation(),
    ) {
        let storage = store(3, 7, "delta-varint", &values);
        let manifest = storage.get("manifest.json").unwrap();
        let intact = SeriesStore::open(storage.clone()).unwrap();
        prop_assert_eq!(intact.manifest().n_series, 3);
        if let Some(bad) = damage.apply(&manifest) {
            storage.put("manifest.json", &bad).unwrap();
            let opened = SeriesStore::open(storage.clone());
            if let Ok(store) = &opened {
                // A flip that still parses (a digit turned into another)
                // must still describe a readable or cleanly failing store.
                let _ = store.read_all();
            } else if let Mutation::Truncate(_) | Mutation::Random(_) = damage {
                prop_assert!(opened.is_err());
            }
        }
    }

    #[test]
    fn store_chunks_round_trip_and_reject_damage(
        values in proptest::collection::vec(-1e3f64..1e3, 1..8),
        codec in 0usize..CODECS.len(),
        damage in mutation(),
    ) {
        let (n, len) = (3, 7);
        let storage = store(n, len, CODECS[codec], &values);
        let store = SeriesStore::open(storage.clone()).unwrap();
        let all = store.read_all().unwrap();
        for i in 0..n {
            for t in 0..len {
                prop_assert_eq!(all.get2(i, t).to_bits(), values[(t * n + i) % values.len()].to_bits());
            }
        }
        let key = cf_store::series::chunk_key(0, 1);
        let chunk = storage.get(&key).unwrap();
        if let Some(bad) = damage.apply(&chunk) {
            storage.put(&key, &bad).unwrap();
            // Magic, CRC and the header's geometry catch every damage.
            prop_assert!(store.read_chunk(0, 1).is_err(), "{damage:?} decoded");
        }
    }

    #[test]
    fn codecs_round_trip_and_survive_any_bytes(
        words in proptest::collection::vec(0u64..=u64::MAX, 0..16),
        codec in 0usize..CODECS.len(),
        damage in mutation(),
    ) {
        let p = Pipeline::by_name(CODECS[codec]).unwrap();
        let raw: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let encoded = p.encode(&raw).unwrap();
        prop_assert_eq!(p.decode(&encoded).unwrap(), raw);
        // Codecs carry no checksum (the chunk's CRC does): damaged input
        // may decode to other bytes, but never panics.
        if let Some(bad) = damage.apply(&encoded) {
            let _ = p.decode(&bad);
        }
    }
}

/// A section whose shape overflows `usize` once multiplied out (with no
/// payload bytes) parses, and reading it is an error, not a panic or a
/// tensor that claims 2^64 elements.
#[test]
fn tensor_section_with_overflowing_shape_is_an_error() {
    let mut b = TensorFileBuilder::new();
    b.push_slice::<f64>("w", vec![1 << 32, 1 << 32], &[]);
    let f = TensorFile::parse(&b.finish(), "hostile.cft").unwrap();
    let err = f.typed::<f64>("w").unwrap_err();
    assert!(err.to_string().contains("section \"w\""), "{err}");
}

/// A manifest whose four geometry fields are 2^31 and a chunk whose
/// header claims 2^31 × 2^31 samples in 0 bytes: reading it is an error,
/// not an overflow panic or 0 samples.
#[test]
fn chunk_with_overflowing_geometry_is_an_error() {
    let storage = Arc::new(MemStorage::new());
    let g = 1u64 << 31;
    let manifest = format!(
        "{{\"magic\":\"CFSTORE1\",\"n_series\":{g},\"length\":{g},\"chunk_series\":{g},\
         \"chunk_len\":{g},\"codec\":\"raw\",\"dtype\":\"f64\"}}"
    );
    storage.put("manifest.json", manifest.as_bytes()).unwrap();
    let mut chunk = b"CFCHNK1\n".to_vec();
    chunk.extend_from_slice(&0u32.to_le_bytes()); // CRC-32 of no bytes
    chunk.extend_from_slice(&0u32.to_le_bytes()); // raw_len
    chunk.extend_from_slice(&(g as u32).to_le_bytes()); // rows
    chunk.extend_from_slice(&(g as u32).to_le_bytes()); // cols
    storage
        .put(&cf_store::series::chunk_key(0, 0), &chunk)
        .unwrap();
    let store = SeriesStore::open(storage).unwrap();
    let err = store.read_chunk(0, 0).unwrap_err();
    assert!(err.to_string().contains("geometry needs"), "{err}");
}

/// A manifest whose series count times length overflows `usize`:
/// materialising the store is an error, not an overflow panic.
#[test]
fn store_range_with_overflowing_geometry_is_an_error() {
    let storage = Arc::new(MemStorage::new());
    let g = 1u64 << 40;
    let manifest = format!(
        "{{\"magic\":\"CFSTORE1\",\"n_series\":{g},\"length\":{g},\"chunk_series\":1,\
         \"chunk_len\":1,\"codec\":\"raw\",\"dtype\":\"f64\"}}"
    );
    storage.put("manifest.json", manifest.as_bytes()).unwrap();
    let err = SeriesStore::open(storage).unwrap().read_all().unwrap_err();
    assert!(err.to_string().contains("overflows"), "{err}");
}

/// The staged read path as a chunk read takes it: `Pipeline::decode`,
/// then whole little-endian words. `None` when either step fails (a
/// length that is not a multiple of 8 holds no whole sample).
fn staged_words(p: &Pipeline, bytes: &[u8]) -> Option<Vec<u64>> {
    let raw = p.decode(bytes).ok()?;
    raw.len().is_multiple_of(8).then(|| {
        raw.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass codec paths are the staged pipeline: encoding any
    /// words (split into rows anywhere) gives the staged bytes, and
    /// decoding encoded, damaged or random bytes gives the staged words
    /// or fails exactly where the staged path fails.
    #[test]
    fn fused_codec_paths_match_the_staged_pipeline(
        words in proptest::collection::vec(0u64..=u64::MAX, 0..24),
        split in 0usize..24,
        codec in 0usize..CODECS.len(),
        damage in mutation(),
        noise in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let p = Pipeline::by_name(CODECS[codec]).unwrap();
        let raw: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let values: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
        let (a, b) = values.split_at(split.min(values.len()));
        let mut fused = b"header".to_vec();
        p.encode_f64s([a, b], &mut fused);
        let encoded = p.encode(&raw).unwrap();
        prop_assert_eq!(&fused[6..], &encoded[..]);
        let damaged = damage.apply(&encoded).unwrap_or_default();
        for bytes in [&encoded[..], &damaged[..], &noise[..]] {
            for expected in [words.len(), usize::MAX] {
                let mut out = vec![1.0]; // the decoder clears it
                let got = p
                    .decode_f64s(bytes, expected, &mut out)
                    .map(|()| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                prop_assert_eq!(got.ok(), staged_words(&p, bytes));
            }
        }
    }
}
