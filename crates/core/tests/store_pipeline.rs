//! Out-of-core pipeline gate: discovery from a chunked on-disk
//! [`cf_store::SeriesStore`] must be a *transparent* replacement for the
//! in-RAM path — bitwise-identical graphs, scores, and loss histories when
//! the window budget is not exceeded, deterministic stride widening when it
//! is, and loud, file-naming errors on corruption. `scripts/check.sh` runs
//! this file at several `CF_THREADS` settings, so the equivalence is also
//! checked across thread counts.

use causalformer::{
    effective_stride, CausalFormer, CheckpointConfig, DetectorConfig, DiscoveryResult, ModelConfig,
    StreamError, StreamOptions, TrainConfig, Windows,
};
use cf_data::synthetic;
use cf_store::{FsStorage, MemStorage, SeriesStore, SeriesWriter, Storage, StoreError};
use cf_tensor::{Dtype, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn fork_series(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    synthetic::generate(&mut rng, synthetic::Structure::Fork, 240).series
}

fn pipeline(max_epochs: usize, dtype: Dtype) -> CausalFormer {
    let model = ModelConfig {
        d_model: 8,
        d_qk: 8,
        d_ffn: 8,
        heads: 1,
        ..ModelConfig::compact(3, 8)
    };
    let train = TrainConfig {
        max_epochs,
        patience: 50, // never early-stop in this gate
        stride: 4,
        dtype,
        ..TrainConfig::default()
    };
    CausalFormer::new(model, train, DetectorConfig::default())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cf_store_pipe_{tag}_{}_t{}",
        std::process::id(),
        std::env::var("CF_THREADS").unwrap_or_default()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes the `N×L` series into a freshly created chunked store, one time
/// step at a time (the same access pattern a streaming generator uses).
/// The ragged geometry (chunk_series=2 over 3 series, chunk_len=32 over
/// 240 steps) exercises partial blocks on both axes.
fn write_store(dir: &PathBuf, series: &Tensor) -> SeriesStore {
    let (n, l) = (series.shape()[0], series.shape()[1]);
    let storage = Arc::new(FsStorage::new(dir));
    let mut w = SeriesWriter::new(storage, n, 2, 32, "delta-varint").unwrap();
    let data = series.data();
    let mut sample = vec![0.0; n];
    for t in 0..l {
        for (i, s) in sample.iter_mut().enumerate() {
            *s = data[i * l + t];
        }
        w.append(&sample).unwrap();
    }
    w.finish().unwrap();
    SeriesStore::open_dir(dir).unwrap()
}

fn attn_bits(r: &DiscoveryResult) -> Vec<u64> {
    r.scores
        .attn
        .iter()
        .flat_map(|row| row.iter().map(|v| v.to_bits()))
        .collect()
}

fn kernel_bits(r: &DiscoveryResult) -> Vec<u64> {
    r.scores
        .kernel
        .iter()
        .flat_map(|k| k.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn loss_bits(r: &DiscoveryResult) -> Vec<u64> {
    r.train_report
        .train_losses
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn store_discovery_is_bitwise_identical_to_in_ram_f64() {
    let series = fork_series(0);
    let cf = pipeline(3, Dtype::F64);

    let mut rng = StdRng::seed_from_u64(7);
    let in_ram = cf.discover(&mut rng, &series);

    let dir = tmp_dir("bitwise_f64");
    let store = write_store(&dir, &series);
    let mut rng = StdRng::seed_from_u64(7);
    let streamed = cf
        .discover_store(&mut rng, &store, &StreamOptions::default())
        .unwrap();

    assert_eq!(in_ram.graph, streamed.graph, "graphs diverged");
    assert_eq!(attn_bits(&in_ram), attn_bits(&streamed));
    assert_eq!(kernel_bits(&in_ram), kernel_bits(&streamed));
    assert_eq!(loss_bits(&in_ram), loss_bits(&streamed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_discovery_is_bitwise_identical_to_in_ram_f32() {
    // The preprocessing (standardisation) is f64 on both paths and the
    // cast to f32 happens per finished window, so even the f32 pipeline
    // is bitwise — identical inputs, identical arithmetic.
    let series = fork_series(1);
    let cf = pipeline(3, Dtype::F32);

    let mut rng = StdRng::seed_from_u64(11);
    let in_ram = cf.discover(&mut rng, &series);

    let dir = tmp_dir("bitwise_f32");
    let store = write_store(&dir, &series);
    let mut rng = StdRng::seed_from_u64(11);
    let streamed = cf
        .discover_store(&mut rng, &store, &StreamOptions::default())
        .unwrap();

    assert_eq!(in_ram.graph, streamed.graph, "graphs diverged");
    assert_eq!(attn_bits(&in_ram), attn_bits(&streamed));
    assert_eq!(loss_bits(&in_ram), loss_bits(&streamed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn window_budget_widens_stride_deterministically() {
    // 240 steps, window 8, stride 4 → 59 natural windows; a budget of 5
    // widens the stride to 58, keeping exactly 5 evenly spaced windows.
    assert_eq!(effective_stride(240, 8, 4, 5), 58);
    // Under budget: the natural stride survives untouched.
    assert_eq!(effective_stride(240, 8, 4, 4096), 4);

    let series = fork_series(2);
    let cf = pipeline(2, Dtype::F64);
    let dir = tmp_dir("budget");
    let store = write_store(&dir, &series);
    let opts = StreamOptions {
        max_windows: 5,
        read_ahead: 2,
    };

    let mut rng = StdRng::seed_from_u64(13);
    let a = cf.discover_store(&mut rng, &store, &opts).unwrap();
    let mut rng = StdRng::seed_from_u64(13);
    let b = cf.discover_store(&mut rng, &store, &opts).unwrap();

    assert_eq!(a.graph, b.graph);
    assert_eq!(attn_bits(&a), attn_bits(&b));
    assert_eq!(loss_bits(&a), loss_bits(&b));
    std::fs::remove_dir_all(&dir).ok();
}

/// A budgeted discovery trains on the windows at the widened stride: it
/// must be bitwise the in-RAM discovery whose `train.stride` is that
/// stride. 240 steps under a budget of 5 widen stride 4 to 58, which
/// skips whole 32-step chunks between windows.
fn budgeted_store_discovery_matches_in_ram_at_effective_stride(dtype: Dtype, seed: u64) {
    let series = fork_series(seed);
    let mut cf = pipeline(2, dtype);
    let opts = StreamOptions {
        max_windows: 5,
        read_ahead: 2,
    };
    let stride = effective_stride(240, cf.model.window, cf.train.stride, opts.max_windows);
    assert_eq!(stride, 58);

    let dir = tmp_dir(&format!("budget_vs_ram_{dtype:?}"));
    let store = write_store(&dir, &series);
    let mut rng = StdRng::seed_from_u64(seed);
    let streamed = cf.discover_store(&mut rng, &store, &opts).unwrap();

    cf.train.stride = stride;
    let mut rng = StdRng::seed_from_u64(seed);
    let in_ram = cf.discover(&mut rng, &series);

    assert_eq!(in_ram.graph, streamed.graph, "graphs diverged");
    assert_eq!(attn_bits(&in_ram), attn_bits(&streamed));
    assert_eq!(kernel_bits(&in_ram), kernel_bits(&streamed));
    assert_eq!(loss_bits(&in_ram), loss_bits(&streamed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budgeted_store_discovery_is_in_ram_at_effective_stride_f64() {
    budgeted_store_discovery_matches_in_ram_at_effective_stride(Dtype::F64, 29);
}

#[test]
fn budgeted_store_discovery_is_in_ram_at_effective_stride_f32() {
    budgeted_store_discovery_matches_in_ram_at_effective_stride(Dtype::F32, 31);
}

/// An in-memory [`Storage`] that counts the reads of every key.
#[derive(Default)]
struct CountingStorage {
    inner: MemStorage,
    gets: Mutex<BTreeMap<String, usize>>,
}

impl Storage for CountingStorage {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, bytes)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        *self.gets.lock().unwrap().entry(key.into()).or_default() += 1;
        self.inner.get(key)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.inner.delete(key)
    }

    fn target(&self, key: &str) -> String {
        self.inner.target(key)
    }
}

#[test]
fn store_discovery_reads_each_chunk_once() {
    let series = fork_series(6);
    let (n, l) = (series.shape()[0], series.shape()[1]);
    let storage = Arc::new(CountingStorage::default());
    let mut w = SeriesWriter::new(storage.clone(), n, 2, 32, "delta-varint").unwrap();
    for t in 0..l {
        let sample: Vec<f64> = (0..n).map(|i| series.get2(i, t)).collect();
        w.append(&sample).unwrap();
    }
    w.finish().unwrap();
    let store = SeriesStore::open(storage.clone()).unwrap();
    storage.gets.lock().unwrap().clear();

    let cf = pipeline(1, Dtype::F64);
    let mut rng = StdRng::seed_from_u64(37);
    cf.discover_store(&mut rng, &store, &StreamOptions::default())
        .unwrap();
    let gets = storage.gets.lock().unwrap();
    let chunks = storage.inner.list().unwrap().len() - 1; // less the manifest
    assert_eq!(chunks, 2 * 8, "2 variable blocks × 8 time blocks");
    assert_eq!(gets.len(), chunks, "every chunk is read: {gets:?}");
    assert!(gets.values().all(|&c| c == 1), "{gets:?}");
}

#[test]
fn store_resume_is_bitwise_identical_via_v3_checkpoints() {
    // CFTENS1-payload (v3) checkpoints must carry *everything*: a run
    // that checkpoints after 3 epochs and resumes in a "fresh process"
    // (wrong-seeded RNG) lands bitwise on the uninterrupted result.
    let series = fork_series(3);
    let cf6 = pipeline(6, Dtype::F64);
    let cf3 = pipeline(3, Dtype::F64);
    let dir = tmp_dir("resume");
    let store = write_store(&dir, &series);
    let opts = StreamOptions::default();

    let mut rng = StdRng::seed_from_u64(17);
    let straight = cf6.discover_store(&mut rng, &store, &opts).unwrap();

    let ckpt = tmp_dir("resume_ckpts");
    let mut rng = StdRng::seed_from_u64(17);
    let first_half = cf3
        .discover_resumable(
            &mut rng,
            Windows::Store(&store, opts),
            CheckpointConfig::new(&ckpt),
            false,
        )
        .unwrap();
    assert_eq!(first_half.train_report.train_losses.len(), 3);

    let mut rng = StdRng::seed_from_u64(999_999); // wrong on purpose
    let resumed = cf6
        .discover_resumable(
            &mut rng,
            Windows::Store(&store, opts),
            CheckpointConfig::new(&ckpt),
            true,
        )
        .unwrap();
    assert_eq!(resumed.train_report.resumed_at, Some(3));

    assert_eq!(
        straight.graph, resumed.graph,
        "graphs diverged after resume"
    );
    assert_eq!(attn_bits(&straight), attn_bits(&resumed));
    assert_eq!(kernel_bits(&straight), kernel_bits(&resumed));
    assert_eq!(loss_bits(&straight), loss_bits(&resumed));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

#[test]
fn corrupt_chunk_fails_discovery_naming_the_file() {
    let series = fork_series(4);
    let cf = pipeline(2, Dtype::F64);
    let dir = tmp_dir("corrupt");
    let store = write_store(&dir, &series);

    // Bit-rot one chunk on disk.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "cfc"))
        .expect("store must contain chunk files");
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let mut rng = StdRng::seed_from_u64(19);
    let err = cf
        .discover_store(&mut rng, &store, &StreamOptions::default())
        .err()
        .expect("corrupt chunk must fail discovery");
    let msg = match &err {
        StreamError::Store(e) => e.to_string(),
        other => panic!("expected a store error, got: {other}"),
    };
    let name = victim.file_name().unwrap().to_string_lossy();
    assert!(
        msg.contains(name.as_ref()),
        "error must name the offending chunk ({name}): {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_rejects_mismatched_model_geometry() {
    let series = fork_series(5);
    let dir = tmp_dir("geometry");
    let store = write_store(&dir, &series);

    // 5-series model over a 3-series store.
    let model = ModelConfig {
        d_model: 8,
        d_qk: 8,
        d_ffn: 8,
        heads: 1,
        ..ModelConfig::compact(5, 8)
    };
    let cf = CausalFormer::new(
        model,
        TrainConfig {
            max_epochs: 1,
            ..TrainConfig::default()
        },
        DetectorConfig::default(),
    );
    let mut rng = StdRng::seed_from_u64(23);
    let err = cf
        .discover_store(&mut rng, &store, &StreamOptions::default())
        .err()
        .expect("geometry mismatch must be rejected");
    assert!(err.to_string().contains("series"), "unhelpful error: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
