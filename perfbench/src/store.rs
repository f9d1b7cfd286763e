//! The out-of-core workload, `store_stream`: a long Lorenz-96 series,
//! generated into memory during set-up, is written into a fresh
//! delta-varint cf-store (`ingest_s`), and `discover_store` streams
//! training windows back out of it under a window budget (`discover_s`).

use crate::probe::{self, Counters};
use crate::spans::Recorder;
use crate::stages::{self, discover_rng, Decomposed, Fnv, Outcome, TracedReps};
use crate::storage::CountingStorage;
use crate::{stats, Ctx};
use causalformer::{effective_stride, presets, CausalFormer, StreamOptions};
use cf_data::lorenz96::{self, Lorenz96Config};
use cf_metrics::CausalGraph;
use cf_store::{FsStorage, SeriesStore, SeriesWriter, Storage, StoreError};
use cf_tensor::TensorBase;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Lorenz-96 variables.
const N: usize = 16;
/// Recorded steps: 2^19, so the raw series is 64 MiB of f64.
const LENGTH: usize = 1 << 19;
/// Store chunk length in steps (the CLI's default).
const CHUNK_LEN: usize = 65536;
const CODEC: &str = "delta-varint";
/// Steps of the series the set-up warm-up ingests and discovers.
const WARM_LENGTH: usize = CHUNK_LEN;
/// Seconds one repetition (set-up, ingest, discovery) takes on the
/// reference host; sizes the repetition count from `--seconds`.
const REP_S: f64 = 3.8;
/// Seconds one discovery takes on the reference host.
const DISCOVER_S: f64 = 1.3;
/// Share of a traced run spent on untraced/traced discovery pairs.
const PAIR_SHARE: f64 = 0.6;

const STREAM: StreamOptions = StreamOptions {
    max_windows: 128,
    read_ahead: 2,
};

fn pipeline() -> CausalFormer {
    let mut cf = presets::lorenz96(N);
    cf.train.max_epochs = 2;
    cf.train.patience = 3;
    cf
}

/// Generates the series time-major (`LENGTH × N`), the order
/// `SeriesWriter::append` takes it in. Returns it with the generation time.
fn generate(seed: u64) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let mut staged = Vec::with_capacity(N * LENGTH);
    let config = Lorenz96Config {
        n: N,
        length: LENGTH,
        forcing: 35.0,
        ..Lorenz96Config::default()
    };
    lorenz96::stream(&mut StdRng::seed_from_u64(seed), config, |x| {
        staged.extend_from_slice(x);
        Ok::<(), std::convert::Infallible>(())
    })
    .expect("infallible sink");
    (staged, t0.elapsed().as_secs_f64())
}

/// Writes the time-major series into a fresh store on `storage`.
fn ingest(storage: Arc<dyn Storage>, staged: &[f64]) -> Result<(), StoreError> {
    let mut writer = SeriesWriter::new(storage, N, N, CHUNK_LEN, CODEC)?;
    for sample in staged.chunks_exact(N) {
        writer.append(sample)?;
    }
    writer.finish().map(drop)
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("clearing {}: {e}", dir.display())),
    }
}

fn store_err(what: &str) -> impl Fn(StoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Generates the series and warms the process up with an ingest and a
/// discovery of its first chunk (same window shapes and budget).
fn set_up(ctx: &Ctx, data_seed: u64) -> Result<(Vec<f64>, f64), String> {
    let (staged, generate_s) = generate(data_seed);
    let dir = ctx.work_dir.join("warm");
    fresh_dir(&dir)?;
    let storage = Arc::new(FsStorage::new(&dir));
    ingest(storage.clone(), &staged[..N * WARM_LENGTH]).map_err(store_err("warm-up ingest"))?;
    let store = SeriesStore::open(storage).map_err(store_err("warm-up open"))?;
    pipeline()
        .discover_store(&mut discover_rng(data_seed), &store, &STREAM)
        .map_err(|e| format!("warm-up discover_store: {e}"))?;
    fresh_dir(&dir)?;
    Ok((staged, generate_s))
}

/// FNV-1a over the bits of a time-major series.
fn series_hash(staged: &[f64]) -> u64 {
    let mut h = Fnv::new();
    staged.iter().for_each(|v| h.eat(v.to_bits()));
    h.0
}

/// Reads the whole store back chunk column by chunk column (every read
/// checks the chunk CRC and decodes it) and hashes it time-major.
fn read_back_hash(store: &SeriesStore) -> Result<u64, StoreError> {
    let mut h = Fnv::new();
    let length = store.manifest().length;
    let mut t0 = 0;
    while t0 < length {
        let t1 = (t0 + CHUNK_LEN).min(length);
        let block = store.read_range(t0, t1)?;
        let cols = t1 - t0;
        for t in 0..cols {
            for i in 0..N {
                h.eat(block.data()[i * cols + t].to_bits());
            }
        }
        t0 = t1;
    }
    Ok(h.0)
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    cf_par::set_threads(1);
    std::fs::create_dir_all(&ctx.work_dir).map_err(|e| format!("work dir: {e}"))?;
    if ctx.trace {
        traced(ctx)
    } else {
        untraced(ctx)
    }
}

/// Each repetition sets up its dataset afresh (generation and warm-up),
/// ingests the series into a fresh store, drops the staging data and
/// runs one `discover_store`, so all three timings are sampled across the
/// run.
fn untraced(ctx: &mut Ctx) -> Result<(), String> {
    let dir: PathBuf = ctx.work_dir.join("store");
    let truth = lorenz96::truth(N);
    let cf = pipeline();
    let (mut setup, mut ingested, mut discover, mut peaks) = (vec![], vec![], vec![], vec![]);
    let mut outcomes = Vec::new();
    let mut hashes = Vec::new();
    let reps = stats::reps(ctx.budget, REP_S, 3);
    for k in 0..reps {
        let data_seed = stages::data_seed(ctx.seed, stages::dataset_of(k, reps));
        let t0 = Instant::now();
        let (staged, _) = set_up(ctx, data_seed)?;
        setup.push(t0.elapsed().as_secs_f64());

        fresh_dir(&dir)?;
        let t0 = Instant::now();
        ingest(Arc::new(FsStorage::new(&dir)), &staged).map_err(store_err("ingest"))?;
        ingested.push(t0.elapsed().as_secs_f64());
        hashes.push(series_hash(&staged));
        // The staging matrix is set-up data; the discovery must not
        // carry it.
        drop(staged);

        let store = SeriesStore::open(Arc::new(FsStorage::new(&dir))).map_err(store_err("open"))?;
        let mut rng = discover_rng(data_seed);
        let ((r, dt), peak) = stages::with_peak_rss(|| {
            let t0 = Instant::now();
            let r = cf.discover_store(&mut rng, &store, &STREAM);
            (r, t0.elapsed().as_secs_f64())
        });
        let r = r.map_err(|e| format!("discover_store: {e}"))?;
        discover.push(dt);
        peaks.push(peak);
        outcomes.push(Outcome::of(&r.graph, &r.scores, &truth));
    }
    ctx.set_median("setup_s", &setup);
    ctx.set_timed("ingest_s", &ingested);
    ctx.set_timed("discover_s", &discover);
    stages::record_peak(ctx, &peaks);
    stages::record_quality(ctx, &outcomes);
    ctx.check(
        hashes.last() == hashes.first(),
        "the replayed dataset regenerates the same series",
    );
    let store = SeriesStore::open(Arc::new(FsStorage::new(&dir))).map_err(store_err("open"))?;
    let read_back = read_back_hash(&store).map_err(store_err("read-back"))?;
    ctx.check(
        Some(&read_back) == hashes.last(),
        "store reads back the ingested series bitwise",
    );
    Ok(())
}

/// `discover_store` as its public calls: the stride under the window
/// budget, the store's standardised window scan, `train`, then the
/// detect stage.
fn decomposed(
    rec: &mut Recorder,
    cf: &CausalFormer,
    store: &SeriesStore,
    truth: &CausalGraph,
    seed: u64,
) -> Result<Decomposed<f64>, StoreError> {
    let mut rng = discover_rng(seed);
    rec.span("discover", |rec| {
        let windows = rec.span("core.windowing", |rec| {
            let stride = effective_stride(
                store.manifest().length,
                cf.model.window,
                cf.train.stride,
                STREAM.max_windows,
            );
            rec.span("store.scan", |_| {
                store
                    .standardized_windows(cf.model.window, stride, STREAM.read_ahead)?
                    .map(|w| w.map(|w| TensorBase::from_f64_tensor(&w)))
                    .collect::<Result<Vec<TensorBase<f64>>, StoreError>>()
            })
        })?;
        let (trained, report) = rec.span("core.train", |_| {
            causalformer::train(&mut rng, cf.model, cf.train, &windows)
        });
        let (graph, scores) = stages::detect_stage(rec, &mut rng, cf, &trained, &windows);
        Ok(Decomposed {
            outcome: Outcome::of(&graph, &scores, truth),
            trained,
            report,
            windows,
        })
    })
}

fn traced(ctx: &mut Ctx) -> Result<(), String> {
    let seed = stages::data_seed(ctx.seed, 0);
    let (staged, generate_s) = set_up(ctx, seed)?;
    ctx.set("data.generate_s", generate_s);
    let dir = ctx.work_dir.join("store");
    fresh_dir(&dir)?;

    let counting = Arc::new(CountingStorage::new(&dir));
    let t0 = Instant::now();
    ingest(counting.clone(), &staged).map_err(store_err("ingest"))?;
    ctx.set("store.write_s", t0.elapsed().as_secs_f64());
    let written = counting.counts();
    let on_disk = dir_bytes(&dir)?;
    ctx.check(
        on_disk == written.bytes_written,
        "bytes on disk equal the bytes the store wrote",
    );
    ctx.set("store.put_s", written.put_ns as f64 * 1e-9);
    ctx.set("store.bytes_written", written.bytes_written as f64);
    ctx.set(
        "store.compression_ratio",
        (staged.len() * 8) as f64 / on_disk as f64,
    );
    let expected = series_hash(&staged);
    drop(staged);

    let plain = SeriesStore::open(Arc::new(FsStorage::new(&dir))).map_err(store_err("open"))?;
    let counted = SeriesStore::open(counting.clone()).map_err(store_err("open"))?;
    let truth = lorenz96::truth(N);
    let cf = pipeline();

    let counters = Counters::now();
    let t0 = Instant::now();
    let r = cf
        .discover_store(&mut discover_rng(seed), &plain, &STREAM)
        .map_err(|e| format!("discover_store: {e}"))?;
    counters.record_since(ctx, t0.elapsed().as_secs_f64());
    let reference = Outcome::of(&r.graph, &r.scores, &truth);

    let mut reps = TracedReps::default();
    let (mut untraced, mut traced, mut last) = (Vec::new(), Vec::new(), None);
    let mut errors = Vec::new();
    let mut io = Vec::new();
    for _ in 0..stats::reps(ctx.budget * PAIR_SHARE, 2.0 * DISCOVER_S, 2) {
        let d = reps.pair(
            || {
                let t0 = Instant::now();
                let r = cf.discover_store(&mut discover_rng(seed), &plain, &STREAM);
                let dt = t0.elapsed().as_secs_f64();
                match r {
                    Ok(r) => untraced.push(Outcome::of(&r.graph, &r.scores, &truth)),
                    Err(e) => errors.push(format!("discover_store: {e}")),
                }
                dt
            },
            |rec| {
                let before = counting.counts();
                let d = decomposed(rec, &cf, &counted, &truth, seed);
                io.push(counting.counts() - before);
                d
            },
        );
        match d {
            Ok(d) => {
                traced.push(d.outcome);
                last = Some(d);
            }
            Err(e) => errors.push(format!("decomposed discover_store: {e}")),
        }
    }
    if let Some(e) = errors.into_iter().next() {
        return Err(e);
    }
    stages::gate_outcomes(ctx, "untraced discover_store", reference, &untraced);
    stages::gate_outcomes(ctx, "traced decomposed discover_store", reference, &traced);
    reps.record(ctx);
    let reads = io[0];
    ctx.check(
        io.iter()
            .all(|c| c.gets == reads.gets && c.bytes_read == reads.bytes_read),
        "every discovery reads the same chunks",
    );
    let get_s: Vec<f64> = io.iter().map(|c| c.get_ns as f64 * 1e-9).collect();
    ctx.set_timed("store.get_s", &get_s);
    ctx.set("store.chunk_reads", reads.gets as f64);
    ctx.set(
        "store.read_amplification",
        reads.bytes_read as f64 / on_disk as f64,
    );

    let t0 = Instant::now();
    counted.stats().map_err(store_err("stats"))?;
    ctx.set("store.stats_s", t0.elapsed().as_secs_f64());

    let last = last.expect("at least two pairs");
    stages::record_training(ctx, &last.report);
    probe::model(ctx, &last.trained, &last.windows);
    probe::detector(ctx, &last.trained, &last.windows);
    probe::tensor::<f64>(ctx, N, cf.model.window, cf.model.d_model);
    let read_back = read_back_hash(&plain).map_err(store_err("read-back"))?;
    ctx.check(
        read_back == expected,
        "store reads back the ingested series bitwise",
    );
    Ok(())
}
