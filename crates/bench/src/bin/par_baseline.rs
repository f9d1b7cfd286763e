//! Parallel-performance baseline: per-(method × dataset) discovery wall
//! times at 1 and N worker threads, plus an end-to-end CausalFormer run on
//! Lorenz-96 with 20 variables. The committed `BENCH_PR2.json` /
//! `BENCH_PR4.json` files at the repo root are this binary's output —
//! re-run it after kernel, scheduler, or allocator changes to track the
//! speedup trajectory:
//!
//! ```text
//! cargo run -p cf-bench --release --bin par_baseline -- --json BENCH_PR4.json
//! ```
//!
//! Because results are bitwise identical at any thread count, the F1
//! column is reported once per cell; only wall time varies with threads.
//!
//! Each timing also carries the buffer-pool counters for its run
//! (`alloc_count` = fresh heap allocations, `pool_hits`/`pool_misses` =
//! free-list traffic), and the binary ends with a steady-state gate: a
//! warmed-up repeat of the Lorenz-96 discover must stay under a pinned
//! allocations-per-epoch bound, or the process exits non-zero (CI's
//! bench-smoke job runs this with `--smoke`).

use causalformer::StreamOptions;
use cf_bench::{
    init_metrics, maybe_dump_metrics, maybe_start_heartbeat, method_label, parse_options, run_cell,
    stop_heartbeat, DatasetKind, MethodKind, Options,
};
use cf_data::lorenz96::{self, Lorenz96Config};
use cf_store::{FsStorage, SeriesStore, SeriesWriter};
use cf_tensor::Dtype;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

#[derive(serde::Serialize)]
struct CellTiming {
    method: String,
    dataset: String,
    f1_mean: Option<f64>,
    wall_secs: Vec<ThreadTiming>,
}

#[derive(serde::Serialize)]
struct ThreadTiming {
    threads: usize,
    secs: f64,
    /// Fresh heap allocations for tensor storage during this run (pool
    /// misses plus externally built buffers adopted by tensors).
    alloc_count: u64,
    /// Buffer-pool free-list hits during this run.
    pool_hits: u64,
    /// Buffer-pool free-list misses during this run.
    pool_misses: u64,
    /// More worker threads than the host has cores: the wall time
    /// measures scheduler contention, not scaling, and downstream
    /// consumers (`bench-diff`) must not draw scaling conclusions.
    oversubscribed: bool,
}

/// Merges drained timelines into `into`, concatenating events per tid so
/// repeated drains still yield one timeline per thread in the final trace.
fn merge_traces(into: &mut Vec<cf_obs::trace::ThreadTrace>, more: Vec<cf_obs::trace::ThreadTrace>) {
    for t in more {
        match into.iter_mut().find(|h| h.tid == t.tid) {
            Some(h) => h.events.extend(t.events),
            None => into.push(t),
        }
    }
}

/// Runs `f`, returning its result, the wall time, and the pool-counter
/// deltas the run produced.
fn timed<R>(threads: usize, f: impl FnOnce() -> R) -> (R, ThreadTiming) {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = cf_tensor::pool::stats();
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    let after = cf_tensor::pool::stats();
    (
        out,
        ThreadTiming {
            threads,
            secs,
            alloc_count: after.alloc - before.alloc,
            pool_hits: after.hit - before.hit,
            pool_misses: after.miss - before.miss,
            oversubscribed: threads > host_cores,
        },
    )
}

/// Pinned CI bound on steady-state tensor allocations per training epoch
/// (measured on a warmed pool over a repeated Lorenz-96 discover at one
/// thread). Steady-state traffic is per-run setup — window construction,
/// parameter init, graph read-out — amortised over epochs; the training
/// hot loop itself allocates nothing (observed: ~33 allocs/epoch in
/// smoke mode). Generous headroom keeps CI from flaking while a real
/// regression (per-step allocations scale with windows × params —
/// thousands per epoch) trips it immediately.
const STEADY_ALLOC_PER_EPOCH_BOUND: u64 = 500;

#[derive(serde::Serialize)]
struct SteadyStateGate {
    allocs: u64,
    pool_misses: u64,
    epochs: u64,
    allocs_per_epoch: u64,
    bound: u64,
}

/// f32-vs-f64 CausalFormer wall time at one thread on one dataset.
#[derive(serde::Serialize)]
struct F32Speedup {
    dataset: String,
    f64_secs: f64,
    f32_secs: f64,
    /// `f64_secs / f32_secs`; >1 means f32 is faster.
    speedup: f64,
}

#[derive(serde::Serialize)]
struct Baseline {
    host_cores: usize,
    thread_counts: Vec<usize>,
    cells: Vec<CellTiming>,
    f32_speedup_1t: Vec<F32Speedup>,
    lorenz96_n20_discover: Vec<ThreadTiming>,
    lorenz96_n20_discover_f32: Vec<ThreadTiming>,
    steady_state: SteadyStateGate,
    out_of_core: OutOfCoreCell,
    notes: &'static str,
}

/// Pinned peak-RSS budget for the out-of-core discover child process. The
/// full (non-smoke) cell streams a series >10× this budget through the
/// chunked store; blowing the budget means the streaming path regressed to
/// materialising the series.
const OOCORE_RSS_BUDGET_BYTES: u64 = 200 * 1024 * 1024;

/// The out-of-core bench cell: `discover` over a chunked on-disk store,
/// run in a child process so its peak RSS (`VmHWM`) is measured in
/// isolation from the parent's allocations.
#[derive(serde::Serialize)]
struct OutOfCoreCell {
    n_series: usize,
    length: usize,
    /// Size of the raw f64 matrix the store replaces.
    raw_bytes: u64,
    /// On-disk size of the chunked store (delta-varint encoded).
    store_bytes: u64,
    chunk_len: usize,
    max_windows: usize,
    generate_secs: f64,
    discover_secs: f64,
    /// Child peak RSS from `/proc/self/status` VmHWM; 0 on non-Linux
    /// hosts, where the budget gate is skipped.
    peak_rss_bytes: u64,
    rss_budget_bytes: u64,
    /// `raw_bytes / rss_budget_bytes` — how far out-of-core the cell is.
    raw_over_budget: f64,
    edges: usize,
}

/// Hidden child mode: `--oocore-child STORE_DIR MAX_WINDOWS EPOCHS` runs
/// the streaming discover and reports its own peak RSS on stdout. The
/// parent spawns this so the RSS measurement excludes generation and the
/// benchmark matrix.
fn oocore_child(args: &[String]) -> i32 {
    let [dir, max_windows, epochs] = args else {
        eprintln!("--oocore-child requires STORE_DIR MAX_WINDOWS EPOCHS");
        return 2;
    };
    let store = match SeriesStore::open_dir(dir.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("opening store {dir}: {e}");
            return 1;
        }
    };
    let n = store.manifest().n_series;
    let mut cf = causalformer::presets::lorenz96(n);
    cf.model.window = 8;
    cf.train.stride = 2;
    cf.train.max_epochs = epochs.parse().unwrap_or(2);
    let opts = StreamOptions {
        max_windows: max_windows.parse().unwrap_or(128),
        read_ahead: 2,
    };
    let mut rng = StdRng::seed_from_u64(96);
    match cf.discover_store(&mut rng, &store, &opts) {
        Ok(result) => {
            println!("OOCORE_EDGES={}", result.graph.edges().count());
            println!(
                "OOCORE_PEAK_RSS_BYTES={}",
                cf_obs::heartbeat::peak_rss_bytes()
            );
            0
        }
        Err(e) => {
            eprintln!("streaming discover failed: {e}");
            1
        }
    }
}

/// Generates a Lorenz-96 store (streaming — the matrix never exists in
/// RAM), then runs the streaming discover in a child process and gates its
/// peak RSS against [`OOCORE_RSS_BUDGET_BYTES`]. Exits non-zero on any
/// failure or budget violation.
fn run_oocore_cell(smoke: bool) -> OutOfCoreCell {
    // Full mode: 16 series × 20M steps = 2.56 GB raw, 12.8× the 200 MB
    // budget. Smoke keeps the exact same machinery at CI-friendly size.
    let (n, length, chunk_len, max_windows, epochs) = if smoke {
        (8usize, 100_000usize, 16_384usize, 64usize, 2usize)
    } else {
        (16, 20_000_000, 65_536, 128, 3)
    };
    let raw_bytes = (n * length * 8) as u64;
    let dir = std::env::temp_dir().join(format!("cf_oocore_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "out-of-core cell: generating lorenz96 n={n} length={length} \
         ({:.2} GB raw) into {} …",
        raw_bytes as f64 / 1e9,
        dir.display()
    );

    let gen_started = Instant::now();
    let config = Lorenz96Config {
        n,
        length,
        forcing: 35.0,
        ..Lorenz96Config::default()
    };
    let mut rng = StdRng::seed_from_u64(96);
    let mut writer = SeriesWriter::new(
        Arc::new(FsStorage::new(&dir)),
        n,
        n,
        chunk_len,
        "delta-varint",
    )
    .expect("store writer");
    lorenz96::stream(&mut rng, config, |x| writer.append(x)).expect("store write");
    writer.finish().expect("store finish");
    let generate_secs = gen_started.elapsed().as_secs_f64();
    let store_bytes: u64 = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").metadata().map_or(0, |m| m.len()))
        .sum();
    eprintln!(
        "out-of-core cell: store written in {generate_secs:.1}s, {:.2} GB on disk \
         ({:.1}% of raw)",
        store_bytes as f64 / 1e9,
        100.0 * store_bytes as f64 / raw_bytes as f64
    );

    let exe = std::env::current_exe().expect("current exe");
    let discover_started = Instant::now();
    let out = std::process::Command::new(exe)
        .args([
            "--oocore-child",
            &dir.to_string_lossy(),
            &max_windows.to_string(),
            &epochs.to_string(),
        ])
        .output()
        .expect("spawn oocore child");
    let discover_secs = discover_started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    if !out.status.success() {
        eprintln!(
            "out-of-core discover child failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::process::exit(1);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix('=')?.trim().parse().ok())
            .unwrap_or_else(|| panic!("child output missing {key}:\n{stdout}"))
    };
    let peak_rss = field("OOCORE_PEAK_RSS_BYTES");
    let edges = field("OOCORE_EDGES") as usize;

    println!(
        "out-of-core lorenz96 n={n} length={length}: discover {discover_secs:.1}s, \
         peak RSS {:.1} MB (budget {:.0} MB, raw series {:.1}× budget), {edges} edges",
        peak_rss as f64 / 1e6,
        OOCORE_RSS_BUDGET_BYTES as f64 / 1e6,
        raw_bytes as f64 / OOCORE_RSS_BUDGET_BYTES as f64
    );
    if peak_rss == 0 {
        eprintln!("peak RSS unavailable on this platform — budget gate skipped");
    } else if peak_rss > OOCORE_RSS_BUDGET_BYTES {
        eprintln!(
            "out-of-core RSS regression: peak {peak_rss} bytes exceeds the pinned \
             budget of {OOCORE_RSS_BUDGET_BYTES} bytes — the streaming path is \
             materialising the series"
        );
        std::process::exit(1);
    }

    OutOfCoreCell {
        n_series: n,
        length,
        raw_bytes,
        store_bytes,
        chunk_len,
        max_windows,
        generate_secs,
        discover_secs,
        peak_rss_bytes: peak_rss,
        rss_budget_bytes: OOCORE_RSS_BUDGET_BYTES,
        raw_over_budget: raw_bytes as f64 / OOCORE_RSS_BUDGET_BYTES as f64,
        edges,
    }
}

fn main() {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    if raw_args.first().map(String::as_str) == Some("--oocore-child") {
        std::process::exit(oocore_child(&raw_args[1..]));
    }
    // `--oocore-only` runs just the out-of-core cell and its RSS gate —
    // the fast path for scripts/check.sh and ad-hoc memory verification.
    let oocore_only = raw_args.iter().any(|a| a == "--oocore-only");
    let options = parse_options(raw_args.into_iter().filter(|a| a != "--oocore-only"));
    if oocore_only {
        run_oocore_cell(options.smoke);
        return;
    }
    let heartbeat = maybe_start_heartbeat(&options);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // 1/2/4 threads in both modes: the 2-thread cell separates scheduler
    // overhead from core starvation, and CI's multi-core runner records
    // the full scaling curve (plus the 1T/4T trace pair for the
    // serial-fraction gate) even in smoke mode.
    let thread_counts = vec![1usize, 2, 4];
    println!("Parallel baseline — host has {host_cores} core(s)");
    if thread_counts.iter().any(|&t| t > host_cores) {
        eprintln!(
            "WARNING: thread counts {thread_counts:?} exceed the {host_cores} available \
             core(s) — multi-thread cells will be OVERSUBSCRIBED and their wall times \
             measure scheduler contention, not scaling; cells are flagged in the JSON \
             output"
        );
    }

    // Per-(method × dataset) wall times: the Table 1 methods that gained a
    // parallel path in this round, on one synthetic and one dynamical
    // dataset, quick budgets, one seed. Smoke mode keeps one synthetic
    // dataset so the whole binary finishes in seconds. CausalFormer runs
    // twice — once per compute precision — so every baseline file carries
    // the f64-vs-f32 comparison; the baselines themselves are f64-only.
    let cell_opts = |dtype: Dtype| Options {
        quick: true,
        seeds: 1,
        json_out: None,
        metrics: false,
        threads: None,
        smoke: options.smoke,
        trace_out: None,
        dtype,
        heartbeat_out: None,
    };
    let methods = [
        (MethodKind::Cmlp, Dtype::F64),
        (MethodKind::Clstm, Dtype::F64),
        (MethodKind::CausalFormer, Dtype::F64),
        (MethodKind::CausalFormer, Dtype::F32),
    ];
    let datasets: &[DatasetKind] = if options.smoke {
        &[DatasetKind::Fork]
    } else {
        &[DatasetKind::Fork, DatasetKind::Lorenz96]
    };
    init_metrics(&options);
    let mut cells = Vec::new();
    let mut raw_cells = Vec::new();
    for (method, dtype) in methods {
        let label = method_label(method, dtype);
        for &dataset in datasets {
            let mut timings = Vec::new();
            let mut f1_mean = None;
            for &threads in &thread_counts {
                cf_par::set_threads(threads);
                eprintln!("running {label} on {dataset:?} with {threads} thread(s) …");
                let _cell_span = cf_obs::span!(format!("cell {label} {dataset:?} {threads}t"));
                let (cell, mut timing) =
                    timed(threads, || run_cell(method, dataset, &cell_opts(dtype)));
                f1_mean = cell.f1.map(|m| m.mean);
                timing.secs = cell.wall_secs;
                timings.push(timing);
                raw_cells.push(cell);
            }
            cells.push(CellTiming {
                method: label.clone(),
                dataset: format!("{dataset:?}"),
                f1_mean,
                wall_secs: timings,
            });
        }
    }

    // f32-vs-f64 speedup at one thread per dataset — the headline number
    // of the single-precision backend, computed from the cells above.
    let mut f32_speedup_1t = Vec::new();
    for &dataset in datasets {
        let secs_at_1t = |label: &str| {
            cells
                .iter()
                .find(|c| c.method == label && c.dataset == format!("{dataset:?}"))
                .and_then(|c| c.wall_secs.iter().find(|t| t.threads == 1))
                .map(|t| t.secs)
        };
        if let (Some(f64_secs), Some(f32_secs)) =
            (secs_at_1t("CausalFormer"), secs_at_1t("CausalFormer-f32"))
        {
            let speedup = f64_secs / f32_secs;
            println!(
                "CausalFormer {dataset:?} 1 thread: f64 {f64_secs:.3}s, f32 {f32_secs:.3}s \
                 ({speedup:.2}× speedup)"
            );
            f32_speedup_1t.push(F32Speedup {
                dataset: format!("{dataset:?}"),
                f64_secs,
                f32_secs,
                speedup,
            });
        }
    }

    // End-to-end discover on Lorenz-96 with N = 20 variables (N = 6 and a
    // short series in smoke mode). With `--trace-out BASE.json`, each
    // thread count additionally gets its own standalone trace
    // (`BASE.lorenz96-<N>t.json`) — a ready-made input pair for
    // `causalformer analyze --compare` — and the binary prints the
    // scaling attribution for the first-vs-last pair in-process.
    let tracing = options.trace_out.is_some();
    // Events recorded so far (the cell matrix) are held aside so the
    // per-run drains below stay scoped to one lorenz run each; they are
    // merged back for the final whole-run trace file.
    let mut held = if tracing {
        cf_obs::trace::drain()
    } else {
        Vec::new()
    };
    let mut lorenz = Vec::new();
    let mut lorenz_traces = Vec::new();
    for &threads in &thread_counts {
        cf_par::set_threads(threads);
        let mut rng = StdRng::seed_from_u64(96);
        let config = Lorenz96Config {
            n: if options.smoke { 6 } else { 20 },
            length: if options.smoke { 120 } else { 400 },
            forcing: 35.0,
            ..Lorenz96Config::default()
        };
        let data = lorenz96::generate(&mut rng, config);
        let mut cf = causalformer::presets::lorenz96(config.n);
        cf.model.window = 8;
        cf.train.max_epochs = if options.smoke { 2 } else { 10 };
        cf.train.stride = 2;
        eprintln!(
            "lorenz96 n={} discover with {threads} thread(s) …",
            config.n
        );
        let (result, timing) = {
            let _cell_span = cf_obs::span!(format!("lorenz96 n={} {threads}t", config.n));
            timed(threads, || cf.discover(&mut rng, &data.series))
        };
        println!(
            "lorenz96 n={}, {threads} thread(s): {:.2}s, {} edges{}",
            config.n,
            timing.secs,
            result.graph.edges().count(),
            if timing.oversubscribed {
                " [OVERSUBSCRIBED — wall time not meaningful]"
            } else {
                ""
            }
        );
        lorenz.push(timing);
        if let Some(base) = &options.trace_out {
            let run = cf_obs::trace::drain();
            let stem = base.strip_suffix(".json").unwrap_or(base);
            let path = format!("{stem}.lorenz96-{threads}t.json");
            std::fs::write(&path, cf_obs::export::chrome_trace_json(&run))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("lorenz96 {threads}-thread trace written to {path}");
            lorenz_traces.push((threads, run));
        }
    }

    // In-process scaling attribution over the first-vs-last lorenz pair:
    // which spans fail to shrink as threads increase. The same table is
    // reproducible offline via `causalformer analyze --compare`.
    if let [first, .., last] = lorenz_traces.as_slice() {
        let base = cf_obs::analyze::Trace::from_thread_traces(&first.1);
        let scaled = cf_obs::analyze::Trace::from_thread_traces(&last.1);
        let p = (last.0 as f64 / first.0 as f64).max(1.0);
        let report = cf_obs::analyze::scaling_attribution(&base, &scaled, p);
        println!(
            "scaling attribution lorenz96 {}t → {}t (wall speedup {:.2}×):",
            first.0, last.0, report.wall_speedup
        );
        for row in report.rows.iter().take(8) {
            println!(
                "  {:<28} {:>9.1}ms → {:>9.1}ms  speedup {:>5.2}×  lost {:>8.1}ms",
                row.name,
                row.base_us / 1_000.0,
                row.scaled_us / 1_000.0,
                row.speedup,
                row.lost_us / 1_000.0
            );
        }
    }
    for (_, run) in lorenz_traces {
        merge_traces(&mut held, run);
    }

    // The same end-to-end discover at f32 — the large-N datapoint for the
    // single-precision backend. No per-thread trace pair here; the f64
    // pair above already feeds the analyzer.
    let mut lorenz_f32 = Vec::new();
    for &threads in &thread_counts {
        cf_par::set_threads(threads);
        let mut rng = StdRng::seed_from_u64(96);
        let config = Lorenz96Config {
            n: if options.smoke { 6 } else { 20 },
            length: if options.smoke { 120 } else { 400 },
            forcing: 35.0,
            ..Lorenz96Config::default()
        };
        let data = lorenz96::generate(&mut rng, config);
        let mut cf = causalformer::presets::lorenz96(config.n);
        cf.model.window = 8;
        cf.train.max_epochs = if options.smoke { 2 } else { 10 };
        cf.train.stride = 2;
        cf.train.dtype = Dtype::F32;
        eprintln!(
            "lorenz96 n={} f32 discover with {threads} thread(s) …",
            config.n
        );
        let (result, timing) = {
            let _cell_span = cf_obs::span!(format!("lorenz96 n={} f32 {threads}t", config.n));
            timed(threads, || cf.discover(&mut rng, &data.series))
        };
        println!(
            "lorenz96 n={} f32, {threads} thread(s): {:.2}s, {} edges{}",
            config.n,
            timing.secs,
            result.graph.edges().count(),
            if timing.oversubscribed {
                " [OVERSUBSCRIBED — wall time not meaningful]"
            } else {
                ""
            }
        );
        lorenz_f32.push(timing);
    }
    if let (Some(f64_1t), Some(f32_1t)) = (
        lorenz.iter().find(|t| t.threads == 1),
        lorenz_f32.iter().find(|t| t.threads == 1),
    ) {
        println!(
            "lorenz96 1 thread: f64 {:.3}s, f32 {:.3}s ({:.2}× speedup)",
            f64_1t.secs,
            f32_1t.secs,
            f64_1t.secs / f32_1t.secs
        );
    }

    // Steady-state allocation gate: with the pool warmed by a first run,
    // a repeat of the same discover must perform (almost) no fresh heap
    // allocation — what remains is per-run setup (window construction,
    // parameter init, graph read-out), amortised across epochs. A bound
    // violation means the pool regressed to allocating in the hot loop.
    cf_par::set_threads(1);
    let gate_config = Lorenz96Config {
        n: if options.smoke { 6 } else { 20 },
        length: if options.smoke { 120 } else { 400 },
        forcing: 35.0,
        ..Lorenz96Config::default()
    };
    let mut gate_cf = causalformer::presets::lorenz96(gate_config.n);
    gate_cf.model.window = 8;
    gate_cf.train.max_epochs = if options.smoke { 2 } else { 10 };
    gate_cf.train.stride = 2;
    let mut rng = StdRng::seed_from_u64(96);
    let gate_data = lorenz96::generate(&mut rng, gate_config);
    eprintln!(
        "steady-state allocation gate (lorenz96 n={}) …",
        gate_config.n
    );
    let mut gate_rng = StdRng::seed_from_u64(96);
    gate_cf.discover(&mut gate_rng, &gate_data.series); // warm-up
    let warm = cf_tensor::pool::stats();
    let mut gate_rng = StdRng::seed_from_u64(96);
    let gate_result = gate_cf.discover(&mut gate_rng, &gate_data.series);
    let steady = cf_tensor::pool::stats();
    let epochs = gate_result.train_report.train_losses.len().max(1) as u64;
    let steady_allocs = steady.alloc - warm.alloc;
    let steady_misses = steady.miss - warm.miss;
    let alloc_per_epoch = steady_allocs / epochs;
    println!(
        "steady state: {steady_allocs} allocs, {steady_misses} pool misses \
         over {epochs} epoch(s) ({alloc_per_epoch} allocs/epoch)"
    );
    if alloc_per_epoch > STEADY_ALLOC_PER_EPOCH_BOUND {
        eprintln!(
            "steady-state allocation regression: {alloc_per_epoch} \
             allocs/epoch exceeds the pinned bound of \
             {STEADY_ALLOC_PER_EPOCH_BOUND}"
        );
        std::process::exit(1);
    }

    // Out-of-core cell: streaming discover over a chunked store in a
    // child process, with a hard peak-RSS budget. Also appended to the
    // cell matrix (1-thread, no pool counters — they belong to the child)
    // so `bench-diff` tracks its wall time across baselines.
    let out_of_core = run_oocore_cell(options.smoke);
    cells.push(CellTiming {
        method: "CausalFormer-oocore".into(),
        dataset: "Lorenz96".into(),
        f1_mean: None,
        wall_secs: vec![ThreadTiming {
            threads: 1,
            secs: out_of_core.discover_secs,
            alloc_count: 0,
            pool_hits: 0,
            pool_misses: 0,
            oversubscribed: false,
        }],
    });

    // Output guard: a benchmark that emits NaN/Inf (a silently diverged
    // model or a broken timer) must fail loudly — CI treats a non-zero
    // exit as a rotten perf binary.
    let mut bad = Vec::new();
    for cell in &cells {
        if let Some(f1) = cell.f1_mean {
            if !f1.is_finite() {
                bad.push(format!(
                    "{} on {}: f1_mean = {f1}",
                    cell.method, cell.dataset
                ));
            }
        }
        for t in &cell.wall_secs {
            if !t.secs.is_finite() {
                bad.push(format!(
                    "{} on {} at {} thread(s): wall = {}",
                    cell.method, cell.dataset, t.threads, t.secs
                ));
            }
        }
    }
    for (label, timings) in [("", &lorenz), (" f32", &lorenz_f32)] {
        for t in timings.iter() {
            if !t.secs.is_finite() {
                bad.push(format!(
                    "lorenz96{label} at {} thread(s): wall = {}",
                    t.threads, t.secs
                ));
            }
        }
    }
    if !bad.is_empty() {
        for line in &bad {
            eprintln!("non-finite output: {line}");
        }
        std::process::exit(1);
    }

    let baseline = Baseline {
        host_cores,
        thread_counts,
        cells,
        f32_speedup_1t,
        lorenz96_n20_discover: lorenz,
        lorenz96_n20_discover_f32: lorenz_f32,
        steady_state: SteadyStateGate {
            allocs: steady_allocs,
            pool_misses: steady_misses,
            epochs,
            allocs_per_epoch: alloc_per_epoch,
            bound: STEADY_ALLOC_PER_EPOCH_BOUND,
        },
        out_of_core,
        notes: "wall times are single-run; outputs are bitwise identical \
                across thread counts, so only timing varies. Speedups above \
                1 thread require host_cores > 1; timings with \
                oversubscribed=true ran more threads than cores and measure \
                scheduler contention, not scaling. alloc/pool counters come \
                from the cf-tensor buffer pool; steady_state repeats the \
                lorenz96 discover on a warm pool at 1 thread. CausalFormer \
                cells appear twice, once per compute precision: \
                'CausalFormer' is the bitwise-reproducible f64 path, \
                'CausalFormer-f32' the single-precision backend; \
                f32_speedup_1t summarises their 1-thread ratio. \
                'CausalFormer-oocore' streams a chunked on-disk store \
                through discover in a child process whose peak RSS is \
                gated by out_of_core.rss_budget_bytes.",
    };
    let json = serde_json::to_string_pretty(&baseline).expect("serializable");
    match &options.json_out {
        Some(path) => {
            std::fs::write(path, &json).expect("write baseline json");
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    maybe_dump_metrics(&options, &raw_cells);
    stop_heartbeat(&options, heartbeat);
    // The lorenz loop drained the recorder into `held` piecewise; write
    // the merged whole-run trace instead of `maybe_write_trace` (which
    // would only see the post-drain remainder).
    if let Some(path) = &options.trace_out {
        cf_obs::trace::set_enabled(false);
        merge_traces(&mut held, cf_obs::trace::drain());
        match std::fs::write(path, cf_obs::export::chrome_trace_json(&held)) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => {
                eprintln!("error: writing trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
