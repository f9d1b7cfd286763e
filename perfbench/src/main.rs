//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <l96_train|l96_detect|store_stream> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public entry
//! points with every recorder off. `--trace 1` is a separate run that
//! wraps each call into a crate's public functions in spans owned by this
//! crate and reports the per-layer metrics. Both print a readable table
//! and, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness gate makes the exit code 1. See `perfbench/README.md`.

mod inram;
mod probe;
mod spans;
mod stages;
mod stats;
mod storage;
mod store;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics of an untraced run, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("discover_s", "s"),
    ("ingest_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("f1", "ratio"),
];

/// The per-layer metrics of a traced run, in output order. A workload
/// that bypasses a layer reports 0 for that layer's metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("store.write_s", "s"),
    ("store.put_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.compression_ratio", "ratio"),
    ("store.stats_s", "s"),
    ("store.scan_s", "s"),
    ("store.get_s", "s"),
    ("store.chunk_reads", "count"),
    ("store.read_amplification", "ratio"),
    ("core.windowing_s", "s"),
    ("core.train_s", "s"),
    ("core.epoch_s", "s"),
    ("core.epochs", "count"),
    ("core.detect_s", "s"),
    ("core.aggregate_s", "s"),
    ("core.build_graph_s", "s"),
    ("core.stage_coverage", "ratio"),
    ("model.forward_s", "s"),
    ("model.backward_s", "s"),
    ("detector.window_s", "s"),
    ("tensor.allocs", "count"),
    ("tensor.pool_hits", "count"),
    ("tensor.pool_misses", "count"),
    ("tensor.pool_hit_ratio", "ratio"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.attn_apply_gflops", "GFLOP/s"),
    ("tensor.peak_gflops", "GFLOP/s"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("par.jobs_inline", "count"),
    ("par.busy_s", "s"),
    ("par.idle_s", "s"),
    ("par.utilization", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.trace_events", "count"),
    ("obs.trace_dropped", "count"),
];

/// Everything one run records: metrics, the correctness tally and the
/// scratch directory it may write to.
pub struct Ctx {
    pub seed: u64,
    /// Seconds the timed phase may take.
    pub budget: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work_dir: PathBuf,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Ctx {
    /// Counts one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records the fastest of `samples` under `name`: interference from
    /// other tenants only ever adds time, so the fastest repetition is the
    /// steadiest estimate of the program's own cost.
    pub fn set_timed(&mut self, name: &'static str, samples: &[f64]) {
        let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
        self.set_sampled(name, samples, fastest);
    }

    /// Records the median of `samples` under `name`.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        self.set_sampled(name, samples, stats::median(samples));
    }

    /// Records `value` under `name` and prints it with the fastest and
    /// median sample, the within-run spread (quartile distance over
    /// median), the slowest sample and the sample count.
    fn set_sampled(&mut self, name: &'static str, samples: &[f64], value: f64) {
        let fastest = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let slowest = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "  {name:<22} value {value:>11.6}  fastest {fastest:>11.6}  median {:>11.6}  spread {:>6.2}%  slowest {slowest:>11.6}  n={}",
            stats::median(samples),
            100.0 * stats::spread(samples),
            samples.len()
        );
        self.set(name, value);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir =
        PathBuf::from(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let mut ctx = Ctx {
        seed: args.seed,
        budget: args.seconds,
        trace: args.trace,
        work_dir,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    let started = Instant::now();
    println!(
        "perfbench {} seed={} seconds={} trace={} threads-available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "l96_train" => inram::run(&mut ctx, inram::L96_TRAIN),
        "l96_detect" => inram::run(&mut ctx, inram::L96_DETECT),
        "store_stream" => store::run(&mut ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    if let Err(e) = outcome {
        ctx.check(false, &e);
    }
    println!("  total wall {:.1} s", started.elapsed().as_secs_f64());

    let names = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        // A bypassed layer has nothing to report; its metrics read 0.
        let value = ctx.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            ctx.check(false, &format!("{name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !ctx.trace {
        for &(name, _) in END_TO_END {
            if ctx.metrics.get(name).is_some_and(|v| *v > 0.0) {
                continue;
            }
            ctx.check(false, &format!("end-to-end metric {name} was not measured"));
        }
    }
    let correct = ctx.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.attempted.max(1),
        ctx.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
