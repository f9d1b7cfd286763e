//! Pieces shared by the workloads: the discovery RNG, the outcome
//! fingerprint the correctness gates compare, the detect stage decomposed
//! into its public calls, the traced-repetition bookkeeping and the
//! peak-RSS scope.

use crate::spans::{Agg, Recorder};
use crate::{stats, Ctx};
use causalformer::detector::{aggregate_scores, build_graph};
use causalformer::{CausalFormer, CausalScores, TrainReport, TrainedModelBase};
use cf_metrics::CausalGraph;
use cf_tensor::{Scalar, TensorBase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The seed of dataset `k` of a run with workload seed `seed`.
pub fn data_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The dataset repetition `k` of `reps` discovers. Each repetition but
/// the last gets a dataset of its own, so `f1` averages over `reps - 1`
/// inputs; the last replays dataset 0, and its graph must be bitwise
/// identical to the first repetition's.
pub fn dataset_of(k: usize, reps: usize) -> usize {
    if k + 1 == reps {
        0
    } else {
        k
    }
}

/// The RNG handed to discovery (model init, shuffling, k-means) on the
/// dataset generated from `data_seed`. Discovering the same dataset twice
/// starts from the same state, so it must produce the same graph.
pub fn discover_rng(data_seed: u64) -> StdRng {
    StdRng::seed_from_u64(data_seed ^ 0xD15C_0E11)
}

/// What a discovery produced, reduced to what the gates compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the graph's edges and delays and the bits of every
    /// causal score.
    pub fingerprint: u64,
    pub f1: f64,
}

/// FNV-1a over a stream of 64-bit words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Outcome {
    pub fn of(graph: &CausalGraph, scores: &CausalScores, truth: &CausalGraph) -> Self {
        let mut h = Fnv::new();
        for e in graph.edges() {
            h.eat(e.from as u64);
            h.eat(e.to as u64);
            h.eat(e.delay.map_or(u64::MAX, |d| d as u64));
        }
        for v in scores.attn.iter().flatten() {
            h.eat(v.to_bits());
        }
        for k in &scores.kernel {
            for v in k.data() {
                h.eat(v.to_bits());
            }
        }
        Outcome {
            fingerprint: h.0,
            f1: cf_metrics::score::f1(truth, graph),
        }
    }
}

/// `f1` as the mean over the distinct datasets of an untraced run, after
/// gating the replay (see [`dataset_of`]) against the first repetition.
pub fn record_quality(ctx: &mut Ctx, outcomes: &[Outcome]) {
    let (replay, distinct) = outcomes.split_last().expect("at least two repetitions");
    ctx.check(
        *replay == distinct[0],
        &format!(
            "replayed dataset 0 differs from its first discovery ({replay:?} vs {:?})",
            distinct[0]
        ),
    );
    let f1: Vec<f64> = distinct.iter().map(|o| o.f1).collect();
    let mean = f1.iter().sum::<f64>() / f1.len() as f64;
    println!("  f1 {mean:.4} over {} datasets {f1:.4?}", f1.len());
    ctx.set("f1", mean);
}

/// Gates every repetition's outcome against `reference`.
pub fn gate_outcomes(ctx: &mut Ctx, what: &str, reference: Outcome, outcomes: &[Outcome]) {
    for (k, o) in outcomes.iter().enumerate() {
        ctx.check(
            *o == reference,
            &format!("{what} repetition {k} differs from the reference discovery ({o:?} vs {reference:?})"),
        );
    }
}

/// The detect stage as its public calls: `aggregate_scores`, then
/// `build_graph`, as `detector::detect` runs them.
pub fn detect_stage<E: Scalar>(
    rec: &mut Recorder,
    rng: &mut StdRng,
    cf: &CausalFormer,
    trained: &TrainedModelBase<E>,
    windows: &[TensorBase<E>],
) -> (CausalGraph, CausalScores) {
    rec.span("core.detect", |rec| {
        let scores = rec.span("core.aggregate", |_| {
            aggregate_scores(&trained.model, &trained.store, windows, &cf.detector)
        });
        let graph = rec.span("core.build_graph", |_| {
            build_graph(rng, &scores, cf.model.window, &cf.detector)
        });
        (graph, scores)
    })
}

/// One decomposed discovery and what the probes need from it.
pub struct Decomposed<E: Scalar> {
    pub outcome: Outcome,
    pub trained: TrainedModelBase<E>,
    pub report: TrainReport,
    pub windows: Vec<TensorBase<E>>,
}

/// Span totals keyed by metric name, one map per traced repetition.
#[derive(Default)]
pub struct TracedReps {
    spans: Vec<BTreeMap<&'static str, Agg>>,
    untraced: Vec<f64>,
    events: u64,
    dropped: u64,
}

/// The spans whose inclusive time is a per-layer metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("core.windowing", "core.windowing_s"),
    ("core.train", "core.train_s"),
    ("core.detect", "core.detect_s"),
    ("core.aggregate", "core.aggregate_s"),
    ("core.build_graph", "core.build_graph_s"),
    ("store.scan", "store.scan_s"),
];

impl TracedReps {
    /// Runs one untraced discovery (`untraced`, returning its seconds)
    /// and then one traced decomposition (`traced`) with cf-obs trace
    /// recording on, and keeps both timings.
    pub fn pair<T>(
        &mut self,
        untraced: impl FnOnce() -> f64,
        traced: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.untraced.push(untraced());
        cf_obs::trace::reset();
        cf_obs::trace::set_enabled(true);
        let mut rec = Recorder::new();
        let out = traced(&mut rec);
        cf_obs::trace::set_enabled(false);
        self.dropped = cf_obs::trace::dropped();
        self.events = cf_obs::trace::drain()
            .iter()
            .map(|t| t.events.len() as u64)
            .sum();
        self.spans.push(rec.aggregate());
        out
    }

    /// Records the stage metrics (fastest repetition), the tracing
    /// overhead (fastest traced over fastest untraced discovery), and
    /// prints the last repetition's span table.
    pub fn record(&self, ctx: &mut Ctx) {
        let total = |m: &BTreeMap<&str, Agg>, name: &str| m.get(name).map_or(0.0, |a| a.total);
        for &(span, metric) in SPAN_METRICS {
            let v: Vec<f64> = self.spans.iter().map(|m| total(m, span)).collect();
            if v.iter().any(|&x| x > 0.0) {
                ctx.set_timed(metric, &v);
            }
        }
        let traced: Vec<f64> = self.spans.iter().map(|m| total(m, "discover")).collect();
        let coverage: Vec<f64> = self
            .spans
            .iter()
            .map(|m| {
                let stages: f64 = ["core.windowing", "core.train", "core.detect"]
                    .iter()
                    .map(|s| total(m, s))
                    .sum();
                stages / total(m, "discover")
            })
            .collect();
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let overhead = fastest(&traced) / fastest(&self.untraced) - 1.0;
        ctx.set_timed("discover_untraced_s", &self.untraced);
        ctx.set_timed("discover_traced_s", &traced);
        ctx.set("core.stage_coverage", stats::median(&coverage));
        ctx.set("obs.trace_overhead", overhead);
        ctx.set("obs.trace_events", self.events as f64);
        ctx.set("obs.trace_dropped", self.dropped as f64);
        println!(
            "  stage coverage {:.4}, trace overhead {:+.2}%",
            stats::median(&coverage),
            100.0 * overhead
        );
        if let Some(last) = self.spans.last() {
            println!(
                "  {:<20} {:>6} {:>12} {:>12}",
                "span", "count", "total_s", "self_s"
            );
            for (name, a) in last {
                println!(
                    "  {name:<20} {:>6} {:>12.6} {:>12.6}",
                    a.count, a.total, a.self_time
                );
            }
        }
    }
}

/// The `core.epoch_s` and `core.epochs` metrics of a training report.
pub fn record_training(ctx: &mut Ctx, report: &TrainReport) {
    ctx.set_timed("core.epoch_s", &report.epoch_wall_secs);
    ctx.set("core.epochs", report.epoch_wall_secs.len() as f64);
}

/// `peak_rss_mb`: the high-water mark of the first repetition's
/// discovery, which follows one set-up and one ingest, as in a process
/// that discovers once. Later repetitions start from a larger resident
/// set: cf-tensor's buffer pool keeps up to 512 + 4096 dropped buffers
/// per size class, so every parsed series the benchmark drops stays
/// resident. The range over all repetitions is printed.
pub fn record_peak(ctx: &mut Ctx, peaks: &[f64]) {
    let hi = peaks.iter().copied().fold(0.0, f64::max);
    println!(
        "  peak_rss_mb {:.3} (first discovery; later ones up to {hi:.3})",
        peaks[0]
    );
    ctx.set("peak_rss_mb", peaks[0]);
}

/// Runs `f` and returns the peak resident set size during it, in 10^6
/// bytes. The kernel's high-water mark (`VmHWM`) is reset first by
/// writing `5` to `/proc/self/clear_refs`; where that is refused, a
/// sampler thread polls `VmRSS` every millisecond instead, which can miss
/// a peak shorter than the poll interval.
pub fn with_peak_rss<R>(f: impl FnOnce() -> R) -> (R, f64) {
    if std::fs::write("/proc/self/clear_refs", "5").is_ok() {
        let out = f();
        return (out, cf_obs::heartbeat::peak_rss_bytes() as f64 / 1e6);
    }
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(cf_obs::heartbeat::proc_rss_bytes().0, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    });
    (out, peak.load(Ordering::Relaxed) as f64 / 1e6)
}
