//! Trace analysis: turns raw span timelines into answers.
//!
//! The [trace recorder](mod@crate::trace) and [`crate::export`] writer
//! produce Chrome trace JSON a human can eyeball in Perfetto; this
//! module is the mechanical counterpart. Given one trace it computes per-name
//! aggregates ([`aggregate`]: count, total, **self** time), per-thread
//! utilization ([`thread_utilization`]), the concurrency-based serial
//! fraction ([`serial_fraction`]), and a critical-path decomposition
//! ([`critical_path`]). Given a *pair* of traces of the same workload at
//! different thread counts it ranks the spans whose wall time fails to
//! shrink ([`scaling_attribution`]) — the tool that localizes "why is 4
//! threads not faster".
//!
//! Everything here is pure math over the neutral [`Trace`] model; no
//! JSON parsing (the CLI converts Chrome JSON into [`Trace`]) and no
//! I/O.
//!
//! ## Aggregation semantics
//!
//! Spans on one thread are assumed properly nested (they come from RAII
//! guards). **Total** time of a name sums the durations of all its
//! spans; **self** time subtracts each span's directly nested children,
//! so a name's self time is where the cycles were actually spent. A
//! span that overlaps but outlives its stack parent (can only happen
//! with hand-built traces) is treated as a child of the span it starts
//! inside. Busy time per thread merges overlapping spans so nested work
//! is counted once.

/// One complete span, microseconds on the shared trace timebase.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (timeline label).
    pub name: String,
    /// Start, µs since the trace anchor.
    pub ts_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

impl Span {
    fn end_us(&self) -> f64 {
        self.ts_us + self.dur_us
    }
}

/// One thread's timeline.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Stable per-process thread id.
    pub tid: u64,
    /// Timeline name (thread name).
    pub name: String,
    /// Complete spans, any order.
    pub spans: Vec<Span>,
}

/// A loaded trace: the input to every analysis in this module.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-thread timelines.
    pub threads: Vec<Thread>,
    /// Events dropped by the bounded recorder (`droppedEvents`).
    pub dropped: u64,
    /// Counter/instant events seen while loading (not analyzed, but
    /// reported so a "spanless" trace can say what it *did* contain).
    pub other_events: u64,
    /// CPU cores of the recording host, when the trace recorded it
    /// (`hostCores`); `None` for traces from older writers.
    pub host_cores: Option<usize>,
}

impl Trace {
    /// Total complete spans across all threads.
    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }

    /// `[t0, t1]` covered by any span, or `None` for a spanless trace.
    pub fn wall_us(&self) -> Option<(f64, f64)> {
        let spans = self.threads.iter().flat_map(|t| &t.spans);
        let (t0, t1) = spans.fold((f64::INFINITY, f64::NEG_INFINITY), |(t0, t1), s| {
            (t0.min(s.ts_us), t1.max(s.end_us()))
        });
        (t0.is_finite() && t1.is_finite()).then_some((t0, t1))
    }

    /// Worker threads that recorded spans (named `cf-par-*`). The
    /// default parallelism estimate for [`scaling_attribution`] when the
    /// caller doesn't know the `--threads` value a trace ran with:
    /// `max(1, workers)`.
    pub fn inferred_threads(&self) -> usize {
        let workers = self
            .threads
            .iter()
            .filter(|t| t.name.starts_with("cf-par-"));
        workers.count().max(1)
    }

    /// One-line description of a trace that has nothing to analyze, or
    /// `None` when analysis can proceed. The diagnostics name what the
    /// file *did* contain so a truncated or counters-only trace is
    /// explained rather than rendered as a blank table.
    pub fn empty_diagnostic(&self) -> Option<String> {
        if self.span_count() > 0 {
            return None;
        }
        Some(if self.other_events > 0 {
            format!(
                "trace contains no complete spans (only {} counter/instant event(s){}) — \
                 was the recorder enabled for the timed region?",
                self.other_events,
                if self.dropped > 0 {
                    format!("; {} dropped", self.dropped)
                } else {
                    String::new()
                }
            )
        } else if self.dropped > 0 {
            format!(
                "trace is empty apart from {} dropped event(s) — the per-thread ring keeps \
                 the newest {} events; trace a shorter region",
                self.dropped,
                crate::trace::CAPACITY
            )
        } else {
            "trace contains no events (was tracing enabled?)".to_string()
        })
    }
}

/// Per-name aggregate over every thread of a trace.
#[derive(Debug, Clone)]
pub struct NameStat {
    /// Span name.
    pub name: String,
    /// Completions.
    pub count: u64,
    /// Sum of span durations, µs.
    pub total_us: f64,
    /// Total minus directly nested children, µs.
    pub self_us: f64,
    /// Shortest completion, µs.
    pub min_us: f64,
    /// Longest completion, µs.
    pub max_us: f64,
}

/// Sorts spans for nesting reconstruction: by start, then longest first
/// so a parent precedes children sharing its start timestamp.
fn nesting_order(spans: &[Span]) -> Vec<&Span> {
    let mut v: Vec<&Span> = spans.iter().collect();
    v.sort_by(|a, b| {
        a.ts_us
            .total_cmp(&b.ts_us)
            .then(b.dur_us.total_cmp(&a.dur_us))
    });
    v
}

/// Replays one thread's RAII nesting: calls `closed(open, span,
/// self_us)` as each span closes, with `open` the spans still open
/// around it (outermost first) and `self_us` its duration minus its
/// direct children's, floored at 0.
fn replay<'a>(spans: &'a [Span], mut closed: impl FnMut(&[&'a Span], &'a Span, f64)) {
    let mut open: Vec<&Span> = Vec::new();
    let mut child_us: Vec<f64> = Vec::new();
    let mut close = |open: &mut Vec<&'a Span>, child_us: &mut Vec<f64>| {
        let (span, kids) = (open.pop().unwrap(), child_us.pop().unwrap());
        closed(open, span, (span.dur_us - kids).max(0.0));
    };
    for s in nesting_order(spans) {
        while open.last().is_some_and(|top| top.end_us() <= s.ts_us) {
            close(&mut open, &mut child_us);
        }
        if let Some(kids) = child_us.last_mut() {
            // `s` is a direct child of the current top.
            *kids += s.dur_us;
        }
        open.push(s);
        child_us.push(0.0);
    }
    while !open.is_empty() {
        close(&mut open, &mut child_us);
    }
}

/// Per-name self/total aggregates, sorted by self time descending.
pub fn aggregate(trace: &Trace) -> Vec<NameStat> {
    let mut by_name: std::collections::HashMap<&str, NameStat> = Default::default();
    for t in &trace.threads {
        replay(&t.spans, |_, span, self_us| {
            let stat = by_name
                .entry(span.name.as_str())
                .or_insert_with(|| NameStat {
                    name: span.name.clone(),
                    count: 0,
                    total_us: 0.0,
                    self_us: 0.0,
                    min_us: f64::INFINITY,
                    max_us: 0.0,
                });
            stat.count += 1;
            stat.total_us += span.dur_us;
            stat.self_us += self_us;
            stat.min_us = stat.min_us.min(span.dur_us);
            stat.max_us = stat.max_us.max(span.dur_us);
        });
    }
    let mut out: Vec<NameStat> = by_name.into_values().collect();
    out.sort_by(|a, b| b.self_us.total_cmp(&a.self_us).then(a.name.cmp(&b.name)));
    out
}

/// One collapsed call stack: the thread name plus the span path
/// (outermost first) and the self time accumulated at exactly that
/// path, in µs. This is the unit of the folded flamegraph format.
#[derive(Debug, Clone)]
pub struct FoldedStack {
    /// `frames[0]` is the thread name; the rest are span names from
    /// outermost to innermost.
    pub frames: Vec<String>,
    /// Self time at this exact stack (children excluded), µs.
    pub self_us: f64,
}

/// Collapses a trace into per-stack self times — the math behind
/// `analyze --flamegraph` and the report's icicle panel. Nesting is
/// reconstructed exactly as for [`aggregate`], so a span's self time
/// lands on the full path that was open while it ran. Output is sorted
/// lexically by path, which makes the folded file deterministic and
/// diffable.
pub fn collapse_stacks(trace: &Trace) -> Vec<FoldedStack> {
    let mut by_path: std::collections::BTreeMap<Vec<String>, f64> = Default::default();
    for t in &trace.threads {
        replay(&t.spans, |open, span, self_us| {
            if self_us > 0.0 {
                let mut frames = vec![t.name.clone()];
                frames.extend(open.iter().chain([&span]).map(|s| s.name.clone()));
                *by_path.entry(frames).or_insert(0.0) += self_us;
            }
        });
    }
    by_path
        .into_iter()
        .map(|(frames, self_us)| FoldedStack { frames, self_us })
        .collect()
}

/// The union of a span set's intervals as disjoint `(start, end)`
/// pairs in time order: nested and overlapping spans merge.
fn merged_intervals(spans: &[Span]) -> Vec<(f64, f64)> {
    let mut iv: Vec<(f64, f64)> = spans.iter().map(|s| (s.ts_us, s.end_us())).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (a, b) in iv {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// Merged-interval busy time of a span set: nested and overlapping
/// spans are counted once.
pub fn busy_us(spans: &[Span]) -> f64 {
    merged_intervals(spans).iter().map(|(a, b)| b - a).sum()
}

/// One thread's busy summary.
#[derive(Debug, Clone)]
pub struct ThreadUtil {
    /// Thread id.
    pub tid: u64,
    /// Thread name.
    pub name: String,
    /// Merged busy time, µs.
    pub busy_us: f64,
    /// `busy_us` over the whole-trace wall interval, 0..=1.
    pub busy_frac: f64,
}

/// Per-thread merged busy time and utilization over the trace interval,
/// in tid order.
pub fn thread_utilization(trace: &Trace) -> Vec<ThreadUtil> {
    let Some((t0, t1)) = trace.wall_us() else {
        return Vec::new();
    };
    let wall = (t1 - t0).max(1e-9);
    let mut out: Vec<ThreadUtil> = trace
        .threads
        .iter()
        .map(|t| {
            let busy = busy_us(&t.spans);
            ThreadUtil {
                tid: t.tid,
                name: t.name.clone(),
                busy_us: busy,
                busy_frac: busy / wall,
            }
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// Concurrency profile of one trace: how much wall time had 0, 1, 2…
/// threads busy at once.
#[derive(Debug, Clone)]
pub struct SerialFraction {
    /// Whole-trace wall interval, µs.
    pub wall_us: f64,
    /// Wall time with at most one thread busy (including idle), µs.
    pub serial_us: f64,
    /// Wall time with two or more threads busy, µs.
    pub parallel_us: f64,
    /// `serial_us / wall_us` — the Amdahl ceiling implied by this run:
    /// max speedup over serial execution is bounded by
    /// `1 / (serial_fraction + (1 - serial_fraction) / p)`.
    pub fraction: f64,
    /// Wall time weighted by active-thread count divided by wall: the
    /// average concurrency actually achieved.
    pub avg_concurrency: f64,
}

/// Sweeps the merged per-thread busy intervals, measuring how long each
/// concurrency level held.
pub fn serial_fraction(trace: &Trace) -> Option<SerialFraction> {
    let (t0, t1) = trace.wall_us()?;
    let wall = (t1 - t0).max(1e-9);
    // Boundary events over each thread's merged busy set (merging first
    // makes nested spans on one thread count as one active thread).
    let mut edges: Vec<(f64, i32)> = Vec::new();
    for t in &trace.threads {
        for (a, b) in merged_intervals(&t.spans) {
            edges.push((a, 1));
            edges.push((b, -1));
        }
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut active = 0i32;
    let mut prev = t0;
    let mut serial = 0.0;
    let mut parallel = 0.0;
    let mut weighted = 0.0;
    for (at, delta) in edges {
        let dt = (at - prev).max(0.0);
        if active >= 2 {
            parallel += dt;
        } else {
            serial += dt;
        }
        weighted += dt * active as f64;
        active += delta;
        prev = at;
    }
    serial += (t1 - prev).max(0.0);
    Some(SerialFraction {
        wall_us: wall,
        serial_us: serial,
        parallel_us: parallel,
        fraction: (serial / wall).clamp(0.0, 1.0),
        avg_concurrency: weighted / wall,
    })
}

/// One segment of the critical-path decomposition.
#[derive(Debug, Clone)]
pub struct CriticalSeg {
    /// Innermost span name active during the segment, or `"(idle)"`.
    pub name: String,
    /// Accumulated wall time attributed to this name, µs.
    pub total_us: f64,
}

/// Critical-path surrogate: decomposes the **driving thread**'s wall
/// time by the innermost span active at each instant (gaps are
/// `"(idle)"`), aggregated per name, largest first.
///
/// Without explicit dependency edges a true critical path is
/// unknowable; the driving thread — the one with the most merged busy
/// time, which serially orchestrates the run — is the honest surrogate:
/// every wall-clock second is attributed to exactly one innermost span
/// (or to idle), so the segments sum to the thread's wall interval and
/// shrinking the top segment shrinks the run.
pub fn critical_path(trace: &Trace) -> Vec<CriticalSeg> {
    use std::collections::HashMap;
    let Some(driver) = trace
        .threads
        .iter()
        .max_by(|a, b| {
            busy_us(&a.spans)
                .total_cmp(&busy_us(&b.spans))
                .then(b.tid.cmp(&a.tid))
        })
        .filter(|t| !t.spans.is_empty())
    else {
        return Vec::new();
    };
    // With RAII nesting, the wall time a span is innermost is exactly
    // its self time; gaps between the merged busy intervals are idle.
    let mut acc: HashMap<&str, f64> = HashMap::new();
    replay(&driver.spans, |_, span, self_us| {
        if self_us > 0.0 {
            *acc.entry(span.name.as_str()).or_insert(0.0) += self_us;
        }
    });
    let idle: f64 = merged_intervals(&driver.spans)
        .windows(2)
        .map(|w| w[1].0 - w[0].1)
        .sum();
    if idle > 0.0 {
        acc.insert("(idle)", idle);
    }
    let mut out: Vec<CriticalSeg> = acc
        .into_iter()
        .map(|(name, total_us)| CriticalSeg {
            name: name.to_string(),
            total_us,
        })
        .collect();
    out.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then(a.name.cmp(&b.name)));
    out
}

/// One row of the scaling-attribution table.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Span name.
    pub name: String,
    /// Total wall time in the baseline (fewer-threads) trace, µs.
    pub base_us: f64,
    /// Total wall time in the scaled (more-threads) trace, µs.
    pub scaled_us: f64,
    /// `base_us / scaled_us` — above 1 means the span got faster.
    pub speedup: f64,
    /// Time lost to imperfect scaling: `scaled_us - base_us / p`, µs.
    /// The table is ranked by this — the spans a scale-up PR must fix.
    pub lost_us: f64,
    /// Completions in baseline / scaled traces.
    pub count_base: u64,
    /// Completions in the scaled trace.
    pub count_scaled: u64,
}

/// The scaling-attribution report for a trace pair.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Parallelism ratio `p` the comparison assumed.
    pub p: f64,
    /// Whole-trace wall time of the baseline, µs.
    pub base_wall_us: f64,
    /// Whole-trace wall time of the scaled trace, µs.
    pub scaled_wall_us: f64,
    /// End-to-end speedup `base_wall / scaled_wall`.
    pub wall_speedup: f64,
    /// Amdahl serial-fraction estimate from the wall-time pair:
    /// `s = (p·Tp/T1 − 1) / (p − 1)`, clamped to [0, 1]; `None` when
    /// `p ≤ 1`.
    pub amdahl_serial_fraction: Option<f64>,
    /// Per-name rows ranked by [`ScalingRow::lost_us`] descending.
    pub rows: Vec<ScalingRow>,
}

/// Amdahl serial-fraction estimate from a (T1, Tp, p) wall-time pair.
/// Solves `Tp = T1·(s + (1−s)/p)` for `s`, clamped to [0, 1].
pub fn amdahl_serial_fraction(t1: f64, tp: f64, p: f64) -> Option<f64> {
    if p <= 1.0 || t1 <= 0.0 {
        return None;
    }
    Some(((p * tp / t1 - 1.0) / (p - 1.0)).clamp(0.0, 1.0))
}

/// Compares per-name totals of a baseline trace and a scaled trace of
/// the **same workload**, ranking spans by wall time lost to imperfect
/// scaling. `p` is the parallelism ratio (e.g. 4 for a 1-thread vs
/// 4-thread pair); names missing from one side contribute 0 there.
pub fn scaling_attribution(base: &Trace, scaled: &Trace, p: f64) -> ScalingReport {
    let p = p.max(1.0);
    let (base_agg, scaled_agg) = (aggregate(base), aggregate(scaled));
    // Each name with its (baseline, scaled) aggregate, either side absent.
    let mut pairs: std::collections::BTreeMap<&str, [Option<&NameStat>; 2]> = Default::default();
    for (side, agg) in [&base_agg, &scaled_agg].into_iter().enumerate() {
        for st in agg {
            pairs.entry(st.name.as_str()).or_default()[side] = Some(st);
        }
    }
    let mut rows: Vec<ScalingRow> = pairs
        .into_iter()
        .map(|(name, [b, sc])| {
            let base_us = b.map_or(0.0, |s| s.total_us);
            let scaled_us = sc.map_or(0.0, |s| s.total_us);
            ScalingRow {
                name: name.to_string(),
                base_us,
                scaled_us,
                speedup: if scaled_us > 0.0 {
                    base_us / scaled_us
                } else {
                    f64::INFINITY
                },
                lost_us: scaled_us - base_us / p,
                count_base: b.map_or(0, |s| s.count),
                count_scaled: sc.map_or(0, |s| s.count),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.lost_us.total_cmp(&a.lost_us).then(a.name.cmp(&b.name)));
    let base_wall = base.wall_us().map_or(0.0, |(a, z)| z - a);
    let scaled_wall = scaled.wall_us().map_or(0.0, |(a, z)| z - a);
    ScalingReport {
        p,
        base_wall_us: base_wall,
        scaled_wall_us: scaled_wall,
        wall_speedup: if scaled_wall > 0.0 {
            base_wall / scaled_wall
        } else {
            f64::INFINITY
        },
        amdahl_serial_fraction: amdahl_serial_fraction(base_wall, scaled_wall, p),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: f64, dur: f64) -> Span {
        Span {
            name: name.into(),
            ts_us: ts,
            dur_us: dur,
        }
    }

    fn one_thread(spans: Vec<Span>) -> Trace {
        Trace {
            threads: vec![Thread {
                tid: 1,
                name: "main".into(),
                spans,
            }],
            ..Trace::default()
        }
    }

    #[test]
    fn t_aggregate_computes_self_time_through_nesting() {
        // outer [0,100] contains a [10,30] and b [40,90]; b contains
        // a [50,60]. Self: outer 100-20-50=30, a 20+10=30, b 50-10=40.
        let trace = one_thread(vec![
            span("outer", 0.0, 100.0),
            span("a", 10.0, 20.0),
            span("b", 40.0, 50.0),
            span("a", 50.0, 10.0),
        ]);
        let agg = aggregate(&trace);
        let get = |n: &str| agg.iter().find(|s| s.name == n).unwrap();
        assert_eq!(get("outer").count, 1);
        assert!((get("outer").total_us - 100.0).abs() < 1e-9);
        assert!((get("outer").self_us - 30.0).abs() < 1e-9, "{agg:?}");
        assert_eq!(get("a").count, 2);
        assert!((get("a").total_us - 30.0).abs() < 1e-9);
        assert!((get("a").self_us - 30.0).abs() < 1e-9);
        assert!((get("b").self_us - 40.0).abs() < 1e-9);
        assert!((get("a").min_us - 10.0).abs() < 1e-9);
        assert!((get("a").max_us - 20.0).abs() < 1e-9);
        // Sorted by self time descending: b(40), then outer/a (30 each,
        // name order breaks the tie: "a" before "outer").
        assert_eq!(agg[0].name, "b");
        assert_eq!(agg[1].name, "a");
        assert_eq!(agg[2].name, "outer");
    }

    #[test]
    fn t_collapse_stacks_folds_self_time_per_path() {
        // Same fixture as the aggregate test: self times must land on
        // the full stack path, not just the leaf name.
        let trace = one_thread(vec![
            span("outer", 0.0, 100.0),
            span("a", 10.0, 20.0),
            span("b", 40.0, 50.0),
            span("a", 50.0, 10.0),
        ]);
        let folded = collapse_stacks(&trace);
        let get = |frames: &[&str]| {
            folded
                .iter()
                .find(|f| f.frames == frames.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .unwrap_or_else(|| panic!("missing stack {frames:?} in {folded:?}"))
        };
        assert!((get(&["main", "outer"]).self_us - 30.0).abs() < 1e-9);
        assert!((get(&["main", "outer", "a"]).self_us - 20.0).abs() < 1e-9);
        assert!((get(&["main", "outer", "b"]).self_us - 40.0).abs() < 1e-9);
        assert!((get(&["main", "outer", "b", "a"]).self_us - 10.0).abs() < 1e-9);
        assert_eq!(folded.len(), 4, "no stray paths: {folded:?}");
        // Lexical path order makes the folded output deterministic.
        let paths: Vec<Vec<String>> = folded.iter().map(|f| f.frames.clone()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
        // Folded totals must reconcile with the flat aggregation.
        let folded_total: f64 = folded.iter().map(|f| f.self_us).sum();
        let agg_total: f64 = aggregate(&trace).iter().map(|s| s.self_us).sum();
        assert!((folded_total - agg_total).abs() < 1e-9);
    }

    #[test]
    fn t_thread_utilization_and_wall() {
        let trace = Trace {
            threads: vec![
                Thread {
                    tid: 1,
                    name: "main".into(),
                    spans: vec![span("x", 0.0, 100.0)],
                },
                Thread {
                    tid: 2,
                    name: "cf-par-0".into(),
                    spans: vec![span("par.job", 10.0, 20.0), span("par.job", 50.0, 10.0)],
                },
            ],
            ..Trace::default()
        };
        assert_eq!(trace.wall_us(), Some((0.0, 100.0)));
        let util = thread_utilization(&trace);
        assert_eq!(util.len(), 2);
        assert!((util[0].busy_frac - 1.0).abs() < 1e-9);
        assert!((util[1].busy_us - 30.0).abs() < 1e-9);
        assert!((util[1].busy_frac - 0.3).abs() < 1e-9);
        assert_eq!(trace.inferred_threads(), 1, "one cf-par worker");
    }

    #[test]
    fn t_serial_fraction_counts_concurrency() {
        // main busy [0,100]; worker busy [40,80] → 60µs serial (≤1
        // busy), 40µs parallel. Average concurrency 1.4.
        let trace = Trace {
            threads: vec![
                Thread {
                    tid: 1,
                    name: "main".into(),
                    spans: vec![span("x", 0.0, 100.0)],
                },
                Thread {
                    tid: 2,
                    name: "cf-par-0".into(),
                    spans: vec![span("par.job", 40.0, 40.0)],
                },
            ],
            ..Trace::default()
        };
        let sf = serial_fraction(&trace).unwrap();
        assert!((sf.wall_us - 100.0).abs() < 1e-9);
        assert!((sf.serial_us - 60.0).abs() < 1e-9, "{sf:?}");
        assert!((sf.parallel_us - 40.0).abs() < 1e-9);
        assert!((sf.fraction - 0.6).abs() < 1e-9);
        assert!((sf.avg_concurrency - 1.4).abs() < 1e-9);
    }

    #[test]
    fn t_serial_fraction_counts_idle_as_serial() {
        // Two disjoint bursts with a 50µs gap: all serial.
        let trace = one_thread(vec![span("a", 0.0, 25.0), span("b", 75.0, 25.0)]);
        let sf = serial_fraction(&trace).unwrap();
        assert!((sf.fraction - 1.0).abs() < 1e-9);
        assert!((sf.avg_concurrency - 0.5).abs() < 1e-9);
    }

    #[test]
    fn t_critical_path_attributes_innermost_and_idle() {
        // Driver: outer [0,100]; inner [20,50] nested. Gap [100,120]
        // before tail [120,130]. Critical path: outer 70, inner 30,
        // (idle) 20, tail 10.
        let trace = one_thread(vec![
            span("outer", 0.0, 100.0),
            span("inner", 20.0, 30.0),
            span("tail", 120.0, 10.0),
        ]);
        let cp = critical_path(&trace);
        let get = |n: &str| cp.iter().find(|s| s.name == n).unwrap().total_us;
        assert!((get("outer") - 70.0).abs() < 1e-9, "{cp:?}");
        assert!((get("inner") - 30.0).abs() < 1e-9);
        assert!((get("(idle)") - 20.0).abs() < 1e-9);
        assert!((get("tail") - 10.0).abs() < 1e-9);
        // Segments cover the driver's wall interval exactly.
        let sum: f64 = cp.iter().map(|s| s.total_us).sum();
        assert!((sum - 130.0).abs() < 1e-9);
        // Ranked by attributed time.
        assert_eq!(cp[0].name, "outer");
    }

    #[test]
    fn t_critical_path_picks_busiest_thread() {
        let trace = Trace {
            threads: vec![
                Thread {
                    tid: 1,
                    name: "idle-main".into(),
                    spans: vec![span("wait", 0.0, 10.0)],
                },
                Thread {
                    tid: 2,
                    name: "worker".into(),
                    spans: vec![span("grind", 0.0, 90.0)],
                },
            ],
            ..Trace::default()
        };
        let cp = critical_path(&trace);
        assert_eq!(cp[0].name, "grind");
    }

    #[test]
    fn t_scaling_attribution_ranks_non_scaling_spans() {
        // Baseline (1T): matmul 80, softmax 20. Scaled (4T): matmul 20
        // (perfect), softmax 20 (flat), lock 15 (new). Lost at p=4:
        // matmul 0, softmax 15, lock 15.
        let base = one_thread(vec![span("matmul", 0.0, 80.0), span("softmax", 80.0, 20.0)]);
        let scaled = one_thread(vec![
            span("matmul", 0.0, 20.0),
            span("softmax", 20.0, 20.0),
            span("lock", 40.0, 15.0),
        ]);
        let report = scaling_attribution(&base, &scaled, 4.0);
        assert!((report.p - 4.0).abs() < 1e-9);
        assert!((report.base_wall_us - 100.0).abs() < 1e-9);
        assert!((report.scaled_wall_us - 55.0).abs() < 1e-9);
        // Ranked by lost time; ties broken by name: lock before softmax.
        assert_eq!(report.rows[0].name, "lock");
        assert_eq!(report.rows[1].name, "softmax");
        assert!((report.rows[1].lost_us - 15.0).abs() < 1e-9);
        assert_eq!(report.rows[2].name, "matmul");
        assert!(report.rows[2].lost_us.abs() < 1e-9, "{report:?}");
        assert!((report.rows[2].speedup - 4.0).abs() < 1e-9);
        // Amdahl estimate from the wall pair: s = (4·0.55 − 1)/3 = 0.4.
        let s = report.amdahl_serial_fraction.unwrap();
        assert!((s - 0.4).abs() < 1e-9, "{s}");
    }

    #[test]
    fn t_amdahl_estimate_bounds() {
        // Perfect scaling → 0; no scaling → 1; p=1 → undefined.
        assert!(amdahl_serial_fraction(100.0, 25.0, 4.0).unwrap().abs() < 1e-9);
        assert!((amdahl_serial_fraction(100.0, 100.0, 4.0).unwrap() - 1.0).abs() < 1e-9);
        assert!(amdahl_serial_fraction(100.0, 25.0, 1.0).is_none());
        // Better-than-perfect measurements clamp to 0.
        assert_eq!(amdahl_serial_fraction(100.0, 10.0, 4.0), Some(0.0));
    }

    #[test]
    fn t_empty_trace_diagnostics() {
        let empty = Trace::default();
        assert!(empty.empty_diagnostic().unwrap().contains("no events"));
        let counters_only = Trace {
            other_events: 12,
            ..Trace::default()
        };
        assert!(counters_only
            .empty_diagnostic()
            .unwrap()
            .contains("only 12 counter/instant"));
        let dropped_only = Trace {
            dropped: 7,
            ..Trace::default()
        };
        assert!(dropped_only
            .empty_diagnostic()
            .unwrap()
            .contains("7 dropped"));
        let with_spans = one_thread(vec![span("x", 0.0, 1.0)]);
        assert!(with_spans.empty_diagnostic().is_none());
        assert!(serial_fraction(&Trace::default()).is_none());
        assert!(critical_path(&Trace::default()).is_empty());
        assert!(thread_utilization(&Trace::default()).is_empty());
    }
}
