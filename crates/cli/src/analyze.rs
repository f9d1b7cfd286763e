//! `causalformer analyze` — mechanical trace analysis.
//!
//! Loads Chrome trace JSON written by `discover --trace-out` (or any
//! bench binary's `--trace-out`) and runs the [`cf_obs::analyze`]
//! engine over it:
//!
//! * single trace (`--trace`): top self-time table, per-thread
//!   utilization, concurrency-based serial fraction, and the
//!   critical-path decomposition of the driving thread;
//! * trace pair (`--compare BASE SCALED`): everything above per trace is
//!   summarised into a **scaling attribution** table ranking the spans
//!   whose wall time fails to shrink with more threads, plus the Amdahl
//!   serial-fraction estimate the wall-time pair implies.
//!
//! Traces recorded on an oversubscribed host (more worker threads than
//! cores, e.g. `host_cores: 1` with 4-thread runs) get a loud warning:
//! scaling conclusions from such runs must not be trusted.
//!
//! `--max-serial-fraction BOUND` turns the compare mode into a CI gate:
//! the run reports one violation (exit 1 in `main`) when the Amdahl
//! serial-fraction estimate exceeds the bound. The gate skips itself
//! with a note on oversubscribed traces, where the estimate would
//! measure scheduler contention rather than the code.

use crate::CliError;
use cf_obs::analyze::{
    aggregate, critical_path, scaling_attribution, serial_fraction, thread_utilization, Span,
    Thread, Trace,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parsed `analyze` arguments.
#[derive(Debug, Clone)]
pub struct AnalyzeArgs {
    /// Single-trace input path.
    pub trace: Option<String>,
    /// `--compare BASE SCALED` trace pair.
    pub compare: Option<(String, String)>,
    /// Rows per table.
    pub top: usize,
    /// Parallelism of the baseline trace (`--compare`); inferred from
    /// worker-thread timelines when absent.
    pub threads_base: Option<usize>,
    /// Parallelism of the scaled trace; inferred when absent.
    pub threads_scaled: Option<usize>,
    /// `--compare` gate: fail (exit 1) when the Amdahl serial-fraction
    /// estimate exceeds this bound. Skipped with a note when either
    /// trace ran oversubscribed — contention-dominated wall times say
    /// nothing about the code's serial fraction.
    pub max_serial_fraction: Option<f64>,
    /// With `--trace`: also write collapsed stacks (one
    /// `frame;frame value` line per call path, integer µs self-time)
    /// for flamegraph renderers.
    pub flamegraph: Option<String>,
    /// Emit machine-readable JSON instead of tables.
    pub json: bool,
}

impl Default for AnalyzeArgs {
    fn default() -> Self {
        Self {
            trace: None,
            compare: None,
            top: 15,
            threads_base: None,
            threads_scaled: None,
            max_serial_fraction: None,
            flamegraph: None,
            json: false,
        }
    }
}

/// Loads a Chrome trace_event JSON file into the analysis model.
/// Instant/counter events are counted (not analyzed) so an event-free
/// file can be diagnosed precisely.
pub fn load_chrome_trace(path: &str) -> Result<Trace, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Run(format!("reading {path}: {e}")))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| CliError::Run(format!("{path}: bad JSON: {e}")))?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| {
            CliError::Run(format!(
                "{path}: no traceEvents array — not a Chrome trace (write one with \
                 discover --trace-out)"
            ))
        })?;
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut spans: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    let mut other_events = 0u64;
    for e in events {
        let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let name = e.get("name").and_then(Value::as_str).unwrap_or_default();
        match e.get("ph").and_then(Value::as_str) {
            Some("M") if name == "thread_name" => {
                if let Some(n) = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                {
                    names.insert(tid, n.to_string());
                }
            }
            Some("X") => spans.entry(tid).or_default().push(Span {
                name: name.to_string(),
                ts_us: e.get("ts").and_then(Value::as_f64).unwrap_or(0.0),
                dur_us: e.get("dur").and_then(Value::as_f64).unwrap_or(0.0),
            }),
            Some(_) => other_events += 1,
            None => {}
        }
    }
    Ok(Trace {
        threads: spans
            .into_iter()
            .map(|(tid, spans)| Thread {
                tid,
                name: names
                    .get(&tid)
                    .cloned()
                    .unwrap_or_else(|| format!("tid {tid}")),
                spans,
            })
            .collect(),
        dropped: v.get("droppedEvents").and_then(Value::as_u64).unwrap_or(0),
        other_events,
        host_cores: v
            .get("hostCores")
            .and_then(Value::as_u64)
            .map(|n| n as usize),
    })
}

fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.1}ms", us / 1_000.0)
    } else {
        format!("{us:.0}µs")
    }
}

/// Loud oversubscription banner, or `None` when the trace is fine. A
/// trace needs both a recorded `hostCores` and more active worker
/// timelines than cores to trip this.
fn oversubscription_warning(label: &str, trace: &Trace, threads: usize) -> Option<String> {
    let cores = trace.host_cores?;
    (threads > cores).then(|| {
        format!(
            "WARNING: {label} ran {threads} worker thread(s) on a {cores}-core host — \
             the host was OVERSUBSCRIBED and its scaling numbers must not be trusted"
        )
    })
}

fn single_trace_tables(path: &str, trace: &Trace, top: usize) -> String {
    let mut out = String::new();
    let threads = trace.inferred_threads();
    let (wall_lo, wall_hi) = trace.wall_us().unwrap_or((0.0, 0.0));
    let _ = writeln!(
        out,
        "trace {path}: {} thread timeline(s), {} span(s), wall {}",
        trace.threads.len(),
        trace.span_count(),
        fmt_us(wall_hi - wall_lo)
    );
    if trace.dropped > 0 {
        let _ = writeln!(
            out,
            "note: {} event(s) were dropped by the bounded recorder; totals undercount",
            trace.dropped
        );
    }
    if let Some(w) = oversubscription_warning(path, trace, threads) {
        let _ = writeln!(out, "{w}");
    }
    if let Some(diag) = trace.empty_diagnostic() {
        let _ = writeln!(out, "{diag}");
        return out;
    }

    let agg = aggregate(trace);
    let _ = writeln!(out, "\n== top self-time spans ==");
    let _ = writeln!(out, "| span | count | total | self | mean | max |");
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
    for st in agg.iter().take(top) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            st.name,
            st.count,
            fmt_us(st.total_us),
            fmt_us(st.self_us),
            fmt_us(st.total_us / st.count.max(1) as f64),
            fmt_us(st.max_us)
        );
    }
    if agg.len() > top {
        let _ = writeln!(out, "({} more span name(s) below the cut)", agg.len() - top);
    }

    let _ = writeln!(out, "\n== thread utilization ==");
    let _ = writeln!(out, "| thread | busy | busy% |");
    let _ = writeln!(out, "|---|---:|---:|");
    for t in thread_utilization(trace) {
        let _ = writeln!(
            out,
            "| {} | {} | {:.0}% |",
            t.name,
            fmt_us(t.busy_us),
            100.0 * t.busy_frac
        );
    }

    if let Some(sf) = serial_fraction(trace) {
        let ceiling = |p: f64| 1.0 / (sf.fraction + (1.0 - sf.fraction) / p);
        let _ = writeln!(
            out,
            "\n== serial fraction ==\nwall {}, serial {} ({:.0}% — time with ≤1 thread busy), \
             avg concurrency {:.2}\nAmdahl ceiling from this run: {:.2}× at 4 threads, \
             {:.2}× at 16",
            fmt_us(sf.wall_us),
            fmt_us(sf.serial_us),
            100.0 * sf.fraction,
            sf.avg_concurrency,
            ceiling(4.0),
            ceiling(16.0)
        );
    }

    let cp = critical_path(trace);
    if !cp.is_empty() {
        let cp_total: f64 = cp.iter().map(|s| s.total_us).sum();
        let _ = writeln!(
            out,
            "\n== critical path (innermost-span decomposition of the driving thread) =="
        );
        let _ = writeln!(out, "| span | time | share |");
        let _ = writeln!(out, "|---|---:|---:|");
        for seg in cp.iter().take(top) {
            let _ = writeln!(
                out,
                "| {} | {} | {:.0}% |",
                seg.name,
                fmt_us(seg.total_us),
                100.0 * seg.total_us / cp_total.max(1e-9)
            );
        }
    }
    out
}

fn single_trace_json(path: &str, trace: &Trace, top: usize) -> String {
    let mut agg_arr = cf_obs::json::Arr::new();
    for st in aggregate(trace).iter().take(top) {
        agg_arr = agg_arr.raw(
            &cf_obs::json::Obj::new()
                .str("span", &st.name)
                .u64("count", st.count)
                .f64("total_us", st.total_us)
                .f64("self_us", st.self_us)
                .f64("max_us", st.max_us)
                .finish(),
        );
    }
    let mut util_arr = cf_obs::json::Arr::new();
    for t in thread_utilization(trace) {
        util_arr = util_arr.raw(
            &cf_obs::json::Obj::new()
                .str("thread", &t.name)
                .f64("busy_us", t.busy_us)
                .f64("busy_frac", t.busy_frac)
                .finish(),
        );
    }
    let mut cp_arr = cf_obs::json::Arr::new();
    for seg in critical_path(trace).iter().take(top) {
        cp_arr = cp_arr.raw(
            &cf_obs::json::Obj::new()
                .str("span", &seg.name)
                .f64("total_us", seg.total_us)
                .finish(),
        );
    }
    let mut obj = cf_obs::json::Obj::new()
        .str("trace", path)
        .u64("spans", trace.span_count() as u64)
        .u64("dropped", trace.dropped)
        .raw("top_self_time", &agg_arr.finish())
        .raw("thread_utilization", &util_arr.finish())
        .raw("critical_path", &cp_arr.finish());
    if let Some(sf) = serial_fraction(trace) {
        obj = obj.raw(
            "serial_fraction",
            &cf_obs::json::Obj::new()
                .f64("wall_us", sf.wall_us)
                .f64("serial_us", sf.serial_us)
                .f64("fraction", sf.fraction)
                .f64("avg_concurrency", sf.avg_concurrency)
                .finish(),
        );
    }
    if let Some(cores) = trace.host_cores {
        obj = obj.u64("host_cores", cores as u64);
    }
    obj.finish()
}

/// Renders the `--compare` scaling-attribution report as markdown.
pub fn compare_tables(
    base_path: &str,
    base: &Trace,
    scaled_path: &str,
    scaled: &Trace,
    p: f64,
    top: usize,
) -> String {
    let mut out = String::new();
    let report = scaling_attribution(base, scaled, p);
    let _ = writeln!(
        out,
        "== scaling attribution: {base_path} → {scaled_path} (p = {p:.0}) =="
    );
    let _ = writeln!(
        out,
        "wall {} → {} (speedup {:.2}×){}",
        fmt_us(report.base_wall_us),
        fmt_us(report.scaled_wall_us),
        report.wall_speedup,
        report
            .amdahl_serial_fraction
            .map(|s| format!("; Amdahl serial fraction ≈ {:.0}%", 100.0 * s))
            .unwrap_or_default()
    );
    let _ = writeln!(
        out,
        "spans ranked by wall time lost to imperfect scaling (scaled − base/p):"
    );
    let _ = writeln!(out, "| span | base | scaled | speedup | lost |");
    let _ = writeln!(out, "|---|---:|---:|---:|---:|");
    for row in report.rows.iter().take(top) {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2}× | {} |",
            row.name,
            fmt_us(row.base_us),
            fmt_us(row.scaled_us),
            row.speedup,
            fmt_us(row.lost_us)
        );
    }
    out
}

/// Resolved `--max-serial-fraction` verdict for one compare pair.
struct GateOutcome {
    /// The requested bound.
    bound: f64,
    /// Measured Amdahl estimate, when one exists.
    fraction: Option<f64>,
    /// Why the gate was not evaluated (oversubscription, p ≤ 1).
    skipped: Option<String>,
    /// `true` only when evaluated and over the bound.
    violated: bool,
}

/// Evaluates the serial-fraction gate. Oversubscribed traces skip the
/// check — their wall times measure contention, not the code's serial
/// fraction — as does a pair with no thread-count increase.
fn serial_fraction_gate(
    bound: f64,
    sides: [(&Trace, usize); 2],
    fraction: Option<f64>,
) -> GateOutcome {
    let oversub = sides
        .iter()
        .any(|(t, n)| t.host_cores.is_some_and(|c| *n > c));
    if oversub {
        GateOutcome {
            bound,
            fraction,
            skipped: Some("the recording host was oversubscribed".into()),
            violated: false,
        }
    } else if let Some(f) = fraction {
        GateOutcome {
            bound,
            fraction,
            skipped: None,
            violated: f > bound,
        }
    } else {
        GateOutcome {
            bound,
            fraction: None,
            skipped: Some("no thread-count increase between the traces (p ≤ 1)".into()),
            violated: false,
        }
    }
}

fn gate_verdict_line(g: &GateOutcome) -> String {
    if let Some(reason) = &g.skipped {
        format!(
            "note: serial-fraction gate (bound {:.2}) skipped — {reason}",
            g.bound
        )
    } else {
        let f = g.fraction.unwrap_or(0.0);
        if g.violated {
            format!(
                "FAIL: Amdahl serial fraction {:.1}% exceeds --max-serial-fraction {:.1}%",
                100.0 * f,
                100.0 * g.bound
            )
        } else {
            format!(
                "OK: Amdahl serial fraction {:.1}% within --max-serial-fraction {:.1}%",
                100.0 * f,
                100.0 * g.bound
            )
        }
    }
}

fn compare_json(
    base_path: &str,
    base: &Trace,
    scaled_path: &str,
    scaled: &Trace,
    p: f64,
    top: usize,
    gate: Option<&GateOutcome>,
) -> String {
    let report = scaling_attribution(base, scaled, p);
    let mut rows = cf_obs::json::Arr::new();
    for row in report.rows.iter().take(top) {
        rows = rows.raw(
            &cf_obs::json::Obj::new()
                .str("span", &row.name)
                .f64("base_us", row.base_us)
                .f64("scaled_us", row.scaled_us)
                .f64("speedup", row.speedup)
                .f64("lost_us", row.lost_us)
                .u64("count_base", row.count_base)
                .u64("count_scaled", row.count_scaled)
                .finish(),
        );
    }
    let mut obj = cf_obs::json::Obj::new()
        .str("base", base_path)
        .str("scaled", scaled_path)
        .f64("p", report.p)
        .f64("base_wall_us", report.base_wall_us)
        .f64("scaled_wall_us", report.scaled_wall_us)
        .f64("wall_speedup", report.wall_speedup)
        .raw("rows", &rows.finish());
    if let Some(s) = report.amdahl_serial_fraction {
        obj = obj.f64("amdahl_serial_fraction", s);
    }
    if let Some(g) = gate {
        let mut gobj = cf_obs::json::Obj::new()
            .f64("bound", g.bound)
            .bool("violated", g.violated);
        if let Some(f) = g.fraction {
            gobj = gobj.f64("fraction", f);
        }
        if let Some(r) = &g.skipped {
            gobj = gobj.str("skipped", r);
        }
        obj = obj.raw("serial_fraction_gate", &gobj.finish());
    }
    let oversub = [
        (base, base.inferred_threads()),
        (scaled, scaled.inferred_threads()),
    ]
    .iter()
    .any(|(t, n)| t.host_cores.is_some_and(|c| *n > c));
    obj.bool("oversubscribed", oversub).finish()
}

/// Executes `analyze`, returning what `main` prints plus the number of
/// gate violations (`--max-serial-fraction`); nonzero means exit 1.
pub fn run_analyze(a: &AnalyzeArgs) -> Result<(String, usize), CliError> {
    if let Some(bound) = a.max_serial_fraction {
        if !(0.0..=1.0).contains(&bound) {
            return Err(CliError::Usage(format!(
                "--max-serial-fraction must be a fraction in [0, 1], got {bound}"
            )));
        }
    }
    match (&a.trace, &a.compare) {
        (Some(path), None) => {
            if a.max_serial_fraction.is_some() {
                return Err(CliError::Usage(
                    "--max-serial-fraction needs a --compare trace pair".into(),
                ));
            }
            let trace = load_chrome_trace(path)?;
            let mut out = if a.json {
                let mut s = single_trace_json(path, &trace, a.top);
                s.push('\n');
                s
            } else {
                single_trace_tables(path, &trace, a.top)
            };
            if let Some(folded_path) = &a.flamegraph {
                std::fs::write(folded_path, cf_obs::export::folded_stacks(&trace))
                    .map_err(|e| CliError::Run(format!("writing {folded_path}: {e}")))?;
                if !a.json {
                    let _ = writeln!(out, "collapsed stacks written to {folded_path}");
                }
            }
            Ok((out, 0))
        }
        (None, Some((base_path, scaled_path))) => {
            if a.flamegraph.is_some() {
                return Err(CliError::Usage(
                    "--flamegraph needs a single --trace (not --compare)".into(),
                ));
            }
            let base = load_chrome_trace(base_path)?;
            let scaled = load_chrome_trace(scaled_path)?;
            let mut out = String::new();
            // Partial inputs degrade to a one-line diagnostic per side.
            let diags: Vec<String> = [(base_path, &base), (scaled_path, &scaled)]
                .iter()
                .filter_map(|(p, t)| t.empty_diagnostic().map(|d| format!("{p}: {d}")))
                .collect();
            if !diags.is_empty() {
                for d in &diags {
                    out.push_str(d);
                    out.push('\n');
                }
                out.push_str("nothing to compare\n");
                return Ok((out, 0));
            }
            let p_base = a.threads_base.unwrap_or_else(|| base.inferred_threads());
            let p_scaled = a
                .threads_scaled
                .unwrap_or_else(|| scaled.inferred_threads());
            let p = (p_scaled as f64 / p_base as f64).max(1.0);
            let gate = a.max_serial_fraction.map(|bound| {
                let fraction = scaling_attribution(&base, &scaled, p).amdahl_serial_fraction;
                serial_fraction_gate(bound, [(&base, p_base), (&scaled, p_scaled)], fraction)
            });
            let violations = gate.as_ref().map_or(0, |g| g.violated as usize);
            if a.json {
                out.push_str(&compare_json(
                    base_path,
                    &base,
                    scaled_path,
                    &scaled,
                    p,
                    a.top,
                    gate.as_ref(),
                ));
                out.push('\n');
                return Ok((out, violations));
            }
            for (path, trace, threads) in
                [(base_path, &base, p_base), (scaled_path, &scaled, p_scaled)]
            {
                if let Some(w) = oversubscription_warning(path, trace, threads) {
                    out.push_str(&w);
                    out.push('\n');
                }
            }
            if a.threads_base.is_none() || a.threads_scaled.is_none() {
                let _ = writeln!(
                    out,
                    "parallelism inferred from cf-par worker timelines: {p_base} → {p_scaled} \
                     (override with --threads-base / --threads-scaled)"
                );
            }
            out.push_str(&compare_tables(
                base_path,
                &base,
                scaled_path,
                &scaled,
                p,
                a.top,
            ));
            if let Some(g) = &gate {
                out.push_str(&gate_verdict_line(g));
                out.push('\n');
            }
            // The per-trace breakdowns follow the headline comparison.
            out.push('\n');
            out.push_str(&single_trace_tables(base_path, &base, a.top));
            out.push('\n');
            out.push_str(&single_trace_tables(scaled_path, &scaled, a.top));
            Ok((out, violations))
        }
        _ => Err(CliError::Usage(
            "analyze requires exactly one of --trace FILE or --compare BASE SCALED".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, contents: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// A hand-built 1-thread trace: discover[0,100ms] containing
    /// train[5,80ms] and detect[85,99ms].
    fn trace_1t(name: &str) -> String {
        tmp(
            name,
            r#"{"traceEvents":[
  {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
  {"name":"discover","ph":"X","pid":1,"tid":1,"ts":0,"dur":100000},
  {"name":"train","ph":"X","pid":1,"tid":1,"ts":5000,"dur":75000},
  {"name":"detect","ph":"X","pid":1,"tid":1,"ts":85000,"dur":14000}
],"displayTimeUnit":"ms","traceEpochUnix":1.0,"droppedEvents":0,"hostCores":8}"#,
        )
    }

    /// The "4-thread" trace of the same workload: train scales almost
    /// perfectly (75 → 20ms; lost 1.25ms) while detect does not shrink
    /// at all (14 → 14ms; lost 10.5ms) — detect must outrank train in
    /// the attribution table. Worker timelines make inference see 4
    /// threads.
    fn trace_4t(name: &str) -> String {
        tmp(
            name,
            r#"{"traceEvents":[
  {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"cf-par-0"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"cf-par-1"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"cf-par-2"}},
  {"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"cf-par-3"}},
  {"name":"discover","ph":"X","pid":1,"tid":1,"ts":0,"dur":41000},
  {"name":"train","ph":"X","pid":1,"tid":1,"ts":5000,"dur":20000},
  {"name":"detect","ph":"X","pid":1,"tid":1,"ts":26000,"dur":14000},
  {"name":"par.job","ph":"X","pid":1,"tid":2,"ts":6000,"dur":18000},
  {"name":"par.job","ph":"X","pid":1,"tid":3,"ts":6000,"dur":17500},
  {"name":"par.job","ph":"X","pid":1,"tid":4,"ts":6000,"dur":17000},
  {"name":"par.job","ph":"X","pid":1,"tid":5,"ts":6000,"dur":16500}
],"displayTimeUnit":"ms","traceEpochUnix":1.0,"droppedEvents":0,"hostCores":8}"#,
        )
    }

    #[test]
    fn analyze_single_trace_tables() {
        let path = trace_1t("cf_analyze_single_1t.json");
        let (out, _) = run_analyze(&AnalyzeArgs {
            trace: Some(path.clone()),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert!(out.contains("top self-time spans"), "{out}");
        // discover self = 100 - 75 - 14 = 11ms; train self = 75ms.
        assert!(out.contains("| train | 1 | 75.0ms | 75.0ms |"), "{out}");
        assert!(out.contains("| discover | 1 | 100.0ms | 11.0ms |"), "{out}");
        assert!(out.contains("thread utilization"), "{out}");
        assert!(out.contains("serial fraction"), "{out}");
        assert!(out.contains("critical path"), "{out}");
        // No oversubscription on an 8-core host at 1 thread.
        assert!(!out.contains("OVERSUBSCRIBED"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_compare_ranks_non_scaling_span_first() {
        let p1 = trace_1t("cf_analyze_cmp_1t.json");
        let p4 = trace_4t("cf_analyze_cmp_4t.json");
        let (out, _) = run_analyze(&AnalyzeArgs {
            compare: Some((p1.clone(), p4.clone())),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert!(out.contains("scaling attribution"), "{out}");
        assert!(out.contains("(p = 4)"), "inferred 4 workers: {out}");
        // detect stayed at 14ms: lost = 14 − 14/4 = 10.5ms; train
        // scaled 75 → 20ms: lost = 20 − 75/4 = 1.25ms. The non-scaling
        // detect must rank above the well-scaling train.
        let detect_pos = out.find("| detect |").expect("detect row");
        let train_pos = out.find("| train |").expect("train row");
        assert!(detect_pos < train_pos, "detect must outrank train: {out}");
        // Amdahl estimate present.
        assert!(out.contains("Amdahl serial fraction"), "{out}");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p4).ok();
    }

    #[test]
    fn analyze_compare_json_is_machine_readable() {
        let p1 = trace_1t("cf_analyze_json_1t.json");
        let p4 = trace_4t("cf_analyze_json_4t.json");
        let (out, _) = run_analyze(&AnalyzeArgs {
            compare: Some((p1.clone(), p4.clone())),
            json: true,
            ..AnalyzeArgs::default()
        })
        .unwrap();
        let v: Value = serde_json::from_str(out.trim()).unwrap();
        assert_eq!(v["p"].as_f64(), Some(4.0));
        assert!(v["rows"].as_array().unwrap().len() >= 3);
        assert_eq!(v["oversubscribed"].as_bool(), Some(false));
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p4).ok();
    }

    #[test]
    fn analyze_flags_oversubscribed_trace() {
        // 4 workers on a 2-core host.
        let src = trace_4t("cf_analyze_oversub_src.json");
        let contents = std::fs::read_to_string(&src)
            .unwrap()
            .replace("\"hostCores\":8", "\"hostCores\":2");
        let oversub = tmp("cf_analyze_oversub.json", &contents);
        let (out, _) = run_analyze(&AnalyzeArgs {
            trace: Some(oversub.clone()),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert!(out.contains("OVERSUBSCRIBED"), "{out}");
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&oversub).ok();
    }

    #[test]
    fn serial_fraction_gate_passes_fails_and_skips() {
        // The fixture pair implies s = (4·0.41/1.00 − 1)/3 ≈ 21.3%.
        let p1 = trace_1t("cf_analyze_gate_1t.json");
        let p4 = trace_4t("cf_analyze_gate_4t.json");

        // Bound above the estimate: OK, zero violations.
        let (out, violations) = run_analyze(&AnalyzeArgs {
            compare: Some((p1.clone(), p4.clone())),
            max_serial_fraction: Some(0.30),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert_eq!(violations, 0, "{out}");
        assert!(out.contains("OK: Amdahl serial fraction 21.3%"), "{out}");

        // Bound below the estimate: FAIL, one violation.
        let (out, violations) = run_analyze(&AnalyzeArgs {
            compare: Some((p1.clone(), p4.clone())),
            max_serial_fraction: Some(0.10),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert_eq!(violations, 1, "{out}");
        assert!(
            out.contains("FAIL: Amdahl serial fraction 21.3% exceeds"),
            "{out}"
        );

        // Same failing bound in JSON mode: the verdict is machine-readable.
        let (out, violations) = run_analyze(&AnalyzeArgs {
            compare: Some((p1.clone(), p4.clone())),
            max_serial_fraction: Some(0.10),
            json: true,
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert_eq!(violations, 1, "{out}");
        let v: Value = serde_json::from_str(out.trim()).unwrap();
        let g = &v["serial_fraction_gate"];
        assert_eq!(g["violated"].as_bool(), Some(true), "{out}");
        assert!((g["fraction"].as_f64().unwrap() - 0.2133).abs() < 1e-3);

        // Oversubscribed scaled trace (4 workers, 2-core host): the gate
        // must skip rather than fail on contention-dominated numbers.
        let oversub_contents = std::fs::read_to_string(&p4)
            .unwrap()
            .replace("\"hostCores\":8", "\"hostCores\":2");
        let p4_oversub = tmp("cf_analyze_gate_4t_oversub.json", &oversub_contents);
        let (out, violations) = run_analyze(&AnalyzeArgs {
            compare: Some((p1.clone(), p4_oversub.clone())),
            max_serial_fraction: Some(0.10),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert_eq!(violations, 0, "{out}");
        assert!(
            out.contains("serial-fraction gate") && out.contains("skipped"),
            "{out}"
        );

        // Usage errors: bound outside [0, 1], or no compare pair.
        assert!(matches!(
            run_analyze(&AnalyzeArgs {
                compare: Some((p1.clone(), p4.clone())),
                max_serial_fraction: Some(1.5),
                ..AnalyzeArgs::default()
            }),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_analyze(&AnalyzeArgs {
                trace: Some(p1.clone()),
                max_serial_fraction: Some(0.5),
                ..AnalyzeArgs::default()
            }),
            Err(CliError::Usage(_))
        ));

        for p in [p1, p4, p4_oversub] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn flamegraph_flag_writes_collapsed_stacks() {
        let path = trace_1t("cf_analyze_flame_1t.json");
        let folded = std::env::temp_dir().join(format!("cf_analyze_{}.folded", std::process::id()));
        let (out, _) = run_analyze(&AnalyzeArgs {
            trace: Some(path.clone()),
            flamegraph: Some(folded.to_string_lossy().into_owned()),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert!(out.contains("collapsed stacks written to"), "{out}");
        let text = std::fs::read_to_string(&folded).unwrap();
        // Fixture self-times: discover 11ms, train 75ms, detect 14ms —
        // all nested under main;discover.
        assert!(text.contains("main;discover 11000\n"), "{text}");
        assert!(text.contains("main;discover;train 75000\n"), "{text}");
        assert!(text.contains("main;discover;detect 14000\n"), "{text}");

        // --flamegraph is a single-trace feature.
        let other = trace_1t("cf_analyze_flame_other.json");
        assert!(matches!(
            run_analyze(&AnalyzeArgs {
                compare: Some((path.clone(), other.clone())),
                flamegraph: Some(folded.to_string_lossy().into_owned()),
                ..AnalyzeArgs::default()
            }),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&other).ok();
        std::fs::remove_file(&folded).ok();
    }

    #[test]
    fn analyze_degrades_on_partial_inputs() {
        // Empty trace: clear one-liner, no panic.
        let empty = tmp(
            "cf_analyze_empty.json",
            r#"{"traceEvents":[],"droppedEvents":0}"#,
        );
        let (out, _) = run_analyze(&AnalyzeArgs {
            trace: Some(empty.clone()),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert!(out.contains("no events"), "{out}");

        // Counters-only trace.
        let counters = tmp(
            "cf_analyze_counters.json",
            r#"{"traceEvents":[
  {"name":"mem.pool.hit","ph":"C","pid":1,"tid":1,"ts":1.0,"args":{"value":5}}
],"droppedEvents":3}"#,
        );
        let (out, _) = run_analyze(&AnalyzeArgs {
            trace: Some(counters.clone()),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert!(out.contains("counter/instant"), "{out}");

        // Compare with one empty side: diagnostic, not a panic.
        let full = trace_1t("cf_analyze_partial_full.json");
        let (out, _) = run_analyze(&AnalyzeArgs {
            compare: Some((empty.clone(), full.clone())),
            ..AnalyzeArgs::default()
        })
        .unwrap();
        assert!(out.contains("nothing to compare"), "{out}");

        // Not-a-trace JSON: clear error.
        let bogus = tmp("cf_analyze_bogus.json", r#"{"cells":[]}"#);
        let err = run_analyze(&AnalyzeArgs {
            trace: Some(bogus.clone()),
            ..AnalyzeArgs::default()
        })
        .unwrap_err();
        assert!(format!("{err}").contains("no traceEvents"), "{err}");

        for p in [empty, counters, full, bogus] {
            std::fs::remove_file(&p).ok();
        }
    }
}
