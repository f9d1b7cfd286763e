//! `causalformer report` — a self-contained HTML dashboard.
//!
//! Renders the three artifacts a `discover` run can write into one file
//! with no external assets (inline SVG, inline CSS, no scripts):
//!
//! * `--metrics` (JSONL telemetry) → training-loss curves and buffer-pool
//!   hit/miss trajectories;
//! * `--diag` (cfdiag JSONL) → causal-matrix-evolution small multiples;
//! * `--trace` (Chrome trace_event JSON) → per-thread span timelines with
//!   busy fractions.
//!
//! Every panel keeps a stable element id (`panel-training-loss`,
//! `panel-causal-evolution`, `panel-thread-utilization`, `panel-pool`,
//! `panel-top-self-time`, `panel-flame`, `panel-percentiles`,
//! `panel-scaling`, `panel-scheduler`) so smoke tests can assert
//! presence; a panel whose input is missing or empty renders an
//! explanatory note instead of a chart.
//!
//! Trace analysis (self-time aggregation, scaling attribution) is
//! delegated to [`cf_obs::analyze`]; this module only renders.
//!
//! The metrics stream is versioned (leading `meta` event, see
//! [`crate::METRICS_SCHEMA_VERSION`]): files with a newer major version
//! are refused with a clear error rather than misread; files without a
//! `meta` event are treated as legacy `1.0` and parsed best-effort.

use crate::analyze::load_chrome_trace;
use crate::CliError;
use cf_obs::analyze::{
    aggregate, busy_us, collapse_stacks, scaling_attribution, Span as TraceSpan,
    Thread as TraceThread, Trace,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parsed `report` arguments.
#[derive(Debug, Clone, Default)]
pub struct ReportArgs {
    /// JSONL telemetry path (`discover --metrics-out`).
    pub metrics: Option<String>,
    /// Chrome trace path (`discover --trace-out`).
    pub trace: Option<String>,
    /// Second trace of the same workload at a higher thread count;
    /// enables the scaling-attribution panel.
    pub compare_trace: Option<String>,
    /// Diagnostics path (`discover --diag-out`).
    pub diag: Option<String>,
    /// HTML output path.
    pub out: String,
}

/// Highest metrics-schema major version this renderer understands.
const SUPPORTED_METRICS_MAJOR: u64 = 2;

/// One `epoch` event from the metrics stream.
struct EpochRow {
    train_loss: f64,
    val_loss: f64,
    pool_hit: Option<u64>,
    pool_miss: Option<u64>,
}

/// The `discovery` summary event, for the report header line.
struct Discovery {
    input: String,
    preset: String,
    n_series: u64,
    edges: u64,
    wall_secs: f64,
}

/// Streaming percentile estimates for one span path, from the
/// `span_summary` event (schema ≥ 2.1).
struct SpanPercentiles {
    span: String,
    count: u64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Everything the report uses from the metrics JSONL.
struct Metrics {
    schema_version: String,
    epochs: Vec<EpochRow>,
    discovery: Option<Discovery>,
    span_percentiles: Vec<SpanPercentiles>,
    /// `par.*` scheduler counters/gauges from the end-of-run
    /// `metrics_summary` snapshot, in emission (sorted-name) order.
    scheduler: Vec<(String, f64)>,
}

/// One `epoch` record from the cfdiag stream.
struct DiagEpoch {
    epoch: u64,
    train_loss: f64,
    val_loss: f64,
    causal: Vec<Vec<f64>>,
}

/// Everything the report uses from the cfdiag JSONL.
struct Diag {
    epochs: Vec<DiagEpoch>,
    detect_attn: Option<Vec<Vec<f64>>>,
}

/// Executes `report`, returning the line `main` prints.
pub fn run_report(a: &ReportArgs) -> Result<String, CliError> {
    let metrics = match &a.metrics {
        Some(path) => Some(load_metrics(path)?),
        None => None,
    };
    let diag = match &a.diag {
        Some(path) => Some(load_diag(path)?),
        None => None,
    };
    let trace = match &a.trace {
        Some(path) => Some(load_chrome_trace(path)?),
        None => None,
    };
    let compare = match &a.compare_trace {
        Some(path) => Some(load_chrome_trace(path)?),
        None => None,
    };
    let html = render_html(
        metrics.as_ref(),
        diag.as_ref(),
        trace.as_ref(),
        compare.as_ref(),
    );
    std::fs::write(&a.out, &html).map_err(|e| CliError::Run(format!("writing {}: {e}", a.out)))?;
    Ok(format!(
        "report written to {} ({} bytes)\n",
        a.out,
        html.len()
    ))
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Run(format!("reading {path}: {e}")))
}

fn f(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn u(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn s(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

/// Reads a JSON `[[f64]]` field into a rectangular matrix.
fn matrix(v: &Value, key: &str) -> Option<Vec<Vec<f64>>> {
    let rows = v.get(key)?.as_array()?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        out.push(
            row.as_array()?
                .iter()
                .map(|x| x.as_f64().unwrap_or(0.0))
                .collect(),
        );
    }
    Some(out)
}

fn load_metrics(path: &str) -> Result<Metrics, CliError> {
    parse_metrics(path, &read(path)?)
}

/// Parses a metrics JSONL stream; `path` only names it in errors. A line
/// that is not JSON is an error; fields of the wrong type are skipped.
fn parse_metrics(path: &str, text: &str) -> Result<Metrics, CliError> {
    let mut m = Metrics {
        schema_version: "1.0".into(),
        epochs: Vec::new(),
        discovery: None,
        span_percentiles: Vec::new(),
        scheduler: Vec::new(),
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| CliError::Run(format!("{path}:{}: bad JSON: {e}", lineno + 1)))?;
        match s(&v, "event").as_deref() {
            Some("meta") => {
                if let Some(ver) = s(&v, "schema_version") {
                    let major: u64 = ver
                        .split('.')
                        .next()
                        .and_then(|x| x.parse().ok())
                        .ok_or_else(|| {
                            CliError::Run(format!("{path}: unparseable schema_version {ver:?}"))
                        })?;
                    if major > SUPPORTED_METRICS_MAJOR {
                        return Err(CliError::Run(format!(
                            "{path}: metrics schema_version {ver} is newer than this tool \
                             understands (major {SUPPORTED_METRICS_MAJOR}); re-run report \
                             with a matching causalformer build"
                        )));
                    }
                    m.schema_version = ver;
                }
            }
            Some("epoch") => m.epochs.push(EpochRow {
                train_loss: f(&v, "train_loss").unwrap_or(f64::NAN),
                val_loss: f(&v, "val_loss").unwrap_or(f64::NAN),
                pool_hit: u(&v, "pool_hit"),
                pool_miss: u(&v, "pool_miss"),
            }),
            Some("discovery") => {
                m.discovery = Some(Discovery {
                    input: s(&v, "input").unwrap_or_default(),
                    preset: s(&v, "preset").unwrap_or_default(),
                    n_series: u(&v, "n_series").unwrap_or(0),
                    edges: u(&v, "edges").unwrap_or(0),
                    wall_secs: f(&v, "wall_secs").unwrap_or(0.0),
                });
            }
            Some("span_summary") => {
                // Percentiles appear from schema 2.1; absent fields
                // simply keep the panel on its fallback note.
                for sp in v
                    .get("spans")
                    .and_then(Value::as_array)
                    .map(Vec::as_slice)
                    .unwrap_or_default()
                {
                    let (Some(span), Some(p50), Some(p95), Some(p99)) = (
                        s(sp, "span"),
                        f(sp, "p50_secs"),
                        f(sp, "p95_secs"),
                        f(sp, "p99_secs"),
                    ) else {
                        continue;
                    };
                    m.span_percentiles.push(SpanPercentiles {
                        span,
                        count: u(sp, "count").unwrap_or(0),
                        p50_us: p50 * 1e6,
                        p95_us: p95 * 1e6,
                        p99_us: p99 * 1e6,
                    });
                }
            }
            Some("metrics_summary") => {
                // cf-par scheduler telemetry: every `par.*`
                // counter and gauge from the snapshot. The summary is
                // emitted once at the end of a run; if several appear
                // (concatenated files), the last one wins.
                let mut rows = Vec::new();
                for section in ["counters", "gauges"] {
                    if let Some(Value::Object(fields)) =
                        v.get("metrics").and_then(|m| m.get(section))
                    {
                        for (name, val) in fields {
                            if let (true, Some(x)) = (name.starts_with("par."), val.as_f64()) {
                                rows.push((name.clone(), x));
                            }
                        }
                    }
                }
                if !rows.is_empty() {
                    m.scheduler = rows;
                }
            }
            _ => {}
        }
    }
    Ok(m)
}

fn load_diag(path: &str) -> Result<Diag, CliError> {
    parse_diag(path, &read(path)?)
}

/// Parses a cfdiag JSONL stream, with the error rules of
/// [`parse_metrics`].
fn parse_diag(path: &str, text: &str) -> Result<Diag, CliError> {
    let mut d = Diag {
        epochs: Vec::new(),
        detect_attn: None,
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| CliError::Run(format!("{path}:{}: bad JSON: {e}", lineno + 1)))?;
        match s(&v, "record").as_deref() {
            Some("header") => {
                let format = s(&v, "format").unwrap_or_default();
                if format != "cfdiag" {
                    return Err(CliError::Run(format!(
                        "{path}: not a cfdiag file (format {format:?})"
                    )));
                }
            }
            Some("epoch") => {
                if let Some(causal) = matrix(&v, "causal_proxy") {
                    d.epochs.push(DiagEpoch {
                        epoch: u(&v, "epoch").unwrap_or(0),
                        train_loss: f(&v, "train_loss").unwrap_or(f64::NAN),
                        val_loss: f(&v, "val_loss").unwrap_or(f64::NAN),
                        causal,
                    });
                }
            }
            Some("detect") => d.detect_attn = matrix(&v, "attn"),
            _ => {}
        }
    }
    Ok(d)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Sequential blue ramp (light→dark), used for the heatmap magnitude scale.
const RAMP: [&str; 13] = [
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7", "#3987e5", "#2a78d6",
    "#256abf", "#1c5cab", "#184f95", "#104281", "#0d366b",
];

fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Short human number: trims trailing zeros, switches to scientific
/// notation outside a comfortable range.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "—".into();
    }
    let a = v.abs();
    if v == 0.0 {
        return "0".into();
    }
    let text = if !(0.001..10_000.0).contains(&a) {
        format!("{v:.1e}")
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    };
    if text.contains('.') && !text.contains('e') {
        text.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        text
    }
}

/// Duration in microseconds → human string.
fn fmt_dur(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2} s", us / 1_000_000.0)
    } else if us >= 1_000.0 {
        format!("{:.1} ms", us / 1_000.0)
    } else {
        format!("{us:.0} µs")
    }
}

/// One line-chart series: display name, CSS color variable, y values
/// (x is the 1-based epoch index).
struct Series<'a> {
    name: &'a str,
    color: &'a str,
    ys: Vec<f64>,
}

/// An inline-SVG line chart: one y axis, horizontal hairline grid, 2px
/// lines, point markers with native tooltips. Returns the `<svg>` plus a
/// legend row when there are two or more series.
fn line_chart(series: &[Series], y_label: &str) -> String {
    let n = series.iter().map(|s| s.ys.len()).max().unwrap_or(0);
    if n == 0 {
        return note("no data points");
    }
    let (w, h) = (660.0, 280.0);
    let (ml, mr, mt, mb) = (64.0, 14.0, 16.0, 34.0);
    let (pw, ph) = (w - ml - mr, h - mt - mb);
    let finite: Vec<f64> = series
        .iter()
        .flat_map(|s| s.ys.iter().copied())
        .filter(|v| v.is_finite())
        .collect();
    if finite.is_empty() {
        return note("no finite data points");
    }
    let mut lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let mut hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi - lo < 1e-12 {
        let pad = lo.abs().max(0.5) * 0.1;
        lo -= pad;
        hi += pad;
    } else {
        let pad = (hi - lo) * 0.06;
        // Never pad a non-negative quantity (a loss, a counter) below zero.
        lo = if lo >= 0.0 {
            (lo - pad).max(0.0)
        } else {
            lo - pad
        };
        hi += pad;
    }
    let x_at = |i: usize| ml + pw * i as f64 / (n - 1).max(1) as f64;
    let y_at = |v: f64| mt + ph * (1.0 - (v - lo) / (hi - lo));

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg viewBox="0 0 {w} {h}" role="img" aria-label="{}">"#,
        esc(y_label)
    );
    // Horizontal grid + y tick labels.
    for i in 0..5 {
        let v = lo + (hi - lo) * i as f64 / 4.0;
        let y = y_at(v);
        let _ = write!(
            svg,
            r#"<line x1="{ml}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" class="grid"/><text x="{:.1}" y="{:.1}" class="tick" text-anchor="end">{}</text>"#,
            w - mr,
            ml - 8.0,
            y + 3.5,
            fmt_num(v)
        );
    }
    // Baseline + x ticks (1-based epoch numbers, at most ~7 labels).
    let _ = write!(
        svg,
        r#"<line x1="{ml}" y1="{:.1}" x2="{:.1}" y2="{:.1}" class="baseline"/>"#,
        h - mb,
        w - mr,
        h - mb
    );
    let step = n.div_ceil(7).max(1);
    for i in (0..n).step_by(step) {
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" class="tick" text-anchor="middle">{}</text>"#,
            x_at(i),
            h - mb + 16.0,
            i + 1
        );
    }
    let _ = write!(
        svg,
        r#"<text x="{:.1}" y="{:.1}" class="tick" text-anchor="middle">epoch</text>"#,
        ml + pw / 2.0,
        h - 4.0
    );
    // Series lines + markers.
    for sr in series {
        let mut points = String::new();
        for (i, &v) in sr.ys.iter().enumerate() {
            if v.is_finite() {
                let _ = write!(points, "{:.1},{:.1} ", x_at(i), y_at(v));
            }
        }
        let _ = write!(
            svg,
            r#"<polyline points="{}" fill="none" stroke="var({})" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>"#,
            points.trim_end(),
            sr.color
        );
        for (i, &v) in sr.ys.iter().enumerate() {
            if v.is_finite() {
                let _ = write!(
                    svg,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="3.5" fill="var({})"><title>{} — epoch {}: {}</title></circle>"#,
                    x_at(i),
                    y_at(v),
                    sr.color,
                    esc(sr.name),
                    i + 1,
                    fmt_num(v)
                );
            }
        }
    }
    svg.push_str("</svg>");
    let mut out = String::new();
    if series.len() >= 2 {
        out.push_str(r#"<div class="legend">"#);
        for sr in series {
            let _ = write!(
                out,
                r#"<span class="key"><span class="swatch" style="background:var({})"></span>{}</span>"#,
                sr.color,
                esc(sr.name)
            );
        }
        out.push_str("</div>");
    }
    out.push_str(&svg);
    out
}

/// A muted inline note used where a panel has no data.
fn note(text: &str) -> String {
    format!(r#"<p class="note">{}</p>"#, esc(text))
}

/// One n×n heatmap tile (sequential blue ramp, shared `vmax` scale).
fn heat_tile(m: &[Vec<f64>], vmax: f64, label: &str) -> String {
    let n = m.len();
    if n == 0 {
        return String::new();
    }
    let cell = (120 / n).clamp(8, 22) as f64;
    let side = cell * n as f64;
    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<div class="tile"><svg viewBox="0 0 {side} {side}" width="{side}" height="{side}" role="img" aria-label="{}">"#,
        esc(label)
    );
    for (i, row) in m.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            let t = if vmax > 0.0 {
                (v / vmax).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let color = RAMP[(t * (RAMP.len() - 1) as f64).round() as usize];
            let _ = write!(
                svg,
                r#"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="{color}"><title>S{}→S{}: {}</title></rect>"#,
                j as f64 * cell,
                i as f64 * cell,
                cell - 1.0,
                cell - 1.0,
                i + 1,
                j + 1,
                fmt_num(v)
            );
        }
    }
    let _ = write!(
        svg,
        r#"</svg><div class="tile-label">{}</div></div>"#,
        esc(label)
    );
    svg
}

/// Small-multiples view of the causal proxy matrix across epochs, plus
/// the final aggregated score matrix, plus the shared color-scale key.
fn causal_evolution(diag: &Diag) -> String {
    if diag.epochs.is_empty() && diag.detect_attn.is_none() {
        return note("no diagnostics records (run discover with --diag-out)");
    }
    // At most 8 evenly-spaced epochs, oldest to newest.
    let len = diag.epochs.len();
    let mut picks: Vec<usize> = if len <= 8 {
        (0..len).collect()
    } else {
        (0..8).map(|i| i * (len - 1) / 7).collect()
    };
    picks.dedup();
    let vmax = picks
        .iter()
        .flat_map(|&i| diag.epochs[i].causal.iter().flatten().copied())
        .fold(0.0f64, f64::max);
    let mut out = String::from(r#"<div class="tiles">"#);
    for &i in &picks {
        let e = &diag.epochs[i];
        out.push_str(&heat_tile(&e.causal, vmax, &format!("epoch {}", e.epoch)));
    }
    if let Some(attn) = &diag.detect_attn {
        let amax = attn.iter().flatten().copied().fold(0.0f64, f64::max);
        out.push_str(&heat_tile(attn, amax, "final scores"));
    }
    out.push_str("</div>");
    // Color-scale key for the epoch tiles (the final-scores tile is
    // normalised to its own maximum, stated in its tooltips).
    if vmax > 0.0 {
        let mut key = String::from(
            r#"<div class="ramp"><span class="tick">0</span><svg viewBox="0 0 130 10" width="130" height="10">"#,
        );
        for (i, c) in RAMP.iter().enumerate() {
            let _ = write!(
                key,
                r#"<rect x="{}" y="0" width="10" height="10" fill="{c}"/>"#,
                i * 10
            );
        }
        let _ = write!(
            key,
            r#"</svg><span class="tick">{}</span> mean |mask|</div>"#,
            fmt_num(vmax)
        );
        out.push_str(&key);
    }
    out
}

/// Maximum spans drawn per thread row; the longest are kept so visual
/// weight is preserved when a trace is dense.
const MAX_SPANS_PER_ROW: usize = 800;

/// Per-thread span timeline with busy-percentage readouts.
fn thread_timeline(trace: &Trace) -> String {
    let threads: Vec<&TraceThread> = trace
        .threads
        .iter()
        .filter(|t| !t.spans.is_empty())
        .collect();
    if threads.is_empty() {
        // Say what the file *did* contain (counters only, dropped
        // events, nothing) instead of rendering a blank lane.
        return note(
            &trace
                .empty_diagnostic()
                .unwrap_or_else(|| "no spans in trace (run discover with --trace-out)".into()),
        );
    }
    let t0 = threads
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.ts_us))
        .fold(f64::INFINITY, f64::min);
    let t1 = threads
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.ts_us + s.dur_us))
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (t1 - t0).max(1e-9);
    let (w, gutter, right) = (660.0, 150.0, 52.0);
    let (row_h, gap, top) = (16.0, 8.0, 4.0);
    let lane_w = w - gutter - right;
    let h = top + threads.len() as f64 * (row_h + gap) + 24.0;
    let total_spans: usize = threads.iter().map(|t| t.spans.len()).sum();
    let mut drawn = 0usize;

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg viewBox="0 0 {w} {h:.0}" role="img" aria-label="thread timelines">"#
    );
    for (row, t) in threads.iter().enumerate() {
        let y = top + row as f64 * (row_h + gap);
        let busy = busy_us(&t.spans);
        let pct = 100.0 * busy / range;
        let label: String = t.name.chars().take(18).collect();
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" class="tick" text-anchor="end">{}<title>{} (tid {})</title></text>"#,
            gutter - 8.0,
            y + row_h - 4.0,
            esc(&label),
            esc(&t.name),
            t.tid
        );
        let _ = write!(
            svg,
            r#"<rect x="{gutter}" y="{y:.1}" width="{lane_w:.1}" height="{row_h}" class="lane"/>"#
        );
        // Keep the longest spans when capped; draw order doesn't matter.
        let mut spans: Vec<&TraceSpan> = t.spans.iter().collect();
        if spans.len() > MAX_SPANS_PER_ROW {
            spans.sort_by(|a, b| b.dur_us.total_cmp(&a.dur_us));
            spans.truncate(MAX_SPANS_PER_ROW);
        }
        drawn += spans.len();
        for sp in spans {
            let x = gutter + lane_w * (sp.ts_us - t0) / range;
            let sw = (lane_w * sp.dur_us / range).max(0.75);
            let _ = write!(
                svg,
                r#"<rect x="{x:.2}" y="{:.1}" width="{sw:.2}" height="{:.1}" class="span"><title>{}: {} at +{}</title></rect>"#,
                y + 2.0,
                row_h - 4.0,
                esc(&sp.name),
                fmt_dur(sp.dur_us),
                fmt_dur(sp.ts_us - t0)
            );
        }
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" class="tick">{pct:.0}%</text>"#,
            gutter + lane_w + 6.0,
            y + row_h - 4.0
        );
    }
    // Time axis: start, midpoint, end.
    let axis_y = h - 18.0;
    let _ = write!(
        svg,
        r#"<line x1="{gutter}" y1="{:.1}" x2="{:.1}" y2="{:.1}" class="baseline"/>"#,
        axis_y,
        gutter + lane_w,
        axis_y
    );
    for (frac, anchor) in [(0.0, "start"), (0.5, "middle"), (1.0, "end")] {
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" class="tick" text-anchor="{anchor}">{}</text>"#,
            gutter + lane_w * frac,
            axis_y + 14.0,
            fmt_dur(range * frac)
        );
    }
    svg.push_str("</svg>");
    let mut out = svg;
    if drawn < total_spans {
        out.push_str(&note(&format!(
            "dense trace: showing the longest {drawn} of {total_spans} spans"
        )));
    }
    if trace.dropped > 0 {
        out.push_str(&note(&format!(
            "{} events were dropped by the bounded recorder (each thread keeps its newest {}); \
             span counts in the metrics stream are complete",
            trace.dropped,
            cf_obs::trace::CAPACITY
        )));
    }
    out
}

/// Rows shown in the self-time and percentile tables.
const MAX_TABLE_ROWS: usize = 12;

/// Top self-time table from the trace (delegates the span-aggregation
/// math to `cf_obs::analyze::aggregate`).
fn self_time_table(trace: &Trace) -> String {
    if let Some(diag) = trace.empty_diagnostic() {
        return note(&diag);
    }
    let agg = aggregate(trace);
    let total_self: f64 = agg.iter().map(|s| s.self_us).sum();
    let mut out = String::from(
        r#"<table><thead><tr><th>span</th><th class="num">count</th><th class="num">total</th><th class="num">self</th><th class="num">self %</th></tr></thead><tbody>"#,
    );
    for st in agg.iter().take(MAX_TABLE_ROWS) {
        let _ = write!(
            out,
            r#"<tr><td>{}</td><td class="num">{}</td><td class="num">{}</td><td class="num">{}</td><td class="num">{:.0}%</td></tr>"#,
            esc(&st.name),
            st.count,
            fmt_dur(st.total_us),
            fmt_dur(st.self_us),
            100.0 * st.self_us / total_self.max(1e-9)
        );
    }
    out.push_str("</tbody></table>");
    if agg.len() > MAX_TABLE_ROWS {
        out.push_str(&note(&format!(
            "{} more span name(s) below the cut",
            agg.len() - MAX_TABLE_ROWS
        )));
    }
    out
}

/// Maximum stack depth the flame panel draws; deeper frames are folded
/// into their parent's self time visually (tooltips still carry the
/// full path down to this depth).
const MAX_FLAME_DEPTH: usize = 12;

/// Inline-SVG icicle flamegraph (roots on top, callees below) built
/// from the trace's collapsed stacks. The same fold feeds
/// `analyze --flamegraph`, so the panel and the exported `.folded`
/// file always agree.
fn flame_panel(trace: &Trace) -> String {
    if let Some(diag) = trace.empty_diagnostic() {
        return note(&diag);
    }

    // Reassemble the folded paths into a tree; sibling order is the
    // lexical frame order BTreeMap gives, so renders are deterministic.
    #[derive(Default)]
    struct Node {
        self_us: f64,
        total_us: f64,
        children: BTreeMap<String, Node>,
    }
    let mut root = Node::default();
    for fs in collapse_stacks(trace) {
        let mut cur = &mut root;
        for frame in &fs.frames {
            cur = cur.children.entry(frame.clone()).or_default();
        }
        cur.self_us += fs.self_us;
    }
    fn fill_totals(n: &mut Node) -> f64 {
        n.total_us = n.self_us + n.children.values_mut().map(fill_totals).sum::<f64>();
        n.total_us
    }
    fn depth_of(n: &Node) -> usize {
        1 + n.children.values().map(depth_of).max().unwrap_or(0)
    }
    let grand_total = fill_totals(&mut root);
    if grand_total <= 0.0 {
        return note("no spans to fold (run discover with --trace-out)");
    }
    let depth = (depth_of(&root) - 1).min(MAX_FLAME_DEPTH);

    let (w, row_h, gap) = (660.0, 18.0, 2.0);
    let h = depth as f64 * (row_h + gap);
    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg viewBox="0 0 {w} {h:.0}" role="img" aria-label="flamegraph (icicle)">"#
    );
    // Recursive layout: each node gets a width share of its parent's
    // span, children packed left-to-right; sub-half-pixel rects are
    // skipped (their time is still inside the parent's rect).
    fn draw(
        svg: &mut String,
        node: &Node,
        path: &str,
        x: f64,
        width: f64,
        level: usize,
        grand_total: f64,
    ) {
        if level >= MAX_FLAME_DEPTH {
            return;
        }
        let mut cx = x;
        for (name, child) in &node.children {
            let cw = width * child.total_us / node.total_us.max(1e-9);
            if cw >= 0.5 {
                let y = level as f64 * 20.0;
                // Lighter half of the ramp only, so the dark in-rect
                // labels stay readable at every depth.
                let color = RAMP[level.min(5)];
                let full = if path.is_empty() {
                    name.clone()
                } else {
                    format!("{path};{name}")
                };
                let _ = write!(
                    svg,
                    r#"<rect x="{cx:.2}" y="{y:.1}" width="{:.2}" height="18" rx="1" fill="{color}"><title>{}: {} ({:.1}% of run)</title></rect>"#,
                    cw - 1.0,
                    esc(&full),
                    fmt_dur(child.total_us),
                    100.0 * child.total_us / grand_total
                );
                // Label inside the rect when it fits (~7px per character).
                let label: String = name.chars().take((cw / 7.0) as usize).collect();
                if label.len() >= 3 {
                    let _ = write!(
                        svg,
                        r#"<text x="{:.1}" y="{:.1}" class="flame-label">{}</text>"#,
                        cx + 4.0,
                        y + 13.0,
                        esc(&label)
                    );
                }
                draw(svg, child, &full, cx, cw, level + 1, grand_total);
            }
            cx += cw;
        }
    }
    draw(&mut svg, &root, "", 0.0, w, 0, grand_total);
    svg.push_str("</svg>");
    svg
}

/// Scaling-attribution table for a trace pair: spans ranked by wall
/// time lost versus perfect scaling.
fn scaling_panel(base: &Trace, scaled: &Trace) -> String {
    for (label, t) in [("baseline trace", base), ("compare trace", scaled)] {
        if let Some(diag) = t.empty_diagnostic() {
            return note(&format!("{label}: {diag}"));
        }
    }
    let p_base = base.inferred_threads();
    let p_scaled = scaled.inferred_threads();
    let p = (p_scaled as f64 / p_base as f64).max(1.0);
    let report = scaling_attribution(base, scaled, p);
    let mut out = String::new();
    for (label, t, threads) in [("baseline", base, p_base), ("compare", scaled, p_scaled)] {
        if let Some(cores) = t.host_cores {
            if threads > cores {
                out.push_str(&note(&format!(
                    "warning: the {label} trace ran {threads} worker thread(s) on a \
                     {cores}-core host — it was oversubscribed and its scaling numbers \
                     must not be trusted"
                )));
            }
        }
    }
    let _ = write!(
        out,
        r#"<p class="caption">wall {} → {} (speedup {:.2}×, p = {:.0}{}); spans ranked by wall time lost to imperfect scaling</p>"#,
        fmt_dur(report.base_wall_us),
        fmt_dur(report.scaled_wall_us),
        report.wall_speedup,
        report.p,
        report
            .amdahl_serial_fraction
            .map(|s| format!("; Amdahl serial fraction ≈ {:.0}%", 100.0 * s))
            .unwrap_or_default()
    );
    out.push_str(
        r#"<table><thead><tr><th>span</th><th class="num">base</th><th class="num">scaled</th><th class="num">speedup</th><th class="num">lost</th></tr></thead><tbody>"#,
    );
    for row in report.rows.iter().take(MAX_TABLE_ROWS) {
        let _ = write!(
            out,
            r#"<tr><td>{}</td><td class="num">{}</td><td class="num">{}</td><td class="num">{:.2}×</td><td class="num">{}</td></tr>"#,
            esc(&row.name),
            fmt_dur(row.base_us),
            fmt_dur(row.scaled_us),
            row.speedup,
            fmt_dur(row.lost_us)
        );
    }
    out.push_str("</tbody></table>");
    out
}

/// Percentile strips: for each span path a p50→p95→p99 bar on a shared
/// log-ish scale, widest spans first.
fn percentile_strips(rows: &[SpanPercentiles]) -> String {
    let mut rows: Vec<&SpanPercentiles> = rows.iter().filter(|r| r.p99_us > 0.0).collect();
    if rows.is_empty() {
        return note(
            "no span percentiles in metrics (needs a metrics file from schema 2.1 or newer)",
        );
    }
    rows.sort_by(|a, b| b.p99_us.total_cmp(&a.p99_us));
    rows.truncate(MAX_TABLE_ROWS);
    let max_p99 = rows[0].p99_us;
    // log10 scale from 1µs so strips stay readable across 6 decades.
    let pos = |us: f64| (us.max(1.0).log10() / max_p99.max(10.0).log10()).clamp(0.0, 1.0);
    let (w, gutter, right) = (660.0, 190.0, 8.0);
    let (row_h, gap, top) = (18.0, 6.0, 4.0);
    let lane_w = w - gutter - right;
    let h = top + rows.len() as f64 * (row_h + gap);
    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg viewBox="0 0 {w} {h:.0}" role="img" aria-label="span duration percentiles">"#
    );
    for (i, r) in rows.iter().enumerate() {
        let y = top + i as f64 * (row_h + gap);
        let label: String = r.span.chars().take(24).collect();
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" class="tick" text-anchor="end">{}<title>{} ({} samples)</title></text>"#,
            gutter - 8.0,
            y + row_h - 5.0,
            esc(&label),
            esc(&r.span),
            r.count
        );
        let _ = write!(
            svg,
            r#"<rect x="{gutter}" y="{y:.1}" width="{lane_w:.1}" height="{row_h}" class="lane"/>"#
        );
        // p50→p99 band, with a tick at p95.
        let (x50, x95, x99) = (
            gutter + lane_w * pos(r.p50_us),
            gutter + lane_w * pos(r.p95_us),
            gutter + lane_w * pos(r.p99_us),
        );
        let _ = write!(
            svg,
            r#"<rect x="{x50:.1}" y="{:.1}" width="{:.1}" height="{:.1}" class="span"><title>{}: p50 {} · p95 {} · p99 {}</title></rect><line x1="{x95:.1}" y1="{y:.1}" x2="{x95:.1}" y2="{:.1}" class="baseline"/>"#,
            y + 3.0,
            (x99 - x50).max(2.0),
            row_h - 6.0,
            esc(&r.span),
            fmt_dur(r.p50_us),
            fmt_dur(r.p95_us),
            fmt_dur(r.p99_us),
            y + row_h,
        );
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" class="tick">{}</text>"#,
            (x99 + 6.0).min(w - 60.0),
            y + row_h - 5.0,
            fmt_dur(r.p99_us)
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Assembles the full document.
fn render_html(
    metrics: Option<&Metrics>,
    diag: Option<&Diag>,
    trace: Option<&Trace>,
    compare: Option<&Trace>,
) -> String {
    let mut html = String::from(HEAD);

    // Header line from the discovery summary, when present.
    html.push_str("<h1>causalformer report</h1>");
    if let Some(d) = metrics.and_then(|m| m.discovery.as_ref()) {
        let _ = write!(
            html,
            r#"<p class="summary">{} · preset {} · {} series · {} edges · {:.2} s wall</p>"#,
            esc(&d.input),
            esc(&d.preset),
            d.n_series,
            d.edges,
            d.wall_secs
        );
    }
    if let Some(m) = metrics {
        let _ = write!(
            html,
            r#"<p class="note">metrics schema v{}</p>"#,
            esc(&m.schema_version)
        );
    }

    // Panel 1: training loss. Metrics preferred; cfdiag carries the same
    // losses and serves as the fallback.
    let losses: Option<(Vec<f64>, Vec<f64>)> = match (metrics, diag) {
        (Some(m), _) if !m.epochs.is_empty() => Some((
            m.epochs.iter().map(|e| e.train_loss).collect(),
            m.epochs.iter().map(|e| e.val_loss).collect(),
        )),
        (_, Some(d)) if !d.epochs.is_empty() => Some((
            d.epochs.iter().map(|e| e.train_loss).collect(),
            d.epochs.iter().map(|e| e.val_loss).collect(),
        )),
        _ => None,
    };
    html.push_str(r#"<section id="panel-training-loss"><h2>Training loss</h2>"#);
    match losses {
        Some((train, val)) => html.push_str(&line_chart(
            &[
                Series {
                    name: "train loss",
                    color: "--series-1",
                    ys: train,
                },
                Series {
                    name: "validation loss",
                    color: "--series-2",
                    ys: val,
                },
            ],
            "loss per epoch",
        )),
        None => html.push_str(&note(
            "no epoch records (run discover with --metrics-out or --diag-out)",
        )),
    }
    html.push_str("</section>");

    // Panel 2: causal-matrix evolution (diagnostics).
    html.push_str(r#"<section id="panel-causal-evolution"><h2>Causal matrix evolution</h2><p class="caption">Mean absolute causal mask per epoch (row causes column); right-most tile is the final aggregated score matrix.</p>"#);
    match diag {
        Some(d) => html.push_str(&causal_evolution(d)),
        None => html.push_str(&note("no diagnostics file (run discover with --diag-out)")),
    }
    html.push_str("</section>");

    // Panel 3: thread utilization (trace).
    html.push_str(r#"<section id="panel-thread-utilization"><h2>Thread utilization</h2><p class="caption">Per-thread span timeline; the percentage is the merged busy fraction of the traced interval.</p>"#);
    match trace {
        Some(t) => html.push_str(&thread_timeline(t)),
        None => html.push_str(&note("no trace file (run discover with --trace-out)")),
    }
    html.push_str("</section>");

    // Panel 5: top self-time spans (trace).
    html.push_str(r#"<section id="panel-top-self-time"><h2>Top self-time spans</h2><p class="caption">Per span name: total wall time and self time (total minus time in nested spans), aggregated across all threads.</p>"#);
    match trace {
        Some(t) => html.push_str(&self_time_table(t)),
        None => html.push_str(&note("no trace file (run discover with --trace-out)")),
    }
    html.push_str("</section>");

    // Panel 5b: flamegraph (trace).
    html.push_str(r#"<section id="panel-flame"><h2>Flamegraph</h2><p class="caption">Icicle layout (roots on top, callees below); rect width is total wall time on that call path. The same collapsed stacks are exported by <code>analyze --flamegraph</code>.</p>"#);
    match trace {
        Some(t) => html.push_str(&flame_panel(t)),
        None => html.push_str(&note("no trace file (run discover with --trace-out)")),
    }
    html.push_str("</section>");

    // Panel 6: scaling attribution (trace pair).
    html.push_str(r#"<section id="panel-scaling"><h2>Scaling attribution</h2>"#);
    match (trace, compare) {
        (Some(base), Some(scaled)) => html.push_str(&scaling_panel(base, scaled)),
        _ => html.push_str(&note(
            "no comparison trace (pass --compare-trace with a trace of the same \
             workload at a higher thread count)",
        )),
    }
    html.push_str("</section>");

    // Panel 7: span-duration percentiles (metrics span_summary).
    html.push_str(r#"<section id="panel-percentiles"><h2>Span duration percentiles</h2><p class="caption">p50–p99 band per span path (log scale, tick at p95), from the fixed-bucket streaming histograms.</p>"#);
    match metrics {
        Some(m) => html.push_str(&percentile_strips(&m.span_percentiles)),
        None => html.push_str(&note("no metrics file (run discover with --metrics-out)")),
    }
    html.push_str("</section>");

    // Panel 4: buffer-pool counters (metrics epochs).
    html.push_str(r#"<section id="panel-pool"><h2>Buffer pool</h2><p class="caption">Cumulative pool hits and misses per epoch; a flat miss curve after warm-up means steady-state training allocates nothing.</p>"#);
    let pool: Option<(Vec<f64>, Vec<f64>)> = metrics.and_then(|m| {
        let rows: Vec<(u64, u64)> = m
            .epochs
            .iter()
            .filter_map(|e| Some((e.pool_hit?, e.pool_miss?)))
            .collect();
        if rows.is_empty() {
            None
        } else {
            Some((
                rows.iter().map(|r| r.0 as f64).collect(),
                rows.iter().map(|r| r.1 as f64).collect(),
            ))
        }
    });
    match pool {
        Some((hit, miss)) => html.push_str(&line_chart(
            &[
                Series {
                    name: "pool hits",
                    color: "--series-1",
                    ys: hit,
                },
                Series {
                    name: "pool misses",
                    color: "--series-2",
                    ys: miss,
                },
            ],
            "cumulative count",
        )),
        None => html.push_str(&note(
            "no pool counters in metrics (needs a metrics file from this version)",
        )),
    }
    html.push_str("</section>");

    // Panel 8: cf-par scheduler counters (metrics summary).
    html.push_str(r#"<section id="panel-scheduler"><h2>Scheduler</h2><p class="caption">Parallel-for pool telemetry for the whole run: parallel vs inline dispatches, chunks executed, and summed busy/idle time.</p>"#);
    match metrics.map(|m| m.scheduler.as_slice()) {
        Some(rows) if !rows.is_empty() => html.push_str(&scheduler_table(rows)),
        _ => html.push_str(&note(
            "no scheduler counters in metrics (needs a --metrics-out file \
             from a build with the cf-par scheduler)",
        )),
    }
    html.push_str("</section>");

    html.push_str("</main></body></html>\n");
    html
}

/// The `par.*` counter table. Nanosecond counters render as durations,
/// everything else as plain integers.
fn scheduler_table(rows: &[(String, f64)]) -> String {
    let mut out = String::from(
        r#"<table><thead><tr><th>counter</th><th class="num">value</th></tr></thead><tbody>"#,
    );
    for (name, value) in rows {
        let rendered = if name.ends_with("_ns") {
            fmt_dur(value / 1_000.0)
        } else {
            format!("{value:.0}")
        };
        let _ = write!(
            out,
            r#"<tr><td>{}</td><td class="num">{rendered}</td></tr>"#,
            esc(name)
        );
    }
    out.push_str("</tbody></table>");
    out
}

/// Document head: all styling inline, light and dark from the same
/// palette, no external assets.
const HEAD: &str = r##"<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>causalformer report</title>
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid-line: #e1e0d9;
  --baseline-ink: #c3c2b7;
  --lane: #f0efec;
  --series-1: #2a78d6;
  --series-2: #eb6834;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid-line: #2c2c2a;
    --baseline-ink: #383835;
    --lane: #242422;
    --series-1: #3987e5;
    --series-2: #d95926;
  }
}
body {
  margin: 0;
  background: var(--page);
  color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px;
  line-height: 1.45;
}
main { max-width: 740px; margin: 0 auto; padding: 24px 16px 48px; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 8px; }
.summary { color: var(--text-secondary); margin: 0 0 2px; }
.caption { color: var(--text-secondary); font-size: 12.5px; margin: 0 0 10px; }
.note { color: var(--text-muted); font-size: 12.5px; margin: 6px 0 0; }
section {
  background: var(--surface-1);
  border: 1px solid var(--grid-line);
  border-radius: 8px;
  padding: 16px;
  margin-top: 16px;
}
svg { display: block; width: 100%; height: auto; }
.grid { stroke: var(--grid-line); stroke-width: 1; }
.baseline { stroke: var(--baseline-ink); stroke-width: 1; }
.lane { fill: var(--lane); }
.span { fill: var(--series-1); fill-opacity: 0.65; }
.tick {
  fill: var(--text-muted);
  font-size: 11px;
  font-family: inherit;
  font-variant-numeric: tabular-nums;
}
.flame-label { fill: #17314f; font-size: 11px; font-family: inherit; pointer-events: none; }
table { border-collapse: collapse; width: 100%; font-size: 12.5px; }
th, td { text-align: left; padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid-line); }
th { color: var(--text-muted); font-weight: 500; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.legend { display: flex; gap: 16px; margin-bottom: 8px; color: var(--text-secondary); font-size: 12.5px; }
.key { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; align-items: flex-end; }
.tile svg { width: auto; }
.tile-label { color: var(--text-muted); font-size: 11px; text-align: center; margin-top: 4px; }
.ramp { display: flex; align-items: center; gap: 6px; margin-top: 10px; color: var(--text-muted); font-size: 11px; }
.ramp svg { width: 130px; }
</style>
</head>
<body>
<main>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl_damage::{self, Damage};

    #[test]
    fn fmt_num_is_compact() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(1.5), "1.5");
        assert_eq!(fmt_num(0.25), "0.25");
        assert_eq!(fmt_num(123.4), "123");
        assert_eq!(fmt_num(f64::NAN), "—");
        assert!(fmt_num(1.0e-7).contains('e'));
    }

    #[test]
    fn busy_merges_nested_and_overlapping_spans() {
        let spans = vec![
            TraceSpan {
                name: "a".into(),
                ts_us: 0.0,
                dur_us: 10.0,
            },
            TraceSpan {
                name: "b".into(),
                ts_us: 2.0,
                dur_us: 3.0,
            }, // nested in a
            TraceSpan {
                name: "c".into(),
                ts_us: 8.0,
                dur_us: 6.0,
            }, // overlaps a
            TraceSpan {
                name: "d".into(),
                ts_us: 20.0,
                dur_us: 5.0,
            }, // disjoint
        ];
        assert!((busy_us(&spans) - 19.0).abs() < 1e-9);
    }

    #[test]
    fn render_without_inputs_keeps_all_panel_ids() {
        let html = render_html(None, None, None, None);
        for id in [
            "panel-training-loss",
            "panel-causal-evolution",
            "panel-thread-utilization",
            "panel-pool",
            "panel-top-self-time",
            "panel-flame",
            "panel-scaling",
            "panel-percentiles",
            "panel-scheduler",
        ] {
            assert!(html.contains(&format!(r#"id="{id}""#)), "{id} missing");
        }
        assert!(!html.contains("http://"), "report must be self-contained");
        assert!(!html.contains("<script"), "report must not need scripts");
    }

    #[test]
    fn scheduler_panel_parses_metrics_summary_and_renders() {
        let dir = std::env::temp_dir();
        let path = dir.join("cf_report_sched.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"event\":\"meta\",\"schema_version\":\"2.1\"}\n",
                "{\"event\":\"metrics_summary\",\"ts\":1.0,\"metrics\":{",
                "\"counters\":{\"par.jobs\":12,\"par.tasks\":3,",
                "\"par.busy_ns\":2500000000,\"mem.pool.hit\":99},",
                "\"gauges\":{\"par.threads\":4.0},\"histograms\":{}}}\n"
            ),
        )
        .unwrap();
        let m = load_metrics(path.to_str().unwrap()).unwrap();
        // Only par.* series make the panel; pool counters have their own.
        assert_eq!(m.scheduler.len(), 4, "{:?}", m.scheduler);
        assert!(m.scheduler.iter().all(|(n, _)| n.starts_with("par.")));
        let html = render_html(Some(&m), None, None, None);
        assert!(html.contains("par.tasks"), "{html}");
        // Nanosecond counters render as durations: 2.5e9 ns = 2.50 s.
        assert!(html.contains("2.50"), "{html}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn percentile_strips_render_and_degrade() {
        assert!(percentile_strips(&[]).contains("no span percentiles"));
        let rows = vec![SpanPercentiles {
            span: "discover.train.epoch".into(),
            count: 10,
            p50_us: 900.0,
            p95_us: 1800.0,
            p99_us: 2500.0,
        }];
        let svg = percentile_strips(&rows);
        assert!(svg.contains("discover.train.epoch"), "{svg}");
        assert!(svg.contains("p50 900 µs"), "{svg}");
    }

    #[test]
    fn self_time_table_degrades_on_empty_trace() {
        let out = self_time_table(&Trace::default());
        assert!(out.contains("no events"), "{out}");
    }

    #[test]
    fn flame_panel_folds_nested_spans_into_an_icicle() {
        // main: discover[0,100ms] > train[5,80ms]; a second thread with
        // one short job. Widths scale with total time per path.
        let trace = Trace {
            threads: vec![
                TraceThread {
                    tid: 1,
                    name: "main".into(),
                    spans: vec![
                        TraceSpan {
                            name: "discover".into(),
                            ts_us: 0.0,
                            dur_us: 100_000.0,
                        },
                        TraceSpan {
                            name: "train".into(),
                            ts_us: 5_000.0,
                            dur_us: 75_000.0,
                        },
                    ],
                },
                TraceThread {
                    tid: 2,
                    name: "cf-par-0".into(),
                    spans: vec![TraceSpan {
                        name: "par.job".into(),
                        ts_us: 6_000.0,
                        dur_us: 18_000.0,
                    }],
                },
            ],
            ..Trace::default()
        };
        let svg = flame_panel(&trace);
        // Root row: one rect per thread; nesting carries the full path
        // in the tooltip.
        assert!(svg.contains("<title>main: 100.0 ms"), "{svg}");
        assert!(svg.contains("<title>main;discover: 100.0 ms"), "{svg}");
        assert!(svg.contains("<title>main;discover;train: 75.0 ms"), "{svg}");
        assert!(svg.contains("<title>cf-par-0;par.job: 18.0 ms"), "{svg}");
        // Empty trace degrades to a note, not a blank panel.
        assert!(flame_panel(&Trace::default()).contains("no events"));
    }

    #[test]
    fn accepts_newer_minor_versions_within_the_supported_major() {
        // Minor bumps are additive by contract: a 2.9 file (unknown
        // minor, known major) must parse, not be refused. Pinned so
        // future schema bumps stay additive within major 2.
        let dir = std::env::temp_dir();
        let path = dir.join("cf_report_minor_schema.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"event\":\"meta\",\"schema_version\":\"2.9\"}\n",
                "{\"event\":\"epoch\",\"epoch\":1,\"train_loss\":0.5,\"val_loss\":0.6,",
                "\"some_future_field\":42}\n"
            ),
        )
        .unwrap();
        let m = load_metrics(path.to_str().unwrap()).unwrap();
        assert_eq!(m.schema_version, "2.9");
        assert_eq!(m.epochs.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn refuses_newer_metrics_major() {
        let dir = std::env::temp_dir();
        let path = dir.join("cf_report_future_schema.jsonl");
        std::fs::write(
            &path,
            "{\"event\":\"meta\",\"schema_version\":\"3.0\"}\n{\"event\":\"epoch\",\"epoch\":1}\n",
        )
        .unwrap();
        let err = match load_metrics(path.to_str().unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("future schema accepted"),
        };
        assert!(format!("{err:?}").contains("schema_version 3.0"), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    const METRICS_LINES: [&str; 5] = [
        r#"{"event":"meta","schema_version":"2.2"}"#,
        r#"{"event":"epoch","epoch":1,"train_loss":0.5,"val_loss":0.6,"pool_hit":3,"pool_miss":1}"#,
        r#"{"event":"discovery","input":"x.csv","preset":"fmri","n_series":3,"edges":2,"wall_secs":1.5}"#,
        r#"{"event":"span_summary","spans":[{"span":"discover","count":1,"p50_secs":0.1,"p95_secs":0.2,"p99_secs":0.3}]}"#,
        r#"{"event":"metrics_summary","metrics":{"counters":{"par.jobs":12},"gauges":{"par.threads":4.0}}}"#,
    ];

    const DIAG_LINES: [&str; 3] = [
        r#"{"record":"header","format":"cfdiag","n_series":2}"#,
        r#"{"record":"epoch","epoch":1,"train_loss":0.5,"val_loss":0.6,"causal_proxy":[[0.1,0.2],[0.3,0.4]]}"#,
        r#"{"record":"detect","attn":[[0.5,0.1],[0.2,0.7]]}"#,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Damaged metrics and cfdiag streams parse to an `Err` or to
        /// data the dashboard renders; neither step panics. Intact
        /// streams always parse.
        #[test]
        fn damaged_jsonl_streams_are_errors_or_render(
            metrics in jsonl_damage::stream(METRICS_LINES.len()),
            diag in jsonl_damage::stream(DIAG_LINES.len()),
        ) {
            let intact = |picks: &[(usize, Damage)]| {
                picks.iter().all(|(_, d)| matches!(d, Damage::Keep))
            };
            let m = parse_metrics("m.jsonl", &jsonl_damage::build(&METRICS_LINES, &metrics));
            let d = parse_diag("d.cfdiag", &jsonl_damage::build(&DIAG_LINES, &diag));
            proptest::prop_assert!(m.is_ok() || !intact(&metrics));
            proptest::prop_assert!(d.is_ok() || !intact(&diag));
            if let Ok(m) = &m {
                let epochs = metrics.iter().filter(|(t, d)| *t == 1 && matches!(d, Damage::Keep));
                proptest::prop_assert!(m.epochs.len() >= epochs.count());
            }
            render_html(m.ok().as_ref(), d.ok().as_ref(), None, None);
        }
    }

    #[test]
    fn legacy_metrics_without_meta_parse_as_v1() {
        let dir = std::env::temp_dir();
        let path = dir.join("cf_report_legacy.jsonl");
        std::fs::write(
            &path,
            "{\"event\":\"epoch\",\"epoch\":1,\"train_loss\":0.5,\"val_loss\":0.6}\n",
        )
        .unwrap();
        let m = load_metrics(path.to_str().unwrap()).unwrap();
        assert_eq!(m.schema_version, "1.0");
        assert_eq!(m.epochs.len(), 1);
        assert!(m.epochs[0].pool_hit.is_none());
        std::fs::remove_file(&path).ok();
    }
}
