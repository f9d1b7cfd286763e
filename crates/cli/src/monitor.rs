//! `monitor` — terminal viewer for a live heartbeat JSONL stream.
//!
//! `discover --heartbeat-out hb.jsonl` appends one line-atomic JSON
//! record per sampler tick; this command tails that file and redraws a
//! compact status view: an RSS sparkline, the buffer-pool hit rate,
//! per-thread busy fractions (from `busy_ns` deltas between consecutive
//! samples), per-unit progress bars with the sampler's ETA, and a stall
//! banner with the watchdog's open-span dump.
//!
//! The reader is deliberately forgiving: a torn final line (the producer
//! mid-write) or an unknown event kind is skipped, so the monitor can run
//! against a file that is still being written. Follow mode exits when the
//! producer's `run_end` record appears.

use crate::CliError;
use serde_json::Value;
use std::collections::BTreeMap;

/// Parsed `monitor` arguments.
#[derive(Debug, Clone)]
pub struct MonitorArgs {
    /// Heartbeat JSONL path (written by `--heartbeat-out`).
    pub path: String,
    /// Render the current state once and exit instead of tailing.
    pub once: bool,
    /// Redraw period in follow mode, milliseconds.
    pub interval_ms: u64,
}

impl Default for MonitorArgs {
    fn default() -> Self {
        Self {
            path: String::new(),
            once: false,
            interval_ms: 500,
        }
    }
}

/// One worker thread's counters within a heartbeat sample.
#[derive(Debug, Clone)]
struct ThreadSample {
    name: String,
    busy_ns: u64,
}

/// One `heartbeat` record, reduced to what the view renders.
#[derive(Debug, Clone, Default)]
struct Sample {
    ts: f64,
    seq: u64,
    rss_bytes: u64,
    hwm_bytes: u64,
    pool_hit: u64,
    pool_miss: u64,
    stalled: bool,
    stall_secs: f64,
    threads: Vec<ThreadSample>,
    /// unit → (done, total, eta_secs) from the sample's progress array.
    progress: Vec<(String, u64, u64, Option<f64>)>,
    /// thread name → open-span stack (present only while stalled).
    open_spans: Vec<(String, Vec<String>)>,
}

/// Everything parsed out of the heartbeat file so far.
#[derive(Debug, Default)]
pub struct State {
    schema_version: String,
    period_ms: u64,
    watchdog: String,
    /// RSS of every sample seen, for the sparkline.
    rss_history: Vec<u64>,
    prev: Option<Sample>,
    last: Option<Sample>,
    /// Deterministic `progress` events (unit → done/total), kept as a
    /// fallback for ticks between samples.
    units: BTreeMap<String, (u64, u64)>,
    /// `Some(samples)` once the producer wrote its `run_end` record.
    ended: Option<u64>,
    fatal: bool,
}

impl State {
    /// True once the producer finished (cleanly or via the watchdog).
    pub fn ended(&self) -> bool {
        self.ended.is_some() || self.fatal
    }
}

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn get_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn get_str(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

/// Parses the heartbeat JSONL text accumulated so far. Unparsable or
/// unknown lines are skipped (the last line may be torn mid-write).
pub fn parse_heartbeat(text: &str) -> State {
    let mut st = State::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        match v.get("event").and_then(Value::as_str) {
            Some("meta") => {
                st.schema_version = get_str(&v, "schema_version");
                st.period_ms = get_u64(&v, "period_ms");
                st.watchdog = get_str(&v, "watchdog");
            }
            Some("progress") => {
                let unit = get_str(&v, "unit");
                st.units
                    .insert(unit, (get_u64(&v, "done"), get_u64(&v, "total")));
            }
            Some("heartbeat") => {
                let mut s = Sample {
                    ts: get_f64(&v, "ts"),
                    seq: get_u64(&v, "seq"),
                    rss_bytes: get_u64(&v, "rss_bytes"),
                    hwm_bytes: get_u64(&v, "hwm_bytes"),
                    pool_hit: get_u64(&v, "pool_hit"),
                    pool_miss: get_u64(&v, "pool_miss"),
                    stalled: v.get("stalled").and_then(Value::as_bool).unwrap_or(false),
                    stall_secs: get_f64(&v, "stall_secs"),
                    ..Sample::default()
                };
                if let Some(ts) = v.get("threads").and_then(Value::as_array) {
                    for t in ts {
                        s.threads.push(ThreadSample {
                            name: get_str(t, "name"),
                            busy_ns: get_u64(t, "busy_ns"),
                        });
                    }
                }
                if let Some(ps) = v.get("progress").and_then(Value::as_array) {
                    for p in ps {
                        s.progress.push((
                            get_str(p, "unit"),
                            get_u64(p, "done"),
                            get_u64(p, "total"),
                            p.get("eta_secs").and_then(Value::as_f64),
                        ));
                    }
                }
                if let Some(os) = v.get("open_spans").and_then(Value::as_array) {
                    for o in os {
                        let spans = o
                            .get("spans")
                            .and_then(Value::as_array)
                            .map(|a| {
                                a.iter()
                                    .filter_map(Value::as_str)
                                    .map(str::to_string)
                                    .collect()
                            })
                            .unwrap_or_default();
                        s.open_spans.push((get_str(o, "thread"), spans));
                    }
                }
                st.rss_history.push(s.rss_bytes);
                st.prev = st.last.take();
                st.last = Some(s);
            }
            Some("run_end") => st.ended = Some(get_u64(&v, "samples")),
            Some("watchdog_fatal") => st.fatal = true,
            _ => {}
        }
    }
    st
}

/// Scales bytes to a human unit.
fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.0} KiB", b / 1024.0)
    }
}

/// Eight-level block sparkline of the last `width` values, min–max scaled.
fn sparkline(values: &[u64], width: usize) -> String {
    const BLOCKS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let tail = &values[values.len().saturating_sub(width)..];
    if tail.is_empty() {
        return String::new();
    }
    let lo = *tail.iter().min().expect("non-empty");
    let hi = *tail.iter().max().expect("non-empty");
    tail.iter()
        .map(|&v| {
            let level = if hi == lo {
                0
            } else {
                (((v - lo) as f64 / (hi - lo) as f64) * 7.0).round() as usize
            };
            BLOCKS[level.min(7)]
        })
        .collect()
}

/// `[=====>....]`-style bar; full width when done == total.
fn bar(done: u64, total: u64, width: usize) -> String {
    let filled = if total == 0 {
        0
    } else {
        ((done as f64 / total as f64) * width as f64).round() as usize
    }
    .min(width);
    let mut s = String::from("[");
    for i in 0..width {
        s.push(if i < filled { '=' } else { '.' });
    }
    s.push(']');
    s
}

fn fmt_eta(secs: f64) -> String {
    if secs >= 90.0 {
        format!("{:.0}m{:02.0}s", (secs / 60.0).floor(), secs % 60.0)
    } else {
        format!("{secs:.1}s")
    }
}

/// Renders the parsed state as the monitor's text frame. Pure, so the
/// view is unit-testable without a terminal or a live producer.
pub fn render(st: &State, path: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "heartbeat {path} — schema {}, period {} ms, watchdog {}\n",
        if st.schema_version.is_empty() {
            "?"
        } else {
            &st.schema_version
        },
        st.period_ms,
        if st.watchdog.is_empty() {
            "?"
        } else {
            &st.watchdog
        },
    ));
    let Some(last) = &st.last else {
        out.push_str("(no samples yet)\n");
        return out;
    };
    out.push_str(&format!(
        "sample #{}  rss {} (peak {})  {}\n",
        last.seq,
        fmt_bytes(last.rss_bytes),
        fmt_bytes(last.hwm_bytes),
        sparkline(&st.rss_history, 48),
    ));
    let lookups = last.pool_hit + last.pool_miss;
    if lookups > 0 {
        out.push_str(&format!(
            "pool  {:.1}% hit ({} hits / {} misses)\n",
            100.0 * last.pool_hit as f64 / lookups as f64,
            last.pool_hit,
            last.pool_miss,
        ));
    }
    // Per-thread busy fraction over the last sampling interval: the delta
    // of each thread's cumulative busy_ns divided by the wall delta.
    if let Some(prev) = &st.prev {
        let wall_ns = ((last.ts - prev.ts) * 1e9).max(1.0);
        let prev_busy: BTreeMap<&str, u64> = prev
            .threads
            .iter()
            .map(|t| (t.name.as_str(), t.busy_ns))
            .collect();
        for t in &last.threads {
            let before = prev_busy.get(t.name.as_str()).copied().unwrap_or(0);
            let frac = ((t.busy_ns.saturating_sub(before)) as f64 / wall_ns).clamp(0.0, 1.0);
            out.push_str(&format!(
                "thread {:<18} {} {:>4.0}% busy\n",
                t.name,
                bar((frac * 100.0).round() as u64, 100, 20),
                frac * 100.0,
            ));
        }
    }
    // Progress bars: the sample's own array carries the sampler ETA; the
    // deterministic progress events fill in units between samples.
    let mut shown = std::collections::BTreeSet::new();
    for (unit, done, total, eta) in &last.progress {
        shown.insert(unit.clone());
        let eta_txt = match eta {
            Some(e) if *done < *total => format!("  eta {}", fmt_eta(*e)),
            _ => String::new(),
        };
        out.push_str(&format!(
            "{:<22} {} {done}/{total}{eta_txt}\n",
            unit,
            bar(*done, *total, 24),
        ));
    }
    for (unit, (done, total)) in &st.units {
        if !shown.contains(unit) {
            out.push_str(&format!(
                "{:<22} {} {done}/{total}\n",
                unit,
                bar(*done, *total, 24),
            ));
        }
    }
    if last.stalled {
        out.push_str(&format!(
            "*** STALLED: no progress for {:.1}s ***\n",
            last.stall_secs
        ));
        for (thread, spans) in &last.open_spans {
            out.push_str(&format!("  {thread}: {}\n", spans.join(" > ")));
        }
    }
    if st.fatal {
        out.push_str("run killed by the stall watchdog (CF_WATCHDOG=fatal)\n");
    } else if let Some(samples) = st.ended {
        out.push_str(&format!("run ended cleanly ({samples} samples)\n"));
    }
    out
}

/// Executes `monitor`: renders once under `--once`, otherwise tails the
/// file, redrawing every `interval_ms` until the producer's `run_end`
/// (or `watchdog_fatal`) record appears. Returns the final frame.
pub fn run_monitor(a: &MonitorArgs) -> Result<String, CliError> {
    if a.once {
        let text = std::fs::read_to_string(&a.path)
            .map_err(|e| CliError::Run(format!("reading {}: {e}", a.path)))?;
        return Ok(render(&parse_heartbeat(&text), &a.path));
    }
    loop {
        let Ok(text) = std::fs::read_to_string(&a.path) else {
            // Producer may not have created the file yet; keep waiting.
            println!("waiting for {} …", a.path);
            std::thread::sleep(std::time::Duration::from_millis(a.interval_ms));
            continue;
        };
        let st = parse_heartbeat(&text);
        let frame = render(&st, &a.path);
        if st.ended() {
            return Ok(frame);
        }
        // ANSI clear + home, then the frame — a cheap full-screen redraw.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write;
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_millis(a.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl_damage::{self, Damage};

    fn fixture() -> String {
        [
            r#"{"event":"meta","schema_version":"2.2","kind":"heartbeat","period_ms":250,"stall_window_secs":5.0,"watchdog":"warn","ts":100.0}"#,
            r#"{"event":"progress","unit":"train.epoch","done":1,"total":4}"#,
            r#"{"event":"heartbeat","ts":100.25,"seq":0,"rss_bytes":10485760,"hwm_bytes":20971520,"pool_hit":30,"pool_miss":10,"par_threads":2,"progress_epoch":5,"stalled":false,"stall_secs":0.1,"threads":[{"name":"cf-par-0","epoch":3,"busy_ns":100000000}],"progress":[{"unit":"train.epoch","done":1,"total":4,"eta_secs":0.75}]}"#,
            r#"{"event":"progress","unit":"train.epoch","done":2,"total":4}"#,
            r#"{"event":"progress","unit":"detect.window","done":3,"total":9}"#,
            r#"{"event":"heartbeat","ts":100.50,"seq":1,"rss_bytes":31457280,"hwm_bytes":31457280,"pool_hit":70,"pool_miss":10,"par_threads":2,"progress_epoch":9,"stalled":false,"stall_secs":0.1,"threads":[{"name":"cf-par-0","epoch":6,"busy_ns":225000000}],"progress":[{"unit":"train.epoch","done":2,"total":4,"eta_secs":0.5}]}"#,
        ]
        .join("\n")
    }

    #[test]
    fn parses_and_renders_a_live_stream() {
        let st = parse_heartbeat(&fixture());
        assert_eq!(st.schema_version, "2.2");
        assert_eq!(st.period_ms, 250);
        assert_eq!(st.rss_history, vec![10485760, 31457280]);
        assert!(!st.ended());

        let frame = render(&st, "hb.jsonl");
        // Header, latest sample, pool hit rate from the latest counters.
        assert!(frame.contains("schema 2.2"), "{frame}");
        assert!(frame.contains("sample #1"), "{frame}");
        assert!(frame.contains("rss 30.0 MiB (peak 30.0 MiB)"), "{frame}");
        assert!(frame.contains("87.5% hit"), "{frame}");
        // Busy fraction: (225ms − 100ms) / 250ms wall = 50%.
        assert!(frame.contains("cf-par-0"), "{frame}");
        assert!(frame.contains("50% busy"), "{frame}");
        // The sample's progress row carries the ETA; the fresher progress
        // *event* for detect.window shows without one.
        assert!(frame.contains("train.epoch"), "{frame}");
        assert!(frame.contains("2/4"), "{frame}");
        assert!(frame.contains("eta 0.5s"), "{frame}");
        assert!(frame.contains("detect.window"), "{frame}");
        assert!(frame.contains("3/9"), "{frame}");
        assert!(!frame.contains("STALLED"), "{frame}");
    }

    const HEARTBEAT_LINES: [&str; 5] = [
        r#"{"event":"meta","schema_version":"2.2","kind":"heartbeat","period_ms":250,"watchdog":"warn"}"#,
        r#"{"event":"progress","unit":"train.epoch","done":1,"total":4}"#,
        r#"{"event":"heartbeat","ts":100.25,"seq":0,"rss_bytes":10485760,"hwm_bytes":20971520,"pool_hit":30,"pool_miss":10,"stalled":true,"stall_secs":6.0,"threads":[{"name":"cf-par-0","busy_ns":100000000}],"progress":[{"unit":"train.epoch","done":1,"total":4,"eta_secs":0.75}],"open_spans":[{"thread":"main","spans":["discover","train"]}]}"#,
        r#"{"event":"run_end","samples":2}"#,
        r#"{"event":"watchdog_fatal"}"#,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A damaged heartbeat stream skips the lines it cannot read and
        /// renders; every intact sample is kept.
        #[test]
        fn damaged_heartbeat_streams_skip_lines_and_render(
            picks in jsonl_damage::stream(HEARTBEAT_LINES.len()),
        ) {
            let st = parse_heartbeat(&jsonl_damage::build(&HEARTBEAT_LINES, &picks));
            let intact = picks.iter().filter(|(t, d)| *t == 2 && matches!(d, Damage::Keep));
            proptest::prop_assert!(st.rss_history.len() >= intact.count());
            render(&st, "hb.jsonl");
        }
    }

    #[test]
    fn torn_final_line_is_skipped_not_fatal() {
        let text = format!("{}\n{{\"event\":\"heartbe", fixture());
        let st = parse_heartbeat(&text);
        assert_eq!(st.rss_history.len(), 2, "torn line must be ignored");
    }

    #[test]
    fn stall_banner_names_the_open_spans() {
        let text = format!(
            "{}\n{}",
            fixture(),
            r#"{"event":"heartbeat","ts":106.0,"seq":2,"rss_bytes":31457280,"hwm_bytes":31457280,"pool_hit":70,"pool_miss":10,"progress_epoch":9,"stalled":true,"stall_secs":5.5,"threads":[{"name":"cf-par-0","epoch":6,"busy_ns":225000000}],"progress":[],"open_spans":[{"thread":"main","spans":["discover","train.epoch"]}]}"#,
        );
        let frame = render(&parse_heartbeat(&text), "hb.jsonl");
        assert!(frame.contains("STALLED: no progress for 5.5s"), "{frame}");
        assert!(frame.contains("main: discover > train.epoch"), "{frame}");
    }

    #[test]
    fn run_end_and_watchdog_fatal_both_finish_the_stream() {
        let clean = format!(
            "{}\n{}",
            fixture(),
            r#"{"event":"run_end","ts":101.0,"samples":2}"#
        );
        let st = parse_heartbeat(&clean);
        assert!(st.ended());
        assert!(
            render(&st, "hb.jsonl").contains("run ended cleanly (2 samples)"),
            "clean end note missing"
        );

        let killed = format!(
            "{}\n{}",
            fixture(),
            r#"{"event":"watchdog_fatal","ts":101.0,"stall_secs":5.0}"#
        );
        let st = parse_heartbeat(&killed);
        assert!(st.ended());
        assert!(
            render(&st, "hb.jsonl").contains("killed by the stall watchdog"),
            "fatal note missing"
        );
    }

    #[test]
    fn once_mode_renders_a_file_end_to_end() {
        let path =
            std::env::temp_dir().join(format!("cf_monitor_once_{}.jsonl", std::process::id()));
        std::fs::write(&path, fixture()).unwrap();
        let frame = run_monitor(&MonitorArgs {
            path: path.to_string_lossy().into_owned(),
            once: true,
            interval_ms: 500,
        })
        .unwrap();
        assert!(frame.contains("sample #1"), "{frame}");
        std::fs::remove_file(&path).ok();

        // Missing file is a run error, not a panic.
        assert!(run_monitor(&MonitorArgs {
            path: "/nonexistent/hb.jsonl".into(),
            once: true,
            interval_ms: 500,
        })
        .is_err());
    }

    #[test]
    fn sparkline_and_bar_are_stable() {
        assert_eq!(sparkline(&[0, 7, 3], 48).chars().count(), 3);
        assert_eq!(sparkline(&[5, 5], 48), "\u{2581}\u{2581}");
        assert_eq!(bar(0, 4, 4), "[....]");
        assert_eq!(bar(2, 4, 4), "[==..]");
        assert_eq!(bar(4, 4, 4), "[====]");
        assert_eq!(bar(9, 0, 4), "[....]", "zero total never overflows");
    }
}
