//! Chrome `trace_event` export for the [trace recorder](mod@crate::trace).
//!
//! Produces the JSON Object Format (`{"traceEvents":[...]}`) that
//! `chrome://tracing` and Perfetto load directly: one `M` (metadata)
//! event naming each thread, then `X` (complete), `i` (instant) and
//! `C` (counter) events with microsecond timestamps. All timestamps
//! are offsets from the process `Instant` anchor; the wall-clock epoch
//! of that anchor is recorded once as the `traceEpochUnix` top-level
//! field so absolute times can be reconstructed without ever letting a
//! wall-clock step bend the timeline.

use crate::json::{Arr, Obj};
use crate::trace::{Kind, ThreadTrace};

const PID: u64 = 1;

fn base_event(name: &str, ph: &str, tid: u64, ts_us: f64) -> Obj {
    Obj::new()
        .str("name", name)
        .str("ph", ph)
        .u64("pid", PID)
        .u64("tid", tid)
        .f64("ts", ts_us)
}

/// Serialises drained thread timelines as Chrome trace JSON. Timelines
/// with no events (e.g. workers of an already-replaced pool) are
/// omitted entirely.
pub fn chrome_trace_json(threads: &[ThreadTrace]) -> String {
    let threads: Vec<&ThreadTrace> = threads.iter().filter(|t| !t.events.is_empty()).collect();
    let mut events = Arr::new();
    for t in &threads {
        events = events.raw(
            &Obj::new()
                .str("name", "thread_name")
                .str("ph", "M")
                .u64("pid", PID)
                .u64("tid", t.tid)
                .raw("args", &Obj::new().str("name", &t.name).finish())
                .finish(),
        );
    }
    for t in &threads {
        for ev in &t.events {
            let ts_us = ev.ts_ns as f64 / 1_000.0;
            let obj = match ev.kind {
                Kind::Complete { dur_ns } => base_event(ev.name.as_str(), "X", t.tid, ts_us)
                    .f64("dur", dur_ns as f64 / 1_000.0),
                Kind::Instant => base_event(ev.name.as_str(), "i", t.tid, ts_us).str("s", "t"),
                Kind::Counter { value } => base_event(ev.name.as_str(), "C", t.tid, ts_us)
                    .raw("args", &Obj::new().f64("value", value).finish()),
            };
            events = events.raw(&obj.finish());
        }
    }
    Obj::new()
        .raw("traceEvents", &events.finish())
        .str("displayTimeUnit", "ms")
        .f64("traceEpochUnix", crate::anchor_unix_time())
        .u64("droppedEvents", crate::trace::dropped())
        // Effective parallelism of the recording host, so analysis can
        // flag oversubscribed runs (threads > cores) whose scaling
        // numbers must not be trusted.
        .u64(
            "hostCores",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .finish()
}

/// Drains the recorder and writes the Chrome trace to `path`.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    let threads = crate::trace::drain();
    std::fs::write(path, chrome_trace_json(&threads))
}

/// Renders a trace in the collapsed-stacks ("folded") flamegraph
/// format: one `thread;span;span value` line per distinct stack, where
/// the value is the integer self time in µs. The output loads directly
/// into `flamegraph.pl`, inferno, or speedscope. Lines come out in
/// lexical path order (deterministic); frames are sanitised so the
/// format's two delimiters — `;` between frames, the final space
/// before the value — can't be forged by a span name.
pub fn folded_stacks(trace: &crate::analyze::Trace) -> String {
    let mut out = String::new();
    for fs in crate::analyze::collapse_stacks(trace) {
        let value = fs.self_us.round() as u64;
        if value == 0 {
            // Sub-microsecond stacks round to zero weight; flamegraph
            // tools drop them anyway.
            continue;
        }
        let mut first = true;
        for frame in &fs.frames {
            if !first {
                out.push(';');
            }
            first = false;
            for c in frame.chars() {
                out.push(match c {
                    ';' => ':',
                    ' ' => '_',
                    c => c,
                });
            }
        }
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Event, Name};

    fn sample_threads() -> Vec<ThreadTrace> {
        vec![
            ThreadTrace {
                tid: 1,
                name: "main".into(),
                events: vec![
                    Event {
                        name: Name::Static("epoch"),
                        ts_ns: 1_500,
                        kind: Kind::Complete { dur_ns: 2_000_000 },
                    },
                    Event {
                        name: Name::Owned("cell:lorenz96".into()),
                        ts_ns: 2_500_000,
                        kind: Kind::Instant,
                    },
                ],
            },
            ThreadTrace {
                tid: 2,
                name: "cf-par-0".into(),
                events: vec![Event {
                    name: Name::Static("mem.pool.hit"),
                    ts_ns: 3_000_000,
                    kind: Kind::Counter { value: 17.0 },
                }],
            },
        ]
    }

    #[test]
    fn t_chrome_json_has_metadata_and_event_phases() {
        let json = chrome_trace_json(&sample_threads());
        assert!(json.starts_with(r#"{"traceEvents":["#));
        // Two thread_name metadata records.
        assert_eq!(json.matches(r#""ph":"M""#).count(), 2);
        assert!(json.contains(r#""args":{"name":"cf-par-0"}"#));
        // Complete span: µs timestamps and duration.
        assert!(json.contains(r#""name":"epoch","ph":"X""#));
        assert!(json.contains(r#""ts":1.5"#));
        assert!(json.contains(r#""dur":2000"#));
        // Instant and counter phases.
        assert!(json.contains(r#""name":"cell:lorenz96","ph":"i""#));
        assert!(json.contains(r#""name":"mem.pool.hit","ph":"C""#));
        assert!(json.contains(r#""args":{"value":17}"#));
        assert!(json.contains(r#""displayTimeUnit":"ms""#));
        assert!(json.contains(r#""traceEpochUnix":"#));
    }

    #[test]
    fn t_folded_stacks_format_and_sanitisation() {
        let trace = crate::analyze::Trace {
            threads: vec![crate::analyze::Thread {
                tid: 1,
                name: "main".into(),
                spans: vec![
                    crate::analyze::Span {
                        name: "outer".into(),
                        ts_us: 0.0,
                        dur_us: 100.0,
                    },
                    crate::analyze::Span {
                        name: "cell;a b".into(),
                        ts_us: 10.0,
                        dur_us: 40.0,
                    },
                ],
            }],
            ..crate::analyze::Trace::default()
        };
        let folded = folded_stacks(&trace);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec!["main;outer 60", "main;outer;cell:a_b 40"],
            "folded output: {folded:?}"
        );
        // Every line parses as <stack> <integer>: the format contract.
        for line in lines {
            let (stack, value) = line.rsplit_once(' ').expect("space before value");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("integer value");
        }
    }

    /// The drop path end-to-end: pushing past the ring capacity forces
    /// `dropped() > 0`; export must still produce valid Chrome JSON
    /// that reports the drop count instead of silently skewing.
    #[test]
    fn t_overflowing_ring_still_exports_valid_chrome_json() {
        use crate::trace;
        let _run = crate::Recorder::new().enter();
        trace::set_enabled(true);
        let flood = trace::CAPACITY + 28;
        for i in 0..flood {
            let _g = crate::span!(format!("flood.{i}"));
        }
        trace::set_enabled(false);
        let dropped = trace::dropped();
        assert_eq!(dropped, 28, "a full ring drops one event per push");

        let threads = trace::drain();
        let json = chrome_trace_json(&threads);
        let parsed: serde_json::Value =
            serde_json::from_str(&json).expect("chrome JSON stays valid under drops");
        assert_eq!(parsed["droppedEvents"].as_u64(), Some(dropped));
        let events = parsed["traceEvents"].as_array().unwrap();
        // CAPACITY surviving spans + the thread_name metadata record.
        assert_eq!(
            events.len(),
            trace::CAPACITY + 1,
            "ring capacity bounds exported events"
        );
        assert!(
            json.contains(&format!("flood.{}", flood - 1)) && !json.contains("\"flood.0\""),
            "newest events survive, oldest are the ones dropped"
        );
    }
}
