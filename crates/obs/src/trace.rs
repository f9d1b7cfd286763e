//! Per-thread trace timelines with bounded memory.
//!
//! Each thread's timeline is the ring in its [span](mod@crate::span) record:
//! scope and scheduler spans push a `Complete` event when they close,
//! and [`instant`]/[`counter`] push markers and samples. Recording
//! touches only the calling thread's record; when its ring holds
//! [`CAPACITY`] events the **oldest** is dropped and counted
//! ([`dropped`]). Span aggregates fold outside the ring, so a drop
//! loses timeline detail, never counts. Op spans never enter the ring.
//!
//! The ring is gated behind one relaxed atomic load: with recording
//! off, [`instant`]/[`counter`] return after a single `AtomicBool`
//! check. Timestamps are nanosecond offsets from the process
//! [`crate::anchor_ns`] `Instant` anchor, so timelines are monotone
//! regardless of wall-clock steps; wall time appears only as the trace
//! epoch anchor in the exported file (see [`crate::export`]).

use crate::lock;
use crate::span::{records, with_state};
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-thread ring capacity (events).
pub const CAPACITY: usize = 16_384;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Event name: `&'static str` for the common case (no allocation on
/// the hot path), owned for dynamic labels such as bench cell names.
#[derive(Debug, Clone)]
pub enum Name {
    /// Compile-time name; the hot-path default.
    Static(&'static str),
    /// Heap-allocated name for dynamic labels.
    Owned(String),
}

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Owned(s) => s,
        }
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Self {
        Name::Static(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::Owned(s)
    }
}

/// What one recorded event is.
#[derive(Debug, Clone)]
pub enum Kind {
    /// A completed span: `ts_ns` is the start, `dur_ns` the length.
    Complete {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A zero-duration marker.
    Instant,
    /// A sampled counter value at `ts_ns`.
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event name (timeline label).
    pub name: Name,
    /// Nanoseconds since the process clock anchor.
    pub ts_ns: u64,
    /// Event payload.
    pub kind: Kind,
}

/// Turns ring recording on or off. Off is the default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether ring recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Events dropped (oldest first) across all threads since the last
/// [`reset`].
pub fn dropped() -> u64 {
    records().iter().map(|r| lock(&r.state).dropped).sum()
}

fn record(name: &'static str, kind: Kind) {
    let ev = Event {
        name: Name::Static(name),
        ts_ns: crate::anchor_ns(),
        kind,
    };
    with_state(|s| s.push_event(ev));
}

/// Records a zero-duration marker on the calling thread's timeline.
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        record(name, Kind::Instant);
    }
}

/// Samples a counter value onto the calling thread's timeline.
#[inline]
pub fn counter(name: &'static str, value: f64) {
    if enabled() {
        record(name, Kind::Counter { value });
    }
}

/// One thread's drained timeline.
pub struct ThreadTrace {
    /// Stable per-process thread id (1-based registration order).
    pub tid: u64,
    /// Timeline name (thread name or [`crate::span::register_thread`]
    /// override).
    pub name: String,
    /// Events in record order.
    pub events: Vec<Event>,
}

/// Drains every thread's ring (leaving it empty but registered) and
/// returns the events grouped per thread, ordered by tid.
pub fn drain() -> Vec<ThreadTrace> {
    let mut out: Vec<ThreadTrace> = records()
        .iter()
        .map(|r| {
            let mut s = lock(&r.state);
            ThreadTrace {
                tid: r.tid,
                name: s.name.clone(),
                events: s.ring.drain(..).collect(),
            }
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// Clears every ring and its drop count. The enabled flag, the span
/// aggregates and registered threads are left alone.
pub fn reset() {
    for r in records() {
        let mut s = lock(&r.state);
        s.ring.clear();
        s.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{open_spans, register_thread};

    /// The ring switch is process-global; run every scenario under one
    /// test function so enabling/disabling can't race between tests.
    #[test]
    fn t_trace_recorder_end_to_end() {
        let _guard = crate::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        // Disabled: nothing is recorded, nothing is dropped.
        reset();
        set_enabled(false);
        instant("t_trace.off");
        counter("t_trace.off_counter", 1.0);
        drop(crate::span!("t_trace.off_span"));
        let disabled_events: usize = drain().iter().map(|t| t.events.len()).sum();
        assert_eq!(disabled_events, 0, "disabled recorder captured events");

        // Enabled: spans, instants and counters land on this thread's
        // timeline in record order with monotone timestamps.
        set_enabled(true);
        register_thread("t_trace_main");
        {
            let _g = crate::span!("t_trace.outer");
            instant("t_trace.marker");
            counter("t_trace.value", 42.5);
        }
        let traces = drain();
        let mine = traces
            .iter()
            .find(|t| t.name == "t_trace_main")
            .expect("calling thread registered");
        assert_eq!(mine.events.len(), 3);
        // Drop order: instant, counter, then the enclosing span.
        assert_eq!(mine.events[0].name.as_str(), "t_trace.marker");
        assert!(matches!(mine.events[0].kind, Kind::Instant));
        assert_eq!(mine.events[1].name.as_str(), "t_trace.value");
        match mine.events[1].kind {
            Kind::Counter { value } => assert_eq!(value, 42.5),
            ref k => panic!("expected counter, got {k:?}"),
        }
        assert_eq!(mine.events[2].name.as_str(), "t_trace.outer");
        match mine.events[2].kind {
            Kind::Complete { dur_ns } => {
                assert!(mine.events[2].ts_ns <= mine.events[0].ts_ns);
                assert!(mine.events[2].ts_ns + dur_ns >= mine.events[1].ts_ns);
            }
            ref k => panic!("expected complete span, got {k:?}"),
        }

        // Worker threads get their own timelines with their own names.
        let handle = std::thread::Builder::new()
            .name("t-trace-worker".into())
            .spawn(|| {
                register_thread("t_trace_worker");
                instant("t_trace.from_worker");
            })
            .unwrap();
        handle.join().unwrap();
        let traces = drain();
        let worker = traces
            .iter()
            .find(|t| t.name == "t_trace_worker")
            .expect("worker thread registered");
        assert_eq!(worker.events.len(), 1);
        assert_eq!(worker.events[0].name.as_str(), "t_trace.from_worker");

        // Overflow drops the OLDEST events and counts every drop.
        reset();
        assert_eq!(dropped(), 0);
        for _ in 0..CAPACITY + 12 {
            instant("t_trace.flood");
        }
        instant("t_trace.newest");
        assert_eq!(dropped(), 13, "CAPACITY + 13 pushes into CAPACITY slots");
        let traces = drain();
        let mine = traces.iter().find(|t| t.name == "t_trace_main").unwrap();
        assert_eq!(
            mine.events.len(),
            CAPACITY,
            "ring holds exactly its capacity"
        );
        assert_eq!(
            mine.events.last().unwrap().name.as_str(),
            "t_trace.newest",
            "newest event survives an overflowing ring"
        );

        // The open-span stack is kept with the ring OFF: spans push and
        // pop it without recording events.
        set_enabled(false);
        {
            let _outer = crate::span!("t_trace.open_outer");
            let _inner = crate::span!("t_trace.open_inner".to_string());
            let dump = open_spans();
            let mine = dump
                .iter()
                .find(|t| t.thread == "t_trace_main")
                .expect("open stack visible for this thread");
            assert_eq!(
                mine.spans,
                vec![
                    "t_trace.open_outer".to_string(),
                    "t_trace.open_inner".to_string()
                ],
                "open stack lists outermost first"
            );
        }
        assert!(
            !open_spans().iter().any(|t| t.thread == "t_trace_main"),
            "guards pop the open stack on drop"
        );
        let tracked_events: usize = drain().iter().map(|t| t.events.len()).sum();
        assert_eq!(
            tracked_events, 0,
            "an open stack alone records no ring events"
        );
        reset();
    }
}
