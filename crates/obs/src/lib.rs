//! `cf-obs`: zero-dependency observability for the CausalFormer stack.
//!
//! One instrumentation primitive, [`span!`], feeds one per-thread record
//! ([`mod@span`]); every timing output is a view that merges the records:
//!
//! * `span_summary` ([`span::summary_json`]) and `span_hist`
//!   ([`hist::snapshot_json`]) — count / total / min / max and `log2us-v1`
//!   percentiles per dotted span path (`discover.train.epoch`);
//! * `op_profile` ([`span::ops_json`]) — count, time and FLOPs per tape
//!   op kind;
//! * the Chrome timeline ([`trace::drain`], [`export`]) — each thread's
//!   bounded ring of complete spans, instants and counter samples;
//! * the heartbeat's per-thread progress and the watchdog's thread dump
//!   ([`heartbeat`], [`span::open_spans`]).
//!
//! Two switches: ring recording ([`trace::set_enabled`]) and op detail
//! ([`span::set_op_detail`]); [`reset`] clears what a run accumulated.
//! Beside the spans: counters and gauges ([`metrics`]), the JSON Lines
//! sink behind `--metrics-out` ([`sink`]), trace analysis ([`analyze`]).
//!
//! Log verbosity is controlled by [`log`] (`CF_LOG` env var or
//! [`log::set_level`]); the [`error!`]/[`warn!`]/[`info!`]/[`debug!`]/
//! [`trace!`](macro@trace) macros format lazily, only when the level is
//! enabled.
//!
//! The crate deliberately has no dependencies (not even the vendored
//! ones) so it can sit below `cf-tensor` in the workspace graph.

pub mod analyze;
pub mod export;
pub mod heartbeat;
pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod trace;

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Locks `m`, recovering the data from a poisoned lock: a panic on
/// another thread must not take observability down with it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The process-wide clock anchor: one wall-clock sample (Unix seconds)
/// paired with the `Instant` taken at the same moment. Every timestamp
/// the crate emits — metrics-event `ts` fields, span and trace times,
/// the trace epoch, heartbeat sample times — derives from this pair, so
/// the subsystems never disagree about when "now" is and timelines
/// cannot step backward when NTP adjusts the system clock mid-run.
fn anchor() -> &'static (f64, Instant) {
    static ANCHOR: OnceLock<(f64, Instant)> = OnceLock::new();
    ANCHOR.get_or_init(|| {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64());
        (unix, Instant::now())
    })
}

/// Seconds since the Unix epoch, as f64 (for event timestamps).
/// Monotone: the one wall-clock sample plus an `Instant` offset.
pub fn unix_time() -> f64 {
    let (unix, origin) = anchor();
    unix + origin.elapsed().as_secs_f64()
}

/// Nanoseconds elapsed since the clock anchor: the timebase of span and
/// trace events.
pub fn anchor_ns() -> u64 {
    anchor().1.elapsed().as_nanos() as u64
}

/// Wall-clock seconds since the Unix epoch at the clock anchor — where
/// wall time enters trace output, as the epoch anchor only.
pub fn anchor_unix_time() -> f64 {
    anchor().0
}

/// Clears what a run accumulated: every span path and op aggregate,
/// every trace ring and its drop count, and the metrics registry. Open
/// spans, thread names, heartbeat progress epochs and both switches are
/// left alone.
pub fn reset() {
    span::reset();
    trace::reset();
    metrics::reset();
}

/// Serialises tests that flip process-global observability state (the
/// ring and op-detail switches, the heartbeat sink) so they can't race
/// each other under the parallel test runner.
#[cfg(test)]
pub(crate) fn test_lock() -> &'static std::sync::Mutex<()> {
    static LOCK: OnceLock<std::sync::Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
}
