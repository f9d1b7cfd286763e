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
//! All of it, with the two switches — ring recording
//! ([`trace::set_enabled`]) and op detail ([`span::set_op_detail`]) — the
//! counters and gauges ([`metrics`]) and the JSON Lines sinks ([`sink`]),
//! belongs to a [`Recorder`]. Every call acts on the calling thread's
//! current recorder: a run enters a fresh one (`Recorder::new().enter()`)
//! and sees nothing of any other; a thread that enters none shares the
//! process default. That includes the buffer pool's `mem.*` traffic,
//! which cf-tensor adds to the calling thread's record
//! ([`metrics::add_mem`]). Process-wide by design: the clock anchor, the
//! log level ([`log`]) and, in other crates, cf-par's pool size and the
//! buffer pool's free lists.
//! Trace analysis: [`analyze`].
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
mod recorder;
pub mod sink;
pub mod span;
pub mod trace;

pub use recorder::{Entered, Recorder};
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
