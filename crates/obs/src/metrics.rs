//! Named counters and gauges.
//!
//! The registry belongs to the current [`Recorder`]. Handles are cheap
//! `Arc` clones of its slots; updates are lock-free atomics (the registry
//! mutex is touched only on lookup). Duration percentiles live with the
//! spans ([`crate::hist`]).

use crate::{lock, Recorder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone event counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins float value (0.0 until set).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Name-sorted, so snapshots list metrics in a stable order.
#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
}

/// The slot named `name` in `map`, created on first use.
fn slot<T: Clone>(map: &mut BTreeMap<String, T>, name: &str, new: impl FnOnce() -> T) -> T {
    match map.get(name) {
        Some(slot) => slot.clone(),
        None => map.entry(name.to_string()).or_insert_with(new).clone(),
    }
}

/// The current recorder's counter named `name` (created on first use).
pub fn counter(name: &str) -> Counter {
    let recorder = Recorder::current();
    let mut reg = lock(&recorder.metrics);
    slot(&mut reg.counters, name, Counter::default)
}

/// The current recorder's gauge named `name` (created on first use,
/// initial value 0).
pub fn gauge(name: &str) -> Gauge {
    let recorder = Recorder::current();
    let mut reg = lock(&recorder.metrics);
    slot(&mut reg.gauges, name, Gauge::default)
}

/// Serialises the current recorder's metrics as a JSON object
/// `{counters: {...}, gauges: {...}, histograms: {}}`.
pub fn snapshot_json() -> String {
    let recorder = Recorder::current();
    let reg = lock(&recorder.metrics);
    let counters = reg
        .counters
        .iter()
        .fold(crate::json::Obj::new(), |o, (name, c)| o.u64(name, c.get()));
    let gauges = reg
        .gauges
        .iter()
        .fold(crate::json::Obj::new(), |o, (name, g)| o.f64(name, g.get()));
    crate::json::Obj::new()
        .raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        // Kept empty so the metrics_summary shape stays schema 2.2.
        .raw("histograms", "{}")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_atomically_across_threads() {
        let c = counter("t_metrics_thread_counter");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter("t_metrics_thread_counter").get(), 80_000);
    }

    #[test]
    fn gauge_holds_last_value() {
        let g = gauge("t_metrics_gauge");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(gauge("t_metrics_gauge").get(), -2.25);
    }
}
