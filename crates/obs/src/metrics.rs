//! Named counters and gauges, and the buffer pool's traffic.
//!
//! The registry belongs to the current [`Recorder`]. Handles are cheap
//! `Arc` clones of its slots; updates are lock-free atomics (the registry
//! mutex is touched only on lookup). Duration percentiles live with the
//! spans ([`crate::hist`]).
//!
//! The buffer pool (`cf_tensor::pool`) counts too often for a lookup: it
//! adds each event to the calling thread's own record in its current
//! recorder ([`add_mem`]), and the snapshot reports the recorder's sum
//! ([`mem`]) as the `mem.pool.hit`, `mem.pool.miss` and `mem.alloc.count`
//! counters and the `mem.pool.bytes_outstanding` gauge.

use crate::recorder::try_local;
use crate::{lock, Recorder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
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

/// Buffer-pool traffic: one event's worth, or a recorder's sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mem {
    /// Requests served from a free list (`mem.pool.hit`).
    pub hit: u64,
    /// Requests that found the free lists empty (`mem.pool.miss`).
    pub miss: u64,
    /// Fresh heap allocations (`mem.alloc.count`).
    pub alloc: u64,
    /// Bytes handed out less bytes handed back
    /// (`mem.pool.bytes_outstanding`): a recorder's net, negative when it
    /// dropped more buffers than it took.
    pub bytes: i64,
}

/// One thread's [`Mem`] in one recorder. Only that thread writes it, so
/// an update is a relaxed load and store, no read-modify-write; readers
/// see each field whole.
#[derive(Default)]
pub(crate) struct MemCells {
    hit: AtomicU64,
    miss: AtomicU64,
    alloc: AtomicU64,
    bytes: AtomicI64,
}

/// Adds `m` to the calling thread's record in its current recorder: no
/// lock, no read-modify-write. Does nothing while the thread's locals are
/// torn down, so a buffer dropped by a thread-local destructor cannot
/// panic.
#[inline]
pub fn add_mem(m: Mem) {
    try_local(|_, r| {
        let c = &r.mem;
        for (cell, n) in [(&c.hit, m.hit), (&c.miss, m.miss), (&c.alloc, m.alloc)] {
            if n != 0 {
                cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
            }
        }
        if m.bytes != 0 {
            let bytes = c.bytes.load(Ordering::Relaxed) + m.bytes;
            c.bytes.store(bytes, Ordering::Relaxed);
        }
    });
}

/// The current recorder's buffer-pool traffic, summed over its threads.
pub fn mem() -> Mem {
    crate::span::records()
        .iter()
        .fold(Mem::default(), |m, r| Mem {
            hit: m.hit + r.mem.hit.load(Ordering::Relaxed),
            miss: m.miss + r.mem.miss.load(Ordering::Relaxed),
            alloc: m.alloc + r.mem.alloc.load(Ordering::Relaxed),
            bytes: m.bytes + r.mem.bytes.load(Ordering::Relaxed),
        })
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

/// Serialises the current recorder's metrics, its buffer-pool traffic
/// included, as a JSON object
/// `{counters: {...}, gauges: {...}, histograms: {}}`.
pub fn snapshot_json() -> String {
    let mem = mem();
    let recorder = Recorder::current();
    let reg = lock(&recorder.metrics);
    let mut counters: BTreeMap<&str, u64> =
        reg.counters.iter().map(|(n, c)| (&**n, c.get())).collect();
    counters.extend([
        ("mem.pool.hit", mem.hit),
        ("mem.pool.miss", mem.miss),
        ("mem.alloc.count", mem.alloc),
    ]);
    let mut gauges: BTreeMap<&str, f64> = reg.gauges.iter().map(|(n, g)| (&**n, g.get())).collect();
    gauges.insert("mem.pool.bytes_outstanding", mem.bytes as f64);
    let counters = counters
        .iter()
        .fold(crate::json::Obj::new(), |o, (name, v)| o.u64(name, *v));
    let gauges = gauges
        .iter()
        .fold(crate::json::Obj::new(), |o, (name, v)| o.f64(name, *v));
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
    fn pool_traffic_sums_over_the_recorders_threads() {
        let recorder = Recorder::new();
        let _run = recorder.enter();
        let event = Mem {
            hit: 2,
            miss: 1,
            alloc: 1,
            bytes: 64,
        };
        add_mem(event);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _run = recorder.enter();
                add_mem(Mem {
                    bytes: -16,
                    ..event
                });
            });
            // A thread outside the run counts elsewhere.
            s.spawn(|| add_mem(event));
        });
        let want = Mem {
            hit: 4,
            miss: 2,
            alloc: 2,
            bytes: 48,
        };
        assert_eq!(mem(), want);
        let snap: serde_json::Value = serde_json::from_str(&snapshot_json()).unwrap();
        assert_eq!(snap["counters"]["mem.pool.hit"].as_u64(), Some(4));
        assert_eq!(snap["counters"]["mem.pool.miss"].as_u64(), Some(2));
        assert_eq!(snap["counters"]["mem.alloc.count"].as_u64(), Some(2));
        assert_eq!(
            snap["gauges"]["mem.pool.bytes_outstanding"].as_f64(),
            Some(48.0)
        );
    }

    #[test]
    fn gauge_holds_last_value() {
        let g = gauge("t_metrics_gauge");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(gauge("t_metrics_gauge").get(), -2.25);
    }
}
