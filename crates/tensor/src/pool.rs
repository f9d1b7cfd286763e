//! Size-class buffer pool backing [`Tensor`](crate::Tensor) storage.
//!
//! Training re-records an identical-topology tape every window of every
//! epoch, so the same buffer sizes are requested over and over. This pool
//! turns those requests into free-list pops: buffers are binned by
//! power-of-two *element* capacity, recycled on drop, and handed back out to
//! the next same-class request. After one warm-up epoch the steady-state
//! training step performs zero heap allocations for tensor storage.
//!
//! Architecture:
//!
//! * **Thread-local free lists** (one array of buckets per thread *per
//!   element type* — free lists are typed `Vec<E>`, and each
//!   [`Scalar`](crate::Scalar) implementation owns its own thread-local
//!   storage; see the storage hooks in `scalar.rs`). The overwhelming
//!   majority of traffic — tape intermediates created during
//!   forward/backward and recycled at [`Tape::reset`](crate::Tape::reset) —
//!   stays on the worker thread that allocated it and never touches a lock.
//! * **A global overflow list** (one per element type) behind a mutex.
//!   Gradient tensors are born on cf-par worker threads but dropped on the
//!   main thread (tree-reduce and the optimizer step run there). Each buffer
//!   carries the id of its *home* thread; dropping on a foreign thread
//!   routes the buffer to the global list, where the original worker finds
//!   it again on its next request. Without this, worker pools would drain
//!   by a few buffers per step while the main thread hoarded them —
//!   steady-state misses forever.
//!
//! Size classes guarantee correctness by construction: a recycled buffer
//! lands in the bucket `floor(log2(capacity))`, a request for `n` elements
//! pops from bucket `ceil(log2(n))`, so any buffer found there has
//! `capacity ≥ 2^ceil(log2(n)) ≥ n`. Classes are *element*-count-based, so
//! an f32 class holds half the bytes of the same f64 class; all byte
//! accounting (`bytes_outstanding`, the retention byte caps) multiplies by
//! `size_of::<E>()` rather than assuming 8-byte elements.
//!
//! The pool changes *where bytes live, never what they hold*: buffers are
//! handed out logically empty (`len == 0`) and callers fully initialise them
//! before use, so numeric results are bitwise identical with the pool on or
//! off (`CF_POOL=off` disables reuse for A/B testing).
//!
//! Counters are module-level relaxed atomics — a registry lookup per
//! allocation would dwarf the allocation itself — and are published into
//! the `cf-obs` metrics registry in one batch by [`publish_obs`]. Counters
//! are shared across element types (they answer "is the process allocating",
//! not "which dtype is"). Alongside the totals, each thread keeps its own
//! hit/miss/alloc record ([`per_thread_stats`]): events are attributed to
//! the thread that *executed* the grab, so whichever thread claims a
//! cf-par chunk owns the counters of the chunk it ran and a migrated
//! buffer is never counted twice.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::scalar::Scalar;

/// Buckets cover capacities up to 2^31 elements (16 GiB of f64) — far above
/// any CausalFormer workload; larger requests bypass the pool entirely.
pub(crate) const NUM_CLASSES: usize = 32;

/// Per-thread, per-class retention: a class always keeps up to
/// [`LOCAL_RETAIN`] buffers, and beyond that keeps growing while its total
/// footprint stays under [`LOCAL_RETAIN_BYTES`]. The byte budget matters for
/// small classes — a cLSTM BPTT tape holds tens of thousands of gate-sized
/// buffers of one class, far past any sane count cap, yet only a few MiB;
/// capping by count alone frees them at every tape reset and the next epoch
/// misses its way through the global mutex again.
const LOCAL_RETAIN: usize = 512;
const LOCAL_RETAIN_BYTES: usize = 8 << 20;

/// Global-list retention, same shape as the local policy. Beyond both caps,
/// buffers are genuinely freed — the backstop that bounds pool memory on
/// pathological workloads.
const GLOBAL_RETAIN: usize = 4096;
const GLOBAL_RETAIN_BYTES: usize = 32 << 20;

/// Whether a class holding `len` buffers may retain one more. `class` is
/// the log2 *element* capacity, so the byte footprint after the push is
/// `(len + 1) << class` elements × `elem_size` bytes.
#[inline]
fn may_retain(
    len: usize,
    class: usize,
    elem_size: usize,
    count_cap: usize,
    byte_cap: usize,
) -> bool {
    len < count_cap
        || (class < usize::BITS as usize - 4 && ((len + 1) << class) * elem_size <= byte_cap)
}

static HIT: AtomicU64 = AtomicU64::new(0);
static MISS: AtomicU64 = AtomicU64::new(0);
static ALLOC: AtomicU64 = AtomicU64::new(0);
/// Bytes held by live pooled buffers (checked out or external, not yet
/// recycled). Signed: external buffers can be recycled without a grab.
static OUTSTANDING: AtomicI64 = AtomicI64::new(0);

/// `false` turns the pool into a pass-through (fresh alloc per grab, free
/// per recycle). Numerics are identical either way — only allocator traffic
/// changes — which is exactly what the pooled-vs-unpooled tests assert.
static ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_CHECKED: AtomicBool = AtomicBool::new(false);

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ID: Cell<u32> = const { Cell::new(0) };
    static LOCAL_COUNTERS: RefCell<Option<Arc<ThreadCounters>>> = const { RefCell::new(None) };
}

/// Per-thread attribution of the hit/miss/alloc counters. The *executing*
/// thread owns the bump: a grab made while running a chunk another
/// thread published is attributed to the thread that ran it (the thread
/// whose free list actually served or missed the request), and a buffer
/// that migrates home → global list → foreign thread counts exactly one
/// hit, on the thread that re-grabbed it — attribution moves with the
/// work, totals are never double-counted.
struct ThreadCounters {
    thread: u32,
    hit: AtomicU64,
    miss: AtomicU64,
    alloc: AtomicU64,
}

fn counter_registry() -> &'static Mutex<Vec<Arc<ThreadCounters>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadCounters>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Runs `f` on this thread's counter record, creating and registering it
/// on first use. One `RefCell` access plus a relaxed atomic add per pool
/// event — negligible next to the free-list work itself.
#[inline]
fn with_local_counters(f: impl FnOnce(&ThreadCounters)) {
    LOCAL_COUNTERS.with(|c| {
        let mut slot = c.borrow_mut();
        let rec = slot.get_or_insert_with(|| {
            let rec = Arc::new(ThreadCounters {
                thread: thread_id(),
                hit: AtomicU64::new(0),
                miss: AtomicU64::new(0),
                alloc: AtomicU64::new(0),
            });
            counter_registry()
                .lock()
                .expect("pool counter registry poisoned")
                .push(Arc::clone(&rec));
            rec
        });
        f(rec);
    });
}

/// Per-thread, per-dtype free lists. Instances live in the per-dtype
/// thread-locals behind [`Scalar::with_pool`]; this type is public only so
/// that hook can name it.
#[doc(hidden)]
pub struct ThreadPool<E> {
    lists: RefCell<[Vec<Vec<E>>; NUM_CLASSES]>,
}

impl<E> ThreadPool<E> {
    pub(crate) fn new() -> Self {
        Self {
            lists: RefCell::new(std::array::from_fn(|_| Vec::new())),
        }
    }
}

impl<E> Default for ThreadPool<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable id of the calling thread (assigned on first use, never 0).
/// Shared across element types, so a thread has one identity no matter
/// which dtypes it allocates.
#[inline]
pub(crate) fn thread_id() -> u32 {
    THREAD_ID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// Smallest class whose buffers can serve a request for `n` elements.
#[inline]
fn class_for_request(n: usize) -> usize {
    debug_assert!(n > 0);
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Class a buffer of `capacity` belongs to when recycled.
#[inline]
fn class_for_capacity(capacity: usize) -> usize {
    debug_assert!(capacity > 0);
    (usize::BITS - 1 - capacity.leading_zeros()) as usize
}

#[inline]
fn enabled() -> bool {
    if !ENV_CHECKED.load(Ordering::Relaxed) {
        ENV_CHECKED.store(true, Ordering::Relaxed);
        if matches!(
            std::env::var("CF_POOL").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        ) {
            ENABLED.store(false, Ordering::Relaxed);
        }
    }
    ENABLED.load(Ordering::Relaxed)
}

/// Enables or disables buffer reuse at runtime (tests; `CF_POOL=off` is the
/// env-var equivalent). Disabling never affects numeric results.
pub fn set_enabled(on: bool) {
    ENV_CHECKED.store(true, Ordering::Relaxed);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Hands out a buffer with `capacity ≥ n` and `len == 0`, plus the home
/// thread id to pass back to [`recycle`]. The caller must fully initialise
/// the first `n` elements before reading them.
pub(crate) fn grab<E: Scalar>(n: usize) -> (Vec<E>, u32) {
    if n == 0 {
        return (Vec::new(), thread_id());
    }
    let class = class_for_request(n);
    if class < NUM_CLASSES && enabled() {
        let local = E::with_pool(|t| t.lists.borrow_mut()[class].pop());
        let home = thread_id();
        if let Some(buf) = local {
            HIT.fetch_add(1, Ordering::Relaxed);
            with_local_counters(|c| {
                c.hit.fetch_add(1, Ordering::Relaxed);
            });
            OUTSTANDING.fetch_add(bytes_of::<E>(buf.capacity()), Ordering::Relaxed);
            return (buf, home);
        }
        let global = E::global_pool().lock().expect("pool mutex poisoned")[class].pop();
        if let Some(buf) = global {
            HIT.fetch_add(1, Ordering::Relaxed);
            with_local_counters(|c| {
                c.hit.fetch_add(1, Ordering::Relaxed);
            });
            OUTSTANDING.fetch_add(bytes_of::<E>(buf.capacity()), Ordering::Relaxed);
            return (buf, home);
        }
        MISS.fetch_add(1, Ordering::Relaxed);
        with_local_counters(|c| {
            c.miss.fetch_add(1, Ordering::Relaxed);
        });
        cf_obs::trace::instant("pool.miss");
    }
    let home = thread_id();
    ALLOC.fetch_add(1, Ordering::Relaxed);
    with_local_counters(|c| {
        c.alloc.fetch_add(1, Ordering::Relaxed);
    });
    // Allocate the full class size so the buffer round-trips through its
    // bucket stably instead of shrinking a class on each recycle.
    let cap = if class < NUM_CLASSES {
        1usize << class
    } else {
        n
    };
    OUTSTANDING.fetch_add(bytes_of::<E>(cap), Ordering::Relaxed);
    (Vec::with_capacity(cap), home)
}

#[inline]
fn bytes_of<E>(elems: usize) -> i64 {
    (elems * std::mem::size_of::<E>()) as i64
}

/// Records a buffer allocated outside the pool (e.g. `Tensor::from_vec`
/// with caller-built data) entering circulation.
pub(crate) fn note_external<E: Scalar>(capacity: usize) {
    if capacity > 0 {
        ALLOC.fetch_add(1, Ordering::Relaxed);
        with_local_counters(|c| {
            c.alloc.fetch_add(1, Ordering::Relaxed);
        });
        OUTSTANDING.fetch_add(bytes_of::<E>(capacity), Ordering::Relaxed);
    }
}

/// Records a pooled buffer leaving circulation without being recycled
/// (e.g. `Tensor::into_data` handing the raw `Vec` to the caller).
pub(crate) fn forget<E: Scalar>(capacity: usize) {
    if capacity > 0 {
        OUTSTANDING.fetch_sub(bytes_of::<E>(capacity), Ordering::Relaxed);
    }
}

/// Returns a buffer to the pool. `home` is the thread id the buffer was
/// handed out on: recycling on that thread goes to its lock-free local
/// list, recycling anywhere else routes through the global overflow list so
/// cross-thread migration (worker-allocated gradients dropped on the main
/// thread) flows back to the workers.
pub(crate) fn recycle<E: Scalar>(mut buf: Vec<E>, home: u32) {
    let cap = buf.capacity();
    if cap == 0 {
        return;
    }
    OUTSTANDING.fetch_sub(bytes_of::<E>(cap), Ordering::Relaxed);
    if !enabled() {
        return; // dropped
    }
    let class = class_for_capacity(cap);
    if class >= NUM_CLASSES {
        return;
    }
    buf.clear();
    let elem = std::mem::size_of::<E>();
    let kept = E::with_pool(|t| {
        if home != thread_id() {
            return false;
        }
        let mut l = t.lists.borrow_mut();
        if may_retain(
            l[class].len(),
            class,
            elem,
            LOCAL_RETAIN,
            LOCAL_RETAIN_BYTES,
        ) {
            l[class].push(std::mem::take(&mut buf));
            true
        } else {
            false
        }
    });
    if kept {
        return;
    }
    let mut g = E::global_pool().lock().expect("pool mutex poisoned");
    if may_retain(
        g[class].len(),
        class,
        elem,
        GLOBAL_RETAIN,
        GLOBAL_RETAIN_BYTES,
    ) {
        g[class].push(buf);
    }
}

/// A point-in-time snapshot of the pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a free list.
    pub hit: u64,
    /// Requests that found both free lists empty.
    pub miss: u64,
    /// Fresh heap allocations (pool misses plus external buffers adopted
    /// by tensors). Zero deltas here are the "allocation-free" proof.
    pub alloc: u64,
    /// Bytes currently held by live pooled buffers (all element types,
    /// element-size-aware).
    pub bytes_outstanding: i64,
}

/// Reads the current counter values.
pub fn stats() -> PoolStats {
    PoolStats {
        hit: HIT.load(Ordering::Relaxed),
        miss: MISS.load(Ordering::Relaxed),
        alloc: ALLOC.load(Ordering::Relaxed),
        bytes_outstanding: OUTSTANDING.load(Ordering::Relaxed),
    }
}

/// One thread's share of the pool counters (see [`per_thread_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPoolStats {
    /// The pool-assigned stable thread id (see the `home` ids returned by
    /// grab) of the thread these events executed on.
    pub thread: u32,
    /// Requests this thread served from a free list.
    pub hit: u64,
    /// Requests this thread found cold.
    pub miss: u64,
    /// Fresh allocations performed by this thread.
    pub alloc: u64,
}

/// Per-thread attribution snapshot, sorted by thread id. Each event is
/// counted exactly once, on the thread that executed the grab — so the
/// thread that claims a chunk owns the hits and misses of the chunk it
/// ran, and at any quiescent point the per-thread sums equal the
/// [`stats`] totals (the invariant `pool_equivalence` pins down).
pub fn per_thread_stats() -> Vec<ThreadPoolStats> {
    let mut out: Vec<ThreadPoolStats> = counter_registry()
        .lock()
        .expect("pool counter registry poisoned")
        .iter()
        .map(|c| ThreadPoolStats {
            thread: c.thread,
            hit: c.hit.load(Ordering::Relaxed),
            miss: c.miss.load(Ordering::Relaxed),
            alloc: c.alloc.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by_key(|s| s.thread);
    out
}

/// Publishes the pool counters into the `cf-obs` metrics registry as
/// `mem.pool.{hit,miss,bytes_outstanding}` and `mem.alloc.count`, so they
/// appear in `--metrics-out` JSONL summaries. Counters are forwarded as
/// deltas since the previous publish (the registry may be reset between
/// runs); the gauge is forwarded absolute.
pub fn publish_obs() {
    static LAST_HIT: AtomicU64 = AtomicU64::new(0);
    static LAST_MISS: AtomicU64 = AtomicU64::new(0);
    static LAST_ALLOC: AtomicU64 = AtomicU64::new(0);
    let s = stats();
    let delta = |last: &AtomicU64, now: u64| now.saturating_sub(last.swap(now, Ordering::Relaxed));
    cf_obs::metrics::counter("mem.pool.hit").add(delta(&LAST_HIT, s.hit));
    cf_obs::metrics::counter("mem.pool.miss").add(delta(&LAST_MISS, s.miss));
    cf_obs::metrics::counter("mem.alloc.count").add(delta(&LAST_ALLOC, s.alloc));
    cf_obs::metrics::gauge("mem.pool.bytes_outstanding").set(s.bytes_outstanding as f64);
    // Cumulative samples onto the trace timeline so Perfetto's counter
    // track (and the report's pool panel) can plot them over time.
    cf_obs::trace::counter("mem.pool.hit", s.hit as f64);
    cf_obs::trace::counter("mem.pool.miss", s.miss as f64);
    cf_obs::trace::counter("mem.pool.bytes_outstanding", s.bytes_outstanding as f64);
}

/// Registers [`publish_obs`] as a heartbeat sampler hook, so every
/// heartbeat carries fresh `mem.pool.*` values. cf-obs sits below this
/// crate in the workspace graph and cannot call the pool itself; the
/// CLI (or any embedding binary) calls this once at startup. Safe to
/// call repeatedly — only the first call registers.
pub fn install_obs_sampler() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        cf_obs::heartbeat::add_sampler_hook(Box::new(publish_obs));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_classes_round_up_and_capacity_classes_round_down() {
        assert_eq!(class_for_request(1), 0);
        assert_eq!(class_for_request(2), 1);
        assert_eq!(class_for_request(3), 2);
        assert_eq!(class_for_request(4), 2);
        assert_eq!(class_for_request(5), 3);
        assert_eq!(class_for_capacity(1), 0);
        assert_eq!(class_for_capacity(3), 1);
        assert_eq!(class_for_capacity(4), 2);
        assert_eq!(class_for_capacity(7), 2);
        assert_eq!(class_for_capacity(8), 3);
        // The invariant that makes reuse sound: any buffer recycled into the
        // bucket grab() pops from has sufficient capacity.
        for n in 1..200usize {
            for cap in n..400usize {
                if class_for_capacity(cap) == class_for_request(n) {
                    assert!(cap >= n, "cap {cap} < request {n}");
                }
            }
        }
    }

    #[test]
    fn grab_after_recycle_reuses_the_same_buffer() {
        // Use an unusual size so concurrently running tests cannot race this
        // thread-local bucket. Pointer identity proves reuse.
        let n = 12_345;
        let (buf, home) = grab::<f64>(n);
        let ptr = buf.as_ptr();
        recycle(buf, home);
        let (again, home2) = grab::<f64>(n);
        assert_eq!(again.as_ptr(), ptr, "recycled buffer was not reused");
        assert!(again.capacity() >= n);
        assert_eq!(again.len(), 0, "pooled buffers must come back empty");
        recycle(again, home2);
    }

    #[test]
    fn size_class_rounding_shares_buffers_within_a_class() {
        // 9000 and 12000 both round up to the 16384-element class.
        let (buf, home) = grab::<f64>(9_000);
        let ptr = buf.as_ptr();
        assert_eq!(buf.capacity(), 16_384);
        recycle(buf, home);
        let (again, home2) = grab::<f64>(12_000);
        assert_eq!(again.as_ptr(), ptr);
        recycle(again, home2);
    }

    #[test]
    fn dtypes_have_disjoint_free_lists() {
        // An f64 buffer recycled into class 14 must never be handed to an
        // f32 request of the same class (the lists are separately typed);
        // both round-trip independently.
        let n = 13_579;
        let (b64, h64) = grab::<f64>(n);
        let p64 = b64.as_ptr() as usize;
        recycle(b64, h64);
        let (b32, h32) = grab::<f32>(n);
        let p32 = b32.as_ptr() as usize;
        recycle(b32, h32);
        let (again64, h64b) = grab::<f64>(n);
        let (again32, h32b) = grab::<f32>(n);
        assert_eq!(again64.as_ptr() as usize, p64);
        assert_eq!(again32.as_ptr() as usize, p32);
        recycle(again64, h64b);
        recycle(again32, h32b);
    }

    #[test]
    fn byte_accounting_is_element_size_aware() {
        // (The global bytes_outstanding gauge moves concurrently with other
        // tests, so the accounting units are pinned directly.)
        assert_eq!(bytes_of::<f64>(100), 800);
        assert_eq!(bytes_of::<f32>(100), 400);
        // Retention byte caps count real bytes: with the count cap disabled,
        // a class-10 bucket (1024 elements/buffer) at a 64 KiB cap holds 8
        // f64 buffers but 16 f32 buffers.
        let cap = 64 << 10;
        assert!(may_retain(7, 10, 8, 0, cap));
        assert!(!may_retain(8, 10, 8, 0, cap));
        assert!(may_retain(15, 10, 4, 0, cap));
        assert!(!may_retain(16, 10, 4, 0, cap));
    }

    #[test]
    fn cross_thread_recycle_returns_via_the_global_list() {
        // Born on a spawned thread, dropped here: the buffer must flow
        // through the global overflow list back to a foreign grab.
        let n = 23_456;
        let (buf, home) = std::thread::spawn(move || grab::<f64>(n)).join().unwrap();
        let ptr = buf.as_ptr();
        // This thread is not `home`, so recycle routes to the global list …
        recycle(buf, home);
        // … where a fresh thread (empty locals) finds it.
        let ptr = ptr as usize;
        let found = std::thread::spawn(move || {
            let (again, home2) = grab::<f64>(n);
            let same = again.as_ptr() as usize == ptr;
            recycle(again, home2);
            same
        })
        .join()
        .unwrap();
        assert!(found, "cross-thread recycle did not reach the global list");
    }

    #[test]
    fn per_thread_counters_attribute_to_the_executing_thread() {
        // A grab on a spawned thread must land on that thread's record —
        // including the hit on a buffer that migrated through the global
        // list from another thread's recycle (counted once, on the
        // re-grabbing thread).
        let n = 87_654; // unusual class, private to this test
        let (buf, home) = grab::<f64>(n);
        recycle(buf, home); // local: this thread's list now holds it
        let (buf, home) = grab::<f64>(n); // hit on this thread
        let my_id = thread_id();
        let my_hits = |stats: &[ThreadPoolStats]| {
            stats
                .iter()
                .find(|s| s.thread == my_id)
                .map(|s| s.hit)
                .unwrap_or(0)
        };
        let before = my_hits(&per_thread_stats());
        // Drop it from a foreign thread → global list; then a second
        // foreign thread re-grabs it and must own the hit.
        let (stolen_hit, foreign_id) = std::thread::spawn(move || {
            recycle(buf, home); // cross-thread recycle: no hit anywhere
            let before = per_thread_stats();
            let (again, h2) = grab::<f64>(n); // hit from the global list
            let id = thread_id();
            let after = per_thread_stats();
            recycle(again, h2);
            let hits = |s: &[ThreadPoolStats]| {
                s.iter()
                    .find(|r| r.thread == id)
                    .map(|r| r.hit)
                    .unwrap_or(0)
            };
            (hits(&after) - hits(&before), id)
        })
        .join()
        .unwrap();
        assert_eq!(stolen_hit, 1, "foreign re-grab owns exactly one hit");
        assert_ne!(foreign_id, my_id);
        let after = my_hits(&per_thread_stats());
        assert_eq!(after, before, "migration must not double-count on home");
    }

    #[test]
    fn miss_counter_moves_only_on_cold_requests() {
        let n = 54_321; // unusual class, private to this test's thread
        let before = stats();
        let (buf, home) = grab::<f64>(n);
        let mid = stats();
        assert!(mid.alloc > before.alloc);
        recycle(buf, home);
        let (buf, home) = grab::<f64>(n);
        recycle(buf, home);
        let after = stats();
        assert!(after.hit > mid.hit, "warm grab must count as a hit");
    }
}
