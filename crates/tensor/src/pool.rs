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
//!   [`Scalar`] implementation owns its own thread-local
//!   storage; see the storage hooks in `scalar.rs`). The overwhelming
//!   majority of traffic — tape intermediates created during
//!   forward/backward and recycled at [`Tape::reset`](crate::Tape::reset) —
//!   stays on the worker thread that allocated it and never touches a lock.
//! * **A global list** (one per element type) behind a mutex.
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
//! accounting (`bytes_outstanding`, the retention ceilings) multiplies by
//! `size_of::<E>()` rather than assuming 8-byte elements.
//!
//! The pool changes *where bytes live, never what they hold*: buffers are
//! handed out logically empty (`len == 0`) and callers fully initialise them
//! before use, so numeric results are bitwise identical with the pool on or
//! off (`CF_POOL=off` disables reuse for A/B testing).
//!
//! **Retention.** A list keeps another buffer of a class only while the
//! class's footprint there stays under a byte ceiling, per element type:
//! 8 MiB in each thread's list, for the buffers the thread drops at home,
//! and 32 MiB in the global list, for the buffers dropped away from home.
//! Past the ceiling the buffer is freed, so however many buffers of one
//! size a thread drops, it parks at most 8 MiB of them.
//!
//! **Accounting.** Each grab, recycle, adoption and release adds its hit,
//! miss, allocation and bytes to the calling thread's record in its
//! current `cf_obs::Recorder` ([`cf_obs::metrics::add_mem`]): relaxed
//! atomics, no lock and no registry lookup. cf-par runs a run's chunks
//! inside the run's recorder, so [`stats`], the metrics summary and the
//! heartbeat report the run's own traffic, whichever threads carried it.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use cf_obs::metrics::{add_mem, Mem};

use crate::scalar::Scalar;

/// Buckets cover capacities up to 2^31 elements (16 GiB of f64) — far above
/// any CausalFormer workload; larger requests bypass the pool entirely.
pub(crate) const NUM_CLASSES: usize = 32;

/// Bytes one class may park in one thread's free list. Small classes keep
/// many buffers under it — a cLSTM BPTT tape holds tens of thousands of
/// gate-sized buffers of one class, yet only a few MiB, and freeing them
/// at every tape reset would send the next epoch through the global mutex
/// — while a class of 1 MiB buffers keeps eight.
const LOCAL_CEILING: usize = 8 << 20;

/// Bytes one class may park in the global list, which takes the buffers
/// dropped away from their home thread.
const GLOBAL_CEILING: usize = 32 << 20;

/// Whether a class holding `len` buffers may keep one more under
/// `ceiling` bytes. `class` is the log2 *element* capacity, so the
/// footprint after the push is `(len + 1) << class` elements of
/// `elem_size` bytes. (An adopted buffer's capacity lies below twice its
/// class, so real bytes stay under twice the ceiling.)
#[inline]
fn may_retain(len: usize, class: usize, elem_size: usize, ceiling: usize) -> bool {
    ((len as u64 + 1) << class) * elem_size as u64 <= ceiling as u64
}

/// `false` turns the pool into a pass-through (fresh alloc per grab, free
/// per recycle). Numerics are identical either way — only allocator traffic
/// changes — which is exactly what the pooled-vs-unpooled tests assert.
static ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_CHECKED: AtomicBool = AtomicBool::new(false);

static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ID: Cell<u32> = const { Cell::new(0) };
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
    let home = thread_id();
    if n == 0 {
        return (Vec::new(), home);
    }
    let class = class_for_request(n);
    let pooled = class < NUM_CLASSES && enabled();
    if pooled {
        let found = E::with_pool(|t| t.lists.borrow_mut()[class].pop())
            .or_else(|| E::global_pool().lock().expect("pool mutex poisoned")[class].pop());
        if let Some(buf) = found {
            add_mem(Mem {
                hit: 1,
                bytes: bytes_of::<E>(buf.capacity()),
                ..Mem::default()
            });
            return (buf, home);
        }
        cf_obs::trace::instant("pool.miss");
    }
    // Allocate the full class size so the buffer round-trips through its
    // bucket stably instead of shrinking a class on each recycle.
    let cap = if class < NUM_CLASSES {
        1usize << class
    } else {
        n
    };
    add_mem(Mem {
        miss: pooled as u64,
        alloc: 1,
        bytes: bytes_of::<E>(cap),
        ..Mem::default()
    });
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
        add_mem(Mem {
            alloc: 1,
            bytes: bytes_of::<E>(capacity),
            ..Mem::default()
        });
    }
}

/// Records a pooled buffer leaving circulation without being recycled
/// (e.g. `Tensor::into_data` handing the raw `Vec` to the caller).
pub(crate) fn forget<E: Scalar>(capacity: usize) {
    if capacity > 0 {
        add_mem(Mem {
            bytes: -bytes_of::<E>(capacity),
            ..Mem::default()
        });
    }
}

/// Returns a buffer to the pool. `home` is the thread id the buffer was
/// handed out on: recycling on that thread goes to its lock-free local
/// list, recycling anywhere else routes through the global list so
/// cross-thread migration (worker-allocated gradients dropped on the main
/// thread) flows back to the workers. Past its list's ceiling the buffer
/// is freed.
pub(crate) fn recycle<E: Scalar>(mut buf: Vec<E>, home: u32) {
    let cap = buf.capacity();
    if cap == 0 {
        return;
    }
    forget::<E>(cap);
    if !enabled() {
        return; // dropped
    }
    let class = class_for_capacity(cap);
    if class >= NUM_CLASSES {
        return;
    }
    buf.clear();
    let elem = std::mem::size_of::<E>();
    if home == thread_id() {
        E::with_pool(|t| {
            let mut l = t.lists.borrow_mut();
            if may_retain(l[class].len(), class, elem, LOCAL_CEILING) {
                l[class].push(buf);
            }
        });
        return;
    }
    let mut g = E::global_pool().lock().expect("pool mutex poisoned");
    if may_retain(g[class].len(), class, elem, GLOBAL_CEILING) {
        g[class].push(buf);
    }
}

/// A snapshot of the current run's pool counters: the calling thread's
/// recorder, summed over every thread that worked for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a free list.
    pub hit: u64,
    /// Requests that found both free lists empty.
    pub miss: u64,
    /// Fresh heap allocations (pool misses plus external buffers adopted
    /// by tensors). Zero deltas here are the "allocation-free" proof.
    pub alloc: u64,
    /// The run's net bytes: handed out (all element types,
    /// element-size-aware) less handed back.
    pub bytes_outstanding: i64,
}

/// Reads the current run's counters.
pub fn stats() -> PoolStats {
    let m = cf_obs::metrics::mem();
    PoolStats {
        hit: m.hit,
        miss: m.miss,
        alloc: m.alloc,
        bytes_outstanding: m.bytes,
    }
}

// The tests that grab and recycle switch the pool on: they test reuse,
// which `CF_POOL=off` would otherwise turn off for this whole binary (the
// rest of it is numerics, the same either way).
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
        set_enabled(true);
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
        set_enabled(true);
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
        set_enabled(true);
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
        // (The run's bytes_outstanding moves concurrently with other tests
        // on the default recorder, so the accounting units are pinned
        // directly.)
        assert_eq!(bytes_of::<f64>(100), 800);
        assert_eq!(bytes_of::<f32>(100), 400);
        // Retention ceilings count real bytes: a class-10 bucket (1024
        // elements/buffer) under a 64 KiB ceiling holds 8 f64 buffers but
        // 16 f32 buffers.
        let cap = 64 << 10;
        assert!(may_retain(7, 10, 8, cap));
        assert!(!may_retain(8, 10, 8, cap));
        assert!(may_retain(15, 10, 4, cap));
        assert!(!may_retain(16, 10, 4, cap));
    }

    #[test]
    fn byte_ceilings_bound_a_class_whatever_its_count() {
        set_enabled(true);
        // 600 buffers of 2^17 f64 (1 MiB each; reserved, never touched),
        // dropped at home: this thread's list keeps 8 MiB of them and the
        // rest are freed. The global list, which takes only buffers
        // dropped away from home, stays within its 32 MiB.
        const CLASS: usize = 17;
        let held: Vec<_> = (0..600).map(|_| grab::<f64>(1 << CLASS)).collect();
        for (buf, home) in held {
            recycle(buf, home);
        }
        let parked = |list: &[Vec<f64>]| list.iter().map(|b| b.capacity() * 8).sum::<usize>();
        let local = f64::with_pool(|t| parked(&t.lists.borrow()[CLASS]));
        let global = parked(&f64::global_pool().lock().unwrap()[CLASS]);
        assert!(
            local <= 8 << 20,
            "{local} bytes parked in one thread's list"
        );
        assert!(
            global <= 32 << 20,
            "{global} bytes parked in the global list"
        );
    }

    #[test]
    fn cross_thread_recycle_returns_via_the_global_list() {
        set_enabled(true);
        // Born on a spawned thread, dropped here: the buffer must flow
        // through the global list back to a foreign grab.
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
    fn stats_count_the_calling_threads_run() {
        // A fresh recorder sees its own traffic and none of another
        // thread's (which counts in the default recorder).
        let _run = cf_obs::Recorder::new().enter();
        let n = 76_543; // unusual class, private to this test
        let (buf, home) = grab::<f32>(n);
        std::thread::spawn(move || drop(grab::<f64>(n)))
            .join()
            .unwrap();
        let held = stats();
        assert_eq!(held.hit + held.alloc, 1, "{held:?}");
        assert_eq!(held.bytes_outstanding, bytes_of::<f32>(buf.capacity()));
        recycle(buf, home);
        assert_eq!(stats().bytes_outstanding, 0, "recycled bytes net out");
    }

    #[test]
    fn miss_counter_moves_only_on_cold_requests() {
        set_enabled(true);
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
