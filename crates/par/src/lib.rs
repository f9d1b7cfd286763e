//! `cf-par`: a zero-dependency parallel-for pool for the CausalFormer
//! stack.
//!
//! The build environment has no network registry, so this crate supplies
//! the small slice of rayon the workloads actually need, built on
//! `std::thread` only:
//!
//! * [`par_for`] — chunked parallel iteration over an index range,
//! * [`par_chunks_mut`] — parallel iteration over disjoint mutable
//!   sub-slices (row-blocked kernels),
//! * [`par_map`] — parallel map collecting results in index order,
//! * [`par_each_mut`] — parallel in-place mutation of a slice of items,
//! * [`tree_reduce`] — a *fixed-shape* binary reduction whose association
//!   order depends only on the item count, never on thread count,
//! * [`should_fan_out`] — the FLOP cost model deciding whether a kernel
//!   loop is worth dispatching in parallel from its current context.
//!
//! # Scheduler shape
//!
//! There is one kind of job: a parallel-for of `chunks` calls whose
//! indices any participating thread claims from the job's atomic cursor.
//! Publishing a job pushes one runner handle per thread that could
//! usefully join in onto the pool's single mutex-guarded queue, then the
//! publisher claims chunks itself. Every thread pops the queue
//! newest-first, so a job published inside a chunk (nested fan-out) is
//! worked before the older, coarser jobs beneath it. A handle popped
//! after its job's chunks are all claimed is a cheap no-op.
//!
//! Blocking is cooperative: a publisher whose chunks are all claimed
//! *helps* — runs chunks of other queued jobs — until its own last chunk
//! finishes, so a chunk that publishes its own job cannot deadlock and a
//! pool of size 1 runs every chunk inline. Idle threads park on a condvar
//! guarded by an activity epoch; every push and every job completion
//! bumps the epoch, which makes lost wakeups impossible (the sleeper
//! re-checks the epoch under the lock before waiting).
//!
//! # Determinism contract
//!
//! Every primitive here is deterministic at any pool size:
//!
//! * Work is split into chunks whose boundaries depend only on the problem
//!   size and the caller-supplied grain — not on the number of threads.
//!   Which thread executes a chunk is scheduling-dependent, but each chunk
//!   is a pure function of its inputs writing a disjoint output region, so
//!   results are bitwise identical regardless of assignment.
//! * Cross-chunk combination must go through [`tree_reduce`] (or another
//!   fixed-order fold); its floating-point association is a function of
//!   the chunk count alone.
//! * [`should_fan_out`] only chooses *between* a serial and a parallel
//!   code path that the kernel contract requires to be bitwise identical,
//!   so the cost model cannot change numerics either.
//!
//! Consequently `CF_THREADS=1` and `CF_THREADS=64` produce bitwise
//! identical tensors, gradients, and discovery output — the property the
//! equivalence tests in `cf-tensor` and `causalformer` pin down.
//!
//! # Cost model
//!
//! Kernel call sites gate their parallel dispatch on
//! [`should_fan_out`]`(work, threshold)`: below the threshold the loop
//! stays serial on the executing thread. When the caller is already
//! inside a chunk (`in_task()`), the threshold is multiplied by
//! [`NESTED_FANOUT_FACTOR`] — coarse chunks (per-window detector passes,
//! per-window training steps, bench cells) have already claimed the
//! threads, so only genuinely large nested kernels are worth splitting
//! further.
//!
//! # Pool lifecycle
//!
//! A process-global pool is created lazily on first use, sized by the
//! `CF_THREADS` environment variable (falling back to
//! `std::thread::available_parallelism`). [`set_threads`] replaces the
//! pool (used by `--threads` CLI flags and the equivalence tests). No
//! pool exceeds [`MAX_THREADS`]. Workers are long-lived and park between
//! jobs; a pool of size 1 spawns no threads at all.
//!
//! # Observability
//!
//! Each dispatch updates `cf-obs` counters: `par.jobs` / `par.jobs_inline`
//! (parallel vs inline dispatches), `par.tasks` (chunks executed),
//! `par.busy_ns` (summed chunk execution time, each nanosecond once: a
//! chunk excludes nested chunks its thread ran while it waited), and
//! `par.idle_ns` (pool-size × job wall-clock minus busy time). The
//! `par.threads` gauge records the pool size. Scheduler spans: `par.job`
//! (one dispatch) and `par.chunk` (one chunk), so `analyze --compare` can
//! attribute residual serial fraction to scheduling rather than kernels.
//! Each job carries the span path open where it was published
//! (`cf_obs::span::context`), and its chunks run under it: a span opened
//! inside a chunk nests under the publisher's path whichever thread runs
//! it, so span paths do not depend on the thread count. The context also
//! carries the publisher's `cf_obs::Recorder`: chunks write their spans,
//! counters and progress into the publisher's recorder, whichever thread
//! runs them. Each job fetches its counter handles from that recorder
//! once. The pool itself, and so its size, is process-wide.
//!
//! Every chunk completion additionally bumps the executing thread's
//! `cf_obs::heartbeat` progress epoch and busy time — the live signal the
//! stall watchdog and the `monitor` per-thread busy view are built on. A
//! run whose epoch stops advancing for the watchdog window is flagged
//! stalled.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Multiplier applied to a kernel's FLOP threshold when the caller is
/// already running inside a chunk: nested fan-out has to beat the
/// coarse-grained parallelism that is already in flight, so it needs
/// proportionally more work to pay for its dispatch.
pub const NESTED_FANOUT_FACTOR: u64 = 4;

/// The largest pool size: `--threads` and `CF_THREADS` values above it
/// are refused, and [`Pool::new`] clamps to it.
pub const MAX_THREADS: usize = 1024;

// ---------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------

/// One parallel-for dispatch shared between the publisher and every
/// thread that pops a runner handle for it.
///
/// Type-erased chunk closure: the pointer borrows from the publishing
/// stack frame; soundness rests on [`Pool::run`] not returning until
/// every chunk has finished executing (`done == total`), after which no
/// thread dereferences `func` again — a stale handle popped later finds
/// the claim cursor exhausted and touches only atomics.
struct ForJob {
    func: *const (dyn Fn(usize) + Sync),
    total: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    busy_ns: AtomicU64,
    /// The publisher's open span path and recorder; chunks run under it.
    ctx: cf_obs::span::Context,
    metrics: ParMetrics,
}

// SAFETY: `func` points at a `Sync` closure and is only dereferenced while
// the publisher keeps the referent alive (see `ForJob` docs); the
// remaining fields are atomics or mutex-guarded.
unsafe impl Send for ForJob {}
unsafe impl Sync for ForJob {}

impl ForJob {
    fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst) >= self.total
    }

    /// Claims and executes chunks until the cursor passes `total`. After
    /// a chunk panics, remaining claims are drained without executing so
    /// waiters unblock quickly; the first payload is kept for rethrow.
    fn work(&self, shared: &Shared) {
        let prev = IN_TASK.with(|c| c.replace(true));
        loop {
            if self.next.load(Ordering::Relaxed) >= self.total {
                break;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                break;
            }
            let started = Instant::now();
            let nested_before = CHUNK_NS.with(|c| c.get());
            // The span closes before `done` counts the chunk: the
            // publisher's recorder is released before the publisher
            // can return.
            let chunk_span = cf_obs::span!("par.chunk", parent = &self.ctx);
            if !self.panicked.load(Ordering::SeqCst) {
                // SAFETY: i < total, so the publisher is still blocked in
                // `Pool::run` keeping the closure alive.
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.func)(i) }))
                {
                    self.panicked.store(true, Ordering::SeqCst);
                    let mut slot = self
                        .panic_payload
                        .lock()
                        .expect("cf-par panic slot poisoned");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            let chunk_ns = started.elapsed().as_nanos() as u64;
            // Nested chunks this thread ran inside this one already
            // counted their own time; count only the remainder here.
            let nested_ns = CHUNK_NS.with(|c| c.replace(nested_before + chunk_ns)) - nested_before;
            let own_ns = chunk_ns.saturating_sub(nested_ns);
            self.busy_ns.fetch_add(own_ns, Ordering::Relaxed);
            // Heartbeat accounting: the chunk ran on *this* thread, so
            // its busy time and the stall-watchdog progress epoch are
            // attributed here, not to the publisher.
            cf_obs::heartbeat::add_busy_ns(own_ns);
            cf_obs::heartbeat::bump_progress();
            drop(chunk_span);
            if self.done.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
                shared.signal();
            }
        }
        IN_TASK.with(|c| c.set(prev));
    }
}

// ---------------------------------------------------------------------
// Shared scheduler state
// ---------------------------------------------------------------------

struct Shared {
    /// Runner handles of published jobs; every thread pops the newest.
    queue: Mutex<Vec<Arc<ForJob>>>,
    /// Set when the pool drops; also the lock the condvar waits under.
    shutdown: Mutex<bool>,
    cv: Condvar,
    /// Activity epoch: bumped on every push and every job completion.
    /// Sleepers re-check it under `shutdown` before waiting, so a signal
    /// between "queue was empty" and "wait" is never lost.
    epoch: AtomicU64,
    /// Number of threads inside the condvar wait loop; lets `signal`
    /// skip the lock when nobody is parked.
    sleepers: AtomicUsize,
}

std::thread_local! {
    /// True while this thread is executing a chunk.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
    /// Wall time of the outermost chunks this thread has finished. A
    /// chunk that helps run nested chunks while it waits subtracts their
    /// share, so `par.busy_ns` counts each nanosecond once.
    static CHUNK_NS: Cell<u64> = const { Cell::new(0) };
}

impl Shared {
    fn lock_shutdown(&self) -> std::sync::MutexGuard<'_, bool> {
        self.shutdown.lock().expect("cf-par shutdown poisoned")
    }

    fn signal(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this notify after any sleeper's
            // epoch re-check, closing the lost-wakeup window.
            let _g = self.lock_shutdown();
            self.cv.notify_all();
        }
    }

    /// Queues `runners` handles of `job` and wakes parked threads.
    fn push(&self, job: &Arc<ForJob>, runners: usize) {
        let mut queue = self.queue.lock().expect("cf-par queue poisoned");
        for _ in 0..runners {
            queue.push(Arc::clone(job));
        }
        drop(queue);
        self.signal();
    }

    /// The newest queued runner handle, if any.
    fn pop(&self) -> Option<Arc<ForJob>> {
        self.queue.lock().expect("cf-par queue poisoned").pop()
    }

    /// Cooperative wait: runs chunks of queued jobs until every chunk of
    /// `job` has finished, parking on the condvar only when the queue is
    /// empty. The epoch protocol guarantees progress: whoever finishes
    /// `job`'s last chunk (or pushes a handle) bumps the epoch after the
    /// fact, so a sleeper that read the epoch before its failed pop cannot
    /// miss it.
    fn help_until_done(&self, job: &ForJob) {
        loop {
            let seen = self.epoch.load(Ordering::SeqCst);
            if job.is_done() {
                return;
            }
            match self.pop() {
                Some(other) => other.work(self),
                None => {
                    self.park(seen);
                }
            }
        }
    }

    /// Blocks until the activity epoch moves past `seen` or the pool
    /// shuts down; returns true on shutdown.
    fn park(&self, seen: u64) -> bool {
        let mut g = self.lock_shutdown();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !*g && self.epoch.load(Ordering::SeqCst) == seen {
            g = self.cv.wait(g).expect("cf-par shutdown poisoned");
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        *g
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let seen = shared.epoch.load(Ordering::SeqCst);
        match shared.pop() {
            Some(job) => job.work(&shared),
            None => {
                if shared.park(seen) {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------

/// A fixed-size pool. Most callers use the process-global pool via the
/// free functions; tests may build private pools.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl Pool {
    /// A pool executing on `size` threads total, clamped to
    /// `1..=`[`MAX_THREADS`] (the publishing thread counts as one;
    /// `size - 1` background workers are spawned).
    pub fn new(size: usize) -> Self {
        let size = size.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Vec::new()),
            shutdown: Mutex::new(false),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
        });
        let handles = (1..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cf-par-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning cf-par worker")
            })
            .collect();
        Self {
            shared,
            handles,
            size,
        }
    }

    /// Number of threads participating in this pool's jobs.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Executes `f(0), …, f(chunks - 1)` across the pool, blocking until
    /// all calls complete. Runs inline when the pool has one thread or
    /// the job has at most one chunk; otherwise queues runner handles —
    /// including from *inside* another chunk, which is how nested
    /// parallelism fans out instead of serialising.
    pub fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        let _job_span = cf_obs::span!("par.job", parent = &cf_obs::span::Context::HERE);
        let metrics = ParMetrics::fetch();
        if self.size == 1 || chunks == 1 {
            metrics.jobs_inline.add(1);
            metrics.tasks.add(chunks as u64);
            // Inline chunks still count as scheduler progress — a
            // 1-thread run must not read as stalled — but busy time is
            // attributed once per job to keep this path lean.
            let started = Instant::now();
            for i in 0..chunks {
                f(i);
                cf_obs::heartbeat::bump_progress();
            }
            cf_obs::heartbeat::add_busy_ns(started.elapsed().as_nanos() as u64);
            return;
        }

        let job = Arc::new(ForJob {
            // Erase the closure's lifetime; see the `ForJob` safety note.
            func: unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    f as *const _,
                )
            },
            total: chunks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            busy_ns: AtomicU64::new(0),
            ctx: cf_obs::span::context(),
            metrics,
        });
        let started = Instant::now();
        // One runner handle per other thread that could usefully join
        // in; the publisher itself is the remaining runner.
        self.shared.push(&job, chunks.min(self.size) - 1);

        // The publisher works its own job, then helps (running chunks of
        // other queued jobs once its own are all claimed) until done.
        job.work(&self.shared);
        self.shared.help_until_done(&job);

        let wall_ns = started.elapsed().as_nanos() as u64;
        let busy_ns = job.busy_ns.load(Ordering::Relaxed);
        let m = &job.metrics;
        m.jobs.add(1);
        m.tasks.add(chunks as u64);
        m.busy_ns.add(busy_ns);
        m.idle_ns
            .add((self.size as u64 * wall_ns).saturating_sub(busy_ns));

        let payload = job
            .panic_payload
            .lock()
            .expect("cf-par panic slot poisoned")
            .take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        *self.shared.lock_shutdown() = true;
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// True while the calling thread is executing a chunk; used by the cost
/// model to demand more work before nested fan-out.
pub fn in_task() -> bool {
    IN_TASK.with(|c| c.get())
}

/// The FLOP cost model: should a kernel loop with `work` estimated
/// operations dispatch in parallel? False on a single-thread pool (the
/// serial path is contractually bitwise identical), and nested calls —
/// from inside a chunk that already claimed a thread — must clear
/// `threshold ×` [`NESTED_FANOUT_FACTOR`].
pub fn should_fan_out(work: u64, threshold: u64) -> bool {
    if threads() <= 1 {
        return false;
    }
    let bar = if in_task() {
        threshold.saturating_mul(NESTED_FANOUT_FACTOR)
    } else {
        threshold
    };
    work >= bar
}

// ---------------------------------------------------------------------
// Process-global pool
// ---------------------------------------------------------------------

fn global() -> &'static Mutex<Option<Arc<Pool>>> {
    static POOL: OnceLock<Mutex<Option<Arc<Pool>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(None))
}

/// Lock-free mirror of the global pool size (0 = not yet created), so
/// the cost model can consult `threads()` from kernel hot paths without
/// taking the pool mutex.
static POOL_SIZE: AtomicUsize = AtomicUsize::new(0);

/// Parses a worker-thread count from outside input (`--threads`,
/// `CF_THREADS`): an integer in `1..=`[`MAX_THREADS`].
pub fn parse_threads(text: &str) -> Result<usize, String> {
    match text.trim().parse::<usize>() {
        Ok(n) if (1..=MAX_THREADS).contains(&n) => Ok(n),
        _ => Err(format!(
            "expected a thread count from 1 to {MAX_THREADS}, got {text:?}"
        )),
    }
}

/// The pool size the environment asks for: `CF_THREADS` if it holds a
/// valid count (see [`parse_threads`]), else `available_parallelism`.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("CF_THREADS")
        .ok()
        .and_then(|v| parse_threads(&v).ok())
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn current() -> Arc<Pool> {
    let mut guard = global().lock().expect("cf-par global pool poisoned");
    if guard.is_none() {
        let pool = Arc::new(Pool::new(default_threads()));
        cf_obs::metrics::gauge("par.threads").set(pool.size() as f64);
        POOL_SIZE.store(pool.size(), Ordering::SeqCst);
        *guard = Some(pool);
    }
    Arc::clone(guard.as_ref().expect("just installed"))
}

/// Replaces the process-global pool with one of `n` threads (clamped to
/// `1..=`[`MAX_THREADS`]). In-flight jobs on the old pool finish
/// undisturbed.
pub fn set_threads(n: usize) {
    let pool = Arc::new(Pool::new(n));
    cf_obs::metrics::gauge("par.threads").set(pool.size() as f64);
    POOL_SIZE.store(pool.size(), Ordering::SeqCst);
    *global().lock().expect("cf-par global pool poisoned") = Some(pool);
}

/// The size of the process-global pool (creating it if needed).
pub fn threads() -> usize {
    let n = POOL_SIZE.load(Ordering::SeqCst);
    if n != 0 {
        return n;
    }
    current().size()
}

/// The `par.*` counters of one job, in its publisher's recorder.
struct ParMetrics {
    jobs: cf_obs::metrics::Counter,
    jobs_inline: cf_obs::metrics::Counter,
    tasks: cf_obs::metrics::Counter,
    busy_ns: cf_obs::metrics::Counter,
    idle_ns: cf_obs::metrics::Counter,
}

impl ParMetrics {
    /// The handles of the calling thread's recorder.
    fn fetch() -> ParMetrics {
        let counter = cf_obs::metrics::counter;
        ParMetrics {
            jobs: counter("par.jobs"),
            jobs_inline: counter("par.jobs_inline"),
            tasks: counter("par.tasks"),
            busy_ns: counter("par.busy_ns"),
            idle_ns: counter("par.idle_ns"),
        }
    }
}

// ---------------------------------------------------------------------
// High-level primitives
// ---------------------------------------------------------------------

/// Splits `0..total` into contiguous chunks of at most `grain` indices and
/// runs `f(range)` for each chunk across the global pool. Chunk boundaries
/// depend only on `total` and `grain`, never on thread count.
pub fn par_for<F>(total: usize, grain: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if total == 0 {
        return;
    }
    let grain = grain.max(1);
    let chunks = total.div_ceil(grain);
    current().run(chunks, &|ci: usize| {
        let start = ci * grain;
        let end = (start + grain).min(total);
        f(start..end);
    });
}

/// Pointer wrapper that lets disjoint sub-slices cross the closure
/// boundary. Safety is localised to [`par_chunks_mut`].
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Splits `data` into contiguous chunks of at most `chunk_len` elements
/// and runs `f(chunk_index, chunk)` for each across the global pool. The
/// chunks are disjoint, so each invocation owns its sub-slice.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let base = SendPtr(data.as_mut_ptr());
    let base = &base; // capture the Sync wrapper, not the raw pointer field
    par_for(len.div_ceil(chunk_len), 1, |range| {
        for ci in range {
            let start = ci * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: chunk index ranges are disjoint and within `len`;
            // `par_for` completes before `data`'s borrow ends.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
            f(ci, chunk);
        }
    });
}

/// Computes `f(i)` for `i ∈ 0..n` in parallel, returning results in index
/// order.
pub fn par_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    par_chunks_mut(&mut out, 1, |i, slot| {
        slot[0] = Some(f(i));
    });
    out.into_iter()
        .map(|r| r.expect("par_map slot filled"))
        .collect()
}

/// Runs `f(index, &mut item)` for every item of `items` in parallel.
pub fn par_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_chunks_mut(items, 1, |i, chunk| f(i, &mut chunk[0]));
}

/// Reduces `items` with a *fixed-shape* binary tree: adjacent pairs are
/// combined round by round (`[a⊕b, c⊕d, …]` then again) until one value
/// remains. The association order — and therefore the floating-point
/// result — depends only on `items.len()`, making parallel gradient
/// accumulation bitwise reproducible at any thread count.
pub fn tree_reduce<T>(items: Vec<T>, mut combine: impl FnMut(T, T) -> T) -> Option<T> {
    let mut level = items;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        level = next;
    }
    level.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Serialises tests that resize the global pool.
    fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .expect("test lock")
    }

    #[test]
    fn par_for_visits_every_index_once() {
        let _g = pool_lock();
        for threads in [1, 2, 4] {
            set_threads(threads);
            let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
            par_for(97, 5, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::SeqCst),
                    1,
                    "index {i} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn dispatch_bumps_heartbeat_progress_epochs() {
        let _g = pool_lock();
        // Both dispatch paths must advance the watchdog's progress
        // epoch: inline (1 thread) and the queued path.
        for threads in [1, 4] {
            set_threads(threads);
            let before = cf_obs::heartbeat::progress_epoch();
            par_for(64, 4, |_range| {});
            let after = cf_obs::heartbeat::progress_epoch();
            assert!(
                after > before,
                "no progress epoch advance at {threads} threads"
            );
        }
    }

    #[test]
    fn par_chunks_mut_covers_disjoint_chunks() {
        let _g = pool_lock();
        set_threads(4);
        let mut data = vec![0usize; 103];
        par_chunks_mut(&mut data, 10, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 10 + 1, "element {i}");
        }
    }

    #[test]
    fn par_map_preserves_index_order() {
        let _g = pool_lock();
        set_threads(3);
        let out = par_map(50, |i| i * i);
        assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_each_mut_mutates_in_place() {
        let _g = pool_lock();
        set_threads(2);
        let mut items: Vec<u64> = (0..20).collect();
        par_each_mut(&mut items, |i, v| *v += i as u64);
        assert_eq!(items, (0..20).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn tree_reduce_is_shape_stable() {
        // 6 items: ((a+b)+(c+d)) + (e+f) — verify with a shape-sensitive
        // combine (string parenthesisation).
        let items: Vec<String> = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = tree_reduce(items, |a, b| format!("({a}+{b})")).unwrap();
        assert_eq!(out, "(((a+b)+(c+d))+((e+f)))".replace("((e+f))", "(e+f)"));
        assert!(tree_reduce(Vec::<i32>::new(), |a, _| a).is_none());
        assert_eq!(tree_reduce(vec![7], |a, b| a + b), Some(7));
    }

    #[test]
    fn nested_dispatch_fans_out_and_covers_range() {
        let _g = pool_lock();
        set_threads(4);
        let count = AtomicUsize::new(0);
        par_for(4, 1, |outer| {
            // Nested call must not deadlock and must cover its range;
            // idle threads may claim the inner chunks.
            par_for(8, 2, |inner| {
                count.fetch_add(inner.len() * outer.len(), Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn worker_panic_propagates_to_publisher() {
        let _g = pool_lock();
        set_threads(2);
        let result = std::panic::catch_unwind(|| {
            par_for(8, 1, |range| {
                if range.start == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err(), "panic must propagate");
        // Pool stays usable afterwards.
        let sum = AtomicUsize::new(0);
        par_for(10, 1, |r| {
            sum.fetch_add(r.start, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 45);
    }

    #[test]
    fn private_pool_runs_jobs() {
        let pool = Pool::new(3);
        assert_eq!(pool.size(), 3);
        let count = AtomicUsize::new(0);
        pool.run(10, &|_i| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn nested_jobs_complete_to_depth() {
        let _g = pool_lock();
        set_threads(4);
        let count = AtomicUsize::new(0);
        par_for(4, 1, |_| {
            par_for(4, 1, |_| {
                // Innermost level: a multi-chunk parallel loop.
                par_for(10, 3, |r| {
                    count.fetch_add(r.len(), Ordering::SeqCst);
                });
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 4 * 4 * 10);
    }

    /// Spins until `flag` is set or ten seconds pass.
    fn spin_until(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::SeqCst) && start.elapsed().as_secs() < 10 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn nested_chunk_panic_propagates_after_siblings_and_pool_survives() {
        let _g = pool_lock();
        set_threads(4);
        let here = std::thread::current().id();
        let on_publisher = || std::thread::current().id() == here;
        let pause = std::time::Duration::from_millis(20);
        let [outer_started, outer_finished, inner_started, inner_finished, panicked] =
            std::array::from_fn(|_| AtomicBool::new(false));
        // At both levels the chunk on this thread fails while its sibling
        // still runs on another thread: each publisher must wait for that
        // sibling before it rethrows.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_for(2, 1, |_| {
                if !on_publisher() {
                    outer_started.store(true, Ordering::SeqCst);
                    spin_until(&panicked);
                    std::thread::sleep(pause);
                    outer_finished.store(true, Ordering::SeqCst);
                    return;
                }
                spin_until(&outer_started);
                par_for(2, 1, |_| {
                    if !on_publisher() {
                        inner_started.store(true, Ordering::SeqCst);
                        std::thread::sleep(pause);
                        inner_finished.store(true, Ordering::SeqCst);
                        return;
                    }
                    spin_until(&inner_started);
                    panicked.store(true, Ordering::SeqCst);
                    panic!("nested chunk boom");
                });
            });
        }));
        assert!(
            result.is_err(),
            "nested panic must reach the outer publisher"
        );
        assert!(inner_finished.load(Ordering::SeqCst), "inner sibling");
        assert!(outer_finished.load(Ordering::SeqCst), "outer sibling");
        // Pool stays usable afterwards, nested fan-out included.
        let sum = AtomicUsize::new(0);
        par_for(4, 1, |_| {
            par_for(8, 1, |r| {
                sum.fetch_add(r.start, Ordering::SeqCst);
            });
        });
        assert_eq!(sum.load(Ordering::SeqCst), 4 * 28);
    }

    #[test]
    fn idle_threads_run_chunks_published_inside_a_chunk() {
        let _g = pool_lock();
        set_threads(4);
        let ran_elsewhere = AtomicBool::new(false);
        par_for(2, 1, |outer| {
            if outer.start != 0 {
                return;
            }
            // The publisher's own inner chunk spins, so the other inner
            // chunk can only run while it spins if another thread takes
            // it — which is exactly what we assert.
            let publisher = std::thread::current().id();
            par_for(2, 1, |_| {
                if std::thread::current().id() == publisher {
                    spin_until(&ran_elsewhere);
                } else {
                    ran_elsewhere.store(true, Ordering::SeqCst);
                }
            });
        });
        assert!(
            ran_elsewhere.load(Ordering::SeqCst),
            "an idle thread should have run the inner chunk while its publisher spun"
        );
    }

    #[test]
    fn parse_threads_bounds_outside_input() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 4 "), Ok(4));
        assert_eq!(parse_threads(&MAX_THREADS.to_string()), Ok(MAX_THREADS));
        for bad in ["0", "1025", "-1", "x", "", "99999999999999999999999"] {
            assert!(parse_threads(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn nested_busy_time_counts_once() {
        let _g = pool_lock();
        set_threads(2);
        let busy = cf_obs::metrics::counter("par.busy_ns");
        let before = busy.get();
        let started = Instant::now();
        // Each outer chunk waits on an inner job whose chunks its own
        // thread runs: without the nested subtraction every inner
        // nanosecond would be counted twice.
        par_map(2, |_| {
            par_map(4, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let wall_ns = started.elapsed().as_nanos() as u64;
        let busy_ns = busy.get() - before;
        assert!(busy_ns > 0, "parallel chunks recorded no busy time");
        assert!(
            busy_ns <= 2 * wall_ns,
            "busy {busy_ns} ns exceeds 2 threads x {wall_ns} ns wall"
        );
    }

    #[test]
    fn cost_model_respects_threads_and_nesting() {
        let _g = pool_lock();
        set_threads(1);
        assert!(!should_fan_out(u64::MAX, 1), "single thread never fans out");
        set_threads(4);
        assert!(should_fan_out(1000, 1000));
        assert!(!should_fan_out(999, 1000));
        // Inside a task the bar is NESTED_FANOUT_FACTOR times higher.
        let results = par_map(2, |_| {
            (
                should_fan_out(1000, 1000),
                should_fan_out(1000 * NESTED_FANOUT_FACTOR, 1000),
            )
        });
        for (below, above) in results {
            assert!(!below, "nested call below the raised bar stays serial");
            assert!(above, "nested call above the raised bar fans out");
        }
    }
}
