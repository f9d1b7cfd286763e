//! `cf-par`: a zero-dependency work-stealing task scheduler for the
//! CausalFormer stack.
//!
//! The build environment has no network registry, so this crate supplies
//! the small slice of rayon the workloads actually need, built on
//! `std::thread` only:
//!
//! * [`scope`] / [`Scope::spawn`] — structured task parallelism: spawn
//!   heterogeneous tasks that may themselves spawn or run nested
//!   parallel loops, with panics propagated to the scope owner,
//! * [`join`] — run two closures in parallel, returning both results,
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
//! Each spawned worker owns a deque of tasks protected by a mutex. The
//! owner pushes and pops at the *back* (LIFO — newest, cache-hot,
//! finest-grained work first), while thieves steal from the *front*
//! (FIFO — oldest, coarsest work first, the classic Cilk property that
//! keeps steal counts logarithmic in the task-tree depth). Threads with
//! no deque of their own — the main thread publishing a job, or CLI
//! callers — push to a shared injector queue instead. A thread looking
//! for work scans: own deque (back) → injector (front) → other deques
//! (front, starting from a random victim).
//!
//! Blocking is cooperative: a thread waiting for a scope or parallel-for
//! to finish *helps* — it executes queued tasks instead of parking — so
//! nested parallelism cannot deadlock and a pool of size 1 still runs
//! every spawned task on the calling thread. Idle workers park on a
//! condvar guarded by a global activity epoch; every task push and every
//! job/scope completion bumps the epoch, which makes lost wakeups
//! impossible (the sleeper re-checks the epoch under the lock before
//! waiting).
//!
//! # Determinism contract
//!
//! Every primitive here is deterministic at any pool size:
//!
//! * Work is split into chunks whose boundaries depend only on the problem
//!   size and the caller-supplied grain — not on the number of threads.
//!   Which *worker* executes a chunk (or steals a task) is
//!   scheduling-dependent, but each chunk is a pure function of its inputs
//!   writing a disjoint output region, so results are bitwise identical
//!   regardless of assignment.
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
//! stays serial on the executing worker. When the caller is already
//! inside a scheduler task (`in_task()`), the threshold is multiplied by
//! [`NESTED_FANOUT_FACTOR`] — coarse tasks (per-window detector passes,
//! per-target baseline training, bench cells) have already claimed the
//! workers, so only genuinely large nested kernels are worth splitting
//! into stealable subtasks.
//!
//! # Pool lifecycle
//!
//! A process-global pool is created lazily on first use, sized by the
//! `CF_THREADS` environment variable (falling back to
//! `std::thread::available_parallelism`). [`set_threads`] replaces the
//! pool (used by `--threads` CLI flags and the equivalence tests).
//! Workers are long-lived and park between tasks; a pool of size 1
//! spawns no threads at all.
//!
//! # Observability
//!
//! Each dispatch updates `cf-obs` counters: `par.jobs` / `par.jobs_inline`
//! (parallel vs inline dispatches), `par.tasks` (chunks executed),
//! `par.spawns` (scope tasks spawned), `par.steals` (tasks taken from
//! another worker's deque), `par.overflow` (tasks routed through the
//! shared injector), `par.busy_ns` (summed chunk execution time, each
//! nanosecond once: a chunk excludes nested chunks its thread ran while
//! it waited), and
//! `par.idle_ns` (pool-size × job wall-clock minus busy time). The
//! `par.threads` gauge records the pool size. Scheduler spans: `par.job`
//! (a parallel-for dispatch), `par.chunk` (one chunk), `par.task` (one
//! spawned task), and `par.steal` (wrapping execution of a stolen task),
//! so `analyze --compare` can attribute residual serial fraction to
//! scheduling rather than kernels. Each job and task carries the span
//! path open where it was published (`cf_obs::span::context`), and its
//! chunks run under it: a span opened inside a task nests under the
//! publisher's path whichever thread runs it, so span paths do not
//! depend on the thread count. The context also carries the publisher's
//! `cf_obs::Recorder`: chunks and tasks write their spans, counters and
//! progress into the publisher's recorder, whichever worker runs them.
//! Each job and scope fetches its counter handles from that recorder
//! once. The pool itself, and so its size, is process-wide.
//!
//! Every chunk/task completion additionally bumps the executing
//! thread's `cf_obs::heartbeat` progress epoch and busy time —
//! the live signal the stall watchdog and the `monitor` per-thread
//! busy view are built on. A run whose epoch stops advancing for the
//! watchdog window is flagged stalled.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Multiplier applied to a kernel's FLOP threshold when the caller is
/// already running inside a scheduler task: nested fan-out has to beat
/// the coarse-grained parallelism that is already in flight, so it needs
/// proportionally more work to pay for its dispatch.
pub const NESTED_FANOUT_FACTOR: u64 = 4;

// ---------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------

/// One parallel-for dispatch shared between the publisher and every
/// thread that picks up a runner task for it.
///
/// Type-erased chunk closure: the pointer borrows from the publishing
/// stack frame; soundness rests on [`Pool::run`] not returning until
/// every chunk has finished executing (`done == total`), after which no
/// thread dereferences `func` again — a stale runner task popped later
/// finds the claim cursor exhausted and touches only atomics.
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
    }
}

/// Book-keeping shared by a [`scope`] and the tasks it spawned.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    metrics: ParMetrics,
}

/// A spawned closure whose `'scope` lifetime has been erased. Soundness:
/// [`scope`] does not return (or unwind) until `pending == 0`, so every
/// borrow captured by `f` outlives its execution.
struct OnceTask {
    f: Box<dyn FnOnce() + Send>,
    scope: Arc<ScopeState>,
    /// The spawner's open span path and recorder; the task runs under it.
    ctx: cf_obs::span::Context,
}

enum Task {
    For(Arc<ForJob>),
    Once(OnceTask),
}

impl Task {
    /// The counters of the job or scope this task belongs to.
    fn metrics(&self) -> &ParMetrics {
        match self {
            Task::For(job) => &job.metrics,
            Task::Once(task) => &task.scope.metrics,
        }
    }
}

// ---------------------------------------------------------------------
// Shared scheduler state
// ---------------------------------------------------------------------

struct SchedState {
    shutdown: bool,
}

struct Shared {
    /// One deque per spawned worker (`size - 1` of them). Owners push and
    /// pop at the back; thieves steal from the front.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Overflow queue for tasks pushed by threads without a deque.
    injector: Mutex<VecDeque<Task>>,
    sched: Mutex<SchedState>,
    cv: Condvar,
    /// Activity epoch: bumped on every push and every job/scope
    /// completion. Sleepers re-check it under `sched` before waiting, so
    /// a signal between "scan found nothing" and "wait" is never lost.
    epoch: AtomicU64,
    /// Number of threads inside the condvar wait loop; lets `signal`
    /// skip the lock when nobody is parked.
    sleepers: AtomicUsize,
}

std::thread_local! {
    /// `(shared-identity, deque-index)` for pool workers; `None` on every
    /// other thread. The identity pins the worker to its own pool so a
    /// private test pool's worker never pushes into the global pool.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    /// True while this thread is executing a scheduler task or chunk.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
    /// Per-thread xorshift state for random victim selection.
    static STEAL_RNG: Cell<u64> = const { Cell::new(0) };
    /// Wall time of the outermost chunks this thread has finished. A
    /// chunk that helps run nested chunks while it waits subtracts their
    /// share, so `par.busy_ns` counts each nanosecond once.
    static CHUNK_NS: Cell<u64> = const { Cell::new(0) };
}

fn rng_next() -> u64 {
    STEAL_RNG.with(|c| {
        let mut x = c.get();
        if x == 0 {
            static SEED: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
            x = SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed) | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        x
    })
}

impl Shared {
    fn identity(&self) -> usize {
        self as *const Shared as usize
    }

    /// Index of the calling thread's own deque in this pool, if any.
    fn own_deque(&self) -> Option<usize> {
        match WORKER.with(|w| w.get()) {
            Some((id, idx)) if id == self.identity() => Some(idx),
            _ => None,
        }
    }

    fn signal(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this notify after any sleeper's
            // epoch re-check, closing the lost-wakeup window.
            let _g = self.sched.lock().expect("cf-par sched poisoned");
            self.cv.notify_all();
        }
    }

    /// Queues a task: onto the caller's own deque when the caller is a
    /// worker of this pool (back — LIFO for the owner), else through the
    /// shared injector.
    fn push_task(&self, task: Task) {
        match self.own_deque() {
            Some(idx) => {
                self.deques[idx]
                    .lock()
                    .expect("cf-par deque poisoned")
                    .push_back(task);
            }
            None => {
                task.metrics().overflow.add(1);
                self.injector
                    .lock()
                    .expect("cf-par injector poisoned")
                    .push_back(task);
            }
        }
        self.signal();
    }

    /// Scans for runnable work: own deque (back) → injector (front) →
    /// other deques (front), starting from a random victim. The `bool`
    /// is true when the task was stolen from another worker's deque.
    fn find_task(&self) -> Option<(Task, bool)> {
        let own = self.own_deque();
        if let Some(idx) = own {
            if let Some(t) = self.deques[idx]
                .lock()
                .expect("cf-par deque poisoned")
                .pop_back()
            {
                return Some((t, false));
            }
        }
        if let Some(t) = self
            .injector
            .lock()
            .expect("cf-par injector poisoned")
            .pop_front()
        {
            return Some((t, false));
        }
        let n = self.deques.len();
        if n > 0 {
            let start = (rng_next() % n as u64) as usize;
            for k in 0..n {
                let victim = (start + k) % n;
                if own == Some(victim) {
                    continue;
                }
                if let Some(t) = self.deques[victim]
                    .lock()
                    .expect("cf-par deque poisoned")
                    .pop_front()
                {
                    t.metrics().steals.add(1);
                    return Some((t, true));
                }
            }
        }
        None
    }

    /// Runs one task with the in-task flag set, wrapping stolen work in a
    /// `par.steal` span so traces show migration cost.
    fn execute(&self, task: Task, stolen: bool) {
        let _steal_span =
            stolen.then(|| cf_obs::span!("par.steal", parent = &cf_obs::span::Context::HERE));
        let prev = IN_TASK.with(|c| c.replace(true));
        match task {
            Task::For(job) => job.work(self),
            Task::Once(OnceTask { f, scope, ctx }) => {
                // Closes before `pending` counts the task; see `ForJob::work`.
                let task_span = cf_obs::span!("par.task", parent = &ctx);
                let started = Instant::now();
                if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                    let mut slot = scope.panic.lock().expect("cf-par scope panic poisoned");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                cf_obs::heartbeat::add_busy_ns(started.elapsed().as_nanos() as u64);
                cf_obs::heartbeat::bump_progress();
                drop(task_span);
                if scope.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                    self.signal();
                }
            }
        }
        IN_TASK.with(|c| c.set(prev));
    }

    /// Cooperative wait: executes queued tasks until `done()` holds,
    /// parking on the condvar only when a full scan finds nothing. The
    /// epoch protocol guarantees progress: whoever makes `done()` true
    /// (or pushes a task) bumps the epoch after the fact, so a sleeper
    /// that read the epoch before its failed scan cannot miss it.
    fn help_until(&self, done: &dyn Fn() -> bool) {
        loop {
            let seen = self.epoch.load(Ordering::SeqCst);
            if done() {
                return;
            }
            if let Some((task, stolen)) = self.find_task() {
                self.execute(task, stolen);
                continue;
            }
            self.park(seen);
        }
    }

    /// Blocks until the activity epoch moves past `seen` (or shutdown).
    fn park(&self, seen: u64) {
        let mut g = self.sched.lock().expect("cf-par sched poisoned");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !g.shutdown && self.epoch.load(Ordering::SeqCst) == seen {
            g = self.cv.wait(g).expect("cf-par sched poisoned");
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((shared.identity(), index))));
    loop {
        let seen = shared.epoch.load(Ordering::SeqCst);
        if let Some((task, stolen)) = shared.find_task() {
            shared.execute(task, stolen);
            continue;
        }
        {
            let mut g = shared.sched.lock().expect("cf-par sched poisoned");
            if g.shutdown {
                return;
            }
            shared.sleepers.fetch_add(1, Ordering::SeqCst);
            while !g.shutdown && shared.epoch.load(Ordering::SeqCst) == seen {
                g = shared.cv.wait(g).expect("cf-par sched poisoned");
            }
            let stop = g.shutdown;
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            if stop {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------

/// A fixed-size work-stealing pool. Most callers use the process-global
/// pool via the free functions; tests may build private pools.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl Pool {
    /// A pool executing on `size` threads total (the publishing thread
    /// counts as one; `size - 1` background workers are spawned).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            deques: (1..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            sched: Mutex::new(SchedState { shutdown: false }),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
        });
        let handles = (1..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cf-par-{i}"))
                    .spawn(move || worker_loop(shared, i - 1))
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
    /// the job has at most one chunk; otherwise publishes stealable
    /// runner tasks — including from *inside* another task, which is how
    /// nested parallelism fans out instead of serialising.
    pub fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        let _job_span = cf_obs::span!("par.job", parent = &cf_obs::span::Context::HERE);
        if self.size == 1 || chunks == 1 {
            cf_obs::metrics::counter("par.jobs_inline").inc();
            cf_obs::metrics::counter("par.tasks").add(chunks as u64);
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
            metrics: ParMetrics::fetch(),
        });
        let started = Instant::now();
        // One runner task per thread that could usefully join in; the
        // publisher itself is the remaining runner. Runner tasks left
        // over after the job drains are popped later as cheap no-ops.
        let runners = chunks.min(self.size) - 1;
        for _ in 0..runners {
            self.shared.push_task(Task::For(Arc::clone(&job)));
        }

        // The publisher works its own job, then helps (executing other
        // queued tasks if its own chunks are all claimed) until done.
        let prev = IN_TASK.with(|c| c.replace(true));
        job.work(&self.shared);
        IN_TASK.with(|c| c.set(prev));
        self.shared.help_until(&|| job.is_done());

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
        {
            let mut st = self.shared.sched.lock().expect("cf-par sched poisoned");
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Scoped tasks
// ---------------------------------------------------------------------

/// Handle passed to the closure of [`scope`]; lets it spawn tasks that
/// may borrow from the enclosing stack frame.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    // Invariant over 'scope, like rayon: stops the borrow checker from
    // shrinking the scope lifetime to something the tasks outlive.
    _marker: PhantomData<Cell<&'scope ()>>,
}

impl<'scope> Scope<'scope> {
    /// Queues `f` as a stealable task. It may run on any pool thread (or
    /// on the scope owner while it waits); it is guaranteed to have
    /// finished before [`scope`] returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        self.state.metrics.spawns.add(1);
        let f: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: lifetime erasure. `scope` does not return or unwind
        // until `pending == 0`, i.e. until this task has run to
        // completion, so every `'scope` borrow it captures stays live.
        let f: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(f) };
        self.shared.push_task(Task::Once(OnceTask {
            f,
            scope: Arc::clone(&self.state),
            ctx: cf_obs::span::context(),
        }));
    }
}

/// Structured-concurrency scope on the global pool: `op` may spawn tasks
/// borrowing anything that outlives the call; all of them complete
/// before `scope` returns. The owner helps execute queued tasks while it
/// waits, so nesting scopes inside tasks (to any depth) cannot deadlock.
/// A panic in `op` or any task is re-thrown here after all tasks finish.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    let pool = current();
    let state = Arc::new(ScopeState {
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        metrics: ParMetrics::fetch(),
    });
    let s = Scope {
        shared: Arc::clone(&pool.shared),
        state: Arc::clone(&state),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| op(&s)));
    // Even when `op` panicked, spawned tasks may still borrow the frame:
    // wait for all of them before unwinding further.
    pool.shared
        .help_until(&|| state.pending.load(Ordering::SeqCst) == 0);
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(r) => {
            if let Some(payload) = state.panic.lock().expect("cf-par scope poisoned").take() {
                resume_unwind(payload);
            }
            r
        }
    }
}

/// Runs `a` on the calling thread and `b` as a stealable task, returning
/// both results. Panics in either branch propagate after both finish.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let mut rb: Option<RB> = None;
    let ra = scope(|s| {
        s.spawn(|| rb = Some(b()));
        a()
    });
    (ra, rb.expect("cf-par join: spawned branch completed"))
}

/// True while the calling thread is executing a scheduler task or chunk;
/// used by the cost model to demand more work before nested fan-out.
pub fn in_task() -> bool {
    IN_TASK.with(|c| c.get())
}

/// The FLOP cost model: should a kernel loop with `work` estimated
/// operations dispatch in parallel? False on a single-thread pool (the
/// serial path is contractually bitwise identical), and nested calls —
/// from inside a task that already claimed a worker — must clear
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

/// The pool size the environment asks for: `CF_THREADS` if set and
/// positive, else `available_parallelism`.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CF_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
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

/// Replaces the process-global pool with one of `n` threads (clamped to a
/// minimum of 1). In-flight jobs on the old pool finish undisturbed.
pub fn set_threads(n: usize) {
    let pool = Arc::new(Pool::new(n.max(1)));
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

/// The `par.*` counters of one job or scope, in its publisher's recorder.
struct ParMetrics {
    jobs: cf_obs::metrics::Counter,
    tasks: cf_obs::metrics::Counter,
    spawns: cf_obs::metrics::Counter,
    steals: cf_obs::metrics::Counter,
    overflow: cf_obs::metrics::Counter,
    busy_ns: cf_obs::metrics::Counter,
    idle_ns: cf_obs::metrics::Counter,
}

impl ParMetrics {
    /// The handles of the calling thread's recorder.
    fn fetch() -> ParMetrics {
        let counter = cf_obs::metrics::counter;
        ParMetrics {
            jobs: counter("par.jobs"),
            tasks: counter("par.tasks"),
            spawns: counter("par.spawns"),
            steals: counter("par.steals"),
            overflow: counter("par.overflow"),
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
        // epoch: inline (1 thread) and the work-stealing path.
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
        // Scope tasks count too.
        let before = cf_obs::heartbeat::progress_epoch();
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {});
            }
        });
        assert!(cf_obs::heartbeat::progress_epoch() > before);
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
            // under the task scheduler the inner chunks are stealable.
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
    fn scope_runs_spawned_tasks_with_borrows() {
        let _g = pool_lock();
        for threads in [1, 4] {
            set_threads(threads);
            let hits: Vec<AtomicUsize> = (0..32).map(|_| AtomicUsize::new(0)).collect();
            scope(|s| {
                for i in 0..32 {
                    let hits = &hits;
                    s.spawn(move || {
                        hits[i].fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "task {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn nested_scopes_complete_to_depth() {
        let _g = pool_lock();
        set_threads(4);
        let count = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..4 {
                let count = &count;
                outer.spawn(move || {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                // Innermost level: a parallel loop.
                                par_for(10, 3, |r| {
                                    count.fetch_add(r.len(), Ordering::SeqCst);
                                });
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 4 * 4 * 10);
    }

    #[test]
    fn scope_panic_in_task_propagates_and_pool_survives() {
        let _g = pool_lock();
        set_threads(2);
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("task boom"));
                s.spawn(|| {
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            });
        }));
        assert!(result.is_err(), "task panic must propagate from scope");
        // The sibling task still ran to completion before the rethrow.
        assert_eq!(finished.load(Ordering::SeqCst), 1);
        // Pool stays usable afterwards.
        assert_eq!(par_map(8, |i| i).len(), 8);
    }

    #[test]
    fn join_returns_both_results_and_propagates_panics() {
        let _g = pool_lock();
        set_threads(2);
        let (a, b) = join(|| 2 + 2, || "b".to_string());
        assert_eq!((a, b.as_str()), (4, "b"));
        let r = std::panic::catch_unwind(|| join(|| 1, || panic!("right boom")));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| join(|| panic!("left boom"), || 1));
        assert!(r.is_err());
    }

    #[test]
    fn idle_threads_steal_tasks_spawned_inside_a_task() {
        let _g = pool_lock();
        set_threads(4);
        let stolen = AtomicBool::new(false);
        scope(|s| {
            let stolen = &stolen;
            s.spawn(move || {
                // This task occupies one thread. Tasks it spawns land on
                // its own deque (or the injector) and can only start
                // while it is still spinning if another thread takes
                // them — which is exactly what we assert.
                scope(|inner| {
                    inner.spawn(move || {
                        stolen.store(true, Ordering::SeqCst);
                    });
                    let start = Instant::now();
                    while !stolen.load(Ordering::SeqCst) {
                        if start.elapsed().as_secs() > 10 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            });
        });
        assert!(
            stolen.load(Ordering::SeqCst),
            "an idle thread should have taken the inner task while its owner spun"
        );
    }

    #[test]
    fn steals_spread_work_across_workers() {
        let _g = pool_lock();
        set_threads(4);
        // Many slow-ish tasks spawned from one thread: correctness (every
        // task runs exactly once) is asserted strictly; distribution is
        // asserted via the scheduler's own invariant that all tasks
        // complete even though the spawner never executes them itself.
        let ran: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        scope(|s| {
            for i in 0..64 {
                let ran = &ran;
                s.spawn(move || {
                    std::thread::yield_now();
                    ran[i].fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        for (i, r) in ran.iter().enumerate() {
            assert_eq!(r.load(Ordering::SeqCst), 1, "task {i} ran exactly once");
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
