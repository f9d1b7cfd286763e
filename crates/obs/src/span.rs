//! The one instrumentation primitive: the [`span!`](crate::span!) guard
//! and the per-thread record it writes.
//!
//! Each thread owns one record, registered in a process-wide list the
//! first time the thread touches it. The record holds
//!
//! * the open-span stack — the dotted path the next span nests under
//!   (`discover.train.epoch`) and the watchdog's thread dump
//!   ([`open_spans`]);
//! * a call tree of closed spans: count / total / min / max and the
//!   `log2us-v1` buckets of [`crate::hist`] per path, plus count / time /
//!   FLOPs per op kind, folded when a span closes under the thread's own
//!   uncontended lock — no global lock on any span;
//! * the bounded ring of [trace](mod@crate::trace) events;
//! * the thread's name, heartbeat progress epoch and busy time.
//!
//! Readers see views that merge the records ([`summary`], [`ops`],
//! [`open_spans`], [`crate::hist::snapshot_json`],
//! [`crate::heartbeat::thread_progress`], [`crate::trace::drain`]).
//! Aggregates fold at close, so a full ring loses timeline detail but
//! never counts. The guard has three forms:
//!
//! * `span!("train")` — a scope span: pushed on the stack, folded into
//!   its path's aggregates, and a `Complete` ring event while ring
//!   recording is on.
//! * `span!("matmul", flops = n)` — an op span, keyed by kind, never on
//!   the stack or in the ring. With op detail off ([`set_op_detail`],
//!   the default) it costs one relaxed load: no clock read, and `n` is
//!   not evaluated.
//! * `span!("par.chunk", parent = &ctx)` — a scheduler span for work
//!   published by another thread: spans opened inside it nest under the
//!   publisher's path ([`context`]), whichever thread runs the work. It
//!   shows in thread dumps and in the ring but folds no aggregate,
//!   because how often the scheduler runs depends on the thread count.

use crate::hist::{bucket_index, BUCKETS};
use crate::json::{Arr, Obj};
use crate::lock;
use crate::trace::{Event, Kind, Name};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Opens a span that closes when the returned [`Span`] drops; see the
/// [module docs](mod@crate::span) for the three forms.
#[macro_export]
macro_rules! span {
    ($kind:expr, flops = $flops:expr) => {
        if $crate::span::op_detail() {
            $crate::span::Span::op($kind, $flops)
        } else {
            $crate::span::Span::off()
        }
    };
    ($name:expr, parent = $ctx:expr) => {
        $crate::span::Span::scheduler($name, $ctx)
    };
    ($name:expr) => {
        $crate::span::Span::scope($name)
    };
}

static OP_DETAIL: AtomicBool = AtomicBool::new(false);

/// Whether op spans record. Hot-path check: one relaxed load.
#[inline]
pub fn op_detail() -> bool {
    OP_DETAIL.load(Ordering::Relaxed)
}

/// Turns op detail on or off (off by default).
pub fn set_op_detail(on: bool) {
    OP_DETAIL.store(on, Ordering::Relaxed);
}

/// Aggregate of the closed spans at one path, or of one op kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Closed spans.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Shortest duration, ns (`u64::MAX` while `count` is 0).
    pub min_ns: u64,
    /// Longest duration, ns.
    pub max_ns: u64,
    /// Summed FLOP estimates (op spans).
    pub flops: u64,
    /// `log2us-v1` duration buckets (see [`crate::hist`]).
    pub buckets: [u64; BUCKETS],
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            flops: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Stats {
    /// Adds one closed span of `ns` nanoseconds.
    pub fn fold(&mut self, ns: u64, flops: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.flops += flops;
        self.buckets[bucket_index(ns as f64 / 1e3)] += 1;
    }

    /// Adds every span `other` holds.
    pub fn merge(&mut self, other: &Stats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.flops += other.flops;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets) {
            *b += o;
        }
    }

    /// Mean duration, ns (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate `q`-quantile of the durations, µs.
    pub fn quantile_us(&self, q: f64) -> f64 {
        crate::hist::quantile_us(&self.buckets, q)
    }
}

/// One thread's record; the views merge them.
pub(crate) struct Record {
    /// Stable per-process thread id (1-based registration order).
    pub(crate) tid: u64,
    /// Heartbeat progress epoch and busy time: relaxed atomics, so the
    /// scheduler bumps them per chunk without taking the lock.
    pub(crate) epoch: AtomicU64,
    pub(crate) busy_ns: AtomicU64,
    pub(crate) state: Mutex<State>,
}

pub(crate) struct State {
    /// Timeline name (OS thread name or [`register_thread`] override).
    pub(crate) name: String,
    /// Open spans, outermost first.
    stack: Vec<Frame>,
    /// Call tree of span paths; node 0 is the root (the empty path).
    nodes: Vec<Node>,
    ops: HashMap<&'static str, Stats>,
    pub(crate) ring: VecDeque<Event>,
    /// Events this ring dropped (oldest first) since the last reset.
    pub(crate) dropped: u64,
}

struct Frame {
    name: Name,
    /// Tree node spans opened inside this one nest under.
    node: usize,
}

struct Node {
    name: Name,
    parent: usize,
    children: Vec<usize>,
    stats: Stats,
}

impl State {
    fn top(&self) -> usize {
        self.stack.last().map_or(0, |f| f.node)
    }

    fn child(&mut self, parent: usize, name: &Name) -> usize {
        let nodes = &self.nodes;
        let found = nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| nodes[c].name.as_str() == name.as_str());
        found.unwrap_or_else(|| {
            let id = self.nodes.len();
            self.nodes.push(Node {
                name: name.clone(),
                parent,
                children: Vec::new(),
                stats: Stats::default(),
            });
            self.nodes[parent].children.push(id);
            id
        })
    }

    /// Names from the root down to `node`.
    fn names(&self, mut node: usize) -> Vec<Name> {
        let mut names = Vec::new();
        while node != 0 {
            names.push(self.nodes[node].name.clone());
            node = self.nodes[node].parent;
        }
        names.reverse();
        names
    }

    fn path(&self, node: usize) -> String {
        let names = self.names(node);
        names.iter().map(Name::as_str).collect::<Vec<_>>().join(".")
    }

    /// Appends to the ring, dropping the oldest event when it is full.
    pub(crate) fn push_event(&mut self, ev: Event) {
        if self.ring.len() >= crate::trace::CAPACITY {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }
}

static REGISTRY: Mutex<Vec<Arc<Record>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Record> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let record = Arc::new(Record {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            state: Mutex::new(State {
                name: std::thread::current().name().unwrap_or("thread").to_string(),
                stack: Vec::new(),
                nodes: vec![Node {
                    name: Name::Static(""),
                    parent: 0,
                    children: Vec::new(),
                    stats: Stats::default(),
                }],
                ops: HashMap::new(),
                ring: VecDeque::new(),
                dropped: 0,
            }),
        });
        lock(&REGISTRY).push(Arc::clone(&record));
        record
    };
}

/// Runs `f` on the calling thread's record.
pub(crate) fn local<R>(f: impl FnOnce(&Record) -> R) -> R {
    LOCAL.with(|r| f(r))
}

pub(crate) fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    LOCAL.with(|r| f(&mut lock(&r.state)))
}

/// Every registered record (threads that exited included).
pub(crate) fn records() -> Vec<Arc<Record>> {
    lock(&REGISTRY).clone()
}

/// Names the calling thread's timeline and heartbeat row. Threads that
/// never call this use their OS thread name (or "thread").
pub fn register_thread(name: impl Into<String>) {
    with_state(|s| s.name = name.into());
}

/// A span path captured on one thread for work another thread runs.
#[derive(Debug, Clone)]
pub struct Context(Option<Arc<[Name]>>);

impl Context {
    /// The running thread's own open path: a scheduler span opened with
    /// it leaves the path as it finds it.
    pub const HERE: Context = Context(None);
}

/// Captures the calling thread's open span path, for a scheduler span
/// on the thread that runs the published work.
pub fn context() -> Context {
    with_state(|s| Context(Some(s.names(s.top()).into())))
}

/// A live span; see [`span!`](crate::span!).
#[must_use = "a span times its scope; dropping it at once records ~0"]
pub struct Span {
    open: Open,
    start_ns: u64,
    /// Spans close on the thread that opened them.
    _thread: PhantomData<*const ()>,
}

enum Open {
    Off,
    Op {
        kind: &'static str,
        flops: u64,
    },
    /// A stack frame; `fold` names the tree node a scope span folds into.
    Frame {
        fold: Option<usize>,
        ring: bool,
    },
}

impl Span {
    fn new(open: Open, timed: bool) -> Span {
        Span {
            open,
            start_ns: if timed { crate::anchor_ns() } else { 0 },
            _thread: PhantomData,
        }
    }

    /// A span that records nothing.
    pub fn off() -> Span {
        Span::new(Open::Off, false)
    }

    /// An op span of `kind` carrying `flops` estimated operations.
    pub fn op(kind: &'static str, flops: u64) -> Span {
        Span::new(Open::Op { kind, flops }, true)
    }

    /// A scope span nested under the calling thread's open spans.
    pub fn scope(name: impl Into<Name>) -> Span {
        Span::frame(name.into(), true, |s, name| s.child(s.top(), name))
    }

    /// A scheduler span running work published under `parent`.
    pub fn scheduler(name: &'static str, parent: &Context) -> Span {
        Span::frame(Name::Static(name), false, |s, _| match &parent.0 {
            Some(names) => names.iter().fold(0, |node, n| s.child(node, n)),
            None => s.top(),
        })
    }

    /// Pushes a frame on the node `node_of` picks; a folding frame (a
    /// scope span) is always timed, a scheduler span only for the ring.
    fn frame(name: Name, fold: bool, node_of: impl FnOnce(&mut State, &Name) -> usize) -> Span {
        let node = with_state(|s| {
            let node = node_of(s, &name);
            s.stack.push(Frame { name, node });
            node
        });
        let ring = crate::trace::enabled();
        let fold = fold.then_some(node);
        Span::new(Open::Frame { fold, ring }, fold.is_some() || ring)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let start = self.start_ns;
        match self.open {
            Open::Off => {}
            Open::Op { kind, flops } => {
                let ns = crate::anchor_ns().saturating_sub(start);
                with_state(|s| s.ops.entry(kind).or_default().fold(ns, flops));
            }
            Open::Frame { fold, ring } => {
                let dur_ns = if fold.is_some() || ring {
                    crate::anchor_ns().saturating_sub(start)
                } else {
                    0
                };
                with_state(|s| {
                    let frame = s.stack.pop();
                    if let Some(node) = fold {
                        s.nodes[node].stats.fold(dur_ns, 0);
                    }
                    if let (true, Some(frame)) = (ring, frame) {
                        s.push_event(Event {
                            name: frame.name,
                            ts_ns: start,
                            kind: Kind::Complete { dur_ns },
                        });
                    }
                });
            }
        }
    }
}

/// Every closed span path, merged over all threads, sorted by path.
pub fn summary() -> Vec<(String, Stats)> {
    let mut merged: BTreeMap<String, Stats> = BTreeMap::new();
    for record in records() {
        let s = lock(&record.state);
        for (i, node) in s.nodes.iter().enumerate() {
            if node.stats.count > 0 {
                merged.entry(s.path(i)).or_default().merge(&node.stats);
            }
        }
    }
    merged.into_iter().collect()
}

/// Every op kind, merged over all threads, by total time descending.
pub fn ops() -> Vec<(&'static str, Stats)> {
    let mut merged: HashMap<&'static str, Stats> = HashMap::new();
    for record in records() {
        for (kind, stats) in &lock(&record.state).ops {
            merged.entry(kind).or_default().merge(stats);
        }
    }
    let mut out: Vec<_> = merged.into_iter().collect();
    out.sort_by_key(|&(kind, s)| (std::cmp::Reverse(s.total_ns), kind));
    out
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The `span_summary` payload: `[{span, count, total_secs, mean_secs,
/// min_secs, max_secs, p50_secs, p95_secs, p99_secs}, …]` by path.
pub fn summary_json() -> String {
    let mut arr = Arr::new();
    for (path, s) in summary() {
        arr = arr.raw(
            &Obj::new()
                .str("span", &path)
                .u64("count", s.count)
                .f64("total_secs", secs(s.total_ns))
                .f64("mean_secs", secs(s.mean_ns()))
                .f64("min_secs", secs(s.min_ns))
                .f64("max_secs", secs(s.max_ns))
                .f64("p50_secs", s.quantile_us(0.50) / 1e6)
                .f64("p95_secs", s.quantile_us(0.95) / 1e6)
                .f64("p99_secs", s.quantile_us(0.99) / 1e6)
                .finish(),
        );
    }
    arr.finish()
}

/// The `op_profile` payload: `[{op, count, total_secs, mean_us,
/// approx_gflops}, …]` by total time descending.
pub fn ops_json() -> String {
    let mut arr = Arr::new();
    for (kind, s) in ops() {
        arr = arr.raw(
            &Obj::new()
                .str("op", kind)
                .u64("count", s.count)
                .f64("total_secs", secs(s.total_ns))
                .f64("mean_us", s.mean_ns() as f64 / 1e3)
                .f64("approx_gflops", s.flops as f64 / 1e9)
                .finish(),
        );
    }
    arr.finish()
}

/// One thread's open span stack, as sampled by [`open_spans`].
pub struct OpenSpans {
    /// Stable per-process thread id.
    pub tid: u64,
    /// Timeline name.
    pub thread: String,
    /// Open span names, outermost first.
    pub spans: Vec<String>,
}

/// Every thread's open span stack — the stall watchdog's thread dump.
/// Threads with no open span are skipped.
pub fn open_spans() -> Vec<OpenSpans> {
    let mut out: Vec<OpenSpans> = records()
        .iter()
        .filter_map(|record| {
            let s = lock(&record.state);
            (!s.stack.is_empty()).then(|| OpenSpans {
                tid: record.tid,
                thread: s.name.clone(),
                spans: s
                    .stack
                    .iter()
                    .map(|f| f.name.as_str().to_string())
                    .collect(),
            })
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// Zeroes every path and op aggregate; open spans stay open.
pub(crate) fn reset() {
    for record in records() {
        let mut s = lock(&record.state);
        for node in &mut s.nodes {
            node.stats = Stats::default();
        }
        s.ops.clear();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Duration;

    /// The merged stats of one exact path, if any span closed there.
    pub(crate) fn get(path: &str) -> Option<Stats> {
        summary()
            .into_iter()
            .find(|(p, _)| p == path)
            .map(|(_, s)| s)
    }

    // The records are process-global; each test uses its own root names
    // so parallel test threads cannot collide.

    #[test]
    fn nesting_produces_dotted_paths() {
        {
            let _a = crate::span!("t_outer");
            {
                let _b = crate::span!("t_inner");
            }
            {
                let _b = crate::span!(String::from("t_inner"));
            }
        }
        let inner = get("t_outer.t_inner").expect("nested path recorded");
        assert_eq!(inner.count, 2);
        let outer = get("t_outer").expect("outer path recorded");
        assert_eq!(outer.count, 1);
    }

    #[test]
    fn timing_is_monotone_and_consistent() {
        {
            let _g = crate::span!("t_sleepy");
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let _g = crate::span!("t_sleepy");
        }
        let s = get("t_sleepy").unwrap();
        assert!(s.total_ns >= 5_000_000, "total {}", s.total_ns);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
        assert!(s.mean_ns() >= s.min_ns && s.mean_ns() <= s.max_ns);
        assert_eq!(s.buckets.iter().sum::<u64>(), 2, "one bucket per span");
    }

    #[test]
    fn outer_span_covers_inner() {
        {
            let _a = crate::span!("t_cover");
            let _b = crate::span!("t_part");
            std::thread::sleep(Duration::from_millis(2));
        }
        let outer = get("t_cover").unwrap();
        let inner = get("t_cover.t_part").unwrap();
        assert!(outer.total_ns >= inner.total_ns);
    }

    fn find_op(kind: &str) -> Option<Stats> {
        ops().into_iter().find(|(k, _)| *k == kind).map(|(_, s)| s)
    }

    // The two op-span tests flip the process-global op-detail switch;
    // both hold the test lock.

    #[test]
    fn disabled_op_span_records_nothing() {
        let _guard = crate::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        set_op_detail(false);
        let mut evaluated = false;
        {
            let _t = crate::span!(
                "t_op_noop",
                flops = {
                    evaluated = true;
                    100
                }
            );
        }
        assert!(find_op("t_op_noop").is_none(), "disabled op span recorded");
        assert!(!evaluated, "FLOP estimate evaluated with op detail off");
    }

    #[test]
    fn enabled_op_spans_accumulate_count_and_flops() {
        let _guard = crate::test_lock().lock().unwrap_or_else(|e| e.into_inner());
        set_op_detail(true);
        {
            let _t = crate::span!("t_op", flops = 10);
        }
        std::thread::spawn(|| {
            let _t = crate::span!("t_op", flops = 15);
        })
        .join()
        .unwrap();
        set_op_detail(false);
        let stats = find_op("t_op").expect("op recorded");
        assert_eq!(stats.count, 2, "op kinds merge across threads");
        assert_eq!(stats.flops, 25);
        assert!(summary().iter().all(|(p, _)| !p.contains("t_op")));
    }

    #[test]
    fn scheduler_spans_nest_work_under_the_publishers_path() {
        let ctx = {
            let _a = crate::span!("t_pub");
            let _b = crate::span!("t_stage");
            context()
        };
        std::thread::spawn(move || {
            let _task = crate::span!("t_sched.task", parent = &ctx);
            let _w = crate::span!("t_work");
            let dump = open_spans();
            let me = dump.iter().find(|t| t.spans.iter().any(|s| s == "t_work"));
            assert_eq!(
                me.map(|t| t.spans.clone()),
                Some(vec!["t_sched.task".to_string(), "t_work".to_string()])
            );
        })
        .join()
        .unwrap();
        {
            let _job = crate::span!("t_sched.job", parent = &Context::HERE);
            let _w = crate::span!("t_work");
        }
        assert_eq!(get("t_pub.t_stage.t_work").map(|s| s.count), Some(1));
        assert_eq!(get("t_work").map(|s| s.count), Some(1));
        assert!(
            summary().iter().all(|(p, _)| !p.contains("t_sched")),
            "scheduler spans fold no aggregate"
        );
    }
}
