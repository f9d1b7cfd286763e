use crate::lock;
use crate::metrics::Registry;
use crate::sink::Sink;
use crate::span::Record;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// The one owner of what a run accumulates: the per-thread span records
/// (span and op aggregates, trace rings, progress epochs), the op-detail
/// and ring switches, the metrics registry, the heartbeat's progress
/// units and epoch, and three JSON Lines sinks.
///
/// Each thread writes into its *current* recorder: the one a
/// [`Recorder::enter`] guard installed, else one process-wide default. A
/// [`crate::span::Context`] carries its publisher's recorder, so work a
/// scheduler runs for the publisher writes into the publisher's recorder
/// on whichever thread runs it. The sinks flush and close when the last
/// handle to their recorder drops.
pub struct Recorder {
    /// Every thread's record here (threads that exited included).
    pub(crate) records: Mutex<Vec<Arc<Record>>>,
    pub(crate) op_detail: Switch,
    pub(crate) trace: Switch,
    pub(crate) metrics: Mutex<Registry>,
    /// Heartbeat progress units: `unit → (done, total)`.
    pub(crate) units: Mutex<BTreeMap<String, (u64, u64)>>,
    /// Heartbeat progress epoch: completions over all threads.
    pub(crate) epoch: AtomicU64,
    /// The `--metrics-out` stream ([`crate::sink`]).
    pub metrics_sink: Sink,
    /// The `--heartbeat-out` stream ([`crate::heartbeat`]).
    pub(crate) heartbeat_sink: Sink,
    /// The model-diagnostics (`cfdiag`) stream.
    pub diag: Sink,
}

/// How many recorders have op detail on, and ring recording.
pub(crate) static OP_DETAIL_ON: AtomicUsize = AtomicUsize::new(0);
pub(crate) static TRACE_ON: AtomicUsize = AtomicUsize::new(0);

impl Recorder {
    /// A fresh recorder: nothing recorded, both switches off, no sinks.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            records: Mutex::default(),
            op_detail: Switch(AtomicBool::new(false), &OP_DETAIL_ON),
            trace: Switch(AtomicBool::new(false), &TRACE_ON),
            metrics: Mutex::default(),
            units: Mutex::default(),
            epoch: AtomicU64::new(0),
            metrics_sink: Sink::new(),
            heartbeat_sink: Sink::new(),
            diag: Sink::new(),
        })
    }

    /// The calling thread's recorder.
    pub fn current() -> Arc<Recorder> {
        LOCAL.with(|l| Arc::clone(&l.borrow().recorder))
    }

    /// Makes `self` the calling thread's recorder until the guard drops.
    pub fn enter(self: &Arc<Self>) -> Entered {
        Entered(Some(switch(Arc::clone(self))), PhantomData)
    }
}

/// Restores the thread's previous recorder when dropped (on the thread
/// that entered).
#[must_use = "the recorder is current only while the guard lives"]
pub struct Entered(Option<Arc<Recorder>>, PhantomData<*const ()>);

impl Entered {
    pub(crate) const HERE: Entered = Entered(None, PhantomData);

    /// Enters the recorder `to` refers to, unless it is already current
    /// or gone.
    pub(crate) fn weak(to: Option<&Weak<Recorder>>) -> Entered {
        let other = |w: &&Weak<_>| LOCAL.with(|l| Arc::as_ptr(&l.borrow().recorder) != w.as_ptr());
        let prev = to.filter(other).and_then(Weak::upgrade).map(switch);
        Entered(prev, PhantomData)
    }
}

impl Drop for Entered {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            switch(prev);
        }
    }
}

/// An on/off switch that counts, process-wide, the recorders that have
/// it on: while none does, its hot-path check is one relaxed load.
pub(crate) struct Switch(AtomicBool, &'static AtomicUsize);

impl Switch {
    pub(crate) fn set(&self, on: bool) {
        if self.0.swap(on, Ordering::Relaxed) != on {
            let _ = match on {
                true => self.1.fetch_add(1, Ordering::Relaxed),
                false => self.1.fetch_sub(1, Ordering::Relaxed),
            };
        }
    }

    /// Whether the calling thread's recorder has its `pick` switch on.
    #[inline]
    pub(crate) fn current(live: &AtomicUsize, pick: fn(&Recorder) -> &Switch) -> bool {
        live.load(Ordering::Relaxed) > 0
            && LOCAL.with(|l| pick(&l.borrow().recorder).0.load(Ordering::Relaxed))
    }
}

impl Drop for Switch {
    fn drop(&mut self) {
        self.set(false);
    }
}

/// The calling thread's place in the recorders.
struct Local {
    recorder: Arc<Recorder>,
    /// This thread's record in `recorder`, once looked up.
    record: Option<Arc<Record>>,
    /// This thread's record in every recorder it has written to.
    records: Vec<(Weak<Recorder>, Arc<Record>)>,
    /// Stable per-process thread id (1-based registration order).
    tid: u64,
}

impl Local {
    fn lookup(&mut self) -> Arc<Record> {
        let key = Arc::as_ptr(&self.recorder);
        if let Some((_, record)) = self.records.iter().find(|(r, _)| r.as_ptr() == key) {
            return Arc::clone(record);
        }
        self.records.retain(|(r, _)| r.strong_count() > 0);
        let record = Arc::new(Record::new(self.tid));
        lock(&self.recorder.records).push(Arc::clone(&record));
        let weak = Arc::downgrade(&self.recorder);
        self.records.push((weak, Arc::clone(&record)));
        record
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        static DEFAULT: OnceLock<Arc<Recorder>> = OnceLock::new();
        RefCell::new(Local {
            recorder: Arc::clone(DEFAULT.get_or_init(Recorder::new)),
            record: None,
            records: Vec::new(),
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        })
    };
}

/// Makes `to` the calling thread's recorder; returns the one it replaces.
fn switch(to: Arc<Recorder>) -> Arc<Recorder> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.record = None;
        std::mem::replace(&mut l.recorder, to)
    })
}

/// Runs `f` on the calling thread's recorder and its record there.
pub(crate) fn local<R>(f: impl FnOnce(&Arc<Recorder>, &Record) -> R) -> R {
    try_local(f).expect("recorder state used during thread teardown")
}

/// [`local`], or `None` once the thread's locals are torn down (a buffer
/// dropped by another thread-local's destructor).
pub(crate) fn try_local<R>(f: impl FnOnce(&Arc<Recorder>, &Record) -> R) -> Option<R> {
    LOCAL
        .try_with(|l| {
            let l = &mut *l.borrow_mut();
            if l.record.is_none() {
                l.record = Some(l.lookup());
            }
            f(&l.recorder, l.record.as_deref().expect("looked up above"))
        })
        .ok()
}
