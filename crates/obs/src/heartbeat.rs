//! Live runtime telemetry: a background sampler thread, scheduler
//! progress epochs, deterministic progress events, and a stall
//! watchdog.
//!
//! Traces and metrics say what happened once a run finishes; the
//! heartbeat says what is happening. [`start`] spawns a sampler, handed
//! the calling thread's [`crate::Recorder`], that every period (default
//! 250 ms, `CF_HEARTBEAT_MS`) snapshots process RSS/VmHWM, the run's
//! `mem.pool.*` and `par.*` metrics, per-thread progress epochs, and the
//! latest progress units, and appends one `heartbeat` JSON line to a file
//! with a single `write_all`, so the file can be tailed mid-run
//! (`causalformer monitor <file>`).
//!
//! **Determinism contract.** The compute path never reads the wall
//! clock on behalf of this module: workers only bump relaxed atomic
//! epochs ([`bump_progress`]) and emit `progress` events whose payload
//! is exactly `{unit, done, total}` — no timestamps. Wall time (and
//! the derived ETA) enters only on the sampler thread, so discovery
//! output is bitwise identical with the heartbeat on or off.
//!
//! **Watchdog.** The sampler tracks the run's progress epoch; when it
//! does not advance for the stall window it flags `stalled: true` and
//! attaches a lightweight thread dump (each thread's currently-open
//! span stack, from [`crate::span::open_spans`]). Under
//! `CF_WATCHDOG=fatal:SECS` a stall additionally aborts the process
//! with exit code [`STALL_EXIT_CODE`], naming the stalled threads on
//! stderr — a stuck worker kills the run instead of hanging a fleet.
//!
//! Layering note: this crate sits *below* `cf-par` and `cf-tensor`,
//! so the sampler cannot call them. It reads what they write into its
//! recorder: the `par.*` counters from the [`crate::metrics`] registry,
//! and the buffer pool's traffic, which every thread adds to its own
//! record there ([`crate::metrics::mem`]). Both are the run's own.

use crate::json::{Arr, Obj};
use crate::recorder::local;
use crate::{lock, Recorder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default sampler period (`CF_HEARTBEAT_MS` overrides).
pub const DEFAULT_PERIOD_MS: u64 = 250;

/// Default stall window when `CF_WATCHDOG` is unset: the `stalled`
/// flag still appears in heartbeat events, just with a forgiving
/// threshold.
pub const DEFAULT_STALL_SECS: f64 = 5.0;

/// Process exit code when `CF_WATCHDOG=fatal:SECS` trips.
pub const STALL_EXIT_CODE: i32 = 3;

// ---------------------------------------------------------------------------
// Progress epochs: bumped by workers, read by the sampler.
// ---------------------------------------------------------------------------

/// Bumps the calling thread's progress epoch (and its recorder's).
/// Called by the scheduler on every task/chunk completion and by the
/// serial progress emitters; two relaxed atomic adds, safe on any hot
/// path.
#[inline]
pub fn bump_progress() {
    local(|recorder, r| {
        r.epoch.fetch_add(1, Ordering::Relaxed);
        recorder.epoch.fetch_add(1, Ordering::Relaxed);
    });
}

/// Adds to the calling thread's cumulative busy time. The scheduler
/// attributes each executed chunk's duration to the thread that ran
/// it, which is what the monitor's per-thread busy % derives from.
#[inline]
pub fn add_busy_ns(ns: u64) {
    local(|_, r| r.busy_ns.fetch_add(ns, Ordering::Relaxed));
}

/// The current recorder's progress epoch: total completions across all
/// threads. The watchdog stalls when this stops moving.
pub fn progress_epoch() -> u64 {
    Recorder::current().epoch.load(Ordering::Relaxed)
}

/// Per-thread progress snapshot: `(thread name, epoch, busy_ns)`, one
/// row per name in registration order. Records of exited threads are
/// never removed, and rebuilt worker pools reuse names (`cf-par-0`, …),
/// so summing per name keeps one monotone row per logical thread
/// instead of one per generation.
pub fn thread_progress() -> Vec<(String, u64, u64)> {
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    for r in crate::span::records() {
        let name = lock(&r.state).name.clone();
        let (epoch, busy) = (
            r.epoch.load(Ordering::Relaxed),
            r.busy_ns.load(Ordering::Relaxed),
        );
        match rows.iter_mut().find(|row| row.0 == name) {
            Some(row) => {
                row.1 += epoch;
                row.2 += busy;
            }
            None => rows.push((name, epoch, busy)),
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Progress units: deterministic done/total state + events.
// ---------------------------------------------------------------------------

/// Reports absolute progress on a unit (e.g. `train.epoch` 3 of 20)
/// from a serial call site. Bumps the progress epoch, updates the
/// recorder's state the sampler reads, and — if it has a heartbeat sink —
/// emits a `progress` event. The event payload is exactly
/// `{unit, done, total}`: no wall time, so the line content is
/// deterministic.
pub fn progress(unit: &str, done: u64, total: u64) {
    bump_progress();
    let recorder = Recorder::current();
    lock(&recorder.units).insert(unit.to_string(), (done, total));
    emit_progress_event(&recorder, unit, done, total);
}

/// Increment-style progress for parallel call sites (per-window
/// detector passes, per-target baseline sweeps): each completion adds
/// one toward `total`. Line *order* in the heartbeat file may vary
/// with thread interleaving; each line's content is deterministic.
pub fn progress_inc(unit: &str, total: u64) {
    bump_progress();
    let recorder = Recorder::current();
    let done = {
        let mut map = lock(&recorder.units);
        let st = map.entry(unit.to_string()).or_insert((0, total));
        *st = (st.0 + 1, total);
        st.0
    };
    emit_progress_event(&recorder, unit, done, total);
}

fn emit_progress_event(recorder: &Recorder, unit: &str, done: u64, total: u64) {
    let line = Obj::new()
        .str("event", "progress")
        .str("unit", unit)
        .u64("done", done)
        .u64("total", total)
        .finish();
    recorder.heartbeat_sink.emit(&line);
}

// ---------------------------------------------------------------------------
// /proc/self/status memory reader (hoisted from the PR 8 RSS gate).
// ---------------------------------------------------------------------------

/// Current and peak resident set size in bytes, from
/// `/proc/self/status` (`VmRSS` / `VmHWM`). Returns zeros on
/// non-Linux platforms or if the file is unreadable.
pub fn proc_rss_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        let kb = status.lines().find_map(|l| l.strip_prefix(key));
        kb.and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Peak resident set size in bytes (`VmHWM`); the bench RSS gates use
/// this single reader instead of re-parsing `/proc` themselves.
pub fn peak_rss_bytes() -> u64 {
    proc_rss_bytes().1
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

/// Watchdog behaviour when the stall window elapses with no progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogMode {
    /// Flag `stalled: true` in heartbeat events only.
    Warn,
    /// Flag, print a thread dump to stderr, and exit nonzero.
    Fatal,
}

/// Sampler configuration. Build with [`Config::from_env`] to honor
/// `CF_HEARTBEAT_MS` and `CF_WATCHDOG`, or construct directly in
/// tests.
#[derive(Debug, Clone)]
pub struct Config {
    /// Sampling period.
    pub period: Duration,
    /// No-progress window after which a run counts as stalled.
    pub stall_window: Duration,
    /// What a stall does.
    pub mode: WatchdogMode,
    /// Schema version stamped into the leading `meta` event (the CLI
    /// passes its metrics schema version so both artifact families
    /// version together).
    pub schema_version: String,
}

impl Config {
    /// Defaults plus environment overrides: `CF_HEARTBEAT_MS=N` sets
    /// the period, `CF_WATCHDOG=(warn|fatal):SECS` arms the watchdog.
    pub fn from_env(schema_version: &str) -> Self {
        let period = parse_period(std::env::var("CF_HEARTBEAT_MS").ok().as_deref());
        let (stall_window, mode) = parse_watchdog(std::env::var("CF_WATCHDOG").ok().as_deref());
        Self {
            period,
            stall_window,
            mode,
            schema_version: schema_version.to_string(),
        }
    }
}

fn parse_period(spec: Option<&str>) -> Duration {
    let ms = spec
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_PERIOD_MS)
        .max(1);
    Duration::from_millis(ms)
}

fn parse_watchdog(spec: Option<&str>) -> (Duration, WatchdogMode) {
    let default = (
        Duration::from_secs_f64(DEFAULT_STALL_SECS),
        WatchdogMode::Warn,
    );
    let Some(spec) = spec else { return default };
    let spec = spec.trim();
    let (mode_str, secs_str) = match spec.split_once(':') {
        Some(parts) => parts,
        None => (spec, ""),
    };
    let mode = match mode_str {
        "warn" => WatchdogMode::Warn,
        "fatal" => WatchdogMode::Fatal,
        other => {
            crate::warn!("CF_WATCHDOG: unknown mode {other:?} (want warn|fatal) — ignoring");
            return default;
        }
    };
    let secs = secs_str.parse::<f64>().ok().filter(|s| *s > 0.0);
    let Some(secs) = secs else {
        crate::warn!("CF_WATCHDOG: bad window {secs_str:?} (want {mode_str}:SECS) — ignoring");
        return default;
    };
    (Duration::from_secs_f64(secs), mode)
}

// ---------------------------------------------------------------------------
// The sampler thread.
// ---------------------------------------------------------------------------

/// Handle to a running heartbeat sampler; stop (or drop) it to join
/// the thread and finalise the file with a `run_end` event.
pub struct Heartbeat {
    /// Nothing is sent: dropping it wakes the sampler to finish.
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
    samples: Arc<AtomicU64>,
}

/// Starts the heartbeat sampler over the current recorder. With a path,
/// its heartbeat sink is installed: an unbuffered file, one `write_all`
/// per line, so a concurrent `tail -f`/`monitor` never observes a torn
/// line (leading `meta` event, then `heartbeat`/`progress` lines as they
/// happen). With `None` only the in-memory sampling and the watchdog
/// run — `CF_WATCHDOG=fatal` works without a file.
///
/// One sampler per recorder: starting a second heartbeat while another
/// runs replaces the sink out from under it — stop the first one first.
pub fn start(path: Option<&std::path::Path>, cfg: Config) -> std::io::Result<Heartbeat> {
    let recorder = Recorder::current();
    let sink = &recorder.heartbeat_sink;
    if let Some(path) = path {
        sink.install(Box::new(std::fs::File::create(path)?));
        let mode = match cfg.mode {
            WatchdogMode::Warn => "warn",
            WatchdogMode::Fatal => "fatal",
        };
        let meta = Obj::new()
            .str("event", "meta")
            .str("schema_version", &cfg.schema_version)
            .str("kind", "heartbeat")
            .u64("period_ms", cfg.period.as_millis() as u64)
            .f64("stall_window_secs", cfg.stall_window.as_secs_f64())
            .str("watchdog", mode)
            .f64("ts", crate::unix_time())
            .finish();
        sink.emit(&meta);
    }

    let (stop, stopped) = mpsc::channel();
    let samples = Arc::new(AtomicU64::new(0));
    let written = Arc::clone(&samples);
    let handle = std::thread::Builder::new()
        .name("cf-heartbeat".to_string())
        .spawn(move || {
            let _run = recorder.enter();
            sampler_loop(cfg, &stopped, &written)
        })
        .expect("spawn heartbeat sampler");
    Ok(Heartbeat {
        stop: Some(stop),
        handle: Some(handle),
        samples,
    })
}

impl Heartbeat {
    /// Stops the sampler: takes one final sample, writes `run_end`,
    /// flushes and removes the sink, and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Samples written so far (for tests and the CLI summary line).
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        self.stop.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-unit ETA state: when the sampler first saw the unit and at what
/// `done` count, so the rate (and the wall clock behind it) lives
/// entirely on this thread.
struct UnitAnchor {
    first_seen: Instant,
    first_done: u64,
}

/// Samples every period until `stopped` disconnects, then takes one
/// final sample and closes the file with `run_end`.
fn sampler_loop(cfg: Config, stopped: &mpsc::Receiver<()>, samples: &AtomicU64) {
    let mut last_epoch = progress_epoch();
    let mut last_advance = Instant::now();
    let mut anchors: BTreeMap<String, UnitAnchor> = BTreeMap::new();
    for seq in 1.. {
        let stopping = stopped.recv_timeout(cfg.period) != Err(RecvTimeoutError::Timeout);
        sample(&cfg, seq, &mut last_epoch, &mut last_advance, &mut anchors);
        samples.store(seq, Ordering::Relaxed);
        if stopping {
            let end = Obj::new()
                .str("event", "run_end")
                .f64("ts", crate::unix_time())
                .u64("samples", seq)
                .finish();
            let sink = &Recorder::current().heartbeat_sink;
            sink.emit(&end);
            sink.uninstall();
            return;
        }
    }
}

fn sample(
    cfg: &Config,
    seq: u64,
    last_epoch: &mut u64,
    last_advance: &mut Instant,
    anchors: &mut BTreeMap<String, UnitAnchor>,
) {
    let now = Instant::now();
    let epoch = progress_epoch();
    if epoch != *last_epoch {
        *last_epoch = epoch;
        *last_advance = now;
    }
    let stall_secs = now.duration_since(*last_advance).as_secs_f64();
    let stalled = stall_secs >= cfg.stall_window.as_secs_f64();

    let (rss, hwm) = proc_rss_bytes();

    // The scheduler publishes into the recorder's metrics registry; read
    // its counters back by name (an untouched counter reads 0).
    let m = |name: &'static str| crate::metrics::counter(name).get();
    let g = |name: &'static str| crate::metrics::gauge(name).get();
    let pool = crate::metrics::mem();

    let threads = thread_progress()
        .iter()
        .fold(Arr::new(), |arr, (name, ep, busy)| {
            arr.raw(
                &Obj::new()
                    .str("name", name)
                    .u64("epoch", *ep)
                    .u64("busy_ns", *busy)
                    .finish(),
            )
        });

    // ETA per unit, computed only here: rate from this thread's own
    // first observation of the unit, never from worker timestamps.
    let recorder = Recorder::current();
    let progress = lock(&recorder.units)
        .iter()
        .fold(Arr::new(), |arr, (unit, &(done, total))| {
            let anchor = anchors.entry(unit.clone()).or_insert(UnitAnchor {
                first_seen: now,
                first_done: done,
            });
            let elapsed = now.duration_since(anchor.first_seen).as_secs_f64();
            let advanced = done.saturating_sub(anchor.first_done);
            let eta_secs = if advanced > 0 && elapsed > 0.0 && done < total {
                let rate = advanced as f64 / elapsed;
                (total - done) as f64 / rate
            } else {
                f64::NAN // serialises as null: ETA unknown
            };
            arr.raw(
                &Obj::new()
                    .str("unit", unit)
                    .u64("done", done)
                    .u64("total", total)
                    .f64("eta_secs", eta_secs)
                    .finish(),
            )
        });

    let mut hb = Obj::new()
        .str("event", "heartbeat")
        .f64("ts", crate::unix_time())
        .u64("seq", seq)
        .u64("rss_bytes", rss)
        .u64("hwm_bytes", hwm)
        .u64("pool_hit", pool.hit)
        .u64("pool_miss", pool.miss)
        .f64("pool_bytes_outstanding", pool.bytes as f64)
        .f64("par_threads", g("par.threads"))
        .u64("par_tasks", m("par.tasks"))
        .u64("par_busy_ns", m("par.busy_ns"))
        .u64("par_idle_ns", m("par.idle_ns"))
        .u64("progress_epoch", epoch)
        .bool("stalled", stalled)
        .f64("stall_secs", stall_secs)
        .raw("threads", &threads.finish())
        .raw("progress", &progress.finish());

    let open = if stalled {
        crate::span::open_spans()
    } else {
        Vec::new()
    };
    if stalled {
        let dump = open.iter().fold(Arr::new(), |arr, t| {
            let spans = t.spans.iter().fold(Arr::new(), |a, s| a.str(s));
            arr.raw(
                &Obj::new()
                    .str("thread", &t.thread)
                    .raw("spans", &spans.finish())
                    .finish(),
            )
        });
        hb = hb.raw("open_spans", &dump.finish());
    }
    let sink = &recorder.heartbeat_sink;
    sink.emit(&hb.finish());

    if stalled && cfg.mode == WatchdogMode::Fatal {
        let mut dump: String = open
            .iter()
            .map(|t| format!("\n  {}: {}", t.thread, t.spans.join(" > ")))
            .collect();
        if dump.is_empty() {
            for (name, ep, _busy) in thread_progress() {
                dump.push_str(&format!("\n  {name}: epoch {ep} (no open spans)"));
            }
        }
        if dump.is_empty() {
            dump.push_str(" <none registered>");
        }
        eprintln!(
            "cf-obs watchdog: no progress for {:.1}s (window {:.1}s); stalled threads:{dump}",
            stall_secs,
            cfg.stall_window.as_secs_f64(),
        );
        let fatal = Obj::new()
            .str("event", "watchdog_fatal")
            .f64("ts", crate::unix_time())
            .f64("stall_secs", stall_secs)
            .finish();
        sink.emit(&fatal);
        sink.uninstall();
        std::process::exit(STALL_EXIT_CODE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "cf-heartbeat-{}-{}-{tag}.jsonl",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn t_parse_period_and_watchdog_specs() {
        assert_eq!(parse_period(None), Duration::from_millis(250));
        assert_eq!(parse_period(Some("40")), Duration::from_millis(40));
        assert_eq!(parse_period(Some("junk")), Duration::from_millis(250));
        assert_eq!(parse_period(Some("0")), Duration::from_millis(1));

        let (w, m) = parse_watchdog(None);
        assert_eq!(m, WatchdogMode::Warn);
        assert!((w.as_secs_f64() - DEFAULT_STALL_SECS).abs() < 1e-9);
        let (w, m) = parse_watchdog(Some("fatal:2"));
        assert_eq!(m, WatchdogMode::Fatal);
        assert!((w.as_secs_f64() - 2.0).abs() < 1e-9);
        let (w, m) = parse_watchdog(Some("warn:0.25"));
        assert_eq!(m, WatchdogMode::Warn);
        assert!((w.as_secs_f64() - 0.25).abs() < 1e-9);
        // Malformed specs fall back to the warn default instead of
        // silently arming (or disarming) a fatal watchdog.
        assert_eq!(parse_watchdog(Some("fatal")).1, WatchdogMode::Warn);
        assert_eq!(parse_watchdog(Some("fatal:-1")).1, WatchdogMode::Warn);
        assert_eq!(parse_watchdog(Some("explode:2")).1, WatchdogMode::Warn);
    }

    #[test]
    fn t_proc_rss_reader_reports_plausible_sizes() {
        let (rss, hwm) = proc_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmRSS should be nonzero for a live process");
            assert!(hwm >= rss, "peak RSS can't be below current RSS");
            // VmHWM only grows, and other tests allocate meanwhile.
            let peak = peak_rss_bytes();
            assert!(hwm <= peak && peak <= proc_rss_bytes().1);
        }
    }

    /// One end-to-end test over a recorder's sampler state (sink and
    /// progress units), one scenario after the other.
    #[test]
    fn t_heartbeat_end_to_end() {
        let _run = Recorder::new().enter();

        // --- A normal short run: meta, heartbeats, progress, run_end.
        let path = temp_path("basic");
        let cfg = Config {
            period: Duration::from_millis(5),
            stall_window: Duration::from_secs(60),
            mode: WatchdogMode::Warn,
            schema_version: "2.2".to_string(),
        };
        let hb = start(Some(&path), cfg).expect("heartbeat start");
        assert!(Recorder::current().heartbeat_sink.is_installed());
        progress("test.unit", 1, 4);
        progress_inc("test.windows", 3);
        progress_inc("test.windows", 3);
        std::thread::sleep(Duration::from_millis(30));
        progress("test.unit", 2, 4);
        hb.stop();
        assert!(!Recorder::current().heartbeat_sink.is_installed());

        let text = std::fs::read_to_string(&path).expect("heartbeat file");
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("every line is valid JSON"))
            .collect();
        let ev = |l: &serde_json::Value| l["event"].as_str().unwrap_or("").to_string();
        assert!(lines.len() >= 4, "meta + heartbeat(s) + progress + run_end");
        assert_eq!(ev(&lines[0]), "meta");
        assert_eq!(lines[0]["schema_version"].as_str(), Some("2.2"));
        assert_eq!(lines[0]["kind"].as_str(), Some("heartbeat"));
        assert_eq!(ev(lines.last().unwrap()), "run_end");

        let beats: Vec<&serde_json::Value> =
            lines.iter().filter(|l| ev(l) == "heartbeat").collect();
        assert!(!beats.is_empty(), "at least one heartbeat sampled");
        let last_beat = beats.last().unwrap();
        assert!(last_beat["seq"].as_u64().unwrap() >= 1);
        if cfg!(target_os = "linux") {
            assert!(last_beat["rss_bytes"].as_u64().unwrap() > 0);
        }
        assert_eq!(last_beat["stalled"].as_bool(), Some(false));
        let prog_state = last_beat["progress"].as_array().unwrap();
        assert!(
            prog_state
                .iter()
                .any(|p| p["unit"].as_str() == Some("test.unit") && p["done"].as_u64() == Some(2)),
            "sampler sees the latest unit state: {prog_state:?}"
        );

        // Progress events are deterministic: no timestamp fields.
        let progs: Vec<&serde_json::Value> = lines.iter().filter(|l| ev(l) == "progress").collect();
        assert_eq!(progs.len(), 4);
        assert_eq!(progs[0]["unit"].as_str(), Some("test.unit"));
        assert!(
            progs[0].get("ts").is_none(),
            "progress events carry no wall time"
        );
        assert_eq!(
            progs[2]["done"].as_u64(),
            Some(2),
            "progress_inc accumulates"
        );
        assert_eq!(progs[2]["total"].as_u64(), Some(3));

        std::fs::remove_file(&path).ok();

        // --- Stall detection (warn mode): no progress for > window
        // flags stalled and dumps this thread's open spans.
        let path = temp_path("stall");
        let cfg = Config {
            period: Duration::from_millis(5),
            stall_window: Duration::from_millis(40),
            mode: WatchdogMode::Warn,
            schema_version: "2.2".to_string(),
        };
        let hb = start(Some(&path), cfg).expect("heartbeat start");
        {
            let _outer = crate::span!("t_heartbeat.stuck_outer");
            let _inner = crate::span!("t_heartbeat.stuck_inner");
            std::thread::sleep(Duration::from_millis(120));
        }
        hb.stop();
        let text = std::fs::read_to_string(&path).expect("heartbeat file");
        let stalled_beat = text
            .lines()
            .map(|l| serde_json::from_str::<serde_json::Value>(l).unwrap())
            .find(|l| {
                l["event"].as_str() == Some("heartbeat") && l["stalled"].as_bool() == Some(true)
            })
            .expect("a stalled heartbeat was sampled");
        assert!(stalled_beat["stall_secs"].as_f64().unwrap() >= 0.04);
        let dump = stalled_beat["open_spans"].as_array().unwrap();
        let spans: Vec<String> = dump
            .iter()
            .flat_map(|t| t["spans"].as_array().unwrap().iter())
            .map(|s| s.as_str().unwrap().to_string())
            .collect();
        assert!(
            spans.contains(&"t_heartbeat.stuck_outer".to_string())
                && spans.contains(&"t_heartbeat.stuck_inner".to_string()),
            "stall dump names the open spans: {spans:?}"
        );
        std::fs::remove_file(&path).ok();

        // --- Progress bumps clear a pending stall.
        let path = temp_path("recover");
        let cfg = Config {
            period: Duration::from_millis(5),
            stall_window: Duration::from_millis(50),
            mode: WatchdogMode::Warn,
            schema_version: "2.2".to_string(),
        };
        let hb = start(Some(&path), cfg).expect("heartbeat start");
        for _ in 0..12 {
            bump_progress();
            std::thread::sleep(Duration::from_millis(10));
        }
        hb.stop();
        let text = std::fs::read_to_string(&path).expect("heartbeat file");
        let any_stalled = text
            .lines()
            .map(|l| serde_json::from_str::<serde_json::Value>(l).unwrap())
            .any(|l| {
                l["event"].as_str() == Some("heartbeat") && l["stalled"].as_bool() == Some(true)
            });
        assert!(!any_stalled, "steady progress must never read as a stall");
        std::fs::remove_file(&path).ok();

        // --- Watchdog without a file: sampling runs, nothing written.
        let cfg = Config {
            period: Duration::from_millis(5),
            stall_window: Duration::from_secs(60),
            mode: WatchdogMode::Warn,
            schema_version: "2.2".to_string(),
        };
        let hb = start(None, cfg).expect("heartbeat start");
        assert!(!Recorder::current().heartbeat_sink.is_installed());
        std::thread::sleep(Duration::from_millis(20));
        assert!(hb.samples() >= 1, "sampler runs without a sink");
        hb.stop();
    }

    #[test]
    fn t_thread_progress_attributes_busy_to_the_calling_thread() {
        let _run = Recorder::new().enter();
        bump_progress();
        add_busy_ns(1_000);
        let me = std::thread::current()
            .name()
            .unwrap_or("thread")
            .to_string();
        let snap = thread_progress();
        let mine = snap
            .iter()
            .find(|(name, ep, busy)| *name == me && *ep >= 1 && *busy >= 1_000);
        assert!(mine.is_some(), "calling thread registered in {snap:?}");
    }
}
