//! JSON Lines sinks: the `--metrics-out` stream and, through the same
//! [`Sink`] type, the heartbeat stream.
//!
//! The CLI installs a file sink for `--metrics-out <path>`; library code
//! calls [`emit`] unconditionally — when no sink is installed the call
//! is a cheap no-op. Each emitted line is one JSON object; callers build
//! lines with [`crate::json::Obj`] (conventionally with an `"event"`
//! discriminator and a `"ts"` Unix timestamp).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::{Mutex, MutexGuard};

/// A process-global slot for one JSON Lines writer.
#[derive(Default)]
pub struct Sink(Mutex<Option<Box<dyn Write + Send>>>);

impl Sink {
    /// An empty slot.
    pub const fn new() -> Self {
        Sink(Mutex::new(None))
    }

    fn slot(&self) -> MutexGuard<'_, Option<Box<dyn Write + Send>>> {
        crate::lock(&self.0)
    }

    /// Installs `w`, replacing any writer already there.
    pub fn install(&self, w: Box<dyn Write + Send>) {
        *self.slot() = Some(w);
    }

    /// Flushes and removes the writer.
    pub fn uninstall(&self) {
        let mut slot = self.slot();
        if let Some(w) = slot.as_mut() {
            let _ = w.flush();
        }
        *slot = None;
    }

    /// Whether a writer is installed.
    pub fn is_installed(&self) -> bool {
        self.slot().is_some()
    }

    /// Writes `json_line` (one single-line JSON object) and its newline
    /// with one `write_all`, so a reader tailing an unbuffered file never
    /// sees a torn line. No-op without a writer.
    pub fn emit(&self, json_line: &str) {
        if let Some(w) = self.slot().as_mut() {
            let _ = w.write_all(format!("{json_line}\n").as_bytes());
        }
    }

    /// Flushes buffered output, if a writer is installed.
    pub fn flush(&self) {
        if let Some(w) = self.slot().as_mut() {
            let _ = w.flush();
        }
    }
}

static METRICS: Sink = Sink::new();

/// Installs a JSONL sink writing to the file at `path` (truncating any
/// existing file).
pub fn install_file(path: &str) -> io::Result<()> {
    METRICS.install(Box::new(BufWriter::new(File::create(path)?)));
    Ok(())
}

/// Removes the sink, flushing buffered output first.
pub fn uninstall() {
    METRICS.uninstall();
}

/// Whether a sink is installed (lets callers skip building expensive
/// event payloads).
pub fn is_installed() -> bool {
    METRICS.is_installed()
}

/// Writes one JSONL record. No-op without a sink.
pub fn emit(json_line: &str) {
    METRICS.emit(json_line);
}

/// Emits the span, metrics, op-profile and span-histogram views as four
/// summary records. Called at the end of a pipeline run.
pub fn emit_summaries() {
    if !is_installed() {
        return;
    }
    let summary = |event: &str, key: &str, payload: &str| {
        emit(
            &crate::json::Obj::new()
                .str("event", event)
                .f64("ts", crate::unix_time())
                .raw(key, payload)
                .finish(),
        )
    };
    summary("span_summary", "spans", &crate::span::summary_json());
    summary(
        "metrics_summary",
        "metrics",
        &crate::metrics::snapshot_json(),
    );
    summary("op_profile", "ops", &crate::span::ops_json());
    emit(
        &crate::json::Obj::new()
            .str("event", "span_hist")
            .f64("ts", crate::unix_time())
            .str("schema", crate::hist::SCHEMA)
            .raw("spans", &crate::hist::snapshot_json())
            .finish(),
    );
    METRICS.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Shared-buffer writer for capturing emitted lines.
    #[derive(Clone)]
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    // Both tests touch the global sink; serialise them.
    static SINK_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn emits_one_line_per_event_and_round_trips() {
        let _l = SINK_LOCK.lock().unwrap();
        let buf = Shared(Arc::new(StdMutex::new(Vec::new())));
        METRICS.install(Box::new(buf.clone()));
        emit(
            &crate::json::Obj::new()
                .str("event", "epoch")
                .u64("epoch", 1)
                .f64("loss", 0.25)
                .finish(),
        );
        emit(
            &crate::json::Obj::new()
                .str("event", "epoch")
                .u64("epoch", 2)
                .f64("loss", 0.125)
                .finish(),
        );
        uninstall();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"event":"epoch","epoch":1,"loss":0.25}"#);
        assert_eq!(lines[1], r#"{"event":"epoch","epoch":2,"loss":0.125}"#);
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        let _l = SINK_LOCK.lock().unwrap();
        // Must not panic or write anywhere.
        emit(r#"{"event":"ignored"}"#);
    }
}
