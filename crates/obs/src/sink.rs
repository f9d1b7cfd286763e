//! JSON Lines sinks: the `--metrics-out` stream and, through the same
//! [`Sink`] type, the heartbeat and model-diagnostics streams. All three
//! belong to a [`Recorder`]; a sink's writer is flushed and closed when
//! it is uninstalled or its recorder drops.
//!
//! The CLI installs a file sink for `--metrics-out <path>` with
//! [`Sink::install`]; library code calls [`emit`] unconditionally — when
//! the current recorder has no sink the call is a cheap no-op. Each
//! emitted line is one JSON object; callers build lines with
//! [`crate::json::Obj`] (conventionally with an `"event"` discriminator
//! and a `"ts"` Unix timestamp).

use crate::Recorder;
use std::io::Write;
use std::sync::Mutex;

/// A slot for one JSON Lines writer.
#[derive(Default)]
pub struct Sink(Mutex<Option<Box<dyn Write + Send>>>);

impl Sink {
    /// An empty slot.
    pub const fn new() -> Self {
        Sink(Mutex::new(None))
    }

    /// Installs `w`, replacing any writer already there.
    pub fn install(&self, w: Box<dyn Write + Send>) {
        *crate::lock(&self.0) = Some(w);
    }

    /// Flushes, removes and closes the writer.
    pub fn uninstall(&self) {
        if let Some(mut w) = crate::lock(&self.0).take() {
            let _ = w.flush();
        }
    }

    /// Whether a writer is installed.
    pub fn is_installed(&self) -> bool {
        crate::lock(&self.0).is_some()
    }

    /// Writes `json_line` (one single-line JSON object) and its newline
    /// with one `write_all`, so a reader tailing an unbuffered file never
    /// sees a torn line. No-op without a writer.
    pub fn emit(&self, json_line: &str) {
        if let Some(w) = crate::lock(&self.0).as_mut() {
            let _ = w.write_all(format!("{json_line}\n").as_bytes());
        }
    }

    /// Flushes buffered output, if a writer is installed.
    pub fn flush(&self) {
        if let Some(w) = crate::lock(&self.0).as_mut() {
            let _ = w.flush();
        }
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.uninstall();
    }
}

/// Whether the current recorder has a metrics sink (lets callers skip
/// building expensive event payloads).
pub fn is_installed() -> bool {
    Recorder::current().metrics_sink.is_installed()
}

/// Writes one JSONL record to the current recorder's metrics sink.
/// No-op without one.
pub fn emit(json_line: &str) {
    Recorder::current().metrics_sink.emit(json_line);
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
    Recorder::current().metrics_sink.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, BufWriter};
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

    #[test]
    fn emits_one_line_per_event_and_round_trips() {
        let recorder = Recorder::new();
        let _run = recorder.enter();
        let buf = Shared(Arc::new(StdMutex::new(Vec::new())));
        recorder.metrics_sink.install(Box::new(buf.clone()));
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
        recorder.metrics_sink.uninstall();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"event":"epoch","epoch":1,"loss":0.25}"#);
        assert_eq!(lines[1], r#"{"event":"epoch","epoch":2,"loss":0.125}"#);
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        let _run = Recorder::new().enter();
        // Must not panic or write anywhere.
        emit(r#"{"event":"ignored"}"#);
    }

    #[test]
    fn dropping_the_recorder_flushes_and_closes_its_sinks() {
        let buf = Shared(Arc::new(StdMutex::new(Vec::new())));
        {
            let _run = Recorder::new().enter();
            let writer = BufWriter::new(buf.clone());
            Recorder::current().metrics_sink.install(Box::new(writer));
            emit(r#"{"event":"kept"}"#);
            assert!(buf.0.lock().unwrap().is_empty(), "still buffered");
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"event\":\"kept\"}\n");
    }
}
