//! Diagnostics artifact determinism.
//!
//! The `diagnostics.cfdiag` recorder promises two things (see
//! `causalformer::diag`):
//!
//! 1. the artifact is **bitwise identical** at any thread count and with
//!    the buffer pool on or off — records carry no timestamps and are
//!    emitted only from serial code;
//! 2. turning diagnostics *and* tracing on does not change the discovery
//!    output at all — instrumented and uninstrumented runs produce
//!    bitwise-identical losses, scores, and graphs.
//!
//! One test function because the pool switch and the thread count are
//! process-global; each run records into a recorder of its own.

use causalformer::presets;
use cf_data::synthetic::{self, Structure};
use cf_tensor::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// In-memory `Write` target shared with the test body.
#[derive(Clone)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Everything from one pipeline run that must be invariant.
#[derive(PartialEq, Debug)]
struct PipelineOutput {
    train_losses: Vec<f64>,
    val_losses: Vec<f64>,
    grad_norms: Vec<f64>,
    graph: String,
    attn: Vec<Vec<f64>>,
}

fn run_fork_pipeline() -> PipelineOutput {
    let mut rng = StdRng::seed_from_u64(11);
    let data = synthetic::generate(&mut rng, Structure::Fork, 240);
    let mut cf = presets::synthetic_sparse(3);
    cf.model.d_model = 12;
    cf.model.d_qk = 12;
    cf.model.d_ffn = 12;
    cf.model.window = 8;
    cf.train.max_epochs = 3;
    cf.train.stride = 2;
    let result = cf.discover(&mut rng, &data.series);
    PipelineOutput {
        train_losses: result.train_report.train_losses,
        val_losses: result.train_report.val_losses,
        grad_norms: result.train_report.grad_norms,
        graph: format!("{}", result.graph),
        attn: result.scores.attn,
    }
}

/// Runs the fork pipeline in a fresh recorder with diagnostics captured
/// in memory and ring recording at `traced`, returning (pipeline output,
/// artifact bytes).
fn run_with_diag(traced: bool) -> (PipelineOutput, Vec<u8>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let recorder = cf_obs::Recorder::new();
    let _run = recorder.enter();
    recorder.diag.install(Box::new(Shared(Arc::clone(&buf))));
    cf_obs::trace::set_enabled(traced);
    let out = run_fork_pipeline();
    let bytes = buf.lock().unwrap().clone();
    (out, bytes)
}

#[test]
fn diag_artifact_is_bitwise_invariant_and_instrumentation_free() {
    // Reference: uninstrumented run (no diag, no trace), 1 thread, pool on.
    cf_par::set_threads(1);
    pool::set_enabled(true);
    let reference_out = run_fork_pipeline();

    // Reference artifact: 1 thread, pool on, diagnostics installed.
    let (instrumented_out, reference_bytes) = run_with_diag(false);
    assert!(
        !reference_bytes.is_empty(),
        "diagnostics run produced an empty artifact"
    );
    assert_eq!(
        instrumented_out, reference_out,
        "recording diagnostics changed the discovery output"
    );
    let text = String::from_utf8(reference_bytes.clone()).expect("artifact is UTF-8");
    assert!(text.starts_with(r#"{"record":"header","format":"cfdiag","version":"#));
    assert_eq!(
        text.matches(r#""record":"epoch""#).count(),
        3,
        "one epoch record per trained epoch"
    );
    assert_eq!(text.matches(r#""record":"detect""#).count(), 1);
    assert!(
        !text.contains(r#""ts""#),
        "diagnostics records must not carry timestamps"
    );

    // The artifact must not depend on thread count or pooling; with the
    // trace recorder running alongside, the discovery output must still
    // match the uninstrumented reference bitwise.
    for threads in [1usize, 2, 4] {
        for pooled in [true, false] {
            cf_par::set_threads(threads);
            pool::set_enabled(pooled);
            let (out, bytes) = run_with_diag(true);
            assert_eq!(
                out, reference_out,
                "discovery output changed at {threads} thread(s), pool={pooled}"
            );
            assert_eq!(
                bytes, reference_bytes,
                "diagnostics artifact differs at {threads} thread(s), pool={pooled}"
            );
        }
    }
    pool::set_enabled(true);
}
