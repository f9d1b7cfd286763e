//! Thread-count invariance of training and discovery.
//!
//! The data-parallel trainer and the parallel detector promise the same
//! determinism contract as the tensor kernels (DESIGN.md, "Parallelism"):
//! per-window gradients are combined by a fixed-shape tree reduction whose
//! association depends only on the batch size, and the per-window
//! detector passes are summed in window order. Consequently the *entire* pipeline —
//! loss curves, gradient norms, and the discovered graph — must be bitwise
//! identical at any thread count. These tests run the same seeded problem
//! at 1, 2, and 4 threads and compare exactly.

use causalformer::presets;
use cf_data::synthetic::{self, Structure};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// `cf_par::set_threads` mutates a process-wide pool, so tests that change
/// the thread count must not interleave.
fn pool_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Everything from one pipeline run that must be thread-count invariant.
struct PipelineOutput {
    train_losses: Vec<f64>,
    val_losses: Vec<f64>,
    grad_norms: Vec<f64>,
    graph: String,
    attn: Vec<Vec<f64>>,
}

/// A small but non-trivial pipeline: 3 series, enough windows for several
/// mini-batches per epoch so the batch-level tree reduction is exercised.
fn run_pipeline() -> PipelineOutput {
    let mut rng = StdRng::seed_from_u64(7);
    let data = synthetic::generate(&mut rng, Structure::Fork, 300);
    let mut cf = presets::synthetic_sparse(3);
    cf.model.d_model = 12;
    cf.model.d_qk = 12;
    cf.model.d_ffn = 12;
    cf.model.window = 8;
    cf.train.max_epochs = 4;
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

#[test]
fn discover_is_bitwise_identical_across_thread_counts() {
    let _guard = pool_lock();
    cf_par::set_threads(1);
    let reference = run_pipeline();
    assert!(
        reference.train_losses.len() >= 2,
        "expected multiple epochs, got {:?}",
        reference.train_losses
    );
    for threads in [2, 4] {
        cf_par::set_threads(threads);
        let run = run_pipeline();
        // Exact f64 equality throughout: losses, gradient norms, scores.
        assert_eq!(
            run.train_losses, reference.train_losses,
            "train losses differ at {threads} threads"
        );
        assert_eq!(
            run.val_losses, reference.val_losses,
            "val losses differ at {threads} threads"
        );
        assert_eq!(
            run.grad_norms, reference.grad_norms,
            "grad norms differ at {threads} threads"
        );
        assert_eq!(
            run.graph, reference.graph,
            "graph differs at {threads} threads"
        );
        assert_eq!(
            run.attn, reference.attn,
            "attn scores differ at {threads} threads"
        );
    }
}

/// The live heartbeat sampler must be a pure observer: running the same
/// seeded pipeline with the sampler streaming to a file produces bitwise
/// identical output to running without it, at every thread count. Progress
/// events carry no timestamps and ETA is computed only on the sampler
/// thread, so nothing time-dependent can leak into the training path.
#[test]
fn heartbeat_sampler_does_not_perturb_discovery() {
    let _guard = pool_lock();
    cf_par::set_threads(1);
    let reference = run_pipeline();
    let path = std::env::temp_dir().join(format!("cf_hb_invariance_{}.jsonl", std::process::id()));
    for threads in [1, 2, 4] {
        cf_par::set_threads(threads);
        cf_obs::heartbeat::reset_progress();
        // Fast period so even this short pipeline gets sampled.
        let cfg = cf_obs::heartbeat::Config {
            period: std::time::Duration::from_millis(10),
            ..cf_obs::heartbeat::Config::from_env("test")
        };
        let hb = cf_obs::heartbeat::start(Some(&path), cfg).expect("heartbeat start");
        let run = run_pipeline();
        hb.stop();
        assert_eq!(
            run.train_losses, reference.train_losses,
            "heartbeat perturbed train losses at {threads} threads"
        );
        assert_eq!(
            run.grad_norms, reference.grad_norms,
            "heartbeat perturbed grad norms at {threads} threads"
        );
        assert_eq!(
            run.graph, reference.graph,
            "heartbeat perturbed the graph at {threads} threads"
        );
        assert_eq!(
            run.attn, reference.attn,
            "heartbeat perturbed attn scores at {threads} threads"
        );
        // The stream itself must be well-formed: a meta header, at least
        // one progress event from the trainer, and a clean run_end.
        let text = std::fs::read_to_string(&path).expect("heartbeat file");
        let first = text.lines().next().expect("non-empty heartbeat stream");
        assert!(first.contains("\"event\":\"meta\""), "bad header: {first}");
        assert!(
            text.contains("\"unit\":\"train.epoch\""),
            "no trainer progress events at {threads} threads"
        );
        assert!(
            text.lines()
                .last()
                .unwrap()
                .contains("\"event\":\"run_end\""),
            "stream not closed at {threads} threads"
        );
    }
    std::fs::remove_file(&path).ok();
}
