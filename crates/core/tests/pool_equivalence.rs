//! Buffer-pool invariance and steady-state allocation checks.
//!
//! The cf-tensor buffer pool promises it changes *where bytes live, never
//! what they hold* (DESIGN.md, "Memory management"): every tensor is fully
//! initialised before it is read, so recycling buffers cannot alter any
//! numeric result. This file holds the end-to-end proof, in one test
//! function because the `cf_tensor::pool::set_enabled` switch, the thread
//! count and the free lists are process-global (the counters are the
//! default recorder's, which every run here shares):
//!
//! 1. the full `discover` pipeline — losses, gradient norms, scores, graph
//!    — is bitwise identical with the pool on and off, at 1, 2, and 4
//!    threads;
//! 2. raw tape gradients are bitwise identical pooled vs unpooled;
//! 3. after a warm-up run, a second identical `discover` performs **zero
//!    pool misses** on both the Fork and Lorenz96 workloads — the
//!    steady-state "allocation-free" guarantee — and at most
//!    [`STEADY_ALLOC_PER_EPOCH_BOUND`] fresh allocations per epoch.

use causalformer::presets;
use cf_data::lorenz96::{self, Lorenz96Config};
use cf_data::synthetic::{self, Structure};
use cf_nn::ParamStore;
use cf_tensor::{pool, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bound on steady-state tensor allocations per training epoch on a warm
/// pool. `alloc` counts pool misses *and* externally built buffers that
/// tensors adopt (window construction, parameter init, graph read-out), so
/// zero misses alone does not bound it. That per-run setup amortises to a
/// few dozen per epoch; a hot loop that allocates per step costs thousands.
const STEADY_ALLOC_PER_EPOCH_BOUND: u64 = 500;

/// Everything from one pipeline run that must be pool-invariant.
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

fn run_lorenz_pipeline() -> PipelineOutput {
    let mut rng = StdRng::seed_from_u64(23);
    let data = lorenz96::generate(
        &mut rng,
        Lorenz96Config {
            n: 6,
            length: 120,
            ..Lorenz96Config::default()
        },
    );
    let mut cf = presets::lorenz96(6);
    cf.train.max_epochs = 2;
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

/// One forward/backward pass of the transformer; returns every parameter
/// gradient in registration order.
fn model_gradients() -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = causalformer::ModelConfig {
        d_model: 8,
        d_qk: 8,
        d_ffn: 8,
        ..causalformer::ModelConfig::compact(4, 8)
    };
    let mut store = ParamStore::new();
    let model = causalformer::CausalityAwareTransformer::new(&mut store, &mut rng, cfg);
    let x = cf_tensor::uniform(&mut rng, &[4, 8], -1.0, 1.0);
    cf_tensor::with_pooled_tape(|tape| {
        let bound = store.bind(tape);
        let trace = model.forward(tape, &bound, &x);
        let loss = model.prediction_loss(tape, &trace, &x);
        let mut grads = tape.backward(loss);
        let mut out = Vec::new();
        bound.take_gradients(&mut grads, |_, g| out.push(g));
        out
    })
}

#[test]
fn pool_is_invisible_to_numerics_and_allocation_free_in_steady_state() {
    // --- 1 + 2: pooled vs unpooled bitwise equivalence, per thread count.
    // The multi-thread runs drive the full queued path: coarse per-window
    // training and detector chunks run on whichever thread claims them (the
    // main thread included, while it help-waits), so every pool grab below
    // may execute on a thread other than the one that queued the work.
    for threads in [1usize, 2, 4] {
        cf_par::set_threads(threads);

        pool::set_enabled(false);
        let unpooled = run_fork_pipeline();
        let unpooled_grads = model_gradients();

        pool::set_enabled(true);
        let pooled = run_fork_pipeline();
        let pooled_grads = model_gradients();

        assert_eq!(
            pooled, unpooled,
            "discover output changed with pooling at {threads} thread(s)"
        );
        assert_eq!(pooled_grads.len(), unpooled_grads.len());
        for (p, u) in pooled_grads.iter().zip(&unpooled_grads) {
            let same = p
                .data()
                .iter()
                .zip(u.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "tape gradients changed with pooling at {threads} thread(s)"
            );
        }
    }

    // --- 3: steady state, measured at one thread. With more workers the
    // dynamic chunk→thread assignment varies run to run, transiently
    // shifting free-list inventory between thread-local caches (a handful
    // of spurious misses); at one thread the allocation pattern is exactly
    // repeatable, so the second run must be allocation-free. The pool must
    // stay alive from here on — its worker owns the warm free lists.
    cf_par::set_threads(1);
    pool::set_enabled(true);

    type Workload = fn() -> PipelineOutput;
    let workloads: [(&str, Workload); 2] = [
        ("Fork", run_fork_pipeline),
        ("Lorenz96", run_lorenz_pipeline),
    ];
    for (name, run) in workloads {
        run(); // warm-up: epoch 1 of this run populates the free lists
        let warm = pool::stats();
        let second = run();
        let steady = pool::stats();
        assert!(
            second.train_losses.iter().all(|l| l.is_finite()),
            "{name}: second run diverged"
        );
        assert_eq!(
            steady.miss - warm.miss,
            0,
            "{name}: steady-state run still missed the pool \
             ({} misses, {} hits)",
            steady.miss - warm.miss,
            steady.hit - warm.hit,
        );
        assert!(
            steady.hit > warm.hit,
            "{name}: steady-state run did not exercise the pool at all"
        );
        let epochs = second.train_losses.len().max(1) as u64;
        let per_epoch = (steady.alloc - warm.alloc) / epochs;
        assert!(
            per_epoch <= STEADY_ALLOC_PER_EPOCH_BOUND,
            "{name}: {per_epoch} allocs/epoch in the steady state exceeds \
             the bound of {STEADY_ALLOC_PER_EPOCH_BOUND}"
        );
    }
}
