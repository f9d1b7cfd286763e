//! Per-layer probes shared by the workloads of a traced run: counter
//! deltas of cf-tensor's pool and cf-par's scheduler, per-window model
//! and detector timings on trained weights, and achieved GFLOP/s of the
//! public tensor ops at the workload's shapes.

use crate::Ctx;
use causalformer::detector::window_scores;
use causalformer::{DetectorMode, TrainedModelBase};
use cf_tensor::ops::{attn_apply, causal_conv};
use cf_tensor::{uniform, with_pooled_tape, Scalar, TensorBase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Snapshot of the cf-tensor pool and cf-par scheduler counters.
pub struct Counters {
    pool: cf_tensor::pool::PoolStats,
    par: [u64; 5],
}

const PAR_COUNTERS: [&str; 5] = [
    "par.tasks",
    "par.steals",
    "par.jobs_inline",
    "par.busy_ns",
    "par.idle_ns",
];

impl Counters {
    pub fn now() -> Self {
        Self {
            pool: cf_tensor::pool::stats(),
            par: PAR_COUNTERS.map(|name| cf_obs::metrics::counter(name).get()),
        }
    }

    /// Records the deltas since `self` as the `tensor.*` and `par.*`
    /// metrics of one discovery that took `wall` seconds.
    pub fn record_since(&self, ctx: &mut Ctx, wall: f64) {
        let now = Self::now();
        let hits = now.pool.hit - self.pool.hit;
        let misses = now.pool.miss - self.pool.miss;
        ctx.set("tensor.allocs", (now.pool.alloc - self.pool.alloc) as f64);
        ctx.set("tensor.pool_hits", hits as f64);
        ctx.set("tensor.pool_misses", misses as f64);
        ctx.set(
            "tensor.pool_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let [tasks, steals, inline, busy_ns, idle_ns]: [u64; 5] =
            std::array::from_fn(|k| now.par[k] - self.par[k]);
        let busy = busy_ns as f64 * 1e-9;
        ctx.set("par.tasks", tasks as f64);
        ctx.set("par.steals", steals as f64);
        ctx.set("par.jobs_inline", inline as f64);
        ctx.set("par.busy_s", busy);
        ctx.set("par.idle_s", idle_ns as f64 * 1e-9);
        ctx.set("par.utilization", busy / (cf_par::threads() as f64 * wall));
    }
}

/// Windows probed per layer: enough samples to find a fast one, few
/// enough to stay a small share of the run.
const PROBE_WINDOWS: usize = 16;

fn probe_windows<E: Scalar>(windows: &[TensorBase<E>]) -> Vec<&TensorBase<E>> {
    let step = (windows.len() / PROBE_WINDOWS).max(1);
    windows.iter().step_by(step).take(PROBE_WINDOWS).collect()
}

/// `model.forward_s` (forward plus losses) and `model.backward_s`
/// (`Tape::backward` from the total loss), per window, on trained weights.
pub fn model<E: Scalar>(ctx: &mut Ctx, trained: &TrainedModelBase<E>, windows: &[TensorBase<E>]) {
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for w in probe_windows(windows) {
        with_pooled_tape(|tape| {
            let t0 = Instant::now();
            let bound = trained.store.bind(tape);
            let trace = trained.model.forward(tape, &bound, w);
            let pred = trained.model.prediction_loss(tape, &trace, w);
            let penalty = trained.model.sparsity_penalty(tape, &bound);
            let loss = tape.add(pred, penalty);
            fwd.push(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            black_box(tape.backward(loss));
            bwd.push(t1.elapsed().as_secs_f64());
        });
    }
    ctx.set_timed("model.forward_s", &fwd);
    ctx.set_timed("model.backward_s", &bwd);
}

/// `detector.window_s`: one `window_scores` call per window.
pub fn detector<E: Scalar>(
    ctx: &mut Ctx,
    trained: &TrainedModelBase<E>,
    windows: &[TensorBase<E>],
) {
    let mut times = Vec::new();
    for w in probe_windows(windows) {
        let t0 = Instant::now();
        black_box(window_scores(
            &trained.model,
            &trained.store,
            w,
            DetectorMode::Full,
        ));
        times.push(t0.elapsed().as_secs_f64());
    }
    ctx.set_timed("detector.window_s", &times);
}

/// Achieved GFLOP/s of `f`, which performs `flops` floating-point
/// operations per call: the fastest of five 40 ms slices.
fn gflops(flops: f64, mut f: impl FnMut()) -> f64 {
    f();
    let slices: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while calls == 0 || t0.elapsed().as_secs_f64() < 0.04 {
                f();
                calls += 1;
            }
            flops * calls as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    slices.into_iter().fold(0.0, f64::max)
}

/// The tensor ops of one forward pass at `n` series, window `t` and
/// embedding width `d`, plus a large matmul as the roofline reference.
pub fn tensor<E: Scalar>(ctx: &mut Ctx, n: usize, t: usize, d: usize) {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let x: TensorBase<E> = uniform(&mut rng, &[n, t], -1.0, 1.0);
    let w: TensorBase<E> = uniform(&mut rng, &[t, d], -1.0, 1.0);
    let bank: TensorBase<E> = uniform(&mut rng, &[n, n, t], -1.0, 1.0);
    let attn: TensorBase<E> = uniform(&mut rng, &[n, n], 0.0, 1.0);
    let (n, t, d) = (n as f64, t as f64, d as f64);
    let matmul = gflops(2.0 * n * t * d, || {
        black_box(black_box(&x).matmul(&w));
    });
    // X̂[i,j,t] sums t products: N²·T(T+1)/2 multiply-adds.
    let conv = gflops(n * n * t * (t + 1.0), || {
        black_box(causal_conv(black_box(&x), &bank));
    });
    let apply = gflops(2.0 * n * n * t, || {
        black_box(attn_apply(black_box(&attn), &bank));
    });
    const PEAK: usize = 256;
    let a: TensorBase<E> = uniform(&mut rng, &[PEAK, PEAK], -1.0, 1.0);
    let peak = gflops(2.0 * (PEAK as f64).powi(3), || {
        black_box(black_box(&a).matmul(&a));
    });
    ctx.set("tensor.matmul_gflops", matmul);
    ctx.set("tensor.conv_gflops", conv);
    ctx.set("tensor.attn_apply_gflops", apply);
    ctx.set("tensor.peak_gflops", peak);
    println!(
        "  tensor GFLOP/s: matmul {matmul:.3}  conv {conv:.3}  attn_apply {apply:.3}  peak {peak:.3}"
    );
}
