//! The in-RAM workloads, `l96_train` and `l96_detect`: a Lorenz-96 series
//! handed to `CausalFormer::discover` the way `discover --input` does,
//! as CSV text parsed into the `N×L` matrix.

use crate::probe::{self, Counters};
use crate::spans::Recorder;
use crate::stages::{self, discover_rng, Decomposed, Outcome, TracedReps};
use crate::{stats, Ctx};
use causalformer::{presets, CausalFormer, Dtype};
use cf_data::lorenz96::{self, Lorenz96Config};
use cf_metrics::CausalGraph;
use cf_tensor::{Scalar, Tensor, TensorBase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One in-RAM workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Lorenz-96 variables `N`.
    pub n: usize,
    /// Recorded steps `L`.
    pub length: usize,
    /// Training epochs; early stopping is off so every seed trains the
    /// same number.
    pub epochs: usize,
    /// Windows the detector scores (capped at the window count).
    pub sample_windows: usize,
    pub dtype: Dtype,
    /// cf-par pool size, at most the host's two cores.
    pub threads: usize,
    /// Seconds one repetition (set-up, ingest burst, discovery) takes on
    /// the reference host; sizes the repetition count from `--seconds`.
    pub rep_s: f64,
}

/// Training-bound: about 99% of a discovery is the 5-epoch training
/// loop. A discovery takes 0.35–0.6 s on the reference host, depending on
/// how busy other tenants keep its cores: short enough that a run holds
/// some 40 of them, so the fastest one is steady under other tenants'
/// bursts (see README.md).
pub const L96_TRAIN: Plan = Plan {
    n: 20,
    length: 1000,
    epochs: 5,
    sample_windows: 8,
    dtype: Dtype::F64,
    threads: 1,
    rep_s: 0.8,
};

/// Detection-bound: two epochs, then every one of the 122 windows scored,
/// in f32 on two threads; about 1.2 s per discovery.
pub const L96_DETECT: Plan = Plan {
    n: 40,
    length: 500,
    epochs: 2,
    sample_windows: usize::MAX,
    dtype: Dtype::F32,
    threads: 2,
    rep_s: 1.7,
};

/// CSV parses per repetition; `ingest_s` is the fastest parse.
const INGEST_BURST: usize = 64;
/// Share of a traced run spent on untraced/traced discovery pairs; the
/// rest goes to the layer probes.
const PAIR_SHARE: f64 = 0.7;

fn pipeline(plan: &Plan) -> CausalFormer {
    let mut cf = presets::lorenz96(plan.n);
    cf.train.max_epochs = plan.epochs;
    cf.train.patience = plan.epochs + 1;
    cf.train.dtype = plan.dtype;
    cf.detector.sample_windows = plan.sample_windows;
    cf
}

/// The generated input: CSV text, the matrix it encodes, and the truth.
struct Input {
    csv: Vec<u8>,
    series: Tensor,
    truth: CausalGraph,
}

/// Generates the workload's input from `seed` and warms the process up
/// (thread pool, buffer pools, page faults) with a one-epoch discovery of
/// the same shapes. Returns the input and the generation time.
fn set_up(plan: &Plan, seed: u64) -> (Input, f64) {
    let t0 = Instant::now();
    let data = lorenz96::generate(
        &mut StdRng::seed_from_u64(seed),
        Lorenz96Config {
            n: plan.n,
            length: plan.length,
            forcing: 35.0,
            ..Lorenz96Config::default()
        },
    );
    let generate_s = t0.elapsed().as_secs_f64();
    let names: Vec<String> = (1..=plan.n).map(|i| format!("x{i}")).collect();
    let mut csv = Vec::new();
    cf_data::io::write_series_csv(&mut csv, &data.series, &names).expect("write to memory");
    let mut warm = pipeline(plan);
    warm.train.max_epochs = 1;
    warm.detector.sample_windows = 2 * plan.threads;
    warm.discover(&mut discover_rng(seed), &data.series);
    let input = Input {
        csv,
        series: data.series,
        truth: data.truth,
    };
    (input, generate_s)
}

pub fn run(ctx: &mut Ctx, plan: Plan) -> Result<(), String> {
    cf_par::set_threads(plan.threads);
    match (ctx.trace, plan.dtype) {
        (false, _) => untraced(ctx, &plan),
        (true, Dtype::F64) => traced::<f64>(ctx, &plan),
        (true, Dtype::F32) => traced::<f32>(ctx, &plan),
    }
}

/// Each repetition sets up its dataset afresh, parses the CSV, runs one
/// discovery on the parsed series, then parses the CSV `INGEST_BURST - 1`
/// more times, so all three timings are sampled across the whole run.
/// Parsing after the discovery keeps the first repetition's footprint that
/// of a process which read its input once (see `stages::record_peak`).
fn untraced(ctx: &mut Ctx, plan: &Plan) -> Result<(), String> {
    let cf = pipeline(plan);
    let (mut setup, mut ingest, mut discover, mut peaks) = (vec![], vec![], vec![], vec![]);
    let mut outcomes = Vec::new();
    let reps = stats::reps(ctx.budget, plan.rep_s, 3);
    for k in 0..reps {
        let data_seed = stages::data_seed(ctx.seed, stages::dataset_of(k, reps));
        let t0 = Instant::now();
        let (Input { csv, series, truth }, _) = set_up(plan, data_seed);
        setup.push(t0.elapsed().as_secs_f64());

        let parse = |ingest: &mut Vec<f64>| {
            let t0 = Instant::now();
            let out = cf_data::io::read_series_csv(&csv[..]);
            ingest.push(t0.elapsed().as_secs_f64());
            out.map(|p| p.series)
                .map_err(|e| format!("CSV ingest: {e}"))
        };
        let parsed = parse(&mut ingest)?;
        let exact = parsed.shape() == series.shape()
            && parsed
                .data()
                .iter()
                .zip(series.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        ctx.check(exact, "parsed CSV reproduces the generated series bitwise");
        // Discovery sees only the parsed input; the generator's matrix is
        // set-up staging.
        drop(series);

        let mut rng = discover_rng(data_seed);
        let ((r, dt), peak) = stages::with_peak_rss(|| {
            let t0 = Instant::now();
            let r = cf.discover(&mut rng, &parsed);
            (r, t0.elapsed().as_secs_f64())
        });
        discover.push(dt);
        peaks.push(peak);
        outcomes.push(Outcome::of(&r.graph, &r.scores, &truth));
        for _ in 1..INGEST_BURST {
            parse(&mut ingest)?;
        }
    }
    ctx.set_median("setup_s", &setup);
    ctx.set_timed("ingest_s", &ingest);
    ctx.set_timed("discover_s", &discover);
    stages::record_peak(ctx, &peaks);
    stages::record_quality(ctx, &outcomes);
    Ok(())
}

/// `discover` as its public calls: standardise and window (cf-data),
/// `train`, then the detect stage.
fn decomposed<E: Scalar>(
    rec: &mut Recorder,
    cf: &CausalFormer,
    series: &Tensor,
    truth: &CausalGraph,
    seed: u64,
) -> Decomposed<E> {
    let mut rng = discover_rng(seed);
    rec.span("discover", |rec| {
        let windows: Vec<TensorBase<E>> = rec.span("core.windowing", |_| {
            let std = cf_data::window::standardize(series);
            cf_data::window::windows(&std, cf.model.window, cf.train.stride)
                .iter()
                .map(TensorBase::from_f64_tensor)
                .collect()
        });
        let (trained, report) = rec.span("core.train", |_| {
            causalformer::train(&mut rng, cf.model, cf.train, &windows)
        });
        let (graph, scores) = stages::detect_stage(rec, &mut rng, cf, &trained, &windows);
        Decomposed {
            outcome: Outcome::of(&graph, &scores, truth),
            trained,
            report,
            windows,
        }
    })
}

fn traced<E: Scalar>(ctx: &mut Ctx, plan: &Plan) -> Result<(), String> {
    let seed = stages::data_seed(ctx.seed, 0);
    let (input, generate_s) = set_up(plan, seed);
    ctx.set("data.generate_s", generate_s);
    let Input { series, truth, .. } = input;
    let cf = pipeline(plan);

    let counters = Counters::now();
    let t0 = Instant::now();
    let r = cf.discover(&mut discover_rng(seed), &series);
    counters.record_since(ctx, t0.elapsed().as_secs_f64());
    let reference = Outcome::of(&r.graph, &r.scores, &truth);

    let mut reps = TracedReps::default();
    let (mut untraced, mut traced, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..stats::reps(ctx.budget * PAIR_SHARE, 2.0 * plan.rep_s, 2) {
        let d = reps.pair(
            || {
                let t0 = Instant::now();
                let r = cf.discover(&mut discover_rng(seed), &series);
                let dt = t0.elapsed().as_secs_f64();
                untraced.push(Outcome::of(&r.graph, &r.scores, &truth));
                dt
            },
            |rec| decomposed::<E>(rec, &cf, &series, &truth, seed),
        );
        traced.push(d.outcome);
        last = Some(d);
    }
    stages::gate_outcomes(ctx, "untraced discover", reference, &untraced);
    stages::gate_outcomes(ctx, "traced decomposed discover", reference, &traced);
    reps.record(ctx);

    let last = last.expect("at least two pairs");
    stages::record_training(ctx, &last.report);
    probe::model(ctx, &last.trained, &last.windows);
    probe::detector(ctx, &last.trained, &last.windows);
    probe::tensor::<E>(ctx, plan.n, cf.model.window, cf.model.d_model);
    Ok(())
}
