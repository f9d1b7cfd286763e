//! Integration tests spanning the workspace crates: data generators →
//! training → detection → metrics, plus cross-method comparisons on the
//! common [`Discoverer`] interface.

use causalformer::{detector, presets, trainer, DetectorConfig, DetectorMode};
use cf_baselines::{
    Clstm, ClstmConfig, Cmlp, CmlpConfig, Cuts, CutsConfig, Discoverer, Dvgnn, DvgnnConfig, Tcdf,
    TcdfConfig,
};
use cf_bench::methods::{build_method, generate_datasets, DatasetKind, MethodKind};
use cf_data::{fmri_sim, lorenz96, synthetic, window};
use cf_metrics::score;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tiny-but-real CausalFormer config for integration testing.
fn quick_cf(n: usize) -> causalformer::CausalFormer {
    let mut cf = presets::synthetic_sparse(n);
    cf.model.d_model = 12;
    cf.model.d_qk = 12;
    cf.model.d_ffn = 12;
    cf.model.window = 8;
    cf.train.max_epochs = 20;
    cf.train.stride = 2;
    cf
}

#[test]
fn causalformer_beats_empty_graph_on_every_synthetic_structure() {
    for structure in synthetic::Structure::ALL {
        let mut rng = StdRng::seed_from_u64(11);
        let data = synthetic::generate(&mut rng, structure, 300);
        let cf = quick_cf(data.num_series());
        let result = cf.discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &result.graph);
        assert!(
            f1 > 0.3,
            "{}: F1 {f1} barely above empty-graph baseline; got {}",
            structure.name(),
            result.graph
        );
    }
}

#[test]
fn pipeline_is_deterministic_given_seed() {
    let mut rng_a = StdRng::seed_from_u64(5);
    let data = synthetic::generate(&mut rng_a, synthetic::Structure::Fork, 200);
    let cf = quick_cf(3);
    let ga = cf
        .discover(&mut StdRng::seed_from_u64(9), &data.series)
        .graph;
    let gb = cf
        .discover(&mut StdRng::seed_from_u64(9), &data.series)
        .graph;
    assert_eq!(ga, gb);
}

#[test]
fn every_discoverer_runs_on_the_same_dataset() {
    let mut rng = StdRng::seed_from_u64(3);
    let data = synthetic::generate(&mut rng, synthetic::Structure::Mediator, 150);
    let methods: Vec<Box<dyn Discoverer>> = vec![
        Box::new(Cmlp::new(CmlpConfig {
            epochs: 10,
            ..Default::default()
        })),
        Box::new(Clstm::new(ClstmConfig {
            epochs: 3,
            ..Default::default()
        })),
        Box::new(Tcdf::new(TcdfConfig {
            epochs: 10,
            ..Default::default()
        })),
        Box::new(Dvgnn::new(DvgnnConfig {
            epochs: 20,
            ..Default::default()
        })),
        Box::new(Cuts::new(CutsConfig {
            epochs: 10,
            ..Default::default()
        })),
    ];
    for m in methods {
        let g = m.discover(&mut rng, &data.series);
        assert_eq!(
            g.num_series(),
            3,
            "{} returned wrong vertex count",
            m.name()
        );
        // Delay annotations must be consistent with the capability flag.
        if !m.outputs_delays() {
            assert!(g.edges().all(|e| e.delay.is_none()), "{}", m.name());
        }
    }
}

#[test]
fn detector_modes_all_produce_valid_graphs_from_one_trained_model() {
    let mut rng = StdRng::seed_from_u64(21);
    let data = synthetic::generate(&mut rng, synthetic::Structure::Diamond, 250);
    let cf = quick_cf(4);
    let std_series = window::standardize(&data.series);
    let windows = window::windows::<f64>(&std_series, cf.model.window, cf.train.stride);
    let (trained, report) = trainer::train(&mut rng, cf.model, cf.train, &windows);
    assert!(report.train_losses.last().unwrap() < &report.train_losses[0]);

    for mode in [
        DetectorMode::Full,
        DetectorMode::NoInterpretation,
        DetectorMode::NoRelevance,
        DetectorMode::NoGradient,
        DetectorMode::NoBias,
    ] {
        let cfg = DetectorConfig {
            mode,
            ..cf.detector
        };
        let (graph, scores) =
            detector::detect(&mut rng, &trained.model, &trained.store, &windows, &cfg);
        assert_eq!(graph.num_series(), 4, "{mode:?}");
        for i in 0..4 {
            for j in 0..4 {
                assert!(scores.attn[i][j].is_finite(), "{mode:?} score ({i},{j})");
            }
        }
        // Every edge must carry a delay within the representable range
        // (window − 1 for cross edges, window for shifted self edges).
        for e in graph.edges() {
            let d = e.delay.expect("CausalFormer annotates delays");
            assert!(d <= cf.model.window, "{mode:?}: delay {d} out of range");
        }
    }
}

#[test]
fn lorenz96_discovery_recovers_self_loops() {
    // Self-causation is the strongest Lorenz-96 signal (the −x_i term);
    // any sane configuration must recover most self loops.
    // Seed chosen to give a clear margin under the vendored RNG stream.
    let mut rng = StdRng::seed_from_u64(0);
    let data = lorenz96::generate_random_forcing(&mut rng, 10, 200);
    let mut cf = presets::lorenz96(10);
    cf.model.d_model = 12;
    cf.model.d_qk = 12;
    cf.model.d_ffn = 12;
    cf.model.window = 8;
    cf.train.max_epochs = 15;
    cf.train.stride = 2;
    let graph = cf.discover(&mut rng, &data.series).graph;
    let self_found = (0..10).filter(|&i| graph.has_edge(i, i)).count();
    assert!(self_found >= 8, "only {self_found}/10 self loops found");
}

#[test]
fn fmri_simulation_feeds_the_full_pipeline() {
    let mut rng = StdRng::seed_from_u64(2);
    let data = fmri_sim::generate(&mut rng, fmri_sim::FmriConfig::netsim_like(5, 120));
    let mut cf = presets::fmri(5);
    cf.model.d_model = 12;
    cf.model.d_qk = 12;
    cf.model.d_ffn = 12;
    cf.model.window = 8;
    cf.train.max_epochs = 15;
    let result = cf.discover(&mut rng, &data.series);
    let c = score::confusion(&data.truth, &result.graph);
    // With 5 regions the empty graph scores 0; require something real.
    assert!(c.f1() > 0.2, "F1 {} on a 5-region network", c.f1());
}

#[test]
fn harness_registry_methods_run_end_to_end() {
    // The cf-bench registry is what the table binaries iterate; make sure a
    // representative cell runs.
    let datasets = generate_datasets(DatasetKind::Fork, 0, true);
    let data = &datasets[0];
    for kind in [MethodKind::Cmlp, MethodKind::CausalFormer] {
        let method = build_method(kind, DatasetKind::Fork, data.num_series(), true);
        let mut rng = StdRng::seed_from_u64(0);
        let graph = method.discover(&mut rng, &data.series);
        let f1 = score::f1(&data.truth, &graph);
        assert!(f1 > 0.3, "{}: F1 {f1}", method.name());
    }
}

#[test]
fn statistic_methods_dominate_linear_synthetics() {
    // The table1x headline: on near-linear SEMs, VAR-Granger beats the
    // deep methods. Pin that ordering so benchmark drift is caught.
    use cf_baselines::{Pcmci, VarGranger};
    let mut rng = StdRng::seed_from_u64(30);
    let data = synthetic::generate(&mut rng, synthetic::Structure::Diamond, 600);
    let var = VarGranger::default().discover(&mut rng, &data.series);
    let pcmci = Pcmci::default().discover(&mut rng, &data.series);
    assert!(score::f1(&data.truth, &var) >= 0.8, "VAR {}", var);
    assert!(score::f1(&data.truth, &pcmci) >= 0.8, "PCMCI {}", pcmci);
}

#[test]
fn linear_testers_fail_on_henon_coupling() {
    // The nonlinear experiment's headline: quadratic Hénon coupling is
    // invisible to linear Granger tests at strong coupling.
    use cf_baselines::VarGranger;
    use cf_data::henon::{self, HenonConfig};
    let mut rng = StdRng::seed_from_u64(31);
    let data = henon::generate(
        &mut rng,
        HenonConfig {
            coupling: 0.5,
            length: 400,
            ..HenonConfig::default()
        },
    );
    let var = VarGranger::default().discover(&mut rng, &data.series);
    let chain_hits = data
        .truth
        .non_self_edges()
        .filter(|e| var.has_edge(e.from, e.to))
        .count();
    assert!(
        chain_hits <= 1,
        "linear VAR should miss the quadratic chain, found {chain_hits}"
    );
}

#[test]
fn permutation_scores_rank_the_true_cause_on_a_trained_model() {
    // The perturbation read-out of a trained model must rank the true
    // cause above the non-cause (the decomposition read-out is covered by
    // the core pipeline tests).
    let mut rng = StdRng::seed_from_u64(32);
    let data = synthetic::generate(&mut rng, synthetic::Structure::Fork, 300);
    // Sharp attention (τ = 1) so the trained model actually routes
    // cross-series information; at τ = 100 predictions are self-dominated
    // and permutation deltas are noise.
    let mut cf = quick_cf(3);
    cf.model.temperature = 1.0;
    let std_series = window::standardize(&data.series);
    let windows = window::windows::<f64>(&std_series, cf.model.window, cf.train.stride);
    let (trained, _) = trainer::train(&mut rng, cf.model, cf.train, &windows);
    let perm_scores =
        detector::permutation_scores(&mut rng, &trained.model, &trained.store, &windows[..4]);
    // Fork: S1 (idx 0) is the only non-self cause of S2 (idx 1); the
    // permutation read-out must rank it above the non-cause S3 (idx 2).
    assert!(
        perm_scores.attn[1][0] > perm_scores.attn[1][2],
        "cause {} vs non-cause {}",
        perm_scores.attn[1][0],
        perm_scores.attn[1][2]
    );
}

#[test]
fn csv_roundtrip_feeds_discovery() {
    // generate → CSV → parse → discover, entirely through public APIs.
    use cf_data::io;
    let mut rng = StdRng::seed_from_u64(33);
    let data = synthetic::generate(&mut rng, synthetic::Structure::Fork, 250);
    let names: Vec<String> = (1..=3).map(|i| format!("S{i}")).collect();
    let mut buf = Vec::new();
    io::write_series_csv(&mut buf, &data.series, &names).unwrap();
    let parsed = io::read_series_csv(buf.as_slice()).unwrap();
    assert_eq!(parsed.series, data.series);
    let cf = quick_cf(3);
    let result = cf.discover(&mut rng, &parsed.series);
    assert!(score::f1(&data.truth, &result.graph) > 0.3);
}

#[test]
fn persisted_model_detects_identically() {
    let mut rng = StdRng::seed_from_u64(34);
    let data = synthetic::generate(&mut rng, synthetic::Structure::Mediator, 250);
    let cf = quick_cf(3);
    let std_series = window::standardize(&data.series);
    let windows = window::windows::<f64>(&std_series, cf.model.window, cf.train.stride);
    let (trained, _) = trainer::train(&mut rng, cf.model, cf.train, &windows);
    let json = causalformer::persist::to_json(&trained).unwrap();
    let loaded = causalformer::persist::from_json(&json).unwrap();
    let mut r1 = StdRng::seed_from_u64(1);
    let mut r2 = StdRng::seed_from_u64(1);
    let (g1, _) = detector::detect(
        &mut r1,
        &trained.model,
        &trained.store,
        &windows,
        &cf.detector,
    );
    let (g2, _) = detector::detect(
        &mut r2,
        &loaded.model,
        &loaded.store,
        &windows,
        &cf.detector,
    );
    assert_eq!(g1, g2);
}

#[test]
fn ranking_metrics_track_detector_quality() {
    // AUROC of the detector's raw scores should comfortably beat 0.5 on a
    // structure it discovers well.
    use cf_metrics::ranking;
    let mut rng = StdRng::seed_from_u64(35);
    let data = synthetic::generate(&mut rng, synthetic::Structure::Fork, 300);
    let cf = quick_cf(3);
    let result = cf.discover(&mut rng, &data.series);
    let scored: Vec<(usize, usize, f64)> = (0..3)
        .flat_map(|i| (0..3).map(move |j| (j, i, 0.0)))
        .map(|(from, to, _)| (from, to, result.scores.attn[to][from]))
        .collect();
    let auroc = ranking::auroc(&data.truth, &scored).unwrap();
    assert!(auroc > 0.6, "AUROC {auroc}");
}

#[test]
fn graph_scoring_composes_with_dot_export() {
    let mut rng = StdRng::seed_from_u64(13);
    let data = synthetic::generate(&mut rng, synthetic::Structure::Fork, 200);
    let cf = quick_cf(3);
    let graph = cf.discover(&mut rng, &data.series).graph;
    let truth = data.truth.clone();
    let dot = graph.to_dot("fork", move |e| {
        if truth.has_edge(e.from, e.to) {
            cf_metrics::EdgeClass::TruePositive
        } else {
            cf_metrics::EdgeClass::FalsePositive
        }
    });
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("S1"));
}
