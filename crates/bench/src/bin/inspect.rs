//! Diagnostic utility: trains CausalFormer on one dataset and prints the
//! per-target causal-score matrices of every detector mode next to the
//! ground truth — useful for understanding what the RRP/gradient scoring
//! actually sees. Not part of the paper's tables.
//!
//! ```text
//! cargo run -p cf-bench --release --bin inspect -- fork
//! cargo run -p cf-bench --release --bin inspect -- fmri5
//! ```

use causalformer::{detector, trainer, DetectorMode};
use cf_bench::methods::{causalformer_for, generate_datasets, DatasetKind};
use cf_data::window;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "fork".into());
    let (kind, pick) = match which.as_str() {
        "diamond" => (DatasetKind::Diamond, 0),
        "mediator" => (DatasetKind::Mediator, 0),
        "vstructure" => (DatasetKind::VStructure, 0),
        "fork" => (DatasetKind::Fork, 0),
        "lorenz" => (DatasetKind::Lorenz96, 0),
        "fmri5" => (DatasetKind::Fmri, 0),
        "fmri10" => (DatasetKind::Fmri, 1),
        "fmri15" => (DatasetKind::Fmri, 2),
        other => {
            eprintln!("unknown dataset {other}");
            std::process::exit(2);
        }
    };

    let datasets = generate_datasets(kind, 0, true);
    let data = &datasets[pick.min(datasets.len() - 1)];
    let n = data.num_series();
    println!("dataset {} (n={n}), truth: {}\n", data.name, data.truth);

    let cf = causalformer_for(kind, n, true);
    let std_series = window::standardize(&data.series);
    let windows = window::windows::<f64>(&std_series, cf.model.window, cf.train.stride);
    let mut rng = StdRng::seed_from_u64(0xAB1E);
    let (trained, report) = trainer::train(&mut rng, cf.model, cf.train, &windows);
    println!(
        "train loss {:.4} → {:.4}, best val {:.4} @ epoch {}\n",
        report.train_losses[0],
        report.train_losses.last().unwrap(),
        report
            .val_losses
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min),
        report.best_epoch
    );

    for mode in [
        DetectorMode::Full,
        DetectorMode::NoInterpretation,
        DetectorMode::NoRelevance,
        DetectorMode::NoGradient,
        DetectorMode::NoBias,
    ] {
        let mut det_cfg = cf.detector;
        det_cfg.mode = mode;
        let mut det_rng = StdRng::seed_from_u64(0xD37);
        let (graph, scores) = detector::detect(
            &mut det_rng,
            &trained.model,
            &trained.store,
            &windows,
            &det_cfg,
        );
        let c = cf_metrics::score::confusion(&data.truth, &graph);
        println!(
            "--- mode {mode:?}  (P {:.2} R {:.2} F1 {:.2}, {} edges) ---",
            c.precision(),
            c.recall(),
            c.f1(),
            graph.num_edges()
        );
        println!("score matrix (row = target i, col = candidate cause j; * = truth edge j→i):");
        for i in 0..n {
            let row_max = scores.attn[i]
                .iter()
                .cloned()
                .fold(f64::MIN_POSITIVE, f64::max);
            let mut line = format!("  S{:<2}", i + 1);
            for j in 0..n {
                let mark = if data.truth.has_edge(j, i) { '*' } else { ' ' };
                line.push_str(&format!(" {mark}{:5.2}", scores.attn[i][j] / row_max));
            }
            println!("{line}");
        }
        println!("graph: {graph}\n");
    }
}
