//! Diagnostic utility: sweeps detector settings (k-means classes, top-m,
//! sample windows) on trained models across architecture variants, for one
//! dataset. Used to pick the per-dataset presets; not part of the paper's
//! tables.
//!
//! ```text
//! cargo run -p cf-bench --release --bin sweep -- lorenz
//! ```

use causalformer::{detector, trainer, DetectorConfig};
use cf_bench::methods::{causalformer_for, generate_datasets, DatasetKind};
use cf_data::window;
use cf_metrics::score;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "lorenz".into());
    let kind = match which.as_str() {
        "diamond" => DatasetKind::Diamond,
        "mediator" => DatasetKind::Mediator,
        "vstructure" => DatasetKind::VStructure,
        "fork" => DatasetKind::Fork,
        "lorenz" => DatasetKind::Lorenz96,
        "fmri" => DatasetKind::Fmri,
        other => {
            eprintln!("unknown dataset {other}");
            std::process::exit(2);
        }
    };

    for (temp, lam) in [
        (10.0f64, 5e-4f64),
        (1.0, 5e-4),
        (1.0, 5e-3),
        (1.0, 2e-2),
        (10.0, 2e-2),
    ] {
        let (window_len, heads) = (8usize, 2usize);
        println!("-- tau={temp} lambda_M={lam}");
        // Average over 2 seeds to damp noise.
        let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
        for seed in 0..2u64 {
            let datasets = generate_datasets(kind, seed, true);
            for data in &datasets {
                let mut cf = causalformer_for(kind, data.num_series(), true);
                cf.model.window = window_len;
                cf.model.heads = heads;
                cf.model.temperature = temp;
                cf.model.lambda_mask = lam;
                let std_series = window::standardize(&data.series);
                let windows = window::windows::<f64>(&std_series, cf.model.window, cf.train.stride);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
                let (trained, _) = trainer::train(&mut rng, cf.model, cf.train, &windows);

                for (n_clusters, m_top) in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2)] {
                    let det = DetectorConfig {
                        n_clusters,
                        m_top,
                        ..cf.detector
                    };
                    let mut det_rng = StdRng::seed_from_u64(7);
                    let (graph, _) = detector::detect(
                        &mut det_rng,
                        &trained.model,
                        &trained.store,
                        &windows,
                        &det,
                    );
                    let c = score::confusion(&data.truth, &graph);
                    let key = format!("T={window_len} h={heads} n={n_clusters} m={m_top}");
                    match rows.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, v)) => v.push(c.f1()),
                        None => rows.push((key, vec![c.f1()])),
                    }
                }
            }
        }
        for (key, f1s) in rows {
            let mean = f1s.iter().sum::<f64>() / f1s.len() as f64;
            println!("{key}: F1 {mean:.3} ({} runs)", f1s.len());
        }
    }
}
