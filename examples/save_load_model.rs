//! Train a causality-aware transformer once, save it, and rerun the
//! detector from the checkpoint — the workflow for separating expensive
//! training from cheap re-analysis (e.g. sweeping detector densities).
//!
//! ```text
//! cargo run -p cf-bench --release --example save_load_model
//! ```

use causalformer::{detector, persist, presets, trainer, DetectorConfig};
use cf_data::synthetic::{generate, Structure};
use cf_data::window;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let data = generate(&mut rng, Structure::Mediator, 400);
    let cf = presets::synthetic_dense(data.num_series());

    // Train once.
    let std_series = window::standardize(&data.series);
    let windows = window::windows::<f64>(&std_series, cf.model.window, cf.train.stride);
    let (trained, report) = trainer::train(&mut rng, cf.model, cf.train, &windows);
    println!(
        "trained {} epochs (best validation at epoch {})",
        report.train_losses.len(),
        report.best_epoch
    );

    // Save and reload.
    let path = std::env::temp_dir().join("causalformer_mediator.json");
    persist::save(&trained, &path).expect("checkpoint written");
    println!("checkpoint: {}", path.display());
    let loaded = persist::load(&path).expect("checkpoint read");

    // Re-detect from the checkpoint at two different graph densities —
    // no retraining needed.
    for (n_clusters, m_top) in [(2usize, 1usize), (4, 2)] {
        let det = DetectorConfig {
            n_clusters,
            m_top,
            ..cf.detector
        };
        let mut det_rng = StdRng::seed_from_u64(1);
        let (graph, _) =
            detector::detect(&mut det_rng, &loaded.model, &loaded.store, &windows, &det);
        println!("m/n = {m_top}/{n_clusters}: {graph}");
    }
    println!("ground truth:  {}", data.truth);
    std::fs::remove_file(&path).ok();
}
