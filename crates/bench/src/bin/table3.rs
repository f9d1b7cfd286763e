//! Regenerates **Table 3**: ablation study of CausalFormer's detector on
//! the (simulated) fMRI dataset — precision / recall / F1 for:
//!
//! * w/o interpretation (raw attention + kernel weights as scores)
//! * w/o relevance      (|gradients| only)
//! * w/o gradient       (relevance only)
//! * w/o bias           (RRP without bias in the denominators)
//! * w/o multi conv kernel (single per-source kernel; retrained)
//! * full CausalFormer
//!
//! The detector ablations share one trained model per network (they differ
//! only in how the trained model is *read*), mirroring the paper's setup;
//! the convolution ablation retrains with `single_kernel = true`.
//!
//! ```text
//! cargo run -p cf-bench --release --bin table3 -- --quick
//! ```

use causalformer::{detector, trainer, DetectorMode};
use cf_bench::{methods, parse_options, print_table, SerMeanStd};
use cf_data::window;
use cf_metrics::{score, MeanStd};
use cf_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(serde::Serialize)]
struct AblationRow {
    variant: String,
    precision: SerMeanStd,
    recall: SerMeanStd,
    f1: SerMeanStd,
}

fn main() {
    let options = parse_options(std::env::args().skip(1));
    cf_bench::init_metrics(&options);
    println!(
        "Table 3 — fMRI ablations ({} seeds{})",
        options.seeds,
        if options.quick { ", quick mode" } else { "" }
    );

    let detector_variants: [(&str, DetectorMode); 5] = [
        ("w/o interpretation", DetectorMode::NoInterpretation),
        ("w/o relevance", DetectorMode::NoRelevance),
        ("w/o gradient", DetectorMode::NoGradient),
        ("w/o bias", DetectorMode::NoBias),
        ("CausalFormer", DetectorMode::Full),
    ];
    // variant name → (precision, recall, f1) samples
    type VariantSamples = (String, Vec<f64>, Vec<f64>, Vec<f64>);
    let mut samples: Vec<VariantSamples> = detector_variants
        .iter()
        .map(|(name, _)| (name.to_string(), Vec::new(), Vec::new(), Vec::new()))
        .collect();
    samples.insert(
        4,
        (
            "w/o multi conv kernel".to_string(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        ),
    );

    for seed in 0..options.seeds as u64 {
        let datasets = methods::generate_datasets(methods::DatasetKind::Fmri, seed, options.quick);
        for data in &datasets {
            eprintln!("seed {seed}: network {} …", data.name);
            let n = data.num_series();
            let cf = methods::causalformer_for(methods::DatasetKind::Fmri, n, options.quick);

            // Standardise + window exactly as the pipeline does.
            let std_series = window::standardize(&data.series);
            let windows: Vec<Tensor> =
                window::windows(&std_series, cf.model.window, cf.train.stride);

            // Train the shared (multi-kernel) model once per network.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xAB1E);
            let (trained, _) = trainer::train(&mut rng, cf.model, cf.train, &windows);

            for (k, (name, mode)) in detector_variants.iter().enumerate() {
                let mut det_cfg = cf.detector;
                det_cfg.mode = *mode;
                let mut det_rng = StdRng::seed_from_u64(seed ^ 0xD37);
                let (graph, _) = detector::detect(
                    &mut det_rng,
                    &trained.model,
                    &trained.store,
                    &windows,
                    &det_cfg,
                );
                let c = score::confusion(&data.truth, &graph);
                let row = if *name == "CausalFormer" { 5 } else { k };
                samples[row].1.push(c.precision());
                samples[row].2.push(c.recall());
                samples[row].3.push(c.f1());
            }

            // Convolution ablation: retrain with a single kernel.
            let mut model_single = cf.model;
            model_single.single_kernel = true;
            let mut rng2 = StdRng::seed_from_u64(seed ^ 0xAB1E);
            let (trained_single, _) = trainer::train(&mut rng2, model_single, cf.train, &windows);
            let mut det_rng = StdRng::seed_from_u64(seed ^ 0xD37);
            let (graph, _) = detector::detect(
                &mut det_rng,
                &trained_single.model,
                &trained_single.store,
                &windows,
                &cf.detector,
            );
            let c = score::confusion(&data.truth, &graph);
            samples[4].1.push(c.precision());
            samples[4].2.push(c.recall());
            samples[4].3.push(c.f1());
        }
    }

    let paper: [(&str, &str, &str, &str); 6] = [
        ("w/o interpretation", "0.47±0.24", "0.45±0.17", "0.44±0.18"),
        ("w/o relevance", "0.64±0.32", "0.44±0.12", "0.50±0.17"),
        ("w/o gradient", "0.60±0.60", "0.54±0.54", "0.54±0.54"),
        ("w/o bias", "0.79±0.31", "0.44±0.12", "0.55±0.18"),
        (
            "w/o multi conv kernel",
            "0.74±0.25",
            "0.56±0.12",
            "0.61±0.12",
        ),
        ("CausalFormer", "0.80±0.17", "0.59±0.13", "0.66±0.09"),
    ];

    let mut rows = Vec::new();
    let mut measured = Vec::new();
    let mut reference = Vec::new();
    let mut json_rows = Vec::new();
    for (i, (name, p_samples, r_samples, f_samples)) in samples.iter().enumerate() {
        let p = MeanStd::from_samples(p_samples);
        let r = MeanStd::from_samples(r_samples);
        let f = MeanStd::from_samples(f_samples);
        rows.push(name.clone());
        measured.push(vec![p.to_string(), r.to_string(), f.to_string()]);
        reference.push(vec![
            paper[i].1.to_string(),
            paper[i].2.to_string(),
            paper[i].3.to_string(),
        ]);
        json_rows.push(AblationRow {
            variant: name.clone(),
            precision: p.into(),
            recall: r.into(),
            f1: f.into(),
        });
    }

    print_table(
        "Table 3: fMRI ablations (measured vs paper)",
        &rows,
        &["Precision".into(), "Recall".into(), "F1".into()],
        &measured,
        &reference,
    );
    cf_bench::maybe_dump_json(&options, &json_rows);
    // Ablations share one training per network, so there are no per-cell
    // timings; the artifact still carries the op profile and span summary.
    cf_bench::maybe_dump_metrics(&options, &[]);
}
