//! # cf-bench
//!
//! Experiment harness for the CausalFormer reproduction. Each binary
//! regenerates one table or figure of the paper (see DESIGN.md §3 for the
//! index):
//!
//! | binary   | paper result |
//! |----------|--------------|
//! | `table1` | overall F1 of 6 methods × 6 datasets |
//! | `table2` | precision of delay (PoD) of cMLP / TCDF / CausalFormer |
//! | `table3` | detector ablations on fMRI |
//! | `fig7`   | the four synthetic causal graphs |
//! | `fig8`   | fMRI-15 case study with TP/FP/FN edge classification |
//! | `fig10`  | SST case study: current-aligned causal relations |
//!
//! All binaries accept `--quick` (fewer seeds, shorter series, smaller
//! epoch budgets), `--seeds K`, and `--json PATH` to dump machine-readable
//! results. Speed and memory of the library are measured by the
//! repository benchmark, `perfbench/` (workloads and bounds in
//! `BENCHMARK.json`), not by this crate.

pub mod harness;
pub mod methods;

pub use harness::{parse_options, Options};
pub use methods::{
    build_method, build_method_dtyped, dataset_display_name, method_label, DatasetKind, MethodKind,
};

use cf_baselines::Discoverer;
use cf_data::Dataset;
use cf_metrics::{score, MeanStd};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One (method × dataset) cell of a result table.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Cell {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Aggregated F1.
    pub f1: Option<SerMeanStd>,
    /// Aggregated precision.
    pub precision: Option<SerMeanStd>,
    /// Aggregated recall.
    pub recall: Option<SerMeanStd>,
    /// Aggregated precision-of-delay (only for delay-capable methods on
    /// delay-annotated ground truth).
    pub pod: Option<SerMeanStd>,
    /// Total wall-clock seconds spent in `discover` across all runs of
    /// this cell.
    pub wall_secs: f64,
}

/// Serializable mirror of [`MeanStd`].
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct SerMeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Number of samples.
    pub n: usize,
}

impl From<MeanStd> for SerMeanStd {
    fn from(m: MeanStd) -> Self {
        Self {
            mean: m.mean,
            std: m.std,
            n: m.n,
        }
    }
}

impl std::fmt::Display for SerMeanStd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}±{:.2}", self.mean, self.std)
    }
}

/// Runs `method` over every `(seed, dataset)` pair and aggregates
/// edge-discovery metrics. `datasets(seed)` regenerates the benchmark for a
/// seed so every method sees identical data at identical seeds.
pub fn run_cell(method_kind: MethodKind, dataset_kind: DatasetKind, options: &Options) -> Cell {
    // Nested spans give the registry a "<Dataset>.<method>" path whose
    // total is this cell's discovery wall time.
    let _dataset_span = cf_obs::span!(dataset_display_name(dataset_kind));
    let mut f1s = Vec::new();
    let mut precisions = Vec::new();
    let mut recalls = Vec::new();
    let mut pods: Vec<Option<f64>> = Vec::new();
    let mut wall_secs = 0.0;

    for seed in 0..options.seeds as u64 {
        let datasets = methods::generate_datasets(dataset_kind, seed, options.quick);
        for data in &datasets {
            let method = methods::build_method_dtyped(
                method_kind,
                dataset_kind,
                data.num_series(),
                options.quick,
                options.dtype,
            );
            // Separate RNG stream per (method, seed, dataset) so methods
            // don't perturb each other's draws.
            let mut rng = StdRng::seed_from_u64(
                seed ^ (method_kind as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let started = std::time::Instant::now();
            let graph = {
                let _method_span = cf_obs::span!(method_kind.name());
                method.discover(&mut rng, &data.series)
            };
            wall_secs += started.elapsed().as_secs_f64();
            let c = score::confusion(&data.truth, &graph);
            f1s.push(c.f1());
            precisions.push(c.precision());
            recalls.push(c.recall());
            pods.push(if method.outputs_delays() {
                score::pod(&data.truth, &graph)
            } else {
                None
            });
        }
    }

    Cell {
        method: method_label(method_kind, options.dtype),
        dataset: dataset_display_name(dataset_kind).to_string(),
        f1: Some(MeanStd::from_samples(&f1s).into()),
        precision: Some(MeanStd::from_samples(&precisions).into()),
        recall: Some(MeanStd::from_samples(&recalls).into()),
        pod: MeanStd::from_options(&pods).map(Into::into),
        wall_secs,
    }
}

/// Runs one method over one concrete dataset, returning the graph and
/// confusion (used by the fig8 case study).
pub fn run_once(
    method: &dyn Discoverer,
    data: &Dataset,
    seed: u64,
) -> (cf_metrics::CausalGraph, score::Confusion) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = method.discover(&mut rng, &data.series);
    let confusion = score::confusion(&data.truth, &graph);
    (graph, confusion)
}

/// Renders a result matrix as an aligned text table with the paper's
/// reference numbers underneath each measured value.
pub fn print_table(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    measured: &[Vec<String>],
    reference: &[Vec<String>],
) {
    println!("\n=== {title} ===\n");
    let w = 16usize;
    print!("{:<14}", "");
    for c in col_labels {
        print!("{c:^w$}");
    }
    println!();
    for (r, label) in row_labels.iter().enumerate() {
        print!("{label:<14}");
        for v in &measured[r] {
            print!("{v:^w$}");
        }
        println!();
        if !reference.is_empty() {
            print!("{:<14}", "  (paper)");
            for v in &reference[r] {
                print!("{v:^w$}");
            }
            println!();
        }
    }
    println!();
}

/// Writes any serialisable results to a JSON file if `--json` was given.
pub fn maybe_dump_json<T: serde::Serialize>(options: &Options, value: &T) {
    if let Some(path) = &options.json_out {
        let json = serde_json::to_string_pretty(value).expect("results serialize");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("results written to {path}");
    }
}

/// Turns on tape op profiling when `--metrics` was requested. Call once at
/// the top of an experiment binary, before any cells run.
pub fn init_metrics(options: &Options) {
    if options.metrics {
        cf_obs::span::set_op_detail(true);
    }
}

/// Path of the metrics artifact: `<json stem>.metrics.json` next to the
/// `--json` output, or `metrics.json` when no `--json` was given.
pub fn metrics_path(options: &Options) -> String {
    match &options.json_out {
        Some(p) => format!("{}.metrics.json", p.strip_suffix(".json").unwrap_or(p)),
        None => "metrics.json".to_string(),
    }
}

/// Writes the per-run metrics artifact (per-cell method/dataset wall times,
/// tape op profile, span summary) if `--metrics` was given.
pub fn maybe_dump_metrics(options: &Options, cells: &[Cell]) {
    if !options.metrics {
        return;
    }
    let mut runs = cf_obs::json::Arr::new();
    for c in cells {
        runs = runs.raw(
            &cf_obs::json::Obj::new()
                .str("method", &c.method)
                .str("dataset", &c.dataset)
                .f64("wall_secs", c.wall_secs)
                .finish(),
        );
    }
    let doc = cf_obs::json::Obj::new()
        .f64("ts", cf_obs::unix_time())
        .u64("seeds", options.seeds as u64)
        .bool("quick", options.quick)
        .raw("runs", &runs.finish())
        .raw("op_profile", &cf_obs::span::ops_json())
        .raw("spans", &cf_obs::span::summary_json())
        .raw("metrics", &cf_obs::metrics::snapshot_json())
        .finish();
    let path = metrics_path(options);
    std::fs::write(&path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("metrics written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_path_sits_next_to_json_output() {
        let mut o = Options::default();
        assert_eq!(metrics_path(&o), "metrics.json");
        o.json_out = Some("/tmp/t1.json".into());
        assert_eq!(metrics_path(&o), "/tmp/t1.metrics.json");
        o.json_out = Some("/tmp/results".into());
        assert_eq!(metrics_path(&o), "/tmp/results.metrics.json");
    }

    #[test]
    fn metrics_artifact_is_valid_json_with_runs() {
        let dir = std::env::temp_dir();
        let json_path = dir.join("cf_bench_test_results.json");
        let options = Options {
            quick: true,
            seeds: 1,
            json_out: Some(json_path.to_string_lossy().into_owned()),
            metrics: true,
            threads: None,
            dtype: cf_tensor::Dtype::F64,
        };
        let cell = Cell {
            method: "cMLP".into(),
            dataset: "Diamond".into(),
            f1: None,
            precision: None,
            recall: None,
            pod: None,
            wall_secs: 1.25,
        };
        maybe_dump_metrics(&options, &[cell]);
        let path = metrics_path(&options);
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["runs"][0]["method"].as_str(), Some("cMLP"));
        assert_eq!(v["runs"][0]["wall_secs"].as_f64(), Some(1.25));
        assert!(v["op_profile"].as_array().is_some());
        assert!(v["spans"].as_array().is_some());
        std::fs::remove_file(&path).ok();
    }
}
