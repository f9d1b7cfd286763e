//! Method and dataset registries: every method of the paper's Table 1,
//! configured per dataset exactly as §5.3 prescribes (scaled for CPU).

use causalformer::{presets, CausalFormer};
use cf_baselines::{
    Clstm, ClstmConfig, Cmlp, CmlpConfig, Cuts, CutsConfig, Discoverer, Dvgnn, DvgnnConfig, Tcdf,
    TcdfConfig,
};
use cf_data::{fmri_sim, lorenz96, synthetic, Dataset};
use cf_metrics::CausalGraph;
use cf_tensor::{Dtype, Tensor};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The datasets of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Synthetic diamond structure (4 series).
    Diamond,
    /// Synthetic mediator structure (3 series).
    Mediator,
    /// Synthetic v-structure (3 series).
    VStructure,
    /// Synthetic fork (3 series).
    Fork,
    /// Lorenz-96 with `F ∈ [30,40]` (10 series).
    Lorenz96,
    /// Simulated fMRI BOLD networks (5–15 regions per network).
    Fmri,
}

impl DatasetKind {
    /// All Table 1 datasets in paper order.
    pub const ALL: [DatasetKind; 6] = [
        DatasetKind::Diamond,
        DatasetKind::Mediator,
        DatasetKind::VStructure,
        DatasetKind::Fork,
        DatasetKind::Lorenz96,
        DatasetKind::Fmri,
    ];

    /// The Table 2 datasets (those with delay ground truth).
    pub const WITH_DELAYS: [DatasetKind; 5] = [
        DatasetKind::Diamond,
        DatasetKind::Mediator,
        DatasetKind::VStructure,
        DatasetKind::Fork,
        DatasetKind::Lorenz96,
    ];
}

/// Display name matching the paper's tables.
pub fn dataset_display_name(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::Diamond => "Diamond",
        DatasetKind::Mediator => "Mediator",
        DatasetKind::VStructure => "V-structure",
        DatasetKind::Fork => "Fork",
        DatasetKind::Lorenz96 => "Lorenz96",
        DatasetKind::Fmri => "fMRI",
    }
}

/// Generates the benchmark datasets of `kind` for one seed. fMRI yields a
/// suite of networks (the paper aggregates across 28; quick mode uses 3);
/// the others yield a single dataset.
pub fn generate_datasets(kind: DatasetKind, seed: u64, quick: bool) -> Vec<Dataset> {
    // Offset the dataset RNG stream from the method streams.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(17));
    let synth_len = if quick { 400 } else { 1000 };
    match kind {
        DatasetKind::Diamond => vec![synthetic::generate(
            &mut rng,
            synthetic::Structure::Diamond,
            synth_len,
        )],
        DatasetKind::Mediator => vec![synthetic::generate(
            &mut rng,
            synthetic::Structure::Mediator,
            synth_len,
        )],
        DatasetKind::VStructure => vec![synthetic::generate(
            &mut rng,
            synthetic::Structure::VStructure,
            synth_len,
        )],
        DatasetKind::Fork => vec![synthetic::generate(
            &mut rng,
            synthetic::Structure::Fork,
            synth_len,
        )],
        DatasetKind::Lorenz96 => {
            let len = if quick { 300 } else { 1000 };
            vec![lorenz96::generate_random_forcing(&mut rng, 10, len)]
        }
        DatasetKind::Fmri => {
            if quick {
                fmri_sim::quick_suite(&mut rng, 1)
            } else {
                fmri_sim::suite(&mut rng)
            }
        }
    }
}

/// The methods of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// cMLP neural Granger causality \[31\].
    Cmlp,
    /// cLSTM neural Granger causality \[31\].
    Clstm,
    /// Temporal Causal Discovery Framework \[10\].
    Tcdf,
    /// DVGNN-lite \[49\].
    Dvgnn,
    /// CUTS-lite \[50\].
    Cuts,
    /// This paper's method.
    CausalFormer,
}

impl MethodKind {
    /// All methods in the paper's Table 1 column order.
    pub const ALL: [MethodKind; 6] = [
        MethodKind::Cmlp,
        MethodKind::Clstm,
        MethodKind::Tcdf,
        MethodKind::Dvgnn,
        MethodKind::Cuts,
        MethodKind::CausalFormer,
    ];

    /// The Table 2 methods (those that output delays).
    pub const WITH_DELAYS: [MethodKind; 3] =
        [MethodKind::Cmlp, MethodKind::Tcdf, MethodKind::CausalFormer];

    /// Method name as printed in the tables.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Cmlp => "cMLP",
            MethodKind::Clstm => "cLSTM",
            MethodKind::Tcdf => "TCDF",
            MethodKind::Dvgnn => "DVGNN",
            MethodKind::Cuts => "CUTS",
            MethodKind::CausalFormer => "CausalFormer",
        }
    }
}

/// Adapter running the full CausalFormer pipeline behind the common
/// [`Discoverer`] interface.
pub struct CausalFormerMethod {
    /// The bundled pipeline configuration.
    pub pipeline: CausalFormer,
}

impl Discoverer for CausalFormerMethod {
    fn name(&self) -> &'static str {
        "CausalFormer"
    }

    fn outputs_delays(&self) -> bool {
        true
    }

    fn discover(&self, rng: &mut dyn RngCore, series: &Tensor) -> CausalGraph {
        self.pipeline.discover(rng, series).graph
    }
}

/// The CausalFormer preset for a dataset kind (paper §5.3), with quick-mode
/// budget cuts applied.
pub fn causalformer_for(kind: DatasetKind, n_series: usize, quick: bool) -> CausalFormer {
    let mut cf = match kind {
        DatasetKind::Diamond | DatasetKind::Mediator => presets::synthetic_dense(n_series),
        DatasetKind::VStructure | DatasetKind::Fork => presets::synthetic_sparse(n_series),
        DatasetKind::Lorenz96 => presets::lorenz96(n_series),
        DatasetKind::Fmri => presets::fmri(n_series),
    };
    if quick {
        cf.train.max_epochs = 40;
        cf.train.patience = 8;
        cf.model.d_model = 24;
        cf.model.d_qk = 24;
        cf.model.d_ffn = 24;
        cf.model.window = if kind == DatasetKind::Fmri { 12 } else { 8 };
        cf.train.stride = 2;
        cf.detector.sample_windows = 6;
    }
    cf
}

/// Cell label for a method at a compute precision: the plain method name
/// at f64, a `-f32` suffix for the CausalFormer f32 path. The baselines
/// only run f64.
pub fn method_label(method: MethodKind, dtype: Dtype) -> String {
    match (method, dtype) {
        (MethodKind::CausalFormer, Dtype::F32) => "CausalFormer-f32".to_string(),
        _ => method.name().to_string(),
    }
}

/// Builds a configured method instance for a dataset at the default f64
/// precision.
pub fn build_method(
    method: MethodKind,
    dataset: DatasetKind,
    n_series: usize,
    quick: bool,
) -> Box<dyn Discoverer> {
    build_method_dtyped(method, dataset, n_series, quick, Dtype::F64)
}

/// Builds a configured method instance for a dataset, with the requested
/// compute precision applied to CausalFormer (the baselines are f64-only,
/// so the dtype is ignored for them).
pub fn build_method_dtyped(
    method: MethodKind,
    dataset: DatasetKind,
    n_series: usize,
    quick: bool,
    dtype: Dtype,
) -> Box<dyn Discoverer> {
    let epochs_scale = if quick { 1usize } else { 2 };
    match method {
        MethodKind::Cmlp => Box::new(Cmlp::new(CmlpConfig {
            epochs: 60 * epochs_scale,
            ..CmlpConfig::default()
        })),
        MethodKind::Clstm => Box::new(Clstm::new(ClstmConfig {
            epochs: 10 * epochs_scale,
            ..ClstmConfig::default()
        })),
        MethodKind::Tcdf => Box::new(Tcdf::new(TcdfConfig {
            epochs: 60 * epochs_scale,
            window: if quick { 8 } else { 12 },
            ..TcdfConfig::default()
        })),
        MethodKind::Dvgnn => Box::new(Dvgnn::new(DvgnnConfig {
            epochs: 100 * epochs_scale,
            ..DvgnnConfig::default()
        })),
        MethodKind::Cuts => Box::new(Cuts::new(CutsConfig {
            epochs: 60 * epochs_scale,
            ..CutsConfig::default()
        })),
        MethodKind::CausalFormer => {
            let mut pipeline = causalformer_for(dataset, n_series, quick);
            pipeline.train.dtype = dtype;
            Box::new(CausalFormerMethod { pipeline })
        }
    }
}

/// Paper Table 1 reference F1 values (mean±std strings) for display next to
/// measured numbers.
pub fn paper_f1(method: MethodKind, dataset: DatasetKind) -> &'static str {
    use DatasetKind as D;
    use MethodKind as M;
    match (method, dataset) {
        (M::Cmlp, D::Diamond) => "0.55±0.19",
        (M::Cmlp, D::Mediator) => "0.71±0.14",
        (M::Cmlp, D::VStructure) => "0.73±0.15",
        (M::Cmlp, D::Fork) => "0.51±0.33",
        (M::Cmlp, D::Lorenz96) => "0.64±0.03",
        (M::Cmlp, D::Fmri) => "0.58±0.14",
        (M::Clstm, D::Diamond) => "0.63±0.13",
        (M::Clstm, D::Mediator) => "0.59±0.24",
        (M::Clstm, D::VStructure) => "0.60±0.20",
        (M::Clstm, D::Fork) => "0.47±0.32",
        (M::Clstm, D::Lorenz96) => "0.63±0.06",
        (M::Clstm, D::Fmri) => "0.56±0.13",
        (M::Tcdf, D::Diamond) => "0.68±0.09",
        (M::Tcdf, D::Mediator) => "0.69±0.06",
        (M::Tcdf, D::VStructure) => "0.76±0.09",
        (M::Tcdf, D::Fork) => "0.73±0.10",
        (M::Tcdf, D::Lorenz96) => "0.46±0.05",
        (M::Tcdf, D::Fmri) => "0.59±0.12",
        (M::Dvgnn, D::Diamond) => "0.65±0.04",
        (M::Dvgnn, D::Mediator) => "0.65±0.05",
        (M::Dvgnn, D::VStructure) => "0.73±0.06",
        (M::Dvgnn, D::Fork) => "0.75±0.00",
        (M::Dvgnn, D::Lorenz96) => "0.48±0.07",
        (M::Dvgnn, D::Fmri) => "0.56±0.12",
        (M::Cuts, D::Diamond) => "0.49±0.20",
        (M::Cuts, D::Mediator) => "0.52±0.23",
        (M::Cuts, D::VStructure) => "0.49±0.15",
        (M::Cuts, D::Fork) => "0.50±0.19",
        (M::Cuts, D::Lorenz96) => "0.58±0.02",
        (M::Cuts, D::Fmri) => "0.61±0.13",
        (M::CausalFormer, D::Diamond) => "0.68±0.08",
        (M::CausalFormer, D::Mediator) => "0.71±0.06",
        (M::CausalFormer, D::VStructure) => "0.77±0.05",
        (M::CausalFormer, D::Fork) => "0.79±0.11",
        (M::CausalFormer, D::Lorenz96) => "0.69±0.06",
        (M::CausalFormer, D::Fmri) => "0.66±0.09",
    }
}

/// Paper Table 2 reference PoD values.
pub fn paper_pod(method: MethodKind, dataset: DatasetKind) -> &'static str {
    use DatasetKind as D;
    use MethodKind as M;
    match (method, dataset) {
        (M::Cmlp, D::Diamond) => "0.82±0.17",
        (M::Cmlp, D::Mediator) => "0.91±0.12",
        (M::Cmlp, D::VStructure) => "0.91±0.16",
        (M::Cmlp, D::Fork) => "0.76±0.41",
        (M::Cmlp, D::Lorenz96) => "0.45±0.17",
        (M::Tcdf, D::Diamond) => "0.92±0.13",
        (M::Tcdf, D::Mediator) => "0.97±0.11",
        (M::Tcdf, D::VStructure) => "1.00±0.00",
        (M::Tcdf, D::Fork) => "1.00±0.00",
        (M::Tcdf, D::Lorenz96) => "0.77±0.08",
        (M::CausalFormer, D::Diamond) => "0.74±0.20",
        (M::CausalFormer, D::Mediator) => "0.63±0.40",
        (M::CausalFormer, D::VStructure) => "0.59±0.39",
        (M::CausalFormer, D::Fork) => "0.46±0.34",
        (M::CausalFormer, D::Lorenz96) => "0.42±0.18",
        _ => "—",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_cover_paper_tables() {
        assert_eq!(MethodKind::ALL.len(), 6);
        assert_eq!(DatasetKind::ALL.len(), 6);
        for m in MethodKind::ALL {
            for d in DatasetKind::ALL {
                // Every Table 1 cell has a reference value.
                assert!(!paper_f1(m, d).is_empty());
            }
        }
        for m in MethodKind::WITH_DELAYS {
            for d in DatasetKind::WITH_DELAYS {
                assert!(paper_pod(m, d).contains('±'));
            }
        }
    }

    #[test]
    fn dataset_generation_is_seed_deterministic() {
        let a = generate_datasets(DatasetKind::Fork, 3, true);
        let b = generate_datasets(DatasetKind::Fork, 3, true);
        assert_eq!(a[0].series, b[0].series);
        let c = generate_datasets(DatasetKind::Fork, 4, true);
        assert_ne!(a[0].series, c[0].series);
    }

    #[test]
    fn fmri_quick_suite_is_small() {
        let suite = generate_datasets(DatasetKind::Fmri, 0, true);
        assert_eq!(suite.len(), 3);
        assert!(suite.iter().all(|d| d.num_series() <= 15));
    }

    #[test]
    fn methods_build_for_every_dataset() {
        for m in MethodKind::ALL {
            for d in DatasetKind::ALL {
                let method = build_method(m, d, 5, true);
                assert_eq!(method.name(), m.name());
            }
        }
    }

    #[test]
    fn method_labels_distinguish_causalformer_dtypes() {
        assert_eq!(
            method_label(MethodKind::CausalFormer, Dtype::F64),
            "CausalFormer"
        );
        assert_eq!(
            method_label(MethodKind::CausalFormer, Dtype::F32),
            "CausalFormer-f32"
        );
        // Baselines run f64-only, so their labels never gain a suffix.
        assert_eq!(method_label(MethodKind::Cmlp, Dtype::F32), "cMLP");
    }

    #[test]
    fn delay_capability_matches_table2() {
        for m in MethodKind::ALL {
            let method = build_method(m, DatasetKind::Fork, 3, true);
            let expected = MethodKind::WITH_DELAYS.contains(&m);
            assert_eq!(method.outputs_delays(), expected, "{:?}", m);
        }
    }
}
