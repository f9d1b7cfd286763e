//! NetSim-style simulated fMRI BOLD data.
//!
//! The paper evaluates on the Smith et al. fMRI benchmark \[48\]: 28 brain
//! networks of 5/10/15/50 regions with series lengths between 50 and 5000.
//! That benchmark is itself *simulated* BOLD data; since the original files
//! cannot be redistributed, this module re-implements the generative
//! recipe:
//!
//! 1. draw a random, stable causal network over `N` regions,
//! 2. run linear latent dynamics `z_t = Aᵀ z_{t−1} + η` driven by the
//!    network,
//! 3. convolve each region's latent activity with a canonical double-gamma
//!    hemodynamic response function (HRF),
//! 4. add observation noise.
//!
//! The HRF smears temporal precedence — exactly the property that makes
//! fMRI causal discovery hard and why the paper reports no delay ground
//! truth for this dataset (Table 2 omits fMRI). Ground-truth edges
//! therefore carry `delay = None`.

use crate::Dataset;
use cf_metrics::CausalGraph;
use cf_tensor::Tensor;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Configuration for one simulated brain network.
#[derive(Debug, Clone, Copy)]
pub struct FmriConfig {
    /// Number of regions (paper: 5, 10, 15, or 50).
    pub n_nodes: usize,
    /// Number of BOLD samples (paper: 50 to 5000).
    pub length: usize,
    /// Probability of a directed edge between two distinct regions.
    pub density: f64,
    /// Observation noise standard deviation.
    pub obs_noise: f64,
}

impl Default for FmriConfig {
    fn default() -> Self {
        Self {
            n_nodes: 5,
            length: 200,
            density: 0.3,
            obs_noise: 0.2,
        }
    }
}

impl FmriConfig {
    /// A NetSim-like configuration: edge probability chosen so the expected
    /// non-self degree is ≈ 1.2 per region, matching the sparse ring/modular
    /// networks of the original benchmark.
    pub fn netsim_like(n_nodes: usize, length: usize) -> Self {
        Self {
            n_nodes,
            length,
            density: (1.2 / (n_nodes.max(2) - 1) as f64).min(0.5),
            obs_noise: 0.2,
        }
    }
}

/// Canonical double-gamma HRF sampled at the series rate.
///
/// `h(t) = t^{a₁−1} e^{−t/b₁} / (b₁^{a₁} Γ(a₁)) − c · t^{a₂−1} e^{−t/b₂} /
/// (b₂^{a₂} Γ(a₂))` with the standard parameters a₁=6, a₂=16, b=1, c=1/6,
/// truncated to `taps` samples and normalised to unit peak.
pub fn hrf(taps: usize) -> Vec<f64> {
    assert!(taps >= 2, "HRF needs at least 2 taps");
    fn gamma_pdf(t: f64, a: u32, b: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        // Γ(a) = (a−1)! for integer shape parameters.
        let gamma_a: f64 = (1..a).map(f64::from).product();
        t.powf(f64::from(a) - 1.0) * (-t / b).exp() / (b.powi(a as i32) * gamma_a)
    }
    // Sample at 1 time-unit resolution (one slot ≈ one TR).
    let mut h: Vec<f64> = (0..taps)
        .map(|k| {
            let t = k as f64;
            gamma_pdf(t, 6, 1.0) - gamma_pdf(t, 16, 1.0) / 6.0
        })
        .collect();
    let peak = h.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(peak > 0.0, "HRF peak must be positive");
    for v in &mut h {
        *v /= peak;
    }
    h
}

/// Draws a random causal network: directed edges between distinct regions
/// with probability `density` plus a guaranteed self-decay on every region.
/// Off-diagonal weights are scaled down until the dynamics matrix has
/// spectral radius < 0.95, so the latent process is stable.
fn random_network<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    density: f64,
) -> (Vec<Vec<f64>>, CausalGraph) {
    // a[from][to]
    let mut a = vec![vec![0.0f64; n]; n];
    let mut g = CausalGraph::new(n);
    for i in 0..n {
        a[i][i] = 0.6;
        g.add_edge(i, i, None);
    }
    let mut any = false;
    for from in 0..n {
        for to in 0..n {
            if from != to && rng.gen_bool(density) {
                let sign = if rng.gen_bool(0.8) { 1.0 } else { -1.0 };
                a[from][to] = sign * rng.gen_range(0.4..0.8);
                g.add_edge(from, to, None);
                any = true;
            }
        }
    }
    if !any {
        // Guarantee at least one non-self relation so F1 is informative.
        let from = rng.gen_range(0..n);
        let to = (from + 1 + rng.gen_range(0..n - 1)) % n;
        a[from][to] = rng.gen_range(0.4..0.8);
        g.add_edge(from, to, None);
    }

    // Stabilise: estimate the spectral radius by power iteration on |A| and
    // shrink off-diagonals until it is < 0.95.
    loop {
        let rho = spectral_radius(&a);
        if rho < 0.95 {
            break;
        }
        let shrink = 0.9 * 0.95 / rho;
        for (from, row) in a.iter_mut().enumerate() {
            for (to, v) in row.iter_mut().enumerate() {
                if from != to {
                    *v *= shrink;
                }
            }
        }
    }
    (a, g)
}

fn spectral_radius(a: &[Vec<f64>]) -> f64 {
    let n = a.len();
    let mut v = vec![1.0f64; n];
    let mut lambda = 0.0;
    for _ in 0..50 {
        let mut w = vec![0.0f64; n];
        for (i, row) in a.iter().enumerate() {
            for (j, &aij) in row.iter().enumerate() {
                w[j] += aij.abs() * v[i];
            }
        }
        lambda = w.iter().copied().fold(0.0f64, |acc, x| acc.max(x.abs()));
        if lambda == 0.0 {
            return 0.0;
        }
        for x in &mut w {
            *x /= lambda;
        }
        v = w;
    }
    lambda
}

/// Generates one simulated fMRI network dataset.
pub fn generate<R: Rng + ?Sized>(rng: &mut R, config: FmriConfig) -> Dataset {
    assert!(config.n_nodes >= 2, "need at least two regions");
    assert!(config.length >= 30, "BOLD series too short");
    let n = config.n_nodes;
    let (a, truth) = random_network(rng, n, config.density);
    let drive = Normal::new(0.0, 0.5).expect("valid normal");
    let obs = Normal::new(0.0, config.obs_noise).expect("valid normal");

    let hrf_taps = hrf(16);
    let burn = 50;
    let total = burn + config.length + hrf_taps.len();

    // Latent neural activity z[t][i].
    let mut z = vec![vec![0.0f64; n]; total];
    for t in 1..total {
        for i in 0..n {
            let mut v = drive.sample(rng);
            for (from, row) in a.iter().enumerate() {
                if row[i] != 0.0 {
                    v += row[i] * z[t - 1][from];
                }
            }
            z[t][i] = v;
        }
    }

    // BOLD: causal convolution of z with the HRF, plus observation noise.
    let mut data = vec![0.0f64; n * config.length];
    for i in 0..n {
        for t in 0..config.length {
            let t_abs = burn + t + hrf_taps.len() - 1;
            let mut bold = 0.0;
            for (k, &hk) in hrf_taps.iter().enumerate() {
                bold += hk * z[t_abs - k][i];
            }
            data[i * config.length + t] = bold + obs.sample(rng);
        }
    }

    Dataset {
        name: format!("fmri-{n}"),
        series: Tensor::from_vec(vec![n, config.length], data).expect("consistent by construction"),
        truth,
    }
}

/// The full 28-network suite mirroring the paper's benchmark mix: mostly
/// small networks (5/10/15 regions) of varying lengths, plus one large
/// 50-region network. Deterministic given `rng`.
pub fn suite<R: Rng + ?Sized>(rng: &mut R) -> Vec<Dataset> {
    let mut out = Vec::with_capacity(28);
    let mut push = |rng: &mut R, idx: usize, n_nodes: usize, length: usize| {
        let mut d = generate(rng, FmriConfig::netsim_like(n_nodes, length));
        d.name = format!("fmri-{n_nodes}-{idx:02}");
        out.push(d);
    };
    for idx in 0..10 {
        push(rng, idx, 5, 120 + 40 * (idx % 4));
    }
    for idx in 0..9 {
        push(rng, idx, 10, 150 + 50 * (idx % 3));
    }
    for idx in 0..8 {
        push(rng, idx, 15, 200 + 50 * (idx % 2));
    }
    push(rng, 0, 50, 300);
    out
}

/// A reduced suite for quick runs: a handful of 5/10/15-region networks.
pub fn quick_suite<R: Rng + ?Sized>(rng: &mut R, per_size: usize) -> Vec<Dataset> {
    let mut out = Vec::new();
    for (size, len) in [(5usize, 150usize), (10, 180), (15, 220)] {
        for idx in 0..per_size {
            let mut d = generate(rng, FmriConfig::netsim_like(size, len));
            d.name = format!("fmri-{size}-{idx:02}");
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hrf_is_biphasic_and_peak_normalised() {
        let h = hrf(20);
        assert_eq!(h.len(), 20);
        let peak = h.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((peak - 1.0).abs() < 1e-12);
        // Early positive lobe peaking near t≈5, undershoot near t≈15.
        assert!(h[5] > 0.5, "peak around t≈5, got {}", h[5]);
        assert!(h[15] < 0.0, "undershoot expected near t≈15, got {}", h[15]);
        assert_eq!(h[0], 0.0);
    }

    #[test]
    fn generated_network_is_stable_and_finite() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = generate(
            &mut rng,
            FmriConfig {
                n_nodes: 10,
                length: 300,
                ..Default::default()
            },
        );
        assert_eq!(d.series.shape(), &[10, 300]);
        assert!(d.series.all_finite());
        assert!(d.series.abs().max() < 100.0, "dynamics exploded");
    }

    #[test]
    fn truth_has_self_loops_and_at_least_one_relation() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = generate(&mut rng, FmriConfig::default());
        for i in 0..d.num_series() {
            assert!(d.truth.has_edge(i, i));
        }
        assert!(d.truth.non_self_edges().count() >= 1);
        // fMRI ground truth carries no delays (paper Table 2 omits it).
        for e in d.truth.edges() {
            assert_eq!(e.delay, None);
        }
    }

    #[test]
    fn suite_matches_paper_inventory() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = suite(&mut rng);
        assert_eq!(s.len(), 28);
        let count = |n: usize| s.iter().filter(|d| d.num_series() == n).count();
        assert_eq!(count(5), 10);
        assert_eq!(count(10), 9);
        assert_eq!(count(15), 8);
        assert_eq!(count(50), 1);
        // Unique names.
        let mut names: Vec<&str> = s.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28);
    }

    #[test]
    fn quick_suite_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = quick_suite(&mut rng, 2);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&mut StdRng::seed_from_u64(4), FmriConfig::default());
        let b = generate(&mut StdRng::seed_from_u64(4), FmriConfig::default());
        assert_eq!(a.series, b.series);
        assert_eq!(a.truth, b.truth);
    }
}
