//! Lorenz-96 climate dynamics (paper Eq. 21), integrated with RK4.
//!
//! ```text
//! dx_i/dt = (x_{i+1} − x_{i−2}) · x_{i−1} − x_i + F
//! ```
//!
//! with cyclic indices. Each variable is therefore caused by itself and by
//! its neighbours `i−2`, `i−1`, `i+1` — a dense, strongly non-linear causal
//! graph. The paper simulates `N = 10` variables with forcing
//! `F ∈ [30, 40]` over 1000 units.

use crate::Dataset;
use cf_metrics::CausalGraph;
use cf_tensor::Tensor;
use rand::Rng;

/// Configuration for the Lorenz-96 generator.
#[derive(Debug, Clone, Copy)]
pub struct Lorenz96Config {
    /// Number of variables (paper: 10). Must be ≥ 4 for the cyclic stencil.
    pub n: usize,
    /// Number of recorded samples (paper: 1000).
    pub length: usize,
    /// Forcing constant; the paper draws it from `[30, 40]`.
    pub forcing: f64,
    /// RK4 integration step.
    pub dt: f64,
    /// Integration sub-steps per recorded sample.
    pub substeps: usize,
}

impl Default for Lorenz96Config {
    fn default() -> Self {
        Self {
            n: 10,
            length: 1000,
            forcing: 35.0,
            dt: 0.01,
            substeps: 5,
        }
    }
}

/// The Lorenz-96 right-hand side for every variable (`n ≥ 4`).
///
/// The cyclic neighbours only wrap at `i = 0`, `1` and `n − 1`, so those
/// three are written out and the interior runs without index arithmetic;
/// each element keeps the expression `(x[i+1] − x[i−2])·x[i−1] − x[i] + F`
/// of the modulo form, so trajectories are bitwise unchanged.
fn derivative(x: &[f64], forcing: f64, out: &mut [f64]) {
    let n = x.len();
    out[0] = (x[1] - x[n - 2]) * x[n - 1] - x[0] + forcing;
    out[1] = (x[2] - x[n - 1]) * x[0] - x[1] + forcing;
    for i in 2..n - 1 {
        out[i] = (x[i + 1] - x[i - 2]) * x[i - 1] - x[i] + forcing;
    }
    out[n - 1] = (x[0] - x[n - 3]) * x[n - 2] - x[n - 1] + forcing;
}

/// Reusable RK4 integrator: state and scratch buffers are allocated once,
/// so advancing is allocation-free — streaming a 10M-sample trajectory into
/// a chunked store touches the heap only for the store's own buffers.
///
/// Construction seeds the initial state and runs the 500-substep burn-in,
/// exactly as [`generate`] always did (which is now a thin collector over
/// this stepper — trajectories stay bitwise identical per seed).
#[derive(Debug, Clone)]
pub struct Stepper {
    forcing: f64,
    dt: f64,
    x: Vec<f64>,
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Stepper {
    /// Seeds `x_i = F + U[−0.5, 0.5)` and burns in 500 substeps.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: &Lorenz96Config) -> Self {
        assert!(
            config.n >= 4,
            "Lorenz-96 stencil needs at least 4 variables"
        );
        assert!(config.substeps > 0 && config.dt > 0.0);
        let n = config.n;
        let x: Vec<f64> = (0..n)
            .map(|_| config.forcing + rng.gen_range(-0.5..0.5))
            .collect();
        let mut stepper = Self {
            forcing: config.forcing,
            dt: config.dt,
            x,
            k1: vec![0.0; n],
            k2: vec![0.0; n],
            k3: vec![0.0; n],
            k4: vec![0.0; n],
            tmp: vec![0.0; n],
        };
        for _ in 0..500 {
            stepper.substep();
        }
        stepper
    }

    /// The current state vector (one sample of all `n` variables).
    pub fn state(&self) -> &[f64] {
        &self.x
    }

    /// Advances one recorded sample (`substeps` RK4 integration steps).
    pub fn advance(&mut self, substeps: usize) {
        for _ in 0..substeps {
            self.substep();
        }
    }

    /// One RK4 step of size `dt`.
    fn substep(&mut self) {
        let (dt, forcing) = (self.dt, self.forcing);
        derivative(&self.x, forcing, &mut self.k1);
        for i in 0..self.x.len() {
            self.tmp[i] = self.x[i] + 0.5 * dt * self.k1[i];
        }
        derivative(&self.tmp, forcing, &mut self.k2);
        for i in 0..self.x.len() {
            self.tmp[i] = self.x[i] + 0.5 * dt * self.k2[i];
        }
        derivative(&self.tmp, forcing, &mut self.k3);
        for i in 0..self.x.len() {
            self.tmp[i] = self.x[i] + dt * self.k3[i];
        }
        derivative(&self.tmp, forcing, &mut self.k4);
        for i in 0..self.x.len() {
            self.x[i] += dt / 6.0 * (self.k1[i] + 2.0 * self.k2[i] + 2.0 * self.k3[i] + self.k4[i]);
        }
    }
}

/// The ground-truth causal graph of an `n`-variable Lorenz-96 system:
/// each `i` is caused by `i−2`, `i−1`, `i+1` (cyclic) and itself, at one
/// sampled slot of delay.
pub fn truth(n: usize) -> CausalGraph {
    let mut g = CausalGraph::new(n);
    for i in 0..n {
        g.add_edge(i, i, Some(1));
        g.add_edge((i + 1) % n, i, Some(1));
        g.add_edge((i + n - 1) % n, i, Some(1));
        g.add_edge((i + n - 2) % n, i, Some(1));
    }
    g
}

/// Integrates a Lorenz-96 trajectory. The forcing in `config` is used
/// verbatim; see [`generate_random_forcing`] for the paper's `F ∈ [30,40]`
/// sampling. Initial state is the fixed point `x_i = F` perturbed with
/// small seeded noise; a 500-substep burn-in is discarded.
pub fn generate<R: Rng + ?Sized>(rng: &mut R, config: Lorenz96Config) -> Dataset {
    let n = config.n;
    let mut data = vec![0.0f64; n * config.length];
    let mut t = 0;
    stream::<_, std::convert::Infallible, _>(rng, config, |x| {
        for (i, &v) in x.iter().enumerate() {
            data[i * config.length + t] = v;
        }
        t += 1;
        Ok(())
    })
    .expect("infallible sink");

    Dataset {
        name: format!("lorenz96-F{:.0}", config.forcing),
        series: Tensor::from_vec(vec![n, config.length], data).expect("consistent by construction"),
        truth: truth(n),
    }
}

/// Streaming generation: integrates the trajectory and hands each recorded
/// sample (a slice of `n` values) to `emit` without materialising the
/// `n × length` matrix — the out-of-core path writes these straight into a
/// chunked `cf-store` series store. `emit`'s error type propagates; the
/// samples are bitwise those of [`generate`] on the same seed and config.
pub fn stream<R, E, F>(rng: &mut R, config: Lorenz96Config, mut emit: F) -> Result<(), E>
where
    R: Rng + ?Sized,
    F: FnMut(&[f64]) -> Result<(), E>,
{
    assert!(config.length > 0, "length must be positive");
    let mut stepper = Stepper::new(rng, &config);
    for _ in 0..config.length {
        stepper.advance(config.substeps);
        emit(stepper.state())?;
    }
    Ok(())
}

/// Draws `F ~ U[30, 40]` (paper §5.1) and generates a trajectory.
pub fn generate_random_forcing<R: Rng + ?Sized>(rng: &mut R, n: usize, length: usize) -> Dataset {
    let forcing = rng.gen_range(30.0..=40.0);
    generate(
        rng,
        Lorenz96Config {
            n,
            length,
            forcing,
            ..Lorenz96Config::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn truth_graph_degrees() {
        let g = truth(10);
        // 4 causes per variable.
        assert_eq!(g.num_edges(), 40);
        for i in 0..10 {
            assert_eq!(g.parents(i).len(), 4);
            assert!(g.has_edge(i, i));
            assert!(g.has_edge((i + 1) % 10, i));
        }
    }

    #[test]
    fn trajectory_is_finite_and_bounded() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = generate(
            &mut rng,
            Lorenz96Config {
                length: 500,
                ..Default::default()
            },
        );
        assert_eq!(d.series.shape(), &[10, 500]);
        assert!(d.series.all_finite());
        // Lorenz-96 trajectories stay within a few multiples of F.
        assert!(d.series.max() < 4.0 * 35.0);
        assert!(d.series.min() > -4.0 * 35.0);
    }

    #[test]
    fn trajectory_is_chaotic_not_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = generate(
            &mut rng,
            Lorenz96Config {
                length: 300,
                ..Default::default()
            },
        );
        let row = d.series.row(0);
        let mean = row.iter().sum::<f64>() / row.len() as f64;
        let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / row.len() as f64;
        assert!(var > 1.0, "variance {var} too small — dynamics collapsed");
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_forcing() {
        let a = generate(&mut StdRng::seed_from_u64(5), Lorenz96Config::default());
        let b = generate(&mut StdRng::seed_from_u64(5), Lorenz96Config::default());
        assert_eq!(a.series, b.series);
        let c = generate(
            &mut StdRng::seed_from_u64(5),
            Lorenz96Config {
                forcing: 40.0,
                ..Default::default()
            },
        );
        assert_ne!(a.series, c.series);
    }

    #[test]
    fn streaming_matches_generate_bitwise() {
        let config = Lorenz96Config {
            length: 200,
            ..Default::default()
        };
        let d = generate(&mut StdRng::seed_from_u64(42), config);
        let mut streamed: Vec<Vec<f64>> = Vec::new();
        stream::<_, std::convert::Infallible, _>(&mut StdRng::seed_from_u64(42), config, |x| {
            streamed.push(x.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(streamed.len(), 200);
        let data = d.series.data();
        for (t, sample) in streamed.iter().enumerate() {
            for (i, &v) in sample.iter().enumerate() {
                assert_eq!(v.to_bits(), data[i * 200 + t].to_bits(), "({i}, {t})");
            }
        }
    }

    #[test]
    fn peeled_stencil_matches_modulo_form() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in 4..=40 {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let mut got = vec![0.0; n];
            derivative(&x, 35.0, &mut got);
            for i in 0..n {
                let (ip1, im1, im2) = ((i + 1) % n, (i + n - 1) % n, (i + n - 2) % n);
                let want = (x[ip1] - x[im2]) * x[im1] - x[i] + 35.0;
                assert_eq!(got[i].to_bits(), want.to_bits(), "n = {n}, i = {i}");
            }
        }
    }

    /// FNV-1a over the bit patterns of a trajectory, sample-major.
    fn trajectory_hash(d: &Dataset) -> u64 {
        d.series.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn trajectories_match_golden_hashes() {
        // Captured from the modulo-indexed stencil before its edges were
        // peeled; any change to the integrator's arithmetic moves these.
        for (n, length, seed, want) in [
            (4, 300, 3, 0x5a97_08b6_c1f4_c72f_u64),
            (5, 300, 4, 0xb0d5_beea_dba3_3447),
            (10, 1000, 5, 0x39b0_ecaa_982a_c166),
            (16, 2000, 7, 0xaef6_76c8_9a6c_7aed),
            (40, 500, 1, 0x4e13_6fc4_51ff_b327),
        ] {
            let config = Lorenz96Config {
                n,
                length,
                ..Default::default()
            };
            let got = trajectory_hash(&generate(&mut StdRng::seed_from_u64(seed), config));
            assert_eq!(got, want, "n = {n}: {got:#018x}");
        }
    }

    #[test]
    fn random_forcing_is_in_paper_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = generate_random_forcing(&mut rng, 10, 50);
        let f: f64 = d.name.trim_start_matches("lorenz96-F").parse().unwrap();
        assert!((30.0..=40.0).contains(&f));
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn rejects_tiny_systems() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = generate(
            &mut rng,
            Lorenz96Config {
                n: 3,
                ..Default::default()
            },
        );
    }
}
