//! The f32 path's bits, pinned.
//!
//! f64 is pinned by `dtype_equivalence`'s goldens; this file pins f32 the
//! same way, so a kernel change that reorders an f32 sum shows here
//! instead of hiding inside the F1 tolerance. Two Lorenz-96 shapes at the
//! preset's window (`T = 16`): `N = 40`, whose rows fill whole 8-lane
//! tiles, and `N = 20`, which leaves a 4-row remainder. Each runs a short
//! f32 discovery and pins the per-epoch train and validation losses and
//! an FNV-1a hash over the bits of the averaged causal scores (attention
//! scores, then kernel scores, row-major), at 1 and 4 threads. The values
//! were captured while the f32 `matmul_nt`, convolution and attention
//! gradient still ran their portable loops on every CPU; their AVX2 forms
//! must reproduce them.
//!
//! One test function because `cf_par::set_threads` is process-global.

use causalformer::presets;
use causalformer::DiscoveryResult;
use cf_data::lorenz96::{self, Lorenz96Config};
use cf_tensor::Dtype;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Golden {
    n: usize,
    train: [u64; 2],
    val: [u64; 2],
    scores: u64,
}

const GOLDENS: [Golden; 2] = [
    Golden {
        n: 40,
        train: [0x401851652ED55555, 0x4016B15F912AAAAB],
        val: [0x3FED835A7A2E8BA3, 0x3FED744B1745D174],
        scores: 0x1588E26A8C47F2F8,
    },
    Golden {
        n: 20,
        train: [0x400285037DAAAAAB, 0x4001989F11555555],
        val: [0x3FEE8E021745D174, 0x3FEE9BA3945D1746],
        scores: 0xCF387301138CEC4C,
    },
];

fn f32_discover(n: usize) -> DiscoveryResult {
    let mut rng = StdRng::seed_from_u64(31);
    let data = lorenz96::generate(
        &mut rng,
        Lorenz96Config {
            n,
            length: 120,
            ..Lorenz96Config::default()
        },
    );
    let mut cf = presets::lorenz96(n);
    cf.train.max_epochs = 2;
    cf.train.patience = 3;
    cf.train.stride = 2;
    cf.train.dtype = Dtype::F32;
    cf.detector.sample_windows = usize::MAX;
    cf.discover(&mut rng, &data.series)
}

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn score_hash(r: &DiscoveryResult) -> u64 {
    let attn = r.scores.attn.iter().flatten().copied();
    let kernel = r.scores.kernel.iter().flat_map(|k| k.data().to_vec());
    fnv1a(attn.chain(kernel).map(f64::to_bits))
}

fn hex(v: &[f64]) -> Vec<String> {
    v.iter()
        .map(|x| format!("0x{:016X}", x.to_bits()))
        .collect()
}

#[test]
fn f32_discovery_matches_its_pinned_bits() {
    for threads in [1usize, 4] {
        cf_par::set_threads(threads);
        for g in &GOLDENS {
            let r = f32_discover(g.n);
            let report = &r.train_report;
            let got_train: Vec<u64> = report.train_losses.iter().map(|v| v.to_bits()).collect();
            let got_val: Vec<u64> = report.val_losses.iter().map(|v| v.to_bits()).collect();
            let got_scores = score_hash(&r);
            assert!(
                got_train == g.train && got_val == g.val && got_scores == g.scores,
                "f32 N = {} drifted at {threads} thread(s): train {:?}, val {:?}, \
                 scores 0x{got_scores:016X}",
                g.n,
                hex(&report.train_losses),
                hex(&report.val_losses),
            );
        }
    }
}
