//! A process that discovers again and again keeps a bounded resident set.
//!
//! The buffer pool parks what tensors drop, per size class, up to a byte
//! ceiling: 8 MiB in each thread's list (buffers dropped at home) and
//! 32 MiB in the global list (buffers dropped away from home), per element
//! type. A process that drops many same-sized buffers between discoveries
//! — the repository benchmark's ingest burst parses its CSV 64 times per
//! repetition — must not park them all.
//!
//! One test function in its own binary: the pool switch, the free lists and
//! the resident set are process-wide.

use causalformer::presets;
use cf_data::synthetic::{self, Structure};
use cf_obs::heartbeat::proc_rss_bytes;
use cf_tensor::{pool, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DISCOVERIES: usize = 25;
/// Series adopted and dropped after each discovery.
const BURST: usize = 64;
/// A parsed 20×1000 series: `read_series_csv` adopts a `Vec` of exactly
/// `N × L` f64, 160,000 bytes, which falls in the 2^14-element class.
const N: usize = 20;
const L: usize = 1000;

/// Bound on the resident-set growth from discovery 2 to discovery 25.
///
/// A burst's buffers are dropped on the thread that adopted them, so they
/// go to this thread's list, which keeps 8 MiB / 128 KiB = 64 of them
/// (64 × 160,000 B ≈ 10 MiB) and frees the rest; the next burst reuses
/// the freed memory. Two bursts fill that list, so from discovery 2 on the
/// class can grow only on the global list, whose 32 MiB ceiling counts
/// class sizes: an adopted buffer is smaller than twice its class, so
/// under 64 MiB of real bytes. Without a ceiling every burst stays parked:
/// 23 × 64 × 160,000 B ≈ 224 MiB.
const GROWTH_BOUND: u64 = 64 << 20;

fn small_discovery(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = synthetic::generate(&mut rng, Structure::Fork, 120);
    let mut cf = presets::synthetic_sparse(3);
    cf.model.d_model = 8;
    cf.model.d_qk = 8;
    cf.model.d_ffn = 8;
    cf.model.window = 8;
    cf.train.max_epochs = 2;
    cf.train.stride = 2;
    let result = cf.discover(&mut rng, &data.series);
    assert!(result
        .train_report
        .train_losses
        .iter()
        .all(|l| l.is_finite()));
}

/// Adopts and drops `BURST` series, one at a time, like the benchmark's
/// repeated CSV parse (every element written, so every page is resident).
fn ingest_burst() {
    for k in 0..BURST {
        let data: Vec<f64> = (0..N * L).map(|i| (i + k) as f64).collect();
        drop(Tensor::from_vec(vec![N, L], data).unwrap());
    }
}

#[test]
fn repeated_discoveries_keep_the_resident_set_bounded() {
    cf_par::set_threads(1);
    pool::set_enabled(true);
    if proc_rss_bytes().0 == 0 {
        eprintln!("no resident-set reading on this platform; skipping");
        return;
    }
    let mut rss = Vec::with_capacity(DISCOVERIES);
    for k in 0..DISCOVERIES {
        small_discovery(k as u64);
        ingest_burst();
        rss.push(proc_rss_bytes().0);
    }
    let growth = rss[DISCOVERIES - 1].saturating_sub(rss[1]);
    assert!(
        growth <= GROWTH_BOUND,
        "resident set grew by {:.1} MiB from discovery 2 to {DISCOVERIES} \
         (bound {} MiB); after each: {:?} MiB",
        growth as f64 / (1 << 20) as f64,
        GROWTH_BOUND >> 20,
        rss.iter().map(|b| b >> 20).collect::<Vec<_>>(),
    );
}
