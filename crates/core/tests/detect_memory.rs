//! Detection runs in memory bounded by one block of windows, not by the
//! number of windows it samples.
//!
//! `aggregate_scores` scores `SCORE_BLOCK_PER_THREAD × threads` windows at a
//! time and folds each block into the running sum before scoring the next,
//! so the per-window scores of a finished block go back to the buffer pool
//! and the next block reuses them. On a warm pool, scoring four blocks must
//! then take no more fresh buffers than scoring one. A detector that holds
//! every window's scores until the end takes fresh kernel-score buffers for
//! each window past the first block.
//!
//! One test function in its own binary: the thread count, the pool switch
//! and the pool counters are process-global.

use causalformer::detector::{aggregate_scores, SCORE_BLOCK_PER_THREAD};
use causalformer::{CausalityAwareTransformer, DetectorConfig, ModelConfig};
use cf_nn::ParamStore;
use cf_tensor::{pool, uniform, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn scoring_four_blocks_takes_no_more_fresh_buffers_than_one() {
    cf_par::set_threads(1);
    pool::set_enabled(true);
    let block = SCORE_BLOCK_PER_THREAD * cf_par::threads();

    let (n, t) = (6, 6);
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let cfg = ModelConfig {
        d_model: 8,
        d_qk: 8,
        d_ffn: 8,
        ..ModelConfig::compact(n, t)
    };
    let model = CausalityAwareTransformer::new(&mut store, &mut rng, cfg);
    let windows: Vec<Tensor> = (0..4 * block)
        .map(|_| uniform(&mut rng, &[n, t], -1.0, 1.0))
        .collect();

    // Fresh buffers taken by one detection pass over the first `k` windows.
    let fresh = |k: usize| {
        let before = pool::stats().alloc;
        let detector = DetectorConfig {
            sample_windows: k,
            ..Default::default()
        };
        let scores = aggregate_scores(&model, &store, &windows[..k], &detector);
        assert!(scores.attn.iter().flatten().all(|v| v.is_finite()));
        drop(scores);
        pool::stats().alloc - before
    };
    // Warm the pool, the per-thread tape and the gradient scratch.
    fresh(block);
    let one = fresh(block);
    let four = fresh(4 * block);
    assert_eq!(
        four, one,
        "scoring 4 blocks took {four} fresh buffers, 1 block {one}: per-window \
         scores outlive their block"
    );
}
