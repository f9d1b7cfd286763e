//! Deterministic fixed-memory span-duration histograms.
//!
//! Every closed span path keeps a histogram (in its
//! [`crate::span::Stats`]) with **fixed, deterministic bucket
//! boundaries**: bucket `k` (k ≥ 1) covers durations `d` with
//! `2^(k-1) µs < d ≤ 2^k µs`; bucket 0 covers `d ≤ 1 µs`, and one overflow bucket catches everything above
//! `2^26 µs` (~67 s). The edge schema is a compile-time constant
//! ([`bucket_edges_us`], [`SCHEMA`]) shared by every run at every
//! thread count, so *bucket counts* — unlike raw wall times — are
//! directly comparable across runs and machines, and identical inputs
//! produce bitwise-identical counts no matter how many threads recorded
//! them.
//!
//! Percentiles (p50/p95/p99) come from linear interpolation inside the
//! winning bucket; memory per path is one fixed `[u64; BUCKETS]` row.

/// Number of finite bucket upper edges (`2^0 … 2^26` µs).
pub const EDGES: usize = 27;

/// Total buckets: the finite edges plus one overflow slot.
pub const BUCKETS: usize = EDGES + 1;

/// Identifies the bucket scheme in serialized output; bump on any
/// change to the edges. Consumers must not mix counts across schemas.
pub const SCHEMA: &str = "log2us-v1";

/// The finite bucket upper edges in microseconds: `2^k` for
/// `k = 0..27`. Fixed for all time under [`SCHEMA`] `log2us-v1`.
pub fn bucket_edges_us() -> [f64; EDGES] {
    std::array::from_fn(|k| (1u64 << k) as f64)
}

/// Index of the bucket holding a duration of `us` microseconds.
#[inline]
pub fn bucket_index(us: f64) -> usize {
    if us.is_nan() || us <= 1.0 {
        // ≤ 1µs, zero, negative, and NaN all land in bucket 0.
        return 0;
    }
    // Smallest k with us ≤ 2^k; overflow past the last finite edge.
    let k = us.log2().ceil() as usize;
    k.min(EDGES)
}

/// Approximate `q`-quantile (µs) of bucket `counts` by linear
/// interpolation inside the winning bucket; overflow observations
/// report the last finite edge. 0 when empty.
pub fn quantile_us(counts: &[u64; BUCKETS], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let edges = bucket_edges_us();
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if cumulative + c >= target {
            let lo = if i == 0 { 0.0 } else { edges[i - 1] };
            let hi = edges.get(i).copied().unwrap_or(edges[EDGES - 1]);
            if c == 0 {
                return hi;
            }
            let frac = (target - cumulative) as f64 / c as f64;
            return lo + (hi - lo) * frac;
        }
        cumulative += c;
    }
    edges[EDGES - 1]
}

/// The `span_hist` payload, one entry per span path of
/// [`crate::span::summary`]:
/// `[{span, schema, count, p50_us, p95_us, p99_us, buckets: [[idx, count], …]}, …]`
/// with buckets sparse (zero buckets omitted) and indexed into
/// [`bucket_edges_us`].
pub fn snapshot_json() -> String {
    let mut arr = crate::json::Arr::new();
    for (path, s) in crate::span::summary() {
        let mut buckets = crate::json::Arr::new();
        for (i, &c) in s.buckets.iter().enumerate() {
            if c > 0 {
                buckets = buckets.raw(&crate::json::Arr::new().u64(i as u64).u64(c).finish());
            }
        }
        arr = arr.raw(
            &crate::json::Obj::new()
                .str("span", &path)
                .str("schema", SCHEMA)
                .u64("count", s.count)
                .f64("p50_us", s.quantile_us(0.50))
                .f64("p95_us", s.quantile_us(0.95))
                .f64("p99_us", s.quantile_us(0.99))
                .raw("buckets", &buckets.finish())
                .finish(),
        );
    }
    arr.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_bucket_schema_is_pinned() {
        // The log2us-v1 contract: edges are exactly 2^k µs, k = 0..27.
        // Changing this array is a schema break — bump SCHEMA.
        let edges = bucket_edges_us();
        assert_eq!(EDGES, 27);
        assert_eq!(BUCKETS, 28);
        assert_eq!(SCHEMA, "log2us-v1");
        assert_eq!(edges[0], 1.0);
        assert_eq!(edges[1], 2.0);
        assert_eq!(edges[10], 1024.0);
        assert_eq!(edges[20], 1_048_576.0); // ~1.05 s
        assert_eq!(edges[26], 67_108_864.0); // ~67 s
        for (i, &e) in edges.iter().enumerate() {
            assert_eq!(e, (1u64 << i) as f64);
        }
    }

    #[test]
    fn t_bucket_index_boundaries() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1.0), 0); // d ≤ 1µs
        assert_eq!(bucket_index(1.5), 1); // 1 < d ≤ 2
        assert_eq!(bucket_index(2.0), 1);
        assert_eq!(bucket_index(2.0001), 2);
        assert_eq!(bucket_index(1024.0), 10);
        assert_eq!(bucket_index(1e12), EDGES); // overflow bucket
    }

    #[test]
    fn t_quantiles_interpolate() {
        let record = |counts: &mut [u64; BUCKETS], us: f64| counts[bucket_index(us)] += 1;
        let mut h = [0u64; BUCKETS];
        // 100 observations in (2,4] (bucket 2) and 100 in (1024,2048]
        // (bucket 11): p50 inside bucket 2, p95/p99 inside bucket 11.
        for _ in 0..100 {
            record(&mut h, 3.0);
        }
        for _ in 0..100 {
            record(&mut h, 1500.0);
        }
        assert_eq!(h.iter().sum::<u64>(), 200);
        let p50 = quantile_us(&h, 0.50);
        assert!((2.0..=4.0).contains(&p50), "p50 = {p50}");
        let p95 = quantile_us(&h, 0.95);
        assert!((1024.0..=2048.0).contains(&p95), "p95 = {p95}");
        let p99 = quantile_us(&h, 0.99);
        assert!(p99 >= p95);
        // Overflow reports the last finite edge.
        let mut o = [0u64; BUCKETS];
        record(&mut o, 1e12);
        assert_eq!(quantile_us(&o, 0.5), bucket_edges_us()[EDGES - 1]);
        // Empty → 0.
        assert_eq!(quantile_us(&[0; BUCKETS], 0.9), 0.0);
    }

    #[test]
    fn t_counts_identical_no_matter_which_threads_record() {
        // The same multiset of durations must yield bitwise-identical
        // bucket counts whether folded on 1 thread or many and merged —
        // the determinism contract behind cross-run comparability.
        use crate::span::Stats;
        let durations_ns: Vec<u64> = (0..1200).map(|i| (i % 40) * 37_500 + 500).collect();
        let mut serial = Stats::default();
        for &d in &durations_ns {
            serial.fold(d, 0);
        }
        for threads in [1usize, 2, 4] {
            let chunk = durations_ns.len() / threads;
            let parts: Vec<Stats> = std::thread::scope(|scope| {
                let handles: Vec<_> = durations_ns
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            let mut own = Stats::default();
                            for &d in part {
                                own.fold(d, 0);
                            }
                            own
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut merged = Stats::default();
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(
                serial.buckets, merged.buckets,
                "bucket counts diverged at {threads} recording threads"
            );
            assert_eq!(serial, merged);
        }
    }

    #[test]
    fn t_registry_and_json_snapshot() {
        // Spans on two threads under one path merge into one span_hist
        // entry.
        let recorder = crate::Recorder::new();
        let _run = recorder.enter();
        {
            let _g = crate::span!("t_hist.registry_path");
        }
        std::thread::spawn(move || {
            let _run = recorder.enter();
            let _g = crate::span!("t_hist.registry_path");
            std::thread::sleep(std::time::Duration::from_millis(2));
        })
        .join()
        .unwrap();
        let stats = crate::span::tests::get("t_hist.registry_path").expect("path recorded");
        assert_eq!(stats.buckets.iter().sum::<u64>(), 2);
        assert!(
            stats.buckets[..11].iter().sum::<u64>() <= 1,
            "2 ms lands ≥ bucket 11"
        );
        let json = snapshot_json();
        assert!(
            json.contains(
                r#"{"span":"t_hist.registry_path","schema":"log2us-v1","count":2,"p50_us":"#
            ),
            "{json}"
        );
        assert!(
            json.contains(r#""buckets":[["#),
            "sparse bucket pairs: {json}"
        );
    }
}
