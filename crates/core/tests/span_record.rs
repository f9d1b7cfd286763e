//! The span record behind every cf-obs view folds a span's aggregates
//! when it closes, outside the bounded trace ring. So a traced discovery
//! whose rings overflow loses timeline detail but never counts: its span
//! summary still counts every span it opened, and its op profile matches
//! the untraced run's.

use causalformer::presets;
use cf_data::synthetic::{self, Structure};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn discover() {
    let mut rng = StdRng::seed_from_u64(11);
    let data = synthetic::generate(&mut rng, Structure::Fork, 200);
    let mut cf = presets::synthetic_sparse(3);
    cf.model.window = 8;
    cf.train.max_epochs = 3;
    cf.discover(&mut rng, &data.series);
}

type SpanCounts = BTreeMap<String, u64>;
type OpCounts = BTreeMap<&'static str, (u64, u64)>;

/// Span paths with their counts.
fn span_counts() -> SpanCounts {
    cf_obs::span::summary()
        .into_iter()
        .map(|(path, s)| (path, s.count))
        .collect()
}

/// Op kinds with their counts and FLOPs.
fn op_counts() -> OpCounts {
    cf_obs::span::ops()
        .into_iter()
        .map(|(kind, s)| (kind, (s.count, s.flops)))
        .collect()
}

/// Runs one discovery from a clean record with op detail on and the ring
/// switch at `traced`.
fn record(traced: bool) -> (SpanCounts, OpCounts) {
    cf_obs::reset();
    cf_obs::span::set_op_detail(true);
    cf_obs::trace::set_enabled(traced);
    discover();
    cf_obs::trace::set_enabled(false);
    cf_obs::span::set_op_detail(false);
    (span_counts(), op_counts())
}

#[test]
fn ring_overflow_loses_timeline_detail_but_never_counts() {
    // One traced discovery fits the rings: every span it opened left a
    // complete event, so the rings count the spans opened.
    let (spans, ops) = record(true);
    assert_eq!(
        cf_obs::trace::dropped(),
        0,
        "one discovery must fit the rings"
    );
    let rings = cf_obs::trace::drain();
    let mut opened: BTreeMap<String, u64> = BTreeMap::new();
    for event in rings.iter().flat_map(|t| &t.events) {
        let name = event.name.as_str();
        if matches!(event.kind, cf_obs::trace::Kind::Complete { .. }) && !name.starts_with("par.") {
            *opened.entry(name.to_string()).or_default() += 1;
        }
    }
    assert!(opened.contains_key("window_scores"), "{opened:?}");
    for (name, &n) in &opened {
        let folded: u64 = spans
            .iter()
            .filter(|(path, _)| *path == name || path.ends_with(&format!(".{name}")))
            .map(|(_, &c)| c)
            .sum();
        assert_eq!(folded, n, "span_summary counts for {name} vs spans opened");
    }
    assert_eq!(spans.values().sum::<u64>(), opened.values().sum::<u64>());

    // Tracing changes no op count.
    let (untraced_spans, untraced_ops) = record(false);
    assert_eq!(untraced_spans, spans);
    assert_eq!(untraced_ops, ops);
    assert!(ops.contains_key("matmul"), "{ops:?}");

    // Back-to-back traced discoveries until the busiest thread's ring
    // overflows: timeline events are dropped, counts are not.
    cf_obs::reset();
    cf_obs::span::set_op_detail(true);
    cf_obs::trace::set_enabled(true);
    let mut runs = 0;
    while cf_obs::trace::dropped() == 0 {
        assert!(runs < 1000, "1000 discoveries never overflowed a ring");
        discover();
        runs += 1;
    }
    cf_obs::trace::set_enabled(false);
    cf_obs::span::set_op_detail(false);
    let (flooded_spans, flooded_ops) = (span_counts(), op_counts());
    let scale = |n: u64| n * runs;
    let want_spans: BTreeMap<String, u64> =
        spans.iter().map(|(p, &c)| (p.clone(), scale(c))).collect();
    assert_eq!(flooded_spans, want_spans, "span counts after ring overflow");
    let want_ops: BTreeMap<&str, (u64, u64)> = untraced_ops
        .iter()
        .map(|(&k, &(c, f))| (k, (scale(c), scale(f))))
        .collect();
    assert_eq!(flooded_ops, want_ops, "op profile after ring overflow");
    cf_obs::reset();
}
