//! Property-based tests (proptest) on the substrate invariants the
//! CausalFormer pipeline depends on: autodiff correctness, causal-
//! convolution temporal priority, softmax/attention algebra, k-means and
//! scoring invariants, and RRP conservation behaviour.

use causalformer::rrp::{propagate, RrpLayers, WidenedWeights};
use cf_metrics::kmeans::{kmeans_1d, top_class_mask};
use cf_metrics::{score, CausalGraph};
use cf_tensor::{ops, Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensor_strategy(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    proptest::collection::vec(-2.0f64..2.0, n)
        .prop_map(move |data| Tensor::from_vec(shape.clone(), data).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Temporal priority: perturbing the input at slot `t0` never changes
    /// any causal-convolution output before `t0`.
    #[test]
    fn causal_conv_never_looks_ahead(
        x in tensor_strategy(vec![3, 6]),
        k in tensor_strategy(vec![3, 3, 6]),
        t0 in 0usize..6,
        series in 0usize..3,
        delta in 0.5f64..2.0,
    ) {
        let base = ops::causal_conv(&x, &k);
        let mut x2 = x.clone();
        x2.set2(series, t0, x2.get2(series, t0) + delta);
        let pert = ops::causal_conv(&x2, &k);
        for i in 0..3 {
            for j in 0..3 {
                for t in 0..t0 {
                    prop_assert_eq!(base.get3(i, j, t), pert.get3(i, j, t));
                }
            }
        }
    }

    /// The self-shift guarantees a series' current value never reaches its
    /// own value row at the same slot.
    #[test]
    fn self_shift_hides_current_value(
        x in tensor_strategy(vec![2, 5]),
        k in tensor_strategy(vec![2, 2, 5]),
        t0 in 0usize..5,
        delta in 0.5f64..2.0,
    ) {
        let shifted = ops::self_shift(&ops::causal_conv(&x, &k));
        let mut x2 = x.clone();
        x2.set2(0, t0, x2.get2(0, t0) + delta);
        let shifted2 = ops::self_shift(&ops::causal_conv(&x2, &k));
        // Diagonal row of series 0 at slot t0 must be unchanged.
        prop_assert_eq!(shifted.get3(0, 0, t0), shifted2.get3(0, 0, t0));
    }

    /// Autodiff gradients match finite differences for a composite
    /// expression over random inputs (spot-check of the tape as a whole).
    #[test]
    fn tape_gradient_matches_finite_difference(
        a in tensor_strategy(vec![2, 3]),
        b in tensor_strategy(vec![3, 2]),
        idx in 0usize..6,
    ) {
        let f = |a_t: &Tensor, b_t: &Tensor| -> (f64, Option<Tensor>, Option<Tensor>) {
            let mut tape = Tape::new();
            let av = tape.leaf(a_t.clone(), true);
            let bv = tape.leaf(b_t.clone(), true);
            let prod = tape.matmul(av, bv);
            let act = tape.tanh(prod);
            let sq = tape.square(act);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            (
                tape.value(loss).item(),
                grads.get(av).cloned(),
                grads.get(bv).cloned(),
            )
        };
        let (base, ga, _) = f(&a, &b);
        let eps = 1e-6;
        let mut a2 = a.clone();
        a2.data_mut()[idx] += eps;
        let (perturbed, _, _) = f(&a2, &b);
        let numeric = (perturbed - base) / eps;
        let analytic = ga.expect("grad present").data()[idx];
        prop_assert!((numeric - analytic).abs() < 1e-4 * (1.0 + analytic.abs()),
            "numeric {} vs analytic {}", numeric, analytic);
    }

    /// Softmax rows are a probability simplex for any input.
    #[test]
    fn softmax_rows_is_simplex(m in tensor_strategy(vec![4, 7])) {
        let s = m.softmax_rows();
        for i in 0..4 {
            let row = s.row(i);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// k-means assignments reference valid centroids and respect order:
    /// a larger value never lands in a cluster with a smaller centroid
    /// than a smaller value's cluster (1-d monotonicity).
    #[test]
    fn kmeans_1d_is_monotone(values in proptest::collection::vec(-10.0f64..10.0, 2..40), k in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(0);
        let c = kmeans_1d(&mut rng, &values, k);
        prop_assert_eq!(c.assignment.len(), values.len());
        for (i, &ai) in c.assignment.iter().enumerate() {
            prop_assert!(ai < c.centroids.len());
            for (j, &aj) in c.assignment.iter().enumerate() {
                if values[i] < values[j] {
                    prop_assert!(c.centroids[ai] <= c.centroids[aj] + 1e-9,
                        "value {} in cluster c={} but larger value {} in cluster c={}",
                        values[i], c.centroids[ai], values[j], c.centroids[aj]);
                }
            }
        }
    }

    /// `top_class_mask` selects a prefix of the sorted values: everything
    /// selected is ≥ everything unselected.
    #[test]
    fn top_class_mask_is_a_threshold(values in proptest::collection::vec(0.0f64..5.0, 2..30)) {
        let mut rng = StdRng::seed_from_u64(1);
        let mask = top_class_mask(&mut rng, &values, 2, 1);
        let selected_min = values.iter().zip(&mask).filter(|(_, &m)| m).map(|(v, _)| *v)
            .fold(f64::INFINITY, f64::min);
        let unselected_max = values.iter().zip(&mask).filter(|(_, &m)| !m).map(|(v, _)| *v)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(selected_min >= unselected_max - 1e-9);
    }

    /// F1 is symmetric under exchanging prediction and truth, bounded in
    /// [0,1], and 1 iff the graphs have identical edge sets.
    #[test]
    fn f1_axioms(edges_a in proptest::collection::vec((0usize..4, 0usize..4), 0..8),
                 edges_b in proptest::collection::vec((0usize..4, 0usize..4), 0..8)) {
        let mut ga = CausalGraph::new(4);
        for (f, t) in &edges_a { ga.add_edge(*f, *t, None); }
        let mut gb = CausalGraph::new(4);
        for (f, t) in &edges_b { gb.add_edge(*f, *t, None); }
        let f_ab = score::f1(&ga, &gb);
        let f_ba = score::f1(&gb, &ga);
        prop_assert!((f_ab - f_ba).abs() < 1e-12, "F1 must be symmetric");
        prop_assert!((0.0..=1.0).contains(&f_ab));
        if ga == gb && !ga.is_empty() {
            prop_assert_eq!(f_ab, 1.0);
        }
    }

    /// RRP relevance is finite and non-negative (z⁺ rule) for arbitrary
    /// forward states, and lands only on the target's rows.
    #[test]
    fn rrp_relevance_is_finite_nonnegative_and_targeted(
        x in tensor_strategy(vec![3, 4]),
        kernel in tensor_strategy(vec![3, 3, 4]),
        logits in tensor_strategy(vec![3, 3]),
        w_out in tensor_strategy(vec![4, 4]),
        target in 0usize..3,
    ) {
        // Build a consistent forward state on a real tape.
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone(), true);
        let kv = tape.leaf(kernel.clone(), true);
        let conv = tape.causal_conv(xv, kv);
        let shifted = tape.self_shift(conv);
        let lv = tape.leaf(logits.clone(), true);
        let attn = tape.softmax_rows(lv);
        let head = tape.attn_apply(attn, shifted);
        // Trivial FFN (identity-ish): reuse head as both pre and act with a
        // single output layer.
        let wv = tape.leaf(w_out.clone(), true);
        let pred = tape.matmul(head, wv);

        let zeros_t = Tensor::zeros(&[4]);
        let ident = Tensor::eye(4);
        let layers = RrpLayers {
            x: &x,
            pred: tape.value(pred),
            ffn_out: tape.value(head),
            ffn_act: tape.value(head),
            ffn_pre: tape.value(head),
            att: tape.value(head),
            head_out: std::slice::from_ref(tape.value(head)),
            attn: std::slice::from_ref(tape.value(attn)),
            shifted: tape.value(shifted),
            bank: &kernel,
            weights: &WidenedWeights {
                w_out_t: w_out.transpose2(),
                b_out: zeros_t.clone(),
                w2_t: ident.clone(),
                b2: zeros_t.clone(),
                w1_t: ident,
                b1: zeros_t,
                w_o: Tensor::from_slice(&[1.0]),
            },
            with_bias: true,
        };
        let mut seed = Tensor::zeros(&[3, 4]);
        for tt in 0..4 {
            seed.set2(target, tt, 1.0);
        }
        let rel = propagate(&layers, &seed);
        for h in &rel.attn {
            for i in 0..3 {
                for j in 0..3 {
                    let v = h.get2(i, j);
                    prop_assert!(v.is_finite() && v >= 0.0, "attn rel ({i},{j}) = {v}");
                    if i != target {
                        prop_assert!(v.abs() < 1e-9, "relevance leaked to row {i}");
                    }
                }
            }
        }
        prop_assert!(rel.kernel.all_finite());
        prop_assert!(rel.kernel.min() >= 0.0);
    }
}
