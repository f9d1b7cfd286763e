//! 1-D k-means (Lloyd's algorithm \[46\] with k-means++ seeding).
//!
//! The decomposition-based causality detector clusters the causal scores of
//! each target series into `n` classes and keeps the top `m` classes as
//! causal (paper §4.2.3, Fig. 6(c)). The paper also applies the same
//! k-means post-processing to the raw scores of DVGNN and CUTS (§5.3).

use rand::Rng;

/// Result of a 1-D k-means run.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster index per input value (same order as the input).
    pub assignment: Vec<usize>,
    /// Cluster centroids (unsorted; indices match `assignment`).
    pub centroids: Vec<f64>,
}

/// Runs 1-D k-means with k-means++ seeding and Lloyd refinement.
///
/// `k` is clamped to the number of *distinct* values — asking for more
/// clusters than distinct points would leave empty clusters. Always returns
/// at least one cluster.
///
/// # Panics
/// Panics if `values` is empty or `k == 0`.
pub fn kmeans_1d<R: Rng + ?Sized>(rng: &mut R, values: &[f64], k: usize) -> Clustering {
    assert!(!values.is_empty(), "kmeans on empty input");
    assert!(k > 0, "k must be positive");
    let mut distinct: Vec<f64> = values.to_vec();
    distinct.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in causal scores"));
    distinct.dedup();
    let k = k.min(distinct.len());

    // k-means++ seeding.
    let mut centroids: Vec<f64> = Vec::with_capacity(k);
    centroids.push(values[rng.gen_range(0..values.len())]);
    while centroids.len() < k {
        let d2: Vec<f64> = values
            .iter()
            .map(|&v| {
                centroids
                    .iter()
                    .map(|&c| (v - c) * (v - c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total == 0.0 {
            // All remaining points coincide with existing centroids; top up
            // from distinct values not yet used.
            for &v in &distinct {
                if centroids.len() < k && !centroids.contains(&v) {
                    centroids.push(v);
                }
            }
            break;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = values.len() - 1;
        for (i, &d) in d2.iter().enumerate() {
            if target < d {
                chosen = i;
                break;
            }
            target -= d;
        }
        centroids.push(values[chosen]);
    }

    // Lloyd iterations.
    let mut assignment = vec![0usize; values.len()];
    for _ in 0..100 {
        let mut changed = false;
        for (i, &v) in values.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, &cv) in centroids.iter().enumerate() {
                let d = (v - cv).abs();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![0.0; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, &v) in values.iter().enumerate() {
            sums[assignment[i]] += v;
            counts[assignment[i]] += 1;
        }
        for c in 0..centroids.len() {
            if counts[c] > 0 {
                centroids[c] = sums[c] / counts[c] as f64;
            }
        }
        if !changed {
            break;
        }
    }

    Clustering {
        assignment,
        centroids,
    }
}

/// Selects the values belonging to the top `m` of `n` k-means classes by
/// centroid — the paper's `Top[m/n]` rule (§4.2.3). Returns a mask aligned
/// with `values`: `true` = selected as causal.
///
/// When k-means finds fewer than `n` non-degenerate clusters, `m` shrinks
/// proportionally (at least 1 cluster is always kept when `m ≥ 1`).
pub fn top_class_mask<R: Rng + ?Sized>(
    rng: &mut R,
    values: &[f64],
    n_classes: usize,
    m_top: usize,
) -> Vec<bool> {
    assert!(m_top <= n_classes, "m must not exceed n (m/n ∈ [0,1])");
    if m_top == 0 {
        return vec![false; values.len()];
    }
    let clustering = kmeans_1d(rng, values, n_classes);
    let actual_k = clustering.centroids.len();
    // Rescale m to the realised number of clusters, keeping ≥ 1.
    let m_eff = ((m_top as f64 / n_classes as f64) * actual_k as f64).round() as usize;
    let m_eff = m_eff.clamp(1, actual_k);

    let mut order: Vec<usize> = (0..actual_k).collect();
    order.sort_by(|&a, &b| {
        clustering.centroids[b]
            .partial_cmp(&clustering.centroids[a])
            .expect("no NaN centroids")
    });
    let top: Vec<usize> = order.into_iter().take(m_eff).collect();
    clustering
        .assignment
        .iter()
        .map(|a| top.contains(a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn separates_two_obvious_groups() {
        let mut rng = StdRng::seed_from_u64(0);
        let values = [0.01, 0.02, 0.03, 5.0, 5.1, 4.9];
        let c = kmeans_1d(&mut rng, &values, 2);
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_eq!(c.assignment[1], c.assignment[2]);
        assert_eq!(c.assignment[3], c.assignment[4]);
        assert_eq!(c.assignment[4], c.assignment[5]);
        assert_ne!(c.assignment[0], c.assignment[3]);
    }

    #[test]
    fn handles_fewer_distinct_values_than_k() {
        let mut rng = StdRng::seed_from_u64(1);
        let values = [1.0, 1.0, 1.0];
        let c = kmeans_1d(&mut rng, &values, 3);
        assert_eq!(c.centroids.len(), 1);
        assert!(c.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn top_class_mask_selects_high_scores() {
        let mut rng = StdRng::seed_from_u64(2);
        let values = [0.0, 0.1, 0.05, 10.0, 9.5];
        let mask = top_class_mask(&mut rng, &values, 2, 1);
        assert_eq!(mask, vec![false, false, false, true, true]);
    }

    #[test]
    fn top_class_mask_m_equals_n_selects_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let values = [0.0, 1.0, 2.0, 3.0];
        let mask = top_class_mask(&mut rng, &values, 2, 2);
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    fn top_class_mask_m_zero_selects_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let mask = top_class_mask(&mut rng, &[1.0, 2.0], 2, 0);
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn centroids_are_means_of_members() {
        let mut rng = StdRng::seed_from_u64(5);
        let values = [1.0, 2.0, 100.0, 102.0];
        let c = kmeans_1d(&mut rng, &values, 2);
        let lo = c.assignment[0];
        let hi = c.assignment[2];
        assert!((c.centroids[lo] - 1.5).abs() < 1e-9);
        assert!((c.centroids[hi] - 101.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let values: Vec<f64> = (0..50).map(|i| (i as f64 * 0.77).sin()).collect();
        let a = kmeans_1d(&mut StdRng::seed_from_u64(9), &values, 3);
        let b = kmeans_1d(&mut StdRng::seed_from_u64(9), &values, 3);
        assert_eq!(a.assignment, b.assignment);
    }
}
