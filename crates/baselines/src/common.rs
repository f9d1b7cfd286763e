//! Shared utilities for the baseline methods: lagged design matrices,
//! group norms, and TCDF's largest-gap threshold.

use cf_tensor::Tensor;

/// Builds the lagged regression design for one-step-ahead prediction.
///
/// Returns `(inputs, targets)` where `inputs` is `S×(N·lag)` — sample `s`
/// holds `x_i[t−ℓ]` for every series `i` and lag `ℓ ∈ 1..=lag`, laid out
/// series-major (`i·lag + (ℓ−1)`) — and `targets` is `S×N` with the values
/// at time `t`. `S = L − lag` samples.
pub(crate) fn lagged_design(series: &Tensor, lag: usize) -> (Tensor, Tensor) {
    let _span = cf_obs::span!("baseline.lagged_design");
    let (n, l) = (series.shape()[0], series.shape()[1]);
    assert!(lag >= 1 && lag < l, "lag {lag} out of range for length {l}");
    let s = l - lag;
    let mut inputs = Tensor::zeros(&[s, n * lag]);
    let mut targets = Tensor::zeros(&[s, n]);
    for sample in 0..s {
        let t = sample + lag;
        for i in 0..n {
            for el in 1..=lag {
                inputs.set2(sample, i * lag + (el - 1), series.get2(i, t - el));
            }
            targets.set2(sample, i, series.get2(i, t));
        }
    }
    (inputs, targets)
}

/// L2 norm of the weight rows belonging to one input group.
///
/// `w` is `(N·lag)×H`; the group of series `i` is rows `i·lag .. (i+1)·lag`.
/// Used both for the causal score (norm over the whole group) and — with
/// `lag_of_group` — for per-lag attribution.
pub(crate) fn group_norm(w: &Tensor, series_idx: usize, lag: usize) -> f64 {
    let h = w.shape()[1];
    let mut acc = 0.0;
    for r in series_idx * lag..(series_idx + 1) * lag {
        for c in 0..h {
            let v = w.get2(r, c);
            acc += v * v;
        }
    }
    acc.sqrt()
}

/// L2 norm of a single `(series, lag)` row of the input weight matrix.
pub(crate) fn lag_norm(w: &Tensor, series_idx: usize, lag: usize, which_lag: usize) -> f64 {
    assert!(which_lag >= 1 && which_lag <= lag);
    let h = w.shape()[1];
    let r = series_idx * lag + (which_lag - 1);
    let mut acc = 0.0;
    for c in 0..h {
        let v = w.get2(r, c);
        acc += v * v;
    }
    acc.sqrt()
}

/// TCDF's cause-selection rule: sort the scores descending and cut at the
/// largest *relative* gap; everything above the gap is causal. Returns a
/// mask aligned with `scores`. With fewer than 2 distinct values, selects
/// everything (no gap to find).
pub fn largest_gap_threshold(scores: &[f64]) -> Vec<bool> {
    let _span = cf_obs::span!("baseline.gap_threshold");
    if scores.len() < 2 {
        return vec![true; scores.len()];
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("no NaN scores"));
    let sorted: Vec<f64> = order.iter().map(|&i| scores[i]).collect();
    let mut best_gap = f64::NEG_INFINITY;
    let mut cut = sorted.len(); // default: select all
    for k in 0..sorted.len() - 1 {
        let gap = sorted[k] - sorted[k + 1];
        if gap > best_gap {
            best_gap = gap;
            cut = k + 1;
        }
    }
    if best_gap <= 0.0 {
        return vec![true; scores.len()];
    }
    let mut mask = vec![false; scores.len()];
    for &i in order.iter().take(cut) {
        mask[i] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::window::standardize;

    #[test]
    fn lagged_design_layout() {
        // Series 0: 0,1,2,3,4 ; series 1: 10,11,12,13,14 ; lag 2.
        let series = Tensor::from_vec(
            vec![2, 5],
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 10.0, 11.0, 12.0, 13.0, 14.0],
        )
        .unwrap();
        let (x, y) = lagged_design(&series, 2);
        assert_eq!(x.shape(), &[3, 4]);
        assert_eq!(y.shape(), &[3, 2]);
        // Sample 0 targets t=2: x0[1], x0[0], x1[1], x1[0].
        assert_eq!(x.row(0), &[1.0, 0.0, 11.0, 10.0]);
        assert_eq!(y.row(0), &[2.0, 12.0]);
        // Sample 2 targets t=4.
        assert_eq!(x.row(2), &[3.0, 2.0, 13.0, 12.0]);
        assert_eq!(y.row(2), &[4.0, 14.0]);
    }

    #[test]
    fn group_and_lag_norms() {
        // 2 series × lag 2 → 4 input rows, H = 1.
        let w = Tensor::from_vec(vec![4, 1], vec![3.0, 4.0, 0.0, 5.0]).unwrap();
        assert!((group_norm(&w, 0, 2) - 5.0).abs() < 1e-12); // √(9+16)
        assert!((group_norm(&w, 1, 2) - 5.0).abs() < 1e-12); // √(0+25)
        assert_eq!(lag_norm(&w, 0, 2, 1), 3.0);
        assert_eq!(lag_norm(&w, 0, 2, 2), 4.0);
        assert_eq!(lag_norm(&w, 1, 2, 2), 5.0);
    }

    #[test]
    fn gap_threshold_separates_clear_groups() {
        let mask = largest_gap_threshold(&[0.9, 0.05, 0.85, 0.01]);
        assert_eq!(mask, vec![true, false, true, false]);
    }

    #[test]
    fn gap_threshold_single_winner() {
        let mask = largest_gap_threshold(&[0.9, 0.1, 0.12, 0.08]);
        assert_eq!(mask, vec![true, false, false, false]);
    }

    #[test]
    fn gap_threshold_uniform_selects_all() {
        let mask = largest_gap_threshold(&[0.5, 0.5, 0.5]);
        assert!(mask.iter().all(|&m| m));
        assert_eq!(largest_gap_threshold(&[1.0]), vec![true]);
        assert!(largest_gap_threshold(&[]).is_empty());
    }

    #[test]
    fn standardize_rows() {
        let series = Tensor::from_vec(vec![1, 4], vec![2.0, 4.0, 6.0, 8.0]).unwrap();
        let s = standardize(&series);
        assert!(s.row(0).iter().sum::<f64>().abs() < 1e-12);
    }
}
