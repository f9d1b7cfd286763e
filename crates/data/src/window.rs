//! Windowing and standardisation utilities.
//!
//! The causality-aware transformer consumes fixed `N×T` observation windows
//! (paper §3: the observational window of `T` slots). This module slices a
//! long `N×L` series matrix into overlapping windows and z-scores each
//! series so heterogeneous scales (Lorenz-96 amplitudes vs BOLD signals)
//! do not dominate training.

use cf_tensor::{Scalar, Tensor, TensorBase};

/// Z-scores each row (series) of an `N×L` matrix: zero mean, unit variance.
/// The std is floored at `1e-12`, so a constant row maps to zero instead of
/// NaN.
///
/// This is the one z-score of the workspace: `CausalFormer::discover` and
/// the baselines call it, and cf-store's streaming statistics reproduce its
/// expressions fold for fold, so every path trains on bitwise the same
/// windows.
pub fn standardize(series: &Tensor) -> Tensor {
    assert_eq!(series.rank(), 2, "standardize expects N×L");
    let (n, l) = (series.shape()[0], series.shape()[1]);
    let mut out = series.clone();
    for i in 0..n {
        let row = series.row(i);
        let mean = row.iter().sum::<f64>() / l as f64;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / l as f64;
        let std = var.sqrt().max(1e-12);
        for t in 0..l {
            out.set2(i, t, (row[t] - mean) / std);
        }
    }
    out
}

/// Slices an `N×L` matrix into `N×T` windows starting at multiples of
/// `stride`, casting each element into the compute dtype `E` as the window
/// is filled. Windows that would run past the end are dropped.
///
/// # Panics
/// Panics if `t_window` is zero, larger than the series, or `stride` is 0.
pub fn windows<E: Scalar>(series: &Tensor, t_window: usize, stride: usize) -> Vec<TensorBase<E>> {
    assert_eq!(series.rank(), 2, "windows expects N×L");
    let (n, l) = (series.shape()[0], series.shape()[1]);
    assert!(
        t_window > 0 && t_window <= l,
        "series of length {l} yields no windows of size {t_window}"
    );
    assert!(stride > 0, "stride must be positive");
    let mut out = Vec::new();
    let mut start = 0;
    while start + t_window <= l {
        let mut data = Vec::with_capacity(n * t_window);
        for i in 0..n {
            let row = &series.row(i)[start..start + t_window];
            data.extend(row.iter().map(|&v| E::from_f64(v)));
        }
        out.push(TensorBase::from_vec(vec![n, t_window], data).expect("consistent"));
        start += stride;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, l: usize) -> Tensor {
        let data: Vec<f64> = (0..n * l).map(|k| k as f64).collect();
        Tensor::from_vec(vec![n, l], data).unwrap()
    }

    #[test]
    fn standardize_zero_mean_unit_variance() {
        let t = ramp(2, 100);
        let s = standardize(&t);
        for i in 0..2 {
            let row = s.row(i);
            let mean = row.iter().sum::<f64>() / 100.0;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 100.0;
            assert!(mean.abs() < 1e-10);
            assert!((var - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn standardize_constant_series_stays_finite() {
        let t = Tensor::full(&[1, 10], 5.0);
        let s = standardize(&t);
        assert!(s.all_finite());
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn windows_cover_and_align() {
        let t = ramp(2, 10);
        let w: Vec<Tensor> = windows(&t, 4, 2);
        // starts at 0, 2, 4, 6 → 4 windows
        assert_eq!(w.len(), 4);
        assert_eq!(w[0].shape(), &[2, 4]);
        // window 1 of series 0 starts at value 2.
        assert_eq!(w[1].get2(0, 0), 2.0);
        // series 1 offset by l=10.
        assert_eq!(w[1].get2(1, 0), 12.0);
    }

    #[test]
    fn windows_stride_one_count() {
        let t = ramp(1, 10);
        assert_eq!(windows::<f64>(&t, 4, 1).len(), 7);
        assert_eq!(windows::<f64>(&t, 10, 1).len(), 1);
    }
}
