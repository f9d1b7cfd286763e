//! Order statistics over repetition samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(samples, n=4)` (the "exclusive" method).
fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |i: usize| {
        let m = (i * (n + 1)) as i64;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Quartile distance as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples)
}

/// Repetitions that fill `budget` seconds when one takes `nominal`
/// seconds on the reference host, at least `min`. The count depends only
/// on `--seconds`, never on how fast this host happens to be, so every run
/// does the same work and reaches the same memory high-water mark.
pub fn reps(budget: f64, nominal: f64, min: usize) -> usize {
    ((budget / nominal).round() as usize).max(min)
}
