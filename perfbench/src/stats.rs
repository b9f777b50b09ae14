//! Order statistics reported with their sample counts.

/// A nearest-rank percentile and how many samples back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`, or
/// `None` when there are no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
