//! Order statistics over measured samples.

/// Nearest-rank percentile: the `⌈p/100 · n⌉`-th smallest value (1-based),
/// so every reported percentile is a value that was actually measured.
/// `p` is clamped to `[0, 100]`; `p = 0` gives the minimum.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Nearest-rank median (the lower middle value for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}
