//! Order statistics over latency samples (the median is `insitu::median`).

/// Samples that must lie beyond a percentile before it is reported: a
/// tail estimated from fewer repeats worse than the bound it is held to.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `samples`, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie strictly beyond its rank.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, exactly 10 beyond.
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
        // One sample fewer leaves 9 beyond rank 190.
        assert_eq!(tail_percentile(&v[..199], 95.0), None);
        // The median qualifies from 20 samples (rank 10, 10 beyond) …
        assert_eq!(tail_percentile(&v[..20], 50.0), Some(10.0));
        // … and not from 19 (rank 10, 9 beyond).
        assert_eq!(tail_percentile(&v[..19], 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
