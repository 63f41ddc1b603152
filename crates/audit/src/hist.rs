//! The fixed-bucket log₂ histogram of the metrics registry
//! ([`crate::registry`]).

/// Number of log2 buckets: one per possible leading-bit position of a
/// `u64` nanosecond value, plus a zero bucket folded into index 0.
const HISTOGRAM_BUCKETS: usize = 64;

/// Fixed-bucket deterministic histogram over nanosecond-scale values.
///
/// Buckets are powers of two: bucket *b* holds values whose
/// floor(log2(v)) is *b* (v=0 lands in bucket 0), so the edges are a
/// property of the type, not the data. Exact min/max/sum ride along so
/// the summary stats the reports quote (`min`, `max`, `mean`) stay exact
/// while the quantiles are bucket-resolution, clamped into the observed
/// range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Exact smallest observation (u64::MAX when empty).
    pub(crate) min_ns: u64,
    /// Exact largest observation (0 when empty).
    pub(crate) max_ns: u64,
    /// Σ observations: a `u128` cannot overflow on `u64` inputs.
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; HISTOGRAM_BUCKETS], count: 0, min_ns: u64::MAX, max_ns: 0, sum: 0 }
    }
}

/// Bucket index for one value: floor(log2(v)), with 0 → bucket 0.
fn bucket(v_ns: u64) -> usize {
    (63 - v_ns.max(1).leading_zeros()) as usize
}

impl Histogram {
    /// Record one observation.
    pub(crate) fn observe(&mut self, v_ns: u64) {
        self.counts[bucket(v_ns)] += 1;
        self.count += 1;
        self.min_ns = self.min_ns.min(v_ns);
        self.max_ns = self.max_ns.max(v_ns);
        self.sum += u128::from(v_ns);
    }

    /// Mean in nanoseconds (0 when empty): the rounded sum over the count.
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns() / self.count as f64
        }
    }

    /// Sum in nanoseconds, correctly rounded to `f64` (exact below 2⁵³).
    pub(crate) fn sum_ns(&self) -> f64 {
        self.sum as f64
    }

    /// Quantile estimate, bucket resolution: walks the fixed buckets to
    /// the one containing the `q`-th observation (nearest-rank,
    /// `ceil(q·n)`) and reports that bucket's **upper edge**, clamped
    /// into `[min, max]` so single-observation and single-bucket
    /// histograms answer exactly.
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket b: 2^(b+1) − 1 (saturating at the
                // top bucket).
                let edge = if b >= 63 { u64::MAX } else { (1u64 << (b + 1)) - 1 };
                return edge.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Non-empty buckets as `(bucket_low_ns, count)` pairs, ascending.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (if b == 0 { 0 } else { 1u64 << b }, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 1);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(1 << 40), 40);
        assert_eq!(bucket(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantiles_clamp_into_observed_range() {
        let mut h = Histogram::default();
        h.observe(10_000_000); // one 10 ms latency
                               // Bucket resolution would answer the bucket edge (16777215), but
                               // the clamp pins single observations exactly.
        assert_eq!(h.quantile_ns(0.95), 10_000_000);
        assert_eq!(h.quantile_ns(0.50), 10_000_000);
        h.observe(40_000_000);
        let p95 = h.quantile_ns(0.95);
        assert!((10_000_000..=40_000_000).contains(&p95));
        assert_eq!(h.min_ns, 10_000_000);
        assert_eq!(h.max_ns, 40_000_000);
        assert_eq!(h.mean_ns(), 25_000_000.0);
        // The sum is kept in integers and rounded once: 2⁵³ + 1 + 1 is
        // 2⁵³ + 2, where adding in f64 would round back to 2⁵³ each time.
        let mut big = Histogram::default();
        for v in [1 << 53, 1, 1] {
            big.observe(v);
        }
        assert_eq!(big.sum_ns(), 9_007_199_254_740_994.0);
    }

    #[test]
    fn quantiles_pin_against_hand_computed_buckets() {
        // Hand-built contents: 10 observations of 3 ns (bucket 1, upper
        // edge 3), 5 of 12 ns (bucket 3, upper edge 15), 5 of 100 ns
        // (bucket 6, upper edge 127). n = 20.
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.observe(3);
        }
        for _ in 0..5 {
            h.observe(12);
        }
        for _ in 0..5 {
            h.observe(100);
        }
        // p50: rank ceil(0.50·20) = 10 → still inside bucket 1 (cum 10).
        // Upper edge 2^2−1 = 3, inside [3, 100] → 3.
        assert_eq!(h.quantile_ns(0.50), 3);
        // p95: rank ceil(0.95·20) = 19 → bucket 6 (cum 10,15,20). Upper
        // edge 2^7−1 = 127, clamped to max 100.
        assert_eq!(h.quantile_ns(0.95), 100);
        // p99: rank ceil(0.99·20) = 20 → bucket 6 as well.
        assert_eq!(h.quantile_ns(0.99), 100);
        // p75: rank 15 → bucket 3 (cum 15). Upper edge 2^4−1 = 15,
        // inside [3, 100] → 15 (bucket resolution, not the exact 12).
        assert_eq!(h.quantile_ns(0.75), 15);
    }
}
