//! Exact client-side latency samples and the capped-percentile rule.
//!
//! Every sample is kept (nanoseconds, one `u64` each), so a reported
//! quantile is an order statistic of the run, not a bucket bound. A
//! percentile is only as high as the sample supports: the reported rank
//! always leaves at least [`MIN_BEYOND`] samples above it, and the
//! percentile actually used is printed next to the value.

/// Samples that must lie strictly above a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile: the quantile actually used (after capping),
/// its value, and the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile used, in `(0, 1)`; below the requested one when the
    /// sample is too small to support it.
    pub q: f64,
    /// The order statistic, in microseconds.
    pub value_us: f64,
    /// How many samples the quantile was taken over.
    pub n: usize,
}

/// A set of latency samples for one operation kind.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Records one latency.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// The sample count.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The quantile `q`, capped per [`capped_quantile`].
    pub fn quantile(&mut self, q: f64) -> Option<Quantile> {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        capped_quantile(&self.ns, q)
    }
}

/// The nearest-rank quantile `q` of an ascending slice, capped at the
/// highest quantile that still leaves [`MIN_BEYOND`] samples above its
/// rank. `None` when the slice cannot support even that (`n <= 10`).
pub fn capped_quantile(sorted: &[u64], q: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // The epsilon keeps `0.9 * 100` (90.000…01 in binary) at rank 90.
    let wanted = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n - MIN_BEYOND);
    let q_used = if rank < wanted {
        rank as f64 / n as f64
    } else {
        q
    };
    Some(Quantile {
        q: q_used,
        value_us: sorted[rank - 1] as f64 / 1_000.0,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).map(|i| i * 1_000).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let q = capped_quantile(&ramp(1_000), 0.99).unwrap();
        assert_eq!(q.q, 0.99);
        assert_eq!(q.value_us, 990.0);
        // Exactly ten samples (991..=1000) lie beyond the rank.
        assert_eq!(1_000 - 990, MIN_BEYOND);
    }

    #[test]
    fn small_samples_cap_the_percentile() {
        let q = capped_quantile(&ramp(500), 0.99).unwrap();
        assert_eq!(q.value_us, 490.0, "rank n-10");
        assert!((q.q - 0.98).abs() < 1e-12, "reported as p98, got {}", q.q);
        let q = capped_quantile(&ramp(100), 0.90).unwrap();
        assert_eq!(
            (q.q, q.value_us),
            (0.90, 90.0),
            "p90 fits 100 samples exactly"
        );
        let q = capped_quantile(&ramp(60), 0.90).unwrap();
        assert_eq!(q.value_us, 50.0);
    }

    #[test]
    fn median_and_too_few_samples() {
        assert_eq!(capped_quantile(&ramp(20), 0.5).unwrap().value_us, 10.0);
        let q = capped_quantile(&ramp(15), 0.5).unwrap();
        assert_eq!(q.value_us, 5.0, "p50 of 15 is capped to rank 5");
        assert!(capped_quantile(&ramp(10), 0.5).is_none());
        assert!(capped_quantile(&[], 0.5).is_none());
    }

    #[test]
    fn samples_sort_lazily() {
        let mut s = Samples::default();
        for v in [5_000u64, 1_000, 3_000, 2_000, 4_000].repeat(4) {
            s.push(v);
        }
        assert_eq!(s.len(), 20);
        assert_eq!(s.quantile(0.5).unwrap().value_us, 3.0);
        s.push(0);
        assert_eq!(s.quantile(0.01).unwrap().value_us, 0.0);
    }
}
