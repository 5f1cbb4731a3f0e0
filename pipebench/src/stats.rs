//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest tail percentile
//! that has at least [`MIN_BEYOND`] samples beyond it; with fewer
//! samples a tail is noise and is not reported at all.

/// Samples a tail percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles considered, highest first, with their names.
const TAILS: [(f64, &str); 3] = [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")];

/// Sorts `xs` (total order, so NaN cannot reorder it silently).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile `q ∈ (0, 1]` of ascending `sorted`; `None` when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0).then(|| sorted[rank(n, q) - 1])
}

/// The median (upper median for an even count, as nearest rank gives
/// it) of unsorted `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(&sorted(xs), 0.5)
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of `q` among `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest tail percentile of ascending `sorted` with at least
/// [`MIN_BEYOND`] samples beyond it, as `(name, value)`.
pub fn tail(sorted: &[f64]) -> Option<(&'static str, f64)> {
    let &(q, name) = TAILS
        .iter()
        .find(|&&(q, _)| beyond(sorted.len(), q) >= MIN_BEYOND)?;
    quantile(sorted, q).map(|v| (name, v))
}

/// Quantile `q` of ascending `sorted`, but only when the tail rule
/// allows reporting it.
pub fn reportable(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND)
        .then(|| quantile(sorted, q))
        .flatten()
}

/// A latency histogram for request streams too long to keep every
/// sample of: 10 ns buckets up to 1 ms, exact values beyond. Its memory
/// stays fixed however many requests a run sends, so the samples do not
/// show up in the process's peak RSS.
pub struct Hist {
    buckets: Vec<u32>,
    over: Vec<f64>,
    n: usize,
}

impl Hist {
    const RES: f64 = 1e-8;
    const BUCKETS: usize = 100_000;

    pub fn new() -> Self {
        Hist {
            buckets: vec![0; Self::BUCKETS],
            over: Vec::new(),
            n: 0,
        }
    }

    /// Records one latency in seconds.
    pub fn add(&mut self, secs: f64) {
        let i = (secs / Self::RES) as usize;
        match self.buckets.get_mut(i) {
            Some(b) => *b += 1,
            None => self.over.push(secs),
        }
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Nearest-rank quantile, to the bucket's midpoint.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let r = rank(self.n, q);
        let mut seen = 0usize;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as usize;
            if seen >= r {
                return Some((i as f64 + 0.5) * Self::RES);
            }
        }
        sorted(&self.over).get(r - seen - 1).copied()
    }

    /// Quantile `q`, but only when the tail rule allows reporting it.
    pub fn reportable(&self, q: f64) -> Option<f64> {
        (beyond(self.n, q) >= MIN_BEYOND)
            .then(|| self.quantile(q))
            .flatten()
    }

    /// The highest reportable tail percentile, as `(name, value)`.
    pub fn tail(&self) -> Option<(&'static str, f64)> {
        let &(q, name) = TAILS
            .iter()
            .find(|&&(q, _)| beyond(self.n, q) >= MIN_BEYOND)?;
        self.quantile(q).map(|v| (name, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_match_exact_ones_to_a_bucket() {
        let xs: Vec<f64> = (0..5000)
            .map(|i| 1e-6 * (1.0 + ((i * 7919) % 5000) as f64 / 37.0))
            .chain([2e-3, 5e-3, 1.5e-3])
            .collect();
        let mut h = Hist::new();
        xs.iter().for_each(|&x| h.add(x));
        let exact = sorted(&xs);
        for q in [0.01, 0.5, 0.9, 0.99] {
            let (a, b) = (h.quantile(q).unwrap(), quantile(&exact, q).unwrap());
            assert!((a - b).abs() <= Hist::RES, "q={q}: {a} vs {b}");
        }
        // The largest samples lie beyond the buckets and stay exact.
        assert_eq!(h.quantile(1.0), Some(5e-3));
        assert_eq!(h.len(), xs.len());
        assert_eq!(h.tail().map(|t| t.0), Some("p99"));
        assert_eq!(h.reportable(0.999), None);
        assert_eq!(h.reportable(0.99), h.tail().map(|t| t.1));
        assert_eq!(Hist::new().quantile(0.5), None);
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: p90 has only 9 beyond it, so no tail is reported.
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(reportable(&ramp(99), 0.9), None);
        // 100 samples: p90 (the 90th) has exactly 10 beyond it.
        assert_eq!(tail(&ramp(100)), Some(("p90", 90.0)));
        // 999 samples: p99 has 9 beyond it, so p90 is the highest tail.
        assert_eq!(tail(&ramp(999)), Some(("p90", 900.0)));
        // 1000 samples: p99 qualifies and outranks p90.
        assert_eq!(tail(&ramp(1000)), Some(("p99", 990.0)));
        assert_eq!(reportable(&ramp(1000), 0.99), Some(990.0));
        // 10000 samples: p99.9 qualifies.
        assert_eq!(tail(&ramp(10_000)), Some(("p99.9", 9990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn beyond_counts_strictly_greater_ranks() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(101, 0.9), 10);
        assert_eq!(beyond(109, 0.9), 10);
        assert_eq!(beyond(110, 0.9), 11);
        assert_eq!(beyond(0, 0.9), 0);
    }
}
