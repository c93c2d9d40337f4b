//! A log₂ histogram of nanosecond durations with 8 linear sub-buckets per
//! power of two, so percentiles resolve to within 1/8 of their magnitude.

const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

pub struct Log2Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let sub = (ns >> (e - SUB_BITS)) - SUB;
    ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// `[low, high)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let shift = i / SUB - 1;
    let sub = i % SUB;
    ((SUB + sub) << shift, (SUB + sub + 1) << shift)
}

impl Log2Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    /// The `q`-quantile (0 < q ≤ 1) as the midpoint of the bucket that
    /// holds it; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bounds(i);
                return (lo + hi) as f64 / 2.0;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_inside_its_bucket() {
        for ns in (0..5000).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let (lo, hi) = bounds(bucket(ns));
            assert!(lo <= ns && (ns < hi || hi == 0), "{ns} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn quantiles_pick_the_right_bucket() {
        let mut h = Log2Hist::default();
        for ns in 1..=100 {
            h.record(ns * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((440.0..=560.0).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99);
        assert!((900.0..=1100.0).contains(&p99), "{p99}");
    }
}
