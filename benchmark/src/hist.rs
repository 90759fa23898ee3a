//! A fixed-size log-linear latency histogram.
//!
//! Every value lands in one of 128 linear sub-buckets per power of two,
//! so a bucket is at most 1/128 of its value wide. Memory is fixed
//! (about 60 KiB), whatever the number of samples, which keeps the
//! benchmark's own footprint out of `rss_peak_mb`. Quantiles
//! interpolate linearly inside the bucket that holds the wanted rank.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Counts of `u64` samples (nanoseconds, or any other unit).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = v >> (e - SUB_BITS);
    ((e - SUB_BITS + 1) as u64 * SUB + (m - SUB)) as usize
}

/// Lower bound and width of a bucket.
fn bounds(idx: usize) -> (f64, f64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx as f64, 1.0);
    }
    let e = (idx / SUB) as u32 + SUB_BITS - 1;
    let m = idx % SUB + SUB;
    let shift = e - SUB_BITS;
    ((m << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (0 when empty), interpolated within its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, width) = bounds(idx);
                let frac = (rank - seen) as f64 - 0.5;
                return lo + width * frac / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            u64::MAX / 3,
        ] {
            let (lo, width) = bounds(index_of(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}");
            assert!(width <= (v as f64 / SUB as f64).max(1.0), "{v}");
        }
        for idx in 1..BUCKETS - 1 {
            let (lo, w) = bounds(idx);
            assert_eq!(lo + w, bounds(idx + 1).0, "gap after bucket {idx}");
        }
    }

    #[test]
    fn quantiles_track_exact_ones() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 1_000_000.0;
            assert!((h.quantile(q) - exact).abs() / exact < 0.01, "q={q}");
        }
        assert_eq!(h.count(), 100_000);
    }
}
