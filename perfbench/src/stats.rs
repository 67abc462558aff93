//! Order statistics over raw samples, and the FNV-1a digest that stamps
//! generated inputs.

use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank quantile of raw samples (`q` in `0..=1`): the smallest
/// sample with at least `q·n` samples at or below it. Exact, unlike a
/// bucketed histogram. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of raw samples (nearest rank).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Latency tail that a rare stall of the whole machine cannot swing: the
/// p99 of each `window` of schedule time, then the median of those. Windows
/// holding fewer than half the samples of the fullest one (a trailing
/// partial window) are left out. Samples are `(scheduled offset, value)`.
pub fn windowed_p99(samples: &[(Duration, f64)], window: Duration) -> Option<f64> {
    let mut groups: BTreeMap<u128, Vec<f64>> = BTreeMap::new();
    for &(at, v) in samples {
        groups
            .entry(at.as_nanos() / window.as_nanos().max(1))
            .or_default()
            .push(v);
    }
    let fullest = groups.values().map(Vec::len).max()?;
    let p99s: Vec<f64> = groups
        .values()
        .filter(|g| 2 * g.len() >= fullest)
        .filter_map(|g| quantile(g, 0.99))
        .collect();
    median(&p99s)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Incremental FNV-1a 64-bit digest. The same seed must give the same
/// request and event sequences; the digest of those sequences is printed
/// with every run so that can be checked across runs and machines.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: a small seeded generator, so the benchmark's inputs depend
/// on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`, by inverse CDF.
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        cdf.iter_mut().for_each(|c| *c /= acc);
        Self(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|&c| c <= u).min(self.0.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn windowed_p99_ignores_one_stalled_window() {
        let mut s: Vec<(Duration, f64)> = (0..3000)
            .map(|i| (Duration::from_millis(i), if i < 100 { 50.0 } else { 1.0 }))
            .collect();
        s.push((Duration::from_millis(3000), 99.0)); // lone trailing sample
        assert_eq!(windowed_p99(&s, Duration::from_secs(1)), Some(1.0));
    }
}
