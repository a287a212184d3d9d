//! Sample statistics and the small random-number helper the workloads
//! derive their inputs from.

/// Median of `samples` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it; `0.0` for an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// ten samples must lie beyond it, or the figure is one slow outlier.
#[must_use]
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Smallest sample count that supports the `p`-th percentile.
#[must_use]
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| supports_percentile(n, p))
        .unwrap_or(usize::MAX)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// SplitMix64: the benchmark's only source of input variation, seeded
/// from `--seed` so the same seed always gives the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 95.0), 95.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert!(!supports_percentile(199, 95.0));
        assert!(supports_percentile(200, 95.0));
        assert_eq!(min_samples_for(95.0), 200);
        assert_eq!(min_samples_for(50.0), 20);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn splitmix_is_seeded_and_shuffles_a_permutation() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut items: Vec<u32> = (0..16).collect();
        SplitMix64::new(3).shuffle(&mut items);
        let mut back = items.clone();
        back.sort_unstable();
        assert_eq!(back, (0..16).collect::<Vec<_>>());
        assert_ne!(items, back);
    }
}
