//! Order statistics over raw samples and the result digest.
//!
//! Timings are summarised exactly from the raw per-unit samples. The
//! library's `telemetry::Histogram` reports bucket upper bounds (a p50
//! can exceed the observed maximum), so it is never used for timings.

/// Nearest-rank percentile of `values` for `q` in `(0, 1]`: the
/// smallest sample with at least `q * n` samples at or below it.
///
/// The result is always one of the samples, so it lies in
/// `[min, max]`. Returns `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// How many samples lie strictly above the nearest-rank `q` percentile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    match percentile(values, q) {
        Some(p) => values.iter().filter(|&&v| v > p).count(),
        None => 0,
    }
}

/// FNV-1a (64-bit) over a stream of words: the benchmark's digest of
/// all unit results. Any changed bit in any result changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one 64-bit word in, byte by byte.
    pub fn word(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold a float in by its exact bit pattern.
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.word(value.to_bits())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A seed for unit `unit` of the run seeded with `seed` (splitmix64
/// finaliser), so every unit's inputs derive from `--seed` alone.
pub fn unit_seed(seed: u64, unit: u64) -> u64 {
    let mut z = seed
        .wrapping_add(unit.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(5.0));
        assert_eq!(percentile(&values, 0.9), Some(9.0));
        assert_eq!(percentile(&values, 0.91), Some(10.0));
        assert_eq!(percentile(&values, 1.0), Some(10.0));
        assert_eq!(percentile(&[3.5], 0.9), Some(3.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentiles_are_order_free_and_within_min_max() {
        let mut state = 7u64;
        for n in 1..200usize {
            let values: Vec<f64> = (0..n)
                .map(|i| {
                    state = unit_seed(state, i as u64);
                    (state % 10_000) as f64 * 1e-4
                })
                .collect();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut reversed = values.clone();
            reversed.reverse();
            let mut last = f64::NEG_INFINITY;
            for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let p = percentile(&values, q).unwrap();
                assert!(min <= p && p <= max, "q={q} p={p} outside [{min}, {max}]");
                assert!(p >= last, "percentiles must be monotone in q");
                assert_eq!(Some(p), percentile(&reversed, q));
                last = p;
            }
        }
    }

    #[test]
    fn a_hundred_samples_leave_ten_beyond_p90() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond(&values, 0.9), 10);
        assert_eq!(beyond(&values[..99], 0.9), 9);
    }

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let base = *Digest::default().float(1.5).word(3);
        assert_eq!(base, *Digest::default().float(1.5).word(3));
        assert_ne!(base, *Digest::default().float(1.5).word(2));
        assert_ne!(
            base,
            *Digest::default()
                .float(f64::from_bits(1.5f64.to_bits() ^ 1))
                .word(3)
        );
        assert_ne!(base, *Digest::default().word(3).float(1.5));
    }

    #[test]
    fn unit_seeds_differ_across_units_and_seeds() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8 {
            for unit in 0..64 {
                assert!(seen.insert(unit_seed(seed, unit)));
            }
        }
    }
}
