//! Small statistics helpers: exact order statistics over recorded
//! samples and the deterministic random source behind every schedule.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule
/// on a sorted copy; `0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median over consecutive blocks of `block` values of each
/// block's `q`-quantile, with the number of blocks. A trailing partial
/// block is dropped unless it is the only one. A stall that hits one
/// block moves one block's quantile, not the reported median.
pub fn block_quantile(values: &[f64], block: usize, q: f64) -> (f64, usize) {
    let whole = values.len() / block * block;
    let values = if whole == 0 { values } else { &values[..whole] };
    let per_block: Vec<f64> = values.chunks(block.max(1)).map(|c| quantile(c, q)).collect();
    (median(&per_block), per_block.len())
}

/// The median of `values`; `0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, or `0` when the denominator is zero.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// SplitMix64: a tiny, well-mixed generator. Every input the benchmark
/// makes is a function of the workload seed through this stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Mixes a stream seed with an index into an independent child seed.
pub fn child_seed(seed: u64, index: u64) -> u64 {
    SplitMix::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn block_quantiles_shrug_off_one_stalled_block() {
        let mut values: Vec<f64> = (0..5).flat_map(|_| (1..=100).map(f64::from)).collect();
        values[150..200].iter_mut().for_each(|v| *v = 1e6);
        values.push(42.0);
        let (p99, blocks) = block_quantile(&values, 100, 0.99);
        assert_eq!((p99, blocks), (99.0, 5));
        assert_eq!(block_quantile(&[3.0, 1.0, 2.0], 100, 0.5), (2.0, 1));
    }

    #[test]
    fn splitmix_is_deterministic_and_uniform_enough() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let draws: Vec<f64> = (0..10_000).map(|_| a.next_f64()).collect();
        assert!(draws.iter().all(|&u| (0.0..1.0).contains(&u)));
        assert_eq!(draws[17], {
            for _ in 0..17 {
                b.next_f64();
            }
            b.next_f64()
        });
        let m = mean(&draws);
        assert!((0.48..0.52).contains(&m), "mean {m}");
        assert_ne!(child_seed(1, 0), child_seed(1, 1));
    }
}
