//! A mergeable log-linear histogram over `u64` values (nanoseconds in
//! practice), in the HDR-histogram family.
//!
//! The value axis is split into octaves `[2^k, 2^(k+1))`, each divided
//! into `grid = 2^grid_bits` equal-width linear sub-buckets. Values
//! below `2 * grid` land in width-1 buckets and are recorded exactly;
//! every larger value lands in a bucket whose width is at most
//! `value / grid`, so any quantile read back from the histogram is
//! within a relative error of `1 / grid` of some value actually
//! recorded at that rank ([`Histogram::relative_error_bound`]).
//!
//! Recording is lock-free (`&self`, relaxed atomics) and costs one
//! index computation plus a handful of atomic RMWs; histograms with the
//! same precision merge by bucket-wise saturating addition, so per-class
//! or per-shard histograms can be combined without losing the bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Default precision: 64 sub-buckets per octave, ≤ 1.6% relative error.
pub const DEFAULT_GRID_BITS: u32 = 6;

/// A concurrent log-linear histogram of `u64` observations.
///
/// ```
/// use dsq_telemetry::Histogram;
/// let h = Histogram::new();
/// for v in [1_000u64, 2_000, 4_000, 8_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(0.5);
/// let err = 2_000.0 * h.relative_error_bound();
/// assert!((p50 as f64 - 2_000.0).abs() <= err, "p50 {p50}");
/// ```
#[derive(Debug)]
pub struct Histogram {
    grid_bits: u32,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A histogram at the default precision ([`DEFAULT_GRID_BITS`]).
    pub fn new() -> Self {
        Self::with_grid_bits(DEFAULT_GRID_BITS)
    }

    /// A histogram with `2^grid_bits` linear sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= grid_bits <= 12` (beyond 12 the bucket array
    /// stops paying for its precision).
    fn with_grid_bits(grid_bits: u32) -> Self {
        assert!((1..=12).contains(&grid_bits), "grid_bits must be in 1..=12, got {grid_bits}");
        let grid = 1usize << grid_bits;
        // Indices 0..2*grid are exact width-1 buckets; each coarser
        // octave (shift 1..=63-grid_bits) adds one block of `grid`.
        let buckets = (64 - grid_bits as usize + 1) * grid;
        Self {
            grid_bits,
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The guaranteed relative accuracy of [`Histogram::quantile`]:
    /// `1 / 2^grid_bits`.
    pub fn relative_error_bound(&self) -> f64 {
        1.0 / (1u64 << self.grid_bits) as f64
    }

    /// The linear sub-buckets per octave (`2^grid_bits`).
    pub fn grid(&self) -> u64 {
        1u64 << self.grid_bits
    }

    fn index(&self, value: u64) -> usize {
        let grid = 1u64 << self.grid_bits;
        if value < 2 * grid {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros();
            let shift = msb - self.grid_bits;
            ((shift as usize + 1) << self.grid_bits) + ((value >> shift) - grid) as usize
        }
    }

    /// Inclusive `[low, high]` value range of bucket `idx`.
    fn bounds(&self, idx: usize) -> (u64, u64) {
        let grid = 1u64 << self.grid_bits;
        if (idx as u64) < 2 * grid {
            (idx as u64, idx as u64)
        } else {
            let shift = (idx as u64 >> self.grid_bits) - 1;
            let low = (grid + (idx as u64 & (grid - 1))) << shift;
            (low, low + ((1u64 << shift) - 1))
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`. Bucket, count, and sum
    /// tallies saturate at `u64::MAX` instead of wrapping.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        saturating_add(&self.buckets[self.index(value)], n);
        saturating_add(&self.count, n);
        saturating_add(&self.sum, value.saturating_mul(n));
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`Duration`] in nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.is_empty() {
            0
        } else {
            m
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// The value at quantile `p` (clamped to `[0, 1]`): the midpoint of
    /// the bucket holding the observation of rank `ceil(p * count)`,
    /// clamped to the recorded `[min, max]`. Returns 0 when empty.
    ///
    /// Within a relative error of [`Histogram::relative_error_bound`]
    /// of the rank-`ceil(p * count)` value of the recorded stream.
    pub fn quantile(&self, p: f64) -> u64 {
        let p = p.clamp(0.0, 1.0);
        // Walk a point-in-time copy of the buckets so a concurrent
        // recorder cannot move the target rank mid-scan.
        let mut total = 0u64;
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        for c in &counts {
            total = total.saturating_add(*c);
        }
        if total == 0 {
            return 0;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, c) in counts.iter().enumerate() {
            seen = seen.saturating_add(*c);
            if seen >= rank {
                let (low, high) = self.bounds(idx);
                let mid = low + (high - low) / 2;
                return mid.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Adds every observation of `other` into `self` (bucket-wise
    /// saturating addition). Both histograms keep recording safely
    /// during the merge.
    ///
    /// # Panics
    ///
    /// Panics if the histograms were built with different precision.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.grid_bits, other.grid_bits,
            "cannot merge histograms of different precision"
        );
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                saturating_add(dst, n);
            }
        }
        saturating_add(&self.count, other.count());
        saturating_add(&self.sum, other.sum());
        if !other.is_empty() {
            self.min.fetch_min(other.min(), Ordering::Relaxed);
            self.max.fetch_max(other.max(), Ordering::Relaxed);
        }
    }

    /// Clears all buckets and tallies. Not atomic against concurrent
    /// recorders; callers serialize externally if they need a clean cut.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

fn saturating_add(cell: &AtomicU64, n: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every u64 maps to a bucket whose range contains it, bucket
    /// ranges tile the axis without gaps, and width respects the bound.
    #[test]
    fn indexing_is_contiguous_and_bounded() {
        let h = Histogram::new();
        let grid = h.grid();
        // Exhaustive over the exact region, spot samples beyond.
        for v in 0..(4 * grid) {
            let idx = h.index(v);
            let (low, high) = h.bounds(idx);
            assert!(low <= v && v <= high, "v={v} idx={idx} [{low},{high}]");
        }
        let mut prev_high = 4 * grid - 1;
        let mut v = 4 * grid;
        while v > prev_high {
            let idx = h.index(v);
            let (low, high) = h.bounds(idx);
            assert!(low <= v && v <= high, "v={v} [{low},{high}]");
            assert_eq!(low, prev_high + 1, "gap before bucket {idx}");
            assert!(
                (high - low) as f64 <= (low as f64) / grid as f64,
                "bucket {idx} too wide: [{low},{high}]"
            );
            prev_high = high;
            v = match high.checked_add(1) {
                Some(next) => next,
                None => break,
            };
        }
        assert_eq!(prev_high, u64::MAX, "buckets must cover all of u64");
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..h.grid() * 2 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), h.grid() * 2 - 1);
        // Width-1 buckets: the median is exact, not approximate.
        assert_eq!(h.quantile(0.5), h.grid() - 1);
    }

    #[test]
    fn quantiles_respect_the_relative_error_bound() {
        let h = Histogram::new();
        let mut values: Vec<u64> = (0..10_000u64).map(|i| i * i + 17).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let got = h.quantile(p) as f64;
            assert!(
                (got - exact).abs() <= exact * h.relative_error_bound() + 1.0,
                "p={p}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for i in 0..500u64 {
            let v = i * 37 + 5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for p in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(p), both.quantile(p), "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mismatched_precision() {
        Histogram::with_grid_bits(5).merge(&Histogram::with_grid_bits(6));
    }

    #[test]
    fn saturating_tallies_do_not_wrap() {
        let h = Histogram::new();
        h.record_n(42, u64::MAX);
        h.record_n(42, u64::MAX);
        h.record_n(7, 3);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 42);
        assert_eq!(h.quantile(0.5), 42);
    }

    #[test]
    fn extreme_values_round_trip() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
        let top = h.quantile(1.0) as f64;
        assert!(top >= u64::MAX as f64 * (1.0 - h.relative_error_bound()));
    }

    #[test]
    fn duration_recording_is_nanoseconds() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.min(), 3_000);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(1234);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        h.record(8);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 8);
    }
}
