//! Stage timing against the monotonic clock only — never `SystemTime`,
//! which can jump backwards under NTP and poison latency histograms.

use crate::hist::Histogram;
use std::time::Instant;

/// A started stopwatch. Cheap to create (one `Instant::now()`), `Copy`
/// so it can ride inside queued jobs across threads.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self { start: Instant::now() }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`] (saturating).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records the elapsed time into `hist` and returns the reading.
    pub fn observe(&self, hist: &Histogram) -> u64 {
        let nanos = self.elapsed_nanos();
        hist.record(nanos);
        nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_observes_into_histogram() {
        let h = Histogram::new();
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let nanos = w.observe(&h);
        assert!(nanos >= 1_000_000, "slept a millisecond, read {nanos}ns");
        assert_eq!(h.count(), 1);
    }
}
