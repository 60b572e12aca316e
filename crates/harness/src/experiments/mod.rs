//! The reconstructed evaluation suite (see DESIGN.md §5 for the index).

pub mod e10_blocks;
pub mod e11_anytime;
pub mod e12_latency;
pub mod e13_service;
pub mod e14_server;
pub mod e15_fleet;
pub mod e16_tiered;
pub mod e17_resilience;
pub mod e18_telemetry;
pub mod e1_optimality;
pub mod e2_scaling;
pub mod e3_pruning;
pub mod e4_quality;
pub mod e5_cost_model;
pub mod e6_heterogeneity;
pub mod e7_generalizations;
pub mod e8_runtime;
pub mod e9_btsp;

use std::time::{Duration, Instant};

/// Repetitions behind every [`fastest_of`] timing.
pub(crate) const TIMING_REPS: usize = 5;

/// Times `run` [`TIMING_REPS`] times, each on fresh state from `setup`
/// (untimed), and returns the fastest repetition's state, output and
/// wall time. A single run of a few milliseconds reads whatever
/// preemption the host or a concurrent experiment inflicts on it; the
/// fastest of several is the run the code itself sets.
pub(crate) fn fastest_of<S, T>(
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&S) -> T,
) -> (S, T, Duration) {
    let mut fastest: Option<(S, T, Duration)> = None;
    for _ in 0..TIMING_REPS {
        let state = setup();
        let started = Instant::now();
        let output = run(&state);
        let elapsed = started.elapsed();
        if fastest.as_ref().is_none_or(|(_, _, best)| elapsed < *best) {
            fastest = Some((state, output, elapsed));
        }
    }
    fastest.expect("TIMING_REPS is non-zero")
}
