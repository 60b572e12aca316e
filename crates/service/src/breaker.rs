//! Per-backend health tracking: a consecutive-failure circuit breaker
//! with half-open probes.
//!
//! A flapping backend must not be retried on every request forever —
//! each attempt burns a connect timeout and a failover hop. The
//! breaker remembers failures: after
//! [`failure_threshold`](BreakerConfig::failure_threshold) consecutive
//! failures the circuit **opens** and the backend is ejected from
//! routing. It stays ejected while the rest of the fleet absorbs the
//! next [`cooldown_requests`](BreakerConfig::cooldown_requests)
//! eligibility checks, then transitions to **half-open**: exactly one
//! request is let through as a probe. A successful probe closes the
//! circuit (the backend is readmitted); a failed probe re-opens it for
//! another full cooldown.
//!
//! The cooldown is counted in eligibility checks rather than wall
//! time, so tests (and the single-core CI container) get fully
//! deterministic trip/readmit schedules; under steady traffic the two
//! are proportional anyway.

use crate::lock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Tuning knobs for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the circuit. `0` disables the
    /// breaker entirely (the backend is always admitted).
    pub failure_threshold: u32,
    /// Eligibility checks the circuit stays open before allowing one
    /// half-open probe.
    pub cooldown_requests: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, cooldown_requests: 8 }
    }
}

/// The observable state of a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Ejected: requests are routed elsewhere until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: the next request is admitted as a probe.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Lifetime counters of one circuit. Passive struct; fields are public.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Times the circuit opened (ejections from routing).
    pub trips: u64,
    /// Half-open probes admitted.
    pub probes: u64,
    /// Successful probes that closed the circuit again (readmissions).
    pub readmissions: u64,
    /// Eligibility checks rejected while the circuit was open.
    pub rejected: u64,
}

#[derive(Debug)]
enum Circuit {
    Closed { consecutive_failures: u32 },
    Open { remaining_cooldown: u32 },
    HalfOpen,
}

/// A consecutive-failure circuit breaker for one backend. See the
/// [module docs](self) for the state machine.
///
/// All methods take `&self`; the breaker is shared between the fleet's
/// worker threads.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    circuit: Mutex<Circuit>,
    trips: AtomicU64,
    probes: AtomicU64,
    readmissions: AtomicU64,
    rejected: AtomicU64,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker under `config`.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            circuit: Mutex::new(Circuit::Closed { consecutive_failures: 0 }),
            trips: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Asks whether a request may be sent to this backend right now.
    /// Counts one eligibility check: an open circuit consumes one tick
    /// of its cooldown (transitioning to half-open when it elapses), a
    /// half-open circuit admits the caller as the probe.
    pub fn admit(&self) -> bool {
        let mut circuit = lock(&self.circuit);
        match &mut *circuit {
            Circuit::Closed { .. } => true,
            Circuit::Open { remaining_cooldown } => {
                if *remaining_cooldown > 1 {
                    *remaining_cooldown -= 1;
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    false
                } else {
                    // Cooldown elapsed: this caller is the probe.
                    *circuit = Circuit::HalfOpen;
                    self.probes.fetch_add(1, Ordering::Relaxed);
                    true
                }
            }
            Circuit::HalfOpen => {
                // One probe outstanding already; everyone else waits.
                self.rejected.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Records the outcome of a request that was admitted. A success
    /// closes the circuit (readmission if it was a probe); a failure
    /// increments the consecutive count, opening the circuit at the
    /// threshold, and re-opens immediately from half-open.
    pub fn record(&self, success: bool) {
        if self.config.failure_threshold == 0 {
            return;
        }
        let mut circuit = lock(&self.circuit);
        match (&mut *circuit, success) {
            (Circuit::Closed { consecutive_failures }, true) => *consecutive_failures = 0,
            (Circuit::Closed { consecutive_failures }, false) => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.config.failure_threshold {
                    *circuit =
                        Circuit::Open { remaining_cooldown: self.config.cooldown_requests.max(1) };
                    self.trips.fetch_add(1, Ordering::Relaxed);
                }
            }
            (Circuit::HalfOpen, true) => {
                *circuit = Circuit::Closed { consecutive_failures: 0 };
                self.readmissions.fetch_add(1, Ordering::Relaxed);
            }
            (Circuit::HalfOpen, false) => {
                *circuit =
                    Circuit::Open { remaining_cooldown: self.config.cooldown_requests.max(1) };
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
            // A late result for a request admitted before the circuit
            // opened: the open/cooldown schedule is already in motion.
            (Circuit::Open { .. }, _) => {}
        }
    }

    /// The current state (for stats lines and tests).
    pub fn state(&self) -> BreakerState {
        match *lock(&self.circuit) {
            Circuit::Closed { .. } => BreakerState::Closed,
            Circuit::Open { .. } => BreakerState::Open,
            Circuit::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> BreakerStats {
        BreakerStats {
            trips: self.trips.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            readmissions: self.readmissions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let breaker =
            CircuitBreaker::new(BreakerConfig { failure_threshold: 3, cooldown_requests: 4 });
        for _ in 0..2 {
            assert!(breaker.admit());
            breaker.record(false);
            assert_eq!(breaker.state(), BreakerState::Closed);
        }
        // A success in between resets the consecutive count.
        assert!(breaker.admit());
        breaker.record(true);
        for _ in 0..2 {
            assert!(breaker.admit());
            breaker.record(false);
        }
        assert_eq!(breaker.state(), BreakerState::Closed, "non-consecutive failures don't trip");
        assert!(breaker.admit());
        breaker.record(false);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.stats().trips, 1);
    }

    #[test]
    fn half_open_probe_readmits_on_success() {
        let breaker =
            CircuitBreaker::new(BreakerConfig { failure_threshold: 1, cooldown_requests: 3 });
        assert!(breaker.admit());
        breaker.record(false);
        assert_eq!(breaker.state(), BreakerState::Open);

        // Cooldown: the first two checks are rejected, the third is the
        // probe.
        assert!(!breaker.admit());
        assert!(!breaker.admit());
        assert!(breaker.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // While the probe is outstanding nobody else gets in.
        assert!(!breaker.admit());

        breaker.record(true);
        assert_eq!(breaker.state(), BreakerState::Closed);
        let stats = breaker.stats();
        assert_eq!((stats.trips, stats.probes, stats.readmissions, stats.rejected), (1, 1, 1, 3));
        assert!(breaker.admit(), "readmitted backends serve again");
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let breaker =
            CircuitBreaker::new(BreakerConfig { failure_threshold: 1, cooldown_requests: 2 });
        assert!(breaker.admit());
        breaker.record(false);
        assert!(!breaker.admit());
        assert!(breaker.admit(), "probe");
        breaker.record(false);
        assert_eq!(breaker.state(), BreakerState::Open, "failed probe re-opens");
        assert_eq!(breaker.stats().trips, 2);
        assert!(!breaker.admit());
        assert!(breaker.admit(), "second probe after another cooldown");
        breaker.record(true);
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let breaker =
            CircuitBreaker::new(BreakerConfig { failure_threshold: 0, cooldown_requests: 2 });
        for _ in 0..10 {
            assert!(breaker.admit());
            breaker.record(false);
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.stats().trips, 0);
    }

    #[test]
    fn states_display_stably() {
        assert_eq!(BreakerState::Closed.to_string(), "closed");
        assert_eq!(BreakerState::Open.to_string(), "open");
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
    }
}
