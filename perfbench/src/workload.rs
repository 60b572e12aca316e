//! The three workloads and the inputs each one derives from its seed.
//!
//! The daemon only ever sees the generated instance text; everything
//! here is a pure function of `(workload, seed, window lengths)`.

use crate::stats::{child_seed, SplitMix};
use dsq_core::QueryInstance;
use dsq_service::CacheConfig;
use dsq_workloads::{generate, DriftConfig, DriftStream, Family};
use std::borrow::Cow;
use std::fmt;

/// Services per generated instance, on every workload.
pub const SERVICES: usize = 12;

/// Drifted requests generated for `hot-drift`'s open-ended closed-loop
/// window; request ids past them wrap around (a multiple of the drift
/// stream's eight base queries, so each id keeps its base).
const HOT_CYCLE: usize = 16_000;

/// Distinct base queries in the `burst-churn` working set.
const CHURN_BASES: usize = 24;

/// Distinct base queries a `burst-churn` burst draws (each sent twice).
const CHURN_BASES_PER_BURST: usize = 4;

/// A benchmark workload; see `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, strict request/response, drifting repeats.
    HotDrift,
    /// Closed loop, 4-deep window, never-repeating btsp-hard instances.
    ColdBtsp,
    /// Open-loop Poisson bursts of 8 over a working set larger than the cache.
    BurstChurn,
}

/// How a workload offers its load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Requests fall due on a Poisson schedule at `rate` per second and
    /// leave in bursts of `burst` at the last member's due time.
    OpenLoop {
        /// Mean arrival rate of requests, per second.
        rate: f64,
        /// Requests per pipelined burst (1: strict request/response).
        burst: usize,
    },
    /// `depth` requests stay outstanding; each response releases the next.
    ClosedLoop {
        /// Requests kept in flight.
        depth: usize,
    },
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::HotDrift, Workload::ColdBtsp, Workload::BurstChurn];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotDrift => "hot-drift",
            Workload::ColdBtsp => "cold-btsp",
            Workload::BurstChurn => "burst-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The load the window offers.
    pub fn mode(self) -> Mode {
        match self {
            // Closed loops keep the daemon's threads busy. In an open
            // loop with idle gaps the virtual CPUs halt between
            // requests, and each request then pays a wake-up whose
            // cost follows the host's load, not the program.
            Workload::HotDrift => Mode::ClosedLoop { depth: 1 },
            // Four in flight keep the single worker searching through a
            // delayed wake-up of the reactor or of the generator.
            Workload::ColdBtsp => Mode::ClosedLoop { depth: 4 },
            Workload::BurstChurn => Mode::OpenLoop { rate: 400.0, burst: 8 },
        }
    }

    /// Requests kept in flight while warming the cache up (closed loop).
    pub fn warmup_depth(self) -> usize {
        match self.mode() {
            Mode::OpenLoop { burst, .. } => burst,
            Mode::ClosedLoop { depth } => depth,
        }
    }

    /// Requests in the warm-up pass that fills the cache before timing.
    pub fn warmup_requests(self) -> usize {
        match self {
            // Eight cold bases, then drifted repeats until new keys are
            // rare: the drift walk reverts to its base, so the set of
            // keys it reaches stops growing.
            Workload::HotDrift => 4000,
            // Enough cold inserts that the cache is at capacity and the
            // window pays for evictions.
            Workload::ColdBtsp => 640,
            Workload::BurstChurn => 128,
        }
    }

    /// `dsq serve` flags besides the socket.
    pub fn daemon_flags(self) -> Vec<&'static str> {
        match self {
            Workload::HotDrift | Workload::ColdBtsp => vec!["--workers", "1"],
            Workload::BurstChurn => vec!["--workers", "2", "--shards", "2", "--capacity", "8"],
        }
    }

    /// The cache configuration those flags give the daemon, for the
    /// in-process mirror cache and the output check.
    pub fn cache_config(self) -> CacheConfig {
        // `dsq serve` defaults to two probes (see `ServerConfig`).
        let daemon = CacheConfig { probes: 2, ..CacheConfig::default() };
        match self {
            Workload::HotDrift | Workload::ColdBtsp => daemon,
            Workload::BurstChurn => CacheConfig { shards: 2, capacity_per_shard: 8, ..daemon },
        }
    }

    /// The one-line reason the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotDrift => {
                "hit path only: encode, reactor, parse, canonical key, probe+validate, flush"
            }
            Workload::ColdBtsp => "every request is a cold B&B search, insert and eviction",
            Workload::BurstChurn => {
                "hits, misses, evictions and concurrent identical misses under pipelined bursts"
            }
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Poisson arrival offsets (seconds) at `rate` per second over
/// `seconds`, deterministic in `seed`; at least one arrival.
pub fn poisson_offsets(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    let mut offsets = Vec::new();
    let mut at = 0.0;
    loop {
        // Inverse-CDF sampling; 1-u keeps ln away from zero.
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at > seconds && !offsets.is_empty() {
            return offsets;
        }
        offsets.push(at);
    }
}

/// Due time of each member of each burst: the **last** member's
/// scheduled arrival, so no member is timed from before it was sent.
pub fn burst_due(offsets: &[f64], burst: usize) -> Vec<f64> {
    offsets
        .chunks(burst)
        .flat_map(|chunk| {
            let due = chunk[chunk.len() - 1];
            std::iter::repeat_n(due, chunk.len())
        })
        .collect()
}

/// One timed window: requests `first..first + due.len()` fall due at
/// these offsets (open loop), or start at `first` (closed loop, where
/// `due` is empty and the window runs for `seconds`).
#[derive(Debug, Clone)]
pub struct Window {
    /// Id of the window's first request.
    pub first: usize,
    /// Due offset in seconds from the window's start, per request.
    pub due: Vec<f64>,
    /// Length of the window.
    pub seconds: f64,
}

/// Everything a run sends: the warm-up requests (ids `0..warmup`), then
/// each window's.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Warm-up request count.
    pub warmup: usize,
    /// Timed windows in order.
    pub windows: Vec<Window>,
    /// Pre-generated instances by id (open-loop workloads only; the
    /// closed loop generates instances on demand, see [`Inputs::instance`]).
    instances: Vec<QueryInstance>,
}

impl Inputs {
    /// The inputs for `workload` under `seed`, with one window per entry
    /// of `window_seconds`.
    pub fn new(workload: Workload, seed: u64, window_seconds: &[f64]) -> Inputs {
        let warmup = workload.warmup_requests();
        let mut windows = Vec::new();
        let mut first = warmup;
        for (k, &seconds) in window_seconds.iter().enumerate() {
            let due = match workload.mode() {
                Mode::OpenLoop { rate, burst } => {
                    let mut offsets =
                        poisson_offsets(rate, seconds, child_seed(seed, 1000 + k as u64));
                    let whole = offsets.len() / burst * burst;
                    offsets.truncate(whole.max(burst));
                    burst_due(&offsets, burst)
                }
                // Closed-loop ids are open-ended; the caller reports
                // where each window stopped.
                Mode::ClosedLoop { .. } => Vec::new(),
            };
            first += due.len();
            windows.push(Window { first: first - due.len(), due, seconds });
        }
        let total = first;
        let instances = match workload {
            Workload::HotDrift => DriftStream::new(DriftConfig::new(
                Family::Clustered,
                SERVICES,
                seed,
                total + HOT_CYCLE,
            ))
            .collect(),
            Workload::BurstChurn => churn_instances(seed, total),
            Workload::ColdBtsp => Vec::new(),
        };
        Inputs { workload, seed, warmup, windows, instances }
    }

    /// The instance request `id` carries.
    pub fn instance(&self, id: usize) -> Cow<'_, QueryInstance> {
        match self.workload {
            Workload::ColdBtsp => {
                Cow::Owned(generate(Family::BtspHard, SERVICES, child_seed(self.seed, id as u64)))
            }
            Workload::HotDrift if id >= self.warmup => {
                Cow::Borrowed(&self.instances[self.warmup + (id - self.warmup) % HOT_CYCLE])
            }
            _ => Cow::Borrowed(&self.instances[id]),
        }
    }
}

/// `total` requests in bursts of 8: each burst draws four distinct base
/// queries out of [`CHURN_BASES`] and carries two consecutive drifted
/// occurrences of each, side by side, so the two copies of a missing
/// base are concurrent identical misses on a two-worker daemon.
fn churn_instances(seed: u64, total: usize) -> Vec<QueryInstance> {
    let mut rng = SplitMix::new(child_seed(seed, 7));
    let mut bases_per_slot = Vec::with_capacity(total);
    while bases_per_slot.len() < total {
        let mut chosen: Vec<usize> = Vec::with_capacity(CHURN_BASES_PER_BURST);
        while chosen.len() < CHURN_BASES_PER_BURST {
            let base = rng.below(CHURN_BASES);
            if !chosen.contains(&base) {
                chosen.push(base);
            }
        }
        for base in chosen {
            bases_per_slot.extend([base, base]);
        }
    }
    bases_per_slot.truncate(total);
    // The drift stream is round-robin: occurrence j of base b is
    // element j * CHURN_BASES + b.
    let mut uses = [0usize; CHURN_BASES];
    for &base in &bases_per_slot {
        uses[base] += 1;
    }
    let rounds = uses.iter().copied().max().unwrap_or(0);
    let config = DriftConfig {
        queries: CHURN_BASES,
        ..DriftConfig::new(Family::Clustered, SERVICES, seed, rounds * CHURN_BASES)
    };
    let stream: Vec<QueryInstance> = DriftStream::new(config).collect();
    let mut next = [0usize; CHURN_BASES];
    bases_per_slot
        .into_iter()
        .map(|base| {
            let occurrence = next[base];
            next[base] += 1;
            stream[occurrence * CHURN_BASES + base].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn poisson_offsets_are_increasing_and_near_rate() {
        let offsets = poisson_offsets(1000.0, 2.0, 3);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        assert!((1800..2200).contains(&offsets.len()), "{}", offsets.len());
        assert!(*offsets.last().unwrap() <= 2.0);
        assert_eq!(offsets, poisson_offsets(1000.0, 2.0, 3));
    }

    /// Every member of a burst is due when the burst leaves: its last
    /// member's arrival, never an earlier member's.
    #[test]
    fn bursts_are_due_at_their_last_member() {
        let due = burst_due(&[1.0, 2.0, 3.0, 4.0, 5.0], 2);
        assert_eq!(due, vec![2.0, 2.0, 4.0, 4.0, 5.0]);
        let offsets = poisson_offsets(400.0, 1.0, 9);
        for (chunk, due) in offsets.chunks(8).zip(burst_due(&offsets, 8).chunks(8)) {
            assert!(due.iter().all(|&d| d == chunk[chunk.len() - 1]));
            assert!(chunk.iter().all(|&member| member <= due[0]));
        }
    }

    #[test]
    fn inputs_are_deterministic_and_windows_follow_warmup() {
        let a = Inputs::new(Workload::HotDrift, 5, &[0.2, 0.1]);
        let b = Inputs::new(Workload::HotDrift, 5, &[0.2, 0.1]);
        assert_eq!(a.windows[0].first, a.warmup);
        assert_eq!(a.windows[1].first, a.warmup + a.windows[0].due.len());
        let last = a.windows[1].first + a.windows[1].due.len() - 1;
        assert_eq!(a.instance(last), b.instance(last));
        let hot = Inputs::new(Workload::HotDrift, 5, &[0.1]);
        let wrapped = hot.warmup + HOT_CYCLE + 3;
        assert_eq!(hot.instance(wrapped), hot.instance(hot.warmup + 3));
        assert_ne!(hot.instance(hot.warmup + 3), hot.instance(3));
        let cold = Inputs::new(Workload::ColdBtsp, 5, &[0.1]);
        assert_eq!(cold.instance(3), cold.instance(3));
        assert_ne!(cold.instance(3), cold.instance(4));
    }

    #[test]
    fn churn_bursts_pair_each_base_with_a_drifted_copy() {
        let inputs = Inputs::new(Workload::BurstChurn, 11, &[0.1]);
        let window = &inputs.windows[0];
        assert_eq!(window.due.len() % 8, 0);
        for start in (window.first..window.first + window.due.len()).step_by(8) {
            let burst: Vec<QueryInstance> =
                (start..start + 8).map(|id| inputs.instance(id).into_owned()).collect();
            for pair in burst.chunks(2) {
                assert_eq!(pair[0].comm(), pair[1].comm(), "same base query");
                assert_ne!(pair[0], pair[1], "drifted between occurrences");
            }
        }
    }
}
