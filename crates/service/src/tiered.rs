//! Two-tier anytime planning: answer a key's first miss **immediately**
//! from a greedy heuristic (tier 1), refine it to the proven-optimal
//! plan on a bounded background worker pool, and write the exact plan
//! back when the refinement lands (tier 2).
//!
//! A cold exact search costs hundreds of microseconds and grows with n;
//! the cubic greedy ordering from `dsq-baselines`
//! ([`fast_greedy`](dsq_baselines::fast_greedy), the best of the two
//! `O(n³)` rules — the quartic look-ahead rule is deliberately skipped
//! at this tier) costs tens of microseconds and is precedence-feasible
//! by construction. Crucially,
//! the heuristic plan is a *free incumbent* for the branch-and-bound
//! ([`BnbConfig::with_initial_incumbent`](dsq_core::BnbConfig)): the
//! background refinement starts with a near-optimal bound ρ and prunes
//! far more of the tree than the cold search the miss would otherwise
//! have paid in line. The steady state therefore converges to exactly
//! the cache a [`CachedPlanner`](crate::CachedPlanner) would have built
//! — same keys, same exact plans — while every first miss was answered
//! at heuristic latency.
//!
//! Serving semantics ([`TieredPlanner::plan`]). A heuristic-tier entry
//! is only a *possible* optimum, so the cache treats it like a stale
//! entry; the refinement holds its key's single-flight, as a cold
//! search does:
//!
//! * **hit on an exact entry** — identical to the cached planner:
//!   validated plan, [`PlanTier::Exact`].
//! * **miss** — the request leads its key's flight, answers with the
//!   greedy plan at [`PlanTier::Heuristic`], writes it back as a
//!   heuristic-tier entry, and hands the flight to a refinement job.
//!   If the bounded queue is full, it runs that search in line instead
//!   and answers exactly; a tier-1 answer always has its refinement
//!   queued.
//! * **any request while its key's refinement runs** — waits for the
//!   flight, then hits the exact plan. Which answer a repeat gets never
//!   depends on how the threads are timed.
//! * **stale hit (out of validation tolerance)**, or a heuristic-tier
//!   entry whose refinement never landed — the exact search runs in
//!   line, warm-started from the cached plan, exactly as in the cached
//!   planner.
//!
//! [`TieredPlanner::drain`] blocks until the refinement queue is empty,
//! which makes convergence deterministic for tests, snapshots, and batch
//! runs: after `drain`, every resident entry that was served this
//! session is exact, and [`PlanCache::snapshot`] (which skips
//! heuristic-tier entries) persists the full working set.

use crate::cache::{PendingServe, PlanCache, Probe, Refinement, ServedPlan};
use crate::planner::{PlanError, Planner};
use dsq_core::{BnbConfig, QueryInstance};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Background worker threads running exact refinements.
const REFINE_WORKERS: usize = 1;

/// Maximum queued refinements; a miss that finds the queue full runs its
/// exact search in line.
const QUEUE_CAPACITY: usize = 256;

/// Counters of the tiered serve path and its refinement pool. Passive
/// struct; fields are public.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TieredStats {
    /// Requests answered at the heuristic tier: misses whose refinement
    /// was queued.
    pub heuristic_served: u64,
    /// Refinements that completed and wrote their exact plan back.
    pub refined: u64,
    /// Largest relative optimality gap among refined plans:
    /// `(heuristic cost − exact cost) / exact cost`.
    pub max_gap: f64,
    /// Sum of the relative gaps of all refined plans (divide by
    /// [`refined`](Self::refined) for the mean).
    pub gap_sum: f64,
    /// Branch-and-bound nodes visited across all refinement searches —
    /// compare against cold-search node counts to see the incumbent
    /// warm start paying off.
    pub refine_nodes: u64,
}

impl TieredStats {
    /// Mean relative gap among refined plans; `0.0` before the first
    /// refinement lands.
    pub fn mean_gap(&self) -> f64 {
        if self.refined == 0 {
            0.0
        } else {
            self.gap_sum / self.refined as f64
        }
    }
}

/// Queue state and counters, all under one lock (every transition is
/// cheap; the exact searches run outside it).
#[derive(Debug, Default)]
struct RefineState {
    jobs: VecDeque<Refinement>,
    in_flight: usize,
    shutdown: bool,
    stats: TieredStats,
}

#[derive(Debug)]
struct RefineShared {
    cache: Arc<PlanCache>,
    config: BnbConfig,
    state: Mutex<RefineState>,
    /// Signaled when a job is enqueued or shutdown begins.
    work: Condvar,
    /// Signaled when the pool goes idle (queue empty, nothing in
    /// flight) — what [`TieredPlanner::drain`] waits on.
    idle: Condvar,
}

/// The two-tier anytime planner: heuristic answers on a key's first
/// miss, bounded background exact refinement that holds the key's
/// single-flight until it writes back, so every later request for the
/// key is answered exactly.
#[derive(Debug)]
pub struct TieredPlanner {
    shared: Arc<RefineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl TieredPlanner {
    /// A tiered planner over `cache`, refining with `config` on one
    /// background worker.
    ///
    /// The cache is shared (`Arc`) rather than borrowed because the
    /// refinement workers are real threads that outlive any borrow the
    /// serving side could grant.
    pub fn new(cache: Arc<PlanCache>, config: BnbConfig) -> Self {
        let shared = Arc::new(RefineShared {
            cache,
            config,
            state: Mutex::new(RefineState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..REFINE_WORKERS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || refine_loop(&shared))
            })
            .collect();
        TieredPlanner { shared, workers }
    }

    /// Blocks until every queued refinement has landed (queue empty and
    /// no job in flight). After `drain`, the cache holds exact plans for
    /// every key served this session that was not evicted.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock().expect("refine state lock");
        while !state.shutdown && (!state.jobs.is_empty() || state.in_flight > 0) {
            state = self.shared.idle.wait(state).expect("refine state lock");
        }
    }

    /// The cache this planner serves through and refines into.
    pub fn cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// A snapshot of the tier counters.
    pub fn tiered_stats(&self) -> TieredStats {
        self.shared.state.lock().expect("refine state lock").stats
    }

    /// Finishes a serve that [`PlanCache::probe`] on this planner's
    /// cache left pending: a miss that leads its key's flight is
    /// answered by the greedy heuristic and queues its refinement; a
    /// request whose key is being refined waits for the exact plan; a
    /// stale entry warm-starts in line. `instance` must be the one
    /// probed.
    pub fn resume(&self, instance: &QueryInstance, pending: PendingServe) -> ServedPlan {
        self.shared.cache.resume_tiered(instance, pending, &self.shared.config, |refinement| {
            let mut state = self.shared.state.lock().expect("refine state lock");
            if state.shutdown || state.jobs.len() >= QUEUE_CAPACITY {
                // Handed back: the miss runs its search in line.
                return Some(refinement);
            }
            state.stats.heuristic_served += 1;
            state.jobs.push_back(refinement);
            drop(state);
            self.shared.work.notify_one();
            None
        })
    }
}

impl Planner for TieredPlanner {
    fn name(&self) -> &str {
        "tiered"
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        Ok(match self.shared.cache.probe(instance) {
            Probe::Hit(served) => served,
            Probe::Pending(pending) => self.resume(instance, pending),
        })
    }
}

impl Drop for TieredPlanner {
    fn drop(&mut self) {
        // Refinements that never ran release their flights as they drop,
        // so no request waits on a stopped pool (their entries stay
        // heuristic, and the next request for such a key warm-starts).
        let unrun = {
            let mut state = self.shared.state.lock().expect("refine state lock");
            state.shutdown = true;
            std::mem::take(&mut state.jobs)
        };
        drop(unrun);
        self.shared.work.notify_all();
        self.shared.idle.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn refine_loop(shared: &RefineShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("refine state lock");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = state.jobs.pop_front() {
                    state.in_flight += 1;
                    break job;
                }
                state = shared.work.wait(state).expect("refine state lock");
            }
        };

        // Search outside the lock; the write-back releases the key's
        // flight, waking the requests that waited for the exact plan.
        let heuristic_cost = job.heuristic_cost;
        let refined = job.run(&shared.cache, &shared.config);
        let denom = refined.cost.abs().max(f64::MIN_POSITIVE);
        let gap = ((heuristic_cost - refined.cost) / denom).max(0.0);
        let nodes = refined.search.map_or(0, |search| search.nodes_visited);

        let mut state = shared.state.lock().expect("refine state lock");
        state.stats.refined += 1;
        state.stats.gap_sum += gap;
        state.stats.max_gap = state.stats.max_gap.max(gap);
        state.stats.refine_nodes += nodes;
        state.in_flight -= 1;
        if state.jobs.is_empty() && state.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, PlanTier, ServeSource};
    use dsq_core::optimize;
    use dsq_workloads::{generate, Family};

    fn instance(seed: u64) -> QueryInstance {
        generate(Family::Clustered, 7, seed)
    }

    fn tiered_over(capacity: usize) -> TieredPlanner {
        let cache = Arc::new(PlanCache::new(CacheConfig {
            capacity_per_shard: capacity,
            ..CacheConfig::default()
        }));
        TieredPlanner::new(cache, BnbConfig::paper())
    }

    #[test]
    fn miss_answers_heuristic_then_refinement_upgrades_in_place() {
        let planner = tiered_over(64);
        let inst = instance(1);
        let first = planner.plan(&inst).expect("tiered planners are infallible");
        assert_eq!(first.source, ServeSource::Cold);
        assert_eq!(first.tier, PlanTier::Heuristic);

        planner.drain();
        let second = planner.plan(&inst).expect("plans");
        assert_eq!(second.source, ServeSource::CacheHit, "refined entry hits");
        assert_eq!(second.tier, PlanTier::Exact, "the refinement wrote the exact plan back");
        let fresh = optimize(&inst);
        assert_eq!(second.cost.to_bits(), fresh.cost().to_bits());
        assert_eq!(&second.plan, fresh.plan());

        let tiered = planner.tiered_stats();
        assert_eq!(tiered.refined, 1);
        assert_eq!(tiered.heuristic_served, 1);
        assert!(tiered.max_gap >= 0.0);
        let stats = planner.cache().stats();
        assert_eq!((stats.requests(), stats.hits, stats.misses), (2, 1, 1));
        assert_eq!(planner.cache().stats().heuristic_entries, 0, "nothing left to refine");
    }

    #[test]
    fn drain_converges_the_whole_working_set_to_exact() {
        let planner = tiered_over(64);
        let instances: Vec<QueryInstance> = (0..8).map(instance).collect();
        for inst in &instances {
            let served = planner.plan(inst).expect("plans");
            assert_eq!(served.tier, PlanTier::Heuristic);
        }
        planner.drain();
        assert_eq!(planner.tiered_stats().refined, 8);
        for inst in &instances {
            let served = planner.plan(inst).expect("plans");
            assert_eq!(served.source, ServeSource::CacheHit);
            assert_eq!(served.tier, PlanTier::Exact);
            assert_eq!(served.cost.to_bits(), optimize(inst).cost().to_bits());
        }
    }

    /// Repeats issued back to back, with no drain between them, wait for
    /// the first request's refinement instead of racing it: only the
    /// first is answered at tier 1, and every repeat hits the exact plan.
    #[test]
    fn repeat_misses_on_one_key_dedupe_to_one_refinement() {
        let planner = tiered_over(64);
        let inst = instance(2);
        let exact = optimize(&inst);
        let first = planner.plan(&inst).expect("plans");
        assert_eq!((first.source, first.tier), (ServeSource::Cold, PlanTier::Heuristic));
        for _ in 0..3 {
            let repeat = planner.plan(&inst).expect("plans");
            assert_eq!((repeat.source, repeat.tier), (ServeSource::CacheHit, PlanTier::Exact));
            assert_eq!(repeat.cost.to_bits(), exact.cost().to_bits());
            assert_eq!(&repeat.plan, exact.plan());
        }
        planner.drain();
        let tiered = planner.tiered_stats();
        assert_eq!((tiered.heuristic_served, tiered.refined), (1, 1));
        let stats = planner.cache().stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_starts), (3, 1, 0));
    }

    #[test]
    fn drained_snapshots_persist_the_working_set_as_exact() {
        let instances: Vec<QueryInstance> = (0..3).map(instance).collect();
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let planner = TieredPlanner::new(Arc::clone(&cache), BnbConfig::paper());
        for inst in &instances {
            planner.plan(inst).expect("plans");
        }
        planner.drain();
        // Everything refined: the snapshot persists the working set and
        // restores to exact-tier hits.
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.entries.len(), 3);
        let restored = Arc::new(PlanCache::new(CacheConfig::default()));
        restored.restore(&snapshot).expect("restores");
        let warm = TieredPlanner::new(restored, BnbConfig::paper());
        for inst in &instances {
            let served = warm.plan(inst).expect("plans");
            assert_eq!(served.source, ServeSource::CacheHit);
            assert_eq!(served.tier, PlanTier::Exact, "restored entries are exact");
        }
    }
}
