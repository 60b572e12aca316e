//! Two-tier anytime planning: answer cache misses **immediately** from
//! a greedy heuristic (tier 1), refine them to proven-optimal plans on
//! a bounded background worker pool, and upgrade the cache entry in
//! place when the refinement lands (tier 2).
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
//! — same keys, same exact plans — while every miss was answered at
//! heuristic latency.
//!
//! Serving semantics ([`TieredPlanner::plan`]):
//!
//! * **hit on an exact entry** — identical to the cached planner:
//!   validated plan, [`PlanTier::Exact`], `optimality_gap: Some(0.0)`.
//! * **hit on a still-heuristic entry** — the plan is served as
//!   [`PlanTier::Heuristic`] with an unknown gap, and a refinement is
//!   (re-)enqueued in case the original job was dropped by the bounded
//!   queue.
//! * **miss** — the greedy plan is returned immediately at
//!   [`PlanTier::Heuristic`], written back as a heuristic-tier entry,
//!   and a refinement job (instance + incumbent) is enqueued.
//! * **stale hit (out of validation tolerance)** — the exact search
//!   runs in line, warm-started from the cached plan, exactly as in the
//!   cached planner: a stale entry proves the key is hot, so the warm
//!   start doubles as its refinement.
//!
//! [`Planner::drain`] blocks until the refinement queue is empty, which
//! makes convergence deterministic for tests, snapshots, and batch runs:
//! after `drain`, every resident entry that was served this session is
//! exact, and [`PlanCache::snapshot`] (which skips heuristic-tier
//! entries) persists the full working set.

use crate::cache::{PendingServe, PlanCache, PlanTier, Probe, ServedPlan};
use crate::planner::{PlanError, Planner, PlannerStats};
use dsq_baselines::fast_greedy;
use dsq_core::{optimize_with, BnbConfig, Plan, QueryInstance};
use std::collections::{HashSet, VecDeque};
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Knobs of the background refinement pool. Passive struct; fields are
/// public.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieredConfig {
    /// Background worker threads running exact refinements.
    pub refine_workers: NonZeroUsize,
    /// Maximum queued refinement jobs; beyond it, new jobs are dropped
    /// (counted in [`TieredStats::refine_dropped`]) — a hit on the
    /// still-heuristic entry re-enqueues them once the queue drains.
    pub queue_capacity: usize,
}

impl Default for TieredConfig {
    /// One refinement worker, 256 queued jobs.
    fn default() -> Self {
        TieredConfig {
            refine_workers: NonZeroUsize::new(1).expect("non-zero literal"),
            queue_capacity: 256,
        }
    }
}

/// Counters of the tiered serve path and its refinement pool. Passive
/// struct; fields are public.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TieredStats {
    /// Requests answered at the heuristic tier (fresh misses plus hits
    /// on entries whose refinement had not landed yet).
    pub heuristic_served: u64,
    /// Refinements that completed and upgraded their cache entry.
    pub refined: u64,
    /// Refinement jobs skipped at dequeue because the entry was already
    /// exact (a warm start beat the worker to it) or had been evicted.
    pub refine_skipped: u64,
    /// Refinement jobs dropped because the bounded queue was full.
    pub refine_dropped: u64,
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

/// One queued refinement: the miss instance and the heuristic plan that
/// answered it (the search incumbent).
#[derive(Debug)]
struct RefineJob {
    instance: QueryInstance,
    incumbent: Plan,
    heuristic_cost: f64,
    fingerprint: u64,
}

/// Queue state and counters, all under one lock (every transition is
/// cheap; the exact searches run outside it).
#[derive(Debug, Default)]
struct RefineState {
    jobs: VecDeque<RefineJob>,
    /// Fingerprints queued **or** currently being refined — dedupes
    /// repeat misses and heuristic-tier hits on the same key.
    pending: HashSet<u64>,
    in_flight: usize,
    shutdown: bool,
    stats: TieredStats,
}

#[derive(Debug)]
struct RefineShared {
    cache: Arc<PlanCache>,
    config: BnbConfig,
    queue_capacity: usize,
    state: Mutex<RefineState>,
    /// Signaled when a job is enqueued or shutdown begins.
    work: Condvar,
    /// Signaled when the pool goes idle (queue empty, nothing in
    /// flight) — what [`Planner::drain`] waits on.
    idle: Condvar,
}

/// The two-tier anytime planner: heuristic answers on miss, bounded
/// background exact refinement, in-place cache upgrades. A miss returns
/// the greedy plan at once and queues its refinement; a hit on a
/// still-heuristic entry re-queues it; a stale hit runs the exact
/// search in line, warm-started from the cached plan.
#[derive(Debug)]
pub struct TieredPlanner {
    shared: Arc<RefineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl TieredPlanner {
    /// A tiered planner over `cache`, refining with `config` and the
    /// default pool ([`TieredConfig::default`]).
    ///
    /// The cache is shared (`Arc`) rather than borrowed because the
    /// refinement workers are real threads that outlive any borrow the
    /// serving side could grant.
    pub fn new(cache: Arc<PlanCache>, config: BnbConfig) -> Self {
        TieredPlanner::with_config(cache, config, TieredConfig::default())
    }

    /// A tiered planner with an explicit pool configuration.
    pub fn with_config(cache: Arc<PlanCache>, config: BnbConfig, tiered: TieredConfig) -> Self {
        let shared = Arc::new(RefineShared {
            cache,
            config,
            queue_capacity: tiered.queue_capacity,
            state: Mutex::new(RefineState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..tiered.refine_workers.get())
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || refine_loop(&shared))
            })
            .collect();
        TieredPlanner { shared, workers }
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
    /// cache left pending: a miss is answered by the greedy heuristic, a
    /// hit on a still-heuristic entry is counted and served, a stale
    /// entry warm-starts in line. Every heuristic-tier answer
    /// (re-)enqueues its refinement. `instance` must be the one probed.
    pub fn resume(&self, instance: &QueryInstance, pending: PendingServe) -> ServedPlan {
        let served =
            self.shared.cache.resume_heuristic(instance, pending, &self.shared.config, |inst| {
                let greedy = fast_greedy(inst);
                (greedy.plan().clone(), greedy.cost())
            });
        if served.tier == PlanTier::Heuristic {
            self.enqueue(instance, &served);
        }
        served
    }

    fn enqueue(&self, instance: &QueryInstance, served: &ServedPlan) {
        let mut state = self.shared.state.lock().expect("refine state lock");
        state.stats.heuristic_served += 1;
        if state.shutdown || state.pending.contains(&served.fingerprint) {
            return;
        }
        if state.jobs.len() >= self.shared.queue_capacity {
            state.stats.refine_dropped += 1;
            return;
        }
        state.pending.insert(served.fingerprint);
        state.jobs.push_back(RefineJob {
            instance: instance.clone(),
            incumbent: served.plan.clone(),
            heuristic_cost: served.cost,
            fingerprint: served.fingerprint,
        });
        drop(state);
        self.shared.work.notify_one();
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

    fn stats(&self) -> PlannerStats {
        let cache = self.shared.cache.stats();
        let tiered = self.tiered_stats();
        PlannerStats {
            served: cache.requests(),
            hits: cache.hits,
            warm_starts: cache.warm_starts,
            cold: cache.misses,
            heuristic: tiered.heuristic_served,
            refined: tiered.refined,
            max_refined_gap: tiered.max_gap,
            ..PlannerStats::default()
        }
    }

    /// Blocks until every queued refinement has landed (queue empty and
    /// no job in flight). After `drain`, the cache holds exact plans for
    /// every key served this session that was not evicted or dropped.
    fn drain(&self) -> Result<(), PlanError> {
        let mut state = self.shared.state.lock().expect("refine state lock");
        while !state.shutdown && (!state.jobs.is_empty() || state.in_flight > 0) {
            state = self.shared.idle.wait(state).expect("refine state lock");
        }
        Ok(())
    }
}

impl Drop for TieredPlanner {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("refine state lock");
            state.shutdown = true;
        }
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

        // Search outside the lock. Skip the work entirely when the entry
        // was upgraded (warm start) or evicted since the job was queued.
        let refined = if shared.cache.needs_refinement(job.fingerprint) {
            let config = shared.config.clone().with_initial_incumbent(job.incumbent.clone());
            let result = optimize_with(&job.instance, &config);
            shared.cache.upgrade(&job.instance, result.plan(), result.cost());
            let denom = result.cost().abs().max(f64::MIN_POSITIVE);
            let gap = ((job.heuristic_cost - result.cost()) / denom).max(0.0);
            Some((gap, result.stats().nodes_visited))
        } else {
            None
        };

        let mut state = shared.state.lock().expect("refine state lock");
        match refined {
            Some((gap, nodes)) => {
                state.stats.refined += 1;
                state.stats.gap_sum += gap;
                state.stats.max_gap = state.stats.max_gap.max(gap);
                state.stats.refine_nodes += nodes;
            }
            None => state.stats.refine_skipped += 1,
        }
        state.pending.remove(&job.fingerprint);
        state.in_flight -= 1;
        if state.jobs.is_empty() && state.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, ServeSource};
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
        assert_eq!(first.optimality_gap, None);

        planner.drain().expect("drain is infallible");
        let second = planner.plan(&inst).expect("plans");
        assert_eq!(second.source, ServeSource::CacheHit, "refined entry hits");
        assert_eq!(second.tier, PlanTier::Exact, "refinement upgraded the entry in place");
        assert_eq!(second.optimality_gap, Some(0.0));
        let fresh = optimize(&inst);
        assert_eq!(second.cost.to_bits(), fresh.cost().to_bits());
        assert_eq!(&second.plan, fresh.plan());

        let tiered = planner.tiered_stats();
        assert_eq!(tiered.refined, 1);
        assert_eq!(tiered.heuristic_served, 1);
        assert!(tiered.max_gap >= 0.0);
        let stats = planner.stats();
        assert_eq!((stats.served, stats.hits, stats.cold), (2, 1, 1));
        assert_eq!((stats.heuristic, stats.refined), (1, 1));
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
        planner.drain().expect("drain is infallible");
        assert_eq!(planner.tiered_stats().refined, 8);
        for inst in &instances {
            let served = planner.plan(inst).expect("plans");
            assert_eq!(served.source, ServeSource::CacheHit);
            assert_eq!(served.tier, PlanTier::Exact);
            assert_eq!(served.cost.to_bits(), optimize(inst).cost().to_bits());
        }
    }

    #[test]
    fn repeat_misses_on_one_key_dedupe_to_one_refinement() {
        // Queue capacity 0: every refinement is dropped, so the entry
        // stays heuristic and each hit re-attempts an enqueue.
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let planner = TieredPlanner::with_config(
            cache,
            BnbConfig::paper(),
            TieredConfig { queue_capacity: 0, ..TieredConfig::default() },
        );
        let inst = instance(2);
        for _ in 0..4 {
            let served = planner.plan(&inst).expect("plans");
            assert_eq!(served.tier, PlanTier::Heuristic, "dropped refinement leaves tier 1");
        }
        planner.drain().expect("drain is infallible");
        let tiered = planner.tiered_stats();
        assert_eq!(tiered.refined, 0);
        assert_eq!(tiered.refine_dropped, 4);
        assert_eq!(tiered.heuristic_served, 4);
        assert_eq!(planner.cache().stats().heuristic_entries, 1);
    }

    /// A hit on a still-heuristic entry is never the probe's answer (a
    /// daemon probing on its reactor hands it to a worker): the resume
    /// counts it once, serves it at tier 1 and re-enqueues its
    /// refinement.
    #[test]
    fn heuristic_tier_hits_resume_once_and_re_enqueue_their_refinement() {
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        // Refinements dropped: the miss leaves a heuristic-tier entry.
        let stalled = TieredPlanner::with_config(
            Arc::clone(&cache),
            BnbConfig::paper(),
            TieredConfig { queue_capacity: 0, ..TieredConfig::default() },
        );
        let inst = instance(3);
        assert_eq!(stalled.plan(&inst).expect("plans").tier, PlanTier::Heuristic);
        assert_eq!(stalled.tiered_stats().refine_dropped, 1);

        let planner = TieredPlanner::new(Arc::clone(&cache), BnbConfig::paper());
        let Probe::Pending(pending) = cache.probe(&inst) else {
            panic!("a heuristic-tier entry must not be the probe's answer")
        };
        assert_eq!(cache.stats().hits, 0, "the probe counts nothing");
        let served = planner.resume(&inst, pending);
        assert_eq!((served.source, served.tier), (ServeSource::CacheHit, PlanTier::Heuristic));
        assert_eq!(cache.stats().hits, 1, "the resume counts the hit once");
        planner.drain().expect("drain is infallible");
        let tiered = planner.tiered_stats();
        assert_eq!((tiered.heuristic_served, tiered.refined, tiered.refine_dropped), (1, 1, 0));

        // Refined: now the probe answers, as an exact-tier hit.
        let Probe::Hit(hit) = cache.probe(&inst) else { panic!("the refined entry must hit") };
        assert_eq!(hit.tier, PlanTier::Exact);
        assert_eq!(hit.cost.to_bits(), optimize(&inst).cost().to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_starts), (2, 1, 0));
        assert_eq!(planner.tiered_stats().heuristic_served, 1, "exact hits are not tier 1");
    }

    #[test]
    fn snapshots_skip_unrefined_entries_until_drain() {
        let instances: Vec<QueryInstance> = (0..3).map(instance).collect();

        // With refinement suppressed (queue capacity 0) every entry
        // stays heuristic, and the snapshot must not persist any of
        // them: a restored cache cannot tell the tiers apart.
        let unrefined = Arc::new(PlanCache::new(CacheConfig::default()));
        let stalled = TieredPlanner::with_config(
            Arc::clone(&unrefined),
            BnbConfig::paper(),
            TieredConfig { queue_capacity: 0, ..TieredConfig::default() },
        );
        for inst in &instances {
            stalled.plan(inst).expect("plans");
        }
        stalled.drain().expect("drain is infallible");
        assert_eq!(unrefined.stats().entries, 3, "heuristic entries are resident");
        assert_eq!(unrefined.snapshot().entries.len(), 0, "but never persisted");

        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let planner = TieredPlanner::new(Arc::clone(&cache), BnbConfig::paper());
        for inst in &instances {
            planner.plan(inst).expect("plans");
        }
        planner.drain().expect("drain is infallible");
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
