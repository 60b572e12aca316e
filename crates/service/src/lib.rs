//! The serving layer: a sharded, concurrent plan cache plus a batched
//! optimization front-end for the decentralized service-ordering
//! optimizer.
//!
//! Real federated workloads re-optimize near-identical queries
//! constantly — the same pipeline with slowly drifting selectivity /
//! cost statistics. A single optimization is already fast; the next
//! multiplier is amortizing work *across* optimizations:
//!
//! * [`PlanCache`] — N shards keyed by the
//!   [`CanonicalKey`](dsq_core::CanonicalKey) fingerprint (quantized,
//!   sort-normalized instances share a key), per-shard locks, LRU
//!   eviction, and hit / miss / warm-start / eviction
//!   statistics. A bucket-hit **validates** the cached plan's bottleneck
//!   cost against the *exact* instance before returning it; a plan that
//!   drifted out of tolerance instead **warm-starts** the
//!   branch-and-bound via
//!   [`BnbConfig::initial_incumbent`](dsq_core::BnbConfig), which prunes
//!   most of the tree while preserving exact optimality.
//! * [`Planner`] — a name and a `plan` method, the one trait the
//!   batch fronts and the fleet client sit behind: [`ColdPlanner`]
//!   (fresh search per request), [`CachedPlanner`] (the cache semantics
//!   above), the wire-speaking `RemotePlanner` in `dsq-server`, and
//!   [`FleetPlanner`], which shards requests across N backends over a
//!   consistent-hash [`HashRing`] keyed by canonical fingerprint (each
//!   backend's LRU sees a disjoint, stable keyspace, and a resize remaps
//!   only ~1/N of it), fails over along ring successors, ejects flapping
//!   backends through per-backend [`CircuitBreaker`]s (readmitted only
//!   after a successful half-open probe), and falls back to a local
//!   planner when every backend is down. Counters stay where they are
//!   counted: the cache's in [`CacheStats`], the refinement pool's in
//!   [`TieredStats`], the fleet's routing in [`FleetStats`]. Membership
//!   is dynamic: a versioned [`FleetConfig`] file re-resolved by
//!   [`FleetMembership`] with atomic generation cutover.
//! * **Two-tier anytime planning** ([`TieredPlanner`]) — a key's first
//!   miss is answered immediately by the greedy heuristic (tier 1) and
//!   refined to the proven-optimal plan on a background worker that
//!   holds the key's single-flight until it writes back, so every later
//!   request for the key gets the exact plan; [`ServedPlan::tier`]
//!   reports what a response is worth ([`PlanTier::Exact`] plans are
//!   proven optimal).
//! * [`plan_batch`] — drains a request queue across a worker pool
//!   sharing one planner (for a cache-backed batch, a [`CachedPlanner`]),
//!   returning results in **request order** regardless of worker
//!   scheduling.
//! * **Multi-probe lookup** ([`CacheConfig::probes`]) — with two probes,
//!   a primary-grid miss additionally probes a half-bucket-shifted
//!   quantization grid, so a parameter walking across one bucket
//!   boundary (which flips the primary fingerprint on every crossing)
//!   keeps a single stable alias key.
//! * **Persistence** ([`PlanCache::snapshot`] / [`PlanCache::restore`])
//!   — the resident entries serialize to the versioned
//!   [`PlanSnapshot`](dsq_core::PlanSnapshot) text format (fingerprint,
//!   canonical plan, reference cost, and the representative instance
//!   text per entry), and restore re-verifies every fingerprint, so a
//!   restarted process — or a whole fleet — starts warm instead of
//!   cold. The `dsq-server` daemon builds its warm restarts on this.
//!
//! ```
//! use dsq_core::{BnbConfig, CommMatrix, QueryInstance, Service};
//! use dsq_service::{CacheConfig, PlanCache, ServeSource};
//!
//! let cache = PlanCache::new(CacheConfig::default());
//! let inst = QueryInstance::from_parts(
//!     vec![Service::new(1.0, 0.4), Service::new(0.3, 0.9)],
//!     CommMatrix::uniform(2, 0.2),
//! )?;
//! let cold = cache.serve(&inst, &BnbConfig::paper());
//! assert_eq!(cold.source, ServeSource::Cold);
//! let warm = cache.serve(&inst, &BnbConfig::paper());
//! assert_eq!(warm.source, ServeSource::CacheHit);
//! assert_eq!(warm.plan, cold.plan);
//! # Ok::<(), dsq_core::ModelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breaker;
mod cache;
pub mod membership;
mod planner;
pub mod ring;
mod tiered;

pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use cache::{
    CacheConfig, CacheStats, PendingServe, PlanCache, PlanTier, Probe, RestoreError, ServeSource,
    ServedPlan,
};
pub use membership::{FleetConfig, FleetConfigError, FleetMembership, FLEET_CONFIG_HEADER};
pub use planner::{
    plan_batch, CachedPlanner, ColdPlanner, EmptyFleetError, FleetPlanner, FleetStats, PlanError,
    Planner,
};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use tiered::{TieredPlanner, TieredStats};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, ignoring poison: the daemon catches planner panics and
/// keeps serving, so a poisoned shard would turn one caught panic into a
/// shard that fails on every later request.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::Mutex;

    #[test]
    fn lock_survives_a_panicking_holder() {
        let shard = Mutex::new(vec![1, 2]);
        let caught = std::panic::catch_unwind(|| {
            let mut guard = lock(&shard);
            guard.push(3);
            panic!("planner panicked while holding the shard");
        });
        assert!(caught.is_err() && shard.is_poisoned());
        lock(&shard).push(4);
        assert_eq!(*lock(&shard), [1, 2, 3, 4]);
    }
}
