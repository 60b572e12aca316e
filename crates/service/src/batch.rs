//! Batched optimization: the cache-backed convenience wrapper over the
//! generic [`plan_batch`](crate::plan_batch) worker pool.

use crate::cache::{PlanCache, ServedPlan};
use crate::planner::{plan_batch, CachedPlanner};
use dsq_core::{BnbConfig, QueryInstance};
use std::num::NonZeroUsize;

/// Options of one [`optimize_batch`] run. Passive struct; fields are
/// public.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads draining the request queue.
    pub workers: NonZeroUsize,
    /// Optimizer configuration applied to every request that needs a
    /// search (cold or warm).
    pub config: BnbConfig,
}

impl Default for BatchOptions {
    /// Four workers, paper configuration.
    fn default() -> Self {
        BatchOptions {
            workers: NonZeroUsize::new(4).expect("non-zero literal"),
            config: BnbConfig::paper(),
        }
    }
}

/// Serves a batch of instances through the shared cache across a pool of
/// worker threads, returning one [`ServedPlan`] per request **in request
/// order**. Concurrent misses on one fingerprint share a single search
/// (the cache's single-flight), so an exact-duplicate group costs exactly
/// one cold search and its other requests hit. Which request of the group
/// arrives first and pays that search depends on scheduling, so the
/// per-request [`ServeSource`](crate::ServeSource) attribution and search
/// statistics are not deterministic, though the counts are; for
/// **exact-duplicate** requests neither plans nor costs can vary, but
/// near-identical requests sharing a fingerprint may be served the plan
/// of whichever occurrence won the race — any such plan has passed
/// exact-instance validation, i.e. it is within the cache's tolerance,
/// not necessarily the same bits across runs.
///
/// The queue is a shared atomic index into `requests`; workers claim the
/// next unclaimed request until none is left, so an expensive request
/// never blocks the others (no static partitioning).
///
/// # Examples
///
/// ```
/// use dsq_core::{CommMatrix, QueryInstance, Service};
/// use dsq_service::{optimize_batch, BatchOptions, CacheConfig, PlanCache};
/// use std::num::NonZeroUsize;
///
/// let cache = PlanCache::new(CacheConfig::default());
/// let requests: Vec<QueryInstance> = (0..6)
///     .map(|k| {
///         QueryInstance::from_parts(
///             vec![Service::new(1.0, 0.4), Service::new(0.5 + 0.1 * (k % 2) as f64, 0.8)],
///             CommMatrix::uniform(2, 0.2),
///         )
///         .unwrap()
///     })
///     .collect();
/// // One worker serves the requests in order, so exactly the first
/// // occurrence of each of the two shapes misses.
/// let options = BatchOptions { workers: NonZeroUsize::new(1).unwrap(), ..Default::default() };
/// let results = optimize_batch(&cache, &requests, &options);
/// assert_eq!(results.len(), 6);
/// assert_eq!(cache.stats().hits, 4, "repeated shapes hit the cache");
/// ```
pub fn optimize_batch(
    cache: &PlanCache,
    requests: &[QueryInstance],
    options: &BatchOptions,
) -> Vec<ServedPlan> {
    let planner = CachedPlanner::new(cache, options.config.clone());
    plan_batch(&planner, requests, options.workers)
        .into_iter()
        .map(|result| result.expect("cached planners are infallible"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, ServeSource};
    use dsq_core::optimize;
    use dsq_workloads::{generate, Family};

    fn requests(n: usize, count: usize) -> Vec<QueryInstance> {
        // A handful of distinct shapes, cycled: plenty of cache traffic.
        (0..count).map(|k| generate(Family::Clustered, n, (k % 3) as u64)).collect()
    }

    fn options(workers: usize) -> BatchOptions {
        BatchOptions {
            workers: NonZeroUsize::new(workers).expect("non-zero"),
            ..BatchOptions::default()
        }
    }

    #[test]
    fn results_are_in_request_order_and_optimal() {
        let cache = PlanCache::new(CacheConfig::default());
        let batch = requests(7, 12);
        let results = optimize_batch(&cache, &batch, &options(4));
        assert_eq!(results.len(), batch.len());
        for (inst, served) in batch.iter().zip(&results) {
            let fresh = optimize(inst);
            assert_eq!(served.cost.to_bits(), fresh.cost().to_bits());
            assert_eq!(&served.plan, fresh.plan());
        }
        // 3 distinct shapes across 12 requests. Workers racing the same
        // not-yet-cached fingerprint wait for the one search in flight
        // and then hit, so exactly one cold search runs per shape.
        let stats = cache.stats();
        assert_eq!(stats.requests(), 12);
        assert_eq!((stats.misses, stats.hits, stats.warm_starts), (3, 9, 0));
    }

    #[test]
    fn worker_counts_do_not_change_plans_or_costs() {
        let batch = requests(6, 10);
        let reference =
            optimize_batch(&PlanCache::new(CacheConfig::default()), &batch, &options(1));
        for workers in [2usize, 4, 8] {
            let results =
                optimize_batch(&PlanCache::new(CacheConfig::default()), &batch, &options(workers));
            for (a, b) in reference.iter().zip(&results) {
                assert_eq!(a.plan, b.plan, "workers = {workers}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                assert_eq!(a.fingerprint, b.fingerprint);
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let cache = PlanCache::new(CacheConfig::default());
        assert!(optimize_batch(&cache, &[], &BatchOptions::default()).is_empty());
        assert_eq!(cache.stats().requests(), 0);
    }

    #[test]
    fn single_request_batches_serve_inline() {
        let cache = PlanCache::new(CacheConfig::default());
        let batch = requests(5, 1);
        let results = optimize_batch(&cache, &batch, &options(8));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].source, ServeSource::Cold);
    }
}
