//! The `Planner` seam: every way of turning a [`QueryInstance`] into a
//! served plan — cold optimization, the plan cache, a remote daemon, or
//! a whole fleet of them — sits behind one two-method trait (`name` and
//! `plan`), so [`plan_batch`], the fleet client and the experiments
//! share a single dispatch path. The daemon's workers do not go through
//! it: they finish a reactor-side probe with [`PlanCache::resume`].
//!
//! The trait carries no counters. Each one is stored where it is
//! counted: serving outcomes in the cache ([`crate::CacheStats`]),
//! refinements in the tiered pool ([`crate::TieredStats`]), routing in
//! the fleet ([`FleetStats`]) and a daemon's in its own `metrics`.
//!
//! Local implementations live here ([`ColdPlanner`], [`CachedPlanner`],
//! and the fingerprint-routing [`FleetPlanner`]); the wire-speaking
//! `RemotePlanner` lives in `dsq-server` (it needs the protocol client)
//! and plugs into [`FleetPlanner`] through the same trait.

use crate::breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::cache::{PlanCache, PlanTier, ServeSource, ServedPlan};
use crate::lock;
use crate::ring::HashRing;
use dsq_core::{optimize_with, BnbConfig, CanonicalKey, Quantization, QueryInstance};
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, OnceLock};

/// Error produced by a [`Planner`] that could not serve a request.
///
/// Local planners ([`ColdPlanner`], [`CachedPlanner`]) never fail; the
/// variants exist for remote and composite planners, and every variant
/// is a value — a planner must never panic on a malformed peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The backend's admission queue was full and the retry budget is
    /// exhausted; the hint is the server's last `retry-after-ms`.
    Busy {
        /// Backoff suggested by the backend, in milliseconds.
        retry_after_ms: u64,
    },
    /// The transport failed (connect, read, or write).
    Transport(String),
    /// The backend replied with bytes that are not a valid protocol
    /// response (malformed or truncated line, or a response that cannot
    /// carry a plan).
    Protocol(String),
    /// The backend answered with a protocol-level `error MESSAGE`.
    Backend(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Busy { retry_after_ms } => {
                write!(f, "backend busy (retry after {retry_after_ms} ms)")
            }
            PlanError::Transport(message) => write!(f, "transport error: {message}"),
            PlanError::Protocol(message) => write!(f, "protocol error: {message}"),
            PlanError::Backend(message) => write!(f, "backend error: {message}"),
        }
    }
}

impl Error for PlanError {}

/// Error from [`FleetPlanner::new`]: a fleet cannot be built over an
/// empty backend list (a zero-backend hash ring has no virtual nodes,
/// and no request could ever be served).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmptyFleetError;

impl fmt::Display for EmptyFleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a fleet needs at least one backend")
    }
}

impl Error for EmptyFleetError {}

/// One way of turning an instance into a plan: cold optimization, the
/// plan cache, a remote daemon, or a whole fleet of them sit behind this
/// one trait. It carries no counters: read them where they are counted
/// ([`crate::CacheStats`], [`crate::TieredStats`], [`FleetStats`]).
///
/// Implementations must be shareable across threads ([`plan_batch`]
/// drives one planner from a worker pool) and must report failures as
/// [`PlanError`] values, never panics.
pub trait Planner: Send + Sync {
    /// Short stable name for tables and logs (`cold`, `cached`,
    /// `remote(...)`, `fleet`).
    fn name(&self) -> &str;

    /// Serves one instance.
    ///
    /// # Errors
    ///
    /// [`PlanError`] when no plan could be produced; local planners are
    /// infallible and never return one.
    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError>;
}

impl<P: Planner + ?Sized> Planner for &P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        (**self).plan(instance)
    }
}

/// A [`Planner`] that optimizes every request from scratch — the
/// cache-off baseline, the CLI `optimize` path, and the local fallback a
/// [`FleetPlanner`] falls back on when every backend is down.
#[derive(Debug)]
pub struct ColdPlanner {
    config: BnbConfig,
}

impl ColdPlanner {
    /// A cold planner with the given optimizer configuration; it reports
    /// fingerprints under the default quantization.
    pub fn new(config: BnbConfig) -> Self {
        ColdPlanner { config }
    }
}

impl Planner for ColdPlanner {
    fn name(&self) -> &str {
        "cold"
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        let result = optimize_with(instance, &self.config);
        Ok(ServedPlan {
            plan: result.plan().clone(),
            cost: result.cost(),
            source: ServeSource::Cold,
            fingerprint: CanonicalKey::new(instance, &Quantization::default()).fingerprint(),
            tier: PlanTier::Exact,
            search: Some(result.stats().clone()),
        })
    }
}

/// A [`Planner`] over a shared [`PlanCache`]: validated hits, warm
/// starts, and cold searches with write-back — the serving semantics of
/// [`PlanCache::serve`], behind the trait. This is what `serve-batch`,
/// the `dsq-server` worker pool, and the harness soak experiments all
/// route through.
///
/// The planner borrows the cache, so several planners (one per worker
/// thread, say) can front the same cache; its counters are the cache's
/// own ([`PlanCache::stats`]).
#[derive(Debug)]
pub struct CachedPlanner<'a> {
    cache: &'a PlanCache,
    config: BnbConfig,
}

impl<'a> CachedPlanner<'a> {
    /// A planner serving through `cache`, optimizing (cold or warm) with
    /// `config`.
    pub fn new(cache: &'a PlanCache, config: BnbConfig) -> Self {
        CachedPlanner { cache, config }
    }
}

impl Planner for CachedPlanner<'_> {
    fn name(&self) -> &str {
        "cached"
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        Ok(self.cache.serve(instance, &self.config))
    }
}

/// Per-backend routing counters of a [`FleetPlanner`]. Passive struct;
/// fields are public.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests served by each backend, indexed like the constructor's
    /// backend list.
    pub per_backend: Vec<u64>,
    /// Requests that failed on their home backend and were served by
    /// another replica.
    pub failovers: u64,
    /// Requests served by the local fallback after every backend failed.
    pub fallbacks: u64,
    /// Requests that failed everywhere (returned a [`PlanError`]).
    pub errors: u64,
}

/// A [`Planner`] that shards requests across N backends by canonical
/// fingerprint and fails over when a backend cannot answer.
///
/// Routing is a consistent-hash ring ([`HashRing`]): each backend
/// (identified by its [`Planner::name`] label) owns the arcs clockwise
/// before its deterministic virtual nodes, and a request lands on the
/// owner of its canonical fingerprint's ring position. Near-identical
/// queries (same fingerprint under the routing quantization) always
/// land on the same backend, so each backend's LRU cache sees a
/// **disjoint, stable keyspace** — and because the ring only remaps
/// the arcs adjacent to a membership change, a fleet resize moves only
/// ~`1/N` of the keyspace instead of reshuffling all of it the way
/// `fingerprint % N` did.
///
/// When the home backend fails (busy after its retry budget, transport
/// error, protocol garbage), the request walks the remaining replicas
/// in ring-successor order; when every backend fails it lands on the
/// local fallback planner, if one is configured. Each backend also
/// carries a [`CircuitBreaker`]: after enough consecutive failures it
/// is ejected from routing entirely (no connect attempt at all) until
/// a half-open probe succeeds — see [`crate::breaker`].
pub struct FleetPlanner<'a> {
    backends: Vec<Box<dyn Planner + 'a>>,
    fallback: Option<Box<dyn Planner + 'a>>,
    quantization: Quantization,
    ring: HashRing,
    breakers: Vec<CircuitBreaker>,
    stats: Mutex<FleetStats>,
}

impl fmt::Debug for FleetPlanner<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetPlanner")
            .field("backends", &self.backends.len())
            .field("fallback", &self.fallback.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> FleetPlanner<'a> {
    /// A fleet over `backends`, routing by fingerprints taken under
    /// `quantization` (use the backends' cache quantization so routing
    /// and caching agree on which requests are near-identical).
    ///
    /// # Errors
    ///
    /// [`EmptyFleetError`] if `backends` is empty: a zero-backend ring
    /// has no virtual nodes, so the invalid topology is rejected at
    /// construction instead of failing on the first request.
    pub fn new(
        backends: Vec<Box<dyn Planner + 'a>>,
        quantization: Quantization,
    ) -> Result<Self, EmptyFleetError> {
        if backends.is_empty() {
            return Err(EmptyFleetError);
        }
        let labels: Vec<String> = backends.iter().map(|b| b.name().to_string()).collect();
        let per_backend = vec![0; backends.len()];
        let breakers =
            backends.iter().map(|_| CircuitBreaker::new(BreakerConfig::default())).collect();
        Ok(FleetPlanner {
            ring: HashRing::new(&labels),
            breakers,
            backends,
            fallback: None,
            quantization,
            stats: Mutex::new(FleetStats { per_backend, ..FleetStats::default() }),
        })
    }

    /// Adds a local fallback serving requests no backend could answer
    /// (typically a [`ColdPlanner`]).
    #[must_use]
    pub fn with_fallback(mut self, fallback: Box<dyn Planner + 'a>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// Replaces every backend's circuit breaker with fresh ones under
    /// `config` (use `failure_threshold: 0` to disable health ejection).
    #[must_use]
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breakers = self.backends.iter().map(|_| CircuitBreaker::new(config)).collect();
        self
    }

    /// Replaces the ring labels (one per backend, same order as the
    /// constructor's backend list) and rebuilds the routing ring.
    ///
    /// By default a backend's ring identity is its [`Planner::name`],
    /// which for remote backends embeds the socket address — correct
    /// for a production fleet whose membership is a stable address
    /// list, but run-dependent in tests whose temp-dir socket paths
    /// change per process. Fixed labels make the keyspace split
    /// reproducible.
    ///
    /// # Panics
    ///
    /// If `labels` does not provide exactly one label per backend.
    #[must_use]
    pub fn with_ring_labels(mut self, labels: &[String]) -> Self {
        assert_eq!(
            labels.len(),
            self.backends.len(),
            "ring labels must map one-to-one onto the fleet's backends"
        );
        self.ring = HashRing::new(labels);
        self
    }

    /// The home backend index a request routes to: the consistent-hash
    /// owner of its canonical fingerprint (health state not applied —
    /// this is pure ring position).
    pub fn route(&self, instance: &QueryInstance) -> usize {
        let fingerprint = CanonicalKey::new(instance, &self.quantization).fingerprint();
        self.ring.route(fingerprint)
    }

    /// A snapshot of the routing counters.
    pub fn fleet_stats(&self) -> FleetStats {
        lock(&self.stats).clone()
    }

    /// Per-backend circuit-breaker counters, indexed like the
    /// constructor's backend list.
    pub fn breaker_stats(&self) -> Vec<BreakerStats> {
        self.breakers.iter().map(CircuitBreaker::stats).collect()
    }

    /// Per-backend circuit states, indexed like the constructor's
    /// backend list.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.breakers.iter().map(CircuitBreaker::state).collect()
    }
}

impl Planner for FleetPlanner<'_> {
    fn name(&self) -> &str {
        "fleet"
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        let fingerprint = CanonicalKey::new(instance, &self.quantization).fingerprint();
        let home = self.ring.route(fingerprint);
        let mut last_error: Option<PlanError> = None;
        for backend in self.ring.successors(fingerprint) {
            // An open circuit ejects the backend from routing entirely:
            // no connect attempt, the request walks straight on to the
            // next ring successor (or admits itself as the half-open
            // probe once the cooldown has elapsed).
            if !self.breakers[backend].admit() {
                continue;
            }
            match self.backends[backend].plan(instance) {
                Ok(served) => {
                    self.breakers[backend].record(true);
                    let mut stats = lock(&self.stats);
                    stats.per_backend[backend] += 1;
                    stats.failovers += u64::from(backend != home);
                    return Ok(served);
                }
                Err(error) => {
                    self.breakers[backend].record(false);
                    last_error = Some(error);
                }
            }
        }
        if let Some(fallback) = &self.fallback {
            match fallback.plan(instance) {
                Ok(served) => {
                    lock(&self.stats).fallbacks += 1;
                    return Ok(served);
                }
                Err(error) => last_error = Some(error),
            }
        }
        lock(&self.stats).errors += 1;
        // With every circuit open and no fallback, no backend was even
        // tried — still a typed error, never a panic.
        Err(last_error.unwrap_or_else(|| {
            PlanError::Backend("every backend is ejected by its circuit breaker".to_string())
        }))
    }
}

/// Serves a batch of instances through any [`Planner`] across a pool of
/// worker threads, returning one result per request **in request
/// order**. The queue is a shared index into `requests`, drained until
/// empty, so an expensive request never blocks the others (no static
/// partitioning).
///
/// With a [`CachedPlanner`], concurrent misses on one fingerprint share a
/// single search (the cache's single-flight), so an exact-duplicate group
/// costs exactly one cold search and its other requests hit. Which
/// request of the group arrives first and pays that search depends on
/// scheduling, so the per-request [`ServeSource`] attribution and search
/// statistics are not deterministic, though the counts are; for
/// **exact-duplicate** requests neither plans nor costs can vary, but
/// near-identical requests sharing a fingerprint may be served the plan
/// of whichever occurrence won the race — any such plan has passed
/// exact-instance validation, i.e. it is within the cache's tolerance,
/// not necessarily the same bits across runs.
///
/// # Examples
///
/// ```
/// use dsq_core::{BnbConfig, CommMatrix, QueryInstance, Service};
/// use dsq_service::{plan_batch, CacheConfig, CachedPlanner, PlanCache};
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
/// let planner = CachedPlanner::new(&cache, BnbConfig::paper());
/// let results = plan_batch(&planner, &requests, NonZeroUsize::new(1).unwrap());
/// assert_eq!(results.len(), 6);
/// assert_eq!(cache.stats().hits, 4, "repeated shapes hit the cache");
/// ```
pub fn plan_batch<P: Planner + ?Sized>(
    planner: &P,
    requests: &[QueryInstance],
    workers: NonZeroUsize,
) -> Vec<Result<ServedPlan, PlanError>> {
    if requests.is_empty() {
        return Vec::new();
    }
    let workers = workers.get().min(requests.len());
    if workers <= 1 {
        return requests.iter().map(|instance| planner.plan(instance)).collect();
    }

    // The work queue is just the next unclaimed request index; a worker
    // that pops one plans it without holding anything.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<OnceLock<Result<ServedPlan, PlanError>>> =
        (0..requests.len()).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(instance) = requests.get(index) else { break };
                // Each index is claimed exactly once, so the slot is empty.
                let _ = results[index].set(planner.plan(instance));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every request produces exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use dsq_core::optimize;
    use dsq_workloads::{generate, Family};
    use std::sync::atomic::{AtomicBool, AtomicU64};

    fn instance(seed: u64) -> QueryInstance {
        generate(Family::Clustered, 6, seed)
    }

    #[test]
    fn cold_planner_matches_optimize() {
        let planner = ColdPlanner::new(BnbConfig::paper());
        for seed in 0..3 {
            let inst = instance(seed);
            let served = planner.plan(&inst).expect("cold planners are infallible");
            let fresh = optimize(&inst);
            assert_eq!(served.cost.to_bits(), fresh.cost().to_bits());
            assert_eq!(&served.plan, fresh.plan());
            assert_eq!(served.source, ServeSource::Cold);
            assert!(served.search.expect("cold runs a search").proven_optimal);
        }
        assert_eq!(planner.name(), "cold");
    }

    #[test]
    fn cached_planner_serves_through_the_shared_cache() {
        let cache = PlanCache::new(CacheConfig::default());
        let planner = CachedPlanner::new(&cache, BnbConfig::paper());
        let inst = instance(1);
        let cold = planner.plan(&inst).expect("plans");
        assert_eq!(cold.source, ServeSource::Cold);
        let hit = planner.plan(&inst).expect("plans");
        assert_eq!(hit.source, ServeSource::CacheHit);
        assert_eq!(hit.plan, cold.plan);
        let stats = cache.stats();
        assert_eq!((stats.requests(), stats.hits, stats.misses), (2, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A scripted backend for fleet tests: serves through a cold planner
    /// unless told to fail, and counts every request that reaches it.
    struct Scripted {
        label: String,
        inner: ColdPlanner,
        attempts: AtomicU64,
        down: AtomicBool,
        busy: AtomicBool,
    }

    impl Scripted {
        fn new(label: &str) -> Self {
            Scripted {
                label: label.to_string(),
                inner: ColdPlanner::new(BnbConfig::paper()),
                attempts: AtomicU64::new(0),
                down: AtomicBool::new(false),
                busy: AtomicBool::new(false),
            }
        }
    }

    impl Planner for Scripted {
        fn name(&self) -> &str {
            &self.label
        }

        fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            if self.down.load(Ordering::Relaxed) {
                return Err(PlanError::Transport("scripted outage".into()));
            }
            if self.busy.load(Ordering::Relaxed) {
                return Err(PlanError::Busy { retry_after_ms: 10 });
            }
            self.inner.plan(instance)
        }
    }

    fn fleet_of<'a>(backends: &'a [Scripted]) -> FleetPlanner<'a> {
        let boxed: Vec<Box<dyn Planner + 'a>> =
            backends.iter().map(|b| Box::new(b) as Box<dyn Planner + 'a>).collect();
        FleetPlanner::new(boxed, Quantization::default()).expect("non-empty backend list")
    }

    #[test]
    fn fleet_routes_by_fingerprint_deterministically() {
        let backends = [Scripted::new("a"), Scripted::new("b")];
        let fleet = fleet_of(&backends);
        let requests: Vec<QueryInstance> = (0..12).map(instance).collect();
        let homes: Vec<usize> = requests.iter().map(|r| fleet.route(r)).collect();
        for (request, &home) in requests.iter().zip(&homes) {
            assert_eq!(fleet.route(request), home, "routing is stable");
            let served = fleet.plan(request).expect("fleet serves");
            let fresh = optimize(request);
            assert_eq!(served.cost.to_bits(), fresh.cost().to_bits());
        }
        let stats = fleet.fleet_stats();
        assert_eq!(stats.per_backend.iter().sum::<u64>(), 12);
        for (backend, &count) in stats.per_backend.iter().enumerate() {
            let expected = homes.iter().filter(|&&h| h == backend).count() as u64;
            assert_eq!(count, expected, "backend {backend} serves exactly its partition");
        }
        assert_eq!((stats.failovers, stats.fallbacks, stats.errors), (0, 0, 0));
    }

    #[test]
    fn fleet_fails_over_to_the_next_replica() {
        let backends = [Scripted::new("a"), Scripted::new("b")];
        let fleet = fleet_of(&backends);
        let request = instance(3);
        let home = fleet.route(&request);
        backends[home].down.store(true, Ordering::Relaxed);
        let served = fleet.plan(&request).expect("the other replica answers");
        assert_eq!(served.cost.to_bits(), optimize(&request).cost().to_bits());
        let stats = fleet.fleet_stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.per_backend[home], 0);
        assert_eq!(stats.per_backend[1 - home], 1);
    }

    #[test]
    fn fleet_falls_back_locally_when_every_backend_is_down() {
        let backends = [Scripted::new("a"), Scripted::new("b")];
        for backend in &backends {
            backend.busy.store(true, Ordering::Relaxed);
        }
        let boxed: Vec<Box<dyn Planner + '_>> =
            backends.iter().map(|b| Box::new(b) as Box<dyn Planner + '_>).collect();
        let fleet = FleetPlanner::new(boxed, Quantization::default())
            .expect("non-empty backend list")
            .with_fallback(Box::new(ColdPlanner::new(BnbConfig::paper())));
        let request = instance(5);
        let served = fleet.plan(&request).expect("local fallback answers");
        assert_eq!(served.source, ServeSource::Cold);
        assert_eq!(served.cost.to_bits(), optimize(&request).cost().to_bits());
        let stats = fleet.fleet_stats();
        assert_eq!((stats.fallbacks, stats.errors), (1, 0));
        assert_eq!(stats.per_backend, vec![0, 0]);
    }

    #[test]
    fn fleet_without_fallback_surfaces_the_last_error() {
        let backends = [Scripted::new("a"), Scripted::new("b")];
        backends[0].down.store(true, Ordering::Relaxed);
        backends[1].busy.store(true, Ordering::Relaxed);
        let fleet = fleet_of(&backends);
        let request = instance(7);
        let error = fleet.plan(&request).expect_err("everything is down");
        // The last replica tried reported busy or transport, depending
        // on routing; either way it is a typed error, not a panic.
        assert!(matches!(error, PlanError::Busy { .. } | PlanError::Transport(_)));
        let stats = fleet.fleet_stats();
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn flapping_backend_is_ejected_and_readmitted() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let backends = [Scripted::new("a"), Scripted::new("b")];
        let fleet = fleet_of(&backends)
            .with_breaker(BreakerConfig { failure_threshold: 2, cooldown_requests: 3 });
        // A request homed on each backend (routing is deterministic).
        let requests: Vec<QueryInstance> = (0..20).map(instance).collect();
        let homed_on = |backend: usize| {
            requests
                .iter()
                .find(|r| fleet.route(r) == backend)
                .cloned()
                .expect("20 seeds cover both partitions")
        };
        let flapper = 0usize;
        let on_flapper = homed_on(flapper);
        backends[flapper].down.store(true, Ordering::Relaxed);

        // Two failures trip the breaker; both requests still complete
        // via failover to the healthy replica.
        for _ in 0..2 {
            fleet.plan(&on_flapper).expect("failover serves");
        }
        assert_eq!(fleet.breaker_states()[flapper], BreakerState::Open);
        assert_eq!(fleet.breaker_stats()[flapper].trips, 1);

        // While ejected, homed requests go straight to the replica with
        // no attempt on the flapper — each check ticking the cooldown.
        // Check 3 of the cooldown admits a probe, which fails (still
        // down) and re-opens: the probe is the flapper's only attempt.
        let before = backends[flapper].attempts.load(Ordering::Relaxed);
        for _ in 0..2 {
            fleet.plan(&on_flapper).expect("replica serves while ejected");
        }
        let attempts = backends[flapper].attempts.load(Ordering::Relaxed);
        assert_eq!(attempts, before, "no attempts while open");
        fleet.plan(&on_flapper).expect("replica serves after the failed probe");
        let attempts = backends[flapper].attempts.load(Ordering::Relaxed);
        assert_eq!(attempts, before + 1, "the half-open probe is one attempt");
        assert_eq!(fleet.breaker_stats()[flapper].trips, 2, "failed probe re-opens");

        // Backend recovers; after the cooldown the next probe succeeds
        // and the backend is readmitted to routing.
        backends[flapper].down.store(false, Ordering::Relaxed);
        for _ in 0..3 {
            fleet.plan(&on_flapper).expect("serves");
        }
        assert_eq!(fleet.breaker_states()[flapper], BreakerState::Closed);
        assert_eq!(fleet.breaker_stats()[flapper].readmissions, 1);
        let served = fleet.plan(&on_flapper).expect("readmitted home serves");
        assert_eq!(served.cost.to_bits(), optimize(&on_flapper).cost().to_bits());
        let stats = fleet.fleet_stats();
        assert!(stats.per_backend[flapper] >= 1, "home serves again after readmission");
        assert_eq!(stats.errors, 0, "every request completed despite the flapping");
    }

    #[test]
    fn all_circuits_open_yields_a_typed_error_or_fallback() {
        use crate::breaker::BreakerConfig;
        let backends = [Scripted::new("a"), Scripted::new("b")];
        for backend in &backends {
            backend.down.store(true, Ordering::Relaxed);
        }
        let fleet = fleet_of(&backends)
            .with_breaker(BreakerConfig { failure_threshold: 1, cooldown_requests: 100 });
        let request = instance(2);
        // First request trips both breakers (home fails, successor fails).
        assert!(fleet.plan(&request).is_err());
        // Now every circuit is open: no backend is tried at all, and the
        // fleet still returns a typed error.
        let error = fleet.plan(&request).expect_err("everything ejected");
        assert_eq!(
            error,
            PlanError::Backend("every backend is ejected by its circuit breaker".to_string())
        );
    }

    /// The consistent-hash property the whole PR rests on: growing the
    /// fleet by one backend leaves the surviving backends' partitions
    /// in place — only keys claimed by the joiner move.
    #[test]
    fn growing_the_fleet_keeps_surviving_partitions() {
        let two = [Scripted::new("a"), Scripted::new("b")];
        let three = [Scripted::new("a"), Scripted::new("b"), Scripted::new("c")];
        let before = fleet_of(&two);
        let after = fleet_of(&three);
        let requests: Vec<QueryInstance> = (0..24).map(instance).collect();
        let mut stayed = 0;
        for request in &requests {
            let old_home = before.route(request);
            let new_home = after.route(request);
            if new_home == 2 {
                continue; // claimed by the joiner
            }
            assert_eq!(new_home, old_home, "surviving keys never change owner");
            stayed += 1;
        }
        assert!(
            stayed * 2 >= requests.len(),
            "at least (N-1)/N of keys stay put, saw {stayed}/{}",
            requests.len()
        );
    }

    /// Regression: an empty backend list used to take down the caller
    /// with a panic (and without the guard, a zero-backend ring
    /// would have no virtual nodes to route to). It is now a typed
    /// constructor error callers can handle.
    #[test]
    fn empty_fleets_are_rejected_with_a_typed_error() {
        let error = FleetPlanner::new(Vec::new(), Quantization::default())
            .expect_err("zero backends must be rejected");
        assert_eq!(error, EmptyFleetError);
        assert_eq!(error.to_string(), "a fleet needs at least one backend");
    }

    #[test]
    fn plan_batch_preserves_request_order_for_any_planner() {
        let planner = ColdPlanner::new(BnbConfig::paper());
        let requests: Vec<QueryInstance> = (0..10).map(|s| instance(s % 4)).collect();
        let results = plan_batch(&planner, &requests, NonZeroUsize::new(4).expect("non-zero"));
        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(results) {
            let served = result.expect("cold planners are infallible");
            assert_eq!(served.cost.to_bits(), optimize(request).cost().to_bits());
        }
        assert!(plan_batch(&planner, &[], NonZeroUsize::new(4).expect("non-zero")).is_empty());
    }

    /// A cached batch: a handful of distinct clustered shapes, cycled.
    fn cached_requests(n: usize, count: usize) -> Vec<QueryInstance> {
        (0..count).map(|k| generate(Family::Clustered, n, (k % 3) as u64)).collect()
    }

    /// Serves `requests` through `cache` with `workers` workers.
    fn plan_cached(
        cache: &PlanCache,
        requests: &[QueryInstance],
        workers: usize,
    ) -> Vec<ServedPlan> {
        let planner = CachedPlanner::new(cache, BnbConfig::paper());
        plan_batch(&planner, requests, NonZeroUsize::new(workers).expect("non-zero"))
            .into_iter()
            .map(|result| result.expect("cached planners are infallible"))
            .collect()
    }

    #[test]
    fn cached_batch_is_in_request_order_and_searches_each_shape_once() {
        let cache = PlanCache::new(CacheConfig::default());
        let batch = cached_requests(7, 12);
        let results = plan_cached(&cache, &batch, 4);
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
    fn cached_batch_plans_do_not_depend_on_the_worker_count() {
        let batch = cached_requests(6, 10);
        let reference = plan_cached(&PlanCache::new(CacheConfig::default()), &batch, 1);
        for workers in [2usize, 4, 8] {
            let results = plan_cached(&PlanCache::new(CacheConfig::default()), &batch, workers);
            for (a, b) in reference.iter().zip(&results) {
                assert_eq!(a.plan, b.plan, "workers = {workers}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                assert_eq!(a.fingerprint, b.fingerprint);
            }
        }
    }

    #[test]
    fn cached_empty_batch_is_a_no_op() {
        let cache = PlanCache::new(CacheConfig::default());
        assert!(plan_cached(&cache, &[], 4).is_empty());
        assert_eq!(cache.stats().requests(), 0);
    }

    #[test]
    fn cached_batch_of_one_request_serves_it_cold() {
        let cache = PlanCache::new(CacheConfig::default());
        let results = plan_cached(&cache, &cached_requests(5, 1), 8);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].source, ServeSource::Cold);
    }

    #[test]
    fn plan_error_displays_are_stable() {
        assert_eq!(
            PlanError::Busy { retry_after_ms: 40 }.to_string(),
            "backend busy (retry after 40 ms)"
        );
        assert_eq!(PlanError::Transport("refused".into()).to_string(), "transport error: refused");
        assert_eq!(PlanError::Protocol("bad line".into()).to_string(), "protocol error: bad line");
        assert_eq!(PlanError::Backend("no".into()).to_string(), "backend error: no");
    }
}
