//! The `Planner` seam: every way of turning a [`QueryInstance`] into a
//! served plan — cold optimization, the plan cache, a remote daemon, or
//! a whole fleet of them — sits behind one trait, so batch fronts,
//! servers, experiments, and the CLI share a single dispatch path
//! instead of re-implementing the cache-check → cold-optimize → insert
//! sequence per entry point.
//!
//! Local implementations live here ([`ColdPlanner`], [`CachedPlanner`],
//! and the fingerprint-routing [`FleetPlanner`]); the wire-speaking
//! `RemotePlanner` lives in `dsq-server` (it needs the protocol client)
//! and plugs into [`FleetPlanner`] through the same trait.

use crate::breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::cache::{PlanCache, PlanTier, ServeSource, ServedPlan};
use crate::lock;
use crate::ring::HashRing;
use dsq_core::{
    optimize_parallel, optimize_with, BnbConfig, CanonicalKey, Quantization, QueryInstance,
};
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Aggregate counters every [`Planner`] reports, regardless of how it
/// obtains plans. Passive struct; fields are public.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlannerStats {
    /// Requests that produced a served plan.
    pub served: u64,
    /// The subset of [`served`](Self::served) answered by a validated
    /// cache hit (local or on the remote backend).
    pub hits: u64,
    /// The subset answered by a warm-started search.
    pub warm_starts: u64,
    /// The subset answered by a cold search.
    pub cold: u64,
    /// Requests that ended in a [`PlanError`] (after any internal
    /// retries and failovers).
    pub errors: u64,
    /// Busy replies absorbed by retrying (remote planners).
    pub retries: u64,
    /// Requests re-routed to another backend after their home backend
    /// failed (fleet planners).
    pub failovers: u64,
    /// Requests served by the local fallback after every backend failed
    /// (fleet planners).
    pub fallbacks: u64,
    /// The subset of [`served`](Self::served) answered at the heuristic
    /// tier (tiered planners; `0` everywhere else).
    pub heuristic: u64,
    /// Background refinements that landed, upgrading a heuristic cache
    /// entry to its exact plan (tiered planners).
    pub refined: u64,
    /// Largest relative optimality gap observed among refined heuristic
    /// plans: `(heuristic cost − exact cost) / exact cost`.
    pub max_refined_gap: f64,
}

impl PlannerStats {
    /// Fraction of served requests answered by a cache hit; `0.0`
    /// before any request.
    pub fn hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.hits as f64 / self.served as f64
        }
    }

    fn record(&mut self, served: &ServedPlan) {
        self.served += 1;
        match served.source {
            ServeSource::CacheHit => self.hits += 1,
            ServeSource::WarmStart => self.warm_starts += 1,
            ServeSource::Cold => self.cold += 1,
        }
        self.heuristic += u64::from(served.tier == PlanTier::Heuristic);
    }
}

/// One way of turning an instance into a plan: cold optimization, the
/// plan cache, a remote daemon, or a whole fleet of them sit behind this
/// one trait, so every entry point shares a single dispatch path.
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

    /// A snapshot of the planner's counters.
    fn stats(&self) -> PlannerStats;

    /// Flushes or tears down whatever the planner holds open (remote
    /// connections, nothing for local planners). Serving may continue
    /// afterwards; connections re-open lazily.
    ///
    /// # Errors
    ///
    /// [`PlanError`] when a teardown step fails; the default is a no-op.
    fn drain(&self) -> Result<(), PlanError> {
        Ok(())
    }
}

impl<P: Planner + ?Sized> Planner for &P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        (**self).plan(instance)
    }

    fn stats(&self) -> PlannerStats {
        (**self).stats()
    }

    fn drain(&self) -> Result<(), PlanError> {
        (**self).drain()
    }
}

/// A [`Planner`] that optimizes every request from scratch — the
/// cache-off baseline, the CLI `optimize` path, and the local fallback a
/// [`FleetPlanner`] falls back on when every backend is down.
#[derive(Debug)]
pub struct ColdPlanner {
    config: BnbConfig,
    threads: NonZeroUsize,
    quantization: Quantization,
    served: AtomicU64,
}

impl ColdPlanner {
    /// A sequential cold planner with the given optimizer configuration
    /// and the default fingerprint quantization.
    pub fn new(config: BnbConfig) -> Self {
        ColdPlanner {
            config,
            threads: NonZeroUsize::new(1).expect("non-zero literal"),
            quantization: Quantization::default(),
            served: AtomicU64::new(0),
        }
    }

    /// Optimizes with `threads` workers (`optimize_parallel`) instead of
    /// sequentially.
    #[must_use]
    pub fn with_threads(mut self, threads: NonZeroUsize) -> Self {
        self.threads = threads;
        self
    }

    /// Fingerprints requests under `quantization` (only the reported
    /// [`ServedPlan::fingerprint`] changes; plans never depend on it).
    #[must_use]
    pub fn with_quantization(mut self, quantization: Quantization) -> Self {
        self.quantization = quantization;
        self
    }
}

impl Planner for ColdPlanner {
    fn name(&self) -> &str {
        "cold"
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        let result = if self.threads.get() > 1 {
            optimize_parallel(instance, &self.config, self.threads)
        } else {
            optimize_with(instance, &self.config)
        };
        self.served.fetch_add(1, Ordering::Relaxed);
        Ok(ServedPlan {
            plan: result.plan().clone(),
            cost: result.cost(),
            source: ServeSource::Cold,
            fingerprint: CanonicalKey::new(instance, &self.quantization).fingerprint(),
            tier: PlanTier::Exact,
            optimality_gap: Some(0.0),
            search: Some(result.stats().clone()),
        })
    }

    fn stats(&self) -> PlannerStats {
        let served = self.served.load(Ordering::Relaxed);
        PlannerStats { served, cold: served, ..PlannerStats::default() }
    }
}

/// A [`Planner`] over a shared [`PlanCache`]: validated hits, warm
/// starts, and cold searches with write-back — the serving semantics of
/// [`PlanCache::serve`], behind the trait. This is what `serve-batch`,
/// the `dsq-server` worker pool, and the harness soak experiments all
/// route through.
///
/// The planner borrows the cache, so several planners (one per worker
/// thread, say) can front the same cache; counters live in the cache and
/// are therefore shared too.
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

    /// The cache this planner serves through.
    pub fn cache(&self) -> &'a PlanCache {
        self.cache
    }
}

impl Planner for CachedPlanner<'_> {
    fn name(&self) -> &str {
        "cached"
    }

    fn plan(&self, instance: &QueryInstance) -> Result<ServedPlan, PlanError> {
        Ok(self.cache.serve(instance, &self.config))
    }

    fn stats(&self) -> PlannerStats {
        let cache = self.cache.stats();
        PlannerStats {
            served: cache.requests(),
            hits: cache.hits,
            warm_starts: cache.warm_starts,
            cold: cache.misses,
            ..PlannerStats::default()
        }
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

#[derive(Debug, Default)]
struct FleetCounters {
    planner: PlannerStats,
    fleet: FleetStats,
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
    labels: Vec<String>,
    breakers: Vec<CircuitBreaker>,
    counters: Mutex<FleetCounters>,
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
            labels,
            breakers,
            backends,
            fallback: None,
            quantization,
            counters: Mutex::new(FleetCounters {
                fleet: FleetStats { per_backend, ..FleetStats::default() },
                ..FleetCounters::default()
            }),
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

    /// Rebuilds the routing ring with `vnodes` virtual nodes per
    /// backend (the default is [`crate::ring::DEFAULT_VNODES`]).
    #[must_use]
    pub fn with_vnodes(mut self, vnodes: usize) -> Self {
        self.ring = HashRing::with_vnodes(&self.labels, vnodes);
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
        self.labels = labels.to_vec();
        self.ring = HashRing::new(&self.labels);
        self
    }

    /// The home backend index a request routes to: the consistent-hash
    /// owner of its canonical fingerprint (health state not applied —
    /// this is pure ring position).
    pub fn route(&self, instance: &QueryInstance) -> usize {
        let fingerprint = CanonicalKey::new(instance, &self.quantization).fingerprint();
        self.ring.route(fingerprint)
    }

    /// The consistent-hash ring requests are routed over.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of backends in the fleet (the fallback not included).
    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// A snapshot of the routing counters.
    pub fn fleet_stats(&self) -> FleetStats {
        lock(&self.counters).fleet.clone()
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
                    let mut counters = lock(&self.counters);
                    counters.planner.record(&served);
                    counters.planner.failovers += u64::from(backend != home);
                    counters.fleet.per_backend[backend] += 1;
                    counters.fleet.failovers += u64::from(backend != home);
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
                    let mut counters = lock(&self.counters);
                    counters.planner.record(&served);
                    counters.planner.fallbacks += 1;
                    counters.fleet.fallbacks += 1;
                    return Ok(served);
                }
                Err(error) => last_error = Some(error),
            }
        }
        {
            let mut counters = lock(&self.counters);
            counters.planner.errors += 1;
            counters.fleet.errors += 1;
        }
        // With every circuit open and no fallback, no backend was even
        // tried — still a typed error, never a panic.
        Err(last_error.unwrap_or_else(|| {
            PlanError::Backend("every backend is ejected by its circuit breaker".to_string())
        }))
    }

    fn stats(&self) -> PlannerStats {
        lock(&self.counters).planner
    }

    fn drain(&self) -> Result<(), PlanError> {
        let mut first_error = None;
        for backend in self.backends.iter().chain(self.fallback.iter()) {
            if let Err(error) = backend.drain() {
                first_error.get_or_insert(error);
            }
        }
        match first_error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }
}

/// Serves a batch of instances through any [`Planner`] across a pool of
/// worker threads, returning one result per request **in request
/// order**. The queue is a shared index into `requests`, drained until
/// empty, so an expensive request never blocks the others (no static
/// partitioning); see [`optimize_batch`](crate::optimize_batch) for the
/// determinism caveats when the planner is cache-backed.
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
    use std::sync::atomic::AtomicBool;

    fn instance(seed: u64) -> QueryInstance {
        generate(Family::Clustered, 6, seed)
    }

    #[test]
    fn cold_planner_matches_optimize_and_counts() {
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
        let stats = planner.stats();
        assert_eq!((stats.served, stats.cold, stats.hits), (3, 3, 0));
        assert_eq!(planner.name(), "cold");
        assert!(planner.drain().is_ok());
    }

    #[test]
    fn cold_planner_parallel_plans_are_identical() {
        let inst = instance(9);
        let sequential = ColdPlanner::new(BnbConfig::paper()).plan(&inst).expect("plans");
        let parallel = ColdPlanner::new(BnbConfig::paper())
            .with_threads(NonZeroUsize::new(4).expect("non-zero"))
            .plan(&inst)
            .expect("plans");
        assert_eq!(sequential.plan, parallel.plan);
        assert_eq!(sequential.cost.to_bits(), parallel.cost.to_bits());
        assert_eq!(sequential.fingerprint, parallel.fingerprint);
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
        let stats = planner.stats();
        assert_eq!((stats.served, stats.hits, stats.cold), (2, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // Counters live in the cache: a second planner over the same
        // cache sees them.
        let other = CachedPlanner::new(&cache, BnbConfig::paper());
        assert_eq!(other.stats(), stats);
    }

    /// A scripted backend for fleet tests: serves through a cold planner
    /// unless told to fail.
    struct Scripted {
        label: String,
        inner: ColdPlanner,
        down: AtomicBool,
        busy: AtomicBool,
    }

    impl Scripted {
        fn new(label: &str) -> Self {
            Scripted {
                label: label.to_string(),
                inner: ColdPlanner::new(BnbConfig::paper()),
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
            if self.down.load(Ordering::Relaxed) {
                return Err(PlanError::Transport("scripted outage".into()));
            }
            if self.busy.load(Ordering::Relaxed) {
                return Err(PlanError::Busy { retry_after_ms: 10 });
            }
            self.inner.plan(instance)
        }

        fn stats(&self) -> PlannerStats {
            self.inner.stats()
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
        assert_eq!(fleet.stats().failovers, 1);
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
        assert_eq!(fleet.stats().errors, 1);
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
        // no attempt on the flapper (its served count stays frozen) —
        // each check ticking the cooldown. Check 3 of the cooldown
        // admits a probe, which fails (still down) and re-opens.
        let before = backends[flapper].inner.stats().served;
        for _ in 0..3 {
            fleet.plan(&on_flapper).expect("replica serves while ejected");
        }
        assert_eq!(backends[flapper].inner.stats().served, before, "no attempts while open");
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
