//! The sharded, concurrent plan cache.

use crate::lock;
use dsq_baselines::fast_greedy;
use dsq_core::{
    bottleneck_cost, format_instance, optimize_with, parse_instance, BnbConfig, CanonicalKey, Plan,
    PlanSnapshot, Quantization, QueryInstance, SearchStats, SnapshotEntry, SnapshotError,
};
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Grid phase of the second probe: a parameter walking across a
/// boundary of the primary grid sits at the center of this one.
const PROBE_PHASE: f64 = 0.5;

/// Configuration of a [`PlanCache`]. Passive struct; fields are public.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Number of independently locked shards (requests map to shards by
    /// fingerprint, so disjoint queries never contend).
    pub shards: usize,
    /// Maximum entries per shard; the least recently used entry is
    /// evicted beyond it. `0` disables caching entirely (every request
    /// optimizes cold), which gives the serving pipeline an exact
    /// cache-off baseline through the same code path.
    pub capacity_per_shard: usize,
    /// Quantization used to fingerprint instances: near-identical
    /// instances (drift within the resolution) share a cache key.
    pub quantization: Quantization,
    /// Relative tolerance for validating a cached plan against the exact
    /// instance: a bucket-hit whose plan costs more than
    /// `(1 + tolerance) ×` the cached cost (or less than the mirror
    /// bound) is treated as stale and warm-starts a fresh search.
    pub validation_tolerance: f64,
    /// Fingerprint probes per lookup: `1` probes the primary quantization
    /// grid only; `2` additionally probes a half-bucket-shifted grid on a
    /// primary miss, so a parameter that slowly walks across one bucket
    /// boundary (flipping the primary fingerprint between two keys) still
    /// finds its entry. With two probes every write-back stores a second,
    /// shifted-grid alias entry, so each logical plan occupies two cache
    /// slots.
    pub probes: usize,
}

impl Default for CacheConfig {
    /// 8 shards × 128 entries, default quantization, 5% validation
    /// tolerance (matching the default quantization resolution),
    /// single-probe lookup.
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity_per_shard: 128,
            quantization: Quantization::default(),
            validation_tolerance: 0.05,
            probes: 1,
        }
    }
}

/// Where a served plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeSource {
    /// Fingerprint hit and the cached plan validated against the exact
    /// instance: no search ran.
    CacheHit,
    /// Fingerprint hit but the cached plan's cost drifted out of
    /// tolerance: the search ran, warm-started from the cached plan.
    WarmStart,
    /// No cached entry: a cold optimization.
    Cold,
}

impl ServeSource {
    /// Stable lowercase name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            ServeSource::CacheHit => "hit",
            ServeSource::WarmStart => "warm",
            ServeSource::Cold => "cold",
        }
    }
}

/// Quality tier of a served plan (see [`TieredPlanner`](crate::TieredPlanner)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanTier {
    /// The plan is a proven bottleneck-optimal ordering (a completed
    /// branch-and-bound search produced or validated it).
    Exact,
    /// The plan came from the tier-1 greedy heuristic and has not been
    /// refined yet: correct and precedence-feasible, but possibly
    /// suboptimal by an unknown gap.
    Heuristic,
}

impl PlanTier {
    /// Stable lowercase name for the wire protocol and logs.
    pub fn name(self) -> &'static str {
        match self {
            PlanTier::Exact => "exact",
            PlanTier::Heuristic => "heur",
        }
    }
}

/// The outcome of serving one instance through the cache.
#[derive(Debug, Clone)]
pub struct ServedPlan {
    /// The plan, in the request instance's own service labels.
    pub plan: Plan,
    /// The plan's bottleneck cost evaluated on the **exact** request
    /// instance (never the cached representative's cost).
    pub cost: f64,
    /// How the plan was obtained.
    pub source: ServeSource,
    /// The request's cache fingerprint.
    pub fingerprint: u64,
    /// Quality tier: [`PlanTier::Exact`] everywhere except the tiered
    /// fast path, which answers misses with an unrefined heuristic plan.
    pub tier: PlanTier,
    /// Statistics of the search that ran, if one did (`None` for pure
    /// cache hits).
    pub search: Option<SearchStats>,
}

/// Aggregated cache counters (summed over shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Validated fingerprint hits (no search ran).
    pub hits: u64,
    /// The subset of [`hits`](Self::hits) that missed the primary grid
    /// and were found by the second, shifted-grid probe (always `0` with
    /// `probes: 1`).
    pub probe2_hits: u64,
    /// Fingerprint hits whose plan failed exact-instance validation and
    /// warm-started a search.
    pub warm_starts: u64,
    /// Requests with no cached entry (cold optimizations).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries written (cold and warm paths both write back).
    pub insertions: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
    /// Resident entries still at the heuristic tier (awaiting background
    /// refinement; always `0` outside tiered serving).
    pub heuristic_entries: usize,
    /// Slots currently occupied by the lazy LRU recency queues across
    /// all shards. Bounded: each shard compacts its queue once it
    /// exceeds a small multiple of the capacity (see `Shard::touch`).
    pub recency_slots: usize,
}

impl CacheStats {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.hits + self.warm_starts + self.misses
    }

    /// Fraction of requests answered without running a search; `0.0`
    /// before any request.
    pub fn hit_rate(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            0.0
        } else {
            self.hits as f64 / requests as f64
        }
    }
}

/// One cached plan, stored in canonical index space so any instance with
/// the same fingerprint can use it regardless of its service labels.
#[derive(Debug)]
struct Entry {
    /// The plan in the canonical space of the grid this entry is keyed
    /// under (primary grid for primary entries, shifted grid for probe-2
    /// aliases).
    canonical_plan: Vec<u32>,
    /// Bottleneck cost of the plan on the instance that produced it —
    /// the reference value a bucket-hit validates against.
    cost: f64,
    /// The representative instance that produced the plan, shared by a
    /// primary entry and its probe-2 alias. Snapshots render it to
    /// `dsq-instance` text when they run (so a restored cache can
    /// re-verify fingerprints and re-derive probe aliases); partition
    /// exports derive alias keys from it directly.
    instance: Arc<QueryInstance>,
    /// `true` for primary-grid entries (the ones snapshots serialize).
    primary: bool,
    /// `true` when the plan came from a completed exact search; `false`
    /// for an unrefined heuristic plan awaiting background refinement.
    exact: bool,
    /// Recency stamp; must match the newest queue slot for this key.
    tick: u64,
}

/// One shard: an LRU map guarded by its own lock.
///
/// Recency is a lazy queue: every touch appends `(key, tick)` and stamps
/// the entry; eviction pops from the front, discarding stale pairs whose
/// tick no longer matches the live entry. Each popped pair was pushed by
/// exactly one operation, so the queue stays linear in the number of
/// operations and eviction is O(1) amortized.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    order: VecDeque<(u64, u64)>,
    /// Exact searches in progress, by the primary fingerprint of the
    /// request that started them (see [`PlanCache::lead_search`]).
    flights: HashMap<u64, Arc<Flight>>,
    tick: u64,
    hits: u64,
    probe2_hits: u64,
    warm_starts: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

/// Stale-pair headroom of the lazy recency queue before a shard
/// compacts it: `order` may hold up to `2 × capacity + SLACK` pairs
/// (the live ones plus stale duplicates) between compactions, keeping
/// compaction O(1) amortized while bounding steady-state memory.
const ORDER_COMPACT_SLACK: usize = 64;

impl Shard {
    fn touch(&mut self, fingerprint: u64, capacity: usize) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&fingerprint) {
            entry.tick = tick;
            self.order.push_back((fingerprint, tick));
        }
        self.maybe_compact(capacity);
    }

    /// Drops stale recency pairs once the queue outgrows its headroom.
    /// Without this, a hit-heavy steady state below capacity (touches
    /// but no evictions, so nothing ever drains the queue) grows
    /// `order` without bound.
    fn maybe_compact(&mut self, capacity: usize) {
        if self.order.len() > 2usize.saturating_mul(capacity).saturating_add(ORDER_COMPACT_SLACK) {
            self.order.retain(|&(key, stamp)| self.map.get(&key).is_some_and(|e| e.tick == stamp));
        }
    }

    fn insert(&mut self, fingerprint: u64, entry: PendingEntry, capacity: usize) {
        self.tick += 1;
        let tick = self.tick;
        let PendingEntry { canonical_plan, cost, instance, primary, exact } = entry;
        self.map
            .insert(fingerprint, Entry { canonical_plan, cost, instance, primary, exact, tick });
        self.order.push_back((fingerprint, tick));
        self.insertions += 1;
        while self.map.len() > capacity {
            match self.order.pop_front() {
                Some((key, stamp)) => {
                    if self.map.get(&key).is_some_and(|e| e.tick == stamp) {
                        self.map.remove(&key);
                        self.evictions += 1;
                    }
                }
                None => break,
            }
        }
        self.maybe_compact(capacity);
    }
}

/// The fields of an [`Entry`] minus the recency stamp (assigned by the
/// shard at insertion).
struct PendingEntry {
    canonical_plan: Vec<u32>,
    cost: f64,
    instance: Arc<QueryInstance>,
    primary: bool,
    exact: bool,
}

/// A resident entry's snapshot material, taken out from under a shard
/// lock so its instance text can be rendered after the lock is released.
struct Resident {
    fingerprint: u64,
    cost: f64,
    canonical_plan: Vec<u32>,
    instance: Arc<QueryInstance>,
}

/// One in-progress exact search that requests missing on the same
/// primary fingerprint wait for instead of repeating it.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<bool>,
    finished: Condvar,
}

impl Flight {
    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self.finished.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The leader's hold on a [`Flight`]: dropping it (after the write-back,
/// or while unwinding from a panicking search) unregisters the flight and
/// wakes its followers. It owns its handle on the shards, so a tiered
/// miss can hand it to a background [`Refinement`].
#[derive(Debug)]
struct FlightLead {
    shards: Arc<[Mutex<Shard>]>,
    fingerprint: u64,
    flight: Arc<Flight>,
}

impl Drop for FlightLead {
    fn drop(&mut self) {
        lock(shard_of(&self.shards, self.fingerprint)).flights.remove(&self.fingerprint);
        *lock(&self.flight.done) = true;
        self.flight.finished.notify_all();
    }
}

/// A tiered miss's exact search, handed off by the request that
/// answered it at tier 1. It holds the key's flight: until
/// [`run`](Self::run) writes the exact plan back (or the refinement is
/// dropped unrun), every request for the key waits for it instead of
/// serving the heuristic entry.
#[derive(Debug)]
pub(crate) struct Refinement {
    lead: FlightLead,
    instance: QueryInstance,
    key: CanonicalKey,
    shifted: Option<CanonicalKey>,
    incumbent: Plan,
    /// The tier-1 plan's bottleneck cost on the request instance.
    pub(crate) heuristic_cost: f64,
}

impl Refinement {
    /// Runs the exact search warm-started from the tier-1 plan, writes
    /// the result back at the exact tier into `cache` (the cache that
    /// handed this refinement out), and then releases the key's flight.
    /// Returns the exact answer to the miss.
    pub(crate) fn run(self, cache: &PlanCache, config: &BnbConfig) -> ServedPlan {
        let Refinement { lead, instance, key, shifted, incumbent, .. } = self;
        let result = optimize_with(&instance, &config.clone().with_initial_incumbent(incumbent));
        cache.write_back(&instance, &key, shifted, result.plan(), result.cost(), true);
        drop(lead);
        ServedPlan {
            plan: result.plan().clone(),
            cost: result.cost(),
            source: ServeSource::Cold,
            fingerprint: key.fingerprint(),
            tier: PlanTier::Exact,
            search: Some(result.stats().clone()),
        }
    }
}

/// What one probe-and-validate pass found for a request.
#[derive(Debug)]
enum Lookup {
    /// A validated hit on an exact-tier entry, not counted yet:
    /// [`PlanCache::take_hit`] counts it and bumps the recency of the
    /// entry under `answered`.
    Hit { served: ServedPlan, answered: u64, via_probe2: bool },
    /// A fingerprint hit whose plan failed validation, or a
    /// heuristic-tier entry: the plan seeds a warm-started search.
    Stale(Plan),
    /// No usable entry: a cold search (or the tier-1 heuristic).
    Miss,
}

/// What [`PlanCache::probe`] found for a request.
#[derive(Debug)]
pub enum Probe {
    /// A validated exact-tier hit, already counted: the whole answer.
    Hit(ServedPlan),
    /// Everything else — a miss, a stale entry, or a heuristic-tier
    /// entry (treated as stale: it may wait for its key's refinement).
    /// Finish it with [`PlanCache::resume`] (or
    /// [`TieredPlanner::resume`](crate::TieredPlanner::resume)) on the
    /// same cache and the same instance.
    Pending(PendingServe),
}

/// A serve that [`PlanCache::probe`] began but could not answer: the
/// request's canonical key(s) and what the probe found, so the resume
/// neither derives a key nor probes again. Opaque.
#[derive(Debug)]
pub struct PendingServe {
    key: CanonicalKey,
    shifted: Option<CanonicalKey>,
    found: Lookup,
}

/// Error raised by [`PlanCache::restore`] /
/// [`PlanCache::restore_from_text`].
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The snapshot text failed to parse (bad header/version, malformed
    /// line, or truncation).
    Snapshot(SnapshotError),
    /// The snapshot was taken under a different quantization resolution;
    /// its fingerprints mean nothing to this cache.
    ResolutionMismatch {
        /// Resolution recorded in the snapshot.
        snapshot: f64,
        /// Resolution this cache fingerprints with.
        cache: f64,
    },
    /// An entry failed verification (unparseable instance, fingerprint
    /// that does not match the instance, or an invalid canonical plan).
    InvalidEntry {
        /// 0-based index of the entry in the snapshot.
        index: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Snapshot(e) => write!(f, "cannot parse snapshot: {e}"),
            RestoreError::ResolutionMismatch { snapshot, cache } => {
                write!(f, "snapshot resolution {snapshot} does not match cache resolution {cache}")
            }
            RestoreError::InvalidEntry { index, reason } => {
                write!(f, "snapshot entry {index}: {reason}")
            }
        }
    }
}

impl Error for RestoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RestoreError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> Self {
        RestoreError::Snapshot(e)
    }
}

/// A sharded, concurrent, LRU plan cache in front of the branch-and-bound
/// optimizer. See the [crate docs](crate) for the serving semantics and
/// [`CacheConfig`] for the knobs.
#[derive(Debug)]
pub struct PlanCache {
    shards: Arc<[Mutex<Shard>]>,
    config: CacheConfig,
}

fn shard_of(shards: &[Mutex<Shard>], fingerprint: u64) -> &Mutex<Shard> {
    &shards[(fingerprint % shards.len() as u64) as usize]
}

impl PlanCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`, the validation tolerance is
    /// negative or non-finite, or the quantization resolution is invalid
    /// (see [`Quantization::new`]).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.shards > 0, "a cache needs at least one shard");
        assert!(
            config.validation_tolerance.is_finite() && config.validation_tolerance >= 0.0,
            "validation tolerance must be finite and non-negative"
        );
        assert!(
            config.probes == 1 || config.probes == 2,
            "probes must be 1 (primary grid) or 2 (primary + shifted grid)"
        );
        // Re-validate through the constructor so an invalid hand-rolled
        // resolution fails here rather than deep inside a request.
        let _ = Quantization::new(config.quantization.resolution);
        let shards = (0..config.shards).map(|_| Mutex::new(Shard::default())).collect();
        PlanCache { shards, config }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        shard_of(&self.shards, fingerprint)
    }

    /// `instance`'s key on the primary grid (`phase` 0) or the shifted
    /// probe grid ([`PROBE_PHASE`]).
    fn key(&self, instance: &QueryInstance, phase: f64) -> CanonicalKey {
        #[cfg(test)]
        tests::KEYS_DERIVED.with(|n| n.set(n.get() + 1));
        CanonicalKey::with_phase(instance, &self.config.quantization, phase)
    }

    /// Clones the transportable pieces of the entry under `key`'s
    /// fingerprint, if present and shaped like this instance. The third
    /// element is the entry's exact flag.
    fn entry(&self, key: &CanonicalKey) -> Option<(Plan, f64, bool)> {
        let guard = lock(self.shard(key.fingerprint()));
        guard.map.get(&key.fingerprint()).and_then(|entry| {
            // A malformed transport (fingerprint collision with a
            // different-sized instance) degrades to a miss.
            key.plan_from_canonical(&entry.canonical_plan).map(|p| (p, entry.cost, entry.exact))
        })
    }

    /// Writes `plan` back under the primary fingerprint and, with two
    /// probes configured, under the shifted-grid alias. `shifted` is
    /// reused when the lookup already computed it.
    fn write_back(
        &self,
        instance: &QueryInstance,
        primary: &CanonicalKey,
        shifted: Option<CanonicalKey>,
        plan: &Plan,
        cost: f64,
        exact: bool,
    ) {
        let instance_handle = Arc::new(instance.clone());
        let capacity = self.config.capacity_per_shard;
        let pending = PendingEntry {
            canonical_plan: primary.plan_to_canonical(plan),
            cost,
            instance: Arc::clone(&instance_handle),
            primary: true,
            exact,
        };
        lock(self.shard(primary.fingerprint())).insert(primary.fingerprint(), pending, capacity);
        if self.config.probes == 2 {
            let shifted = shifted.unwrap_or_else(|| self.key(instance, PROBE_PHASE));
            let alias = PendingEntry {
                canonical_plan: shifted.plan_to_canonical(plan),
                cost,
                instance: instance_handle,
                primary: false,
                exact,
            };
            lock(self.shard(shifted.fingerprint())).insert(shifted.fingerprint(), alias, capacity);
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Serves one instance: validated cache hit, warm-started search, or
    /// cold search (see [`ServeSource`]). Cold and warm searches write
    /// their result back, so subsequent near-identical requests hit.
    /// Equivalent to [`probe`](Self::probe), then
    /// [`resume`](Self::resume) when the probe left the serve pending.
    ///
    /// Concurrent callers are safe: the shard lock is **not** held while
    /// optimizing, so long searches never block hits on other keys (or
    /// even on the same shard).
    pub fn serve(&self, instance: &QueryInstance, config: &BnbConfig) -> ServedPlan {
        match self.probe(instance) {
            Probe::Hit(served) => served,
            Probe::Pending(pending) => self.resume(instance, pending, config),
        }
    }

    /// Derives the request's key, probes (both grids with `probes: 2`)
    /// and validates on the exact instance — the cheap part of a serve,
    /// which never searches. A validated exact-tier hit is counted and
    /// returned as [`Probe::Hit`]; anything else comes back as
    /// [`Probe::Pending`] with nothing counted yet.
    pub fn probe(&self, instance: &QueryInstance) -> Probe {
        let key = self.key(instance, 0.0);
        let mut shifted = None;
        match self.lookup(instance, &key, &mut shifted) {
            Lookup::Hit { served, answered, via_probe2 } => {
                Probe::Hit(self.take_hit(served, answered, via_probe2))
            }
            found => Probe::Pending(PendingServe { key, shifted, found }),
        }
    }

    /// Finishes a serve [`probe`](Self::probe) left pending, from what
    /// the probe found: runs the exact search (warm from a stale or
    /// heuristic-tier entry, cold on a miss) and writes it back, or
    /// waits for the key's search already in flight and hits.
    /// `instance` must be the one that was probed.
    pub fn resume(
        &self,
        instance: &QueryInstance,
        pending: PendingServe,
        config: &BnbConfig,
    ) -> ServedPlan {
        self.serve_inner(instance, pending, config, None::<fn(Refinement) -> Option<Refinement>>)
    }

    /// The tiered resume: identical to [`resume`](Self::resume) except
    /// for a miss that leads its key's flight. That miss is answered by
    /// the greedy heuristic, written back at the heuristic tier, and its
    /// exact search is offered to `refine` together with the flight.
    /// When `refine` hands the refinement back (its queue is full), the
    /// search runs in line instead and the miss is answered exactly.
    pub(crate) fn resume_tiered(
        &self,
        instance: &QueryInstance,
        pending: PendingServe,
        config: &BnbConfig,
        refine: impl FnOnce(Refinement) -> Option<Refinement>,
    ) -> ServedPlan {
        self.serve_inner(instance, pending, config, Some(refine))
    }

    fn serve_inner(
        &self,
        instance: &QueryInstance,
        pending: PendingServe,
        config: &BnbConfig,
        refine: Option<impl FnOnce(Refinement) -> Option<Refinement>>,
    ) -> ServedPlan {
        let PendingServe { key, mut shifted, found } = pending;
        let fingerprint = key.fingerprint();
        let mut found = Some(found);

        // Look up (the first pass is the probe's); a request that needs
        // an exact search first becomes the leader of that search for its
        // primary fingerprint, or waits for the leader already searching
        // and looks up again — concurrent identical misses pay one search,
        // and the followers hit. A new leader looks up once more, in case
        // the previous leader finished between the probe and the
        // registration. Hits never touch the flight registry.
        let mut lead: Option<FlightLead> = None;
        let seed = loop {
            let lookup = found.take().unwrap_or_else(|| self.lookup(instance, &key, &mut shifted));
            let seed = match lookup {
                Lookup::Hit { served, answered, via_probe2 } => {
                    return self.take_hit(served, answered, via_probe2)
                }
                Lookup::Stale(plan) => Some(plan),
                Lookup::Miss => None,
            };
            // A zero-capacity cache keeps nothing for followers to hit.
            if lead.is_some() || self.config.capacity_per_shard == 0 {
                break seed;
            }
            match self.lead_search(fingerprint) {
                Ok(flight) => lead = Some(flight),
                Err(flight) => flight.wait(),
            }
        };

        // A tiered miss answers with the greedy plan at once and hands
        // its flight to the background refinement, which releases it
        // only after the exact write-back: every later request for the
        // key waits for the exact plan, however the threads are timed.
        // (A zero-capacity cache has no lead and no entry to refine into,
        // so its tiered misses search in line.)
        let tier1 =
            refine.filter(|_| seed.is_none()).and_then(|refine| Some((refine, lead.take()?)));
        if let Some((refine, lead)) = tier1 {
            let greedy = fast_greedy(instance);
            let (plan, cost) = (greedy.plan().clone(), greedy.cost());
            self.write_back(instance, &key, shifted.clone(), &plan, cost, false);
            lock(self.shard(fingerprint)).misses += 1;
            let refinement = Refinement {
                lead,
                instance: instance.clone(),
                key,
                shifted,
                incumbent: plan.clone(),
                heuristic_cost: cost,
            };
            return match refine(refinement) {
                None => ServedPlan {
                    plan,
                    cost,
                    source: ServeSource::Cold,
                    fingerprint,
                    tier: PlanTier::Heuristic,
                    search: None,
                },
                Some(refinement) => refinement.run(self, config),
            };
        }

        // A stale entry re-optimizes seeded with the cached plan (its cost
        // is near-optimal, so ρ prunes hard); so does a heuristic-tier
        // entry whose refinement never landed.
        let (result, source) = match seed {
            Some(plan) => (
                optimize_with(instance, &config.clone().with_initial_incumbent(plan)),
                ServeSource::WarmStart,
            ),
            None => (optimize_with(instance, config), ServeSource::Cold),
        };
        self.write_back(instance, &key, shifted, result.plan(), result.cost(), true);
        let mut guard = lock(self.shard(fingerprint));
        if source == ServeSource::WarmStart {
            guard.warm_starts += 1;
        } else {
            guard.misses += 1;
        }
        // Released before `lead` drops: its drop locks this shard.
        drop(guard);
        ServedPlan {
            plan: result.plan().clone(),
            cost: result.cost(),
            source,
            fingerprint,
            tier: PlanTier::Exact,
            search: Some(result.stats().clone()),
        }
    }

    /// Probes the primary grid, then (with `probes: 2`) the shifted grid,
    /// and validates a found plan on the exact instance; counts nothing.
    /// A heuristic-tier entry is never a hit: it comes back as
    /// [`Lookup::Stale`] without validation, like an entry that drifted.
    /// The hot validated-hit path computes a single fingerprint; the
    /// shifted one is only derived after a primary miss, into `shifted`.
    fn lookup(
        &self,
        instance: &QueryInstance,
        key: &CanonicalKey,
        shifted: &mut Option<CanonicalKey>,
    ) -> Lookup {
        let mut answered = key.fingerprint();
        let mut cached = self.entry(key);
        let mut via_probe2 = false;
        if cached.is_none() && self.config.probes == 2 {
            let alias = shifted.get_or_insert_with(|| self.key(instance, PROBE_PHASE));
            cached = self.entry(alias);
            via_probe2 = cached.is_some();
            answered = alias.fingerprint();
        }
        let Some((plan, cached_cost, entry_exact)) = cached else { return Lookup::Miss };
        if !instance.precedence().is_none_or(|dag| plan.satisfies(dag)) {
            return Lookup::Miss;
        }
        if !entry_exact {
            return Lookup::Stale(plan);
        }
        let exact = bottleneck_cost(instance, &plan);
        let spread = (exact - cached_cost).abs();
        if spread > self.config.validation_tolerance * exact.abs().max(cached_cost.abs()) {
            return Lookup::Stale(plan);
        }
        let served = ServedPlan {
            plan,
            cost: exact,
            source: ServeSource::CacheHit,
            fingerprint: key.fingerprint(),
            tier: PlanTier::Exact,
            search: None,
        };
        Lookup::Hit { served, answered, via_probe2 }
    }

    /// Counts a validated hit and bumps the recency of the entry that
    /// answered it. A probe-2 hit deliberately does NOT write a fresh
    /// primary entry ("healing"): a walking parameter flips its primary
    /// bucket every few requests, so per-flip inserts would double the
    /// write traffic and age the stable alias — the one slot that keeps
    /// answering — out of a loaded LRU shard.
    fn take_hit(&self, served: ServedPlan, answered: u64, via_probe2: bool) -> ServedPlan {
        let mut guard = lock(self.shard(answered));
        guard.hits += 1;
        guard.probe2_hits += u64::from(via_probe2);
        guard.touch(answered, self.config.capacity_per_shard);
        served
    }

    /// Registers the caller as the leader of the exact search for
    /// `fingerprint`, or returns the search already in flight to wait on.
    fn lead_search(&self, fingerprint: u64) -> Result<FlightLead, Arc<Flight>> {
        let mut guard = lock(self.shard(fingerprint));
        if let Some(flight) = guard.flights.get(&fingerprint) {
            return Err(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::default());
        guard.flights.insert(fingerprint, Arc::clone(&flight));
        Ok(FlightLead { shards: Arc::clone(&self.shards), fingerprint, flight })
    }

    /// A snapshot of the counters, summed across shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            let guard = lock(shard);
            total.hits += guard.hits;
            total.probe2_hits += guard.probe2_hits;
            total.warm_starts += guard.warm_starts;
            total.misses += guard.misses;
            total.evictions += guard.evictions;
            total.insertions += guard.insertions;
            total.entries += guard.map.len();
            total.heuristic_entries += guard.map.values().filter(|e| !e.exact).count();
            total.recency_slots += guard.order.len();
        }
        total
    }

    /// Serializes the resident primary-grid entries (shifted-grid probe
    /// aliases are derived state and re-created on restore). Unrefined
    /// heuristic-tier entries are skipped too: they are transient —
    /// cheap to recompute, pending refinement — and persisting them
    /// would smuggle possibly-suboptimal plans into a warm restart,
    /// where the restored cache can no longer tell the tiers apart.
    /// Entries are ordered by fingerprint, so equal caches produce
    /// byte-identical snapshots regardless of insertion order.
    pub fn snapshot(&self) -> PlanSnapshot {
        // Only handles are cloned under a shard lock; the instance text is
        // rendered after the lock is released.
        let mut resident: Vec<Resident> = Vec::new();
        for shard in self.shards.iter() {
            let guard = lock(shard);
            resident.extend(guard.map.iter().filter(|(_, e)| e.primary && e.exact).map(
                |(&fingerprint, entry)| Resident {
                    fingerprint,
                    cost: entry.cost,
                    canonical_plan: entry.canonical_plan.clone(),
                    instance: Arc::clone(&entry.instance),
                },
            ));
        }
        self.render(resident)
    }

    /// Exports **and removes** the resident primary exact-tier entries
    /// whose fingerprint satisfies `moved` — the leaving side of a warm
    /// partition handoff. During a fleet rebalance, `moved(fp)` is
    /// "does `fp`'s consistent-hash owner change under the new ring";
    /// the returned snapshot streams to the inheriting backend (which
    /// [`restore`](Self::restore)s it), while everything the predicate
    /// rejects stays resident here. Shifted-grid probe aliases of the
    /// exported entries are dropped too (they are derived state; the
    /// inheritor re-derives its own on restore). Unrefined
    /// heuristic-tier entries are neither exported nor retained in the
    /// snapshot sense — like [`snapshot`](Self::snapshot), only
    /// `primary && exact` entries are handoff material.
    ///
    /// Entries are ordered by fingerprint, so equal caches produce
    /// byte-identical exports regardless of insertion order.
    pub fn export_partition(&self, moved: impl Fn(u64) -> bool) -> PlanSnapshot {
        let mut exported: Vec<Resident> = Vec::new();
        for shard in self.shards.iter() {
            let mut guard = lock(shard);
            let moving: Vec<u64> = guard
                .map
                .iter()
                .filter(|&(&fingerprint, entry)| entry.primary && entry.exact && moved(fingerprint))
                .map(|(&fingerprint, _)| fingerprint)
                .collect();
            for fingerprint in moving {
                let entry = guard.map.remove(&fingerprint).expect("listed under this lock");
                exported.push(Resident {
                    fingerprint,
                    cost: entry.cost,
                    canonical_plan: entry.canonical_plan,
                    instance: entry.instance,
                });
            }
        }
        // Drop the exported entries' shifted-grid aliases (possibly in
        // other shards, so after the primary pass releases its locks).
        // An alias fingerprint that collides with a resident *primary*
        // entry is someone else's logical plan and is left alone.
        if self.config.probes == 2 {
            for entry in &exported {
                let shifted = self.key(&entry.instance, PROBE_PHASE);
                let mut guard = lock(self.shard(shifted.fingerprint()));
                if guard.map.get(&shifted.fingerprint()).is_some_and(|entry| !entry.primary) {
                    guard.map.remove(&shifted.fingerprint());
                }
            }
        }
        self.render(exported)
    }

    /// Renders resident entries, outside every shard lock, into a
    /// snapshot ordered by fingerprint.
    fn render(&self, mut resident: Vec<Resident>) -> PlanSnapshot {
        resident.sort_by_key(|entry| entry.fingerprint);
        let entries = resident
            .into_iter()
            .map(|entry| SnapshotEntry {
                fingerprint: entry.fingerprint,
                cost: entry.cost,
                canonical_plan: entry.canonical_plan,
                instance: format_instance(&entry.instance),
            })
            .collect();
        PlanSnapshot::new(&self.config.quantization, entries)
    }

    /// Loads a snapshot into this cache (on top of whatever is already
    /// resident), returning the number of logical entries restored. Every
    /// entry is re-verified before insertion: its instance text must
    /// parse, must hash back to the recorded fingerprint under this
    /// cache's quantization, and the canonical plan must transport onto
    /// it. With `probes: 2`, shifted-grid aliases are re-derived from the
    /// instance text **after** every primary entry has been inserted, and
    /// admitted without counting against shard capacity — so a restore
    /// that exactly fills a shard never has its primaries evicted by
    /// their own derived aliases (normal traffic trims the transient
    /// overshoot through the usual LRU policy).
    ///
    /// # Errors
    ///
    /// [`RestoreError::ResolutionMismatch`] when the snapshot was taken
    /// under a different quantization resolution, or
    /// [`RestoreError::InvalidEntry`] naming the first corrupt entry.
    /// Verification runs before any insertion, so a failed restore
    /// leaves the cache exactly as it was.
    pub fn restore(&self, snapshot: &PlanSnapshot) -> Result<usize, RestoreError> {
        if snapshot.resolution.to_bits() != self.config.quantization.resolution.to_bits() {
            return Err(RestoreError::ResolutionMismatch {
                snapshot: snapshot.resolution,
                cache: self.config.quantization.resolution,
            });
        }
        let mut verified: Vec<(Arc<QueryInstance>, CanonicalKey, Plan, f64)> = Vec::new();
        for (index, entry) in snapshot.entries.iter().enumerate() {
            let invalid = |reason: String| RestoreError::InvalidEntry { index, reason };
            let instance = parse_instance(&entry.instance)
                .map_err(|e| invalid(format!("instance does not parse: {e}")))?;
            let key = self.key(&instance, 0.0);
            if key.fingerprint() != entry.fingerprint {
                return Err(invalid("fingerprint mismatch".into()));
            }
            let plan = key
                .plan_from_canonical(&entry.canonical_plan)
                .ok_or_else(|| invalid("invalid canonical plan".into()))?;
            if !entry.cost.is_finite() {
                return Err(invalid("non-finite cost".into()));
            }
            verified.push((Arc::new(instance), key, plan, entry.cost));
        }

        let capacity = self.config.capacity_per_shard;
        for (instance, key, plan, cost) in &verified {
            let pending = PendingEntry {
                canonical_plan: key.plan_to_canonical(plan),
                cost: *cost,
                instance: Arc::clone(instance),
                primary: true,
                exact: true,
            };
            lock(self.shard(key.fingerprint())).insert(key.fingerprint(), pending, capacity);
        }
        if self.config.probes == 2 && capacity > 0 {
            for (instance, key, plan, cost) in &verified {
                // A snapshot larger than the cache evicts its oldest
                // primaries above; an alias for an evicted primary would
                // be an orphan, so derive aliases only for survivors.
                if !lock(self.shard(key.fingerprint())).map.contains_key(&key.fingerprint()) {
                    continue;
                }
                let shifted = self.key(instance, PROBE_PHASE);
                let alias = PendingEntry {
                    canonical_plan: shifted.plan_to_canonical(plan),
                    cost: *cost,
                    instance: Arc::clone(instance),
                    primary: false,
                    exact: true,
                };
                lock(self.shard(shifted.fingerprint())).insert(
                    shifted.fingerprint(),
                    alias,
                    usize::MAX,
                );
            }
        }
        Ok(snapshot.entries.len())
    }

    /// Parses snapshot text and [`restore`](Self::restore)s it.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Snapshot`] for unparseable text, plus everything
    /// [`restore`](Self::restore) rejects.
    pub fn restore_from_text(&self, text: &str) -> Result<usize, RestoreError> {
        self.restore(&PlanSnapshot::parse(text)?)
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut guard = lock(shard);
            guard.map.clear();
            guard.order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsq_core::{optimize, CommMatrix, Service};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Canonical keys this thread's cache calls have derived.
        pub(super) static KEYS_DERIVED: Cell<u64> = const { Cell::new(0) };
    }

    fn keys_derived() -> u64 {
        KEYS_DERIVED.with(Cell::get)
    }

    fn instance(seed: u64, n: usize) -> QueryInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        QueryInstance::builder()
            .services(
                (0..n).map(|_| Service::new(rng.gen_range(0.2..2.0), rng.gen_range(0.2..0.95))),
            )
            .comm(CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.1..1.0) }))
            .build()
            .unwrap()
    }

    /// An instance whose parameters all sit at **bucket centers** of the
    /// default 5% quantization (exact powers of 1.05): drift below ~2%
    /// can then never cross a bucket boundary, keeping the fingerprint
    /// deterministic for the drift tests below.
    fn bucket_centered(seed: u64, n: usize) -> QueryInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let step = 1.05f64;
        QueryInstance::builder()
            .services((0..n).map(|_| {
                Service::new(step.powi(rng.gen_range(-10..10)), step.powi(rng.gen_range(-14..0)))
            }))
            .comm(CommMatrix::from_fn(n, |i, j| {
                if i == j {
                    0.0
                } else {
                    step.powi(rng.gen_range(-8..4))
                }
            }))
            .build()
            .unwrap()
    }

    /// Multiplies every parameter by `factor` — same fingerprint while
    /// the drift stays inside a quantization bucket.
    fn drifted(inst: &QueryInstance, factor: f64) -> QueryInstance {
        let n = inst.len();
        QueryInstance::builder()
            .services(
                inst.services()
                    .iter()
                    .map(|s| Service::new(s.cost() * factor, s.selectivity() * factor)),
            )
            .comm(CommMatrix::from_fn(n, |i, j| inst.transfer(i, j) * factor))
            .build()
            .unwrap()
    }

    #[test]
    fn cold_then_hit_roundtrip() {
        let cache = PlanCache::new(CacheConfig::default());
        let inst = instance(1, 6);
        let cold = cache.serve(&inst, &BnbConfig::paper());
        assert_eq!(cold.source, ServeSource::Cold);
        assert!(cold.search.is_some());
        let hit = cache.serve(&inst, &BnbConfig::paper());
        assert_eq!(hit.source, ServeSource::CacheHit);
        assert!(hit.search.is_none());
        assert_eq!(hit.plan, cold.plan);
        assert_eq!(hit.cost.to_bits(), cold.cost.to_bits());
        assert_eq!(hit.fingerprint, cold.fingerprint);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_starts), (1, 1, 0));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.requests(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A resumed serve continues from its probe: every key a miss or a
    /// stale entry needs is derived exactly once, on the probing side,
    /// whatever the probe count.
    #[test]
    fn resume_never_rederives_the_probes_keys() {
        for probes in [1u64, 2] {
            let config = CacheConfig { probes: probes as usize, ..CacheConfig::default() };
            let cache = PlanCache::new(config.clone());
            let inst = instance(70, 6);
            let before = keys_derived();
            let Probe::Pending(pending) = cache.probe(&inst) else { panic!("empty cache hit") };
            assert_eq!(keys_derived() - before, probes, "a miss derives every probed key");
            let cold = cache.resume(&inst, pending, &BnbConfig::paper());
            assert_eq!(cold.source, ServeSource::Cold);
            assert_eq!(keys_derived() - before, probes, "resume and write-back reuse them");

            // A stale entry: the probe stops at the primary grid, and the
            // write-back derives the shifted key, once.
            let stale = PlanCache::new(CacheConfig { validation_tolerance: 1e-12, ..config });
            let base = bucket_centered(3, 7);
            stale.serve(&base, &BnbConfig::paper());
            let near = drifted(&base, 1.004);
            let before = keys_derived();
            let Probe::Pending(pending) = stale.probe(&near) else { panic!("drift must be stale") };
            assert_eq!(keys_derived() - before, 1);
            let warm = stale.resume(&near, pending, &BnbConfig::paper());
            assert_eq!(warm.source, ServeSource::WarmStart);
            assert_eq!(keys_derived() - before, probes);
            let stats = stale.stats();
            assert_eq!((stats.hits, stats.warm_starts, stats.misses), (0, 1, 1));
        }
    }

    /// A validated exact-tier hit is the probe's whole answer, counted
    /// once; a pending probe counts nothing until it is resumed.
    #[test]
    fn probe_counts_hits_and_leaves_pending_serves_uncounted() {
        let cache = PlanCache::new(CacheConfig::default());
        let inst = instance(71, 6);
        let Probe::Pending(pending) = cache.probe(&inst) else { panic!("empty cache hit") };
        assert_eq!(cache.stats().requests(), 0, "a pending probe counts nothing");
        let cold = cache.resume(&inst, pending, &BnbConfig::paper());
        let Probe::Hit(hit) = cache.probe(&inst) else { panic!("the write-back must hit") };
        assert_eq!((hit.source, hit.tier), (ServeSource::CacheHit, PlanTier::Exact));
        assert_eq!(hit.plan, cold.plan);
        assert_eq!(hit.cost.to_bits(), cold.cost.to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_starts), (1, 1, 0));
    }

    #[test]
    fn small_drift_hits_and_validates_on_the_exact_instance() {
        let cache = PlanCache::new(CacheConfig::default());
        let inst = bucket_centered(2, 6);
        let cold = cache.serve(&inst, &BnbConfig::paper());
        let near = drifted(&inst, 1.004);
        let hit = cache.serve(&near, &BnbConfig::paper());
        assert_eq!(hit.source, ServeSource::CacheHit, "sub-bucket drift must hit");
        // The returned cost is the plan's cost on the *drifted* instance,
        // not the cached number.
        assert_eq!(hit.cost.to_bits(), bottleneck_cost(&near, &hit.plan).to_bits());
        assert_ne!(hit.cost.to_bits(), cold.cost.to_bits());
        // Hit quality: within tolerance of that instance's true optimum.
        let fresh = optimize(&near);
        assert!(hit.cost <= fresh.cost() * (1.0 + 0.05) + 1e-12);
    }

    #[test]
    fn out_of_tolerance_drift_warm_starts() {
        // Tiny tolerance forces the validation to fail for any real
        // drift, driving the warm-start path deterministically.
        let cache =
            PlanCache::new(CacheConfig { validation_tolerance: 1e-12, ..CacheConfig::default() });
        let inst = bucket_centered(3, 7);
        cache.serve(&inst, &BnbConfig::paper());
        let near = drifted(&inst, 1.004);
        let warm = cache.serve(&near, &BnbConfig::paper());
        assert_eq!(warm.source, ServeSource::WarmStart);
        // Warm result is exactly optimal for the drifted instance.
        let fresh = optimize(&near);
        assert_eq!(warm.cost.to_bits(), fresh.cost().to_bits());
        assert_eq!(&warm.plan, fresh.plan());
        assert!(warm.search.expect("warm runs a search").proven_optimal);
        // The write-back refreshed the entry: the same instance now hits.
        assert_eq!(cache.serve(&near, &BnbConfig::paper()).source, ServeSource::CacheHit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_starts), (1, 1, 1));
    }

    #[test]
    fn relabeled_instances_share_an_entry() {
        let cache = PlanCache::new(CacheConfig::default());
        let inst = instance(4, 5);
        let cold = cache.serve(&inst, &BnbConfig::paper());
        // Rotate the labels: service i of the relabeling is original
        // service (i + 1) mod n.
        let n = inst.len();
        let perm: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        let relabeled = QueryInstance::builder()
            .services(perm.iter().map(|&o| inst.services()[o].clone()))
            .comm(CommMatrix::from_fn(n, |i, j| inst.transfer(perm[i], perm[j])))
            .build()
            .unwrap();
        let served = cache.serve(&relabeled, &BnbConfig::paper());
        assert_eq!(served.source, ServeSource::CacheHit, "relabels share fingerprints");
        // The transported plan orders the same physical services: mapping
        // back through the permutation recovers the original plan.
        let recovered: Vec<usize> = served.plan.indices().iter().map(|&i| perm[i]).collect();
        assert_eq!(recovered, cold.plan.indices());
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: 2,
            ..CacheConfig::default()
        });
        let a = instance(10, 5);
        let b = instance(11, 5);
        let c = instance(12, 5);
        cache.serve(&a, &BnbConfig::paper());
        cache.serve(&b, &BnbConfig::paper());
        // Touch A so B becomes the LRU victim.
        assert_eq!(cache.serve(&a, &BnbConfig::paper()).source, ServeSource::CacheHit);
        cache.serve(&c, &BnbConfig::paper());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.serve(&a, &BnbConfig::paper()).source, ServeSource::CacheHit);
        assert_eq!(cache.serve(&b, &BnbConfig::paper()).source, ServeSource::Cold, "B evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(CacheConfig {
            shards: 2,
            capacity_per_shard: 0,
            ..CacheConfig::default()
        });
        let inst = instance(5, 5);
        for _ in 0..3 {
            assert_eq!(cache.serve(&inst, &BnbConfig::paper()).source, ServeSource::Cold);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.evictions, 3);
    }

    /// A partition export is a handoff, not a copy: the moved entries
    /// leave the exporting cache, restore warm into the inheritor, and
    /// the retained entries keep hitting where they were.
    #[test]
    fn export_partition_hands_entries_off_warm() {
        let config = CacheConfig { shards: 2, probes: 2, ..CacheConfig::default() };
        let cache = PlanCache::new(config.clone());
        let instances: Vec<QueryInstance> = (0..6).map(|s| instance(s, 5)).collect();
        let first: Vec<_> =
            instances.iter().map(|inst| cache.serve(inst, &BnbConfig::paper())).collect();
        let full = cache.snapshot();
        assert_eq!(full.entries.len(), 6);

        // Move every even fingerprint; keep the odd ones.
        let moved = |fp: u64| fp.is_multiple_of(2);
        let exported = cache.export_partition(moved);
        let retained = cache.snapshot();
        assert!(exported.entries.iter().all(|e| moved(e.fingerprint)));
        assert!(retained.entries.iter().all(|e| !moved(e.fingerprint)));
        assert_eq!(
            exported.entries.len() + retained.entries.len(),
            6,
            "exported and retained partition the exact-tier entries"
        );
        // Exporting is idempotent: the moved entries are gone.
        assert!(cache.export_partition(moved).entries.is_empty());

        let inheritor = PlanCache::new(config);
        inheritor.restore(&exported).expect("handoff restores");
        for (inst, original) in instances.iter().zip(&first) {
            let (owner, other) = if moved(original.fingerprint) {
                (&inheritor, &cache)
            } else {
                (&cache, &inheritor)
            };
            let served = owner.serve(inst, &BnbConfig::paper());
            assert_eq!(served.source, ServeSource::CacheHit, "handoff kept the entry warm");
            assert_eq!(served.plan, original.plan);
            assert_eq!(served.cost.to_bits(), original.cost.to_bits());
            assert_eq!(
                other.serve(inst, &BnbConfig::paper()).source,
                ServeSource::Cold,
                "each logical entry lives on exactly one side"
            );
        }
    }

    /// Regression (soak): the lazy recency queue used to append a pair
    /// on every touch and only drain during eviction, so a hit-heavy
    /// steady state below capacity grew `order` without bound. The
    /// compaction in `Shard::touch` keeps it within its headroom.
    #[test]
    fn hit_heavy_steady_state_keeps_the_recency_queue_bounded() {
        let capacity = 4;
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity_per_shard: capacity,
            ..CacheConfig::default()
        });
        let instances: Vec<QueryInstance> = (0..capacity as u64).map(|s| instance(s, 5)).collect();
        for inst in &instances {
            cache.serve(inst, &BnbConfig::paper());
        }
        // Far more touches than the compaction threshold; without
        // compaction the queue would end at ~5000 slots.
        for round in 0..1250 {
            let inst = &instances[round % instances.len()];
            assert_eq!(cache.serve(inst, &BnbConfig::paper()).source, ServeSource::CacheHit);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, capacity, "no evictions in steady state");
        assert_eq!(stats.evictions, 0);
        assert!(
            stats.recency_slots <= 2 * capacity + ORDER_COMPACT_SLACK + 1,
            "recency queue must stay bounded, got {} slots",
            stats.recency_slots
        );
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = PlanCache::new(CacheConfig::default());
        let inst = instance(6, 5);
        cache.serve(&inst, &BnbConfig::paper());
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.serve(&inst, &BnbConfig::paper()).source, ServeSource::Cold);
    }

    #[test]
    fn concurrent_serves_agree() {
        let cache = PlanCache::new(CacheConfig::default());
        let instances: Vec<QueryInstance> = (0..4).map(|s| instance(20 + s, 6)).collect();
        let expected: Vec<f64> = instances.iter().map(|i| optimize(i).cost()).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for (inst, &cost) in instances.iter().zip(&expected) {
                        let served = cache.serve(inst, &BnbConfig::paper());
                        assert_eq!(served.cost.to_bits(), cost.to_bits());
                    }
                });
            }
        });
        // Single-flight: one cold search per instance, whatever the
        // interleaving; every other request hits.
        let stats = cache.stats();
        assert_eq!(stats.requests(), 32);
        assert_eq!((stats.misses, stats.hits, stats.warm_starts), (4, 28, 0));
    }

    #[test]
    fn concurrent_identical_misses_run_one_search() {
        let cache = PlanCache::new(CacheConfig { probes: 2, ..CacheConfig::default() });
        let inst = dsq_workloads::generate(dsq_workloads::Family::BtspHard, 11, 3);
        let threads = 6;
        let barrier = std::sync::Barrier::new(threads);
        let served: Vec<ServedPlan> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.serve(&inst, &BnbConfig::paper())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("serve does not panic")).collect()
        });
        let cold: Vec<&ServedPlan> =
            served.iter().filter(|s| s.source == ServeSource::Cold).collect();
        assert_eq!(cold.len(), 1, "exactly one request searches");
        for s in &served {
            assert_eq!(s.plan, cold[0].plan);
            assert_eq!(s.cost.to_bits(), cold[0].cost.to_bits());
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.warm_starts), (1, 5, 0));
        assert!(cache.shards.iter().all(|shard| lock(shard).flights.is_empty()), "flights end");
    }

    #[test]
    fn zero_capacity_concurrent_misses_each_search() {
        let cache = PlanCache::new(CacheConfig { capacity_per_shard: 0, ..CacheConfig::default() });
        let inst = instance(8, 7);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    assert_eq!(cache.serve(&inst, &BnbConfig::paper()).source, ServeSource::Cold);
                });
            }
        });
        assert_eq!(cache.stats().misses, 4, "nothing is kept for a follower to hit");
    }

    /// Serves `inst`'s first miss through the tiered resume, keeping the
    /// refinement (and with it the key's flight) by hand.
    fn tier1_miss(cache: &PlanCache, inst: &QueryInstance) -> (ServedPlan, Refinement) {
        let Probe::Pending(pending) = cache.probe(inst) else { panic!("empty cache hit") };
        let mut held = None;
        let served = cache.resume_tiered(inst, pending, &BnbConfig::paper(), |refinement| {
            held = Some(refinement);
            None
        });
        (served, held.expect("a leading miss hands off its refinement"))
    }

    #[test]
    fn tiered_miss_holds_its_flight_until_the_refinement_writes_back() {
        let cache = PlanCache::new(CacheConfig::default());
        let inst = instance(9, 7);
        let exact = optimize(&inst);
        let (first, refinement) = tier1_miss(&cache, &inst);
        assert_eq!((first.source, first.tier), (ServeSource::Cold, PlanTier::Heuristic));
        // The heuristic entry is resident, but neither a hit nor
        // snapshot material: a restored cache could not tell the tiers
        // apart.
        assert_eq!(cache.stats().heuristic_entries, 1);
        assert_eq!(cache.snapshot().entries.len(), 0, "heuristic entries are never persisted");
        assert!(matches!(cache.probe(&inst), Probe::Pending(_)), "a heuristic entry never hits");

        std::thread::scope(|scope| {
            let repeat = scope.spawn(|| cache.serve(&inst, &BnbConfig::paper()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!repeat.is_finished(), "a repeat waits for the refinement's flight");
            let refined = refinement.run(&cache, &BnbConfig::paper());
            assert_eq!(refined.cost.to_bits(), exact.cost().to_bits());
            let repeat = repeat.join().expect("serve does not panic");
            assert_eq!((repeat.source, repeat.tier), (ServeSource::CacheHit, PlanTier::Exact));
            assert_eq!(repeat.cost.to_bits(), exact.cost().to_bits());
            assert_eq!(&repeat.plan, exact.plan());
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_starts), (1, 1, 0));
        assert_eq!(stats.heuristic_entries, 0);
        assert_eq!(cache.snapshot().entries.len(), 1, "the refined entry is persisted");
        assert!(cache.shards.iter().all(|shard| lock(shard).flights.is_empty()), "flights end");
    }

    /// A refinement dropped unrun (a stopped pool, a panicking search)
    /// releases its flight; the entry it leaves is treated as stale.
    #[test]
    fn unrun_refinement_releases_its_flight_and_the_entry_warm_starts() {
        let cache = PlanCache::new(CacheConfig::default());
        let inst = instance(10, 7);
        let (_, refinement) = tier1_miss(&cache, &inst);
        drop(refinement);
        let served = cache.serve(&inst, &BnbConfig::paper());
        assert_eq!((served.source, served.tier), (ServeSource::WarmStart, PlanTier::Exact));
        assert_eq!(served.cost.to_bits(), optimize(&inst).cost().to_bits());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_starts), (0, 1, 1));
        assert_eq!(stats.heuristic_entries, 0);
    }

    /// When the refinement cannot be queued, or a zero-capacity cache
    /// has no flight to hand off, the miss is answered exactly in line.
    #[test]
    fn tiered_miss_without_a_queued_refinement_is_answered_exactly() {
        let inst = instance(11, 7);
        let exact = optimize(&inst);
        for capacity in [0, 128] {
            let cache = PlanCache::new(CacheConfig {
                capacity_per_shard: capacity,
                ..CacheConfig::default()
            });
            let Probe::Pending(pending) = cache.probe(&inst) else { panic!("empty cache hit") };
            let served = cache.resume_tiered(&inst, pending, &BnbConfig::paper(), Some);
            assert_eq!((served.source, served.tier), (ServeSource::Cold, PlanTier::Exact));
            assert_eq!(served.cost.to_bits(), exact.cost().to_bits());
            let stats = cache.stats();
            assert_eq!((stats.misses, stats.heuristic_entries), (1, 0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        PlanCache::new(CacheConfig { shards: 0, ..CacheConfig::default() });
    }

    #[test]
    #[should_panic(expected = "probes must be 1")]
    fn probe_counts_beyond_two_rejected() {
        PlanCache::new(CacheConfig { probes: 3, ..CacheConfig::default() });
    }

    /// Two occurrences of a query whose one parameter sits on opposite
    /// sides of a primary bucket boundary: single-probe caches treat them
    /// as strangers, the second probe finds the entry via the shifted
    /// grid.
    fn boundary_pair() -> (QueryInstance, QueryInstance) {
        let step = 1.05f64;
        let at = |offset: f64| {
            QueryInstance::builder()
                .services(vec![
                    Service::new(step.powf(3.5 + offset), step.powi(-6)),
                    Service::new(step.powi(12), step.powi(-2)),
                    Service::new(step.powi(-4), step.powi(-9)),
                ])
                .comm(CommMatrix::uniform(3, step.powi(-3)))
                .build()
                .unwrap()
        };
        (at(-0.1), at(0.1))
    }

    #[test]
    fn second_probe_bridges_a_boundary_crossing() {
        let (below, above) = boundary_pair();

        let single = PlanCache::new(CacheConfig::default());
        single.serve(&below, &BnbConfig::paper());
        assert_eq!(
            single.serve(&above, &BnbConfig::paper()).source,
            ServeSource::Cold,
            "one probe: the crossing flips the fingerprint to a cold key"
        );

        let dual = PlanCache::new(CacheConfig { probes: 2, ..CacheConfig::default() });
        dual.serve(&below, &BnbConfig::paper());
        let served = dual.serve(&above, &BnbConfig::paper());
        assert_eq!(served.source, ServeSource::CacheHit, "probe 2 finds the shifted-grid alias");
        let stats = dual.stats();
        assert_eq!((stats.hits, stats.probe2_hits, stats.misses), (1, 1, 1));
        // Probe-2 hits touch the alias but never write new entries (see
        // `serve`): the same side keeps answering through the alias and
        // the cache stays at its two slots.
        let again = dual.serve(&above, &BnbConfig::paper());
        assert_eq!(again.source, ServeSource::CacheHit);
        assert_eq!(dual.stats().probe2_hits, 2, "the stable alias keeps answering");
        assert_eq!(dual.stats().entries, 2, "no write amplification from probe-2 hits");
        // Quality: identical to a fresh optimum within validation.
        let fresh = optimize(&above);
        assert!(served.cost <= fresh.cost() * 1.05 + 1e-12);
    }

    #[test]
    fn snapshot_restore_round_trips_entries_and_behavior() {
        let cache = PlanCache::new(CacheConfig::default());
        let instances: Vec<QueryInstance> = (0..4).map(|s| instance(40 + s, 6)).collect();
        let cold: Vec<ServedPlan> =
            instances.iter().map(|i| cache.serve(i, &BnbConfig::paper())).collect();

        let snapshot = cache.snapshot();
        assert_eq!(snapshot.entries.len(), 4);
        assert!(
            snapshot.entries.windows(2).all(|w| w[0].fingerprint < w[1].fingerprint),
            "deterministic order"
        );

        let restored = PlanCache::new(CacheConfig::default());
        assert_eq!(restored.restore(&snapshot).expect("restores"), 4);
        assert_eq!(restored.stats().entries, 4);
        for (inst, first) in instances.iter().zip(&cold) {
            let served = restored.serve(inst, &BnbConfig::paper());
            assert_eq!(served.source, ServeSource::CacheHit, "warm restart must hit");
            assert_eq!(served.plan, first.plan);
            assert_eq!(served.cost.to_bits(), first.cost.to_bits());
            assert_eq!(served.fingerprint, first.fingerprint);
        }
        // Text round-trip: parse(to_text) feeds restore_from_text too.
        let text = snapshot.to_text();
        let from_text = PlanCache::new(CacheConfig::default());
        assert_eq!(from_text.restore_from_text(&text).expect("parses and restores"), 4);
        assert_eq!(from_text.snapshot().to_text(), text, "snapshot of a restore is identical");
    }

    /// Entries hold the instance, not its text: a snapshot renders each
    /// entry as `format_instance` of the instance that was served, and a
    /// restore of that snapshot snapshots back to the same bytes.
    #[test]
    fn snapshot_renders_the_served_instances_and_restores_byte_identically() {
        for probes in [1, 2] {
            let config = CacheConfig { probes, ..CacheConfig::default() };
            let cache = PlanCache::new(config.clone());
            let instances: Vec<QueryInstance> = (0..5).map(|s| instance(60 + s, 6)).collect();
            let mut texts: Vec<(u64, String)> = instances
                .iter()
                .map(|inst| {
                    let served = cache.serve(inst, &BnbConfig::paper());
                    (served.fingerprint, format_instance(inst))
                })
                .collect();
            texts.sort();
            let snapshot = cache.snapshot();
            let rendered: Vec<(u64, String)> =
                snapshot.entries.iter().map(|e| (e.fingerprint, e.instance.clone())).collect();
            assert_eq!(rendered, texts, "probes = {probes}");

            let text = snapshot.to_text();
            let restored = PlanCache::new(config);
            restored.restore_from_text(&text).expect("restores");
            assert_eq!(restored.snapshot().to_text(), text, "probes = {probes}");
        }
    }

    #[test]
    fn restore_rederives_probe_aliases() {
        let (below, above) = boundary_pair();
        let dual = PlanCache::new(CacheConfig { probes: 2, ..CacheConfig::default() });
        dual.serve(&below, &BnbConfig::paper());
        let snapshot = dual.snapshot();
        assert_eq!(snapshot.entries.len(), 1, "aliases are not serialized");

        let restored = PlanCache::new(CacheConfig { probes: 2, ..CacheConfig::default() });
        restored.restore(&snapshot).expect("restores");
        assert_eq!(restored.stats().entries, 2, "primary + re-derived alias");
        assert_eq!(
            restored.serve(&above, &BnbConfig::paper()).source,
            ServeSource::CacheHit,
            "the re-derived alias bridges the boundary after restart"
        );
    }

    #[test]
    fn restore_rejects_resolution_mismatch_with_the_exact_message() {
        let cache = PlanCache::new(CacheConfig {
            quantization: Quantization::new(0.1),
            ..CacheConfig::default()
        });
        cache.serve(&instance(50, 5), &BnbConfig::paper());
        let snapshot = cache.snapshot();
        let other = PlanCache::new(CacheConfig::default());
        let err = other.restore(&snapshot).expect_err("resolutions differ");
        assert_eq!(err.to_string(), "snapshot resolution 0.1 does not match cache resolution 0.05");
        assert_eq!(other.stats().entries, 0, "nothing restored");
    }

    #[test]
    fn restore_rejects_corrupt_entries() {
        let cache = PlanCache::new(CacheConfig::default());
        cache.serve(&instance(51, 5), &BnbConfig::paper());
        let good = cache.snapshot();

        let mut tampered = good.clone();
        tampered.entries[0].fingerprint ^= 1;
        let err = PlanCache::new(CacheConfig::default())
            .restore(&tampered)
            .expect_err("fingerprint no longer matches the instance");
        assert_eq!(err.to_string(), "snapshot entry 0: fingerprint mismatch");

        let mut tampered = good.clone();
        tampered.entries[0].canonical_plan = vec![0, 0, 1, 2, 3];
        let err = PlanCache::new(CacheConfig::default())
            .restore(&tampered)
            .expect_err("not a permutation");
        assert_eq!(err.to_string(), "snapshot entry 0: invalid canonical plan");

        let mut tampered = good.clone();
        tampered.entries[0].instance = "dsq-instance v1\nname broken\nn 2\n".into();
        let err = PlanCache::new(CacheConfig::default())
            .restore(&tampered)
            .expect_err("instance truncated");
        assert!(err.to_string().starts_with("snapshot entry 0: instance does not parse:"), "{err}");
    }
}
