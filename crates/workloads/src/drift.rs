//! Drifting-statistics request streams for the serving layer.
//!
//! Federated query traffic is dominated by *repeated* queries whose cost
//! and selectivity statistics drift slowly between optimizations (fresh
//! cardinality estimates, load-dependent service latencies). A
//! [`DriftStream`] models exactly that: a small set of base queries
//! (fixed topology — the hosts do not move between requests) cycled
//! round-robin, each carrying per-service cost/selectivity values that
//! follow a multiplicative **mean-reverting** random walk from request
//! to request: fresh noise arrives every occurrence, while the
//! accumulated offset decays toward the base value, the way load-driven
//! statistics fluctuate around slowly-changing baselines (a free random
//! walk would wander without bound and eventually describe a different
//! query, not a drifting one). It is the workload the `dsq-service` plan
//! cache is designed for, and what experiment E13 measures.
//!
//! Deterministic in the seed, like every generator in this crate.

use crate::families::{generate, Family};
use dsq_core::{CommMatrix, QueryInstance, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a [`DriftStream`]. Passive struct; fields are public.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// Family the base queries are drawn from.
    pub family: Family,
    /// Services per query.
    pub n: usize,
    /// Stream seed (bases and walks are deterministic in it).
    pub seed: u64,
    /// Number of distinct base queries cycled round-robin.
    pub queries: usize,
    /// Total requests the stream yields.
    pub requests: usize,
    /// Per-request relative drift magnitude of each selectivity: every
    /// occurrence multiplies `σ_i` by `1 + rate · u`, `u ∈ [-1, 1]`,
    /// after decaying the accumulated offset by [`reversion`](Self::reversion).
    pub selectivity_rate: f64,
    /// Per-request relative drift magnitude of each processing cost.
    pub cost_rate: f64,
    /// Mean-reversion factor in `[0, 1]`: the fraction of the
    /// accumulated (logarithmic) offset retained per occurrence. `0`
    /// re-jitters the base values independently each time; values close
    /// to `1` approach a free random walk.
    pub reversion: f64,
    /// Adversarial variant: pin one parameter per base query onto a
    /// quantization bucket **boundary** and oscillate it across (see
    /// [`BoundaryWalk`]). `None` for plain mean-reverting drift.
    pub boundary: Option<BoundaryWalk>,
}

/// The boundary-walking variant: each base query's first service cost is
/// re-pinned to sit exactly on a bucket boundary of the given
/// quantization grid and oscillates across it as a triangle wave. Every
/// crossing flips the primary fingerprint between two adjacent keys —
/// the adversarial case for a single-probe plan cache (the ROADMAP's
/// "slowly walking parameter") — while the half-bucket-shifted grid of a
/// two-probe cache sees one stable key throughout, because the
/// oscillation never strays more than [`amplitude`](Self::amplitude)
/// `< 0.5` buckets from the boundary, which is that grid's bucket
/// center.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryWalk {
    /// Resolution of the quantization grid whose boundary is straddled
    /// (match the target cache's fingerprint resolution).
    pub resolution: f64,
    /// Oscillation amplitude in buckets, in `(0, 0.5)`: strictly less
    /// than half a bucket so the shifted grid stays stable.
    pub amplitude: f64,
    /// Occurrences (per base query) of one full oscillation; `2` makes
    /// every consecutive occurrence land on the opposite side.
    pub period: usize,
}

impl Default for BoundaryWalk {
    /// 5% grid (the cache default), 0.2-bucket amplitude, alternating
    /// sides every occurrence.
    fn default() -> Self {
        BoundaryWalk { resolution: 0.05, amplitude: 0.2, period: 2 }
    }
}

impl BoundaryWalk {
    /// Position of occurrence `occurrence` in bucket units relative to
    /// the straddled boundary: a triangle wave in
    /// `[-amplitude, +amplitude]` starting at the negative extreme.
    fn offset(&self, occurrence: usize) -> f64 {
        let phase = (occurrence % self.period) as f64 / self.period as f64;
        let triangle = if phase < 0.5 { 4.0 * phase - 1.0 } else { 3.0 - 4.0 * phase };
        self.amplitude * triangle
    }
}

impl DriftConfig {
    /// A stream of `requests` requests over `n`-service queries: 8 base
    /// queries, 0.5% selectivity and 0.25% cost drift per occurrence —
    /// slow enough that most re-optimizations are redundant, fast enough
    /// that entries eventually go stale.
    pub fn new(family: Family, n: usize, seed: u64, requests: usize) -> Self {
        DriftConfig {
            family,
            n,
            seed,
            queries: 8,
            requests,
            selectivity_rate: 0.005,
            cost_rate: 0.0025,
            reversion: 0.9,
            boundary: None,
        }
    }

    /// A boundary-walking stream (see [`BoundaryWalk`]): like
    /// [`new`](Self::new) but with every base query's first cost
    /// oscillating across a bucket boundary of the `resolution` grid and
    /// the background noise switched off, so the fingerprint churn is
    /// exactly the walked parameter's.
    pub fn boundary_walk(
        family: Family,
        n: usize,
        seed: u64,
        requests: usize,
        resolution: f64,
    ) -> Self {
        DriftConfig {
            selectivity_rate: 0.0,
            cost_rate: 0.0,
            boundary: Some(BoundaryWalk { resolution, ..BoundaryWalk::default() }),
            ..DriftConfig::new(family, n, seed, requests)
        }
    }
}

/// One drifting base query: the fixed network, the baseline statistics,
/// and the current multiplicative offsets of the walk.
#[derive(Debug, Clone)]
struct BaseQuery {
    costs: Vec<f64>,
    selectivities: Vec<f64>,
    /// Current multiplicative offset per cost (starts at 1.0).
    cost_offsets: Vec<f64>,
    /// Current multiplicative offset per selectivity.
    selectivity_offsets: Vec<f64>,
    comm: CommMatrix,
}

/// Iterator over the requests of a drifting workload stream: base
/// queries cycled round-robin, each with statistics that follow a
/// mean-reverting random walk.
///
/// # Examples
///
/// ```
/// use dsq_workloads::{DriftConfig, DriftStream, Family};
///
/// let config = DriftConfig::new(Family::Correlated, 6, 7, 20);
/// let requests: Vec<_> = DriftStream::new(config.clone()).collect();
/// assert_eq!(requests.len(), 20);
/// // Deterministic in the seed...
/// let again: Vec<_> = DriftStream::new(config).collect();
/// assert_eq!(requests, again);
/// // ...and occurrence 8 revisits base query 0, slightly drifted.
/// assert_eq!(requests[8].comm(), requests[0].comm());
/// assert_ne!(requests[8], requests[0]);
/// ```
#[derive(Debug, Clone)]
pub struct DriftStream {
    config: DriftConfig,
    bases: Vec<BaseQuery>,
    rng: StdRng,
    emitted: usize,
}

impl DriftStream {
    /// Builds the stream (generates the base queries eagerly, yields
    /// requests lazily).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `queries == 0`, a drift rate is negative,
    /// non-finite, or `≥ 1` (a rate of 1 could zero out a parameter).
    pub fn new(config: DriftConfig) -> Self {
        assert!(config.n > 0, "queries need at least one service");
        assert!(config.queries > 0, "a stream needs at least one base query");
        for rate in [config.selectivity_rate, config.cost_rate] {
            assert!(
                rate.is_finite() && (0.0..1.0).contains(&rate),
                "drift rates must be in [0, 1), got {rate}"
            );
        }
        assert!(
            config.reversion.is_finite() && (0.0..=1.0).contains(&config.reversion),
            "reversion must be in [0, 1], got {}",
            config.reversion
        );
        if let Some(walk) = &config.boundary {
            assert!(
                walk.resolution.is_finite() && walk.resolution > 0.0 && walk.resolution < 1.0,
                "boundary resolution must be in (0, 1), got {}",
                walk.resolution
            );
            assert!(
                walk.amplitude.is_finite() && walk.amplitude > 0.0 && walk.amplitude < 0.5,
                "boundary amplitude must be in (0, 0.5), got {}",
                walk.amplitude
            );
            assert!(walk.period >= 2, "boundary period must be at least 2");
        }
        let bases = (0..config.queries)
            .map(|q| {
                let inst =
                    generate(config.family, config.n, config.seed ^ (q as u64).rotate_left(17));
                BaseQuery {
                    costs: inst.services().iter().map(Service::cost).collect(),
                    selectivities: inst.services().iter().map(Service::selectivity).collect(),
                    cost_offsets: vec![1.0; config.n],
                    selectivity_offsets: vec![1.0; config.n],
                    comm: inst.comm().clone(),
                }
            })
            .collect();
        let rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E3779B97F4A7C15));
        DriftStream { config, bases, rng, emitted: 0 }
    }

    /// The configuration the stream was built with.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }
}

impl Iterator for DriftStream {
    type Item = QueryInstance;

    fn next(&mut self) -> Option<QueryInstance> {
        if self.emitted >= self.config.requests {
            return None;
        }
        let index = self.emitted;
        let base_index = index % self.bases.len();
        let occurrence = index / self.bases.len();
        // Snapshot the base *before* walking it, so request 0 of each
        // base is the pristine family instance.
        let base = &mut self.bases[base_index];
        let mut services: Vec<Service> = base
            .costs
            .iter()
            .zip(&base.cost_offsets)
            .zip(base.selectivities.iter().zip(&base.selectivity_offsets))
            .map(|((&c, &co), (&s, &so))| Service::new(c * co, s * so))
            .collect();
        if let Some(walk) = &self.config.boundary {
            // Re-pin the first cost onto the bucket boundary nearest its
            // base magnitude and place this occurrence `offset` buckets
            // past it (in log space). A base whose first cost is zero
            // (e.g. the pure-transfer btsp-hard reduction) is anchored
            // at magnitude 1 instead: the zero bucket is a sentinel with
            // no boundary to walk.
            let step = 1.0 + walk.resolution;
            let anchor = if base.costs[0] > f64::MIN_POSITIVE { base.costs[0] } else { 1.0 };
            let boundary = (anchor.ln() / step.ln()).floor() + 0.5;
            let cost = step.powf(boundary + walk.offset(occurrence));
            services[0] = Service::new(cost, services[0].selectivity());
        }
        let instance = QueryInstance::builder()
            .name(format!(
                "drift-{}-n{}-q{}-t{}",
                self.config.family.name(),
                self.config.n,
                base_index,
                index
            ))
            .services(services)
            .comm(base.comm.clone())
            .build()
            .expect("drifted parameters stay valid");

        // Mean-reverting multiplicative walk: each occurrence decays the
        // accumulated (logarithmic) offset and adds fresh relative noise,
        // so statistics fluctuate around the baseline instead of
        // wandering without bound.
        let reversion = self.config.reversion;
        for offset in &mut base.cost_offsets {
            *offset = offset.powf(reversion)
                * (1.0 + self.config.cost_rate * self.rng.gen_range(-1.0..=1.0));
        }
        for offset in &mut base.selectivity_offsets {
            *offset = offset.powf(reversion)
                * (1.0 + self.config.selectivity_rate * self.rng.gen_range(-1.0..=1.0));
        }

        self.emitted += 1;
        Some(instance)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.requests - self.emitted;
        (left, Some(left))
    }
}

impl ExactSizeIterator for DriftStream {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_has_the_requested_shape() {
        let stream = DriftStream::new(DriftConfig::new(Family::Clustered, 7, 3, 25));
        assert_eq!(stream.len(), 25);
        assert_eq!(stream.config().queries, 8);
        let requests: Vec<_> = stream.collect();
        assert_eq!(requests.len(), 25);
        for inst in &requests {
            assert_eq!(inst.len(), 7);
        }
        assert!(requests[0].name().starts_with("drift-clustered-n7-q0-t0"));
    }

    #[test]
    fn topology_is_fixed_statistics_walk() {
        let requests: Vec<_> =
            DriftStream::new(DriftConfig::new(Family::UniformRandom, 6, 5, 24)).collect();
        // Occurrences of base 2: requests 2, 10, 18.
        let (a, b, c) = (&requests[2], &requests[10], &requests[18]);
        assert_eq!(a.comm(), b.comm());
        assert_eq!(b.comm(), c.comm());
        // Statistics drift but stay close (≤ 8 steps of ≤ 0.5%).
        for i in 0..6 {
            assert_ne!(a.selectivity(i), b.selectivity(i));
            assert!((b.selectivity(i) / a.selectivity(i) - 1.0).abs() < 0.05);
            assert!((c.cost(i) / a.cost(i) - 1.0).abs() < 0.05);
        }
        // The walk compounds: a later occurrence differs from both.
        assert_ne!(b.services(), c.services());
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let cfg = DriftConfig::new(Family::Correlated, 5, 11, 16);
        let a: Vec<_> = DriftStream::new(cfg.clone()).collect();
        let b: Vec<_> = DriftStream::new(cfg.clone()).collect();
        assert_eq!(a, b);
        let other: Vec<_> = DriftStream::new(DriftConfig { seed: 12, ..cfg }).collect();
        assert_ne!(a, other);
    }

    #[test]
    fn distinct_bases_are_distinct_instances() {
        let requests: Vec<_> =
            DriftStream::new(DriftConfig::new(Family::Euclidean, 6, 2, 8)).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_ne!(requests[i].comm(), requests[j].comm(), "bases {i} and {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "drift rates must be in [0, 1)")]
    fn runaway_rates_are_rejected() {
        DriftStream::new(DriftConfig {
            selectivity_rate: 1.5,
            ..DriftConfig::new(Family::Clustered, 4, 0, 4)
        });
    }

    #[test]
    fn boundary_walk_flips_the_primary_grid_but_not_the_shifted_one() {
        use dsq_core::{CanonicalKey, Quantization};
        let resolution = 0.05;
        let config = DriftConfig {
            queries: 2,
            ..DriftConfig::boundary_walk(Family::Clustered, 6, 9, 24, resolution)
        };
        let requests: Vec<_> = DriftStream::new(config).collect();
        let q = Quantization::new(resolution);
        // Occurrences of base 0: indices 0, 2, 4, …
        let primary: Vec<u64> =
            (0..12).map(|k| CanonicalKey::new(&requests[2 * k], &q).fingerprint()).collect();
        let shifted: Vec<u64> = (0..12)
            .map(|k| CanonicalKey::with_phase(&requests[2 * k], &q, 0.5).fingerprint())
            .collect();
        // The primary fingerprint alternates between exactly two keys —
        // every occurrence crosses the boundary…
        assert_ne!(primary[0], primary[1], "consecutive occurrences straddle the boundary");
        for (k, &fingerprint) in primary.iter().enumerate() {
            assert_eq!(fingerprint, primary[k % 2], "period-2 alternation at occurrence {k}");
        }
        // …while the shifted grid sees one stable key throughout.
        for &fingerprint in &shifted {
            assert_eq!(fingerprint, shifted[0], "the walk stays inside one shifted bucket");
        }
    }

    #[test]
    fn boundary_walk_streams_stay_deterministic() {
        let config = DriftConfig::boundary_walk(Family::BtspHard, 5, 3, 16, 0.2);
        let a: Vec<_> = DriftStream::new(config.clone()).collect();
        let b: Vec<_> = DriftStream::new(config).collect();
        assert_eq!(a, b);
        // Occurrences 0 and 1 of base 0 sit on opposite sides of the
        // boundary; everything else is pinned (zero rates). The zero
        // btsp-hard base cost is re-anchored at magnitude ~1.
        assert_ne!(a[0].cost(0), a[8].cost(0));
        assert!(a[0].cost(0) > 0.5 && a[0].cost(0) < 2.0, "anchored near 1, got {}", a[0].cost(0));
        assert_eq!(a[0].selectivity(0), a[8].selectivity(0));
        assert_eq!(a[0].cost(1), a[8].cost(1));
    }

    #[test]
    #[should_panic(expected = "boundary amplitude must be in (0, 0.5)")]
    fn half_bucket_amplitudes_are_rejected() {
        DriftStream::new(DriftConfig {
            boundary: Some(BoundaryWalk { amplitude: 0.5, ..BoundaryWalk::default() }),
            ..DriftConfig::new(Family::Clustered, 4, 0, 4)
        });
    }
}
