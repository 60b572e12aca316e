//! Network topology models for decentralized service queries.
//!
//! The optimizer only ever observes the per-tuple transfer matrix
//! `t_{i,j}`; this crate generates such matrices from parametric host
//! topologies, standing in for the testbed networks of the paper's
//! evaluation (see DESIGN.md, substitution table). Four families cover the
//! heterogeneity regimes that separate the decentralized problem from the
//! uniform-cost special case of Srivastava et al.:
//!
//! * [`euclidean`] — hosts on a plane, latency proportional to distance
//!   (wide-area deployments, triangle inequality holds);
//! * [`clustered`] — few data centers with cheap intra- and expensive
//!   inter-cluster links (the sharpest win for decentralized-aware plans);
//! * [`hub_spoke`] — spokes route through their hub (star/ISP-like);
//! * [`last_mile`] — per-host uplink + downlink costs,
//!   `t_{i,j} = up_i + down_j` (consumer-broadband asymmetry);
//! * [`uniform_random`] — i.i.d. entries, optionally asymmetric (an
//!   adversarial, structure-free regime).
//!
//! All generators are deterministic in their seed. [`heterogeneity`]
//! quantifies a matrix's spread and [`scale_spread`] interpolates between
//! a matrix and its uniform mean — the knob of experiment E6.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dsq_core::CommMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated topology: the transfer matrix plus whatever structure the
/// generator knows about (host coordinates).
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    comm: CommMatrix,
    positions: Option<Vec<(f64, f64)>>,
}

impl Topology {
    /// Descriptive name of the generating family.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-tuple transfer cost matrix.
    pub fn comm(&self) -> &CommMatrix {
        &self.comm
    }

    /// Consumes the topology, returning the matrix.
    pub fn into_comm(self) -> CommMatrix {
        self.comm
    }

    /// Host coordinates, if the family is geometric.
    pub fn positions(&self) -> Option<&[(f64, f64)]> {
        self.positions.as_deref()
    }
}

/// Hosts placed uniformly at random on a `side × side` plane; transfer
/// cost `base + rate · distance`, symmetric.
///
/// # Panics
///
/// Panics if `n == 0` or any parameter is negative/non-finite.
pub fn euclidean(n: usize, side: f64, base: f64, rate: f64, seed: u64) -> Topology {
    assert!(n > 0, "topology needs at least one host");
    assert!(side >= 0.0 && base >= 0.0 && rate >= 0.0, "parameters must be non-negative");
    let mut rng = StdRng::seed_from_u64(seed);
    let positions: Vec<(f64, f64)> =
        (0..n).map(|_| (rng.gen_range(0.0..=side), rng.gen_range(0.0..=side))).collect();
    let comm = CommMatrix::from_fn(n, |i, j| {
        if i == j {
            0.0
        } else {
            let (xi, yi) = positions[i];
            let (xj, yj) = positions[j];
            base + rate * ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
        }
    });
    Topology { name: "euclidean".into(), comm, positions: Some(positions) }
}

/// Hosts assigned uniformly to `clusters` data centers; `intra` cost
/// within a cluster, `inter` across clusters, each perturbed by a
/// multiplicative jitter drawn from `[1-jitter, 1+jitter]` (asymmetric).
///
/// # Panics
///
/// Panics if `n == 0`, `clusters == 0`, or `jitter` is outside `[0, 1)`.
pub fn clustered(
    n: usize,
    clusters: usize,
    intra: f64,
    inter: f64,
    jitter: f64,
    seed: u64,
) -> Topology {
    assert!(n > 0 && clusters > 0, "need hosts and clusters");
    assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster_of: Vec<usize> = (0..n).map(|_| rng.gen_range(0..clusters)).collect();
    let comm = CommMatrix::from_fn(n, |i, j| {
        if i == j {
            0.0
        } else {
            let nominal = if cluster_of[i] == cluster_of[j] { intra } else { inter };
            nominal * rng.gen_range(1.0 - jitter..=1.0 + jitter)
        }
    });
    Topology { name: "clustered".into(), comm, positions: None }
}

/// Star-of-stars: every host hangs off one of `hubs` hubs; traffic costs
/// `spoke_leg` to reach the hub, `hub_leg` between distinct hubs, and
/// `spoke_leg` down to the destination (intra-hub pairs skip the hub leg).
///
/// # Panics
///
/// Panics if `n == 0` or `hubs == 0`.
pub fn hub_spoke(n: usize, hubs: usize, spoke_leg: f64, hub_leg: f64, seed: u64) -> Topology {
    assert!(n > 0 && hubs > 0, "need hosts and hubs");
    let mut rng = StdRng::seed_from_u64(seed);
    let hub_of: Vec<usize> = (0..n).map(|_| rng.gen_range(0..hubs)).collect();
    let comm = CommMatrix::from_fn(n, |i, j| {
        if i == j {
            0.0
        } else if hub_of[i] == hub_of[j] {
            2.0 * spoke_leg
        } else {
            2.0 * spoke_leg + hub_leg
        }
    });
    Topology { name: "hub-spoke".into(), comm, positions: None }
}

/// I.i.d. transfer costs in `[lo, hi]`; `symmetric` mirrors the upper
/// triangle.
///
/// # Panics
///
/// Panics if `n == 0` or the range is invalid.
pub fn uniform_random(n: usize, lo: f64, hi: f64, symmetric: bool, seed: u64) -> Topology {
    assert!(n > 0, "topology needs at least one host");
    assert!(lo >= 0.0 && hi >= lo, "invalid cost range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = vec![vec![0.0; n]; n];
    // Indexed loops: the symmetric branch reads across rows (`rows[j][i]`
    // while filling row `i`), which iterator adapters cannot express.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if symmetric && j < i {
                rows[i][j] = rows[j][i];
            } else {
                rows[i][j] = rng.gen_range(lo..=hi);
            }
        }
    }
    let comm = CommMatrix::from_rows(rows).expect("generated rows are square and valid");
    Topology { name: "uniform-random".into(), comm, positions: None }
}

/// Last-mile decomposition: every host has an uplink cost and a downlink
/// cost drawn from the given ranges, and `t_{i,j} = up_i + down_j`
/// (asymmetric whenever uplinks and downlinks differ — the
/// consumer-broadband shape where send capacity, not distance, dominates).
///
/// # Panics
///
/// Panics if `n == 0` or a range is invalid (`lo > hi` or negative).
pub fn last_mile(n: usize, up: (f64, f64), down: (f64, f64), seed: u64) -> Topology {
    assert!(n > 0, "topology needs at least one host");
    for (lo, hi) in [up, down] {
        assert!(lo >= 0.0 && hi >= lo, "invalid cost range");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let ups: Vec<f64> = (0..n).map(|_| rng.gen_range(up.0..=up.1)).collect();
    let downs: Vec<f64> = (0..n).map(|_| rng.gen_range(down.0..=down.1)).collect();
    let comm = CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { ups[i] + downs[j] });
    Topology { name: "last-mile".into(), comm, positions: None }
}

/// Coefficient of variation (std-dev / mean) of the off-diagonal entries —
/// the heterogeneity measure swept in experiment E6. Zero for uniform
/// matrices and matrices smaller than 2×2.
pub fn heterogeneity(comm: &CommMatrix) -> f64 {
    let n = comm.len();
    if n < 2 {
        return 0.0;
    }
    let entries: Vec<f64> =
        (0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| comm.get(i, j))).collect();
    let mean = entries.iter().sum::<f64>() / entries.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = entries.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / entries.len() as f64;
    var.sqrt() / mean
}

/// Interpolates every off-diagonal entry between the matrix mean and its
/// original value: `factor = 0` collapses to the uniform mean, `1` is the
/// identity, `> 1` exaggerates the spread (clamped at zero). The diagonal
/// stays zero. This is the heterogeneity knob of experiment E6.
///
/// # Panics
///
/// Panics if `factor` is negative or non-finite.
pub fn scale_spread(comm: &CommMatrix, factor: f64) -> CommMatrix {
    assert!(factor.is_finite() && factor >= 0.0, "factor must be finite and non-negative");
    let mean = comm.mean_off_diagonal();
    CommMatrix::from_fn(comm.len(), |i, j| {
        if i == j {
            0.0
        } else {
            (mean + factor * (comm.get(i, j) - mean)).max(0.0)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_is_symmetric_and_metric_like() {
        let topo = euclidean(12, 100.0, 1.0, 0.1, 7);
        assert_eq!(topo.comm().len(), 12);
        assert!(topo.comm().is_symmetric(1e-12));
        assert_eq!(topo.positions().unwrap().len(), 12);
        // base > 0 ⇒ strictly positive off-diagonal.
        assert!(topo.comm().min_off_diagonal() >= 1.0);
        // Triangle inequality holds up to the base constant:
        // t(i,k) ≤ t(i,j) + t(j,k) since dist is a metric and base ≥ 0.
        let c = topo.comm();
        for i in 0..12 {
            for j in 0..12 {
                for k in 0..12 {
                    if i != j && j != k && i != k {
                        assert!(c.get(i, k) <= c.get(i, j) + c.get(j, k) + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = euclidean(8, 50.0, 0.5, 0.2, 3);
        let b = euclidean(8, 50.0, 0.5, 0.2, 3);
        assert_eq!(a.comm(), b.comm());
        let c = euclidean(8, 50.0, 0.5, 0.2, 4);
        assert_ne!(a.comm(), c.comm());
    }

    /// Asserts that `c` is the block matrix of a partition of the hosts
    /// into at most `groups` groups: `intra` within a group, `inter`
    /// across. Each host's group is named by its lowest-indexed host
    /// at cost `intra`.
    fn assert_blocks(c: &CommMatrix, intra: f64, inter: f64, groups: usize) {
        let n = c.len();
        let group: Vec<usize> =
            (0..n).map(|i| (0..i).find(|&j| c.get(i, j) == intra).unwrap_or(i)).collect();
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let expected = if group[i] == group[j] { intra } else { inter };
                assert_eq!(c.get(i, j), expected, "transfer ({i}, {j})");
            }
        }
        let mut named = group.clone();
        named.sort_unstable();
        named.dedup();
        assert!(named.len() <= groups, "{} groups, at most {groups} expected", named.len());
    }

    #[test]
    fn clustered_separates_intra_and_inter() {
        assert_blocks(clustered(20, 3, 1.0, 10.0, 0.0, 1).comm(), 1.0, 10.0, 3);
    }

    #[test]
    fn clustered_jitter_stays_in_band() {
        let topo = clustered(15, 2, 2.0, 8.0, 0.25, 9);
        let c = topo.comm();
        for i in 0..15 {
            for j in 0..15 {
                if i != j {
                    let v = c.get(i, j);
                    assert!(
                        (1.5..=2.5).contains(&v) || (6.0..=10.0).contains(&v),
                        "value {v} outside jitter bands"
                    );
                }
            }
        }
    }

    #[test]
    fn hub_spoke_costs_compose() {
        assert_blocks(hub_spoke(10, 2, 1.0, 5.0, 2).comm(), 2.0, 7.0, 2);
    }

    #[test]
    fn uniform_random_symmetry_flag() {
        let sym = uniform_random(9, 0.5, 2.0, true, 5);
        assert!(sym.comm().is_symmetric(1e-12));
        let asym = uniform_random(9, 0.5, 2.0, false, 5);
        assert!(!asym.comm().is_symmetric(1e-9));
        assert!(asym.comm().min_off_diagonal() >= 0.5);
        assert!(asym.comm().max_off_diagonal() <= 2.0);
    }

    #[test]
    fn heterogeneity_orders_regimes() {
        let uniform = CommMatrix::uniform(10, 3.0);
        assert_eq!(heterogeneity(&uniform), 0.0);
        let mild = clustered(10, 2, 2.0, 3.0, 0.0, 1).into_comm();
        let harsh = clustered(10, 2, 0.1, 30.0, 0.0, 1).into_comm();
        assert!(heterogeneity(&mild) < heterogeneity(&harsh));
        assert_eq!(heterogeneity(&CommMatrix::zeros(1)), 0.0);
    }

    #[test]
    fn scale_spread_endpoints() {
        let base = uniform_random(6, 1.0, 9.0, false, 11).into_comm();
        let collapsed = scale_spread(&base, 0.0);
        assert!(heterogeneity(&collapsed) < 1e-12);
        assert!((collapsed.mean_off_diagonal() - base.mean_off_diagonal()).abs() < 1e-9);
        let same = scale_spread(&base, 1.0);
        for i in 0..6 {
            for j in 0..6 {
                assert!((same.get(i, j) - base.get(i, j)).abs() < 1e-12);
            }
        }
        let wider = scale_spread(&base, 2.0);
        assert!(heterogeneity(&wider) > heterogeneity(&base) - 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_hosts_panics() {
        euclidean(0, 1.0, 0.0, 1.0, 0);
    }

    #[test]
    fn last_mile_decomposes_into_up_plus_down() {
        let topo = last_mile(8, (1.0, 5.0), (0.1, 0.5), 4);
        let c = topo.comm();
        // t(i,j) - t(i,k) must be independent of i (pure downlink delta).
        for i in 0..8 {
            for j in 0..8 {
                for k in 0..8 {
                    if i == j || i == k || j == k {
                        continue;
                    }
                    let delta_from_i = c.get(i, j) - c.get(i, k);
                    // Pick another sender m and check the same delta.
                    let m = (0..8).find(|&m| m != i && m != j && m != k).unwrap();
                    let delta_from_m = c.get(m, j) - c.get(m, k);
                    assert!(
                        (delta_from_i - delta_from_m).abs() < 1e-9,
                        "downlink delta must be sender-independent"
                    );
                }
            }
        }
        // Uplink-dominated ranges produce asymmetry.
        assert!(!c.is_symmetric(1e-6));
    }

    #[test]
    fn scale_spread_never_goes_negative() {
        // A bimodal matrix with entries far below the mean: exaggerating
        // the spread would push them negative without the clamp.
        let base = clustered(8, 2, 0.1, 20.0, 0.0, 3).into_comm();
        let wide = scale_spread(&base, 10.0);
        for i in 0..8 {
            for j in 0..8 {
                assert!(wide.get(i, j) >= 0.0, "negative transfer at ({i},{j})");
            }
        }
    }

    #[test]
    fn single_hub_collapses_to_two_legs() {
        let topo = hub_spoke(6, 1, 1.5, 99.0, 0);
        let c = topo.comm();
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    // Everyone shares the hub: never pays the hub leg.
                    assert_eq!(c.get(i, j), 3.0);
                }
            }
        }
    }

    #[test]
    fn topology_accessors_expose_structure() {
        let topo = euclidean(5, 10.0, 0.1, 1.0, 2);
        assert_eq!(topo.name(), "euclidean");
        assert_eq!(topo.positions().unwrap().len(), 5);
        let clustered = clustered(5, 2, 1.0, 2.0, 0.0, 2);
        assert!(clustered.positions().is_none());
        assert_blocks(clustered.comm(), 1.0, 2.0, 2);
    }
}
