//! Differential test battery: four optimizers — the paper's
//! branch-and-bound (`optimize`), the same search under the daemon's
//! serving configuration (`paper()` plus prefix dominance, as
//! `ServerConfig::default()` sets it), brute-force `exhaustive` search,
//! and the Held-Karp style `subset_dp` — must agree on the optimal bottleneck
//! cost for every instance, across **all five** `dsq-netsim` topology
//! families and **both** selectivity regimes (σ ≤ 1 and the σ > 1
//! proliferative generalization). Until this suite, baseline agreement
//! was only spot-checked per family.
//!
//! Case budget: `PROPTEST_CASES` caps the property sweep (CI pins it);
//! the deterministic corpus below guarantees every (family × regime)
//! cell is exercised at least three times regardless of the cap.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service_ordering::baselines::{exhaustive, subset_dp};
use service_ordering::core::{
    bottleneck_cost, optimize, optimize_with, BnbConfig, CommMatrix, QueryInstance, Service,
};
use service_ordering::netsim;

/// The five `dsq-netsim` topology families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topology {
    Euclidean,
    Clustered,
    HubSpoke,
    LastMile,
    UniformRandom,
}

const TOPOLOGIES: [Topology; 5] = [
    Topology::Euclidean,
    Topology::Clustered,
    Topology::HubSpoke,
    Topology::LastMile,
    Topology::UniformRandom,
];

fn comm_for(topology: Topology, n: usize, seed: u64) -> CommMatrix {
    match topology {
        Topology::Euclidean => netsim::euclidean(n, 100.0, 0.1, 0.012, seed).into_comm(),
        Topology::Clustered => netsim::clustered(n, 3, 0.1, 1.2, 0.2, seed).into_comm(),
        Topology::HubSpoke => netsim::hub_spoke(n, 2, 0.2, 0.8, seed).into_comm(),
        Topology::LastMile => netsim::last_mile(n, (0.05, 0.6), (0.02, 0.3), seed).into_comm(),
        Topology::UniformRandom => netsim::uniform_random(n, 0.05, 1.5, false, seed).into_comm(),
    }
}

/// `proliferative == false` keeps every σ in (0, 1] (the classical
/// selective regime); `true` mixes in σ up to 2.5 (the paper's σ > 1
/// generalization).
fn instance(topology: Topology, proliferative: bool, n: usize, seed: u64) -> QueryInstance {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD5A5);
    let services: Vec<Service> = (0..n)
        .map(|_| {
            let sigma = if proliferative && rng.gen_bool(0.35) {
                rng.gen_range(1.0..2.5)
            } else {
                rng.gen_range(0.05..1.0)
            };
            Service::new(rng.gen_range(0.05..2.0), sigma)
        })
        .collect();
    QueryInstance::builder()
        .name(format!("differential-{topology:?}-{proliferative}-{n}-{seed}"))
        .services(services)
        .comm(comm_for(topology, n, seed))
        .build()
        .expect("generated instances are valid")
}

/// The invariant under test: all four optimizers report the same optimal
/// cost, and each reported plan actually achieves its reported cost.
fn assert_all_optimizers_agree(inst: &QueryInstance, context: &str) {
    let reference = exhaustive(inst).expect("n within exhaustive limit");
    let dp = subset_dp(inst).expect("n within DP limit");
    let bnb = optimize(inst);
    let serving = optimize_with(inst, &BnbConfig { use_dominance: true, ..BnbConfig::paper() });

    let tol = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!(
        tol(dp.cost(), reference.cost()),
        "{context}: subset_dp {} vs exhaustive {}",
        dp.cost(),
        reference.cost()
    );
    assert!(
        tol(bnb.cost(), reference.cost()),
        "{context}: optimize {} vs exhaustive {}",
        bnb.cost(),
        reference.cost()
    );
    assert!(
        tol(serving.cost(), reference.cost()),
        "{context}: serving configuration {} vs exhaustive {}",
        serving.cost(),
        reference.cost()
    );
    assert!(bnb.is_proven_optimal() && serving.is_proven_optimal());
    for (plan, cost) in
        [(bnb.plan(), bnb.cost()), (serving.plan(), serving.cost()), (dp.plan(), dp.cost())]
    {
        assert!(
            tol(bottleneck_cost(inst, plan), cost),
            "{context}: a reported plan does not achieve its reported cost"
        );
    }
}

/// Deterministic corpus: every family × regime cell, three sizes each —
/// runs in full even when PROPTEST_CASES is pinned low.
#[test]
fn corpus_all_families_and_both_regimes_agree() {
    for topology in TOPOLOGIES {
        for proliferative in [false, true] {
            for (n, seed) in [(4usize, 11u64), (6, 12), (8, 13)] {
                let inst = instance(topology, proliferative, n, seed);
                assert_all_optimizers_agree(
                    &inst,
                    &format!("{topology:?} proliferative={proliferative} n={n} seed={seed}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Randomized sweep over the same grid: arbitrary seeds, n ≤ 8
    /// (bounded by the exhaustive oracle's n! blowup).
    #[test]
    fn random_instances_agree_across_optimizers(
        topology_index in 0usize..TOPOLOGIES.len(),
        regime in 0u32..2,
        n in 2usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        let topology = TOPOLOGIES[topology_index];
        let proliferative = regime == 1;
        let inst = instance(topology, proliferative, n, seed);
        assert_all_optimizers_agree(
            &inst,
            &format!("{topology:?} proliferative={proliferative} n={n} seed={seed}"),
        );
    }
}
