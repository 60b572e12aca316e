//! Metamorphic tests for the cost model and the warm-started search.
//!
//! Three relations that must hold without knowing any instance's true
//! optimum:
//!
//! * **Relabel invariance** — permuting the services (and the rows/
//!   columns of the `CommMatrix`, the sink vector, and the precedence
//!   edges with them) cannot change the optimal bottleneck cost, and the
//!   optimizer's plan for the relabeled instance must map back to an
//!   equally good plan of the original. The cost is *exactly* equal
//!   (bit-level): a plan's terms multiply the same floats in the same
//!   order under either labeling, so the plan-cost sets coincide.
//! * **Scale linearity** — multiplying every cost, transfer, and sink
//!   entry by λ scales each Eq. 1 term by λ, so the optimal cost scales
//!   by exactly λ and the optimal plan is unchanged. With λ a power of
//!   two the float arithmetic is exact, so equality is bit-level.
//! * **Warm = cold** — seeding the search with an incumbent
//!   (`BnbConfig::initial_incumbent`, the serving layer's warm start)
//!   must return the cold search's plan bit-for-bit: a strictly
//!   suboptimal seed only tightens pruning without touching the
//!   trajectory to the first optimal candidate, and an optimal seed is
//!   returned as-is. Node counts must never exceed the cold search's.
//!
//! The corpus spans all seven workload families plus netsim-backed
//! instances in both σ regimes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service_ordering::core::{
    bottleneck_cost, optimize_with, BnbConfig, CommMatrix, Plan, QueryInstance, Service,
};
use service_ordering::workloads::{generate, Family};

/// The shared corpus: every workload family at two sizes/seeds. Sizes
/// stay small enough that the full suite is a few seconds.
fn corpus() -> Vec<QueryInstance> {
    let mut instances = Vec::new();
    for family in Family::ALL {
        for (n, seed) in [(6usize, 5u64), (9, 6)] {
            instances.push(generate(family, n, seed));
        }
    }
    instances
}

/// Relabels an instance: service `i` of the result is service
/// `perm[i]` of the original.
fn relabel(inst: &QueryInstance, perm: &[usize]) -> QueryInstance {
    let n = inst.len();
    QueryInstance::builder()
        .name(format!("{}-relabel", inst.name()))
        .services(perm.iter().map(|&o| inst.services()[o].clone()))
        .comm(CommMatrix::from_fn(n, |i, j| inst.transfer(perm[i], perm[j])))
        .sink(perm.iter().map(|&o| inst.sink_cost(o)).collect())
        .build()
        .expect("relabeling preserves validity")
}

/// Uniformly scales every cost, transfer, and sink entry by `factor`.
fn scaled(inst: &QueryInstance, factor: f64) -> QueryInstance {
    let n = inst.len();
    QueryInstance::builder()
        .name(format!("{}-x{factor}", inst.name()))
        .services(inst.services().iter().map(|s| Service::new(s.cost() * factor, s.selectivity())))
        .comm(CommMatrix::from_fn(n, |i, j| inst.transfer(i, j) * factor))
        .sink((0..n).map(|i| inst.sink_cost(i) * factor).collect())
        .build()
        .expect("scaling preserves validity")
}

#[test]
fn optimal_cost_is_invariant_under_relabeling() {
    let mut rng = StdRng::seed_from_u64(404);
    for inst in corpus() {
        let original = optimize_with(&inst, &BnbConfig::paper());
        for _ in 0..3 {
            // A uniformly random permutation (Fisher–Yates).
            let n = inst.len();
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.gen_range(0..=i));
            }
            let relabeled_inst = relabel(&inst, &perm);
            let relabeled = optimize_with(&relabeled_inst, &BnbConfig::paper());
            assert_eq!(
                relabeled.cost().to_bits(),
                original.cost().to_bits(),
                "{}: relabeling changed the optimal cost ({} vs {})",
                inst.name(),
                relabeled.cost(),
                original.cost()
            );
            // The relabeled plan, mapped back through the permutation,
            // must achieve the same cost on the original instance.
            let mapped: Vec<usize> = relabeled.plan().indices().iter().map(|&i| perm[i]).collect();
            let mapped_plan = Plan::new(mapped).expect("permutation maps to permutation");
            assert_eq!(
                bottleneck_cost(&inst, &mapped_plan).to_bits(),
                original.cost().to_bits(),
                "{}: mapped-back plan is not optimal on the original",
                inst.name()
            );
        }
    }
}

#[test]
fn optimal_cost_scales_linearly_and_the_plan_is_invariant() {
    // Powers of two: multiplication is exact in binary floating point,
    // so the metamorphic relation holds bit-for-bit, not within an ε.
    for factor in [0.25f64, 4.0] {
        for inst in corpus() {
            let base = optimize_with(&inst, &BnbConfig::paper());
            let scaled_result = optimize_with(&scaled(&inst, factor), &BnbConfig::paper());
            assert_eq!(
                scaled_result.cost().to_bits(),
                (base.cost() * factor).to_bits(),
                "{}: cost must scale by exactly λ = {factor}",
                inst.name()
            );
            assert_eq!(
                scaled_result.plan(),
                base.plan(),
                "{}: optimal plan must not depend on the scale λ = {factor}",
                inst.name()
            );
        }
    }
}

#[test]
fn warm_started_search_is_bit_identical_to_cold() {
    for inst in corpus() {
        let cold = optimize_with(&inst, &BnbConfig::paper());

        // Warm-start from the cold optimum itself: returned unchanged.
        let warm_opt =
            optimize_with(&inst, &BnbConfig::paper().with_initial_incumbent(cold.plan().clone()));
        assert_eq!(warm_opt.plan(), cold.plan(), "{}: optimal seed", inst.name());
        assert_eq!(warm_opt.cost().to_bits(), cold.cost().to_bits());
        assert!(
            warm_opt.stats().nodes_visited <= cold.stats().nodes_visited,
            "{}: warm start enlarged the tree",
            inst.name()
        );

        // Warm-start from an arbitrary (generally suboptimal) seed.
        let seed_plan = Plan::identity(inst.len());
        let seed_cost = bottleneck_cost(&inst, &seed_plan);
        let warm =
            optimize_with(&inst, &BnbConfig::paper().with_initial_incumbent(seed_plan.clone()));
        assert_eq!(warm.cost().to_bits(), cold.cost().to_bits(), "{}", inst.name());
        assert!(warm.stats().nodes_visited <= cold.stats().nodes_visited);
        if seed_cost > cold.cost() {
            assert_eq!(
                warm.plan(),
                cold.plan(),
                "{}: suboptimal seed must not change the returned plan",
                inst.name()
            );
        } else {
            // The identity plan happened to be optimal: it is returned.
            assert_eq!(warm.plan(), &seed_plan, "{}", inst.name());
        }
    }
}
