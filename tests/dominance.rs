//! Prefix dominance (`BnbConfig::use_dominance`) changes nothing but
//! node counts.
//!
//! For every ablation preset `C`, `{use_dominance: true, ..C}` must return
//! the same plan indices and the same cost bit pattern as `C`, and that
//! cost must be the exact subset DP's optimum. The checks cover all seven
//! workload families (σ > 1 included), random precedence DAGs, warm
//! starts and node budgets, plus one pinned
//! instance on which comparing `ε` alone — without the prefix product —
//! serves a cost one ulp above the optimum.
//!
//! Case budget: `PROPTEST_CASES` caps the property sweep.

use proptest::prelude::*;
use service_ordering::baselines::subset_dp;
use service_ordering::core::{
    bottleneck_cost, optimize_with, BnbConfig, BnbResult, Plan, QueryInstance,
};
use service_ordering::workloads::{generate, random_dag, Family};

/// The ablation presets the switch must leave answer-identical.
fn presets() -> [(&'static str, BnbConfig); 4] {
    [
        ("paper", BnbConfig::paper()),
        ("incumbent_only", BnbConfig::incumbent_only()),
        ("without_backjump", BnbConfig::without_backjump()),
        ("without_epsilon_bar", BnbConfig::without_epsilon_bar()),
    ]
}

fn with_dominance(config: &BnbConfig) -> BnbConfig {
    BnbConfig { use_dominance: true, ..config.clone() }
}

/// A family instance, optionally constrained by a random precedence DAG
/// of the given edge density.
fn instance(family: Family, n: usize, seed: u64, density: f64) -> QueryInstance {
    let base = generate(family, n, seed);
    if density == 0.0 {
        return base;
    }
    QueryInstance::builder()
        .services(base.services().to_vec())
        .comm(base.comm().clone())
        .sink(base.sink_costs().to_vec())
        .precedence(random_dag(n, density, seed ^ 0xD0D0))
        .build()
        .expect("a random DAG is acyclic")
}

fn assert_identical(expected: &BnbResult, actual: &BnbResult, context: &str) {
    assert_eq!(actual.plan(), expected.plan(), "{context}: plan differs");
    assert_eq!(
        actual.cost().to_bits(),
        expected.cost().to_bits(),
        "{context}: cost {} vs {}",
        actual.cost(),
        expected.cost()
    );
    assert_eq!(actual.is_proven_optimal(), expected.is_proven_optimal(), "{context}");
}

/// Every preset with and without dominance: identical plans and cost
/// bits, both equal to the subset DP's optimum.
fn assert_dominance_changes_only_counts(inst: &QueryInstance, context: &str) {
    let dp = subset_dp(inst).expect("n within the DP limit").cost();
    for (name, config) in presets() {
        let plain = optimize_with(inst, &config);
        let dominated = optimize_with(inst, &with_dominance(&config));
        let context = format!("{context} preset {name}");
        assert_identical(&plain, &dominated, &context);
        assert!(dominated.is_proven_optimal(), "{context}");
        assert!(
            (dominated.cost() - dp).abs() <= 1e-9 * dp.max(1.0),
            "{context}: cost {} vs subset_dp {dp}",
            dominated.cost()
        );
        if let Some(dag) = inst.precedence() {
            assert!(dominated.plan().satisfies(dag), "{context}: precedence violated");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random instances of every family, n ≤ 10, with and without a
    /// precedence DAG.
    #[test]
    fn every_preset_keeps_its_plan_and_cost_bits(
        family_index in 0usize..Family::ALL.len(),
        n in 3usize..=10,
        seed in 0u64..u64::MAX,
        density_index in 0usize..3,
    ) {
        let family = Family::ALL[family_index];
        let density = [0.0, 0.15, 0.35][density_index];
        let inst = instance(family, n, seed, density);
        assert_dominance_changes_only_counts(
            &inst,
            &format!("{} n={n} seed={seed} density={density}", family.name()),
        );
    }
}

/// A deterministic corpus so every family runs even when
/// `PROPTEST_CASES` is pinned low.
#[test]
fn corpus_of_every_family_keeps_plans_and_cost_bits() {
    for family in Family::ALL {
        for (n, seed, density) in [(6usize, 1u64, 0.0), (8, 2, 0.2), (9, 3, 0.0)] {
            let inst = instance(family, n, seed, density);
            assert_dominance_changes_only_counts(
                &inst,
                &format!("{} n={n} seed={seed} density={density}", family.name()),
            );
        }
    }
}

#[test]
fn warm_starts_are_bit_identical_to_cold() {
    let config = with_dominance(&BnbConfig::paper());
    for family in [Family::BtspHard, Family::ProliferativeMix, Family::Euclidean] {
        for seed in 0..4 {
            let inst = instance(family, 9, seed, 0.0);
            let context = format!("{} seed={seed}", family.name());
            let cold = optimize_with(&inst, &BnbConfig::paper());

            let warm =
                optimize_with(&inst, &config.clone().with_initial_incumbent(cold.plan().clone()));
            assert_identical(&cold, &warm, &format!("{context} warm from the optimum"));

            let seed_plan = Plan::identity(inst.len());
            let warm =
                optimize_with(&inst, &config.clone().with_initial_incumbent(seed_plan.clone()));
            if bottleneck_cost(&inst, &seed_plan) > cold.cost() {
                assert_identical(&cold, &warm, &format!("{context} warm from a suboptimal plan"));
            } else {
                // The seed was itself optimal and is returned as-is.
                assert_eq!(warm.plan(), &seed_plan, "{context}");
            }
        }
    }
}

#[test]
fn node_budget_still_returns_an_unproven_plan() {
    let inst = generate(Family::BtspHard, 10, 0);
    let result = optimize_with(&inst, &with_dominance(&BnbConfig::paper()).with_node_limit(5));
    assert!(!result.is_proven_optimal());
    assert_eq!(result.plan().len(), 10);
    assert_eq!(bottleneck_cost(&inst, result.plan()).to_bits(), result.cost().to_bits());
}

/// Beyond 64 services the search runs on a multi-word set and the table
/// is off (its key holds at most 58 services): a budgeted search still
/// returns a valid permutation, flagged unproven, with or without the
/// switch, and the switch changes nothing.
#[test]
fn seventy_services_under_a_budget_return_an_unproven_permutation() {
    let inst = generate(Family::BtspHard, 70, 3);
    let budgeted = BnbConfig::paper().with_node_limit(2_000);
    let plain = optimize_with(&inst, &budgeted);
    let dominated = optimize_with(&inst, &with_dominance(&budgeted));
    for result in [&plain, &dominated] {
        assert!(!result.is_proven_optimal());
        let mut indices = result.plan().indices();
        indices.sort_unstable();
        assert_eq!(indices, (0..70).collect::<Vec<_>>(), "a permutation of 0..70");
        assert_eq!(bottleneck_cost(&inst, result.plan()).to_bits(), result.cost().to_bits());
        assert_eq!(result.stats().prunes_dominated, 0, "no table above 58 services");
    }
    assert_identical(&plain, &dominated, "btsp-hard n=70 under a node budget");
}

#[test]
fn dominance_prunes_on_btsp_hard() {
    let inst = generate(Family::BtspHard, 10, 0);
    let plain = optimize_with(&inst, &BnbConfig::paper());
    let dominated = optimize_with(&inst, &with_dominance(&BnbConfig::paper()));
    assert_identical(&plain, &dominated, "btsp-hard n=10");
    assert_eq!(plain.stats().prunes_dominated, 0, "the paper config never probes");
    assert!(dominated.stats().prunes_dominated > 0, "no dominance prune on btsp-hard n=10");
    assert!(dominated.stats().nodes_visited < plain.stats().nodes_visited);
}

/// ProliferativeMix n=8 seed 10: an earlier order of some placed set,
/// ending in the same service, has an `ε` no larger than a later order's
/// but a prefix product a rounding error larger, and only the later order
/// leads to the optimum. Comparing `ε` alone prunes the later order and
/// serves 1.6884009605204935 instead of the optimum 1.6884009605204933;
/// comparing the prefix product as well keeps it.
#[test]
fn the_prefix_product_comparison_keeps_an_ulp_cheaper_prefix() {
    let inst = generate(Family::ProliferativeMix, 8, 10);
    let plain = optimize_with(&inst, &BnbConfig::paper());
    let dominated = optimize_with(&inst, &with_dominance(&BnbConfig::paper()));
    assert_eq!(plain.cost(), 1.6884009605204933);
    assert!(dominated.stats().prunes_dominated > 0, "the instance must exercise the probe");
    assert_identical(&plain, &dominated, "ProliferativeMix n=8 seed=10");
}
