//! Property-based tests over arbitrary instances: the pruning lemmas
//! never lose the optimum, returned plans are valid, and the cost
//! metric's structural properties hold.
//!
//! Case budget: the checked-in `proptest_config` counts below are sized
//! to keep this suite well under a minute. CI additionally exports
//! `PROPTEST_CASES` to cap every property in the workspace uniformly;
//! raise it locally (e.g. `PROPTEST_CASES=2048 cargo test`) for a more
//! exhaustive sweep.

use proptest::prelude::*;
use service_ordering::baselines::subset_dp;
use service_ordering::core::{
    bottleneck_cost, cost_terms, optimize_with, BnbConfig, CommMatrix, Plan, QueryInstance, Service,
};

/// Strategy: a small arbitrary instance, optionally with proliferative
/// selectivities and sink costs.
fn arb_instance(max_n: usize) -> impl Strategy<Value = QueryInstance> {
    (2..=max_n).prop_flat_map(|n| {
        let services = proptest::collection::vec((0.0f64..4.0, 0.0f64..2.5), n..=n);
        let comm = proptest::collection::vec(0.0f64..3.0, n * n..=n * n);
        let sink = proptest::collection::vec(0.0f64..1.0, n..=n);
        (services, comm, sink).prop_map(move |(sv, cm, sink)| {
            QueryInstance::builder()
                .name("proptest")
                .services(sv.into_iter().map(|(c, s)| Service::new(c, s)))
                .comm(CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { cm[i * n + j] }))
                .sink(sink)
                .build()
                .expect("generated instances are valid")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The headline invariant: every ablation returns the exact optimum.
    #[test]
    fn all_configs_return_the_dp_optimum(inst in arb_instance(6)) {
        let reference = subset_dp(&inst).expect("within limit").cost();
        for cfg in [BnbConfig::paper(), BnbConfig::incumbent_only()] {
            let result = optimize_with(&inst, &cfg);
            prop_assert!(result.is_proven_optimal());
            prop_assert!((result.cost() - reference).abs() <= 1e-9 * reference.max(1.0),
                "cfg {:?}: {} vs {}", cfg, result.cost(), reference);
            // The reported cost is achieved by the reported plan.
            let achieved = bottleneck_cost(&inst, result.plan());
            prop_assert!((result.cost() - achieved).abs() <= 1e-9 * achieved.max(1.0));
        }
    }

    /// Eq. 1 structure: the bottleneck is the max of the terms, terms are
    /// non-negative, and prefix products multiply out.
    #[test]
    fn cost_terms_are_consistent(inst in arb_instance(7)) {
        let n = inst.len();
        let plan = Plan::identity(n);
        let terms = cost_terms(&inst, &plan);
        prop_assert_eq!(terms.len(), n);
        let max = terms.iter().map(|t| t.term).fold(0.0f64, f64::max);
        let cost = bottleneck_cost(&inst, &plan);
        prop_assert!((max - cost).abs() <= 1e-12 * cost.max(1.0));
        let mut prefix = 1.0;
        for (k, term) in terms.iter().enumerate() {
            prop_assert!((term.input_fraction - prefix).abs() <= 1e-9 * prefix.max(1.0));
            prop_assert!(term.term >= 0.0);
            prefix *= inst.selectivity(plan.service_at(k).index());
        }
    }

    /// Lemma 1 as a black-box property: appending a service to a prefix
    /// never lowers the bottleneck of the *finalized* part. We check the
    /// contrapositive on complete plans: the bottleneck of the first k
    /// positions (treating position k-1's transfer as realized) is
    /// monotone in k.
    #[test]
    fn finalized_terms_are_monotone_under_extension(inst in arb_instance(7)) {
        let n = inst.len();
        let plan = Plan::identity(n);
        let terms = cost_terms(&inst, &plan);
        let mut running = 0.0f64;
        let mut maxima = Vec::with_capacity(n);
        for t in &terms {
            running = running.max(t.term);
            maxima.push(running);
        }
        for w in maxima.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    /// Uniform relaxation sanity: making the network uniform at the mean
    /// never changes the *set* of services, and the optimizer still
    /// matches the DP there (the [1] special case).
    #[test]
    fn uniform_special_case_agrees(inst in arb_instance(6)) {
        let t = inst.comm().mean_off_diagonal();
        let relaxed = inst.with_uniform_comm(t);
        let reference = subset_dp(&relaxed).expect("within limit").cost();
        let result = optimize_with(&relaxed, &BnbConfig::paper());
        prop_assert!((result.cost() - reference).abs() <= 1e-9 * reference.max(1.0));
    }
}
