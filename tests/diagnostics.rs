//! Cross-crate checks of the plan-diagnostics report against the
//! workload families.

use service_ordering::core::{bottleneck_cost, explain, optimize, sum_cost};
use service_ordering::workloads::{generate, Family, Sweep};

#[test]
fn explain_reports_are_internally_consistent() {
    let points = Sweep::new()
        .families([Family::Clustered, Family::ProliferativeMix])
        .sizes([7])
        .seeds(0..3)
        .build();
    for point in &points {
        let inst = &point.instance;
        let plan = optimize(inst).into_plan();
        let report = explain(inst, &plan);
        assert_eq!(report.cost(), bottleneck_cost(inst, &plan));
        assert_eq!(report.sum_cost(), sum_cost(inst, &plan));
        assert!(report.pipelining_gain() >= 1.0 - 1e-12);
        // Optimal plans are at least adjacent-swap optimal.
        assert!(
            report.is_adjacent_swap_optimal(),
            "{} seed {}: an adjacent swap beats the 'optimal' plan",
            point.family.name(),
            point.seed
        );
        // Utilizations: exactly one position at 1.0, none above.
        let utils = report.utilizations();
        assert!(utils.iter().all(|&u| u <= 1.0 + 1e-12));
        assert!(utils.iter().any(|&u| (u - 1.0).abs() < 1e-12));
    }
}

#[test]
fn explain_flags_suboptimal_plans() {
    // A deliberately bad plan on a heterogeneous instance should usually
    // admit an improving adjacent swap; verify the report exposes it via
    // swap costs rather than silently agreeing.
    let inst = generate(Family::HubSpoke, 8, 4);
    let optimal = optimize(&inst);
    let bad_order: Vec<usize> = optimal.plan().indices().into_iter().rev().collect();
    let bad = service_ordering::core::Plan::new(bad_order).expect("permutation");
    let report = explain(&inst, &bad);
    let best_swap =
        report.adjacent_swap_costs().iter().flatten().copied().fold(f64::INFINITY, f64::min);
    // Either some swap improves, or the reversed plan is (rarely) also a
    // local optimum — but it can never beat the true optimum.
    assert!(report.cost() >= optimal.cost() - 1e-9);
    assert!(best_swap.is_finite());
}
