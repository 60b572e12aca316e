//! E1 — Optimality validation: the lemma-driven pruning never loses the
//! optimum.

use crate::runner::{Experiment, ExperimentContext};
use crate::table::{cell_f64, Table};
use dsq_baselines::{exhaustive, subset_dp};
use dsq_core::{optimize_with, BnbConfig};
use dsq_workloads::{generate, random_dag, Family, Sweep};

/// Registry entry.
pub fn experiment() -> Experiment {
    Experiment {
        id: "e1",
        title: "Optimality validation of the branch-and-bound",
        claim: "\"a branch-and-bound algorithm that is guaranteed to find the linear ordering of services which minimizes the query response time\" (§1)",
        run,
    }
}

fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let sizes: Vec<usize> = ctx.size(vec![4, 5, 6, 7, 8], vec![4, 5, 6]);
    let seeds: u64 = ctx.size(10, 3);
    let configs: [(&str, BnbConfig); 3] = [
        ("paper", BnbConfig::paper()),
        ("incumbent-only", BnbConfig::incumbent_only()),
        ("no-backjump", BnbConfig::without_backjump()),
    ];

    let mut table = Table::new(
        "E1: B&B vs exact baselines (all ablation configs)",
        ["family", "instances", "checks", "matches", "max rel gap"],
    );
    for family in Family::ALL {
        let points =
            Sweep::new().families([family]).sizes(sizes.iter().copied()).seeds(0..seeds).build();
        let mut checks = 0u64;
        let mut matches = 0u64;
        let mut worst_gap = 0.0f64;
        let count = points.len();
        for point in points {
            let reference = subset_dp(&point.instance).expect("sizes within DP limit").cost();
            if point.n <= 8 {
                let brute = exhaustive(&point.instance).expect("sizes within limit").cost();
                let gap = rel_gap(brute, reference);
                worst_gap = worst_gap.max(gap);
                checks += 1;
                matches += u64::from(gap <= 1e-9);
            }
            for (_, cfg) in &configs {
                let result = optimize_with(&point.instance, cfg);
                let gap = rel_gap(result.cost(), reference);
                worst_gap = worst_gap.max(gap);
                checks += 1;
                matches += u64::from(gap <= 1e-9);
            }
        }
        table.push_row([
            family.name().to_string(),
            count.to_string(),
            checks.to_string(),
            matches.to_string(),
            format!("{worst_gap:.2e}"),
        ]);
    }
    table.push_note(format!(
        "sizes {sizes:?}, {seeds} seeds per size; reference = subset DP, cross-checked by exhaustive search up to n=8"
    ));

    // Precedence-constrained variant.
    let mut prec = Table::new(
        "E1b: with precedence constraints (density 0.25)",
        ["n", "instances", "matches", "max rel gap"],
    );
    for &n in &sizes {
        let mut matches = 0u64;
        let mut worst = 0.0f64;
        for seed in 0..seeds {
            let base = generate(Family::UniformRandom, n, 1_000 + seed);
            let inst = dsq_core::QueryInstance::builder()
                .name("e1b")
                .services(base.services().to_vec())
                .comm(base.comm().clone())
                .precedence(random_dag(n, 0.25, seed))
                .build()
                .expect("valid instance");
            let reference = subset_dp(&inst).expect("within limit").cost();
            let result = optimize_with(&inst, &BnbConfig::paper());
            let gap = rel_gap(result.cost(), reference);
            worst = worst.max(gap);
            matches += u64::from(gap <= 1e-9);
        }
        prec.push_row([n.to_string(), seeds.to_string(), matches.to_string(), cell_f64(worst, 12)]);
    }
    vec![table, prec]
}

fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-12)
}
