//! Beyond exact reach: ordering sixty services. Exact search is hopeless
//! at n = 60 (60! plans), so this example drives the heuristic toolbox —
//! greedy construction, local search, simulated annealing, random
//! sampling — plus a *budgeted* branch-and-bound that returns its best
//! incumbent when the node budget runs out.
//!
//! ```sh
//! cargo run --release --example large_scale_heuristics
//! ```

use service_ordering::baselines::{
    best_greedy, local_search, random_sampling, simulated_annealing, AnnealingConfig,
    LocalSearchConfig,
};
use service_ordering::core::{optimize_with, BnbConfig};
use service_ordering::workloads::{generate, Family};
use std::time::Instant;

fn main() {
    let instance = generate(Family::Clustered, 60, 3);
    println!("instance: {} services, clustered network\n", instance.len());

    let mut results: Vec<(String, f64, std::time::Duration)> = Vec::new();
    let mut record = |name: &str, cost: f64, elapsed: std::time::Duration| {
        println!("{name:<22} cost {cost:>9.4}   ({elapsed:.2?})");
        results.push((name.to_string(), cost, elapsed));
    };

    let t0 = Instant::now();
    let sample = random_sampling(&instance, 1_000, 1);
    record("random best-of-1000", sample.cost(), t0.elapsed());
    println!("{:<22} cost {:>9.4}", "random mean", sample.mean_cost());

    let t0 = Instant::now();
    let greedy = best_greedy(&instance);
    record("greedy (best rule)", greedy.cost(), t0.elapsed());

    let t0 = Instant::now();
    let ls = local_search(&instance, &LocalSearchConfig { restarts: 3, ..Default::default() });
    record("local search", ls.cost(), t0.elapsed());

    let t0 = Instant::now();
    let sa =
        simulated_annealing(&instance, &AnnealingConfig { steps: 60_000, ..Default::default() });
    record("simulated annealing", sa.cost(), t0.elapsed());

    // Budgeted exact search: warm-started from the best heuristic plan
    // above, it explores until the node budget is spent and returns the
    // incumbent, a proven optimum only if the search finished first.
    let seed = [
        (sample.cost(), sample.plan()),
        (greedy.cost(), greedy.plan()),
        (ls.cost(), ls.plan()),
        (sa.cost(), sa.plan()),
    ]
    .into_iter()
    .min_by(|a, b| a.0.total_cmp(&b.0))
    .expect("four heuristics ran")
    .1
    .clone();
    let t0 = Instant::now();
    let cfg = BnbConfig::paper().with_node_limit(200_000).with_initial_incumbent(seed);
    let bnb = optimize_with(&instance, &cfg);
    record(
        if bnb.is_proven_optimal() { "B&B (complete!)" } else { "B&B (budgeted)" },
        bnb.cost(),
        t0.elapsed(),
    );
    println!(
        "  budgeted B&B visited {} nodes, {} incumbent updates",
        bnb.stats().nodes_visited,
        bnb.stats().candidates_recorded
    );

    let best = results.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("at least one method ran");
    println!("\nbest method here: {} at cost {:.4}", best.0, best.1);
}
