//! E13 — Serving-layer throughput (extension): on a drifting-statistics
//! request stream, the sharded plan cache answers most requests without a
//! search, and warm starts keep the rest exact. The claim under test:
//! amortizing optimization across near-identical queries multiplies batch
//! throughput without giving up plan quality.

use crate::experiments::{fastest_of, TIMING_REPS};
use crate::runner::{Experiment, ExperimentContext};
use crate::table::{cell_f64, Table};
use dsq_core::{BnbConfig, Quantization};
use dsq_service::{
    optimize_batch, BatchOptions, CacheConfig, ColdPlanner, PlanCache, Planner, ServeSource,
};
use dsq_workloads::{DriftConfig, DriftStream, Family};
use std::num::NonZeroUsize;

/// Registry entry.
pub fn experiment() -> Experiment {
    Experiment {
        id: "e13",
        title: "Plan-cache batch throughput on drifting statistics (extension)",
        claim: "serving-layer extension: federated traffic re-optimizes near-identical queries, so canonicalization + a validated plan cache multiplies batch throughput while every returned plan stays within the validation tolerance of a fresh optimum",
        run,
    }
}

fn run(ctx: &ExperimentContext) -> Vec<Table> {
    let n: usize = ctx.size(12, 9);
    let requests: usize = ctx.size(240, 48);
    let config = BnbConfig::paper();

    let mut table = Table::new(
        format!(
            "E13: drifting-selectivity stream, n = {n}, {requests} requests over 8 base queries"
        ),
        ["mode", "wall ms", "req/s", "speedup", "hit rate", "hits", "warm", "cold", "max dev"],
    );

    // BtspHard is the serving case that matters: optimization there is
    // orders of magnitude more expensive than fingerprinting, which is
    // exactly when a plan cache multiplies throughput. Correlated is the
    // honest counterpoint — its searches are so cheap after PR 2 that the
    // cache roughly breaks even, bounding the overhead of the layer.
    for family in [Family::BtspHard, Family::Correlated] {
        let stream: Vec<_> = DriftStream::new(DriftConfig::new(family, n, 23, requests)).collect();

        // Cold reference: every request pays a full optimization,
        // through the same Planner seam the cached modes use. Also the
        // ground truth the served plans are validated against below.
        let (_, cold_costs, cold_elapsed) = fastest_of(
            || ColdPlanner::new(config.clone()),
            |cold_planner| -> Vec<f64> {
                stream
                    .iter()
                    .map(|inst| cold_planner.plan(inst).expect("cold planners are infallible").cost)
                    .collect()
            },
        );
        let cold_rps = requests as f64 / cold_elapsed.as_secs_f64();
        table.push_row([
            format!("{} cold", family.name()),
            cell_f64(cold_elapsed.as_secs_f64() * 1e3, 1),
            cell_f64(cold_rps, 0),
            "1.00×".to_string(),
            "-".to_string(),
            "0".to_string(),
            "0".to_string(),
            format!("{requests}"),
            "0.0000".to_string(),
        ]);

        // Served, sequentially and through worker pools. The coarse 20%
        // fingerprint resolution keeps mean-reverting drift inside one
        // bucket per parameter; the 5% validation tolerance (checked
        // against the exact instance on every hit) is what actually
        // bounds served-plan quality.
        for workers in [1usize, 2, 4] {
            let options = BatchOptions {
                workers: NonZeroUsize::new(workers).expect("non-zero"),
                config: config.clone(),
            };
            let (cache, served, elapsed) = fastest_of(
                || {
                    PlanCache::new(CacheConfig {
                        quantization: Quantization::new(0.2),
                        ..CacheConfig::default()
                    })
                },
                |cache| optimize_batch(cache, &stream, &options),
            );

            // Every served plan — cache hit or not — must cost within the
            // validation tolerance of that exact instance's true optimum.
            let tolerance = cache.config().validation_tolerance;
            let mut max_deviation = 0.0f64;
            let (mut hits, mut warm, mut cold) = (0u64, 0u64, 0u64);
            for (outcome, &optimal) in served.iter().zip(&cold_costs) {
                let deviation = (outcome.cost - optimal) / optimal.abs().max(1e-300);
                max_deviation = max_deviation.max(deviation);
                assert!(
                    deviation <= tolerance + 1e-9,
                    "served plan deviates {deviation:.4} > tolerance {tolerance} on {}",
                    outcome.fingerprint
                );
                match outcome.source {
                    ServeSource::CacheHit => hits += 1,
                    ServeSource::WarmStart => warm += 1,
                    ServeSource::Cold => cold += 1,
                }
            }
            let rps = requests as f64 / elapsed.as_secs_f64();
            table.push_row([
                format!("{} cached w{workers}", family.name()),
                cell_f64(elapsed.as_secs_f64() * 1e3, 1),
                cell_f64(rps, 0),
                format!("{:.2}×", rps / cold_rps),
                cell_f64(hits as f64 / requests as f64, 3),
                hits.to_string(),
                warm.to_string(),
                cold.to_string(),
                cell_f64(max_deviation, 4),
            ]);
        }
    }

    table.push_note(format!(
        "wall ms = fastest of {TIMING_REPS} runs of the whole stream, each cached run on a fresh cache; hits, warm, cold and max dev are that run's"
    ));
    table.push_note(
        "cold = fresh branch-and-bound per request; cached = sharded plan cache (8 shards × 128 entries, 20% fingerprint quantization, 5% validation tolerance) in front of the same optimizer",
    );
    table.push_note(
        "max dev = worst relative gap between a served plan's cost on the exact instance and that instance's true optimum; hits are validated against the exact instance, misses/warm starts are exactly optimal by construction",
    );
    vec![table]
}
