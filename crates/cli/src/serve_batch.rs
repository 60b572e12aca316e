//! `dsq serve-batch`: serves every instance in a directory, or in a
//! concatenated stdin stream, through one in-process plan cache.

use crate::{
    config_flag, flag_value, io_err, parse_cache_flag, positional, stdin_documents,
    write_served_line, CliError,
};
use dsq_core::{parse_instance, BnbConfig, QueryInstance};
use dsq_server::SnapshotLock;
use dsq_service::{plan_batch, CacheConfig, CachedPlanner, PlanCache, TieredPlanner};
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

pub(crate) fn serve_batch_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut path = None;
    let mut workers = NonZeroUsize::new(4).expect("non-zero literal");
    let mut config = BnbConfig::paper();
    let mut cache_config = CacheConfig::default();
    let mut snapshot_in: Option<&str> = None;
    let mut snapshot_out: Option<&str> = None;
    let mut tiered = false;
    while let Some(arg) = args.next() {
        if parse_cache_flag(arg, args, &mut cache_config)? {
            continue;
        }
        match arg {
            "--tiered" => tiered = true,
            "--workers" => workers = flag_value(args, "--workers", "a positive integer", |_| true)?,
            "--config" => config = config_flag(args)?,
            "--snapshot-in" => snapshot_in = Some(args.next().ok_or("--snapshot-in needs a file")?),
            "--snapshot-out" => {
                snapshot_out = Some(args.next().ok_or("--snapshot-out needs a file")?)
            }
            other => positional("serve-batch", other, &mut path)?,
        }
    }
    let path = path.ok_or("serve-batch requires a directory or `-` for stdin")?;
    let (names, instances) = read_requests(path)?;

    // Hold the snapshot lock across the whole run, so a concurrent
    // `serve --snapshot` (or second batch run) on the same path cannot
    // interleave last-writer-wins renames with ours.
    let _snapshot_lock = snapshot_out
        .map(|p| SnapshotLock::acquire(std::path::Path::new(p)).map_err(|e| e.to_string()))
        .transpose()?;
    let cache = Arc::new(PlanCache::new(cache_config));
    if let Some(snapshot_path) = snapshot_in {
        let text = std::fs::read_to_string(snapshot_path)
            .map_err(|e| format!("cannot read {snapshot_path}: {e}"))?;
        let restored = cache
            .restore_from_text(&text)
            .map_err(|e| format!("cannot restore snapshot {snapshot_path}: {e}"))?;
        writeln!(out, "restored {restored} cached plans from {snapshot_path}").map_err(io_err)?;
    }
    // Tiered mode answers every miss with the greedy heuristic (those
    // lines carry `tier heur`) and refines in the background; the drain
    // below makes the refinements land before stats or snapshot-out, so
    // the written snapshot only ever holds exact plans.
    let tiered_planner = tiered.then(|| TieredPlanner::new(Arc::clone(&cache), config.clone()));
    let planner = CachedPlanner::new(&cache, config);
    let started = Instant::now();
    let results = match &tiered_planner {
        Some(tiered) => plan_batch(tiered, &instances, workers),
        None => plan_batch(&planner, &instances, workers),
    };
    let elapsed = started.elapsed();
    if let Some(tiered) = &tiered_planner {
        tiered.drain();
    }

    for (name, result) in names.iter().zip(&results) {
        // Local planners never fail; surface the first error if one does.
        let served = result.as_ref().map_err(|e| format!("request {name} failed: {e}"))?;
        write_served_line(out, name, served.source, served.cost, &served.plan, served.tier)?;
    }
    let stats = cache.stats();
    writeln!(
        out,
        "served {} requests in {:.1} ms ({:.0} req/s) with {} workers",
        results.len(),
        elapsed.as_secs_f64() * 1e3,
        results.len() as f64 / elapsed.as_secs_f64(),
        workers,
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "cache: {} hits, {} warm starts, {} cold ({:.1}% hit-rate); {} entries, {} evictions",
        stats.hits,
        stats.warm_starts,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries,
        stats.evictions,
    )
    .map_err(io_err)?;
    if let Some(tiered) = &tiered_planner {
        let t = tiered.tiered_stats();
        writeln!(
            out,
            "tiered: {} tier-1 answers, {} refined ({} skipped, {} dropped), max gap {:.2}%",
            t.heuristic_served,
            t.refined,
            t.refine_skipped,
            t.refine_dropped,
            t.max_gap * 100.0,
        )
        .map_err(io_err)?;
    }
    if let Some(snapshot_path) = snapshot_out {
        let snapshot = cache.snapshot();
        std::fs::write(snapshot_path, snapshot.to_text())
            .map_err(|e| format!("cannot write {snapshot_path}: {e}"))?;
        writeln!(out, "wrote snapshot ({} entries) to {snapshot_path}", snapshot.entries.len())
            .map_err(io_err)?;
    }
    Ok(())
}

/// The request stream, as parallel name and instance vectors (so the
/// batch API gets one contiguous slice without re-cloning every
/// instance): every *.dsq under a directory, sorted for a deterministic
/// request order and named by file, or the concatenated stdin stream
/// (`-`), named by each instance's own name.
fn read_requests(path: &str) -> Result<(Vec<String>, Vec<QueryInstance>), CliError> {
    let mut names: Vec<String> = Vec::new();
    let mut instances: Vec<QueryInstance> = Vec::new();
    if path == "-" {
        for (index, text) in stdin_documents()?.iter().enumerate() {
            let instance = parse_instance(text)
                .map_err(|e| format!("cannot parse stdin instance {index}: {e}"))?;
            names.push(instance.name().to_string());
            instances.push(instance);
        }
        return Ok((names, instances));
    }
    let entries = std::fs::read_dir(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "dsq"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .dsq instance files in {path}"));
    }
    for file in files {
        let name = file.file_name().map(|f| f.to_string_lossy().into_owned());
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let instance =
            parse_instance(&text).map_err(|e| format!("cannot parse {}: {e}", file.display()))?;
        names.push(name.unwrap_or_else(|| instance.name().to_string()));
        instances.push(instance);
    }
    Ok((names, instances))
}
