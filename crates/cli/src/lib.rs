//! Implementation of the `dsq` command-line tool.
//!
//! The binary (`src/bin/dsq.rs`) is a thin shim over [`run`], so the
//! whole command surface is unit-testable without spawning processes.
//!
//! ```text
//! dsq generate --family clustered -n 12 --seed 3       # instance → stdout
//! dsq optimize pipeline.dsq [--parallel 4] [--config extended]
//! dsq explain pipeline.dsq --plan 2,0,1                # per-term breakdown
//! dsq baselines pipeline.dsq                           # comparison table
//! dsq simulate pipeline.dsq --tuples 20000 [--plan …]  # discrete-event run
//! dsq serve-batch queries/ [--workers 4]               # plan-cache batch serve
//! dsq serve --unix /tmp/dsq.sock [--snapshot s.dsqc]   # long-lived daemon
//! dsq client --unix /tmp/dsq.sock optimize a.dsq       # drive the daemon
//! dsq client --fleet unix:///tmp/a.sock,unix:///tmp/b.sock optimize a.dsq
//! ```
//!
//! Every serving path — one-shot `optimize`, `serve-batch` (local cache
//! or `--remote` fleet), the daemon's workers, and `client --fleet` —
//! routes through the `dsq_service::Planner` trait, so they share one
//! dispatch implementation.

#![warn(missing_docs)]

use dsq_baselines::{
    beam_search, best_greedy, local_search, random_sampling, simulated_annealing,
    uniform_reference_plan, AnnealingConfig, BeamConfig, LocalSearchConfig,
};
use dsq_core::{
    bottleneck_cost, explain, format_instance, parse_instance, BnbConfig, Plan, PlanSnapshot,
    Quantization, QueryInstance,
};
use dsq_server::{
    hold_connections, Client, ExportRequest, FaultProfile, ListenAddr, LoadgenConfig,
    PipelineRequest, RemotePlanner, RequestClass, Response, Server, ServerConfig, SnapshotLock,
};
use dsq_service::{
    plan_batch, CacheConfig, CachedPlanner, ColdPlanner, FleetConfig, FleetMembership,
    FleetPlanner, HashRing, PlanCache, PlanTier, Planner, ServedPlan, TieredPlanner,
    DEFAULT_VNODES,
};
use dsq_simulator::{simulate, SimConfig};
use dsq_workloads::{generate, Family};
use std::io::Read;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Error produced by a CLI run: the message printed to stderr.
pub type CliError = String;

/// Executes the CLI with the given arguments (excluding the program
/// name), writing to `out`. Returns `Err(message)` for usage and input
/// errors.
///
/// # Examples
///
/// ```
/// let mut out = Vec::new();
/// dsq_cli::run(&["generate".into(), "--family".into(), "clustered".into(),
///                "-n".into(), "4".into()], &mut out).unwrap();
/// assert!(String::from_utf8(out).unwrap().starts_with("dsq-instance v1"));
/// ```
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("generate") => generate_cmd(&mut args, out),
        Some("optimize") => optimize_cmd(&mut args, out),
        Some("explain") => explain_cmd(&mut args, out),
        Some("baselines") => baselines_cmd(&mut args, out),
        Some("simulate") => simulate_cmd(&mut args, out),
        Some("serve-batch") => serve_batch_cmd(&mut args, out),
        Some("serve") => serve_cmd(&mut args, out),
        Some("client") => client_cmd(&mut args, out),
        Some("loadgen") => loadgen_cmd(&mut args, out),
        Some("fleet") => fleet_cmd(&mut args, out),
        Some("--help") | Some("-h") | None => {
            writeln!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "usage:
  dsq generate --family FAMILY -n N [--seed S]        write an instance to stdout
  dsq optimize FILE [--config NAME] [--parallel T]    find the optimal ordering
  dsq explain FILE --plan I,J,K,...                   break down a plan's cost
  dsq baselines FILE                                  compare all ordering methods
  dsq simulate FILE [--plan I,J,...] [--tuples N] [--block B]
  dsq serve-batch DIR|-  [--workers T] [--config NAME] [--shards S]
                         [--capacity C] [--resolution R] [--tolerance X]
                         [--probes P] [--snapshot-in FILE] [--snapshot-out FILE]
                         [--tiered]                   two-tier anytime serving
                         [--remote ADDRS]             serve through remote daemons
  dsq serve  --unix PATH | --tcp ADDR                 long-lived plan-serving daemon
             [--workers T] [--config NAME] [--shards S] [--capacity C]
             [--resolution R] [--tolerance X] [--probes P] [--queue Q]
             [--retry-ms N] [--snapshot FILE] [--snapshot-interval-secs S]
             [--tiered] [--chaos SEED] [--max-pipeline D]
  dsq client --unix PATH | --tcp ADDR | --fleet ADDRS | --fleet-config FILE
             [--resolution R]  COMMAND
             COMMAND = optimize FILE... [--repeat N] [--pipeline]
                     | stats | metrics | ping | shutdown | hold N
  dsq loadgen --unix PATH | --tcp ADDR               open-loop load generator
              [--rate R] [--requests N] [-n SERVICES] [--seed S]
              [--classes drift,boundary,pipelined] [--pipeline-depth D]
              [--json]
  dsq fleet rebalance --from ADDRS --to ADDRS [--vnodes V]
families: uniform-random euclidean clustered hub-spoke correlated proliferative btsp-hard
configs:  paper incumbent-only no-epsilon-bar no-backjump extended
FILE may be `-` for stdin; serve-batch reads every *.dsq in DIR (sorted) or a
concatenated instance stream from stdin and serves it through the plan cache;
serve drains gracefully on stdin EOF (tty/pipe stdin; ignored for /dev/null)
or a client `shutdown` request; ADDRS is a comma-separated backend list
(unix://PATH or tcp://HOST:PORT) — --fleet/--remote shard requests across the
backends over a consistent-hash ring, fail over between replicas, and fall
back to a local cold optimization when every backend is busy or down;
--fleet-config reads the backend list from a versioned fleet-config file
instead and re-resolves it between repeat rounds, cutting over atomically
when the generation grows; fleet rebalance tells every --from backend the new
--to layout and moves the warm cache partitions onto their inheriting
backends; --chaos injects deterministic response-path faults (drop, delay,
truncate) for resilience testing; client optimize --pipeline sends every
document as one coalesced frame and reads the responses back in request
order (the server admits up to its --max-pipeline per connection); client
hold N parks N concurrent idle connections on the server's reactor and
prints a held/dropped accounting line on drain; client metrics dumps the
server's telemetry in the `# dsq-metrics v1` exposition format;
loadgen drives open-loop (Poisson-arrival) traffic per request class —
latency is measured from each request's *scheduled* send time, so a slow
server cannot hide tail latency by slowing the generator down — and prints
per-class p50/p99/p999 with a hit/warm/cold/busy breakdown (--json emits
the dsq-loadgen/v1 document); --tiered
answers cache misses immediately with a greedy plan (`tier heur` on output)
and refines them to exact in the background, upgrading the cache in place";

fn io_err(e: std::io::Error) -> CliError {
    format!("I/O error: {e}")
}

fn load_instance(path: &str) -> Result<QueryInstance, CliError> {
    let text = if path == "-" {
        let mut buffer = String::new();
        std::io::stdin().read_to_string(&mut buffer).map_err(io_err)?;
        buffer
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    parse_instance(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn parse_family(name: &str) -> Result<Family, CliError> {
    Family::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| format!("unknown family `{name}`"))
}

fn parse_config(name: &str) -> Result<BnbConfig, CliError> {
    match name {
        "paper" => Ok(BnbConfig::paper()),
        "incumbent-only" => Ok(BnbConfig::incumbent_only()),
        "no-epsilon-bar" => Ok(BnbConfig::without_epsilon_bar()),
        "no-backjump" => Ok(BnbConfig::without_backjump()),
        "extended" => Ok(BnbConfig::extended()),
        other => Err(format!("unknown config `{other}`")),
    }
}

fn parse_plan_arg(spec: &str, n: usize) -> Result<Plan, CliError> {
    let order: Vec<usize> = spec
        .split(',')
        .map(|f| f.trim().parse::<usize>().map_err(|_| format!("bad plan index `{f}`")))
        .collect::<Result<_, _>>()?;
    if order.len() != n {
        return Err(format!("plan has {} services, instance has {n}", order.len()));
    }
    // ModelError::InvalidPlan already reads "invalid plan: …".
    Plan::new(order).map_err(|e| e.to_string())
}

fn generate_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut family = None;
    let mut n = None;
    let mut seed = 0u64;
    while let Some(arg) = args.next() {
        match arg {
            "--family" => {
                family = Some(parse_family(args.next().ok_or("--family needs a value")?)?)
            }
            "-n" | "--services" => {
                n = Some(
                    args.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&v| v > 0)
                        .ok_or("-n needs a positive integer")?,
                )
            }
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).ok_or("--seed needs an integer")?
            }
            other => return Err(format!("unknown generate flag `{other}`")),
        }
    }
    let family = family.ok_or("generate requires --family")?;
    let n = n.ok_or("generate requires -n")?;
    write!(out, "{}", format_instance(&generate(family, n, seed))).map_err(io_err)
}

fn optimize_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut file = None;
    let mut config = BnbConfig::paper();
    let mut threads = 1usize;
    while let Some(arg) = args.next() {
        match arg {
            "--config" => config = parse_config(args.next().ok_or("--config needs a value")?)?,
            "--parallel" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--parallel needs a positive integer")?
            }
            other if file.is_none() => file = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let instance = load_instance(file.ok_or("optimize requires an instance file")?)?;
    // Even the one-shot CLI path goes through the Planner seam: the same
    // entry point `serve-batch --remote`'s fallback and the fleet router
    // use.
    let planner =
        ColdPlanner::new(config).with_threads(NonZeroUsize::new(threads).expect("checked > 0"));
    let served = planner.plan(&instance).map_err(|e| e.to_string())?;
    let stats = served.search.as_ref().expect("cold planners always run a search");
    writeln!(out, "plan      {}", served.plan).map_err(io_err)?;
    writeln!(out, "cost      {:.6}", served.cost).map_err(io_err)?;
    writeln!(out, "optimal   {}", stats.proven_optimal).map_err(io_err)?;
    writeln!(out, "{stats}").map_err(io_err)
}

fn explain_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut file = None;
    let mut plan_spec = None;
    while let Some(arg) = args.next() {
        match arg {
            "--plan" => plan_spec = Some(args.next().ok_or("--plan needs a value")?),
            other if file.is_none() => file = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let instance = load_instance(file.ok_or("explain requires an instance file")?)?;
    let plan = match plan_spec {
        Some(spec) => parse_plan_arg(spec, instance.len())?,
        None => dsq_core::optimize(&instance).into_plan(),
    };
    write!(out, "{}", explain(&instance, &plan)).map_err(io_err)
}

fn baselines_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let file = args.next().ok_or("baselines requires an instance file")?;
    if let Some(extra) = args.next() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let instance = load_instance(file)?;
    let optimal = dsq_core::optimize(&instance);
    writeln!(out, "{:<22} {:>12} {:>8}", "method", "cost", "ratio").map_err(io_err)?;
    let mut emit = |name: &str, cost: f64| -> Result<(), CliError> {
        writeln!(out, "{name:<22} {cost:>12.6} {:>7.3}×", cost / optimal.cost()).map_err(io_err)
    };
    emit("branch-and-bound", optimal.cost())?;
    if let Ok((plan, _)) = uniform_reference_plan(&instance) {
        emit("uniform-opt [VLDB'06]", bottleneck_cost(&instance, &plan))?;
    }
    emit("greedy (best rule)", best_greedy(&instance).cost())?;
    emit("beam (width 16)", beam_search(&instance, &BeamConfig::default()).cost())?;
    emit("local search", local_search(&instance, &LocalSearchConfig::default()).cost())?;
    emit(
        "annealing (10k steps)",
        simulated_annealing(&instance, &AnnealingConfig { steps: 10_000, ..Default::default() })
            .cost(),
    )?;
    let sample = random_sampling(&instance, 100, 0);
    emit("random best-of-100", sample.cost())?;
    emit("random mean", sample.mean_cost())
}

fn simulate_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut file = None;
    let mut plan_spec = None;
    let mut tuples = 10_000u64;
    let mut block = 32u64;
    while let Some(arg) = args.next() {
        match arg {
            "--plan" => plan_spec = Some(args.next().ok_or("--plan needs a value")?),
            "--tuples" => {
                tuples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--tuples needs a positive integer")?
            }
            "--block" => {
                block = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--block needs a positive integer")?
            }
            other if file.is_none() => file = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let instance = load_instance(file.ok_or("simulate requires an instance file")?)?;
    let plan = match plan_spec {
        Some(spec) => parse_plan_arg(spec, instance.len())?,
        None => dsq_core::optimize(&instance).into_plan(),
    };
    let report = simulate(
        &instance,
        &plan,
        &SimConfig { tuples, block_size: block, ..SimConfig::default() },
    );
    let predicted = bottleneck_cost(&instance, &plan);
    writeln!(out, "plan                {plan}").map_err(io_err)?;
    writeln!(out, "predicted cost      {predicted:.6}").map_err(io_err)?;
    writeln!(out, "predicted tput      {:.4}", 1.0 / predicted).map_err(io_err)?;
    writeln!(out, "{report}").map_err(io_err)
}

/// Splits a concatenated stream of instances (each starting with the
/// `dsq-instance v1` header line) into individual documents.
fn split_instance_stream(text: &str) -> Vec<String> {
    let mut documents: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with("dsq-instance") {
            documents.push(String::new());
        }
        if let Some(current) = documents.last_mut() {
            current.push_str(line);
            current.push('\n');
        }
        // Content before the first header is unparseable noise; it is
        // reported by the per-document parse below only if no header
        // ever arrives (empty-stream error), matching `optimize -`.
    }
    documents
}

/// Parses one of the cache flags shared by `serve-batch` and `serve`
/// (`--shards`, `--capacity`, `--resolution`, `--tolerance`,
/// `--probes`); `Ok(false)` when `arg` is none of them (nothing
/// consumed).
fn parse_cache_flag<'a, I: Iterator<Item = &'a str>>(
    arg: &str,
    args: &mut I,
    cache: &mut CacheConfig,
) -> Result<bool, CliError> {
    match arg {
        "--shards" => {
            cache.shards = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v > 0)
                .ok_or("--shards needs a positive integer")?
        }
        "--capacity" => {
            cache.capacity_per_shard = args
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or("--capacity needs a non-negative integer")?
        }
        "--resolution" => {
            let value: f64 = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|v| (0.0..1.0).contains(v) && *v > 0.0)
                .ok_or("--resolution needs a number in (0, 1)")?;
            cache.quantization = Quantization::new(value);
        }
        "--tolerance" => {
            cache.validation_tolerance = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                .ok_or("--tolerance needs a non-negative number")?
        }
        "--probes" => {
            cache.probes = args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v == 1 || v == 2)
                .ok_or("--probes must be 1 or 2")?
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses a comma-separated fleet backend list. Each entry is
/// `unix://PATH`, `tcp://ADDR`, a bare path (contains `/` → Unix
/// socket), or a bare `host:port` (→ TCP). Duplicate endpoints are
/// rejected (compared after normalization, so `/tmp/a.sock` and
/// `unix:///tmp/a.sock` collide): a repeated address would occupy two
/// ring slots and silently double its share of the keyspace.
fn parse_fleet_spec(spec: &str) -> Result<Vec<ListenAddr>, CliError> {
    let mut addrs = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(format!("empty backend address in `{spec}`"));
        }
        let addr = if let Some(path) = entry.strip_prefix("unix://") {
            ListenAddr::Unix(PathBuf::from(path))
        } else if let Some(addr) = entry.strip_prefix("tcp://") {
            ListenAddr::Tcp(addr.to_string())
        } else if entry.contains('/') {
            ListenAddr::Unix(PathBuf::from(entry))
        } else {
            ListenAddr::Tcp(entry.to_string())
        };
        if addrs.contains(&addr) {
            return Err(format!("duplicate backend address `{entry}` in `{spec}`"));
        }
        addrs.push(addr);
    }
    Ok(addrs)
}

/// Resolves one fleet-config generation's endpoints to listen
/// addresses, under the same per-entry grammar (and duplicate
/// rejection) as `--fleet`.
fn fleet_config_addrs(config: &FleetConfig) -> Result<Vec<ListenAddr>, CliError> {
    parse_fleet_spec(&config.endpoints.join(","))
}

/// The fleet router `--remote` / `--fleet` serve through: one
/// `RemotePlanner` per backend (busy retry/backoff built in), requests
/// sharded by canonical fingerprint, failover to the next replica, and
/// a local cold-optimize fallback so the stream completes even with
/// every backend down.
fn build_fleet(
    addrs: &[ListenAddr],
    quantization: Quantization,
    config: BnbConfig,
) -> Result<FleetPlanner<'static>, CliError> {
    let backends: Vec<Box<dyn Planner>> = addrs
        .iter()
        .map(|addr| Box::new(RemotePlanner::new(addr.clone())) as Box<dyn Planner>)
        .collect();
    let fleet = FleetPlanner::new(backends, quantization).map_err(|e| e.to_string())?;
    Ok(fleet.with_fallback(Box::new(ColdPlanner::new(config))))
}

/// One fleet summary line: per-backend request counts plus the failover
/// and local-fallback tallies.
fn write_fleet_summary(
    out: &mut dyn std::io::Write,
    fleet: &FleetPlanner<'_>,
) -> Result<(), CliError> {
    let stats = fleet.fleet_stats();
    let per_backend = stats.per_backend.iter().map(u64::to_string).collect::<Vec<_>>().join("/");
    writeln!(
        out,
        "fleet: {} backends served {} requests ({per_backend}), {} failovers, {} local fallbacks",
        stats.per_backend.len(),
        stats.per_backend.iter().sum::<u64>(),
        stats.failovers,
        stats.fallbacks,
    )
    .map_err(io_err)
}

/// Parses `--unix PATH` / `--tcp ADDR`; `Ok(None)` when `arg` is
/// neither.
fn parse_addr_flag<'a, I: Iterator<Item = &'a str>>(
    arg: &str,
    args: &mut I,
) -> Result<Option<ListenAddr>, CliError> {
    match arg {
        "--unix" => {
            Ok(Some(ListenAddr::Unix(PathBuf::from(args.next().ok_or("--unix needs a path")?))))
        }
        "--tcp" => {
            Ok(Some(ListenAddr::Tcp(args.next().ok_or("--tcp needs an address")?.to_string())))
        }
        _ => Ok(None),
    }
}

fn serve_batch_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut path: Option<&str> = None;
    let mut workers = 4usize;
    let mut config = BnbConfig::paper();
    let mut cache_config = CacheConfig::default();
    let mut snapshot_in: Option<&str> = None;
    let mut snapshot_out: Option<&str> = None;
    let mut remote: Option<&str> = None;
    let mut tiered = false;
    while let Some(arg) = args.next() {
        if parse_cache_flag(arg, args, &mut cache_config)? {
            continue;
        }
        match arg {
            "--tiered" => tiered = true,
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--workers needs a positive integer")?
            }
            "--config" => config = parse_config(args.next().ok_or("--config needs a value")?)?,
            "--snapshot-in" => snapshot_in = Some(args.next().ok_or("--snapshot-in needs a file")?),
            "--snapshot-out" => {
                snapshot_out = Some(args.next().ok_or("--snapshot-out needs a file")?)
            }
            "--remote" => {
                remote = Some(args.next().ok_or("--remote needs a comma-separated address list")?)
            }
            other if path.is_none() => path = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or("serve-batch requires a directory or `-` for stdin")?;
    if remote.is_some() && (snapshot_in.is_some() || snapshot_out.is_some()) {
        return Err("--remote backends own their caches; drop --snapshot-in/--snapshot-out".into());
    }
    if remote.is_some() && tiered {
        return Err("--remote backends choose their own serving mode; drop --tiered".into());
    }

    // Gather the request stream: every *.dsq under a directory (sorted
    // for deterministic request order) or a concatenated stdin stream.
    // Names and instances are parallel vectors so the batch API gets
    // one contiguous slice without re-cloning every instance.
    let mut names: Vec<String> = Vec::new();
    let mut instances: Vec<QueryInstance> = Vec::new();
    if path == "-" {
        let mut buffer = String::new();
        std::io::stdin().read_to_string(&mut buffer).map_err(io_err)?;
        let documents = split_instance_stream(&buffer);
        if documents.is_empty() {
            return Err("stdin contained no instances".into());
        }
        for (index, text) in documents.iter().enumerate() {
            let instance = parse_instance(text)
                .map_err(|e| format!("cannot parse stdin instance {index}: {e}"))?;
            names.push(instance.name().to_string());
            instances.push(instance);
        }
    } else {
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
            let instance = parse_instance(&text)
                .map_err(|e| format!("cannot parse {}: {e}", file.display()))?;
            names.push(name.unwrap_or_else(|| instance.name().to_string()));
            instances.push(instance);
        }
    }

    let workers = NonZeroUsize::new(workers).expect("checked > 0");

    // Remote mode: the same request stream, served through a
    // fingerprint-sharded fleet of daemons instead of an in-process
    // cache (the backends keep their own caches and snapshots).
    if let Some(spec) = remote {
        let addrs = parse_fleet_spec(spec)?;
        let fleet = build_fleet(&addrs, cache_config.quantization, config)?;
        let started = Instant::now();
        let results = plan_batch(&fleet, &instances, workers);
        let elapsed = started.elapsed();
        write_served_lines(out, &names, &results)?;
        writeln!(
            out,
            "served {} requests in {:.1} ms ({:.0} req/s) with {} workers",
            results.len(),
            elapsed.as_secs_f64() * 1e3,
            results.len() as f64 / elapsed.as_secs_f64(),
            workers,
        )
        .map_err(io_err)?;
        return write_fleet_summary(out, &fleet);
    }

    // Hold the snapshot lock across the whole run, so a concurrent
    // `serve --snapshot` (or second batch run) on the same path cannot
    // interleave last-writer-wins renames with ours.
    let _snapshot_lock = snapshot_out
        .map(|p| SnapshotLock::acquire(std::path::Path::new(p)).map_err(|e| e.to_string()))
        .transpose()?;
    let cache = std::sync::Arc::new(PlanCache::new(cache_config));
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
    let tiered_planner =
        tiered.then(|| TieredPlanner::new(std::sync::Arc::clone(&cache), config.clone()));
    let planner = CachedPlanner::new(&cache, config);
    let started = Instant::now();
    let results = match &tiered_planner {
        Some(tiered) => plan_batch(tiered, &instances, workers),
        None => plan_batch(&planner, &instances, workers),
    };
    let elapsed = started.elapsed();
    if let Some(tiered) = &tiered_planner {
        tiered.drain().map_err(|e| format!("refinement drain failed: {e}"))?;
    }

    write_served_lines(out, &names, &results)?;
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

/// Writes one `name  source  cost  plan` line per served request,
/// surfacing the first planner error (local planners never produce one;
/// a fleet with a cold fallback only fails if the fallback itself does).
fn write_served_lines(
    out: &mut dyn std::io::Write,
    names: &[String],
    results: &[Result<ServedPlan, dsq_service::PlanError>],
) -> Result<(), CliError> {
    for (name, result) in names.iter().zip(results) {
        let served = result.as_ref().map_err(|e| format!("request {name} failed: {e}"))?;
        writeln!(
            out,
            "{:<28} {:<5} cost {:<12.6} plan {}{}",
            name,
            served.source.name(),
            served.cost,
            served.plan,
            tier_suffix(served.tier),
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// The trailing tier marker on served-plan lines: exact plans render
/// exactly as before tiered serving existed, heuristic ones carry the
/// same ` tier heur` token the wire protocol uses.
fn tier_suffix(tier: PlanTier) -> &'static str {
    match tier {
        PlanTier::Exact => "",
        PlanTier::Heuristic => " tier heur",
    }
}

fn serve_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut addr: Option<ListenAddr> = None;
    let mut config = ServerConfig::default();
    while let Some(arg) = args.next() {
        if parse_cache_flag(arg, args, &mut config.cache)? {
            continue;
        }
        if let Some(parsed) = parse_addr_flag(arg, args)? {
            addr = Some(parsed);
            continue;
        }
        match arg {
            "--workers" => {
                config.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .and_then(NonZeroUsize::new)
                    .ok_or("--workers needs a positive integer")?
            }
            "--config" => config.bnb = parse_config(args.next().ok_or("--config needs a value")?)?,
            "--queue" => {
                config.queue_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--queue needs a positive integer")?
            }
            "--retry-ms" => {
                config.retry_after_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--retry-ms needs a non-negative integer")?
            }
            "--snapshot" => {
                config.snapshot_path =
                    Some(PathBuf::from(args.next().ok_or("--snapshot needs a file")?))
            }
            "--snapshot-interval-secs" => {
                config.snapshot_interval = Duration::from_secs(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&v| v > 0)
                        .ok_or("--snapshot-interval-secs needs a positive integer")?,
                )
            }
            "--tiered" => config.tiered = true,
            "--max-pipeline" => {
                config.max_pipeline = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--max-pipeline needs a positive integer")?
            }
            // Deterministic fault injection on the response path: the
            // moderate chaos mix, replayable from the seed.
            "--chaos" => {
                let seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--chaos needs a seed (a non-negative integer)")?;
                config.chaos = Some(FaultProfile::moderate(seed));
            }
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    let addr = addr.ok_or("serve requires --unix PATH or --tcp ADDR")?;
    // One reactor thread holding thousands of sockets needs the process
    // fd budget to match; best-effort raise toward the hard cap.
    let _ = reactor::ensure_nofile_limit(8192);
    let server = Server::start(&addr, &config).map_err(|e| format!("cannot start server: {e}"))?;
    let stats = server.stats();
    if stats.restored_entries > 0 {
        writeln!(out, "restored {} cached plans from snapshot", stats.restored_entries)
            .map_err(io_err)?;
    }
    writeln!(
        out,
        "listening on {} ({} workers, queue {}, {} probes{}{})",
        server.listen_addr(),
        config.workers,
        config.queue_capacity,
        config.cache.probes,
        if config.tiered { ", tiered" } else { "" },
        if config.chaos.is_some() { ", chaos" } else { "" },
    )
    .map_err(io_err)?;
    out.flush().map_err(io_err)?;

    // Graceful shutdown on stdin EOF (the foreground idiom: Ctrl-D, or
    // closing the pipe a supervisor holds) or on a client's `shutdown`
    // request; whichever arrives first. The EOF watcher is skipped when
    // stdin is a non-terminal character device (`< /dev/null`, the
    // daemonized idiom) — there EOF is immediate and means "no
    // controlling input", not "drain now".
    if stdin_signals_shutdown() {
        let handle = server.shutdown_handle();
        std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            handle.request_shutdown();
        });
    }
    server.wait_shutdown_requested();
    writeln!(out, "shutdown requested; draining in-flight requests").map_err(io_err)?;
    let stats = server.shutdown();
    writeln!(out, "{stats}").map_err(io_err)?;
    writeln!(out, "drained cleanly").map_err(io_err)
}

/// Whether `dsq serve` should treat stdin EOF as a drain request.
///
/// True for terminals (Ctrl-D) and pipes/FIFOs/files (a supervisor
/// closing its end); false for non-terminal character devices — i.e.
/// `dsq serve < /dev/null &`, where EOF arrives instantly and shutting
/// down on it would kill the daemon before its first request.
fn stdin_signals_shutdown() -> bool {
    use std::io::IsTerminal;
    use std::os::unix::fs::FileTypeExt;
    if std::io::stdin().is_terminal() {
        return true;
    }
    // Linux: stat what fd 0 actually points at.
    std::fs::metadata("/proc/self/fd/0").map(|m| !m.file_type().is_char_device()).unwrap_or(false)
}

/// `(name, document)` request pairs for `client optimize`; `-` expands
/// to the concatenated stdin stream, like serve-batch.
fn gather_client_requests(files: &[&str]) -> Result<Vec<(String, String)>, CliError> {
    let mut requests: Vec<(String, String)> = Vec::new();
    for file in files {
        if *file == "-" {
            let mut buffer = String::new();
            std::io::stdin().read_to_string(&mut buffer).map_err(io_err)?;
            let documents = split_instance_stream(&buffer);
            if documents.is_empty() {
                return Err("stdin contained no instances".into());
            }
            for (index, text) in documents.into_iter().enumerate() {
                requests.push((format!("stdin[{index}]"), text));
            }
        } else {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            requests.push((file.to_string(), text));
        }
    }
    Ok(requests)
}

fn client_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut addr: Option<ListenAddr> = None;
    let mut fleet_spec: Option<&str> = None;
    let mut fleet_config_path: Option<&str> = None;
    let mut routing = Quantization::default();
    let mut repeat = 1usize;
    let mut pipelined = false;
    let mut command: Option<&str> = None;
    let mut files: Vec<&str> = Vec::new();
    while let Some(arg) = args.next() {
        if let Some(parsed) = parse_addr_flag(arg, args)? {
            addr = Some(parsed);
            continue;
        }
        match arg {
            "--pipeline" => pipelined = true,
            "--repeat" => {
                repeat = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--repeat needs a positive integer")?
            }
            "--fleet" => {
                fleet_spec =
                    Some(args.next().ok_or("--fleet needs a comma-separated address list")?)
            }
            "--fleet-config" => {
                fleet_config_path = Some(args.next().ok_or("--fleet-config needs a file")?)
            }
            // Routing quantization for --fleet: must match the backends'
            // cache --resolution, or a query drifting inside one backend
            // bucket can still flip its routing fingerprint and smear
            // the key across both backends.
            "--resolution" => {
                let value: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|v| (0.0..1.0).contains(v) && *v > 0.0)
                    .ok_or("--resolution needs a number in (0, 1)")?;
                routing = Quantization::new(value);
            }
            other if command.is_none() => command = Some(other),
            other => files.push(other),
        }
    }
    if addr.is_none() && fleet_spec.is_none() && fleet_config_path.is_none() {
        return Err("client requires --unix PATH or --tcp ADDR".into());
    }
    let command =
        command.ok_or("client requires a command (optimize|stats|metrics|ping|shutdown|hold)")?;
    // Validate the request before dialing, so usage errors do not depend
    // on a live server.
    if !matches!(command, "optimize" | "stats" | "metrics" | "ping" | "shutdown" | "hold") {
        return Err(format!("unknown client command `{command}`"));
    }
    if command == "optimize" && files.is_empty() {
        return Err("client optimize requires at least one instance file".into());
    }
    if pipelined && command != "optimize" {
        return Err("--pipeline only applies to the optimize command".into());
    }
    let hold_count = if command == "hold" {
        files
            .first()
            .and_then(|v| v.parse().ok())
            .filter(|&v: &usize| v > 0)
            .ok_or("client hold needs a positive connection count")?
    } else {
        0
    };

    // Fleet mode: shard the requests across the backends by canonical
    // fingerprint, with failover and a local cold fallback. The backend
    // list comes from --fleet directly, or from a versioned fleet-config
    // file that is re-resolved between repeat rounds — an operator can
    // push a new generation mid-run and the router cuts over to the new
    // layout atomically.
    if fleet_spec.is_some() || fleet_config_path.is_some() {
        let flag = if fleet_config_path.is_some() { "--fleet-config" } else { "--fleet" };
        if addr.is_some() {
            return Err(format!("{flag} replaces --unix/--tcp; give one or the other"));
        }
        if fleet_spec.is_some() && fleet_config_path.is_some() {
            return Err("--fleet-config replaces --fleet; give one or the other".into());
        }
        if command != "optimize" {
            return Err(format!("{flag} only supports the optimize command, not `{command}`"));
        }
        let mut membership = fleet_config_path
            .map(|path| FleetMembership::load(path).map_err(|e| e.to_string()))
            .transpose()?;
        let addrs = match (&membership, fleet_spec) {
            (Some(m), _) => fleet_config_addrs(m.current())?,
            (None, Some(spec)) => parse_fleet_spec(spec)?,
            (None, None) => unreachable!("fleet mode requires one of the flags"),
        };
        let mut fleet = build_fleet(&addrs, routing.clone(), BnbConfig::paper())?;
        // Parse once, before any request goes out: a bad document is an
        // up-front usage error, not a mid-stream failure on repeat 1.
        let requests: Vec<(String, QueryInstance)> = gather_client_requests(&files)?
            .into_iter()
            .map(|(name, text)| {
                parse_instance(&text)
                    .map(|instance| (name.clone(), instance))
                    .map_err(|e| format!("cannot parse {name}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        for round in 0..repeat {
            // Between rounds, re-resolve the fleet-config file. A
            // strictly newer generation is an atomic cutover; the
            // retiring fleet's summary is flushed first so its counters
            // are not silently discarded.
            if round > 0 {
                if let Some(membership) = membership.as_mut() {
                    if let Some(next) = membership.refresh() {
                        let next = next.clone();
                        write_fleet_summary(out, &fleet)?;
                        writeln!(
                            out,
                            "fleet config cut over to generation {} ({} backends)",
                            next.generation,
                            next.endpoints.len(),
                        )
                        .map_err(io_err)?;
                        fleet = build_fleet(
                            &fleet_config_addrs(&next)?,
                            routing.clone(),
                            BnbConfig::paper(),
                        )?;
                    }
                }
            }
            for (name, instance) in &requests {
                let served =
                    fleet.plan(instance).map_err(|e| format!("request {name} failed: {e}"))?;
                writeln!(
                    out,
                    "{name:<28} {:<5} cost {:<12.6} plan {}{}",
                    served.source.name(),
                    served.cost,
                    served.plan,
                    tier_suffix(served.tier),
                )
                .map_err(io_err)?;
            }
        }
        return write_fleet_summary(out, &fleet);
    }

    let addr = addr.expect("checked above");
    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let transport = |e: std::io::Error| format!("request failed: {e}");
    let write_response =
        |out: &mut dyn std::io::Write, name: &str, response: Response| -> Result<(), CliError> {
            match response {
                Response::Served { source, cost, plan, tier, .. } => {
                    let plan = Plan::new(plan).map_err(|e| e.to_string())?;
                    writeln!(
                        out,
                        "{name:<28} {:<5} cost {cost:<12.6} plan {plan}{}",
                        source.name(),
                        tier_suffix(tier),
                    )
                    .map_err(io_err)
                }
                Response::Busy { retry_after_ms } => {
                    writeln!(out, "{name:<28} busy  retry-after-ms {retry_after_ms}")
                        .map_err(io_err)
                }
                Response::Error { message } => Err(format!("server error for {name}: {message}")),
                other => Err(format!("unexpected response: {other:?}")),
            }
        };
    match command {
        "optimize" => {
            let requests = gather_client_requests(&files)?;
            if pipelined {
                // One coalesced frame per round; responses come back in
                // request order, so the output lines match the
                // sequential path's exactly.
                let batch: Vec<PipelineRequest> = requests
                    .iter()
                    .map(|(_, text)| PipelineRequest::Optimize(text.clone()))
                    .collect();
                for _ in 0..repeat {
                    let responses = client.pipeline(&batch).map_err(transport)?;
                    for ((name, _), response) in requests.iter().zip(responses) {
                        write_response(out, name, response)?;
                    }
                }
                return Ok(());
            }
            for _ in 0..repeat {
                for (name, text) in &requests {
                    let response = client.optimize_text(text).map_err(transport)?;
                    write_response(out, name, response)?;
                }
            }
            Ok(())
        }
        "hold" => {
            let count = hold_count;
            let _ = reactor::ensure_nofile_limit((count as u64).saturating_add(64));
            // Every connection is pinged at connect time and re-verified
            // at drain time; the second line is the held/dropped
            // accounting tests assert instead of scraping procfs.
            let report = hold_connections(&addr, count).map_err(|e| e.to_string())?;
            writeln!(out, "held {} concurrent connections on {addr}", report.requested)
                .map_err(io_err)?;
            writeln!(out, "{}", report.summary_line()).map_err(io_err)
        }
        "stats" => match client.stats().map_err(transport)? {
            Response::Stats(s) => writeln!(
                out,
                "requests {} hits {} probe2 {} warm {} cold {} busy {} hit-rate {:.1}% entries {}",
                s.requests,
                s.hits,
                s.probe2_hits,
                s.warm_starts,
                s.cold,
                s.busy_rejections,
                s.hit_rate * 100.0,
                s.entries,
            )
            .map_err(io_err),
            other => Err(format!("unexpected response: {other:?}")),
        },
        "metrics" => {
            let text = client.metrics().map_err(transport)?;
            out.write_all(text.as_bytes()).map_err(io_err)
        }
        "ping" => match client.ping().map_err(transport)? {
            Response::Pong => writeln!(out, "pong").map_err(io_err),
            other => Err(format!("unexpected response: {other:?}")),
        },
        "shutdown" => match client.shutdown_server().map_err(transport)? {
            Response::Draining => writeln!(out, "server draining").map_err(io_err),
            other => Err(format!("unexpected response: {other:?}")),
        },
        _ => unreachable!("command validated above"),
    }
}

/// `dsq loadgen`: the open-loop soak generator. One thread, connection,
/// and Poisson arrival schedule per request class; latency is measured
/// from each request's scheduled send time, so server slowdowns surface
/// as tail latency instead of silently throttling the generator
/// (coordinated omission).
fn loadgen_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut addr: Option<ListenAddr> = None;
    let mut config = LoadgenConfig::default();
    let mut json = false;
    while let Some(arg) = args.next() {
        if let Some(parsed) = parse_addr_flag(arg, args)? {
            addr = Some(parsed);
            continue;
        }
        match arg {
            "--json" => json = true,
            "--rate" => {
                config.rate = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|v: &f64| v.is_finite() && *v > 0.0)
                    .ok_or("--rate needs a positive requests-per-second number")?
            }
            "--requests" => {
                config.requests = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--requests needs a positive integer")?
            }
            "-n" => {
                config.n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 2)
                    .ok_or("-n needs an integer >= 2")?
            }
            "--seed" => {
                config.seed =
                    args.next().and_then(|v| v.parse().ok()).ok_or("--seed needs an integer")?
            }
            "--pipeline-depth" => {
                config.pipeline_depth = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--pipeline-depth needs a positive integer")?
            }
            "--classes" => {
                let spec = args.next().ok_or("--classes needs a comma-separated class list")?;
                config.classes = spec
                    .split(',')
                    .map(|token| {
                        RequestClass::parse(token.trim()).ok_or_else(|| {
                            format!("unknown request class `{token}` (drift|boundary|pipelined)")
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if config.classes.is_empty() {
                    return Err("--classes needs at least one class".into());
                }
            }
            other => return Err(format!("unknown loadgen flag `{other}`\n{USAGE}")),
        }
    }
    let addr = addr.ok_or("loadgen requires --unix PATH or --tcp ADDR")?;
    let report = config.run(&addr).map_err(|e| format!("loadgen failed: {e}"))?;
    if json {
        writeln!(out, "{}", report.to_json()).map_err(io_err)
    } else {
        writeln!(out, "{}", report.summary()).map_err(io_err)
    }
}

/// `dsq fleet` subcommands: operator verbs that act on a whole fleet of
/// daemons rather than a single one.
fn fleet_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    match args.next() {
        Some("rebalance") => fleet_rebalance_cmd(args, out),
        Some(other) => Err(format!("unknown fleet command `{other}`")),
        None => Err("fleet requires a subcommand (rebalance)".into()),
    }
}

/// `dsq fleet rebalance --from ADDRS --to ADDRS`: warm partition
/// handoff for a fleet resize. Every `--from` backend is told the new
/// `--to` layout and exports exactly the cache entries it no longer
/// owns (a backend absent from `--to` drains completely); each exported
/// entry is routed on the new consistent-hash ring and imported into
/// its inheriting backend. Moved keys are then served by their new
/// owners as validated cache hits — the resize recomputes nothing.
fn fleet_rebalance_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut from_spec: Option<&str> = None;
    let mut to_spec: Option<&str> = None;
    let mut vnodes = DEFAULT_VNODES;
    while let Some(arg) = args.next() {
        match arg {
            "--from" => {
                from_spec = Some(args.next().ok_or("--from needs a comma-separated address list")?)
            }
            "--to" => {
                to_spec = Some(args.next().ok_or("--to needs a comma-separated address list")?)
            }
            "--vnodes" => {
                vnodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .ok_or("--vnodes needs a positive integer")?
            }
            other => return Err(format!("unknown fleet rebalance flag `{other}`")),
        }
    }
    let from = parse_fleet_spec(from_spec.ok_or("fleet rebalance requires --from and --to")?)?;
    let to = parse_fleet_spec(to_spec.ok_or("fleet rebalance requires --from and --to")?)?;
    // Ring labels must byte-match what a fleet client routes over —
    // `FleetPlanner` labels each backend with its `RemotePlanner` name —
    // or the handoff would park keys where no client ever looks.
    let labels: Vec<String> = to.iter().map(|addr| format!("remote({addr})")).collect();
    let ring = HashRing::with_vnodes(&labels, vnodes);
    let mut moved = 0u64;
    for donor in &from {
        // A donor surviving into the new layout keeps its own slot; one
        // leaving the fleet keeps none (`keep == len`, the drain form).
        let keep = to.iter().position(|addr| addr == donor).unwrap_or(to.len());
        let mut client =
            Client::connect(donor).map_err(|e| format!("cannot connect to {donor}: {e}"))?;
        let request = ExportRequest { vnodes, keep, backends: labels.clone() };
        let partition = client
            .export_partition(&request)
            .map_err(|e| format!("export from {donor} failed: {e}"))?;
        writeln!(out, "rebalance: {donor} exported {} entries", partition.entries.len())
            .map_err(io_err)?;
        for (index, inheritor) in to.iter().enumerate() {
            if index == keep {
                continue;
            }
            let entries: Vec<_> = partition
                .entries
                .iter()
                .filter(|entry| ring.route(entry.fingerprint) == index)
                .cloned()
                .collect();
            if entries.is_empty() {
                continue;
            }
            let shard = PlanSnapshot { resolution: partition.resolution, entries };
            let mut receiver = Client::connect(inheritor)
                .map_err(|e| format!("cannot connect to {inheritor}: {e}"))?;
            let restored = receiver
                .import_partition(&shard)
                .map_err(|e| format!("import into {inheritor} failed: {e}"))?;
            writeln!(out, "rebalance: {inheritor} inherited {restored} entries from {donor}")
                .map_err(io_err)?;
            moved += restored;
        }
    }
    writeln!(out, "rebalance complete: moved {moved} entries onto {} backends", to.len())
        .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str]) -> String {
        let mut out = Vec::new();
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    fn run_err(args: &[&str]) -> String {
        let mut out = Vec::new();
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, &mut out).expect_err("command fails")
    }

    fn temp_instance() -> (std::path::PathBuf, String) {
        let text = run_ok(&["generate", "--family", "clustered", "-n", "5", "--seed", "7"]);
        let path = std::env::temp_dir().join(format!("dsq-cli-test-{}.dsq", std::process::id()));
        std::fs::write(&path, &text).expect("write temp instance");
        (path, text)
    }

    #[test]
    fn generate_produces_parseable_instances() {
        let text = run_ok(&["generate", "--family", "euclidean", "-n", "6", "--seed", "2"]);
        let inst = parse_instance(&text).expect("round-trips");
        assert_eq!(inst.len(), 6);
        // Deterministic in the seed.
        assert_eq!(text, run_ok(&["generate", "--family", "euclidean", "-n", "6", "--seed", "2"]));
    }

    #[test]
    fn optimize_reports_plan_and_stats() {
        let (path, _) = temp_instance();
        let text = run_ok(&["optimize", path.to_str().expect("utf8 path")]);
        assert!(text.contains("plan"));
        assert!(text.contains("cost"));
        assert!(text.contains("optimal   true"));
        assert!(text.contains("nodes visited"));
        let parallel = run_ok(&[
            "optimize",
            path.to_str().expect("utf8 path"),
            "--parallel",
            "2",
            "--config",
            "extended",
        ]);
        assert!(parallel.contains("optimal   true"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn explain_breaks_down_given_plan() {
        let (path, _) = temp_instance();
        let text = run_ok(&["explain", path.to_str().expect("utf8"), "--plan", "4,3,2,1,0"]);
        assert!(text.contains("bottleneck cost"));
        assert!(text.contains("WS4"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn baselines_table_lists_methods() {
        let (path, _) = temp_instance();
        let text = run_ok(&["baselines", path.to_str().expect("utf8")]);
        for needle in ["branch-and-bound", "greedy", "beam", "annealing", "random mean"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        // The B&B row is the 1.000× reference.
        assert!(text.contains("1.000×"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulate_reports_throughput() {
        let (path, _) = temp_instance();
        let text =
            run_ok(&["simulate", path.to_str().expect("utf8"), "--tuples", "2000", "--block", "8"]);
        assert!(text.contains("predicted tput"));
        assert!(text.contains("tuples in"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn errors_are_informative() {
        assert!(run_err(&["bogus"]).contains("unknown command"));
        assert!(run_err(&["generate", "-n", "4"]).contains("--family"));
        assert!(run_err(&["generate", "--family", "nope", "-n", "4"]).contains("unknown family"));
        assert!(run_err(&["optimize"]).contains("instance file"));
        assert!(run_err(&["optimize", "/nonexistent/x.dsq"]).contains("cannot read"));
        let (path, _) = temp_instance();
        assert!(run_err(&["explain", path.to_str().expect("utf8"), "--plan", "0,1"])
            .contains("instance has 5"));
        assert!(run_err(&["optimize", path.to_str().expect("utf8"), "--config", "zap"])
            .contains("unknown config"));
        std::fs::remove_file(path).ok();
    }

    /// The exact messages are part of the CLI contract: scripts match on
    /// them, so changes must be deliberate.
    #[test]
    fn error_messages_are_exact() {
        let (path, _) = temp_instance();
        let file = path.to_str().expect("utf8 path");
        // Malformed --plan lists.
        assert_eq!(run_err(&["explain", file, "--plan", "0,x,2,3,4"]), "bad plan index `x`");
        assert_eq!(run_err(&["explain", file, "--plan", "0, ,2,3,4"]), "bad plan index ` `");
        // Out-of-range / duplicate indices.
        assert_eq!(
            run_err(&["explain", file, "--plan", "0,1,2,3,9"]),
            "invalid plan: service index 9 out of range for 5 services"
        );
        assert_eq!(
            run_err(&["explain", file, "--plan", "0,1,2,3,3"]),
            "invalid plan: service 3 appears twice"
        );
        assert_eq!(
            run_err(&["explain", file, "--plan", "0,1"]),
            "plan has 2 services, instance has 5"
        );
        // Unknown family / config.
        assert_eq!(run_err(&["generate", "--family", "mesh", "-n", "4"]), "unknown family `mesh`");
        assert_eq!(run_err(&["optimize", file, "--config", "zap"]), "unknown config `zap`");
        // serve-batch argument errors.
        assert_eq!(run_err(&["serve-batch"]), "serve-batch requires a directory or `-` for stdin");
        assert_eq!(
            run_err(&["serve-batch", "/tmp", "--workers", "0"]),
            "--workers needs a positive integer"
        );
        assert_eq!(
            run_err(&["serve-batch", "/tmp", "--resolution", "7"]),
            "--resolution needs a number in (0, 1)"
        );
        let missing = run_err(&["serve-batch", "/nonexistent-dsq-dir"]);
        assert!(missing.starts_with("cannot read /nonexistent-dsq-dir:"), "{missing}");
        // serve / client argument errors.
        assert_eq!(run_err(&["serve"]), "serve requires --unix PATH or --tcp ADDR");
        assert_eq!(run_err(&["serve", "--unix"]), "--unix needs a path");
        assert_eq!(run_err(&["serve", "--tcp", "x", "--probes", "3"]), "--probes must be 1 or 2");
        assert_eq!(
            run_err(&["serve", "--tcp", "x", "--queue", "0"]),
            "--queue needs a positive integer"
        );
        assert_eq!(run_err(&["serve", "--tcp", "x", "--bogus"]), "unknown serve flag `--bogus`");
        assert_eq!(
            run_err(&["serve", "--tcp", "x", "--chaos", "nope"]),
            "--chaos needs a seed (a non-negative integer)"
        );
        assert_eq!(run_err(&["client", "stats"]), "client requires --unix PATH or --tcp ADDR");
        assert_eq!(
            run_err(&["client", "--unix", "/tmp/x.sock"]),
            "client requires a command (optimize|stats|metrics|ping|shutdown|hold)"
        );
        assert_eq!(
            run_err(&["client", "--unix", "/tmp/x.sock", "reboot"]),
            "unknown client command `reboot`"
        );
        assert_eq!(
            run_err(&["client", "--unix", "/tmp/x.sock", "optimize"]),
            "client optimize requires at least one instance file"
        );
        assert_eq!(
            run_err(&["client", "--unix", "/tmp/x.sock", "--pipeline", "ping"]),
            "--pipeline only applies to the optimize command"
        );
        assert_eq!(
            run_err(&["client", "--unix", "/tmp/x.sock", "hold", "zero"]),
            "client hold needs a positive connection count"
        );
        // loadgen argument errors.
        assert_eq!(run_err(&["loadgen"]), "loadgen requires --unix PATH or --tcp ADDR");
        assert_eq!(
            run_err(&["loadgen", "--tcp", "x", "--rate", "0"]),
            "--rate needs a positive requests-per-second number"
        );
        assert_eq!(
            run_err(&["loadgen", "--tcp", "x", "--requests", "0"]),
            "--requests needs a positive integer"
        );
        assert_eq!(
            run_err(&["loadgen", "--tcp", "x", "--classes", "drift,warp"]),
            "unknown request class `warp` (drift|boundary|pipelined)"
        );
        assert_eq!(
            run_err(&["loadgen", "--tcp", "x", "--pipeline-depth", "0"]),
            "--pipeline-depth needs a positive integer"
        );
        assert_eq!(
            run_err(&["serve", "--tcp", "x", "--max-pipeline", "0"]),
            "--max-pipeline needs a positive integer"
        );
        let unreachable = run_err(&["client", "--unix", "/nonexistent/dsq.sock", "ping"]);
        assert!(
            unreachable.starts_with("cannot connect to unix:///nonexistent/dsq.sock:"),
            "{unreachable}"
        );
        assert_eq!(
            run_err(&["serve-batch", "/tmp", "--snapshot-in"]),
            "--snapshot-in needs a file"
        );
        std::fs::remove_file(path).ok();
    }

    /// `serve-batch --snapshot-out/--snapshot-in`: warm plans cross
    /// processes through the snapshot file — a second batch run starts at
    /// a 100% hit rate.
    #[test]
    fn serve_batch_snapshots_carry_warm_plans_across_runs() {
        let dir = std::env::temp_dir().join(format!("dsq-snap-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create batch dir");
        for (name, seed) in [("a.dsq", 31u64), ("b.dsq", 32), ("c.dsq", 33)] {
            let text = run_ok(&[
                "generate",
                "--family",
                "clustered",
                "-n",
                "6",
                "--seed",
                &seed.to_string(),
            ]);
            std::fs::write(dir.join(name), text).expect("write instance");
        }
        let dir_arg = dir.to_str().expect("utf8");
        let snapshot = dir.join("plans.dsqc");
        let snapshot_arg = snapshot.to_str().expect("utf8");

        let first =
            run_ok(&["serve-batch", dir_arg, "--workers", "1", "--snapshot-out", snapshot_arg]);
        assert!(first.contains("cache: 0 hits, 0 warm starts, 3 cold"), "{first}");
        assert!(
            first.contains(&format!("wrote snapshot (3 entries) to {snapshot_arg}")),
            "{first}"
        );
        assert!(snapshot.exists());

        let second =
            run_ok(&["serve-batch", dir_arg, "--workers", "1", "--snapshot-in", snapshot_arg]);
        assert!(
            second.contains(&format!("restored 3 cached plans from {snapshot_arg}")),
            "{second}"
        );
        assert!(second.contains("cache: 3 hits, 0 warm starts, 0 cold"), "{second}");

        // A resolution mismatch is rejected with the restore error.
        let mismatch = run_err(&[
            "serve-batch",
            dir_arg,
            "--snapshot-in",
            snapshot_arg,
            "--resolution",
            "0.1",
        ]);
        assert_eq!(
            mismatch,
            format!(
                "cannot restore snapshot {snapshot_arg}: snapshot resolution 0.05 does not match cache resolution 0.1"
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `serve-batch --tiered`: misses are answered by the greedy tier
    /// (their lines carry `tier heur`), the pre-exit drain refines every
    /// entry, and the snapshot hands a second run pure exact hits.
    #[test]
    fn serve_batch_tiered_answers_heur_then_refines_before_the_snapshot() {
        let dir = std::env::temp_dir().join(format!("dsq-tiered-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create batch dir");
        for (name, seed) in [("a.dsq", 51u64), ("b.dsq", 52), ("c.dsq", 53)] {
            let text = run_ok(&[
                "generate",
                "--family",
                "clustered",
                "-n",
                "6",
                "--seed",
                &seed.to_string(),
            ]);
            std::fs::write(dir.join(name), text).expect("write instance");
        }
        let dir_arg = dir.to_str().expect("utf8");
        let snapshot = dir.join("plans.dsqc");
        let snapshot_arg = snapshot.to_str().expect("utf8");

        let first = run_ok(&[
            "serve-batch",
            dir_arg,
            "--workers",
            "1",
            "--tiered",
            "--snapshot-out",
            snapshot_arg,
        ]);
        let heur_lines = first.lines().filter(|l| l.ends_with(" tier heur")).count();
        assert_eq!(heur_lines, 3, "every miss is answered by the greedy tier:\n{first}");
        assert!(first.contains("tiered: 3 tier-1 answers, 3 refined"), "{first}");
        // The drain ran before the snapshot: all three entries are exact
        // and eligible for persistence.
        assert!(
            first.contains(&format!("wrote snapshot (3 entries) to {snapshot_arg}")),
            "{first}"
        );

        let second = run_ok(&[
            "serve-batch",
            dir_arg,
            "--workers",
            "1",
            "--tiered",
            "--snapshot-in",
            snapshot_arg,
        ]);
        assert!(second.contains("cache: 3 hits, 0 warm starts, 0 cold"), "{second}");
        assert!(
            !second.contains("tier heur"),
            "refined entries serve as exact hits after the warm restart:\n{second}"
        );
        assert!(second.contains("tiered: 0 tier-1 answers, 0 refined"), "{second}");

        assert_eq!(
            run_err(&["serve-batch", dir_arg, "--tiered", "--remote", "tcp://x"]),
            "--remote backends choose their own serving mode; drop --tiered"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_batch_smoke_over_a_directory() {
        let dir = std::env::temp_dir().join(format!("dsq-serve-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create batch dir");
        // Two copies of the same query and one distinct one: the repeat
        // must hit the cache.
        for (name, seed) in [("a.dsq", 3u64), ("b.dsq", 3), ("c.dsq", 4)] {
            let text = run_ok(&[
                "generate",
                "--family",
                "clustered",
                "-n",
                "6",
                "--seed",
                &seed.to_string(),
            ]);
            std::fs::write(dir.join(name), text).expect("write instance");
        }
        std::fs::write(dir.join("ignored.txt"), "not an instance").expect("write decoy");
        let out = run_ok(&["serve-batch", dir.to_str().expect("utf8"), "--workers", "2"]);
        for needle in ["a.dsq", "b.dsq", "c.dsq", "served 3 requests", "hit-rate"] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        assert!(out.contains("cache: 1 hits, 0 warm starts, 2 cold"), "{out}");
        // a/b identical → identical plan lines modulo the file name.
        let lines: Vec<&str> = out.lines().collect();
        let plan_of = |line: &str| line.split("plan ").nth(1).map(str::to_string);
        assert_eq!(plan_of(lines[0]), plan_of(lines[1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_batch_rejects_instancefree_directories() {
        let dir = std::env::temp_dir().join(format!("dsq-serve-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create empty dir");
        let message = run_err(&["serve-batch", dir.to_str().expect("utf8")]);
        assert_eq!(message, format!("no .dsq instance files in {}", dir.display()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn instance_streams_split_on_headers() {
        let one = run_ok(&["generate", "--family", "euclidean", "-n", "4", "--seed", "1"]);
        let two = run_ok(&["generate", "--family", "euclidean", "-n", "5", "--seed", "2"]);
        let stream = format!("{one}{two}");
        let documents = split_instance_stream(&stream);
        assert_eq!(documents.len(), 2);
        assert_eq!(parse_instance(&documents[0]).expect("first parses").len(), 4);
        assert_eq!(parse_instance(&documents[1]).expect("second parses").len(), 5);
        assert!(split_instance_stream("").is_empty());
        assert!(split_instance_stream("  \n\nnoise without a header\n").is_empty());
    }

    #[test]
    fn fleet_spec_parsing_covers_all_forms() {
        let addrs = parse_fleet_spec("unix:///tmp/a.sock, tcp://127.0.0.1:7878,/tmp/b.sock,host:9")
            .expect("parses");
        assert_eq!(
            addrs,
            vec![
                ListenAddr::Unix("/tmp/a.sock".into()),
                ListenAddr::Tcp("127.0.0.1:7878".into()),
                ListenAddr::Unix("/tmp/b.sock".into()),
                ListenAddr::Tcp("host:9".into()),
            ]
        );
        assert_eq!(
            parse_fleet_spec("a,,b").expect_err("empty entry"),
            "empty backend address in `a,,b`"
        );
        // Duplicate endpoints would occupy two ring slots and double
        // their keyspace share; rejected with the offending entry —
        // compared after normalization, so two spellings of one address
        // still collide.
        assert_eq!(
            parse_fleet_spec("tcp://h:1,h:1").expect_err("duplicate entry"),
            "duplicate backend address `h:1` in `tcp://h:1,h:1`"
        );
        assert_eq!(
            parse_fleet_spec("/tmp/a.sock,unix:///tmp/a.sock").expect_err("normalized duplicate"),
            "duplicate backend address `unix:///tmp/a.sock` in `/tmp/a.sock,unix:///tmp/a.sock`"
        );
    }

    #[test]
    fn fleet_flag_errors_are_exact() {
        assert_eq!(run_err(&["client", "--fleet"]), "--fleet needs a comma-separated address list");
        assert_eq!(
            run_err(&["client", "--fleet", "tcp://x", "stats"]),
            "--fleet only supports the optimize command, not `stats`"
        );
        assert_eq!(
            run_err(&["client", "--unix", "/tmp/x.sock", "--fleet", "tcp://x", "optimize", "f"]),
            "--fleet replaces --unix/--tcp; give one or the other"
        );
        assert_eq!(
            run_err(&["client", "--fleet", "tcp://x"]),
            "client requires a command (optimize|stats|metrics|ping|shutdown|hold)"
        );
        assert_eq!(
            run_err(&["client", "--fleet", "tcp://x", "--resolution", "7", "optimize", "f"]),
            "--resolution needs a number in (0, 1)"
        );
        assert_eq!(
            run_err(&["serve-batch", "/tmp", "--remote"]),
            "--remote needs a comma-separated address list"
        );
        assert_eq!(
            run_err(&["serve-batch", "/tmp", "--remote", "tcp://x", "--snapshot-out", "s"]),
            "--remote backends own their caches; drop --snapshot-in/--snapshot-out"
        );
        // --fleet-config argument errors.
        assert_eq!(run_err(&["client", "--fleet-config"]), "--fleet-config needs a file");
        assert_eq!(
            run_err(&["client", "--fleet-config", "/tmp/f.cfg", "stats"]),
            "--fleet-config only supports the optimize command, not `stats`"
        );
        assert_eq!(
            run_err(&[
                "client",
                "--fleet",
                "tcp://x",
                "--fleet-config",
                "/tmp/f.cfg",
                "optimize",
                "f"
            ]),
            "--fleet-config replaces --fleet; give one or the other"
        );
        assert_eq!(
            run_err(&["client", "--tcp", "x", "--fleet-config", "/tmp/f.cfg", "optimize", "f"]),
            "--fleet-config replaces --unix/--tcp; give one or the other"
        );
        let unreadable =
            run_err(&["client", "--fleet-config", "/nonexistent.cfg", "optimize", "f"]);
        assert!(unreadable.starts_with("fleet config unreadable:"), "{unreadable}");
        // fleet rebalance argument errors.
        assert_eq!(run_err(&["fleet"]), "fleet requires a subcommand (rebalance)");
        assert_eq!(run_err(&["fleet", "shuffle"]), "unknown fleet command `shuffle`");
        assert_eq!(run_err(&["fleet", "rebalance"]), "fleet rebalance requires --from and --to");
        assert_eq!(
            run_err(&["fleet", "rebalance", "--from", "tcp://a", "--to", "a,a"]),
            "duplicate backend address `a` in `a,a`"
        );
        assert_eq!(
            run_err(&[
                "fleet",
                "rebalance",
                "--from",
                "tcp://a",
                "--to",
                "tcp://b",
                "--vnodes",
                "0"
            ]),
            "--vnodes needs a positive integer"
        );
        assert_eq!(
            run_err(&["fleet", "rebalance", "--wat"]),
            "unknown fleet rebalance flag `--wat`"
        );
    }

    /// `client --fleet` against two live in-process daemons: requests
    /// shard deterministically, repeats hit the backends' caches, and a
    /// dead replica in the list is ridden over by failover (with the
    /// local cold fallback as the last resort).
    #[test]
    fn client_fleet_shards_and_rides_over_a_dead_backend() {
        use dsq_server::{Server, ServerConfig};
        let quick = ServerConfig {
            poll_interval: std::time::Duration::from_millis(2),
            ..ServerConfig::default()
        };
        let server_a =
            Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("a starts");
        let server_b =
            Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("b starts");
        let spec = format!("{},{}", server_a.listen_addr(), server_b.listen_addr());

        let dir = std::env::temp_dir().join(format!("dsq-fleet-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create dir");
        let mut files: Vec<String> = Vec::new();
        for seed in 0..4u64 {
            let text = run_ok(&[
                "generate",
                "--family",
                "clustered",
                "-n",
                "6",
                "--seed",
                &seed.to_string(),
            ]);
            let path = dir.join(format!("q{seed}.dsq"));
            std::fs::write(&path, text).expect("write instance");
            files.push(path.to_str().expect("utf8").to_string());
        }

        let mut args =
            vec!["client".to_string(), "--fleet".into(), spec.clone(), "optimize".into()];
        args.extend(files.iter().cloned());
        args.extend(["--repeat".to_string(), "2".into()]);
        let mut out = Vec::new();
        run(&args, &mut out).expect("fleet optimize succeeds");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains(" cold "), "first pass is cold:\n{text}");
        assert!(text.contains(" hit "), "second pass hits the backend caches:\n{text}");
        assert!(text.contains("fleet: 2 backends served 8 requests"), "{text}");
        assert!(text.contains("0 failovers, 0 local fallbacks"), "{text}");

        // Kill replica B: the same stream must still complete, riding
        // over the dead backend.
        let b_addr = server_b.listen_addr().clone();
        server_b.shutdown();
        let spec = format!("{},{b_addr}", server_a.listen_addr());
        let mut args = vec!["client".to_string(), "--fleet".into(), spec, "optimize".into()];
        args.extend(files.iter().cloned());
        let mut out = Vec::new();
        run(&args, &mut out).expect("fleet optimize survives a dead replica");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("fleet: 2 backends served 4 requests"), "{text}");
        server_a.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `client --fleet-config`: the backend list comes from a versioned
    /// fleet-config file instead of `--fleet`, served through the same
    /// consistent-hash router.
    #[test]
    fn client_fleet_config_routes_like_fleet() {
        use dsq_server::{Server, ServerConfig};
        let quick = ServerConfig {
            poll_interval: std::time::Duration::from_millis(2),
            ..ServerConfig::default()
        };
        let server_a =
            Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("a starts");
        let server_b =
            Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("b starts");
        let dir = std::env::temp_dir().join(format!("dsq-fleet-config-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create dir");
        let config_path = dir.join("fleet.cfg");
        FleetConfig::new(
            1,
            [server_a.listen_addr().to_string(), server_b.listen_addr().to_string()],
        )
        .expect("valid config")
        .store(&config_path)
        .expect("store config");

        let mut files: Vec<String> = Vec::new();
        for seed in 0..4u64 {
            let text = run_ok(&[
                "generate",
                "--family",
                "clustered",
                "-n",
                "6",
                "--seed",
                &seed.to_string(),
            ]);
            let path = dir.join(format!("q{seed}.dsq"));
            std::fs::write(&path, text).expect("write instance");
            files.push(path.to_str().expect("utf8").to_string());
        }
        let mut args = vec![
            "client".to_string(),
            "--fleet-config".into(),
            config_path.to_str().expect("utf8").to_string(),
            "optimize".into(),
        ];
        args.extend(files.iter().cloned());
        args.extend(["--repeat".to_string(), "2".into()]);
        let mut out = Vec::new();
        run(&args, &mut out).expect("fleet-config optimize succeeds");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains(" cold "), "first round is cold:\n{text}");
        assert!(text.contains(" hit "), "second round hits:\n{text}");
        assert!(text.contains("fleet: 2 backends served 8 requests"), "{text}");
        server_a.shutdown();
        server_b.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `fleet rebalance` between live daemons: grow a 2-backend fleet
    /// to 3, move the warm partitions, and confirm a fleet client over
    /// the new layout serves every key as a cache hit — the resize
    /// recomputed nothing.
    #[test]
    fn fleet_rebalance_keeps_keys_warm_across_a_grow() {
        use dsq_server::{Server, ServerConfig};
        let quick = ServerConfig {
            poll_interval: std::time::Duration::from_millis(2),
            ..ServerConfig::default()
        };
        let tcp = || ListenAddr::Tcp("127.0.0.1:0".into());
        let server_a = Server::start(&tcp(), &quick).expect("a starts");
        let server_b = Server::start(&tcp(), &quick).expect("b starts");
        let server_c = Server::start(&tcp(), &quick).expect("c starts");
        let old_spec = format!("{},{}", server_a.listen_addr(), server_b.listen_addr());
        let new_spec = format!("{old_spec},{}", server_c.listen_addr());

        let dir = std::env::temp_dir().join(format!("dsq-rebalance-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create dir");
        let mut files: Vec<String> = Vec::new();
        for seed in 0..16u64 {
            let text = run_ok(&[
                "generate",
                "--family",
                "clustered",
                "-n",
                "6",
                "--seed",
                &seed.to_string(),
            ]);
            let path = dir.join(format!("q{seed}.dsq"));
            std::fs::write(&path, text).expect("write instance");
            files.push(path.to_str().expect("utf8").to_string());
        }
        // Warm the old fleet.
        let mut args =
            vec!["client".to_string(), "--fleet".into(), old_spec.clone(), "optimize".into()];
        args.extend(files.iter().cloned());
        let mut out = Vec::new();
        run(&args, &mut out).expect("warm the old fleet");

        // Move the partitions onto the grown layout.
        let text = run_ok(&["fleet", "rebalance", "--from", &old_spec, "--to", &new_spec]);
        assert!(text.contains("rebalance complete: moved"), "{text}");
        // Exports and inheritances must balance: nothing lost in flight.
        let count_after = |needle: &str| -> u64 {
            text.lines()
                .filter_map(|l| {
                    let rest = l.split(needle).nth(1)?;
                    rest.split_whitespace().next()?.parse::<u64>().ok()
                })
                .sum()
        };
        assert_eq!(count_after(" exported "), count_after(" inherited "), "{text}");

        // A fleet client over the new layout: every key is a hit.
        let mut args = vec!["client".to_string(), "--fleet".into(), new_spec, "optimize".into()];
        args.extend(files.iter().cloned());
        let mut out = Vec::new();
        run(&args, &mut out).expect("serve over the grown fleet");
        let text = String::from_utf8(out).expect("utf8");
        let hits = text.lines().filter(|l| l.contains(" hit ")).count();
        assert_eq!(hits, 16, "every key must stay warm across the grow:\n{text}");
        assert!(text.contains("0 failovers, 0 local fallbacks"), "{text}");
        server_a.shutdown();
        server_b.shutdown();
        server_c.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `serve-batch --remote`: the batch front-end over a remote
    /// backend instead of an in-process cache.
    #[test]
    fn serve_batch_remote_serves_through_a_daemon() {
        use dsq_server::{Server, ServerConfig};
        let quick = ServerConfig {
            poll_interval: std::time::Duration::from_millis(2),
            ..ServerConfig::default()
        };
        let server = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("starts");
        let dir = std::env::temp_dir().join(format!("dsq-remote-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create dir");
        for (name, seed) in [("a.dsq", 3u64), ("b.dsq", 3), ("c.dsq", 4)] {
            let text = run_ok(&[
                "generate",
                "--family",
                "clustered",
                "-n",
                "6",
                "--seed",
                &seed.to_string(),
            ]);
            std::fs::write(dir.join(name), text).expect("write instance");
        }
        let out = run_ok(&[
            "serve-batch",
            dir.to_str().expect("utf8"),
            "--workers",
            "1",
            "--remote",
            &server.listen_addr().to_string(),
        ]);
        for needle in ["a.dsq", "b.dsq", "c.dsq", "served 3 requests"] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
        assert!(out.contains("fleet: 1 backends served 3 requests (3), 0 failovers"), "{out}");
        // The duplicate shape hit the daemon's cache, not a local one.
        let stats = server.shutdown();
        assert_eq!(stats.cache.requests(), 3);
        assert_eq!(stats.cache.hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `serve-batch --snapshot-out` refuses a path another live process
    /// (here: this one) holds the lock for.
    #[test]
    fn serve_batch_refuses_a_locked_snapshot_path() {
        let dir = std::env::temp_dir().join(format!("dsq-lockout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create dir");
        let text = run_ok(&["generate", "--family", "clustered", "-n", "5", "--seed", "1"]);
        std::fs::write(dir.join("q.dsq"), text).expect("write instance");
        let snapshot = dir.join("plans.dsqc");
        let _held = SnapshotLock::acquire(&snapshot).expect("this process takes the lock");
        let message = run_err(&[
            "serve-batch",
            dir.to_str().expect("utf8"),
            "--snapshot-out",
            snapshot.to_str().expect("utf8"),
        ]);
        assert!(message.contains("locked by live process"), "{message}");
        drop(_held);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The observability verbs against a live daemon: `client metrics`
    /// streams the exposition document, `client hold` prints the
    /// held/dropped drain accounting, and `loadgen` reports per-class
    /// tails with zero protocol errors.
    #[test]
    fn client_metrics_hold_and_loadgen_against_a_live_daemon() {
        use dsq_server::{Server, ServerConfig};
        let quick = ServerConfig {
            poll_interval: std::time::Duration::from_millis(2),
            ..ServerConfig::default()
        };
        let server = Server::start(&ListenAddr::Tcp("127.0.0.1:0".into()), &quick).expect("starts");
        let addr = server.listen_addr().to_string();

        let held = run_ok(&["client", "--tcp", trim_tcp(&addr), "hold", "8"]);
        assert!(held.contains("held 8 concurrent connections"), "{held}");
        assert!(held.contains("drained 8 held connections: 8 live, 0 dropped"), "{held}");

        let loadgen = run_ok(&[
            "loadgen",
            "--tcp",
            trim_tcp(&addr),
            "--rate",
            "2000",
            "--requests",
            "25",
            "-n",
            "6",
            "--classes",
            "drift,pipelined",
        ]);
        assert!(loadgen.contains("drift: 25 sent"), "{loadgen}");
        assert!(loadgen.contains("pipelined: 25 sent"), "{loadgen}");
        assert!(loadgen.contains("total: 50 requests"), "{loadgen}");
        assert!(loadgen.contains("(0 protocol errors)"), "{loadgen}");
        let json = run_ok(&[
            "loadgen",
            "--tcp",
            trim_tcp(&addr),
            "--rate",
            "2000",
            "--requests",
            "10",
            "--classes",
            "boundary",
            "--json",
        ]);
        assert!(json.contains("\"schema\": \"dsq-loadgen/v1\""), "{json}");
        assert!(json.contains("\"class\": \"boundary\""), "{json}");

        let metrics = run_ok(&["client", "--tcp", trim_tcp(&addr), "metrics"]);
        assert!(metrics.starts_with("# dsq-metrics v1\n"), "{metrics}");
        assert!(metrics.contains("histogram server.stage.plan_ns "), "{metrics}");
        assert!(metrics.contains("counter server.serve.requests "), "{metrics}");
        server.shutdown();
    }

    /// `ListenAddr::Tcp` displays as `tcp://HOST:PORT`; the CLI's --tcp
    /// flag takes the bare `HOST:PORT`.
    fn trim_tcp(display: &str) -> &str {
        display.strip_prefix("tcp://").unwrap_or(display)
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["--help"]).contains("usage:"));
        let mut out = Vec::new();
        run(&[], &mut out).expect("no-arg run prints usage");
        assert!(String::from_utf8(out).expect("utf8").contains("usage:"));
    }
}
