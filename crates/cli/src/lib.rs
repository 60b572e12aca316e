//! Implementation of the `dsq` command-line tool.
//!
//! The binary (`src/bin/dsq.rs`) is a thin shim over [`run`], so the
//! whole command surface is unit-testable without spawning processes.
//!
//! ```text
//! dsq generate --family clustered -n 12 --seed 3       # instance → stdout
//! dsq optimize pipeline.dsq [--config no-backjump]
//! dsq explain pipeline.dsq --plan 2,0,1                # per-term breakdown
//! dsq baselines pipeline.dsq                           # comparison table
//! dsq simulate pipeline.dsq --tuples 20000 [--plan …]  # discrete-event run
//! dsq serve-batch queries/ [--workers 4]               # plan-cache batch serve
//! dsq serve --unix /tmp/dsq.sock [--snapshot s.dsqc]   # long-lived daemon
//! dsq client --unix /tmp/dsq.sock optimize a.dsq       # drive the daemon
//! dsq client --fleet unix:///tmp/a.sock,unix:///tmp/b.sock optimize a.dsq
//! ```
//!
//! Each subcommand group lives in its own module (`offline` for the
//! in-process commands on instance files, then `serve_batch`, `serve`,
//! `client` and `fleet`); this file holds the dispatch, the usage text
//! and the helpers they share: flag parsing, the stdin instance stream
//! and the served-plan line. One-shot `optimize`, `serve-batch` and
//! `client --fleet` route through the `dsq_service::Planner` trait, so
//! they share one dispatch implementation. The daemon's workers do not:
//! they finish the probe the reactor started with `PlanCache::resume`
//! (or `TieredPlanner::resume`).

#![warn(missing_docs)]

mod client;
mod fleet;
mod offline;
mod serve;
mod serve_batch;
#[cfg(test)]
mod tests;

use dsq_core::{BnbConfig, Plan, Quantization};
use dsq_server::ListenAddr;
use dsq_service::{CacheConfig, PlanTier, ServeSource};
use std::io::Read;
use std::path::PathBuf;
use std::str::FromStr;

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
        Some("generate") => offline::generate_cmd(&mut args, out),
        Some("optimize") => offline::optimize_cmd(&mut args, out),
        Some("explain") => offline::explain_cmd(&mut args, out),
        Some("baselines") => offline::baselines_cmd(&mut args, out),
        Some("simulate") => offline::simulate_cmd(&mut args, out),
        Some("serve-batch") => serve_batch::serve_batch_cmd(&mut args, out),
        Some("serve") => serve::serve_cmd(&mut args, out),
        Some("client") => client::client_cmd(&mut args, out),
        Some("fleet") => fleet::fleet_cmd(&mut args, out),
        Some("--help") | Some("-h") | None => {
            writeln!(out, "{USAGE}").map_err(io_err)?;
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

const USAGE: &str = "usage:
  dsq generate --family FAMILY -n N [--seed S]        write an instance to stdout
  dsq optimize FILE [--config NAME]                   find the optimal ordering
  dsq explain FILE --plan I,J,K,...                   break down a plan's cost
  dsq baselines FILE                                  compare all ordering methods
  dsq simulate FILE [--plan I,J,...] [--tuples N] [--block B]
  dsq serve-batch DIR|-  [--workers T] [--config NAME] [--shards S]
                         [--capacity C] [--resolution R] [--tolerance X]
                         [--probes P] [--snapshot-in FILE] [--snapshot-out FILE]
                         [--tiered]                   two-tier anytime serving
  dsq serve  --unix PATH | --tcp ADDR                 long-lived plan-serving daemon
             [--workers T] [--config NAME] [--shards S] [--capacity C]
             [--resolution R] [--tolerance X] [--probes P] [--queue Q]
             [--retry-ms N] [--snapshot FILE] [--snapshot-interval-secs S]
             [--tiered] [--chaos SEED] [--max-pipeline D]
  dsq client --unix PATH | --tcp ADDR | --fleet ADDRS | --fleet-config FILE
             [--resolution R]  COMMAND
             COMMAND = optimize FILE... [--repeat N] [--pipeline]
                     | metrics | ping | shutdown | hold N
  dsq fleet rebalance --from ADDRS --to ADDRS [--vnodes V]
families: uniform-random euclidean clustered hub-spoke correlated proliferative btsp-hard
configs:  paper incumbent-only no-epsilon-bar no-backjump
          (serve defaults to paper plus prefix dominance: same plans, fewer nodes)
FILE may be `-` for stdin; serve-batch reads every *.dsq in DIR (sorted) or a
concatenated instance stream from stdin and serves it through the plan cache;
serve drains gracefully on stdin EOF (tty/pipe stdin; ignored for /dev/null)
or a client `shutdown` request; ADDRS is a comma-separated backend list
(unix://PATH or tcp://HOST:PORT) — --fleet shards requests across the
backends over a consistent-hash ring, fails over between replicas, and falls
back to a local cold optimization when every backend is busy or down;
--fleet-config reads the backend list from a versioned fleet-config file
instead and re-resolves it between repeat rounds, cutting over atomically
when the generation grows; fleet rebalance tells every --from backend the new
--to layout and moves the warm cache partitions onto their inheriting
backends; --chaos injects deterministic response-path faults (drop, delay,
truncate) for resilience testing; client optimize --pipeline sends every
document as one coalesced frame and reads the responses back in request
order (the server admits up to its --max-pipeline per connection; fleet
modes do not pipeline); client
hold N parks N concurrent idle connections on the server's reactor and
prints a held/dropped accounting line on drain; client metrics dumps the
server's telemetry, every serving counter included, in the
`# dsq-metrics v1` exposition format; --tiered
answers cache misses immediately with a greedy plan (`tier heur` on output)
and refines them to exact in the background, upgrading the cache in place";

fn io_err(e: std::io::Error) -> CliError {
    format!("I/O error: {e}")
}

/// All of stdin as text.
fn read_stdin() -> Result<String, CliError> {
    let mut buffer = String::new();
    std::io::stdin().read_to_string(&mut buffer).map_err(io_err)?;
    Ok(buffer)
}

/// The documents of the concatenated instance stream on stdin
/// (`serve-batch -`, `client optimize -`); a stream without a single
/// instance header is an error.
fn stdin_documents() -> Result<Vec<String>, CliError> {
    let documents = split_instance_stream(&read_stdin()?);
    if documents.is_empty() {
        return Err("stdin contained no instances".into());
    }
    Ok(documents)
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
        // Content before the first header is dropped; a stream with no
        // header at all is `stdin_documents`' empty-stream error.
    }
    documents
}

/// Parses the value after `flag`; a missing value, one that does not
/// parse, or one `valid` rejects fails with `"{flag} needs {what}"`.
fn flag_value<'a, T: FromStr>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
    what: &str,
    valid: impl FnOnce(&T) -> bool,
) -> Result<T, CliError> {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(valid)
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// [`flag_value`] for a count that must be above zero.
fn positive_flag<'a, T: FromStr + Default + PartialOrd>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<T, CliError> {
    flag_value(args, flag, "a positive integer", |v| *v > T::default())
}

/// `--resolution R`: a cache (or routing) quantization step in (0, 1).
fn resolution_flag<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<Quantization, CliError> {
    let valid = |v: &f64| (0.0..1.0).contains(v) && *v > 0.0;
    flag_value(args, "--resolution", "a number in (0, 1)", valid).map(Quantization::new)
}

/// `--config NAME`: one of the named search presets.
fn config_flag<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<BnbConfig, CliError> {
    match args.next().ok_or("--config needs a value")? {
        "paper" => Ok(BnbConfig::paper()),
        "incumbent-only" => Ok(BnbConfig::incumbent_only()),
        "no-epsilon-bar" => Ok(BnbConfig::without_epsilon_bar()),
        "no-backjump" => Ok(BnbConfig::without_backjump()),
        other => Err(format!("unknown config `{other}`")),
    }
}

/// Takes `arg`, which no flag arm of `command` matched, as its single
/// positional argument: an unmatched `--flag` is unknown, and a second
/// positional is unexpected.
fn positional<'a>(command: &str, arg: &'a str, slot: &mut Option<&'a str>) -> Result<(), CliError> {
    if arg.starts_with("--") {
        Err(format!("unknown {command} flag `{arg}`"))
    } else if slot.is_some() {
        Err(format!("unexpected argument `{arg}`"))
    } else {
        *slot = Some(arg);
        Ok(())
    }
}

/// Parses one of the cache flags shared by `serve-batch` and `serve`
/// (`--shards`, `--capacity`, `--resolution`, `--tolerance`,
/// `--probes`); `Ok(false)` when `arg` is none of them (nothing
/// consumed).
fn parse_cache_flag<'a>(
    arg: &str,
    args: &mut impl Iterator<Item = &'a str>,
    cache: &mut CacheConfig,
) -> Result<bool, CliError> {
    match arg {
        "--shards" => cache.shards = positive_flag(args, "--shards")?,
        "--capacity" => {
            cache.capacity_per_shard =
                flag_value(args, "--capacity", "a non-negative integer", |_| true)?
        }
        "--resolution" => cache.quantization = resolution_flag(args)?,
        "--tolerance" => {
            cache.validation_tolerance =
                flag_value(args, "--tolerance", "a non-negative number", |v: &f64| {
                    v.is_finite() && *v >= 0.0
                })?
        }
        "--probes" => {
            cache.probes = flag_value(args, "--probes", "1 or 2", |&v| v == 1 || v == 2)
                .map_err(|_| "--probes must be 1 or 2")?
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses `--unix PATH` / `--tcp ADDR`; `Ok(None)` when `arg` is
/// neither.
fn parse_addr_flag<'a>(
    arg: &str,
    args: &mut impl Iterator<Item = &'a str>,
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

/// Writes one `name  source  cost  plan` line for a served request, the
/// form `serve-batch` and every `client optimize` mode print; a
/// heuristic plan ends with the same ` tier heur` token the wire
/// protocol uses.
fn write_served_line(
    out: &mut dyn std::io::Write,
    name: &str,
    source: ServeSource,
    cost: f64,
    plan: &Plan,
    tier: PlanTier,
) -> Result<(), CliError> {
    let tier = match tier {
        PlanTier::Exact => "",
        PlanTier::Heuristic => " tier heur",
    };
    writeln!(out, "{name:<28} {:<5} cost {cost:<12.6} plan {plan}{tier}", source.name())
        .map_err(io_err)
}
