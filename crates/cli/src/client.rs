//! `dsq client`: sends requests to one daemon (`--unix`/`--tcp`), or
//! shards `optimize` requests across a fleet of them (`--fleet`, or a
//! versioned `--fleet-config` file).

use crate::{
    flag_value, io_err, parse_addr_flag, parse_fleet_spec, positive_flag, resolution_flag,
    stdin_documents, write_served_line, CliError,
};
use dsq_core::{parse_instance, BnbConfig, Plan, Quantization, QueryInstance};
use dsq_server::{hold_connections, Client, ListenAddr, PipelineRequest, RemotePlanner, Response};
use dsq_service::{ColdPlanner, FleetConfig, FleetMembership, FleetPlanner, Planner};

pub(crate) fn client_cmd<'a>(
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
            "--repeat" => repeat = positive_flag(args, "--repeat")?,
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
            "--resolution" => routing = resolution_flag(args)?,
            other if other.starts_with("--") => {
                return Err(format!("unknown client flag `{other}`"))
            }
            other if command.is_none() => command = Some(other),
            other => files.push(other),
        }
    }
    if addr.is_none() && fleet_spec.is_none() && fleet_config_path.is_none() {
        return Err("client requires --unix PATH or --tcp ADDR".into());
    }
    let command =
        command.ok_or("client requires a command (optimize|metrics|ping|shutdown|hold)")?;
    // Validate the request before dialing, so usage errors do not depend
    // on a live server.
    if !matches!(command, "optimize" | "metrics" | "ping" | "shutdown" | "hold") {
        return Err(format!("unknown client command `{command}`"));
    }
    if command == "optimize" && files.is_empty() {
        return Err("client optimize requires at least one instance file".into());
    }
    if pipelined && command != "optimize" {
        return Err("--pipeline only applies to the optimize command".into());
    }
    let hold_count = if command == "hold" {
        let count = &mut files.iter().copied();
        flag_value(count, "client hold", "a positive connection count", |&v: &usize| v > 0)?
    } else {
        0
    };

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
        if pipelined {
            return Err("--pipeline does not apply to --fleet/--fleet-config".into());
        }
        return fleet_optimize(out, fleet_spec, fleet_config_path, routing, repeat, &files);
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
                    write_served_line(out, name, source, cost, &plan, tier)
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
            let requests = gather_requests(&files)?;
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

/// `(name, document)` request pairs for `client optimize`; `-` expands
/// to the concatenated stdin stream, one `stdin[i]` request per document.
fn gather_requests(files: &[&str]) -> Result<Vec<(String, String)>, CliError> {
    let mut requests: Vec<(String, String)> = Vec::new();
    for file in files {
        if *file == "-" {
            for (index, text) in stdin_documents()?.into_iter().enumerate() {
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

/// Fleet mode: shard the requests across the backends by canonical
/// fingerprint, with failover and a local cold fallback. The backend
/// list comes from `--fleet` directly, or from a versioned fleet-config
/// file that is re-resolved between repeat rounds — an operator can
/// push a new generation mid-run and the router cuts over to the new
/// layout atomically.
fn fleet_optimize(
    out: &mut dyn std::io::Write,
    fleet_spec: Option<&str>,
    fleet_config_path: Option<&str>,
    routing: Quantization,
    repeat: usize,
    files: &[&str],
) -> Result<(), CliError> {
    let mut membership = fleet_config_path
        .map(|path| FleetMembership::load(path).map_err(|e| e.to_string()))
        .transpose()?;
    let addrs = match (&membership, fleet_spec) {
        (Some(m), _) => fleet_config_addrs(m.current())?,
        (None, Some(spec)) => parse_fleet_spec(spec)?,
        (None, None) => unreachable!("fleet mode requires one of the flags"),
    };
    let mut fleet = build_fleet(&addrs, routing.clone())?;
    // Parse once, before any request goes out: a bad document is an
    // up-front usage error, not a mid-stream failure on repeat 1.
    let requests: Vec<(String, QueryInstance)> = gather_requests(files)?
        .into_iter()
        .map(|(name, text)| {
            parse_instance(&text)
                .map(|instance| (name.clone(), instance))
                .map_err(|e| format!("cannot parse {name}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    for round in 0..repeat {
        // Between rounds, re-resolve the fleet-config file. A strictly
        // newer generation is an atomic cutover; the retiring fleet's
        // summary is flushed first so its counters are not silently
        // discarded.
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
                    fleet = build_fleet(&fleet_config_addrs(&next)?, routing.clone())?;
                }
            }
        }
        for (name, instance) in &requests {
            let served = fleet.plan(instance).map_err(|e| format!("request {name} failed: {e}"))?;
            write_served_line(out, name, served.source, served.cost, &served.plan, served.tier)?;
        }
    }
    write_fleet_summary(out, &fleet)
}

/// Resolves one fleet-config generation's endpoints to listen
/// addresses, under the same per-entry grammar (and duplicate
/// rejection) as `--fleet`.
fn fleet_config_addrs(config: &FleetConfig) -> Result<Vec<ListenAddr>, CliError> {
    parse_fleet_spec(&config.endpoints.join(","))
}

/// The fleet router: one `RemotePlanner` per backend (busy
/// retry/backoff built in), requests sharded by canonical fingerprint,
/// failover to the next replica, and a local cold-optimize fallback so
/// the stream completes even with every backend down.
fn build_fleet(
    addrs: &[ListenAddr],
    quantization: Quantization,
) -> Result<FleetPlanner<'static>, CliError> {
    let backends: Vec<Box<dyn Planner>> = addrs
        .iter()
        .map(|addr| Box::new(RemotePlanner::new(addr.clone())) as Box<dyn Planner>)
        .collect();
    let fleet = FleetPlanner::new(backends, quantization).map_err(|e| e.to_string())?;
    Ok(fleet.with_fallback(Box::new(ColdPlanner::new(BnbConfig::paper()))))
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
