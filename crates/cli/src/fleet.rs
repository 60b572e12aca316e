//! `dsq fleet`: operator verbs that act on a whole fleet of daemons
//! rather than a single one.

use crate::{io_err, parse_fleet_spec, positive_flag, CliError};
use dsq_core::PlanSnapshot;
use dsq_server::{Client, ExportRequest, RemotePlanner};
use dsq_service::{HashRing, Planner, DEFAULT_VNODES};

pub(crate) fn fleet_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    match args.next() {
        Some("rebalance") => rebalance_cmd(args, out),
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
fn rebalance_cmd<'a>(
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
            "--vnodes" => vnodes = positive_flag(args, "--vnodes")?,
            other => return Err(format!("unknown fleet rebalance flag `{other}`")),
        }
    }
    let from = parse_fleet_spec(from_spec.ok_or("fleet rebalance requires --from and --to")?)?;
    let to = parse_fleet_spec(to_spec.ok_or("fleet rebalance requires --from and --to")?)?;
    // Ring labels must byte-match what a fleet client routes over —
    // `FleetPlanner` labels each backend with its `RemotePlanner` name —
    // or the handoff would park keys where no client ever looks, so they
    // come from that same name.
    let labels: Vec<String> =
        to.iter().map(|addr| RemotePlanner::new(addr.clone()).name().to_string()).collect();
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
