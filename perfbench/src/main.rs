//! `perfbench --workload NAME|all --seed N --seconds S --trace 0|1`
//!
//! Builds the release `dsq` binary, runs the workload against fresh
//! daemons, prints every metric with its unit and sample count, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. Run it from the repository root.

use perfbench::daemon::build_dsq;
use perfbench::run::{run, Options, RunReport};
use perfbench::workload::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload hot-drift|cold-btsp|burst-churn|all \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = None;
    let mut options =
        Options { workload: Workload::HotDrift, seed: 1, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?],
                });
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument `{arg}`\n{USAGE}")),
        }
    }
    Ok((workloads.ok_or(format!("--workload is required\n{USAGE}"))?, options))
}

fn print_report(report: &RunReport) {
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "{:<12} {:<28} {:>14.4} {:<6} n={}",
            report.workload, m.name, m.value, m.unit, m.samples
        );
    }
}

/// The final JSON line. With several workloads, metric names are
/// prefixed with the workload's.
fn json_line(reports: &[RunReport]) -> String {
    let prefix = reports.len() > 1;
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name =
                    if prefix { format!("{}.{}", r.workload, m.name) } else { m.name.to_string() };
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(|r| r.correct),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let (workloads, options) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let binary = match build_dsq() {
        Ok(binary) => binary,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut reports = Vec::new();
    for workload in workloads {
        match run(&Options { workload, ..options.clone() }, &binary) {
            Ok(report) => {
                print_report(&report);
                reports.push(report);
            }
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", json_line(&reports));
    ExitCode::SUCCESS
}
