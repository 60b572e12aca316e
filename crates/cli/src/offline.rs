//! The in-process commands on instance files: `generate`, `optimize`,
//! `explain`, `baselines` and `simulate`.

use crate::{config_flag, flag_value, io_err, positional, positive_flag, read_stdin, CliError};
use dsq_baselines::{
    beam_search, best_greedy, local_search, random_sampling, simulated_annealing,
    uniform_reference_plan, AnnealingConfig, BeamConfig, LocalSearchConfig,
};
use dsq_core::{
    bottleneck_cost, explain, format_instance, parse_instance, BnbConfig, Plan, QueryInstance,
};
use dsq_service::{ColdPlanner, Planner};
use dsq_simulator::{simulate, SimConfig};
use dsq_workloads::{generate, Family};

fn load_instance(path: &str) -> Result<QueryInstance, CliError> {
    let text = if path == "-" {
        read_stdin()?
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

/// The plan a `--plan I,J,…` list names, or the instance's optimum when
/// none was given.
fn plan_arg(spec: Option<&str>, instance: &QueryInstance) -> Result<Plan, CliError> {
    let Some(spec) = spec else {
        return Ok(dsq_core::optimize(instance).into_plan());
    };
    let order: Vec<usize> = spec
        .split(',')
        .map(|f| f.trim().parse::<usize>().map_err(|_| format!("bad plan index `{f}`")))
        .collect::<Result<_, _>>()?;
    if order.len() != instance.len() {
        return Err(format!("plan has {} services, instance has {}", order.len(), instance.len()));
    }
    // ModelError::InvalidPlan already reads "invalid plan: …".
    Plan::new(order).map_err(|e| e.to_string())
}

pub(crate) fn generate_cmd<'a>(
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
            "-n" | "--services" => n = Some(positive_flag(args, "-n")?),
            "--seed" => seed = flag_value(args, "--seed", "an integer", |_| true)?,
            other => return Err(format!("unknown generate flag `{other}`")),
        }
    }
    let family = family.ok_or("generate requires --family")?;
    let n = n.ok_or("generate requires -n")?;
    write!(out, "{}", format_instance(&generate(family, n, seed))).map_err(io_err)
}

pub(crate) fn optimize_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut file = None;
    let mut config = BnbConfig::paper();
    while let Some(arg) = args.next() {
        match arg {
            "--config" => config = config_flag(args)?,
            other => positional("optimize", other, &mut file)?,
        }
    }
    let instance = load_instance(file.ok_or("optimize requires an instance file")?)?;
    // Even the one-shot CLI path goes through the Planner seam: the same
    // `ColdPlanner` a fleet router falls back on.
    let planner = ColdPlanner::new(config);
    let served = planner.plan(&instance).map_err(|e| e.to_string())?;
    let stats = served.search.as_ref().expect("cold planners always run a search");
    writeln!(out, "plan      {}", served.plan).map_err(io_err)?;
    writeln!(out, "cost      {:.6}", served.cost).map_err(io_err)?;
    writeln!(out, "optimal   {}", stats.proven_optimal).map_err(io_err)?;
    writeln!(out, "{stats}").map_err(io_err)
}

pub(crate) fn explain_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut file = None;
    let mut plan_spec = None;
    while let Some(arg) = args.next() {
        match arg {
            "--plan" => plan_spec = Some(args.next().ok_or("--plan needs a value")?),
            other => positional("explain", other, &mut file)?,
        }
    }
    let instance = load_instance(file.ok_or("explain requires an instance file")?)?;
    let plan = plan_arg(plan_spec, &instance)?;
    write!(out, "{}", explain(&instance, &plan)).map_err(io_err)
}

pub(crate) fn baselines_cmd<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let mut file = None;
    for arg in args {
        positional("baselines", arg, &mut file)?;
    }
    let instance = load_instance(file.ok_or("baselines requires an instance file")?)?;
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

pub(crate) fn simulate_cmd<'a>(
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
            "--tuples" => tuples = positive_flag(args, "--tuples")?,
            "--block" => block = positive_flag(args, "--block")?,
            other => positional("simulate", other, &mut file)?,
        }
    }
    let instance = load_instance(file.ok_or("simulate requires an instance file")?)?;
    let plan = plan_arg(plan_spec, &instance)?;
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
