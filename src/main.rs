//! The `soar` CLI: solve φ-BIC instances and drive the declarative experiment
//! pipeline from the shell.
//!
//! ```text
//! soar solve    --in instance.json [--solver soar] [--out report.json]
//! soar sweep    --in instance.json --budgets 1,2,4,8 [--out artifact.json]
//! soar compare  --in instance.json [--solvers soar,top,max-load] [--out artifact.json]
//! soar instance --topology bt --switches 128 [--load power-law] [--rates constant]
//!               [--seed N] [--budget K] [--out instance.json]
//! soar experiment list [--paper]
//! soar experiment run <name|spec.json>... [--paper] [--reps N] [--out-dir DIR] [--csv]
//! soar experiment check <artifact.json> --golden <golden.json> [--rel X] [--abs X] [--timing-rel X]
//! soar online run [--switches N] [--budget K] [--epochs E] [--seed S] [--out artifact.json]
//! soar online replay <artifact.json>
//! soar fabric solve [--cores C --pods P --aggs A --tors T | --roots R --tree-switches N]
//!                   [--budget K] [--bound C] [--gamma G] [--solvers LIST] [--out artifact.json]
//! soar fabric sweep --bounds 1,2,4 [same topology/budget flags] [--out artifact.json]
//! soar serve [--addr HOST:PORT] [--queue-cap N] [--inflight-cap N] [--metrics-out FILE]
//! soar loadtest --addr HOST:PORT [--tenants N] [--batches N] [--rate R] [--out BENCH_serve.json]
//! soar history report <artifact.json>... | --dir DIR [--spec NAME]
//! soar history check <new.json> --baseline <old.json> [--max-regress 25%]
//! ```
//!
//! Instances and artifacts are JSON documents (the feature-gated serde support
//! of `soar-core` plus the `soar-exp` artifact format). `experiment run` takes
//! registry names *or* paths to user-authored spec files (anything ending in
//! `.json` or containing a path separator), which are validated before running.
//! Spec files may pull shared scenario fragments in with `$include` directives
//! (see `soar_exp::template`), resolved relative to the including file.
//! Exit codes: `0` on success, `1` on operational failures (missing files, a
//! failed golden check, a perf regression), `2` on usage errors and invalid
//! spec or instance documents. Argument parsing is hand-rolled — the build
//! environment is offline, so no external CLI crates.

use soar::core::api::{solvers, Instance, SolveReport, Solver, TopologySpec};
use soar::exp::history;
use soar::exp::prelude::*;
use soar::exp::spec::ExperimentKind;
use soar::topology::load::{LoadPlacement, LoadSpec};
use soar::topology::rates::RateScheme;

/// A CLI failure: bad usage (exit 2, prints the usage banner), an invalid
/// user-authored document (exit 2, prints only the actionable message), or an
/// operational error (exit 1).
enum CliError {
    Usage(String),
    Invalid(String),
    Failure(String),
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }

    fn invalid(message: impl Into<String>) -> Self {
        CliError::Invalid(message.into())
    }

    fn failure(message: impl Into<String>) -> Self {
        CliError::Failure(message.into())
    }
}

type CliResult = Result<(), CliError>;

/// `println!` through [`emit`]: formats one line and writes it to stdout,
/// tolerating a closed reader. Evaluates to a [`CliResult`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(&format!("{}\n", format_args!($($arg)*)))
    };
}

const TOP_USAGE: &str =
    "usage: soar <solve|sweep|compare|instance|experiment|online|fabric|serve|loadtest|trace|history> [options]
       soar --help

subcommands:
  solve       solve one serialized Instance with one solver
  sweep       optimal solutions for a list of budgets (single gather pass)
  compare     run several solvers on one instance
  instance    mint Instance JSON from topology/load/rate flags
  experiment  list, run and check the declarative experiments (registry names or spec files)
  online      replay dynamic churn timelines on the incremental re-optimization engine
  fabric      congestion-constrained placement on multi-root fabrics (solve, sweep)
  serve       long-running solve/churn daemon with resident tenants and admission control
  loadtest    drive a running server with synthesized churn; report throughput and latency
  trace       run one traced solve and write a Chrome trace_event JSON (Perfetto-loadable)
  history     trajectory reports and regression gates over artifact series";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(()) => 0,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!("{TOP_USAGE}");
            2
        }
        Err(CliError::Invalid(message)) => {
            eprintln!("error: {message}");
            2
        }
        Err(CliError::Failure(message)) => {
            eprintln!("error: {message}");
            1
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("solve") => cmd_solve(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("instance") => cmd_instance(&args[1..]),
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("online") => cmd_online(&args[1..]),
        Some("fabric") => cmd_fabric(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadtest") => cmd_loadtest(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("history") => cmd_history(&args[1..]),
        Some("--help") | Some("-h") => {
            outln!("{TOP_USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!("unknown subcommand `{other}`"))),
        None => Err(CliError::usage("no subcommand given")),
    }
}

// ---------------------------------------------------------------------------
// Shared option plumbing
// ---------------------------------------------------------------------------

/// Pulls the value of `--flag value` style options out of an argument list.
struct Options<'a> {
    args: &'a [String],
    cursor: usize,
}

impl<'a> Options<'a> {
    fn new(args: &'a [String]) -> Self {
        Options { args, cursor: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.cursor)?;
        self.cursor += 1;
        Some(arg.as_str())
    }

    fn value_for(&mut self, flag: &str) -> Result<&'a str, CliError> {
        let value = self
            .args
            .get(self.cursor)
            .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))?;
        self.cursor += 1;
        Ok(value.as_str())
    }
}

fn parse_list<T: std::str::FromStr>(value: &str, what: &str) -> Result<Vec<T>, CliError> {
    value
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse::<T>()
                .map_err(|_| CliError::usage(format!("invalid {what} `{part}`")))
        })
        .collect()
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::failure(format!("reading {path}: {e}")))
}

fn write_file(path: &str, contents: &str) -> CliResult {
    std::fs::write(path, contents).map_err(|e| CliError::failure(format!("writing {path}: {e}")))
}

fn read_instance(path: &str) -> Result<Instance, CliError> {
    serde_json::from_str::<Instance>(&read_file(path)?)
        .map_err(|e| CliError::invalid(format!("{path} is not an Instance document: {e}")))
}

fn read_artifact(path: &str) -> Result<RunArtifact, CliError> {
    RunArtifact::from_json(&read_file(path)?)
        .map_err(|e| CliError::failure(format!("{path} is not a RunArtifact document: {e}")))
}

fn resolve_solver(name: &str) -> Result<Box<dyn Solver>, CliError> {
    solvers::by_name(name).ok_or_else(|| {
        CliError::failure(format!(
            "unknown solver `{name}` (registered: {})",
            solvers::NAMES.join(", ")
        ))
    })
}

/// Writes `text` to stdout. A reader that has gone away (`soar solve … | head -1`)
/// is not an error: the text is dropped and the command still finishes its work,
/// such as writing `--out`.
fn emit(text: &str) -> CliResult {
    use std::io::Write;
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(CliError::failure(format!("writing to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

fn print_report(report: &SolveReport) -> CliResult {
    emit(&format!(
        "{:<12} instance {:<24} cost {:>12.4}  normalized {:>8.5}  blue {:>4}/{:<4}  wall {:>9.3} ms\n",
        report.solver,
        report.instance,
        report.solution.cost,
        report.normalized_cost,
        report.solution.blue_used,
        report.solution.budget,
        report.wall_time.as_secs_f64() * 1e3,
    ))?;
    if let Some(dp) = &report.dp {
        emit(&format!(
            "{:<12} dp: {} switches, {} cells, {:.1} kB tables\n",
            "",
            dp.n_switches,
            dp.table_cells,
            dp.table_bytes as f64 / 1e3
        ))?;
    }
    Ok(())
}

/// Provenance spec for artifacts produced from an explicit instance file.
fn adhoc_spec(
    command: &str,
    instance: &Instance,
    solver_names: Vec<String>,
    budgets: Vec<usize>,
) -> ExperimentSpec {
    ExperimentSpec::new(
        format!("adhoc-{command}"),
        format!("CLI {command} of instance `{}`", instance.label()),
        1,
        ExperimentKind::Adhoc {
            command: command.to_owned(),
            instance: instance.label().to_owned(),
            solvers: solver_names,
            budgets,
        },
    )
}

// ---------------------------------------------------------------------------
// solve / sweep / compare
// ---------------------------------------------------------------------------

fn cmd_solve(args: &[String]) -> CliResult {
    let mut input: Option<&str> = None;
    let mut solver_name = "soar";
    let mut out: Option<&str> = None;
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--in" | "-i" => input = Some(options.value_for("--in")?),
            "--solver" | "-s" => solver_name = options.value_for("--solver")?,
            "--out" | "-o" => out = Some(options.value_for("--out")?),
            "--help" | "-h" => {
                outln!("usage: soar solve --in <instance.json> [--solver <name>] [--out <report.json>]")?;
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "solve: unknown argument `{other}`"
                )))
            }
        }
    }
    let input = input.ok_or_else(|| CliError::usage("solve needs --in <instance.json>"))?;
    let instance = read_instance(input)?;
    let solver = resolve_solver(solver_name)?;
    let report = solver.solve(&instance);
    print_report(&report)?;
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::failure(format!("serializing the report: {e}")))?;
        write_file(path, &(json + "\n"))?;
        emit(&format!("wrote {path}\n"))?;
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> CliResult {
    let mut input: Option<&str> = None;
    let mut budgets: Option<Vec<usize>> = None;
    let mut out: Option<&str> = None;
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--in" | "-i" => input = Some(options.value_for("--in")?),
            "--budgets" | "-b" => {
                budgets = Some(parse_list(options.value_for("--budgets")?, "budget")?)
            }
            "--out" | "-o" => out = Some(options.value_for("--out")?),
            "--help" | "-h" => {
                outln!(
                    "usage: soar sweep --in <instance.json> --budgets <k1,k2,...> [--out <artifact.json>]"
                )?;
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "sweep: unknown argument `{other}`"
                )))
            }
        }
    }
    let input = input.ok_or_else(|| CliError::usage("sweep needs --in <instance.json>"))?;
    let budgets = budgets.ok_or_else(|| CliError::usage("sweep needs --budgets <k1,k2,...>"))?;
    if budgets.is_empty() {
        return Err(CliError::usage("sweep needs at least one budget"));
    }
    let instance = read_instance(input)?;
    let reports = soar::core::api::sweep_budgets(&instance, &budgets);

    let mut chart = Chart::new(
        format!("Budget sweep of `{}`", instance.label()),
        "k",
        "utilization complexity",
    );
    let mut cost = Series::new("SOAR (optimal)");
    let mut normalized = Series::new("normalized to all-red");
    for report in &reports {
        cost.push(report.solution.budget as f64, report.solution.cost);
        normalized.push(report.solution.budget as f64, report.normalized_cost);
    }
    chart.push(cost);
    chart.push(normalized);
    emit(&chart.to_table())?;

    if let Some(path) = out {
        let spec = adhoc_spec("sweep", &instance, vec!["soar".into()], budgets);
        let dp = reports.iter().find_map(|r| r.dp);
        let mut artifact = RunArtifact::new(spec, vec![chart], dp);
        artifact.reports = reports;
        write_file(path, &artifact.to_json())?;
        emit(&format!("wrote {path}\n"))?;
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> CliResult {
    let mut input: Option<&str> = None;
    let mut names: Vec<String> = vec!["soar".into(), "top".into(), "max-load".into()];
    let mut out: Option<&str> = None;
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--in" | "-i" => input = Some(options.value_for("--in")?),
            "--solvers" | "-s" => names = parse_list(options.value_for("--solvers")?, "solver")?,
            "--out" | "-o" => out = Some(options.value_for("--out")?),
            "--help" | "-h" => {
                outln!(
                    "usage: soar compare --in <instance.json> [--solvers <a,b,...>] [--out <artifact.json>]"
                )?;
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "compare: unknown argument `{other}`"
                )))
            }
        }
    }
    let input = input.ok_or_else(|| CliError::usage("compare needs --in <instance.json>"))?;
    let instance = read_instance(input)?;
    let mut chart = Chart::new(
        format!(
            "Solver comparison on `{}` (k = {})",
            instance.label(),
            instance.budget()
        ),
        "k",
        "utilization complexity",
    );
    let mut reports = Vec::new();
    for name in &names {
        let solver = resolve_solver(name)?;
        let report = solver.solve(&instance);
        print_report(&report)?;
        let mut series = Series::new(soar::exp::run::paper_label(name));
        series.push(instance.budget() as f64, report.solution.cost);
        chart.push(series);
        reports.push(report);
    }
    if let Some(path) = out {
        let budgets = vec![instance.budget()];
        let spec = adhoc_spec("compare", &instance, names, budgets);
        let dp = reports.iter().find_map(|r| r.dp);
        let mut artifact = RunArtifact::new(spec, vec![chart], dp);
        artifact.reports = reports;
        write_file(path, &artifact.to_json())?;
        emit(&format!("wrote {path}\n"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// instance
// ---------------------------------------------------------------------------

const INSTANCE_USAGE: &str = "usage: soar instance --topology <family> [sizing] [options]

families and their sizing flags:
  bt           --switches N             the paper's BT(N) (N counts the destination server)
  scale-free   --switches N             the paper's SF(N) preferential-attachment tree
  kary         --switches N [--arity A] complete A-ary tree over N switches (default arity 2)
  path         --switches N             a path (maximum height)
  star         --switches N             a star (maximum branching)
  random       --switches N             a uniformly random recursive tree
  bounded      --switches N --max-children C
  fat-tree     --aggs A --tors-per-agg T

options:
  --load DIST        power-law | power-law:min,max,mean | uniform | uniform:min,max |
                     constant:<c> | explicit:v1,v2,...   (no load when omitted)
  --placement WHERE  leaves (default) | all
  --rates SCHEME     constant[:w] | linear[:base,step] | exponential[:base,factor]
  --seed N           seed for all random draws (default 0)
  --budget K         the aggregation budget k (default 0)
  --label NAME       instance label (defaults to the topology label)
  --out FILE         write the Instance JSON there (stdout when omitted)

The emitted JSON feeds `soar solve|sweep|compare --in` unmodified.";

fn cmd_instance(args: &[String]) -> CliResult {
    let mut topology: Option<&str> = None;
    let mut switches: Option<usize> = None;
    let mut arity = 2usize;
    let mut max_children: Option<usize> = None;
    let mut aggs: Option<usize> = None;
    let mut tors_per_agg: Option<usize> = None;
    let mut load: Option<&str> = None;
    let mut placement_name = "leaves";
    let mut rates: Option<&str> = None;
    let mut seed = 0u64;
    let mut budget = 0usize;
    let mut label: Option<&str> = None;
    let mut out: Option<&str> = None;

    let parse_num = |flag: &str, value: &str| -> Result<usize, CliError> {
        value.parse::<usize>().map_err(|_| {
            CliError::usage(format!("{flag} needs a non-negative number, got `{value}`"))
        })
    };
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--topology" | "-t" => topology = Some(options.value_for("--topology")?),
            "--switches" | "-n" => {
                switches = Some(parse_num("--switches", options.value_for("--switches")?)?)
            }
            "--arity" => arity = parse_num("--arity", options.value_for("--arity")?)?,
            "--max-children" => {
                max_children = Some(parse_num(
                    "--max-children",
                    options.value_for("--max-children")?,
                )?)
            }
            "--aggs" => aggs = Some(parse_num("--aggs", options.value_for("--aggs")?)?),
            "--tors-per-agg" => {
                tors_per_agg = Some(parse_num(
                    "--tors-per-agg",
                    options.value_for("--tors-per-agg")?,
                )?)
            }
            "--load" | "-l" => load = Some(options.value_for("--load")?),
            "--placement" => placement_name = options.value_for("--placement")?,
            "--rates" | "-r" => rates = Some(options.value_for("--rates")?),
            "--seed" => {
                seed = options
                    .value_for("--seed")?
                    .parse()
                    .map_err(|_| CliError::usage("--seed needs a number"))?
            }
            "--budget" | "-k" => budget = parse_num("--budget", options.value_for("--budget")?)?,
            "--label" => label = Some(options.value_for("--label")?),
            "--out" | "-o" => out = Some(options.value_for("--out")?),
            "--help" | "-h" => {
                outln!("{INSTANCE_USAGE}")?;
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "instance: unknown argument `{other}`"
                )))
            }
        }
    }

    let topology = topology.ok_or_else(|| {
        CliError::usage(
            "instance needs --topology <bt|scale-free|kary|path|star|random|bounded|fat-tree>",
        )
    })?;
    let need_switches = |switches: Option<usize>| -> Result<usize, CliError> {
        switches.ok_or_else(|| CliError::usage(format!("topology `{topology}` needs --switches N")))
    };
    let spec = match topology {
        "bt" => {
            let n = need_switches(switches)?;
            if n < 2 {
                return Err(CliError::usage(
                    "BT(n) counts the destination server, so it needs --switches >= 2",
                ));
            }
            TopologySpec::CompleteBinaryBt { n }
        }
        "scale-free" | "sf" => {
            let n = need_switches(switches)?;
            if n < 2 {
                return Err(CliError::usage(
                    "SF(n) counts the destination server, so it needs --switches >= 2",
                ));
            }
            TopologySpec::ScaleFreeSf { n }
        }
        "kary" => {
            let n_switches = need_switches(switches)?;
            if arity < 1 || n_switches < 1 {
                return Err(CliError::usage(
                    "kary needs --switches >= 1 and --arity >= 1",
                ));
            }
            TopologySpec::CompleteKary { arity, n_switches }
        }
        "path" | "star" | "random" => {
            let n_switches = need_switches(switches)?;
            if n_switches < 1 {
                return Err(CliError::usage(format!(
                    "topology `{topology}` needs --switches >= 1"
                )));
            }
            match topology {
                "path" => TopologySpec::Path { n_switches },
                "star" => TopologySpec::Star { n_switches },
                _ => TopologySpec::RandomRecursive { n_switches },
            }
        }
        "bounded" => {
            let n_switches = need_switches(switches)?;
            let max_children = max_children
                .ok_or_else(|| CliError::usage("topology `bounded` needs --max-children C"))?;
            if n_switches < 1 || max_children < 1 {
                return Err(CliError::usage(
                    "bounded needs --switches >= 1 and --max-children >= 1",
                ));
            }
            TopologySpec::RandomBoundedDegree {
                n_switches,
                max_children,
            }
        }
        "fat-tree" => {
            let aggs = aggs.ok_or_else(|| CliError::usage("topology `fat-tree` needs --aggs A"))?;
            let tors_per_agg = tors_per_agg
                .ok_or_else(|| CliError::usage("topology `fat-tree` needs --tors-per-agg T"))?;
            if aggs < 1 || tors_per_agg < 1 {
                return Err(CliError::usage(
                    "fat-tree needs --aggs >= 1 and --tors-per-agg >= 1",
                ));
            }
            TopologySpec::TwoTierFatTree { aggs, tors_per_agg }
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown topology family `{other}` \
                 (choose bt, scale-free, kary, path, star, random, bounded or fat-tree)"
            )))
        }
    };

    let placement = match placement_name {
        "leaves" => LoadPlacement::Leaves,
        "all" => LoadPlacement::AllSwitches,
        other => {
            return Err(CliError::usage(format!(
                "unknown placement `{other}` (choose leaves or all)"
            )))
        }
    };
    let mut builder = Instance::builder().topology(spec).seed(seed).budget(budget);
    if let Some(load) = load {
        builder = builder.loads(LoadSpec::parse(load).map_err(CliError::usage)?, placement);
    }
    if let Some(rates) = rates {
        builder = builder.rates(RateScheme::parse(rates).map_err(CliError::usage)?);
    }
    if let Some(label) = label {
        builder = builder.label(label);
    }
    let instance = builder
        .build()
        .map_err(|e| CliError::invalid(format!("instance configuration is invalid: {e}")))?;
    let json = serde_json::to_string_pretty(&instance)
        .map_err(|e| CliError::failure(format!("serializing the instance: {e}")))?
        + "\n";
    match out {
        Some(path) => {
            write_file(path, &json)?;
            eprintln!(
                "wrote {path}: `{}` ({} switches, k = {})",
                instance.label(),
                instance.n_switches(),
                instance.budget()
            );
        }
        None => emit(&json)?,
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// experiment list / run / check
// ---------------------------------------------------------------------------

const EXPERIMENT_USAGE: &str = "usage: soar experiment list [--paper]
       soar experiment run <name|spec.json>... [--paper] [--reps N] [--out-dir DIR] [--csv]
       soar experiment check <artifact.json> --golden <golden.json> [--rel X] [--abs X] [--timing-rel X]

`run` arguments ending in .json (or containing a path separator) are loaded as
user-authored ExperimentSpec documents, validated (unknown solvers, empty
grids, aliasing seed strides, ... exit with code 2 and an actionable message)
and executed exactly like registry specs; `check` treats the resulting
artifacts identically to registry-produced ones.";

fn cmd_experiment(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("list") => cmd_experiment_list(&args[1..]),
        Some("run") => cmd_experiment_run(&args[1..]),
        Some("check") => cmd_experiment_check(&args[1..]),
        Some("--help") | Some("-h") => {
            outln!("{EXPERIMENT_USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown experiment subcommand `{other}`"
        ))),
        None => Err(CliError::usage(
            "experiment needs a subcommand (list, run, check)",
        )),
    }
}

fn parse_scale(args: &[String]) -> bool {
    args.iter().any(|a| a == "--paper")
}

fn cmd_experiment_list(args: &[String]) -> CliResult {
    let scale = if parse_scale(args) {
        Scale::Paper
    } else {
        Scale::Quick
    };
    for arg in args {
        if arg != "--paper" {
            return Err(CliError::usage(format!("list: unknown argument `{arg}`")));
        }
    }
    outln!("{:<14} {:>4}  description", "name", "reps")?;
    for spec in registry::all(scale) {
        outln!("{:<14} {:>4}  {}", spec.name, spec.repetitions, spec.title)?;
    }
    Ok(())
}

fn cmd_experiment_run(args: &[String]) -> CliResult {
    let mut names: Vec<&str> = Vec::new();
    let mut paper = false;
    let mut reps: Option<u64> = None;
    let mut out_dir = "artifacts";
    let mut csv = false;
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--paper" => paper = true,
            "--reps" => {
                let parsed: u64 = options
                    .value_for("--reps")?
                    .parse()
                    .map_err(|_| CliError::usage("--reps needs a positive number"))?;
                if parsed == 0 {
                    return Err(CliError::usage("--reps needs at least one repetition"));
                }
                reps = Some(parsed);
            }
            "--out-dir" | "-o" => out_dir = options.value_for("--out-dir")?,
            "--csv" => csv = true,
            "--help" | "-h" => {
                outln!("{EXPERIMENT_USAGE}")?;
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::usage(format!("run: unknown argument `{flag}`")))
            }
            name => names.push(name),
        }
    }
    if names.is_empty() {
        return Err(CliError::usage(format!(
            "run needs at least one experiment name or spec file (registered: {})",
            registry::NAMES.join(", ")
        )));
    }
    let scale = if paper { Scale::Paper } else { Scale::Quick };
    std::fs::create_dir_all(out_dir)
        .map_err(|e| CliError::failure(format!("creating {out_dir}: {e}")))?;
    for name in names {
        let from_file = is_spec_path(name);
        let mut spec = load_spec(name, scale)?;
        // For *registry* names the override skips single-shot specs (fig2,
        // fig3, fig11a, gather-bench): they average nothing, so changing their
        // repetition count would only make the stored spec deviate from goldens
        // without changing any value (same guard as
        // `soar_bench::ExperimentConfig::spec`). User spec files always honor
        // an explicit --reps — the author asked for it.
        if let Some(reps) = reps {
            if from_file || spec.repetitions != 1 {
                spec.repetitions = reps;
                // The override changes what validate() saw (e.g. a stride that
                // was fine for the file's repetition count may now alias), and
                // the artifact embeds the effective spec — so re-check it.
                if from_file {
                    spec.validate().map_err(|e| {
                        CliError::invalid(format!("{name} (with --reps {reps}): {e}"))
                    })?;
                }
            }
        }
        eprintln!(
            "running {} ({} repetitions, {} scale)",
            spec.name,
            spec.repetitions,
            if paper { "paper" } else { "quick" }
        );
        let artifact = spec.run();
        print_charts(&artifact, csv)?;
        let path = format!("{}/{}.json", out_dir.trim_end_matches('/'), spec.name);
        write_file(&path, &artifact.to_json())?;
        outln!("wrote {path}")?;
    }
    Ok(())
}

/// `true` when an `experiment run` argument denotes a spec *file* rather than a
/// registry name: anything ending in `.json` or containing a path separator
/// (registry names never do either, so the namespaces cannot collide).
fn is_spec_path(name: &str) -> bool {
    name.ends_with(".json") || name.contains('/') || name.contains(std::path::MAIN_SEPARATOR)
}

/// Resolves one `experiment run` argument: registry names come from the
/// compiled-in registry; paths are loaded as user-authored spec documents,
/// which are parsed and validated (both reject with exit code 2 — a malformed
/// spec is the CLI-file equivalent of a usage error).
fn load_spec(name: &str, scale: Scale) -> Result<ExperimentSpec, CliError> {
    if !is_spec_path(name) {
        return registry::by_name(name, scale).ok_or_else(|| {
            CliError::failure(format!(
                "unknown experiment `{name}` (registered: {}; paths ending in .json \
                 load user-authored spec files)",
                registry::NAMES.join(", ")
            ))
        });
    }
    let json = read_file(name)?;
    let spec = soar::exp::template::spec_from_document(&json, std::path::Path::new(name))
        .map_err(|e| CliError::invalid(format!("{name}: {e}")))?;
    spec.validate()
        .map_err(|e| CliError::invalid(format!("{name}: {e}")))?;
    Ok(spec)
}

fn cmd_experiment_check(args: &[String]) -> CliResult {
    let mut artifact_path: Option<&str> = None;
    let mut golden_path: Option<&str> = None;
    let mut tol = Tolerances::default();
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--golden" | "-g" => golden_path = Some(options.value_for("--golden")?),
            "--rel" => {
                tol.rel = options
                    .value_for("--rel")?
                    .parse()
                    .map_err(|_| CliError::usage("--rel needs a number"))?
            }
            "--abs" => {
                tol.abs = options
                    .value_for("--abs")?
                    .parse()
                    .map_err(|_| CliError::usage("--abs needs a number"))?
            }
            "--timing-rel" => {
                tol.timing_rel = Some(
                    options
                        .value_for("--timing-rel")?
                        .parse()
                        .map_err(|_| CliError::usage("--timing-rel needs a number"))?,
                )
            }
            "--help" | "-h" => {
                outln!("{EXPERIMENT_USAGE}")?;
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::usage(format!("check: unknown argument `{flag}`")))
            }
            path if artifact_path.is_none() => artifact_path = Some(path),
            other => {
                return Err(CliError::usage(format!(
                    "check takes one artifact path, got a second: `{other}`"
                )))
            }
        }
    }
    let artifact_path =
        artifact_path.ok_or_else(|| CliError::usage("check needs an artifact path"))?;
    let golden_path = golden_path.ok_or_else(|| CliError::usage("check needs --golden <path>"))?;
    let new = read_artifact(artifact_path)?;
    let golden = read_artifact(golden_path)?;
    let report = diff(&golden, &new, &tol);
    if report.is_match() {
        outln!(
            "OK: {artifact_path} matches {golden_path} (rel {}, abs {})",
            tol.rel,
            tol.abs
        )?;
        Ok(())
    } else {
        Err(CliError::failure(format!(
            "{artifact_path} deviates from {golden_path}: {report}"
        )))
    }
}

// ---------------------------------------------------------------------------
// online run / replay
// ---------------------------------------------------------------------------

const ONLINE_USAGE: &str = "usage: soar online run [options]
       soar online replay <artifact.json> [--csv]

`run` builds a BT(--switches) base snapshot, generates a seeded churn timeline
(tenant arrivals/departures, single-leaf rate changes) and replays it on the
incremental re-optimization engine — every epoch verified bit-identical to a
from-scratch solve. Prints the placement trajectory (cost over time, placement
moves, DP cell writes incremental vs from-scratch).

run options:
  --switches N       BT(N) base topology, counts the destination (default 128)
  --budget K         starting aggregation budget (default 16)
  --epochs E         epochs to replay (default 12)
  --seed S           base seed of instance + timeline draws (default 0)
  --reps R           averaged repetitions (default 1)
  --arrivals A       expected tenant arrivals per epoch (default 1.0)
  --lifetime L       mean tenant lifetime in epochs (default 4.0)
  --rate-changes C   expected single-leaf rate re-draws per epoch (default 2.0)
  --tenant-leaves T  leaves per tenant footprint (default 4)
  --load DIST        background load distribution (soar instance syntax; default uniform)
  --csv              print charts as CSV instead of aligned tables
  --out FILE         write the RunArtifact JSON there

`replay` re-runs the dynamic spec embedded in an artifact and checks the fresh
trajectory against the stored one (exit 1 on deviation) — the determinism gate
behind the online-smoke CI job.";

fn cmd_online(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("run") => cmd_online_run(&args[1..]),
        Some("replay") => cmd_online_replay(&args[1..]),
        Some("--help") | Some("-h") => {
            outln!("{ONLINE_USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown online subcommand `{other}`"
        ))),
        None => Err(CliError::usage("online needs a subcommand (run, replay)")),
    }
}

fn cmd_online_run(args: &[String]) -> CliResult {
    let mut switches = 128usize;
    let mut budget = 16usize;
    let mut epochs = 12usize;
    let mut seed = 0u64;
    let mut reps = 1u64;
    let mut model = soar::multitenant::churn::ChurnModel::paper_default();
    let mut load: Option<&str> = None;
    let mut csv = false;
    let mut out: Option<&str> = None;

    let parse_num = |flag: &str, value: &str| -> Result<usize, CliError> {
        value
            .parse::<usize>()
            .map_err(|_| CliError::usage(format!("{flag} needs a non-negative number")))
    };
    let parse_rate = |flag: &str, value: &str| -> Result<f64, CliError> {
        value
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| CliError::usage(format!("{flag} needs a non-negative number")))
    };
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--switches" | "-n" => {
                switches = parse_num("--switches", options.value_for("--switches")?)?
            }
            "--budget" | "-k" => budget = parse_num("--budget", options.value_for("--budget")?)?,
            "--epochs" | "-e" => epochs = parse_num("--epochs", options.value_for("--epochs")?)?,
            "--seed" => {
                seed = options
                    .value_for("--seed")?
                    .parse()
                    .map_err(|_| CliError::usage("--seed needs a number"))?
            }
            "--reps" => {
                reps = options
                    .value_for("--reps")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or_else(|| CliError::usage("--reps needs a positive number"))?
            }
            "--arrivals" => {
                model.arrivals_per_epoch =
                    parse_rate("--arrivals", options.value_for("--arrivals")?)?
            }
            "--lifetime" => {
                let value = parse_rate("--lifetime", options.value_for("--lifetime")?)?;
                if value < 1.0 {
                    return Err(CliError::usage("--lifetime must be at least one epoch"));
                }
                model.mean_lifetime = value;
            }
            "--rate-changes" => {
                model.rate_changes_per_epoch =
                    parse_rate("--rate-changes", options.value_for("--rate-changes")?)?
            }
            "--tenant-leaves" => {
                let value = parse_num("--tenant-leaves", options.value_for("--tenant-leaves")?)?;
                if value == 0 {
                    return Err(CliError::usage("--tenant-leaves must be at least 1"));
                }
                model.tenant_leaves = value;
            }
            "--load" | "-l" => load = Some(options.value_for("--load")?),
            "--csv" => csv = true,
            "--out" | "-o" => out = Some(options.value_for("--out")?),
            "--help" | "-h" => {
                outln!("{ONLINE_USAGE}")?;
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "online run: unknown argument `{other}`"
                )))
            }
        }
    }
    if switches < 2 {
        return Err(CliError::usage(
            "BT(n) counts the destination server, so --switches must be >= 2",
        ));
    }
    if epochs == 0 {
        return Err(CliError::usage("--epochs must be at least 1"));
    }
    let background = match load {
        Some(text) => LoadSpec::parse(text).map_err(CliError::usage)?,
        None => LoadSpec::paper_uniform(),
    };
    model.load = background.clone();
    let mut spec = ExperimentSpec::new(
        "online-run",
        format!("CLI dynamic churn replay over BT({switches})"),
        reps,
        ExperimentKind::DynamicChurn {
            title: format!("Dynamic churn on BT({switches}), k = {budget}"),
            scenario: soar::exp::ScenarioSpec::bt(
                switches,
                background,
                soar::topology::rates::RateScheme::paper_constant(),
                seed,
            ),
            budget,
            epochs,
            model,
            seed_stride: 61,
        },
    );
    spec.base_seed = seed;
    spec.validate()
        .map_err(|e| CliError::invalid(format!("online run configuration: {e}")))?;
    let artifact = spec.run();
    print_charts(&artifact, csv)?;
    if let Some(path) = out {
        write_file(path, &artifact.to_json())?;
        outln!("wrote {path}")?;
    }
    Ok(())
}

fn print_charts(artifact: &RunArtifact, csv: bool) -> CliResult {
    for chart in &artifact.charts {
        if csv {
            outln!("# {}", chart.title)?;
            emit(&chart.to_csv())?;
        } else {
            outln!("{}", chart.to_table())?;
        }
    }
    Ok(())
}

fn cmd_online_replay(args: &[String]) -> CliResult {
    let mut path: Option<&str> = None;
    let mut csv = false;
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--csv" => csv = true,
            "--help" | "-h" => {
                outln!("{ONLINE_USAGE}")?;
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::usage(format!(
                    "online replay: unknown argument `{flag}`"
                )))
            }
            p if path.is_none() => path = Some(p),
            other => {
                return Err(CliError::usage(format!(
                    "replay takes one artifact path, got a second: `{other}`"
                )))
            }
        }
    }
    let path = path.ok_or_else(|| CliError::usage("replay needs an artifact path"))?;
    let stored = read_artifact(path)?;
    if !matches!(stored.spec.kind, ExperimentKind::DynamicChurn { .. }) {
        return Err(CliError::invalid(format!(
            "{path} is not a dynamic-churn artifact (spec `{}` has a different kind)",
            stored.spec.name
        )));
    }
    stored
        .spec
        .validate()
        .map_err(|e| CliError::invalid(format!("{path}: embedded spec is invalid: {e}")))?;
    eprintln!(
        "replaying {} ({} repetitions)",
        stored.spec.name, stored.spec.repetitions
    );
    let fresh = stored.spec.run();
    print_charts(&fresh, csv)?;
    let report = diff(&stored, &fresh, &Tolerances::default());
    if report.is_match() {
        outln!("OK: replay of {path} reproduced the stored trajectory")?;
        Ok(())
    } else {
        Err(CliError::failure(format!(
            "replay of {path} deviates from the stored trajectory: {report}"
        )))
    }
}

// ---------------------------------------------------------------------------
// fabric solve / sweep
// ---------------------------------------------------------------------------

const FABRIC_USAGE: &str = "usage: soar fabric solve [options]
       soar fabric sweep --bounds C1,C2,... [options]

Congestion-constrained placement on a multi-root fabric (the sequel paper's
scenario): multipath routing decomposes the fabric into vertex-disjoint
per-core aggregation trees. `solve` places at most --budget blue switches
fabric-wide with at most --bound per core tree, weighting every core up-link's
utilization by --gamma in the objective. `sweep` re-solves the same fabric
under each bound of --bounds and charts cost and congestion against the bound.
Both print chart tables and write standard RunArtifacts (usable with
`soar experiment check` and `soar history`).

topology (the fat-tree family is the default; --roots switches to the forest):
  --cores C          fat-tree core switches (default 2)
  --pods P           fat-tree pods, assigned to cores round-robin (default 4)
  --aggs A           aggregation switches per pod (default 2)
  --tors T           ToR switches per aggregation switch (default 2)
  --roots R          multi-root forest: R disjoint complete binary trees
  --tree-switches N  switches per forest tree (default 15; needs --roots)

scenario:
  --load DIST        leaf load distribution (soar instance syntax; default uniform)
  --rates SCHEME     constant[:w] | linear[:base,step] | exponential[:base,factor]
  --seed S           base seed of the per-tree load draws (default 0)
  --budget K         fabric-wide blue budget (default 4)
  --bound C          per-core-tree blue cap (solve only; default 2)
  --bounds LIST      congestion-bound grid (sweep only; required)
  --gamma G          congestion weight γ ≥ 0 (default 0.5)
  --solvers LIST     solve only: fabric solvers to run, default fabric-soar
                     (registered: fabric-soar, fabric-brute)
  --reps R           averaged repetitions (default 1)
  --csv              print charts as CSV instead of aligned tables
  --out FILE         write the RunArtifact JSON there";

fn cmd_fabric(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("solve") => cmd_fabric_run(&args[1..], false),
        Some("sweep") => cmd_fabric_run(&args[1..], true),
        Some("--help") | Some("-h") => {
            outln!("{FABRIC_USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown fabric subcommand `{other}`"
        ))),
        None => Err(CliError::usage("fabric needs a subcommand (solve, sweep)")),
    }
}

/// `soar fabric solve` and `soar fabric sweep` share every flag except the
/// congestion-bound shape (one `--bound` vs a `--bounds` grid) and `--solvers`,
/// so both run through here; `sweep` selects the grid kind.
fn cmd_fabric_run(args: &[String], sweep: bool) -> CliResult {
    use soar::fabric::{FabricSpec, FabricTopology};

    let command = if sweep {
        "fabric sweep"
    } else {
        "fabric solve"
    };
    let mut cores: Option<usize> = None;
    let mut pods: Option<usize> = None;
    let mut aggs: Option<usize> = None;
    let mut tors: Option<usize> = None;
    let mut roots: Option<usize> = None;
    let mut tree_switches: Option<usize> = None;
    let mut load: Option<&str> = None;
    let mut rates: Option<&str> = None;
    let mut seed = 0u64;
    let mut budget = 4usize;
    let mut bound: Option<usize> = None;
    let mut bounds: Option<Vec<usize>> = None;
    let mut gamma = 0.5f64;
    let mut reps = 1u64;
    let mut solvers: Option<&str> = None;
    let mut csv = false;
    let mut out: Option<&str> = None;
    let mut options = Options::new(args);
    while let Some(flag) = options.next() {
        match flag {
            "--cores" => cores = Some(parse_num(options.value_for(flag)?, flag)?),
            "--pods" => pods = Some(parse_num(options.value_for(flag)?, flag)?),
            "--aggs" => aggs = Some(parse_num(options.value_for(flag)?, flag)?),
            "--tors" => tors = Some(parse_num(options.value_for(flag)?, flag)?),
            "--roots" => roots = Some(parse_num(options.value_for(flag)?, flag)?),
            "--tree-switches" => tree_switches = Some(parse_num(options.value_for(flag)?, flag)?),
            "--load" | "-l" => load = Some(options.value_for(flag)?),
            "--rates" | "-r" => rates = Some(options.value_for(flag)?),
            "--seed" => seed = parse_num(options.value_for(flag)?, flag)?,
            "--budget" | "-k" => budget = parse_num(options.value_for(flag)?, flag)?,
            "--bound" | "-c" => bound = Some(parse_num(options.value_for(flag)?, flag)?),
            "--bounds" => bounds = Some(parse_list(options.value_for(flag)?, "congestion bound")?),
            "--gamma" | "-g" => {
                gamma = options
                    .value_for(flag)?
                    .parse()
                    .map_err(|_| CliError::usage("--gamma needs a number"))?
            }
            "--solvers" => solvers = Some(options.value_for(flag)?),
            "--reps" => {
                reps = options
                    .value_for(flag)?
                    .parse::<u64>()
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or_else(|| CliError::usage("--reps needs a positive number"))?
            }
            "--csv" => csv = true,
            "--out" | "-o" => out = Some(options.value_for(flag)?),
            "--help" | "-h" => {
                outln!("{FABRIC_USAGE}")?;
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "{command}: unknown argument `{other}`"
                )))
            }
        }
    }

    let fat_tree_flags = cores.is_some() || pods.is_some() || aggs.is_some() || tors.is_some();
    if roots.is_some() && fat_tree_flags {
        return Err(CliError::usage(
            "--roots selects the multi-root forest family; it cannot be combined \
             with fat-tree dimensions (--cores/--pods/--aggs/--tors)",
        ));
    }
    if tree_switches.is_some() && roots.is_none() {
        return Err(CliError::usage(
            "--tree-switches only applies to the forest family (give --roots too)",
        ));
    }
    if sweep {
        if bound.is_some() {
            return Err(CliError::usage(
                "fabric sweep varies the congestion bound — give the grid with \
                 --bounds, not a single --bound",
            ));
        }
        if solvers.is_some() {
            return Err(CliError::usage(
                "fabric sweep always runs fabric-soar; --solvers applies to fabric solve",
            ));
        }
    } else if bounds.is_some() {
        return Err(CliError::usage(
            "--bounds belongs to fabric sweep; fabric solve takes one --bound",
        ));
    }

    let topology = match roots {
        Some(roots) => FabricTopology::MultiRootForest {
            roots,
            switches_per_tree: tree_switches.unwrap_or(15),
        },
        None => FabricTopology::MultiCoreFatTree {
            cores: cores.unwrap_or(2),
            pods: pods.unwrap_or(4),
            aggs_per_pod: aggs.unwrap_or(2),
            tors_per_agg: tors.unwrap_or(2),
        },
    };
    let load = match load {
        Some(text) => LoadSpec::parse(text).map_err(CliError::usage)?,
        None => LoadSpec::paper_uniform(),
    };
    let rates = match rates {
        Some(text) => RateScheme::parse(text).map_err(CliError::usage)?,
        None => RateScheme::paper_constant(),
    };
    let bounds = if sweep {
        Some(bounds.ok_or_else(|| CliError::usage("fabric sweep needs --bounds C1,C2,..."))?)
    } else {
        None
    };
    let fabric = FabricSpec {
        topology,
        load,
        rates,
        seed,
        budget,
        // For a sweep the runner re-instantiates the fabric at each grid
        // point; the embedded bound is the widest one so the spec validates
        // self-consistently (mirrors the registry's sweep specs).
        congestion_bound: match &bounds {
            Some(grid) => bound.unwrap_or_else(|| grid.iter().copied().max().unwrap_or(1)),
            None => bound.unwrap_or(2),
        },
        congestion_weight: gamma,
    };
    let label = fabric.topology.label();
    let kind = match bounds {
        Some(bounds) => ExperimentKind::FabricCongestionSweep {
            title: format!("Fabric {label} vs congestion bound"),
            fabric,
            bounds,
            seed_stride: 67,
        },
        None => {
            let solvers: Vec<String> = match solvers {
                Some(text) => parse_list(text, "fabric solver name")?,
                None => vec!["fabric-soar".to_owned()],
            };
            ExperimentKind::FabricSolve {
                title: format!("Fabric {label}, k = {budget}"),
                fabric,
                solvers,
                seed_stride: 59,
            }
        }
    };
    let spec = ExperimentSpec::new(
        if sweep {
            "fabric-bound-sweep"
        } else {
            "fabric-solve"
        },
        format!("CLI {command} of {label}"),
        reps,
        kind,
    );
    spec.validate()
        .map_err(|e| CliError::invalid(format!("{command} configuration: {e}")))?;
    let artifact = spec.run();
    print_charts(&artifact, csv)?;
    if let Some(path) = out {
        write_file(path, &artifact.to_json())?;
        outln!("wrote {path}")?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// serve / loadtest
// ---------------------------------------------------------------------------

const SERVE_USAGE: &str = "usage: soar serve [--addr HOST:PORT] [--queue-cap N] [--inflight-cap N]
                  [--max-tenants N] [--batch-cap N] [--metrics-out FILE]
                  [--state-dir DIR [--recover] [--snapshot-every N]]
                  [--write-deadline-ms MS] [--obs-addr HOST:PORT]

Runs the long-running solve/churn daemon: clients register tenants (each one a
resident DynamicInstance), stream churn batches and request warm re-solves over
a length-prefixed binary protocol. A full global queue or a tenant at its
in-flight cap sheds with an explicit Overloaded response instead of buffering.
Blocks until a client sends Shutdown; then drains, optionally writes the final
metrics snapshot JSON to --metrics-out, and exits 0.

--state-dir makes tenant state crash-safe: every accepted register/evict/churn
batch is appended to a CRC-checked write-ahead log before it is applied, with
a tenant snapshot every --snapshot-every records. --recover replays
snapshot+WAL from that directory on startup (post-recovery solves are
bit-identical to an uninterrupted run); without it an existing state dir is
replaced by a fresh empty log. --write-deadline-ms bounds how long one slow
reader may block a response write (0 = no deadline) before the connection is
dropped and counted in io_errors.

--obs-addr additionally serves Prometheus text-format exposition on a second
listener: GET /metrics returns the same frozen snapshot the binary Metrics
request answers from (counters, gauges, per-tenant breakdown, latency
summaries), followed by the process-wide solver counters and span-ring
gauges of the global soar-obs registry.";

fn cmd_serve(args: &[String]) -> CliResult {
    let mut config = soar::serve::ServeConfig {
        addr: "127.0.0.1:7171".to_owned(),
        ..soar::serve::ServeConfig::default()
    };
    let mut metrics_out: Option<&str> = None;
    let mut options = Options::new(args);
    while let Some(flag) = options.next() {
        match flag {
            "--addr" => config.addr = options.value_for(flag)?.to_owned(),
            "--queue-cap" => config.queue_cap = parse_num(options.value_for(flag)?, flag)?,
            "--inflight-cap" => {
                config.tenant_inflight_cap = parse_num(options.value_for(flag)?, flag)?
            }
            "--max-tenants" => config.max_tenants = parse_num(options.value_for(flag)?, flag)?,
            "--batch-cap" => config.batch_cap = parse_num(options.value_for(flag)?, flag)?,
            "--metrics-out" => metrics_out = Some(options.value_for(flag)?),
            "--state-dir" => {
                config.state_dir = Some(std::path::PathBuf::from(options.value_for(flag)?))
            }
            "--recover" => config.recover = true,
            "--snapshot-every" => {
                config.snapshot_every = parse_num(options.value_for(flag)?, flag)?
            }
            "--write-deadline-ms" => {
                let ms: u64 = parse_num(options.value_for(flag)?, flag)?;
                config.write_deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--obs-addr" => config.obs_addr = Some(options.value_for(flag)?.to_owned()),
            "--help" | "-h" => {
                outln!("{SERVE_USAGE}")?;
                return Ok(());
            }
            other => return Err(CliError::usage(format!("unknown serve flag `{other}`"))),
        }
    }
    if config.recover && config.state_dir.is_none() {
        return Err(CliError::usage(
            "--recover needs --state-dir (there is nothing to recover from)",
        ));
    }
    let handle = soar::serve::start(config.clone())
        .map_err(|e| CliError::failure(format!("binding {}: {e}", config.addr)))?;
    outln!("soar serve listening on {}", handle.addr())?;
    if let Some(obs) = handle.obs_addr() {
        outln!("metrics exposition on http://{obs}/metrics")?;
    }
    let snapshot = handle.join();
    outln!(
        "served {} requests ({} events applied, {} solves, {} sheds, {} errors)",
        snapshot.requests,
        snapshot.events_applied,
        snapshot.solves,
        snapshot.sheds(),
        snapshot.errors
    )?;
    if let Some(path) = metrics_out {
        let json = serde_json::to_string_pretty(&snapshot)
            .map_err(|e| CliError::failure(format!("encoding metrics: {e}")))?;
        write_file(path, &json)?;
        outln!("metrics snapshot written to {path}")?;
    }
    Ok(())
}

const LOADTEST_USAGE: &str = "usage: soar loadtest --addr HOST:PORT [--tenants N] [--switches N]
                  [--budget K] [--connections N] [--window N] [--events-per-batch N]
                  [--batches N] [--solve-every N] [--rate EVENTS_PER_SEC] [--seed S]
                  [--out BENCH_serve.json] [--shutdown] [--obs-addr HOST:PORT]
                  [--chaos | --resilient] [--timeout-ms MS] [--backoff-base-ms MS]
                  [--backoff-cap-ms MS] [--max-attempts N] [--stall-ms MS]
                  [--assert-zero-sheds] [--assert-sheds] [--assert-no-loss]

Drives a running `soar serve` with synthesized churn: registers --tenants
resident instances, streams --batches churn batches (ChurnStream epochs of
about --events-per-batch events) over --connections pipelined connections and
interleaves a warm solve every --solve-every batches. Default is a closed loop
with --window requests in flight per connection; --rate switches to an open
loop that injects on a wall-clock schedule and expects the server to shed what
it cannot absorb. Prints throughput and client-side latency percentiles, and
with --out writes the gated artifact for `soar history check`. --shutdown
sends Shutdown when done. The --assert-* flags turn expectations about sheds
into exit codes for CI.

--resilient switches every connection to the fault-tolerant driver:
per-request timeouts (--timeout-ms), reconnect with capped exponential backoff
(--backoff-base-ms doubling up to --backoff-cap-ms, --max-attempts per batch),
and per-tenant sequence numbers so unacknowledged batches replay idempotently
(the server dedupes). --chaos additionally injects faults around the real
traffic — connection drops before/after send, torn frames, undecodable frames,
and --stall-ms slow-reader stalls — while keeping exact accounting: every
batch ends applied exactly once or explicitly lost; --assert-no-loss turns any
lost or unaccounted batch into exit code 1. In these modes --out writes the
BENCH_chaos.json artifact instead (lost/unaccounted batches gate exactly).

--obs-addr names the server's Prometheus exposition listener (its
`serve --obs-addr`): after the run quiesces, the client scrapes /metrics and
fails with exit 1 if any scraped counter disagrees with the binary metrics
snapshot — the end-to-end consistency check of the obs-smoke CI job.";

fn cmd_loadtest(args: &[String]) -> CliResult {
    let mut config = soar::loadtest::LoadtestConfig::default();
    let mut out: Option<&str> = None;
    let mut assert_zero_sheds = false;
    let mut assert_sheds = false;
    let mut assert_no_loss = false;
    let mut stall_ms: Option<u64> = None;
    let mut options = Options::new(args);
    while let Some(flag) = options.next() {
        match flag {
            "--addr" => {
                let value = options.value_for(flag)?;
                config.addr = value
                    .parse()
                    .map_err(|_| CliError::usage(format!("invalid address `{value}`")))?;
            }
            "--tenants" => config.tenants = parse_num(options.value_for(flag)?, flag)?,
            "--switches" => config.switches = parse_num(options.value_for(flag)?, flag)?,
            "--budget" => config.budget = parse_num(options.value_for(flag)?, flag)?,
            "--connections" => config.connections = parse_num(options.value_for(flag)?, flag)?,
            "--window" => config.window = parse_num(options.value_for(flag)?, flag)?,
            "--events-per-batch" => {
                config.events_per_batch = parse_num(options.value_for(flag)?, flag)?
            }
            "--batches" => config.batches = parse_num(options.value_for(flag)?, flag)?,
            "--solve-every" => config.solve_every = parse_num(options.value_for(flag)?, flag)?,
            "--rate" => {
                let value = options.value_for(flag)?;
                config.rate = value
                    .parse::<f64>()
                    .map_err(|_| CliError::usage(format!("invalid rate `{value}`")))?;
            }
            "--seed" => config.seed = parse_num(options.value_for(flag)?, flag)?,
            "--out" => out = Some(options.value_for(flag)?),
            "--shutdown" => config.shutdown = true,
            "--obs-addr" => {
                let value = options.value_for(flag)?;
                config.obs_addr = Some(
                    value
                        .parse()
                        .map_err(|_| CliError::usage(format!("invalid address `{value}`")))?,
                );
            }
            "--chaos" => config.chaos = Some(soar::loadtest::ChaosConfig::standard()),
            "--resilient" => {
                config
                    .chaos
                    .get_or_insert_with(soar::loadtest::ChaosConfig::default);
            }
            "--timeout-ms" => {
                let ms: u64 = parse_num(options.value_for(flag)?, flag)?;
                config.request_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--backoff-base-ms" => {
                let ms: u64 = parse_num(options.value_for(flag)?, flag)?;
                config.backoff_base = std::time::Duration::from_millis(ms.max(1));
            }
            "--backoff-cap-ms" => {
                let ms: u64 = parse_num(options.value_for(flag)?, flag)?;
                config.backoff_cap = std::time::Duration::from_millis(ms.max(1));
            }
            "--max-attempts" => config.max_attempts = parse_num(options.value_for(flag)?, flag)?,
            "--stall-ms" => stall_ms = Some(parse_num(options.value_for(flag)?, flag)?),
            "--assert-zero-sheds" => assert_zero_sheds = true,
            "--assert-sheds" => assert_sheds = true,
            "--assert-no-loss" => assert_no_loss = true,
            "--help" | "-h" => {
                outln!("{LOADTEST_USAGE}")?;
                return Ok(());
            }
            other => return Err(CliError::usage(format!("unknown loadtest flag `{other}`"))),
        }
    }
    if let (Some(ms), Some(chaos)) = (stall_ms, config.chaos.as_mut()) {
        chaos.stall_for = std::time::Duration::from_millis(ms);
    }
    let report = soar::loadtest::run(&config)
        .map_err(|e| CliError::failure(format!("loadtest against {}: {e}", config.addr)))?;
    emit(&report.render())?;
    if let Some(path) = out {
        let artifact = if config.chaos.is_some() {
            soar::loadtest::chaos_artifact(&config, &report)
        } else {
            soar::loadtest::artifact(&config, &report)
        };
        write_file(path, &artifact.to_json())?;
        outln!("artifact written to {path}")?;
    }
    if assert_no_loss {
        let Some(r) = &report.resilience else {
            return Err(CliError::usage(
                "--assert-no-loss needs --chaos or --resilient".to_owned(),
            ));
        };
        if r.batches_lost > 0 || r.unaccounted() > 0 {
            return Err(CliError::failure(format!(
                "delivery accounting failed: {} lost, {} unaccounted of {} batches",
                r.batches_lost,
                r.unaccounted(),
                r.batches_generated
            )));
        }
    }
    if assert_zero_sheds && report.sheds > 0 {
        return Err(CliError::failure(format!(
            "expected zero sheds at this load, saw {}",
            report.sheds
        )));
    }
    if assert_sheds && report.sheds == 0 {
        return Err(CliError::failure(
            "expected the overloaded run to shed, but nothing was shed".to_owned(),
        ));
    }
    // Shed churn batches break stream continuity (a dropped TenantArrive makes
    // a later TenantDepart fail), so error responses only fail the run when
    // nothing was shed — in a clean run they indicate a real bug.
    if report.errors > 0 && report.sheds == 0 {
        return Err(CliError::failure(format!(
            "{} requests answered with errors",
            report.errors
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

const TRACE_USAGE: &str = "usage: soar trace [--switches N] [--budget K] [--out FILE]
                  [--assert-coverage PCT]

Runs one warm-workspace solve of the standard gather-bench instance family
(BT(--switches) with power-law leaf loads, default 4096 switches at budget 16)
with span tracing enabled, then writes the recorded spans as a Chrome
trace_event JSON document (--out, default soar-trace.json) loadable in
https://ui.perfetto.dev or chrome://tracing. Prints the phase breakdown of the
root `solve` span — workspace reset, per-level gather, traceback — and the
fraction of the solve's wall time its direct children cover.

--assert-coverage fails with exit 1 when that fraction falls below PCT percent
(the obs-smoke CI job gates at 95).";

fn cmd_trace(args: &[String]) -> CliResult {
    let mut switches: usize = 4096;
    let mut budget: usize = 16;
    let mut out_path = "soar-trace.json".to_owned();
    let mut assert_coverage: Option<f64> = None;
    let mut options = Options::new(args);
    while let Some(flag) = options.next() {
        match flag {
            "--switches" | "-n" => switches = parse_num(options.value_for(flag)?, flag)?,
            "--budget" | "-k" => budget = parse_num(options.value_for(flag)?, flag)?,
            "--out" | "-o" => out_path = options.value_for(flag)?.to_owned(),
            "--assert-coverage" => {
                let value = options.value_for(flag)?;
                let pct: f64 = value.parse().map_err(|_| {
                    CliError::usage(format!("invalid coverage percentage `{value}`"))
                })?;
                assert_coverage = Some(pct / 100.0);
            }
            "--help" | "-h" => {
                outln!("{TRACE_USAGE}")?;
                return Ok(());
            }
            other => return Err(CliError::usage(format!("unknown trace flag `{other}`"))),
        }
    }
    if switches < 2 {
        return Err(CliError::usage("--switches must be at least 2"));
    }

    let instance = soar::exp::perf::gather_bench_instance_with_budget(switches, budget);
    let tree = instance.tree();
    let k = instance.budget();

    // One untimed warm-up outside the trace so the recorded solve is the
    // steady state (no arena growth spans distorting the phase breakdown),
    // then the traced solve under a root span.
    let mut ws = soar::core::workspace::SolverWorkspace::new();
    ws.gather_auto(tree, k);
    soar::obs::set_tracing(true);
    let (cost, blue) = {
        let _solve = soar_obs::span!("solve", tree.n_switches());
        ws.gather_auto(tree, k);
        ws.trace_best(tree)
    };
    soar::obs::set_tracing(false);

    let threads = soar::obs::span::snapshot();
    write_file(&out_path, &soar::obs::trace::chrome_trace_json(&threads))?;

    let spans = soar::obs::trace::complete_spans(&threads);
    let root = spans
        .iter()
        .filter(|s| s.name == "solve")
        .max_by_key(|s| s.dur_ns)
        .ok_or_else(|| CliError::failure("no root `solve` span was recorded"))?;
    outln!(
        "solved BT family, {} switches, k = {k}: cost {cost:.3} with {blue} blue switches",
        tree.n_switches()
    )?;
    outln!(
        "trace written to {out_path} ({} spans across {} threads)",
        spans.len(),
        threads.iter().filter(|t| !t.events.is_empty()).count()
    )?;

    // Phase breakdown: the root's direct children on its own thread, grouped
    // by name in first-seen order. Worker-thread stripe spans overlap these
    // in wall time, so coverage is measured on the root thread only.
    let mut phases: Vec<(&str, u64, usize)> = Vec::new();
    let mut covered: u64 = 0;
    for span in spans.iter().filter(|s| {
        s.tid == root.tid
            && s.depth == 1
            && s.ts_ns >= root.ts_ns
            && s.ts_ns <= root.ts_ns + root.dur_ns
    }) {
        covered += span.dur_ns;
        match phases.iter_mut().find(|(name, ..)| *name == span.name) {
            Some((_, dur, count)) => {
                *dur += span.dur_ns;
                *count += 1;
            }
            None => phases.push((span.name, span.dur_ns, 1)),
        }
    }
    outln!(
        "phase breakdown of the {:.3} ms solve:",
        root.dur_ns as f64 / 1e6
    )?;
    for (name, dur_ns, count) in &phases {
        outln!(
            "  {name:<16} {:>10.3} ms  ({count:>3} spans, {:>5.1}% of the solve)",
            *dur_ns as f64 / 1e6,
            100.0 * *dur_ns as f64 / root.dur_ns.max(1) as f64,
        )?;
    }
    let coverage = covered as f64 / root.dur_ns.max(1) as f64;
    outln!(
        "span coverage of the solve wall time: {:.1}%",
        coverage * 100.0
    )?;
    if let Some(min) = assert_coverage {
        if coverage < min {
            return Err(CliError::failure(format!(
                "span coverage {:.1}% is below the required {:.1}%",
                coverage * 100.0,
                min * 100.0
            )));
        }
    }
    Ok(())
}

/// Parses any unsigned integer flag value.
fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, CliError> {
    value
        .parse::<T>()
        .map_err(|_| CliError::usage(format!("invalid value `{value}` for {flag}")))
}

// ---------------------------------------------------------------------------
// history report / check
// ---------------------------------------------------------------------------

const HISTORY_USAGE: &str = "usage: soar history report <artifact.json>...
       soar history report --dir <DIR> [--spec NAME]
       soar history check <new.json> --baseline <baseline.json> [--max-regress 25%] [--exact-abs X]

`report` aligns an ordered series of artifacts of one spec (oldest first) by
chart point and prints every metric's trajectory, newest delta and best-so-far.
With --dir it scans a directory of nightly-trend artifact sets instead: every
*.json artifact in DIR and its immediate subdirectories (sorted by path, so
date-stamped nightly directories read oldest first) is grouped by spec name and
rendered as one long-horizon trajectory per spec (--spec restricts to one).
Non-artifact JSON files (e.g. RUN_STAMP.json) are skipped with a note.
`check` gates the new artifact against the baseline: wall-clock metrics may
drift up to --max-regress (relative, default 25%), every other metric — costs,
allocation counts, footprints — must not increase at all. Improvements always
pass; a regression exits with code 1.";

fn cmd_history(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("report") => cmd_history_report(&args[1..]),
        Some("check") => cmd_history_check(&args[1..]),
        Some("--help") | Some("-h") => {
            outln!("{HISTORY_USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown history subcommand `{other}`"
        ))),
        None => Err(CliError::usage(
            "history needs a subcommand (report, check)",
        )),
    }
}

/// Parses a tolerance given either as a bare fraction (`0.25`) or as a
/// percentage (`25%`). A percent-less value above 1 is almost certainly a
/// forgotten `%` (`--max-regress 25` would mean a 2500 % headroom and silently
/// neuter the gate), so it is rejected with a hint.
fn parse_fraction(value: &str, flag: &str) -> Result<f64, CliError> {
    let (digits, percent) = match value.strip_suffix('%') {
        Some(digits) => (digits, true),
        None => (value, false),
    };
    let parsed: f64 = digits.trim().parse().map_err(|_| {
        CliError::usage(format!(
            "{flag} needs a number or percentage, got `{value}`"
        ))
    })?;
    if !percent && parsed > 1.0 {
        return Err(CliError::usage(format!(
            "{flag} {value} looks like a forgotten percent sign — write `{value}%` \
             for {value} percent, or a fraction <= 1"
        )));
    }
    let fraction = if percent { parsed / 100.0 } else { parsed };
    if !(fraction.is_finite() && fraction >= 0.0) {
        return Err(CliError::usage(format!(
            "{flag} must be a non-negative finite tolerance, got `{value}`"
        )));
    }
    Ok(fraction)
}

fn cmd_history_report(args: &[String]) -> CliResult {
    let mut paths: Vec<&str> = Vec::new();
    let mut dir: Option<&str> = None;
    let mut spec_filter: Option<&str> = None;
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--dir" | "-d" => dir = Some(options.value_for("--dir")?),
            "--spec" | "-s" => spec_filter = Some(options.value_for("--spec")?),
            "--help" | "-h" => {
                outln!("{HISTORY_USAGE}")?;
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::usage(format!(
                    "report: unknown argument `{flag}`"
                )))
            }
            path => paths.push(path),
        }
    }
    match dir {
        Some(dir) => {
            if !paths.is_empty() {
                return Err(CliError::usage(
                    "report takes either explicit artifact paths or --dir, not both",
                ));
            }
            cmd_history_report_dir(dir, spec_filter)
        }
        None => {
            if spec_filter.is_some() {
                return Err(CliError::usage("--spec only applies to --dir mode"));
            }
            if paths.is_empty() {
                return Err(CliError::usage(
                    "report needs at least one artifact path (oldest first) or --dir",
                ));
            }
            let mut entries = Vec::new();
            for path in paths {
                entries.push((path.to_owned(), read_artifact(path)?));
            }
            let trajectory = Trajectory::build(&entries)
                .map_err(|e| CliError::failure(format!("artifacts do not align: {e}")))?;
            emit(&trajectory.to_table())?;
            Ok(())
        }
    }
}

/// The `--dir` mode of `history report`: scans a directory of nightly-trend
/// artifact sets (loose `*.json` files plus one level of subdirectories,
/// sorted by path so date-stamped nightly directories read oldest first),
/// groups the artifacts by spec name and prints one long-horizon trajectory
/// per spec.
fn cmd_history_report_dir(dir: &str, spec_filter: Option<&str>) -> CliResult {
    let mut candidates: Vec<std::path::PathBuf> = Vec::new();
    let mut top: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CliError::failure(format!("reading {dir}: {e}")))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    top.sort();
    for path in top {
        if path.is_dir() {
            let mut nested: Vec<std::path::PathBuf> = match std::fs::read_dir(&path) {
                Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
                Err(_) => continue,
            };
            nested.sort();
            candidates.extend(
                nested
                    .into_iter()
                    .filter(|p| p.is_file() && p.extension().is_some_and(|ext| ext == "json")),
            );
        } else if path.extension().is_some_and(|ext| ext == "json") {
            candidates.push(path);
        }
    }

    // Group parseable artifacts by spec name, keeping scan (= time) order.
    let mut groups: Vec<(String, Vec<(String, RunArtifact)>)> = Vec::new();
    for path in candidates {
        let label = path.display().to_string();
        let Ok(json) = std::fs::read_to_string(&path) else {
            eprintln!("note: skipping unreadable {label}");
            continue;
        };
        let Ok(artifact) = RunArtifact::from_json(&json) else {
            eprintln!("note: skipping non-artifact JSON {label}");
            continue;
        };
        if spec_filter.is_some_and(|want| want != artifact.spec.name) {
            continue;
        }
        let name = artifact.spec.name.clone();
        match groups.iter_mut().find(|(spec, _)| *spec == name) {
            Some((_, entries)) => entries.push((label, artifact)),
            None => groups.push((name, vec![(label, artifact)])),
        }
    }
    if groups.is_empty() {
        return Err(CliError::failure(match spec_filter {
            Some(spec) => format!("no artifacts of spec `{spec}` found under {dir}"),
            None => format!("no artifacts found under {dir}"),
        }));
    }
    // One misaligned spec (e.g. a version bump or renamed series mid-history)
    // must not make every *other* spec's trajectory unreadable: skip it with a
    // note and fail only when nothing could be rendered at all.
    let mut rendered = 0usize;
    for (spec, entries) in &groups {
        match Trajectory::build(entries) {
            Ok(trajectory) => {
                emit(&trajectory.to_table())?;
                rendered += 1;
            }
            Err(e) => eprintln!("note: skipping `{spec}`: artifacts do not align: {e}"),
        }
    }
    if rendered == 0 {
        return Err(CliError::failure(format!(
            "no artifact series under {dir} aligned into a trajectory"
        )));
    }
    Ok(())
}

fn cmd_history_check(args: &[String]) -> CliResult {
    let mut new_path: Option<&str> = None;
    let mut baseline_path: Option<&str> = None;
    let mut policy = history::RegressionPolicy::default();
    let mut options = Options::new(args);
    while let Some(arg) = options.next() {
        match arg {
            "--baseline" | "-b" => baseline_path = Some(options.value_for("--baseline")?),
            "--max-regress" => {
                policy.max_regress =
                    parse_fraction(options.value_for("--max-regress")?, "--max-regress")?
            }
            "--exact-abs" => {
                policy.exact_abs = parse_fraction(options.value_for("--exact-abs")?, "--exact-abs")?
            }
            "--help" | "-h" => {
                outln!("{HISTORY_USAGE}")?;
                return Ok(());
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::usage(format!("check: unknown argument `{flag}`")))
            }
            path if new_path.is_none() => new_path = Some(path),
            other => {
                return Err(CliError::usage(format!(
                    "check takes one new artifact path, got a second: `{other}`"
                )))
            }
        }
    }
    let new_path = new_path.ok_or_else(|| CliError::usage("check needs a new artifact path"))?;
    let baseline_path =
        baseline_path.ok_or_else(|| CliError::usage("check needs --baseline <path>"))?;
    let new = read_artifact(new_path)?;
    let baseline = read_artifact(baseline_path)?;
    let report = history::check(&baseline, &new, &policy)
        .map_err(|e| CliError::failure(format!("artifacts do not align: {e}")))?;
    if report.passed() {
        outln!("OK: {new_path} vs {baseline_path}: {report}")?;
        Ok(())
    } else {
        Err(CliError::failure(format!(
            "{new_path} regressed against {baseline_path}: {report}"
        )))
    }
}
