//! `cli-solve`: the one-shot user path, `soar solve --in FILE --out REPORT`,
//! run as a closed loop of subprocesses on 16-ary power-law trees of 1024
//! and 4096 switches (budget 16), alternating sizes.
//!
//! The traced run replays `cmd_solve`'s calls in process, one public call per
//! layer: read → parse → build → pool → cold gather → traceback → serialize →
//! write, with a fresh `SolverWorkspace` per replay.

use crate::child::{run_timed, RunResult};
use crate::stats::{median, tail};
use crate::verify::check_report;
use crate::{Env, Metrics, Outcome};
use serde::Deserialize as _;
use soar_core::api::{DpStats, Instance, SolveReport};
use soar_core::workspace::SolverWorkspace;
use soar_core::Solution;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Switch counts of the two instance files: below and above
/// `PARALLEL_GATHER_MIN_SWITCHES`, so the pair covers both the sequential and the pool gather.
pub const SIZES: [usize; 2] = [1024, 4096];
const ARITY: usize = 16;
const BUDGET: usize = 16;
/// Instance seeds with a pinned reference cost; `--seed` picks one modulo this.
pub const PINNED_SEEDS: u64 = 32;
/// Fewest measured rounds (one solve of each size, and in the traced run one
/// traced and one plain replay) per run.
const MIN_ROUNDS: usize = 3;

/// The reference costs, `pinned[size index][instance seed]`.
pub type Pinned = [Vec<f64>; 2];

/// Reads the pinned reference costs (`pinned_costs.json`).
pub fn load_pinned(bench_dir: &Path) -> Result<Pinned, String> {
    let path = bench_dir.join("pinned_costs.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let costs = |size: usize| -> Result<Vec<f64>, String> {
        let list: Vec<f64> = serde::field(&value, &size.to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if list.len() as u64 != PINNED_SEEDS {
            return Err(format!(
                "{}: {size} has {} costs, want {PINNED_SEEDS}",
                path.display(),
                list.len()
            ));
        }
        Ok(list)
    };
    Ok([costs(SIZES[0])?, costs(SIZES[1])?])
}

fn soar(env: &Env) -> Command {
    let mut cmd = Command::new(&env.soar);
    cmd.stderr(std::process::Stdio::null());
    cmd
}

/// Mints the instance file of `switches` switches for `instance_seed`.
pub fn mint(env: &Env, switches: usize, instance_seed: u64, out: &Path) -> Result<(), String> {
    let result = run_timed(
        soar(env)
            .args([
                "instance",
                "--topology",
                "kary",
                "--arity",
                &ARITY.to_string(),
                "--switches",
                &switches.to_string(),
                "--load",
                "power-law",
                "--budget",
                &BUDGET.to_string(),
                "--seed",
                &instance_seed.to_string(),
                "--out",
            ])
            .arg(out),
    )
    .map_err(|e| format!("soar instance: {e}"))?;
    if result.exit_code != Some(0) {
        return Err(format!("soar instance exited with {:?}", result.exit_code));
    }
    Ok(())
}

/// One `soar solve --in input --out report` subprocess.
pub fn solve(env: &Env, input: &Path, report: &Path) -> Result<RunResult, String> {
    run_timed(
        soar(env)
            .arg("solve")
            .arg("--in")
            .arg(input)
            .arg("--out")
            .arg(report),
    )
    .map_err(|e| format!("soar solve: {e}"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct SolveRun {
    size: usize,
    result: RunResult,
    report: PathBuf,
}

pub fn run(env: &Env, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let pinned = load_pinned(&env.bench_dir)?;
    let instance_seed = seed % PINNED_SEEDS;
    let inputs: Vec<PathBuf> = SIZES
        .iter()
        .map(|n| env.work.join(format!("k16-{n}.json")))
        .collect();

    // Set-up is minting both files. It is repeated before every round, so
    // `setup_s`, the median, spans the run: the host's speed swings by up
    // to 2× within ten seconds, and repeats back to back all see one speed.
    let mut setup = Vec::new();
    let mut set_up = || -> Result<(), String> {
        let t0 = Instant::now();
        for (size, input) in SIZES.iter().zip(&inputs) {
            mint(env, *size, instance_seed, input)?;
        }
        setup.push(t0.elapsed().as_secs_f64());
        Ok(())
    };
    set_up()?;

    // One untimed solve pages the binary and the inputs in.
    solve(env, &inputs[0], &env.work.join("warmup-report.json"))?;

    let mut runs: Vec<SolveRun> = Vec::new();
    let mut replays = Replays::default();
    let replay_out = env.work.join("replay-report.json");
    let large_pin = pinned[1][instance_seed as usize];
    let t0 = Instant::now();
    while runs.len() < 2 * MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        set_up()?;
        for (size, input) in inputs.iter().enumerate() {
            let report = env.work.join(format!("report-{}.json", runs.len()));
            let result = solve(env, input, &report)?;
            runs.push(SolveRun {
                size,
                result,
                report,
            });
        }
        // Interleaved with the subprocesses, so both see the same host.
        if traced {
            replays.run(&inputs[1], &replay_out, large_pin)?;
        }
    }
    let loop_secs = t0.elapsed().as_secs_f64();

    // Verification, after the window.
    let instances: Vec<Instance> = inputs
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path:?}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("{path:?}: {e}"))
        })
        .collect::<Result<_, String>>()?;
    let mut failed = 0u64;
    for run in &runs {
        let pin = pinned[run.size][instance_seed as usize];
        let verdict = if run.result.exit_code != Some(0) {
            Err(format!("soar solve exited with {:?}", run.result.exit_code))
        } else {
            std::fs::read_to_string(&run.report)
                .map_err(|e| format!("{:?}: {e}", run.report))
                .and_then(|json| check_report(&json, &instances[run.size], pin))
        };
        if let Err(e) = verdict {
            eprintln!("cli-solve: {}: {e}", run.report.display());
            failed += 1;
        }
    }

    let walls = |size: usize| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.size == size)
            .map(|r| ms(r.result.wall))
            .collect()
    };
    let (small, large) = (walls(0), walls(1));
    let mut metrics = Metrics::default();
    let attempted = (runs.len() + 2 * replays.traced.len()) as u64;
    failed += replays.wrong;
    if traced {
        metrics.set("run.main_tail_ms", tail(&large).0);
        metrics.set("run.side_tail_ms", tail(&small).0);
        metrics.set("run.max_rate_rps", runs.len() as f64 / loop_secs);
        let rss: Vec<f64> = runs
            .iter()
            .filter(|r| r.size == 1)
            .map(|r| r.result.max_rss_kb as f64 / 1024.0)
            .collect();
        metrics.set("run.peak_rss_mb", median(&rss));
        replays.set_metrics(median(&large), &mut metrics);
    } else {
        metrics.set("setup_s", median(&setup));
        metrics.set("main_p50_ms", median(&large));
        metrics.set("side_p50_ms", median(&small));
        metrics.set("main_side_ratio", median(&large) / median(&small));
        metrics.set("ok_share", 1.0 - failed as f64 / attempted as f64);
    }
    eprintln!(
        "cli-solve: {} solves of {} and {} of {} switches, {failed} failed",
        large.len(),
        SIZES[1],
        small.len(),
        SIZES[0],
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Per-layer wall times of one traced replay, ms.
#[derive(Default)]
struct Layers {
    read: f64,
    parse: f64,
    build: f64,
    pool: f64,
    gather_cold: f64,
    traceback: f64,
    serialize: f64,
    write: f64,
    /// Read through write.
    wall: f64,
    /// A second gather on the same workspace, outside `wall`.
    gather_warm: f64,
    bytes: usize,
    stats: Option<DpStats>,
    cost: f64,
}

impl Layers {
    fn sum(&self) -> f64 {
        self.read
            + self.parse
            + self.build
            + self.pool
            + self.gather_cold
            + self.traceback
            + self.serialize
            + self.write
    }
}

fn report_json(instance: &Instance, ws: &SolverWorkspace, cost: f64, wall: Duration) -> String {
    let solution = Solution {
        blue_used: ws.coloring().n_blue(),
        cost,
        coloring: ws.coloring().clone(),
        budget: instance.budget(),
    };
    let report = SolveReport::new(
        "soar",
        instance,
        solution,
        wall,
        Some(DpStats::from_workspace(ws)),
    );
    serde_json::to_string_pretty(&report).expect("a report serializes") + "\n"
}

/// `cmd_solve`'s calls with a clock read between every two layers.
fn replay_traced(input: &Path, out: &Path) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let t0 = Instant::now();
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input:?}: {e}"))?;
    let t1 = Instant::now();
    let value = serde_json::parse_value(&text).map_err(|e| format!("{input:?}: {e}"))?;
    let t2 = Instant::now();
    let instance = Instance::from_value(&value).map_err(|e| format!("{input:?}: {e}"))?;
    let t3 = Instant::now();
    std::hint::black_box(soar_pool::global());
    let t4 = Instant::now();
    let mut ws = SolverWorkspace::new();
    ws.gather_auto(instance.tree(), instance.budget());
    let t5 = Instant::now();
    let (cost, _) = ws.trace_best(instance.tree());
    let t6 = Instant::now();
    let json = report_json(&instance, &ws, cost, t6 - t4);
    let t7 = Instant::now();
    std::fs::write(out, json).map_err(|e| format!("{out:?}: {e}"))?;
    let t8 = Instant::now();
    // The stats of the cold gather, read before the warm one runs.
    layers.stats = Some(DpStats::from_workspace(&ws));
    let t9 = Instant::now();
    ws.gather_auto(instance.tree(), instance.budget());
    layers.gather_warm = ms(t9.elapsed());
    layers.read = ms(t1 - t0);
    layers.parse = ms(t2 - t1);
    layers.build = ms(t3 - t2);
    layers.pool = ms(t4 - t3);
    layers.gather_cold = ms(t5 - t4);
    layers.traceback = ms(t6 - t5);
    layers.serialize = ms(t7 - t6);
    layers.write = ms(t8 - t7);
    layers.wall = ms(t8 - t0);
    layers.bytes = text.len();
    layers.cost = cost;
    Ok(layers)
}

/// The same calls as [`replay_traced`] with only the outer clock reads.
fn replay_plain(input: &Path, out: &Path) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string(input).map_err(|e| format!("{input:?}: {e}"))?;
    let value = serde_json::parse_value(&text).map_err(|e| format!("{input:?}: {e}"))?;
    let instance = Instance::from_value(&value).map_err(|e| format!("{input:?}: {e}"))?;
    std::hint::black_box(soar_pool::global());
    let mut ws = SolverWorkspace::new();
    let solve_start = Instant::now();
    ws.gather_auto(instance.tree(), instance.budget());
    let (cost, _) = ws.trace_best(instance.tree());
    let json = report_json(&instance, &ws, cost, solve_start.elapsed());
    std::fs::write(out, json).map_err(|e| format!("{out:?}: {e}"))?;
    Ok((ms(t0.elapsed()), cost))
}

/// In-process replays of the 4096-switch file, each traced one followed by a
/// plain one.
#[derive(Default)]
struct Replays {
    traced: Vec<Layers>,
    /// Wall times of the plain replays, ms.
    plain: Vec<f64>,
    /// Replays whose cost missed the pin.
    wrong: u64,
}

impl Replays {
    fn run(&mut self, input: &Path, out: &Path, pinned: f64) -> Result<(), String> {
        let layers = replay_traced(input, out)?;
        let (wall, cost) = replay_plain(input, out)?;
        self.wrong += u64::from(layers.cost.to_bits() != pinned.to_bits());
        self.wrong += u64::from(cost.to_bits() != pinned.to_bits());
        self.traced.push(layers);
        self.plain.push(wall);
        Ok(())
    }

    /// Fills the `cli.*` layer metrics; `subprocess_ms` is the median wall
    /// time of the 4096 `soar solve` subprocesses.
    fn set_metrics(&self, subprocess_ms: f64, metrics: &mut Metrics) {
        let traced = &self.traced;
        let of = |f: fn(&Layers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let wall = of(|l| l.wall);
        let plain = median(&self.plain);
        let parse = of(|l| l.parse);
        let stats = traced[0].stats.expect("a traced replay records its stats");
        metrics.set("cli.read_ms", of(|l| l.read));
        metrics.set("cli.parse_ms", parse);
        metrics.set(
            "cli.parse_mb_per_s",
            traced[0].bytes as f64 / 1e6 / (parse / 1e3),
        );
        metrics.set("cli.build_ms", of(|l| l.build));
        // The first replay of the process spawns the pool; later ones look it
        // up.
        metrics.set("cli.pool_spawn_ms", traced[0].pool);
        metrics.set("cli.gather_cold_ms", of(|l| l.gather_cold));
        metrics.set("cli.gather_warm_ms", of(|l| l.gather_warm));
        metrics.set("cli.traceback_ms", of(|l| l.traceback));
        metrics.set("cli.serialize_ms", of(|l| l.serialize));
        metrics.set("cli.write_ms", of(|l| l.write));
        metrics.set("cli.replay_ms", wall);
        metrics.set("cli.parse_share", parse / wall);
        metrics.set("cli.process_ms", subprocess_ms - plain);
        // The layers, each timed on its own, against the whole timed without
        // the clock reads between them.
        metrics.set("cli.coverage", of(Layers::sum) / plain);
        metrics.set("cli.cells_written", stats.cells_written as f64);
        metrics.set("cli.table_kb", stats.table_bytes as f64 / 1024.0);
        metrics.set("cli.pruned_splits", stats.pruned_splits as f64);
        metrics.set("cli.alloc_events", stats.alloc_events as f64);
        metrics.set("trace.overhead_ms", wall - plain);
    }
}

/// Mints every pinned instance seed at both sizes, solves each with the
/// `soar` binary and returns the `pinned_costs.json` document.
pub fn pin(env: &Env) -> Result<String, String> {
    let mut doc = String::from("{\n");
    for (i, size) in SIZES.iter().enumerate() {
        let mut costs = Vec::new();
        for instance_seed in 0..PINNED_SEEDS {
            let input = env.work.join("pin-instance.json");
            let report = env.work.join("pin-report.json");
            mint(env, *size, instance_seed, &input)?;
            let result = solve(env, &input, &report)?;
            if result.exit_code != Some(0) {
                return Err(format!("soar solve exited with {:?}", result.exit_code));
            }
            let json = std::fs::read_to_string(&report).map_err(|e| e.to_string())?;
            let report: SolveReport = serde_json::from_str(&json).map_err(|e| e.to_string())?;
            costs.push(format!("{:?}", report.solution.cost));
        }
        let sep = if i + 1 < SIZES.len() { "," } else { "" };
        doc += &format!("  \"{size}\": [{}]{sep}\n", costs.join(", "));
    }
    doc += "}\n";
    Ok(doc)
}
