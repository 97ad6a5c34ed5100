//! End-to-end benchmark of the `soar` CLI and daemon.
//!
//! ```text
//! soar-e2ebench --soar PATH --bench-dir DIR --work-dir DIR
//!               --workload NAME --seed N --seconds S --trace 0|1
//! soar-e2ebench --soar PATH --bench-dir DIR --work-dir DIR pin
//! ```
//!
//! Workloads: `cli-solve` and `serve-churn` (see the README next
//! to this package). The program under test is reached only through the
//! `soar` binary and public library APIs. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The exit code is 0 only when every output checked correct.

mod child;
mod cli;
mod serve;
mod stats;
mod sys;
mod verify;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: every workload reports every one (`--trace 0`).
/// `main_*` is the workload's headline request, `side_*` its other one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("main_p50_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("main_side_ratio", "ratio"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`). A layer the workload does not run
/// reports 0. The `run.*` entries are whole-run figures that move too much
/// between runs on a shared host to be gated: the tails, the highest rate
/// that meets the latency limit, and peak memory.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("run.main_tail_ms", "ms"),
    ("run.side_tail_ms", "ms"),
    ("run.max_rate_rps", "req/s"),
    ("run.peak_rss_mb", "MB"),
    ("cli.read_ms", "ms"),
    ("cli.parse_ms", "ms"),
    ("cli.parse_mb_per_s", "MB/s"),
    ("cli.build_ms", "ms"),
    ("cli.pool_spawn_ms", "ms"),
    ("cli.gather_cold_ms", "ms"),
    ("cli.gather_warm_ms", "ms"),
    ("cli.traceback_ms", "ms"),
    ("cli.serialize_ms", "ms"),
    ("cli.write_ms", "ms"),
    ("cli.replay_ms", "ms"),
    ("cli.parse_share", "ratio"),
    ("cli.process_ms", "ms"),
    ("cli.coverage", "ratio"),
    ("cli.cells_written", "count"),
    ("cli.table_kb", "kB"),
    ("cli.pruned_splits", "count"),
    ("cli.alloc_events", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.req_bytes", "bytes"),
    ("serve.churn_p50_ms", "ms"),
    ("serve.churn_tail_ms", "ms"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_tail_us", "us"),
    ("serve.batch_form_p50_us", "us"),
    ("serve.wal_append_p50_us", "us"),
    ("serve.wal_append_tail_us", "us"),
    ("serve.wal_bytes_per_event", "bytes"),
    ("serve.server_solve_p50_ms", "ms"),
    ("serve.server_solve_tail_ms", "ms"),
    ("serve.cells_per_solve", "count"),
    ("serve.server_churn_p50_us", "us"),
    ("serve.alloc_events", "count"),
    ("serve.sheds", "count"),
    ("serve.io_errors", "count"),
    ("serve.register_ms", "ms"),
    ("serve.offline_apply_us", "us"),
    ("serve.offline_solve_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Where the harness finds the program and keeps its files.
pub struct Env {
    /// The `soar` binary under test.
    pub soar: PathBuf,
    /// The benchmark's own directory (pinned reference costs).
    pub bench_dir: PathBuf,
    /// A private scratch directory for this run.
    pub work: PathBuf,
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`, which must be listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }
}

/// What one run measured and checked.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Renders the result line. End-to-end metrics must all be present; a
/// per-layer metric the workload does not exercise reads 0.
fn render(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let (names, required) = if traced {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = match outcome.metrics.0.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

/// A finite f64 as JSON, with every digit of its shortest round-trip form
/// (Rust's `Debug` output of a finite f64 is a valid JSON number).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

struct Args {
    soar: PathBuf,
    bench_dir: PathBuf,
    work: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut soar = None;
    let mut bench_dir = None;
    let mut work = None;
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut pin = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--soar" => soar = Some(PathBuf::from(value()?)),
            "--bench-dir" => bench_dir = Some(PathBuf::from(value()?)),
            "--work-dir" => work = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "pin" => pin = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        soar: soar.ok_or("--soar is required")?,
        bench_dir: bench_dir.ok_or("--bench-dir is required")?,
        work: work.ok_or("--work-dir is required")?,
        workload,
        seed,
        seconds,
        trace,
        pin,
    })
}

fn main() {
    let result = parse_args().and_then(|args| {
        let env = Env {
            soar: args.soar,
            bench_dir: args.bench_dir,
            work: args.work,
        };
        std::fs::create_dir_all(&env.work).map_err(|e| format!("{}: {e}", env.work.display()))?;
        if args.pin {
            print!("{}", cli::pin(&env)?);
            return Ok(());
        }
        let outcome = match args.workload.as_deref() {
            Some("cli-solve") => cli::run(&env, args.seed, args.seconds, args.trace)?,
            Some("serve-churn") => serve::run(
                &env,
                &serve::SERVE_CHURN,
                args.seed,
                args.seconds,
                args.trace,
            )?,
            Some(other) => return Err(format!("unknown workload {other}")),
            None => return Err("--workload is required".into()),
        };
        println!("{}", render(&outcome, args.trace)?);
        if outcome.correct {
            Ok(())
        } else {
            Err(format!(
                "{} of {} checks failed",
                outcome.failed, outcome.attempted
            ))
        }
    });
    if let Err(e) = result {
        eprintln!("soar-e2ebench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn render_requires_every_end_to_end_metric() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Metrics::default(),
        };
        assert!(render(&outcome, false).is_err());
        for (name, _) in END_TO_END {
            outcome.metrics.set(name, 1.25);
        }
        let line = render(&outcome, false).expect("complete");
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(render(&outcome, true)
            .expect("layers default to 0")
            .contains("cli.parse_ms"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(1e300), "1e300");
        assert_eq!(json_number(2.0), "2.0");
    }
}
