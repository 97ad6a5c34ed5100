//! Run artifacts: the persisted outcome of executing an [`ExperimentSpec`],
//! plus golden-snapshot diffing.
//!
//! A [`RunArtifact`] bundles the spec that produced it (so an artifact is
//! re-runnable and self-describing), an [`EnvStamp`], the rendered chart data,
//! aggregate DP statistics and — for the CLI `solve` / `sweep` paths — the raw
//! [`SolveReport`]s. Artifacts are JSON documents; [`diff`] compares a fresh
//! artifact against a committed golden within [`Tolerances`], treating
//! wall-clock *timing* charts structurally (same shape, positive values) since
//! their values are machine-dependent.
//!
//! Everything the artifact stores apart from the explicitly-flagged timing
//! charts is deterministic: running the same spec twice yields byte-identical
//! JSON for cost-based experiments.

use crate::chart::Chart;
use crate::spec::ExperimentSpec;
use serde::{Deserialize, Serialize};
use soar_core::api::{DpStats, SolveReport};

/// Where the artifact was produced. Deliberately excludes timestamps and
/// hostnames so that re-running a spec on the same toolchain yields
/// byte-identical artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvStamp {
    /// Version of the workspace that produced the artifact.
    pub package_version: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Worker threads of the solve pool at run time.
    pub pool_threads: usize,
}

impl EnvStamp {
    /// Captures the current environment.
    pub fn current() -> Self {
        EnvStamp {
            package_version: env!("CARGO_PKG_VERSION").to_owned(),
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            pool_threads: soar_pool::global().threads(),
        }
    }
}

/// The persisted outcome of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunArtifact {
    /// Schema version (mirrors [`crate::spec::SPEC_VERSION`]).
    pub format_version: u32,
    /// The spec that produced this artifact, verbatim.
    pub spec: ExperimentSpec,
    /// Environment stamp of the producing run.
    pub env: EnvStamp,
    /// The chart data (one entry per rendered sub-figure).
    pub charts: Vec<Chart>,
    /// Indices into `charts` whose y values are wall-clock timings
    /// (machine-dependent; golden diffs check them structurally).
    #[serde(default)]
    pub timing_charts: Vec<usize>,
    /// Aggregate DP statistics of the largest SOAR gather of the run, with the
    /// workspace-lifetime counters (`arena_peak_bytes`, `alloc_events`) zeroed:
    /// those depend on scheduling history, not on the spec, and are tracked by
    /// the gather microbench instead.
    pub dp: Option<DpStats>,
    /// Raw per-solve reports. Populated by the CLI `solve` / `sweep` artifacts
    /// and by small single-scenario experiments; grid experiments leave it
    /// empty (their aggregate lives in `charts`).
    #[serde(default)]
    pub reports: Vec<SolveReport>,
}

/// Canonicalizes DP statistics for storage in an artifact: the
/// workspace-lifetime counters (`arena_peak_bytes`, `alloc_events`,
/// `cells_written`) depend on scheduling / warm-up history rather than on the
/// spec, and [`diff`] compares `dp` exactly, so they are zeroed before
/// persisting. (The dynamic-churn experiments chart their per-epoch cell
/// writes explicitly instead.)
pub fn canonical_dp(mut dp: DpStats) -> DpStats {
    dp.arena_peak_bytes = 0;
    dp.alloc_events = 0;
    dp.cells_written = 0;
    // The kernel is selectable per workspace and the pruning counter follows
    // it — normalize both so a forced kernel can never dirty a golden
    // artifact. The default kernel is also what goldens without a `kernel`
    // key parse to, so those still compare equal.
    dp.kernel = soar_core::DpKernel::default();
    dp.pruned_splits = 0;
    dp
}

impl RunArtifact {
    /// Assembles an artifact around a spec and its rendered charts. The DP
    /// statistics are canonicalized (see [`canonical_dp`]) so that artifacts
    /// diff cleanly across machines and pool configurations.
    pub fn new(spec: ExperimentSpec, charts: Vec<Chart>, dp: Option<DpStats>) -> Self {
        let timing_charts = spec.timing_chart_indices();
        RunArtifact {
            format_version: crate::spec::SPEC_VERSION,
            spec,
            env: EnvStamp::current(),
            charts,
            timing_charts,
            dp: dp.map(canonical_dp),
            reports: Vec::new(),
        }
    }

    /// Serializes the artifact as pretty-printed JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        let mut out = serde_json::to_string_pretty(self).expect("artifacts always serialize");
        out.push('\n');
        out
    }

    /// Parses an artifact from its JSON document.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

/// Per-value tolerances for golden diffs.
///
/// A value passes when `|new - golden| <= abs + rel * |golden|`. Timing charts
/// ignore both bounds: their values are checked for shape and positivity only
/// (pass `timing_rel` to additionally bound their relative drift, e.g. for
/// same-machine perf tracking).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerances {
    /// Relative tolerance on non-timing values.
    pub rel: f64,
    /// Absolute tolerance on non-timing values.
    pub abs: f64,
    /// Optional relative bound on timing values (`None` = structural only).
    pub timing_rel: Option<f64>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            rel: 1e-9,
            abs: 1e-12,
            timing_rel: None,
        }
    }
}

impl Tolerances {
    /// Exact comparison (zero tolerance) on non-timing values.
    pub fn exact() -> Self {
        Tolerances {
            rel: 0.0,
            abs: 0.0,
            timing_rel: None,
        }
    }
}

/// The outcome of a golden diff: an empty mismatch list means the artifact is
/// within tolerance of the golden.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Human-readable mismatch descriptions, one per deviation.
    pub mismatches: Vec<String>,
}

impl DiffReport {
    /// `true` when nothing deviated.
    pub fn is_match(&self) -> bool {
        self.mismatches.is_empty()
    }

    fn push(&mut self, message: String) {
        self.mismatches.push(message);
    }
}

impl std::fmt::Display for DiffReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_match() {
            write!(f, "artifacts match")
        } else {
            writeln!(f, "{} mismatch(es):", self.mismatches.len())?;
            for m in &self.mismatches {
                writeln!(f, "  - {m}")?;
            }
            Ok(())
        }
    }
}

/// Compares a freshly-produced artifact against a committed golden.
///
/// Structure (spec identity, chart titles, series labels, x grids) must match
/// exactly; y values must match within `tol`; timing charts are checked
/// structurally (finite, non-negative) unless `tol.timing_rel` bounds them.
pub fn diff(golden: &RunArtifact, new: &RunArtifact, tol: &Tolerances) -> DiffReport {
    let mut report = DiffReport::default();
    if golden.format_version != new.format_version {
        report.push(format!(
            "format version changed: golden {} vs new {}",
            golden.format_version, new.format_version
        ));
        return report;
    }
    if golden.spec.name != new.spec.name {
        report.push(format!(
            "spec name changed: golden `{}` vs new `{}`",
            golden.spec.name, new.spec.name
        ));
        return report;
    }
    if golden.spec != new.spec {
        report.push("spec body changed (same name, different parameters)".to_owned());
    }
    if golden.charts.len() != new.charts.len() {
        report.push(format!(
            "chart count changed: golden {} vs new {}",
            golden.charts.len(),
            new.charts.len()
        ));
        return report;
    }
    for (idx, (g, n)) in golden.charts.iter().zip(&new.charts).enumerate() {
        let timing = golden.timing_charts.contains(&idx);
        diff_chart(idx, g, n, timing, tol, &mut report);
    }
    match (&golden.dp, &new.dp) {
        (Some(g), Some(n)) if g != n => {
            report.push(format!("dp stats changed: golden {g:?} vs new {n:?}"));
        }
        (Some(_), None) => report.push("dp stats disappeared".to_owned()),
        (None, Some(_)) => report.push("dp stats appeared (golden has none)".to_owned()),
        _ => {}
    }
    report
}

fn diff_chart(
    idx: usize,
    golden: &Chart,
    new: &Chart,
    timing: bool,
    tol: &Tolerances,
    report: &mut DiffReport,
) {
    if golden.title != new.title {
        report.push(format!(
            "chart {idx}: title changed: `{}` vs `{}`",
            golden.title, new.title
        ));
        return;
    }
    if golden.series.len() != new.series.len() {
        report.push(format!(
            "chart `{}`: series count changed: {} vs {}",
            golden.title,
            golden.series.len(),
            new.series.len()
        ));
        return;
    }
    for (g, n) in golden.series.iter().zip(&new.series) {
        if g.label != n.label {
            report.push(format!(
                "chart `{}`: series label changed: `{}` vs `{}`",
                golden.title, g.label, n.label
            ));
            continue;
        }
        if g.points.len() != n.points.len() {
            report.push(format!(
                "chart `{}` series `{}`: point count changed: {} vs {}",
                golden.title,
                g.label,
                g.points.len(),
                n.points.len()
            ));
            continue;
        }
        for (&(gx, gy), &(nx, ny)) in g.points.iter().zip(&n.points) {
            if (gx - nx).abs() > 1e-9 {
                report.push(format!(
                    "chart `{}` series `{}`: x grid moved ({gx} vs {nx})",
                    golden.title, g.label
                ));
                continue;
            }
            if timing {
                if !ny.is_finite() || ny < 0.0 {
                    report.push(format!(
                        "chart `{}` series `{}` at x = {gx}: timing value {ny} is not a \
                         non-negative finite number",
                        golden.title, g.label
                    ));
                } else if let Some(rel) = tol.timing_rel {
                    if (ny - gy).abs() > rel * gy.abs() {
                        report.push(format!(
                            "chart `{}` series `{}` at x = {gx}: timing drift {ny} vs {gy} \
                             exceeds rel {rel}",
                            golden.title, g.label
                        ));
                    }
                }
            } else if (ny - gy).abs() > tol.abs + tol.rel * gy.abs() {
                report.push(format!(
                    "chart `{}` series `{}` at x = {gx}: {ny} vs golden {gy} \
                     (|Δ| = {:.3e} > abs {} + rel {} · |golden|)",
                    golden.title,
                    g.label,
                    (ny - gy).abs(),
                    tol.abs,
                    tol.rel
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chart::Series;
    use crate::spec::{ExperimentKind, ScenarioSpec};

    fn tiny_artifact(y: f64) -> RunArtifact {
        let spec = ExperimentSpec::new(
            "tiny",
            "tiny test artifact",
            1,
            ExperimentKind::SolverComparison {
                title: "tiny".into(),
                scenario: ScenarioSpec::sf(16, 0),
                budget: 1,
                solvers: vec!["soar".into()],
                include_all_red: false,
            },
        );
        let mut chart = Chart::new("tiny", "k", "cost");
        let mut series = Series::new("SOAR");
        series.push(1.0, y);
        chart.push(series);
        RunArtifact::new(spec, vec![chart], None)
    }

    #[test]
    fn identical_artifacts_match() {
        let a = tiny_artifact(5.0);
        assert!(diff(&a, &a, &Tolerances::default()).is_match());
        assert!(diff(&a, &a, &Tolerances::exact()).is_match());
    }

    #[test]
    fn value_drift_is_caught_and_tolerated() {
        let golden = tiny_artifact(5.0);
        let drifted = tiny_artifact(5.0 + 1e-6);
        assert!(!diff(&golden, &drifted, &Tolerances::default()).is_match());
        let loose = Tolerances {
            rel: 1e-3,
            abs: 0.0,
            timing_rel: None,
        };
        assert!(diff(&golden, &drifted, &loose).is_match());
    }

    #[test]
    fn structural_changes_are_caught() {
        let golden = tiny_artifact(5.0);
        let mut renamed = tiny_artifact(5.0);
        renamed.charts[0].series[0].label = "Other".into();
        assert!(!diff(&golden, &renamed, &Tolerances::default()).is_match());

        let mut extra = tiny_artifact(5.0);
        extra.charts.push(Chart::new("extra", "x", "y"));
        let report = diff(&golden, &extra, &Tolerances::default());
        assert!(report.to_string().contains("chart count changed"));
    }

    #[test]
    fn timing_charts_compare_structurally() {
        let mut golden = tiny_artifact(0.010);
        golden.timing_charts = vec![0];
        let mut faster = tiny_artifact(0.002);
        faster.timing_charts = vec![0];
        // 5x timing drift passes a structural check...
        assert!(diff(&golden, &faster, &Tolerances::default()).is_match());
        // ...but a negative timing never does.
        let mut negative = tiny_artifact(-1.0);
        negative.timing_charts = vec![0];
        assert!(!diff(&golden, &negative, &Tolerances::default()).is_match());
        // And an explicit timing_rel bounds the drift.
        let bounded = Tolerances {
            timing_rel: Some(0.5),
            ..Tolerances::default()
        };
        assert!(!diff(&golden, &faster, &bounded).is_match());
    }

    #[test]
    fn artifacts_round_trip_through_json() {
        let artifact = tiny_artifact(5.0);
        let json = artifact.to_json();
        let parsed = RunArtifact::from_json(&json).unwrap();
        assert_eq!(parsed, artifact);
        assert!(RunArtifact::from_json("not json").is_err());
    }
}
