//! The CI gate: current chaos accounting vs checked-in baselines.
//!
//! `smst-analyze check --baseline ci/baselines/ --current <dir>` ingests
//! both directories and compares chaos accounting (`smst-chaos-v1`). It is
//! logical — steps, waves, fault counts under the barrier-synchronized
//! engine — so the deterministic summary fields are compared **exactly**:
//! a changed `detected_waves` is a behavioral change, not noise. Timing is
//! not gated here; the repository benchmark (`BENCHMARK.json`) holds it.
//!
//! A baseline run missing from the current side is a failure, and so is a
//! gate that compared no run at all: a gate that compares nothing must
//! not pass. A run present only on the current side is a *warning* — PRs
//! add runs routinely; re-seed the baselines to gate it. Corrupt or
//! unreadable artifacts on either side are hard errors: a gate that skips
//! what it cannot read is not a gate.

use crate::ingest::{ingest_dir, Artifact, IngestError};
use smst_telemetry::ChaosRun;
use std::fmt::Write as _;
use std::path::Path;

/// One deterministic chaos field that changed.
#[derive(Debug, Clone)]
pub struct ChaosMismatch {
    /// `group/label` of the run.
    pub run: String,
    /// The field that differs.
    pub field: &'static str,
    /// The baseline value, rendered.
    pub baseline: String,
    /// The current value, rendered.
    pub current: String,
}

/// Everything the gate found.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Baseline runs found on the current side and compared.
    pub compared: usize,
    /// Exact-compare failures in chaos accounting.
    pub chaos_mismatches: Vec<ChaosMismatch>,
    /// `group/label` of each baseline run the current side lacks.
    pub missing: Vec<String>,
    /// Non-fatal observations: new runs, ignored artifact kinds.
    pub warnings: Vec<String>,
}

impl CheckReport {
    /// `true` when some run was compared, none is missing and no chaos
    /// field changed.
    pub fn passed(&self) -> bool {
        self.compared > 0 && self.missing.is_empty() && self.chaos_mismatches.is_empty()
    }

    /// Human-readable gate output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.chaos_mismatches {
            let _ = writeln!(
                out,
                "  CHANGED    {}: {} was {}, now {}",
                m.run, m.field, m.baseline, m.current
            );
        }
        for run in &self.missing {
            let _ = writeln!(
                out,
                "  MISSING    chaos run {run:?} is in the baseline but not the current run"
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "  warning: {w}");
        }
        let _ = writeln!(
            out,
            "{} chaos runs compared, {} mismatches, {} missing, {} warnings",
            self.compared,
            self.chaos_mismatches.len(),
            self.missing.len(),
            self.warnings.len()
        );
        out
    }
}

/// Why the gate could not run at all (distinct from a failing gate).
#[derive(Debug)]
pub enum CheckError {
    /// A directory could not be scanned.
    Scan(std::path::PathBuf, std::io::Error),
    /// An artifact on either side failed to ingest.
    Ingest(IngestError),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Scan(p, e) => write!(f, "scanning {}: {e}", p.display()),
            CheckError::Ingest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Every chaos run in one directory, keyed `group/label` for matching.
fn load_side(
    dir: &Path,
    warnings: &mut Vec<String>,
    tag: &str,
) -> Result<Vec<(String, ChaosRun)>, CheckError> {
    let mut runs = Vec::new();
    for (path, result) in ingest_dir(dir).map_err(|e| CheckError::Scan(dir.to_path_buf(), e))? {
        match result.map_err(CheckError::Ingest)? {
            Artifact::Chaos(doc) => {
                for run in doc.runs() {
                    runs.push((format!("{}/{}", doc.group(), run.label), run.clone()));
                }
            }
            // rounds, campaigns, traces, flight dumps, and accounting
            // analyses have no stable comparison semantics — rounds carry
            // wall time, campaigns search, traces sample, flights only
            // exist after a failure
            other => warnings.push(format!(
                "{tag} {}: {} — not gated, ignored",
                path.display(),
                other.describe()
            )),
        }
    }
    Ok(runs)
}

/// Runs the gate: every baseline run is looked up in `current` and its
/// deterministic fields compared exactly.
pub fn check_dirs(baseline_dir: &Path, current_dir: &Path) -> Result<CheckReport, CheckError> {
    let mut report = CheckReport::default();
    let base = load_side(baseline_dir, &mut report.warnings, "baseline")?;
    let cur = load_side(current_dir, &mut report.warnings, "current")?;

    for (key, b) in &base {
        match cur.iter().find(|(k, _)| k == key) {
            Some((_, c)) => {
                report.compared += 1;
                compare_chaos(key, b, c, &mut report.chaos_mismatches);
            }
            None => report.missing.push(key.clone()),
        }
    }
    for (key, _) in &cur {
        if !base.iter().any(|(k, _)| k == key) {
            report.warnings.push(format!(
                "chaos run {key:?} is new (no baseline); re-seed ci/baselines/ to gate it"
            ));
        }
    }

    Ok(report)
}

fn compare_chaos(key: &str, base: &ChaosRun, cur: &ChaosRun, out: &mut Vec<ChaosMismatch>) {
    let mut push = |field: &'static str, b: String, c: String| {
        if b != c {
            out.push(ChaosMismatch {
                run: key.to_string(),
                field,
                baseline: b,
                current: c,
            });
        }
    };
    push("schedule", base.schedule.clone(), cur.schedule.clone());
    push(
        "steps_run",
        base.steps_run.to_string(),
        cur.steps_run.to_string(),
    );
    push(
        "injected_faults",
        base.injected_faults.to_string(),
        cur.injected_faults.to_string(),
    );
    push(
        "detected_waves",
        base.detected_waves().to_string(),
        cur.detected_waves().to_string(),
    );
    push(
        "quiesced_waves",
        base.quiesced_waves().to_string(),
        cur.quiesced_waves().to_string(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn dirs(name: &str) -> (PathBuf, PathBuf) {
        let root = std::env::temp_dir().join(format!("smst_analyze_check_{name}"));
        let base = root.join("base");
        let cur = root.join("cur");
        // stale files from a previous run must not leak into this one
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&cur).unwrap();
        (base, cur)
    }

    /// A one-group chaos document with one run per `(label, detected)`:
    /// `detected` of its three waves raise an alarm, the rest are censored.
    fn chaos(runs: &[(&str, usize)]) -> String {
        let mut artifact = smst_telemetry::ChaosArtifact::new("chaos");
        for &(label, detected) in runs {
            artifact.push(ChaosRun {
                label: label.to_string(),
                run: "seed=7".to_string(),
                schedule: "s".to_string(),
                steps_run: 24,
                injected_faults: 12,
                waves: (0..3)
                    .map(|wave| smst_sim::WaveStats {
                        wave,
                        step: 8 * wave,
                        faults: 4,
                        detection_latency: (wave < detected).then_some(1),
                        quiescence: None,
                    })
                    .collect(),
            });
        }
        artifact.to_json()
    }

    #[test]
    fn unmatched_cases_warn_but_do_not_fail() {
        let (base, cur) = dirs("unmatched");
        std::fs::write(base.join("BENCH_chaos.json"), chaos(&[("kept", 3)])).unwrap();
        std::fs::write(
            cur.join("BENCH_chaos.json"),
            chaos(&[("kept", 3), ("added", 1)]),
        )
        .unwrap();
        let report = check_dirs(&base, &cur).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.compared, 1);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(report.warnings[0].contains("chaos/added"));
    }

    #[test]
    fn missing_runs_and_empty_comparisons_fail() {
        let (base, cur) = dirs("missing");
        std::fs::write(base.join("BENCH_chaos.json"), chaos(&[("gone", 3)])).unwrap();
        std::fs::write(cur.join("BENCH_chaos.json"), chaos(&[("renamed", 3)])).unwrap();
        let report = check_dirs(&base, &cur).unwrap();
        assert!(!report.passed());
        assert_eq!(report.missing, vec!["chaos/gone".to_string()]);
        assert!(report.render().contains("MISSING"), "{}", report.render());
        // no baseline at all: nothing compared is not a pass either
        let (empty, _) = dirs("missing_empty");
        let report = check_dirs(&empty, &cur).unwrap();
        assert!(report.missing.is_empty() && !report.passed());
    }

    #[test]
    fn chaos_determinism_is_compared_exactly() {
        let (base, cur) = dirs("chaos_exact");
        std::fs::write(base.join("BENCH_chaos.json"), chaos(&[("l", 3)])).unwrap();
        std::fs::write(cur.join("BENCH_chaos.json"), chaos(&[("l", 2)])).unwrap();
        let report = check_dirs(&base, &cur).unwrap();
        assert!(!report.passed());
        assert_eq!(report.chaos_mismatches.len(), 1);
        assert_eq!(report.chaos_mismatches[0].field, "detected_waves");
    }

    #[test]
    fn corrupt_artifacts_are_hard_errors() {
        let (base, cur) = dirs("corrupt");
        std::fs::write(base.join("BENCH_g.json"), "not json").unwrap();
        let err = check_dirs(&base, &cur).unwrap_err();
        assert!(matches!(err, CheckError::Ingest(_)), "{err}");
    }
}
