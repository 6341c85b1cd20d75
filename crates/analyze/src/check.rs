//! The perf regression gate: current artifacts vs checked-in baselines.
//!
//! `smst-analyze check --baseline ci/baselines/ --current <dir>` ingests
//! both directories and compares what can be compared:
//!
//! * **Bench timings** (`smst-bench-v1`) are wall-clock and noisy, so a
//!   case only regresses when it fails **both** tests of
//!   [`Thresholds`]: the current median exceeds baseline ×
//!   [`tolerance`](Thresholds::tolerance) *and* the absolute growth
//!   exceeds [`floor_ns`](Thresholds::floor_ns). The ratio test alone
//!   flags µs-scale cases that double on scheduler jitter; the floor
//!   alone flags slow cases that creep. Together they only fire on
//!   regressions a human would act on.
//! * **Chaos accounting** (`smst-chaos-v1`) is logical — steps, waves,
//!   fault counts under the barrier-synchronized engine — so the
//!   deterministic summary fields are compared **exactly**. A changed
//!   `detected_waves` is a behavioral change, not noise.
//!
//! Cases present on one side only are *warnings*, not failures — PRs add
//! and retire benches routinely, and a gate that fails on every rename
//! gets deleted, not fixed. Corrupt or unreadable artifacts on either
//! side are hard errors: a gate that skips what it cannot read is not a
//! gate.

use crate::ingest::{ingest_dir, Artifact, IngestError};
use smst_bench::harness::BenchResult;
use smst_telemetry::ChaosRun;
use std::fmt::Write as _;
use std::path::Path;

/// Noise tolerance for the bench-timing comparison.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// Multiplicative slack: current median must exceed baseline × this.
    pub tolerance: f64,
    /// Additive slack in nanoseconds: current median must also exceed
    /// baseline + this. Keeps µs-scale cases from tripping the ratio test
    /// on scheduler jitter.
    pub floor_ns: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        // 2× + 250µs: the harness's own docs promise spotting
        // "regressions of 2× and up", and single-core CI runners double
        // sub-100µs cases on a whim
        Thresholds {
            tolerance: 2.0,
            floor_ns: 250_000,
        }
    }
}

/// One bench case compared against its baseline.
#[derive(Debug, Clone)]
pub struct BenchComparison {
    /// Case name (`group/case`).
    pub name: String,
    /// Baseline median, nanoseconds.
    pub baseline_median_ns: u64,
    /// Current median, nanoseconds.
    pub current_median_ns: u64,
    /// `current / baseline`.
    pub ratio: f64,
    /// Whether the case fails both threshold tests.
    pub regressed: bool,
}

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
    /// Per-case bench comparisons (matched cases only).
    pub bench: Vec<BenchComparison>,
    /// Exact-compare failures in chaos accounting.
    pub chaos_mismatches: Vec<ChaosMismatch>,
    /// Non-fatal observations: unmatched cases, ignored artifact kinds.
    pub warnings: Vec<String>,
}

impl CheckReport {
    /// Bench cases that regressed.
    pub fn regressions(&self) -> usize {
        self.bench.iter().filter(|c| c.regressed).count()
    }

    /// `true` when nothing regressed and no chaos field changed.
    pub fn passed(&self) -> bool {
        self.regressions() == 0 && self.chaos_mismatches.is_empty()
    }

    /// Human-readable gate output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.bench {
            let status = if c.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "  {status:>9}  {:<44} {:>12} -> {:>12}  ({:.2}x)",
                c.name, c.baseline_median_ns, c.current_median_ns, c.ratio
            );
        }
        for m in &self.chaos_mismatches {
            let _ = writeln!(
                out,
                "  CHANGED    {}: {} was {}, now {}",
                m.run, m.field, m.baseline, m.current
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "  warning: {w}");
        }
        let _ = writeln!(
            out,
            "{} bench cases compared, {} regressions, {} chaos mismatches, {} warnings",
            self.bench.len(),
            self.regressions(),
            self.chaos_mismatches.len(),
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

/// All comparable records from one directory, keyed for matching.
#[derive(Debug, Default)]
struct Side {
    /// `name` → case (names already carry the `group/` prefix).
    bench: Vec<BenchResult>,
    /// `group/label` → run.
    chaos: Vec<(String, ChaosRun)>,
}

fn load_side(dir: &Path, warnings: &mut Vec<String>, tag: &str) -> Result<Side, CheckError> {
    let mut side = Side::default();
    for (path, result) in ingest_dir(dir).map_err(|e| CheckError::Scan(dir.to_path_buf(), e))? {
        match result.map_err(CheckError::Ingest)? {
            Artifact::Bench(doc) => side.bench.extend_from_slice(doc.results()),
            Artifact::Chaos(doc) => {
                for run in doc.runs() {
                    side.chaos
                        .push((format!("{}/{}", doc.group(), run.label), run.clone()));
                }
            }
            // campaigns, traces, flight dumps, and accounting analyses
            // have no stable comparison semantics — campaigns search,
            // traces sample, flights only exist after a failure
            other => warnings.push(format!(
                "{tag} {}: {} — not gated, ignored",
                path.display(),
                other.describe()
            )),
        }
    }
    Ok(side)
}

/// Runs the gate: every baseline case is looked up in `current` and
/// compared under `thresholds`.
pub fn check_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    thresholds: Thresholds,
) -> Result<CheckReport, CheckError> {
    let mut report = CheckReport::default();
    let base = load_side(baseline_dir, &mut report.warnings, "baseline")?;
    let cur = load_side(current_dir, &mut report.warnings, "current")?;

    for b in &base.bench {
        match cur.bench.iter().find(|c| c.name == b.name) {
            Some(c) => report.bench.push(compare_case(b, c, thresholds)),
            None => report.warnings.push(format!(
                "bench case {:?} is in the baseline but not the current run",
                b.name
            )),
        }
    }
    for c in &cur.bench {
        if !base.bench.iter().any(|b| b.name == c.name) {
            report.warnings.push(format!(
                "bench case {:?} is new (no baseline); re-seed ci/baselines/ to gate it",
                c.name
            ));
        }
    }

    for (key, b) in &base.chaos {
        match cur.chaos.iter().find(|(k, _)| k == key) {
            Some((_, c)) => compare_chaos(key, b, c, &mut report.chaos_mismatches),
            None => report.warnings.push(format!(
                "chaos run {key:?} is in the baseline but not the current run"
            )),
        }
    }
    for (key, _) in &cur.chaos {
        if !base.chaos.iter().any(|(k, _)| k == key) {
            report.warnings.push(format!(
                "chaos run {key:?} is new (no baseline); re-seed ci/baselines/ to gate it"
            ));
        }
    }

    Ok(report)
}

fn compare_case(base: &BenchResult, cur: &BenchResult, t: Thresholds) -> BenchComparison {
    let ratio = if base.median_ns == 0 {
        // a 0ns baseline median can only come from a degenerate case;
        // any nonzero current value is "infinitely" slower, so let the
        // floor test alone decide
        f64::INFINITY
    } else {
        cur.median_ns as f64 / base.median_ns as f64
    };
    let over_ratio = cur.median_ns as f64 > base.median_ns as f64 * t.tolerance;
    let over_floor = cur.median_ns > base.median_ns.saturating_add(t.floor_ns);
    BenchComparison {
        name: base.name.clone(),
        baseline_median_ns: base.median_ns,
        current_median_ns: cur.median_ns,
        ratio,
        regressed: over_ratio && over_floor,
    }
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
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&cur).unwrap();
        (base, cur)
    }

    fn bench_doc(median_a: u64, median_b: u64) -> String {
        format!(
            "{{\"schema\":\"smst-bench-v1\",\"group\":\"g\",\"meta\":{{}},\
             \"results\":[\
             {{\"name\":\"g/a\",\"iters\":5,\"min_ns\":1,\"median_ns\":{median_a},\
              \"mean_ns\":1.0,\"max_ns\":9}},\
             {{\"name\":\"g/b\",\"iters\":5,\"min_ns\":1,\"median_ns\":{median_b},\
              \"mean_ns\":1.0,\"max_ns\":9}}]}}\n"
        )
    }

    #[test]
    fn regression_needs_both_ratio_and_floor() {
        let (base, cur) = dirs("both_tests");
        // case a: 3x but tiny (under the floor) — noise, not a regression;
        // case b: 3x and megaseconds over — a real regression
        std::fs::write(base.join("BENCH_g.json"), bench_doc(10_000, 1_000_000)).unwrap();
        std::fs::write(cur.join("BENCH_g.json"), bench_doc(30_000, 3_000_000)).unwrap();
        let report = check_dirs(&base, &cur, Thresholds::default()).unwrap();
        assert_eq!(report.bench.len(), 2);
        assert!(
            !report.bench[0].regressed,
            "under the floor: {:?}",
            report.bench[0]
        );
        assert!(report.bench[1].regressed);
        assert_eq!(report.regressions(), 1);
        assert!(!report.passed());
        assert!(report.render().contains("REGRESSED"));
    }

    #[test]
    fn within_tolerance_passes() {
        let (base, cur) = dirs("tolerant");
        std::fs::write(base.join("BENCH_g.json"), bench_doc(1_000_000, 2_000_000)).unwrap();
        // 1.8x and 1.0x: both under the 2x tolerance
        std::fs::write(cur.join("BENCH_g.json"), bench_doc(1_800_000, 2_000_000)).unwrap();
        let report = check_dirs(&base, &cur, Thresholds::default()).unwrap();
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn unmatched_cases_warn_but_do_not_fail() {
        let (base, cur) = dirs("unmatched");
        std::fs::write(
            base.join("BENCH_old.json"),
            "{\"schema\":\"smst-bench-v1\",\"group\":\"old\",\"meta\":{},\
             \"results\":[{\"name\":\"old/gone\",\"iters\":1,\"min_ns\":1,\
             \"median_ns\":5,\"mean_ns\":1.0,\"max_ns\":9}]}\n",
        )
        .unwrap();
        std::fs::write(
            cur.join("BENCH_new.json"),
            "{\"schema\":\"smst-bench-v1\",\"group\":\"new\",\"meta\":{},\
             \"results\":[{\"name\":\"new/added\",\"iters\":1,\"min_ns\":1,\
             \"median_ns\":5,\"mean_ns\":1.0,\"max_ns\":9}]}\n",
        )
        .unwrap();
        let report = check_dirs(&base, &cur, Thresholds::default()).unwrap();
        assert!(report.passed());
        assert_eq!(report.warnings.len(), 2, "{:?}", report.warnings);
    }

    #[test]
    fn chaos_determinism_is_compared_exactly() {
        let (base, cur) = dirs("chaos_exact");
        // `detected` of three waves raise an alarm; the rest are censored
        let chaos = |detected: usize| {
            let mut artifact = smst_telemetry::ChaosArtifact::new("chaos");
            artifact.push(ChaosRun {
                label: "l".to_string(),
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
            artifact.to_json()
        };
        std::fs::write(base.join("BENCH_chaos.json"), chaos(3)).unwrap();
        std::fs::write(cur.join("BENCH_chaos.json"), chaos(2)).unwrap();
        let report = check_dirs(&base, &cur, Thresholds::default()).unwrap();
        assert!(!report.passed());
        assert_eq!(report.chaos_mismatches.len(), 1);
        assert_eq!(report.chaos_mismatches[0].field, "detected_waves");
    }

    #[test]
    fn corrupt_artifacts_are_hard_errors() {
        let (base, cur) = dirs("corrupt");
        std::fs::write(base.join("BENCH_g.json"), "not json").unwrap();
        let err = check_dirs(&base, &cur, Thresholds::default()).unwrap_err();
        assert!(matches!(err, CheckError::Ingest(_)), "{err}");
    }
}
