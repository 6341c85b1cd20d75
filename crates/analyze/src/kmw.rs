//! KMW bound accounting: measured detection rounds vs the paper's bounds,
//! per graph family — the `ANALYSIS_kmw.json` producer.
//!
//! The paper proves MST verification detects a fault within `O(log² n)`
//! synchronous rounds; Kuhn–Moscibroda–Wattenhofer's lower bound says no
//! local algorithm beats `Ω(√(log n / log log n))` rounds on their hard
//! cluster-tree family. This module runs the actual verifier on both
//! sides of that gap:
//!
//! * **hard** — the KMW cluster trees ([`GraphFamily::KmwClusterTree`])
//!   and the triangle-free hybrid ([`GraphFamily::KmwHybrid`]), the
//!   simplified `CT_k` realizations grown in `smst-graph`;
//! * **easy** — degree-4 circulant expanders at matched node counts,
//!   where locality is cheap.
//!
//! Each point is a small detection campaign: per trial, warm the
//! verifier up on the correctly-marked instance, corrupt one stored
//! piece weight, and count the synchronous rounds to the first alarm;
//! the point records the worst (maximum) detected latency next to the
//! two bound curves (both in base-2 logs). Trials are needed because a
//! single corrupted register can land where the verifier legitimately
//! never looks (a value that collides with the correct one, a register
//! the comparison machinery does not consult on that topology) — a
//! one-shot experiment reads such a miss as "bound broken" when it is
//! just an undetectable fault.
//! The warm-up is a modest constant, not the paper's full
//! `sync_budget(n)` (which is ~584k steps at `n = 393` — a budget for
//! proofs, not for CI): the verifier starts from the correct
//! configuration, so it is already converged at round 0 and the warm-up
//! only demonstrates steady-state silence before the fault lands.

use smst_bench::engine_metrics::verifier_point;
use smst_core::faults::FaultKind;
use smst_engine::{EngineConfig, GraphFamily, ScenarioSpec};
use smst_telemetry::json::{self, Fixed, FromJson, Json, ShapeError};
use std::io;
use std::path::{Path, PathBuf};

/// The schema tag of the analyzer's own `ANALYSIS_*.json` documents.
pub const SCHEMA: &str = "smst-analysis-v1";

/// Configuration of one accounting sweep.
#[derive(Debug, Clone)]
pub struct KmwConfig {
    /// Base graph / corruption seed (trial `t` uses `seed + t`; every
    /// point is a pure function of the family, this seed, and the trial
    /// count).
    pub seed: u64,
    /// Fault-free steps before each trial's burst.
    pub warmup: usize,
    /// Detection trials per point.
    pub trials: usize,
    /// Cluster-hierarchy depths to sweep (each contributes one cluster
    /// tree, one hybrid at depth ≥ 2, and one matched expander).
    pub levels: Vec<usize>,
    /// Branching factor δ between cluster levels.
    pub delta: usize,
    /// Engine envelope the scenarios run on (thread count and layout
    /// never change the measured rounds — the engine's determinism
    /// contract).
    pub engine: EngineConfig,
}

impl Default for KmwConfig {
    fn default() -> Self {
        // levels 2/3/4 at δ=3 give cluster trees of 17/78/393 nodes —
        // three sizes spanning a 23x range while the largest run stays
        // in CI-smoke territory
        KmwConfig {
            seed: 7,
            warmup: 64,
            trials: 5,
            levels: vec![2, 3, 4],
            delta: 3,
            engine: EngineConfig::new(),
        }
    }
}

/// One measured point of the accounting sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct KmwPoint {
    /// Cluster-hierarchy depth (0 for the expander points).
    pub levels: usize,
    /// Branching factor δ (0 for the expander points).
    pub delta: usize,
    /// Node count.
    pub n: usize,
    /// Detection trials run.
    pub trials: usize,
    /// Trials that alarmed within the budget.
    pub detected: usize,
    /// Worst-case synchronous rounds from the fault burst to the first
    /// alarm, over the detected trials (`None`: no trial detected — a
    /// finding, not an error).
    pub measured_rounds: Option<usize>,
    /// The paper's upper-bound curve at this size: `log₂² n` (three
    /// decimals in the artifact).
    pub upper_bound: f64,
    /// The KMW lower-bound curve at this size:
    /// `√(log₂ n / log₂ log₂ n)` (three decimals in the artifact).
    pub lower_bound: f64,
}

/// The points of one graph family, in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct KmwFamily {
    /// Family slug (`kmw_cluster_tree`, `kmw_hybrid`, `expander`).
    pub family: String,
    /// `hard` (KMW constructions) or `easy` (expander).
    pub kind: String,
    /// The measured points.
    pub points: Vec<KmwPoint>,
}

/// A completed sweep — the `ANALYSIS_kmw.json` document, writer and
/// reader side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct KmwAnalysis {
    /// The seed the sweep ran with.
    pub seed: u64,
    /// The warm-up the sweep ran with.
    pub warmup: usize,
    /// The measured families, in sweep order.
    pub families: Vec<KmwFamily>,
}

/// The paper's upper-bound curve: `log₂² n`.
pub fn upper_bound(n: usize) -> f64 {
    let l = (n.max(2) as f64).log2();
    l * l
}

/// The KMW lower-bound curve: `√(log₂ n / log₂ log₂ n)`. Clamped below
/// `n = 5` where `log log n` dips under 1 and the expression loses
/// meaning.
pub fn lower_bound(n: usize) -> f64 {
    let l = (n.max(5) as f64).log2();
    (l / l.log2()).sqrt()
}

/// Detection budget after the warm-up: a generous multiple of the upper
/// bound, so "not detected" in a point means the bound story is broken,
/// not that the budget was tight.
fn detection_budget(n: usize) -> usize {
    16 * upper_bound(n).ceil() as usize + 64
}

/// Runs one detection trial: warm up, corrupt one stored piece weight,
/// count rounds to the first alarm (one [`verifier_point`]).
fn measure_trial(family: &GraphFamily, config: &KmwConfig, trial: u64) -> Option<usize> {
    let seed = config.seed + trial;
    let budget = config.warmup + detection_budget(family.node_count());
    let spec = ScenarioSpec::new(family.clone())
        .engine(config.engine.clone())
        .seed(seed)
        .fault_burst(config.warmup, 1, seed);
    let point = verifier_point(spec, FaultKind::StoredPieceWeight, seed, budget, None);
    point.detection.detection_time
}

/// Runs the point's campaign: `trials` independent trials, keeping the
/// detected count and the worst detected latency.
fn measure(family: &GraphFamily, config: &KmwConfig) -> (usize, Option<usize>) {
    let mut detected = 0usize;
    let mut worst: Option<usize> = None;
    for trial in 0..config.trials.max(1) as u64 {
        if let Some(rounds) = measure_trial(family, config, trial) {
            detected += 1;
            worst = Some(worst.map_or(rounds, |w: usize| w.max(rounds)));
        }
    }
    (detected, worst)
}

/// Runs the full accounting sweep described by `config`.
pub fn run_kmw_accounting(config: &KmwConfig) -> KmwAnalysis {
    let delta = config.delta;
    let point = |levels: usize, delta: usize, g: GraphFamily| {
        let n = g.node_count();
        let (detected, measured_rounds) = measure(&g, config);
        KmwPoint {
            levels,
            delta,
            n,
            trials: config.trials.max(1),
            detected,
            measured_rounds,
            upper_bound: upper_bound(n),
            lower_bound: lower_bound(n),
        }
    };
    let tree = |levels| GraphFamily::KmwClusterTree { levels, delta };
    let hybrid = |levels| GraphFamily::KmwHybrid { levels, delta };
    // the easy side of the gap: an expander matched to the cluster tree's
    // node count, so each hard point has an easy twin
    let expander = |levels| GraphFamily::Expander {
        n: tree(levels).node_count(),
        degree: 4,
    };
    let levels = || config.levels.iter().copied();
    let mut families = Vec::new();
    let mut family = |family: &str, kind: &str, points: Vec<KmwPoint>| {
        if !points.is_empty() {
            families.push(KmwFamily {
                family: family.to_string(),
                kind: kind.to_string(),
                points,
            });
        }
    };
    let trees = levels().map(|l| point(l, delta, tree(l)));
    family("kmw_cluster_tree", "hard", trees.collect());
    let hybrids = levels().filter(|&l| l >= 2);
    let hybrids = hybrids.map(|l| point(l, delta, hybrid(l)));
    family("kmw_hybrid", "hard", hybrids.collect());
    let expanders = levels().map(|l| point(0, 0, expander(l)));
    family("expander", "easy", expanders.collect());
    KmwAnalysis {
        seed: config.seed,
        warmup: config.warmup,
        families,
    }
}

smst_telemetry::json_record!(KmwPoint {
    levels,
    delta,
    n,
    trials,
    detected,
    measured_rounds,
    upper_bound: Fixed(3),
    lower_bound: Fixed(3),
});

smst_telemetry::json_record!(KmwFamily {
    family,
    kind,
    points,
});

impl KmwAnalysis {
    /// Every point with the family it belongs to, in sweep order.
    pub fn points(&self) -> impl Iterator<Item = (&KmwFamily, &KmwPoint)> {
        self.families
            .iter()
            .flat_map(|f| f.points.iter().map(move |p| (f, p)))
    }

    /// How many points `family` holds (0 when it is absent) — the CLI
    /// refuses to publish a sweep with fewer cluster-tree sizes than it
    /// was asked for.
    pub fn family_points(&self, family: &str) -> usize {
        self.families
            .iter()
            .find(|f| f.family == family)
            .map_or(0, |f| f.points.len())
    }

    /// The analysis as a JSON document:
    ///
    /// ```json
    /// {"schema":"smst-analysis-v1","analysis":"kmw","seed":7,"warmup":64,
    ///  "families":[{"family":"kmw_cluster_tree","kind":"hard",
    ///   "points":[{"levels":2,"delta":3,"n":17,"trials":5,"detected":5,
    ///              "measured_rounds":1,"upper_bound":16.707,
    ///              "lower_bound":1.419}]}]}
    /// ```
    pub fn to_json(&self) -> String {
        json::document(SCHEMA, |doc| {
            doc.field("analysis", "kmw")
                .field("seed", &self.seed)
                .field("warmup", &self.warmup)
                .field("families", &self.families)
        })
    }

    /// Writes `ANALYSIS_kmw.json` into `dir` and returns its path.
    pub fn write_json_to(&self, dir: &Path) -> io::Result<PathBuf> {
        json::write_artifact(dir, "ANALYSIS_kmw.json", &self.to_json())
    }

    /// A console rendering of the measured-vs-bound table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<18} {:>4} {:>4} {:>6} {:>9} {:>9} {:>11} {:>11}",
            "family", "kind", "lvl", "n", "detected", "measured", "upper", "lower"
        );
        for (f, p) in self.points() {
            let _ = writeln!(
                out,
                "  {:<18} {:>4} {:>4} {:>6} {:>9} {:>9} {:>11.2} {:>11.2}",
                f.family,
                f.kind,
                p.levels,
                p.n,
                format!("{}/{}", p.detected, p.trials),
                p.measured_rounds
                    .map_or_else(|| "none".to_string(), |r| r.to_string()),
                p.upper_bound,
                p.lower_bound
            );
        }
        out
    }
}

impl FromJson for KmwAnalysis {
    fn from_json(doc: &Json) -> Result<Self, ShapeError> {
        // `kmw` is the one analysis under this tag so far
        if doc.field::<String>("analysis")? != "kmw" {
            return Err(ShapeError::here().under("analysis"));
        }
        Ok(KmwAnalysis {
            seed: doc.field("seed")?,
            warmup: doc.field("warmup")?,
            families: doc.field("families")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_curves_are_monotone_and_ordered() {
        let sizes = [17usize, 78, 393, 10_000];
        for w in sizes.windows(2) {
            assert!(upper_bound(w[0]) < upper_bound(w[1]));
            assert!(lower_bound(w[0]) < lower_bound(w[1]));
        }
        for &n in &sizes {
            assert!(lower_bound(n) < upper_bound(n), "gap must be open at n={n}");
        }
    }

    #[test]
    fn a_small_sweep_measures_detection_within_the_upper_bound_regime() {
        // levels=2 only: the full 3-size sweep belongs to the CLI run,
        // not the unit suite
        let config = KmwConfig {
            levels: vec![2],
            ..KmwConfig::default()
        };
        let analysis = run_kmw_accounting(&config);
        assert_eq!(analysis.points().count(), 3, "tree + hybrid + expander");
        for (f, p) in analysis.points() {
            assert!(
                p.detected >= 1,
                "{} n={}: no trial of {} detected",
                f.family,
                p.n,
                p.trials
            );
            let measured = p.measured_rounds.unwrap();
            assert!(
                (measured as f64) <= 4.0 * p.upper_bound + 8.0,
                "{} n={}: {measured} rounds vs upper bound {}",
                f.family,
                p.n,
                p.upper_bound
            );
        }
        let json = analysis.to_json();
        let back = KmwAnalysis::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.family_points("kmw_cluster_tree"), 1);
        assert_eq!(back.to_json(), json, "what was read writes the same bytes");
        assert!(json.starts_with("{\"schema\":\"smst-analysis-v1\",\"analysis\":\"kmw\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn validation_rejects_thin_analyses() {
        let body = "{\"schema\":\"smst-analysis-v1\",\"analysis\":\"kmw\",\
                    \"seed\":7,\"warmup\":64,\"families\":[\
                    {\"family\":\"kmw_cluster_tree\",\"kind\":\"hard\",\
                     \"points\":[{\"levels\":2,\"delta\":3,\"n\":17,\
                     \"trials\":5,\"detected\":5,\"measured_rounds\":1,\
                     \"upper_bound\":16.7,\"lower_bound\":1.4}]}]}\n";
        let analysis = KmwAnalysis::from_json(&Json::parse(body).unwrap()).unwrap();
        assert_eq!(analysis.family_points("kmw_cluster_tree"), 1);
        assert_eq!(analysis.family_points("kmw_hybrid"), 0, "absent family");
        let empty = Json::parse("{}").unwrap();
        assert_eq!(
            KmwAnalysis::from_json(&empty).unwrap_err().field,
            "analysis"
        );
        let other = body.replace("\"analysis\":\"kmw\"", "\"analysis\":\"detection\"");
        assert!(KmwAnalysis::from_json(&Json::parse(&other).unwrap()).is_err());
    }
}
