//! The chaos-campaign artifact: `BENCH_chaos*.json` with one record per
//! fault wave — the verify-forever sibling of the per-round
//! [`trace`](crate::trace).
//!
//! A [`ChaosArtifact`] collects labelled campaign runs. Each run carries
//! the schedule grammar it executed (`FaultSchedule::describe()`), the
//! run-level totals, and the per-wave [`WaveStats`] books: detection
//! latency (steps from wave to first alarm) and rounds-to-quiescence
//! (steps from wave until every node accepts again, the MTTR-style
//! figure). Censored waves — cut off by the next wave or the end of the
//! run — serialize their latencies as `null` rather than a fabricated
//! number. `write_json_to(dir)` writes into an explicit directory (tests)
//! and `finish()` into [`artifact_dir`](crate::artifact_dir).
//!
//! [`ChaosRun`] stores only the data: the four summary fields of the
//! document (`detected_waves`, `quiesced_waves` and the two means) are
//! derived from `waves` when writing (by the one implementation on
//! [`WaveStats`]), and a document whose stored summary counts disagree
//! with its own `waves` is rejected when reading — one source of truth.
//!
//! Artifact schema:
//!
//! ```json
//! {"schema":"smst-chaos-v1","group":"chaos",
//!  "runs":[{"label":"<case>","run":"<replay id>",
//!           "schedule":"periodic(period=8,offset=0,f=4,seed=7)",
//!           "steps_run":64,"injected_faults":32,
//!           "detected_waves":8,"quiesced_waves":8,
//!           "mean_detection_latency":1.0,"mean_quiescence":5.5,
//!           "waves":[{"wave":0,"step":0,"faults":4,
//!                     "detection_latency":1,"quiescence":6}]}]}
//! ```

use crate::json::{self, Fields as _, FromJson, Json, Obj, ShapeError, ToJson};
use smst_sim::WaveStats;
use std::io;
use std::path::{Path, PathBuf};

/// The schema tag of a [`ChaosArtifact`] document.
pub const SCHEMA: &str = "smst-chaos-v1";

crate::json_record!(WaveStats {
    wave,
    step,
    faults,
    detection_latency,
    quiescence,
});

/// One labelled chaos campaign inside a [`ChaosArtifact`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// Case label (what was run — mirrors bench case naming).
    pub label: String,
    /// Replay correlation: seed, config description, trial id.
    pub run: String,
    /// The schedule grammar (`FaultSchedule::describe()`).
    pub schedule: String,
    /// Steps the campaign executed.
    pub steps_run: usize,
    /// Total registers corrupted across all waves.
    pub injected_faults: usize,
    /// Per-wave accounting, in firing order.
    pub waves: Vec<WaveStats>,
}

impl ChaosRun {
    /// Waves with a recorded detection latency.
    pub fn detected_waves(&self) -> usize {
        WaveStats::detected_waves(&self.waves)
    }

    /// Waves with a recorded quiescence.
    pub fn quiesced_waves(&self) -> usize {
        WaveStats::quiesced_waves(&self.waves)
    }

    /// Mean detection latency over the detected waves, in steps.
    pub fn mean_detection_latency(&self) -> Option<f64> {
        WaveStats::mean_detection_latency(&self.waves)
    }

    /// Mean rounds-to-quiescence over the quiesced waves, in steps.
    pub fn mean_quiescence(&self) -> Option<f64> {
        WaveStats::mean_quiescence(&self.waves)
    }
}

impl ToJson for ChaosRun {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("label", &self.label)
            .field("run", &self.run)
            .field("schedule", &self.schedule)
            .field("steps_run", &self.steps_run)
            .field("injected_faults", &self.injected_faults)
            .field("detected_waves", &self.detected_waves())
            .field("quiesced_waves", &self.quiesced_waves())
            .field("mean_detection_latency", &self.mean_detection_latency())
            .field("mean_quiescence", &self.mean_quiescence())
            .field("waves", &self.waves)
            .end();
    }
}

impl FromJson for ChaosRun {
    fn from_json(value: &Json) -> Result<Self, ShapeError> {
        let run = ChaosRun {
            label: value.field("label")?,
            run: value.field("run")?,
            schedule: value.field("schedule")?,
            steps_run: value.field("steps_run")?,
            injected_faults: value.field("injected_faults")?,
            waves: value.field("waves")?,
        };
        // the stored summaries must be there and must be the ones `waves`
        // implies (the means are only type-checked: they are floats)
        for (key, derived) in [
            ("detected_waves", run.detected_waves()),
            ("quiesced_waves", run.quiesced_waves()),
        ] {
            if value.field::<usize>(key)? != derived {
                return Err(ShapeError::here().under(key));
            }
        }
        value.field::<Option<f64>>("mean_detection_latency")?;
        value.field::<Option<f64>>("mean_quiescence")?;
        Ok(run)
    }
}

/// Collects chaos campaigns and writes `BENCH_<group>.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosArtifact {
    group: String,
    runs: Vec<ChaosRun>,
}

crate::json_record!(ChaosArtifact { group, runs });

impl ChaosArtifact {
    /// An empty artifact for `group` (written as `BENCH_<group>.json`;
    /// the chaos smoke uses group `"chaos"` → literally
    /// `BENCH_chaos.json`).
    pub fn new(group: &str) -> Self {
        Self {
            group: group.to_string(),
            runs: Vec::new(),
        }
    }

    /// The artifact's group name.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// The campaigns, in push order.
    pub fn runs(&self) -> &[ChaosRun] {
        &self.runs
    }

    /// Appends one campaign.
    pub fn push(&mut self, run: ChaosRun) {
        self.runs.push(run);
    }

    /// Number of campaigns collected so far.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no campaigns were collected.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The artifact as a JSON document (see the module docs for the
    /// schema).
    pub fn to_json(&self) -> String {
        json::document(SCHEMA, |doc| self.write_fields(doc))
    }

    /// Writes `BENCH_<group>.json` into `dir` and returns its path.
    pub fn write_json_to(&self, dir: &Path) -> io::Result<PathBuf> {
        json::write_artifact(dir, &format!("BENCH_{}.json", self.group), &self.to_json())
    }

    /// Writes the artifact into [`artifact_dir`](crate::artifact_dir),
    /// printing where it went (panics on I/O errors — an artifact run
    /// that silently loses its results is worse than one that fails).
    pub fn finish(self) -> PathBuf {
        let path = self
            .write_json_to(&json::artifact_dir())
            .expect("writing the chaos JSON artifact");
        println!("  chaos -> {}", path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(i: usize, step: usize, det: Option<usize>, qui: Option<usize>) -> WaveStats {
        WaveStats {
            wave: i,
            step,
            faults: 4,
            detection_latency: det,
            quiescence: qui,
        }
    }

    fn sample_run() -> ChaosRun {
        ChaosRun {
            label: "sharded-sync(threads=4)".to_string(),
            run: "seed=7".to_string(),
            schedule: "periodic(period=8,offset=0,f=4,seed=7)".to_string(),
            steps_run: 24,
            injected_faults: 12,
            waves: vec![
                wave(0, 0, Some(1), Some(6)),
                wave(1, 8, Some(2), Some(7)),
                wave(2, 16, None, None),
            ],
        }
    }

    #[test]
    fn summaries_skip_censored_waves() {
        let run = sample_run();
        assert_eq!(run.detected_waves(), 2);
        assert_eq!(run.quiesced_waves(), 2);
        assert_eq!(run.mean_detection_latency(), Some(1.5));
        assert_eq!(run.mean_quiescence(), Some(6.5));
        let empty = ChaosRun {
            waves: vec![wave(0, 0, None, None)],
            ..run
        };
        assert_eq!(empty.mean_detection_latency(), None);
    }

    #[test]
    fn artifact_roundtrip_through_a_directory() {
        let dir = std::env::temp_dir().join("smst_telemetry_chaos_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut artifact = ChaosArtifact::new("chaos_unit");
        assert!(artifact.is_empty());
        artifact.push(sample_run());
        assert_eq!(artifact.len(), 1);
        let path = artifact.write_json_to(&dir).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_string_lossy(),
            "BENCH_chaos_unit.json"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"schema\":\"smst-chaos-v1\",\"group\":\"chaos_unit\""));
        assert!(body.contains("\"schedule\":\"periodic(period=8,offset=0,f=4,seed=7)\""));
        assert!(body.contains("\"detected_waves\":2"));
        assert!(body.contains(
            "{\"wave\":0,\"step\":0,\"faults\":4,\"detection_latency\":1,\"quiescence\":6}"
        ));
        assert!(body.contains(
            "{\"wave\":2,\"step\":16,\"faults\":4,\
                               \"detection_latency\":null,\"quiescence\":null}"
        ));
        let back = ChaosArtifact::from_json(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(back, artifact);
        // a summary count that disagrees with the waves is a shape error
        let lying = body.replace("\"detected_waves\":2", "\"detected_waves\":3");
        let err = ChaosArtifact::from_json(&Json::parse(&lying).unwrap()).unwrap_err();
        assert_eq!(err.field, "runs[0].detected_waves");
    }
}
