//! The per-round accounting artifact: `BENCH_<group>.json` with one
//! record per observed round of the `RoundObserver` stream.
//!
//! A [`RoundsArtifact`] collects one or more labelled runs (each a
//! recorded `Vec<RoundStats>` plus a replay-correlation label such as a
//! `TrialId` or seed). It is the one description of the `smst-rounds-v1`
//! schema: [`to_json`](RoundsArtifact::to_json) and its
//! [`FromJson`](crate::json::FromJson) impl come from one field list,
//! `write_json_to(dir)` writes into an explicit directory (tests) and
//! `finish()` into [`artifact_dir`](crate::artifact_dir). Its producers
//! are `fig_detection` (group `rounds_detection`, so
//! `BENCH_rounds_detection.json`) and `campaign_smoke`
//! (`BENCH_rounds_campaign.json`).
//!
//! Artifact schema:
//!
//! ```json
//! {"schema":"smst-rounds-v1","group":"rounds",
//!  "runs":[{"label":"<case>","run":"<replay id>",
//!           "rounds":[{"round":0,"alarms":0,"activations":500,
//!                      "halo_bytes":0,"dispatch_ns":1,"compute_ns":2,
//!                      "barrier_ns":3,"exchange_ns":4}]}]}
//! ```

use crate::json::{self, Fields as _};
use smst_sim::RoundStats;
use std::io;
use std::path::{Path, PathBuf};

/// The schema tag of a [`RoundsArtifact`] document.
pub const SCHEMA: &str = "smst-rounds-v1";

/// One labelled run inside a [`RoundsArtifact`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundsRun {
    /// Case label (what was run — mirrors bench case naming).
    pub label: String,
    /// Replay correlation: a `TrialId`, a seed, a config description —
    /// whatever lets a reader reproduce the run the rounds came from.
    pub run: String,
    /// The observed per-round stats, in round order.
    pub rounds: Vec<RoundStats>,
}

crate::json_record!(RoundsRun { label, run, rounds });

/// Collects observed round streams and writes `BENCH_<group>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundsArtifact {
    group: String,
    runs: Vec<RoundsRun>,
}

crate::json_record!(RoundsArtifact { group, runs });

impl RoundsArtifact {
    /// An empty artifact for `group` (written as `BENCH_<group>.json`).
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

    /// The labelled runs, in push order.
    pub fn runs(&self) -> &[RoundsRun] {
        &self.runs
    }

    /// Appends one labelled run.
    pub fn push(&mut self, label: &str, run: &str, rounds: Vec<RoundStats>) {
        self.runs.push(RoundsRun {
            label: label.to_string(),
            run: run.to_string(),
            rounds,
        });
    }

    /// Number of runs collected so far.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no runs were collected.
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
            .expect("writing the rounds JSON artifact");
        println!("  rounds -> {}", path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson as _, Json};

    fn stat(round: usize) -> RoundStats {
        RoundStats {
            round,
            alarms: round,
            activations: 3,
            halo_bytes: 16,
            dispatch_ns: 1,
            compute_ns: 2,
            barrier_ns: 3,
            exchange_ns: 4,
        }
    }

    #[test]
    fn artifact_roundtrip_through_a_directory() {
        let dir = std::env::temp_dir().join("smst_telemetry_rounds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut artifact = RoundsArtifact::new("rounds_unit");
        assert!(artifact.is_empty());
        artifact.push("expander/n=500", "seed=7", vec![stat(0), stat(1)]);
        assert_eq!(artifact.len(), 1);
        let path = artifact.write_json_to(&dir).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_string_lossy(),
            "BENCH_rounds_unit.json"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"schema\":\"smst-rounds-v1\",\"group\":\"rounds_unit\""));
        assert!(body.contains("\"label\":\"expander/n=500\""));
        assert!(body.contains("\"run\":\"seed=7\""));
        assert!(body.contains(
            "{\"round\":1,\"alarms\":1,\"activations\":3,\"halo_bytes\":16,\
             \"dispatch_ns\":1,\"compute_ns\":2,\"barrier_ns\":3,\"exchange_ns\":4}"
        ));
        let back = RoundsArtifact::from_json(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(back, artifact);
    }
}
