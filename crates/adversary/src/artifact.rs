//! `CAMPAIGN_<name>.json` artifacts — the campaign analogue of the bench
//! harness's `BENCH_<group>.json`.
//!
//! Written with the workspace codec ([`smst_telemetry::json`]: ordered
//! [`Obj`] writer, one escaping rule, `None` as `null`) into an explicit
//! directory — the smoke binaries pass
//! [`artifact_dir`](smst_telemetry::artifact_dir) (`$SMST_BENCH_DIR`,
//! default the working directory), so CI uploads campaign finds alongside
//! the bench trajectory with one artifact rule. `smst-analyze` cannot
//! link this crate, so its `ingest` keeps a summary reader for the
//! `smst-campaign-v1` document; a golden file and a round-trip test in
//! `smst-analyze` pin the pair.

use crate::campaign::{CampaignReport, TrialRecord};
use crate::shrink::ShrinkResult;
use smst_telemetry::json::{self, Obj, ToJson};
use std::path::{Path, PathBuf};

/// The schema tag of a campaign document.
pub const SCHEMA: &str = "smst-campaign-v1";

/// A trial record as the artifact spells it: scores are scalars, which
/// needs the campaign's step budget (a miss is `2 × budget`).
struct Record<'a>(&'a TrialRecord, usize);

impl ToJson for Record<'_> {
    fn write_json(&self, out: &mut String) {
        let Record(record, budget) = *self;
        Obj::new(out)
            .field("id", &record.id)
            .field("daemon", &record.daemon)
            .field("nodes", &record.outcome.node_count)
            .field("score", &record.outcome.score.value(budget))
            .field("missed", &record.outcome.score.is_missed())
            .field("baseline_score", &record.baseline.score.value(budget))
            .field("baseline_missed", &record.baseline.score.is_missed())
            .field("regret", &record.regret)
            .field("detection", &record.outcome.detection)
            .field("recovered", &record.outcome.recovered)
            .field("injected", &record.outcome.injected_faults)
            .end();
    }
}

/// The shrunk best find as the artifact spells it.
struct Shrunk<'a>(&'a ShrinkResult, usize);

impl ToJson for Shrunk<'_> {
    fn write_json(&self, out: &mut String) {
        let Shrunk(result, budget) = *self;
        Obj::new(out)
            .field("id", &result.spec.id())
            .field("accepted", &result.accepted)
            .field("evaluated", &result.evaluated)
            .field("nodes", &result.outcome.node_count)
            .field("score", &result.outcome.score.value(budget))
            .field("missed", &result.outcome.score.is_missed())
            .end();
    }
}

/// Serializes a campaign report (and, optionally, the shrunk best find) as
/// one JSON document.
pub fn campaign_json(
    report: &CampaignReport,
    budget: usize,
    shrunk: Option<&ShrinkResult>,
) -> String {
    let records: Vec<Record<'_>> = report.records.iter().map(|r| Record(r, budget)).collect();
    json::document(SCHEMA, |doc| {
        doc.field("campaign", &report.name)
            .field("random_trials", &report.random_trials)
            .field("guided_trials", &report.guided_trials)
            .field("best", &records.first())
            .field("shrunk", &shrunk.map(|result| Shrunk(result, budget)))
            .field("records", &records)
    })
}

/// Writes `CAMPAIGN_<name>.json` into `dir` and returns its path.
///
/// # Panics
///
/// Panics on I/O errors — a campaign that silently loses its finds is
/// worse than one that fails.
pub fn write_campaign_artifact_in(
    dir: &Path,
    report: &CampaignReport,
    budget: usize,
    shrunk: Option<&ShrinkResult>,
) -> PathBuf {
    let path = json::write_artifact(
        dir,
        &format!("CAMPAIGN_{}.json", report.name),
        &campaign_json(report, budget, shrunk),
    )
    .expect("writing the campaign JSON artifact");
    println!("  campaign results -> {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignSpec};
    use crate::shrink::shrink;
    use crate::trial::Workload;
    use smst_engine::GraphFamily;

    #[test]
    fn campaign_json_is_balanced_and_complete() {
        let mut spec = CampaignSpec::new("artifact_unit", Workload::Monitor);
        spec.families = vec![GraphFamily::Path { n: 16 }];
        spec.random_trials = 4;
        spec.guided_rounds = 0;
        spec.budget = 64;
        let report = run_campaign(&spec);
        let best = report.best().expect("trials ran").spec.clone();
        let shrunk = shrink(&best, |_s| true);
        let json = campaign_json(&report, spec.budget, Some(&shrunk));
        assert!(json.starts_with("{\"schema\":\"smst-campaign-v1\",\"campaign\":\"artifact_unit\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // every record appears once, plus the duplicated best-record object
        assert_eq!(
            json.matches("\"regret\":").count(),
            report.records.len() + 1,
            "every record serialized"
        );
        assert!(json.contains("\"shrunk\":{\"id\":"));
    }

    #[test]
    fn artifact_file_round_trips() {
        // an explicit directory, not the SMST_BENCH_DIR override: tests
        // must not mutate process-global env under the parallel harness
        let dir = std::env::temp_dir().join("smst_adversary_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = CampaignSpec::new("artifact_roundtrip", Workload::Monitor);
        spec.families = vec![GraphFamily::Path { n: 12 }];
        spec.random_trials = 2;
        spec.guided_rounds = 0;
        spec.budget = 48;
        let report = run_campaign(&spec);
        let path = write_campaign_artifact_in(&dir, &report, spec.budget, None);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"campaign\":\"artifact_roundtrip\""));
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("CAMPAIGN_"));
        std::fs::remove_file(path).ok();
    }
}
