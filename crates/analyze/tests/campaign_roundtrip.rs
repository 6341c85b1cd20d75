//! Writer ↔ reader round-trip for the `smst-campaign-v1` document: what
//! `smst-adversary` really writes — a search campaign, run here — must
//! ingest back with every count intact.
//! `smst-analyze` cannot link `smst-adversary` (it sits above this crate;
//! here it is a dev-dependency only), so `ingest` keeps its own summary
//! reader for this document and this test is what holds the pair
//! together.

use smst_adversary::{
    run_campaign, shrink_trial, write_campaign_artifact_in, CampaignSpec, Workload,
};
use smst_analyze::ingest::{ingest_file, Artifact, CampaignDoc};
use smst_engine::GraphFamily;
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smst_analyze_campaign_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn search_campaign_artifacts_round_trip_through_ingest() {
    let mut spec = CampaignSpec::new("roundtrip", Workload::Monitor);
    spec.families = vec![GraphFamily::Path { n: 16 }];
    spec.random_trials = 4;
    spec.guided_rounds = 1;
    spec.budget = 64;
    let report = run_campaign(&spec);
    let best = report.best().expect("trials ran").spec.clone();
    let shrunk = shrink_trial(&best, |_spec| true);
    let dir = scratch_dir("search");
    let path = write_campaign_artifact_in(&dir, &report, spec.budget, Some(&shrunk));
    assert_eq!(
        ingest_file(&path).unwrap(),
        Artifact::Campaign(CampaignDoc {
            campaign: "roundtrip".to_string(),
            random_trials: report.random_trials,
            guided_trials: report.guided_trials,
            records: report.records.len(),
        })
    );
}
