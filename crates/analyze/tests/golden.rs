//! Golden-file tests: one checked-in document per schema, pinned
//! byte-for-byte (and, for the two oldest, field-for-field).
//!
//! The files under `tests/golden/` are checked in; each test regenerates
//! the same document from fixed inputs through the real writer and
//! demands byte equality, then ingests the golden file into the
//! producer's own type. The rounds and chaos files are the oldest; the
//! flight, trace, analysis and two campaign files were recorded from the
//! hand-`format!`ed writers the codec replaced, so they prove the bytes
//! did not move. A PR that touches a writer's field
//! order, adds a field, or bumps a schema version fails here first — and
//! the fix (regenerate the golden file, bump the analyzer's supported
//! version) is the documentation of the schema change.

use smst_adversary::chaos::ChaosCaseRecord;
use smst_adversary::{
    campaign_json, chaos_campaign_json, CampaignReport, Score, ShrinkResult, TrialOutcome,
    TrialRecord, TrialSpec,
};
use smst_analyze::ingest::{ingest_file, Artifact, CampaignDoc};
use smst_analyze::kmw::{lower_bound, upper_bound, KmwAnalysis, KmwFamily, KmwPoint};
use smst_analyze::Json;
use smst_engine::{ChaosReport, PoolStats};
use smst_sim::{RoundObserver as _, RoundStats, WaveStats};
use smst_telemetry::chaos::{ChaosArtifact, ChaosRun};
use smst_telemetry::rounds::RoundsArtifact;
use smst_telemetry::{FlightDump, FlightRecorder, TraceLine};
use std::path::PathBuf;

const ROUNDS_GOLDEN: &str = include_str!("golden/BENCH_rounds_golden.json");
const CHAOS_GOLDEN: &str = include_str!("golden/BENCH_chaos_golden.json");
const FLIGHT_GOLDEN: &str = include_str!("golden/FLIGHT_golden.json");
const TRACE_GOLDEN: &str = include_str!("golden/TRACE_golden.jsonl");
const ANALYSIS_GOLDEN: &str = include_str!("golden/ANALYSIS_kmw_golden.json");
const CAMPAIGN_SEARCH_GOLDEN: &str = include_str!("golden/CAMPAIGN_search_golden.json");
const CAMPAIGN_CHAOS_GOLDEN: &str = include_str!("golden/CAMPAIGN_chaos_golden.json");

/// The fixed round record every golden stream is made of.
fn stat(round: usize) -> RoundStats {
    RoundStats {
        round,
        alarms: round % 2,
        activations: 48,
        halo_bytes: 128,
        dispatch_ns: 1_000 + round as u64,
        compute_ns: 90_000,
        barrier_ns: 2_500,
        exchange_ns: 700,
    }
}

/// The fixed run the rounds golden file captures.
fn rounds_artifact() -> RoundsArtifact {
    let mut artifact = RoundsArtifact::new("rounds_golden");
    artifact.push("expander/n=48", "seed=7", vec![stat(0), stat(1), stat(2)]);
    artifact.push("ring/n=12", "trial=r0-3", vec![stat(0)]);
    artifact
}

/// The fixed campaign the chaos golden file captures.
fn chaos_artifact() -> ChaosArtifact {
    let mut artifact = ChaosArtifact::new("chaos_golden");
    artifact.push(ChaosRun {
        label: "sharded-sync(threads=4)".to_string(),
        run: "seed=7".to_string(),
        schedule: "periodic(period=8,offset=0,f=4,seed=7)".to_string(),
        steps_run: 24,
        injected_faults: 12,
        waves: vec![
            WaveStats {
                wave: 0,
                step: 0,
                faults: 4,
                detection_latency: Some(1),
                quiescence: Some(6),
            },
            WaveStats {
                wave: 1,
                step: 8,
                faults: 4,
                detection_latency: Some(2),
                quiescence: None,
            },
        ],
    });
    artifact
}

/// The fixed dump the flight golden file captures: three rounds through
/// a two-slot ring.
fn flight_dump() -> FlightDump {
    let recorder = FlightRecorder::new(2);
    let mut handle = recorder.clone();
    for round in 0..3 {
        handle.on_round(&stat(round));
    }
    recorder.dump("golden", "barrier timeout after 100ms: \"part 1\"")
}

/// The two records the trace golden stream captures.
fn trace_lines() -> Vec<TraceLine> {
    let line = |run: &str, round| TraceLine {
        run: run.to_string(),
        stats: stat(round),
    };
    vec![line("trial=\"r0-3\"\tseed=7", 0), line("expander/n=48", 5)]
}

/// The fixed sweep the analysis golden file captures.
fn kmw_analysis() -> KmwAnalysis {
    let point = |levels, delta, n, detected, measured_rounds| KmwPoint {
        levels,
        delta,
        n,
        trials: 5,
        detected,
        measured_rounds,
        upper_bound: upper_bound(n),
        lower_bound: lower_bound(n),
    };
    let family = |family: &str, kind: &str, points| KmwFamily {
        family: family.to_string(),
        kind: kind.to_string(),
        points,
    };
    KmwAnalysis {
        seed: 7,
        warmup: 64,
        families: vec![
            family(
                "kmw_cluster_tree",
                "hard",
                vec![point(2, 3, 17, 5, Some(1)), point(3, 3, 78, 4, Some(9))],
            ),
            family("kmw_hybrid", "hard", vec![point(2, 3, 26, 0, None)]),
            family("expander", "easy", vec![point(0, 0, 17, 5, Some(2))]),
        ],
    }
}

const CAMPAIGN_BUDGET: usize = 64;

/// The fixed search campaign (a missed find, its tame twin, a shrunk
/// best) the search-campaign golden file captures.
fn search_campaign_json() -> String {
    let outcome = |detection: Option<usize>, recovered| TrialOutcome {
        node_count: 16,
        steps_run: 40,
        injected_faults: 2,
        detection,
        recovered,
        score: detection.map_or(Score::Missed, Score::Measured),
    };
    let record = |id: &str, outcome: TrialOutcome, baseline: TrialOutcome| {
        let spec = TrialSpec::from_id(id).expect("a valid trial id");
        let score = |o: &TrialOutcome| o.score.value(CAMPAIGN_BUDGET) as i64;
        TrialRecord {
            id: spec.id(),
            daemon: spec.daemon.encode(),
            regret: score(&outcome) - score(&baseline),
            spec,
            outcome,
            baseline,
        }
    };
    let late = "smst1;wl=mon;fam=path:16;gs=8;d=stall:2:1;fk=sp;fc=2;fs=13;at=4;bu=64";
    let tame = "smst1;wl=mon;fam=path:16;gs=8;d=rr:1;fk=sp;fc=2;fs=13;at=4;bu=64";
    let report = CampaignReport {
        name: "search_golden".to_string(),
        records: vec![
            record(late, outcome(None, None), outcome(Some(7), Some(19))),
            record(tame, outcome(Some(7), Some(19)), outcome(Some(7), Some(19))),
        ],
        random_trials: 2,
        guided_trials: 1,
    };
    let shrunk = ShrinkResult {
        spec: TrialSpec::from_id(late).unwrap(),
        outcome: outcome(Some(33), None),
        accepted: 3,
        evaluated: 11,
    };
    campaign_json(&report, CAMPAIGN_BUDGET, Some(&shrunk))
}

/// The fixed chaos campaign (one digested case, one censored) the
/// chaos-campaign golden file captures.
fn chaos_campaign_golden_json() -> String {
    let wave = |wave, step, detection_latency, quiescence| WaveStats {
        wave,
        step,
        faults: 4,
        detection_latency,
        quiescence,
    };
    let records = [
        ChaosCaseRecord {
            case: "periodic/t=2".to_string(),
            schedule: "periodic(period=8,offset=0,f=4,seed=7)".to_string(),
            threads: 2,
            report: ChaosReport {
                steps_run: 24,
                waves: vec![
                    wave(0, 0, Some(1), Some(6)),
                    wave(1, 8, Some(2), Some(5)),
                    wave(2, 16, Some(2), None),
                ],
                injected_faults: 12,
            },
            recovery_invisible: Some(true),
        },
        ChaosCaseRecord {
            case: "burst \"censored\"".to_string(),
            schedule: "burst(at=3,f=4,seed=9)".to_string(),
            threads: 1,
            report: ChaosReport {
                steps_run: 4,
                waves: vec![wave(0, 3, None, None)],
                injected_faults: 4,
            },
            recovery_invisible: None,
        },
    ];
    chaos_campaign_json("chaos_golden", &records, &PoolStats::default())
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn rounds_writer_reproduces_the_golden_file_byte_for_byte() {
    assert_eq!(
        rounds_artifact().to_json(),
        ROUNDS_GOLDEN,
        "the smst-rounds-v1 writer changed; if intentional, regenerate \
         tests/golden/BENCH_rounds_golden.json and bump the schema version"
    );
}

#[test]
fn chaos_writer_reproduces_the_golden_file_byte_for_byte() {
    assert_eq!(
        chaos_artifact().to_json(),
        CHAOS_GOLDEN,
        "the smst-chaos-v1 writer changed; if intentional, regenerate \
         tests/golden/BENCH_chaos_golden.json and bump the schema version"
    );
}

#[test]
fn rounds_golden_field_sets_are_pinned() {
    let doc = Json::parse(ROUNDS_GOLDEN).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("smst-rounds-v1"));
    assert_eq!(doc.keys(), vec!["schema", "group", "runs"]);
    let run = &doc.get("runs").unwrap().as_array().unwrap()[0];
    assert_eq!(run.keys(), vec!["label", "run", "rounds"]);
    let round = &run.get("rounds").unwrap().as_array().unwrap()[0];
    assert_eq!(
        round.keys(),
        vec![
            "round",
            "alarms",
            "activations",
            "halo_bytes",
            "dispatch_ns",
            "compute_ns",
            "barrier_ns",
            "exchange_ns"
        ]
    );
}

#[test]
fn chaos_golden_field_sets_are_pinned() {
    let doc = Json::parse(CHAOS_GOLDEN).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("smst-chaos-v1"));
    assert_eq!(doc.keys(), vec!["schema", "group", "runs"]);
    let run = &doc.get("runs").unwrap().as_array().unwrap()[0];
    assert_eq!(
        run.keys(),
        vec![
            "label",
            "run",
            "schedule",
            "steps_run",
            "injected_faults",
            "detected_waves",
            "quiesced_waves",
            "mean_detection_latency",
            "mean_quiescence",
            "waves"
        ]
    );
    let wave = &run.get("waves").unwrap().as_array().unwrap()[0];
    assert_eq!(
        wave.keys(),
        vec!["wave", "step", "faults", "detection_latency", "quiescence"]
    );
}

#[test]
fn golden_files_ingest_into_typed_records() {
    let Artifact::Rounds(rounds) = ingest_file(&golden_dir().join("BENCH_rounds_golden.json"))
        .expect("the checked-in rounds golden must ingest")
    else {
        panic!("expected a rounds artifact");
    };
    assert_eq!(rounds.group(), "rounds_golden");
    assert_eq!(rounds.runs().len(), 2);
    assert_eq!(rounds.runs()[0].rounds.len(), 3);
    assert_eq!(rounds.runs()[0].rounds[2].dispatch_ns, 1_002);
    assert_eq!(rounds, rounds_artifact(), "the reader inverts the writer");

    let Artifact::Chaos(chaos) = ingest_file(&golden_dir().join("BENCH_chaos_golden.json"))
        .expect("the checked-in chaos golden must ingest")
    else {
        panic!("expected a chaos artifact");
    };
    assert_eq!(chaos.group(), "chaos_golden");
    assert_eq!(chaos.runs()[0].detected_waves(), 2);
    assert_eq!(chaos.runs()[0].quiesced_waves(), 1);
    assert_eq!(chaos.runs()[0].waves[1].quiescence, None);
    assert_eq!(chaos, chaos_artifact(), "the reader inverts the writer");
}

#[test]
fn every_other_writer_reproduces_its_golden_file_byte_for_byte() {
    let hint = "a writer changed; if intentional, regenerate the golden file \
                and bump the schema version";
    assert_eq!(flight_dump().to_json(), FLIGHT_GOLDEN, "{hint}");
    let trace: String = trace_lines()
        .iter()
        .map(|line| line.to_json() + "\n")
        .collect();
    assert_eq!(trace, TRACE_GOLDEN, "{hint}");
    assert_eq!(kmw_analysis().to_json(), ANALYSIS_GOLDEN, "{hint}");
    assert_eq!(search_campaign_json(), CAMPAIGN_SEARCH_GOLDEN, "{hint}");
    assert_eq!(
        chaos_campaign_golden_json(),
        CAMPAIGN_CHAOS_GOLDEN,
        "{hint}"
    );
}

#[test]
fn every_other_golden_file_ingests_into_its_producers_type() {
    let ingest = |name: &str| {
        ingest_file(&golden_dir().join(name))
            .unwrap_or_else(|e| panic!("the checked-in {name} must ingest: {e}"))
    };
    assert_eq!(
        ingest("FLIGHT_golden.json"),
        Artifact::Flight(flight_dump())
    );
    assert_eq!(ingest("TRACE_golden.jsonl"), Artifact::Trace(trace_lines()));
    // the bounds are written with three decimals, so compare what the
    // reader got by writing it again
    let Artifact::Analysis(analysis) = ingest("ANALYSIS_kmw_golden.json") else {
        panic!("expected an analysis artifact");
    };
    assert_eq!(analysis.to_json(), ANALYSIS_GOLDEN);
    assert_eq!(analysis.family_points("kmw_cluster_tree"), 2);
    assert_eq!(
        ingest("CAMPAIGN_search_golden.json"),
        Artifact::Campaign(CampaignDoc::Search {
            campaign: "search_golden".to_string(),
            random_trials: 2,
            guided_trials: 1,
            records: 2,
        })
    );
    assert_eq!(
        ingest("CAMPAIGN_chaos_golden.json"),
        Artifact::Campaign(CampaignDoc::Chaos {
            campaign: "chaos_golden".to_string(),
            cases: 2,
            pool: (0, 0, 0),
        })
    );
}
