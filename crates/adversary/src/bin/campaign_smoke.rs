//! A tiny seeded campaign for CI: exercises the whole pipeline (search →
//! baseline regret → shrink → replay) in seconds and writes
//! `CAMPAIGN_smoke.json` for the artifact upload. The campaign's best find
//! is additionally replayed **observed** — teeing a [`RecordingObserver`]
//! with the trace sink — and its per-round stream is written to
//! `TRACE_campaign_smoke.jsonl`, keyed by the replayable `TrialId`.
//! `SMST_BENCH_SMOKE=1` shrinks the trial count further (the default sizes
//! are already small).

use smst_adversary::{
    beats_round_robin_memo, run_campaign, run_trial, run_trial_observed, shrink_trial,
    write_campaign_artifact_in, CampaignSpec, TrialSpec, Workload,
};
use smst_bench::harness::smoke_mode;
use smst_sim::{RecordingObserver, TeeObserver};
use smst_telemetry::{artifact_dir, TraceWriter};

fn main() {
    let mut spec = CampaignSpec::new("smoke", Workload::Monitor);
    spec.seed = 7;
    spec.threads = smst_engine::default_threads();
    if smoke_mode() {
        spec.random_trials = 12;
        spec.guided_rounds = 1;
    }
    println!(
        "campaign `{}`: {} random trials + {} guided rounds over {} daemons × {} families",
        spec.name,
        spec.random_trials,
        spec.guided_rounds,
        spec.daemons.len(),
        spec.families.len()
    );
    let report = run_campaign(&spec);
    let best = report.best().expect("the campaign ran trials").clone();
    println!(
        "best find: regret {:+} ({} vs round-robin {}) — {}",
        best.regret,
        best.outcome.score.value(spec.budget),
        best.baseline.score.value(spec.budget),
        best.id
    );

    // regret > 0 alone is not enough: a Missed best score out-ranks every
    // measured one but fails the shrinker's beats_round_robin precondition
    let shrunk = if best.regret > 0 && !best.outcome.score.is_missed() {
        let result = shrink_trial(&best.spec, beats_round_robin_memo());
        println!(
            "shrunk to {} nodes / budget {} after {} accepted moves ({} evaluated): {}",
            result.spec.family.node_count(),
            result.spec.budget,
            result.accepted,
            result.evaluated,
            result.spec.id()
        );
        // the shrunk id must replay identically — fail the smoke job loudly
        // if determinism ever regresses
        let replayed = TrialSpec::from_id(&result.spec.id()).expect("ids parse");
        assert_eq!(
            run_trial(&replayed),
            run_trial(&result.spec),
            "shrunk trial did not replay identically"
        );
        Some(result)
    } else {
        println!("no adversarial daemon beat round-robin in this tiny space");
        None
    };
    write_campaign_artifact_in(&artifact_dir(), &report, spec.budget, shrunk.as_ref());

    // observed replay of the best find (shrunk if available): the
    // deterministic trial, re-run with per-round accounting attached, its
    // stream written to TRACE_campaign_smoke.jsonl keyed by the TrialId
    let replay_spec = shrunk.map(|s| s.spec).unwrap_or(best.spec);
    let trial_id = replay_spec.id();
    let trace = TraceWriter::create_in(&artifact_dir(), "campaign_smoke")
        .expect("creating TRACE_campaign_smoke.jsonl");
    let recording = RecordingObserver::new();
    let tee = TeeObserver::new()
        .with(Box::new(recording.clone()))
        .with(trace.observer(&trial_id));
    let observed = run_trial_observed(&replay_spec, Box::new(tee));
    assert_eq!(
        observed,
        run_trial(&replay_spec),
        "attaching an observer changed the trial outcome"
    );
    assert_eq!(
        recording.stats().len(),
        observed.steps_run,
        "one record per step run"
    );
    trace.flush().expect("flushing the campaign trace");
    println!("  trace -> {}", trace.path().display());
}
