//! A seeded verify-forever chaos campaign for CI: periodic, burst and
//! Poisson fault schedules endured on the engine's self-healing pool,
//! with worker-level chaos layered on top. Every schedule runs twice —
//! clean, and with an injected worker panic recovered under a
//! [`RecoveryPolicy`] — and the two outcomes must match **bit-for-bit**
//! (recovery is invisible in the deterministic trace). A hung-worker
//! injection must trip the barrier watchdog as a typed
//! [`PoolError::BarrierTimeout`] instead of deadlocking. Writes the
//! per-wave books to `BENCH_chaos.json` and the campaign summary (cases +
//! pool self-healing counters) to `CAMPAIGN_chaos.json`.
//! `SMST_BENCH_SMOKE=1` shrinks the graph.

use smst_adversary::chaos::{
    record_chaos_metrics, record_pool_metrics, write_chaos_campaign_artifact_in, ChaosCase,
    ChaosCaseRecord,
};
use smst_bench::harness::smoke_mode;
use smst_engine::programs::AlarmedFlood;
use smst_engine::{
    EngineConfig, EngineError, GraphFamily, InjectionSpec, ParallelSyncRunner, PoolError,
    PoolHandle, RecoveryPolicy, Runner, StopCondition,
};
use smst_sim::FaultSchedule;
use smst_telemetry::{artifact_dir, names, ChaosArtifact, FlightRecorder, Metrics};
use std::time::Duration;

fn main() {
    // the barrier watchdog needs a real barrier, so at least two parts
    let threads = smst_engine::default_threads().clamp(2, 8);
    let n = if smoke_mode() { 96 } else { 192 };
    let family = GraphFamily::Expander { n, degree: 4 };
    // the AlarmedFlood garbage decays in ~log2(BOGUS / n) ≈ 14 steps, plus
    // the expander's diameter to re-converge (~28 steps in total): waves
    // 30 steps apart leave every wave room to quiesce before the next one
    // fires, and the budget leaves the last wave room to quiesce too
    let steps = 95;
    let schedules = [
        ("periodic", FaultSchedule::periodic(30, 6, 23).offset(5)),
        ("burst", FaultSchedule::bursts([5, 35, 65], 8, 91)),
        ("poisson", FaultSchedule::poisson(0.02, 4, 7)),
    ];
    println!(
        "chaos campaign: {} schedules × {} steps on {n}-node expander, {threads} threads",
        schedules.len(),
        steps
    );

    // hold one handle for the whole campaign: the pool registry frees a
    // pool when its last handle drops, which would zero the self-healing
    // counters between cases
    let pool = PoolHandle::for_threads(threads);
    let metrics = Metrics::new();
    let mut artifact = ChaosArtifact::new("chaos");
    let mut records = Vec::new();
    for (name, schedule) in schedules {
        let envelope = EngineConfig::new().threads(threads);
        let case = ChaosCase::new(name, family.clone(), schedule, steps)
            .seed(11)
            .engine(envelope.clone());
        let clean = case.run().expect("a valid chaos case");
        // the injected twin: a pool-worker panic mid-campaign (part 1, a
        // real pooled thread, so the retirement/respawn machinery runs),
        // retried away under the recovery policy — it must reproduce the
        // clean run bit-for-bit
        let chaotic = case
            .clone()
            .engine(
                envelope
                    .recovery(RecoveryPolicy::retries(2).backoff(Duration::from_millis(1)))
                    .inject(InjectionSpec::panic_at(7, 1)),
            )
            .run()
            .expect("the injected panic is retried away");
        let invisible = chaotic == clean;
        assert!(
            invisible,
            "case `{name}`: recovery leaked into the deterministic trace"
        );
        println!(
            "  {name}: {} waves, {} detected, {} quiesced, mean detection {:?}, \
             mean quiescence {:?}, recovery invisible",
            clean.report.waves.len(),
            clean.report.detected_waves(),
            clean.report.quiesced_waves(),
            clean.report.mean_detection_latency(),
            clean.report.mean_quiescence(),
        );
        record_chaos_metrics(&metrics, &clean.report);
        artifact.push(case.chaos_run(&clean.report));
        records.push(ChaosCaseRecord::new(&case, clean.report).recovery_invisible(invisible));
    }

    // the acceptance schedules must have measured both latencies
    for record in &records {
        if record.case == "periodic" || record.case == "burst" {
            assert!(
                record.report.mean_detection_latency().is_some(),
                "case `{}` measured no detection latency",
                record.case
            );
            assert!(
                record.report.mean_quiescence().is_some(),
                "case `{}` measured no quiescence",
                record.case
            );
        }
    }

    // a hung worker must become a typed timeout within the watchdog, not
    // a deadlock — the watchdog guards the round barrier inside
    // multi-round chunks, so drive a chunked run directly
    let watchdog = Duration::from_millis(100);
    let graph = family.build(11);
    let program = AlarmedFlood::new(0, n as u64 - 1);
    let stalled_config = EngineConfig::new()
        .threads(threads)
        .recovery(RecoveryPolicy::retries(2).watchdog(watchdog))
        .inject(InjectionSpec::stall_at(3, 1, 800));
    let mut stalled = ParallelSyncRunner::from_config(&program, graph, &stalled_config)
        .expect("a valid stall envelope");
    // the flight recorder rides along as an observer: when the watchdog
    // trips, its final ring-buffer window becomes the postmortem artifact
    let flight = FlightRecorder::new(32);
    stalled.set_observer(Box::new(flight.clone()));
    #[expect(
        clippy::disallowed_methods,
        reason = "smoke binary prints watchdog wall time for the operator readout"
    )]
    let started = std::time::Instant::now();
    match stalled.try_run_until(StopCondition::Steps, 8) {
        Err(EngineError::Pool(PoolError::BarrierTimeout { timeout })) => {
            assert_eq!(timeout, watchdog, "the configured watchdog surfaced");
            println!(
                "  stall: barrier watchdog tripped after {:?} (limit {watchdog:?})",
                started.elapsed()
            );
            let reason = format!("barrier timeout after {timeout:?}");
            let path = flight
                .dump("chaos_stall", &reason)
                .write_json_to(&artifact_dir())
                .expect("writing the flight-recorder artifact");
            println!(
                "  flight -> {} ({} of {} rounds retained)",
                path.display(),
                flight.len(),
                flight.rounds_seen()
            );
        }
        other => panic!("a hung worker must trip the watchdog, got {other:?}"),
    }

    record_pool_metrics(&metrics, pool.pool().stats());
    let snapshot = metrics.snapshot();
    assert!(
        snapshot.counters[names::POOL_WORKER_PANICS] >= records.len() as u64,
        "every injected panic is accounted"
    );
    assert!(
        snapshot.counters[names::POOL_BARRIER_TIMEOUTS] >= 1,
        "the tripped watchdog is accounted"
    );
    println!(
        "  pool: {} panics, {} respawns, {} barrier timeouts; chaos: {} waves, {} faults",
        snapshot.counters[names::POOL_WORKER_PANICS],
        snapshot.counters[names::POOL_WORKER_RESPAWNS],
        snapshot.counters[names::POOL_BARRIER_TIMEOUTS],
        snapshot.counters[names::CHAOS_WAVES],
        snapshot.counters[names::CHAOS_FAULTS],
    );

    artifact.finish();
    write_chaos_campaign_artifact_in(&artifact_dir(), "chaos", &records, pool.pool().stats());
}
