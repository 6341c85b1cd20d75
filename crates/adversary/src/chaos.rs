//! Chaos campaigns: recurring [`FaultSchedule`] waves driven through the
//! engine's self-healing pool, recorded as `smst-telemetry` artifacts.
//!
//! The campaign engine in [`campaign`](crate::campaign) *searches* for bad
//! schedules; this module *endures* them. A [`ChaosCase`] is one fully
//! replayable verify-forever run — graph family × schedule × execution
//! envelope (an [`EngineConfig`]: threads, `RecoveryPolicy`, optional
//! one-shot `InjectionSpec`) — executed by the engine's
//! [`run_chaos`] loop on the [`AlarmedFlood`] workload (the one demo
//! program where every wave is both *detected* — the garbage floods to a
//! monitor node — and *digested* — out-of-range values decay
//! geometrically and the flood re-converges). Results leave one way:
//! [`ChaosCase::chaos_run`] converts an engine [`ChaosReport`] into a
//! telemetry [`ChaosRun`] for the `BENCH_chaos.json` artifact
//! ([`smst_telemetry::ChaosArtifact`]), the campaign's one artifact.

use smst_engine::programs::AlarmedFlood;
use smst_engine::{run_chaos, ChaosReport, EngineConfig, EngineError, GraphFamily};
use smst_sim::FaultSchedule;
use smst_telemetry::ChaosRun;

/// One replayable chaos campaign case: a graph family under a recurring
/// fault schedule, executed on a chosen engine envelope.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Case label (artifact key).
    pub name: String,
    /// The graph family under chaos.
    pub family: GraphFamily,
    /// Graph seed.
    pub seed: u64,
    /// The execution envelope: worker threads, the retry/backoff/watchdog
    /// policy for panicked or hung workers, an optional one-shot
    /// worker-level injection.
    pub engine: EngineConfig,
    /// The recurring fault schedule.
    pub schedule: FaultSchedule,
    /// Step budget of the campaign.
    pub steps: usize,
}

impl ChaosCase {
    /// A case with defaults: seed 1 and [`EngineConfig::new`] (one thread,
    /// no recovery, no injection).
    pub fn new(name: &str, family: GraphFamily, schedule: FaultSchedule, steps: usize) -> Self {
        ChaosCase {
            name: name.to_string(),
            family,
            seed: 1,
            engine: EngineConfig::new(),
            schedule,
            steps,
        }
    }

    /// Sets the graph seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution envelope.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// The workload every chaos case runs: an [`AlarmedFlood`] converging
    /// to the family's largest identity, with node 0 as the monitor —
    /// detection latency is the propagation distance from each wave to
    /// node 0, quiescence the garbage-decay plus re-convergence time.
    pub fn workload(&self) -> AlarmedFlood {
        AlarmedFlood::new(0, self.family.node_count() as u64 - 1)
    }

    /// Runs the campaign on whatever runner the envelope describes: every
    /// wave corrupts its registers with [`AlarmedFlood::BOGUS`].
    pub fn run(&self) -> Result<ChaosCaseOutcome, EngineError> {
        let program = self.workload();
        let graph = self.family.build(self.seed);
        let mut runner = self.engine.instantiate(&program, graph)?;
        let mut bogus = |_v, s: &mut u64| *s = AlarmedFlood::BOGUS;
        let report = run_chaos(runner.as_mut(), &self.schedule, self.steps, &mut bogus)?;
        Ok(ChaosCaseOutcome {
            report,
            states: runner.states_snapshot(),
        })
    }

    /// Bridges an engine [`ChaosReport`] into the telemetry artifact
    /// record for this case.
    pub fn chaos_run(&self, report: &ChaosReport) -> ChaosRun {
        ChaosRun {
            label: self.name.clone(),
            run: format!(
                "{:?} seed={} threads={} recovery={:?}",
                self.family, self.seed, self.engine.threads, self.engine.recovery
            ),
            schedule: self.schedule.describe(),
            steps_run: report.steps_run,
            injected_faults: report.injected_faults,
            waves: report.waves.clone(),
        }
    }
}

/// What one chaos case produced: the campaign report plus the final
/// registers (for clean-vs-injected identity checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCaseOutcome {
    /// Per-wave accounting and run totals.
    pub report: ChaosReport,
    /// Final registers, by original node id.
    pub states: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use smst_engine::{InjectionSpec, RecoveryPolicy};

    fn small_case(name: &str, threads: usize) -> ChaosCase {
        // period 24 leaves each wave room for the ~15-step garbage decay
        // plus the expander's diameter before the next wave fires
        ChaosCase::new(
            name,
            GraphFamily::Expander { n: 48, degree: 4 },
            FaultSchedule::periodic(24, 5, 23).offset(3),
            75,
        )
        .seed(6)
        .engine(EngineConfig::new().threads(threads))
    }

    #[test]
    fn a_case_detects_and_digests_every_wave() {
        let outcome = small_case("unit_periodic", 2).run().expect("valid case");
        assert_eq!(outcome.report.waves.len(), 3, "waves at 3, 27, 51");
        assert_eq!(outcome.report.detected_waves(), 3);
        assert_eq!(outcome.report.quiesced_waves(), 3);
        assert!(
            outcome.states.iter().all(|&s| s == 47),
            "back at the ceiling"
        );
    }

    #[test]
    fn cases_replay_across_thread_counts() {
        let a = small_case("a", 1).run().expect("valid case");
        let b = small_case("b", 4).run().expect("valid case");
        assert_eq!(a.report, b.report);
        assert_eq!(a.states, b.states);
    }

    #[test]
    fn injected_panic_with_recovery_is_invisible() {
        let clean = small_case("clean", 2).run().expect("valid case");
        let chaotic = small_case("chaotic", 2)
            .engine(
                EngineConfig::new()
                    .threads(2)
                    .recovery(RecoveryPolicy::retries(2))
                    .inject(InjectionSpec::panic_at(4, 0)),
            )
            .run()
            .expect("the injected panic is retried away");
        assert_eq!(chaotic, clean);
    }

    #[test]
    fn metrics_bridge_counts_waves_and_latencies() {
        let outcome = small_case("metrics", 2).run().expect("valid case");
        let report = &outcome.report;
        assert_eq!(report.waves.len(), 3);
        assert_eq!(report.injected_faults, 15, "5 registers a wave");
        let latencies = report.waves.iter().filter_map(|w| w.detection_latency);
        assert_eq!(latencies.count(), 3);
        let quiescences = report.waves.iter().filter_map(|w| w.quiescence);
        assert_eq!(quiescences.count(), 3);
    }
}
