//! The chaos plane: recurring fault schedules on a [`Runner`].
//!
//! A single-burst fault experiment
//! ([`run_fault_experiment`](crate::run_fault_experiment)) measures one
//! detection; the paper's verifier is *perpetual*, so the interesting
//! workload is an unbounded stream of fault waves. [`run_chaos`] drives a
//! [`FaultSchedule`] through any object-safe [`Runner`]: between steps it
//! asks the schedule whether a wave fires, applies the wave's
//! [`FaultPlan`](smst_sim::FaultPlan) through the caller's mutator, and
//! keeps per-wave books — steps to first alarm (detection latency) and
//! steps until every node accepts again (rounds to quiescence, the
//! MTTR-style figure). A wave still open when the next one fires, or when
//! the step budget runs out, keeps `None` in the censored fields rather
//! than a fabricated number.
//!
//! This is the second of the two loops that step a `Runner` (the other is
//! [`drive_until`](crate::drive_until), which the burst experiment is
//! built from): per-wave books over an unbounded schedule need a look at
//! the registers after *every* step, which no stop condition expresses.
//! The two share the latency rule — a wave's latencies count executed
//! steps and are ≥ 1 — pinned by `tests/chaos_determinism.rs`.
//!
//! Worker failures surface through [`Runner::try_step`]: under a
//! [`RecoveryPolicy`](crate::config::RecoveryPolicy) the runner retries
//! panicked steps invisibly; past the policy the campaign stops with a
//! typed [`EngineError`]. The engine stays telemetry-free — the chaos
//! artifacts in `smst-telemetry` are filled from [`ChaosReport`] by the
//! bench/bin layer.

use crate::config::EngineError;
use crate::runner::Runner;
use smst_graph::NodeId;
use smst_sim::{FaultSchedule, NodeProgram, WaveStats};

/// What a chaos campaign observed: every wave with its latencies, plus
/// run-level totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Steps actually executed.
    pub steps_run: usize,
    /// Per-wave accounting, in firing order.
    pub waves: Vec<WaveStats>,
    /// Total registers corrupted across all waves.
    pub injected_faults: usize,
}

impl ChaosReport {
    /// Waves whose corruption was detected (an alarm rose before the next
    /// wave or the end of the run).
    pub fn detected_waves(&self) -> usize {
        WaveStats::detected_waves(&self.waves)
    }

    /// Waves the system fully digested (every node accepting again before
    /// the next wave or the end of the run).
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

/// Drives `schedule` through `runner` for `max_steps` steps — **the**
/// chaos loop, shared by tests, benches and the smoke bins. Waves fire at
/// the *start* of their step (the corrupted registers are what that step's
/// reads observe), as a [`FaultBurst`](crate::FaultBurst) does.
pub fn run_chaos<P, F>(
    runner: &mut dyn Runner<P>,
    schedule: &FaultSchedule,
    max_steps: usize,
    corrupt: &mut F,
) -> Result<ChaosReport, EngineError>
where
    P: NodeProgram + Sync,
    P::State: Send + Sync,
    F: FnMut(NodeId, &mut P::State),
{
    let n = runner.graph().node_count();
    let mut waves: Vec<WaveStats> = Vec::new();
    let mut injected = 0usize;
    let mut steps_run = 0usize;
    for step in 0..max_steps {
        if schedule.fires_at(step) {
            // the loop starts at step 0, so the waves fired so far *are*
            // this wave's index — no recount of the earlier arrivals
            let plan = schedule.wave_plan(waves.len(), n);
            runner.apply_faults(&plan, corrupt);
            injected += plan.len();
            waves.push(WaveStats {
                wave: waves.len(),
                step,
                faults: plan.len(),
                detection_latency: None,
                quiescence: None,
            });
        }
        runner.try_step()?;
        steps_run = step + 1;
        if let Some(open) = waves.last_mut().filter(|w| w.quiescence.is_none()) {
            let since = step + 1 - open.step;
            if open.detection_latency.is_none() && runner.any_alarm() {
                open.detection_latency = Some(since);
            }
            if runner.all_accept() {
                open.quiescence = Some(since);
            }
        }
    }
    Ok(ChaosReport {
        steps_run,
        waves,
        injected_faults: injected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, InjectionSpec, RecoveryPolicy};
    use crate::pool::PoolError;
    use crate::programs::MinIdFlood;
    use crate::scenario::GraphFamily;
    use smst_sim::Network;

    fn threads(threads: usize) -> EngineConfig {
        EngineConfig::new().threads(threads)
    }

    /// Final registers plus the campaign report.
    #[derive(Debug)]
    struct ChaosOutcome {
        report: ChaosReport,
        network: Network<MinIdFlood>,
    }

    /// [`run_chaos`] of the min-id flood on the 60-node expander, on
    /// whatever runner `engine` describes.
    fn run_chaos_scenario(
        engine: &EngineConfig,
        schedule: &FaultSchedule,
        max_steps: usize,
        mut corrupt: impl FnMut(NodeId, &mut u64),
    ) -> Result<ChaosOutcome, EngineError> {
        let program = MinIdFlood::new(0);
        let graph = GraphFamily::Expander { n: 60, degree: 4 }.build(5);
        let mut runner = engine.instantiate(&program, graph)?;
        let report = run_chaos(runner.as_mut(), schedule, max_steps, &mut corrupt)?;
        Ok(ChaosOutcome {
            report,
            network: runner.into_network(),
        })
    }

    #[test]
    fn periodic_waves_are_detected_and_digested() {
        // period 12 leaves the 60-node flood plenty of room to re-converge
        let schedule = FaultSchedule::periodic(12, 6, 42).offset(4);
        let outcome = run_chaos_scenario(&threads(3), &schedule, 40, |_v, s| *s = u64::MAX)
            .expect("valid envelope");
        assert_eq!(outcome.report.waves.len(), 3, "waves at 4, 16, 28");
        assert_eq!(outcome.report.injected_faults, 18);
        for w in &outcome.report.waves {
            assert!(w.quiescence.is_some(), "wave {} never quiesced", w.wave);
        }
        assert!(outcome.report.mean_quiescence().unwrap() >= 1.0);
        assert!(outcome.network.states().iter().all(|&s| s == 0));
    }

    #[test]
    fn back_to_back_waves_censor_the_open_wave() {
        // every step a full-corruption wave: nothing can quiesce before
        // the next wave fires, so every wave but the last stays censored
        let schedule = FaultSchedule::periodic(1, 60, 3);
        let outcome = run_chaos_scenario(&threads(2), &schedule, 10, |_v, s| *s = u64::MAX)
            .expect("valid envelope");
        assert_eq!(outcome.report.waves.len(), 10);
        let censored = outcome
            .report
            .waves
            .iter()
            .take(9)
            .filter(|w| w.quiescence.is_none())
            .count();
        assert_eq!(censored, 9, "open waves stay None, not fabricated");
    }

    #[test]
    fn chaos_campaigns_replay_bit_for_bit() {
        let schedule = FaultSchedule::poisson(0.2, 4, 17);
        let run = |n| {
            run_chaos_scenario(&threads(n), &schedule, 60, |v, s| *s = v.0 as u64 + 100)
                .expect("valid envelope")
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.report, b.report, "thread count is a wall-clock knob");
        assert_eq!(a.network.states(), b.network.states());
    }

    #[test]
    fn the_loop_numbers_waves_as_random_access_does() {
        // the loop counts the waves it fired instead of recounting the
        // earlier arrivals: same indices, same plans as `wave_at`
        let schedule = FaultSchedule::poisson(0.2, 4, 17);
        let report = run_chaos_scenario(&threads(2), &schedule, 80, |_v, s| *s = u64::MAX)
            .expect("valid envelope")
            .report;
        assert_eq!(report.waves.len(), schedule.arrivals(80).len());
        assert!(
            report.waves.len() > 5,
            "the rate leaves real waves to check"
        );
        for (i, w) in report.waves.iter().enumerate() {
            let (wave, plan) = schedule.wave_at(w.step, 60).expect("fired here");
            assert_eq!((w.wave, w.faults), (i, plan.len()));
            assert_eq!(wave, i);
        }
    }

    #[test]
    fn worker_failure_stops_the_campaign_with_a_typed_error() {
        let base = threads(2).inject(InjectionSpec::panic_at(5, 0));
        let schedule = FaultSchedule::periodic(4, 3, 8);
        let err = run_chaos_scenario(&base, &schedule, 30, |_v, s| *s = u64::MAX)
            .expect_err("no recovery policy, the panic must surface");
        assert!(matches!(
            err,
            EngineError::Pool(PoolError::WorkerPanic { .. })
        ));
    }

    #[test]
    fn recovery_makes_the_same_campaign_succeed_identically() {
        let schedule = FaultSchedule::periodic(6, 5, 21);
        let clean = run_chaos_scenario(&threads(2), &schedule, 30, |_v, s| *s = u64::MAX)
            .expect("valid envelope");
        let chaotic = run_chaos_scenario(
            &threads(2)
                .recovery(RecoveryPolicy::retries(2))
                .inject(InjectionSpec::panic_at(5, 0)),
            &schedule,
            30,
            |_v, s| *s = u64::MAX,
        )
        .expect("the injected panic is retried away");
        assert_eq!(chaotic.report, clean.report);
        assert_eq!(chaotic.network.states(), clean.network.states());
    }

    #[test]
    fn reference_backend_agrees_with_the_engine() {
        let schedule = FaultSchedule::periodic(9, 4, 13);
        let sharded = run_chaos_scenario(&threads(4), &schedule, 40, |_v, s| *s = u64::MAX)
            .expect("valid envelope");
        let reference = run_chaos_scenario(&EngineConfig::reference(), &schedule, 40, |_v, s| {
            *s = u64::MAX
        })
        .expect("valid envelope");
        assert_eq!(sharded.report, reference.report);
        assert_eq!(sharded.network.states(), reference.network.states());
    }
}
