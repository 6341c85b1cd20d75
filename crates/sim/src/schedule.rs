//! Recurring fault schedules: the verify-forever workload.
//!
//! The paper's point is *perpetual* verification — the verifier never
//! terminates, and transient faults keep arriving for as long as the system
//! runs. A [`FaultSchedule`] makes that workload first-class: a seeded,
//! deterministic arrival process ([`Arrival`]) that says at which steps a
//! fault **wave** fires, plus a per-wave [`FaultPlan`] derived from the
//! schedule's master seed. Everything is a pure function of
//! `(schedule, step)` — no history, no wall clock — so a chaos campaign is
//! exactly as reproducible as a single-burst experiment, at any thread
//! count and on any backend.
//!
//! The schedule deliberately knows nothing about execution: a driver that
//! walks the steps in order (the engine's chaos loop) asks
//! [`FaultSchedule::fires_at`] between steps and draws
//! [`FaultSchedule::wave_plan`] with its own count of the waves fired so
//! far; [`FaultSchedule::wave_at`] answers the same question for one step
//! in isolation (it recounts the earlier arrivals, `O(step)` per call).
//! Either way the plan is applied through the usual caller-supplied
//! mutator.

use crate::faults::FaultPlan;
use smst_rng::{Rng, RngCore, SeedableRng, SplitMix64, StdRng};

/// The arrival process of a [`FaultSchedule`]: at which steps waves fire.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// A wave every `period` steps, first at `offset`.
    Periodic {
        /// Steps between waves (≥ 1).
        period: usize,
        /// The step of the first wave.
        offset: usize,
    },
    /// Waves at exactly the given steps (sorted, deduplicated).
    Burst {
        /// The firing steps, ascending.
        steps: Vec<usize>,
    },
    /// Memoryless (Poisson-like in discrete time): at every step a wave
    /// fires independently with probability `rate`, decided by a draw
    /// counter-seeded from `(seed, step)` — arrival at step `t` never
    /// depends on what happened before `t`.
    Poisson {
        /// Per-step firing probability in `[0, 1]`.
        rate: f64,
    },
}

/// A seeded, deterministic recurring fault schedule.
///
/// Composes with the existing fault machinery: each wave is an ordinary
/// [`FaultPlan`] (node selection seeded per wave from the master seed), and
/// what the faults *do* to a register stays with the caller's mutator —
/// e.g. `smst-core`'s `FaultKind` corruptions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// When waves fire.
    pub arrival: Arrival,
    /// Distinct nodes hit per wave (clamped to the node count when a plan
    /// is drawn).
    pub faults_per_wave: usize,
    /// Master seed: wave `w`'s node selection is seeded from
    /// `(seed, w)`, so waves are independent but the whole campaign
    /// replays bit-for-bit.
    pub seed: u64,
}

impl FaultSchedule {
    /// A wave of `faults_per_wave` faults every `period` steps, starting
    /// at step 0. Shift the first wave with [`FaultSchedule::offset`].
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` — such a schedule would fire infinitely
    /// often within one step.
    pub fn periodic(period: usize, faults_per_wave: usize, seed: u64) -> Self {
        assert!(
            period > 0,
            "a periodic schedule needs a period of at least 1"
        );
        FaultSchedule {
            arrival: Arrival::Periodic { period, offset: 0 },
            faults_per_wave,
            seed,
        }
    }

    /// Waves at exactly the given steps.
    pub fn bursts<I: IntoIterator<Item = usize>>(
        steps: I,
        faults_per_wave: usize,
        seed: u64,
    ) -> Self {
        let mut steps: Vec<usize> = steps.into_iter().collect();
        steps.sort_unstable();
        steps.dedup();
        FaultSchedule {
            arrival: Arrival::Burst { steps },
            faults_per_wave,
            seed,
        }
    }

    /// Memoryless arrivals with the given per-step probability.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn poisson(rate: f64, faults_per_wave: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "a per-step arrival probability must be in [0, 1], got {rate}"
        );
        FaultSchedule {
            arrival: Arrival::Poisson { rate },
            faults_per_wave,
            seed,
        }
    }

    /// Delays a periodic schedule's first wave to `offset` (no-op for the
    /// other arrival processes).
    pub fn offset(mut self, offset: usize) -> Self {
        if let Arrival::Periodic { offset: o, .. } = &mut self.arrival {
            *o = offset;
        }
        self
    }

    /// Whether a wave fires at the start of `step` — a pure function of
    /// `(schedule, step)`.
    pub fn fires_at(&self, step: usize) -> bool {
        match &self.arrival {
            Arrival::Periodic { period, offset } => {
                step >= *offset && (step - offset).is_multiple_of(*period)
            }
            Arrival::Burst { steps } => steps.binary_search(&step).is_ok(),
            Arrival::Poisson { rate } => {
                // counter-seeded: mix (seed, step) through SplitMix64, then
                // draw once from the workspace generator
                let mut mix =
                    SplitMix64::new(self.seed ^ (step as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                StdRng::seed_from_u64(mix.next_u64()).gen_bool(*rate)
            }
        }
    }

    /// Every firing step below `max_steps`, ascending.
    pub fn arrivals(&self, max_steps: usize) -> Vec<usize> {
        (0..max_steps).filter(|&t| self.fires_at(t)).collect()
    }

    /// The node-selection seed of wave `wave` (0-based, in firing order).
    fn wave_seed(&self, wave: usize) -> u64 {
        let mut mix = SplitMix64::new(self.seed);
        let base = mix.next_u64();
        base ^ (wave as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The fault plan of wave `wave` on an `n`-node graph
    /// (`faults_per_wave` clamped to `n`).
    pub fn wave_plan(&self, wave: usize, n: usize) -> FaultPlan {
        FaultPlan::random(n, self.faults_per_wave.min(n), self.wave_seed(wave))
    }

    /// The wave firing at the start of `step`, if any: `(wave_index, plan)`.
    /// `wave_index` counts firings from step 0, so the plan is stable no
    /// matter how far the driver has already run — random access, paid
    /// for with a recount of every earlier arrival.
    pub fn wave_at(&self, step: usize, n: usize) -> Option<(usize, FaultPlan)> {
        if !self.fires_at(step) {
            return None;
        }
        let wave = self.arrivals(step).len();
        Some((wave, self.wave_plan(wave, n)))
    }

    /// A compact schedule grammar for labels and artifacts:
    /// `periodic(period=8,offset=0,f=4,seed=7)`,
    /// `burst(steps=3,f=2,seed=1)`, `poisson(rate=0.05,f=4,seed=9)`.
    pub fn describe(&self) -> String {
        let f = self.faults_per_wave;
        let s = self.seed;
        match &self.arrival {
            Arrival::Periodic { period, offset } => {
                format!("periodic(period={period},offset={offset},f={f},seed={s})")
            }
            Arrival::Burst { steps } => format!("burst(steps={},f={f},seed={s})", steps.len()),
            Arrival::Poisson { rate } => format!("poisson(rate={rate},f={f},seed={s})"),
        }
    }
}

/// Per-wave accounting a chaos driver fills in: when the wave fired, what
/// it hit, how fast the system noticed, and how long until it was quiet
/// again. The two latencies are the schedule-level mirror of the paper's
/// detection metrics — MTTD and MTTR in rounds instead of wall clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveStats {
    /// 0-based wave index, in firing order.
    pub wave: usize,
    /// The step at whose start the wave fired.
    pub step: usize,
    /// Registers the wave corrupted.
    pub faults: usize,
    /// Steps from the wave to the first alarm, if one was raised before
    /// the run (or the next wave) cut measurement off.
    pub detection_latency: Option<usize>,
    /// Steps from the wave until every node accepted again (rounds to
    /// quiescence); `None` if the run (or the next wave) arrived first.
    pub quiescence: Option<usize>,
}

/// The run-level summaries of a campaign's per-wave books — one copy,
/// shared by the engine's `ChaosReport` and the telemetry `ChaosRun`.
/// Censored waves (`None`) are skipped, never counted as zero.
impl WaveStats {
    /// Waves whose corruption was detected (an alarm rose before the next
    /// wave or the end of the run).
    pub fn detected_waves(waves: &[WaveStats]) -> usize {
        waves
            .iter()
            .filter(|w| w.detection_latency.is_some())
            .count()
    }

    /// Waves the system fully digested (every node accepting again before
    /// the next wave or the end of the run).
    pub fn quiesced_waves(waves: &[WaveStats]) -> usize {
        waves.iter().filter(|w| w.quiescence.is_some()).count()
    }

    /// Mean detection latency over the detected waves, in steps.
    pub fn mean_detection_latency(waves: &[WaveStats]) -> Option<f64> {
        mean(waves.iter().filter_map(|w| w.detection_latency))
    }

    /// Mean rounds-to-quiescence over the quiesced waves, in steps.
    pub fn mean_quiescence(waves: &[WaveStats]) -> Option<f64> {
        mean(waves.iter().filter_map(|w| w.quiescence))
    }
}

fn mean(values: impl Iterator<Item = usize>) -> Option<f64> {
    let (mut sum, mut count) = (0usize, 0usize);
    for v in values {
        sum += v;
        count += 1;
    }
    (count > 0).then(|| sum as f64 / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_arrivals_fire_on_the_grid() {
        let s = FaultSchedule::periodic(4, 2, 7).offset(3);
        assert_eq!(s.arrivals(16), vec![3, 7, 11, 15]);
        assert!(s.fires_at(3) && s.fires_at(7));
        assert!(!s.fires_at(0) && !s.fires_at(4));
    }

    #[test]
    fn burst_arrivals_fire_exactly_where_told() {
        let s = FaultSchedule::bursts([9, 2, 9, 5], 1, 0);
        assert_eq!(s.arrivals(20), vec![2, 5, 9]);
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_plausible() {
        let s = FaultSchedule::poisson(0.25, 1, 11);
        let a = s.arrivals(400);
        assert_eq!(a, s.arrivals(400), "same seed, same arrivals");
        // ~100 expected; loose envelope to stay robust across generators
        assert!(a.len() > 40 && a.len() < 200, "got {} arrivals", a.len());
        let other = FaultSchedule::poisson(0.25, 1, 12).arrivals(400);
        assert_ne!(a, other, "the seed must matter");
    }

    #[test]
    fn zero_and_one_rates_are_degenerate_but_valid() {
        assert!(FaultSchedule::poisson(0.0, 1, 3).arrivals(50).is_empty());
        assert_eq!(FaultSchedule::poisson(1.0, 1, 3).arrivals(5).len(), 5);
    }

    #[test]
    #[should_panic(expected = "period of at least 1")]
    fn zero_period_is_rejected() {
        let _ = FaultSchedule::periodic(0, 1, 0);
    }

    #[test]
    fn waves_are_independent_but_reproducible() {
        let s = FaultSchedule::periodic(5, 3, 42);
        let p0 = s.wave_plan(0, 30);
        let p1 = s.wave_plan(1, 30);
        assert_eq!(p0.len(), 3);
        assert_ne!(p0, p1, "waves draw distinct node sets (w.h.p.)");
        assert_eq!(p0, s.wave_plan(0, 30), "replays bit-for-bit");
    }

    #[test]
    fn wave_at_indexes_in_firing_order() {
        let s = FaultSchedule::bursts([2, 6], 2, 9);
        assert!(s.wave_at(0, 10).is_none());
        let (w0, p0) = s.wave_at(2, 10).expect("fires at 2");
        let (w1, p1) = s.wave_at(6, 10).expect("fires at 6");
        assert_eq!((w0, w1), (0, 1));
        assert_eq!(p0, s.wave_plan(0, 10));
        assert_eq!(p1, s.wave_plan(1, 10));
    }

    #[test]
    fn wave_summaries_skip_censored_waves() {
        let wave = |det, qui| WaveStats {
            wave: 0,
            step: 0,
            faults: 1,
            detection_latency: det,
            quiescence: qui,
        };
        let waves = [
            wave(Some(1), Some(6)),
            wave(Some(2), None),
            wave(None, None),
        ];
        assert_eq!(WaveStats::detected_waves(&waves), 2);
        assert_eq!(WaveStats::quiesced_waves(&waves), 1);
        assert_eq!(WaveStats::mean_detection_latency(&waves), Some(1.5));
        assert_eq!(WaveStats::mean_quiescence(&waves), Some(6.0));
        assert_eq!(WaveStats::mean_quiescence(&waves[1..]), None);
        assert_eq!(WaveStats::mean_detection_latency(&[]), None);
    }

    #[test]
    fn faults_are_clamped_to_the_graph() {
        let s = FaultSchedule::periodic(2, 100, 5);
        assert_eq!(s.wave_plan(0, 8).len(), 8);
    }

    #[test]
    fn describe_is_a_stable_grammar() {
        assert_eq!(
            FaultSchedule::periodic(8, 4, 7).describe(),
            "periodic(period=8,offset=0,f=4,seed=7)"
        );
        assert_eq!(
            FaultSchedule::bursts([1, 2, 3], 2, 1).describe(),
            "burst(steps=3,f=2,seed=1)"
        );
        assert_eq!(
            FaultSchedule::poisson(0.05, 4, 9).describe(),
            "poisson(rate=0.05,f=4,seed=9)"
        );
    }
}
