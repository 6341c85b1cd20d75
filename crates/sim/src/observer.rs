//! Round observers: a per-round/per-time-unit measurement hook shared by
//! every runner in the workspace.
//!
//! A [`RoundObserver`] is invoked by a runner after **every** completed
//! step (synchronous round or asynchronous time unit) with a
//! [`RoundStats`] snapshot: the step index, the number of alarming nodes,
//! the halo bytes the step exchanged (sharded halo mode only) and a
//! wall-clock phase breakdown of where the step spent its time. This is
//! the single instrumentation surface the `smst-engine` runners, the
//! sequential reference runner and the bench harness share — per-round
//! accounting of the kind KMW-style lower-bound experiments need plugs in
//! here once, not per runner.
//!
//! # Determinism
//!
//! Everything in [`RoundStats`] except the `*_ns` timing fields is a pure
//! function of the execution semantics: `round`, `alarms` and
//! `activations` are identical across thread counts, layouts and pinning
//! (the engine's determinism contract), and `halo_bytes` is a pure
//! function of the shard geometry. The four timing fields (`dispatch_ns`,
//! `compute_ns`, `barrier_ns`, `exchange_ns`) are wall-clock and vary run
//! to run; [`RoundStats::deterministic`] projects them away.
//!
//! # Phase accounting
//!
//! The timing fields partition one step's wall-clock exactly:
//! [`RoundStats::total_phase_ns`] (their sum) is the measured duration of
//! the step, `compute_ns`/`barrier_ns`/`exchange_ns` are the time the
//! instrumented part spent computing next states, waiting on the round
//! barrier, and pulling halo copies, and `dispatch_ns` is the residual —
//! dispatch/wake-up, gather/scatter and other per-step overhead outside
//! the three named phases. Sequential runners report the whole step as
//! `compute_ns`; runners without barriers or halo exchange report those
//! phases as 0.
//!
//! # Cost
//!
//! Runners compute [`RoundStats`] only while an observer is attached; an
//! attached observer costs one verdict sweep (`O(n)`) per step. The
//! sharded runner's rounds also drop from chunked multi-round dispatch to
//! round-granular dispatch while observed, so every round boundary is
//! visible — results never change, only wall-clock.

use std::sync::{Arc, Mutex};

/// What one completed step (round / time unit) looked like.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Index of the completed step (the first step a runner executes
    /// reports `round == 0`).
    pub round: usize,
    /// Number of nodes raising an alarm after the step.
    pub alarms: usize,
    /// Activations the step executed (node count for a synchronous round;
    /// the daemon's schedule length for an asynchronous time unit).
    pub activations: usize,
    /// Register bytes pulled across shard boundaries by the step's halo
    /// exchange (0 outside the sharded halo-exchange mode).
    pub halo_bytes: u64,
    /// Wall-clock nanoseconds of per-step overhead outside the compute /
    /// barrier / exchange phases: dispatch and wake-up, arena gather and
    /// scatter, daemon scheduling. Defined as the residual of the step's
    /// measured duration after the three named phases, so the four timing
    /// fields always sum to the step total. **Not** deterministic — never
    /// compare it across runs.
    pub dispatch_ns: u64,
    /// Wall-clock nanoseconds spent computing next states (the whole step
    /// for sequential runners). **Not** deterministic.
    pub compute_ns: u64,
    /// Wall-clock nanoseconds spent waiting on round barriers (0 for
    /// sequential and single-shard execution). **Not** deterministic.
    pub barrier_ns: u64,
    /// Wall-clock nanoseconds spent pulling halo copies (0 outside the
    /// sharded halo-exchange mode). **Not** deterministic.
    pub exchange_ns: u64,
}

impl RoundStats {
    /// The deterministic projection of the stats — every field that the
    /// determinism contract covers (everything except the `*_ns` timing
    /// fields). Equality of these tuples across thread counts / layouts /
    /// pinning is what the observer property tests pin.
    pub fn deterministic(&self) -> (usize, usize, usize, u64) {
        (self.round, self.alarms, self.activations, self.halo_bytes)
    }

    /// The step's total measured wall-clock: the sum of the four phase
    /// fields (`dispatch_ns` is the residual by construction, so this is
    /// the duration the runner measured around the step).
    pub fn total_phase_ns(&self) -> u64 {
        self.dispatch_ns + self.compute_ns + self.barrier_ns + self.exchange_ns
    }
}

/// A per-step measurement hook. Implementations must be cheap relative to
/// a step (they run on the dispatching thread, inside the step loop).
pub trait RoundObserver: std::fmt::Debug + Send {
    /// Called once after every completed round / time unit.
    fn on_round(&mut self, stats: &RoundStats);
}

/// A [`RoundObserver`] that records every [`RoundStats`] into shared
/// storage. Cloning is shallow: keep one clone, hand the other to
/// [`set_observer`](crate::ReferenceRunner::set_observer), and read the
/// recording back through the kept clone after the run.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    rounds: Arc<Mutex<Vec<RoundStats>>>,
}

impl RecordingObserver {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything recorded so far (a snapshot clone).
    pub fn stats(&self) -> Vec<RoundStats> {
        self.rounds.lock().expect("observer lock poisoned").clone()
    }

    /// Number of steps observed.
    pub fn rounds_observed(&self) -> usize {
        self.rounds.lock().expect("observer lock poisoned").len()
    }

    /// Mean of one per-step projection over everything recorded, guarded
    /// to `0.0` when nothing was observed (never `NaN`). The shared guard
    /// behind every `mean_*` accessor.
    fn mean_of(&self, f: impl Fn(&RoundStats) -> u64) -> f64 {
        let stats = self.stats();
        if stats.is_empty() {
            return 0.0;
        }
        stats.iter().map(|s| f(s) as f64).sum::<f64>() / stats.len() as f64
    }

    /// Mean total step latency in nanoseconds — the mean of
    /// [`RoundStats::total_phase_ns`] (0.0 when nothing was observed).
    /// Wall-clock — indicative only.
    pub fn mean_round_ns(&self) -> f64 {
        self.mean_of(RoundStats::total_phase_ns)
    }

    /// Mean compute-phase latency in nanoseconds (0.0 when nothing was
    /// observed). Wall-clock — indicative only.
    pub fn mean_compute_ns(&self) -> f64 {
        self.mean_of(|s| s.compute_ns)
    }

    /// The deterministic projections of every recorded step, in order —
    /// the sequence the cross-thread-count determinism tests compare.
    pub fn deterministic_trace(&self) -> Vec<(usize, usize, usize, u64)> {
        self.stats().iter().map(RoundStats::deterministic).collect()
    }
}

impl RoundObserver for RecordingObserver {
    fn on_round(&mut self, stats: &RoundStats) {
        self.rounds
            .lock()
            .expect("observer lock poisoned")
            .push(stats.clone());
    }
}

/// A [`RoundObserver`] that fans every step out to N inner observers, in
/// insertion order — so telemetry sinks *compose* with a
/// [`RecordingObserver`] (or anything else) instead of replacing it.
///
/// ```
/// use smst_sim::observer::{RecordingObserver, RoundObserver, RoundStats, TeeObserver};
///
/// let recording = RecordingObserver::new();
/// let mut tee = TeeObserver::new()
///     .with(Box::new(recording.clone()))
///     .with(Box::new(RecordingObserver::new()));
/// tee.on_round(&RoundStats::default());
/// assert_eq!(recording.rounds_observed(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TeeObserver {
    sinks: Vec<Box<dyn RoundObserver>>,
}

impl TeeObserver {
    /// An empty tee (observes to nobody until sinks are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// The tee with `sink` added: every subsequent step fans out to it
    /// after the sinks already present.
    pub fn with(mut self, sink: Box<dyn RoundObserver>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl RoundObserver for TeeObserver {
    fn on_round(&mut self, stats: &RoundStats) {
        for sink in &mut self.sinks {
            sink.on_round(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(round: usize) -> RoundStats {
        RoundStats {
            round,
            alarms: round % 2,
            activations: 10,
            halo_bytes: 8,
            dispatch_ns: 123,
            compute_ns: 400,
            barrier_ns: 70,
            exchange_ns: 7,
        }
    }

    #[test]
    fn recording_observer_accumulates_through_clones() {
        let recording = RecordingObserver::new();
        let mut handle = recording.clone();
        handle.on_round(&stat(0));
        handle.on_round(&stat(1));
        assert_eq!(recording.rounds_observed(), 2);
        assert_eq!(recording.stats()[1], stat(1));
        assert!((recording.mean_compute_ns() - 400.0).abs() < 1e-9);
        assert!((recording.mean_round_ns() - 600.0).abs() < 1e-9);
        assert_eq!(
            recording.deterministic_trace(),
            vec![(0, 0, 10, 8), (1, 1, 10, 8)]
        );
    }

    #[test]
    fn deterministic_projection_drops_wall_clock() {
        let mut a = stat(3);
        let mut b = stat(3);
        a.dispatch_ns = 1;
        b.dispatch_ns = 999_999;
        b.compute_ns = 5;
        b.barrier_ns = 6;
        b.exchange_ns = 1_000_000;
        assert_ne!(a, b);
        assert_eq!(a.deterministic(), b.deterministic());
    }

    #[test]
    fn phase_fields_partition_the_round_total() {
        let s = stat(0);
        assert_eq!(s.total_phase_ns(), 123 + 400 + 70 + 7);
        assert_eq!(RoundStats::default().total_phase_ns(), 0);
    }

    #[test]
    fn empty_recording_reports_zeroes() {
        let recording = RecordingObserver::new();
        assert_eq!(recording.rounds_observed(), 0);
        // every mean accessor shares the emptiness guard: 0.0, never NaN
        assert_eq!(recording.mean_round_ns(), 0.0);
        assert_eq!(recording.mean_compute_ns(), 0.0);
        assert!(recording.deterministic_trace().is_empty());
    }

    #[test]
    fn tee_fans_out_to_every_sink_in_order() {
        let first = RecordingObserver::new();
        let second = RecordingObserver::new();
        let mut tee = TeeObserver::new()
            .with(Box::new(first.clone()))
            .with(Box::new(second.clone()));
        tee.on_round(&stat(0));
        tee.on_round(&stat(1));
        assert_eq!(first.stats(), second.stats());
        assert_eq!(first.rounds_observed(), 2);
    }

    #[test]
    fn empty_tee_is_a_no_op() {
        let mut tee = TeeObserver::new();
        tee.on_round(&stat(0));
        // a sink added afterwards sees only the steps that follow
        let late = RecordingObserver::new();
        tee = tee.with(Box::new(late.clone()));
        tee.on_round(&stat(1));
        assert_eq!(late.stats(), [stat(1)]);
    }
}
