//! # smst-telemetry
//!
//! Observability for the engine: a lock-free [`Metrics`] registry,
//! span-style per-round phase accounting, a structured JSONL trace
//! stream, and the first-class per-round `BENCH_rounds*.json` artifact —
//! with a disabled mode that costs nothing.
//!
//! The crate sits directly above `smst-sim` (it consumes the
//! [`RoundObserver`] / [`RoundStats`] surface every runner already
//! exposes) and below the bench and adversary crates that emit its
//! artifacts. The engine itself does **not** depend on it: runners
//! produce phase-split [`RoundStats`] natively, and telemetry plugs in as
//! just another observer — composed with recording or custom observers
//! through [`smst_sim::TeeObserver`].
//!
//! ## The one entry point: [`Telemetry`]
//!
//! ```
//! use smst_sim::RoundObserver as _;
//! use smst_telemetry::Telemetry;
//!
//! // disabled: no registry, no observer, no clocks — runners take the
//! // exact unobserved fast path they had before telemetry existed
//! let off = Telemetry::disabled();
//! assert!(off.observer("run").is_none());
//!
//! // enabled: a metrics registry fed by a RoundObserver
//! let tel = Telemetry::enabled();
//! let mut obs = tel.observer("expander/n=500/seed=7").unwrap();
//! obs.on_round(&smst_sim::RoundStats {
//!     round: 0,
//!     alarms: 2,
//!     activations: 500,
//!     halo_bytes: 0,
//!     dispatch_ns: 10,
//!     compute_ns: 80,
//!     barrier_ns: 5,
//!     exchange_ns: 5,
//! });
//! let snap = tel.snapshot();
//! assert_eq!(snap.counters[smst_telemetry::names::ROUNDS_OBSERVED], 1);
//! assert_eq!(snap.counters[smst_telemetry::names::ALARMS_TOTAL], 2);
//! assert_eq!(snap.histograms[smst_telemetry::names::PHASE_ROUND_NS].sum, 100);
//! ```
//!
//! ## Metric names
//!
//! Every [`observer`](Telemetry::observer) feeds the same fixed registry
//! names (see [`names`]): counters `rounds.observed`, `alarms.total`,
//! `activations.total`, `halo.bytes`; histograms `phase.round_ns`,
//! `phase.dispatch_ns`, `phase.compute_ns`, `phase.barrier_ns`,
//! `phase.exchange_ns`. Per-run separation comes from the trace stream
//! (each record carries its `run` label), not from name proliferation.
//!
//! ## Artifacts
//!
//! * [`trace::TraceWriter`] — `TRACE_<name>.jsonl`, one record per
//!   sampled round, env-gated by `SMST_TRACE_SAMPLE`;
//! * [`rounds::RoundsArtifact`] — `BENCH_<group>.json` per-round
//!   accounting, the artifact form of a recorded observer stream;
//! * [`chaos::ChaosArtifact`] — `BENCH_chaos*.json` per-wave accounting
//!   of recurring-fault campaigns (detection latency and
//!   rounds-to-quiescence per wave, schedule grammar per run);
//! * [`flight::FlightRecorder`] — `FLIGHT_<name>.json`, the final
//!   ring-buffer window of rounds dumped when a run dies (barrier
//!   timeout, caught panic).
//!
//! Each artifact is one Rust type carrying its writer (`to_json`) and
//! its reader ([`FromJson`](json::FromJson)) side by side, built on
//! [`json`] — the workspace's one JSON module (value, parser, escaping,
//! ordered writer, typed field reader; the offline workspace has no
//! serde). Files go through [`json::write_artifact`] into an explicit
//! directory (tests) or [`artifact_dir`] (`$SMST_BENCH_DIR`, else `.`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod rounds;
pub mod trace;

pub use chaos::{ChaosArtifact, ChaosRun};
pub use flight::{FlightDump, FlightRecorder};
pub use json::artifact_dir;
pub use metrics::{
    bucket_upper_bound, Counter, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use rounds::{RoundsArtifact, RoundsRun};
pub use trace::{trace_sample_from_env, TraceLine, TraceWriter, TRACE_SAMPLE_ENV};

use smst_sim::{RoundObserver, RoundStats};
use std::path::Path;
use std::sync::Arc;

/// The fixed registry names every [`Telemetry::observer`] feeds.
pub mod names {
    /// Counter: rounds / time units observed.
    pub const ROUNDS_OBSERVED: &str = "rounds.observed";
    /// Counter: sum of per-round alarming-node counts.
    pub const ALARMS_TOTAL: &str = "alarms.total";
    /// Counter: total activations executed.
    pub const ACTIVATIONS_TOTAL: &str = "activations.total";
    /// Counter: total halo bytes pulled across shard boundaries.
    pub const HALO_BYTES: &str = "halo.bytes";
    /// Histogram: total per-round wall-clock (the phase sum), ns.
    pub const PHASE_ROUND_NS: &str = "phase.round_ns";
    /// Histogram: per-round dispatch-residual overhead, ns.
    pub const PHASE_DISPATCH_NS: &str = "phase.dispatch_ns";
    /// Histogram: per-round compute phase, ns.
    pub const PHASE_COMPUTE_NS: &str = "phase.compute_ns";
    /// Histogram: per-round barrier-wait phase, ns.
    pub const PHASE_BARRIER_NS: &str = "phase.barrier_ns";
    /// Histogram: per-round halo-exchange phase, ns.
    pub const PHASE_EXCHANGE_NS: &str = "phase.exchange_ns";

    // The chaos-plane names below are fed by campaign drivers (the chaos
    // bins and benches), not by the per-round observer.

    /// Counter: fault waves fired by a chaos schedule.
    pub const CHAOS_WAVES: &str = "chaos.waves";
    /// Counter: registers corrupted by chaos waves.
    pub const CHAOS_FAULTS: &str = "chaos.faults_injected";
    /// Histogram: per-wave detection latency, steps.
    pub const CHAOS_DETECTION_STEPS: &str = "chaos.detection_steps";
    /// Histogram: per-wave rounds-to-quiescence (MTTR), steps.
    pub const CHAOS_QUIESCENCE_STEPS: &str = "chaos.quiescence_steps";
    /// Counter: worker panics the pool caught.
    pub const POOL_WORKER_PANICS: &str = "pool.worker_panics";
    /// Counter: worker threads respawned after a caught panic.
    pub const POOL_WORKER_RESPAWNS: &str = "pool.worker_respawns";
    /// Counter: dispatches ended by the barrier watchdog.
    pub const POOL_BARRIER_TIMEOUTS: &str = "pool.barrier_timeouts";
}

/// The shared state behind an enabled [`Telemetry`].
#[derive(Debug)]
struct TelemetryInner {
    metrics: Metrics,
    /// `Some` when a trace stream is attached; records are sampled every
    /// `sample`-th round.
    trace: Option<TraceWriter>,
    sample: u64,
}

/// The observability handle: either **disabled** (`None` inside — every
/// operation is a no-op and [`observer`](Telemetry::observer) returns
/// `None`, so runners keep their exact unobserved code path) or
/// **enabled** (a shared [`Metrics`] registry, optionally with a sampled
/// [`TraceWriter`] stream).
///
/// Cloning is shallow: clones share the registry and trace stream, so one
/// `Telemetry` can feed observers for many runs and be snapshotted once.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The no-op telemetry: nothing is registered, recorded or written.
    /// Runners see no observer at all, i.e. the pre-telemetry fast path
    /// (pinned by `disabled_telemetry_hands_out_nothing`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Metrics only: a fresh registry, no trace stream.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(TelemetryInner {
                metrics: Metrics::new(),
                trace: None,
                sample: 0,
            })),
        }
    }

    /// Metrics plus a trace stream recording every `sample`-th round
    /// (`sample` is clamped to at least 1).
    pub fn with_trace(trace: TraceWriter, sample: u64) -> Self {
        Self {
            inner: Some(Arc::new(TelemetryInner {
                metrics: Metrics::new(),
                trace: Some(trace),
                sample: sample.max(1),
            })),
        }
    }

    /// Env-gated construction for benches and binaries: always enables
    /// metrics; attaches a `TRACE_<name>.jsonl` stream (in
    /// [`artifact_dir`]) iff `$SMST_TRACE_SAMPLE` requests sampling. An
    /// unparsable `$SMST_TRACE_SAMPLE` warns once on stderr (via
    /// [`trace_sample_from_env`]) instead of silently disabling tracing.
    ///
    /// # Panics
    ///
    /// Panics if the requested trace file cannot be created.
    pub fn from_env(name: &str) -> Self {
        match trace_sample_from_env() {
            0 => Self::enabled(),
            sample => {
                let trace = TraceWriter::create(name)
                    .unwrap_or_else(|e| panic!("creating TRACE_{name}.jsonl: {e}"));
                Self::with_trace(trace, sample)
            }
        }
    }

    /// Whether telemetry is enabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The path of the attached trace stream, if any.
    pub fn trace_path(&self) -> Option<&Path> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.trace.as_ref())
            .map(TraceWriter::path)
    }

    /// A handle to the named counter ([`Counter::noop`] when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::noop, |inner| inner.metrics.counter(name))
    }

    /// A handle to the named histogram ([`Histogram::noop`] when
    /// disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::noop, |inner| inner.metrics.histogram(name))
    }

    /// A snapshot of the registry (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |inner| inner.metrics.snapshot())
    }

    /// Flushes the trace stream, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        match self.inner.as_ref().and_then(|inner| inner.trace.as_ref()) {
            Some(trace) => trace.flush(),
            None => Ok(()),
        }
    }

    /// A [`RoundObserver`] feeding this telemetry, attributing trace
    /// records to `run` (a replayable identifier: `TrialId`, seed, bench
    /// case). **`None` when disabled** — callers attach no observer at
    /// all, so disabled telemetry leaves runners on their chunked,
    /// clock-free fast path.
    pub fn observer(&self, run: &str) -> Option<Box<dyn RoundObserver>> {
        let inner = self.inner.as_ref()?;
        Some(Box::new(TelemetryObserver {
            rounds: inner.metrics.counter(names::ROUNDS_OBSERVED),
            alarms: inner.metrics.counter(names::ALARMS_TOTAL),
            activations: inner.metrics.counter(names::ACTIVATIONS_TOTAL),
            halo_bytes: inner.metrics.counter(names::HALO_BYTES),
            round_ns: inner.metrics.histogram(names::PHASE_ROUND_NS),
            dispatch_ns: inner.metrics.histogram(names::PHASE_DISPATCH_NS),
            compute_ns: inner.metrics.histogram(names::PHASE_COMPUTE_NS),
            barrier_ns: inner.metrics.histogram(names::PHASE_BARRIER_NS),
            exchange_ns: inner.metrics.histogram(names::PHASE_EXCHANGE_NS),
            inner: Arc::clone(inner),
            run: run.to_string(),
        }))
    }
}

/// The [`RoundObserver`] an enabled [`Telemetry`] hands out: pre-resolved
/// metric handles (no registry lock on the round path) plus the sampled
/// trace stream.
#[derive(Debug)]
pub struct TelemetryObserver {
    inner: Arc<TelemetryInner>,
    run: String,
    rounds: Counter,
    alarms: Counter,
    activations: Counter,
    halo_bytes: Counter,
    round_ns: Histogram,
    dispatch_ns: Histogram,
    compute_ns: Histogram,
    barrier_ns: Histogram,
    exchange_ns: Histogram,
}

impl RoundObserver for TelemetryObserver {
    fn on_round(&mut self, stats: &RoundStats) {
        self.rounds.incr();
        self.alarms.add(stats.alarms as u64);
        self.activations.add(stats.activations as u64);
        self.halo_bytes.add(stats.halo_bytes);
        self.round_ns.record(stats.total_phase_ns());
        self.dispatch_ns.record(stats.dispatch_ns);
        self.compute_ns.record(stats.compute_ns);
        self.barrier_ns.record(stats.barrier_ns);
        self.exchange_ns.record(stats.exchange_ns);
        if let Some(trace) = &self.inner.trace {
            if (stats.round as u64).is_multiple_of(self.inner.sample) {
                trace.write_round(&self.run, stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(round: usize) -> RoundStats {
        RoundStats {
            round,
            alarms: 1,
            activations: 8,
            halo_bytes: 64,
            dispatch_ns: 10,
            compute_ns: 70,
            barrier_ns: 15,
            exchange_ns: 5,
        }
    }

    #[test]
    fn disabled_telemetry_hands_out_nothing() {
        let off = Telemetry::disabled();
        assert!(!off.is_enabled());
        assert!(off.observer("x").is_none());
        assert!(off.counter("c").is_noop());
        assert!(off.histogram("h").is_noop());
        assert!(off.snapshot().is_empty());
        assert!(off.trace_path().is_none());
        off.flush().unwrap();
    }

    #[test]
    fn observer_feeds_the_shared_registry() {
        let tel = Telemetry::enabled();
        let mut obs = tel.observer("run-a").unwrap();
        obs.on_round(&stat(0));
        obs.on_round(&stat(1));
        // a second observer (another run) feeds the same registry
        let mut obs2 = tel.clone().observer("run-b").unwrap();
        obs2.on_round(&stat(2));
        let snap = tel.snapshot();
        assert_eq!(snap.counters[names::ROUNDS_OBSERVED], 3);
        assert_eq!(snap.counters[names::ALARMS_TOTAL], 3);
        assert_eq!(snap.counters[names::ACTIVATIONS_TOTAL], 24);
        assert_eq!(snap.counters[names::HALO_BYTES], 192);
        assert_eq!(snap.histograms[names::PHASE_ROUND_NS].count, 3);
        assert_eq!(snap.histograms[names::PHASE_ROUND_NS].sum, 300);
        assert_eq!(snap.histograms[names::PHASE_COMPUTE_NS].sum, 210);
    }

    #[test]
    fn trace_sampling_keeps_every_kth_round() {
        let dir = std::env::temp_dir().join("smst_telemetry_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let writer = TraceWriter::create_in(&dir, "sampled").unwrap();
        let tel = Telemetry::with_trace(writer, 2);
        let mut obs = tel.observer("seed=3").unwrap();
        for round in 0..5 {
            obs.on_round(&stat(round));
        }
        tel.flush().unwrap();
        let body = std::fs::read_to_string(tel.trace_path().unwrap()).unwrap();
        let rounds: Vec<&str> = body.lines().collect();
        // rounds 0, 2, 4 sampled at k = 2
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|l| l.contains("\"run\":\"seed=3\"")));
        assert!(rounds[2].contains("\"round\":4"));
        // the metrics side still sees every round
        assert_eq!(tel.snapshot().counters[names::ROUNDS_OBSERVED], 5);
    }
}
