//! # smst-telemetry
//!
//! Observability for the engine: one round sink — the sampled
//! `TRACE_<name>.jsonl` stream — and the artifacts that carry the
//! paper's quantities and the engine's per-round accounting out of a run.
//!
//! The crate sits directly above `smst-sim` (it consumes the
//! [`RoundObserver`](smst_sim::RoundObserver) /
//! [`RoundStats`](smst_sim::RoundStats) surface every runner already
//! exposes) and below the bench and adversary crates that emit its
//! artifacts. The engine itself does **not** depend on it: runners
//! produce phase-split `RoundStats` natively, and the trace plugs in as
//! just another observer — composed with recording or custom observers
//! through [`smst_sim::TeeObserver`].
//!
//! ## The round sink: [`TraceWriter`]
//!
//! Tracing is off, or a sampled trace. [`TraceWriter::from_env`] returns
//! `None` unless `SMST_TRACE_SAMPLE=k` asks for every `k`-th round, so an
//! untraced run attaches no observer and keeps the runners' unobserved
//! fast path. A writer hands out one observer per run; every record
//! carries its run label.
//!
//! ```
//! use smst_sim::RoundStats;
//! use smst_telemetry::TraceWriter;
//!
//! let dir = std::env::temp_dir();
//! let trace = TraceWriter::create_in(&dir, "doc_example", 2).unwrap();
//! let mut obs = trace.observer("expander/n=500/seed=7");
//! for round in 0..3 {
//!     obs.on_round(&RoundStats { round, activations: 500, ..RoundStats::default() });
//! }
//! trace.flush().unwrap();
//! let body = std::fs::read_to_string(trace.path()).unwrap();
//! assert_eq!(body.lines().count(), 2, "rounds 0 and 2 at k = 2");
//! ```
//!
//! ## Artifacts
//!
//! * [`trace::TraceWriter`] — `TRACE_<name>.jsonl`, one record per
//!   sampled round ([`TraceLine`]), env-gated by `SMST_TRACE_SAMPLE`;
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
pub mod rounds;
pub mod trace;

pub use chaos::{ChaosArtifact, ChaosRun};
pub use flight::{FlightDump, FlightRecorder};
pub use json::artifact_dir;
pub use rounds::{RoundsArtifact, RoundsRun};
pub use trace::{TraceLine, TraceWriter, TRACE_SAMPLE_ENV};

#[cfg(test)]
mod tests {
    use super::*;
    use smst_sim::RoundStats;

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
    fn no_sampling_attaches_no_observer() {
        // k = 0 is tracing off: no writer, so no file and no observer
        let name = "smst_telemetry_never_sampled";
        assert!(TraceWriter::sampled(name, 0).is_none());
        assert!(!artifact_dir().join(format!("TRACE_{name}.jsonl")).exists());
    }

    #[test]
    fn trace_sampling_keeps_every_kth_round() {
        let dir = std::env::temp_dir().join("smst_telemetry_lib_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = TraceWriter::create_in(&dir, "sampled", 2).unwrap();
        let mut obs = trace.observer("seed=3");
        for round in 0..5 {
            obs.on_round(&stat(round));
        }
        trace.flush().unwrap();
        let body = std::fs::read_to_string(trace.path()).unwrap();
        let rounds: Vec<&str> = body.lines().collect();
        // rounds 0, 2, 4 sampled at k = 2
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|l| l.contains("\"run\":\"seed=3\"")));
        assert!(rounds[2].contains("\"round\":4"));
    }
}
