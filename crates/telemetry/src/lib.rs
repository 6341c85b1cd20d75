//! # smst-telemetry
//!
//! Observability for the engine: one round sink — the
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
//! Per-round records have one format: `TRACE_<name>.jsonl`, one
//! [`TraceLine`] per round. A writer hands out one observer per run and
//! records every round it sees; every record carries its run label. A run
//! that wants no trace attaches no observer and keeps the runners'
//! unobserved fast path.
//!
//! ```
//! use smst_sim::RoundStats;
//! use smst_telemetry::TraceWriter;
//!
//! let dir = std::env::temp_dir();
//! let trace = TraceWriter::create_in(&dir, "doc_example").unwrap();
//! let mut obs = trace.observer("expander/n=500/seed=7");
//! for round in 0..3 {
//!     obs.on_round(&RoundStats { round, activations: 500, ..RoundStats::default() });
//! }
//! trace.flush().unwrap();
//! let body = std::fs::read_to_string(trace.path()).unwrap();
//! assert_eq!(body.lines().count(), 3, "one record per round");
//! ```
//!
//! ## Artifacts
//!
//! * [`trace::TraceWriter`] — `TRACE_<name>.jsonl`, one record per
//!   round ([`TraceLine`]);
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
pub mod trace;

pub use chaos::{ChaosArtifact, ChaosRun};
pub use flight::{FlightDump, FlightRecorder};
pub use json::artifact_dir;
pub use trace::{TraceLine, TraceWriter};
