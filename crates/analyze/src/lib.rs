//! `smst-analyze`: the artifact analysis plane.
//!
//! Every other crate in the workspace *produces* observability artifacts —
//! `BENCH_*.json` chaos accounting files, `CAMPAIGN_*.json` search
//! summaries, `TRACE_*.jsonl` per-round streams, `FLIGHT_*.json` crash
//! dumps. This crate is the *consumer*: it dispatches each file on
//! its schema tag and version and reads it back **into the type its
//! producer writes** ([`ingest`] — every schema is one Rust type with
//! `to_json` and `FromJson` side by side on the workspace codec,
//! [`smst_telemetry::json`], whose [`Json`] value is re-exported here),
//! gates CI on chaos-accounting baselines ([`check`]), and runs the KMW bound
//! accounting that turns detection experiments into measured-vs-bound
//! curves ([`kmw`], the `ANALYSIS_kmw.json` producer).
//!
//! The `smst-analyze` binary fronts all of it:
//!
//! ```text
//! smst-analyze ingest  <dir>                    # list + validate artifacts
//! smst-analyze check   --baseline <dir> [--current <dir>]   # CI gate
//! smst-analyze kmw     [--out <dir>]            # bound accounting sweep
//! smst-analyze baseline --from <dir> --to <dir> # seed ci/baselines/
//! ```
//!
//! Exit codes: `0` clean, `1` gate failure (a chaos mismatch, a baseline
//! run missing from the current side, or nothing compared), `2` usage or
//! ingest error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod ingest;
pub mod kmw;

pub use check::{check_dirs, CheckError, CheckReport};
pub use ingest::{ingest_dir, ingest_file, Artifact, IngestError};
pub use kmw::{run_kmw_accounting, KmwAnalysis, KmwConfig};
pub use smst_telemetry::json::Json;
