//! # smst
//!
//! Umbrella crate for the reproduction of *"Fast and compact self-stabilizing
//! verification, computation, and fault detection of an MST"* (Korman,
//! Kutten, Masuzawa; PODC 2011), re-exporting every workspace crate under one
//! roof. The root package also hosts the `examples/` and the cross-crate
//! integration tests in `tests/`.
//!
//! Crate map:
//!
//! * [`graph`] — weighted port-numbered graphs, generators, MST ground truth;
//! * [`rng`] — deterministic PRNGs (SplitMix64, PCG) shared by every crate;
//! * [`sim`] — the sequential shared-memory simulator (§2 execution model);
//! * [`engine`] — the sharded, deterministic, **parallel** execution engine
//!   for million-node runs;
//! * [`labeling`] — proof-labeling schemes and baselines;
//! * [`core`] — the paper's marker and `O(log n)`-bit verifier;
//! * [`selfstab`] — the enhanced Awerbuch–Varghese transformer;
//! * [`telemetry`] — metrics registry, phase-level round tracing and the
//!   per-round accounting artifacts;
//! * [`mod@bench`] — experiment drivers and the table / figure regenerators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smst_bench as bench;
pub use smst_core as core;
pub use smst_engine as engine;
pub use smst_graph as graph;
pub use smst_labeling as labeling;
pub use smst_rng as rng;
pub use smst_selfstab as selfstab;
pub use smst_sim as sim;
pub use smst_telemetry as telemetry;
