//! # smst-sim
//!
//! A discrete, shared-memory network simulator implementing the execution
//! model of Korman–Kutten–Masuzawa (§2.1–§2.2 of the paper):
//!
//! * every node owns a bounded *register* (its public state) that all of its
//!   neighbours can read;
//! * in the **synchronous** model, a round consists of every node reading all
//!   neighbour registers and rewriting its own register ("ideal time");
//! * in the **asynchronous** model, a *daemon* activates one node at a time;
//!   a time unit elapses once every node has been activated at least once
//!   since the previous time unit (the standard round-normalization of a
//!   strongly fair distributed daemon);
//! * *transient faults* arbitrarily corrupt the registers of any subset of
//!   nodes; self-stabilizing programs must recover (or, for verifiers,
//!   detect) from any initial configuration.
//!
//! The crate provides:
//!
//! * [`program::NodeProgram`] — the node-level state machine interface all
//!   distributed algorithms in the workspace implement;
//! * [`network::Network`] — a graph plus per-node execution contexts;
//! * [`runner::ReferenceRunner`] — the sequential executor, in lock-step
//!   rounds or under a central daemon, stopped by a
//!   [`runner::StopCondition`];
//! * [`asynch::Daemon`] — round-robin, random, or adversarial central
//!   daemons;
//! * [`asynch::BatchDaemon`] — the distributed-daemon generalization
//!   (batches of simultaneous activations; the central [`asynch::Daemon`]
//!   implements it directly as singleton batches, and
//!   [`asynch::ChunkedDaemon`] cuts its schedule into wider ones);
//! * [`faults`] — transient-fault injection;
//! * [`schedule`] — recurring fault schedules (periodic / burst /
//!   Poisson-like arrivals) for verify-forever chaos campaigns, with
//!   per-wave detection/quiescence accounting types;
//! * [`metrics`] — detection time / detection distance / stabilization
//!   statistics;
//! * [`observer`] — the per-round measurement hook ([`RoundObserver`])
//!   every runner in the workspace invokes, with a [`RecordingObserver`]
//!   for benches and tests and a [`TeeObserver`] to fan one stream out to
//!   several sinks (e.g. recording plus telemetry);

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asynch;
pub mod faults;
pub mod metrics;
pub mod network;
pub mod observer;
pub mod program;
pub mod runner;
pub mod schedule;

pub use asynch::{ActivationBatch, BatchDaemon, ChunkedDaemon, Daemon};
pub use faults::FaultPlan;
pub use metrics::DetectionReport;
pub use network::Network;
pub use observer::{RecordingObserver, RoundObserver, RoundStats, TeeObserver};
pub use program::{NodeContext, NodeProgram, Verdict};
pub use runner::{ReferenceRunner, StopCondition};
pub use schedule::{Arrival, FaultSchedule, WaveStats};
