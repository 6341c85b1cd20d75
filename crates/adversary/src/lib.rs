//! # smst-adversary
//!
//! The adversarial schedule & fault **campaign engine**: searches
//! `GraphFamily × FaultKind × FaultPlan × BatchDaemon` space for
//! executions where detection or stabilization is as late as the fairness
//! bound allows, and distils every find into a minimal, replayable
//! counterexample.
//!
//! The paper states its guarantees against a *distributed* daemon, but the
//! sequential simulator's central [`Daemon`](smst_sim::Daemon) can only
//! activate one node at a time — the distributed-daemon literature (KMW-style
//! lower-bound constructions) draws its worst cases from schedules the
//! central daemon cannot express. This crate supplies the missing pieces:
//!
//! * [`daemons`] — fairness-preserving adversarial **batch** daemons
//!   ([`StallDaemon`], [`StarveDaemon`], [`CutFocusDaemon`]): batches
//!   chosen by node *identity* (shard interiors, boundaries, cut
//!   endpoints), pinning cross-region information flow to one hop per time
//!   unit;
//! * [`trial`] — [`TrialSpec`]: one execution fully described by a
//!   one-line replayable id ([`TrialSpec::id`] / [`TrialSpec::from_id`]),
//!   run through the engine's one fault-experiment driver
//!   ([`ScenarioSpec::run_on`](smst_engine::ScenarioSpec::run_on)) on one
//!   of three workloads (monitor flood, healing flood, the paper's
//!   verifier);
//! * [`campaign`] — [`run_campaign`]: seeded random + guided search,
//!   trials fanned out on the engine's persistent worker pool, every trial
//!   scored against its round-robin baseline (**regret**);
//! * [`shrink`] — delta-debugging [`shrink`](shrink::shrink): fewer
//!   faults, smaller graph, shorter schedule prefix, tamer daemon — down
//!   to a 1-minimal counterexample;
//! * [`artifact`] — `CAMPAIGN_<name>.json` written next to the bench
//!   JSONs (same codec, same `$SMST_BENCH_DIR`), uploaded by CI's
//!   `campaign-smoke` job;
//! * [`chaos`] — verify-forever chaos campaigns: recurring
//!   [`FaultSchedule`](smst_sim::FaultSchedule) waves endured on the
//!   engine's self-healing pool, bridged into `smst-telemetry` as
//!   `BENCH_chaos.json`, the artifact of CI's `chaos-smoke` job.
//!
//! Everything is a pure function of explicit seeds: campaigns, trials and
//! shrinks all replay bit-for-bit.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod chaos;
pub mod daemons;
pub mod shrink;
pub mod trial;

pub use artifact::{campaign_json, write_campaign_artifact_in};
pub use campaign::{run_campaign, CampaignReport, CampaignSpec, TrialRecord};
pub use chaos::{ChaosCase, ChaosCaseOutcome};
pub use daemons::{CutFocusDaemon, StallDaemon, StarveDaemon};
pub use shrink::{shrink as shrink_trial, ShrinkResult};
pub use trial::{
    beats_round_robin, beats_round_robin_memo, run_trial, run_trial_observed, DaemonSpec, Score,
    TrialOutcome, TrialSpec, Workload,
};
