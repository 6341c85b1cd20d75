//! # smst-engine
//!
//! A sharded, deterministic, **parallel** execution engine that runs any
//! [`smst_sim::NodeProgram`] over million-node graphs, bit-for-bit equal to
//! the sequential simulator in `smst-sim` (the semantic reference).
//!
//! The paper's model has one primitive — a node reads its neighbours'
//! registers and rewrites its own — and the engine has one of each thing
//! that primitive needs:
//!
//! * **one kernel** — [`sweep`]: walk a CSR view, gather the neighbour
//!   registers in port order, call `step`, write its
//!   [`Update`](smst_sim::NodeProgram::Update) into the caller's slice.
//!   It is the only `step` call site outside the `smst-sim` reference;
//! * **one arena** — [`Arena`]: program, graph, renumbered
//!   [`CsrTopology`], [`Layout`] (+ inverse), contexts and registers in
//!   internal order, built by one pipeline and speaking original node ids
//!   on its whole read / fault surface;
//! * **one round primitive** — [`WorkerPool::run_rounds`]: a chunk of
//!   rounds over per-part regions, each a compute phase that sweeps
//!   updates off the unchanged registers and, behind the round barrier, an
//!   apply phase that writes them in place (halo copies included), on a
//!   persistent pool of parked workers
//!   ([`PoolHandle`]; [`PhaseTimes`] optionally splits observed rounds
//!   into compute / barrier / exchange);
//! * **one supervised-attempt loop** — [`RecoveryPolicy::supervise`]:
//!   retry, back off, restore; watchdog timeouts are never retried;
//! * **one driving loop** — [`drive_until`] behind
//!   [`Runner::run_until`] / [`Runner::try_run_until`];
//! * **one fault experiment** — [`run_fault_experiment`]: the paper's
//!   measurement protocol (warm-up → inject → detect / recover) over
//!   `&mut dyn Runner`, built from `try_run_until` and `apply_faults`, so
//!   every backend, figure and trial shares one latency rule and
//!   one definition of a false alarm.
//!
//! A runner is a scheduler over those pieces — it decides *who is
//! activated when*, which is all that separates the paper's synchronous and
//! asynchronous bounds:
//!
//! * [`ShardedRunner`] — one runner with two schedules. **Rounds** run
//!   over a [`HaloPlan`]: every part sweeps its [`Shard`]
//!   ([`partition_balanced`] equalizes adjacency work, not node counts);
//!   the direct plan reads the whole register vector, the halo plan runs
//!   on shard-local arenas with an explicit, measurable exchange.
//!   **Batches** are any [`smst_sim::BatchDaemon`]'s simultaneous
//!   activations swept into a reused update buffer, equal to the central
//!   daemon at batch width 1. Construction, recovery, injection and the
//!   observer hook are shared;
//! * the `smst-net` crate's coordinator and worker processes — one halo
//!   region per process, the exchange on a socket.
//!
//! On top:
//!
//! * [`EngineConfig`] + [`Runner`] — **the one engine API**: a validated
//!   configuration of the full execution envelope (backend, mode/daemon,
//!   threads, layout, halo, recovery, injection) whose
//!   [`instantiate`](EngineConfig::instantiate) returns any execution path
//!   behind one object-safe `Box<dyn Runner<P>>`, with a
//!   [`smst_sim::RoundObserver`] hook for per-round accounting;
//! * [`ScenarioSpec`] — the declarative input of one fault experiment:
//!   graph family × at most one [`FaultBurst`] × [`StopCondition`] ×
//!   [`EngineConfig`] ([`run`](ScenarioSpec::run) builds graph and runner,
//!   [`run_on`](ScenarioSpec::run_on) drives a runner the caller holds);
//! * [`chaos`] — recurring [`smst_sim::FaultSchedule`] waves:
//!   [`run_chaos`], the one other loop that steps a `Runner`, keeps
//!   per-wave detection-latency and rounds-to-quiescence books on the
//!   self-healing pool (one-shot [`InjectionSpec`] chaos injections, typed
//!   [`EngineError`]s from the `try_*` surface);
//! * [`programs`] — compact demo workloads for million-node smoke tests.
//!
//! # Determinism contract
//!
//! Every run is a pure function of `(program, scenario/graph seed, daemon
//! seed, batch width)`. Thread count, layout, halo mode and recovery
//! **never** change results — they are purely wall-clock knobs —
//! because the kernel reads only pre-step registers (a round or batch
//! applies its updates only once all of them are computed), every CSR the
//! kernel walks preserves each node's port order exactly,
//! and all scheduling randomness comes from counter-seeded [`smst_rng`]
//! generators, never from thread interleaving.
//!
//! # Memory
//!
//! The register is still a node's whole state: a step reads all of it,
//! [`Runner::state`] and [`Runner::apply_faults`] see and rewrite all of
//! it, and faults may corrupt any field. What a step may rewrite is the
//! program's [`Update`](smst_sim::NodeProgram::Update), so every runner
//! holds the registers once plus one buffer of updates — for the core
//! verifier 328 + 144 B per node instead of two 328-B registers.
//!
//! # Safety
//!
//! The crate is `#![deny(unsafe_code)]`; `unsafe` lives in two places:
//! [`pool`]'s lifetime-erasure core, whose dispatch protocol provides the
//! same structural guarantee as `std::thread::scope` (see the module docs),
//! and [`kernel`]'s cache-prefetch hint, which never faults and has no
//! architectural read or write (x86-64 only, a no-op elsewhere).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod chaos;
pub mod config;
pub mod kernel;
pub mod layout;
pub mod pool;
pub mod programs;
pub mod runner;
pub mod scenario;
pub mod shard;
pub mod sharded;
pub mod topology;

pub use arena::Arena;
pub use chaos::{run_chaos, ChaosReport};
pub use config::{
    register_remote_factory, AttemptFailure, Backend, ConfigError, DaemonConfig, EngineConfig,
    EngineError, InjectionKind, InjectionSpec, Mode, RecoveryPolicy, RemoteFactory,
};
pub use kernel::sweep;
pub use layout::{Layout, LayoutPolicy};
pub use pool::{PhaseTimes, PoolError, PoolHandle, PoolStats, WorkerPool};
pub use runner::{drive_until, Runner, StopCondition};
pub use scenario::{
    run_fault_experiment, FaultBurst, GraphFamily, ScenarioOutcome, ScenarioReport, ScenarioSpec,
};
pub use shard::{partition_balanced, HaloPlan, Shard};
pub use sharded::ShardedRunner;
pub use topology::CsrTopology;

/// The number of worker threads to use by default: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
