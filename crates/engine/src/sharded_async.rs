//! The sharded asynchronous executor: a daemon's batches swept on the pool.
//!
//! The sequential [`AsyncRunner`](smst_sim::AsyncRunner) activates one node
//! at a time. [`ShardedAsyncRunner`] executes the standard **distributed
//! daemon**: any [`BatchDaemon`] — each time unit is a sequence of batches
//! of simultaneous activations. A batch is one [`sweep`] of the daemon's
//! node list over the [`Arena`]'s registers into a reused output buffer,
//! split across the persistent [`WorkerPool`](crate::pool::WorkerPool) when
//! it is wide enough, and written back only once the whole batch is
//! computed. [`EngineConfig::asynchronous`] wraps a central
//! [`Daemon`](smst_sim::Daemon) into a
//! [`ChunkedDaemon`](smst_sim::ChunkedDaemon) (uniform chunks of `batch`
//! activations); adversarial batch daemons live in `smst-adversary`.
//!
//! # Invariants
//!
//! * **Pre-batch reads.** Every activation of a batch reads the registers
//!   as they were when the batch started, so outcomes cannot depend on how
//!   the batch is split across workers.
//! * **Determinism.** The schedule is a pure function of `(daemon, n,
//!   unit_index)` — any RNG is re-seeded per unit from the daemon's seed,
//!   never from wall-clock or thread identity. Runs are bit-for-bit
//!   reproducible at any thread count and under any layout; only the
//!   daemon's batching (part of the schedule's semantics) changes
//!   outcomes, and at batch width 1 the runner replays the sequential
//!   [`AsyncRunner`](smst_sim::AsyncRunner) activation for activation.
//! * **Recovery is invisible.** Every time unit runs under
//!   [`RecoveryPolicy::supervise`]: the unit counter only advances on
//!   success and the daemon is never consumed, so after a worker panic the
//!   restored registers replay the identical schedule. Exhausted retries
//!   surface as typed [`PoolError`]s through [`Runner::try_step`]. (There
//!   is no round barrier on this path, so the watchdog knob is rejected by
//!   [`EngineConfig::validate`].)

use crate::arena::Arena;
use crate::config::{
    ArmedInjection, Backend, ConfigError, EngineConfig, EngineError, Mode, RecoveryPolicy,
};
use crate::kernel::sweep;
use crate::pool::{PoolError, PoolHandle};
use crate::runner::{RunReport, Runner};
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{
    BatchDaemon, FaultPlan, Network, NodeContext, NodeProgram, RoundObserver, RoundStats,
};
use std::sync::Mutex;

/// Runs a [`NodeProgram`] under an asynchronous daemon, executing each time
/// unit's schedule in parallel batches.
#[derive(Debug)]
pub struct ShardedAsyncRunner<'p, P: NodeProgram> {
    arena: Arena<'p, P>,
    daemon: Box<dyn BatchDaemon>,
    /// Reused per batch: the internal indices of the batch's nodes …
    nodes: Vec<u32>,
    /// … and their freshly swept registers (grown to the widest batch).
    out: Vec<P::State>,
    pool: PoolHandle,
    threads: usize,
    time_units: usize,
    activations: usize,
    /// Supervised recovery for panicked time units.
    recovery: RecoveryPolicy,
    /// A one-shot chaos injection, armed until it fires.
    injection: Option<ArmedInjection>,
    /// Per-time-unit measurement hook; stats are computed only while
    /// attached.
    observer: Option<Box<dyn RoundObserver>>,
    /// Nanoseconds the current observed time unit spent executing batches
    /// (the pool fan-out included); accumulated only while an observer is
    /// attached.
    unit_compute_ns: u64,
}

impl<'p, P> ShardedAsyncRunner<'p, P>
where
    P: NodeProgram + Sync,
    P::State: Send + Sync,
{
    /// Builds the runner an [`EngineConfig`] describes (an asynchronous
    /// sharded envelope): daemon, threads, layout, recovery and
    /// injection all come from the one validated config — the
    /// typed-constructor twin of [`EngineConfig::instantiate`] for callers
    /// that need the concrete runner (e.g. to inspect the
    /// [`arena`](Self::arena)).
    pub fn from_config(
        program: &'p P,
        graph: WeightedGraph,
        config: &EngineConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let (Backend::Sharded, Mode::Async(daemon)) = (config.backend, &config.mode) else {
            return Err(config.wrong_mode("sharded asynchronous"));
        };
        Ok(ShardedAsyncRunner {
            arena: Arena::new(program, graph, config.layout),
            daemon: daemon.build(),
            nodes: Vec::new(),
            out: Vec::new(),
            pool: PoolHandle::for_threads(config.threads),
            threads: config.threads,
            time_units: 0,
            activations: 0,
            recovery: config.recovery,
            injection: config.injection.map(ArmedInjection::new),
            observer: None,
            unit_compute_ns: 0,
        })
    }

    /// The arena the batches run on: program, graph, layout, renumbered
    /// topology and the registers in internal order.
    pub fn arena(&self) -> &Arena<'p, P> {
        &self.arena
    }

    /// One attempt at a time unit's full schedule: every batch swept from
    /// the pre-batch registers into `out`, then written back. Unwinds on a
    /// worker panic, leaving the unit counter untouched.
    fn run_unit(&mut self) {
        let (program, topo) = (self.arena.program, &self.arena.topo);
        let (layout, contexts) = (&self.arena.layout, &self.arena.contexts[..]);
        let states = &mut self.arena.states;
        let (nodes, out) = (&mut self.nodes, &mut self.out);
        let (pool, threads) = (self.pool.pool(), self.threads);
        let (injection, unit) = (self.injection.as_ref(), self.time_units);
        let (activations, compute_ns) = (&mut self.activations, &mut self.unit_compute_ns);
        let timed = self.observer.is_some();
        self.daemon
            .for_each_batch(states.len(), unit, &mut |batch| {
                if batch.is_empty() {
                    return;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "observer-gated batch timing; wall time never feeds round state"
                )]
                let start = timed.then(std::time::Instant::now);
                nodes.clear();
                nodes.extend(batch.iter().map(|v| layout.internal(v.index()) as u32));
                let len = nodes.len();
                if out.len() < len {
                    // any register serves as filler: the sweep overwrites it
                    out.resize(len, states[0].clone());
                }
                // one worker piece per MIN_BATCH_SPAWN activations, capped
                // by the thread count; a single piece runs inline on the
                // caller. Each piece owns a disjoint window of `out`.
                let pieces = threads.min(len / MIN_BATCH_SPAWN).max(1);
                let bound = |k: usize| len * k / pieces;
                let mut rest = &mut out[..len];
                let windows: Vec<Mutex<&mut [P::State]>> = (0..pieces)
                    .map(|k| {
                        let (window, tail) =
                            std::mem::take(&mut rest).split_at_mut(bound(k + 1) - bound(k));
                        rest = tail;
                        Mutex::new(window)
                    })
                    .collect();
                let registers = &states[..];
                pool.dispatch(pieces, &|k| {
                    if let Some(injection) = injection {
                        injection.maybe_fire(unit, k);
                    }
                    let piece = nodes[bound(k)..bound(k + 1)].iter().map(|&v| v as usize);
                    let mut window = windows[k].lock().expect("one piece per window");
                    sweep(program, topo, contexts, registers, piece, &mut window);
                });
                drop(windows);
                for (&v, value) in nodes.iter().zip(out.iter_mut()) {
                    std::mem::swap(&mut states[v as usize], value);
                }
                *activations += len;
                if let Some(start) = start {
                    *compute_ns += start.elapsed().as_nanos() as u64;
                }
            });
    }

    /// Executes one normalized time unit (every node activated at least
    /// once, in daemon-chosen batches) under the [`RecoveryPolicy`]: a
    /// panicked unit restores the pre-unit registers and replays the
    /// identical schedule.
    fn try_unit(&mut self) -> Result<(), PoolError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "observer-gated unit timing; wall time never feeds round state"
        )]
        let start = self.observer.is_some().then(std::time::Instant::now);
        self.unit_compute_ns = 0;
        let activations_before = self.activations;
        let snapshot = (self.recovery.max_retries > 0).then(|| self.arena.states.clone());
        let policy = self.recovery;
        policy.supervise_unwinding(self, Self::run_unit, |this| {
            let states = snapshot.as_ref().expect("retries imply a snapshot");
            this.arena.states.clone_from(states);
            this.activations = activations_before;
            this.unit_compute_ns = 0;
        })?;
        self.time_units += 1;
        // measured before the observer's verdict sweep, so the phase sum
        // reflects the unit itself, not the cost of observing it
        let total_ns = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let compute_ns = self.unit_compute_ns;
        if let Some(observer) = self.observer.as_mut() {
            observer.on_round(&RoundStats {
                round: self.time_units - 1,
                alarms: self.arena.alarm_count(),
                activations: self.activations - activations_before,
                halo_bytes: 0,
                // residual: daemon scheduling and everything else outside
                // the batches
                dispatch_ns: total_ns.saturating_sub(compute_ns),
                compute_ns,
                barrier_ns: 0,
                exchange_ns: 0,
            });
        }
        Ok(())
    }
}

impl<'p, P> Runner<P> for ShardedAsyncRunner<'p, P>
where
    P: NodeProgram + Sync,
    P::State: Send + Sync,
{
    fn try_step(&mut self) -> Result<(), EngineError> {
        Ok(self.try_unit()?)
    }

    fn steps(&self) -> usize {
        self.time_units
    }

    fn activations(&self) -> usize {
        self.activations
    }

    fn graph(&self) -> &WeightedGraph {
        self.arena.graph()
    }

    fn state(&self, v: NodeId) -> &P::State {
        self.arena.state(v)
    }

    fn state_mut(&mut self, v: NodeId) -> &mut P::State {
        self.arena.state_mut(v)
    }

    fn states_snapshot(&self) -> Vec<P::State> {
        self.arena.states_snapshot()
    }

    fn context(&self, v: NodeId) -> NodeContext {
        *self.arena.context(v)
    }

    fn any_alarm(&self) -> bool {
        self.arena.any_alarm()
    }

    fn all_accept(&self) -> bool {
        self.arena.all_accept()
    }

    fn alarming_nodes(&self) -> Vec<NodeId> {
        self.arena.alarming_nodes()
    }

    fn apply_faults(&mut self, plan: &FaultPlan, mutate: &mut dyn FnMut(NodeId, &mut P::State)) {
        self.arena.apply_faults(plan, mutate);
    }

    fn set_observer(&mut self, observer: Box<dyn RoundObserver>) {
        self.observer = Some(observer);
    }

    fn report(&self) -> RunReport {
        RunReport {
            node_count: self.arena.node_count(),
            steps: self.time_units,
            activations: self.activations,
            threads: self.threads,
            engine: format!(
                "sharded-async(threads={},daemon={})",
                self.threads,
                self.daemon.describe()
            ),
        }
    }

    fn into_network(self: Box<Self>) -> Network<P> {
        self.arena.into_network()
    }
}

/// Smallest number of batch activations **per worker piece** worth a pool
/// dispatch: an epoch bump on parked workers costs single-digit µs, so a
/// batch is split as soon as each piece has this much work. Thread splits
/// never affect results — this is purely a wall-clock knob.
const MIN_BATCH_SPAWN: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InjectionSpec;
    use crate::layout::LayoutPolicy;
    use crate::runner::StopCondition;
    use smst_graph::generators::{path_graph, random_connected_graph};
    use smst_sim::{AsyncRunner, Daemon, RecordingObserver, Verdict};

    struct MinId;

    static MIN_ID: MinId = MinId;

    fn from_config(g: &WeightedGraph, config: &EngineConfig) -> ShardedAsyncRunner<'static, MinId> {
        ShardedAsyncRunner::from_config(&MIN_ID, g.clone(), config).expect("a valid test envelope")
    }

    fn envelope(daemon: Daemon, batch: usize, threads: usize) -> EngineConfig {
        EngineConfig::new()
            .asynchronous(daemon, batch)
            .threads(threads)
    }

    fn runner(
        g: &WeightedGraph,
        daemon: Daemon,
        batch: usize,
        threads: usize,
    ) -> ShardedAsyncRunner<'static, MinId> {
        from_config(g, &envelope(daemon, batch, threads))
    }

    impl NodeProgram for MinId {
        type State = u64;
        fn init(&self, ctx: &NodeContext) -> u64 {
            ctx.id
        }
        fn step(&self, _ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
            neighbors.iter().fold(*own, |acc, &&x| acc.min(x))
        }
        fn verdict(&self, _ctx: &NodeContext, state: &u64) -> Verdict {
            if *state == 0 {
                Verdict::Accept
            } else {
                Verdict::Working
            }
        }
    }

    #[test]
    fn batch_one_replays_the_sequential_daemon() {
        let g = random_connected_graph(25, 60, 3);
        for daemon in [
            Daemon::RoundRobin,
            Daemon::Random {
                seed: 5,
                extra_factor: 2,
            },
            Daemon::Adversarial {
                pivot: 3,
                pivot_repeats: 4,
            },
        ] {
            for policy in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
                let mut seq =
                    AsyncRunner::new(&MinId, Network::new(&MinId, g.clone()), daemon.clone());
                let mut par = from_config(&g, &envelope(daemon.clone(), 1, 4).layout(policy));
                for unit in 0..6 {
                    assert_eq!(
                        par.states_snapshot(),
                        seq.network().states(),
                        "{daemon:?}, unit {unit}, {policy:?}"
                    );
                    seq.step_time_unit();
                    par.step();
                }
                assert_eq!(par.activations(), seq.activations(), "{daemon:?}");
            }
        }
    }

    #[test]
    fn parallel_batch_path_is_identical_across_thread_counts() {
        // batch large enough that the pool split actually executes; with
        // the RoundRobin daemon and batch = n, one time unit is one
        // synchronous round, which the sequential SyncRunner pins
        let n = 3000;
        let g = random_connected_graph(n, 8000, 12);
        let batch = n;
        assert!(batch >= 4 * super::MIN_BATCH_SPAWN);
        let mut sync = smst_sim::SyncRunner::new(&MinId, Network::new(&MinId, g.clone()));
        let mut single = runner(&g, Daemon::RoundRobin, batch, 1);
        let mut multi = runner(&g, Daemon::RoundRobin, batch, 4);
        for unit in 0..4 {
            sync.step_round();
            single.step();
            multi.step();
            assert_eq!(
                multi.arena.states(),
                single.arena.states(),
                "thread split changed results at unit {unit}"
            );
            assert_eq!(
                multi.arena.states(),
                sync.network().states(),
                "full-batch round-robin diverged from a synchronous round at unit {unit}"
            );
        }
    }

    #[test]
    fn small_batches_reuse_the_pool_without_changing_results() {
        // batch sizes straddling the per-piece dispatch threshold: every
        // configuration must agree with the 1-thread reference
        let g = random_connected_graph(120, 300, 8);
        let daemon = Daemon::Random {
            seed: 13,
            extra_factor: 1,
        };
        for batch in [
            super::MIN_BATCH_SPAWN / 2,
            super::MIN_BATCH_SPAWN,
            2 * super::MIN_BATCH_SPAWN,
            4 * super::MIN_BATCH_SPAWN,
        ] {
            let mut reference = runner(&g, daemon.clone(), batch, 1);
            reference.run_until(StopCondition::Steps, 4);
            for threads in [2, 3, 8] {
                let mut runner = runner(&g, daemon.clone(), batch, threads);
                runner.run_until(StopCondition::Steps, 4);
                assert_eq!(
                    runner.arena.states(),
                    reference.arena.states(),
                    "batch {batch}, threads {threads} changed the outcome"
                );
                assert_eq!(runner.activations(), reference.activations());
            }
        }
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        let g = random_connected_graph(40, 100, 8);
        let daemon = Daemon::Random {
            seed: 13,
            extra_factor: 1,
        };
        let mut reference = runner(&g, daemon.clone(), 8, 1);
        reference.run_until(StopCondition::Steps, 5);
        for threads in [2, 3, 4, 9] {
            let mut runner = runner(&g, daemon.clone(), 8, threads);
            runner.run_until(StopCondition::Steps, 5);
            assert_eq!(
                runner.arena.states(),
                reference.arena.states(),
                "thread count {threads} changed the outcome"
            );
            assert_eq!(runner.activations(), reference.activations());
        }
    }

    #[test]
    fn boxed_central_daemon_equals_batch_width_one() {
        // a central Daemon used directly as a BatchDaemon (singleton
        // batches) must agree with the chunked convenience at batch = 1
        let g = random_connected_graph(20, 50, 6);
        let daemon = Daemon::Random {
            seed: 8,
            extra_factor: 1,
        };
        let mut chunked = runner(&g, daemon.clone(), 1, 2);
        let mut boxed = from_config(
            &g,
            &EngineConfig::new()
                .batch_daemon(Box::new(daemon))
                .threads(2),
        );
        for _ in 0..5 {
            chunked.step();
            boxed.step();
            assert_eq!(chunked.arena.states(), boxed.arena.states());
        }
        assert_eq!(chunked.activations(), boxed.activations());
        assert!(boxed.report().engine.contains("daemon=random"));
    }

    #[test]
    fn converges_under_every_daemon() {
        let g = path_graph(12, 0);
        for daemon in [
            Daemon::RoundRobin,
            Daemon::Random {
                seed: 3,
                extra_factor: 2,
            },
            Daemon::Adversarial {
                pivot: 11,
                pivot_repeats: 2,
            },
        ] {
            let mut runner = runner(&g, daemon, 4, 3);
            let t = runner.run_until(StopCondition::AllAccept, 50).unwrap();
            assert!(t <= 12);
        }
    }

    #[test]
    fn fault_injection_heals() {
        let g = random_connected_graph(20, 50, 4);
        let mut runner = runner(&g, Daemon::RoundRobin, 5, 2);
        runner.run_until(StopCondition::AllAccept, 30).unwrap();
        let plan = FaultPlan::random(20, 4, 1);
        runner.apply_faults(&plan, &mut |_v, s| *s = 77);
        assert!(!runner.all_accept());
        assert!(runner.run_until(StopCondition::AllAccept, 30).is_some());
    }

    #[test]
    fn injected_panic_recovers_invisibly_in_async_units() {
        let g = random_connected_graph(40, 100, 9);
        let daemon = Daemon::Random {
            seed: 21,
            extra_factor: 1,
        };
        for threads in [1, 2, 8] {
            let config = envelope(daemon.clone(), 8, threads);
            let mut clean = from_config(&g, &config);
            let mut chaos = from_config(
                &g,
                &config
                    .recovery(RecoveryPolicy::retries(2))
                    .inject(InjectionSpec::panic_at(2, 0)),
            );
            let clean_trace = RecordingObserver::new();
            let chaos_trace = RecordingObserver::new();
            clean.set_observer(Box::new(clean_trace.clone()));
            chaos.set_observer(Box::new(chaos_trace.clone()));
            for _ in 0..6 {
                clean.step();
                chaos
                    .try_step()
                    .expect("the injected panic is retried away");
            }
            assert_eq!(
                chaos_trace.deterministic_trace(),
                clean_trace.deterministic_trace(),
                "recovery must be invisible ({threads} threads)"
            );
            assert_eq!(chaos.arena.states(), clean.arena.states());
            assert_eq!(chaos.activations(), clean.activations());
        }
    }

    #[test]
    fn exhausted_retries_surface_a_typed_worker_panic() {
        let g = random_connected_graph(30, 70, 3);
        // default policy: no retries, the first panic is the error
        let mut chaos = from_config(
            &g,
            &envelope(Daemon::RoundRobin, 6, 2).inject(InjectionSpec::panic_at(0, 0)),
        );
        match chaos.try_step() {
            Err(EngineError::Pool(PoolError::WorkerPanic { attempts, message })) => {
                assert_eq!(attempts, 1);
                assert!(message.contains("injected chaos panic"), "{message}");
            }
            other => panic!("expected a typed worker panic, got {other:?}"),
        }
        // the failed unit did not advance the clock, the daemon survived
        // the unwind, and the one-shot injection is spent: the same runner
        // keeps stepping
        assert_eq!(chaos.steps(), 0);
        chaos.step();
        assert_eq!(chaos.steps(), 1);
        assert!(chaos
            .report()
            .engine
            .ends_with("daemon=round-robin@batch=6)"));
    }
}
