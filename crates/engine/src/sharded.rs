//! The sharded executor: one arena, one pool, two schedules.
//!
//! [`ShardedRunner`] runs a [`NodeProgram`] on an [`Arena`] and the
//! persistent [`WorkerPool`](crate::pool::WorkerPool). Its schedule decides
//! *who is activated when*, the one thing that separates the paper's
//! synchronous and asynchronous bounds:
//!
//! * **rounds** — the rounds of [`ReferenceRunner::rounds`]. A
//!   chunk of rounds is one [`run_rounds`](crate::WorkerPool::run_rounds)
//!   over a [`HaloPlan`]: every part [`sweep`]s its shard's updates off the
//!   registers into its region of one update buffer, then, behind the
//!   round barrier, applies them to its registers in place. The **direct**
//!   plan runs on the register vector itself, parts reading all of it
//!   through the arena's CSR; the **halo** plan runs on a shard-local arena
//!   gathered before the chunk and scattered after it, each halo copy
//!   taking the update of the interior register it mirrors;
//! * **batches** — any [`BatchDaemon`] (the distributed daemon): a time
//!   unit is a sequence of batches of simultaneous activations, each one
//!   [`sweep`] of the daemon's node list into a reused update buffer, split
//!   across the pool when wide enough and applied once the whole batch is
//!   computed.
//!
//! Either way a runner holds every register once, plus one buffer of
//! [`NodeProgram::Update`]s: what an honest step may rewrite. Faults still
//! rewrite whole registers between steps.
//!
//! # Invariants
//!
//! * **Determinism.** A round reads only the previous round's registers, a
//!   batch only the pre-batch ones, and every CSR hands `step` the
//!   neighbours in port order: rounds equal the reference's rounds at every
//!   thread count, layout and plan; batches are a pure function of
//!   `(daemon, n, unit)` at every thread count and layout, and at width 1
//!   replay [`ReferenceRunner::daemon`] activation for activation.
//! * **Between steps the arena's registers are current**, so faults
//!   injected between steps are seen by the next one.
//! * **Recovery is invisible.** Every attempt runs under
//!   [`RecoveryPolicy::supervise`]: a worker panic restores the pre-attempt
//!   registers and counters and replays the same rounds or unit (the daemon
//!   is never consumed). Exhausted retries and watchdog timeouts (never
//!   retried) surface as typed [`PoolError`]s through [`Runner::try_step`].
//!   The watchdog lives in the round barrier; batches have none, so
//!   [`EngineConfig::validate`] rejects it there.
//! * **Unobserved runs never read the clock.** Unobserved rounds run as one
//!   multi-round chunk; while a [`RoundObserver`] is attached every step is
//!   its own timed attempt. Batches are one time unit per attempt.
//!
//! [`ReferenceRunner::rounds`]: smst_sim::ReferenceRunner::rounds
//! [`ReferenceRunner::daemon`]: smst_sim::ReferenceRunner::daemon

use crate::arena::Arena;
use crate::config::{
    ArmedInjection, Backend, ConfigError, EngineConfig, EngineError, Mode, RecoveryPolicy,
};
use crate::kernel::sweep;
use crate::pool::{PhaseTimes, PoolError, PoolHandle};
use crate::runner::{drive_until, Runner, StopCondition};
use crate::shard::{partition_balanced, HaloPlan};
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{
    BatchDaemon, FaultPlan, Network, NodeContext, NodeProgram, RoundObserver, RoundStats,
};
use std::sync::Mutex;

/// Smallest number of batch activations **per worker piece** worth a pool
/// dispatch: an epoch bump on parked workers costs single-digit µs, so a
/// batch is split as soon as each piece has this much work. Thread splits
/// never affect results — this is purely a wall-clock knob.
const MIN_BATCH_SPAWN: usize = 16;

/// Runs a [`NodeProgram`] on the worker pool under synchronous rounds or
/// a daemon's batches. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedRunner<'p, P: NodeProgram> {
    arena: Arena<'p, P>,
    schedule: Schedule<P::State, P::Update>,
    pool: PoolHandle,
    threads: usize,
    /// Rounds or time units executed.
    steps: usize,
    /// Single-node activations executed.
    activations: usize,
    /// Supervised recovery for panicked attempts + the barrier watchdog.
    recovery: RecoveryPolicy,
    /// A one-shot chaos injection, armed until it fires.
    injection: Option<ArmedInjection>,
    /// Per-step measurement hook; while attached, every step is its own
    /// timed attempt.
    observer: Option<Box<dyn RoundObserver>>,
    /// Phase accumulators of the observed step (compute / barrier / halo
    /// exchange), drained into its [`RoundStats`]. Only written while an
    /// observer is attached.
    phases: PhaseTimes,
}

/// Who is activated when — the one place the two modes differ.
#[derive(Debug)]
enum Schedule<S, U> {
    /// Lock-step rounds over a plan.
    Rounds {
        /// What every part computes, applies and reads through: the halo
        /// plan in halo mode, the direct plan otherwise.
        plan: HaloPlan,
        /// Halo mode only: the shard-local arena, gathered from the
        /// registers before every chunk. In direct mode the rounds run on
        /// the register vector itself.
        halo_arena: Option<Vec<S>>,
        /// One update slot per slot the rounds run on (sized by the first
        /// chunk, kept across calls).
        updates: Vec<U>,
    },
    /// A daemon's batches of simultaneous activations.
    Batches {
        daemon: Box<dyn BatchDaemon>,
        /// Reused per batch: the internal indices of the batch's nodes …
        nodes: Vec<u32>,
        /// … and their freshly swept updates (grown to the widest batch).
        out: Vec<U>,
    },
}

impl<'p, P> ShardedRunner<'p, P>
where
    P: NodeProgram + Sync,
    P::State: Send + Sync,
{
    /// Builds the runner a [`Backend::Sharded`] [`EngineConfig`] describes:
    /// schedule, threads, layout, halo plan, recovery and injection all come
    /// from the one validated config — the typed-constructor twin of
    /// [`EngineConfig::instantiate`] for callers that need the concrete
    /// runner (to inspect the [`arena`](Self::arena) or the
    /// [`halo_plan`](Self::halo_plan)).
    pub fn from_config(
        program: &'p P,
        graph: WeightedGraph,
        config: &EngineConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if config.backend != Backend::Sharded {
            return Err(config.wrong_mode("sharded"));
        }
        let arena = Arena::new(program, graph, config.layout);
        let schedule = match &config.mode {
            Mode::Sync => {
                let shards = partition_balanced(arena.topology(), config.threads);
                let plan = if config.halo {
                    HaloPlan::build(arena.topology(), &shards)
                } else {
                    HaloPlan::direct(&shards)
                };
                Schedule::Rounds {
                    plan,
                    halo_arena: config.halo.then(Vec::new),
                    updates: Vec::new(),
                }
            }
            Mode::Async(daemon) => Schedule::Batches {
                daemon: daemon.build(),
                nodes: Vec::new(),
                out: Vec::new(),
            },
        };
        Ok(ShardedRunner {
            arena,
            schedule,
            pool: PoolHandle::for_threads(config.threads),
            threads: config.threads,
            steps: 0,
            activations: 0,
            recovery: config.recovery,
            injection: config.injection.map(ArmedInjection::new),
            observer: None,
            phases: PhaseTimes::new(),
        })
    }

    /// The arena the steps run on: program, graph, layout, renumbered
    /// topology and the registers in internal order.
    pub fn arena(&self) -> &Arena<'p, P> {
        &self.arena
    }

    /// The halo plan when rounds run in halo-exchange mode (per-shard halo
    /// sizes, exchange volume).
    pub fn halo_plan(&self) -> Option<&HaloPlan> {
        match &self.schedule {
            Schedule::Rounds {
                plan,
                halo_arena: Some(_),
                ..
            } => Some(plan),
            _ => None,
        }
    }

    /// Executes `count` steps: unobserved rounds are one chunked pool
    /// dispatch (the parked workers run all `count` rounds back to back
    /// behind the round barrier); batches, and every step while an observer
    /// is attached, are one attempt per step. Results are identical either
    /// way.
    fn try_steps(&mut self, count: usize) -> Result<(), PoolError> {
        if self.observer.is_none() && matches!(self.schedule, Schedule::Rounds { .. }) {
            return self.supervised(count, false);
        }
        for _ in 0..count {
            #[expect(
                clippy::disallowed_methods,
                reason = "observer-gated step timing; wall time never feeds round state"
            )]
            let start = self.observer.is_some().then(std::time::Instant::now);
            let activations = self.activations;
            self.supervised(1, start.is_some())?;
            if let Some(start) = start {
                self.observe(start.elapsed().as_nanos() as u64, activations);
            }
        }
        Ok(())
    }

    /// One attempt under the [`RecoveryPolicy`]: a replay restarts from the
    /// exact pre-attempt registers and counters (the update buffers are
    /// overwritten before they are read, so nothing else needs restoring).
    fn supervised(&mut self, count: usize, timed: bool) -> Result<(), PoolError> {
        let snapshot = (self.recovery.max_retries > 0).then(|| self.arena.states.clone());
        let counters = (self.steps, self.activations);
        let policy = self.recovery;
        policy.supervise_unwinding(
            self,
            |this| this.attempt(count, timed),
            |this| {
                // discard the partial phase accumulation of the failed attempt
                let _ = this.phases.take();
                let states = snapshot.as_ref().expect("retries imply a snapshot");
                this.arena.states.clone_from(states);
                (this.steps, this.activations) = counters;
            },
        )
    }

    /// Executes `count` steps of the schedule; unwinds on a worker panic.
    /// `timed` routes the per-phase clocks into [`Self::phases`] (observed
    /// steps only).
    fn attempt(&mut self, count: usize, timed: bool) {
        let arena = &mut self.arena;
        let (program, topo, layout) = (arena.program, &arena.topo, &arena.layout);
        let (contexts, states) = (&arena.contexts[..], &mut arena.states);
        let (pool, injection, base) = (self.pool.pool(), self.injection.as_ref(), self.steps);
        let phases = timed.then_some(&self.phases);
        match &mut self.schedule {
            Schedule::Rounds {
                plan,
                halo_arena,
                updates,
            } => {
                let registers = match halo_arena.as_mut() {
                    Some(arena) => {
                        plan.gather_into(states, arena);
                        arena
                    }
                    None => &mut *states,
                };
                // the update slots only need the matching length: every
                // round's compute overwrites a region's slots before its
                // apply reads them
                if updates.len() != registers.len() {
                    updates.clear();
                    updates.resize(registers.len(), P::Update::default());
                }
                let plan = &*plan;
                pool.run_rounds(
                    plan.regions(),
                    plan.exchange(),
                    count,
                    registers,
                    updates,
                    |part, round, registers, out| {
                        if let Some(injection) = injection {
                            injection.maybe_fire(base + round, part);
                        }
                        let shard = plan.shards()[part];
                        match plan.local_csr(part) {
                            Some(csr) => sweep::<true, _, _>(
                                program,
                                csr,
                                &contexts[shard.nodes()],
                                &registers[plan.region(part)],
                                0..shard.len(),
                                out,
                            ),
                            None => sweep::<true, _, _>(
                                program,
                                topo,
                                contexts,
                                registers,
                                shard.nodes(),
                                out,
                            ),
                        }
                    },
                    |register, update| P::apply(register, update.clone()),
                    phases,
                    self.recovery.watchdog_timeout,
                );
                if let Some(arena) = halo_arena.as_ref() {
                    plan.scatter_interiors(arena, states);
                }
                self.activations += count * states.len();
            }
            Schedule::Batches { daemon, nodes, out } => {
                let (threads, activations) = (self.threads, &mut self.activations);
                for unit in base..base + count {
                    daemon.for_each_batch(states.len(), unit, &mut |batch| {
                        if batch.is_empty() {
                            return;
                        }
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "observer-gated batch timing; wall time never feeds round state"
                        )]
                        let start = phases.map(|_| std::time::Instant::now());
                        nodes.clear();
                        nodes.extend(batch.iter().map(|v| layout.internal(v.index()) as u32));
                        let len = nodes.len();
                        if out.len() < len {
                            // the sweep overwrites every slot it applies
                            out.resize(len, P::Update::default());
                        }
                        // one worker piece per MIN_BATCH_SPAWN activations,
                        // capped by the thread count; a single piece runs
                        // inline on the caller. Each piece owns a disjoint
                        // window of `out`.
                        let pieces = threads.min(len / MIN_BATCH_SPAWN).max(1);
                        let bound = |k: usize| len * k / pieces;
                        let mut rest = &mut out[..len];
                        let windows: Vec<Mutex<&mut [P::Update]>> = (0..pieces)
                            .map(|k| {
                                let (window, tail) = std::mem::take(&mut rest)
                                    .split_at_mut(bound(k + 1) - bound(k));
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
                            sweep::<false, _, _>(program, topo, contexts, registers, piece, &mut window);
                        });
                        drop(windows);
                        // one update applied each; the `out` slots are
                        // overwritten before they are next read
                        for (&v, update) in nodes.iter().zip(out.iter()) {
                            P::apply(&mut states[v as usize], update.clone());
                        }
                        *activations += len;
                        if let (Some(phases), Some(start)) = (phases, start) {
                            phases.add_compute(start.elapsed().as_nanos() as u64);
                        }
                    });
                }
            }
        }
        self.steps += count;
    }

    /// Reports the just-completed step to the attached observer, draining
    /// the [`PhaseTimes`] accumulators into the stats. `dispatch_ns` is the
    /// residual of the measured step total after the three named phases
    /// (gather / scatter, pool wake-up, daemon scheduling), so the four
    /// timing fields sum to the step total exactly.
    fn observe(&mut self, total_ns: u64, activations_before: usize) {
        let (compute_ns, barrier_ns, exchange_ns) = self.phases.take();
        let halo_bytes = match &self.schedule {
            Schedule::Rounds { plan, .. } => {
                plan.exchanged_bytes_per_round(std::mem::size_of::<P::State>()) as u64
            }
            Schedule::Batches { .. } => 0,
        };
        let stats = RoundStats {
            round: self.steps - 1,
            alarms: self.arena.alarm_count(),
            activations: self.activations - activations_before,
            halo_bytes,
            dispatch_ns: total_ns.saturating_sub(compute_ns + barrier_ns + exchange_ns),
            compute_ns,
            barrier_ns,
            exchange_ns,
        };
        if let Some(observer) = self.observer.as_mut() {
            observer.on_round(&stats);
        }
    }
}

impl<'p, P> Runner<P> for ShardedRunner<'p, P>
where
    P: NodeProgram + Sync,
    P::State: Send + Sync,
{
    fn try_step(&mut self) -> Result<(), EngineError> {
        Ok(self.try_steps(1)?)
    }

    fn steps(&self) -> usize {
        self.steps
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

    fn try_run_until(
        &mut self,
        until: StopCondition,
        max_steps: usize,
    ) -> Result<Option<usize>, EngineError> {
        // a fixed-step run checks no condition: unobserved rounds are one
        // chunked dispatch for the whole budget, with identical results
        if matches!(until, StopCondition::Steps) {
            self.try_steps(max_steps)?;
            return Ok(Some(max_steps));
        }
        drive_until(self, until, max_steps)
    }

    fn into_network(self: Box<Self>) -> Network<P> {
        self.arena.into_network()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InjectionSpec;
    use crate::layout::LayoutPolicy;
    use crate::programs::MinIdFlood;
    use smst_graph::generators::{expander_graph, path_graph, random_connected_graph};
    use smst_sim::{Daemon, RecordingObserver, ReferenceRunner};
    use std::time::Duration;

    static MIN_ID: MinIdFlood = MinIdFlood::new(0);

    fn runner(g: &WeightedGraph, config: &EngineConfig) -> ShardedRunner<'static, MinIdFlood> {
        ShardedRunner::from_config(&MIN_ID, g.clone(), config).expect("a valid test envelope")
    }

    fn with_layout(
        g: &WeightedGraph,
        threads: usize,
        policy: LayoutPolicy,
    ) -> ShardedRunner<'static, MinIdFlood> {
        runner(g, &EngineConfig::new().threads(threads).layout(policy))
    }

    fn envelope(daemon: Daemon, batch: usize, threads: usize) -> EngineConfig {
        EngineConfig::new()
            .asynchronous(daemon, batch)
            .threads(threads)
    }

    fn batches(
        g: &WeightedGraph,
        daemon: Daemon,
        batch: usize,
        threads: usize,
    ) -> ShardedRunner<'static, MinIdFlood> {
        runner(g, &envelope(daemon, batch, threads))
    }

    #[test]
    fn matches_sequential_runner_every_round() {
        let g = random_connected_graph(60, 150, 11);
        for threads in [1, 2, 4, 7] {
            for policy in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
                let mut par = with_layout(&g, threads, policy);
                let mut seq = ReferenceRunner::rounds(&MIN_ID, Network::new(&MIN_ID, g.clone()));
                for round in 0..12 {
                    assert_eq!(
                        par.states_snapshot(),
                        seq.network().states(),
                        "round {round}, {threads} threads, {policy:?}"
                    );
                    par.step();
                    seq.step();
                }
            }
        }
    }

    #[test]
    fn chunked_run_rounds_equals_stepped_rounds() {
        let g = expander_graph(64, 6, 3);
        for policy in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
            let mut chunked = with_layout(&g, 4, policy);
            let mut stepped = with_layout(&g, 4, policy);
            assert_eq!(chunked.run_until(StopCondition::Steps, 7), Some(7));
            for _ in 0..7 {
                stepped.step();
            }
            assert_eq!(chunked.arena.states(), stepped.arena.states(), "{policy:?}");
            assert_eq!(chunked.steps(), 7);
            assert_eq!(chunked.activations(), 7 * 64);
        }
    }

    #[test]
    fn converges_like_the_sequential_runner() {
        let g = path_graph(10, 0);
        let d = g.diameter().unwrap();
        let mut runner = with_layout(&g, 3, LayoutPolicy::Identity);
        let t = runner.run_until(StopCondition::AllAccept, 100).unwrap();
        assert_eq!(t, d);
        assert_eq!(runner.steps(), d);
    }

    #[test]
    fn fault_injection_and_healing_with_layout() {
        let g = random_connected_graph(30, 80, 2);
        let mut runner = with_layout(&g, 4, LayoutPolicy::Rcm);
        runner.run_until(StopCondition::AllAccept, 100).unwrap();
        let plan = FaultPlan::random(30, 5, 9);
        runner.apply_faults(&plan, &mut |_v, s| *s = u64::MAX);
        assert!(!runner.all_accept());
        runner.run_until(StopCondition::AllAccept, 100).unwrap();
        assert!(runner.arena.states().iter().all(|&s| s == 0));
    }

    #[test]
    fn run_until_counts_and_times_out() {
        let g = path_graph(6, 0);
        let mut runner = with_layout(&g, 2, LayoutPolicy::Identity);
        // the flood never alarms: a timeout after exactly the budget
        assert_eq!(runner.run_until(StopCondition::FirstAlarm, 2), None);
        assert_eq!(runner.steps(), 2);
        runner.run_until(StopCondition::AllAccept, 100).unwrap();
        assert_eq!(runner.run_until(StopCondition::AllAccept, 10), Some(0));
    }

    #[test]
    fn halo_mode_matches_direct_mode_every_round() {
        let g = random_connected_graph(80, 220, 19);
        for threads in [1, 2, 4, 7] {
            for policy in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
                let config = EngineConfig::new().threads(threads).layout(policy);
                let mut halo = runner(&g, &config.clone().halo(true));
                let mut direct = runner(&g, &config);
                for round in 0..10 {
                    assert_eq!(
                        halo.states_snapshot(),
                        direct.states_snapshot(),
                        "round {round}, {threads} threads, {policy:?}"
                    );
                    halo.step();
                    direct.step();
                }
                assert_eq!(halo.steps(), 10);
            }
        }
    }

    #[test]
    fn halo_mode_survives_faults_and_fixpoints() {
        // faults mutate the registers between chunked halo runs: the
        // arenas are re-gathered per chunk, so both modes see them
        let g = random_connected_graph(40, 100, 3);
        let config = EngineConfig::new().threads(4).layout(LayoutPolicy::Rcm);
        let mut halo = runner(&g, &config.clone().halo(true));
        let mut direct = runner(&g, &config);
        assert_eq!(
            halo.run_until(StopCondition::AllAccept, 100).unwrap(),
            direct.run_until(StopCondition::AllAccept, 100).unwrap()
        );
        let plan = FaultPlan::random(40, 6, 21);
        halo.apply_faults(&plan, &mut |_v, s| *s = u64::MAX);
        direct.apply_faults(&plan, &mut |_v, s| *s = u64::MAX);
        halo.run_until(StopCondition::Steps, 5);
        direct.run_until(StopCondition::Steps, 5);
        assert_eq!(halo.states_snapshot(), direct.states_snapshot());
        // the converged flood is a fixpoint: a further round changes nothing
        halo.run_until(StopCondition::AllAccept, 100).unwrap();
        let converged = halo.states_snapshot();
        halo.step();
        assert_eq!(halo.states_snapshot(), converged);
    }

    #[test]
    fn halo_plan_is_exposed_and_sized_sanely() {
        let g = expander_graph(200, 6, 4);
        let halo4 = runner(&g, &EngineConfig::new().threads(4).halo(true));
        let plan = halo4.halo_plan().expect("halo mode on");
        assert_eq!(plan.shard_count(), 4);
        assert!(plan.total_halo() > 0, "an expander has cross-shard edges");
        // direct mode runs on the zero-halo plan and exposes none
        let direct = runner(&g, &EngineConfig::new().threads(4));
        assert!(direct.halo_plan().is_none());
        assert!(
            matches!(&direct.schedule, Schedule::Rounds { plan, .. } if plan.total_halo() == 0)
        );
        // single-threaded halo mode degenerates gracefully (no external
        // neighbours at all), and batches have no plan
        let one = runner(&g, &EngineConfig::new().halo(true));
        assert_eq!(one.halo_plan().unwrap().total_halo(), 0);
        assert!(batches(&g, Daemon::RoundRobin, 8, 4).halo_plan().is_none());
    }

    #[test]
    fn empty_graph_runs_without_panicking() {
        // partition_balanced returns no shards for n == 0, and the round
        // primitive must tolerate a plan without parts
        let g = smst_graph::WeightedGraph::default();
        for halo in [false, true] {
            let mut runner = runner(&g, &EngineConfig::new().threads(4).halo(halo));
            runner.run_until(StopCondition::Steps, 3);
            assert_eq!(runner.steps(), 3);
            assert!(runner.arena.states().is_empty());
            assert!(runner.all_accept(), "vacuously true on no nodes");
            assert!(runner.alarming_nodes().is_empty());
        }
    }

    #[test]
    fn runners_share_the_registered_pool() {
        // 33 threads: no other test requests a pool this large, so the
        // registry must hand the second runner the first runner's pool
        // (a smaller request may legitimately land in a concurrently
        // registered pool, which would make the assertion racy)
        let g = path_graph(8, 0);
        let a = with_layout(&g, 33, LayoutPolicy::Identity);
        let b = with_layout(&g, 33, LayoutPolicy::Identity);
        assert!(
            a.pool.shares_pool_with(&b.pool),
            "equal-sized runners must reuse the registered pool"
        );
        assert!(a.pool.pool().threads() >= 33);
    }

    #[test]
    fn injected_panic_recovers_invisibly_at_every_thread_count() {
        let g = random_connected_graph(60, 150, 31);
        for threads in [1, 2, 8] {
            for halo in [false, true] {
                let config = EngineConfig::new()
                    .threads(threads)
                    .layout(LayoutPolicy::Rcm)
                    .halo(halo);
                let mut clean = runner(&g, &config);
                let mut chaos = runner(
                    &g,
                    &config
                        .recovery(RecoveryPolicy::retries(2))
                        .inject(InjectionSpec::panic_at(3, 0)),
                );
                let clean_trace = RecordingObserver::new();
                let chaos_trace = RecordingObserver::new();
                clean.set_observer(Box::new(clean_trace.clone()));
                chaos.set_observer(Box::new(chaos_trace.clone()));
                clean.run_until(StopCondition::Steps, 8);
                chaos
                    .try_run_until(StopCondition::Steps, 8)
                    .expect("the injected panic is retried away");
                assert_eq!(
                    chaos_trace.deterministic_trace(),
                    clean_trace.deterministic_trace(),
                    "recovery must be invisible ({threads} threads, halo={halo})"
                );
                assert_eq!(chaos.states_snapshot(), clean.states_snapshot());
                assert_eq!(chaos.steps(), 8);
            }
        }
    }

    #[test]
    fn exhausted_retries_surface_a_typed_worker_panic() {
        let g = random_connected_graph(40, 100, 5);
        // default policy: no retries, the first panic is the error
        let config = EngineConfig::new().threads(4);
        let mut chaos = runner(&g, &config.clone().inject(InjectionSpec::panic_at(0, 0)));
        match chaos.try_step() {
            Err(EngineError::Pool(PoolError::WorkerPanic { attempts, message })) => {
                assert_eq!(attempts, 1);
                assert!(message.contains("injected chaos panic"), "{message}");
            }
            other => panic!("expected a typed worker panic, got {other:?}"),
        }
        // the pool healed: a fresh runner on the same registry pool works
        let mut fresh = runner(&g, &config);
        fresh.run_until(StopCondition::Steps, 3);
        assert_eq!(fresh.steps(), 3);
    }

    #[test]
    fn stall_injection_trips_the_watchdog_as_a_typed_timeout() {
        let g = random_connected_graph(40, 100, 7);
        let mut runner = runner(
            &g,
            &EngineConfig::new()
                .threads(2)
                .recovery(RecoveryPolicy::retries(3).watchdog(Duration::from_millis(40)))
                .inject(InjectionSpec::stall_at(0, 1, 400)),
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "test asserts the watchdog's wall-time bound, not round state"
        )]
        let started = std::time::Instant::now();
        match runner.try_run_until(StopCondition::Steps, 5) {
            Err(EngineError::Pool(PoolError::BarrierTimeout { timeout })) => {
                assert_eq!(timeout, Duration::from_millis(40));
            }
            other => panic!("expected a barrier timeout, got {other:?}"),
        }
        // never retried, and detected well before the stall finished
        assert!(started.elapsed() < Duration::from_secs(5));
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
                let mut seq = ReferenceRunner::daemon(
                    &MIN_ID,
                    Network::new(&MIN_ID, g.clone()),
                    daemon.clone(),
                );
                let mut par = runner(&g, &envelope(daemon.clone(), 1, 4).layout(policy));
                for unit in 0..6 {
                    assert_eq!(
                        par.states_snapshot(),
                        seq.network().states(),
                        "{daemon:?}, unit {unit}, {policy:?}"
                    );
                    seq.step();
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
        // synchronous round: registers, activations and the observer stream
        // equal the rounds schedule's at every step, and the sequential
        // reference rounds pin the registers
        let n = 3000;
        let g = random_connected_graph(n, 8000, 12);
        assert!(n >= 4 * MIN_BATCH_SPAWN);
        let mut sync = ReferenceRunner::rounds(&MIN_ID, Network::new(&MIN_ID, g.clone()));
        let mut rounds = runner(&g, &EngineConfig::new().threads(4));
        let mut single = batches(&g, Daemon::RoundRobin, n, 1);
        let mut multi = batches(&g, Daemon::RoundRobin, n, 4);
        let traces = [(); 3].map(|()| RecordingObserver::new());
        for (runner, trace) in [&mut rounds, &mut single, &mut multi]
            .into_iter()
            .zip(&traces)
        {
            runner.set_observer(Box::new(trace.clone()));
        }
        for unit in 0..4 {
            sync.step();
            for runner in [&mut rounds, &mut single, &mut multi] {
                runner.step();
            }
            assert_eq!(
                rounds.states_snapshot(),
                sync.network().states(),
                "unit {unit}"
            );
            assert_eq!(traces[0].rounds_observed(), unit + 1);
            for (batch, trace) in [&single, &multi].into_iter().zip(&traces[1..]) {
                assert_eq!(batch.arena.states(), rounds.arena.states(), "unit {unit}");
                assert_eq!(batch.activations(), rounds.activations(), "unit {unit}");
                let expected = traces[0].deterministic_trace();
                assert_eq!(trace.deterministic_trace(), expected, "unit {unit}");
            }
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
            MIN_BATCH_SPAWN / 2,
            MIN_BATCH_SPAWN,
            2 * MIN_BATCH_SPAWN,
            4 * MIN_BATCH_SPAWN,
        ] {
            let mut reference = batches(&g, daemon.clone(), batch, 1);
            reference.run_until(StopCondition::Steps, 4);
            for threads in [2, 3, 8] {
                let mut runner = batches(&g, daemon.clone(), batch, threads);
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
        let mut reference = batches(&g, daemon.clone(), 8, 1);
        reference.run_until(StopCondition::Steps, 5);
        for threads in [2, 3, 4, 9] {
            let mut runner = batches(&g, daemon.clone(), 8, threads);
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
        let mut chunked = batches(&g, daemon.clone(), 1, 2);
        let mut boxed = runner(
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
            let mut runner = batches(&g, daemon, 4, 3);
            let t = runner.run_until(StopCondition::AllAccept, 50).unwrap();
            assert!(t <= 12);
        }
    }

    #[test]
    fn fault_injection_heals() {
        let g = random_connected_graph(20, 50, 4);
        let mut runner = batches(&g, Daemon::RoundRobin, 5, 2);
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
            let mut clean = runner(&g, &config);
            let mut chaos = runner(
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
    fn exhausted_batch_retries_surface_a_typed_worker_panic() {
        let g = random_connected_graph(30, 70, 3);
        // default policy: no retries, the first panic is the error
        let mut chaos = runner(
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
    }

    #[test]
    fn from_config_rejects_other_backends() {
        let g = path_graph(4, 0);
        for config in [EngineConfig::reference(), EngineConfig::remote(2)] {
            let err = ShardedRunner::from_config(&MIN_ID, g.clone(), &config)
                .expect_err("only sharded envelopes build a sharded runner");
            assert!(matches!(err, ConfigError::WrongMode { .. }), "{err}");
        }
    }
}
