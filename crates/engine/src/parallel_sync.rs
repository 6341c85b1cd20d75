//! The sharded synchronous executor: lock-step rounds over a plan.
//!
//! [`ParallelSyncRunner`] executes the same rounds as
//! [`smst_sim::SyncRunner`] on an [`Arena`] split into one contiguous
//! [`Shard`](crate::shard::Shard) per worker. A chunk of rounds is one call
//! of the pool's round primitive
//! ([`WorkerPool::run_rounds`](crate::pool::WorkerPool::run_rounds)) over a
//! [`HaloPlan`]: every part [`sweep`]s its shard out of the previous-round
//! buffer into its region of the next-round buffer. The two execution modes
//! are two plans fed to that same loop:
//!
//! * **direct** ([`HaloPlan::direct`]) — the buffers are the register
//!   vector and one back buffer, regions are the shards, parts read the
//!   whole previous buffer through the arena's CSR;
//! * **halo exchange** ([`HaloPlan::build`]) — the buffers are shard-local
//!   arenas (interiors + halo copies) gathered from the registers before
//!   the chunk and scattered back after it, parts read only their own
//!   region through its local CSR, and every round ends with the plan's
//!   pull exchange — cross-shard traffic as one measurable step.
//!
//! # Invariants
//!
//! * **Determinism.** A round is a pure function of the previous round's
//!   registers; sharding only changes *who computes* a register, never
//!   *what it reads*, and both plans hand `step` the neighbours in port
//!   order. Registers are therefore bit-for-bit those of the sequential
//!   [`SyncRunner`](smst_sim::SyncRunner) at every thread count, layout and
//!   mode.
//! * **Between chunks the arena's registers are current** (the halo arenas
//!   are re-gathered per chunk), so faults injected between steps are seen
//!   by the next round in both modes.
//! * **Recovery is invisible.** Every chunk runs under
//!   [`RecoveryPolicy::supervise`]: with retries configured the registers
//!   are snapshotted before dispatch, a worker panic (the pool has already
//!   respawned the dead worker) restores them and replays the chunk.
//!   Exhausted retries and barrier-watchdog timeouts (never retried)
//!   surface as typed [`PoolError`]s through [`Runner::try_step`].
//! * **Unobserved runs never read the clock**; while a
//!   [`RoundObserver`] is attached chunks run round-granular so every
//!   boundary is measured.

use crate::arena::Arena;
use crate::config::{
    ArmedInjection, Backend, ConfigError, EngineConfig, EngineError, RecoveryPolicy,
};
use crate::kernel::sweep;
use crate::pool::{PhaseTimes, PoolError, PoolHandle};
use crate::runner::{drive_until, RunReport, Runner, StopCondition};
use crate::shard::{partition_balanced, HaloPlan};
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{FaultPlan, Network, NodeContext, NodeProgram, RoundObserver, RoundStats};

/// Runs a [`NodeProgram`] in lock-step synchronous rounds, one shard per
/// pool worker.
#[derive(Debug)]
pub struct ParallelSyncRunner<'p, P: NodeProgram> {
    arena: Arena<'p, P>,
    /// What every part writes, re-pulls and reads through: the halo plan in
    /// halo mode, the direct plan otherwise.
    plan: HaloPlan,
    /// Halo mode only: the front shard-local arena, gathered from the
    /// registers before every chunk. In direct mode the register vector
    /// itself is the front buffer.
    halo_front: Option<Vec<P::State>>,
    /// The back buffer of the double-buffered rounds, shaped like the front
    /// buffer of the mode (sized by the first chunk, kept across calls).
    back: Vec<P::State>,
    pool: PoolHandle,
    threads: usize,
    rounds: usize,
    /// Supervised recovery for panicked chunks + the barrier watchdog.
    recovery: RecoveryPolicy,
    /// A one-shot chaos injection, armed until it fires.
    injection: Option<ArmedInjection>,
    /// Per-round measurement hook; while attached, multi-round chunks run
    /// round-granular so every boundary is observed.
    observer: Option<Box<dyn RoundObserver>>,
    /// Phase accumulators for observed rounds (compute / barrier / halo
    /// exchange); drained into each [`RoundStats`]. Only written while an
    /// observer is attached — unobserved runs never read the clock.
    phases: PhaseTimes,
}

impl<'p, P> ParallelSyncRunner<'p, P>
where
    P: NodeProgram + Sync,
    P::State: Send + Sync,
{
    /// Builds the runner an [`EngineConfig`] describes (a synchronous
    /// sharded envelope): threads, layout, halo mode, recovery and
    /// injection all come from the one validated config — the
    /// typed-constructor twin of [`EngineConfig::instantiate`] for callers
    /// that need the concrete runner (e.g. to inspect
    /// [`halo_plan`](Self::halo_plan) or the [`arena`](Self::arena)).
    pub fn from_config(
        program: &'p P,
        graph: WeightedGraph,
        config: &EngineConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if config.backend != Backend::Sharded || config.mode.is_async() {
            return Err(config.wrong_mode("sharded synchronous"));
        }
        let arena = Arena::new(program, graph, config.layout);
        let shards = partition_balanced(arena.topology(), config.threads);
        let plan = if config.halo {
            HaloPlan::build(arena.topology(), &shards)
        } else {
            HaloPlan::direct(&shards)
        };
        Ok(ParallelSyncRunner {
            arena,
            plan,
            halo_front: config.halo.then(Vec::new),
            back: Vec::new(),
            pool: PoolHandle::for_threads(config.threads),
            threads: config.threads,
            rounds: 0,
            recovery: config.recovery,
            injection: config.injection.map(ArmedInjection::new),
            observer: None,
            phases: PhaseTimes::new(),
        })
    }

    /// The arena the rounds run on: program, graph, layout, renumbered
    /// topology and the registers in internal order.
    pub fn arena(&self) -> &Arena<'p, P> {
        &self.arena
    }

    /// The halo plan when halo-exchange mode is enabled (per-shard halo
    /// sizes, exchange volume).
    pub fn halo_plan(&self) -> Option<&HaloPlan> {
        self.halo_front.is_some().then_some(&self.plan)
    }

    /// Executes `count` rounds: one chunked pool dispatch when unobserved
    /// (the parked workers run all `count` rounds back to back behind the
    /// round barrier), one timed single-round chunk per round while an
    /// observer is attached. Results are identical either way.
    fn try_rounds(&mut self, count: usize) -> Result<(), PoolError> {
        if self.observer.is_none() {
            return self.supervised_chunk(count, false);
        }
        for _ in 0..count {
            #[expect(
                clippy::disallowed_methods,
                reason = "observed-path round timing; only reached when an observer is attached"
            )]
            let start = std::time::Instant::now();
            self.supervised_chunk(1, true)?;
            self.observe_round(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// One chunk under the [`RecoveryPolicy`]: a replay restarts from the
    /// exact pre-chunk registers (both back buffers are overwritten before
    /// they are read, so the registers are all there is to restore).
    fn supervised_chunk(&mut self, count: usize, timed: bool) -> Result<(), PoolError> {
        let snapshot = (self.recovery.max_retries > 0).then(|| self.arena.states.clone());
        let policy = self.recovery;
        policy.supervise_unwinding(
            self,
            |this| this.run_chunk(count, timed),
            |this| {
                // discard the partial phase accumulation of the failed chunk
                let _ = this.phases.take();
                let states = snapshot.as_ref().expect("retries imply a snapshot");
                this.arena.states.clone_from(states);
            },
        )
    }

    /// The round loop: `count` rounds of "every part sweeps its shard" on
    /// the pool. `timed` routes the pool's per-phase clocks into
    /// [`Self::phases`] (observed rounds only).
    fn run_chunk(&mut self, count: usize, timed: bool) {
        let (program, topo) = (self.arena.program, &self.arena.topo);
        let (contexts, states) = (&self.arena.contexts[..], &mut self.arena.states);
        let plan = &self.plan;
        let front = match &mut self.halo_front {
            Some(front) => {
                plan.gather_into(states, front);
                front
            }
            None => states,
        };
        // `back` only needs the matching length: round 0 overwrites every
        // slot (regions in compute, halo slots in exchange) before any read
        if self.back.len() != front.len() {
            self.back.clone_from(front);
        }
        let (injection, base) = (self.injection.as_ref(), self.rounds);
        self.pool.pool().run_rounds(
            plan.regions(),
            plan.exchange(),
            count,
            front,
            &mut self.back,
            |part, round, prev, out| {
                if let Some(injection) = injection {
                    injection.maybe_fire(base + round, part);
                }
                let shard = plan.shards()[part];
                match plan.local_csr(part) {
                    Some(csr) => sweep(
                        program,
                        csr,
                        &contexts[shard.nodes()],
                        &prev[plan.region(part)],
                        0..shard.len(),
                        out,
                    ),
                    None => sweep(program, topo, contexts, prev, shard.nodes(), out),
                }
            },
            timed.then_some(&self.phases),
            self.recovery.watchdog_timeout,
        );
        if let Some(front) = &self.halo_front {
            plan.scatter_interiors(front, &mut self.arena.states);
        }
        self.rounds += count;
    }

    /// Reports the just-completed round to the attached observer, draining
    /// the [`PhaseTimes`] accumulators into the stats. `dispatch_ns` is
    /// the residual of the measured round total after the three named
    /// phases, so gather/scatter and pool wake-up land there and the four
    /// timing fields sum to the round total exactly.
    fn observe_round(&mut self, total_ns: u64) {
        let (compute_ns, barrier_ns, exchange_ns) = self.phases.take();
        let stats = RoundStats {
            round: self.rounds - 1,
            alarms: self.arena.alarm_count(),
            activations: self.arena.node_count(),
            halo_bytes: self
                .plan
                .exchanged_bytes_per_round(std::mem::size_of::<P::State>())
                as u64,
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

impl<'p, P> Runner<P> for ParallelSyncRunner<'p, P>
where
    P: NodeProgram + Sync,
    P::State: Send + Sync,
{
    fn try_step(&mut self) -> Result<(), EngineError> {
        Ok(self.try_rounds(1)?)
    }

    fn steps(&self) -> usize {
        self.rounds
    }

    fn activations(&self) -> usize {
        self.rounds * self.arena.node_count()
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
        // a fixed-step run needs no per-round condition checks: one chunked
        // pool dispatch for the whole budget instead of the shared
        // step-by-step loop — results are identical
        if matches!(until, StopCondition::Steps) {
            self.try_rounds(max_steps)?;
            return Ok(Some(max_steps));
        }
        drive_until(self, until, max_steps)
    }

    fn report(&self) -> RunReport {
        let mut engine = format!("parallel-sync(threads={}", self.threads);
        if !self.arena.layout().is_identity() {
            engine.push_str(",layout");
        }
        if self.halo_front.is_some() {
            engine.push_str(",halo");
        }
        engine.push(')');
        RunReport {
            node_count: self.arena.node_count(),
            steps: self.rounds,
            activations: Runner::activations(self),
            threads: self.threads,
            engine,
        }
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
    use smst_graph::generators::{expander_graph, path_graph, random_connected_graph};
    use smst_sim::{RecordingObserver, SyncRunner, Verdict};
    use std::time::Duration;

    /// Propagates the minimum identity (same toy program as the sim tests).
    struct MinId;

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

    static MIN_ID: MinId = MinId;

    fn runner(g: &WeightedGraph, config: &EngineConfig) -> ParallelSyncRunner<'static, MinId> {
        ParallelSyncRunner::from_config(&MIN_ID, g.clone(), config).expect("a valid test envelope")
    }

    fn with_layout(
        g: &WeightedGraph,
        threads: usize,
        policy: LayoutPolicy,
    ) -> ParallelSyncRunner<'static, MinId> {
        runner(g, &EngineConfig::new().threads(threads).layout(policy))
    }

    #[test]
    fn matches_sequential_runner_every_round() {
        let g = random_connected_graph(60, 150, 11);
        for threads in [1, 2, 4, 7] {
            for policy in [LayoutPolicy::Identity, LayoutPolicy::Rcm] {
                let mut par = with_layout(&g, threads, policy);
                let mut seq = SyncRunner::new(&MinId, Network::new(&MinId, g.clone()));
                for round in 0..12 {
                    assert_eq!(
                        par.states_snapshot(),
                        seq.network().states(),
                        "round {round}, {threads} threads, {policy:?}"
                    );
                    par.step();
                    seq.step_round();
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
        assert_eq!(halo4.report().engine, "parallel-sync(threads=4,halo)");
        // direct mode runs on the zero-halo plan and exposes none
        let direct = runner(&g, &EngineConfig::new().threads(4));
        assert!(direct.halo_plan().is_none());
        assert_eq!(direct.plan.total_halo(), 0);
        // single-threaded halo mode degenerates gracefully (no external
        // neighbours at all)
        let one = runner(&g, &EngineConfig::new().halo(true));
        assert_eq!(one.halo_plan().unwrap().total_halo(), 0);
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
}
