//! The one runner API: an object-safe [`Runner`] trait implemented by
//! every execution path.
//!
//! The sequential [`ReferenceRunner`] of `smst-sim`, the
//! [`ShardedRunner`](crate::ShardedRunner) of this crate and the
//! `smst-net` coordinator all implement [`Runner`]: callers hold a
//! `Box<dyn Runner<P>>` built by
//! [`EngineConfig::instantiate`](crate::EngineConfig::instantiate) and
//! drive it through `step` / [`run_until`](Runner::run_until) /
//! [`state`](Runner::state) without knowing which path is underneath; the
//! envelope's [`describe`](crate::EngineConfig::describe) is the one label
//! of a run.
//!
//! # Invariants
//!
//! * An implementation provides one fallible step
//!   ([`try_step`](Runner::try_step)); the panicking surface and both
//!   `run_until` flavours are derived from it through the single
//!   [`drive_until`] loop.
//! * Two loops step a runner, no more: [`drive_until`] and the chaos
//!   plane's [`run_chaos`](crate::run_chaos) (the reference runner's own
//!   [`ReferenceRunner::run_until`] is pinned to `drive_until` by this
//!   module's tests). Everything else composes
//!   `try_run_until` calls — the fault experiment
//!   ([`run_fault_experiment`](crate::run_fault_experiment)) is a `Steps`
//!   warm-up, [`apply_faults`](Runner::apply_faults), one `try_step` (its
//!   latencies are ≥ 1, where `drive_until` answers `Some(0)` for a
//!   condition that already holds) and a `try_run_until(until, …)`.
//! * Every node-addressed method speaks **original node ids**.
//! * Attaching a [`RoundObserver`] ([`set_observer`](Runner::set_observer))
//!   never changes results — only the wall-clock `*_ns` fields of its
//!   stats vary between runs — and an unobserved runner never reads the
//!   clock.

use crate::config::EngineError;
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{FaultPlan, Network, NodeContext, NodeProgram, ReferenceRunner, RoundObserver};

/// The stop-condition vocabulary shared by [`Runner::run_until`],
/// [`run_fault_experiment`](crate::run_fault_experiment) and
/// [`ScenarioSpec`](crate::ScenarioSpec); defined next to the sequential
/// reference in `smst-sim`.
pub use smst_sim::StopCondition;

/// One execution path of the engine, driven step by step.
///
/// Object safe: [`EngineConfig::instantiate`](crate::EngineConfig::instantiate)
/// hands callers a `Box<dyn Runner<P>>` over any execution path. A *step*
/// is one synchronous round or one normalized asynchronous time unit,
/// whichever the path executes.
///
/// All node-addressed methods speak **original node ids** regardless of
/// the layout policy underneath.
pub trait Runner<P: NodeProgram> {
    /// Executes exactly one step.
    ///
    /// The panicking convenience surface: a runner whose pooled or remote
    /// execution fails (worker panic past its
    /// [`RecoveryPolicy`](crate::RecoveryPolicy), watchdog timeout) panics
    /// with the [`EngineError`] message. Callers that need graceful
    /// degradation use [`try_step`](Runner::try_step).
    fn step(&mut self) {
        self.try_step().unwrap_or_else(|err| panic!("{err}"));
    }

    /// Executes exactly one step, surfacing execution failures as a typed
    /// [`EngineError`] instead of unwinding.
    ///
    /// The sequential reference runner never fails; the sharded and remote
    /// runners step under supervised recovery — a worker panic is retried
    /// under the configured [`RecoveryPolicy`](crate::RecoveryPolicy) and
    /// only surfaces as `Err` once retries are exhausted (or immediately
    /// for a [`PoolError::BarrierTimeout`](crate::PoolError::BarrierTimeout)).
    /// After an `Err` the runner's registers are unspecified; the run is
    /// over.
    fn try_step(&mut self) -> Result<(), EngineError>;

    /// Steps executed so far.
    fn steps(&self) -> usize;

    /// Raw single-node activations executed so far.
    fn activations(&self) -> usize;

    /// The graph being executed.
    fn graph(&self) -> &WeightedGraph;

    /// The register of one node (original id).
    fn state(&self, v: NodeId) -> &P::State;

    /// Mutable access to one register (fault injection; original id).
    fn state_mut(&mut self, v: NodeId) -> &mut P::State;

    /// The registers in original node-id order (clones;
    /// layout-independent).
    fn states_snapshot(&self) -> Vec<P::State>;

    /// The static context of a node (original id).
    fn context(&self, v: NodeId) -> NodeContext;

    /// `true` if at least one node raises an alarm.
    fn any_alarm(&self) -> bool;

    /// `true` if every node accepts.
    fn all_accept(&self) -> bool;

    /// The nodes currently raising an alarm (original ids, ascending).
    fn alarming_nodes(&self) -> Vec<NodeId>;

    /// Applies a [`FaultPlan`] by passing every planned node's register to
    /// `mutate`.
    fn apply_faults(&mut self, plan: &FaultPlan, mutate: &mut dyn FnMut(NodeId, &mut P::State));

    /// Attaches a [`RoundObserver`] invoked after every step (replacing
    /// any previous one). Purely observational — results never change.
    fn set_observer(&mut self, observer: Box<dyn RoundObserver>);

    /// Consumes the runner, returning a sequential [`Network`] holding the
    /// final registers in original node-id order.
    fn into_network(self: Box<Self>) -> Network<P>;

    /// Runs until `until` holds (checked after every step, and once before
    /// the first) or until `max_steps` additional steps have elapsed.
    /// Returns the number of steps executed by this call if the condition
    /// was met (`Some(max_steps)` for [`StopCondition::Steps`]), `None` on
    /// timeout. Panics where [`try_run_until`](Runner::try_run_until)
    /// returns `Err`.
    fn run_until(&mut self, until: StopCondition, max_steps: usize) -> Option<usize> {
        self.try_run_until(until, max_steps)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`run_until`](Runner::run_until) over the fallible
    /// [`try_step`](Runner::try_step) surface: `Ok(Some(steps))` when the
    /// condition was met, `Ok(None)` on timeout, `Err` when execution
    /// failed mid-run.
    ///
    /// The default body is [`drive_until`], the single driving loop;
    /// implementations may override only to substitute a faster equivalent
    /// execution (chunked dispatch for [`StopCondition::Steps`]), never to
    /// change results.
    fn try_run_until(
        &mut self,
        until: StopCondition,
        max_steps: usize,
    ) -> Result<Option<usize>, EngineError> {
        drive_until(self, until, max_steps)
    }
}

/// The one driving loop behind [`Runner::run_until`] and
/// [`Runner::try_run_until`], callable from impls that override the trait
/// method for one condition and fall back to the common loop for the rest.
pub fn drive_until<P, R>(
    runner: &mut R,
    until: StopCondition,
    max_steps: usize,
) -> Result<Option<usize>, EngineError>
where
    P: NodeProgram,
    R: Runner<P> + ?Sized,
{
    let met = |runner: &R| match until {
        StopCondition::Steps => false,
        StopCondition::FirstAlarm => runner.any_alarm(),
        StopCondition::AllAccept => runner.all_accept(),
    };
    if met(runner) {
        return Ok(Some(0));
    }
    for executed in 1..=max_steps {
        runner.try_step()?;
        if met(runner) {
            return Ok(Some(executed));
        }
    }
    Ok(match until {
        StopCondition::Steps => Some(max_steps),
        _ => None,
    })
}

impl<'p, P> Runner<P> for ReferenceRunner<'p, P>
where
    P: NodeProgram + Sync,
    P::State: Send + Sync,
{
    fn try_step(&mut self) -> Result<(), EngineError> {
        ReferenceRunner::step(self);
        Ok(())
    }

    fn steps(&self) -> usize {
        ReferenceRunner::steps(self)
    }

    fn activations(&self) -> usize {
        ReferenceRunner::activations(self)
    }

    fn graph(&self) -> &WeightedGraph {
        self.network().graph()
    }

    fn state(&self, v: NodeId) -> &P::State {
        self.network().state(v)
    }

    fn state_mut(&mut self, v: NodeId) -> &mut P::State {
        self.network_mut().state_mut(v)
    }

    fn states_snapshot(&self) -> Vec<P::State> {
        self.network().states().to_vec()
    }

    fn context(&self, v: NodeId) -> NodeContext {
        *self.network().context(v)
    }

    fn any_alarm(&self) -> bool {
        self.network().any_alarm(self.program())
    }

    fn all_accept(&self) -> bool {
        self.network().all_accept(self.program())
    }

    fn alarming_nodes(&self) -> Vec<NodeId> {
        self.network().alarming_nodes(self.program())
    }

    fn apply_faults(&mut self, plan: &FaultPlan, mutate: &mut dyn FnMut(NodeId, &mut P::State)) {
        for &v in plan.nodes() {
            mutate(v, self.network_mut().state_mut(v));
        }
    }

    fn set_observer(&mut self, observer: Box<dyn RoundObserver>) {
        ReferenceRunner::set_observer(self, observer);
    }

    fn into_network(self: Box<Self>) -> Network<P> {
        ReferenceRunner::into_network(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::MinIdFlood;
    use smst_graph::generators::path_graph;
    use smst_sim::{Daemon, RecordingObserver};

    /// The two schedules of the sequential reference: rounds, and a
    /// random daemon whose units hold extra activations.
    const SCHEDULES: [Option<Daemon>; 2] = [
        None,
        Some(Daemon::Random {
            seed: 7,
            extra_factor: 1,
        }),
    ];

    fn reference<'p>(
        program: &'p MinIdFlood,
        g: &WeightedGraph,
        daemon: Option<Daemon>,
    ) -> ReferenceRunner<'p, MinIdFlood> {
        let network = Network::new(program, g.clone());
        match daemon {
            None => ReferenceRunner::rounds(program, network),
            Some(daemon) => ReferenceRunner::daemon(program, network, daemon),
        }
    }

    #[test]
    fn reference_runners_drive_through_the_trait() {
        let g = path_graph(6, 0);
        let program = MinIdFlood::new(0);
        let mut sync: Box<dyn Runner<MinIdFlood>> = Box::new(reference(&program, &g, None));
        let steps = sync
            .run_until(StopCondition::AllAccept, 100)
            .expect("the flood converges");
        assert_eq!(steps, g.diameter().unwrap());
        assert_eq!(sync.steps(), steps);
        assert_eq!(sync.activations(), steps * 6);
        assert!(sync.all_accept());
        assert!(!sync.any_alarm());
        assert!(sync.alarming_nodes().is_empty());
        assert_eq!(sync.context(NodeId(3)).degree, 2);
        let network = sync.into_network();
        assert!(network.states().iter().all(|&s| s == 0));

        let mut asynch: Box<dyn Runner<MinIdFlood>> =
            Box::new(reference(&program, &g, Some(Daemon::RoundRobin)));
        asynch.step();
        assert_eq!((asynch.steps(), asynch.activations()), (1, 6));
    }

    #[test]
    fn reference_runners_invoke_observers() {
        let g = path_graph(5, 0);
        let program = MinIdFlood::new(0);
        for daemon in SCHEDULES {
            let unit_activations = |u| daemon.as_ref().map_or(5, |d| d.schedule(5, u).len());
            let recording = RecordingObserver::new();
            let mut runner: Box<dyn Runner<MinIdFlood>> =
                Box::new(reference(&program, &g, daemon.clone()));
            runner.set_observer(Box::new(recording.clone()));
            runner.run_until(StopCondition::Steps, 3);
            assert_eq!(recording.rounds_observed(), 3);
            for (u, t) in recording.deterministic_trace().into_iter().enumerate() {
                assert_eq!(t.0, u, "step indices start at 0");
                assert_eq!(
                    t.2,
                    unit_activations(u),
                    "{daemon:?}: activations of step {u}"
                );
            }
            assert_eq!(runner.activations(), (0..3).map(unit_activations).sum());
        }
    }

    #[test]
    fn run_until_semantics() {
        let g = path_graph(4, 0);
        let program = MinIdFlood::new(0);
        for daemon in SCHEDULES {
            let mut direct = reference(&program, &g, daemon.clone());
            let mut boxed: Box<dyn Runner<MinIdFlood>> =
                Box::new(reference(&program, &g, daemon.clone()));
            // the oracle's own loop answers what the trait's drive_until does
            let mut run_until = |until, max_steps| {
                let answer = ReferenceRunner::run_until(&mut direct, until, max_steps);
                assert_eq!(
                    boxed.run_until(until, max_steps),
                    answer,
                    "{daemon:?}: {until:?} within {max_steps}"
                );
                answer
            };
            // Steps runs the full budget and reports it
            assert_eq!(run_until(StopCondition::Steps, 2), Some(2));
            // AllAccept met immediately costs zero steps
            run_until(StopCondition::AllAccept, 100).expect("the flood converges");
            assert_eq!(run_until(StopCondition::AllAccept, 5), Some(0));
            // FirstAlarm never fires on this program: timeout
            assert_eq!(run_until(StopCondition::FirstAlarm, 2), None);
            assert_eq!(boxed.steps(), direct.steps());
            assert_eq!(boxed.states_snapshot(), direct.network().states());
        }
    }

    #[test]
    fn try_surface_mirrors_the_panicking_surface_on_reference_runners() {
        let g = path_graph(5, 0);
        let program = MinIdFlood::new(0);
        let mut runner: Box<dyn Runner<MinIdFlood>> = Box::new(reference(&program, &g, None));
        runner.try_step().expect("reference runners never fail");
        assert_eq!(runner.steps(), 1);
        assert_eq!(
            runner.try_run_until(StopCondition::AllAccept, 100),
            Ok(Some(3))
        );
        assert_eq!(runner.try_run_until(StopCondition::FirstAlarm, 2), Ok(None));
    }
}
