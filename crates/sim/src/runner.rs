//! The sequential reference runner: one network, one observer, two
//! schedules.
//!
//! * **rounds** — the paper's synchronous "ideal time": every node reads
//!   the registers of all its neighbours as they were at the end of the
//!   previous round and rewrites its own. One round is one step.
//! * **daemon** — a central [`Daemon`] activates one node at a time; a
//!   step is one normalized time unit (every node activated at least once,
//!   see [`crate::asynch`]).
//!
//! The schedules differ only in who is activated when; counting,
//! observing and stopping are written once.

use crate::asynch::Daemon;
use crate::network::Network;
use crate::observer::{RoundObserver, RoundStats};
use crate::program::NodeProgram;
use smst_graph::Csr;

/// When a driven run ends (always bounded by the caller's step budget):
/// one stop-condition vocabulary for every execution path, this runner's
/// [`run_until`](ReferenceRunner::run_until) and the engine's runners
/// alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Run the full step budget.
    Steps,
    /// Stop at the first alarm ([`crate::Verdict::Reject`]).
    FirstAlarm,
    /// Stop once every node accepts.
    AllAccept,
}

/// Who is activated when: the one place the two schedules differ.
#[derive(Debug)]
enum Schedule<S> {
    /// Lock-step rounds. `scratch` is the double buffer the next round is
    /// computed into, allocated once and swapped with the network's
    /// registers every round.
    Rounds { scratch: Vec<S> },
    /// One normalized time unit of the daemon's activations per step.
    Daemon(Daemon),
}

/// Runs a [`Network`] sequentially under lock-step rounds or a central
/// [`Daemon`], counting steps and single-node activations.
#[derive(Debug)]
pub struct ReferenceRunner<'p, P: NodeProgram> {
    program: &'p P,
    network: Network<P>,
    /// The graph's [`smst_graph::WeightedGraph::neighbor_rows`]: whom an
    /// activation reads, built once per runner.
    rows: Csr<u32>,
    schedule: Schedule<P::State>,
    steps: usize,
    activations: usize,
    /// Per-step measurement hook; stats are computed only while attached.
    observer: Option<Box<dyn RoundObserver>>,
}

impl<'p, P: NodeProgram> ReferenceRunner<'p, P> {
    /// A runner executing lock-step synchronous rounds.
    pub fn rounds(program: &'p P, network: Network<P>) -> Self {
        let scratch = network.states().to_vec();
        Self::new(program, network, Schedule::Rounds { scratch })
    }

    /// A runner executing `daemon`'s time units.
    pub fn daemon(program: &'p P, network: Network<P>, daemon: Daemon) -> Self {
        Self::new(program, network, Schedule::Daemon(daemon))
    }

    fn new(program: &'p P, network: Network<P>, schedule: Schedule<P::State>) -> Self {
        ReferenceRunner {
            program,
            rows: network.graph().neighbor_rows(),
            network,
            schedule,
            steps: 0,
            activations: 0,
            observer: None,
        }
    }

    /// Attaches a [`RoundObserver`] invoked after every step (replacing
    /// any previous one). Observation costs one verdict sweep per step;
    /// results never change.
    pub fn set_observer(&mut self, observer: Box<dyn RoundObserver>) {
        self.observer = Some(observer);
    }

    /// Steps (rounds or time units) executed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Single-node activations executed so far (n per round).
    pub fn activations(&self) -> usize {
        self.activations
    }

    /// The network being executed.
    pub fn network(&self) -> &Network<P> {
        &self.network
    }

    /// Mutable access to the network (used for mid-execution fault injection).
    pub fn network_mut(&mut self) -> &mut Network<P> {
        &mut self.network
    }

    /// The program being executed.
    pub fn program(&self) -> &P {
        self.program
    }

    /// Consumes the runner, returning the network.
    pub fn into_network(self) -> Network<P> {
        self.network
    }

    /// Executes exactly one step: one round, or one time unit of the
    /// daemon.
    pub fn step(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "observer-gated step timing; wall time never feeds round state"
        )]
        let start = self.observer.is_some().then(std::time::Instant::now);
        let activations = match &mut self.schedule {
            Schedule::Rounds { scratch } => {
                self.network.round(self.program, &self.rows, scratch);
                self.network.node_count()
            }
            Schedule::Daemon(daemon) => {
                let order = daemon.schedule(self.network.node_count(), self.steps);
                for &v in &order {
                    self.network.activate(self.program, &self.rows, v);
                }
                order.len()
            }
        };
        self.steps += 1;
        self.activations += activations;
        if let Some(mut observer) = self.observer.take() {
            observer.on_round(&RoundStats {
                round: self.steps - 1,
                alarms: self.network.alarm_count(self.program),
                activations,
                halo_bytes: 0,
                // a sequential step is all compute: no dispatch, no
                // barriers, no halo exchange
                dispatch_ns: 0,
                compute_ns: start.map_or(0, |t| t.elapsed().as_nanos() as u64),
                barrier_ns: 0,
                exchange_ns: 0,
            });
            self.observer = Some(observer);
        }
    }

    /// Executes `count` steps.
    pub fn run(&mut self, count: usize) {
        for _ in 0..count {
            self.step();
        }
    }

    /// Runs until `until` holds (checked after every step, and once before
    /// the first) or until `max_steps` additional steps have elapsed.
    /// Returns the number of steps executed by this call if the condition
    /// was met (`Some(max_steps)` for [`StopCondition::Steps`]), `None` on
    /// timeout.
    pub fn run_until(&mut self, until: StopCondition, max_steps: usize) -> Option<usize> {
        let met = |runner: &Self| match until {
            StopCondition::Steps => false,
            StopCondition::FirstAlarm => runner.network.any_alarm(runner.program),
            StopCondition::AllAccept => runner.network.all_accept(runner.program),
        };
        if met(self) {
            return Some(0);
        }
        for executed in 1..=max_steps {
            self.step();
            if met(self) {
                return Some(executed);
            }
        }
        (until == StopCondition::Steps).then_some(max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::RecordingObserver;
    use crate::program::{NodeContext, Verdict};
    use smst_graph::generators::path_graph;
    use smst_graph::NodeId;

    /// Propagates the minimum identity; accepts once it holds the global
    /// minimum (which, with identities `0..n`, is 0).
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

    #[test]
    fn min_id_converges_in_diameter_rounds() {
        let g = path_graph(10, 0);
        let diameter = g.diameter().unwrap();
        let net = Network::new(&MinId, g);
        let mut runner = ReferenceRunner::rounds(&MinId, net);
        let t = runner.run_until(StopCondition::AllAccept, 100).unwrap();
        assert_eq!(t, diameter);
        assert_eq!(runner.steps(), diameter);
        assert_eq!(runner.activations(), diameter * 10);
    }

    #[test]
    fn run_until_timeout_returns_none() {
        let g = path_graph(6, 0);
        let net = Network::new(&MinId, g);
        let mut runner = ReferenceRunner::rounds(&MinId, net);
        assert_eq!(runner.run_until(StopCondition::AllAccept, 2), None);
        assert_eq!(runner.steps(), 2);
        assert_eq!(runner.run_until(StopCondition::FirstAlarm, 2), None);
        assert_eq!(runner.run_until(StopCondition::Steps, 3), Some(3));
        assert_eq!(runner.steps(), 7);
    }

    #[test]
    fn immediate_condition_costs_zero_rounds() {
        let g = path_graph(4, 0);
        let net = Network::new(&MinId, g);
        let mut runner = ReferenceRunner::rounds(&MinId, net);
        runner.run(3);
        assert_eq!(runner.run_until(StopCondition::AllAccept, 10), Some(0));
        assert_eq!(runner.steps(), 3);
    }

    #[test]
    fn run_rounds_counts() {
        let g = path_graph(4, 0);
        let net = Network::new(&MinId, g);
        let mut runner = ReferenceRunner::rounds(&MinId, net);
        runner.run(5);
        assert_eq!(runner.steps(), 5);
        let net = runner.into_network();
        assert!(net.all_accept(&MinId));
    }

    /// [`MinId`] whose nodes other than node 0 reject once they hold 0.
    struct AlarmOnZero;

    impl NodeProgram for AlarmOnZero {
        type State = u64;
        fn init(&self, ctx: &NodeContext) -> u64 {
            ctx.id
        }
        fn step(&self, ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
            MinId.step(ctx, own, neighbors)
        }
        fn verdict(&self, ctx: &NodeContext, state: &u64) -> Verdict {
            if *state == 0 && ctx.id != 0 {
                Verdict::Reject
            } else {
                Verdict::Working
            }
        }
    }

    /// The path 0 – 1 – … – 5 under each schedule, with the nodes that
    /// alarm after its first step: a round moves 0 one hop, index order
    /// carries it to the end, reverse index order one hop again.
    fn alarm_cases() -> [(ReferenceRunner<'static, AlarmOnZero>, Vec<usize>); 3] {
        let net = || Network::new(&AlarmOnZero, path_graph(6, 0));
        let reverse = Daemon::Adversarial {
            pivot: 0,
            pivot_repeats: 1,
        };
        [
            (ReferenceRunner::rounds(&AlarmOnZero, net()), vec![1]),
            (
                ReferenceRunner::daemon(&AlarmOnZero, net(), Daemon::RoundRobin),
                vec![1, 2, 3, 4, 5],
            ),
            (
                ReferenceRunner::daemon(&AlarmOnZero, net(), reverse),
                vec![1],
            ),
        ]
    }

    #[test]
    fn first_alarm_stops_at_the_step_that_raises_it() {
        for (mut runner, alarming) in alarm_cases() {
            assert_eq!(runner.run_until(StopCondition::FirstAlarm, 10), Some(1));
            assert_eq!(
                runner.network().alarming_nodes(&AlarmOnZero),
                alarming.into_iter().map(NodeId).collect::<Vec<_>>()
            );
            assert_eq!(runner.run_until(StopCondition::FirstAlarm, 10), Some(0));
        }
    }

    #[test]
    fn the_observer_sees_each_step_once_with_its_alarms() {
        for (mut runner, alarming) in alarm_cases() {
            let recording = RecordingObserver::new();
            runner.set_observer(Box::new(recording.clone()));
            runner.run(2);
            let trace = recording.deterministic_trace();
            assert_eq!(trace.len(), 2);
            assert_eq!((trace[0].0, trace[1].0), (0, 1), "step indices");
            assert_eq!(trace[0].1, alarming.len(), "alarms after the first step");
            assert_eq!(trace[0].2 + trace[1].2, runner.activations());
        }
    }
}
