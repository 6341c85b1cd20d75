//! The synchronous executor: lock-step rounds of the paper's "ideal time".
//!
//! In a synchronous round every node simultaneously reads the registers of all
//! its neighbours (as they were at the end of the previous round) and rewrites
//! its own register. One round is one time unit.

use crate::network::Network;
use crate::observer::{RoundObserver, RoundStats};
use crate::program::NodeProgram;

/// Runs a [`Network`] in lock-step synchronous rounds and keeps a running
/// round counter.
#[derive(Debug)]
pub struct SyncRunner<'p, P: NodeProgram> {
    program: &'p P,
    network: Network<P>,
    /// Double buffer for the next round's registers, allocated once and
    /// swapped with the network's register vector every round (keeps the
    /// hot path free of per-round `Vec` allocations).
    scratch: Vec<P::State>,
    rounds: usize,
    /// Per-round measurement hook; stats are computed only while attached.
    observer: Option<Box<dyn RoundObserver>>,
}

impl<'p, P: NodeProgram> SyncRunner<'p, P> {
    /// Creates a runner over an existing network.
    pub fn new(program: &'p P, network: Network<P>) -> Self {
        let scratch = network.states().to_vec();
        SyncRunner {
            program,
            network,
            scratch,
            rounds: 0,
            observer: None,
        }
    }

    /// Attaches a [`RoundObserver`] invoked after every round (replacing
    /// any previous one). Observation costs one verdict sweep per round;
    /// results never change.
    pub fn set_observer(&mut self, observer: Box<dyn RoundObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the current observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn RoundObserver>> {
        self.observer.take()
    }

    /// The number of rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
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

    /// Executes exactly one synchronous round.
    pub fn step_round(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "observer-gated round timing; wall time never feeds round state"
        )]
        let start = self.observer.is_some().then(std::time::Instant::now);
        let n = self.network.node_count();
        self.network
            .next_states_into(self.program, &mut self.scratch);
        self.network.swap_states(&mut self.scratch);
        self.rounds += 1;
        if let Some(mut observer) = self.observer.take() {
            observer.on_round(&RoundStats {
                round: self.rounds - 1,
                alarms: self.network.alarm_count(self.program),
                activations: n,
                halo_bytes: 0,
                // the sequential runner's whole step is compute: no
                // dispatch, no barriers, no halo exchange
                dispatch_ns: 0,
                compute_ns: start.map_or(0, |t| t.elapsed().as_nanos() as u64),
                barrier_ns: 0,
                exchange_ns: 0,
            });
            self.observer = Some(observer);
        }
    }

    /// Executes `count` synchronous rounds.
    pub fn run_rounds(&mut self, count: usize) {
        for _ in 0..count {
            self.step_round();
        }
    }

    /// Runs until `stop` returns `true` (checked *after* each round) or until
    /// `max_rounds` additional rounds have elapsed.
    ///
    /// Returns the number of rounds executed by this call if the condition was
    /// met, and `None` on timeout.
    pub fn run_until<F>(&mut self, max_rounds: usize, mut stop: F) -> Option<usize>
    where
        F: FnMut(&Network<P>) -> bool,
    {
        if stop(&self.network) {
            return Some(0);
        }
        for executed in 1..=max_rounds {
            self.step_round();
            if stop(&self.network) {
                return Some(executed);
            }
        }
        None
    }

    /// Runs until some node raises an alarm, for at most `max_rounds` rounds.
    ///
    /// Returns the detection time (in rounds) if an alarm was raised.
    pub fn run_until_alarm(&mut self, max_rounds: usize) -> Option<usize> {
        let program = self.program;
        self.run_until(max_rounds, |net| net.any_alarm(program))
    }

    /// Runs until every node accepts, for at most `max_rounds` rounds.
    pub fn run_until_all_accept(&mut self, max_rounds: usize) -> Option<usize> {
        let program = self.program;
        self.run_until(max_rounds, |net| net.all_accept(program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{NodeContext, Verdict};
    use smst_graph::generators::path_graph;

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
        let mut runner = SyncRunner::new(&MinId, net);
        let t = runner.run_until_all_accept(100).unwrap();
        assert_eq!(t, diameter);
        assert_eq!(runner.rounds(), diameter);
    }

    #[test]
    fn run_until_timeout_returns_none() {
        let g = path_graph(6, 0);
        let net = Network::new(&MinId, g);
        let mut runner = SyncRunner::new(&MinId, net);
        assert_eq!(runner.run_until(2, |net| net.all_accept(&MinId)), None);
        assert_eq!(runner.rounds(), 2);
    }

    #[test]
    fn immediate_condition_costs_zero_rounds() {
        let g = path_graph(4, 0);
        let net = Network::new(&MinId, g);
        let mut runner = SyncRunner::new(&MinId, net);
        assert_eq!(runner.run_until(10, |_| true), Some(0));
        assert_eq!(runner.rounds(), 0);
    }

    #[test]
    fn run_rounds_counts() {
        let g = path_graph(4, 0);
        let net = Network::new(&MinId, g);
        let mut runner = SyncRunner::new(&MinId, net);
        runner.run_rounds(5);
        assert_eq!(runner.rounds(), 5);
        let net = runner.into_network();
        assert!(net.all_accept(&MinId));
    }
}
