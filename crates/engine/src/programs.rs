//! Lightweight demo workloads for the engine.
//!
//! The paper's full verifier (`smst_core::CoreVerifier`) carries a
//! realistic register (labels, trains, comparison machinery) and is the
//! right workload for *verification* runs, but its polylogarithmic warm-up
//! budget makes it impractical as a million-node smoke-test. The programs
//! here are compact, self-stabilizing state machines with the same trait
//! surface, used by `examples/million_nodes.rs` and the repository
//! benchmark's flood workload.

use smst_sim::{NodeContext, NodeProgram, Verdict};

/// Self-stabilizing minimum-identity flood.
///
/// Every register holds the smallest identity the node has heard of; a node
/// accepts once it holds the known leader identity (the global minimum —
/// with the workspace generators, identity `0`). Transient corruption of
/// any subset of registers heals in at most `diameter` rounds, making this
/// the canonical "inject, watch the wave, verify recovery" workload.
#[derive(Debug, Clone, Copy)]
pub struct MinIdFlood {
    leader: u64,
}

impl MinIdFlood {
    /// A flood whose accept condition is holding `leader` (the global
    /// minimum identity of the graph).
    pub const fn new(leader: u64) -> Self {
        MinIdFlood { leader }
    }

    /// The identity every register converges to.
    pub fn leader(&self) -> u64 {
        self.leader
    }
}

impl NodeProgram for MinIdFlood {
    type State = u64;
    type Update = u64;

    fn init(&self, ctx: &NodeContext) -> u64 {
        ctx.id
    }

    fn step(&self, ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
        // self-stabilizing guard: never adopt a value below the leader
        // (corrupted registers may carry arbitrary garbage, including values
        // smaller than any real identity)
        let candidate = neighbors.iter().fold((*own).max(self.leader), |acc, &&x| {
            acc.min(x.max(self.leader))
        });
        let _ = ctx;
        candidate
    }

    fn apply(state: &mut u64, update: u64) {
        *state = update;
    }

    fn verdict(&self, _ctx: &NodeContext, state: &u64) -> Verdict {
        if *state == self.leader {
            Verdict::Accept
        } else {
            Verdict::Working
        }
    }

    fn state_bits(&self, _ctx: &NodeContext, _state: &u64) -> u64 {
        64
    }

    fn name(&self) -> &str {
        "min-id-flood"
    }
}

/// Maximum-identity flood with a single **monitor** node that raises the
/// alarm.
///
/// Every register holds the largest identity the node has heard of; the
/// network converges to `ceiling` (the true global maximum). A corrupted
/// register carrying a bogus identity above `ceiling` spreads through the
/// flood, but only the node whose identity is `monitor` ever *rejects* —
/// when the bogus value reaches it. Detection time is therefore exactly the
/// daemon-dependent propagation time from the fault to the monitor, which
/// makes this the canonical cheap workload for adversarial-schedule
/// campaigns (`smst-adversary`): a schedule that stalls information flow
/// towards the monitor provably delays detection.
#[derive(Debug, Clone, Copy)]
pub struct MonitorFlood {
    monitor: u64,
    ceiling: u64,
}

impl MonitorFlood {
    /// A flood whose alarm is raised by the node with identity `monitor`
    /// once it hears an identity above `ceiling` (the graph's true maximum
    /// identity — with the workspace generators, `n − 1`).
    pub fn new(monitor: u64, ceiling: u64) -> Self {
        MonitorFlood { monitor, ceiling }
    }

    /// The monitor's identity.
    pub fn monitor(&self) -> u64 {
        self.monitor
    }

    /// The largest legitimate identity.
    pub fn ceiling(&self) -> u64 {
        self.ceiling
    }

    /// A register value no legitimate identity can reach — the canonical
    /// corruption for this workload.
    pub const BOGUS: u64 = 1 << 40;
}

impl NodeProgram for MonitorFlood {
    type State = u64;
    type Update = u64;

    fn init(&self, ctx: &NodeContext) -> u64 {
        ctx.id
    }

    fn step(&self, _ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
        neighbors.iter().fold(*own, |acc, &&x| acc.max(x))
    }

    fn apply(state: &mut u64, update: u64) {
        *state = update;
    }

    fn verdict(&self, ctx: &NodeContext, state: &u64) -> Verdict {
        if ctx.id == self.monitor && *state > self.ceiling {
            Verdict::Reject
        } else if *state == self.ceiling {
            Verdict::Accept
        } else {
            Verdict::Working
        }
    }

    fn state_bits(&self, _ctx: &NodeContext, _state: &u64) -> u64 {
        64
    }

    fn name(&self) -> &str {
        "monitor-flood"
    }
}

/// Maximum-identity flood with **decaying** garbage and a monitor — the
/// canonical **chaos** workload.
///
/// [`MinIdFlood`] heals but never alarms (the min guard silently washes
/// garbage out in one step); [`MonitorFlood`] alarms but never heals (a
/// bogus maximum spreads forever). A verify-forever campaign needs both:
/// every wave must be *detected* (an alarm) and then *digested* (all nodes
/// accepting again). Here a register above `ceiling` (the largest
/// legitimate identity) still spreads through the max flood — so the
/// `monitor` node's detection latency is the true propagation distance
/// from the fault — but every out-of-range value **halves each step**, so
/// the global maximum decays monotonically, drops below `ceiling` within
/// `log2(BOGUS / ceiling)` steps, and the flood then re-converges to
/// `ceiling`. Detection latency and rounds-to-quiescence are both
/// well-defined (and wave-dependent) for every wave the schedule leaves
/// room for.
#[derive(Debug, Clone, Copy)]
pub struct AlarmedFlood {
    monitor: u64,
    ceiling: u64,
}

impl AlarmedFlood {
    /// A flood converging to `ceiling` (the graph's true maximum identity
    /// — with the workspace generators, `n − 1`), with the node whose
    /// identity is `monitor` raising the alarm while it holds a value
    /// above `ceiling`.
    pub fn new(monitor: u64, ceiling: u64) -> Self {
        AlarmedFlood { monitor, ceiling }
    }

    /// The monitor's identity.
    pub fn monitor(&self) -> u64 {
        self.monitor
    }

    /// The largest legitimate identity.
    pub fn ceiling(&self) -> u64 {
        self.ceiling
    }

    /// A register value no legitimate identity can reach (ids up to a
    /// million stay well below it), small enough that its decay — one
    /// halving per step — completes within a few dozen steps.
    pub const BOGUS: u64 = 1 << 20;
}

impl NodeProgram for AlarmedFlood {
    type State = u64;
    type Update = u64;

    fn init(&self, ctx: &NodeContext) -> u64 {
        ctx.id
    }

    fn step(&self, ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
        // the node's own identity is re-injected every step, so the true
        // maximum survives even when a garbage flood overwrites every
        // register
        let raw = neighbors
            .iter()
            .fold((*own).max(ctx.id), |acc, &&x| acc.max(x));
        // out-of-range values keep flooding but decay geometrically: the
        // global maximum halves every step, so corruption provably dies out
        if raw > self.ceiling {
            raw >> 1
        } else {
            raw
        }
    }

    fn apply(state: &mut u64, update: u64) {
        *state = update;
    }

    fn verdict(&self, ctx: &NodeContext, state: &u64) -> Verdict {
        if ctx.id == self.monitor && *state > self.ceiling {
            Verdict::Reject
        } else if *state == self.ceiling {
            Verdict::Accept
        } else {
            Verdict::Working
        }
    }

    fn state_bits(&self, _ctx: &NodeContext, _state: &u64) -> u64 {
        64
    }

    fn name(&self) -> &str {
        "alarmed-flood"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, Runner, StopCondition};
    use smst_graph::generators::random_connected_graph;
    use smst_graph::WeightedGraph;
    use smst_sim::NodeProgram;

    /// The two-thread sharded runner every program test drives.
    fn runner<P>(program: &P, g: WeightedGraph) -> Box<dyn Runner<P> + '_>
    where
        P: NodeProgram<State = u64> + Sync + 'static,
    {
        EngineConfig::new()
            .threads(2)
            .instantiate(program, g)
            .expect("a valid envelope")
    }

    #[test]
    fn flood_heals_even_from_below_leader_garbage() {
        // scrambled identities are 7i + 3, so the leader is 3 and garbage
        // below it (0) is representable
        let g = smst_graph::generators::random_graph_scrambled_ids(30, 70, 2);
        let program = MinIdFlood::new(3);
        let mut runner = runner(&program, g);
        runner.run_until(StopCondition::AllAccept, 50).unwrap();
        // corrupt with a value *smaller* than every identity: a naive min
        // flood would adopt it forever; the guard heals it
        *runner.state_mut(smst_graph::NodeId(7)) = 0;
        runner.run_until(StopCondition::Steps, 40);
        assert!(runner.all_accept());
        assert!(runner.states_snapshot().iter().all(|&s| s == 3));
    }

    #[test]
    fn flood_converges_on_plain_identities() {
        let g = random_connected_graph(30, 70, 2);
        let program = MinIdFlood::new(0);
        let mut runner = runner(&program, g);
        runner.run_until(StopCondition::AllAccept, 50).unwrap();
        assert!(runner.states_snapshot().iter().all(|&s| s == 0));
    }

    #[test]
    fn alarmed_flood_detects_and_then_heals() {
        let n = 24usize;
        let g = random_connected_graph(n, 60, 9);
        let program = AlarmedFlood::new(0, n as u64 - 1);
        let mut runner = runner(&program, g);
        runner.run_until(StopCondition::AllAccept, 50).unwrap();
        *runner.state_mut(smst_graph::NodeId(5)) = AlarmedFlood::BOGUS;
        // the garbage floods to the monitor (node 0), which alarms...
        let t = runner
            .run_until(StopCondition::FirstAlarm, 50)
            .expect("the monitor must detect");
        assert!(t >= 1, "detection takes at least one propagation step");
        // ...and the geometric decay then clears it and the flood
        // re-converges to the true maximum
        runner.run_until(StopCondition::Steps, 40);
        assert!(!runner.any_alarm());
        assert!(runner.all_accept());
        assert!(runner.states_snapshot().iter().all(|&s| s == n as u64 - 1));
    }

    #[test]
    fn monitor_flood_detects_at_the_monitor_only() {
        let n = 16usize;
        let g = smst_graph::generators::path_graph(n, 1);
        let program = MonitorFlood::new(n as u64 - 1, n as u64 - 1);
        let mut runner = runner(&program, g);
        runner.run_until(StopCondition::AllAccept, 50).unwrap();
        // corrupt the far end: the bogus value must travel the whole path
        // before the monitor (node n − 1) rejects
        *runner.state_mut(smst_graph::NodeId(0)) = MonitorFlood::BOGUS;
        let t = runner
            .run_until(StopCondition::FirstAlarm, 50)
            .expect("monitor must detect");
        assert_eq!(t, n - 1, "synchronous detection = hop distance");
        assert_eq!(
            runner.alarming_nodes(),
            vec![smst_graph::NodeId(n - 1)],
            "only the monitor rejects"
        );
    }
}
