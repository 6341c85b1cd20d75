//! The asynchronous executor: single-node activations chosen by a daemon.
//!
//! The paper's asynchronous model assumes a distributed daemon with strong
//! fairness and fine-grained atomicity (§2.1). We simulate it with a central
//! daemon that activates one node at a time; *time* is measured in the
//! standard normalized way: a time unit elapses once every node has been
//! activated at least once since the end of the previous time unit. The
//! daemon is free to interleave extra activations of arbitrary nodes inside a
//! time unit, which is how asynchrony (some nodes running much faster than
//! others) is modelled.

use crate::network::Network;
use crate::observer::{RoundObserver, RoundStats};
use crate::program::NodeProgram;
use smst_graph::NodeId;
use smst_rng::{Rng, SeedableRng, SliceRandom, StdRng};

/// One simultaneous batch of activations (original node ids). Every
/// activation of a batch reads the registers as they were at the start of
/// the batch, so the batch is order-independent by construction.
pub type ActivationBatch = Vec<NodeId>;

/// The **distributed daemon** generalization of [`Daemon`]: one time unit
/// is a sequence of *batches* of simultaneous activations instead of a
/// sequence of single activations.
///
/// The central daemon (one node at a time) is the batch-width-1 special
/// case; genuinely distributed daemons can activate arbitrary node *sets*
/// simultaneously, which the central enum cannot express — the
/// distributed-daemon literature (and the KMW-style lower-bound
/// constructions) draw their worst cases from exactly this extra freedom.
///
/// # Contract
///
/// * **Fairness** — the union of one unit's batches covers every node at
///   least once (the standard round-normalization of a strongly fair
///   daemon); executors count normalized time units under this assumption.
/// * **Determinism** — `unit_batches` is a pure function of
///   `(self, n, unit_index)`: any randomness must come from seeds stored in
///   the daemon, never from wall-clock or thread identity.
///
/// Both properties are pinned for every in-workspace implementation by the
/// `smst-adversary` property tests.
pub trait BatchDaemon: std::fmt::Debug + Send + Sync {
    /// The batched activation sequence of one time unit for `n` nodes.
    fn unit_batches(&self, n: usize, unit_index: usize) -> Vec<ActivationBatch>;

    /// Visits one unit's batches in order **without materializing owned
    /// vectors** — the executor hot path. Must be equivalent to iterating
    /// [`unit_batches`](Self::unit_batches) (pinned by the `smst-adversary`
    /// property tests); implementations holding flat or precomputed
    /// schedules override it to lend slices instead of cloning per unit.
    fn for_each_batch(&self, n: usize, unit_index: usize, visit: &mut dyn FnMut(&[NodeId])) {
        for batch in self.unit_batches(n, unit_index) {
            visit(&batch);
        }
    }

    /// Clones the daemon behind the object-safe interface (lets
    /// scenario specs holding `Box<dyn BatchDaemon>` stay `Clone`).
    fn clone_box(&self) -> Box<dyn BatchDaemon>;

    /// A short, stable descriptor for artifacts and labels.
    fn describe(&self) -> String {
        format!("{self:?}")
    }
}

impl Clone for Box<dyn BatchDaemon> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The central daemon *is* a batch daemon: every activation is its own
/// singleton batch.
impl BatchDaemon for Daemon {
    fn unit_batches(&self, n: usize, unit_index: usize) -> Vec<ActivationBatch> {
        self.schedule(n, unit_index)
            .into_iter()
            .map(|v| vec![v])
            .collect()
    }

    fn for_each_batch(&self, n: usize, unit_index: usize, visit: &mut dyn FnMut(&[NodeId])) {
        for v in self.schedule(n, unit_index) {
            visit(std::slice::from_ref(&v));
        }
    }

    fn clone_box(&self) -> Box<dyn BatchDaemon> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        match self {
            Daemon::RoundRobin => "round-robin".to_string(),
            Daemon::Random { seed, extra_factor } => {
                format!("random(seed={seed},extra={extra_factor})")
            }
            Daemon::Adversarial {
                pivot,
                pivot_repeats,
            } => format!("pivot(pivot={pivot},repeats={pivot_repeats})"),
        }
    }
}

/// A central [`Daemon`] schedule executed in uniform chunks of `batch`
/// simultaneous activations — exactly the semantics the sharded engine ran
/// before the [`BatchDaemon`] generalization. `batch == 1` replays the
/// central daemon activation-for-activation.
#[derive(Debug, Clone)]
pub struct ChunkedDaemon {
    /// The central daemon providing the activation sequence.
    pub daemon: Daemon,
    /// Simultaneous activations per batch (clamped to at least 1).
    pub batch: usize,
}

impl ChunkedDaemon {
    /// Chunks `daemon`'s schedule into batches of `batch` activations.
    pub fn new(daemon: Daemon, batch: usize) -> Self {
        ChunkedDaemon {
            daemon,
            batch: batch.max(1),
        }
    }
}

impl BatchDaemon for ChunkedDaemon {
    fn unit_batches(&self, n: usize, unit_index: usize) -> Vec<ActivationBatch> {
        self.daemon
            .schedule(n, unit_index)
            .chunks(self.batch.max(1))
            .map(<[NodeId]>::to_vec)
            .collect()
    }

    fn for_each_batch(&self, n: usize, unit_index: usize, visit: &mut dyn FnMut(&[NodeId])) {
        // one flat schedule Vec per unit, chunked by slice — no per-batch
        // allocation (this was the engine's pre-trait execution shape)
        for chunk in self
            .daemon
            .schedule(n, unit_index)
            .chunks(self.batch.max(1))
        {
            visit(chunk);
        }
    }

    fn clone_box(&self) -> Box<dyn BatchDaemon> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        format!("{}@batch={}", self.daemon.describe(), self.batch)
    }
}

/// The activation policy of the asynchronous scheduler.
#[derive(Debug, Clone)]
pub enum Daemon {
    /// Every time unit activates the nodes once each, in index order.
    /// This is the most benign asynchronous schedule (equivalent to a
    /// synchronous round executed sequentially).
    RoundRobin,
    /// Every time unit activates the nodes once each in a fresh random order,
    /// plus a random number of extra activations of random nodes
    /// (up to `extra_factor` × n), modelling nodes that run at very different
    /// speeds.
    Random {
        /// PRNG seed (executions are reproducible per seed).
        seed: u64,
        /// Maximum number of extra activations per time unit, as a multiple
        /// of the node count.
        extra_factor: usize,
    },
    /// Every time unit activates the nodes once each in *reverse* index
    /// order and repeats a fixed pivot node several times first — a simple
    /// adversarial schedule that maximally delays information flowing from
    /// low-index to high-index nodes.
    Adversarial {
        /// The node the daemon favours with extra activations.
        pivot: usize,
        /// How many extra activations the pivot receives per time unit.
        pivot_repeats: usize,
    },
}

impl Daemon {
    /// The activation sequence of one time unit for a network of `n` nodes.
    ///
    /// Public because the sharded execution engine replays exactly this
    /// sequence (in batches): a single source of truth keeps its
    /// "batch width 1 equals the central daemon" contract immune to future
    /// schedule changes. The sequence is a pure function of
    /// `(self, n, unit_index)`.
    pub fn schedule(&self, n: usize, unit_index: usize) -> Vec<NodeId> {
        match self {
            Daemon::RoundRobin => (0..n).map(NodeId).collect(),
            Daemon::Random { seed, extra_factor } => {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(unit_index as u64));
                let mut order: Vec<NodeId> = (0..n).map(NodeId).collect();
                order.shuffle(&mut rng);
                let extras = if *extra_factor == 0 || n == 0 {
                    0
                } else {
                    rng.gen_range(0..=extra_factor * n)
                };
                for _ in 0..extras {
                    let v = NodeId(rng.gen_range(0..n));
                    let pos = rng.gen_range(0..=order.len());
                    order.insert(pos, v);
                }
                order
            }
            Daemon::Adversarial {
                pivot,
                pivot_repeats,
            } => {
                let mut order = Vec::with_capacity(n + pivot_repeats);
                if n > 0 {
                    for _ in 0..*pivot_repeats {
                        order.push(NodeId(pivot % n));
                    }
                }
                order.extend((0..n).rev().map(NodeId));
                order
            }
        }
    }
}

/// Runs a [`Network`] under an asynchronous daemon, counting normalized time
/// units and raw activations.
#[derive(Debug)]
pub struct AsyncRunner<'p, P: NodeProgram> {
    program: &'p P,
    network: Network<P>,
    daemon: Daemon,
    time_units: usize,
    activations: usize,
    /// Per-time-unit measurement hook; stats are computed only while
    /// attached.
    observer: Option<Box<dyn RoundObserver>>,
}

impl<'p, P: NodeProgram> AsyncRunner<'p, P> {
    /// Creates a runner over an existing network with the given daemon.
    pub fn new(program: &'p P, network: Network<P>, daemon: Daemon) -> Self {
        AsyncRunner {
            program,
            network,
            daemon,
            time_units: 0,
            activations: 0,
            observer: None,
        }
    }

    /// Attaches a [`RoundObserver`] invoked after every time unit
    /// (replacing any previous one). Observation costs one verdict sweep
    /// per unit; results never change.
    pub fn set_observer(&mut self, observer: Box<dyn RoundObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the current observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn RoundObserver>> {
        self.observer.take()
    }

    /// Normalized asynchronous time units elapsed so far.
    pub fn time_units(&self) -> usize {
        self.time_units
    }

    /// Raw single-node activations executed so far.
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

    /// Executes one normalized time unit (every node activated at least once).
    pub fn step_time_unit(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "observer-gated unit timing; wall time never feeds round state"
        )]
        let start = self.observer.is_some().then(std::time::Instant::now);
        let schedule = self
            .daemon
            .schedule(self.network.node_count(), self.time_units);
        let unit_activations = schedule.len();
        for v in schedule {
            self.network.activate(self.program, v);
            self.activations += 1;
        }
        self.time_units += 1;
        if let Some(mut observer) = self.observer.take() {
            observer.on_round(&RoundStats {
                round: self.time_units - 1,
                alarms: self.network.alarm_count(self.program),
                activations: unit_activations,
                halo_bytes: 0,
                // sequential activations: the whole unit is compute
                dispatch_ns: 0,
                compute_ns: start.map_or(0, |t| t.elapsed().as_nanos() as u64),
                barrier_ns: 0,
                exchange_ns: 0,
            });
            self.observer = Some(observer);
        }
    }

    /// Executes `count` time units.
    pub fn run_time_units(&mut self, count: usize) {
        for _ in 0..count {
            self.step_time_unit();
        }
    }

    /// Runs until `stop` holds (checked after every time unit) or until
    /// `max_units` additional units have elapsed; returns the number of units
    /// executed by this call if the condition was met.
    pub fn run_until<F>(&mut self, max_units: usize, mut stop: F) -> Option<usize>
    where
        F: FnMut(&Network<P>) -> bool,
    {
        if stop(&self.network) {
            return Some(0);
        }
        for executed in 1..=max_units {
            self.step_time_unit();
            if stop(&self.network) {
                return Some(executed);
            }
        }
        None
    }

    /// Runs until some node raises an alarm; returns the detection time in
    /// asynchronous time units.
    pub fn run_until_alarm(&mut self, max_units: usize) -> Option<usize> {
        let program = self.program;
        self.run_until(max_units, |net| net.any_alarm(program))
    }

    /// Runs until every node accepts.
    pub fn run_until_all_accept(&mut self, max_units: usize) -> Option<usize> {
        let program = self.program;
        self.run_until(max_units, |net| net.all_accept(program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{NodeContext, Verdict};
    use smst_graph::generators::path_graph;

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
    fn round_robin_converges_within_diameter_units() {
        let g = path_graph(8, 0);
        let d = g.diameter().unwrap();
        let net = Network::new(&MinId, g);
        let mut runner = AsyncRunner::new(&MinId, net, Daemon::RoundRobin);
        let t = runner.run_until_all_accept(100).unwrap();
        // index-order round robin on a path rooted at node 0 converges in 1 unit
        assert!(t <= d);
        assert!(runner.activations() >= runner.network().node_count());
    }

    #[test]
    fn random_daemon_is_fair_and_converges() {
        let g = path_graph(12, 0);
        let net = Network::new(&MinId, g);
        let mut runner = AsyncRunner::new(
            &MinId,
            net,
            Daemon::Random {
                seed: 3,
                extra_factor: 2,
            },
        );
        let t = runner.run_until_all_accept(50).unwrap();
        assert!(t <= 12, "random daemon should converge within n units");
    }

    #[test]
    fn adversarial_daemon_still_fair() {
        let g = path_graph(6, 0);
        let net = Network::new(&MinId, g);
        let mut runner = AsyncRunner::new(
            &MinId,
            net,
            Daemon::Adversarial {
                pivot: 5,
                pivot_repeats: 4,
            },
        );
        let t = runner.run_until_all_accept(50).unwrap();
        assert!(t <= 6);
    }

    #[test]
    fn daemon_schedules_cover_all_nodes() {
        for daemon in [
            Daemon::RoundRobin,
            Daemon::Random {
                seed: 9,
                extra_factor: 1,
            },
            Daemon::Adversarial {
                pivot: 2,
                pivot_repeats: 3,
            },
        ] {
            let sched = daemon.schedule(7, 0);
            for v in 0..7 {
                assert!(
                    sched.contains(&NodeId(v)),
                    "{daemon:?} misses node {v} in its time unit"
                );
            }
        }
    }

    #[test]
    fn central_daemon_as_batch_daemon_is_singleton_batches() {
        for daemon in [
            Daemon::RoundRobin,
            Daemon::Random {
                seed: 11,
                extra_factor: 1,
            },
            Daemon::Adversarial {
                pivot: 1,
                pivot_repeats: 2,
            },
        ] {
            for unit in 0..3 {
                let flat: Vec<NodeId> = daemon
                    .unit_batches(9, unit)
                    .into_iter()
                    .flat_map(|b| {
                        assert_eq!(b.len(), 1, "central daemon batches are singletons");
                        b
                    })
                    .collect();
                assert_eq!(flat, daemon.schedule(9, unit), "{daemon:?}");
            }
        }
    }

    #[test]
    fn chunked_daemon_flattens_to_the_central_schedule() {
        let daemon = Daemon::Random {
            seed: 4,
            extra_factor: 2,
        };
        for batch in [1usize, 3, 7, 100] {
            let chunked = ChunkedDaemon::new(daemon.clone(), batch);
            for unit in 0..3 {
                let batches = chunked.unit_batches(10, unit);
                assert!(batches.iter().all(|b| b.len() <= batch));
                let flat: Vec<NodeId> = batches.into_iter().flatten().collect();
                assert_eq!(flat, daemon.schedule(10, unit), "batch {batch}");
            }
        }
    }

    #[test]
    fn boxed_batch_daemons_clone_and_describe() {
        let boxed: Box<dyn BatchDaemon> = Box::new(ChunkedDaemon::new(Daemon::RoundRobin, 4));
        let cloned = boxed.clone();
        assert_eq!(boxed.unit_batches(6, 0), cloned.unit_batches(6, 0));
        assert_eq!(cloned.describe(), "round-robin@batch=4");
        assert_eq!(Daemon::RoundRobin.describe(), "round-robin");
    }

    #[test]
    fn timeout_returns_none() {
        let g = path_graph(20, 0);
        let net = Network::new(&MinId, g);
        let mut runner = AsyncRunner::new(
            &MinId,
            net,
            Daemon::Adversarial {
                pivot: 0,
                pivot_repeats: 1,
            },
        );
        // reverse order maximally delays the spread from node 0: needs ~n units
        assert_eq!(runner.run_until_all_accept(1), None);
        assert_eq!(runner.time_units(), 1);
    }
}
