//! The asynchronous schedules: single-node activations chosen by a daemon.
//!
//! The paper's asynchronous model assumes a distributed daemon with strong
//! fairness and fine-grained atomicity (§2.1). We simulate it with a central
//! daemon that activates one node at a time; *time* is measured in the
//! standard normalized way: a time unit elapses once every node has been
//! activated at least once since the end of the previous time unit. The
//! daemon is free to interleave extra activations of arbitrary nodes inside a
//! time unit, which is how asynchrony (some nodes running much faster than
//! others) is modelled.

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
                insert_extras(order, extras, &mut rng)
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

/// `order` (a permutation of the `n` nodes) with `extras` extra activations,
/// each drawn as a random node and then a random position in the sequence
/// so far. The sequence is held as runs of about `√N` nodes (`N` its final
/// length), split when one doubles, so an insertion walks the runs and
/// shifts one of them: `O(N √N)` for the unit instead of the `O(N²)` of
/// inserting into one `Vec`, with the same draws in the same order.
fn insert_extras(order: Vec<NodeId>, extras: usize, rng: &mut StdRng) -> Vec<NodeId> {
    if extras == 0 {
        return order;
    }
    let n = order.len();
    let narrow = |v: usize| u32::try_from(v).expect("a schedule of fewer than 2³² nodes");
    let width = (n + extras).isqrt().max(1);
    let mut runs: Vec<Vec<u32>> = (order.chunks(width))
        .map(|run| run.iter().map(|v| narrow(v.0)).collect())
        .collect();
    for len in n..n + extras {
        let v = narrow(rng.gen_range(0..n));
        let mut pos = rng.gen_range(0..=len);
        let mut r = 0;
        while pos > runs[r].len() {
            pos -= runs[r].len();
            r += 1;
        }
        runs[r].insert(pos, v);
        if runs[r].len() >= 2 * width {
            let tail = runs[r].split_off(width);
            runs.insert(r + 1, tail);
        }
    }
    runs.into_iter()
        .flatten()
        .map(|v| NodeId(v as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::program::{NodeContext, NodeProgram, Verdict};
    use crate::runner::{ReferenceRunner, StopCondition};
    use smst_graph::generators::path_graph;

    /// `Daemon::Random`'s schedule with every extra activation inserted
    /// into one `Vec`: the reference for the runs.
    fn random_schedule_by_insertion(
        seed: u64,
        extra_factor: usize,
        n: usize,
        unit_index: usize,
    ) -> Vec<NodeId> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(unit_index as u64));
        let mut order: Vec<NodeId> = (0..n).map(NodeId).collect();
        order.shuffle(&mut rng);
        let extras = if extra_factor == 0 || n == 0 {
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

    #[test]
    fn random_schedule_equals_inserting_into_one_vec() {
        for n in [0usize, 1, 2, 3, 5, 17, 100, 1_000, 2_000] {
            for extra_factor in 0..=3 {
                for unit in 0..20 {
                    let seed = 0x5eed ^ n as u64;
                    let daemon = Daemon::Random { seed, extra_factor };
                    assert_eq!(
                        daemon.schedule(n, unit),
                        random_schedule_by_insertion(seed, extra_factor, n, unit),
                        "n={n} extra_factor={extra_factor} unit={unit}"
                    );
                }
            }
        }
    }

    struct MinId;

    impl NodeProgram for MinId {
        type State = u64;
        type Update = u64;
        fn init(&self, ctx: &NodeContext) -> u64 {
            ctx.id
        }
        fn step(&self, _ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
            neighbors.iter().fold(*own, |acc, &&x| acc.min(x))
        }
        fn apply(state: &mut u64, update: u64) {
            *state = update;
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
        let mut runner = ReferenceRunner::daemon(&MinId, net, Daemon::RoundRobin);
        let t = runner.run_until(StopCondition::AllAccept, 100).unwrap();
        // index-order round robin on a path rooted at node 0 converges in 1 unit
        assert!(t <= d);
        assert!(runner.activations() >= runner.network().node_count());
    }

    #[test]
    fn random_daemon_is_fair_and_converges() {
        let g = path_graph(12, 0);
        let net = Network::new(&MinId, g);
        let mut runner = ReferenceRunner::daemon(
            &MinId,
            net,
            Daemon::Random {
                seed: 3,
                extra_factor: 2,
            },
        );
        let t = runner.run_until(StopCondition::AllAccept, 50).unwrap();
        assert!(t <= 12, "random daemon should converge within n units");
    }

    #[test]
    fn adversarial_daemon_still_fair() {
        let g = path_graph(6, 0);
        let net = Network::new(&MinId, g);
        let mut runner = ReferenceRunner::daemon(
            &MinId,
            net,
            Daemon::Adversarial {
                pivot: 5,
                pivot_repeats: 4,
            },
        );
        let t = runner.run_until(StopCondition::AllAccept, 50).unwrap();
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
        let mut runner = ReferenceRunner::daemon(
            &MinId,
            net,
            Daemon::Adversarial {
                pivot: 0,
                pivot_repeats: 1,
            },
        );
        // reverse order maximally delays the spread from node 0: needs ~n units
        assert_eq!(runner.run_until(StopCondition::AllAccept, 1), None);
        assert_eq!(runner.steps(), 1);
    }
}
