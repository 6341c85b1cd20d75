//! The round kernel: the one place the engine calls
//! [`NodeProgram::step`].
//!
//! The paper's model has a single primitive — a node reads its neighbours'
//! registers and rewrites its own — and its synchronous and asynchronous
//! bounds differ only in *who is activated when*. [`sweep`] is that
//! primitive over a batch of nodes; every execution path is a scheduler
//! deciding which nodes to hand it and which buffer it reads:
//!
//! * a synchronous shard is a contiguous node range swept against the
//!   whole previous-round buffer through the global CSR;
//! * a halo shard (in-process or a remote worker) is the range
//!   `0..interior` swept against its own region through the region-local
//!   CSR of a [`HaloPlan`](crate::shard::HaloPlan);
//! * an asynchronous batch is an explicit node list swept against the
//!   pre-batch registers.
//!
//! # Invariants
//!
//! `sweep` only reads `registers` and only writes `out`, so callers get
//! double-buffer semantics by keeping the two apart; neighbour references
//! are handed to `step` in CSR row order, which every CSR in the engine
//! keeps equal to the node's port order.

use crate::topology::CsrTopology;
use smst_sim::{NodeContext, NodeProgram};

/// Computes the next register of every node in `nodes` into `out`
/// (`out[i]` ↔ the `i`-th node): node `v` reads its own register
/// `registers[v]`, its context `contexts[v]` and, through row `v` of
/// `csr`, its neighbours' registers `registers[u]` in port order.
///
/// All three index spaces are the caller's choice of window — global
/// internal indices, or the coordinates of one halo region — as long as
/// they agree.
///
/// # Panics
///
/// Panics if `nodes` and `out` differ in length, or if a node or a
/// neighbour index falls outside the given slices.
pub fn sweep<P, I>(
    program: &P,
    csr: &CsrTopology,
    contexts: &[NodeContext],
    registers: &[P::State],
    nodes: I,
    out: &mut [P::State],
) where
    P: NodeProgram,
    I: IntoIterator<Item = usize>,
    I::IntoIter: ExactSizeIterator,
{
    let nodes = nodes.into_iter();
    assert_eq!(nodes.len(), out.len(), "one output slot per swept node");
    let mut neighbors: Vec<&P::State> = Vec::with_capacity(16);
    for (slot, v) in out.iter_mut().zip(nodes) {
        neighbors.clear();
        neighbors.extend(csr.neighbors_of(v).iter().map(|&u| &registers[u as usize]));
        *slot = program.step(&contexts[v], &registers[v], &neighbors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use crate::layout::LayoutPolicy;
    use crate::shard::{partition_balanced, HaloPlan};
    use smst_graph::generators::random_connected_graph;
    use smst_graph::WeightedGraph;
    use smst_sim::{Network, ReferenceRunner};

    /// A step that is sensitive to everything the kernel hands it: the
    /// node's own context, its register, and each neighbour register
    /// paired with the weight of the port it sits behind (so a neighbour
    /// delivered in the wrong port order changes the result). Like the
    /// core verifier, it reads port weights from the graph it carries.
    struct PortMix(WeightedGraph);

    impl NodeProgram for PortMix {
        type State = u64;
        fn init(&self, ctx: &NodeContext) -> u64 {
            ctx.id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
        fn step(&self, ctx: &NodeContext, own: &u64, neighbors: &[&u64]) -> u64 {
            assert_eq!(neighbors.len(), ctx.degree);
            let ports = self.0.incident_edges(ctx.node);
            neighbors
                .iter()
                .zip(ports)
                .fold(own.rotate_left(7) ^ ctx.id, |acc, (&&x, &e)| {
                    acc.wrapping_mul(31).wrapping_add(x ^ self.0.weight(e))
                })
        }
    }

    /// The arena of the program's graph under `policy`, and one round of
    /// the sequential reference on the same registers (original node order).
    fn arena_and_reference(
        program: &PortMix,
        policy: LayoutPolicy,
    ) -> (Arena<'_, PortMix>, Vec<u64>) {
        let arena = Arena::new(program, program.0.clone(), policy);
        let net = Network::with_states(program.0.clone(), arena.states_snapshot());
        let mut reference = ReferenceRunner::rounds(program, net);
        reference.step();
        (arena, reference.into_network().states().to_vec())
    }

    fn cases() -> impl Iterator<Item = (PortMix, LayoutPolicy)> {
        (0..4u64).flat_map(|seed| {
            let g = random_connected_graph(40 + 7 * seed as usize, 130, seed);
            [LayoutPolicy::Identity, LayoutPolicy::Rcm].map(|policy| (PortMix(g.clone()), policy))
        })
    }

    #[test]
    fn contiguous_ranges_equal_the_reference_round() {
        for (program, policy) in cases() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let mut out = vec![0u64; arena.node_count()];
            for shard in partition_balanced(arena.topology(), 3) {
                sweep(
                    &program,
                    arena.topology(),
                    arena.contexts(),
                    arena.states(),
                    shard.nodes(),
                    &mut out[shard.nodes()],
                );
            }
            for (internal, &value) in out.iter().enumerate() {
                let original = arena.layout().original(internal);
                assert_eq!(value, reference[original], "{policy:?}, node {original}");
            }
        }
    }

    #[test]
    fn explicit_node_lists_equal_the_reference_round() {
        for (program, policy) in cases() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let n = arena.node_count();
            // out of order, with repeats: what a daemon's batch looks like
            let list: Vec<u32> = (0..2 * n).map(|k| ((k * 17 + 5) % n) as u32).collect();
            let mut out = vec![0u64; list.len()];
            sweep(
                &program,
                arena.topology(),
                arena.contexts(),
                arena.states(),
                list.iter().map(|&v| v as usize),
                &mut out,
            );
            for (&internal, &value) in list.iter().zip(&out) {
                let original = arena.layout().original(internal as usize);
                assert_eq!(value, reference[original], "{policy:?}, node {original}");
            }
        }
    }

    #[test]
    fn region_local_csrs_equal_the_reference_round() {
        for (program, policy) in cases() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let shards = partition_balanced(arena.topology(), 4);
            let plan = HaloPlan::build(arena.topology(), &shards);
            let mut regions = Vec::new();
            plan.gather_into(arena.states(), &mut regions);
            for (part, shard) in shards.iter().enumerate() {
                let mut out = vec![0u64; shard.len()];
                sweep(
                    &program,
                    plan.local_csr(part).expect("a halo plan has local CSRs"),
                    &arena.contexts()[shard.nodes()],
                    &regions[plan.region(part)],
                    0..shard.len(),
                    &mut out,
                );
                for (internal, &value) in shard.nodes().zip(&out) {
                    let original = arena.layout().original(internal);
                    assert_eq!(value, reference[original], "{policy:?}, node {original}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per swept node")]
    fn mismatched_output_length_is_rejected() {
        let program = PortMix(random_connected_graph(10, 20, 1));
        let arena = Arena::new(&program, program.0.clone(), LayoutPolicy::Identity);
        let mut out = vec![0u64; 3];
        sweep(
            &program,
            arena.topology(),
            arena.contexts(),
            arena.states(),
            0..4,
            &mut out,
        );
    }
}
