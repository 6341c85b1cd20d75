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
//!
//! # Prefetching
//!
//! A round sweep (`ROUND = true`: a synchronous or halo shard, in-process
//! or on a remote worker) of registers wider than one cache line asks the
//! CPU for every line of each neighbour register before `step` reads
//! them, and for the output slot two nodes ahead. At 328 B per register
//! the two buffers a verifier round streams through outgrow a core's L2
//! at a few thousand nodes, and asking for all of a node's lines at once
//! overlaps misses that `step` would otherwise take one by one. Daemon
//! batches, which measured slower with it, and registers of at most one
//! line skip it; both gates are compile-time constants, so for them the
//! prefetch compiles away.
//!
//! A prefetch is only a hint: it never faults and reads or writes nothing
//! the program can observe, so results are bit for bit those of a sweep
//! without it. Off x86-64 the hint is a no-op.

use crate::topology::CsrTopology;
use smst_sim::{NodeContext, NodeProgram};

/// The cache-line size the prefetch walks a register in.
const LINE: usize = 64;

/// How many output slots ahead of the current one a round sweep
/// prefetches.
const OUT_AHEAD: usize = 2;

/// Computes the next register of every node in `nodes` into `out`
/// (`out[i]` ↔ the `i`-th node): node `v` reads its own register
/// `registers[v]`, its context `contexts[v]` and, through row `v` of
/// `csr`, its neighbours' registers `registers[u]` in port order.
///
/// All three index spaces are the caller's choice of window — global
/// internal indices, or the coordinates of one halo region — as long as
/// they agree. `ROUND` says the call is one part of a double-buffered
/// round rather than a daemon batch; it decides only whether the sweep
/// prefetches (see the module docs), never what it computes.
///
/// # Panics
///
/// Panics if `nodes` and `out` differ in length, or if a node or a
/// neighbour index falls outside the given slices.
pub fn sweep<const ROUND: bool, P, I>(
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
    let prefetching = ROUND && size_of::<P::State>() > LINE;
    let (out_start, len) = (out.as_ptr(), out.len());
    for (i, (slot, v)) in out.iter_mut().zip(nodes).enumerate() {
        neighbors.clear();
        neighbors.extend(csr.neighbors_of(v).iter().map(|&u| &registers[u as usize]));
        if prefetching {
            for &neighbor in &neighbors {
                prefetch(neighbor);
            }
            if i + OUT_AHEAD < len {
                prefetch(out_start.wrapping_add(i + OUT_AHEAD));
            }
        }
        *slot = program.step(&contexts[v], &registers[v], &neighbors);
    }
}

/// Asks the CPU to bring every cache line of the `T` at `value` into L1.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[expect(
    unsafe_code,
    reason = "the prefetch intrinsic takes a raw pointer; it is a hint with no architectural effect"
)]
#[inline(always)]
fn prefetch<T>(value: *const T) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    let start = value.cast::<i8>();
    let first_line = start.wrapping_sub(start.addr() % LINE);
    let lines = (start.addr() % LINE + size_of::<T>()).div_ceil(LINE);
    for k in 0..lines {
        // SAFETY: a prefetch never faults and performs no architectural
        // read or write, whatever the address; the callers name registers
        // inside the slices they sweep.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(first_line.wrapping_add(k * LINE)) };
    }
}

/// Off x86-64, and under Miri, the hint is a no-op.
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
#[inline(always)]
fn prefetch<T>(_value: *const T) {}

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
    /// The register is `W` words, and every word of every neighbour feeds
    /// every word of the result.
    struct PortMix<const W: usize>(WeightedGraph);

    /// One 8-byte word: no sweep prefetches.
    const NARROW: usize = 1;
    /// 328 B, the core verifier's register size: wider than a cache line
    /// and not a multiple of one, so round sweeps prefetch.
    const WIDE: usize = 41;
    const _: () = assert!(size_of::<[u64; NARROW]>() <= LINE);
    const _: () =
        assert!(size_of::<[u64; WIDE]>() > LINE && !size_of::<[u64; WIDE]>().is_multiple_of(LINE));

    impl<const W: usize> NodeProgram for PortMix<W> {
        type State = [u64; W];
        fn init(&self, ctx: &NodeContext) -> [u64; W] {
            std::array::from_fn(|k| (ctx.id + k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
        fn step(&self, ctx: &NodeContext, own: &[u64; W], neighbors: &[&[u64; W]]) -> [u64; W] {
            assert_eq!(neighbors.len(), ctx.degree);
            let ports = self.0.incident_edges(ctx.node);
            let mix =
                neighbors
                    .iter()
                    .zip(ports)
                    .fold(own[0].rotate_left(7) ^ ctx.id, |acc, (x, &e)| {
                        let acc = x
                            .iter()
                            .fold(acc, |acc, &w| acc.wrapping_mul(31).wrapping_add(w));
                        acc ^ self.0.weight(e)
                    });
            std::array::from_fn(|k| mix.rotate_left(k as u32) ^ own[(k + 1) % W])
        }
    }

    /// `sweep` with `ROUND` chosen at run time, so one test drives both
    /// paths.
    fn sweep_as<P: NodeProgram>(
        round: bool,
        program: &P,
        csr: &CsrTopology,
        contexts: &[NodeContext],
        registers: &[P::State],
        nodes: impl ExactSizeIterator<Item = usize>,
        out: &mut [P::State],
    ) {
        if round {
            sweep::<true, _, _>(program, csr, contexts, registers, nodes, out);
        } else {
            sweep::<false, _, _>(program, csr, contexts, registers, nodes, out);
        }
    }

    /// The arena of the program's graph under `policy`, and one round of
    /// the sequential reference on the same registers (original node order).
    fn arena_and_reference<const W: usize>(
        program: &PortMix<W>,
        policy: LayoutPolicy,
    ) -> (Arena<'_, PortMix<W>>, Vec<[u64; W]>) {
        let arena = Arena::new(program, program.0.clone(), policy);
        let net = Network::with_states(program.0.clone(), arena.states_snapshot());
        let mut reference = ReferenceRunner::rounds(program, net);
        reference.step();
        (arena, reference.into_network().states().to_vec())
    }

    fn cases<const W: usize>() -> impl Iterator<Item = (PortMix<W>, LayoutPolicy)> {
        (0..4u64).flat_map(|seed| {
            let g = random_connected_graph(40 + 7 * seed as usize, 130, seed);
            [LayoutPolicy::Identity, LayoutPolicy::Rcm].map(|policy| (PortMix(g.clone()), policy))
        })
    }

    /// Shard counts from one shard to one per node, so shards of one and
    /// two nodes (shorter than the output look-ahead) and every shard end
    /// are swept.
    fn check_contiguous_ranges<const W: usize>() {
        for (program, policy) in cases::<W>() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let n = arena.node_count();
            for (count, round) in [1, 3, n].into_iter().flat_map(|c| [(c, false), (c, true)]) {
                let mut out = arena.states().to_vec();
                for shard in partition_balanced(arena.topology(), count) {
                    sweep_as(
                        round,
                        &program,
                        arena.topology(),
                        arena.contexts(),
                        arena.states(),
                        shard.nodes(),
                        &mut out[shard.nodes()],
                    );
                }
                for (internal, value) in out.iter().enumerate() {
                    let original = arena.layout().original(internal);
                    assert_eq!(
                        *value, reference[original],
                        "{policy:?}, {count} shards, round {round}, node {original}"
                    );
                }
            }
        }
    }

    fn check_explicit_node_lists<const W: usize>() {
        for (program, policy) in cases::<W>() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let n = arena.node_count();
            // out of order, with repeats: what a daemon's batch looks like
            let list: Vec<u32> = (0..2 * n).map(|k| ((k * 17 + 5) % n) as u32).collect();
            for round in [false, true] {
                let mut out = vec![[0u64; W]; list.len()];
                sweep_as(
                    round,
                    &program,
                    arena.topology(),
                    arena.contexts(),
                    arena.states(),
                    list.iter().map(|&v| v as usize),
                    &mut out,
                );
                for (&internal, value) in list.iter().zip(&out) {
                    let original = arena.layout().original(internal as usize);
                    assert_eq!(
                        *value, reference[original],
                        "{policy:?}, round {round}, node {original}"
                    );
                }
            }
        }
    }

    fn check_region_local_csrs<const W: usize>() {
        for (program, policy) in cases::<W>() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let shards = partition_balanced(arena.topology(), 4);
            let plan = HaloPlan::build(arena.topology(), &shards);
            let mut regions = Vec::new();
            plan.gather_into(arena.states(), &mut regions);
            for round in [false, true] {
                for (part, shard) in shards.iter().enumerate() {
                    let mut out = vec![[0u64; W]; shard.len()];
                    sweep_as(
                        round,
                        &program,
                        plan.local_csr(part).expect("a halo plan has local CSRs"),
                        &arena.contexts()[shard.nodes()],
                        &regions[plan.region(part)],
                        0..shard.len(),
                        &mut out,
                    );
                    for (internal, value) in shard.nodes().zip(&out) {
                        let original = arena.layout().original(internal);
                        assert_eq!(
                            *value, reference[original],
                            "{policy:?}, round {round}, node {original}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn contiguous_ranges_equal_the_reference_round() {
        check_contiguous_ranges::<NARROW>();
        check_contiguous_ranges::<WIDE>();
    }

    #[test]
    fn explicit_node_lists_equal_the_reference_round() {
        check_explicit_node_lists::<NARROW>();
        check_explicit_node_lists::<WIDE>();
    }

    #[test]
    fn region_local_csrs_equal_the_reference_round() {
        check_region_local_csrs::<NARROW>();
        check_region_local_csrs::<WIDE>();
    }

    #[test]
    #[should_panic(expected = "one output slot per swept node")]
    fn mismatched_output_length_is_rejected() {
        let program = PortMix::<NARROW>(random_connected_graph(10, 20, 1));
        let arena = Arena::new(&program, program.0.clone(), LayoutPolicy::Identity);
        let mut out = vec![[0u64; NARROW]; 3];
        sweep::<false, _, _>(
            &program,
            arena.topology(),
            arena.contexts(),
            arena.states(),
            0..4,
            &mut out,
        );
    }
}
