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
//! `sweep` only reads `registers` and only writes `out`, a buffer of
//! [`NodeProgram::Update`]s: what an honest step may rewrite of a register.
//! The register stays the node's whole state — a step reads all of it, and
//! faults still rewrite all of it — but a round never needs a second copy
//! of it: the caller sweeps every node's update off the unchanged
//! registers, then applies the updates in place with
//! [`NodeProgram::apply`], so what a sweep reads is exactly what the
//! previous round (or batch) left. Neighbour references are handed to
//! `step` in CSR row order, which every CSR in the engine keeps equal to
//! the node's port order.
//!
//! # Prefetching
//!
//! A round sweep (`ROUND = true`: a synchronous or halo shard, in-process
//! or on a remote worker) of registers wider than one cache line asks the
//! CPU for every line of each neighbour register before `step` reads
//! them, and for the output slot two nodes ahead. At 328 B per register
//! the registers and updates a verifier round streams through outgrow a
//! core's L2 at a few thousand nodes, and asking for all of a node's lines
//! at once overlaps misses that `step` would otherwise take one by one.
//! Daemon batches, which measured slower with it, and registers of at most
//! one line skip it; both gates are compile-time constants, so for them
//! the prefetch compiles away.
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

/// Computes the update of every node in `nodes` into `out` (`out[i]` ↔
/// the `i`-th node): node `v` reads its own register `registers[v]`, its
/// context `contexts[v]` and, through row `v` of `csr`, its neighbours'
/// registers `registers[u]` in port order.
///
/// All three index spaces are the caller's choice of window — global
/// internal indices, or the coordinates of one halo region — as long as
/// they agree. `ROUND` says the call is one part of a synchronous round
/// rather than a daemon batch; it decides only whether the sweep
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
    out: &mut [P::Update],
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
    use crate::config::EngineConfig;
    use crate::layout::LayoutPolicy;
    use crate::runner::StopCondition;
    use crate::shard::{partition_balanced, HaloPlan};
    use smst_graph::generators::random_connected_graph;
    use smst_graph::WeightedGraph;
    use smst_sim::{Daemon, Network, ReferenceRunner};

    /// `W` words: a register, or what a step rewrites of one.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Words<const W: usize>([u64; W]);

    impl<const W: usize> Default for Words<W> {
        fn default() -> Self {
            Words([0; W])
        }
    }

    /// The fold a [`PortMix`] step runs: sensitive to everything the kernel
    /// hands it — the node's own context, its register, and each neighbour
    /// register paired with the weight of the port it sits behind (so a
    /// neighbour delivered in the wrong port order changes the result).
    /// Every word of every neighbour feeds the result.
    fn mix<const W: usize>(
        graph: &WeightedGraph,
        ctx: &NodeContext,
        own: &Words<W>,
        neighbors: &[&Words<W>],
    ) -> u64 {
        assert_eq!(neighbors.len(), ctx.degree);
        let ports = graph.incident_edges(ctx.node);
        neighbors
            .iter()
            .zip(ports)
            .fold(own.0[0].rotate_left(7) ^ ctx.id, |acc, (x, &e)| {
                let acc =
                    x.0.iter()
                        .fold(acc, |acc, &w| acc.wrapping_mul(31).wrapping_add(w));
                acc ^ graph.weight(e)
            })
    }

    /// The register every test program starts from.
    fn init_words<const W: usize>(ctx: &NodeContext) -> Words<W> {
        Words(std::array::from_fn(|k| {
            (ctx.id + k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }))
    }

    /// A step that rewrites the whole `W`-word register from [`mix`]. Like
    /// the core verifier, it reads port weights from the graph it carries.
    struct PortMix<const W: usize>(WeightedGraph);

    /// One 8-byte word: no sweep prefetches.
    const NARROW: usize = 1;
    /// 328 B, the core verifier's register size: wider than a cache line
    /// and not a multiple of one, so round sweeps prefetch.
    const WIDE: usize = 41;
    /// What [`PartMix`] rewrites of a `WIDE` register: its first 144 B,
    /// the size of the core verifier's update.
    const REWRITTEN: usize = 18;
    const _: () = assert!(size_of::<[u64; NARROW]>() <= LINE);
    const _: () =
        assert!(size_of::<[u64; WIDE]>() > LINE && !size_of::<[u64; WIDE]>().is_multiple_of(LINE));

    impl<const W: usize> NodeProgram for PortMix<W> {
        type State = Words<W>;
        type Update = Words<W>;
        fn init(&self, ctx: &NodeContext) -> Words<W> {
            init_words(ctx)
        }
        fn step(&self, ctx: &NodeContext, own: &Words<W>, neighbors: &[&Words<W>]) -> Words<W> {
            let mix = mix(&self.0, ctx, own, neighbors);
            Words(std::array::from_fn(|k| {
                mix.rotate_left(k as u32) ^ own.0[(k + 1) % W]
            }))
        }
        fn apply(state: &mut Words<W>, update: Words<W>) {
            *state = update;
        }
    }

    /// Like the core verifier, a program whose update is a strict part of
    /// its register: a step reads all `WIDE` words of every neighbour but
    /// rewrites only the first `REWRITTEN`; the rest is a label `init`
    /// writes and no step changes.
    struct PartMix(WeightedGraph);

    impl NodeProgram for PartMix {
        type State = Words<WIDE>;
        type Update = Words<REWRITTEN>;
        fn init(&self, ctx: &NodeContext) -> Words<WIDE> {
            init_words(ctx)
        }
        fn step(
            &self,
            ctx: &NodeContext,
            own: &Words<WIDE>,
            neighbors: &[&Words<WIDE>],
        ) -> Words<REWRITTEN> {
            let mix = mix(&self.0, ctx, own, neighbors);
            Words(std::array::from_fn(|k| {
                mix.rotate_left(k as u32) ^ own.0[k + 1] ^ own.0[REWRITTEN + k % (WIDE - REWRITTEN)]
            }))
        }
        fn apply(state: &mut Words<WIDE>, update: Words<REWRITTEN>) {
            state.0[..REWRITTEN].copy_from_slice(&update.0);
        }
    }

    /// The kernel checks run on any program that carries its graph.
    trait OnGraph: NodeProgram<State: PartialEq> + Sync + Sized {
        fn on(graph: WeightedGraph) -> Self;
        fn graph(&self) -> &WeightedGraph;
    }

    impl<const W: usize> OnGraph for PortMix<W> {
        fn on(graph: WeightedGraph) -> Self {
            PortMix(graph)
        }
        fn graph(&self) -> &WeightedGraph {
            &self.0
        }
    }

    impl OnGraph for PartMix {
        fn on(graph: WeightedGraph) -> Self {
            PartMix(graph)
        }
        fn graph(&self) -> &WeightedGraph {
            &self.0
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
        out: &mut [P::Update],
    ) {
        if round {
            sweep::<true, _, _>(program, csr, contexts, registers, nodes, out);
        } else {
            sweep::<false, _, _>(program, csr, contexts, registers, nodes, out);
        }
    }

    /// The arena of the program's graph under `policy`, and one round of
    /// the sequential reference on the same registers (original node order).
    fn arena_and_reference<P: OnGraph>(
        program: &P,
        policy: LayoutPolicy,
    ) -> (Arena<'_, P>, Vec<P::State>) {
        let arena = Arena::new(program, program.graph().clone(), policy);
        let net = Network::with_states(program.graph().clone(), arena.states_snapshot());
        let mut reference = ReferenceRunner::rounds(program, net);
        reference.step();
        (arena, reference.into_network().states().to_vec())
    }

    /// `update` applied to the arena's register of `internal`.
    fn applied<P: NodeProgram>(
        arena: &Arena<'_, P>,
        internal: usize,
        update: &P::Update,
    ) -> P::State {
        let mut next = arena.states()[internal].clone();
        P::apply(&mut next, update.clone());
        next
    }

    fn cases<P: OnGraph>() -> impl Iterator<Item = (P, LayoutPolicy)> {
        (0..4u64).flat_map(|seed| {
            let g = random_connected_graph(40 + 7 * seed as usize, 130, seed);
            [LayoutPolicy::Identity, LayoutPolicy::Rcm].map(|policy| (P::on(g.clone()), policy))
        })
    }

    /// Shard counts from one shard to one per node, so shards of one and
    /// two nodes (shorter than the output look-ahead) and every shard end
    /// are swept.
    fn check_contiguous_ranges<P: OnGraph>() {
        for (program, policy) in cases::<P>() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let n = arena.node_count();
            for (count, round) in [1, 3, n].into_iter().flat_map(|c| [(c, false), (c, true)]) {
                let mut out = vec![P::Update::default(); n];
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
                for (internal, update) in out.iter().enumerate() {
                    let original = arena.layout().original(internal);
                    assert_eq!(
                        applied(&arena, internal, update),
                        reference[original],
                        "{policy:?}, {count} shards, round {round}, node {original}"
                    );
                }
            }
        }
    }

    fn check_explicit_node_lists<P: OnGraph>() {
        for (program, policy) in cases::<P>() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let n = arena.node_count();
            // out of order, with repeats: what a daemon's batch looks like
            let list: Vec<u32> = (0..2 * n).map(|k| ((k * 17 + 5) % n) as u32).collect();
            for round in [false, true] {
                let mut out = vec![P::Update::default(); list.len()];
                sweep_as(
                    round,
                    &program,
                    arena.topology(),
                    arena.contexts(),
                    arena.states(),
                    list.iter().map(|&v| v as usize),
                    &mut out,
                );
                for (&internal, update) in list.iter().zip(&out) {
                    let original = arena.layout().original(internal as usize);
                    assert_eq!(
                        applied(&arena, internal as usize, update),
                        reference[original],
                        "{policy:?}, round {round}, node {original}"
                    );
                }
            }
        }
    }

    fn check_region_local_csrs<P: OnGraph>() {
        for (program, policy) in cases::<P>() {
            let (arena, reference) = arena_and_reference(&program, policy);
            let shards = partition_balanced(arena.topology(), 4);
            let plan = HaloPlan::build(arena.topology(), &shards);
            let mut regions = Vec::new();
            plan.gather_into(arena.states(), &mut regions);
            for round in [false, true] {
                for (part, shard) in shards.iter().enumerate() {
                    let mut out = vec![P::Update::default(); shard.len()];
                    sweep_as(
                        round,
                        &program,
                        plan.local_csr(part).expect("a halo plan has local CSRs"),
                        &arena.contexts()[shard.nodes()],
                        &regions[plan.region(part)],
                        0..shard.len(),
                        &mut out,
                    );
                    for (internal, update) in shard.nodes().zip(&out) {
                        let original = arena.layout().original(internal);
                        assert_eq!(
                            applied(&arena, internal, update),
                            reference[original],
                            "{policy:?}, round {round}, node {original}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn contiguous_ranges_equal_the_reference_round() {
        check_contiguous_ranges::<PortMix<NARROW>>();
        check_contiguous_ranges::<PortMix<WIDE>>();
        check_contiguous_ranges::<PartMix>();
    }

    #[test]
    fn explicit_node_lists_equal_the_reference_round() {
        check_explicit_node_lists::<PortMix<NARROW>>();
        check_explicit_node_lists::<PortMix<WIDE>>();
        check_explicit_node_lists::<PartMix>();
    }

    #[test]
    fn region_local_csrs_equal_the_reference_round() {
        check_region_local_csrs::<PortMix<NARROW>>();
        check_region_local_csrs::<PortMix<WIDE>>();
        check_region_local_csrs::<PartMix>();
    }

    /// A program whose update is a strict part of its register runs the
    /// same on every path that applies updates: direct and halo rounds at
    /// one and several threads, a round-robin daemon's batches as wide as
    /// the graph (one batch is one round) and the sequential reference,
    /// stepped alone and in chunks; and no path touches the words no step
    /// rewrites.
    #[test]
    fn partial_updates_agree_on_every_schedule() {
        let g = random_connected_graph(300, 900, 7);
        let n = g.node_count();
        let program = PartMix(g.clone());
        let mut reference = ReferenceRunner::rounds(&program, Network::new(&program, g.clone()));
        let labels: Vec<[u64; WIDE - REWRITTEN]> = reference
            .network()
            .states()
            .iter()
            .map(|s| s.0[REWRITTEN..].try_into().expect("the label's words"))
            .collect();
        let configs = [1, 3].into_iter().flat_map(|threads| {
            let rounds = EngineConfig::new()
                .threads(threads)
                .layout(LayoutPolicy::Rcm);
            [
                rounds.clone(),
                rounds.halo(true),
                EngineConfig::new()
                    .threads(threads)
                    .asynchronous(Daemon::RoundRobin, n),
            ]
        });
        let mut runners: Vec<_> = configs
            .map(|config| {
                config
                    .instantiate(&program, g.clone())
                    .expect("a valid envelope")
            })
            .collect();
        // single steps, then multi-round chunks, in which halo copies are
        // kept current by the apply phase rather than by the gather
        for rounds in [1, 1, 1, 5, 7] {
            reference.run(rounds);
            for runner in &mut runners {
                runner.run_until(StopCondition::Steps, rounds);
                assert_eq!(
                    runner.states_snapshot(),
                    reference.network().states(),
                    "round {}",
                    reference.steps()
                );
            }
        }
        for (state, label) in reference.network().states().iter().zip(&labels) {
            assert_eq!(&state.0[REWRITTEN..], label, "a step rewrote the label");
        }
        assert_ne!(
            reference.network().states(),
            Network::new(&program, g).states(),
            "the rewritten words moved"
        );
    }

    #[test]
    #[should_panic(expected = "one output slot per swept node")]
    fn mismatched_output_length_is_rejected() {
        let program = PortMix::<NARROW>(random_connected_graph(10, 20, 1));
        let arena = Arena::new(&program, program.0.clone(), LayoutPolicy::Identity);
        let mut out = vec![Words::default(); 3];
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
