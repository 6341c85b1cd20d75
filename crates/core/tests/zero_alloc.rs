//! The verifier register is a fixed-width `Copy` value, so an activation
//! allocates nothing: counted by a `#[global_allocator]` that forwards to the
//! system allocator. The engine itself allocates one neighbour buffer per
//! sweep (plus its dispatch and, asynchronously, the daemon's schedule),
//! whatever the program, so the verifier is held to *exactly* the count of an
//! 8-byte flood — whose `step` is a fold over `u64`s — on the same graph and
//! envelope, synchronous and asynchronous. Instantiating a runner costs a
//! bounded number of allocations, not one per node: a node's context is a
//! `Copy` value in one table. Construction is held to the same standard:
//! rooting the MST allocates a constant number of times (its tables are
//! flat arrays), and the marker allocates per fragment and per part, well
//! below one allocation per node and level. This file holds exactly one
//! test: the counter is process-wide, and a concurrently running test would
//! be counted too.

#![expect(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait; the counting impl only forwards to `System`"
)]

use smst_core::{CoreVerifier, Marker};
use smst_engine::programs::MinIdFlood;
use smst_engine::{EngineConfig, StopCondition};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::NodeId;
use smst_labeling::Instance;
use smst_sim::{Daemon, NodeProgram};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: see the impl.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: see the impl.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: see the impl.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by 8 warmed-up steps of `program` on `graph`.
fn allocations_in_eight_steps<P>(program: &P, config: &EngineConfig, inst: &Instance) -> u64
where
    P: NodeProgram + Sync + 'static,
    P::State: Send + Sync,
{
    let mut runner = config
        .instantiate(program, inst.graph.clone())
        .expect("a valid config");
    // warm-up: pool threads spawned, buffers grown, trains circulating
    runner.run_until(StopCondition::Steps, 16);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..8 {
        runner.step();
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations made by instantiating `program` on `inst`, counted from
/// after the graph clone the runner takes ownership of.
fn allocations_to_instantiate<P>(program: &P, config: &EngineConfig, inst: &Instance) -> u64
where
    P: NodeProgram + Sync + 'static,
    P::State: Send + Sync,
{
    let graph = inst.graph.clone();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let runner = config.instantiate(program, graph).expect("a valid config");
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(runner);
    count
}

/// Allocations made by `f`, and what it returned.
fn counting<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, value)
}

#[test]
fn verifier_rounds_allocate_no_more_than_a_flood() {
    let n = 512;
    let g = random_connected_graph(n, 3 * n, 21);
    // a `Vec` per node in the tree showed as 862 allocations here
    let (rooting, tree) = counting(|| kruskal(&g).rooted_at(&g, NodeId(0)).unwrap());
    assert!(
        rooting <= 16,
        "kruskal + rooted_at allocated {rooting} times"
    );
    let inst = Instance::from_tree(g, &tree);
    // each of ≈ 1.3 n fragments owns one `Vec`, each of ≈ n / 2 parts about
    // five (2 520 in all); per-node scratch, per-fragment `BTreeSet`s and
    // per-node child lists showed as 10 792 here
    let (marking, labelled) = counting(|| Marker.label(&inst).unwrap());
    assert!(marking < 3_600, "Marker::label allocated {marking} times");
    let (labels, _) = labelled;
    let verifier = CoreVerifier::new(inst.graph.clone(), inst.components.clone(), labels);
    // 512 nodes: a per-node heap anywhere in the context or register
    // tables shows
    for config in [EngineConfig::new().threads(1), EngineConfig::reference()] {
        let flood = allocations_to_instantiate(&MinIdFlood::new(0), &config, &inst);
        let verify = allocations_to_instantiate(&verifier, &config, &inst);
        assert!(
            flood.max(verify) < 64,
            "{}: instantiating allocated {flood} (flood) / {verify} (verifier) times",
            config.describe()
        );
    }
    for threads in [1, 2] {
        let config = EngineConfig::new().threads(threads);
        let flood = allocations_in_eight_steps(&MinIdFlood::new(0), &config, &inst);
        let verify = allocations_in_eight_steps(&verifier, &config, &inst);
        // 8 rounds × 512 activations: a single allocating activation shows
        assert_eq!(
            verify, flood,
            "{threads} thread(s): the engine alone allocates {flood} times in 8 rounds"
        );
        assert!(flood <= 8 * 4, "per-round engine allocations grew: {flood}");
        // the asynchronous envelope: the schedule and the per-batch buffers
        // are functions of (daemon, n) alone, so the counts must agree too
        let daemon = Daemon::Random {
            seed: 9,
            extra_factor: 1,
        };
        let config = config.asynchronous(daemon, 64);
        let flood = allocations_in_eight_steps(&MinIdFlood::new(0), &config, &inst);
        let verify = allocations_in_eight_steps(&verifier, &config, &inst);
        assert_eq!(
            verify, flood,
            "{threads} thread(s), async: the engine alone allocates {flood} times in 8 units"
        );
    }
}
