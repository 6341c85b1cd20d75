//! The verifier register is a fixed-width `Copy` value, so an activation
//! allocates nothing: counted by a `#[global_allocator]` that forwards to the
//! system allocator. The engine itself allocates one neighbour buffer per
//! sweep (plus its dispatch and, asynchronously, the daemon's schedule),
//! whatever the program, so the verifier is held to *exactly* the count of an
//! 8-byte flood — whose `step` is a fold over `u64`s — on the same graph and
//! envelope, synchronous and asynchronous. Instantiating a runner costs a
//! bounded number of allocations, not one per node: a node's context is a
//! `Copy` value in one table. Construction is held to the same standard:
//! building the graph allocates per table, not per node; cloning it only
//! bumps a reference count; rooting the MST allocates a constant number of
//! times (its tables are flat arrays); and the marker allocates per stage,
//! not per fragment or part, and its live heap peaks below three times the
//! bytes of the labels it returns (the allocator also tracks the high-water
//! of live bytes). The
//! sequential asynchronous oracle ([`ReferenceRunner::daemon`], one
//! gather-and-step of the network per activation) allocates its daemon's
//! schedule per time unit and nothing per activation. This file
//! holds exactly one test: the counter is process-wide, and a concurrently
//! running test would be counted too.

#![expect(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait; the counting impl only forwards to `System`"
)]

use smst_core::{CoreLabel, CoreVerifier, Marker};
use smst_engine::programs::MinIdFlood;
use smst_engine::{EngineConfig, StopCondition};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::{NodeId, WeightedGraph};
use smst_labeling::Instance;
use smst_sim::{Daemon, Network, NodeProgram, ReferenceRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The high-water of [`LIVE`] since it was last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Accounts for `grown` more live bytes.
fn grow(grown: usize) {
    let live = LIVE.fetch_add(grown as u64, Ordering::Relaxed) + grown as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters are relaxed statistics.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: see the impl.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: see the impl.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: see the impl.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: see the impl.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // counted as if the new block were taken before the old one is freed
        grow(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
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

/// Allocations made by instantiating `program` on `inst`, the runner's
/// share of the graph included.
fn allocations_to_instantiate<P>(program: &P, config: &EngineConfig, inst: &Instance) -> u64
where
    P: NodeProgram + Sync + 'static,
    P::State: Send + Sync,
{
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let runner = config
        .instantiate(program, inst.graph.clone())
        .expect("a valid config");
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(runner);
    count
}

/// Allocations made by 8 warmed-up time units of the sequential
/// asynchronous oracle running `program` under `daemon`.
fn allocations_in_eight_units<P: NodeProgram>(
    program: &P,
    graph: &WeightedGraph,
    daemon: Daemon,
) -> u64 {
    let mut oracle = ReferenceRunner::daemon(program, Network::new(program, graph.clone()), daemon);
    // warm-up: the neighbour buffer grown to the largest degree
    oracle.run(2);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    oracle.run(8);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations made by `f`, and what it returned.
fn counting<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let (allocations, _, value) = counting_bytes(f);
    (allocations, value)
}

/// Allocations made by `f`, the most heap bytes it held at once beyond what
/// was live when it started, and what it returned.
fn counting_bytes<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (before, live) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    );
    PEAK.store(live, Ordering::Relaxed);
    let value = f();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocations, PEAK.load(Ordering::Relaxed) - live, value)
}

#[test]
fn verifier_rounds_allocate_no_more_than_a_flood() {
    let n = 512;
    // a `Vec` of incident edges per node showed as 980 allocations here
    let (generating, g) = counting(|| random_connected_graph(n, 3 * n, 21));
    assert!(
        generating <= 64,
        "random_connected_graph allocated {generating} times"
    );
    // a `Vec` per node in the tree showed as 862 allocations here
    let (rooting, tree) = counting(|| kruskal(&g).rooted_at(&g, NodeId(0)).unwrap());
    assert!(
        rooting <= 16,
        "kruskal + rooted_at allocated {rooting} times"
    );
    let inst = Instance::from_tree(g, &tree);
    // every layer takes the graph by value: a deep copy showed as 515 here
    let (cloning, _) = counting(|| inst.graph.clone());
    assert_eq!(cloning, 0, "cloning the graph allocated {cloning} times");
    // SYNC_MST's phases, the partitions and the labels allocate per stage
    // (298 in all); a `Vec` per fragment and four per part showed as 2 231
    // here, and per-node scratch, per-fragment `BTreeSet`s and per-node
    // child lists as 10 792
    let (marking, transient, labelled) = counting_bytes(|| Marker.label(&inst).unwrap());
    assert!(marking < 375, "Marker::label allocated {marking} times");
    let (labels, _) = labelled;
    // the marker at its widest, labels included: 2.97 times the labels'
    // bytes (279 750 B), where a `Vec` per fragment and part held 4.8
    // times
    let label_bytes = (labels.len() * size_of::<CoreLabel>()) as u64;
    assert!(
        transient <= 3 * label_bytes,
        "Marker::label held {transient} B at once for {label_bytes} B of labels"
    );
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
    // 8 units × 512 activations: a `Vec` per activation adds 4 096 here; the
    // schedules cost 8 (round robin) and ≈ 400 (random)
    for (daemon, schedules) in [
        (Daemon::RoundRobin, 8),
        (
            Daemon::Random {
                seed: 9,
                extra_factor: 1,
            },
            8 * 64,
        ),
    ] {
        let flood = allocations_in_eight_units(&MinIdFlood::new(0), &inst.graph, daemon.clone());
        let verify = allocations_in_eight_units(&verifier, &inst.graph, daemon.clone());
        assert_eq!(
            verify, flood,
            "{daemon:?}: the oracle alone allocates {flood} times"
        );
        assert!(
            flood <= schedules,
            "{daemon:?}: {flood} allocations in 8 units"
        );
    }
}
