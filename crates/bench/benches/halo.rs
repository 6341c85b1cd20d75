//! Bench: the halo-exchange execution mode on the expander scenario.
//!
//! On low-diameter expanders (the KMW lower-bound topologies) almost every
//! neighbour read crosses a shard boundary, so this is where halo mode has
//! the most traffic to make explicit. The bench compares chunked rounds of
//! the direct path against the halo path (with and without the RCM
//! layout) — every runner is built from an [`EngineConfig`] envelope —
//! and records the **halo geometry** in the
//! artifact's `meta` object:
//!
//! * `halo/<layout>/entries` — total halo slots over all shards (the
//!   registers crossing shard boundaries in each exchange step);
//! * `halo/<layout>/max_shard` — the largest single shard's halo;
//! * `halo/<layout>/bytes_per_round` — exchanged bytes per round for the
//!   `u64` registers of the bench program, as reported **per round by a
//!   [`RecordingObserver`]** (the one-engine-API measurement hook), plus
//!   `halo/<layout>/observed_round_ns` — the observer's mean per-round
//!   total over the observed rounds (wall-clock, indicative).
//!
//! RCM exists to shrink the boundary, so `halo/rcm/entries` should come
//! out well below `halo/identity/entries` (the engine's property tests pin
//! the strict inequality; here it is measured and reported). Results land
//! in `BENCH_halo.json`. The observed probe rounds — which carry the full
//! dispatch/compute/barrier/exchange phase split — are promoted to
//! `BENCH_rounds_halo.json` via a [`RoundsArtifact`], teeing the recording
//! observer with the env-gated telemetry sink ([`Telemetry::from_env`],
//! `SMST_TRACE_SAMPLE` → `TRACE_halo.jsonl`). `SMST_BENCH_SMOKE=1`
//! shrinks the sizes for CI.

use smst_bench::harness::{smoke_mode, BenchGroup};
use smst_engine::programs::MinIdFlood;
use smst_engine::{EngineConfig, LayoutPolicy, ParallelSyncRunner, Runner, StopCondition};
use smst_graph::generators::expander_graph;
use smst_graph::WeightedGraph;
use smst_sim::{RecordingObserver, TeeObserver};
use smst_telemetry::{RoundsArtifact, Telemetry};

const ROUNDS_PER_ITER: usize = 8;

fn halo_case(
    group: &mut BenchGroup,
    g: &WeightedGraph,
    engine: &EngineConfig,
    tag: &str,
    iters: u32,
) {
    let program = MinIdFlood::new(0);
    let mut direct = ParallelSyncRunner::from_config(&program, g.clone(), engine)
        .expect("a sync envelope is valid");
    group.bench(&format!("{tag}/direct"), iters, || {
        direct.run_until(StopCondition::Steps, ROUNDS_PER_ITER);
        direct.steps()
    });
    let mut halo = ParallelSyncRunner::from_config(&program, g.clone(), &engine.clone().halo(true))
        .expect("a sync halo envelope is valid");
    group.bench(&format!("{tag}/halo"), iters, || {
        halo.run_until(StopCondition::Steps, ROUNDS_PER_ITER);
        halo.steps()
    });
}

fn main() {
    let mut group = BenchGroup::new("halo");
    let (n, degree, threads, iters) = if smoke_mode() {
        (2_000usize, 8usize, 4usize, 10u32)
    } else {
        (100_000, 8, 4, 40)
    };
    let g = expander_graph(n, degree, 5);
    let program = MinIdFlood::new(0);
    let telemetry = Telemetry::from_env("halo");
    let mut artifact = RoundsArtifact::new("rounds_halo");
    for (label, layout) in [
        ("identity", LayoutPolicy::Identity),
        ("rcm", LayoutPolicy::Rcm),
    ] {
        let engine = EngineConfig::new().threads(threads).layout(layout);
        halo_case(
            &mut group,
            &g,
            &engine,
            &format!("expander/{n}/threads={threads}/{label}"),
            iters,
        );
        // geometry probe: the static plan sizes from the concrete runner,
        // plus the per-round exchanged bytes as the RoundObserver reports
        // them — one typed runner serves both reads
        let mut probe = ParallelSyncRunner::from_config(
            &program,
            g.clone(),
            &EngineConfig::new()
                .threads(threads)
                .layout(layout)
                .halo(true),
        )
        .expect("a sync halo envelope is valid");
        let run = format!("n={n};degree={degree};threads={threads};layout={label}");
        let recording = RecordingObserver::new();
        let mut tee = TeeObserver::new().with(Box::new(recording.clone()));
        if let Some(observer) = telemetry.observer(&run) {
            tee.push(observer);
        }
        probe.set_observer(Box::new(tee));
        probe.run_until(StopCondition::Steps, 4);
        let stats = recording.stats();
        assert_eq!(stats.len(), 4, "one callback per observed round");
        let plan = probe.halo_plan().expect("halo mode on");
        let max_shard = (0..plan.shard_count())
            .map(|s| plan.halo_size(s))
            .max()
            .unwrap_or(0);
        assert_eq!(
            stats[0].halo_bytes,
            plan.exchanged_bytes_per_round(std::mem::size_of::<u64>()) as u64,
            "observer-reported bytes must equal the plan's geometry"
        );
        group.record_meta(&format!("halo/{label}/entries"), plan.total_halo() as f64);
        group.record_meta(&format!("halo/{label}/max_shard"), max_shard as f64);
        group.record_meta(
            &format!("halo/{label}/bytes_per_round"),
            stats[0].halo_bytes as f64,
        );
        group.record_meta(
            &format!("halo/{label}/observed_round_ns"),
            recording.mean_round_ns(),
        );
        artifact.push(
            &format!("expander/{n}/threads={threads}/{label}"),
            &run,
            stats,
        );
    }
    artifact.finish();
    telemetry.flush().expect("flushing the halo trace");
    group.finish();
}
