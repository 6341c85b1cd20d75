//! The four workloads: each is the paper's pipeline run a few times over,
//! timed from outside by the driver's own calls into the crates' public
//! functions.
//!
//! One *pipeline pass* is: generate the graph → build the instance and its
//! labels → instantiate a runner → warm up → a fault-free window of rounds →
//! a watch loop of single steps with a stop check after each → inject a
//! fault → step to the first alarm → tear down. An untraced run makes
//! several identical passes and reports every timing from the fastest
//! repetition of each of a pass's calls ([`BestCalls`] says why); a traced
//! run makes one pass with tracing off and one with spans and a round
//! observer on, then measures the layers one by one.
//!
//! `--seconds` sets the number of passes ([`FULL_SECONDS`] gives the
//! numbers written below), never a deadline, so a pass is the same calls in
//! every run and counts repeat from run to run.

use crate::stats::{self, median, percentile, tail_percentile};
use crate::trace::{self, BestCalls, Tracer};
use smst_core::faults::{corrupt, FaultKind};
use smst_core::partition::build_partitions;
use smst_core::strings::build_strings;
use smst_core::{CoreVerifier, Marker, MstVerificationScheme, SyncMst};
use smst_engine::programs::AlarmedFlood;
use smst_engine::{EngineConfig, GraphFamily, LayoutPolicy, Runner, StopCondition};
use smst_graph::generators::random_connected_graph;
use smst_graph::mst::kruskal;
use smst_graph::{NodeId, RootedTree, WeightedGraph};
use smst_labeling::{Instance, OneRoundScheme, SpanningTreeScheme};
use smst_net::{Endpoint, RemoteRunner};
use smst_rng::{Rng, RngCore, SeedableRng, StdRng};
use smst_selfstab::{SelfStabilizingMst, Variant};
use smst_sim::{BatchDaemon, ChunkedDaemon, Daemon, FaultPlan, NodeProgram, RecordingObserver};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// `--seconds` at which the pass counts below are taken as written.
const FULL_SECONDS: f64 = 20.0;
/// Engine threads of the pipeline passes: fixed, never the host's core
/// count, so two hosts run the same program. One, because on a 2-vCPU
/// shared host a second thread times where the hypervisor put the vCPUs
/// (the same rounds ran at 0.55× to 1.1× the one-thread time from one run to
/// the next); the probes compare [`PEERS`] threads with one.
const THREADS: usize = 1;
/// Remote worker processes, and the thread count of the layer probes.
const PEERS: usize = 2;
/// Rounds per slice and slices per execution path of the layer probes.
const PROBE_ROUNDS: usize = 24;
const PROBE_SLICES: usize = 4;
/// Simultaneous activations per batch of the asynchronous workload.
const ASYNC_BATCH: usize = 64;
/// The root span of one pipeline pass.
const PIPELINE: &str = "pipeline";
/// The calls of a pass's set-up stage.
const SETUP_CALLS: [&str; 7] = [
    "graph.generate",
    "graph.mst",
    "labeling.instance",
    "core.marker",
    "core.verifier_build",
    "engine.instantiate",
    "net.launch",
];
/// A register value the flood's decay (one halving per step) needs 24
/// steps to clear, written near the monitor: the wave floods the
/// neighbourhood, the monitor alarms, the garbage dies out and the true
/// maximum floods back.
const FLOOD_GARBAGE: u64 = 1 << 40;
/// Waves hit nodes at most this many ring hops from the monitor (every
/// circulant expander keeps offset 1), so the garbage always arrives
/// before it has decayed.
const FLOOD_REACH: usize = 16;

/// Output checks: each is one operation of the run's failure count.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("smst-e2e: CHECK FAILED: {what}");
        }
    }
}

/// What one run hands back to be printed.
#[derive(Debug)]
pub struct RunOutput {
    /// The run's output checks.
    pub checks: Checks,
    /// Every metric of the run's kind (end-to-end or per-layer), by name.
    pub metrics: BTreeMap<String, f64>,
    /// `# …` lines: sample counts and sizes behind the metrics.
    pub notes: Vec<String>,
}

/// Span names of the layer that executes a workload's rounds.
struct Layer {
    run: &'static str,
    /// One chunk of an untraced pass's fault-free window.
    window: &'static str,
    step: &'static str,
    stop: &'static str,
}

const ENGINE: Layer = Layer {
    run: "engine.run",
    window: "engine.window",
    step: "engine.step",
    stop: "engine.stop_check",
};

const NET: Layer = Layer {
    run: "net.run",
    window: "net.window",
    step: "net.step",
    stop: "net.stop_check",
};

/// The round phases of one pipeline pass.
#[derive(Debug, Clone, Copy)]
struct Rounds {
    /// Identical pipeline passes of an untraced run: the repetitions of
    /// each call. As many as the set-up stage's length leaves room for;
    /// below eight the fastest of them still moves with the host.
    passes: usize,
    /// Warm-up: a stop condition and its step budget.
    warm: (StopCondition, usize),
    /// The fault-free window: how many timed calls, and the rounds of each
    /// — few enough (15–35 ms a call) that one of a call's repetitions falls
    /// between two disturbances of the host.
    chunks: usize,
    chunk_rounds: usize,
    /// Single steps, each followed by a stop check, before the fault.
    watch: usize,
}

impl Rounds {
    fn window(&self) -> usize {
        self.chunks * self.chunk_rounds
    }
}

/// Samples pooled over a run's pipeline passes.
#[derive(Debug, Default)]
struct Samples {
    /// Wall time of each pass's set-up stage, s.
    setup_s: Vec<f64>,
    /// Activations in one untraced pass's fault-free window.
    window_activations: usize,
    /// Activations per second of each fault-free chunk (untraced passes).
    chunk_rates: Vec<f64>,
    /// Single-step wall time in the watch and detection loops, µs.
    step_us: Vec<f64>,
    /// Stop-check (`any_alarm` / `all_accept`) wall time, µs.
    stop_us: Vec<f64>,
    /// Single-step wall time of the traced pass's window, µs.
    window_step_us: Vec<f64>,
}

/// The state one run threads through its passes.
struct Cx {
    tracer: Tracer,
    checks: Checks,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
    samples: Samples,
    /// The traced pass's round observer and which of its records belong to
    /// the fault-free window.
    observed: Option<(RecordingObserver, std::ops::Range<usize>)>,
    /// Every timed call of a pass, at its fastest over the passes.
    best: BestCalls,
}

impl Cx {
    /// One timed call into a layer: a span when tracing is on, and a
    /// repetition of that call in the run's table of fastest calls.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let (value, secs) = self.tracer.call(name, f);
        self.best.record(name, secs);
        (value, secs)
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// What one pipeline pass measured.
struct PassTimes {
    e2e_s: f64,
    bits_max: u64,
    /// Summed peak resident set of the pass's worker processes (remote).
    workers_hwm_kib: u64,
}

fn bits_max(passes: &[PassTimes]) -> u64 {
    passes.iter().map(|p| p.bits_max).max().unwrap_or(0)
}

/// Sub-seeds of one run, all drawn from `--seed`.
struct Seeds {
    graph: u64,
    daemon: u64,
    faults: u64,
}

impl Seeds {
    fn derive(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Seeds {
            graph: rng.next_u64(),
            daemon: rng.next_u64(),
            faults: rng.next_u64(),
        }
    }
}

/// Runs one workload once and returns its metrics.
pub fn run(workload: &str, seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> RunOutput {
    let seeds = Seeds::derive(seed);
    let scale = seconds as f64 / FULL_SECONDS;
    let rounds = |passes: usize, warm, (chunks, chunk_rounds), watch| Rounds {
        passes: ((passes as f64 * scale).round() as usize).max(2),
        warm,
        chunks,
        chunk_rounds,
        watch,
    };
    let steps = |n| (StopCondition::Steps, n);
    let daemon = Daemon::Random {
        seed: seeds.daemon,
        extra_factor: 1,
    };
    let mut cx = Cx {
        tracer: Tracer::new(),
        checks: Checks::default(),
        metrics: BTreeMap::new(),
        notes: Vec::new(),
        samples: Samples::default(),
        observed: None,
        best: BestCalls::default(),
    };
    match workload {
        "construct_rc8k" => run_verifier(
            &VerifierSpec {
                n: 8000,
                daemon: None,
                rounds: rounds(10, steps(16), (16, 2), 16),
            },
            &seeds,
            traced,
            &mut cx,
        ),
        "verify_sync_rc4k" => run_verifier(
            &VerifierSpec {
                n: 4000,
                daemon: None,
                rounds: rounds(10, steps(32), (24, 8), 72),
            },
            &seeds,
            traced,
            &mut cx,
        ),
        "verify_async_rc2k" => run_verifier(
            &VerifierSpec {
                n: 2000,
                daemon: Some(daemon),
                rounds: rounds(20, steps(32), (16, 8), 120),
            },
            &seeds,
            traced,
            &mut cx,
        ),
        "flood_remote_x100k" => run_flood(
            &FloodSpec {
                n: 100_000,
                degree: 8,
                rounds: rounds(16, (StopCondition::AllAccept, 128), (20, 8), 32),
                waves: 2,
                registers_per_wave: 4,
            },
            &seeds,
            traced,
            out_dir,
            &mut cx,
        ),
        other => panic!("unknown workload `{other}`"),
    }
    if traced {
        let cover = trace::cover(cx.tracer.spans(), PIPELINE);
        cx.checks.check(
            cover >= 0.95,
            "layer spans cover 95 % of the traced pipeline pass",
        );
        cx.set("trace.cover", cover);
        // a layer that is not on this workload's path was busy for 0
        for (name, _) in crate::spec::PER_LAYER {
            cx.metrics.entry(name.to_string()).or_insert(0.0);
        }
        let path = out_dir.join(format!("trace_{workload}.jsonl"));
        cx.tracer
            .write_jsonl(&path, workload)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        let spans = cx.tracer.spans().len();
        cx.notes
            .push(format!("{spans} spans written to {}", path.display()));
    }
    RunOutput {
        checks: cx.checks,
        metrics: cx.metrics,
        notes: cx.notes,
    }
}

// ---------------------------------------------------------------- rounds

/// Warm-up, fault-free window and watch loop of one pipeline pass.
fn drive<P: NodeProgram>(runner: &mut dyn Runner<P>, layer: &Layer, rounds: &Rounds, cx: &mut Cx) {
    let (warmed, _) = cx.call(layer.run, || runner.run_until(rounds.warm.0, rounds.warm.1));
    cx.checks.check(
        warmed.is_some() && !runner.any_alarm(),
        "the warm-up ends in budget and without an alarm",
    );
    if cx.tracer.enabled() {
        // every round boundary visible: single steps, one span each
        let first = runner.steps();
        for _ in 0..rounds.window() {
            let ((), secs) = cx.call(layer.step, || runner.step());
            cx.samples.window_step_us.push(secs * 1e6);
        }
        if let Some((_, window)) = cx.observed.as_mut() {
            *window = first..runner.steps();
        }
    } else {
        let first = runner.activations();
        for _ in 0..rounds.chunks {
            let before = runner.activations();
            let (_, secs) = cx.call(layer.window, || {
                runner.run_until(StopCondition::Steps, rounds.chunk_rounds)
            });
            let done = (runner.activations() - before) as f64;
            cx.samples.chunk_rates.push(done / secs);
        }
        cx.samples.window_activations = runner.activations() - first;
    }
    cx.checks
        .check(!runner.any_alarm(), "no alarm after the fault-free window");
    let mut quiet = true;
    for _ in 0..rounds.watch {
        quiet &= !step_and_check(runner, layer, cx, |r| r.any_alarm());
    }
    cx.checks
        .check(quiet, "no alarm in the fault-free watch loop");
}

/// One single step and one stop check, both timed.
fn step_and_check<P: NodeProgram>(
    runner: &mut dyn Runner<P>,
    layer: &Layer,
    cx: &mut Cx,
    stop: impl Fn(&dyn Runner<P>) -> bool,
) -> bool {
    let ((), step_s) = cx.call(layer.step, || runner.step());
    let (met, stop_s) = cx.call(layer.stop, || stop(runner));
    cx.samples.step_us.push(step_s * 1e6);
    cx.samples.stop_us.push(stop_s * 1e6);
    met
}

/// The driver's own `step()` + stop-check loop (what `drive_until` does,
/// with each step timed): rounds until `stop` holds, `None` past `budget`.
fn step_until<P: NodeProgram>(
    runner: &mut dyn Runner<P>,
    layer: &Layer,
    budget: usize,
    cx: &mut Cx,
    stop: impl Fn(&dyn Runner<P>) -> bool + Copy,
) -> Option<usize> {
    (1..=budget).find(|_| step_and_check(runner, layer, cx, stop))
}

fn max_state_bits<P: NodeProgram>(program: &P, runner: &dyn Runner<P>) -> u64 {
    (0..runner.graph().node_count())
        .map(|v| program.state_bits(&runner.context(NodeId(v)), runner.state(NodeId(v))))
        .max()
        .unwrap_or(0)
}

/// Attaches a recording observer for the traced pass (round-granular
/// dispatch and the per-round phase split).
fn observe<P: NodeProgram>(runner: &mut dyn Runner<P>, cx: &mut Cx) {
    if cx.tracer.enabled() {
        let recording = RecordingObserver::new();
        runner.set_observer(Box::new(recording.clone()));
        cx.observed = Some((recording, 0..0));
    }
}

/// `true` when two runners hold the same registers after `rounds` steps.
fn same_registers<P>(mut a: Box<dyn Runner<P> + '_>, mut b: Box<dyn Runner<P> + '_>) -> bool
where
    P: NodeProgram,
    P::State: PartialEq,
{
    a.run_until(StopCondition::Steps, 32);
    b.run_until(StopCondition::Steps, 32);
    a.states_snapshot() == b.states_snapshot()
}

// ------------------------------------------------------------- verifier

struct VerifierSpec {
    n: usize,
    /// The central daemon of an asynchronous workload.
    daemon: Option<Daemon>,
    rounds: Rounds,
}

impl VerifierSpec {
    fn edges(&self) -> usize {
        3 * self.n
    }

    /// The envelope of the pipeline passes: synchronous unless the workload
    /// has a daemon.
    fn config(&self) -> EngineConfig {
        let sync = EngineConfig::new().threads(THREADS);
        match &self.daemon {
            None => sync,
            Some(daemon) => sync.asynchronous(daemon.clone(), ASYNC_BATCH),
        }
    }
}

/// What a pass leaves behind for the checks and probes that follow it.
struct Built {
    instance: Instance,
    tree: RootedTree,
    verifier: CoreVerifier,
}

fn mst_instance(n: usize, m: usize, seed: u64, cx: &mut Cx) -> (Instance, RootedTree) {
    let (graph, _) = cx.call("graph.generate", || random_connected_graph(n, m, seed));
    let (tree, _) = cx.call("graph.mst", || {
        kruskal(&graph)
            .rooted_at(&graph, NodeId(0))
            .expect("a connected graph roots at any node")
    });
    let ((instance, is_mst), _) = cx.call("labeling.instance", || {
        let instance = Instance::from_tree(graph, &tree);
        let is_mst = instance.satisfies_mst();
        (instance, is_mst)
    });
    cx.checks
        .check(is_mst, "the Kruskal tree satisfies the MST predicate");
    (instance, tree)
}

fn verifier_pass(spec: &VerifierSpec, seeds: &Seeds, cx: &mut Cx) -> (PassTimes, Built) {
    cx.best.restart();
    let root = cx.tracer.begin(PIPELINE);
    let started = Instant::now();
    let (instance, tree) = mst_instance(spec.n, spec.edges(), seeds.graph, cx);
    let (labels, _) = cx.call("core.marker", || {
        let (labels, _) = Marker
            .label(&instance)
            .expect("the marker labels a correct instance");
        labels
    });
    let (verifier, _) = cx.call("core.verifier_build", || {
        MstVerificationScheme::new().verifier(&instance, labels)
    });
    let (mut runner, _) = cx.call("engine.instantiate", || {
        spec.config()
            .instantiate(&verifier, instance.graph.clone())
            .expect("a valid envelope")
    });
    cx.samples.setup_s.push(started.elapsed().as_secs_f64());

    observe(&mut *runner, cx);
    drive(&mut *runner, &ENGINE, &spec.rounds, cx);
    let (bits_max, _) = cx.call("sim.state_bits", || max_state_bits(&verifier, &*runner));

    // a structural fault: one corrupted SP distance, caught by the 1-round
    // checks of the node or a neighbour
    let mut rng = StdRng::seed_from_u64(seeds.faults);
    let node = NodeId(rng.gen_range(0..spec.n));
    let fault_seed = rng.next_u64();
    cx.call("sim.apply_faults", || {
        runner.apply_faults(&FaultPlan::single(node), &mut |_, state| {
            corrupt(state, FaultKind::SpDistance, fault_seed)
        })
    });
    let alarmed = step_until(&mut *runner, &ENGINE, 2, cx, |r| r.any_alarm());
    cx.checks.check(
        alarmed.is_some(),
        "a corrupted SP distance raises an alarm within 2 rounds",
    );
    cx.call("engine.drop", || drop(runner));
    let e2e_s = cx.tracer.end(root);
    let times = PassTimes {
        e2e_s,
        bits_max,
        workers_hwm_kib: 0,
    };
    let built = Built {
        instance,
        tree,
        verifier,
    };
    (times, built)
}

fn run_verifier(spec: &VerifierSpec, seeds: &Seeds, traced: bool, cx: &mut Cx) {
    let passes = if traced { 2 } else { spec.rounds.passes };
    let mut times = Vec::new();
    let mut built = None;
    for pass in 0..passes {
        cx.tracer.set_enabled(traced && pass + 1 == passes);
        let (t, b) = verifier_pass(spec, seeds, cx);
        times.push(t);
        built = Some(b);
    }
    let built = built.expect("at least one pass");
    let graph = &built.instance.graph;
    let n = spec.n;
    let log_n = (n as f64).log2();

    // the oracle of a synchronous envelope is the sequential reference; an
    // asynchronous batch schedule has no sequential twin, its contract is
    // thread-count invariance
    let oracle = match &spec.daemon {
        None => EngineConfig::reference(),
        Some(daemon) => EngineConfig::new()
            .threads(PEERS)
            .asynchronous(daemon.clone(), ASYNC_BATCH),
    };
    let instantiate = |config: &EngineConfig| {
        config
            .instantiate(&built.verifier, graph.clone())
            .expect("a valid envelope")
    };
    cx.checks.check(
        same_registers(instantiate(&spec.config()), instantiate(&oracle)),
        "registers after 32 rounds equal the oracle backend bit for bit",
    );
    let bits_max = bits_max(&times);
    cx.checks.check(
        bits_max > 0 && bits_max as f64 <= 128.0 * log_n,
        "the largest register stays within 128·log2(n) bits",
    );

    cx.notes.push(format!(
        "n={n} m={} window={} rounds in {} chunks, watch={} steps, envelope {}",
        graph.edge_count(),
        spec.rounds.window(),
        spec.rounds.chunks,
        spec.rounds.watch,
        spec.config().describe(),
    ));
    if !traced {
        end_to_end(&times, &ENGINE, cx);
        return;
    }

    let probes_root = cx.tracer.begin("probes");
    marker_layers(spec, seeds, &built, cx);
    let probes = engine_probes(&built.verifier, graph, (StopCondition::Steps, 16), cx);
    probes.report(cx);
    cx.set("core.step_ns_per_node", probes.round_us[0] * 1e3 / n as f64);
    cx.set("core.bits_per_log_n", bits_max as f64 / log_n);
    train_trials(spec, seeds, &built, cx);
    round_metrics("engine", cx);
    if let Some(daemon) = &spec.daemon {
        cx.set(
            "engine.async_ns_per_activation",
            1e9 / median(&cx.samples.chunk_rates),
        );
        let chunked = ChunkedDaemon::new(daemon.clone(), ASYNC_BATCH);
        let units = 8;
        let batches: usize = (0..units).map(|u| chunked.unit_batches(n, u).len()).sum();
        cx.set(
            "engine.async_batches_per_unit",
            batches as f64 / units as f64,
        );
    }
    selfstab_probe(seeds, cx);
    cx.set("trace.overhead", times[1].e2e_s / times[0].e2e_s);
    cx.tracer.end(probes_root);
}

/// The construction layers: the traced pass's spans, the marker's stages
/// timed by calling the same public functions again, and the marker's
/// growth exponent from a second instance of half the size.
fn marker_layers(spec: &VerifierSpec, seeds: &Seeds, built: &Built, cx: &mut Cx) {
    for (metric, span) in [
        ("graph.generate_ms", "graph.generate"),
        ("graph.mst_ms", "graph.mst"),
        ("labeling.instance_ms", "labeling.instance"),
        ("core.marker_ms", "core.marker"),
        ("core.verifier_build_ms", "core.verifier_build"),
    ] {
        cx.set(metric, cx.tracer.total_ms(span));
    }
    let marker_ms = cx.tracer.total_ms("core.marker");
    let graph = &built.instance.graph;

    let (outcome, sync_s) = cx.call("core.sync_mst", || {
        SyncMst.run_for_candidate(graph, &built.tree)
    });
    let sorted = |mut edges: Vec<_>| {
        edges.sort_unstable();
        edges
    };
    cx.checks.check(
        sorted(outcome.tree.edges()) == sorted(built.tree.edges()),
        "SYNC_MST rebuilds the Kruskal tree",
    );
    let (_, strings_s) = cx.call("core.strings", || {
        build_strings(graph, &outcome.tree, &outcome.hierarchy)
    });
    let (_, partitions_s) = cx.call("core.partitions", || {
        build_partitions(graph, &outcome.tree, &outcome.hierarchy)
    });
    let (_, sp_s) = cx.call("labeling.sp_mark", || {
        SpanningTreeScheme
            .mark(&built.instance)
            .expect("a spanning tree has SP labels")
    });
    cx.set("core.sync_mst_ms", sync_s * 1e3);
    cx.set("core.strings_ms", strings_s * 1e3);
    cx.set("core.partitions_ms", partitions_s * 1e3);
    cx.set("labeling.sp_mark_ms", sp_s * 1e3);
    cx.set(
        "core.marker_self_ms",
        marker_ms - (sync_s + strings_s + partitions_s + sp_s) * 1e3,
    );

    let n = spec.n;
    let (half, _) = mst_instance(n / 2, spec.edges() / 2, seeds.graph, cx);
    let (_, half_s) = cx.call("core.marker_half", || {
        Marker
            .label(&half)
            .expect("the marker labels a correct instance")
    });
    cx.set("core.marker_growth_exp", (marker_ms / 1e3 / half_s).log2());
    cx.notes.push(format!(
        "core.marker_growth_exp = log2(t(n={n}) / t(n={})), t = {marker_ms:.1} ms / {:.1} ms",
        n / 2,
        half_s * 1e3
    ));
}

/// Train-borne detection: one corrupted stored piece weight per trial, on
/// a fresh warmed-up runner. A copy of a piece that no node consumes is
/// legitimately never noticed, so a silent trial is a count, not a failure.
fn train_trials(spec: &VerifierSpec, seeds: &Seeds, built: &Built, cx: &mut Cx) {
    let trials = 4;
    let log_n = (spec.n as f64).log2();
    let budget = (log_n.ceil() as usize).pow(2);
    let mut rng = StdRng::seed_from_u64(seeds.faults);
    let mut detected = Vec::new();
    for _ in 0..trials {
        let node = NodeId(rng.gen_range(0..spec.n));
        let fault_seed = rng.next_u64();
        let mut runner = spec
            .config()
            .instantiate(&built.verifier, built.instance.graph.clone())
            .expect("a valid envelope");
        cx.call("engine.run", || {
            runner.run_until(spec.rounds.warm.0, spec.rounds.warm.1)
        });
        runner.apply_faults(&FaultPlan::single(node), &mut |_, state| {
            corrupt(state, FaultKind::StoredPieceWeight, fault_seed)
        });
        let (rounds, _) = cx.call("engine.run", || {
            runner.run_until(StopCondition::FirstAlarm, budget)
        });
        detected.extend(rounds.map(|r| r as f64));
    }
    let p50 = if detected.is_empty() {
        0.0
    } else {
        median(&detected)
    };
    cx.set("core.detect_rounds_p50", p50);
    cx.set(
        "core.detect_rounds_max",
        detected.iter().copied().fold(0.0, f64::max),
    );
    cx.set("core.detect_undetected", (trials - detected.len()) as f64);
    cx.notes.push(format!(
        "core.detect_*: {trials} stored-piece trials, budget {budget} rounds = ceil(log2 n)^2; \
         O(log^2 n) = {:.0}, KMW floor sqrt(log n / log log n) = {:.2}",
        log_n * log_n,
        (log_n / log_n.log2()).sqrt()
    ));
}

// ---------------------------------------------------------------- flood

struct FloodSpec {
    n: usize,
    degree: usize,
    rounds: Rounds,
    waves: usize,
    registers_per_wave: usize,
}

impl FloodSpec {
    fn family(&self) -> GraphFamily {
        GraphFamily::Expander {
            n: self.n,
            degree: self.degree,
        }
    }
}

fn launch<'p>(
    program: &'p AlarmedFlood,
    graph: WeightedGraph,
    out_dir: &Path,
) -> RemoteRunner<'p, AlarmedFlood> {
    // a short relative socket path inside the checkout (sun_path holds
    // 108 bytes; the workers inherit this working directory)
    let socket = out_dir.join(format!("w{}.sock", std::process::id()));
    RemoteRunner::launch_on(
        program,
        graph,
        &EngineConfig::remote(PEERS),
        Endpoint::Unix(socket),
    )
    .expect("the remote backend launches its workers")
}

fn flood_pass(spec: &FloodSpec, seeds: &Seeds, out_dir: &Path, cx: &mut Cx) -> PassTimes {
    let program = AlarmedFlood::new(0, spec.n as u64 - 1);
    cx.best.restart();
    let root = cx.tracer.begin(PIPELINE);
    let started = Instant::now();
    let (graph, _) = cx.call("graph.generate", || spec.family().build(seeds.graph));
    let (mut runner, _) = cx.call("net.launch", || launch(&program, graph, out_dir));
    cx.samples.setup_s.push(started.elapsed().as_secs_f64());

    observe(&mut runner, cx);
    drive(&mut runner, &NET, &spec.rounds, cx);
    let (bits_max, _) = cx.call("sim.state_bits", || max_state_bits(&program, &runner));

    let mut rng = StdRng::seed_from_u64(seeds.faults);
    for _ in 0..spec.waves {
        let hit: Vec<NodeId> = (0..spec.registers_per_wave)
            .map(|_| NodeId(rng.gen_range(1..=FLOOD_REACH)))
            .collect();
        cx.call("sim.apply_faults", || {
            runner.apply_faults(&FaultPlan::new(hit), &mut |_, state| *state = FLOOD_GARBAGE)
        });
        let alarmed = step_until(&mut runner, &NET, FLOOD_REACH, cx, |r| r.any_alarm());
        cx.checks.check(
            alarmed.is_some(),
            "a garbage wave reaches the monitor within its hop distance",
        );
        let healed = step_until(&mut runner, &NET, 256, cx, |r| r.all_accept());
        cx.checks.check(
            healed.is_some(),
            "the flood accepts again within 256 rounds of the alarm",
        );
    }
    let workers_hwm_kib = stats::children_hwm_kib();
    cx.call("net.shutdown", || drop(runner));
    let e2e_s = cx.tracer.end(root);
    PassTimes {
        e2e_s,
        bits_max,
        workers_hwm_kib,
    }
}

fn run_flood(spec: &FloodSpec, seeds: &Seeds, traced: bool, out_dir: &Path, cx: &mut Cx) {
    let passes = if traced { 2 } else { spec.rounds.passes };
    let mut times = Vec::new();
    for pass in 0..passes {
        cx.tracer.set_enabled(traced && pass + 1 == passes);
        times.push(flood_pass(spec, seeds, out_dir, cx));
    }
    let n = spec.n;
    let program = AlarmedFlood::new(0, n as u64 - 1);
    let halo = EngineConfig::new().threads(PEERS).halo(true);

    let graph = spec.family().build(seeds.graph);
    cx.checks.check(
        same_registers(
            Box::new(launch(&program, graph.clone(), out_dir)),
            halo.instantiate(&program, graph.clone())
                .expect("a valid envelope"),
        ),
        "registers after 32 rounds equal the in-process halo backend bit for bit",
    );
    cx.checks.check(
        bits_max(&times) == 64,
        "a flood register is one 64-bit word",
    );

    cx.notes.push(format!(
        "n={n} m={} window={} rounds in {} chunks, watch={} steps, {} waves of {} registers, \
             envelope {}",
        graph.edge_count(),
        spec.rounds.window(),
        spec.rounds.chunks,
        spec.rounds.watch,
        spec.waves,
        spec.registers_per_wave,
        EngineConfig::remote(PEERS).describe(),
    ));
    if !traced {
        end_to_end(&times, &NET, cx);
        return;
    }

    let probes_root = cx.tracer.begin("probes");
    cx.set("graph.generate_ms", cx.tracer.total_ms("graph.generate"));
    cx.set("net.launch_ms", cx.tracer.total_ms("net.launch"));
    cx.set("net.shutdown_ms", cx.tracer.total_ms("net.shutdown"));
    let probes = engine_probes(&program, &graph, (StopCondition::AllAccept, 128), cx);
    probes.report(cx);
    round_metrics("net", cx);
    let remote_us = 1e6 * n as f64 / median(&cx.samples.chunk_rates);
    cx.set(
        "net.remote_over_sharded_halo",
        remote_us / probes.round_us[3],
    );
    cx.notes.push(format!(
        "net.remote_over_sharded_halo = {remote_us:.1} us / {:.1} us per round",
        probes.round_us[3]
    ));
    selfstab_probe(seeds, cx);
    cx.set("trace.overhead", times[1].e2e_s / times[0].e2e_s);
    cx.tracer.end(probes_root);
}

// -------------------------------------------------------------- metrics

/// The end-to-end metrics of an untraced run: the pass as its fastest calls
/// add up (see [`BestCalls`]). The note line adds the medians, which are
/// what this host delivered while the run lasted.
fn end_to_end(times: &[PassTimes], layer: &Layer, cx: &mut Cx) {
    let e2e: Vec<f64> = times.iter().map(|t| t.e2e_s).collect();
    let s = &cx.samples;
    let workers_kib = times.iter().map(|t| t.workers_hwm_kib).max().unwrap_or(0);
    let peak_kib = stats::own_kib("VmHWM") + workers_kib;
    let (_, setup_s) = cx.best.total(|name| SETUP_CALLS.contains(&name));
    let (calls, e2e_s) = cx.best.total(|_| true);
    let (_, window_s) = cx.best.total(|name| name == layer.window);
    let (steps, steps_s) = cx.best.total(|name| name == layer.step);
    let values = [
        ("setup_s", setup_s),
        ("e2e_s", e2e_s),
        (
            "steady_node_rounds_per_s",
            s.window_activations as f64 / window_s,
        ),
        ("round_us_mean", steps_s * 1e6 / steps as f64),
        ("peak_rss_mb", peak_kib as f64 / 1024.0),
        ("bits_per_node_max", bits_max(times) as f64),
    ];
    let tail = tail_percentile(s.step_us.len());
    let note = format!(
        "{} passes of {calls} timed calls, {} chunks and {steps} single steps each; medians as \
         timed: set-up {:.4} s, pass {:.4} s, chunk {:.0} /s, step {:.1} us (p{tail} = {:.1} us), \
         stop check {:.2} us",
        times.len(),
        s.chunk_rates.len() / times.len(),
        median(&s.setup_s),
        median(&e2e),
        median(&s.chunk_rates),
        median(&s.step_us),
        percentile(&s.step_us, tail),
        median(&s.stop_us),
    );
    for (name, value) in values {
        cx.set(name, value);
    }
    cx.notes.push(note);
}

/// Round time of each execution path on one program and graph: one runner
/// alive at a time (live runners share the allocator and slow each other
/// down), [`PROBE_SLICES`] slices of [`PROBE_ROUNDS`] unobserved rounds
/// each, median slice.
struct Probes {
    /// µs per round: reference, 1 thread, 2 threads, 2 + halo, 2 + RCM.
    round_us: [f64; 5],
    /// Instantiate ms of the same five envelopes.
    instantiate_ms: [f64; 5],
}

fn engine_probes<P>(
    program: &P,
    graph: &WeightedGraph,
    warm: (StopCondition, usize),
    cx: &mut Cx,
) -> Probes
where
    P: NodeProgram + Sync + 'static,
    P::State: Send + Sync,
{
    let t2 = EngineConfig::new().threads(PEERS);
    let envelopes = [
        EngineConfig::reference(),
        EngineConfig::new(),
        t2.clone(),
        t2.clone().halo(true),
        t2.layout(LayoutPolicy::Rcm),
    ];
    let mut probes = Probes {
        round_us: [0.0; 5],
        instantiate_ms: [0.0; 5],
    };
    for (i, config) in envelopes.iter().enumerate() {
        let copy = graph.clone();
        let (mut runner, secs) = cx.call("engine.instantiate", || {
            config.instantiate(program, copy).expect("a valid envelope")
        });
        probes.instantiate_ms[i] = secs * 1e3;
        cx.call("engine.run", || runner.run_until(warm.0, warm.1));
        let slices: Vec<f64> = (0..PROBE_SLICES)
            .map(|_| {
                let (_, secs) = cx.call("engine.run", || {
                    runner.run_until(StopCondition::Steps, PROBE_ROUNDS)
                });
                secs * 1e6 / PROBE_ROUNDS as f64
            })
            .collect();
        probes.round_us[i] = median(&slices);
    }
    probes
}

impl Probes {
    fn report(&self, cx: &mut Cx) {
        let [reference, t1, t2, halo, rcm] = self.round_us;
        cx.set("sim.reference_round_us", reference);
        cx.set("engine.instantiate_ms", self.instantiate_ms[2]);
        cx.set("engine.instantiate_halo_ms", self.instantiate_ms[3]);
        cx.set("engine.instantiate_rcm_ms", self.instantiate_ms[4]);
        cx.set("engine.scaling_t2_over_t1", t2 / t1);
        cx.set("engine.sharded_t1_over_reference", t1 / reference);
        cx.set("engine.halo_over_direct", halo / t2);
        cx.set("engine.rcm_over_identity", rcm / t2);
        cx.notes.push(format!(
            "round us, median of {PROBE_SLICES} slices of {PROBE_ROUNDS} rounds: \
             reference {reference:.1}, t1 {t1:.1}, t2 {t2:.1}, t2+halo {halo:.1}, t2+rcm {rcm:.1} \
             (every X_over_Y is round time of X / round time of Y)"
        ));
    }
}

/// Round-time and phase metrics of the traced pass's window, under the
/// `engine.` or `net.` prefix of the layer that ran the rounds.
fn round_metrics(layer: &str, cx: &mut Cx) {
    let steps = &cx.samples.window_step_us;
    let count = steps.len();
    let tail = tail_percentile(count);
    let (recording, window) = cx.observed.as_ref().expect("the traced pass was observed");
    let stats = recording.stats();
    let window = &stats[window.clone()];
    let rounds = window.len() as f64;
    let sum =
        |field: fn(&smst_sim::RoundStats) -> u64| window.iter().map(field).sum::<u64>() as f64;
    let mean_us = |field| sum(field) / rounds / 1e3;
    let phase_cover = sum(|s| s.total_phase_ns()) / 1e3 / steps.iter().sum::<f64>();
    let values = [
        ("round_us_p50", median(steps)),
        ("round_us_tail", percentile(steps, tail)),
        ("round_tail_pct", tail),
        ("dispatch_us", mean_us(|s| s.dispatch_ns)),
        ("compute_us", mean_us(|s| s.compute_ns)),
        ("barrier_us", mean_us(|s| s.barrier_ns)),
        ("exchange_us", mean_us(|s| s.exchange_ns)),
        ("phase_cover", phase_cover),
        ("stop_check_us", median(&cx.samples.stop_us)),
        ("halo_bytes_per_round", sum(|s| s.halo_bytes) / rounds),
    ];
    for (name, value) in values {
        let name = format!("{layer}.{name}");
        // `engine.` has no halo bytes, `net.` no stop check: not in the table
        if crate::spec::PER_LAYER
            .iter()
            .any(|(listed, _)| *listed == name)
        {
            cx.set(&name, value);
        }
    }
    cx.notes.push(format!(
        "{layer} round metrics over {count} observed single steps; phase_cover {phase_cover:.3}"
    ));
}

/// The transformer's baseline: stabilise a 2000-node network from garbage.
fn selfstab_probe(seeds: &Seeds, cx: &mut Cx) {
    let graph = random_connected_graph(2000, 6000, seeds.graph);
    let (outcome, secs) = cx.call("selfstab.stabilize", || {
        SelfStabilizingMst::new(Variant::Paper).stabilize_from_garbage(&graph, seeds.faults)
    });
    cx.checks.check(
        outcome.output_correct,
        "the transformer stabilises to the MST from garbage",
    );
    cx.set("selfstab.stabilize_ms", secs * 1e3);
}
