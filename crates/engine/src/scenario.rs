//! Scenario specification and **the** fault-experiment driver.
//!
//! Every quantitative claim of the paper is measured by one protocol:
//! start from a configuration, let it run (the warm-up), corrupt `f`
//! registers, count the steps until the stop condition — first alarm, or
//! every node accepting again. [`run_fault_experiment`] is that protocol,
//! written once over `&mut dyn` [`Runner`]: a chunked
//! [`try_run_until`](Runner::try_run_until)`(Steps, at)` warm-up,
//! [`apply_faults`](Runner::apply_faults), then
//! [`try_run_until`](Runner::try_run_until)`(until, …)`. The figures, the
//! adversary's trials and the KMW accounting are callers of it (the paper's
//! verifier reaches it through `smst_bench::engine_metrics::verifier_point`);
//! the decisions that make numbers comparable — what counts as latency 1,
//! what an alarm during the warm-up means — are made here and nowhere else.
//! (Recurring waves over an unbounded schedule are a different protocol
//! with per-wave books: [`run_chaos`](crate::run_chaos).)
//!
//! A [`ScenarioSpec`] is the declarative input of one such run: the
//! topology [`GraphFamily`] and its seed, at most one [`FaultBurst`], a
//! [`StopCondition`], and the execution envelope as an [`EngineConfig`]
//! (threads, layout, daemon, recovery, … are set *there*:
//! `.engine(EngineConfig::new().threads(3))`). [`ScenarioSpec::run`]
//! builds graph and runner; [`ScenarioSpec::run_on`] drives a runner the
//! caller already holds — the entry point for programs built from the
//! scenario's graph (the paper's verifier carries its proof labels) and
//! for observed runs ([`Runner::set_observer`]). Invalid envelopes and
//! unrecovered worker failures surface as typed [`EngineError`]s.

use crate::config::{EngineConfig, EngineError};
use crate::runner::Runner;
pub use crate::runner::StopCondition;
use smst_graph::generators::{
    caterpillar_graph, complete_graph, expander_graph, grid_graph, kmw_cluster_tree,
    kmw_cluster_tree_node_count, kmw_hybrid_graph, kmw_hybrid_node_count, path_graph,
    random_connected_graph, ring_graph, star_graph,
};
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{FaultPlan, Network, NodeProgram};

/// The topology families a scenario can run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphFamily {
    /// A path on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// A ring on `n` nodes.
    Ring {
        /// Node count.
        n: usize,
    },
    /// A `rows × cols` grid.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// A star with `n − 1` leaves.
    Star {
        /// Node count.
        n: usize,
    },
    /// A caterpillar with `spine` spine nodes and `legs` leaves each.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// A random connected graph with `n` nodes and ≈ `m` edges.
    RandomConnected {
        /// Node count.
        n: usize,
        /// Approximate edge count.
        m: usize,
    },
    /// A random circulant expander of the given (even) degree.
    Expander {
        /// Node count.
        n: usize,
        /// Target degree.
        degree: usize,
    },
    /// The complete graph on `n` nodes.
    Complete {
        /// Node count.
        n: usize,
    },
    /// A KMW-style cluster tree (the hard family for lower-bound
    /// accounting; a simplified realization of the `CT_k` skeleton from
    /// "A Breezing Proof of the KMW Bound").
    KmwClusterTree {
        /// Cluster-hierarchy depth (`k` in `CT_k`).
        levels: usize,
        /// Branching factor δ between adjacent cluster levels.
        delta: usize,
    },
    /// The triangle-free KMW hybrid (ring interiors + spread gadgets).
    KmwHybrid {
        /// Cluster-hierarchy depth.
        levels: usize,
        /// Branching factor δ between adjacent cluster levels.
        delta: usize,
    },
}

impl GraphFamily {
    /// Builds the graph of this family with the given seed.
    pub fn build(&self, seed: u64) -> WeightedGraph {
        match *self {
            GraphFamily::Path { n } => path_graph(n, seed),
            GraphFamily::Ring { n } => ring_graph(n, seed),
            GraphFamily::Grid { rows, cols } => grid_graph(rows, cols, seed),
            GraphFamily::Star { n } => star_graph(n, seed),
            GraphFamily::Caterpillar { spine, legs } => caterpillar_graph(spine, legs, seed),
            GraphFamily::RandomConnected { n, m } => random_connected_graph(n, m, seed),
            GraphFamily::Expander { n, degree } => expander_graph(n, degree, seed),
            GraphFamily::Complete { n } => complete_graph(n, seed),
            GraphFamily::KmwClusterTree { levels, delta } => kmw_cluster_tree(levels, delta, seed),
            GraphFamily::KmwHybrid { levels, delta } => kmw_hybrid_graph(levels, delta, seed),
        }
    }

    /// The number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        match *self {
            GraphFamily::Path { n }
            | GraphFamily::Ring { n }
            | GraphFamily::Star { n }
            | GraphFamily::RandomConnected { n, .. }
            | GraphFamily::Expander { n, .. }
            | GraphFamily::Complete { n } => n,
            GraphFamily::Grid { rows, cols } => rows * cols,
            GraphFamily::Caterpillar { spine, legs } => spine * (1 + legs),
            GraphFamily::KmwClusterTree { levels, delta } => {
                kmw_cluster_tree_node_count(levels, delta)
            }
            GraphFamily::KmwHybrid { levels, delta } => kmw_hybrid_node_count(levels, delta),
        }
    }
}

/// A transient-fault burst: at the start of step `at`, corrupt `count`
/// random registers (chosen with `seed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBurst {
    /// The step (round / time unit) before which the burst fires; the
    /// `at` steps before it are the warm-up.
    pub at: usize,
    /// How many distinct nodes are hit (clamped to the node count).
    pub count: usize,
    /// Node-selection seed.
    pub seed: u64,
}

/// A declarative description of one engine run.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Topology family.
    pub family: GraphFamily,
    /// Graph seed.
    pub seed: u64,
    /// The full execution envelope (backend, mode/daemon, threads, layout,
    /// halo, recovery, injection).
    pub engine: EngineConfig,
    /// The fault burst, if any (recurring faults are a
    /// [`FaultSchedule`](smst_sim::FaultSchedule) under
    /// [`run_chaos`](crate::run_chaos)).
    pub fault: Option<FaultBurst>,
    /// Termination condition.
    pub until: StopCondition,
}

impl ScenarioSpec {
    /// A synchronous, fault-free scenario on one thread.
    pub fn new(family: GraphFamily) -> Self {
        ScenarioSpec {
            family,
            seed: 0,
            engine: EngineConfig::new(),
            fault: None,
            until: StopCondition::Steps,
        }
    }

    /// Sets the graph seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution envelope (the graph seed stays the scenario's).
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Schedules the fault burst (replacing any earlier one).
    pub fn fault_burst(mut self, at: usize, count: usize, seed: u64) -> Self {
        self.fault = Some(FaultBurst { at, count, seed });
        self
    }

    /// Sets the termination condition.
    pub fn until(mut self, until: StopCondition) -> Self {
        self.until = until;
        self
    }

    /// Builds the scenario's graph.
    pub fn build_graph(&self) -> WeightedGraph {
        self.family.build(self.seed)
    }

    /// Runs the scenario: builds the graph, instantiates the envelope's
    /// runner over it and drives it with [`ScenarioSpec::run_on`].
    ///
    /// Returns the final registers (as a sequential [`Network`] for
    /// interop) plus the [`ScenarioReport`], or the typed [`EngineError`]
    /// of an invalid envelope or of a worker failure that exhausted the
    /// [`RecoveryPolicy`](crate::RecoveryPolicy).
    ///
    /// # Panics
    ///
    /// As [`run_fault_experiment`].
    pub fn run<P, F>(
        &self,
        program: &P,
        mut corrupt: F,
        max_steps: usize,
    ) -> Result<ScenarioOutcome<P>, EngineError>
    where
        P: NodeProgram + Sync + 'static,
        P::State: Send + Sync,
        F: FnMut(NodeId, &mut P::State),
    {
        let mut runner = self.engine.instantiate(program, self.build_graph())?;
        let report = self.run_on(runner.as_mut(), &mut corrupt, max_steps)?;
        Ok(ScenarioOutcome {
            report,
            network: runner.into_network(),
        })
    }

    /// Drives a runner the caller already holds through this scenario's
    /// burst and stop condition for at most `max_steps` steps — for
    /// programs built from [`ScenarioSpec::build_graph`] and for runners
    /// with an observer attached. The burst's plan is
    /// `FaultPlan::random(n, count.min(n), seed)` on the runner's graph.
    ///
    /// # Panics
    ///
    /// As [`run_fault_experiment`].
    pub fn run_on<P: NodeProgram>(
        &self,
        runner: &mut dyn Runner<P>,
        corrupt: &mut dyn FnMut(NodeId, &mut P::State),
        max_steps: usize,
    ) -> Result<ScenarioReport, EngineError> {
        let n = runner.graph().node_count();
        let burst = self
            .fault
            .map(|b| (b.at, FaultPlan::random(n, b.count.min(n), b.seed)));
        let burst = burst.as_ref().map(|(at, plan)| (*at, plan));
        run_fault_experiment(runner, burst, corrupt, self.until, max_steps)
    }
}

/// **The** single-burst fault experiment: `at` warm-up steps, corrupt the
/// planned registers with `corrupt` (in plan order), then run until
/// `until` holds — at most `max_steps` steps in total, on whatever
/// execution path `runner` is. With `burst == None` the run is measured
/// from its first step.
///
/// Two rules every caller inherits:
///
/// * **Latency counts executed steps after the injection and is ≥ 1** —
///   the step that reads the corrupted registers is the first that can
///   raise the alarm, so one step runs before `until` is consulted (a
///   burst that hits a monitor node directly is latency 1, not 0; the rule
///   [`run_chaos`](crate::run_chaos) applies per wave).
/// * **A false alarm is not a detection** — an alarm standing at the end
///   of a non-empty warm-up is reported as
///   [`warmup_alarm`](ScenarioReport::warmup_alarm) and never credited to
///   the burst as a [`first_alarm`](ScenarioReport::first_alarm). Callers
///   whose warm-up starts from a correct configuration (the paper's
///   verifier) treat the flag as fatal; floods that start un-converged
///   ignore it.
///
/// # Panics
///
/// Panics if the burst is scheduled at or after `max_steps` — it could
/// never fire, and silently dropping it would make a misconfigured fault
/// scenario look like a passing fault-free one.
pub fn run_fault_experiment<P: NodeProgram>(
    runner: &mut dyn Runner<P>,
    burst: Option<(usize, &FaultPlan)>,
    corrupt: &mut dyn FnMut(NodeId, &mut P::State),
    until: StopCondition,
    max_steps: usize,
) -> Result<ScenarioReport, EngineError> {
    let start = runner.steps();
    let mut warmup_alarm = false;
    let mut injected_nodes = Vec::new();
    if let Some((at, plan)) = burst {
        assert!(
            at < max_steps,
            "fault burst at step {at} can never fire within the {max_steps}-step budget"
        );
        if at > 0 {
            runner.try_run_until(StopCondition::Steps, at)?;
            warmup_alarm = runner.any_alarm();
        }
        runner.apply_faults(plan, corrupt);
        injected_nodes = plan.nodes().to_vec();
    }
    let mut latency = None;
    let remaining = max_steps - (runner.steps() - start);
    if remaining > 0 {
        runner.try_step()?;
        latency = runner
            .try_run_until(until, remaining - 1)?
            .map(|further| further + 1);
    }
    Ok(ScenarioReport {
        node_count: runner.graph().node_count(),
        steps_run: runner.steps() - start,
        injected_faults: injected_nodes.len(),
        warmup_alarm,
        first_alarm: latency.filter(|_| until == StopCondition::FirstAlarm && !warmup_alarm),
        recovered: latency.filter(|_| until == StopCondition::AllAccept),
        all_accept: runner.all_accept(),
        alarm_nodes: runner.alarming_nodes(),
        injected_nodes,
    })
}

/// What happened during a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Node count of the executed graph.
    pub node_count: usize,
    /// Steps actually executed.
    pub steps_run: usize,
    /// Registers the burst corrupted.
    pub injected_faults: usize,
    /// Whether an alarm was standing when a non-empty warm-up ended, i.e.
    /// *before* any register was corrupted. Never set without a burst.
    pub warmup_alarm: bool,
    /// Steps from the burst (or from the start of a fault-free run) to the
    /// first alarm (only recorded under [`StopCondition::FirstAlarm`], and
    /// never after a [`warmup_alarm`](Self::warmup_alarm)).
    pub first_alarm: Option<usize>,
    /// Steps from the burst (or from the start of a fault-free run) until
    /// every node accepted (only recorded under
    /// [`StopCondition::AllAccept`]).
    pub recovered: Option<usize>,
    /// Whether every node accepted at the end of the run.
    pub all_accept: bool,
    /// The nodes raising an alarm at the end of the run (original ids,
    /// ascending) — the raw material for detection-distance metrics.
    pub alarm_nodes: Vec<NodeId>,
    /// Every register the burst corrupted, in injection order — the
    /// authoritative fault set for distance metrics.
    pub injected_nodes: Vec<NodeId>,
}

/// Final registers plus the run report.
#[derive(Debug)]
pub struct ScenarioOutcome<P: NodeProgram> {
    /// The run report.
    pub report: ScenarioReport,
    /// The final configuration.
    pub network: Network<P>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Backend, ConfigError, InjectionSpec, RecoveryPolicy};
    use crate::layout::LayoutPolicy;
    use crate::programs::MinIdFlood;
    use smst_sim::{Daemon, RecordingObserver, Verdict};

    fn threads(threads: usize) -> EngineConfig {
        EngineConfig::new().threads(threads)
    }

    #[test]
    fn family_node_counts_match_built_graphs() {
        let families = [
            GraphFamily::Path { n: 9 },
            GraphFamily::Ring { n: 8 },
            GraphFamily::Grid { rows: 3, cols: 4 },
            GraphFamily::Star { n: 7 },
            GraphFamily::Caterpillar { spine: 3, legs: 2 },
            GraphFamily::RandomConnected { n: 15, m: 30 },
            GraphFamily::Expander { n: 20, degree: 4 },
            GraphFamily::Complete { n: 6 },
            GraphFamily::KmwClusterTree {
                levels: 2,
                delta: 3,
            },
            GraphFamily::KmwHybrid {
                levels: 2,
                delta: 3,
            },
        ];
        for family in families {
            let g = family.build(3);
            assert_eq!(g.node_count(), family.node_count(), "{family:?}");
            assert!(g.is_connected(), "{family:?}");
        }
    }

    #[test]
    fn sync_scenario_recovers_from_burst() {
        let spec = ScenarioSpec::new(GraphFamily::Expander { n: 60, degree: 4 })
            .seed(5)
            .engine(threads(3))
            .fault_burst(4, 10, 99)
            .until(StopCondition::AllAccept);
        let outcome = spec
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 500)
            .unwrap();
        assert_eq!(outcome.report.injected_faults, 10);
        assert!(outcome.report.all_accept, "flood must heal after the burst");
        assert!(outcome.report.recovered.is_some());
        assert!(outcome.network.states().iter().all(|&s| s == 0));
    }

    #[test]
    fn burst_scheduled_after_convergence_still_fires() {
        // the flood converges in ~3 steps; the burst at step 40 must still
        // fire (the AllAccept stop waits for pending bursts) and recovery
        // must be measured from it
        let spec = ScenarioSpec::new(GraphFamily::Path { n: 5 })
            .seed(2)
            .fault_burst(40, 3, 8)
            .until(StopCondition::AllAccept);
        let outcome = spec
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 200)
            .unwrap();
        assert_eq!(outcome.report.injected_faults, 3);
        assert!(outcome.report.all_accept);
        assert!(outcome.report.recovered.is_some());
        assert!(outcome.report.steps_run > 40);
    }

    #[test]
    #[should_panic(expected = "can never fire")]
    fn burst_beyond_the_step_budget_is_rejected() {
        let spec = ScenarioSpec::new(GraphFamily::Path { n: 4 })
            .fault_burst(40, 2, 1)
            .until(StopCondition::AllAccept);
        let _ = spec.run(&MinIdFlood::new(0), |_v, s| *s = 1, 30);
    }

    #[test]
    fn zero_threads_is_a_config_error_not_a_panic() {
        let spec = ScenarioSpec::new(GraphFamily::Path { n: 4 }).engine(threads(0));
        let err = spec
            .run(&MinIdFlood::new(0), |_v, s| *s = 1, 10)
            .expect_err("zero threads must be rejected");
        assert_eq!(err, EngineError::Config(ConfigError::ZeroThreads));
    }

    #[test]
    fn async_halo_is_a_config_error() {
        let spec = ScenarioSpec::new(GraphFamily::Path { n: 6 }).engine(
            EngineConfig::new()
                .asynchronous(Daemon::RoundRobin, 2)
                .halo(true),
        );
        assert_eq!(
            spec.run(&MinIdFlood::new(0), |_v, s| *s = 1, 10)
                .expect_err("halo requires sync"),
            EngineError::Config(ConfigError::HaloRequiresSync)
        );
    }

    #[test]
    fn injected_panic_is_retried_away_inside_a_scenario() {
        let base = ScenarioSpec::new(GraphFamily::Expander { n: 60, degree: 4 })
            .seed(5)
            .engine(threads(3))
            .fault_burst(4, 10, 99)
            .until(StopCondition::AllAccept);
        let clean = base
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 500)
            .unwrap();
        let chaos = base
            .clone()
            .engine(
                threads(3)
                    .recovery(RecoveryPolicy::retries(2))
                    .inject(InjectionSpec::panic_at(2, 0)),
            )
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 500)
            .unwrap();
        assert_eq!(chaos.network.states(), clean.network.states());
        assert_eq!(chaos.report.steps_run, clean.report.steps_run);
        assert_eq!(chaos.report.recovered, clean.report.recovered);
    }

    #[test]
    fn unrecovered_panic_is_a_typed_pool_error() {
        let spec = ScenarioSpec::new(GraphFamily::Path { n: 8 })
            .engine(threads(2).inject(InjectionSpec::panic_at(0, 0)));
        let err = spec
            .run(&MinIdFlood::new(0), |_v, s| *s = 1, 10)
            .expect_err("no recovery policy: the injected panic must surface");
        match err {
            EngineError::Pool(crate::pool::PoolError::WorkerPanic { attempts, message }) => {
                assert_eq!(attempts, 1);
                assert!(message.contains("injected chaos panic"), "{message}");
            }
            other => panic!("expected a pool error, got {other:?}"),
        }
    }

    #[test]
    fn async_scenario_runs_and_reports() {
        let spec = ScenarioSpec::new(GraphFamily::RandomConnected { n: 30, m: 70 })
            .seed(2)
            .engine(threads(2).asynchronous(
                Daemon::Random {
                    seed: 4,
                    extra_factor: 1,
                },
                4,
            ))
            .until(StopCondition::AllAccept);
        let outcome = spec.run(&MinIdFlood::new(0), |_v, s| *s = 1, 200).unwrap();
        assert!(outcome.report.all_accept);
        assert_eq!(outcome.report.injected_faults, 0);
        assert!(outcome.report.steps_run <= 200);
    }

    #[test]
    fn layout_does_not_change_outcomes() {
        let base = ScenarioSpec::new(GraphFamily::Expander { n: 80, degree: 4 })
            .seed(9)
            .engine(threads(3))
            .fault_burst(2, 8, 5)
            .until(StopCondition::AllAccept);
        let plain = base
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 300)
            .unwrap();
        let laid_out = base
            .clone()
            .engine(threads(3).layout(LayoutPolicy::Rcm))
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 300)
            .unwrap();
        assert_eq!(plain.network.states(), laid_out.network.states());
        assert_eq!(plain.report.steps_run, laid_out.report.steps_run);
        assert_eq!(
            plain.report.injected_faults,
            laid_out.report.injected_faults
        );
        assert_eq!(plain.report.recovered, laid_out.report.recovered);
    }

    #[test]
    fn halo_does_not_change_outcomes() {
        let base = ScenarioSpec::new(GraphFamily::Expander { n: 70, degree: 4 })
            .seed(11)
            .engine(threads(3))
            .fault_burst(3, 6, 2)
            .until(StopCondition::AllAccept);
        let plain = base
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 300)
            .unwrap();
        let tuned = base
            .clone()
            .engine(threads(3).layout(LayoutPolicy::Rcm).halo(true))
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 300)
            .unwrap();
        assert_eq!(plain.network.states(), tuned.network.states());
        assert_eq!(plain.report.steps_run, tuned.report.steps_run);
        assert_eq!(plain.report.recovered, tuned.report.recovered);
        assert_eq!(plain.report.alarm_nodes, tuned.report.alarm_nodes);
    }

    #[test]
    fn reference_backend_runs_the_same_scenario() {
        // the sequential reference is reachable through the same façade —
        // and agrees with the sharded engine bit for bit
        let base = ScenarioSpec::new(GraphFamily::RandomConnected { n: 40, m: 90 })
            .seed(4)
            .fault_burst(2, 5, 9)
            .until(StopCondition::AllAccept);
        let sharded = base
            .clone()
            .engine(threads(4))
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 300)
            .unwrap();
        let reference = base
            .engine(EngineConfig::reference())
            .run(&MinIdFlood::new(0), |_v, s| *s = u64::MAX, 300)
            .unwrap();
        assert_eq!(sharded.network.states(), reference.network.states());
        assert_eq!(sharded.report.steps_run, reference.report.steps_run);
        assert_eq!(sharded.report.recovered, reference.report.recovered);
    }

    #[test]
    fn engine_setter_preserves_the_graph_seed() {
        let spec = ScenarioSpec::new(GraphFamily::Path { n: 8 })
            .seed(42)
            .engine(EngineConfig::new().threads(2).backend(Backend::Sharded));
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.engine.threads, 2);
    }

    #[test]
    fn run_with_builds_the_program_from_the_scenario_graph() {
        // an instance-bound program: build the graph once, the program
        // from it, and drive the runner that holds both
        let spec = ScenarioSpec::new(GraphFamily::Ring { n: 10 }).until(StopCondition::AllAccept);
        let graph = spec.build_graph();
        assert_eq!(graph.node_count(), 10);
        let program = MinIdFlood::new(graph.id(NodeId(0)));
        let mut runner = spec.engine.instantiate(&program, graph).unwrap();
        let report = spec
            .run_on(runner.as_mut(), &mut |_v, s| *s = 1, 100)
            .unwrap();
        assert_eq!(program.leader(), 0);
        assert!(report.all_accept);
        assert!(report.alarm_nodes.is_empty());
        assert_eq!(report.steps_run, runner.steps());
    }

    #[test]
    fn scenarios_are_reproducible() {
        let spec = ScenarioSpec::new(GraphFamily::RandomConnected { n: 40, m: 90 })
            .seed(8)
            .engine(threads(4))
            .fault_burst(2, 6, 3);
        let run = || {
            spec.run(&MinIdFlood::new(0), |_v, s| *s ^= 0xFFFF, 20)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.network.states(), b.network.states());
        assert_eq!(a.report.injected_faults, b.report.injected_faults);
    }

    #[test]
    fn observed_runs_report_per_step_stats() {
        let spec = ScenarioSpec::new(GraphFamily::Ring { n: 16 })
            .seed(3)
            .engine(threads(2))
            .until(StopCondition::Steps);
        let recording = RecordingObserver::new();
        let program = MinIdFlood::new(0);
        let mut runner = spec
            .engine
            .instantiate(&program, spec.build_graph())
            .expect("valid config");
        runner.set_observer(Box::new(recording.clone()));
        let report = spec
            .run_on(runner.as_mut(), &mut |_v, s| *s = 1, 5)
            .unwrap();
        assert_eq!(report.steps_run, 5);
        assert_eq!(recording.rounds_observed(), 5);
        assert!(recording
            .deterministic_trace()
            .iter()
            .enumerate()
            .all(|(i, t)| t.0 == i && t.2 == 16));
    }

    /// Rejects while its register is nonzero; registers start at zero, or
    /// at the node's identity (nonzero everywhere except the leader).
    struct RejectNonZero {
        init_from_id: bool,
    }

    impl NodeProgram for RejectNonZero {
        type State = u64;
        type Update = u64;
        fn init(&self, ctx: &smst_sim::NodeContext) -> u64 {
            if self.init_from_id {
                ctx.id
            } else {
                0
            }
        }
        fn step(&self, _ctx: &smst_sim::NodeContext, own: &u64, _n: &[&u64]) -> u64 {
            *own
        }
        fn apply(state: &mut u64, update: u64) {
            *state = update;
        }
        fn verdict(&self, _ctx: &smst_sim::NodeContext, state: &u64) -> Verdict {
            if *state == 0 {
                Verdict::Accept
            } else {
                Verdict::Reject
            }
        }
    }

    #[test]
    fn alarm_stop_condition_reports_detection() {
        // a program that rejects as soon as its register is nonzero:
        // detection must be exactly 1 step after the burst
        let spec = ScenarioSpec::new(GraphFamily::Ring { n: 12 })
            .fault_burst(3, 2, 7)
            .until(StopCondition::FirstAlarm);
        let program = RejectNonZero {
            init_from_id: false,
        };
        let outcome = spec.run(&program, |_v, s| *s = 9, 50).unwrap();
        assert_eq!(outcome.report.first_alarm, Some(1));
        assert_eq!(outcome.report.steps_run, 4);
        assert!(!outcome.report.warmup_alarm);

        // fault-free scenario: an initial configuration that already rejects
        // must still be reported and must still stop the run
        let spec = ScenarioSpec::new(GraphFamily::Ring { n: 12 }).until(StopCondition::FirstAlarm);
        let program = RejectNonZero { init_from_id: true };
        let mut poisoned = false;
        let outcome = spec.run(&program, |_v, _s| poisoned = true, 50).unwrap();
        assert!(!poisoned, "no bursts configured, no corruption expected");
        assert_eq!(outcome.report.first_alarm, Some(1));
        assert_eq!(outcome.report.steps_run, 1);
        assert!(!outcome.report.warmup_alarm, "no burst, no warm-up");
    }

    #[test]
    fn a_false_alarm_is_not_a_detection() {
        // the configuration rejects from its first step: the alarm still
        // standing after the burst must not be credited to the burst as
        // "detected in 1 step" — on any backend
        let program = RejectNonZero { init_from_id: true };
        for engine in [EngineConfig::reference(), threads(2)] {
            let spec = ScenarioSpec::new(GraphFamily::Ring { n: 12 })
                .engine(engine)
                .fault_burst(3, 2, 7)
                .until(StopCondition::FirstAlarm);
            let report = spec.run(&program, |_v, s| *s = 9, 50).unwrap().report;
            assert!(report.warmup_alarm);
            assert_eq!(report.first_alarm, None);
            assert_eq!(report.injected_faults, 2, "the run itself is unchanged");
            assert_eq!(report.steps_run, 4);
            // a burst at step 0 has no warm-up to raise a false alarm in
            let report = spec
                .clone()
                .fault_burst(0, 2, 7)
                .run(&program, |_v, s| *s = 9, 50)
                .unwrap()
                .report;
            assert!(!report.warmup_alarm);
            assert_eq!(report.first_alarm, Some(1));
        }
    }

    #[test]
    fn the_driver_measures_from_where_the_runner_stands() {
        // a runner the caller already stepped: budgets, the burst step and
        // the report are relative to the call, not to the runner's age
        let program = MinIdFlood::new(0);
        let spec = ScenarioSpec::new(GraphFamily::Path { n: 9 })
            .fault_burst(12, 3, 1) // past the diameter: converged either way
            .until(StopCondition::AllAccept);
        let fresh = spec.run(&program, |_v, s| *s = u64::MAX, 40).unwrap();
        let mut runner = spec
            .engine
            .instantiate(&program, spec.build_graph())
            .unwrap();
        runner.run_until(StopCondition::Steps, 20);
        let report = spec
            .run_on(runner.as_mut(), &mut |_v, s| *s = u64::MAX, 40)
            .unwrap();
        assert_eq!(report.steps_run, runner.steps() - 20);
        assert_eq!(report.recovered, fresh.report.recovered);
        assert_eq!(report.injected_nodes, fresh.report.injected_nodes);
    }
}
