//! Trials: one adversarial execution, fully described by a replayable id.
//!
//! A [`TrialSpec`] names everything that determines an execution — the
//! workload, the graph family and seed, the daemon, the fault plan and the
//! step budget — and serializes to a one-line `TrialId` string that
//! [`TrialSpec::from_id`] parses back. Running the same spec twice yields
//! the same [`TrialOutcome`] bit for bit (the engine's determinism
//! contract), so any worst case a campaign finds is a one-line
//! reproduction.
//!
//! A trial *is* one single-burst fault experiment: [`run_trial`] builds
//! the trial's graph once (the daemon, the verifier and the runner are
//! all built from it), describes the run as a
//! [`ScenarioSpec`] whose envelope is one `EngineConfig`, and hands the
//! instantiated runner to [`ScenarioSpec::run_on`] — the three workloads
//! differ only in program, corruption and the report field they score.
//! `tests/golden/trials.txt` pins the numbers.

use crate::daemons::{CutFocusDaemon, StallDaemon, StarveDaemon};
use smst_bench::engine_metrics::mst_verifier_for;
use smst_core::faults::{corrupt, FaultKind};
use smst_engine::programs::{MinIdFlood, MonitorFlood};
use smst_engine::{EngineConfig, GraphFamily, ScenarioReport, ScenarioSpec, StopCondition};
use smst_graph::{NodeId, WeightedGraph};
use smst_sim::{BatchDaemon, ChunkedDaemon, Daemon, NodeProgram, RoundObserver};

/// A replayable daemon descriptor: every daemon a campaign can schedule,
/// with its parameters, in a form that encodes into a `TrialId`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonSpec {
    /// Central round-robin, chunked into `batch` simultaneous activations.
    RoundRobin {
        /// Simultaneous activations per batch.
        batch: usize,
    },
    /// Central seeded-random daemon, chunked.
    Random {
        /// Schedule seed.
        seed: u64,
        /// Extra activations per unit, as a multiple of `n`.
        extra_factor: usize,
        /// Simultaneous activations per batch.
        batch: usize,
    },
    /// Central pivot-favouring adversarial daemon, chunked.
    Pivot {
        /// The favoured node.
        pivot: usize,
        /// Extra pivot activations per unit.
        repeats: usize,
        /// Simultaneous activations per batch.
        batch: usize,
    },
    /// Boundary-stalling adversarial batch daemon ([`StallDaemon`]).
    BoundaryStall {
        /// Contiguous shards.
        shards: usize,
        /// Extra interior sweeps per unit.
        repeats: usize,
    },
    /// Shard-starving adversarial batch daemon ([`StarveDaemon`]).
    ShardStarve {
        /// Contiguous shards.
        shards: usize,
        /// Extra sweeps of the non-starved shards per unit.
        repeats: usize,
    },
    /// Cut-focused adversarial batch daemon ([`CutFocusDaemon`]).
    CutFocus {
        /// BFS-bisection source seed.
        source_seed: u64,
        /// Extra sweeps per side per unit.
        repeats: usize,
    },
}

impl DaemonSpec {
    /// Instantiates the daemon for a concrete graph (adversarial batch
    /// daemons precompute their node sets from the topology).
    pub fn build(&self, graph: &WeightedGraph) -> Box<dyn BatchDaemon> {
        match *self {
            DaemonSpec::RoundRobin { batch } => {
                Box::new(ChunkedDaemon::new(Daemon::RoundRobin, batch))
            }
            DaemonSpec::Random {
                seed,
                extra_factor,
                batch,
            } => Box::new(ChunkedDaemon::new(
                Daemon::Random { seed, extra_factor },
                batch,
            )),
            DaemonSpec::Pivot {
                pivot,
                repeats,
                batch,
            } => Box::new(ChunkedDaemon::new(
                Daemon::Adversarial {
                    pivot,
                    pivot_repeats: repeats,
                },
                batch,
            )),
            DaemonSpec::BoundaryStall { shards, repeats } => {
                Box::new(StallDaemon::new(graph, shards, repeats))
            }
            DaemonSpec::ShardStarve { shards, repeats } => {
                Box::new(StarveDaemon::new(graph, shards, repeats))
            }
            DaemonSpec::CutFocus {
                source_seed,
                repeats,
            } => Box::new(CutFocusDaemon::new(graph, source_seed, repeats)),
        }
    }

    /// `true` for the genuinely distributed (batch-identity) daemons the
    /// central enum cannot express.
    pub fn is_adversarial_batch(&self) -> bool {
        matches!(
            self,
            DaemonSpec::BoundaryStall { .. }
                | DaemonSpec::ShardStarve { .. }
                | DaemonSpec::CutFocus { .. }
        )
    }

    /// The compact id-field encoding (also the display form campaigns and
    /// artifacts use).
    pub fn encode(&self) -> String {
        match *self {
            DaemonSpec::RoundRobin { batch } => format!("rr:{batch}"),
            DaemonSpec::Random {
                seed,
                extra_factor,
                batch,
            } => format!("rnd:{seed}:{extra_factor}:{batch}"),
            DaemonSpec::Pivot {
                pivot,
                repeats,
                batch,
            } => format!("piv:{pivot}:{repeats}:{batch}"),
            DaemonSpec::BoundaryStall { shards, repeats } => format!("stall:{shards}:{repeats}"),
            DaemonSpec::ShardStarve { shards, repeats } => format!("starve:{shards}:{repeats}"),
            DaemonSpec::CutFocus {
                source_seed,
                repeats,
            } => format!("cut:{source_seed}:{repeats}"),
        }
    }

    fn decode(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let num = |i: usize| -> Result<usize, String> {
            parts
                .get(i)
                .ok_or_else(|| format!("daemon spec `{s}` is missing field {i}"))?
                .parse::<usize>()
                .map_err(|e| format!("daemon spec `{s}` field {i}: {e}"))
        };
        // exact field counts: a mis-transcribed id (extra or missing
        // fields) must error, never silently replay a different daemon
        let exact = |fields: usize| -> Result<(), String> {
            if parts.len() == fields {
                Ok(())
            } else {
                Err(format!(
                    "daemon spec `{s}` has {} fields, expected {fields}",
                    parts.len()
                ))
            }
        };
        match parts[0] {
            "rr" => {
                exact(2)?;
                Ok(DaemonSpec::RoundRobin { batch: num(1)? })
            }
            "rnd" => {
                exact(4)?;
                Ok(DaemonSpec::Random {
                    seed: num(1)? as u64,
                    extra_factor: num(2)?,
                    batch: num(3)?,
                })
            }
            "piv" => {
                exact(4)?;
                Ok(DaemonSpec::Pivot {
                    pivot: num(1)?,
                    repeats: num(2)?,
                    batch: num(3)?,
                })
            }
            "stall" => {
                exact(3)?;
                Ok(DaemonSpec::BoundaryStall {
                    shards: num(1)?,
                    repeats: num(2)?,
                })
            }
            "starve" => {
                exact(3)?;
                Ok(DaemonSpec::ShardStarve {
                    shards: num(1)?,
                    repeats: num(2)?,
                })
            }
            "cut" => {
                exact(3)?;
                Ok(DaemonSpec::CutFocus {
                    source_seed: num(1)? as u64,
                    repeats: num(2)?,
                })
            }
            other => Err(format!("unknown daemon kind `{other}`")),
        }
    }
}

/// The program a trial executes and the metric it scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// [`MonitorFlood`]: a bogus identity must *propagate* to the monitor
    /// node before the alarm fires — detection time is the daemon-dependent
    /// information-flow time from the fault to the monitor. Cheap enough
    /// for large campaigns.
    Monitor,
    /// [`MinIdFlood`] corrupted to garbage: scored by **stabilization**
    /// time (units until every node accepts again).
    Heal,
    /// The paper's verifier ([`mst_verifier_for`]) with a [`FaultKind`]
    /// register corruption: the real workload, polylog warm-up included —
    /// use small sizes.
    Verifier,
}

impl Workload {
    fn encode(self) -> &'static str {
        match self {
            Workload::Monitor => "mon",
            Workload::Heal => "heal",
            Workload::Verifier => "ver",
        }
    }

    fn decode(s: &str) -> Result<Self, String> {
        match s {
            "mon" => Ok(Workload::Monitor),
            "heal" => Ok(Workload::Heal),
            "ver" => Ok(Workload::Verifier),
            other => Err(format!("unknown workload `{other}`")),
        }
    }
}

fn encode_fault_kind(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::RootsString => "roots",
        FaultKind::EndpString => "endp",
        FaultKind::SpDistance => "sp",
        FaultKind::StoredPieceWeight => "stored",
        FaultKind::PartRoot => "part",
        FaultKind::TrainBuffers => "trains",
    }
}

fn decode_fault_kind(s: &str) -> Result<FaultKind, String> {
    match s {
        "roots" => Ok(FaultKind::RootsString),
        "endp" => Ok(FaultKind::EndpString),
        "sp" => Ok(FaultKind::SpDistance),
        "stored" => Ok(FaultKind::StoredPieceWeight),
        "part" => Ok(FaultKind::PartRoot),
        "trains" => Ok(FaultKind::TrainBuffers),
        other => Err(format!("unknown fault kind `{other}`")),
    }
}

fn encode_family(family: &GraphFamily) -> String {
    match *family {
        GraphFamily::Path { n } => format!("path:{n}"),
        GraphFamily::Ring { n } => format!("ring:{n}"),
        GraphFamily::Grid { rows, cols } => format!("grid:{rows}x{cols}"),
        GraphFamily::Star { n } => format!("star:{n}"),
        GraphFamily::Caterpillar { spine, legs } => format!("cat:{spine}x{legs}"),
        GraphFamily::RandomConnected { n, m } => format!("rand:{n}x{m}"),
        GraphFamily::Expander { n, degree } => format!("exp:{n}x{degree}"),
        GraphFamily::Complete { n } => format!("k:{n}"),
        GraphFamily::KmwClusterTree { levels, delta } => format!("kmw:{levels}x{delta}"),
        GraphFamily::KmwHybrid { levels, delta } => format!("kmwh:{levels}x{delta}"),
    }
}

fn decode_family(s: &str) -> Result<GraphFamily, String> {
    let (kind, rest) = s
        .split_once(':')
        .ok_or_else(|| format!("family `{s}` has no `:`"))?;
    let one = || -> Result<usize, String> {
        rest.parse::<usize>()
            .map_err(|e| format!("family `{s}`: {e}"))
    };
    let two = || -> Result<(usize, usize), String> {
        let (a, b) = rest
            .split_once('x')
            .ok_or_else(|| format!("family `{s}` needs AxB"))?;
        Ok((
            a.parse().map_err(|e| format!("family `{s}`: {e}"))?,
            b.parse().map_err(|e| format!("family `{s}`: {e}"))?,
        ))
    };
    match kind {
        "path" => Ok(GraphFamily::Path { n: one()? }),
        "ring" => Ok(GraphFamily::Ring { n: one()? }),
        "grid" => two().map(|(rows, cols)| GraphFamily::Grid { rows, cols }),
        "star" => Ok(GraphFamily::Star { n: one()? }),
        "cat" => two().map(|(spine, legs)| GraphFamily::Caterpillar { spine, legs }),
        "rand" => two().map(|(n, m)| GraphFamily::RandomConnected { n, m }),
        "exp" => two().map(|(n, degree)| GraphFamily::Expander { n, degree }),
        "k" => Ok(GraphFamily::Complete { n: one()? }),
        "kmw" => two().map(|(levels, delta)| GraphFamily::KmwClusterTree { levels, delta }),
        "kmwh" => two().map(|(levels, delta)| GraphFamily::KmwHybrid { levels, delta }),
        other => Err(format!("unknown family `{other}`")),
    }
}

/// Everything that determines one adversarial execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialSpec {
    /// The program and scoring metric.
    pub workload: Workload,
    /// Topology family.
    pub family: GraphFamily,
    /// Graph seed.
    pub graph_seed: u64,
    /// The schedule.
    pub daemon: DaemonSpec,
    /// Register-corruption kind (used by [`Workload::Verifier`]; the flood
    /// workloads have a fixed canonical corruption).
    pub fault_kind: FaultKind,
    /// Number of distinct corrupted registers.
    pub fault_count: usize,
    /// Fault-node-selection and corruption seed.
    pub fault_seed: u64,
    /// The step (time unit) before which the burst fires.
    pub inject_at: usize,
    /// Maximum steps — the schedule prefix the trial is allowed to use
    /// (the shrinker minimizes it).
    pub budget: usize,
}

/// The id-string version prefix (bump on any encoding change).
const ID_PREFIX: &str = "smst1";

impl TrialSpec {
    /// The one-line replayable id of this trial.
    pub fn id(&self) -> String {
        format!(
            "{ID_PREFIX};wl={};fam={};gs={};d={};fk={};fc={};fs={};at={};bu={}",
            self.workload.encode(),
            encode_family(&self.family),
            self.graph_seed,
            self.daemon.encode(),
            encode_fault_kind(self.fault_kind),
            self.fault_count,
            self.fault_seed,
            self.inject_at,
            self.budget,
        )
    }

    /// Parses a [`TrialSpec::id`] string back into the spec.
    pub fn from_id(id: &str) -> Result<TrialSpec, String> {
        let mut fields = id.split(';');
        let prefix = fields.next().unwrap_or_default();
        if prefix != ID_PREFIX {
            return Err(format!("unknown trial-id prefix `{prefix}`"));
        }
        const KNOWN_KEYS: [&str; 9] = ["wl", "fam", "gs", "d", "fk", "fc", "fs", "at", "bu"];
        let mut lookup = std::collections::BTreeMap::new();
        for field in fields {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| format!("field `{field}` has no `=`"))?;
            if !KNOWN_KEYS.contains(&k) {
                return Err(format!("unknown trial-id key `{k}`"));
            }
            if lookup.insert(k, v).is_some() {
                return Err(format!("duplicate trial-id key `{k}`"));
            }
        }
        let get = |k: &str| -> Result<&str, String> {
            lookup
                .get(k)
                .copied()
                .ok_or_else(|| format!("trial id is missing `{k}`"))
        };
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse::<u64>()
                .map_err(|e| format!("field `{k}`: {e}"))
        };
        Ok(TrialSpec {
            workload: Workload::decode(get("wl")?)?,
            family: decode_family(get("fam")?)?,
            graph_seed: num("gs")?,
            daemon: DaemonSpec::decode(get("d")?)?,
            fault_kind: decode_fault_kind(get("fk")?)?,
            fault_count: num("fc")? as usize,
            fault_seed: num("fs")?,
            inject_at: num("at")? as usize,
            budget: num("bu")? as usize,
        })
    }

    /// The same trial under the most benign central schedule — the
    /// baseline every adversarial score is compared against.
    pub fn round_robin_baseline(&self) -> TrialSpec {
        TrialSpec {
            daemon: DaemonSpec::RoundRobin { batch: 1 },
            ..self.clone()
        }
    }
}

/// How a trial scored: lower is better for the *system*, higher is a
/// better *find* for the adversary. [`Score::Missed`] (no alarm / no
/// recovery inside the budget) orders above every measured value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Score {
    /// Steps from injection to the scored event.
    Measured(usize),
    /// The event never happened inside the budget.
    Missed,
}

impl Score {
    /// A scalar for regret arithmetic and artifacts: measured value, or
    /// `2 × budget` for a miss (strictly above any measurable value).
    pub fn value(self, budget: usize) -> usize {
        match self {
            Score::Measured(t) => t,
            Score::Missed => 2 * budget.max(1),
        }
    }

    /// `true` if the scored event never happened.
    pub fn is_missed(self) -> bool {
        matches!(self, Score::Missed)
    }
}

/// What one trial execution produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialOutcome {
    /// Node count of the built graph.
    pub node_count: usize,
    /// Steps actually executed.
    pub steps_run: usize,
    /// Registers the burst corrupted.
    pub injected_faults: usize,
    /// Steps from injection to the first alarm, if any.
    pub detection: Option<usize>,
    /// Steps from injection until every node accepted, if recorded.
    pub recovered: Option<usize>,
    /// The workload's score for this trial.
    pub score: Score,
}

/// Runs one trial. Deterministic: the same spec always produces the same
/// outcome (pinned by the replay tests).
pub fn run_trial(spec: &TrialSpec) -> TrialOutcome {
    run_trial_inner(spec, None)
}

/// [`run_trial`] with a [`RoundObserver`] attached to the instantiated
/// runner — per-step accounting for campaign artifacts and traces without
/// changing the trial's results. The outcome and the observed
/// deterministic fields (`round`, `alarms`, `activations`, `halo_bytes`)
/// are the same pure function of the spec as [`run_trial`]'s; only the
/// `*_ns` phase timings are wall-clock.
pub fn run_trial_observed(spec: &TrialSpec, observer: Box<dyn RoundObserver>) -> TrialOutcome {
    run_trial_inner(spec, Some(observer))
}

fn run_trial_inner(spec: &TrialSpec, observer: Option<Box<dyn RoundObserver>>) -> TrialOutcome {
    // built once: the daemon, the verifier and the runner all take it
    let graph = spec.family.build(spec.graph_seed);
    let n = graph.node_count();
    // a burst at or beyond the budget can never fire (the driver panics);
    // clamp so every spec the search or the shrinker produces is runnable
    let budget = spec.budget.max(spec.inject_at + 1);
    let fault_count = spec.fault_count.clamp(1, n.max(1));
    // trials are single-threaded by design (the campaign fans the *trial
    // list* out across the pool); the whole execution envelope is one
    // validated EngineConfig
    let engine = EngineConfig::new()
        .threads(1)
        .batch_daemon(spec.daemon.build(&graph));
    let scenario = ScenarioSpec::new(spec.family.clone())
        .engine(engine)
        .seed(spec.graph_seed)
        .fault_burst(spec.inject_at, fault_count, spec.fault_seed)
        .until(match spec.workload {
            Workload::Heal => StopCondition::AllAccept,
            Workload::Monitor | Workload::Verifier => StopCondition::FirstAlarm,
        });
    let report = match spec.workload {
        Workload::Monitor => {
            let ceiling = n.max(1) as u64 - 1;
            let program = MonitorFlood::new(ceiling, ceiling);
            let bogus = |_v, s: &mut u64| *s = MonitorFlood::BOGUS;
            drive(&scenario, graph, &program, bogus, budget, observer)
        }
        Workload::Heal => {
            let program = MinIdFlood::new(0);
            let garbage = |_v, s: &mut u64| *s = u64::MAX;
            drive(&scenario, graph, &program, garbage, budget, observer)
        }
        Workload::Verifier => {
            let (kind, seed) = (spec.fault_kind, spec.fault_seed);
            let mut i = 0u64;
            let corrupt_next = |_v, state: &mut _| {
                corrupt(state, kind, seed.wrapping_add(i));
                i += 1;
            };
            let program = mst_verifier_for(&graph);
            let report = drive(&scenario, graph, &program, corrupt_next, budget, observer);
            // the floods start un-converged by design; the verifier starts
            // from a correct, marker-labelled MST and must never reject it
            assert!(
                !report.warmup_alarm,
                "a correct instance must not raise alarms during warm-up"
            );
            report
        }
    };
    let scored = match scenario.until {
        StopCondition::AllAccept => report.recovered,
        _ => report.first_alarm,
    };
    TrialOutcome {
        node_count: report.node_count,
        steps_run: report.steps_run,
        injected_faults: report.injected_faults,
        detection: report.first_alarm,
        recovered: report.recovered,
        score: scored.map_or(Score::Missed, Score::Measured),
    }
}

/// The part of a trial every workload shares: instantiate the scenario's
/// runner over the trial's graph, attach the observer, drive the burst
/// experiment.
fn drive<P, F>(
    scenario: &ScenarioSpec,
    graph: WeightedGraph,
    program: &P,
    mut corrupt: F,
    budget: usize,
    observer: Option<Box<dyn RoundObserver>>,
) -> ScenarioReport
where
    P: NodeProgram + Sync + 'static,
    P::State: Send + Sync,
    F: FnMut(NodeId, &mut P::State),
{
    let mut runner = scenario
        .engine
        .instantiate(program, graph)
        .unwrap_or_else(|e| panic!("invalid scenario engine config: {e}"));
    if let Some(observer) = observer {
        runner.set_observer(observer);
    }
    scenario
        .run_on(runner.as_mut(), &mut corrupt, budget)
        .unwrap_or_else(|e| panic!("scenario failed: {e}"))
}

/// The canonical campaign interestingness predicate: the trial's scored
/// event happens inside the budget **and** strictly later than the same
/// trial under `Daemon::RoundRobin` — one shared definition so the smoke
/// binary, the examples, the shrinker and the pinning tests cannot drift
/// apart.
pub fn beats_round_robin(spec: &TrialSpec) -> bool {
    let adversarial = run_trial(spec);
    if adversarial.score.is_missed() {
        return false;
    }
    let baseline = run_trial(&spec.round_robin_baseline());
    adversarial.score > baseline.score
}

/// A memoizing [`beats_round_robin`] for shrink loops: most shrinking
/// moves (daemon taming, fault-count cuts) leave the round-robin baseline
/// spec unchanged, so its outcome is cached by baseline id instead of
/// re-run per candidate. Sound because trials are pure functions of their
/// spec, and moves that *do* affect the baseline (graph, budget,
/// injection) also change its id.
pub fn beats_round_robin_memo() -> impl FnMut(&TrialSpec) -> bool {
    let mut baselines: std::collections::BTreeMap<String, Score> =
        std::collections::BTreeMap::new();
    move |spec| {
        let adversarial = run_trial(spec);
        if adversarial.score.is_missed() {
            return false;
        }
        let baseline = spec.round_robin_baseline();
        let score = *baselines
            .entry(baseline.id())
            .or_insert_with(|| run_trial(&baseline).score);
        adversarial.score > score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> TrialSpec {
        TrialSpec {
            workload: Workload::Monitor,
            family: GraphFamily::Path { n: 20 },
            graph_seed: 3,
            daemon: DaemonSpec::BoundaryStall {
                shards: 2,
                repeats: 1,
            },
            fault_kind: FaultKind::SpDistance,
            fault_count: 1,
            fault_seed: 5,
            inject_at: 2,
            budget: 100,
        }
    }

    #[test]
    fn trial_ids_round_trip() {
        let daemons = [
            DaemonSpec::RoundRobin { batch: 3 },
            DaemonSpec::Random {
                seed: 9,
                extra_factor: 2,
                batch: 4,
            },
            DaemonSpec::Pivot {
                pivot: 7,
                repeats: 2,
                batch: 1,
            },
            DaemonSpec::BoundaryStall {
                shards: 4,
                repeats: 2,
            },
            DaemonSpec::ShardStarve {
                shards: 3,
                repeats: 1,
            },
            DaemonSpec::CutFocus {
                source_seed: 11,
                repeats: 2,
            },
        ];
        let families = [
            GraphFamily::Path { n: 9 },
            GraphFamily::Grid { rows: 3, cols: 4 },
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
        for daemon in &daemons {
            for family in &families {
                for workload in [Workload::Monitor, Workload::Heal, Workload::Verifier] {
                    for kind in FaultKind::all() {
                        let spec = TrialSpec {
                            workload,
                            family: family.clone(),
                            graph_seed: 8,
                            daemon: daemon.clone(),
                            fault_kind: kind,
                            fault_count: 2,
                            fault_seed: 13,
                            inject_at: 4,
                            budget: 64,
                        };
                        let parsed = TrialSpec::from_id(&spec.id()).expect("round-trip");
                        assert_eq!(parsed, spec, "id: {}", spec.id());
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_ids_are_rejected() {
        assert!(TrialSpec::from_id("").is_err());
        assert!(TrialSpec::from_id("smst0;wl=mon").is_err());
        assert!(
            TrialSpec::from_id("smst1;wl=mon").is_err(),
            "missing fields"
        );
        let id = demo_spec().id();
        assert!(TrialSpec::from_id(&id.replace("d=stall", "d=w00t")).is_err());
        // a mis-transcribed id must error, never replay a different trial
        assert!(
            TrialSpec::from_id(&id.replace("d=stall:2:1", "d=stall:2:1:9")).is_err(),
            "trailing daemon fields"
        );
        assert!(
            TrialSpec::from_id(&format!("{id};fam=path:4")).is_err(),
            "duplicate keys"
        );
        assert!(
            TrialSpec::from_id(&format!("{id};zz=1")).is_err(),
            "unknown keys"
        );
    }

    #[test]
    fn score_orders_missed_above_everything() {
        assert!(Score::Missed > Score::Measured(usize::MAX - 1));
        assert!(Score::Measured(3) > Score::Measured(2));
        assert_eq!(Score::Missed.value(50), 100);
        assert!(Score::Missed.is_missed());
        assert!(!Score::Measured(1).is_missed());
    }

    #[test]
    fn trials_replay_identically() {
        let spec = demo_spec();
        let a = run_trial(&spec);
        let b = run_trial(&TrialSpec::from_id(&spec.id()).unwrap());
        assert_eq!(a, b);
        assert_eq!(a.injected_faults, 1);
        assert!(a.detection.is_some(), "the monitor must eventually hear");
    }

    #[test]
    fn adversarial_daemon_delays_the_monitor_on_a_path() {
        // fault seeds picking a node far from the monitor: round-robin
        // (ascending index order) carries the bogus value the whole way in
        // one unit, the boundary-stalling batch daemon one hop per unit
        let spec = demo_spec();
        let adversarial = run_trial(&spec);
        let baseline = run_trial(&spec.round_robin_baseline());
        assert!(
            adversarial.score > baseline.score,
            "stall {:?} must be strictly later than round-robin {:?}",
            adversarial.score,
            baseline.score
        );
    }

    #[test]
    fn heal_workload_reports_stabilization() {
        let spec = TrialSpec {
            workload: Workload::Heal,
            budget: 200,
            ..demo_spec()
        };
        let outcome = run_trial(&spec);
        assert!(outcome.recovered.is_some(), "the flood must heal");
        assert_eq!(outcome.score, Score::Measured(outcome.recovered.unwrap()));
    }
}
