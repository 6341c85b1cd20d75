//! Campaigns: seeded random + guided search over schedule × fault ×
//! topology space.
//!
//! A [`CampaignSpec`] names the search space (graph families, fault kinds
//! and counts, daemons) and the budgets; [`run_campaign`] samples it with a
//! seeded RNG, scores every trial against its round-robin baseline
//! (**regret** — how much later the adversarial schedule makes the scored
//! event), then runs a guided phase that mutates the best finds. Trials
//! execute in parallel on the engine's persistent
//! [`WorkerPool`](smst_engine::WorkerPool) (each trial single-threaded, the
//! pool fanning the trial list out), and the whole campaign is a pure
//! function of its spec — re-running it reproduces every record.

use crate::trial::{run_trial, DaemonSpec, TrialOutcome, TrialSpec, Workload};
use smst_core::faults::FaultKind;
use smst_engine::{GraphFamily, PoolHandle};
use smst_rng::{Rng, SeedableRng, StdRng};

/// The search space and budgets of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (also names the `CAMPAIGN_<name>.json` artifact).
    pub name: String,
    /// The program and metric every trial runs.
    pub workload: Workload,
    /// Topology families to sample from.
    pub families: Vec<GraphFamily>,
    /// Register-corruption kinds ([`Workload::Verifier`] only; the flood
    /// workloads ignore the kind).
    pub fault_kinds: Vec<FaultKind>,
    /// Fault-count options.
    pub fault_counts: Vec<usize>,
    /// Daemons to sample from.
    pub daemons: Vec<DaemonSpec>,
    /// Graph seeds to sample from.
    pub graph_seeds: Vec<u64>,
    /// Burst step of every trial.
    pub inject_at: usize,
    /// Step budget of every trial.
    pub budget: usize,
    /// Trials in the random phase.
    pub random_trials: usize,
    /// Guided-mutation rounds after the random phase.
    pub guided_rounds: usize,
    /// How many top finds seed each guided round.
    pub keep_top: usize,
    /// Campaign seed (sampling and mutation randomness).
    pub seed: u64,
    /// Worker threads the trial fan-out uses.
    pub threads: usize,
}

impl CampaignSpec {
    /// A small, fully seeded campaign over every daemon shape, ready to
    /// customize field by field.
    pub fn new(name: &str, workload: Workload) -> Self {
        CampaignSpec {
            name: name.to_string(),
            workload,
            families: vec![
                GraphFamily::Path { n: 32 },
                GraphFamily::Caterpillar { spine: 10, legs: 2 },
                GraphFamily::RandomConnected { n: 32, m: 48 },
            ],
            fault_kinds: vec![FaultKind::SpDistance],
            fault_counts: vec![1, 2],
            daemons: vec![
                DaemonSpec::RoundRobin { batch: 1 },
                DaemonSpec::RoundRobin { batch: 8 },
                DaemonSpec::Random {
                    seed: 1,
                    extra_factor: 1,
                    batch: 4,
                },
                DaemonSpec::Pivot {
                    pivot: 0,
                    repeats: 2,
                    batch: 1,
                },
                DaemonSpec::BoundaryStall {
                    shards: 2,
                    repeats: 1,
                },
                DaemonSpec::ShardStarve {
                    shards: 2,
                    repeats: 1,
                },
                DaemonSpec::CutFocus {
                    source_seed: 0,
                    repeats: 1,
                },
            ],
            graph_seeds: vec![1, 2],
            inject_at: 2,
            budget: 160,
            random_trials: 24,
            guided_rounds: 2,
            keep_top: 4,
            seed: 0,
            threads: 1,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> TrialSpec {
        let pick = |rng: &mut StdRng, len: usize| rng.gen_range(0..len.max(1));
        TrialSpec {
            workload: self.workload,
            family: self.families[pick(rng, self.families.len())].clone(),
            graph_seed: self.graph_seeds[pick(rng, self.graph_seeds.len())],
            daemon: self.daemons[pick(rng, self.daemons.len())].clone(),
            fault_kind: self.fault_kinds[pick(rng, self.fault_kinds.len())],
            fault_count: self.fault_counts[pick(rng, self.fault_counts.len())],
            fault_seed: rng.gen_range(0..1 << 16),
            inject_at: self.inject_at,
            budget: self.budget,
        }
    }
}

/// One evaluated trial: the spec's id, its outcome, the round-robin
/// baseline's outcome, and the regret between them.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Replayable trial id.
    pub id: String,
    /// Human-readable daemon descriptor.
    pub daemon: String,
    /// The full spec.
    pub spec: TrialSpec,
    /// The adversarial outcome.
    pub outcome: TrialOutcome,
    /// The outcome under [`TrialSpec::round_robin_baseline`].
    pub baseline: TrialOutcome,
    /// `score − baseline_score` in scalar steps (positive: the adversarial
    /// schedule made the event strictly later).
    pub regret: i64,
}

impl TrialRecord {
    fn from_parts(
        spec: TrialSpec,
        outcome: TrialOutcome,
        baseline: TrialOutcome,
        budget: usize,
    ) -> TrialRecord {
        let regret = outcome.score.value(budget) as i64 - baseline.score.value(budget) as i64;
        TrialRecord {
            id: spec.id(),
            daemon: spec.daemon.encode(),
            spec,
            outcome,
            baseline,
            regret,
        }
    }
}

/// What a campaign found, sorted by regret (best find first).
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Every evaluated trial, best regret first.
    pub records: Vec<TrialRecord>,
    /// Trials evaluated in the random phase.
    pub random_trials: usize,
    /// Trials evaluated in the guided phase.
    pub guided_trials: usize,
}

impl CampaignReport {
    /// The best find (highest regret), if any trial ran.
    pub fn best(&self) -> Option<&TrialRecord> {
        self.records.first()
    }
}

/// Runs `specs` in parallel on the worker pool (each trial runs
/// single-threaded; the pool fans the list out), preserving order.
fn run_all(specs: &[TrialSpec], threads: usize) -> Vec<TrialOutcome> {
    PoolHandle::for_threads(threads.max(1)).map_indexed(specs, |_i, spec| run_trial(spec))
}

/// Evaluates `specs` against their round-robin baselines, memoizing the
/// baselines: campaigns share few distinct `(graph, fault)` points across
/// many daemons, so each baseline runs once per campaign phase instead of
/// once per trial (and a trial that *is* its own baseline is not run
/// twice).
fn evaluate_all(specs: Vec<TrialSpec>, budget: usize, threads: usize) -> Vec<TrialRecord> {
    let mut baseline_specs: Vec<TrialSpec> = Vec::new();
    let mut baseline_index: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    for spec in &specs {
        let baseline = spec.round_robin_baseline();
        if let std::collections::btree_map::Entry::Vacant(slot) =
            baseline_index.entry(baseline.id())
        {
            slot.insert(baseline_specs.len());
            baseline_specs.push(baseline);
        }
    }
    let baseline_outcomes = run_all(&baseline_specs, threads);
    // a spec equal to its own baseline reuses the memoized outcome
    let to_run: Vec<TrialSpec> = specs
        .iter()
        .filter(|s| s.daemon != DaemonSpec::RoundRobin { batch: 1 })
        .cloned()
        .collect();
    let mut run_outcomes = run_all(&to_run, threads).into_iter();
    specs
        .into_iter()
        .map(|spec| {
            let baseline =
                baseline_outcomes[baseline_index[&spec.round_robin_baseline().id()]].clone();
            let outcome = if spec.daemon == (DaemonSpec::RoundRobin { batch: 1 }) {
                baseline.clone()
            } else {
                run_outcomes
                    .next()
                    .expect("one outcome per non-baseline spec")
            };
            TrialRecord::from_parts(spec, outcome, baseline, budget)
        })
        .collect()
}

/// Deterministic neighbourhood of a good find: small parameter nudges the
/// guided phase explores around it.
fn mutations(spec: &TrialSpec, rng: &mut StdRng) -> Vec<TrialSpec> {
    let mut out = Vec::new();
    let mut push = |daemon: DaemonSpec| {
        out.push(TrialSpec {
            daemon,
            ..spec.clone()
        });
    };
    match spec.daemon {
        DaemonSpec::RoundRobin { batch } => push(DaemonSpec::RoundRobin { batch: batch * 2 }),
        DaemonSpec::Random {
            seed,
            extra_factor,
            batch,
        } => {
            push(DaemonSpec::Random {
                seed: seed + 1,
                extra_factor,
                batch,
            });
            push(DaemonSpec::Random {
                seed,
                extra_factor,
                batch: batch * 2,
            });
        }
        DaemonSpec::Pivot {
            pivot,
            repeats,
            batch,
        } => push(DaemonSpec::Pivot {
            pivot,
            repeats: repeats + 1,
            batch,
        }),
        DaemonSpec::BoundaryStall { shards, repeats } => {
            push(DaemonSpec::BoundaryStall {
                shards: shards + 1,
                repeats,
            });
            push(DaemonSpec::BoundaryStall {
                shards,
                repeats: repeats + 1,
            });
        }
        DaemonSpec::ShardStarve { shards, repeats } => {
            push(DaemonSpec::ShardStarve {
                shards: shards + 1,
                repeats,
            });
            push(DaemonSpec::ShardStarve {
                shards,
                repeats: repeats + 1,
            });
        }
        DaemonSpec::CutFocus {
            source_seed,
            repeats,
        } => {
            push(DaemonSpec::CutFocus {
                source_seed: source_seed + 1,
                repeats,
            });
            push(DaemonSpec::CutFocus {
                source_seed,
                repeats: repeats + 1,
            });
        }
    }
    // a fresh fault placement keeps the fault dimension moving too
    out.push(TrialSpec {
        fault_seed: rng.gen_range(0..1 << 16),
        ..spec.clone()
    });
    out
}

/// Runs a campaign: seeded random sampling, parallel evaluation, guided
/// mutation of the top finds, and a regret-sorted report.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    assert!(
        !spec.families.is_empty()
            && !spec.daemons.is_empty()
            && !spec.fault_counts.is_empty()
            && !spec.fault_kinds.is_empty()
            && !spec.graph_seeds.is_empty(),
        "campaign `{}` has an empty search dimension",
        spec.name
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let random: Vec<TrialSpec> = (0..spec.random_trials)
        .map(|_| spec.sample(&mut rng))
        .collect();
    let mut records = evaluate_all(random, spec.budget, spec.threads);
    let random_count = records.len();

    let mut guided_count = 0usize;
    for _ in 0..spec.guided_rounds {
        let mut by_regret: Vec<usize> = (0..records.len()).collect();
        by_regret.sort_by_key(|&i| (-records[i].regret, records[i].id.clone()));
        let seen: std::collections::BTreeSet<String> =
            records.iter().map(|r| r.id.clone()).collect();
        let mut next: Vec<TrialSpec> = Vec::new();
        for &i in by_regret.iter().take(spec.keep_top) {
            for candidate in mutations(&records[i].spec, &mut rng) {
                if !seen.contains(&candidate.id()) && !next.iter().any(|s| s.id() == candidate.id())
                {
                    next.push(candidate);
                }
            }
        }
        guided_count += next.len();
        records.extend(evaluate_all(next, spec.budget, spec.threads));
    }

    records.sort_by(|a, b| b.regret.cmp(&a.regret).then_with(|| a.id.cmp(&b.id)));
    CampaignReport {
        name: spec.name.clone(),
        records,
        random_trials: random_count,
        guided_trials: guided_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> CampaignSpec {
        let mut spec = CampaignSpec::new("unit", Workload::Monitor);
        spec.families = vec![GraphFamily::Path { n: 24 }];
        spec.graph_seeds = vec![1];
        spec.random_trials = 8;
        spec.guided_rounds = 1;
        spec.keep_top = 2;
        spec.budget = 96;
        spec
    }

    #[test]
    fn campaigns_are_reproducible() {
        let spec = tiny_campaign();
        let a = run_campaign(&spec);
        let b = run_campaign(&spec);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.regret, y.regret);
        }
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let spec = tiny_campaign();
        let mut parallel = tiny_campaign();
        parallel.threads = 4;
        let a = run_campaign(&spec);
        let b = run_campaign(&parallel);
        assert_eq!(
            a.records.iter().map(|r| &r.id).collect::<Vec<_>>(),
            b.records.iter().map(|r| &r.id).collect::<Vec<_>>()
        );
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.outcome, y.outcome, "{}", x.id);
        }
    }

    #[test]
    fn guided_phase_adds_unseen_trials() {
        let report = run_campaign(&tiny_campaign());
        assert!(report.guided_trials > 0);
        assert_eq!(
            report.records.len(),
            report.random_trials + report.guided_trials
        );
        let mut ids: Vec<&String> = report.records.iter().map(|r| &r.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), report.records.len(), "no duplicate trials");
    }

    #[test]
    #[should_panic(expected = "empty search dimension")]
    fn empty_dimensions_are_rejected() {
        let mut spec = tiny_campaign();
        spec.daemons.clear();
        let _ = run_campaign(&spec);
    }
}
