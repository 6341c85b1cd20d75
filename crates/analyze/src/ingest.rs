//! Typed ingestion of every artifact the workspace emits.
//!
//! Every producer describes its document **once**: one Rust type next to
//! the code that fills it, with `to_json` and a [`FromJson`] impl side by
//! side on the [`smst_telemetry::json`] codec, and a `SCHEMA` constant
//! holding its tag. This module owns only what is the analyzer's: the
//! `SCHEMA_*` names of those tags and the tag → reader table, the typed
//! [`IngestError`], the [`Artifact`] sum over the producers' types, and
//! the file / directory scan. [`ingest_file`] dispatches on the `schema`
//! tag (or on the `.jsonl` extension for trace streams, whose lines carry
//! no tag), verifies the schema **version** — a known family at an
//! unknown version (`smst-chaos-v2`) is a version error, never
//! half-parsed — and hands the document to the producer's own reader, so
//! the gate and the CLI work on the very structs the writers fill in.
//!
//! Two writers are not linked from here — `smst-adversary` and `smst-net`:
//! a library edge to either would rewrite the benchmark crate's lock file
//! — so [`SCHEMA_CAMPAIGN`] and [`SCHEMA_WIRE`] are literals, pinned to
//! their writers' constants by `tests/schema_tags.rs`, and campaigns keep
//! a reader in this module: [`CampaignDoc`] (a summary of either
//! `smst-campaign-v1` shape).
//!
//! **Adding a schema:** give the producer a type with `to_json` +
//! `FromJson` and a `SCHEMA` constant; here, name its tag, add an
//! [`Artifact`] variant, a `describe` arm and an [`ingest_document`] arm.

use crate::kmw::KmwAnalysis;
use smst_telemetry::json::{FromJson, Json, ParseError, ShapeError};
use smst_telemetry::{ChaosArtifact, FlightDump, RoundsArtifact, TraceLine};
use std::fmt;
use std::path::{Path, PathBuf};

/// Schema tag of per-round accounting artifacts.
pub const SCHEMA_ROUNDS: &str = smst_telemetry::rounds::SCHEMA;
/// Schema tag of chaos wave-accounting artifacts.
pub const SCHEMA_CHAOS: &str = smst_telemetry::chaos::SCHEMA;
/// Schema tag of campaign artifacts (both the adversarial-search and
/// chaos-campaign shapes).
pub const SCHEMA_CAMPAIGN: &str = "smst-campaign-v1";
/// Schema tag of flight-recorder dumps.
pub const SCHEMA_FLIGHT: &str = smst_telemetry::flight::SCHEMA;
/// Schema tag of the analyzer's own `ANALYSIS_*.json` output.
pub const SCHEMA_ANALYSIS: &str = crate::kmw::SCHEMA;
/// Schema tag of the `smst-net` socket protocol (announced by the
/// distributed backend's `Frame::Hello` handshake). It tags a protocol,
/// not a JSON document, so [`ingest_document`] rejects files claiming it.
pub const SCHEMA_WIRE: &str = "smst-wire-v1";

/// Every tag above: a document of one of these families at another
/// version is a version error, not an unknown document.
const SCHEMAS: [&str; 6] = [
    SCHEMA_ROUNDS,
    SCHEMA_CHAOS,
    SCHEMA_CAMPAIGN,
    SCHEMA_FLIGHT,
    SCHEMA_ANALYSIS,
    SCHEMA_WIRE,
];

/// Why ingesting an artifact failed.
#[derive(Debug)]
pub enum IngestError {
    /// The file could not be read.
    Io(PathBuf, std::io::Error),
    /// The file is not valid JSON.
    Parse(PathBuf, ParseError),
    /// The document has no top-level `schema` string.
    MissingSchema(PathBuf),
    /// The `schema` tag names a known family at an unknown version.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// What the file claims to be.
        found: String,
        /// The version this analyzer understands.
        supported: &'static str,
    },
    /// The `schema` tag is entirely unknown.
    UnknownSchema(PathBuf, String),
    /// The document carries the right tag but is missing or mistypes a
    /// field the schema requires.
    Shape {
        /// The offending file.
        path: PathBuf,
        /// Dotted path of the bad field (e.g. `runs[0].steps_run`).
        field: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            IngestError::Parse(p, e) => write!(f, "{}: {e}", p.display()),
            IngestError::MissingSchema(p) => {
                write!(f, "{}: no top-level \"schema\" string", p.display())
            }
            IngestError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{}: schema {found:?} is a version this analyzer does not \
                 understand (supported: {supported:?})",
                path.display()
            ),
            IngestError::UnknownSchema(p, s) => {
                write!(f, "{}: unknown schema {s:?}", p.display())
            }
            IngestError::Shape { path, field } => {
                write!(f, "{}: missing or mistyped field `{field}`", path.display())
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// The two document shapes sharing the `smst-campaign-v1` tag.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignDoc {
    /// The adversarial-search shape (`random_trials` / `guided_trials` /
    /// `records`).
    Search {
        /// Campaign name.
        campaign: String,
        /// Random trials executed.
        random_trials: usize,
        /// Guided trials executed.
        guided_trials: usize,
        /// Trial records in the document.
        records: usize,
    },
    /// The chaos-campaign shape (`cases` / `pool`).
    Chaos {
        /// Campaign name.
        campaign: String,
        /// Case records in the document.
        cases: usize,
        /// Pool self-healing counters: (panics, respawns, barrier
        /// timeouts).
        pool: (usize, usize, usize),
    },
}

/// Any artifact the workspace emits, as the type its producer writes
/// (or, for campaigns, this module's reader type).
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A `smst-rounds-v1` per-round artifact.
    Rounds(RoundsArtifact),
    /// A `smst-chaos-v1` wave-accounting artifact.
    Chaos(ChaosArtifact),
    /// A `smst-campaign-v1` campaign artifact (either shape).
    Campaign(CampaignDoc),
    /// A `smst-flight-v1` flight-recorder dump.
    Flight(FlightDump),
    /// A `smst-analysis-v1` accounting document.
    Analysis(KmwAnalysis),
    /// A `TRACE_*.jsonl` stream, in stream order.
    Trace(Vec<TraceLine>),
}

impl Artifact {
    /// A one-line human summary (the CLI `ingest` listing).
    pub fn describe(&self) -> String {
        match self {
            Artifact::Rounds(d) => format!(
                "rounds group {:?}: {} runs, {} rounds total",
                d.group(),
                d.len(),
                d.runs().iter().map(|r| r.rounds.len()).sum::<usize>()
            ),
            Artifact::Chaos(d) => format!(
                "chaos group {:?}: {} runs, {} waves total",
                d.group(),
                d.len(),
                d.runs().iter().map(|r| r.waves.len()).sum::<usize>()
            ),
            Artifact::Campaign(CampaignDoc::Search {
                campaign,
                random_trials,
                guided_trials,
                records,
            }) => format!(
                "campaign {campaign:?} (search): {random_trials} random + \
                 {guided_trials} guided trials, {records} records"
            ),
            Artifact::Campaign(CampaignDoc::Chaos {
                campaign,
                cases,
                pool,
            }) => format!(
                "campaign {campaign:?} (chaos): {cases} cases, pool \
                 panics={} respawns={} barrier_timeouts={}",
                pool.0, pool.1, pool.2
            ),
            Artifact::Flight(d) => format!(
                "flight {:?}: {} of {} rounds retained (capacity {}) — {}",
                d.name,
                d.rounds.len(),
                d.rounds_seen,
                d.capacity,
                d.reason
            ),
            Artifact::Analysis(d) => format!(
                "analysis \"kmw\": {} families, {} points total",
                d.families.len(),
                d.points().count()
            ),
            Artifact::Trace(lines) => format!("trace: {} records", lines.len()),
        }
    }
}

/// Reads and ingests one artifact file, dispatching on the `.jsonl`
/// extension (trace streams) or the top-level `schema` tag (everything
/// else).
pub fn ingest_file(path: &Path) -> Result<Artifact, IngestError> {
    let text = std::fs::read_to_string(path).map_err(|e| IngestError::Io(path.to_path_buf(), e))?;
    let parse =
        |text: &str| Json::parse(text).map_err(|e| IngestError::Parse(path.to_path_buf(), e));
    if path.extension().is_some_and(|e| e == "jsonl") {
        let mut lines = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if !line.trim().is_empty() {
                let at = |e: ShapeError| shape(path, e.under(&format!("line {}", i + 1)));
                lines.push(TraceLine::from_json(&parse(line)?).map_err(at)?);
            }
        }
        return Ok(Artifact::Trace(lines));
    }
    ingest_document(path, &parse(&text)?)
}

fn shape(path: &Path, error: ShapeError) -> IngestError {
    IngestError::Shape {
        path: path.to_path_buf(),
        field: error.field,
    }
}

/// Ingests an already-parsed schema-tagged document: the tag → reader
/// table.
pub fn ingest_document(path: &Path, doc: &Json) -> Result<Artifact, IngestError> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| IngestError::MissingSchema(path.to_path_buf()))?;
    let unknown = |what: String| Err(IngestError::UnknownSchema(path.to_path_buf(), what));
    match schema {
        SCHEMA_ROUNDS => RoundsArtifact::from_json(doc).map(Artifact::Rounds),
        SCHEMA_CHAOS => ChaosArtifact::from_json(doc).map(Artifact::Chaos),
        SCHEMA_CAMPAIGN => CampaignDoc::from_json(doc).map(Artifact::Campaign),
        SCHEMA_FLIGHT => FlightDump::from_json(doc).map(Artifact::Flight),
        SCHEMA_ANALYSIS => KmwAnalysis::from_json(doc).map(Artifact::Analysis),
        // the wire tag names a socket protocol, not a document shape —
        // nothing to lift into an Artifact
        SCHEMA_WIRE => {
            return unknown(format!(
                "{SCHEMA_WIRE} tags the smst-net socket protocol, not a JSON artifact"
            ))
        }
        other => {
            fn family(tag: &str) -> Option<&str> {
                tag.rsplit_once("-v").map(|(family, _)| family)
            }
            let same_family = |tag: &&str| family(other).is_some() && family(tag) == family(other);
            return match SCHEMAS.into_iter().find(same_family) {
                Some(supported) => Err(IngestError::UnsupportedVersion {
                    path: path.to_path_buf(),
                    found: other.to_string(),
                    supported,
                }),
                None => unknown(other.to_string()),
            };
        }
    }
    .map_err(|e| shape(path, e))
}

impl FromJson for CampaignDoc {
    fn from_json(doc: &Json) -> Result<Self, ShapeError> {
        let campaign = doc.field("campaign")?;
        // one tag, two producers: the chaos campaign carries `cases` + `pool`,
        // the adversarial search carries `records` + trial counts; the
        // records themselves are counted, not lifted
        let count = |key: &str| match doc.get(key).and_then(Json::as_array) {
            Some(items) => Ok(items.len()),
            None => Err(ShapeError::here().under(key)),
        };
        if doc.get("cases").is_some() {
            let pool = doc
                .get("pool")
                .ok_or_else(|| ShapeError::here().under("pool"))?;
            let counter = |key: &str| pool.field(key).map_err(|e| e.under("pool"));
            Ok(CampaignDoc::Chaos {
                campaign,
                cases: count("cases")?,
                pool: (
                    counter("worker_panics")?,
                    counter("worker_respawns")?,
                    counter("barrier_timeouts")?,
                ),
            })
        } else {
            Ok(CampaignDoc::Search {
                campaign,
                random_trials: doc.field("random_trials")?,
                guided_trials: doc.field("guided_trials")?,
                records: count("records")?,
            })
        }
    }
}

/// Artifact files recognized inside a directory: the upload-glob
/// prefixes, in scan order. `ANALYSIS_*` is the analyzer's own
/// accounting output (`smst-analysis-v1`).
pub const ARTIFACT_PREFIXES: [&str; 5] = ["ANALYSIS_", "BENCH_", "CAMPAIGN_", "TRACE_", "FLIGHT_"];

/// Ingests every recognized artifact directly inside `dir`, sorted by
/// file name (deterministic CLI output). Each file's result is returned
/// individually — one corrupt artifact must not hide the rest.
pub fn ingest_dir(dir: &Path) -> std::io::Result<Vec<(PathBuf, Result<Artifact, IngestError>)>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.is_file()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| ARTIFACT_PREFIXES.iter().any(|pre| n.starts_with(pre)))
        })
        .collect();
    paths.sort();
    Ok(paths
        .into_iter()
        .map(|p| {
            let result = ingest_file(&p);
            (p, result)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, body: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("smst_analyze_ingest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn chaos_documents_keep_censored_waves_as_none() {
        let path = tmp(
            "BENCH_chaos_unit.json",
            "{\"schema\":\"smst-chaos-v1\",\"group\":\"chaos\",\"runs\":[\
             {\"label\":\"l\",\"run\":\"seed=7\",\"schedule\":\"s\",\
             \"steps_run\":24,\"injected_faults\":12,\"detected_waves\":1,\
             \"quiesced_waves\":0,\"mean_detection_latency\":1,\
             \"mean_quiescence\":null,\"waves\":[\
             {\"wave\":0,\"step\":0,\"faults\":4,\"detection_latency\":1,\
             \"quiescence\":null}]}]}\n",
        );
        let Artifact::Chaos(doc) = ingest_file(&path).unwrap() else {
            panic!("expected a chaos artifact");
        };
        assert_eq!(doc.runs()[0].waves[0].detection_latency, Some(1));
        assert_eq!(doc.runs()[0].waves[0].quiescence, None);
        assert_eq!(doc.runs()[0].mean_quiescence(), None);
    }

    #[test]
    fn a_chaos_summary_that_disagrees_with_its_waves_is_a_shape_error() {
        let path = tmp(
            "BENCH_chaos_lying.json",
            "{\"schema\":\"smst-chaos-v1\",\"group\":\"chaos\",\"runs\":[\
             {\"label\":\"l\",\"run\":\"seed=7\",\"schedule\":\"s\",\
             \"steps_run\":24,\"injected_faults\":12,\"detected_waves\":3,\
             \"quiesced_waves\":0,\"mean_detection_latency\":null,\
             \"mean_quiescence\":null,\"waves\":[]}]}\n",
        );
        match ingest_file(&path).unwrap_err() {
            IngestError::Shape { field, .. } => assert_eq!(field, "runs[0].detected_waves"),
            other => panic!("expected Shape, got {other:?}"),
        }
    }

    #[test]
    fn both_campaign_shapes_share_one_tag() {
        let search = tmp(
            "CAMPAIGN_search.json",
            "{\"schema\":\"smst-campaign-v1\",\"campaign\":\"s\",\
             \"random_trials\":4,\"guided_trials\":0,\"best\":null,\
             \"shrunk\":null,\"records\":[]}\n",
        );
        let chaos = tmp(
            "CAMPAIGN_chaos.json",
            "{\"schema\":\"smst-campaign-v1\",\"campaign\":\"c\",\
             \"cases\":[],\"pool\":{\"worker_panics\":1,\
             \"worker_respawns\":2,\"barrier_timeouts\":3}}\n",
        );
        let Artifact::Campaign(CampaignDoc::Search { random_trials, .. }) =
            ingest_file(&search).unwrap()
        else {
            panic!("expected the search shape");
        };
        assert_eq!(random_trials, 4);
        let Artifact::Campaign(CampaignDoc::Chaos { pool, .. }) = ingest_file(&chaos).unwrap()
        else {
            panic!("expected the chaos shape");
        };
        assert_eq!(pool, (1, 2, 3));
    }

    #[test]
    fn trace_streams_dispatch_on_extension() {
        let path = tmp(
            "TRACE_unit.jsonl",
            "{\"run\":\"t\",\"round\":0,\"alarms\":0,\"activations\":4,\
             \"halo_bytes\":0,\"dispatch_ns\":1,\"compute_ns\":2,\
             \"barrier_ns\":3,\"exchange_ns\":4}\n",
        );
        let Artifact::Trace(lines) = ingest_file(&path).unwrap() else {
            panic!("expected a trace artifact");
        };
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].run, "t");
        assert_eq!(lines[0].stats.exchange_ns, 4);
    }

    #[test]
    fn future_schema_versions_are_rejected_loudly() {
        let path = tmp(
            "BENCH_future.json",
            "{\"schema\":\"smst-chaos-v2\",\"group\":\"g\"}\n",
        );
        match ingest_file(&path).unwrap_err() {
            IngestError::UnsupportedVersion {
                found, supported, ..
            } => {
                assert_eq!(found, "smst-chaos-v2");
                assert_eq!(supported, SCHEMA_CHAOS);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn unknown_and_missing_schemas_are_distinct_errors() {
        let unknown = tmp("BENCH_x.json", "{\"schema\":\"something-else\"}\n");
        assert!(matches!(
            ingest_file(&unknown).unwrap_err(),
            IngestError::UnknownSchema(..)
        ));
        let missing = tmp("BENCH_y.json", "{\"group\":\"g\"}\n");
        assert!(matches!(
            ingest_file(&missing).unwrap_err(),
            IngestError::MissingSchema(..)
        ));
    }

    #[test]
    fn shape_errors_name_the_offending_field() {
        let path = tmp(
            "BENCH_shape.json",
            "{\"schema\":\"smst-rounds-v1\",\"group\":\"g\",\"runs\":[\
             {\"label\":\"l\",\"run\":\"r\",\"rounds\":[{\"round\":0,\
             \"alarms\":0,\"activations\":4,\"halo_bytes\":0,\"dispatch_ns\":1,\
             \"barrier_ns\":3,\"exchange_ns\":4}]}]}\n",
        );
        match ingest_file(&path).unwrap_err() {
            IngestError::Shape { field, .. } => {
                assert_eq!(field, "runs[0].rounds[0].compute_ns")
            }
            other => panic!("expected Shape, got {other:?}"),
        }
    }

    #[test]
    fn directory_scan_is_sorted_and_prefix_filtered() {
        let dir = std::env::temp_dir().join("smst_analyze_ingest_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_b.json"),
            "{\"schema\":\"smst-rounds-v1\",\"group\":\"b\",\"runs\":[]}\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("ANALYSIS_kmw.json"),
            "{\"schema\":\"smst-analysis-v1\",\"analysis\":\"kmw\",\
             \"seed\":7,\"warmup\":64,\"families\":[]}\n",
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        std::fs::write(dir.join("BENCH_a.json"), "not json").unwrap();
        let results = ingest_dir(&dir).unwrap();
        let names: Vec<_> = results
            .iter()
            .map(|(p, _)| p.file_name().unwrap().to_string_lossy().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["ANALYSIS_kmw.json", "BENCH_a.json", "BENCH_b.json"]
        );
        assert!(matches!(
            results[0].1.as_ref().unwrap(),
            Artifact::Analysis(doc) if doc.seed == 7 && doc.families.is_empty()
        ));
        assert!(
            results[1].1.is_err(),
            "corrupt artifact reported, not hidden"
        );
        assert!(results[2].1.is_ok());
    }

    #[test]
    fn analysis_documents_lift_to_family_summaries() {
        let path = tmp(
            "ANALYSIS_kmw_unit.json",
            "{\"schema\":\"smst-analysis-v1\",\"analysis\":\"kmw\",\
             \"seed\":7,\"warmup\":64,\
             \"families\":[{\"family\":\"kmw_cluster_tree\",\"kind\":\"hard\",\
             \"points\":[\
             {\"levels\":2,\"delta\":3,\"n\":17,\"trials\":5,\"detected\":5,\
              \"measured_rounds\":1,\"upper_bound\":16.707,\"lower_bound\":1.419},\
             {\"levels\":3,\"delta\":3,\"n\":78,\"trials\":5,\"detected\":0,\
              \"measured_rounds\":null,\"upper_bound\":39.506,\"lower_bound\":1.539}]}]}\n",
        );
        let Artifact::Analysis(doc) = ingest_file(&path).unwrap() else {
            panic!("expected an analysis artifact");
        };
        assert_eq!(doc.families.len(), 1);
        assert_eq!(doc.families[0].points.len(), 2);
        assert_eq!(doc.families[0].points[1].measured_rounds, None);
    }
}
