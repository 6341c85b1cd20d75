//! Parity by construction, checked: every schema type reads back what it
//! writes, and no byte-level damage to a document makes a reader panic.
//!
//! * **Round trips** — `from_json(parse(to_json(x))) == x` per producer
//!   type, over strings full of quotes, backslashes, control bytes and
//!   non-BMP characters, `None` / `Some`, integers up to `u64::MAX`,
//!   finite and non-finite floats, empty and long arrays.
//! * **Mutation** — every golden document, flipped / shortened /
//!   lengthened at every offset and truncated at every offset (≈ 10⁴
//!   seeded cases): `Json::parse`, `ingest_document` and every
//!   `from_json` return `Ok` or a typed error.

use proptest::collection::vec;
use proptest::prelude::*;
use smst_analyze::ingest::{ingest_document, CampaignDoc};
use smst_analyze::kmw::{KmwAnalysis, KmwFamily, KmwPoint};
use smst_analyze::Json;
use smst_rng::Rng as _;
use smst_sim::{RoundStats, WaveStats};
use smst_telemetry::json::FromJson;
use smst_telemetry::{ChaosArtifact, ChaosRun, FlightDump, RoundsArtifact, TraceLine};
use std::path::Path;

const ANY_U64: std::ops::Range<u64> = 0..u64::MAX;
const ANY_USIZE: std::ops::Range<usize> = 0..usize::MAX;

fn text() -> impl Strategy<Value = String> {
    vec(proptest::char::any(), 0..12).prop_map(|chars| chars.into_iter().collect())
}

fn round_stats() -> impl Strategy<Value = RoundStats> {
    (
        (ANY_USIZE, ANY_USIZE, ANY_USIZE, ANY_U64),
        (ANY_U64, ANY_U64, ANY_U64, ANY_U64),
    )
        .prop_map(
            |((round, alarms, activations, halo_bytes), ns)| RoundStats {
                round,
                alarms,
                activations,
                halo_bytes,
                dispatch_ns: ns.0,
                compute_ns: ns.1,
                barrier_ns: ns.2,
                exchange_ns: ns.3,
            },
        )
}

fn wave_stats() -> impl Strategy<Value = WaveStats> {
    let latency = || proptest::option::of(0usize..10_000);
    ((ANY_USIZE, ANY_USIZE, ANY_USIZE), (latency(), latency())).prop_map(
        |((wave, step, faults), (detection_latency, quiescence))| WaveStats {
            wave,
            step,
            faults,
            detection_latency,
            quiescence,
        },
    )
}

/// A float on the artifact's three-decimal grid (what `{:.3}` keeps).
fn milli() -> impl Strategy<Value = f64> {
    (0u64..100_000_000).prop_map(|k| k as f64 / 1000.0)
}

fn kmw_point() -> impl Strategy<Value = KmwPoint> {
    (
        (0usize..8, 0usize..8, ANY_USIZE, 0usize..64),
        (
            0usize..64,
            proptest::option::of(ANY_USIZE),
            milli(),
            milli(),
        ),
    )
        .prop_map(|((levels, delta, n, trials), rest)| KmwPoint {
            levels,
            delta,
            n,
            trials,
            detected: rest.0,
            measured_rounds: rest.1,
            upper_bound: rest.2,
            lower_bound: rest.3,
        })
}

/// `from_json(parse(json))`, with the panic message a failing case needs.
fn read_back<T: FromJson>(json: &str) -> T {
    let doc = Json::parse(json).unwrap_or_else(|e| panic!("{e} in {json:?}"));
    T::from_json(&doc).unwrap_or_else(|e| panic!("{e} in {json:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rounds_artifacts_round_trip(
        group in text(),
        runs in vec((text(), text(), vec(round_stats(), 0..40)), 0..4),
    ) {
        let mut artifact = RoundsArtifact::new(&group);
        for (label, run, stats) in runs {
            artifact.push(&label, &run, stats);
        }
        prop_assert_eq!(read_back::<RoundsArtifact>(&artifact.to_json()), artifact);
    }

    #[test]
    fn chaos_artifacts_round_trip(
        group in text(),
        runs in vec(((text(), text(), text()), (ANY_USIZE, ANY_USIZE), vec(wave_stats(), 0..24)), 0..4),
    ) {
        let mut artifact = ChaosArtifact::new(&group);
        for ((label, run, schedule), (steps_run, injected_faults), waves) in runs {
            artifact.push(ChaosRun { label, run, schedule, steps_run, injected_faults, waves });
        }
        prop_assert_eq!(read_back::<ChaosArtifact>(&artifact.to_json()), artifact);
    }

    #[test]
    fn flight_dumps_and_trace_lines_round_trip(
        name in text(),
        reason in text(),
        counts in (ANY_USIZE, ANY_USIZE),
        rounds in vec(round_stats(), 0..40),
    ) {
        for stats in rounds.iter().take(4) {
            let line = TraceLine { run: reason.clone(), stats: stats.clone() };
            prop_assert_eq!(read_back::<TraceLine>(&line.to_json()), line);
        }
        let dump = FlightDump { name, reason, capacity: counts.0, rounds_seen: counts.1, rounds };
        prop_assert_eq!(read_back::<FlightDump>(&dump.to_json()), dump);
    }

    #[test]
    fn kmw_analyses_round_trip(
        seed in ANY_U64,
        warmup in ANY_USIZE,
        families in vec((text(), text(), vec(kmw_point(), 0..6)), 0..4),
    ) {
        let families = families
            .into_iter()
            .map(|(family, kind, points)| KmwFamily { family, kind, points })
            .collect();
        let analysis = KmwAnalysis { seed, warmup, families };
        prop_assert_eq!(read_back::<KmwAnalysis>(&analysis.to_json()), analysis);
    }
}

/// Every checked-in golden document.
const GOLDENS: [&str; 7] = [
    include_str!("golden/ANALYSIS_kmw_golden.json"),
    include_str!("golden/BENCH_chaos_golden.json"),
    include_str!("golden/BENCH_rounds_golden.json"),
    include_str!("golden/CAMPAIGN_chaos_golden.json"),
    include_str!("golden/CAMPAIGN_search_golden.json"),
    include_str!("golden/FLIGHT_golden.json"),
    include_str!("golden/TRACE_golden.jsonl"),
];

/// Feeds `bytes` to the parser and, if it parses, to the tag dispatch and
/// to every reader directly (a mutated tag must not shield a reader).
/// Returns whether the bytes parsed. Nothing here may panic.
fn read_every_way(bytes: &[u8]) -> bool {
    // `ingest_file` reports non-UTF-8 bytes as a typed I/O error
    let Ok(text) = std::str::from_utf8(bytes) else {
        return false;
    };
    let mut parsed = false;
    // whole-document and line-by-line, as `.json` and `.jsonl` are read
    for piece in std::iter::once(text).chain(text.lines()) {
        let Ok(doc) = Json::parse(piece) else {
            continue;
        };
        parsed = true;
        let _ = ingest_document(Path::new("mutant.json"), &doc);
        let _ = RoundsArtifact::from_json(&doc);
        let _ = ChaosArtifact::from_json(&doc);
        let _ = FlightDump::from_json(&doc);
        let _ = TraceLine::from_json(&doc);
        let _ = KmwAnalysis::from_json(&doc);
        let _ = CampaignDoc::from_json(&doc);
    }
    parsed
}

#[test]
fn mutated_goldens_are_read_or_rejected_never_a_panic() {
    let mut rng = proptest::rng_for("mutated_goldens");
    let (mut cases, mut parsed) = (0usize, 0usize);
    for golden in GOLDENS {
        let bytes = golden.as_bytes();
        assert!(read_every_way(bytes), "the golden itself must parse");
        for at in 0..bytes.len() {
            let mut mutant = bytes.to_vec();
            match rng.gen_range(0..3u32) {
                0 => mutant[at] ^= 1 << rng.gen_range(0..8u32),
                1 => drop(mutant.remove(at)),
                _ => mutant.insert(at, bytes[at]),
            }
            parsed += usize::from(read_every_way(&mutant));
            parsed += usize::from(read_every_way(&bytes[..at]));
            cases += 2;
        }
    }
    // a fixed budget (two cases per golden byte), and not a vacuous one:
    // plenty of mutants still parse and reach the readers
    assert!((8_000..20_000).contains(&cases), "{cases} cases");
    assert!(parsed > cases / 20, "{parsed} of {cases} mutants parsed");
}
