//! A minimal wall-clock timing harness with machine-readable output.
//!
//! The offline build environment cannot fetch Criterion, so the `benches/`
//! targets use `harness = false` and this module instead: warm-up, a fixed
//! number of timed iterations, and min / median / mean / max reporting. The
//! numbers are indicative, not statistically rigorous — for the
//! repository's purposes (ordering variants, spotting regressions of 2×
//! and up, and the sequential-vs-sharded speedup comparison) that is
//! enough.
//!
//! To track the perf trajectory **across PRs**, group benches through
//! [`BenchGroup`]: on [`BenchGroup::finish`] every case's per-config
//! median/min/mean/max (in ns) is written to `BENCH_<group>.json` (in
//! `$SMST_BENCH_DIR`, default the working directory), which CI uploads as
//! an artifact. [`BenchGroup`] / [`BenchResult`] are the one description
//! of the `smst-bench-v1` schema — `to_json` and the [`FromJson`] impls
//! sit side by side on the [`smst_telemetry::json`] codec, and
//! `smst-analyze` reads these types back. Benches honour
//! `$SMST_BENCH_SMOKE` to shrink their sizes for single-core smoke runs —
//! see [`smoke_mode`].

use smst_telemetry::json::{self, Fields as _, Fixed, FromJson, Json, Obj, ShapeError, ToJson};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workspace's JSON string escaping, re-exported for the artifact
/// writers that already import it from here.
pub use smst_telemetry::json::json_string;

/// The schema tag of a [`BenchGroup`] document.
pub const SCHEMA: &str = "smst-bench-v1";

/// Timing summary of one benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Case name (`group/case`).
    pub name: String,
    /// Timed iterations.
    pub iters: u32,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Median iteration, nanoseconds.
    pub median_ns: u64,
    /// Mean iteration, nanoseconds (one decimal in the artifact).
    pub mean_ns: f64,
    /// Slowest iteration, nanoseconds.
    pub max_ns: u64,
}

impl BenchResult {
    /// Mean iteration time in seconds.
    pub fn mean_secs(&self) -> f64 {
        self.mean_ns / 1e9
    }

    /// Median iteration time in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns as f64 / 1e9
    }
}

smst_telemetry::json_record!(BenchResult {
    name,
    iters,
    min_ns,
    median_ns,
    mean_ns: Fixed(1),
    max_ns,
});

/// Times `f` for `iters` iterations (after one untimed warm-up call),
/// prints a summary line, and returns the measurements.
pub fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> BenchResult {
    assert!(iters > 0, "at least one iteration is required");
    black_box(f());
    let mut samples: Vec<u64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let total_ns: u128 = samples.iter().map(|&ns| u128::from(ns)).sum();
    let mut sorted = samples.clone();
    sorted.sort_unstable();
    let result = BenchResult {
        name: name.to_string(),
        iters,
        min_ns: sorted[0],
        median_ns: median_of(&sorted),
        mean_ns: total_ns as f64 / f64::from(iters),
        max_ns: *sorted.last().unwrap(),
    };
    println!(
        "{:<44} {:>10} {:>10} {:>10} {:>10}   ({} iters)",
        result.name,
        format_ns(result.min_ns as f64),
        format_ns(result.median_ns as f64),
        format_ns(result.mean_ns),
        format_ns(result.max_ns as f64),
        result.iters,
    );
    result
}

/// The median of an ascending sample slice: the middle sample for odd
/// lengths, the midpoint of the two middle samples for even lengths.
/// Taking `sorted[len / 2]` alone — the upper middle — biased every even-
/// iteration-count trajectory number upward.
fn median_of(sorted: &[u64]) -> u64 {
    debug_assert!(!sorted.is_empty());
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2
    } else {
        sorted[mid]
    }
}

/// Prints the header matching [`bench()`]'s output columns.
pub fn header(group: &str) {
    println!("\n== {group} ==");
    println!(
        "{:<44} {:>10} {:>10} {:>10} {:>10}",
        "case", "min", "median", "mean", "max"
    );
}

/// A named collection of bench cases that serializes itself to
/// `BENCH_<group>.json` so the perf trajectory is tracked across PRs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchGroup {
    group: String,
    /// Non-timing numbers worth tracking alongside the timings (halo
    /// sizes, exchanged bytes, …), serialized under `"meta"`.
    meta: Meta,
    results: Vec<BenchResult>,
}

impl BenchGroup {
    /// Starts a group (prints the column header).
    pub fn new(group: &str) -> Self {
        header(group);
        BenchGroup {
            group: group.to_string(),
            meta: Meta::default(),
            results: Vec::new(),
        }
    }

    /// Runs one case through [`bench()`] and records its result.
    pub fn bench<R>(&mut self, case: &str, iters: u32, f: impl FnMut() -> R) -> BenchResult {
        let result = bench(&format!("{}/{case}", self.group), iters, f);
        self.results.push(result.clone());
        result
    }

    /// Records a non-timing metric in the artifact's `"meta"` object (and
    /// prints it, so console runs show it too).
    pub fn record_meta(&mut self, key: &str, value: f64) {
        println!("  meta {key} = {value}");
        self.meta.0.push((key.to_string(), value));
    }

    /// The group name.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// The recorded results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The recorded non-timing metrics, in recording order.
    pub fn meta(&self) -> &[(String, f64)] {
        &self.meta.0
    }

    /// Serializes the group as a JSON document.
    pub fn to_json(&self) -> String {
        json::document(SCHEMA, |doc| self.write_fields(doc))
    }

    /// Writes `BENCH_<group>.json` into `dir` and returns its path (tests
    /// pass a directory instead of mutating the process-global
    /// `SMST_BENCH_DIR`).
    pub fn write_json_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        json::write_artifact(dir, &format!("BENCH_{}.json", self.group), &self.to_json())
    }

    /// Writes the JSON artifact into
    /// [`artifact_dir`](smst_telemetry::artifact_dir), printing where it
    /// went (panics on I/O errors — a bench run that silently loses its
    /// results is worse than one that fails).
    pub fn finish(self) -> PathBuf {
        let path = self
            .write_json_to(&json::artifact_dir())
            .expect("writing the bench JSON artifact");
        println!("  results -> {}", path.display());
        path
    }
}

smst_telemetry::json_record!(BenchGroup {
    group,
    meta,
    results,
});

/// The `"meta"` object: one key per recorded metric, in recording order.
#[derive(Debug, Clone, Default, PartialEq)]
struct Meta(Vec<(String, f64)>);

impl ToJson for Meta {
    fn write_json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        for (key, value) in &self.0 {
            obj = obj.field(key, value);
        }
        obj.end();
    }
}

impl FromJson for Meta {
    fn from_json(value: &Json) -> Result<Self, ShapeError> {
        let Json::Obj(fields) = value else {
            return Err(ShapeError::here());
        };
        // (a non-finite metric was written as `null` and reads back as NaN)
        let metric = |(key, value): &(String, Json)| match f64::from_json(value) {
            Ok(x) => Ok((key.clone(), x)),
            Err(e) => Err(e.under(key)),
        };
        fields
            .iter()
            .map(metric)
            .collect::<Result<_, _>>()
            .map(Meta)
    }
}

/// `true` when `$SMST_BENCH_SMOKE` is set (to anything but `0`): benches
/// shrink to smoke-test sizes so CI can exercise them and upload the JSON
/// artifacts without a multi-minute run.
pub fn smoke_mode() -> bool {
    std::env::var_os("SMST_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let r = bench("test/spin", 5, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert_eq!(r.iters, 5);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.max_ns);
        assert!(r.min_ns <= r.mean_ns as u64 + 1);
        assert!(r.mean_ns <= r.max_ns as f64 + 1.0);
        assert!(r.mean_secs() > 0.0);
        assert!(r.median_secs() > 0.0);
    }

    #[test]
    fn formatting_covers_all_scales() {
        assert!(format_ns(5e2).ends_with("ns"));
        assert!(format_ns(5e4).ends_with("µs"));
        assert!(format_ns(5e7).ends_with("ms"));
        assert!(format_ns(5e9).ends_with('s'));
    }

    #[test]
    fn group_serializes_valid_json() {
        let mut group = BenchGroup::new("unit_test_group");
        group.bench("case_a", 2, || 1 + 1);
        group.bench("case_b", 3, || 2 * 2);
        group.record_meta("halo_entries", 42.0);
        let json = group.to_json();
        assert!(json.starts_with("{\"schema\":\"smst-bench-v1\",\"group\":\"unit_test_group\""));
        assert_eq!(json.matches("\"name\":").count(), 2);
        assert_eq!(json.matches("\"median_ns\":").count(), 2);
        assert!(json.contains("\"meta\":{\"halo_entries\":42}"));
        // handwritten serializer: brackets and braces must balance
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn median_averages_the_two_middle_samples_on_even_counts() {
        // regression: `sorted[len / 2]` alone is the *upper* middle, which
        // biased every even-iteration-count median upward
        assert_eq!(median_of(&[10]), 10);
        assert_eq!(median_of(&[10, 20]), 15);
        assert_eq!(median_of(&[10, 20, 30]), 20);
        assert_eq!(median_of(&[10, 20, 30, 100]), 25);
        assert_eq!(median_of(&[1, 2, 3, 4, 5, 6]), 3, "(3 + 4) / 2 rounds down");
        // an outlier-heavy tail must not drag an even-count median up
        assert_eq!(median_of(&[1, 1, 1_000_000, 1_000_000_000]), 500_000);
    }

    /// The fixed group `tests/golden/BENCH_bench_golden.json` (kept with
    /// the other schema goldens in `smst-analyze`) was recorded from.
    fn golden_group() -> BenchGroup {
        let case = |name: &str, iters, min_ns, median_ns, mean_ns, max_ns| BenchResult {
            name: name.to_string(),
            iters,
            min_ns,
            median_ns,
            mean_ns,
            max_ns,
        };
        BenchGroup {
            group: "bench_golden".to_string(),
            results: vec![
                case("bench_golden/round_sharded_t2", 5, 10, 20, 21.5, 40),
                case(
                    "bench_golden/\"quoted\" case",
                    24,
                    1_000_000,
                    1_234_567,
                    1_300_000.26,
                    9_007_199_254_740_991,
                ),
            ],
            meta: Meta(vec![
                ("halo_entries".to_string(), 42.0),
                ("telemetry_disabled_ratio".to_string(), 0.875),
                ("speedup".to_string(), 1e-7),
            ]),
        }
    }

    #[test]
    fn group_reproduces_the_golden_file_byte_for_byte() {
        let golden = include_str!("../../analyze/tests/golden/BENCH_bench_golden.json");
        assert_eq!(
            golden_group().to_json(),
            golden,
            "the smst-bench-v1 writer changed; if intentional, regenerate \
             BENCH_bench_golden.json and bump the schema version"
        );
        let back = BenchGroup::from_json(&Json::parse(golden).unwrap()).unwrap();
        // `mean_ns` is written with one decimal, everything else exactly
        let mut expected = golden_group();
        expected.results[1].mean_ns = 1_300_000.3;
        assert_eq!(back, expected);
    }

    #[test]
    fn non_finite_meta_is_written_as_null_and_read_back_as_nan() {
        let mut group = golden_group();
        group.meta = Meta(vec![
            ("nan".to_string(), f64::NAN),
            ("ratio".to_string(), 1.0 / 0.0),
            ("fine".to_string(), 2.5),
        ]);
        let json = group.to_json();
        assert!(json.contains("\"meta\":{\"nan\":null,\"ratio\":null,\"fine\":2.5}"));
        let back = BenchGroup::from_json(&Json::parse(&json).expect("the gate can read it"))
            .expect("and lift it");
        assert!(back.meta()[0].1.is_nan() && back.meta()[1].1.is_nan());
        assert_eq!(back.meta()[2], ("fine".to_string(), 2.5));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// `from_json(parse(to_json(x))) == x` — the bench member of the
        /// per-type round trips in `smst-analyze`'s `codec_props.rs`.
        #[test]
        fn groups_round_trip(
            names in proptest::collection::vec(
                proptest::collection::vec(proptest::char::any(), 0..12),
                1..20,
            ),
            numbers in proptest::collection::vec(
                (0u32..u32::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
                20,
            ),
            metrics in proptest::collection::vec(proptest::num::f64::ANY, 20),
        ) {
            let names: Vec<String> = names.into_iter().map(|cs| cs.into_iter().collect()).collect();
            let group = BenchGroup {
                group: names[0].clone(),
                results: names[1..]
                    .iter()
                    .zip(&numbers)
                    .map(|(name, &(iters, min_ns, median_ns, max_ns))| BenchResult {
                        name: name.clone(),
                        iters,
                        min_ns,
                        median_ns,
                        // on the artifact's one-decimal grid
                        mean_ns: (median_ns >> 12) as f64 / 10.0,
                        max_ns,
                    })
                    .collect(),
                meta: Meta(names.iter().cloned().zip(metrics).collect()),
            };
            let json = group.to_json();
            let doc = Json::parse(&json).map_err(|e| proptest::TestCaseError(e.to_string()))?;
            let back = BenchGroup::from_json(&doc).map_err(|e| proptest::TestCaseError(e.to_string()))?;
            proptest::prop_assert_eq!(&back.group, &group.group);
            proptest::prop_assert_eq!(&back.results, &group.results);
            proptest::prop_assert_eq!(back.meta().len(), group.meta().len());
            for ((key, read), (wrote_key, wrote)) in back.meta().iter().zip(group.meta()) {
                proptest::prop_assert_eq!(key, wrote_key);
                // finite metrics are exact; the rest come back as NaN
                proptest::prop_assert!(
                    if wrote.is_finite() { read == wrote } else { read.is_nan() },
                    "{} read back as {}", wrote, read
                );
            }
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
    }

    #[test]
    fn group_writes_the_artifact_file() {
        // regression: this used to `set_var("SMST_BENCH_DIR")` — process-
        // global env mutation races the other test threads reading
        // `artifact_dir()`; the injectable `write_json_to` needs no env at all
        let dir = std::env::temp_dir().join("smst_bench_harness_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut group = BenchGroup::new("artifact_roundtrip");
        group.bench("spin", 1, || 7u64);
        let path = group.write_json_to(&dir).unwrap();
        assert_eq!(path.parent().unwrap(), dir.as_path());
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"group\":\"artifact_roundtrip\""));
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("BENCH_"));
        std::fs::remove_file(path).ok();
    }
}
