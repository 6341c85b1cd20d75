//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` at the repo root
//! lists the same names (a test holds the two together) and adds the
//! direction and regression bound of each metric.

use smst_analyze::Json;

/// The repo's `BENCHMARK.json`, compiled in so `compare` needs no path.
pub const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = [
    "construct_rc8k",
    "verify_sync_rc4k",
    "verify_async_rc2k",
    "flood_remote_x100k",
];

/// End-to-end metrics `(name, unit)`: printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("steady_node_rounds_per_s", "1/s"),
    ("round_us_mean", "us"),
    ("peak_rss_mb", "MiB"),
    ("bits_per_node_max", "bits"),
];

/// Per-layer metrics `(name, unit)`: printed by every traced run. A layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_ms", "ms"),
    ("graph.mst_ms", "ms"),
    ("labeling.instance_ms", "ms"),
    ("labeling.sp_mark_ms", "ms"),
    ("core.marker_ms", "ms"),
    ("core.sync_mst_ms", "ms"),
    ("core.strings_ms", "ms"),
    ("core.partitions_ms", "ms"),
    ("core.marker_self_ms", "ms"),
    ("core.marker_growth_exp", "log2"),
    ("core.verifier_build_ms", "ms"),
    ("core.step_ns_per_node", "ns"),
    ("core.bits_per_log_n", "bits"),
    ("core.detect_rounds_p50", "rounds"),
    ("core.detect_rounds_max", "rounds"),
    ("core.detect_undetected", "count"),
    ("sim.reference_round_us", "us"),
    ("engine.instantiate_ms", "ms"),
    ("engine.instantiate_rcm_ms", "ms"),
    ("engine.instantiate_halo_ms", "ms"),
    ("engine.round_us_p50", "us"),
    ("engine.round_us_tail", "us"),
    ("engine.round_tail_pct", "%"),
    ("engine.dispatch_us", "us"),
    ("engine.compute_us", "us"),
    ("engine.barrier_us", "us"),
    ("engine.exchange_us", "us"),
    ("engine.phase_cover", "ratio"),
    ("engine.stop_check_us", "us"),
    ("engine.scaling_t2_over_t1", "ratio"),
    ("engine.sharded_t1_over_reference", "ratio"),
    ("engine.halo_over_direct", "ratio"),
    ("engine.rcm_over_identity", "ratio"),
    ("engine.async_ns_per_activation", "ns"),
    ("engine.async_batches_per_unit", "count"),
    ("net.launch_ms", "ms"),
    ("net.shutdown_ms", "ms"),
    ("net.round_us_p50", "us"),
    ("net.round_us_tail", "us"),
    ("net.round_tail_pct", "%"),
    ("net.exchange_us", "us"),
    ("net.compute_us", "us"),
    ("net.halo_bytes_per_round", "B"),
    ("net.remote_over_sharded_halo", "ratio"),
    ("selfstab.stabilize_ms", "ms"),
    ("trace.cover", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Direction and regression bound of one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the base value the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end bounds `BENCHMARK.json` fixes.
pub fn bounds() -> Vec<Bound> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|m| Bound {
            name: field(m, "name"),
            higher_is_better: field(m, "better") == "higher",
            bound: m
                .get("bound")
                .and_then(Json::as_f64)
                .expect("every end-to-end metric has a bound"),
        })
        .collect()
}

fn field(object: &Json, key: &str) -> String {
    object
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry without `{key}`"))
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Json, key: &str, extra: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, extra)))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_names() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(listed(&doc, "end_to_end", "unit"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer", "unit"), owned(PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads", "why")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn benchmark_json_keeps_the_contract_limits() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let mut keys = doc.keys();
        keys.sort_unstable();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let bounds = bounds();
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(!setup.higher_is_better);
        assert!(bounds.iter().all(|b| b.bound <= setup.bound));
        for (_, why) in listed(&doc, "workloads", "why") {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
