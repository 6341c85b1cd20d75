//! Regenerates the detection-locality figure: detection distance O(f log n)
//! — engine-native, so the sweep parallelizes across the worker pool and
//! scales to 100k+ nodes.
//!
//! The node count is small by default; set `SMST_FIG_N=<n>` to run the
//! sweep at `n` nodes on a multi-core host.

use smst_bench::engine_metrics::{engine_locality_sweep, fig_size_override};
use smst_engine::{EngineConfig, LayoutPolicy};

fn main() {
    let n = fig_size_override()
        .unwrap_or_else(|err| {
            eprintln!("fig_locality: {err}");
            std::process::exit(2)
        })
        .unwrap_or(64);
    let faults = [1usize, 2, 4, 8, 16];
    let engine = EngineConfig::new()
        .threads(smst_engine::default_threads())
        .layout(LayoutPolicy::Rcm);
    println!(
        "Detection distance with f faults (engine-native, n = {n}, {})",
        engine.describe()
    );
    println!(
        "{:>6} {:>24} {:>18}",
        "f", "max detection distance", "f · log2 n"
    );
    for p in engine_locality_sweep(n, &faults, 21, &engine) {
        println!(
            "{:>6} {:>24} {:>18.1}",
            p.faults,
            p.max_detection_distance,
            p.faults as f64 * (n as f64).log2()
        );
    }
}
