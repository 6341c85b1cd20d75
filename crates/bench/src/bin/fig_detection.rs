//! Regenerates the detection-time figure (Theorem 8.5): rounds from a fault
//! to the first alarm, as a function of n — engine-native, so the sweep
//! parallelizes across the worker pool and scales to 100k+ nodes.
//!
//! The largest sweep point is additionally replayed **observed**: the same
//! scenario re-run with a [`RecordingObserver`] attached, the window
//! around its fault written to `TRACE_fig_detection.jsonl` — so the
//! figure's headline point ships with its full per-round phase split.
//!
//! Sizes are small by default; set `SMST_FIG_N=<n>` to extend the sweep
//! (doubling sizes up to `n`) on a multi-core host.

use smst_bench::engine_metrics::{
    detection_scenario, engine_detection_sweep, fig_sizes, verifier_point,
};
use smst_core::faults::FaultKind;
use smst_engine::{EngineConfig, LayoutPolicy};
use smst_sim::RecordingObserver;
use smst_telemetry::{artifact_dir, TraceWriter};

fn main() {
    let sizes = fig_sizes(&[16, 24, 32, 48, 64]).unwrap_or_else(|err| {
        eprintln!("fig_detection: {err}");
        std::process::exit(2)
    });
    let engine = EngineConfig::new()
        .threads(smst_engine::default_threads())
        .layout(LayoutPolicy::Rcm);
    println!(
        "Detection time of the paper's verifier (engine-native, single stored-piece fault, {})",
        engine.describe()
    );
    println!(
        "{:>8} {:>6} {:>18} {:>20} {:>14}",
        "n", "Δ", "detection steps", "steps / log^3 n", "distance"
    );
    for p in engine_detection_sweep(&sizes, 7, &engine) {
        let l = (p.n as f64).log2();
        let steps = p
            .detection_steps
            .map(|t| t.to_string())
            .unwrap_or_else(|| "missed".to_string());
        let normalized = p
            .detection_steps
            .map(|t| format!("{:.2}", t as f64 / (l * l * l)))
            .unwrap_or_else(|| "—".to_string());
        let distance = if p.detection_steps.is_some() {
            p.detection_distance.to_string()
        } else {
            "—".to_string()
        };
        println!(
            "{:>8} {:>6} {:>18} {:>20} {:>14}",
            p.n, p.max_degree, steps, normalized, distance
        );
    }
    observed_replay(*sizes.last().expect("at least one size"), 7, &engine);
}

/// Replays one sweep point with per-round accounting attached and writes
/// the window around the fault to `TRACE_fig_detection.jsonl`.
fn observed_replay(n: usize, seed: u64, engine: &EngineConfig) {
    let (spec, budget) = detection_scenario(n, seed, engine);
    let warmup = spec.fault.expect("the detection scenario has a burst").at;
    let run = format!("fam=rand:{n}x{m};gs={seed};at={warmup}", m = 3 * n);
    let recording = RecordingObserver::new();
    let observer = Some(Box::new(recording.clone()) as _);
    let point = verifier_point(spec, FaultKind::StoredPieceWeight, seed, budget, observer);
    let stats = recording.stats();
    assert_eq!(stats.len(), point.steps_run, "one record per executed step");
    // the warm-up dominates the step count (the polylog budget is ~10^5
    // steps even at small n); the trace keeps the window around the
    // fault — a short converged prefix plus everything from injection to
    // the alarm — instead of megabytes of identical warm-up rounds
    let trace = TraceWriter::create_in(&artifact_dir(), "fig_detection")
        .expect("creating TRACE_fig_detection.jsonl");
    let mut observer = trace.observer(&run);
    for round in stats.iter().skip(warmup.saturating_sub(8)) {
        observer.on_round(round);
    }
    trace.flush().expect("flushing the fig_detection trace");
    println!("  trace -> {}", trace.path().display());
}
