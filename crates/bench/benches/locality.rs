//! Bench: detection-distance measurement with f faults (F-LOC) on the
//! sequential reference backend. Results land in `BENCH_locality.json`.
use smst_bench::engine_metrics::engine_locality_sweep;
use smst_bench::harness::BenchGroup;
use smst_engine::EngineConfig;

fn main() {
    let mut group = BenchGroup::new("locality");
    let reference = EngineConfig::reference();
    for f in [1usize, 4] {
        group.bench(&format!("faults/{f}"), 10, || {
            engine_locality_sweep(32, &[f], 17, &reference)[0].max_detection_distance
        });
    }
    group.finish();
}
