//! Bench: SYNC_MST construction and marker (reproduces the O(n)
//! construction-time claim — Theorem 4.4 / Corollary 6.11). Results land
//! in `BENCH_construction.json`.
//!
//! The paper's `O(n)` counts ideal rounds; what is timed here is the
//! centralized computation of the same labels, `O((n + m) log n)`. The
//! sweep reaches 64k nodes (4k under `$SMST_BENCH_SMOKE`) because a
//! quadratic term is invisible at a few hundred, and the group's `meta`
//! records each stage's fitted growth exponent: the least-squares slope of
//! `log median` over `log n`, 1 for linear time and 2 for quadratic.
use smst_bench::harness::{smoke_mode, BenchGroup};
use smst_core::{Marker, SyncMst};
use smst_graph::generators::random_connected_graph;

/// The least-squares slope of `ln y` over `ln x`.
fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let count = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / count;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / count;
    let covariance: f64 = logs.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let variance: f64 = logs.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    covariance / variance
}

fn main() {
    let sizes: &[usize] = if smoke_mode() {
        &[1_000, 4_000]
    } else {
        &[1_000, 4_000, 16_000, 64_000]
    };
    let mut group = BenchGroup::new("construction");
    let (mut sync_mst, mut marker) = (Vec::new(), Vec::new());
    for &n in sizes {
        let iters = if n <= 4_000 { 10 } else { 5 };
        let g = random_connected_graph(n, 3 * n, 1);
        let result = group.bench(&format!("sync_mst/{n}"), iters, || SyncMst.run(&g).rounds);
        sync_mst.push((n as f64, result.median_ns as f64));
        let inst = smst_bench::mst_instance(n, 3 * n, 1);
        let result = group.bench(&format!("marker/{n}"), iters, || {
            Marker.label(&inst).unwrap().1.total_rounds()
        });
        marker.push((n as f64, result.median_ns as f64));
    }
    group.record_meta("sync_mst_growth_exp", log_log_slope(&sync_mst));
    group.record_meta("marker_growth_exp", log_log_slope(&marker));
    group.finish();
}
