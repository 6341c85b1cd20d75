//! What the benchmark prints: `workload metric value unit` lines, the
//! result object on the last line, the gathered document of a full run,
//! and the comparison of two such documents.

use crate::pipeline::RunOutput;
use crate::spec::{self, Bound};
use crate::stats::fail_share;
use smst_analyze::Json;
use smst_bench::harness::json_string;
use std::fmt::Write;

/// The lines of one run: notes, one line per metric of `table`, the
/// failure share, and the result object last.
///
/// # Panics
///
/// Panics if the run's metrics are not exactly the names of `table`, or a
/// value is not a finite number — either is a bug in the driver.
pub fn render(workload: &str, table: &[(&str, &str)], out: &RunOutput) -> String {
    let mut text = String::new();
    for note in &out.notes {
        writeln!(text, "# {note}").unwrap();
    }
    assert_eq!(
        out.metrics.len(),
        table.len(),
        "{workload}: metrics measured and metrics named differ"
    );
    let mut object = String::new();
    for (name, unit) in table {
        let value = *out
            .metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{workload}: `{name}` was not measured"));
        assert!(value.is_finite(), "{workload}: `{name}` is {value}");
        writeln!(text, "{workload} {name} {value} {unit}").unwrap();
        if !object.is_empty() {
            object.push(',');
        }
        write!(
            object,
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_string(name),
            json_string(unit)
        )
        .unwrap();
    }
    let checks = &out.checks;
    writeln!(
        text,
        "{workload} fail_share {} ratio  # {} failed of {} output checks",
        fail_share(checks.failed, checks.attempted),
        checks.failed,
        checks.attempted
    )
    .unwrap();
    writeln!(
        text,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{object}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed
    )
    .unwrap();
    text
}

/// One run's entry of the gathered document.
pub fn run_entry(workload: &str, trace: bool, result: &str) -> String {
    format!(
        "{{\"workload\":{},\"trace\":{},\"result\":{result}}}",
        json_string(workload),
        u8::from(trace)
    )
}

/// The gathered document of a full run.
pub fn document(seed: u64, seconds: u64, runs: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"benchmark\":\"smst-e2e\",\"seed\":{seed},\"seconds\":{seconds},\"nproc\":{nproc},\
         \"runs\":[\n{}\n]}}\n",
        runs.join(",\n")
    )
}

/// The untraced result of one workload in a gathered document.
fn untraced<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("runs")?
        .as_array()?
        .iter()
        .find(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_u64) == Some(0)
        })?
        .get("result")
}

fn value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// `ok`, `regressed` or `unresolved` for one metric going from `a` to `b`.
fn verdict(bound: &Bound, a: Option<f64>, b: Option<f64>, comparable: bool) -> (&'static str, f64) {
    let (Some(a), Some(b)) = (a, b) else {
        return ("unresolved", f64::NAN);
    };
    let worse_by = if bound.higher_is_better { a - b } else { b - a } / a;
    let word = if !comparable {
        "unresolved"
    } else if worse_by > bound.bound {
        "regressed"
    } else {
        "ok"
    };
    (word, worse_by)
}

/// Compares document `b` against base `a` on every workload × end-to-end
/// metric. Returns the table and whether anything regressed. A pair is
/// `unresolved` when a value is missing, a run failed its output checks,
/// or the two documents come from hosts with different core counts.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let parse =
        |text: &str, which: &str| Json::parse(text).map_err(|e| format!("{which} document: {e}"));
    let (a, b) = (parse(a, "first")?, parse(b, "second")?);
    let same_host = a.get("nproc").and_then(Json::as_u64) == b.get("nproc").and_then(Json::as_u64)
        && a.get("seconds").and_then(Json::as_u64) == b.get("seconds").and_then(Json::as_u64);
    let correct = |r: Option<&Json>| r.and_then(|r| r.get("correct")?.as_bool()) == Some(true);
    let mut table = format!(
        "{:<20} {:<26} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict\n",
        "workload", "metric", "base (A)", "B", "B/A", "worse by", "bound"
    );
    let mut regressed = false;
    for workload in spec::WORKLOADS {
        let (ra, rb) = (untraced(&a, workload), untraced(&b, workload));
        let comparable = same_host && correct(ra) && correct(rb);
        for bound in spec::bounds() {
            let va = ra.and_then(|r| value(r, &bound.name));
            let vb = rb.and_then(|r| value(r, &bound.name));
            let (word, worse_by) = verdict(&bound, va, vb, comparable);
            regressed |= word == "regressed";
            let show = |v: Option<f64>| v.map_or("missing".to_string(), |v| format!("{v:.4}"));
            writeln!(
                table,
                "{workload:<20} {:<26} {:>14} {:>14} {:>9.4} {:>8.2}% {:>6.1}%  {word}",
                bound.name,
                show(va),
                show(vb),
                vb.unwrap_or(f64::NAN) / va.unwrap_or(f64::NAN),
                worse_by * 100.0,
                bound.bound * 100.0,
            )
            .unwrap();
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(setup_s: f64, rate: f64, correct: bool) -> String {
        let result = format!(
            "{{\"correct\":{correct},\"attempted\":3,\"failed\":0,\"metrics\":{{\
             \"setup_s\":{{\"value\":{setup_s},\"unit\":\"s\"}},\
             \"steady_node_rounds_per_s\":{{\"value\":{rate},\"unit\":\"1/s\"}}}}}}"
        );
        document(7, 10, &[run_entry("verify_sync_rc4k", false, &result)])
    }

    fn rows(table: &str, workload: &str, metric: &str) -> String {
        table
            .lines()
            .find(|l| l.starts_with(workload) && l.contains(metric))
            .unwrap()
            .to_string()
    }

    #[test]
    fn compare_flags_only_changes_past_the_bound() {
        let bounds = spec::bounds();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap().bound;
        let rate = bounds
            .iter()
            .find(|b| b.name == "steady_node_rounds_per_s")
            .unwrap()
            .bound;
        // slower set-up just inside its bound, throughput just past its own
        let base = doc(1.0, 1000.0, true);
        let (table, regressed) = compare(
            &base,
            &doc(1.0 + setup * 0.9, 1000.0 * (1.0 - rate * 1.1), true),
        )
        .unwrap();
        assert!(regressed);
        assert!(rows(&table, "verify_sync_rc4k", "setup_s").ends_with("ok"));
        assert!(rows(&table, "verify_sync_rc4k", "steady_node_rounds_per_s").ends_with("regressed"));
        // a workload or metric missing from a document cannot be judged
        assert!(rows(&table, "construct_rc8k", "setup_s").ends_with("unresolved"));
        assert!(rows(&table, "verify_sync_rc4k", "e2e_s").ends_with("unresolved"));
        // better is never a regression
        let (_, regressed) = compare(&base, &doc(0.5, 2000.0, true)).unwrap();
        assert!(!regressed);
    }

    #[test]
    fn compare_does_not_judge_a_run_that_failed_its_checks() {
        let (table, regressed) = compare(&doc(1.0, 1000.0, true), &doc(9.0, 1.0, false)).unwrap();
        assert!(!regressed);
        assert!(rows(&table, "verify_sync_rc4k", "setup_s").ends_with("unresolved"));
    }

    #[test]
    fn compare_rejects_a_torn_document() {
        assert!(compare("{\"runs\":[", &doc(1.0, 1.0, true)).is_err());
    }
}
