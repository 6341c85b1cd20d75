//! Exit-code contract of the `smst-analyze` binary: `0` clean, `1` gate
//! failure, `2` usage/ingest error — what the CI `chaos-smoke` job keys
//! off.

use std::path::{Path, PathBuf};
use std::process::Command;

fn analyze() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smst-analyze"))
}

fn fresh_dirs(name: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("smst_analyze_cli_{name}"));
    let base = root.join("base");
    let cur = root.join("cur");
    // stale files from a previous run must not leak into this one
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&base).unwrap();
    std::fs::create_dir_all(&cur).unwrap();
    (base, cur)
}

/// A one-run chaos document where `detected` of three waves raise an
/// alarm (the summary fields must be the ones the waves imply, or the
/// document is a shape error).
fn chaos_doc(detected: usize) -> String {
    let waves: Vec<String> = (0..3)
        .map(|wave| {
            format!(
                "{{\"wave\":{wave},\"step\":{},\"faults\":4,\
                 \"detection_latency\":{},\"quiescence\":null}}",
                8 * wave,
                if wave < detected { "1" } else { "null" }
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"smst-chaos-v1\",\"group\":\"chaos\",\"runs\":[\
         {{\"label\":\"l\",\"run\":\"seed=7\",\"schedule\":\"s\",\
         \"steps_run\":24,\"injected_faults\":12,\"detected_waves\":{detected},\
         \"quiesced_waves\":0,\"mean_detection_latency\":{},\
         \"mean_quiescence\":null,\"waves\":[{}]}}]}}\n",
        if detected > 0 { "1" } else { "null" },
        waves.join(",")
    )
}

fn run(cmd: &mut Command) -> (i32, String, String) {
    let out = cmd.output().expect("running smst-analyze");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn check(base: &Path, cur: &Path) -> (i32, String, String) {
    run(analyze()
        .arg("check")
        .arg("--baseline")
        .arg(base)
        .arg("--current")
        .arg(cur))
}

#[test]
fn identical_artifacts_pass_with_exit_zero() {
    let (base, cur) = fresh_dirs("pass");
    std::fs::write(base.join("BENCH_chaos.json"), chaos_doc(3)).unwrap();
    std::fs::write(cur.join("BENCH_chaos.json"), chaos_doc(3)).unwrap();
    let (code, stdout, _) = check(&base, &cur);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("gate: PASS"), "{stdout}");
}

#[test]
fn an_empty_current_directory_fails_the_gate() {
    // every checked-in baseline run is missing from an empty directory: a
    // gate that compared nothing must not pass
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/baselines");
    let (_, empty) = fresh_dirs("empty");
    let (code, stdout, _) = check(&baselines, &empty);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("MISSING"), "{stdout}");
    assert!(stdout.contains("gate: FAIL"), "{stdout}");
    // the baselines themselves gate clean
    let (code, stdout, _) = check(&baselines, &baselines);
    assert_eq!(code, 0, "{stdout}");
}

#[test]
fn a_chaos_determinism_change_exits_nonzero() {
    let (base, cur) = fresh_dirs("chaos");
    std::fs::write(base.join("BENCH_chaos.json"), chaos_doc(3)).unwrap();
    std::fs::write(cur.join("BENCH_chaos.json"), chaos_doc(2)).unwrap();
    let (code, stdout, _) = check(&base, &cur);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("detected_waves"), "{stdout}");
}

#[test]
fn corrupt_artifacts_and_bad_usage_exit_two() {
    let (base, cur) = fresh_dirs("corrupt");
    std::fs::write(base.join("BENCH_g.json"), "not json").unwrap();
    let (code, _, stderr) = check(&base, &cur);
    assert_eq!(code, 2, "{stderr}");

    let (code, _, stderr) = run(analyze().arg("frobnicate"));
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (code, _, stderr) = run(analyze().arg("check"));
    assert_eq!(code, 2, "{stderr}");
}

#[test]
fn a_hostile_artifact_is_exit_two_not_a_crash() {
    // 1 MiB of `[`: an unbounded recursive-descent parser overflows the
    // stack and the process dies on a signal (no exit code at all)
    let (base, cur) = fresh_dirs("hostile");
    std::fs::write(base.join("BENCH_chaos.json"), chaos_doc(3)).unwrap();
    std::fs::write(cur.join("BENCH_chaos.json"), chaos_doc(3)).unwrap();
    std::fs::write(cur.join("BENCH_deep.json"), "[".repeat(1 << 20)).unwrap();
    let (code, stdout, _) = run(analyze().arg("ingest").arg(&cur));
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("nesting deeper than"), "{stdout}");
    assert!(stdout.contains("2 artifacts, 1 failures"), "{stdout}");
    let (code, _, stderr) = check(&base, &cur);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}

#[test]
fn ingest_lists_artifacts_and_flags_corruption() {
    let (base, _) = fresh_dirs("ingest");
    std::fs::write(base.join("BENCH_chaos.json"), chaos_doc(3)).unwrap();
    std::fs::write(
        base.join("TRACE_t.jsonl"),
        "{\"run\":\"t\",\"round\":0,\"alarms\":0,\"activations\":4,\
         \"halo_bytes\":0,\"dispatch_ns\":1,\"compute_ns\":2,\
         \"barrier_ns\":3,\"exchange_ns\":4}\n",
    )
    .unwrap();
    let (code, stdout, _) = run(analyze().arg("ingest").arg(&base));
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("chaos group"), "{stdout}");
    assert!(stdout.contains("trace: 1 records"), "{stdout}");

    std::fs::write(
        base.join("BENCH_broken.json"),
        "{\"schema\":\"smst-chaos-v9\"}",
    )
    .unwrap();
    let (code, stdout, _) = run(analyze().arg("ingest").arg(&base));
    assert_eq!(code, 2, "{stdout}");
    assert!(stdout.contains("FAILED"), "{stdout}");
}

#[test]
fn baseline_seeding_validates_then_copies() {
    let (from, to_parent) = fresh_dirs("seed");
    let to = to_parent.join("baselines");
    std::fs::write(from.join("BENCH_chaos.json"), chaos_doc(1)).unwrap();
    let (code, stdout, _) = run(analyze()
        .arg("baseline")
        .arg("--from")
        .arg(&from)
        .arg("--to")
        .arg(&to));
    assert_eq!(code, 0, "{stdout}");
    assert!(to.join("BENCH_chaos.json").exists());
    // the seeded baseline gates clean against its own source
    let (code, _, _) = check(&to, &from);
    assert_eq!(code, 0);

    // corrupt source: refuse to seed at all
    std::fs::write(from.join("BENCH_bad.json"), "nope").unwrap();
    let (code, _, stderr) = run(analyze()
        .arg("baseline")
        .arg("--from")
        .arg(&from)
        .arg("--to")
        .arg(&to));
    assert_eq!(code, 2, "{stderr}");
}
