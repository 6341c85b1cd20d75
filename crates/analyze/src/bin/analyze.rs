//! The `smst-analyze` CLI: ingest listings, the CI chaos-accounting gate, the
//! KMW bound-accounting sweep, and baseline seeding.
//!
//! Exit codes: `0` clean, `1` gate failure, `2` usage or ingest error.

use smst_analyze::check::check_dirs;
use smst_analyze::ingest::{ingest_dir, ARTIFACT_PREFIXES};
use smst_analyze::kmw::{run_kmw_accounting, KmwConfig};
use smst_telemetry::artifact_dir;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: smst-analyze <command> [options]

commands:
  ingest <dir>
      Parse every recognized artifact (ANALYSIS_/BENCH_/CAMPAIGN_/
      TRACE_/FLIGHT_) directly inside <dir>, print a one-line summary
      per file, and fail (exit 2) if any artifact is corrupt or carries
      an unknown schema version.

  check --baseline <dir> [--current <dir>]
      Compare the chaos accounting of the current artifacts (default:
      $SMST_BENCH_DIR, else .) exactly against the checked-in baselines.
      Exit 1 on any changed field, on a baseline run the current side
      lacks, or when no run was compared at all.

  kmw [--out <dir>] [--seed <s>] [--warmup <w>]
      Run the KMW bound-accounting sweep (cluster trees, hybrids, and
      matched expanders at depths 2/3/4) and write ANALYSIS_kmw.json
      into --out (default: $SMST_BENCH_DIR, else .).

  baseline --from <dir> --to <dir>
      Seed or refresh a baseline directory: validate every recognized
      artifact in --from, then copy the gate-relevant ones (chaos
      accounting) into --to. Rounds, traces, campaigns, analyses, and
      flight dumps are validated but not copied -- the gate has no
      comparison semantics for them.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("kmw") => cmd_kmw(&args[1..]),
        Some("baseline") => cmd_baseline(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("no command given".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("smst-analyze: {message}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value of `--flag value` out of `args`, erroring on a
/// trailing flag with no value.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.clone()))
            .ok_or_else(|| format!("{flag} needs a value")),
        None => Ok(None),
    }
}

fn cmd_ingest(args: &[String]) -> Result<ExitCode, String> {
    let dir = args.first().ok_or("ingest needs a directory")?;
    let results = ingest_dir(Path::new(dir)).map_err(|e| format!("scanning {dir}: {e}"))?;
    if results.is_empty() {
        println!(
            "no artifacts in {dir} (recognized prefixes: {})",
            ARTIFACT_PREFIXES.join(", ")
        );
        return Ok(ExitCode::SUCCESS);
    }
    let mut failures = 0usize;
    for (path, result) in &results {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        match result {
            Ok(artifact) => println!("  ok      {name}: {}", artifact.describe()),
            Err(e) => {
                failures += 1;
                println!("  FAILED  {e}");
            }
        }
    }
    println!("{} artifacts, {failures} failures", results.len());
    if failures > 0 {
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let baseline = flag_value(args, "--baseline")?.ok_or("check needs --baseline <dir>")?;
    let current = flag_value(args, "--current")?
        .map(PathBuf::from)
        .unwrap_or_else(artifact_dir);
    println!("checking {} against baseline {baseline}", current.display());
    let report = check_dirs(Path::new(&baseline), &current)
        .map_err(|e| format!("gate could not run: {e}"))?;
    print!("{}", report.render());
    if report.passed() {
        println!("gate: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("gate: FAIL");
        Ok(ExitCode::from(1))
    }
}

fn cmd_kmw(args: &[String]) -> Result<ExitCode, String> {
    let out = flag_value(args, "--out")?
        .map(PathBuf::from)
        .unwrap_or_else(artifact_dir);
    let mut config = KmwConfig::default();
    if let Some(s) = flag_value(args, "--seed")? {
        config.seed = s
            .parse()
            .map_err(|_| format!("--seed {s:?} is not an integer"))?;
    }
    if let Some(w) = flag_value(args, "--warmup")? {
        config.warmup = w
            .parse()
            .map_err(|_| format!("--warmup {w:?} is not an integer"))?;
    }
    println!(
        "kmw bound accounting: depths {:?}, delta {}, seed {}, warmup {}",
        config.levels, config.delta, config.seed, config.warmup
    );
    let analysis = run_kmw_accounting(&config);
    print!("{}", analysis.render());
    let undetected = analysis
        .points()
        .filter(|(_, p)| p.measured_rounds.is_none())
        .count();
    // a broken sweep must not quietly publish a thin analysis
    let tree_sizes = analysis.family_points("kmw_cluster_tree");
    if tree_sizes < config.levels.len() {
        return Err(format!(
            "sweep produced {tree_sizes} kmw_cluster_tree points, need {}",
            config.levels.len()
        ));
    }
    let path = analysis
        .write_json_to(&out)
        .map_err(|e| format!("writing ANALYSIS_kmw.json into {}: {e}", out.display()))?;
    println!("  analysis -> {}", path.display());
    if undetected > 0 {
        // every family must detect within the generous budget; a silent
        // miss is exactly what this accounting exists to catch
        println!("gate: FAIL ({undetected} points never alarmed)");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_baseline(args: &[String]) -> Result<ExitCode, String> {
    let from = flag_value(args, "--from")?.ok_or("baseline needs --from <dir>")?;
    let to = flag_value(args, "--to")?.ok_or("baseline needs --to <dir>")?;
    let results = ingest_dir(Path::new(&from)).map_err(|e| format!("scanning {from}: {e}"))?;
    if results.is_empty() {
        return Err(format!("no artifacts in {from} to seed a baseline from"));
    }
    // refuse to seed from a directory with corrupt artifacts: a baseline
    // the gate cannot read back is worse than no baseline
    for (path, result) in &results {
        if let Err(e) = result {
            return Err(format!("{} failed validation: {e}", path.display()));
        }
    }
    std::fs::create_dir_all(&to).map_err(|e| format!("creating {to}: {e}"))?;
    let mut copied = 0usize;
    for (path, result) in &results {
        if !matches!(result, Ok(smst_analyze::Artifact::Chaos(_))) {
            println!("  skipped {} (not gated)", path.display());
            continue;
        }
        let dest = Path::new(&to).join(path.file_name().unwrap_or_default());
        std::fs::copy(path, &dest)
            .map_err(|e| format!("copying {} -> {}: {e}", path.display(), dest.display()))?;
        println!("  {} -> {}", path.display(), dest.display());
        copied += 1;
    }
    if copied == 0 {
        return Err(format!("no gate-relevant artifacts in {from}"));
    }
    println!("{copied} artifacts seeded into {to}");
    Ok(ExitCode::SUCCESS)
}
