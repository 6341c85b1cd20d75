//! `smst-e2e` — the repo's benchmark: the paper's pipeline (graph → MST →
//! marker labels → runner → verify rounds → fault → first alarm) timed end
//! to end and layer by layer on four workloads. See `README.md` beside this
//! package for the metric tables and `BENCHMARK.json` at the repo root for
//! the contract.
//!
//! ```text
//! smst-e2e [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//! smst-e2e compare A.json B.json
//! ```
//!
//! With `--workload` and `--trace` the run happens in this process and the
//! last line of standard output is its result object. Without them, every
//! missing choice is run in a child process of its own (so peak memory is
//! per run) and the results are also gathered into `DIR/e2e_seed<S>.json`.

#![forbid(unsafe_code)]

mod pipeline;
mod report;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: smst-e2e [--workload W] [--seed S] [--seconds T] [--trace 0|1] \
[--out DIR]\n       smst-e2e compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2026,
        seconds: 20,
        trace: None,
        out: PathBuf::from("crates/bench/e2e/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" if spec::WORKLOADS.contains(&value.as_str()) => {
                parsed.workload = Some(value.clone())
            }
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}`; one of {}",
                    spec::WORKLOADS.join(", ")
                ))
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--trace" => parsed.trace = Some(number()? != 0),
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its lines. Failed output
/// checks are reported in the result object, not by the exit code.
fn run_here(workload: &str, trace: bool, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {workload} seed={} seconds={} trace={} nproc={nproc}{}",
        args.seed,
        args.seconds,
        u8::from(trace),
        if nproc < 2 { " undersized" } else { "" }
    );
    let out = pipeline::run(workload, args.seed, args.seconds, trace, &args.out);
    let table = if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    print!("{}", report::render(workload, table, &out));
}

/// Runs every missing (workload, trace) choice in a child process each and
/// gathers the result lines into one document.
fn run_children(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.to_vec(),
    };
    let traces: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut runs = Vec::new();
    let mut failed = false;
    for &trace in &traces {
        for workload in &workloads {
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout
                .lines()
                .last()
                .filter(|line| line.starts_with('{'))
                .ok_or_else(|| format!("{workload} (trace {trace}) printed no result"))?;
            failed |= !output.status.success() || !result.starts_with("{\"correct\":true,");
            runs.push(report::run_entry(workload, trace, result));
        }
    }
    let path = args.out.join(format!("e2e_seed{}.json", args.seed));
    let doc = report::document(args.seed, args.seconds, &runs);
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let (table, regressed) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare(Path::new(a), Path::new(b)),
        _ => parse(&args).and_then(|parsed| {
            std::fs::create_dir_all(&parsed.out)
                .map_err(|e| format!("cannot create {}: {e}", parsed.out.display()))?;
            match (&parsed.workload, parsed.trace) {
                (Some(workload), Some(trace)) => {
                    run_here(workload, trace, &parsed);
                    Ok(ExitCode::SUCCESS)
                }
                _ => run_children(&parsed),
            }
        }),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("smst-e2e: {message}");
        ExitCode::from(2)
    })
}
