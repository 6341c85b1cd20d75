//! Structured per-round JSONL event stream: `TRACE_<name>.jsonl`.
//!
//! One line per observed round, correlatable to a replayable run: every
//! record carries a `run` label (a `TrialId`, a bench case name, a seed —
//! whatever identifies how to reproduce the run) plus the eight
//! [`RoundStats`] fields. Sampling is env-gated: `SMST_TRACE_SAMPLE=k`
//! keeps every `k`-th round (`k = 1` keeps all); unset or `0` disables
//! tracing entirely, which is the default — [`TraceWriter::from_env`]
//! creates a writer (and so an observer) only when sampling is on.
//!
//! Record schema (one JSON object per line, described once by
//! [`TraceLine`] — the lines carry no `schema` tag, readers dispatch on
//! the `.jsonl` extension):
//!
//! ```json
//! {"run":"<label>","round":0,"alarms":0,"activations":500,"halo_bytes":0,
//!  "dispatch_ns":1,"compute_ns":2,"barrier_ns":3,"exchange_ns":4}
//! ```

use crate::json::{Fields as _, FromJson, Json, Obj, ShapeError};
use smst_sim::{RoundObserver, RoundStats};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The sampling env var: `SMST_TRACE_SAMPLE=k` records every `k`-th
/// round; unset or `0` disables the trace stream.
pub const TRACE_SAMPLE_ENV: &str = "SMST_TRACE_SAMPLE";

/// The sampling interval `$SMST_TRACE_SAMPLE` requests (0 when unset,
/// unparsable, or explicitly 0 — all meaning "no trace"). An unparsable
/// value additionally warns once per process on stderr — a typo'd
/// `SMST_TRACE_SAMPLE=ten` silently producing no trace cost a debugging
/// session once; it never gets to again.
fn trace_sample_from_env() -> u64 {
    match std::env::var(TRACE_SAMPLE_ENV) {
        Ok(raw) => parse_trace_sample(&raw).unwrap_or_else(|| {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: {TRACE_SAMPLE_ENV}={raw:?} is not an unsigned \
                     integer; tracing stays disabled"
                );
            });
            0
        }),
        Err(_) => 0,
    }
}

/// The parsing rule behind [`trace_sample_from_env`], testable without
/// mutating the process environment: `None` means unparsable (the caller
/// warns), `Some(0)` means explicitly disabled.
pub(crate) fn parse_trace_sample(raw: &str) -> Option<u64> {
    raw.trim().parse().ok()
}

/// One record of a `TRACE_*.jsonl` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine {
    /// Replay correlation label.
    pub run: String,
    /// The round record (its eight fields sit next to `run`, not nested).
    pub stats: RoundStats,
}

/// The line both [`TraceLine::to_json`] and the streaming
/// [`TraceWriter::observer`] emit (the observer borrows its label, so it
/// does not build a [`TraceLine`] per round).
fn line_json(run: &str, stats: &RoundStats) -> String {
    let mut out = String::new();
    stats
        .write_fields(Obj::new(&mut out).field("run", run))
        .end();
    out
}

impl TraceLine {
    /// The record as one JSON object, without the line terminator.
    pub fn to_json(&self) -> String {
        line_json(&self.run, &self.stats)
    }
}

impl FromJson for TraceLine {
    fn from_json(line: &Json) -> Result<Self, ShapeError> {
        Ok(TraceLine {
            run: line.field("run")?,
            stats: RoundStats::from_json(line)?,
        })
    }
}

/// The sampled `TRACE_<name>.jsonl` stream: the crate's one round sink.
///
/// Each [`observer`](Self::observer) it hands out appends every
/// `sample`-th round, attributed to its run label, to one shared buffered
/// file. The `Mutex` is per line, never on any runner's compute path
/// (observers run between rounds, on the dispatching thread). The buffer
/// is flushed by [`flush`](Self::flush), and when the writer and its last
/// observer are gone.
#[derive(Debug)]
pub struct TraceWriter {
    path: PathBuf,
    sample: u64,
    file: Arc<Mutex<BufWriter<File>>>,
}

impl TraceWriter {
    /// Creates (truncating) `TRACE_<name>.jsonl` inside `dir`, keeping
    /// every `sample`-th round (`sample` is clamped to at least 1).
    ///
    /// Tests pass a directory here instead of mutating the process-global
    /// `SMST_BENCH_DIR` / `SMST_TRACE_SAMPLE`.
    pub fn create_in(dir: &Path, name: &str, sample: u64) -> io::Result<Self> {
        let path = dir.join(format!("TRACE_{name}.jsonl"));
        let file = BufWriter::new(File::create(&path)?);
        Ok(Self {
            path,
            sample: sample.max(1),
            file: Arc::new(Mutex::new(file)),
        })
    }

    /// The env-gated constructor for benches and binaries: a
    /// `TRACE_<name>.jsonl` stream in [`artifact_dir`](crate::artifact_dir)
    /// (next to the `BENCH_*.json` artifacts, so CI uploads them together)
    /// sampled at `$SMST_TRACE_SAMPLE`, or `None` when that is unset or
    /// `0` — then no file is created and no observer is attached, so
    /// runners keep their unobserved path. An unparsable value warns once
    /// on stderr instead of silently disabling tracing.
    ///
    /// # Panics
    ///
    /// Panics if the requested trace file cannot be created.
    pub fn from_env(name: &str) -> Option<Self> {
        Self::sampled(name, trace_sample_from_env())
    }

    /// [`from_env`](Self::from_env) for an explicit sampling interval.
    pub(crate) fn sampled(name: &str, sample: u64) -> Option<Self> {
        (sample > 0).then(|| {
            Self::create_in(&crate::artifact_dir(), name, sample)
                .unwrap_or_else(|e| panic!("creating TRACE_{name}.jsonl: {e}"))
        })
    }

    /// Where the stream is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A [`RoundObserver`] appending every sampled round to this stream,
    /// attributed to `run` (a replayable identifier: `TrialId`, seed,
    /// bench case).
    pub fn observer(&self, run: &str) -> Box<dyn RoundObserver> {
        Box::new(TraceObserver {
            file: Arc::clone(&self.file),
            sample: self.sample,
            run: run.to_string(),
        })
    }

    /// Flushes buffered records to disk.
    pub fn flush(&self) -> io::Result<()> {
        self.file.lock().expect("trace writer poisoned").flush()
    }
}

/// The [`RoundObserver`] a [`TraceWriter`] hands out.
#[derive(Debug)]
struct TraceObserver {
    file: Arc<Mutex<BufWriter<File>>>,
    sample: u64,
    run: String,
}

impl RoundObserver for TraceObserver {
    /// # Panics
    ///
    /// Panics on I/O errors — a trace that silently loses records is
    /// worse than a run that fails (the bench-artifact philosophy).
    fn on_round(&mut self, stats: &RoundStats) {
        if !(stats.round as u64).is_multiple_of(self.sample) {
            return;
        }
        let mut line = line_json(&self.run, stats);
        line.push('\n');
        self.file
            .lock()
            .expect("trace writer poisoned")
            .write_all(line.as_bytes())
            .expect("writing a TRACE_*.jsonl record");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(round: usize) -> RoundStats {
        RoundStats {
            round,
            alarms: 1,
            activations: 4,
            halo_bytes: 32,
            dispatch_ns: 9,
            compute_ns: 90,
            barrier_ns: 0,
            exchange_ns: 1,
        }
    }

    #[test]
    fn writes_one_json_object_per_round() {
        let dir = std::env::temp_dir().join("smst_telemetry_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let writer = TraceWriter::create_in(&dir, "unit", 1).unwrap();
        assert_eq!(writer.path().file_name().unwrap(), "TRACE_unit.jsonl");
        let mut observer = writer.observer("trial-a");
        observer.on_round(&stat(0));
        observer.on_round(&stat(1));
        writer.flush().unwrap();
        let body = std::fs::read_to_string(writer.path()).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"run\":\"trial-a\",\"round\":0,"));
        assert!(lines[1].contains("\"round\":1"));
        assert!(lines[1].contains("\"compute_ns\":90"));
        assert!(lines[1].ends_with('}'));
        let back = TraceLine::from_json(&Json::parse(lines[1]).unwrap()).unwrap();
        assert_eq!((back.run.as_str(), &back.stats), ("trial-a", &stat(1)));
        assert_eq!(back.to_json(), lines[1]);
    }

    #[test]
    fn sample_parsing_distinguishes_disabled_from_unparsable() {
        assert_eq!(parse_trace_sample("4"), Some(4));
        assert_eq!(parse_trace_sample(" 7 "), Some(7), "whitespace is noise");
        assert_eq!(parse_trace_sample("0"), Some(0), "explicitly disabled");
        assert_eq!(parse_trace_sample("ten"), None, "a typo is not silence");
        assert_eq!(parse_trace_sample("-3"), None);
        assert_eq!(parse_trace_sample(""), None);
    }
}
