//! Structured per-round JSONL event stream: `TRACE_<name>.jsonl`.
//!
//! One line per observed round, correlatable to a replayable run: every
//! record carries a `run` label (a `TrialId`, a bench case name, a seed —
//! whatever identifies how to reproduce the run) plus the eight
//! [`RoundStats`] fields. Sampling is env-gated: `SMST_TRACE_SAMPLE=k`
//! keeps every `k`-th round (`k = 1` keeps all); unset or `0` disables
//! tracing entirely, which is the default —
//! [`Telemetry::from_env`](crate::Telemetry::from_env) creates a writer
//! only when sampling is on.
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
use smst_sim::RoundStats;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The sampling env var: `SMST_TRACE_SAMPLE=k` records every `k`-th
/// round; unset or `0` disables the trace stream.
pub const TRACE_SAMPLE_ENV: &str = "SMST_TRACE_SAMPLE";

/// The sampling interval `$SMST_TRACE_SAMPLE` requests (0 when unset,
/// unparsable, or explicitly 0 — all meaning "no trace"). An unparsable
/// value additionally warns once per process on stderr — a typo'd
/// `SMST_TRACE_SAMPLE=ten` silently producing no trace cost a debugging
/// session once; it never gets to again.
pub fn trace_sample_from_env() -> u64 {
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
/// [`TraceWriter::write_round`] emit (the writer borrows its label, so it
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

/// A buffered, thread-safe `TRACE_<name>.jsonl` writer. Flushed on drop;
/// the `Mutex` is per-line, never on any runner's compute path (observers
/// run between rounds, on the dispatching thread).
#[derive(Debug)]
pub struct TraceWriter {
    path: PathBuf,
    file: Mutex<BufWriter<File>>,
}

impl TraceWriter {
    /// Creates (truncating) `TRACE_<name>.jsonl` inside `dir`.
    ///
    /// This is the injectable core of [`create`](Self::create): tests
    /// pass a directory instead of mutating the process-global
    /// `SMST_BENCH_DIR`.
    pub fn create_in(dir: &Path, name: &str) -> io::Result<Self> {
        let path = dir.join(format!("TRACE_{name}.jsonl"));
        let file = BufWriter::new(File::create(&path)?);
        Ok(Self {
            path,
            file: Mutex::new(file),
        })
    }

    /// Creates (truncating) `TRACE_<name>.jsonl` in
    /// [`artifact_dir`](crate::artifact_dir) — next to the `BENCH_*.json`
    /// artifacts, so CI uploads them together.
    pub fn create(name: &str) -> io::Result<Self> {
        Self::create_in(&crate::artifact_dir(), name)
    }

    /// Where the stream is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one round record attributed to `run`.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — a trace that silently loses records is
    /// worse than a run that fails (the bench-artifact philosophy).
    pub fn write_round(&self, run: &str, stats: &RoundStats) {
        let mut line = line_json(run, stats);
        line.push('\n');
        self.file
            .lock()
            .expect("trace writer poisoned")
            .write_all(line.as_bytes())
            .expect("writing a TRACE_*.jsonl record");
    }

    /// Flushes buffered records to disk.
    pub fn flush(&self) -> io::Result<()> {
        self.file.lock().expect("trace writer poisoned").flush()
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        // best-effort: drop cannot propagate errors, and the explicit
        // `flush` is there for callers that need the guarantee
        let _ = self.flush();
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
        let writer = TraceWriter::create_in(&dir, "unit").unwrap();
        assert_eq!(writer.path().file_name().unwrap(), "TRACE_unit.jsonl");
        writer.write_round("trial-a", &stat(0));
        writer.write_round("trial-a", &stat(1));
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
