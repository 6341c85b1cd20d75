//! Structured per-round JSONL event stream: `TRACE_<name>.jsonl`, the
//! one format of per-round records.
//!
//! One line per observed round, correlatable to a replayable run: every
//! record carries a `run` label (a `TrialId`, a bench case name, a seed —
//! whatever identifies how to reproduce the run) plus the eight
//! [`RoundStats`] fields. A [`TraceWriter`] records every round its
//! observers see; a run that wants no trace attaches no observer.
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

/// The `TRACE_<name>.jsonl` stream: the crate's one round sink.
///
/// Each [`observer`](Self::observer) it hands out appends every round,
/// attributed to its run label, to one shared buffered file. The `Mutex`
/// is per line, never on any runner's compute path (observers run
/// between rounds, on the dispatching thread). The buffer is flushed by
/// [`flush`](Self::flush), and when the writer and its last observer are
/// gone.
#[derive(Debug)]
pub struct TraceWriter {
    path: PathBuf,
    file: Arc<Mutex<BufWriter<File>>>,
}

impl TraceWriter {
    /// Creates (truncating) `TRACE_<name>.jsonl` inside `dir` — binaries
    /// pass [`artifact_dir`](crate::artifact_dir), tests a directory of
    /// their own instead of mutating the process-global `SMST_BENCH_DIR`.
    pub fn create_in(dir: &Path, name: &str) -> io::Result<Self> {
        let path = dir.join(format!("TRACE_{name}.jsonl"));
        let file = BufWriter::new(File::create(&path)?);
        Ok(Self {
            path,
            file: Arc::new(Mutex::new(file)),
        })
    }

    /// Where the stream is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A [`RoundObserver`] appending every round to this stream,
    /// attributed to `run` (a replayable identifier: `TrialId`, seed,
    /// bench case).
    pub fn observer(&self, run: &str) -> Box<dyn RoundObserver> {
        Box::new(TraceObserver {
            file: Arc::clone(&self.file),
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
    run: String,
}

impl RoundObserver for TraceObserver {
    /// # Panics
    ///
    /// Panics on I/O errors — a trace that silently loses records is
    /// worse than a run that fails (the bench-artifact philosophy).
    fn on_round(&mut self, stats: &RoundStats) {
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
        let writer = TraceWriter::create_in(&dir, "unit").unwrap();
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
}
