//! The flight recorder: a fixed-size ring buffer of recent
//! [`RoundStats`], dumped as `FLIGHT_<name>.json` when a run dies.
//!
//! Chaos postmortems (the typed [`PoolError`] surface) say *what* killed a
//! run — a tripped barrier watchdog, an exhausted recovery policy — but
//! not what the rounds leading up to the failure looked like. A
//! [`FlightRecorder`] is a [`RoundObserver`] that keeps only the last
//! `capacity` rounds in a ring buffer (O(capacity) memory no matter how
//! long the run), so the driver can attach it to any runner and, on a
//! `BarrierTimeout` or caught panic, [`dump`](FlightRecorder::dump) the
//! final window as a [`FlightDump`] — the one description of the
//! `smst-flight-v1` schema, writer and reader side by side — and write it
//! to a `FLIGHT_<name>.json` artifact carrying the failure reason.
//!
//! Cloning is shallow, mirroring
//! [`RecordingObserver`](smst_sim::RecordingObserver): keep one clone,
//! hand the other to the runner via `set_observer`, and dump from the
//! kept clone after the runner dies (the runner consumed its observer, but
//! the ring is shared).
//!
//! Artifact schema:
//!
//! ```json
//! {"schema":"smst-flight-v1","name":"chaos_stall",
//!  "reason":"barrier timeout after 100ms","capacity":32,"rounds_seen":70,
//!  "rounds":[{"round":38,"alarms":0,"activations":192,"halo_bytes":0,
//!             "dispatch_ns":10,"compute_ns":80,"barrier_ns":5,"exchange_ns":5}]}
//! ```
//!
//! `rounds` holds at most `capacity` entries, oldest first — the final
//! window of a `rounds_seen`-round run.
//!
//! [`PoolError`]: https://docs.rs/ (see `smst_engine::PoolError`)

use crate::json::{self, Fields as _};
use smst_sim::{RoundObserver, RoundStats};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The schema tag of a [`FlightDump`] document.
pub const SCHEMA: &str = "smst-flight-v1";

#[derive(Debug, Default)]
struct FlightInner {
    rounds: VecDeque<RoundStats>,
    seen: usize,
}

/// A [`RoundObserver`] ring buffer holding the last `capacity` rounds.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` rounds (clamped to at
    /// least 1 — a zero-capacity recorder could never explain anything).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(FlightInner::default())),
            capacity: capacity.max(1),
        }
    }

    /// The ring capacity (the maximum window the dump can carry).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightInner> {
        self.inner.lock().expect("flight recorder lock poisoned")
    }

    /// Total rounds observed over the recorder's lifetime (not capped by
    /// the ring).
    pub fn rounds_seen(&self) -> usize {
        self.lock().seen
    }

    /// Rounds currently held in the ring (`min(rounds_seen, capacity)`).
    pub fn len(&self) -> usize {
        self.lock().rounds.len()
    }

    /// Whether nothing was observed yet.
    pub fn is_empty(&self) -> bool {
        self.lock().rounds.is_empty()
    }

    /// A snapshot of the current window, stamped with the dump's `name`
    /// and the failure `reason`.
    pub fn dump(&self, name: &str, reason: &str) -> FlightDump {
        let inner = self.lock();
        FlightDump {
            name: name.to_string(),
            reason: reason.to_string(),
            capacity: self.capacity,
            rounds_seen: inner.seen,
            rounds: inner.rounds.iter().cloned().collect(),
        }
    }
}

/// A `FLIGHT_<name>.json` document: the window a [`FlightRecorder`] held
/// when it was dumped (see the module docs for the schema).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// The dump's name (`FLIGHT_<name>.json`).
    pub name: String,
    /// Why the dump was taken.
    pub reason: String,
    /// Ring-buffer capacity.
    pub capacity: usize,
    /// Rounds observed over the recorder's lifetime.
    pub rounds_seen: usize,
    /// The retained window, oldest first.
    pub rounds: Vec<RoundStats>,
}

crate::json_record!(FlightDump {
    name,
    reason,
    capacity,
    rounds_seen,
    rounds,
});

impl FlightDump {
    /// The dump as a JSON document.
    pub fn to_json(&self) -> String {
        json::document(SCHEMA, |doc| self.write_fields(doc))
    }

    /// Writes `FLIGHT_<name>.json` into `dir` and returns its path.
    pub fn write_json_to(&self, dir: &Path) -> io::Result<PathBuf> {
        json::write_artifact(dir, &format!("FLIGHT_{}.json", self.name), &self.to_json())
    }
}

impl RoundObserver for FlightRecorder {
    fn on_round(&mut self, stats: &RoundStats) {
        let capacity = self.capacity;
        let mut inner = self.lock();
        if inner.rounds.len() == capacity {
            inner.rounds.pop_front();
        }
        inner.rounds.push_back(stats.clone());
        inner.seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson as _, Json};

    fn stat(round: usize) -> RoundStats {
        RoundStats {
            round,
            alarms: round % 3,
            activations: 20,
            halo_bytes: 4,
            dispatch_ns: 1,
            compute_ns: 2,
            barrier_ns: 3,
            exchange_ns: 4,
        }
    }

    #[test]
    fn ring_keeps_only_the_final_window() {
        let recorder = FlightRecorder::new(4);
        let mut handle = recorder.clone();
        assert!(recorder.is_empty());
        for round in 0..10 {
            handle.on_round(&stat(round));
        }
        assert_eq!(recorder.rounds_seen(), 10);
        assert_eq!(recorder.len(), 4);
        let window: Vec<usize> = recorder
            .dump("w", "r")
            .rounds
            .iter()
            .map(|s| s.round)
            .collect();
        assert_eq!(window, vec![6, 7, 8, 9], "oldest first, last four rounds");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut recorder = FlightRecorder::new(0);
        assert_eq!(recorder.capacity(), 1);
        recorder.on_round(&stat(0));
        recorder.on_round(&stat(1));
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.dump("w", "r").rounds[0].round, 1);
    }

    #[test]
    fn dump_pins_the_flight_schema() {
        let dir = std::env::temp_dir().join("smst_telemetry_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let recorder = FlightRecorder::new(2);
        let mut handle = recorder.clone();
        for round in 0..3 {
            handle.on_round(&stat(round));
        }
        let dump = recorder.dump("unit", "barrier timeout after 100ms");
        let path = dump.write_json_to(&dir).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_string_lossy(),
            "FLIGHT_unit.json"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with(
            "{\"schema\":\"smst-flight-v1\",\"name\":\"unit\",\
             \"reason\":\"barrier timeout after 100ms\",\
             \"capacity\":2,\"rounds_seen\":3,\"rounds\":["
        ));
        assert!(body.contains("\"round\":1"));
        assert!(body.contains("\"round\":2"));
        assert!(
            !body.contains("\"round\":0"),
            "round 0 fell out of the ring"
        );
        assert!(body.ends_with("}\n"));
        assert_eq!(
            FlightDump::from_json(&Json::parse(&body).unwrap()).unwrap(),
            dump
        );
    }

    #[test]
    fn empty_recorder_dumps_an_empty_window() {
        let recorder = FlightRecorder::new(8);
        let json = recorder.dump("idle", "caught panic").to_json();
        assert!(json.contains("\"rounds_seen\":0,\"rounds\":[]"));
    }
}
