//! The shard worker: the process behind `smst-net worker`. It dials the
//! coordinator, handshakes, receives its **region** in the one-time
//! [`SetupFrame`] and serves round dispatches until [`Frame::Shutdown`].
//!
//! A worker holds what it sweeps and nothing else: the region-local CSR,
//! the contexts of its interior nodes, and one register per region slot
//! (interiors, then halo copies). It never sees the graph, the layout or
//! the other parts — the coordinator, which built all of that once, ships
//! each region ready-made — so a worker's memory and set-up time follow its
//! shard, not the world. [`stage_region`] checks the frame before anything
//! is built from it; a region that does not hold together ends the worker
//! with a typed error (also sent to the coordinator as a [`Frame::Error`]).
//!
//! Per round the worker applies the two deltas of the dispatch — the
//! interior registers the coordinator wrote, the halo slots whose owner
//! changed them; every other register it keeps from the round before —
//! optionally executes a one-shot chaos injection (exit / stall — the
//! process-level analogs of the in-process pool's `ArmedInjection`),
//! [`sweep`]s its **whole** interior through the region-local CSR — the
//! same kernel every in-process runner calls — and replies with the
//! interiors whose value the sweep changed plus the measured compute time.
//! Both deltas are validated before the first register is written, so a
//! malformed dispatch ends the worker with its region untouched and the
//! coordinator told why.

use crate::program::{decode_states, encode_delta, stage_delta, WireProgram};
use crate::transport::{Conn, Endpoint};
use crate::wire::{
    Dec, Frame, InteriorsFrame, SetupFrame, WireError, WireInjection, ERR_PROTOCOL,
    ERR_UNKNOWN_PROGRAM, WIRE_VERSION,
};
use smst_engine::programs::{AlarmedFlood, MinIdFlood, MonitorFlood};
use smst_engine::{sweep, CsrTopology};
use smst_sim::NodeContext;
use std::time::Duration;

/// How long the worker keeps dialing the coordinator before giving up.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// The worker entry point: dial, handshake (announcing `wire_version` —
/// tests inject a skewed version to exercise the typed rejection), serve
/// rounds until shutdown. Returns only with an error: an orderly
/// [`Frame::Shutdown`] ends the **process** (`exit(0)`), since a worker
/// owns nothing worth destructing.
pub fn run_worker(endpoint: &Endpoint, part: u32, wire_version: u16) -> Result<(), WireError> {
    let mut conn = endpoint.connect(CONNECT_TIMEOUT)?;
    conn.send(&Frame::Hello {
        version: wire_version,
        part,
    })?;
    match conn.recv()? {
        Frame::HelloAck { version } if version == wire_version => {}
        Frame::HelloAck { version } => {
            return Err(WireError::VersionMismatch {
                ours: wire_version,
                theirs: version,
            })
        }
        Frame::Error { code, message } => return Err(WireError::Rejected { code, message }),
        _ => return Err(WireError::BadValue("expected HelloAck")),
    }
    let setup = match conn.recv()? {
        Frame::Setup(setup) => setup,
        Frame::Error { code, message } => return Err(WireError::Rejected { code, message }),
        _ => return Err(WireError::BadValue("expected Setup")),
    };
    dispatch_program(setup, conn)
}

/// Routes the setup to the typed round loop for the named program. Every
/// [`WireProgram`] the worker can execute needs an arm here.
fn dispatch_program(setup: SetupFrame, mut conn: Conn) -> Result<(), WireError> {
    let name = setup.program.clone();
    if name == MinIdFlood::WIRE_NAME {
        serve_rounds::<MinIdFlood>(setup, conn)
    } else if name == MonitorFlood::WIRE_NAME {
        serve_rounds::<MonitorFlood>(setup, conn)
    } else if name == AlarmedFlood::WIRE_NAME {
        serve_rounds::<AlarmedFlood>(setup, conn)
    } else {
        let _ = conn.send(&Frame::Error {
            code: ERR_UNKNOWN_PROGRAM,
            message: format!("this worker has no codec for program {name:?}"),
        });
        Err(WireError::BadValue("unknown program"))
    }
}

/// A [`SetupFrame`] checked and decoded: the program, and a region whose
/// CSR rows, contexts and registers fit each other. Only [`stage_region`]
/// makes one, so the round loop indexes without further checks.
#[derive(Debug)]
pub struct StagedRegion<P: WireProgram> {
    program: P,
    csr: CsrTopology,
    contexts: Vec<NodeContext>,
    /// Interiors, then halo slots.
    registers: Vec<P::State>,
}

impl<P: WireProgram> StagedRegion<P> {
    /// Interior nodes: the rows the worker sweeps.
    pub fn interior_len(&self) -> usize {
        self.contexts.len()
    }

    /// Registers held: interiors plus halo slots.
    pub fn region_len(&self) -> usize {
        self.registers.len()
    }
}

/// Validates a set-up frame and builds the region from it: the spec
/// decodes exactly, the payload holds exactly one register per region
/// slot ([`WireError::Truncated`] / [`WireError::Trailing`] otherwise) and
/// the region's arrays agree ([`WireRegion::into_parts`] — each violation
/// a [`WireError::BadValue`]).
///
/// [`WireRegion::into_parts`]: crate::wire::WireRegion::into_parts
pub fn stage_region<P: WireProgram>(setup: SetupFrame) -> Result<StagedRegion<P>, WireError> {
    let mut spec = Dec::new(&setup.spec);
    let program = P::decode_spec(&mut spec)?;
    spec.finish()?;
    let registers = decode_states::<P>(&setup.registers, setup.region.region_len())?;
    let (csr, contexts) = setup.region.into_parts()?;
    Ok(StagedRegion {
        program,
        csr,
        contexts,
        registers,
    })
}

/// Tells the coordinator why this worker gives up (so its failure names
/// the cause instead of "socket closed"), then hands the error back.
fn reject(conn: &mut Conn, error: WireError) -> WireError {
    let _ = conn.send(&Frame::Error {
        code: ERR_PROTOCOL,
        message: error.to_string(),
    });
    error
}

/// The typed round loop: stage the region, then
/// apply deltas → (inject) → sweep → reply what changed, until shutdown.
fn serve_rounds<P: WireProgram>(setup: SetupFrame, mut conn: Conn) -> Result<(), WireError> {
    let part = setup.part;
    let StagedRegion {
        program,
        csr,
        contexts,
        registers: mut prev,
    } = stage_region::<P>(setup).map_err(|e| reject(&mut conn, e))?;
    let interior_len = contexts.len();
    // interiors are double-buffered against `next` so a round reads only
    // previous-round registers; the halo slots hold what the setup frame
    // and every delta since put there
    let mut next: Vec<P::State> = prev[..interior_len].to_vec();

    loop {
        let round = match conn.recv()? {
            // nothing here is durable: skip the region's destructors
            Frame::Shutdown => std::process::exit(0),
            Frame::Round(round) => round,
            _ => {
                let unexpected = WireError::BadValue("expected Round or Shutdown");
                return Err(reject(&mut conn, unexpected));
            }
        };
        // both deltas are checked before either writes
        let halo_len = prev.len() - interior_len;
        let patch =
            stage_delta::<P>(round.patch, interior_len).map_err(|e| reject(&mut conn, e))?;
        let halo = stage_delta::<P>(round.halo, halo_len).map_err(|e| reject(&mut conn, e))?;
        let (interiors, halo_slots) = prev.split_at_mut(interior_len);
        patch.apply(interiors);
        halo.apply(halo_slots);
        match round.inject {
            None => {}
            Some(WireInjection::Panic) => {
                // the process analog of a worker panic: the coordinator
                // sees the closed socket, nothing matches on the message
                eprintln!(
                    "smst-net worker: injected chaos fault (round {}, part {part}), exiting",
                    round.round
                );
                std::process::exit(101);
            }
            Some(WireInjection::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis))
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "compute_ns measurement reported to the coordinator's observer; never steers results"
        )]
        let compute_start = std::time::Instant::now();
        sweep(&program, &csr, &contexts, &prev, 0..interior_len, &mut next);
        let compute_ns = compute_start.elapsed().as_nanos() as u64;
        let changed = (0u32..)
            .zip(&next)
            .filter(|&(i, state)| *state != prev[i as usize]);
        let interiors = encode_delta::<P, _>(interior_len, changed);
        prev[..interior_len].clone_from_slice(&next);
        conn.send(&Frame::Interiors(InteriorsFrame {
            round: round.round,
            dispatch: round.dispatch,
            compute_ns,
            interiors,
        }))?;
    }
}

/// Parses the `worker` subcommand's arguments and runs the loop. The wire
/// version defaults to [`WIRE_VERSION`]; `--wire-version <n>` (a test
/// hook) announces a different one to exercise the handshake rejection.
pub fn worker_main(args: &[String]) -> Result<(), WireError> {
    let mut endpoint = None;
    let mut part = None;
    let mut wire_version = WIRE_VERSION;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--connect" => {
                let value = iter
                    .next()
                    .ok_or(WireError::BadValue("--connect needs a value"))?;
                endpoint = Some(Endpoint::parse(value)?);
            }
            "--part" => {
                let value = iter
                    .next()
                    .ok_or(WireError::BadValue("--part needs a value"))?;
                part = Some(
                    value
                        .parse::<u32>()
                        .map_err(|_| WireError::BadValue("--part must be a u32"))?,
                );
            }
            "--wire-version" => {
                let value = iter
                    .next()
                    .ok_or(WireError::BadValue("--wire-version needs a value"))?;
                wire_version = value
                    .parse::<u16>()
                    .map_err(|_| WireError::BadValue("--wire-version must be a u16"))?;
            }
            _ => return Err(WireError::BadValue("unknown worker argument")),
        }
    }
    let endpoint = endpoint.ok_or(WireError::BadValue("--connect is required"))?;
    let part = part.ok_or(WireError::BadValue("--part is required"))?;
    run_worker(&endpoint, part, wire_version)
}
