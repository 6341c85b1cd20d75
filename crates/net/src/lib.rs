//! Distributed backend for the engine: shards as **worker processes**
//! over sockets, behind `Backend::Remote`.
//!
//! The engine's `EngineConfig::instantiate` stays the single entry point:
//! this crate registers a remote factory per program (see [`install`] /
//! [`install_stock`]), and an envelope with `Backend::Remote`
//! then resolves to a [`RemoteRunner`] — a coordinator that spawns one
//! `smst-net worker` process per shard, ships each a one-time setup frame
//! holding its **region** (region-local CSR, interior contexts, the
//! region's registers), and drives synchronous rounds over the
//! length-prefixed `smst-wire-v1` protocol ([`wire`]). The coordinator
//! builds arena, partition and halo plan once; a worker holds only the
//! region it sweeps — never the graph, the layout or another part — and
//! sweeps it with the kernel every in-process runner calls, so the
//! register stream is **bit-for-bit** identical to the in-process sharded
//! backend for the same envelope.
//!
//! A round ships **what changed**: every per-round payload is a
//! [`RegisterDelta`] — the coordinator's own writes and the halo slots
//! whose owner register changed on the way out, the interiors the sweep
//! changed on the way back — so a stabilised run costs two ≈ 40-byte
//! frames per worker per round, and [`RemoteRunner::wire_totals`] says
//! what a run really put on the sockets.
//!
//! Layering:
//!
//! - [`wire`] — frames, [`RegisterDelta`], the region of a setup frame
//!   ([`wire::WireRegion`]), the versioned handshake, typed
//!   [`WireError`]s, buffer-bounded stream I/O;
//! - [`transport`] — Unix-domain / TCP sockets with explicit deadlines,
//!   one reused frame buffer per direction per connection end;
//! - [`program`] — the [`WireProgram`] codec trait + stock impls, delta
//!   encoding and validation ([`encode_delta`], [`stage_delta`]);
//! - [`worker`] — the shard process loop behind `smst-net worker`:
//!   validate the region, then serve rounds;
//! - [`remote`] — the coordinator ([`RemoteRunner`]) implementing the
//!   engine's `Runner` trait, region set-up, change tracking and recovery
//!   included.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod program;
pub mod remote;
pub mod transport;
pub mod wire;
pub mod worker;

pub use program::{
    decode_states, encode_delta, encode_states, stage_delta, StagedDelta, WireProgram,
};
pub use remote::{handshake_accept, RemoteRunner, WireTotals};
pub use transport::{unique_endpoint, unique_tcp_endpoint, Conn, Endpoint, Listener};
pub use wire::{
    read_frame, write_frame, DeltaIndex, Frame, RegisterDelta, WireError, WIRE_SCHEMA, WIRE_VERSION,
};

use smst_engine::programs::{AlarmedFlood, MinIdFlood, MonitorFlood};
use smst_engine::{register_remote_factory, ConfigError, EngineConfig, Runner};
use smst_graph::WeightedGraph;

/// The factory the engine registry stores: launch a coordinator and box
/// it behind the object-safe `Runner`.
fn launch_boxed<'p, P: WireProgram>(
    program: &'p P,
    graph: WeightedGraph,
    config: &EngineConfig,
) -> Result<Box<dyn Runner<P> + 'p>, ConfigError> {
    Ok(Box::new(RemoteRunner::launch(program, graph, config)?))
}

/// Registers the remote execution path for `P`: after this,
/// `EngineConfig::instantiate` resolves `Backend::Remote` envelopes for
/// `P` to a [`RemoteRunner`] (so scenarios, sweeps, chaos campaigns run
/// unmodified). The worker binary must also carry a dispatch arm for
/// `P::WIRE_NAME` (the stock `smst-net` binary knows the stock programs).
pub fn install<P: WireProgram>() {
    register_remote_factory::<P>(launch_boxed::<P>);
}

/// [`install`] for every stock engine workload the `smst-net` worker
/// binary can execute.
pub fn install_stock() {
    install::<MinIdFlood>();
    install::<MonitorFlood>();
    install::<AlarmedFlood>();
}
