//! The `smst-wire-v1` frame codec: length-prefixed frames over any byte
//! stream, hand-rolled little-endian encode/decode (no serde, mirroring
//! the `analyze::json` convention of dependency-free codecs).
//!
//! Every frame on the wire is `u32-LE length ‖ payload`, where the payload
//! is one tag byte followed by the frame body. The handshake is versioned:
//! a worker opens with [`Frame::Hello`] carrying the schema string
//! ([`WIRE_SCHEMA`]) and its protocol version, and the coordinator either
//! acknowledges ([`Frame::HelloAck`]) or rejects with a typed
//! [`Frame::Error`] — a version skew is a typed
//! [`WireError::VersionMismatch`], never a silent misparse.
//!
//! Node registers travel as **opaque program-encoded byte payloads**
//! ([`crate::program::WireProgram`] owns the state codec); the frame layer
//! only length-delimits them, so the codec here is monomorphic and the
//! framing property tests need no program type. Every per-round payload —
//! patch, halo, reply — is one [`RegisterDelta`]: the registers of a region
//! that **changed**, listed by ascending region index, so a round in which
//! nothing changed is two ≈ 40-byte frames per worker. Whoever applies a
//! delta knows the region and the register codec and validates it there
//! ([`crate::program::stage_delta`]), before the first write.
//!
//! The one-time [`SetupFrame`] carries a worker's **region** and nothing
//! else of the graph ([`WireRegion`]): the region-local CSR, the interior
//! node contexts and one register per region slot. Payload layout (v5),
//! after the tag byte: `part u32 ‖ program str ‖ spec bytes ‖
//! halo_len u32 ‖ offsets [u32] ‖ targets [u32] ‖ nodes [u32] ‖ ids [u64] ‖
//! registers bytes`, every array a `u32` count followed by its
//! little-endian elements. The decoder only checks that each announced
//! count fits the bytes that are there; [`WireRegion::into_parts`] checks
//! that the arrays describe one consistent region.
//!
//! Both stream functions work through a caller-owned buffer (one per
//! direction per connection end, see [`crate::transport::Conn`]):
//! [`write_frame`] encodes into it and issues one `write_all`,
//! [`read_frame`] fills it through `Read::take`, so memory grows with the
//! bytes that actually arrive, never with the length a peer announces.

use smst_engine::CsrTopology;
use smst_graph::NodeId;
use smst_sim::NodeContext;
use std::io::{Read, Write};

/// The wire schema tag carried by every [`Frame::Hello`]: the writer side
/// of the `smst-analyze` schema-parity pairing (`analyze::ingest` declares
/// the matching acceptor const).
pub const WIRE_SCHEMA: &str = "smst-wire-v1";

/// The protocol version spoken by this build. Bumped on any frame-layout
/// change; a worker and coordinator disagreeing on it refuse to pair.
/// (v1 shipped every halo and interior register every round; v2 ships
/// [`RegisterDelta`]s; v3 boots a worker from its region instead of the
/// whole graph; v4 drops the set-up frame's unread envelope seed; v5 drops
/// the region's unread port weights.)
pub const WIRE_VERSION: u16 = 5;

/// Hard ceiling on a single frame's payload (1 GiB). A length prefix
/// beyond this is rejected outright, and one below it reserves nothing:
/// [`read_frame`] grows its buffer only as payload bytes arrive.
pub const MAX_FRAME: u32 = 1 << 30;

/// [`Frame::Error`] code: handshake version mismatch.
pub const ERR_VERSION: u32 = 1;
/// [`Frame::Error`] code: the worker has no codec for the program named in
/// [`SetupFrame::program`].
pub const ERR_UNKNOWN_PROGRAM: u32 = 2;
/// [`Frame::Error`] code: a frame arrived out of protocol order.
pub const ERR_PROTOCOL: u32 = 3;

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_SETUP: u8 = 3;
const TAG_ROUND: u8 = 4;
const TAG_INTERIORS: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_ERROR: u8 = 127;

/// Why a wire operation failed. Every decode and I/O failure is typed —
/// the coordinator maps these onto the engine's `PoolError` surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame (torn frame / short read).
    Truncated,
    /// A frame body decoded cleanly but left unconsumed bytes.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The handshake carried an unknown schema string.
    BadMagic(String),
    /// An unknown frame tag.
    BadTag(u8),
    /// The peers speak different protocol versions.
    VersionMismatch {
        /// The version this side speaks.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// A length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
    },
    /// A field value that cannot be honored (out-of-range index, bad
    /// UTF-8, a region whose arrays disagree, …).
    BadValue(&'static str),
    /// The peer rejected us with a typed [`Frame::Error`].
    Rejected {
        /// The `ERR_*` code.
        code: u32,
        /// The peer's message.
        message: String,
    },
    /// The peer closed the connection cleanly between frames.
    PeerClosed,
    /// A read deadline (socket timeout) expired.
    Timeout,
    /// Any other I/O failure.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "torn frame: the stream ended mid-frame"),
            WireError::Trailing { extra } => {
                write!(f, "frame decoded with {extra} trailing byte(s)")
            }
            WireError::BadMagic(schema) => {
                write!(
                    f,
                    "unknown wire schema {schema:?} (expected {WIRE_SCHEMA:?})"
                )
            }
            WireError::BadTag(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(
                    f,
                    "wire version mismatch: we speak v{ours}, peer speaks v{theirs}"
                )
            }
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte ceiling")
            }
            WireError::BadValue(what) => write!(f, "unhonorable field value: {what}"),
            WireError::Rejected { code, message } => {
                write!(f, "peer rejected us (code {code}): {message}")
            }
            WireError::PeerClosed => write!(f, "peer closed the connection"),
            WireError::Timeout => write!(f, "read deadline expired"),
            WireError::Io(message) => write!(f, "socket error: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maps an I/O error onto the typed surface: a socket read timeout
/// (`SO_RCVTIMEO` surfaces as `WouldBlock` on Unix, `TimedOut` elsewhere)
/// becomes [`WireError::Timeout`], everything else [`WireError::Io`].
pub(crate) fn io_error(err: std::io::Error) -> WireError {
    match err.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout,
        std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
        _ => WireError::Io(err.to_string()),
    }
}

// --- primitive little-endian writers -----------------------------------

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u16`, little-endian.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a `u32`-count-prefixed `u32` array.
pub fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    put_u32(out, values.len() as u32);
    out.reserve(4 * values.len());
    for &v in values {
        put_u32(out, v);
    }
}

/// Appends a `u32`-count-prefixed `u64` array.
pub fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    put_u32(out, values.len() as u32);
    out.reserve(8 * values.len());
    for &v in values {
        put_u64(out, v);
    }
}

// --- primitive little-endian reader ------------------------------------

/// A bounds-checked cursor over one frame body. Every read is typed; a
/// read past the end is [`WireError::Truncated`], leftover bytes at
/// [`finish`](Dec::finish) are [`WireError::Trailing`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadValue("non-UTF-8 string"))
    }

    /// Reads a `u32`-count-prefixed array of `W`-byte elements. The
    /// elements must be there before anything is reserved: a count beyond
    /// the bytes left is [`WireError::Truncated`].
    fn array<const W: usize, T>(&mut self, element: fn([u8; W]) -> T) -> Result<Vec<T>, WireError> {
        let count = self.u32()? as usize;
        let bytes = self.take(count.checked_mul(W).ok_or(WireError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(W)
            .map(|chunk| element(chunk.try_into().expect("chunks_exact yields W bytes")))
            .collect())
    }

    /// Reads a `u32`-count-prefixed `u32` array; a count beyond the bytes
    /// left is [`WireError::Truncated`], with nothing reserved for it.
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        self.array(u32::from_le_bytes)
    }

    /// Reads a `u32`-count-prefixed `u64` array (see [`Dec::u32s`]).
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        self.array(u64::from_le_bytes)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the body was consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::Trailing { extra }),
        }
    }
}

// --- frame bodies -------------------------------------------------------

/// One worker's region on the wire — everything a `sweep` over the
/// interior reads except the registers: the region-local CSR (row `i`
/// lists the region slots holding interior `i`'s neighbours, port order;
/// slots `>= interior count` are halo slots) and what each interior node
/// knows for free (`NodeContext`: original node index and identity; the
/// degree is the row's length). Flat arrays, one entry per interior or
/// per CSR entry, so the whole region decodes in four bounded reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRegion {
    /// Halo slots after the interiors: the region holds
    /// `nodes.len() + halo_len` registers.
    pub halo_len: u32,
    /// CSR row offsets into `targets`: one per interior plus the closing
    /// one, starting at 0, ascending.
    pub offsets: Vec<u32>,
    /// Region slot of the neighbour behind each port, row-major.
    pub targets: Vec<u32>,
    /// `NodeContext::node` of each interior (original node index).
    pub nodes: Vec<u32>,
    /// `NodeContext::id` of each interior.
    pub ids: Vec<u64>,
}

impl WireRegion {
    /// Snapshots a region: its local CSR, its interiors' contexts and how
    /// many halo slots follow them.
    pub fn from_parts(csr: &CsrTopology, contexts: &[NodeContext], halo_len: usize) -> Self {
        let rows = csr.node_count();
        let mut region = WireRegion {
            halo_len: halo_len as u32,
            offsets: Vec::with_capacity(rows + 1),
            targets: Vec::with_capacity(csr.entry_count()),
            nodes: contexts.iter().map(|ctx| ctx.node.index() as u32).collect(),
            ids: contexts.iter().map(|ctx| ctx.id).collect(),
        };
        region.offsets.push(0);
        for row in 0..rows {
            region.targets.extend_from_slice(csr.neighbors_of(row));
            region.offsets.push(region.targets.len() as u32);
        }
        region
    }

    /// Registers the region holds: interiors, then halo slots.
    /// (`halo_len` is whatever a peer announced, hence no plain `+`.)
    pub fn region_len(&self) -> usize {
        self.nodes.len().saturating_add(self.halo_len as usize)
    }

    /// Validates the arrays against each other and builds what the round
    /// loop sweeps: offsets start at 0, ascend and end at `targets.len()`;
    /// every target is a slot of the region; one `node` and one `id` per
    /// row. Each violation is a typed [`WireError::BadValue`] naming it.
    pub fn into_parts(self) -> Result<(CsrTopology, Vec<NodeContext>), WireError> {
        let interiors = self.nodes.len();
        if self.ids.len() != interiors || self.offsets.len() != interiors + 1 {
            return Err(WireError::BadValue(
                "a region needs one context and one CSR row per interior",
            ));
        }
        let region_len = self.region_len();
        let offsets = self.offsets.iter().map(|&o| o as usize).collect();
        let csr = CsrTopology::from_parts(offsets, self.targets, region_len)
            .map_err(WireError::BadValue)?;
        let contexts = (0..interiors)
            .map(|row| NodeContext {
                node: NodeId(self.nodes[row] as usize),
                id: self.ids[row],
                degree: csr.degree(row),
            })
            .collect();
        Ok((csr, contexts))
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.halo_len);
        put_u32s(out, &self.offsets);
        put_u32s(out, &self.targets);
        put_u32s(out, &self.nodes);
        put_u64s(out, &self.ids);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(WireRegion {
            halo_len: dec.u32()?,
            offsets: dec.u32s()?,
            targets: dec.u32s()?,
            nodes: dec.u32s()?,
            ids: dec.u64s()?,
        })
    }
}

/// The one-time worker bootstrap: the program, the worker's part index
/// and its **region** — what it sweeps, and nothing else of the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetupFrame {
    /// This worker's part index.
    pub part: u32,
    /// The program's wire name ([`crate::program::WireProgram::WIRE_NAME`]).
    pub program: String,
    /// Program-specific spec bytes (decoded by `WireProgram::decode_spec`).
    pub spec: Vec<u8>,
    /// The region's geometry and contexts.
    pub region: WireRegion,
    /// The region's current registers, program-encoded: interiors in node
    /// order, then halo slots.
    pub registers: Vec<u8>,
}

/// A chaos injection riding on a [`RoundFrame`] — the wire form of the
/// engine's `InjectionKind`, armed by the coordinator exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireInjection {
    /// The worker panics before computing.
    Panic,
    /// The worker sleeps this many milliseconds before computing.
    Stall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// Which registers of a region a [`RegisterDelta`] lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaIndex {
    /// Every register of the region, in region order. Written exactly when
    /// every register is listed, so the bytes are a function of the set.
    All,
    /// The registers at these region indices, strictly ascending.
    Listed(Vec<u32>),
}

/// A sparse register list: the one per-round payload of the protocol
/// (patch, halo and reply alike). The frame layer carries it opaquely;
/// [`crate::program::stage_delta`] checks it against the region it is
/// for — index range and order, register count — before anything is
/// written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterDelta {
    /// The listed region indices.
    pub index: DeltaIndex,
    /// The listed registers, program-encoded, one per listed index (one
    /// per register of the region for [`DeltaIndex::All`]).
    pub states: Vec<u8>,
}

impl RegisterDelta {
    /// The delta that lists nothing.
    pub fn empty() -> Self {
        RegisterDelta {
            index: DeltaIndex::Listed(Vec::new()),
            states: Vec::new(),
        }
    }

    /// How many registers the delta lists of a region of `region_len`.
    pub fn count(&self, region_len: usize) -> usize {
        match &self.index {
            DeltaIndex::All => region_len,
            DeltaIndex::Listed(indices) => indices.len(),
        }
    }

    /// The length of the delta's encoding, from its sizes alone.
    pub fn encoded_len(&self) -> usize {
        let index = match &self.index {
            DeltaIndex::All => 1,
            DeltaIndex::Listed(indices) => 1 + 4 + 4 * indices.len(),
        };
        index + 4 + self.states.len()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match &self.index {
            DeltaIndex::All => put_u8(out, 0),
            DeltaIndex::Listed(indices) => {
                put_u8(out, 1);
                put_u32s(out, indices);
            }
        }
        put_bytes(out, &self.states);
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let index = match dec.u8()? {
            0 => DeltaIndex::All,
            1 => DeltaIndex::Listed(dec.u32s()?),
            _ => return Err(WireError::BadValue("unknown delta index kind")),
        };
        Ok(RegisterDelta {
            index,
            states: dec.bytes()?.to_vec(),
        })
    }
}

/// One round dispatch, coordinator → worker: what changed in the worker's
/// region since its last dispatch, and an optional one-shot injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundFrame {
    /// The round this dispatch computes (the coordinator's step counter).
    pub round: u64,
    /// Monotone dispatch counter, echoed in the reply: a recovery replay
    /// of the same `round` gets a fresh `dispatch`, so stale replies from
    /// the failed attempt are recognized and skipped.
    pub dispatch: u64,
    /// Interior registers the coordinator wrote (external mutations), by
    /// region-local interior index; [`DeltaIndex::All`] on a recovery
    /// resync.
    pub patch: RegisterDelta,
    /// Halo registers whose owner changed them, by halo **slot**
    /// (`HaloPlan::halo_nodes` order); the worker keeps every other slot
    /// from the round before.
    pub halo: RegisterDelta,
    /// A one-shot chaos injection to execute before computing.
    pub inject: Option<WireInjection>,
}

impl RoundFrame {
    /// The payload length of [`Frame::Round`] carrying this dispatch
    /// (what [`Frame::encode`] would produce), from its sizes alone.
    pub fn encoded_len(&self) -> usize {
        let inject = match self.inject {
            None | Some(WireInjection::Panic) => 1,
            Some(WireInjection::Stall { .. }) => 1 + 8,
        };
        1 + 8 + 8 + self.patch.encoded_len() + self.halo.encoded_len() + inject
    }
}

/// One round reply, worker → coordinator: the interior registers the
/// sweep changed plus the measured compute time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteriorsFrame {
    /// Echo of [`RoundFrame::round`].
    pub round: u64,
    /// Echo of [`RoundFrame::dispatch`] (staleness filter).
    pub dispatch: u64,
    /// The worker's measured compute time for this round.
    pub compute_ns: u64,
    /// The interior registers whose new value differs from the previous
    /// round's, by region-local interior index.
    pub interiors: RegisterDelta,
}

/// Every message of the `smst-wire-v1` protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Worker → coordinator greeting: schema string, protocol version,
    /// part index (from the worker's command line).
    Hello {
        /// The worker's protocol version.
        version: u16,
        /// The worker's part index.
        part: u32,
    },
    /// Coordinator → worker handshake acknowledgement.
    HelloAck {
        /// The coordinator's protocol version.
        version: u16,
    },
    /// Coordinator → worker bootstrap.
    Setup(SetupFrame),
    /// Coordinator → worker round dispatch.
    Round(RoundFrame),
    /// Worker → coordinator round reply.
    Interiors(InteriorsFrame),
    /// Coordinator → worker orderly teardown.
    Shutdown,
    /// Either direction: a typed rejection (`ERR_*` code + message).
    Error {
        /// The `ERR_*` code.
        code: u32,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    /// Encodes the frame payload (tag + body, **without** the length
    /// prefix [`write_frame`] adds).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame payload ([`Frame::encode`]) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { version, part } => {
                put_u8(out, TAG_HELLO);
                put_str(out, WIRE_SCHEMA);
                put_u16(out, *version);
                put_u32(out, *part);
            }
            Frame::HelloAck { version } => {
                put_u8(out, TAG_HELLO_ACK);
                put_u16(out, *version);
            }
            Frame::Setup(setup) => {
                put_u8(out, TAG_SETUP);
                put_u32(out, setup.part);
                put_str(out, &setup.program);
                put_bytes(out, &setup.spec);
                setup.region.encode(out);
                put_bytes(out, &setup.registers);
            }
            Frame::Round(round) => {
                put_u8(out, TAG_ROUND);
                put_u64(out, round.round);
                put_u64(out, round.dispatch);
                round.patch.encode(out);
                round.halo.encode(out);
                match round.inject {
                    None => put_u8(out, 0),
                    Some(WireInjection::Panic) => put_u8(out, 1),
                    Some(WireInjection::Stall { millis }) => {
                        put_u8(out, 2);
                        put_u64(out, millis);
                    }
                }
            }
            Frame::Interiors(interiors) => {
                put_u8(out, TAG_INTERIORS);
                put_u64(out, interiors.round);
                put_u64(out, interiors.dispatch);
                put_u64(out, interiors.compute_ns);
                interiors.interiors.encode(out);
            }
            Frame::Shutdown => put_u8(out, TAG_SHUTDOWN),
            Frame::Error { code, message } => {
                put_u8(out, TAG_ERROR);
                put_u32(out, *code);
                put_str(out, message);
            }
        }
    }

    /// Decodes one frame payload (as produced by [`Frame::encode`]).
    /// Total: every byte is consumed or the decode is an error.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut dec = Dec::new(payload);
        let frame = match dec.u8()? {
            TAG_HELLO => {
                let schema = dec.str()?;
                if schema != WIRE_SCHEMA {
                    return Err(WireError::BadMagic(schema.to_string()));
                }
                Frame::Hello {
                    version: dec.u16()?,
                    part: dec.u32()?,
                }
            }
            TAG_HELLO_ACK => Frame::HelloAck {
                version: dec.u16()?,
            },
            TAG_SETUP => Frame::Setup(SetupFrame {
                part: dec.u32()?,
                program: dec.str()?.to_string(),
                spec: dec.bytes()?.to_vec(),
                region: WireRegion::decode(&mut dec)?,
                registers: dec.bytes()?.to_vec(),
            }),
            TAG_ROUND => {
                let round = dec.u64()?;
                let dispatch = dec.u64()?;
                let patch = RegisterDelta::decode(&mut dec)?;
                let halo = RegisterDelta::decode(&mut dec)?;
                let inject = match dec.u8()? {
                    0 => None,
                    1 => Some(WireInjection::Panic),
                    2 => Some(WireInjection::Stall { millis: dec.u64()? }),
                    _ => return Err(WireError::BadValue("unknown injection kind")),
                };
                Frame::Round(RoundFrame {
                    round,
                    dispatch,
                    patch,
                    halo,
                    inject,
                })
            }
            TAG_INTERIORS => Frame::Interiors(InteriorsFrame {
                round: dec.u64()?,
                dispatch: dec.u64()?,
                compute_ns: dec.u64()?,
                interiors: RegisterDelta::decode(&mut dec)?,
            }),
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_ERROR => Frame::Error {
                code: dec.u32()?,
                message: dec.str()?.to_string(),
            },
            tag => return Err(WireError::BadTag(tag)),
        };
        dec.finish()?;
        Ok(frame)
    }
}

// --- stream I/O ---------------------------------------------------------

/// Writes one length-prefixed frame with a single `write_all` and flushes.
/// The frame is encoded into `buf` (cleared first — a connection end
/// reuses one across frames), which afterwards holds the exact wire bytes
/// `u32-LE length ‖ payload`.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame, buf: &mut Vec<u8>) -> Result<(), WireError> {
    buf.clear();
    put_u32(buf, 0);
    frame.encode_into(buf);
    let len = buf.len() - 4;
    if len as u64 > MAX_FRAME as u64 {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(buf).map_err(io_error)?;
    w.flush().map_err(io_error)
}

/// Reads one length-prefixed frame through `buf` (cleared first), which
/// afterwards holds the payload. `buf` grows with the bytes **received**,
/// never with the announced length, so a peer that announces
/// [`MAX_FRAME`] and stalls or closes costs what it actually sent. A clean
/// close **between** frames is [`WireError::PeerClosed`]; a close
/// mid-frame is [`WireError::Truncated`]; an expired socket read deadline
/// is [`WireError::Timeout`].
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<Frame, WireError> {
    // the first byte distinguishes a clean close from a torn frame
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(WireError::PeerClosed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_error(e)),
        }
    }
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest).map_err(io_error)?;
    let len = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    buf.clear();
    let got = r.take(u64::from(len)).read_to_end(buf).map_err(io_error)?;
    if got < len as usize {
        return Err(WireError::Truncated);
    }
    Frame::decode(buf)
}

/// [`Frame::encode`] plus the length prefix — the exact byte string
/// [`write_frame`] puts on the wire (torn-frame tests truncate this).
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut std::io::sink(), frame, &mut bytes).expect("the sink accepts every write");
    bytes
}
