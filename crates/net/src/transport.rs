//! Socket transport for the wire: Unix-domain sockets (the localhost
//! default) or TCP, behind one [`Endpoint`] / [`Listener`] / [`Conn`]
//! surface. Deadlines are explicit everywhere — a connect, accept or read
//! that cannot complete in time surfaces as a typed
//! [`WireError::Timeout`], never a hang. A [`Conn`] speaks frames
//! ([`Conn::send`] / [`Conn::recv`]) through one reused buffer per
//! direction.

#![expect(
    clippy::disallowed_methods,
    reason = "connect and accept poll their deadlines; wall time never feeds round state"
)]

use crate::wire::{io_error, read_frame, write_frame, Frame, WireError};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

/// How often a deadline loop polls a non-blocking accept/connect.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// A socket address the coordinator listens on and workers dial, in the
/// `unix:<path>` / `tcp:<host:port>` command-line syntax the worker bin
/// parses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(std::path::PathBuf),
    /// A TCP address (`host:port`; port 0 binds an ephemeral port).
    Tcp(String),
}

impl Endpoint {
    /// Parses the `unix:<path>` / `tcp:<addr>` argument syntax.
    pub fn parse(s: &str) -> Result<Endpoint, WireError> {
        if let Some(path) = s.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(Endpoint::Unix(path.into()));
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(WireError::BadValue("unix endpoints need a unix platform"));
            }
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        Err(WireError::BadValue(
            "endpoint must be unix:<path> or tcp:<addr>",
        ))
    }

    /// The `unix:<path>` / `tcp:<addr>` argument form.
    pub fn to_arg(&self) -> String {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => format!("unix:{}", path.display()),
            Endpoint::Tcp(addr) => format!("tcp:{addr}"),
        }
    }

    /// Dials the endpoint, retrying until `deadline` (the listener may
    /// still be a few scheduler slices from `bind` when a spawned worker
    /// starts).
    pub fn connect(&self, deadline: Duration) -> Result<Conn, WireError> {
        let give_up = Instant::now() + deadline;
        loop {
            let attempt = match self {
                #[cfg(unix)]
                Endpoint::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
                Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Stream::Tcp),
            };
            match attempt {
                Ok(stream) => return Conn::new(stream),
                Err(_) if Instant::now() < give_up => std::thread::sleep(POLL_INTERVAL),
                Err(e) => return Err(io_error(e)),
            }
        }
    }
}

/// A fresh, collision-free localhost endpoint: a Unix socket under the
/// temp dir on Unix platforms, an ephemeral-port TCP loopback elsewhere.
pub fn unique_endpoint() -> Endpoint {
    #[cfg(unix)]
    {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        Endpoint::Unix(std::env::temp_dir().join(format!(
            "smst-net-{}-{}.sock",
            std::process::id(),
            seq
        )))
    }
    #[cfg(not(unix))]
    {
        Endpoint::Tcp("127.0.0.1:0".to_string())
    }
}

/// A fresh ephemeral-port TCP loopback endpoint (the cross-platform /
/// multi-host transport; [`unique_endpoint`] prefers Unix sockets
/// locally).
pub fn unique_tcp_endpoint() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

/// The coordinator's listening socket. Dropping a Unix listener removes
/// its socket file.
#[derive(Debug)]
pub enum Listener {
    /// A Unix-domain listener plus the path to unlink on drop.
    #[cfg(unix)]
    Unix(UnixListener, std::path::PathBuf),
    /// A TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the endpoint, returning the listener plus the **actual**
    /// endpoint (TCP port 0 resolves to the assigned ephemeral port —
    /// that is the address workers must dial).
    pub fn bind(endpoint: &Endpoint) -> Result<(Listener, Endpoint), WireError> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let listener = UnixListener::bind(path).map_err(io_error)?;
                Ok((
                    Listener::Unix(listener, path.clone()),
                    Endpoint::Unix(path.clone()),
                ))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str()).map_err(io_error)?;
                let actual = listener.local_addr().map_err(io_error)?;
                Ok((Listener::Tcp(listener), Endpoint::Tcp(actual.to_string())))
            }
        }
    }

    /// Accepts one connection within `deadline` (polling non-blocking
    /// accepts — neither listener type has a native accept timeout).
    pub fn accept_deadline(&self, deadline: Duration) -> Result<Conn, WireError> {
        let give_up = Instant::now() + deadline;
        self.set_nonblocking(true)?;
        let stream = loop {
            let attempt = match self {
                #[cfg(unix)]
                Listener::Unix(listener, _) => listener.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(listener) => listener.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            match attempt {
                Ok(stream) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= give_up {
                        self.set_nonblocking(false)?;
                        return Err(WireError::Timeout);
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.set_nonblocking(false)?;
                    return Err(io_error(e));
                }
            }
        };
        self.set_nonblocking(false)?;
        Conn::new(stream)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> Result<(), WireError> {
        match self {
            #[cfg(unix)]
            Listener::Unix(listener, _) => listener.set_nonblocking(nonblocking).map_err(io_error),
            Listener::Tcp(listener) => listener.set_nonblocking(nonblocking).map_err(io_error),
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The socket under a [`Conn`].
#[derive(Debug)]
enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// One established connection end (either transport): blocking, with an
/// adjustable read deadline, speaking [`Frame`]s. It owns the two frame
/// buffers of its end — one filled by [`recv`](Conn::recv), one by
/// [`send`](Conn::send) — which grow to the largest round frame that
/// really passed and are reused for every frame after it. The one-time
/// [`Frame::Setup`] is sized by the graph, not by a round, and its buffer
/// is let go again.
#[derive(Debug)]
pub struct Conn {
    stream: Stream,
    inbound: Vec<u8>,
    outbound: Vec<u8>,
    received_len: usize,
}

impl Conn {
    /// Post-connect socket setup: blocking mode (accepted streams can
    /// inherit the listener's non-blocking flag on some platforms) and
    /// `TCP_NODELAY` for TCP — round frames are latency-bound, not
    /// throughput-bound.
    fn new(stream: Stream) -> Result<Conn, WireError> {
        match &stream {
            #[cfg(unix)]
            Stream::Unix(stream) => stream.set_nonblocking(false).map_err(io_error)?,
            Stream::Tcp(stream) => {
                stream.set_nonblocking(false).map_err(io_error)?;
                stream.set_nodelay(true).map_err(io_error)?;
            }
        }
        Ok(Conn {
            stream,
            inbound: Vec::new(),
            outbound: Vec::new(),
            received_len: 0,
        })
    }

    /// Sets (or clears) the read deadline — the transport form of the
    /// engine's barrier watchdog. `None` waits forever.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), WireError> {
        match &self.stream {
            #[cfg(unix)]
            Stream::Unix(stream) => stream.set_read_timeout(timeout).map_err(io_error),
            Stream::Tcp(stream) => stream.set_read_timeout(timeout).map_err(io_error),
        }
    }

    /// Writes one frame ([`write_frame`]); returns its payload length.
    pub fn send(&mut self, frame: &Frame) -> Result<usize, WireError> {
        write_frame(&mut self.stream, frame, &mut self.outbound)?;
        let len = self.outbound.len() - 4;
        if matches!(frame, Frame::Setup(_)) {
            self.outbound = Vec::new();
        }
        Ok(len)
    }

    /// Reads one frame ([`read_frame`]).
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        let frame = read_frame(&mut self.stream, &mut self.inbound)?;
        self.received_len = self.inbound.len();
        if matches!(frame, Frame::Setup(_)) {
            self.inbound = Vec::new();
        }
        Ok(frame)
    }

    /// Payload length of the frame the last [`recv`](Conn::recv) returned.
    pub fn received_len(&self) -> usize {
        self.received_len
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(stream) => stream.read(buf),
            Stream::Tcp(stream) => stream.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(stream) => stream.write(buf),
            Stream::Tcp(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(stream) => stream.flush(),
            Stream::Tcp(stream) => stream.flush(),
        }
    }
}
