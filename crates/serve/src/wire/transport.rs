//! The swappable byte-pipe contract and the two shipped transports.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Why a transport operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone and every buffered byte has been drained; no
    /// further traffic is possible in this direction.
    Closed,
    /// Transient: the transport cannot accept the send *right now* and
    /// enqueued **nothing** — retry the whole buffer later. This is the
    /// slow-reader signal the frontend's bounded send buffers absorb; it
    /// never means data loss and never occurs mid-frame.
    Busy,
    /// An I/O error surfaced by the underlying stream.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Busy => write!(f, "transport busy (retry the send)"),
            TransportError::Io(kind) => write!(f, "transport i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A non-blocking, ordered, reliable byte pipe — the only thing the wire
/// layer asks of the outside world, which is what makes transports
/// swappable (in-process loopback in tests and CI, TCP where a network
/// exists, shared memory or anything else by implementing this trait).
///
/// Contract:
///
/// * [`Transport::send`] enqueues all of `bytes` or fails; no partial
///   sends are observable (an implementation may buffer internally). A
///   [`TransportError::Busy`] failure is transient — nothing was
///   enqueued, retry the same bytes later; every other failure is fatal
///   for the direction.
/// * [`Transport::recv`] copies up to `buf.len()` available bytes and
///   returns how many; `Ok(0)` means "nothing available right now",
///   never end-of-stream. A dead peer is [`TransportError::Closed`] —
///   raised only after every buffered byte has been handed over, so no
///   byte is ever dropped by the transport itself.
/// * Bytes arrive in send order, uncorrupted and unduplicated.
pub trait Transport: Send {
    /// Enqueue `bytes` toward the peer.
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError>;

    /// Copy up to `buf.len()` available bytes into `buf`; `Ok(0)` when
    /// nothing is available right now.
    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError>;
}

impl Transport for Box<dyn Transport> {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        (**self).send(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        (**self).recv(buf)
    }
}

/// One direction of a loopback pipe.
#[derive(Debug, Default)]
struct Half {
    q: Mutex<VecDeque<u8>>,
    open: AtomicBool,
}

/// In-process paired byte channels: [`loopback_pair`] returns two
/// connected ends; what one end sends the other receives. Dropping an
/// end closes the pipe — the survivor drains buffered bytes, then sees
/// [`TransportError::Closed`]. Usable anywhere (tests, benches, CI)
/// regardless of sandbox networking.
#[derive(Debug)]
pub struct LoopbackTransport {
    tx: Arc<Half>,
    rx: Arc<Half>,
}

/// Two connected [`LoopbackTransport`] ends.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let a = Arc::new(Half {
        q: Mutex::new(VecDeque::new()),
        open: AtomicBool::new(true),
    });
    let b = Arc::new(Half {
        q: Mutex::new(VecDeque::new()),
        open: AtomicBool::new(true),
    });
    (
        LoopbackTransport {
            tx: Arc::clone(&a),
            rx: Arc::clone(&b),
        },
        LoopbackTransport { tx: b, rx: a },
    )
}

impl Transport for LoopbackTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        if !self.tx.open.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        self.tx
            .q
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(bytes);
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        let mut q = self.rx.q.lock().unwrap_or_else(PoisonError::into_inner);
        let n = q.len().min(buf.len());
        for (slot, byte) in buf.iter_mut().zip(q.drain(..n)) {
            *slot = byte;
        }
        if n == 0 && !self.rx.open.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        Ok(n)
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        // Close both directions: the peer's reads drain then see Closed,
        // and the peer's writes fail immediately.
        self.tx.open.store(false, Ordering::Release);
        self.rx.open.store(false, Ordering::Release);
    }
}

/// [`Transport`] over a non-blocking [`std::net::TcpStream`]. Compiled
/// unconditionally so the type is always available, but CI exercises the
/// wire stack over [`LoopbackTransport`] only — sandboxes need not grant
/// networking. `tests/wire.rs` gates its TCP leg behind `WEC_WIRE_TCP=1`.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Connect to a listening peer.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpTransport> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Wrap an accepted stream. Sets `TCP_NODELAY` (frames are tiny and
    /// latency-bound) and non-blocking mode (the [`Transport`] contract).
    pub fn from_stream(stream: TcpStream) -> std::io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(TcpTransport { stream })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), TransportError> {
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if rest.len() == bytes.len() {
                        // Nothing written yet: report Busy so the caller
                        // can buffer the frame instead of spinning on a
                        // slow reader.
                        return Err(TransportError::Busy);
                    }
                    // Mid-frame: frames must not be torn, so wait it out
                    // (frames are tiny — this is rare and short).
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::Io(e.kind())),
            }
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        match self.stream.read(buf) {
            Ok(0) => Err(TransportError::Closed),
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(TransportError::Io(e.kind())),
        }
    }
}

/// How a [`WireClient`](super::WireClient) obtains a fresh transport —
/// once at startup and again on every reconnect. Implementations carry
/// whatever addressing they need (a loopback backlog, a socket address,
/// a chaos plan wrapping another connector).
pub trait Connector {
    /// Dial a new connection. [`TransportError::Busy`] means "no
    /// connection available right now, try again later"; anything else
    /// is a failed dial (also retried, under backoff).
    fn dial(&mut self) -> Result<Box<dyn Transport>, TransportError>;
}

/// Server-side backlog of loopback connections a [`LoopbackConnector`]
/// has dialed. The serving loop accepts each end into a
/// [`Frontend`](super::Frontend) — the loopback analogue of a listening
/// socket, usable anywhere regardless of sandbox networking.
#[derive(Debug, Clone, Default)]
pub struct LoopbackListener {
    backlog: Arc<Mutex<VecDeque<LoopbackTransport>>>,
}

impl LoopbackListener {
    /// Pop the next dialed-but-unaccepted connection, if any.
    pub fn accept(&self) -> Option<LoopbackTransport> {
        self.backlog
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }
}

/// [`Connector`] producing in-process loopback connections; the peer
/// ends queue on the paired [`LoopbackListener`].
#[derive(Debug, Clone)]
pub struct LoopbackConnector {
    backlog: Arc<Mutex<VecDeque<LoopbackTransport>>>,
}

/// A paired loopback dialer and acceptor.
pub fn loopback_listener() -> (LoopbackConnector, LoopbackListener) {
    let listener = LoopbackListener::default();
    (
        LoopbackConnector {
            backlog: Arc::clone(&listener.backlog),
        },
        listener,
    )
}

impl Connector for LoopbackConnector {
    fn dial(&mut self) -> Result<Box<dyn Transport>, TransportError> {
        let (client, server) = loopback_pair();
        self.backlog
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(server);
        Ok(Box::new(client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trip_and_close() {
        let (mut a, mut b) = loopback_pair();
        a.send(b"hello").unwrap();
        let mut buf = [0u8; 3];
        assert_eq!(b.recv(&mut buf).unwrap(), 3);
        assert_eq!(&buf, b"hel");
        assert_eq!(b.recv(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"lo");
        assert_eq!(b.recv(&mut buf).unwrap(), 0, "drained but open");
        drop(a);
        assert_eq!(b.recv(&mut buf), Err(TransportError::Closed));
        assert_eq!(b.send(b"x"), Err(TransportError::Closed));
    }

    #[test]
    fn loopback_close_drains_buffered_bytes_first() {
        let (mut a, mut b) = loopback_pair();
        a.send(b"last words").unwrap();
        drop(a);
        let mut buf = [0u8; 64];
        let n = b.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"last words", "no byte dropped at close");
        assert_eq!(b.recv(&mut buf), Err(TransportError::Closed));
    }
}
