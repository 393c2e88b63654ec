//! The one wire layer under every protocol in the workspace: the
//! executor protocol ([`crate::transport::wire`], tags 1–18), the
//! submission protocol ([`crate::service::wire`], tags 1–12) and
//! dp-core's job-body and result codecs (tags 1–5). Each of those is a
//! message table; the three decisions they share live here.
//!
//! * **Framing.** A message travels as `[len u32 LE][body]`.
//!   [`write_frame`] refuses a body over [`MAX_FRAME`] *before* writing
//!   anything, and [`read_frame`] refuses such a prefix *before*
//!   allocating, so neither side can be made to desynchronize the
//!   stream or reserve unbounded memory. Both return `4 + body_len`,
//!   the measured wire bytes the cost model's transfer terms consume.
//!   A body's bytes are passed over once on each side of the socket and
//!   nowhere else: the writer sends a [`Body`] — a small encoded head
//!   plus the *borrowed* sealed frame that ends every data-bearing
//!   message — without concatenating the two, and the reader fills one
//!   un-zeroed buffer and hands it to the decoder as an owned
//!   [`Bytes`], which [`Reader::frame`] slices instead of copying.
//! * **Bodies.** Fixed-width little-endian scalars written with
//!   [`bytes::BufMut`] and read back with [`Reader`], which is
//!   bounds-checked on top of [`crate::codec`]'s checked decodes:
//!   every count is validated against the bytes left before anything
//!   is allocated for it, flags are strictly 0/1, strings are UTF-8,
//!   an embedded sealed [`Payload`] frame is validated by
//!   [`Payload::from_frame`], and trailing bytes are an error. All
//!   malformed input is [`JobError::Codec`] — never a panic — and
//!   becomes `io::ErrorKind::InvalidData` at the socket boundary.
//! * **Sockets.** [`Addr`] names a TCP or Unix endpoint
//!   (`tcp:<host>:<port>` / `unix:<path>`), [`Listener`] binds one
//!   (unlinking a Unix socket file on drop) and [`dial`] connects to
//!   one; both hand out a boxed [`Conn`].

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

use bytes::{BufMut, Bytes};

use crate::codec::{decode_le_slice, LeScalar, Storable};
use crate::error::JobError;
use crate::payload::Payload;

/// Hard cap on one frame's body length. A length above this is refused
/// by the writer before it writes and by the reader before it
/// allocates, bounding what a corrupt or hostile peer can make the
/// decoder reserve.
pub const MAX_FRAME: u32 = 1 << 28; // 256 MiB

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// The length prefix of a `len`-byte body, or `InvalidInput` when the
/// body is over [`MAX_FRAME`] (which also rules out `u32` wrap-around).
fn frame_prefix(len: usize) -> io::Result<[u8; 4]> {
    u32::try_from(len)
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .map(u32::to_le_bytes)
        .ok_or_else(|| {
            io::Error::new(
                ErrorKind::InvalidInput,
                format!("frame body of {len} bytes exceeds MAX_FRAME {MAX_FRAME}"),
            )
        })
}

/// One message body on its way out: the encoded head and, for a
/// data-bearing message, the sealed frame that follows it on the wire.
/// The frame is borrowed from the message, so encoding never copies it;
/// [`write_frame`] sends the two back to back.
#[derive(Debug)]
pub struct Body<'a> {
    head: Vec<u8>,
    frame: &'a [u8],
}

impl<'a> Body<'a> {
    /// `head` followed by `frame`, verbatim.
    pub fn with_frame(head: Vec<u8>, frame: &'a [u8]) -> Self {
        Body { head, frame }
    }

    /// `head`, then an optional frame as the tail of the body: `[0]`,
    /// or `[1]` followed by the frame bytes verbatim.
    pub fn with_opt_frame(mut head: Vec<u8>, frame: Option<&'a [u8]>) -> Self {
        head.put_u8(u8::from(frame.is_some()));
        Body {
            head,
            frame: frame.unwrap_or_default(),
        }
    }

    /// Body length on the wire.
    fn len(&self) -> usize {
        self.head.len() + self.frame.len()
    }

    /// The body as one buffer — the copy [`write_frame`] exists to
    /// avoid; for callers that need the bytes rather than the socket.
    pub fn concat(self) -> Vec<u8> {
        let mut out = self.head;
        out.extend_from_slice(self.frame);
        out
    }
}

/// A body that is all head (no embedded frame, or one already
/// concatenated).
impl From<Vec<u8>> for Body<'_> {
    fn from(head: Vec<u8>) -> Self {
        Body { head, frame: &[] }
    }
}

/// Write one framed body; returns the total bytes put on the wire
/// (length prefix + body). An oversize body is refused with
/// `InvalidInput` and nothing is written, leaving the stream in sync.
/// The prefix travels with the head in one write and the frame follows
/// from where it already lies.
pub fn write_frame<W: Write>(w: &mut W, body: &Body<'_>) -> io::Result<u64> {
    let prefix = frame_prefix(body.len())?;
    let mut lead = Vec::with_capacity(4 + body.head.len());
    lead.extend_from_slice(&prefix);
    lead.extend_from_slice(&body.head);
    w.write_all(&lead)?;
    w.write_all(body.frame)?;
    w.flush()?;
    Ok(4 + body.len() as u64)
}

/// Read one framed body and decode it; returns the message with the
/// total bytes taken off the wire. A length prefix above [`MAX_FRAME`]
/// is rejected *before* any allocation; a stream that ends inside the
/// body is `UnexpectedEof`; a body `decode` refuses surfaces as
/// `InvalidData` carrying the codec error. The body is read into spare
/// capacity (never zero-filled first) and `decode` owns it.
pub fn read_frame<R: Read, T>(
    r: &mut R,
    decode: impl FnOnce(Bytes) -> Result<T, JobError>,
) -> io::Result<(T, u64)> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME {MAX_FRAME}"),
        ));
    }
    let mut body = Vec::with_capacity(len as usize);
    r.take(u64::from(len)).read_to_end(&mut body)?;
    if body.len() != len as usize {
        return Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            format!("frame body ended after {} of {len} bytes", body.len()),
        ));
    }
    let msg = decode(Bytes::from(body))
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    Ok((msg, 4 + u64::from(len)))
}

// ---------------------------------------------------------------------
// Bodies
// ---------------------------------------------------------------------

/// Append a `[len u64][utf-8 bytes]` string.
pub fn put_str(out: &mut impl BufMut, s: &str) {
    out.put_u64_le(s.len() as u64);
    out.put_slice(s.as_bytes());
}

/// Bounds-checked reader over one message body.
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// Read `body` from its first byte.
    pub fn new(body: Bytes) -> Self {
        Reader { buf: body }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// One value of any [`Storable`] type, through its own checked
    /// decode — how a body embeds a value that also crosses executor
    /// boundaries without a second codec for it.
    pub fn storable<T: Storable>(&mut self) -> Result<T, JobError> {
        T::decode(&mut self.buf)
    }

    /// One fixed-width little-endian scalar.
    pub fn scalar<T: LeScalar + Storable>(&mut self) -> Result<T, JobError> {
        self.storable()
    }

    /// A `u64` that must fit this host's `usize`.
    pub fn size(&mut self) -> Result<usize, JobError> {
        let v: u64 = self.scalar()?;
        usize::try_from(v).map_err(|_| JobError::Codec(format!("size {v} overflows usize")))
    }

    /// A strict presence/boolean byte: 0 or 1, anything else is corrupt.
    pub fn flag(&mut self, what: &str) -> Result<bool, JobError> {
        match self.scalar::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(JobError::Codec(format!("{what} must be 0/1, got {other}"))),
        }
    }

    /// A `u64` element count whose elements take `elem_bytes` each. The
    /// bytes left must be able to hold them all, which bounds every
    /// later allocation by the body size.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, JobError> {
        let v: u64 = self.scalar()?;
        usize::try_from(v)
            .ok()
            .filter(|n| {
                n.checked_mul(elem_bytes)
                    .is_some_and(|b| b <= self.remaining())
            })
            .ok_or_else(|| JobError::Codec(format!("implausible count {v}")))
    }

    /// `n` scalars in one bulk copy (underrun-checked before
    /// allocation).
    pub fn run<T: LeScalar>(&mut self, n: usize) -> Result<Vec<T>, JobError> {
        decode_le_slice(&mut self.buf, n)
    }

    /// A `[count u64][scalars]` run.
    pub fn counted_run<T: LeScalar>(&mut self) -> Result<Vec<T>, JobError> {
        let n = self.count(T::WIDTH)?;
        self.run(n)
    }

    /// A `[len u64][utf-8 bytes]` string (length checked against the
    /// bytes left, then UTF-8 validated).
    pub fn string(&mut self) -> Result<String, JobError> {
        self.storable()
    }

    /// The rest of the body as an embedded payload frame, validated
    /// against the frame's own header before it travels further: a
    /// tail shorter than the sealed header, an unknown payload tag, or
    /// a raw body that disagrees with its declared length is a
    /// truncated/corrupt message, not a frame. (A compressed body can
    /// only be fully checked by inflating, which `open()` does,
    /// bounds-checked, at the consumer.)
    pub fn frame(&mut self) -> Result<Bytes, JobError> {
        let frame = self.buf.split_to(self.buf.len());
        Payload::from_frame(frame.clone())?;
        Ok(frame)
    }

    /// The inverse of [`Body::with_opt_frame`].
    pub fn opt_frame(&mut self) -> Result<Option<Bytes>, JobError> {
        Ok(if self.flag("frame presence flag")? {
            Some(self.frame()?)
        } else {
            None
        })
    }

    /// Every message ends where its body ends: a peer that frames
    /// sloppily is corrupt, not "close enough".
    pub fn finish(self) -> Result<(), JobError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(JobError::Codec(format!("{n} trailing bytes in body"))),
        }
    }
}

// ---------------------------------------------------------------------
// Sockets
// ---------------------------------------------------------------------

/// Where a listener binds or a client connects.
#[derive(Debug, Clone)]
pub enum Addr {
    /// TCP `host:port` (use port 0 to bind ephemerally).
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

/// `tcp:<host>:<port>` or `unix:<path>` — the form an executor is handed
/// in `SPARKLET_CONNECT`.
impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
            Addr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl std::str::FromStr for Addr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        if let Some(a) = s.strip_prefix("tcp:") {
            Ok(Addr::Tcp(a.into()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            Ok(Addr::Unix(path.into()))
        } else {
            Err(format!(
                "unsupported address {s:?} (tcp:<ip>:<port> or unix:<path>)"
            ))
        }
    }
}

/// A connected byte stream (TCP or Unix).
pub trait Conn: Read + Write + Send {}
impl Conn for TcpStream {}
impl Conn for UnixStream {}

enum Sock {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// A bound TCP or Unix listener. A Unix listener's socket file is
/// unlinked on drop.
pub struct Listener {
    sock: Sock,
    addr: Addr,
}

impl Listener {
    /// Bind `addr` (replacing a stale Unix socket file).
    pub fn bind(addr: &Addr) -> io::Result<Self> {
        Ok(match addr {
            Addr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                let addr = Addr::Tcp(l.local_addr()?.to_string());
                Listener {
                    sock: Sock::Tcp(l),
                    addr,
                }
            }
            Addr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Listener {
                    sock: Sock::Unix(UnixListener::bind(path)?),
                    addr: addr.clone(),
                }
            }
        })
    }

    /// The actually-bound address (resolves an ephemeral port).
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Make [`Listener::accept`] return `WouldBlock` instead of waiting.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match &self.sock {
            Sock::Tcp(l) => l.set_nonblocking(nb),
            Sock::Unix(l) => l.set_nonblocking(nb),
        }
    }

    /// Accept one connection; the stream is blocking (and `nodelay`
    /// on TCP) whatever the listener's mode.
    pub fn accept(&self) -> io::Result<Box<dyn Conn>> {
        match &self.sock {
            Sock::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                s.set_nonblocking(false)?;
                Ok(Box::new(s))
            }
            Sock::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Box::new(s))
            }
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Addr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Connect to a listening [`Addr`].
pub fn dial(addr: &Addr) -> io::Result<Box<dyn Conn>> {
    Ok(match addr {
        Addr::Tcp(a) => {
            let s = TcpStream::connect(a.as_str())?;
            s.set_nodelay(true)?;
            Box::new(s)
        }
        Addr::Unix(path) => Box::new(UnixStream::connect(path)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversize_bodies_are_refused_before_anything_is_written() {
        assert_eq!(frame_prefix(0).unwrap(), [0; 4]);
        assert_eq!(
            frame_prefix(MAX_FRAME as usize).unwrap(),
            MAX_FRAME.to_le_bytes()
        );
        // One past the cap, a length that would wrap a u32 to a small
        // valid-looking prefix, and the largest length there is.
        for len in [MAX_FRAME as usize + 1, (1 << 32) + 5, usize::MAX] {
            assert_eq!(
                frame_prefix(len).unwrap_err().kind(),
                ErrorKind::InvalidInput
            );
        }
    }
}
