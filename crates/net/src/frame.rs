//! The wire frame: a length-prefixed, checksummed envelope around one
//! protocol message.
//!
//! Layout (17-byte header, then the payload):
//!
//! ```text
//! offset  size  field
//! 0       3     magic  b"GNT"
//! 3       1     protocol version (currently 1)
//! 4       1     frame kind (see [`FrameKind`])
//! 5       4     payload length, u32 little-endian
//! 9       8     FNV-1a 64 checksum of the payload, u64 little-endian
//! 17      n     payload (JSON message body)
//! ```
//!
//! The checksum reuses the same FNV-1a envelope the flow journal and the
//! page store stamp on their records — one hashing idiom, three failure
//! domains (disk tear, page rot, wire corruption). [`read_frame`] checks
//! magic, length cap, version and kind *before* any payload byte is
//! trusted — the length cap before allocation — and the checksum before
//! the frame is handed on.
//!
//! Decoding is total: a truncated, bit-flipped, or over-long byte
//! stream maps to a typed [`ReadOutcome`], never a panic, and a decoded
//! frame re-encodes to the identical bytes.

use std::io::{self, Read};
use std::time::{Duration, Instant};

use gcnt_runtime::fnv1a64;

use crate::error::NetError;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Wire magic: the first three bytes of every frame.
pub const MAGIC: [u8; 3] = *b"GNT";

/// Header size in bytes (magic + version + kind + length + checksum).
pub const HEADER_BYTES: usize = 17;

/// Hard cap on one frame's payload; a declared length above this is
/// refused as a broken envelope before any allocation.
pub const MAX_PAYLOAD_BYTES: u64 = 16 * 1024 * 1024;

/// What one frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client's opening handshake.
    Hello,
    /// Server's handshake acknowledgement.
    HelloAck,
    /// An inference request.
    InferRequest,
    /// A journaled flow-job request.
    FlowRequest,
    /// Answer to an inference request.
    InferReply,
    /// Answer to a flow-job request.
    FlowReply,
    /// A typed refusal (see [`crate::message::ErrorReply`]).
    Error,
    /// Admin request: begin a graceful drain.
    Drain,
    /// Drain acknowledged; the server stops admitting new work.
    DrainAck,
}

impl FrameKind {
    /// The kind's wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::HelloAck => 1,
            FrameKind::InferRequest => 2,
            FrameKind::FlowRequest => 3,
            FrameKind::InferReply => 4,
            FrameKind::FlowReply => 5,
            FrameKind::Error => 6,
            FrameKind::Drain => 7,
            FrameKind::DrainAck => 8,
        }
    }

    /// Parses a wire byte; `None` for unknown kinds (a protocol error).
    pub fn from_u8(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::HelloAck),
            2 => Some(FrameKind::InferRequest),
            3 => Some(FrameKind::FlowRequest),
            4 => Some(FrameKind::InferReply),
            5 => Some(FrameKind::FlowReply),
            6 => Some(FrameKind::Error),
            7 => Some(FrameKind::Drain),
            8 => Some(FrameKind::DrainAck),
            _ => None,
        }
    }
}

/// One decoded frame: kind plus opaque payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The message body (JSON for every kind this protocol defines).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame around `payload`.
    pub fn new(kind: FrameKind, payload: Vec<u8>) -> Self {
        Frame { kind, payload }
    }

    /// Encodes the frame at [`PROTOCOL_VERSION`].
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_version(PROTOCOL_VERSION)
    }

    /// Encodes the frame declaring `version` — only tests and version
    /// negotiation probes want anything but [`PROTOCOL_VERSION`].
    pub fn encode_with_version(&self, version: u8) -> Vec<u8> {
        debug_assert!(
            (self.payload.len() as u64) <= MAX_PAYLOAD_BYTES,
            "payload over the wire cap never leaves the process"
        );
        let mut out = Vec::with_capacity(HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(version);
        out.push(self.kind.as_u8());
        let len = u32::try_from(self.payload.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// The result of trying to read one frame off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A verified frame.
    Frame(Frame),
    /// Clean close: the peer shut the stream between frames.
    Eof,
    /// No byte of a new frame arrived within the read timeout; the
    /// connection is merely idle.
    IdleTimeout,
    /// A frame started but did not finish within the frame budget —
    /// the slow-loris shape. The caller evicts the connection.
    Stalled,
    /// The peer closed the stream mid-frame; the torn tail is discarded
    /// undecoded.
    Torn,
    /// The envelope failed verification (magic, length cap, version,
    /// checksum) or declared an unknown frame kind. The stream cannot be
    /// resynchronised.
    Corrupt {
        /// True when the envelope is intact but declares an unsupported
        /// protocol version — mapped to a `VersionMismatch` error frame
        /// instead of `BadFrame`.
        version_mismatch: bool,
        /// The version the peer declared.
        declared_version: u8,
        /// Human-readable refusal detail.
        detail: String,
    },
}

/// Everything parsed out of a fixed-size header.
struct Header {
    magic_ok: bool,
    version: u8,
    kind_byte: u8,
    declared_len: u64,
    stored_checksum: u64,
}

fn parse_header(bytes: &[u8; HEADER_BYTES]) -> Header {
    let magic_ok = bytes.get(..3).is_some_and(|m| m == MAGIC);
    let version = bytes.get(3).copied().unwrap_or(0);
    let kind_byte = bytes.get(4).copied().unwrap_or(u8::MAX);
    let declared_len = bytes
        .get(5..9)
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .map_or(u64::MAX, |a| u64::from(u32::from_le_bytes(a)));
    let stored_checksum = bytes
        .get(9..17)
        .and_then(|s| <[u8; 8]>::try_from(s).ok())
        .map_or(0, u64::from_le_bytes);
    Header {
        magic_ok,
        version,
        kind_byte,
        declared_len,
        stored_checksum,
    }
}

/// Checks a header before its payload is read: magic and length cap
/// first (a broken envelope, and a hostile length must not drive an
/// allocation), then the protocol version, then the kind byte.
fn check_header(header: &Header, context: &str) -> Result<FrameKind, ReadOutcome> {
    let (version_mismatch, detail) = if !header.magic_ok {
        (
            false,
            "frame does not start with the protocol magic".to_string(),
        )
    } else if header.declared_len > MAX_PAYLOAD_BYTES {
        let len = header.declared_len;
        (
            false,
            format!("frame declares a {len}-byte payload, over the {MAX_PAYLOAD_BYTES}-byte cap"),
        )
    } else if header.version != PROTOCOL_VERSION {
        let v = header.version;
        (
            true,
            format!("frame declares protocol version {v}, this build speaks {PROTOCOL_VERSION}"),
        )
    } else if let Some(kind) = FrameKind::from_u8(header.kind_byte) {
        return Ok(kind);
    } else {
        (
            false,
            format!("unknown frame kind byte {}", header.kind_byte),
        )
    };
    Err(ReadOutcome::Corrupt {
        version_mismatch,
        declared_version: header.version,
        detail: format!("{context}: {detail}"),
    })
}

/// How one `fill` call ended.
enum FillEnd {
    Done,
    Eof,
    TimedOut,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Reads until `buf` is full, EOF, a per-read timeout, or `deadline`.
/// Returns how it ended plus the bytes actually read.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    deadline: Option<Instant>,
) -> Result<(usize, FillEnd), NetError> {
    let mut got = 0;
    while got < buf.len() {
        if deadline.is_some_and(|d| Instant::now() > d) {
            return Ok((got, FillEnd::TimedOut));
        }
        let Some(dst) = buf.get_mut(got..) else {
            break;
        };
        match r.read(dst) {
            Ok(0) => return Ok((got, FillEnd::Eof)),
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) => return Ok((got, FillEnd::TimedOut)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e.to_string())),
        }
    }
    Ok((got, FillEnd::Done))
}

/// Reads and verifies one frame. `frame_budget` bounds the wall-clock
/// time the *whole frame* may take once its first byte arrived — the
/// defence against slow-loris peers that trickle bytes fast enough to
/// defeat per-read timeouts. `context` labels a refusal's detail (e.g.
/// the peer address).
///
/// # Errors
///
/// [`NetError::Io`] only for real transport failures; timeouts, EOF,
/// and corruption are [`ReadOutcome`] values, not errors.
pub fn read_frame(
    r: &mut impl Read,
    frame_budget: Option<Duration>,
    context: &str,
) -> Result<ReadOutcome, NetError> {
    // The first byte blocks only up to the connection's own read
    // timeout; the frame budget starts the moment it arrives, so header
    // trickling is caught exactly like payload trickling.
    let mut first = [0u8; 1];
    let (got, end) = fill(r, &mut first, None)?;
    match end {
        FillEnd::Done => {}
        FillEnd::Eof => return Ok(ReadOutcome::Eof),
        FillEnd::TimedOut if got == 0 => return Ok(ReadOutcome::IdleTimeout),
        FillEnd::TimedOut => return Ok(ReadOutcome::Stalled),
    }
    let deadline = frame_budget.map(|b| Instant::now() + b);
    let mut header_bytes = [0u8; HEADER_BYTES];
    if let (Some(dst), Some(src)) = (header_bytes.first_mut(), first.first()) {
        *dst = *src;
    }
    let Some(rest) = header_bytes.get_mut(1..) else {
        return Ok(ReadOutcome::Torn);
    };
    let (_, end) = fill(r, rest, deadline)?;
    match end {
        FillEnd::Done => {}
        FillEnd::Eof => return Ok(ReadOutcome::Torn),
        FillEnd::TimedOut => return Ok(ReadOutcome::Stalled),
    }
    let header = parse_header(&header_bytes);

    let kind = match check_header(&header, context) {
        Ok(kind) => kind,
        Err(refused) => return Ok(refused),
    };

    // CAST: declared_len was range-checked against MAX_PAYLOAD_BYTES
    // (16 MiB) above, so it fits usize on every supported target.
    let mut payload = vec![0u8; header.declared_len as usize];
    let (_, end) = fill(r, &mut payload, deadline)?;
    match end {
        FillEnd::Done => {}
        FillEnd::Eof => return Ok(ReadOutcome::Torn),
        FillEnd::TimedOut => return Ok(ReadOutcome::Stalled),
    }
    let computed = fnv1a64(&payload);
    if computed != header.stored_checksum {
        return Ok(ReadOutcome::Corrupt {
            version_mismatch: false,
            declared_version: header.version,
            detail: format!(
                "{context}: frame stores checksum {:016x} but its payload hashes to {computed:016x}",
                header.stored_checksum
            ),
        });
    }
    Ok(ReadOutcome::Frame(Frame { kind, payload }))
}

/// Decodes one frame from a byte buffer (the stream-free entry point
/// property tests and tools use). Identical verification to
/// [`read_frame`]; trailing bytes after the frame are ignored.
///
/// # Errors
///
/// Never returns `Err` in practice — a `&[u8]` reader cannot fail — but
/// keeps the same signature shape as [`read_frame`].
pub fn decode(bytes: &[u8]) -> Result<ReadOutcome, NetError> {
    let mut r = bytes;
    read_frame(&mut r, None, "decode")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame::new(FrameKind::InferRequest, b"{\"x\":1}".to_vec())
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let f = frame();
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_BYTES + f.payload.len());
        let Ok(ReadOutcome::Frame(decoded)) = decode(&bytes) else {
            panic!("clean frame must decode");
        };
        assert_eq!(decoded, f);
        assert_eq!(decoded.encode(), bytes, "decode ∘ encode is identity");
    }

    #[test]
    fn every_kind_survives_the_wire() {
        for b in 0..=8u8 {
            let kind = FrameKind::from_u8(b).expect("0..=8 are defined");
            assert_eq!(kind.as_u8(), b);
            let f = Frame::new(kind, vec![b; 3]);
            let Ok(ReadOutcome::Frame(d)) = decode(&f.encode()) else {
                panic!("kind {b} must decode");
            };
            assert_eq!(d.kind, kind);
        }
        assert_eq!(FrameKind::from_u8(9), None);
    }

    #[test]
    fn bad_magic_is_refused() {
        let mut bytes = frame().encode();
        bytes[0] ^= 0xff;
        match decode(&bytes) {
            Ok(ReadOutcome::Corrupt {
                version_mismatch, ..
            }) => assert!(!version_mismatch),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn flipped_payload_bit_is_refused() {
        let mut bytes = frame().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode(&bytes),
            Ok(ReadOutcome::Corrupt {
                version_mismatch: false,
                ..
            })
        ));
    }

    #[test]
    fn flipped_checksum_byte_is_refused() {
        let mut bytes = frame().encode();
        bytes[9] ^= 0x01;
        assert!(matches!(
            decode(&bytes),
            Ok(ReadOutcome::Corrupt {
                version_mismatch: false,
                ..
            })
        ));
    }

    #[test]
    fn unsupported_version_is_a_distinct_refusal() {
        let bytes = frame().encode_with_version(9);
        match decode(&bytes) {
            Ok(ReadOutcome::Corrupt {
                version_mismatch,
                declared_version,
                ..
            }) => {
                assert!(version_mismatch);
                assert_eq!(declared_version, 9);
            }
            other => panic!("expected version refusal, got {other:?}"),
        }
    }

    #[test]
    fn a_wrong_version_on_a_broken_envelope_is_a_bad_frame() {
        let mut bytes = frame().encode_with_version(9);
        bytes[0] ^= 0xff;
        assert!(matches!(
            decode(&bytes),
            Ok(ReadOutcome::Corrupt {
                version_mismatch: false,
                declared_version: 9,
                ..
            })
        ));
    }

    #[test]
    fn oversize_declared_length_is_refused_without_allocation() {
        let mut bytes = frame().encode();
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Ok(ReadOutcome::Corrupt {
                version_mismatch: false,
                ..
            })
        ));
    }

    #[test]
    fn truncations_never_decode() {
        let bytes = frame().encode();
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Ok(ReadOutcome::Eof) => assert_eq!(cut, 0),
                Ok(ReadOutcome::Torn) => assert!(cut > 0),
                other => panic!("cut {cut}: expected Eof/Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kind_byte_is_refused() {
        let mut bytes = frame().encode();
        bytes[4] = 42;
        assert!(matches!(
            decode(&bytes),
            Ok(ReadOutcome::Corrupt {
                version_mismatch: false,
                ..
            })
        ));
    }
}
