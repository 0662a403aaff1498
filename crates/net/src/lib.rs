//! Fault-hardened network serving for testability inference.
//!
//! This crate puts the serving stack of the workspace behind a TCP
//! front door without giving up any of its crash-safety story:
//!
//! - **Wire protocol** ([`frame`], [`message`]): length-prefixed binary
//!   frames with a negotiated version and an FNV-1a checksum — the same
//!   integrity envelope the journal and page store use, applied to a
//!   third failure domain (the network). A torn or corrupted frame
//!   never decodes; [`frame::read_frame`] refuses it with a typed error
//!   frame, never a dropped socket.
//! - **Shard router** ([`router`]): N independent [`gcnt_serve::ServeCore`]
//!   workers, each with its own admission queue and journal directory.
//!   Designs route by FNV-1a of their text form, so a design's journals
//!   and warm pages never migrate across shards.
//! - **Server** ([`server`]): per-connection read/write deadlines with
//!   slow-loris eviction, typed `overloaded`/`deadline` refusals, and a
//!   SIGTERM-triggered graceful drain ([`signal`]) that finishes or
//!   journals every in-flight job before exiting.
//! - **Client** ([`client`]): retry-with-backoff on transient connect
//!   and write failures; a disconnect mid-flow-job resubmits under the
//!   same job id and resumes the server-side journal to a bit-identical
//!   outcome.
//! - **Transports** ([`transport`]): real TCP and an in-process
//!   loopback (`local_transport`) so every protocol path — including
//!   the whole fault matrix — runs deterministically in unit tests.
//!
//! Frame layout (17-byte header, little-endian):
//!
//! | bytes | field | notes |
//! |---|---|---|
//! | 0..3 | magic `GNT` | `bad-frame` on mismatch |
//! | 3 | version | typed `version-mismatch` reply on mismatch |
//! | 4 | kind | hello, infer/flow request/reply, error, drain |
//! | 5..9 | payload length u32 | capped at 16 MiB before allocation |
//! | 9..17 | FNV-1a 64 of payload | `bad-frame` on mismatch |
//!
//! Network faults (behind the `fault-inject` feature, driven by
//! [`gcnt_runtime::FaultPlan`]): connect-refused(count),
//! disconnect-after-frame(N), slow-loris(bytes/s), and
//! corrupt-frame-checksum — each deterministic and one-shot, so a
//! retry observes a healed network.

#![deny(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod client;
pub mod error;
pub mod frame;
pub mod message;
pub mod router;
pub mod server;
pub mod signal;
pub mod transport;

pub use client::{ClientConfig, Dialer, NetClient};
pub use error::NetError;
pub use frame::{
    decode, read_frame, Frame, FrameKind, ReadOutcome, HEADER_BYTES, MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
};
pub use message::{
    decode_message, encode_message, DrainAck, ErrorCode, ErrorReply, FlowReply, FlowRequest, Hello,
    HelloAck, InferReply, InferRequest,
};
pub use router::{route_key, ShardRouter};
pub use server::{flow_digest, serve, DrainSummary, NetServerConfig};
pub use signal::{install_term_handler, request_term, reset_term, term_requested};
pub use transport::{local_pair, local_transport, Conn, Listener, LocalConn, LocalDialer};
