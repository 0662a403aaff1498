//! The network client: connect with retry-and-backoff, one in-flight
//! request at a time, reconnect-and-resubmit on transient failures.
//!
//! The client is where the network fault matrix is driven from: an
//! owned [`FaultPlan`] can refuse connects, trickle a frame's bytes
//! (slow-loris), or corrupt a frame checksum — each consumed one-shot,
//! so a retry behaves like a healed network. Disconnect-mid-job is
//! handled by construction: flow requests carry a caller-chosen job id,
//! and a resubmit after a dropped connection resumes the server-side
//! journal to a bit-identical outcome.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use gcnt_runtime::FaultPlan;

use crate::error::NetError;
use crate::frame::{read_frame, Frame, FrameKind, ReadOutcome, PROTOCOL_VERSION};
use crate::message::{
    decode_message, encode_message, DrainAck, ErrorReply, FlowReply, FlowRequest, Hello, HelloAck,
    InferReply, InferRequest,
};

/// Where a client connects.
#[derive(Debug, Clone)]
pub enum Dialer {
    /// A TCP address, e.g. `127.0.0.1:7421`.
    Tcp(String),
}

impl Dialer {
    fn dial(&self) -> std::io::Result<TcpStream> {
        match self {
            Dialer::Tcp(addr) => TcpStream::connect(addr.as_str()),
        }
    }
}

/// Client configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Connect attempts before giving up.
    pub connect_attempts: u32,
    /// Initial backoff between attempts; doubles per retry.
    pub backoff: Duration,
    /// Resubmits of one request across reconnects before giving up.
    pub request_retries: u32,
    /// How long one read may sit idle before re-polling; a reply may
    /// take several idle polls (see `max_idle_polls`).
    pub read_timeout: Duration,
    /// Consecutive idle polls tolerated while waiting for a reply.
    pub max_idle_polls: u32,
    /// Write timeout.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_attempts: 5,
            backoff: Duration::from_millis(10),
            request_retries: 4,
            read_timeout: Duration::from_millis(500),
            max_idle_polls: 240, // ~2 min of patience for a long flow job
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// A connected protocol client.
pub struct NetClient {
    dialer: Dialer,
    config: ClientConfig,
    plan: FaultPlan,
    conn: Option<TcpStream>,
    frames_sent: u64,
    shards: u32,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetClient(shards={})", self.shards)
    }
}

fn backoff_for(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(8))
}

impl NetClient {
    /// Connects and completes the `Hello`/`HelloAck` handshake, retrying
    /// transient connect failures with exponential backoff.
    ///
    /// # Errors
    ///
    /// [`NetError::RetriesExhausted`] when every attempt failed,
    /// [`NetError::VersionMismatch`] if the server speaks another
    /// protocol version.
    pub fn connect(dialer: Dialer, config: ClientConfig) -> Result<Self, NetError> {
        Self::connect_with_faults(dialer, config, FaultPlan::none())
    }

    /// As [`NetClient::connect`], with a deterministic fault plan driving
    /// the client side of the network fault matrix.
    ///
    /// # Errors
    ///
    /// As [`NetClient::connect`].
    pub fn connect_with_faults(
        dialer: Dialer,
        config: ClientConfig,
        plan: FaultPlan,
    ) -> Result<Self, NetError> {
        let mut client = NetClient {
            dialer,
            config,
            plan,
            conn: None,
            frames_sent: 0,
            shards: 0,
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// Shards the server reported in its handshake.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    fn note_retry(&self) {
        gcnt_obs::global().incr(gcnt_obs::counters::NET_CLIENT_RETRIES);
    }

    /// Connects (if not connected) and handshakes, with backoff.
    fn ensure_conn(&mut self) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last = "no attempt made".to_string();
        for attempt in 0..self.config.connect_attempts {
            if attempt > 0 {
                self.note_retry();
                std::thread::sleep(backoff_for(self.config.backoff, attempt - 1));
            }
            if self.plan.take_net_connect_refused() {
                last = "connection refused (injected)".to_string();
                continue;
            }
            let conn = match self.dialer.dial() {
                Ok(c) => c,
                Err(e) => {
                    last = e.to_string();
                    continue;
                }
            };
            let _ = conn.set_read_timeout(Some(self.config.read_timeout));
            let _ = conn.set_write_timeout(Some(self.config.write_timeout));
            gcnt_obs::global().incr(gcnt_obs::counters::NET_CONNECTIONS_OPENED);
            self.conn = Some(conn);
            match self.handshake() {
                Ok(()) => return Ok(()),
                Err(e @ NetError::VersionMismatch { .. }) => return Err(e),
                Err(e) => {
                    self.conn = None;
                    last = e.to_string();
                }
            }
        }
        Err(NetError::RetriesExhausted {
            attempts: self.config.connect_attempts,
            last,
        })
    }

    fn handshake(&mut self) -> Result<(), NetError> {
        let hello = encode_message(
            FrameKind::Hello,
            &Hello {
                version: u32::from(PROTOCOL_VERSION),
            },
        );
        self.write_frame(&hello)?;
        let reply = self.read_reply()?;
        match reply.kind {
            FrameKind::HelloAck => {
                let ack: HelloAck = decode_message(&reply)?;
                if ack.version != u32::from(PROTOCOL_VERSION) {
                    return Err(NetError::VersionMismatch {
                        ours: u32::from(PROTOCOL_VERSION),
                        theirs: ack.version,
                    });
                }
                self.shards = ack.shards;
                Ok(())
            }
            FrameKind::Error => Err(error_frame_to_net_error(&reply)?),
            _ => Err(NetError::Protocol(format!(
                "expected HelloAck, got {:?}",
                reply.kind
            ))),
        }
    }

    /// Encodes and writes one frame, applying any armed client-side
    /// faults (checksum corruption, slow-loris trickle).
    fn write_frame(&mut self, frame: &Frame) -> Result<(), NetError> {
        let mut bytes = frame.encode();
        let frame_index = self.frames_sent;
        self.frames_sent += 1;
        if self.plan.take_net_corrupt_checksum(frame_index) {
            // Flip one checksum bit: the envelope is refused (`bad-frame`)
            // while magic/version/length stay plausible.
            if let Some(b) = bytes.get_mut(9) {
                *b ^= 0x01;
            }
        }
        let conn = self.conn.as_mut().ok_or(NetError::Disconnected)?;
        if let Some(bytes_per_s) = self.plan.take_net_slow_loris() {
            // Trickle: one byte per tick, paced to `bytes_per_s`. The
            // server's frame budget evicts us mid-frame by design.
            let tick = Duration::from_millis(1000 / bytes_per_s.clamp(1, 1000));
            for b in &bytes {
                conn.write_all(std::slice::from_ref(b))
                    .map_err(|e| NetError::Io(e.to_string()))?;
                let _ = conn.flush();
                std::thread::sleep(tick);
            }
        } else {
            conn.write_all(&bytes)
                .map_err(|e| NetError::Io(e.to_string()))?;
            conn.flush().map_err(|e| NetError::Io(e.to_string()))?;
        }
        let obs = gcnt_obs::global();
        obs.incr(gcnt_obs::counters::NET_FRAMES_SENT);
        obs.observe(gcnt_obs::histograms::NET_FRAME_BYTES, bytes.len() as u64);
        Ok(())
    }

    /// Reads one reply frame, tolerating idle polls while the server
    /// computes.
    fn read_reply(&mut self) -> Result<Frame, NetError> {
        let conn = self.conn.as_mut().ok_or(NetError::Disconnected)?;
        let mut idles = 0u32;
        loop {
            match read_frame(conn, None, "client")? {
                ReadOutcome::Frame(f) => {
                    gcnt_obs::global().incr(gcnt_obs::counters::NET_FRAMES_RECV);
                    return Ok(f);
                }
                ReadOutcome::IdleTimeout => {
                    idles += 1;
                    if idles > self.config.max_idle_polls {
                        return Err(NetError::Io("reply timed out".to_string()));
                    }
                }
                ReadOutcome::Eof | ReadOutcome::Torn | ReadOutcome::Stalled => {
                    return Err(NetError::Disconnected);
                }
                ReadOutcome::Corrupt { detail, .. } => {
                    gcnt_obs::global().incr(gcnt_obs::counters::NET_FRAME_CHECKSUM_FAILURES);
                    return Err(NetError::Protocol(detail));
                }
            }
        }
    }

    /// One request round-trip with reconnect-and-resubmit on transient
    /// failures. Returns the reply frame of `want` kind.
    fn request(&mut self, frame: &Frame, want: FrameKind) -> Result<Frame, NetError> {
        let mut last = "no attempt made".to_string();
        for attempt in 0..=self.config.request_retries {
            if attempt > 0 {
                self.note_retry();
                std::thread::sleep(backoff_for(self.config.backoff, attempt - 1));
            }
            if let Err(e) = self.ensure_conn() {
                last = e.to_string();
                continue;
            }
            let sent = self.write_frame(frame);
            if let Err(e) = sent {
                self.conn = None;
                last = e.to_string();
                continue;
            }
            match self.read_reply() {
                Ok(reply) if reply.kind == want => return Ok(reply),
                Ok(reply) if reply.kind == FrameKind::Error => {
                    let err = error_frame_to_net_error(&reply)?;
                    if err.is_transient() {
                        last = err.to_string();
                        continue;
                    }
                    return Err(err);
                }
                Ok(reply) => {
                    return Err(NetError::Protocol(format!(
                        "expected {want:?}, got {:?}",
                        reply.kind
                    )))
                }
                Err(e @ (NetError::Disconnected | NetError::Io(_))) => {
                    // The connection died with the request possibly
                    // journaled server-side; reconnect and resubmit —
                    // same job id resumes instead of redoing.
                    self.conn = None;
                    last = e.to_string();
                }
                Err(e) => return Err(e),
            }
        }
        Err(NetError::RetriesExhausted {
            attempts: self.config.request_retries + 1,
            last,
        })
    }

    /// Runs one inference request.
    ///
    /// # Errors
    ///
    /// A non-retryable [`NetError::Server`] refusal, or
    /// [`NetError::RetriesExhausted`] after transient failures.
    pub fn infer(&mut self, design: &str, deadline_rows: u64) -> Result<InferReply, NetError> {
        let req = InferRequest {
            design: design.to_string(),
            deadline_rows,
        };
        let frame = encode_message(FrameKind::InferRequest, &req);
        let reply = self.request(&frame, FrameKind::InferReply)?;
        decode_message(&reply)
    }

    /// Runs (or resumes) a journaled flow job.
    ///
    /// # Errors
    ///
    /// As [`NetClient::infer`].
    pub fn flow(&mut self, req: &FlowRequest) -> Result<FlowReply, NetError> {
        let frame = encode_message(FrameKind::FlowRequest, req);
        let reply = self.request(&frame, FrameKind::FlowReply)?;
        decode_message(&reply)
    }

    /// Asks the server to begin a graceful drain.
    ///
    /// # Errors
    ///
    /// As [`NetClient::infer`].
    pub fn drain(&mut self) -> Result<DrainAck, NetError> {
        let frame = encode_message(FrameKind::Drain, &DrainAck { pending: 0 });
        let reply = self.request(&frame, FrameKind::DrainAck)?;
        decode_message(&reply)
    }
}

/// Decodes an error frame into [`NetError::Server`].
///
/// # Errors
///
/// [`NetError::Protocol`] if the error frame itself is malformed.
fn error_frame_to_net_error(frame: &Frame) -> Result<NetError, NetError> {
    let e: ErrorReply = decode_message(frame)?;
    Ok(NetError::Server {
        code: e.code,
        message: e.message,
        retryable: e.retryable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_saturates() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff_for(base, 0), Duration::from_millis(10));
        assert_eq!(backoff_for(base, 1), Duration::from_millis(20));
        assert_eq!(backoff_for(base, 3), Duration::from_millis(80));
        assert!(backoff_for(base, 100) <= Duration::from_millis(10 * 256));
    }

    #[test]
    fn connect_to_nothing_exhausts_retries() {
        let cfg = ClientConfig {
            connect_attempts: 2,
            backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let err = NetClient::connect(Dialer::Tcp("127.0.0.1:1".to_string()), cfg).unwrap_err();
        match err {
            NetError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }
}
