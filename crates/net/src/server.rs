//! The network server: accept loop, per-connection frame loop, typed
//! refusals, and graceful drain.
//!
//! Every failure a socket can produce maps to a typed behaviour, never a
//! hung or silently dropped request:
//!
//! * corrupt or version-mismatched frames → one `Error` frame
//!   (`BadFrame`/`VersionMismatch`) then close — a checksummed byte
//!   stream cannot be resynchronised after damage;
//! * a frame that trickles in slower than the frame budget → slow-loris
//!   eviction (counted, connection closed);
//! * a full shard queue → an `Overloaded` error frame marked retryable;
//! * a design the shard refuses to load → a `BadRequest` error frame;
//! * a blown deadline → a `Deadline` error frame;
//! * SIGTERM (or a `Drain` frame) → stop accepting, finish in-flight
//!   work, drain every shard queue, hand the cores back.
//!
//! Disconnect-mid-job needs no special server path: flow jobs journal
//! every committed batch, so a client that reconnects and resubmits the
//! same job id resumes to a bit-identical outcome.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcnt_dft::flow::FlowConfig;
use gcnt_netlist::format;
use gcnt_runtime::{checksum_hex, FaultPlan};
use gcnt_serve::{ServeCore, ServeError};

use crate::error::NetError;
use crate::frame::{read_frame, Frame, FrameKind, ReadOutcome, PROTOCOL_VERSION};
use crate::message::{
    decode_message, encode_message, DrainAck, ErrorCode, ErrorReply, FlowReply, FlowRequest, Hello,
    HelloAck, InferReply, InferRequest,
};
use crate::router::{route_key, ShardRouter};
use crate::signal;
use crate::transport::Listener;

/// Network server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetServerConfig {
    /// Per-connection read timeout: how long an idle connection may sit
    /// between frames before the loop re-checks the drain flag.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Wall-clock budget for one whole frame once its first byte
    /// arrived; a peer trickling bytes slower than this is evicted.
    pub frame_budget: Duration,
    /// Sleep between accept polls.
    pub accept_poll: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(2),
            frame_budget: Duration::from_secs(1),
            accept_poll: Duration::from_millis(2),
        }
    }
}

/// What the server saw over its lifetime, reported when it drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Frames received and verified.
    pub frames_received: u64,
    /// Requests answered with a result frame.
    pub jobs_completed: u64,
    /// Requests answered with a typed error frame.
    pub refusals: u64,
    /// Connections evicted for trickling (slow-loris).
    pub slow_loris_evictions: u64,
    /// Requests still queued across shards when draining began (they
    /// are finished by the shard workers before shutdown returns).
    pub pending_at_drain: u64,
}

#[derive(Default)]
struct Stats {
    connections: AtomicU64,
    frames: AtomicU64,
    jobs: AtomicU64,
    refusals: AtomicU64,
    evictions: AtomicU64,
    open: AtomicU64,
}

struct Ctx {
    router: ShardRouter,
    config: NetServerConfig,
    drain: AtomicBool,
    stats: Stats,
    /// Server-side fault: sever the connection (no reply) right after
    /// the Nth verified frame, once per process. `None` = never.
    disconnect_after: Option<u64>,
    disconnect_armed: AtomicBool,
}

impl Ctx {
    fn draining(&self) -> bool {
        self.drain.load(Ordering::Relaxed) || signal::term_requested()
    }
}

/// Maps a shard's [`ServeError`] to the typed error frame the client
/// sees.
fn map_serve_error(e: &ServeError) -> ErrorReply {
    let (code, retryable) = match e {
        ServeError::Overloaded { .. } => (ErrorCode::Overloaded, true),
        ServeError::Flow(fe) if fe.is_budget_stop() => (ErrorCode::Deadline, false),
        ServeError::Load(_) => (ErrorCode::BadRequest, false),
        _ => (ErrorCode::Internal, false),
    };
    ErrorReply {
        code,
        message: e.to_string(),
        retryable,
    }
}

/// The digest of a flow answer: outcome JSON + post-flow design text,
/// so bit-identical resume is a string comparison on both sides of the
/// wire.
pub fn flow_digest(outcome_json: &str, net_text: &str) -> String {
    checksum_hex(format!("{outcome_json}{net_text}").as_bytes())
}

fn send_frame(conn: &mut TcpStream, frame: &Frame) -> Result<(), NetError> {
    let bytes = frame.encode();
    conn.write_all(&bytes)
        .map_err(|e| NetError::Io(e.to_string()))?;
    conn.flush().map_err(|e| NetError::Io(e.to_string()))?;
    let obs = gcnt_obs::global();
    obs.incr(gcnt_obs::counters::NET_FRAMES_SENT);
    obs.observe(gcnt_obs::histograms::NET_FRAME_BYTES, bytes.len() as u64);
    Ok(())
}

fn send_error(conn: &mut TcpStream, ctx: &Ctx, reply: &ErrorReply) -> Result<(), NetError> {
    ctx.stats.refusals.fetch_add(1, Ordering::Relaxed);
    gcnt_obs::global().incr(gcnt_obs::counters::NET_ERROR_FRAMES_SENT);
    send_frame(conn, &encode_message(FrameKind::Error, reply))
}

fn infer_reply(ctx: &Ctx, req: &InferRequest) -> Result<InferReply, ErrorReply> {
    let net = format::read(&req.design).map_err(|e| ErrorReply {
        code: ErrorCode::BadRequest,
        message: format!("unparseable design: {e}"),
        retryable: false,
    })?;
    let deadline = (req.deadline_rows > 0).then_some(req.deadline_rows);
    let (shard, resp) = ctx
        .router
        .infer(route_key(&req.design), net, deadline)
        .map_err(|e| map_serve_error(&e))?;
    let mut prob_bytes = Vec::with_capacity(resp.probs.len() * 4);
    for p in &resp.probs {
        prob_bytes.extend_from_slice(&p.to_le_bytes());
    }
    Ok(InferReply {
        positives: resp.positives as u64,
        rung: resp.rung.as_str().to_string(),
        dropped: resp.dropped.len() as u64,
        spent: resp.spent,
        warm_rows: resp.warm_rows,
        // CAST: shard index < shard_count, far below u32::MAX.
        shard: shard as u32,
        probs_len: resp.probs.len() as u64,
        probs_checksum: checksum_hex(&prob_bytes),
    })
}

fn flow_reply(ctx: &Ctx, req: &FlowRequest) -> Result<FlowReply, ErrorReply> {
    let net = format::read(&req.design).map_err(|e| ErrorReply {
        code: ErrorCode::BadRequest,
        message: format!("unparseable design: {e}"),
        retryable: false,
    })?;
    let cfg = FlowConfig {
        max_iterations: usize::try_from(req.max_iterations).unwrap_or(usize::MAX),
        ops_per_iteration: usize::try_from(req.ops_per_iteration).unwrap_or(usize::MAX),
        // CAST: milli-units fit f32 exactly for every sane threshold.
        prob_threshold: req.prob_threshold_milli as f32 / 1000.0,
        ..FlowConfig::default()
    };
    let deadline = (req.deadline_rows > 0).then_some(req.deadline_rows);
    let (shard, done) = ctx
        .router
        .flow(route_key(&req.design), net, cfg, &req.job_id, deadline)
        .map_err(|e| map_serve_error(&e))?;
    let outcome_json = serde_json::to_string(&done.response.outcome).unwrap_or_default();
    let net_text = format::write(&done.net);
    Ok(FlowReply {
        inserted: done.response.outcome.inserted.len() as u64,
        iterations: done.response.outcome.history.len() as u64,
        resumed_batches: done.response.resumed_batches as u64,
        journal_records: done.response.journal_records,
        recovered_torn_tail: done.response.recovered_torn_tail,
        // CAST: shard index < shard_count, far below u32::MAX.
        shard: shard as u32,
        outcome_checksum: flow_digest(&outcome_json, &net_text),
    })
}

/// Handles one connection until EOF, eviction, corruption, or drain.
fn handle_conn(mut conn: TcpStream, ctx: &Ctx) {
    let obs = gcnt_obs::global();
    ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
    let open = ctx.stats.open.fetch_add(1, Ordering::Relaxed) + 1;
    obs.incr(gcnt_obs::counters::NET_CONNECTIONS_OPENED);
    obs.gauge_set(gcnt_obs::gauges::NET_CONNECTIONS_OPEN, open as f64);
    obs.gauge_max(gcnt_obs::gauges::NET_CONNECTIONS_PEAK, open as f64);
    let peer = conn
        .peer_addr()
        .map_or_else(|_| "tcp:?".to_string(), |a| a.to_string());
    let _ = conn.set_read_timeout(Some(ctx.config.read_timeout));
    let _ = conn.set_write_timeout(Some(ctx.config.write_timeout));

    loop {
        match read_frame(&mut conn, Some(ctx.config.frame_budget), &peer) {
            Err(_) | Ok(ReadOutcome::Eof) | Ok(ReadOutcome::Torn) => break,
            Ok(ReadOutcome::IdleTimeout) => {
                if ctx.draining() {
                    break;
                }
            }
            Ok(ReadOutcome::Stalled) => {
                ctx.stats.evictions.fetch_add(1, Ordering::Relaxed);
                obs.incr(gcnt_obs::counters::NET_SLOW_LORIS_EVICTIONS);
                break;
            }
            Ok(ReadOutcome::Corrupt {
                version_mismatch,
                declared_version,
                detail,
            }) => {
                obs.incr(gcnt_obs::counters::NET_FRAME_CHECKSUM_FAILURES);
                let reply = if version_mismatch {
                    ErrorReply {
                        code: ErrorCode::VersionMismatch,
                        message: format!(
                            "peer declared v{declared_version}, this server speaks v{PROTOCOL_VERSION}"
                        ),
                        retryable: false,
                    }
                } else {
                    ErrorReply {
                        code: ErrorCode::BadFrame,
                        message: detail,
                        retryable: false,
                    }
                };
                let _ = send_error(&mut conn, ctx, &reply);
                break; // a damaged stream cannot be resynchronised
            }
            Ok(ReadOutcome::Frame(frame)) => {
                let frame_no = ctx.stats.frames.fetch_add(1, Ordering::Relaxed) + 1;
                obs.incr(gcnt_obs::counters::NET_FRAMES_RECV);
                let started = Instant::now();
                let sever = ctx.disconnect_after.is_some_and(|n| frame_no >= n)
                    && ctx
                        .disconnect_armed
                        .compare_exchange(true, false, Ordering::Relaxed, Ordering::Relaxed)
                        .is_ok();
                let ok = dispatch(&mut conn, ctx, &frame, sever);
                let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                obs.observe(gcnt_obs::histograms::NET_REQUEST_NS, elapsed);
                if !ok || sever {
                    break;
                }
            }
        }
    }
    let open = ctx
        .stats
        .open
        .fetch_sub(1, Ordering::Relaxed)
        .saturating_sub(1);
    obs.gauge_set(gcnt_obs::gauges::NET_CONNECTIONS_OPEN, open as f64);
}

/// Processes one verified frame; returns false when the connection
/// should close. With `sever` set, the request is fully processed (and
/// journaled) but the reply is never written — the deterministic
/// "connection died before the answer" fault.
fn dispatch(conn: &mut TcpStream, ctx: &Ctx, frame: &Frame, sever: bool) -> bool {
    let reply = match frame.kind {
        FrameKind::Hello => match decode_message::<Hello>(frame) {
            Ok(h) if h.version == u32::from(PROTOCOL_VERSION) => encode_message(
                FrameKind::HelloAck,
                &HelloAck {
                    version: u32::from(PROTOCOL_VERSION),
                    // CAST: shard counts are tiny.
                    shards: ctx.router.shard_count() as u32,
                },
            ),
            Ok(h) => {
                let _ = send_error(
                    conn,
                    ctx,
                    &ErrorReply {
                        code: ErrorCode::VersionMismatch,
                        message: format!(
                            "client speaks v{}, this server speaks v{PROTOCOL_VERSION}",
                            h.version
                        ),
                        retryable: false,
                    },
                );
                return false;
            }
            Err(e) => {
                let _ = bad_request(conn, ctx, &e);
                return false;
            }
        },
        FrameKind::Drain => {
            ctx.drain.store(true, Ordering::Relaxed);
            encode_message(
                FrameKind::DrainAck,
                &DrainAck {
                    pending: ctx.router.pending_total() as u64,
                },
            )
        }
        FrameKind::InferRequest => {
            if ctx.draining() {
                return send_error(conn, ctx, &draining_reply()).is_ok();
            }
            match decode_message::<InferRequest>(frame) {
                Ok(req) => match infer_reply(ctx, &req) {
                    Ok(reply) => {
                        ctx.stats.jobs.fetch_add(1, Ordering::Relaxed);
                        encode_message(FrameKind::InferReply, &reply)
                    }
                    Err(err) => return !sever && send_error(conn, ctx, &err).is_ok(),
                },
                Err(e) => return bad_request(conn, ctx, &e).is_ok(),
            }
        }
        FrameKind::FlowRequest => {
            if ctx.draining() {
                return send_error(conn, ctx, &draining_reply()).is_ok();
            }
            match decode_message::<FlowRequest>(frame) {
                Ok(req) => match flow_reply(ctx, &req) {
                    Ok(reply) => {
                        ctx.stats.jobs.fetch_add(1, Ordering::Relaxed);
                        encode_message(FrameKind::FlowReply, &reply)
                    }
                    Err(err) => return !sever && send_error(conn, ctx, &err).is_ok(),
                },
                Err(e) => return bad_request(conn, ctx, &e).is_ok(),
            }
        }
        // A server never expects reply kinds or HelloAck from a client.
        FrameKind::HelloAck
        | FrameKind::InferReply
        | FrameKind::FlowReply
        | FrameKind::Error
        | FrameKind::DrainAck => {
            let _ = send_error(
                conn,
                ctx,
                &ErrorReply {
                    code: ErrorCode::BadRequest,
                    message: format!("unexpected frame kind {:?} from a client", frame.kind),
                    retryable: false,
                },
            );
            return false;
        }
    };
    if sever {
        // The work is done and journaled; the reply dies with the
        // connection. A reconnect + resubmit resumes bit-identically.
        return false;
    }
    send_frame(conn, &reply).is_ok()
}

fn draining_reply() -> ErrorReply {
    ErrorReply {
        code: ErrorCode::Draining,
        message: "server is draining; no new work admitted".to_string(),
        retryable: false,
    }
}

fn bad_request(conn: &mut TcpStream, ctx: &Ctx, e: &NetError) -> Result<(), NetError> {
    send_error(
        conn,
        ctx,
        &ErrorReply {
            code: ErrorCode::BadRequest,
            message: e.to_string(),
            retryable: false,
        },
    )
}

/// Runs the server until a drain is requested (SIGTERM via
/// [`signal::term_requested`] or a `Drain` frame). Returns the lifetime
/// summary and the drained cores.
///
/// # Errors
///
/// [`NetError::Io`] on a real accept failure, [`NetError::Serve`] if a
/// shard worker died (queued jobs were still drained first where
/// possible).
pub fn serve(
    listener: Listener,
    router: ShardRouter,
    config: NetServerConfig,
    plan: &FaultPlan,
) -> Result<(DrainSummary, Vec<ServeCore>), NetError> {
    let disconnect_after = plan.net_disconnect_after_frames();
    let ctx = Arc::new(Ctx {
        router,
        config,
        drain: AtomicBool::new(false),
        stats: Stats::default(),
        disconnect_after,
        disconnect_armed: AtomicBool::new(disconnect_after.is_some()),
    });
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if ctx.draining() {
            break;
        }
        match listener.accept() {
            Ok(Some(conn)) => {
                let ctx = Arc::clone(&ctx);
                match std::thread::Builder::new()
                    .name("gcnt-net-conn".to_string())
                    .spawn(move || handle_conn(conn, &ctx))
                {
                    Ok(h) => workers.push(h),
                    Err(_) => { /* thread limit: the conn drops, client retries */ }
                }
            }
            Ok(None) => std::thread::sleep(config.accept_poll),
            Err(e) => return Err(NetError::Io(e.to_string())),
        }
        workers.retain(|w| !w.is_finished());
    }
    let pending_at_drain = ctx.router.pending_total() as u64;
    // Connection threads notice the drain flag within one read timeout.
    for w in workers {
        let _ = w.join();
    }
    let summary = DrainSummary {
        connections: ctx.stats.connections.load(Ordering::Relaxed),
        frames_received: ctx.stats.frames.load(Ordering::Relaxed),
        jobs_completed: ctx.stats.jobs.load(Ordering::Relaxed),
        refusals: ctx.stats.refusals.load(Ordering::Relaxed),
        slow_loris_evictions: ctx.stats.evictions.load(Ordering::Relaxed),
        pending_at_drain,
    };
    let Ok(ctx) = Arc::try_unwrap(ctx) else {
        return Err(NetError::Serve(
            "connection threads still hold the server context".to_string(),
        ));
    };
    let cores = ctx
        .router
        .shutdown()
        .map_err(|e| NetError::Serve(e.to_string()))?;
    Ok((summary, cores))
}
