//! Protocol message bodies: the JSON payloads carried inside
//! [`crate::frame::Frame`]s, plus their (de)serialisation helpers.
//!
//! Probabilities and outcomes never cross the wire raw: replies carry
//! counts plus an FNV-1a checksum of the full server-side answer, so a
//! client can assert bit-identity (e.g. a resumed flow job against its
//! uninterrupted reference) without shipping megabytes of floats.
//! Deadlines travel as embedding-row units with `0` meaning "none", and
//! the flow threshold as milli-units — the wire stays float-free, so
//! equality is exact.

use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::frame::{Frame, FrameKind};

/// Client's opening handshake.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// The protocol version the client speaks.
    pub version: u32,
}

/// Server's handshake acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloAck {
    /// The protocol version the server speaks.
    pub version: u32,
    /// Shards behind this endpoint.
    pub shards: u32,
}

/// An inference request: the design travels in the netlist text format.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferRequest {
    /// The design, as written by `gcnt_netlist::format::write`.
    pub design: String,
    /// Deadline in embedding-row units; `0` = no deadline.
    pub deadline_rows: u64,
}

/// Answer to an [`InferRequest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferReply {
    /// Nodes at or above the serving threshold.
    pub positives: u64,
    /// The degradation-ladder rung that answered (`Rung::as_str`).
    pub rung: String,
    /// Rungs abandoned under pressure on the way down.
    pub dropped: u64,
    /// Embedding-row units of work spent.
    pub spent: u64,
    /// Rows restored warm from the page store.
    pub warm_rows: u64,
    /// The shard that served the request.
    pub shard: u32,
    /// Length of the (unshipped) probability vector.
    pub probs_len: u64,
    /// FNV-1a checksum over the probability vector's exact bytes —
    /// enough to assert bit-identity across servers and restarts.
    pub probs_checksum: String,
}

/// A journaled flow-job request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRequest {
    /// The **original, pre-flow** design (resume replays against it).
    pub design: String,
    /// Caller-chosen job id; resubmitting the same id resumes the same
    /// per-shard journal instead of redoing work.
    pub job_id: String,
    /// `FlowConfig::max_iterations`.
    pub max_iterations: u64,
    /// `FlowConfig::ops_per_iteration`.
    pub ops_per_iteration: u64,
    /// `FlowConfig::prob_threshold` in milli-units (50 = 0.05).
    pub prob_threshold_milli: u64,
    /// Deadline in embedding-row units; `0` = no deadline.
    pub deadline_rows: u64,
}

/// Answer to a [`FlowRequest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowReply {
    /// Observation points inserted.
    pub inserted: u64,
    /// Prediction/insert iterations run (journal replays included).
    pub iterations: u64,
    /// Batches replayed from the shard's journal before new work.
    pub resumed_batches: u64,
    /// Journal records when the job finished.
    pub journal_records: u64,
    /// Whether recovery discarded a torn final record.
    pub recovered_torn_tail: bool,
    /// The shard that ran the job.
    pub shard: u32,
    /// FNV-1a checksum over outcome JSON + post-flow design text — the
    /// digest `gcnt loadgen` prints on its `LOADGEN_FLOW` lines, so
    /// "bit-identical resume" is a string comparison.
    pub outcome_checksum: String,
}

/// Machine-readable refusal classes carried by error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Admission control rejected: the shard's queue is full.
    Overloaded,
    /// The request's deadline cannot be met.
    Deadline,
    /// The frame failed envelope verification (magic, length cap,
    /// checksum or kind).
    BadFrame,
    /// The peer's protocol version is unsupported.
    VersionMismatch,
    /// The server is draining and admits no new work.
    Draining,
    /// The request body itself is malformed (unparseable design, bad
    /// JSON).
    BadRequest,
    /// An internal serving failure.
    Internal,
}

impl ErrorCode {
    /// Stable lower-case name (report lines, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Deadline => "deadline",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::Draining => "draining",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed refusal: what went wrong and whether retrying can help.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Refusal class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Whether the client should back off and retry.
    pub retryable: bool,
}

/// Drain acknowledgement: what was in flight when draining began.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainAck {
    /// Requests still pending across every shard queue at the ack.
    pub pending: u64,
}

/// Encodes a message into a frame of the given kind. Serialisation of
/// these derive-backed bodies cannot fail; if it ever did, the empty
/// payload is refused as a typed protocol error on the other side
/// rather than trusted.
pub fn encode_message<T: Serialize>(kind: FrameKind, msg: &T) -> Frame {
    let body = serde_json::to_string(msg).unwrap_or_default();
    Frame::new(kind, body.into_bytes())
}

/// Decodes a frame payload into a message.
///
/// # Errors
///
/// [`NetError::Protocol`] if the payload is not the expected JSON shape.
pub fn decode_message<T: Deserialize>(frame: &Frame) -> Result<T, NetError> {
    let text = std::str::from_utf8(&frame.payload)
        .map_err(|e| NetError::Protocol(format!("frame payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| NetError::Protocol(format!("bad message body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode, ReadOutcome};

    #[test]
    fn messages_round_trip_through_frames() {
        let req = FlowRequest {
            design: "INPUT(n0)\n".to_string(),
            job_id: "job-7".to_string(),
            max_iterations: 5,
            ops_per_iteration: 2,
            prob_threshold_milli: 50,
            deadline_rows: 0,
        };
        let frame = encode_message(FrameKind::FlowRequest, &req);
        let Ok(ReadOutcome::Frame(wire)) = decode(&frame.encode()) else {
            panic!("clean frame decodes");
        };
        let back: FlowRequest = decode_message(&wire).expect("round trip");
        assert_eq!(back, req);
    }

    #[test]
    fn error_codes_have_stable_names() {
        assert_eq!(ErrorCode::Overloaded.as_str(), "overloaded");
        assert_eq!(ErrorCode::VersionMismatch.as_str(), "version-mismatch");
        let reply = ErrorReply {
            code: ErrorCode::Draining,
            message: "shutting down".to_string(),
            retryable: false,
        };
        let frame = encode_message(FrameKind::Error, &reply);
        let back: ErrorReply = decode_message(&frame).expect("round trip");
        assert_eq!(back, reply);
    }

    #[test]
    fn garbage_payload_is_a_protocol_error() {
        let frame = Frame::new(FrameKind::InferReply, b"not json".to_vec());
        assert!(matches!(
            decode_message::<InferReply>(&frame),
            Err(NetError::Protocol(_))
        ));
    }
}
