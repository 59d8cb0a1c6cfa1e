//! The length-prefixed binary wire protocol (version 1).
//!
//! The text line protocol pays a UTF-8 parse and a shortest-roundtrip
//! float format on every request; this module is the fast path that
//! avoids both. A connection speaks either protocol — the server sniffs
//! the **first byte**: [`MAGIC`]`[0]` is deliberately non-ASCII, and
//! every text verb starts with an ASCII letter, so one byte decides.
//! A text connection can also *upgrade* mid-stream by sending the
//! negotiation line `hello proto=binary` (see [`HELLO_BINARY`]), which
//! a pre-binary server answers with an ordinary `err` line.
//!
//! # Frame layout (all integers little-endian)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 2    | magic `0xBA 0x9E` |
//! | 2      | 1    | version (`0x01`) |
//! | 3      | 4    | `u32` body length (≤ [`MAX_BODY`]) |
//! | 7      | 1    | opcode |
//! | 8      | 8    | `u64` client-assigned request id |
//! | 16     | 2    | `u16` trace-context length `T` (≤ [`MAX_TRACE_CONTEXT`]) |
//! | 18     | `T`  | trace context, UTF-8 (opaque; threaded into obs traces) |
//! | 18+T   | rest | opcode-specific payload |
//!
//! The body length covers everything after the 7-byte prelude (opcode
//! through payload). Request ids are chosen by the client and echoed on
//! the reply frame, so replies may arrive out of order over one
//! connection — a fast model's answer is never stuck behind a slow
//! model's — and a future hedging client can discard the loser.
//!
//! # Decoding errors, by blast radius
//!
//! * [`FrameError::Incomplete`] — more bytes needed; not an error.
//! * [`FrameError::Malformed`] — the prelude was sound (the frame's
//!   extent is known) but the body is garbage. The connection answers
//!   `err malformed` *for that request id* and keeps serving: resync is
//!   trivial because the length prefix already told us where the next
//!   frame starts.
//! * [`FrameError::Fatal`] — the prelude itself is unusable (wrong
//!   magic, unsupported version, oversized length). There is no way to
//!   find the next frame boundary, so the connection answers once and
//!   closes.
//!
//! Memory stays bounded through all of it: nothing is allocated before
//! the declared length passes the [`MAX_BODY`] check, so a hostile
//! 4 GiB length prefix costs a 4-byte read, not an allocation.

use crate::error::ServeError;
use crate::metrics::Priority;
use bagpred_workloads::{Benchmark, Workload};
use std::time::Duration;

/// Frame magic. The first byte is non-ASCII on purpose: it is what lets
/// the server tell a binary connection from a text one by peeking a
/// single byte.
pub const MAGIC: [u8; 2] = [0xBA, 0x9E];

/// Current (and only) protocol version.
pub const VERSION: u8 = 1;

/// Upper bound on a frame body. Large enough for any reply this service
/// produces (the multi-line `metrics` exposition included), small enough
/// that a hostile length prefix cannot balloon memory.
pub const MAX_BODY: usize = 1 << 20;

/// Upper bound on the per-frame trace-context field.
pub const MAX_TRACE_CONTEXT: usize = 1024;

/// Bytes before the body: magic (2) + version (1) + length (4).
pub const PRELUDE_LEN: usize = 7;

/// Fixed body header: opcode (1) + request id (8) + trace-context len (2).
const BODY_HEADER_LEN: usize = 11;

/// The text-protocol line that upgrades a connection to binary frames.
/// Answered with [`HELLO_BINARY_OK`] by a binary-capable server and with
/// an `err` line by anything older, which the bundled client reports as
/// an I/O error.
pub const HELLO_BINARY: &str = "hello proto=binary";

/// The affirmative reply to [`HELLO_BINARY`]; every byte after it is a
/// binary frame.
pub const HELLO_BINARY_OK: &str = "ok proto=binary version=1";

/// Frame opcodes. Requests use the low range, replies the high range, so
/// a misdirected frame is caught as malformed rather than misparsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Request: a structurally encoded predict (the measured fast path).
    Predict = 0x01,
    /// Request: any text-protocol line carried in a frame. Keeps the
    /// whole command surface (stats/schedule/admin/...) available to
    /// binary clients without duplicating every encoding.
    Line = 0x02,
    /// Request: the actual runtime observed after acting on the
    /// prediction that carried this frame's request id — the frame id
    /// *is* the join key back to the recorded prediction, so closing
    /// the loop costs eight payload bytes.
    Outcome = 0x03,
    /// Request: cancel the in-flight request whose id is carried in the
    /// payload (the frame's own request id tags the cancel command's
    /// reply). Answered `ok cancel=pending` when the target was still
    /// queued and `ok cancel=late` when it had already been picked up,
    /// served, or was never in flight — the hedging client treats both
    /// as success.
    Cancel = 0x04,
    /// Reply: a prediction, with the f64 carried as raw bits — no float
    /// formatting on the server, no parsing on the client, and exact
    /// bit-identity with the in-process engine for free.
    Prediction = 0x81,
    /// Reply: a text-protocol reply line carried in a frame (the answer
    /// to [`Opcode::Line`] requests and non-prediction outcomes).
    LineReply = 0x82,
    /// Reply: a typed error — one-byte code plus the human-readable
    /// message the text protocol would have sent after `err `.
    Error = 0xEE,
}

impl Opcode {
    fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0x01 => Some(Opcode::Predict),
            0x02 => Some(Opcode::Line),
            0x03 => Some(Opcode::Outcome),
            0x04 => Some(Opcode::Cancel),
            0x81 => Some(Opcode::Prediction),
            0x82 => Some(Opcode::LineReply),
            0xEE => Some(Opcode::Error),
            _ => None,
        }
    }
}

/// Machine-readable error codes for [`Opcode::Error`] frames, mirroring
/// [`ServeError`] variants. The message alongside stays authoritative
/// for humans; the code is what a hedging client switches on.
pub mod error_code {
    /// Queue full — retry with backoff.
    pub const OVERLOADED: u8 = 1;
    /// Service shutting down.
    pub const SHUTTING_DOWN: u8 = 2;
    /// Request failed validation.
    pub const BAD_REQUEST: u8 = 3;
    /// Unknown model name.
    pub const UNKNOWN_MODEL: u8 = 4;
    /// Snapshot decode/verify failure.
    pub const SNAPSHOT: u8 = 5;
    /// Model cannot serve this request shape.
    pub const UNSUPPORTED: u8 = 6;
    /// Admin command on a non-admin listener.
    pub const ADMIN_DISABLED: u8 = 7;
    /// Worker panic, isolated and answered.
    pub const INTERNAL: u8 = 8;
    /// Model quarantined.
    pub const UNAVAILABLE: u8 = 9;
    /// Deadline expired before pickup.
    pub const DEADLINE: u8 = 10;
    /// Snapshot directory unusable.
    pub const SNAPSHOT_DIR: u8 = 11;
    /// Binary frame failed to decode.
    pub const MALFORMED: u8 = 12;
    /// Request cancelled by id before a worker picked it up.
    pub const CANCELLED: u8 = 13;
}

/// The [`error_code`] for a [`ServeError`].
pub fn code_of(err: &ServeError) -> u8 {
    match err {
        ServeError::Overloaded => error_code::OVERLOADED,
        ServeError::ShuttingDown => error_code::SHUTTING_DOWN,
        ServeError::BadRequest(_) => error_code::BAD_REQUEST,
        ServeError::UnknownModel(_) => error_code::UNKNOWN_MODEL,
        ServeError::Snapshot(_) => error_code::SNAPSHOT,
        ServeError::Unsupported(_) => error_code::UNSUPPORTED,
        ServeError::AdminDisabled => error_code::ADMIN_DISABLED,
        ServeError::Internal(_) => error_code::INTERNAL,
        ServeError::Unavailable(_) => error_code::UNAVAILABLE,
        ServeError::DeadlineExceeded => error_code::DEADLINE,
        ServeError::SnapshotDir(_) => error_code::SNAPSHOT_DIR,
        ServeError::Malformed(_) => error_code::MALFORMED,
        ServeError::Cancelled => error_code::CANCELLED,
    }
}

/// The opcode-specific contents of a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// [`Opcode::Predict`].
    Predict {
        /// Explicit model name; `None` picks a registered default.
        model: Option<String>,
        /// The co-running applications.
        apps: Vec<Workload>,
        /// Freshness budget, like the text protocol's `deadline_ms=N`.
        deadline: Option<Duration>,
        /// Priority class for brownout shedding (one byte on the wire;
        /// zero — the default — means `Normal`).
        priority: Priority,
        /// When this predict is the *hedge* copy of an earlier attempt,
        /// the primary attempt's request id. The engine uses it to
        /// deduplicate the pair so per-model stats and the pending
        /// outcome ring count the logical request exactly once.
        hedge_of: Option<u64>,
    },
    /// [`Opcode::Line`]: a text-protocol request line.
    Line(String),
    /// [`Opcode::Outcome`]: the observed actual runtime, in whole
    /// microseconds, for the prediction whose request id this frame
    /// carries.
    Outcome {
        /// Observed actual runtime in microseconds.
        actual_us: u64,
    },
    /// [`Opcode::Cancel`]: drop the queued request with this id.
    Cancel {
        /// Request id of the in-flight request to cancel (distinct from
        /// the frame's own request id, which tags the cancel's reply).
        target: u64,
    },
    /// [`Opcode::Prediction`].
    Prediction {
        /// Name of the model that produced the prediction.
        model: String,
        /// Predicted bag GPU time, seconds (carried as raw bits).
        predicted_s: f64,
    },
    /// [`Opcode::LineReply`]: a text-protocol reply (may be multi-line,
    /// e.g. the `metrics` exposition — the length prefix frames it).
    LineReply(String),
    /// [`Opcode::Error`].
    Error {
        /// One of [`error_code`].
        code: u8,
        /// The text the line protocol would send after `err `.
        message: String,
    },
}

impl Payload {
    /// The opcode this payload encodes as.
    pub fn opcode(&self) -> Opcode {
        match self {
            Payload::Predict { .. } => Opcode::Predict,
            Payload::Line(_) => Opcode::Line,
            Payload::Outcome { .. } => Opcode::Outcome,
            Payload::Cancel { .. } => Opcode::Cancel,
            Payload::Prediction { .. } => Opcode::Prediction,
            Payload::LineReply(_) => Opcode::LineReply,
            Payload::Error { .. } => Opcode::Error,
        }
    }
}

/// One decoded frame: request id, optional trace context, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Client-assigned id echoed on the reply, enabling out-of-order
    /// replies and hedged-request correlation.
    pub request_id: u64,
    /// Opaque upstream trace context, threaded into the request's
    /// [`bagpred_obs::Trace`].
    pub trace_context: Option<String>,
    /// The opcode-specific contents.
    pub payload: Payload,
}

impl Frame {
    /// A frame with no trace context.
    pub fn new(request_id: u64, payload: Payload) -> Self {
        Frame {
            request_id,
            trace_context: None,
            payload,
        }
    }
}

/// Why a decode did not produce a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet; `need` is the total frame size once known
    /// (prelude + body), or [`PRELUDE_LEN`] while even the prelude is
    /// short. Not an error — read more and retry.
    Incomplete {
        /// Total bytes the frame needs from its first byte.
        need: usize,
    },
    /// The body is garbage but the frame boundary is known: answer
    /// `err malformed` and keep the connection.
    Malformed(String),
    /// The prelude is unusable — no way to resync; close after one
    /// error reply.
    Fatal(String),
}

impl FrameError {
    /// Converts into the wire-facing [`ServeError`] (both recoverable
    /// and fatal decode failures answer as `err malformed`; what differs
    /// is whether the connection survives).
    pub fn to_serve_error(&self) -> ServeError {
        match self {
            FrameError::Incomplete { .. } => ServeError::Malformed("incomplete frame".into()),
            FrameError::Malformed(why) | FrameError::Fatal(why) => {
                ServeError::Malformed(why.clone())
            }
        }
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete { need } => {
                write!(f, "incomplete frame (need {need} bytes)")
            }
            FrameError::Malformed(why) => write!(f, "malformed frame: {why}"),
            FrameError::Fatal(why) => write!(f, "unrecoverable frame: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes a frame to bytes (prelude + body).
pub fn encode(frame: &Frame) -> Vec<u8> {
    let context = frame.trace_context.as_deref().unwrap_or("");
    debug_assert!(context.len() <= MAX_TRACE_CONTEXT);
    let mut body = Vec::with_capacity(BODY_HEADER_LEN + context.len() + 32);
    body.push(frame.payload.opcode() as u8);
    body.extend_from_slice(&frame.request_id.to_le_bytes());
    body.extend_from_slice(&(context.len() as u16).to_le_bytes());
    body.extend_from_slice(context.as_bytes());
    match &frame.payload {
        Payload::Predict {
            model,
            apps,
            deadline,
            priority,
            hedge_of,
        } => {
            let deadline_ms = deadline.map(|d| u32::try_from(d.as_millis()).unwrap_or(u32::MAX));
            body.push(u8::from(deadline_ms.is_some()));
            if let Some(ms) = deadline_ms {
                body.extend_from_slice(&ms.to_le_bytes());
            }
            body.push(priority.wire_code());
            body.push(u8::from(hedge_of.is_some()));
            if let Some(primary) = hedge_of {
                body.extend_from_slice(&primary.to_le_bytes());
            }
            let name = model.as_deref().unwrap_or("");
            debug_assert!(name.len() <= u8::MAX as usize);
            body.push(name.len() as u8);
            body.extend_from_slice(name.as_bytes());
            debug_assert!(apps.len() <= u8::MAX as usize);
            body.push(apps.len() as u8);
            for app in apps {
                body.push(benchmark_code(app.benchmark()));
                body.extend_from_slice(&(app.batch_size() as u32).to_le_bytes());
            }
        }
        Payload::Line(text) | Payload::LineReply(text) => {
            body.extend_from_slice(text.as_bytes());
        }
        Payload::Outcome { actual_us } => {
            body.extend_from_slice(&actual_us.to_le_bytes());
        }
        Payload::Cancel { target } => {
            body.extend_from_slice(&target.to_le_bytes());
        }
        Payload::Prediction { model, predicted_s } => {
            debug_assert!(model.len() <= u8::MAX as usize);
            body.push(model.len() as u8);
            body.extend_from_slice(model.as_bytes());
            body.extend_from_slice(&predicted_s.to_bits().to_le_bytes());
        }
        Payload::Error { code, message } => {
            body.push(*code);
            body.extend_from_slice(message.as_bytes());
        }
    }
    debug_assert!(body.len() <= MAX_BODY);
    let mut out = Vec::with_capacity(PRELUDE_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Validates a prelude and returns the body length it declares.
///
/// # Errors
///
/// [`FrameError::Incomplete`] under [`PRELUDE_LEN`] bytes;
/// [`FrameError::Fatal`] on wrong magic, unsupported version, or a
/// length beyond [`MAX_BODY`] — in every fatal case the stream has no
/// recoverable frame boundary.
pub fn decode_prelude(bytes: &[u8]) -> Result<usize, FrameError> {
    if bytes.len() < PRELUDE_LEN {
        return Err(FrameError::Incomplete { need: PRELUDE_LEN });
    }
    if bytes[..2] != MAGIC {
        return Err(FrameError::Fatal(format!(
            "bad magic {:02x}{:02x} (expected {:02x}{:02x})",
            bytes[0], bytes[1], MAGIC[0], MAGIC[1]
        )));
    }
    if bytes[2] != VERSION {
        return Err(FrameError::Fatal(format!(
            "unsupported protocol version {} (this server speaks {VERSION})",
            bytes[2]
        )));
    }
    let len = u32::from_le_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]) as usize;
    if len > MAX_BODY {
        return Err(FrameError::Fatal(format!(
            "declared body length {len} exceeds the {MAX_BODY}-byte bound"
        )));
    }
    if len < BODY_HEADER_LEN {
        // Too short for opcode + id + trace length: the boundary is
        // known (we could skip `len` bytes) but there is no request id
        // to answer, so treat it as malformed with id 0.
        return Err(FrameError::Malformed(format!(
            "body length {len} is shorter than the {BODY_HEADER_LEN}-byte frame header"
        )));
    }
    Ok(len)
}

/// The request id of a body, readable even when the rest is garbage —
/// so a malformed-frame error can still name the request it answers.
pub fn peek_request_id(body: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = body.get(1..9)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// Decodes a frame body (the bytes after a validated prelude).
///
/// # Errors
///
/// [`FrameError::Malformed`] on any structural problem — unknown
/// opcode, truncated payload, invalid UTF-8, out-of-range benchmark
/// code. The caller already knows the frame boundary, so these are
/// recoverable per frame.
pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut r = Reader { body, at: 0 };
    let opcode_byte = r.u8("opcode")?;
    let opcode = Opcode::from_byte(opcode_byte)
        .ok_or_else(|| FrameError::Malformed(format!("unknown opcode 0x{opcode_byte:02x}")))?;
    let request_id = r.u64("request id")?;
    let context_len = r.u16("trace-context length")? as usize;
    if context_len > MAX_TRACE_CONTEXT {
        return Err(FrameError::Malformed(format!(
            "trace context of {context_len} bytes exceeds the {MAX_TRACE_CONTEXT}-byte bound"
        )));
    }
    let context = r.str(context_len, "trace context")?;
    let trace_context = (!context.is_empty()).then(|| context.to_string());
    let payload = match opcode {
        Opcode::Predict => {
            let has_deadline = r.u8("deadline flag")?;
            let deadline = match has_deadline {
                0 => None,
                1 => Some(Duration::from_millis(r.u32("deadline_ms")? as u64)),
                other => {
                    return Err(FrameError::Malformed(format!(
                        "deadline flag must be 0 or 1, got {other}"
                    )))
                }
            };
            let prio_code = r.u8("priority")?;
            let priority = Priority::from_wire_code(prio_code).ok_or_else(|| {
                FrameError::Malformed(format!("unknown priority code {prio_code}"))
            })?;
            let hedge_of = match r.u8("hedge flag")? {
                0 => None,
                1 => Some(r.u64("hedge primary id")?),
                other => {
                    return Err(FrameError::Malformed(format!(
                        "hedge flag must be 0 or 1, got {other}"
                    )))
                }
            };
            let name_len = r.u8("model-name length")? as usize;
            let name = r.str(name_len, "model name")?;
            let model = (!name.is_empty()).then(|| name.to_string());
            let napps = r.u8("app count")? as usize;
            let mut apps = Vec::with_capacity(napps);
            for i in 0..napps {
                let code = r.u8("benchmark code")?;
                let benchmark = benchmark_from_code(code).ok_or_else(|| {
                    FrameError::Malformed(format!("app {i}: unknown benchmark code {code}"))
                })?;
                let batch = r.u32("batch size")? as usize;
                apps.push(Workload::new(benchmark, batch));
            }
            Payload::Predict {
                model,
                apps,
                deadline,
                priority,
                hedge_of,
            }
        }
        Opcode::Line => Payload::Line(r.rest_str("request line")?.to_string()),
        Opcode::Outcome => Payload::Outcome {
            actual_us: r.u64("actual_us")?,
        },
        Opcode::Cancel => Payload::Cancel {
            target: r.u64("cancel target id")?,
        },
        Opcode::Prediction => {
            let name_len = r.u8("model-name length")? as usize;
            let model = r.str(name_len, "model name")?.to_string();
            let predicted_s = f64::from_bits(r.u64("prediction bits")?);
            Payload::Prediction { model, predicted_s }
        }
        Opcode::LineReply => Payload::LineReply(r.rest_str("reply text")?.to_string()),
        Opcode::Error => {
            let code = r.u8("error code")?;
            let message = r.rest_str("error message")?.to_string();
            Payload::Error { code, message }
        }
    };
    if !r.done() {
        return Err(FrameError::Malformed(format!(
            "{} trailing bytes after the payload",
            body.len() - r.at
        )));
    }
    Ok(Frame {
        request_id,
        trace_context,
        payload,
    })
}

/// Decodes one complete frame from the front of `bytes`, returning it
/// with the number of bytes consumed. Convenience for buffered callers
/// (the property tests and the client); the server decodes prelude and
/// body separately to keep reads bounded.
///
/// # Errors
///
/// See [`decode_prelude`] and [`decode_body`].
pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
    let body_len = decode_prelude(bytes)?;
    let total = PRELUDE_LEN + body_len;
    if bytes.len() < total {
        return Err(FrameError::Incomplete { need: total });
    }
    let frame = decode_body(&bytes[PRELUDE_LEN..total])?;
    Ok((frame, total))
}

/// Bounds-checked cursor over a frame body; every failure names the
/// field it was reading, so `err malformed` replies are debuggable.
struct Reader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.body.len());
        match end {
            Some(end) => {
                let slice = &self.body[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(FrameError::Malformed(format!(
                "truncated frame: {what} needs {n} bytes, {} left",
                self.body.len() - self.at
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, FrameError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes taken")))
    }

    fn str(&mut self, n: usize, what: &str) -> Result<&'a str, FrameError> {
        std::str::from_utf8(self.take(n, what)?)
            .map_err(|_| FrameError::Malformed(format!("{what} is not valid UTF-8")))
    }

    fn rest_str(&mut self, what: &str) -> Result<&'a str, FrameError> {
        let n = self.body.len() - self.at;
        self.str(n, what)
    }

    fn done(&self) -> bool {
        self.at == self.body.len()
    }
}

/// Stable one-byte code for a benchmark: its index in
/// [`Benchmark::ALL`]. Frozen by the version byte — a future reorder of
/// `ALL` must bump [`VERSION`].
pub fn benchmark_code(benchmark: Benchmark) -> u8 {
    Benchmark::ALL
        .iter()
        .position(|&b| b == benchmark)
        .expect("every benchmark is in ALL") as u8
}

/// Inverse of [`benchmark_code`].
pub fn benchmark_from_code(code: u8) -> Option<Benchmark> {
    Benchmark::ALL.get(code as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagpred_workloads::Benchmark;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::new(
                1,
                Payload::Predict {
                    model: None,
                    apps: vec![
                        Workload::new(Benchmark::Sift, 20),
                        Workload::new(Benchmark::Knn, 40),
                    ],
                    deadline: None,
                    priority: Priority::Normal,
                    hedge_of: None,
                },
            ),
            Frame {
                request_id: u64::MAX,
                trace_context: Some("tp=00-abcdef-01".into()),
                payload: Payload::Predict {
                    model: Some("pair-tree".into()),
                    apps: vec![
                        Workload::new(Benchmark::FaceDet, 1),
                        Workload::new(Benchmark::Svm, 4_000_000),
                    ],
                    deadline: Some(Duration::from_millis(250)),
                    priority: Priority::Low,
                    hedge_of: Some(41),
                },
            },
            Frame::new(7, Payload::Line("stats model=pair-tree".into())),
            Frame::new(
                7,
                Payload::Outcome {
                    actual_us: 1_234_567,
                },
            ),
            Frame::new(12, Payload::Cancel { target: 11 }),
            Frame::new(
                8,
                Payload::Prediction {
                    model: "pair-tree".into(),
                    predicted_s: 1.000000000000004,
                },
            ),
            Frame::new(9, Payload::LineReply("ok models=2\nsecond line".into())),
            Frame::new(
                10,
                Payload::Error {
                    code: error_code::OVERLOADED,
                    message: "overloaded: request queue is full, retry later".into(),
                },
            ),
        ]
    }

    #[test]
    fn every_opcode_round_trips_exactly() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            let (decoded, consumed) = decode(&bytes).expect("decodes");
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn prediction_bits_survive_the_wire_exactly() {
        for value in [0.0, -0.0, 1.5e-300, f64::MAX, f64::NAN, 0.1 + 0.2] {
            let frame = Frame::new(
                3,
                Payload::Prediction {
                    model: "m".into(),
                    predicted_s: value,
                },
            );
            let (decoded, _) = decode(&encode(&frame)).expect("decodes");
            let Payload::Prediction { predicted_s, .. } = decoded.payload else {
                panic!("wrong payload")
            };
            assert_eq!(predicted_s.to_bits(), value.to_bits());
        }
    }

    #[test]
    fn first_byte_distinguishes_binary_from_every_text_verb() {
        assert!(!MAGIC[0].is_ascii());
        for verb in [
            "predict", "schedule", "stats", "models", "metrics", "health", "trace", "observe",
            "cancel", "load", "save", "reload", "quit", "exit", "hello",
        ] {
            assert!(verb.as_bytes()[0].is_ascii_alphabetic());
            assert_ne!(verb.as_bytes()[0], MAGIC[0]);
        }
    }

    #[test]
    fn hello_lines_contain_no_frame_magic() {
        // The upgrade line must be safely parseable by a text-only
        // server (pure ASCII) so the fallback path works.
        assert!(HELLO_BINARY.is_ascii());
        assert!(HELLO_BINARY_OK.is_ascii());
    }

    #[test]
    fn short_input_reports_incomplete_with_the_total_need() {
        let frame = sample_frames().remove(0);
        let bytes = encode(&frame);
        assert_eq!(
            decode(&bytes[..3]),
            Err(FrameError::Incomplete { need: PRELUDE_LEN })
        );
        let Err(FrameError::Incomplete { need }) = decode(&bytes[..PRELUDE_LEN + 2]) else {
            panic!("must be incomplete")
        };
        assert_eq!(need, bytes.len());
    }

    #[test]
    fn bad_magic_version_and_oversized_length_are_fatal() {
        let mut bytes = encode(&sample_frames().remove(0));
        let original = bytes.clone();

        bytes[0] = b'p'; // looks like text
        assert!(matches!(decode(&bytes), Err(FrameError::Fatal(_))));

        bytes = original.clone();
        bytes[2] = 9; // future version
        assert!(matches!(decode(&bytes), Err(FrameError::Fatal(_))));

        bytes = original.clone();
        bytes[3..7].copy_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB claim
        let err = decode(&bytes).expect_err("oversized");
        assert!(matches!(err, FrameError::Fatal(_)), "{err:?}");
    }

    #[test]
    fn body_garbage_is_malformed_not_fatal_and_keeps_the_request_id() {
        // Unknown opcode with an intact prelude: recoverable.
        let good = encode(&Frame::new(
            0x1234_5678_9ABC_DEF0,
            Payload::Line("stats".into()),
        ));
        let mut bytes = good.clone();
        bytes[PRELUDE_LEN] = 0x7F; // no such opcode
        assert!(matches!(decode(&bytes), Err(FrameError::Malformed(_))));
        assert_eq!(
            peek_request_id(&bytes[PRELUDE_LEN..]),
            Some(0x1234_5678_9ABC_DEF0)
        );

        // Benchmark code out of range.
        let mut predict = encode(&sample_frames().remove(0));
        let last = predict.len() - 5; // first app's benchmark code byte
        predict[last] = 200;
        assert!(matches!(decode(&predict), Err(FrameError::Malformed(_))));

        // Invalid UTF-8 in a line payload.
        let mut line = good;
        let tail = line.len() - 1;
        line[tail] = 0xFF;
        assert!(matches!(decode(&line), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn benchmark_codes_are_stable_and_invertible() {
        for (i, &b) in Benchmark::ALL.iter().enumerate() {
            assert_eq!(benchmark_code(b) as usize, i);
            assert_eq!(benchmark_from_code(i as u8), Some(b));
        }
        assert_eq!(benchmark_from_code(Benchmark::ALL.len() as u8), None);
        // Frozen wire values (version 1): a reorder of ALL would silently
        // remap every client's requests — this pins the assignment.
        assert_eq!(benchmark_code(Benchmark::Fast), 0);
        assert_eq!(benchmark_code(Benchmark::Sift), 5);
        assert_eq!(benchmark_code(Benchmark::FaceDet), 8);
    }

    #[test]
    fn every_serve_error_has_a_distinct_wire_code() {
        let errors = [
            ServeError::Overloaded,
            ServeError::ShuttingDown,
            ServeError::BadRequest("x".into()),
            ServeError::UnknownModel("x".into()),
            ServeError::Snapshot("x".into()),
            ServeError::Unsupported("x".into()),
            ServeError::AdminDisabled,
            ServeError::Internal("x".into()),
            ServeError::Unavailable("x".into()),
            ServeError::DeadlineExceeded,
            ServeError::SnapshotDir("x".into()),
            ServeError::Malformed("x".into()),
            ServeError::Cancelled,
        ];
        let mut codes: Vec<u8> = errors.iter().map(code_of).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "codes must be distinct");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use bagpred_workloads::Benchmark;
    use proptest::prelude::*;

    #[allow(clippy::too_many_arguments)] // mirrors the proptest generator tuple
    fn frame_from(
        kind: usize,
        id: u64,
        ctx: &str,
        text: &str,
        napps: usize,
        picks: &[usize],
        batches: &[usize],
        code: u8,
        bits: u64,
        deadline: Option<u32>,
    ) -> Frame {
        let apps: Vec<Workload> = (0..napps)
            .map(|i| {
                Workload::new(
                    Benchmark::ALL[picks[i % picks.len()] % Benchmark::ALL.len()],
                    1 + batches[i % batches.len()] % 1_000_000,
                )
            })
            .collect();
        let payload = match kind % 7 {
            0 => Payload::Predict {
                model: (!text.is_empty()).then(|| text.chars().take(64).collect()),
                apps,
                deadline: deadline.map(|ms| Duration::from_millis(ms as u64)),
                priority: Priority::ALL[napps % Priority::ALL.len()],
                hedge_of: bits.is_multiple_of(2).then_some(id ^ 1),
            },
            1 => Payload::Line(text.into()),
            2 => Payload::Prediction {
                model: text.chars().take(64).collect(),
                predicted_s: f64::from_bits(bits),
            },
            3 => Payload::LineReply(text.into()),
            4 => Payload::Outcome { actual_us: bits },
            5 => Payload::Cancel { target: bits },
            _ => Payload::Error {
                code,
                message: text.into(),
            },
        };
        Frame {
            request_id: id,
            trace_context: (!ctx.is_empty()).then(|| ctx.into()),
            payload,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Round-trip over every opcode with arbitrary field contents:
        /// encode → decode is the identity (NaN predictions compare by
        /// bits via the PartialEq on Payload only when non-NaN, so the
        /// generator sticks to finite bit patterns' equality through
        /// the dedicated unit test above).
        #[test]
        fn round_trip_is_identity(
            kind in 0usize..7,
            id in any::<u64>(),
            ctx_bytes in proptest::collection::vec(97u8..123, 0..41),
            text_bytes in proptest::collection::vec(32u8..127, 0..201),
            napps in 0usize..6,
            picks in proptest::collection::vec(0usize..9, 1..7),
            batches in proptest::collection::vec(1usize..1_000_000, 1..7),
            code in 0u8..14,
            bits in 0u64..(1u64 << 62),
            has_deadline in any::<bool>(),
            deadline_ms in 0u32..600_000,
        ) {
            let ctx = String::from_utf8(ctx_bytes).expect("ascii");
            let text = String::from_utf8(text_bytes).expect("ascii");
            let frame = frame_from(
                kind, id, &ctx, &text, napps, &picks, &batches, code, bits,
                has_deadline.then_some(deadline_ms),
            );
            let bytes = encode(&frame);
            let (decoded, consumed) = decode(&bytes).expect("round trip decodes");
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(decoded, frame);
        }

        /// Decoder robustness: arbitrary mutations of a valid frame —
        /// truncation, byte flips, garbage append — never panic, never
        /// allocate past the declared-length bound, and always yield a
        /// typed `FrameError` or a structurally valid frame.
        #[test]
        fn mutated_frames_fail_typed_never_panic(
            kind in 0usize..7,
            id in any::<u64>(),
            text_bytes in proptest::collection::vec(32u8..127, 0..81),
            cut in 0usize..400,
            flip_at in 0usize..400,
            flip_to in any::<u8>(),
            append in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let text = String::from_utf8(text_bytes).expect("ascii");
            let frame = frame_from(kind, id, "", &text, 2, &[1, 2], &[10, 20], 3, 42, None);
            let mut bytes = encode(&frame);
            if flip_at < bytes.len() {
                bytes[flip_at] = flip_to;
            }
            bytes.truncate(bytes.len().saturating_sub(cut % (bytes.len() + 1)));
            bytes.extend_from_slice(&append);
            match decode(&bytes) {
                Ok((frame, consumed)) => {
                    prop_assert!(consumed <= bytes.len());
                    // Whatever decoded re-encodes without panicking.
                    let _ = encode(&frame);
                }
                Err(FrameError::Incomplete { need }) => {
                    // The decoder may only demand bounded frames.
                    prop_assert!(need <= PRELUDE_LEN + MAX_BODY);
                    prop_assert!(need > bytes.len());
                }
                Err(FrameError::Malformed(why)) | Err(FrameError::Fatal(why)) => {
                    prop_assert!(!why.is_empty());
                }
            }
        }

        /// Pure garbage never decodes as a frame unless it happens to
        /// start with the magic — and even then it errors typed, with
        /// bounded demands.
        #[test]
        fn garbage_streams_are_rejected_with_bounded_need(
            garbage in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            match decode(&garbage) {
                Ok((_, consumed)) => prop_assert!(consumed <= garbage.len()),
                Err(FrameError::Incomplete { need }) => {
                    prop_assert!(need <= PRELUDE_LEN + MAX_BODY);
                }
                Err(_) => {}
            }
        }
    }
}
