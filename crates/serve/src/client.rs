//! A small binary-framed client with retry and jittered exponential
//! backoff.
//!
//! The serve front-end sheds load explicitly (`err overloaded`) and
//! isolates worker panics into typed replies (`err internal`) — both are
//! *transient*: the queue drains, the worker respawns, the model may be
//! reloaded. [`Client`] owns the retry loop a well-behaved caller should
//! run on those replies: exponential backoff with deterministic jitter
//! (a seeded xorshift, so tests replay the exact schedule), reconnecting
//! on I/O errors, and giving up with a typed [`ClientError`] once the
//! attempt budget is spent.
//!
//! Non-transient errors (`err bad request`, `err unavailable`,
//! `err deadline`, ...) are returned to the caller unchanged on the
//! first attempt — retrying a quarantined model or a malformed line
//! only adds load.
//!
//! # Wire
//!
//! Every fresh connection sends the [`frame::HELLO_BINARY`] line and
//! expects [`frame::HELLO_BINARY_OK`]; any other answer is an
//! [`std::io::ErrorKind::InvalidData`] error, which the retry loop
//! treats like any other I/O failure. From then on the connection
//! carries length-prefixed frames ([`crate::frame`]): requests go in as
//! text lines wrapped in a `Line` frame, and replies skip a decimal
//! round-trip — predictions come back as raw `f64` bits and are
//! re-rendered with the same shortest-roundtrip formatter the server's
//! text path uses, so a reply string is byte-identical to what the text
//! dialect would have sent. The length prefix carries multi-line
//! replies (`metrics`, `trace`) intact.
//!
//! Every frame carries a client-assigned request id. One loop sends a
//! frame and reads until a reply names an id it is waiting for, skipping
//! any other (a straggler from an I/O-timeout retry or a cancelled hedge
//! loser). The id of the attempt that answered is kept as
//! [`Client::last_request_id`], the join key for
//! [`Client::report_outcome`], and every attempt's id is surfaced in
//! [`ClientError::Exhausted`] so a caller can correlate giving up with
//! server-side traces.
//!
//! # Hedged requests
//!
//! With [`ClientConfig::hedge`] on, the client keeps a rolling latency
//! histogram and arms a timer at its p95 estimate on every send: if the
//! reply has not started arriving by then, a second copy of the request
//! goes out tagged `hedge_of=` the first attempt's id — so the engine
//! counts the pair's served attempt exactly once — and whichever reply
//! lands first wins. The loser is cancelled server-side (fire-and-forget
//! `Cancel` frame) and its straggling reply, if any, is skipped by id. A
//! hedge inherits the *remaining* deadline: `deadline_ms=` in the line is
//! rewritten to the budget left since the first attempt's send, and a
//! hedge whose budget is already spent is not sent at all. Until
//! [`ClientConfig::hedge_min_samples`] latencies have been observed the
//! estimator is untrained, no timer is armed and no hedge fires.

use crate::frame::{self, Frame, Payload};
use bagpred_ml::codec::fmt_f64;
use bagpred_obs::LogHistogram;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Client`] retry behavior.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total attempts per request, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles every retry after that.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Read/write timeout applied to the socket.
    pub io_timeout: Duration,
    /// Seed for the deterministic jitter; two clients with the same seed
    /// sleep the same schedule. Zero falls back to a fixed default.
    pub jitter_seed: u64,
    /// Fire a hedge (a second copy of the request) when the reply has
    /// not started arriving by the client's rolling p95 latency
    /// estimate. Off by default: a hedge is extra server load, and
    /// only a tail-latency-sensitive caller should opt in.
    pub hedge: bool,
    /// Latency samples the p95 estimator needs before any hedge fires;
    /// below this the estimate is noise and hedging would be random.
    pub hedge_min_samples: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
            hedge: false,
            hedge_min_samples: 10,
        }
    }
}

/// Why a [`Client::request`] gave up.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed and reconnecting kept failing.
    Io(std::io::Error),
    /// Every attempt drew a retryable `err` reply; the last one is
    /// included so the caller can still inspect it.
    Exhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The final reply line received.
        last_reply: String,
        /// The client-assigned request id of every attempt (hedges
        /// included), in order, so a caller can match this failure
        /// against server-side traces.
        request_ids: Vec<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "io error: {err}"),
            ClientError::Exhausted {
                attempts,
                last_reply,
                request_ids,
            } => write!(
                f,
                "gave up after {attempts} attempts (request ids {request_ids:?}); \
                 last reply: {last_reply}"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// Whether a reply line signals a transient failure worth retrying.
///
/// `err overloaded` is the queue shedding load and `err internal` is an
/// isolated worker panic; both typically clear within a backoff or two.
pub fn is_retryable(reply: &str) -> bool {
    reply.starts_with("err overloaded") || reply.starts_with("err internal")
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The backoff before retry number `attempt` (0-based): exponential
/// growth capped at `max_backoff`, with deterministic jitter drawn from
/// `rng` over the upper half of the window (`delay/2 ..= delay`), so
/// retries never synchronize into waves but also never fire early.
pub fn backoff_delay(attempt: u32, config: &ClientConfig, rng: &mut u64) -> Duration {
    let base_us = config.base_backoff.as_micros() as u64;
    let max_us = (config.max_backoff.as_micros() as u64).max(base_us);
    let exp_us = base_us
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
        .min(max_us);
    let half = exp_us / 2;
    let jitter = if half == 0 {
        0
    } else {
        xorshift(rng) % (half + 1)
    };
    Duration::from_micros(half + jitter)
}

/// What [`Client::round_trip`] needs to hedge a `Line` request: the line
/// a hedge would carry, and where to record a fired hedge's id.
struct Hedging<'a> {
    line: &'a str,
    request_ids: &'a mut Vec<u64>,
}

/// A reconnecting binary-framed client with retry/backoff.
///
/// Construction is cheap and infallible; the TCP connection is opened
/// lazily on the first request and re-opened after I/O errors.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    /// The socket, buffered for reads; frames are written straight to
    /// the stream underneath.
    conn: Option<BufReader<TcpStream>>,
    rng: u64,
    retries: u64,
    next_request_id: u64,
    /// The id of the attempt whose reply the last [`Client::request`]
    /// read (see [`Client::last_request_id`]).
    last_request_id: Option<u64>,
    /// Rolling end-to-end latency of answered requests; its p95 is the
    /// hedge trigger.
    latency: LogHistogram,
    hedges_fired: u64,
    hedge_wins: u64,
}

impl Client {
    /// A client for the server at `addr` with default retry settings.
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_config(addr, ClientConfig::default())
    }

    /// A client with explicit retry settings.
    pub fn with_config(addr: SocketAddr, config: ClientConfig) -> Self {
        let seed = if config.jitter_seed == 0 {
            ClientConfig::default().jitter_seed
        } else {
            config.jitter_seed
        };
        Client {
            addr,
            config,
            conn: None,
            rng: seed,
            retries: 0,
            next_request_id: 1,
            last_request_id: None,
            latency: LogHistogram::new(),
            hedges_fired: 0,
            hedge_wins: 0,
        }
    }

    /// Retries performed across this client's lifetime (attempts beyond
    /// the first, per request).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Hedges fired across this client's lifetime.
    pub fn hedges_fired(&self) -> u64 {
        self.hedges_fired
    }

    /// Hedges whose reply beat the primary's across this client's
    /// lifetime.
    pub fn hedge_wins(&self) -> u64 {
        self.hedge_wins
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            // Hedge and cancel frames are small writes racing a reply
            // that has not arrived yet; with Nagle on, the kernel holds
            // them until the server's delayed ACK (up to 40ms) — longer
            // than the tail they exist to cut.
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.config.io_timeout))?;
            stream.set_write_timeout(Some(self.config.io_timeout))?;
            let mut conn = BufReader::new(stream);
            // Negotiate in the text dialect every server shares; the
            // ack is consumed here, so the first frame starts clean.
            conn.get_mut()
                .write_all(format!("{}\n", frame::HELLO_BINARY).as_bytes())?;
            let mut ack = String::new();
            if conn.read_line(&mut ack)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection during negotiation",
                ));
            }
            if ack.trim_end() != frame::HELLO_BINARY_OK {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "server declined the binary framing",
                ));
            }
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("connection just installed"))
    }

    /// Writes `request` and reads frames until one names an id this
    /// round trip is waiting for, skipping any other id; returns that id
    /// and the reply rendered to the exact string the text dialect would
    /// have sent.
    ///
    /// Without `hedging` (or while the p95 estimator is untrained) this
    /// is one write, then reads under the socket's `io_timeout`. With it,
    /// a timer at the estimate waits for reply bytes; if none arrive in
    /// time a hedge goes out (see the module doc), the first reply of
    /// the pair wins and the loser is cancelled quietly. Either way a
    /// hedging request's latency feeds the estimator.
    fn round_trip(
        &mut self,
        request: &Frame,
        mut hedging: Option<Hedging<'_>>,
    ) -> std::io::Result<(u64, String)> {
        let io_timeout = self.config.io_timeout;
        // The p95 estimate, floored so the timer never degenerates into
        // hedging every request on a microsecond-fast server.
        let hedge_delay = hedging.as_ref().and_then(|_| {
            let snap = self.latency.snapshot();
            (snap.count >= self.config.hedge_min_samples)
                .then(|| Duration::from_micros(snap.quantile(0.95).max(100)))
        });
        self.connect()?
            .get_mut()
            .write_all(&frame::encode(request))?;
        let primary = request.request_id;
        let send_at = Instant::now();
        let mut hedge_at = hedge_delay.map(|delay| send_at + delay);
        let mut hedge_id = None;
        loop {
            let conn = self.conn.as_mut().expect("connection installed");
            if let Some(at) = hedge_at {
                if !reply_started_by(conn, at, io_timeout)? {
                    if Instant::now() < at {
                        continue; // spurious early timeout; keep waiting
                    }
                    hedge_at = None;
                    let hedge = hedging
                        .as_mut()
                        .expect("the timer is armed only when hedging");
                    // A spent deadline budget declines the hedge: it would
                    // be shed on arrival. Wait out the primary alone.
                    if let Some(line) = hedged_line(hedge.line, send_at.elapsed(), primary) {
                        let id = self.fresh_id();
                        hedge.request_ids.push(id);
                        self.hedges_fired += 1;
                        hedge_id = Some(id);
                        let conn = self.conn.as_mut().expect("connection installed");
                        conn.get_mut()
                            .write_all(&frame::encode(&Frame::new(id, Payload::Line(line))))?;
                    }
                    continue;
                }
            }
            let reply = read_frame(conn)?;
            let id = reply.request_id;
            if id != primary && Some(id) != hedge_id {
                continue;
            }
            if let Some(hedge) = hedge_id {
                let loser = if id == primary {
                    hedge
                } else {
                    self.hedge_wins += 1;
                    primary
                };
                self.cancel_quietly(loser);
            }
            if hedging.is_some() {
                self.latency.record_duration(send_at.elapsed());
            }
            return Ok((id, render_reply(reply.payload)));
        }
    }

    /// One round trip with no retry: a dead socket is dropped so the
    /// next request reconnects.
    fn exchange(&mut self, request: &Frame) -> Result<String, ClientError> {
        match self.round_trip(request, None) {
            Ok((_, reply)) => Ok(reply),
            Err(err) => {
                self.conn = None;
                Err(ClientError::Io(err))
            }
        }
    }

    /// Fire-and-forget server-side cancellation of a hedge loser: one
    /// `Cancel` frame, no waiting. Its ack, and the loser's reply if the
    /// cancel loses its race, are skipped by id in later reads. Write
    /// errors are swallowed — the winner is already in hand, and a dying
    /// socket surfaces on the next request anyway.
    fn cancel_quietly(&mut self, loser: u64) {
        let cancel_id = self.fresh_id();
        if let Some(conn) = self.conn.as_mut() {
            let frame = Frame::new(cancel_id, Payload::Cancel { target: loser });
            let _ = conn.get_mut().write_all(&frame::encode(&frame));
        }
    }

    /// Cancels an earlier request by the wire id it rode with, waiting
    /// for the server's verdict: `ok cancel=pending` when the target
    /// was still in flight, `ok cancel=late` when it had already
    /// completed or was never seen. Leaves
    /// [`last_request_id`](Self::last_request_id) unchanged.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the socket fails (single attempt — by
    /// the time a retry landed, the answer would be `late` regardless).
    pub fn cancel(&mut self, id: u64) -> Result<String, ClientError> {
        let cancel_id = self.fresh_id();
        self.exchange(&Frame::new(cancel_id, Payload::Cancel { target: id }))
    }

    /// Send one request line and return the reply line, retrying
    /// transient failures (see [`is_retryable`]) and I/O errors with
    /// jittered exponential backoff. Non-transient `err` replies are
    /// returned as `Ok` — the protocol answered; deciding what to do
    /// with a `bad request` or `unavailable` is the caller's business.
    pub fn request(&mut self, line: &str) -> Result<String, ClientError> {
        let attempts = self.config.max_attempts.max(1);
        let mut last_io: Option<std::io::Error> = None;
        let mut last_reply: Option<String> = None;
        let mut request_ids = Vec::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries += 1;
                std::thread::sleep(backoff_delay(attempt - 1, &self.config, &mut self.rng));
            }
            // Every attempt gets a fresh id — a retry is a new request
            // on the wire, so a hedging caller can tell them apart.
            let request_id = self.fresh_id();
            request_ids.push(request_id);
            self.last_request_id = Some(request_id);
            let request = Frame::new(request_id, Payload::Line(line.to_string()));
            let hedging = self.config.hedge.then_some(Hedging {
                line,
                request_ids: &mut request_ids,
            });
            match self.round_trip(&request, hedging) {
                Ok((answered, reply)) => {
                    self.last_request_id = Some(answered);
                    if !is_retryable(&reply) {
                        return Ok(reply);
                    }
                    last_reply = Some(reply);
                }
                Err(err) => {
                    // A dead socket cannot be reused; reconnect on retry.
                    self.conn = None;
                    last_io = Some(err);
                }
            }
        }
        match (last_reply, last_io) {
            (Some(last_reply), _) => Err(ClientError::Exhausted {
                attempts,
                last_reply,
                request_ids,
            }),
            (None, Some(err)) => Err(ClientError::Io(err)),
            (None, None) => unreachable!("at least one attempt always runs"),
        }
    }

    /// The id of the attempt that answered the most recent
    /// [`request`](Self::request) — a hedge pair's winner, or the last
    /// attempt when retries ran out — or `None` before the first
    /// request. [`cancel`](Self::cancel) and a hedge's quiet cancel take
    /// ids of their own but do not move it. This is the id to hand back
    /// to [`report_outcome`](Self::report_outcome) after acting on a
    /// prediction: the server joins the outcome to the prediction it
    /// recorded under that id.
    pub fn last_request_id(&self) -> Option<u64> {
        self.last_request_id
    }

    /// Closes the loop on an earlier prediction: reports the runtime
    /// actually observed after acting on it, named by the request id the
    /// prediction was served under (see
    /// [`last_request_id`](Self::last_request_id)). The report rides a
    /// compact `Outcome` frame whose own request id *is* the join key;
    /// the server scopes it to this connection. Returns the reply line:
    /// `ok outcome=matched` or `ok outcome=orphaned`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the socket fails. This is a single
    /// attempt — retrying an outcome report is pointless, since the
    /// first delivery already consumed (or orphaned) the join key.
    pub fn report_outcome(&mut self, id: u64, actual_us: u64) -> Result<String, ClientError> {
        self.exchange(&Frame::new(id, Payload::Outcome { actual_us }))
    }
}

fn read_frame(reader: &mut BufReader<TcpStream>) -> std::io::Result<Frame> {
    let mut prelude = [0u8; frame::PRELUDE_LEN];
    reader.read_exact(&mut prelude)?;
    let len = frame::decode_prelude(&prelude)
        .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string()))?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    frame::decode_body(&body)
        .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string()))
}

/// Waits until reply bytes are buffered or `at` passes, then restores
/// the socket's `io_timeout`. `fill_buf` peeks without consuming, so the
/// timer lapsing mid-wait cannot tear a frame.
fn reply_started_by(
    conn: &mut BufReader<TcpStream>,
    at: Instant,
    io_timeout: Duration,
) -> std::io::Result<bool> {
    let wait = at
        .saturating_duration_since(Instant::now())
        .max(Duration::from_micros(100));
    conn.get_ref().set_read_timeout(Some(wait))?;
    let started = match conn.fill_buf() {
        Ok([]) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        }
        Ok(_) => true,
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            false
        }
        Err(e) => return Err(e),
    };
    conn.get_ref().set_read_timeout(Some(io_timeout))?;
    Ok(started)
}

/// The wire line for a hedge attempt. A `deadline_ms=` token is
/// rewritten to the *remaining* budget measured from the primary's
/// send — a hedge that inherited the full original budget would happily
/// wait out a deadline the caller has already half-spent. Returns
/// `None` when the budget is gone (the hedge would be shed on
/// arrival). The primary's id rides along as `hedge_of=` so the engine
/// counts the pair's served attempt exactly once.
fn hedged_line(line: &str, elapsed: Duration, primary_id: u64) -> Option<String> {
    let mut tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    for token in &mut tokens {
        if let Some(raw) = token.strip_prefix("deadline_ms=") {
            let Ok(total) = raw.parse::<u64>() else {
                break; // malformed; the server will reject both copies
            };
            let remaining = total.saturating_sub(elapsed.as_millis() as u64);
            if remaining == 0 {
                return None;
            }
            *token = format!("deadline_ms={remaining}");
            break;
        }
    }
    tokens.push(format!("hedge_of={primary_id}"));
    Some(tokens.join(" "))
}

/// Renders a binary reply frame to the exact string the text protocol
/// would have written for the same outcome: predictions re-render their
/// raw `f64` bits with the server's shortest-roundtrip formatter,
/// framed text replies pass through verbatim, and errors regain their
/// `err ` prefix.
pub(crate) fn render_reply(payload: Payload) -> String {
    match payload {
        Payload::Prediction { model, predicted_s } => {
            format!("ok model={model} predicted_s={}", fmt_f64(predicted_s))
        }
        Payload::LineReply(text) => text,
        Payload::Error { message, .. } => format!("err {message}"),
        // Request opcodes are never valid replies; surface them as a
        // reply the retry classifier treats as non-transient.
        Payload::Predict { .. }
        | Payload::Line(_)
        | Payload::Outcome { .. }
        | Payload::Cancel { .. } => "err bad request: request opcode in a reply frame".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PredictionService, ServiceConfig};
    use crate::server::Server;
    use bagpred_core::Platforms;
    use std::sync::Arc;

    /// A fake binary server for one connection: acks the hello, then
    /// writes whatever `answer` returns for each request frame until
    /// the client hangs up. Joins to the number of frames it read.
    fn fake_binary_server(
        mut answer: impl FnMut(Frame) -> Vec<Frame> + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<u32>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let mut reader = BufReader::new(stream.try_clone().expect("clones"));
            let mut writer = stream;
            let mut hello = String::new();
            reader.read_line(&mut hello).expect("reads hello");
            assert_eq!(hello.trim_end(), frame::HELLO_BINARY);
            writer
                .write_all(format!("{}\n", frame::HELLO_BINARY_OK).as_bytes())
                .expect("acks binary");
            let mut served = 0;
            while let Ok(request) = read_frame(&mut reader) {
                served += 1;
                for reply in answer(request) {
                    if writer.write_all(&frame::encode(&reply)).is_err() {
                        return served;
                    }
                }
            }
            served
        });
        (addr, server)
    }

    fn overloaded(request_id: u64) -> Frame {
        Frame::new(
            request_id,
            Payload::Error {
                code: frame::error_code::OVERLOADED,
                message: "overloaded: request queue is full, retry later".to_string(),
            },
        )
    }

    /// A raw text-dialect connection: each call writes one line and
    /// reads one reply line.
    fn text_socket(addr: SocketAddr) -> impl FnMut(&str) -> String {
        let stream = TcpStream::connect(addr).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        move |line| {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("writes");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reads");
            reply.trim_end().to_string()
        }
    }

    fn predicted_us(reply: &str) -> u64 {
        let predicted_s: f64 = reply
            .rsplit_once("predicted_s=")
            .expect("has field")
            .1
            .parse()
            .expect("parses");
        (predicted_s * 1e6).round() as u64
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_caps() {
        let config = ClientConfig {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 42,
            ..ClientConfig::default()
        };
        let mut rng_a = config.jitter_seed;
        let mut rng_b = config.jitter_seed;
        let schedule_a: Vec<Duration> = (0..8)
            .map(|i| backoff_delay(i, &config, &mut rng_a))
            .collect();
        let schedule_b: Vec<Duration> = (0..8)
            .map(|i| backoff_delay(i, &config, &mut rng_b))
            .collect();
        // Same seed, same schedule — tests can replay it exactly.
        assert_eq!(schedule_a, schedule_b);
        for (i, delay) in schedule_a.iter().enumerate() {
            let exp =
                Duration::from_millis(10u64.saturating_mul(1 << i)).min(Duration::from_millis(100));
            // Jitter stays within [exp/2, exp]: never early, never over.
            assert!(*delay >= exp / 2, "attempt {i}: {delay:?} < {:?}", exp / 2);
            assert!(*delay <= exp, "attempt {i}: {delay:?} > {exp:?}");
        }
        // The cap binds: late attempts never exceed max_backoff.
        assert!(schedule_a[7] <= Duration::from_millis(100));
        // Different seeds jitter differently (with overwhelming odds).
        let mut rng_c = 7;
        let schedule_c: Vec<Duration> = (0..8)
            .map(|i| backoff_delay(i, &config, &mut rng_c))
            .collect();
        assert_ne!(schedule_a, schedule_c);
    }

    #[test]
    fn retryable_classification_matches_the_wire_prefixes() {
        assert!(is_retryable(
            "err overloaded: request queue is full, retry later"
        ));
        assert!(is_retryable("err internal: model `pair-tree` panicked"));
        assert!(!is_retryable("ok model=pair-tree predicted_s=1.5"));
        assert!(!is_retryable("err bad request: empty request"));
        assert!(!is_retryable(
            "err unavailable: model `pair-tree` is quarantined"
        ));
        assert!(!is_retryable("err deadline: request expired"));
        assert!(!is_retryable("err unknown model `nope`"));
    }

    #[test]
    fn exhausted_requests_surface_the_last_reply() {
        // A fake server that always sheds: every attempt reads
        // `err overloaded`, so the client retries then gives up typed.
        // Each shed is preceded by a success under a foreign id, which
        // the read loop must skip rather than take as its reply.
        let (addr, server) = fake_binary_server(|request| {
            vec![
                Frame::new(
                    request.request_id + 100,
                    Payload::LineReply("ok model=pair-tree predicted_s=1.5".to_string()),
                ),
                overloaded(request.request_id),
            ]
        });
        let mut client = Client::with_config(
            addr,
            ClientConfig {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                ..ClientConfig::default()
            },
        );
        let err = client
            .request("predict SIFT@20+KNN@40")
            .expect_err("gives up");
        match err {
            ClientError::Exhausted {
                attempts,
                last_reply,
                request_ids,
            } => {
                assert_eq!(attempts, 3);
                assert!(last_reply.starts_with("err overloaded"), "{last_reply}");
                // One id per attempt, in order — the caller can match
                // them against server-side traces when hedging.
                assert_eq!(request_ids, vec![1, 2, 3]);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(client.retries(), 2);
        assert_eq!(client.last_request_id(), Some(3), "the last attempt");
        drop(client);
        assert_eq!(server.join().expect("server thread"), 3);
    }

    #[test]
    fn client_reports_a_server_that_declines_binary_as_an_io_error() {
        // A text-only server: it answers the hello line with an error,
        // as any build predating the binary framing would. The client
        // must not fall back to text; it reports a typed I/O error, and
        // the retry loop reconnects like after any other I/O failure.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let mut after_decline = Vec::new();
            for _ in 0..2 {
                let (stream, _) = listener.accept().expect("accepts");
                let mut reader = BufReader::new(stream.try_clone().expect("clones"));
                let mut writer = stream;
                let mut hello = String::new();
                reader.read_line(&mut hello).expect("reads hello");
                assert_eq!(hello.trim_end(), frame::HELLO_BINARY);
                writer
                    .write_all(b"err bad request: unknown verb `hello`\n")
                    .expect("declines");
                reader
                    .read_to_end(&mut after_decline)
                    .expect("reads to EOF");
            }
            after_decline
        });
        let mut client = Client::with_config(
            addr,
            ClientConfig {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                ..ClientConfig::default()
            },
        );
        match client.request("predict SIFT@20+KNN@40") {
            Err(ClientError::Io(err)) => {
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                assert_eq!(err.to_string(), "server declined the binary framing");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
        assert_eq!(client.retries(), 1);
        drop(client);
        assert!(
            server.join().expect("server thread").is_empty(),
            "nothing may follow a declined hello"
        );
    }

    #[test]
    fn client_negotiates_binary_and_renders_identical_reply_lines() {
        let service = PredictionService::start(
            crate::testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");

        let mut text = text_socket(server.local_addr());
        let mut binary = Client::new(server.local_addr());

        for line in [
            "predict SIFT@20+KNN@40",
            "predict model=nbag-tree HOG@20+FAST@80+ORB@40",
            "models",
            "health",
            "bogus nonsense", // error replies must match too
        ] {
            let from_text = text(line);
            let from_binary = binary.request(line).expect("binary reply");
            assert_eq!(
                from_binary, from_text,
                "binary and text replies must be byte-identical for `{line}`"
            );
        }
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn report_outcome_closes_the_loop_on_binary_and_orphans_on_text() {
        let service = PredictionService::start(
            crate::testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");

        // The predict rode the wire with a client-assigned id, so the
        // outcome report joins it — exactly once.
        let mut binary = Client::new(server.local_addr());
        assert_eq!(binary.last_request_id(), None, "no request yet");
        let reply = binary.request("predict SIFT@20+KNN@40").expect("predicts");
        let actual_us = predicted_us(&reply);
        let id = binary.last_request_id().expect("a request was made");
        assert_eq!(
            binary.report_outcome(id, actual_us).expect("reports"),
            "ok outcome=matched"
        );
        assert_eq!(
            binary.report_outcome(id, actual_us).expect("reports"),
            "ok outcome=orphaned",
            "the join key is consumed by the first report"
        );

        // Text connection: predictions are never recorded (no wire id),
        // so the loop cannot close — the report is counted as orphaned.
        let mut text = text_socket(server.local_addr());
        assert!(text("predict SIFT@20+KNN@40").starts_with("ok model="));
        assert_eq!(
            text(&format!("observe id=1 actual_us={actual_us}")),
            "ok outcome=orphaned"
        );

        // The server-side accounting saw exactly one join.
        assert_eq!(service.outcomes().matched(), 1);
        assert_eq!(service.outcomes().orphaned(), 2);
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn hedged_line_inherits_the_remaining_deadline() {
        // No deadline: the line passes through with only the hedge tag.
        assert_eq!(
            hedged_line("predict SIFT@20+KNN@40", Duration::from_millis(5), 7),
            Some("predict SIFT@20+KNN@40 hedge_of=7".to_string())
        );
        // A deadline is rewritten to the budget *remaining* at hedge
        // time — the hedge must not inherit time the caller already
        // spent waiting on the primary.
        assert_eq!(
            hedged_line(
                "predict deadline_ms=100 SIFT@20+KNN@40",
                Duration::from_millis(30),
                3
            ),
            Some("predict deadline_ms=70 SIFT@20+KNN@40 hedge_of=3".to_string())
        );
        // Budget spent (or overspent): no hedge at all — it would only
        // be shed on arrival.
        assert_eq!(
            hedged_line(
                "predict deadline_ms=100 SIFT@20+KNN@40",
                Duration::from_millis(100),
                3
            ),
            None
        );
        assert_eq!(
            hedged_line(
                "predict deadline_ms=100 SIFT@20+KNN@40",
                Duration::from_millis(250),
                3
            ),
            None
        );
        // A malformed deadline passes through untouched; the server
        // rejects both copies identically.
        assert_eq!(
            hedged_line("predict deadline_ms=soon X@1", Duration::from_millis(5), 9),
            Some("predict deadline_ms=soon X@1 hedge_of=9".to_string())
        );
    }

    /// A service whose first pair-tree predict stalls 300ms, and a
    /// hedging client that has just sent that predict: its hedge fired
    /// and won. Returns the reply too.
    fn hedged_past_a_slow_shard() -> (Arc<PredictionService>, Server, Client, String) {
        use crate::fault::FaultPlan;

        // Two workers per shard so the hedge can overtake the stuck
        // primary instead of queueing behind it.
        let service = PredictionService::start(
            crate::testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                workers: 2,
                faults: Arc::new(
                    FaultPlan::parse("slow_predict:model=pair-tree:count=1:ms=300")
                        .expect("parses"),
                ),
                ..ServiceConfig::default()
            },
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");

        let mut client = Client::with_config(
            server.local_addr(),
            ClientConfig {
                hedge: true,
                hedge_min_samples: 5,
                io_timeout: Duration::from_secs(5),
                ..ClientConfig::default()
            },
        );
        // Warm the p95 estimator on a model the fault does not target;
        // below min_samples no timer is armed (no hedges).
        for _ in 0..5 {
            client
                .request("predict model=nbag-tree HOG@20+FAST@80+ORB@40")
                .expect("warmup predicts");
        }
        assert_eq!(client.hedges_fired(), 0, "warmup must not hedge");

        // The slow request: its hedge fires after ~p95 (sub-ms against
        // a warm server) and wins by ~300ms.
        let reply = client
            .request("predict model=pair-tree SIFT@20+KNN@40")
            .expect("hedged predict succeeds");
        assert!(reply.starts_with("ok model=pair-tree"), "{reply}");
        assert_eq!(client.hedges_fired(), 1);
        assert_eq!(client.hedge_wins(), 1, "the hedge must beat the stall");
        (service, server, client, reply)
    }

    #[test]
    fn hedge_beats_a_slow_shard_and_the_pair_counts_once() {
        let (service, mut server, _client, _) = hedged_past_a_slow_shard();

        // The stalled primary finishes eventually and is deduplicated —
        // the pair's served attempt counts exactly once. Poll `stats`
        // (on a connection independent of the hedging client) until the
        // dedup lands.
        let mut probe = Client::new(server.local_addr());
        let deadline = Instant::now() + Duration::from_secs(5);
        let stats = loop {
            let stats = probe.request("stats").expect("stats reply");
            if stats.contains("hedge_deduped=1") || Instant::now() > deadline {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(stats.contains("hedge_deduped=1"), "{stats}");
        // Conservation on the faulted shard: both attempts of the pair
        // were enqueued and both served — the dedup suppressed the
        // loser's accounting, not its execution — and the stall really
        // came from the armed fault.
        assert!(stats.contains("shard_pair-tree_enqueued=2"), "{stats}");
        assert!(stats.contains("shard_pair-tree_served=2"), "{stats}");
        assert!(stats.contains("faults_injected=1"), "{stats}");
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn outcome_report_after_a_hedge_joins_the_served_prediction() {
        let (service, mut server, mut client, reply) = hedged_past_a_slow_shard();

        // Ids 1-5 were the warmup, 6 the stalled primary, 7 the winning
        // hedge and 8 the quiet cancel of the primary: the join key is
        // the hedge's id, not the last id the client handed out.
        let id = client.last_request_id().expect("a request was made");
        assert_eq!(id, 7, "the hedge answered");
        assert_eq!(
            client
                .report_outcome(id, predicted_us(&reply))
                .expect("reports"),
            "ok outcome=matched"
        );
        assert_eq!(service.outcomes().matched(), 1);
        assert_eq!(service.outcomes().orphaned(), 0);

        // An explicit cancel takes an id of its own but leaves the join
        // key where it was.
        assert_eq!(client.cancel(id).expect("cancels"), "ok cancel=late");
        assert_eq!(client.last_request_id(), Some(id));
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn exhausted_carries_hedge_attempt_ids() {
        // A fake server that sheds every predict slowly enough for the
        // hedge timer (100µs floor on an untrained estimator) to fire
        // first, and acks cancels: every attempt hedges, every reply is
        // `err overloaded`, and the final Exhausted error must name the
        // hedge ids alongside the primaries.
        let (addr, server) = fake_binary_server(|request| {
            if let Payload::Cancel { .. } = request.payload {
                return vec![Frame::new(
                    request.request_id,
                    Payload::LineReply("ok cancel=late".to_string()),
                )];
            }
            // Slow enough that the hedge timer always wins the race
            // against this reply — comfortably past the kernel's
            // read-timeout granularity (SO_RCVTIMEO rounds up to a
            // scheduler tick, as much as 10ms), which is the real floor
            // on the client's 100µs timer.
            std::thread::sleep(Duration::from_millis(50));
            vec![overloaded(request.request_id)]
        });
        let mut client = Client::with_config(
            addr,
            ClientConfig {
                hedge: true,
                hedge_min_samples: 0, // hedge from the first request
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                ..ClientConfig::default()
            },
        );
        let err = client
            .request("predict model=pair-tree SIFT@20+KNN@40")
            .expect_err("gives up");
        match err {
            ClientError::Exhausted {
                attempts,
                last_reply,
                request_ids,
            } => {
                assert_eq!(attempts, 2);
                assert!(last_reply.starts_with("err overloaded"), "{last_reply}");
                // Ids 1/4 are the primaries, 2/5 their hedges (3 and 6
                // were burned on the loser cancels, which are not
                // attempts). Every id that carried this request on the
                // wire is named.
                assert_eq!(request_ids, vec![1, 2, 4, 5]);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(client.hedges_fired(), 2);
        assert_eq!(client.hedge_wins(), 0, "the primary answered first");
        assert_eq!(
            client.last_request_id(),
            Some(4),
            "the last attempt's answering primary"
        );
        drop(client);
        server.join().expect("server thread");
    }
}
