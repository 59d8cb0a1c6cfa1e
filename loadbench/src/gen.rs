//! The load generator: one loopback connection driven by exactly two
//! threads, a writer and a reader.
//!
//! Requests are built with the server's public codec (`frame::encode`
//! for binary, the text protocol's line syntax for text), so a binary
//! run exercises the multiplexed path: many requests in flight on one
//! connection, replies in completion order, matched back by id.
//!
//! In an open-loop phase the writer sends each request at its scheduled
//! time whatever the server is doing; when it wakes late it sends every
//! request that has come due in one write. In a closed-loop phase it
//! keeps a fixed number of requests in flight. The reader timestamps
//! every reply and, on `nbag-feedback`, answers each prediction with an
//! `Outcome` frame carrying the simulated true runtime.

use crate::workload::{Dialect, Op, OpKind, Stream, BUDGETS_S, SCHEDULE_GPUS};
use bagpred_serve::bootstrap::{NBAG_MODEL, PAIR_MODEL};
use bagpred_serve::frame::{self, Frame, Payload};
use bagpred_serve::Priority;
use bagpred_workloads::Workload;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long one blocking read waits before the reader re-checks whether
/// it is done.
const READ_POLL: Duration = Duration::from_millis(20);

/// How long the reader waits for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(10);

/// A closed-loop writer tops the window up once this many replies are
/// back, in one write.
const REFILL: usize = 8;

/// In-flight count at or below which a closed-loop writer refills.
fn refill_mark(window: usize) -> usize {
    window.saturating_sub(REFILL)
}

/// Which model produced a binary prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelId {
    /// The pair model.
    Pair,
    /// The n-bag model.
    NBag,
    /// Anything else (always a failure here).
    Other,
}

impl ModelId {
    /// Classifies a model name from a reply.
    pub fn of(name: &str) -> Self {
        match name {
            PAIR_MODEL => ModelId::Pair,
            NBAG_MODEL => ModelId::NBag,
            _ => ModelId::Other,
        }
    }
}

/// The reply to one operation, as received.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A binary prediction frame: the model and the raw `f64` bits.
    Prediction {
        /// Which model answered.
        model: ModelId,
        /// `predicted_s.to_bits()`.
        bits: u64,
    },
    /// A reply line (every text reply; binary schedule replies).
    Line(Box<str>),
    /// An error reply.
    Error(Box<str>),
}

impl Answer {
    /// True for a reply that is not an error.
    pub fn is_ok(&self) -> bool {
        match self {
            Answer::Prediction { .. } => true,
            Answer::Line(text) => text.starts_with("ok"),
            Answer::Error(_) => false,
        }
    }
}

/// `BENCH@batch`, the text protocol's workload syntax.
pub fn label(w: &Workload) -> String {
    format!("{}@{}", w.benchmark().name(), w.batch_size())
}

/// The text-protocol request line for `op` (no newline).
pub fn request_line(op: &Op, table: &[Workload]) -> String {
    let apps: Vec<String> = op.workloads(table).iter().map(label).collect();
    match op.kind {
        OpKind::Predict => format!("predict {}", apps.join("+")),
        OpKind::Schedule => format!(
            "schedule k={SCHEDULE_GPUS} budget={} {}",
            BUDGETS_S[op.budget as usize],
            apps.join(" ")
        ),
    }
}

/// The binary request frame for `op`: a structural `Predict`, or a
/// `Line` frame carrying a schedule command. Predicts go out at high
/// priority, which the engine sheds only at the hard queue bound, not at
/// the normal-priority brownout mark: an open loop that wakes late sends
/// everything that came due in one burst, and the benchmark measures
/// latency, not brownout.
pub fn request_frame(op: &Op, id: u64, table: &[Workload]) -> Frame {
    let payload = match op.kind {
        OpKind::Predict => Payload::Predict {
            model: None,
            apps: op.workloads(table),
            deadline: None,
            priority: Priority::High,
            hedge_of: None,
        },
        OpKind::Schedule => Payload::Line(request_line(op, table)),
    };
    Frame::new(id, payload)
}

fn encode_into(op: &Op, id: u64, table: &[Workload], dialect: Dialect, out: &mut Vec<u8>) {
    match dialect {
        Dialect::Binary => out.extend_from_slice(&frame::encode(&request_frame(op, id, table))),
        Dialect::Text => {
            out.extend_from_slice(request_line(op, table).as_bytes());
            out.push(b'\n');
        }
    }
}

/// Nanoseconds from `epoch` to `t` (0 when `t` is earlier).
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// The benchmark's one connection to the server.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    dialect: Dialect,
}

/// One reply off the wire.
enum Reply {
    Frame(Frame),
    Line(String),
}

impl Client {
    /// Connects with Nagle off: requests are single small writes, and
    /// Nagle would hold them behind delayed ACKs for milliseconds.
    ///
    /// # Errors
    ///
    /// Connect and socket-option failures.
    pub fn connect(addr: SocketAddr, dialect: Dialect) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            dialect,
        })
    }

    /// The dialect this connection speaks.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Sends pre-encoded request bytes and waits for one reply: the
    /// serial round trip the traced run times.
    ///
    /// # Errors
    ///
    /// I/O failures, or no reply within `timeout`.
    pub fn round_trip_bytes(&mut self, bytes: &[u8], timeout: Duration) -> io::Result<Answer> {
        self.writer.write_all(bytes)?;
        let deadline = Instant::now() + timeout;
        let mut line = Vec::new();
        match read_reply(&mut self.reader, self.dialect, &mut line, &|| {
            Instant::now() > deadline
        })? {
            Some(Reply::Frame(f)) => Ok(frame_answer(f.payload)),
            Some(Reply::Line(text)) => Ok(line_answer(text)),
            None => Err(io::Error::new(io::ErrorKind::TimedOut, "no reply")),
        }
    }

    /// The encoded request for `op` with request id `id`.
    pub fn encode(&self, op: &Op, id: u64, table: &[Workload]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(op, id, table, self.dialect, &mut out);
        out
    }
}

fn line_answer(text: String) -> Answer {
    if text.starts_with("err") {
        Answer::Error(text.into())
    } else {
        Answer::Line(text.into())
    }
}

fn frame_answer(payload: Payload) -> Answer {
    match payload {
        Payload::Prediction { model, predicted_s } => Answer::Prediction {
            model: ModelId::of(&model),
            bits: predicted_s.to_bits(),
        },
        Payload::LineReply(text) => Answer::Line(text.into()),
        Payload::Error { message, .. } => Answer::Error(message.into()),
        other => Answer::Error(format!("unexpected reply opcode {:?}", other.opcode()).into()),
    }
}

/// Fills `buf`, polling across read timeouts. `Ok(false)` when `stop`
/// said so before the first byte; a stop or EOF mid-frame is an error.
fn read_full(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    stop: &dyn Fn() -> bool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop() {
                    if filled == 0 {
                        return Ok(false);
                    }
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "torn reply frame"));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// The next reply, or `None` once `stop` holds with nothing pending.
fn read_reply(
    reader: &mut BufReader<TcpStream>,
    dialect: Dialect,
    line: &mut Vec<u8>,
    stop: &dyn Fn() -> bool,
) -> io::Result<Option<Reply>> {
    match dialect {
        Dialect::Binary => {
            let mut prelude = [0u8; frame::PRELUDE_LEN];
            if !read_full(reader, &mut prelude, stop)? {
                return Ok(None);
            }
            let len = frame::decode_prelude(&prelude)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            // Once the prelude is in, the body follows within one send;
            // the deadline only guards against a server that died mid-frame.
            let body_deadline = Instant::now() + Duration::from_secs(5);
            let mut body = vec![0u8; len];
            if !read_full(reader, &mut body, &|| Instant::now() > body_deadline)? {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "reply body never came",
                ));
            }
            let f = frame::decode_body(&body)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            Ok(Some(Reply::Frame(f)))
        }
        Dialect::Text => loop {
            match reader.read_until(b'\n', line) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) if line.last() == Some(&b'\n') => {
                    let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    line.clear();
                    return Ok(Some(Reply::Line(text)));
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop() {
                        return if line.is_empty() {
                            Ok(None)
                        } else {
                            Err(io::Error::new(io::ErrorKind::TimedOut, "torn reply line"))
                        };
                    }
                }
                Err(e) => return Err(e),
            }
        },
    }
}

/// Where a phase's operations come from.
pub enum Source<'a> {
    /// A fixed list, sent in order.
    Listed {
        /// The operations.
        ops: &'a [Op],
        /// The workload table their indices refer to.
        table: &'a [Workload],
    },
    /// Drawn from the stream as they are sent: a closed loop's length
    /// depends on how fast the server answers, so nothing is generated
    /// (or held in memory) ahead of the send.
    Drawn(&'a mut Stream),
}

impl Source<'_> {
    fn table(&self) -> &[Workload] {
        match self {
            Source::Listed { table, .. } => table,
            Source::Drawn(stream) => stream.table(),
        }
    }

    /// The next operation to send, `None` when a list runs out.
    fn next(&mut self, cursor: &mut usize, drawn: &mut VecDeque<Op>) -> Option<Op> {
        match self {
            Source::Listed { ops, .. } => {
                let op = ops.get(*cursor).copied();
                *cursor += 1;
                op
            }
            Source::Drawn(stream) => {
                if drawn.is_empty() {
                    drawn.extend(stream.closed_loop(1));
                }
                drawn.pop_front()
            }
        }
    }
}

/// How a phase paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace<'a> {
    /// Send each listed operation at its scheduled time (ns from the
    /// phase start).
    Open(&'a [u64]),
    /// Keep up to `window` operations in flight until `seconds` pass or
    /// the operations run out. An operation is in flight until its last
    /// reply, its outcome's included.
    Closed {
        /// Operations in flight.
        window: usize,
        /// Phase length; `f64::INFINITY` sends every listed operation.
        seconds: f64,
    },
}

/// What one phase sent and received. Replies are kept once per
/// distinct request, not per operation, so a long saturation phase
/// costs the generator no memory per request.
#[derive(Debug, Default)]
pub struct PhaseRun {
    /// Operations written to the socket.
    pub sent: usize,
    /// Operations answered successfully.
    pub ok: u64,
    /// Closed loop: successful replies before the window closed.
    pub ok_in_window: u64,
    /// Operations answered with an error.
    pub errors: u64,
    /// The first error reply, for the report.
    pub first_error: Option<String>,
    /// Each distinct request (by [`Op::key`]) with its first successful
    /// reply and how many successful replies it got.
    pub answers: HashMap<Op, (Answer, u64)>,
    /// Successful replies that differ from the first reply to the same
    /// request.
    pub inconsistent: u64,
    /// Binary predictions answered.
    pub predictions: u64,
    /// `Outcome` frames answered `ok outcome=matched`.
    pub outcomes_matched: u64,
    /// Open loop: send time of each operation, ns from the phase start.
    pub send_ns: Vec<u64>,
    /// Open loop: successful reply time of each operation (`u64::MAX`
    /// when it failed or never came).
    pub recv_ns: Vec<u64>,
    /// Operations in flight when the last one was sent.
    pub backlog_end: usize,
    /// Closed loop: how long the window was held open, ns.
    pub window_ns: u64,
}

impl PhaseRun {
    /// Operations never answered.
    pub fn missing(&self) -> u64 {
        self.sent as u64 - self.ok - self.errors
    }
}

struct Shared {
    sent: AtomicUsize,
    done: AtomicUsize,
    writer_done: AtomicBool,
    writer_end_ns: AtomicU64,
    gate: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Every sent operation is complete and the writer is finished.
    fn all_in(&self) -> bool {
        self.writer_done.load(Ordering::SeqCst)
            && self.done.load(Ordering::SeqCst) == self.sent.load(Ordering::SeqCst)
    }

    /// The writer finished more than [`DRAIN`] ago.
    fn drained_out(&self, epoch: Instant) -> bool {
        self.writer_done.load(Ordering::SeqCst)
            && ns_since(epoch, Instant::now())
                > self.writer_end_ns.load(Ordering::SeqCst) + DRAIN.as_nanos() as u64
    }
}

/// Runs one phase: operations get request ids `first_id..` in send
/// order, go out as `pace` says, and every reply is collected. With
/// `truth` (true runtime in µs by [`Op::key`]) each prediction is
/// answered with an `Outcome` frame.
///
/// # Errors
///
/// Socket failures and undecodable replies.
///
/// # Panics
///
/// Panics when an open loop is given drawn operations: its schedule
/// must be listed in advance.
pub fn run_phase(
    client: &mut Client,
    first_id: u64,
    source: Source<'_>,
    truth: Option<&HashMap<Op, u64>>,
    pace: Pace<'_>,
) -> io::Result<PhaseRun> {
    let shared = Shared {
        sent: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        writer_done: AtomicBool::new(false),
        writer_end_ns: AtomicU64::new(0),
        gate: Mutex::new(()),
        wake: Condvar::new(),
    };
    let dialect = client.dialect;
    // Open-loop schedules start a millisecond out so the first send is
    // not already late when the writer thread starts.
    let epoch = Instant::now() + Duration::from_millis(1);
    let writer = Mutex::new(&mut client.writer);
    let reader = &mut client.reader;
    let (ops_tx, ops_rx) = mpsc::channel::<Op>();
    thread::scope(|scope| {
        let write = thread::Builder::new()
            .name("loadbench-writer".into())
            .spawn_scoped(scope, || {
                let result = write_loop(
                    &writer, source, first_id, dialect, pace, epoch, &shared, ops_tx,
                );
                shared
                    .writer_end_ns
                    .store(ns_since(epoch, Instant::now()), Ordering::SeqCst);
                shared.writer_done.store(true, Ordering::SeqCst);
                result
            })
            .expect("spawn writer thread");
        let read = thread::Builder::new()
            .name("loadbench-reader".into())
            .spawn_scoped(scope, || {
                read_loop(
                    reader, &writer, first_id, ops_rx, truth, dialect, pace, epoch, &shared,
                )
            })
            .expect("spawn reader thread");
        let (send_ns, backlog_end, window_ns) = write.join().expect("writer thread panicked")?;
        let mut run = read.join().expect("reader thread panicked")?;
        run.sent = shared.sent.load(Ordering::SeqCst);
        run.send_ns = send_ns;
        run.backlog_end = backlog_end;
        run.window_ns = window_ns;
        Ok(run)
    })
}

#[allow(clippy::too_many_arguments)]
fn write_loop(
    writer: &Mutex<&mut TcpStream>,
    mut source: Source<'_>,
    first_id: u64,
    dialect: Dialect,
    pace: Pace<'_>,
    epoch: Instant,
    shared: &Shared,
    ops_tx: mpsc::Sender<Op>,
) -> io::Result<(Vec<u64>, usize, u64)> {
    let mut buf = Vec::with_capacity(1 << 12);
    // Sends `batch` as operations `from..`: each goes to the reader
    // first, so it is known before its reply can arrive.
    let emit = |batch: &[Op], from: usize, table: &[Workload], buf: &mut Vec<u8>| {
        buf.clear();
        for (k, op) in batch.iter().enumerate() {
            let _ = ops_tx.send(*op);
            encode_into(op, first_id + (from + k) as u64, table, dialect, buf);
        }
        // Published before the write, so `done <= sent` always holds.
        shared.sent.store(from + batch.len(), Ordering::SeqCst);
        writer.lock().expect("writer lock poisoned").write_all(buf)
    };
    match pace {
        Pace::Open(at_ns) => {
            let Source::Listed { ops, table } = source else {
                panic!("an open loop sends a listed schedule");
            };
            let mut send_ns = Vec::with_capacity(ops.len());
            let mut i = 0;
            while i < ops.len() {
                let due = epoch + Duration::from_nanos(at_ns[i]);
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let now_ns = ns_since(epoch, Instant::now());
                let start = i;
                while i < ops.len() && at_ns[i] <= now_ns {
                    i += 1;
                }
                send_ns.resize(i, ns_since(epoch, Instant::now()));
                emit(&ops[start..i], start, table, &mut buf)?;
            }
            let backlog = i - shared.done.load(Ordering::SeqCst);
            Ok((send_ns, backlog, 0))
        }
        Pace::Closed { window, seconds } => {
            let end = epoch + Duration::from_secs_f64(seconds.min(1e6));
            let low = refill_mark(window);
            let (mut cursor, mut drawn, mut batch) =
                (0, VecDeque::new(), Vec::with_capacity(window));
            let mut sent = 0;
            thread::sleep(epoch.saturating_duration_since(Instant::now()));
            while Instant::now() < end {
                let inflight = sent - shared.done.load(Ordering::SeqCst);
                if inflight > low {
                    let gate = shared.gate.lock().expect("gate lock poisoned");
                    if sent - shared.done.load(Ordering::SeqCst) > low {
                        let _ = shared
                            .wake
                            .wait_timeout(gate, Duration::from_millis(2))
                            .expect("gate lock poisoned");
                    }
                    continue;
                }
                batch.clear();
                while batch.len() < window - inflight {
                    match source.next(&mut cursor, &mut drawn) {
                        Some(op) => batch.push(op),
                        None => break,
                    }
                }
                if batch.is_empty() {
                    break;
                }
                emit(&batch, sent, source.table(), &mut buf)?;
                sent += batch.len();
            }
            let window_ns = ns_since(epoch, Instant::now().min(end));
            let backlog = sent - shared.done.load(Ordering::SeqCst);
            Ok((Vec::new(), backlog, window_ns))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn read_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &Mutex<&mut TcpStream>,
    first_id: u64,
    ops_rx: mpsc::Receiver<Op>,
    truth: Option<&HashMap<Op, u64>>,
    dialect: Dialect,
    pace: Pace<'_>,
    epoch: Instant,
    shared: &Shared,
) -> io::Result<PhaseRun> {
    let mut run = PhaseRun::default();
    let (window, end_ns) = match pace {
        Pace::Open(at_ns) => {
            run.recv_ns = vec![u64::MAX; at_ns.len()];
            (None, u64::MAX)
        }
        Pace::Closed { window, seconds } => (Some(window), (seconds.min(1e6) * 1e9) as u64),
    };
    // Operations from the oldest incomplete one on; `None` once complete.
    let mut inflight: VecDeque<Option<Op>> = VecDeque::new();
    let mut base = 0usize;
    let mut awaiting_outcome = HashSet::new();
    let mut next_line = 0usize;
    let mut line = Vec::new();
    while !shared.all_in() {
        let stop = || shared.all_in() || shared.drained_out(epoch);
        let Some(reply) = read_reply(reader, dialect, &mut line, &stop)? else {
            break;
        };
        let now = ns_since(epoch, Instant::now());
        let (idx, answer) = match reply {
            Reply::Line(text) => {
                next_line += 1;
                (next_line - 1, line_answer(text))
            }
            Reply::Frame(f) => match f.request_id.checked_sub(first_id) {
                Some(i) => (i as usize, frame_answer(f.payload)),
                None => continue, // a straggler from an earlier phase
            },
        };
        if idx >= shared.sent.load(Ordering::SeqCst) || idx < base {
            continue;
        }
        if awaiting_outcome.remove(&idx) {
            if matches!(&answer, Answer::Line(text) if &**text == "ok outcome=matched") {
                run.outcomes_matched += 1;
            }
        } else {
            while base + inflight.len() <= idx {
                let op = ops_rx
                    .recv()
                    .map_err(|_| io::Error::other("reply to an operation never sent"))?;
                inflight.push_back(Some(op));
            }
            let Some(op) = inflight[idx - base] else {
                continue; // a duplicate reply
            };
            if !answer.is_ok() {
                run.errors += 1;
                if run.first_error.is_none() {
                    run.first_error = Some(format!("{answer:?}"));
                }
            } else {
                run.ok += 1;
                if now <= end_ns {
                    run.ok_in_window += 1;
                }
                if let Some(t) = run.recv_ns.get_mut(idx) {
                    *t = now;
                }
                match run.answers.get_mut(&op.key()) {
                    Some((first, count)) if *first == answer => *count += 1,
                    Some(_) => run.inconsistent += 1,
                    None => {
                        run.answers.insert(op.key(), (answer.clone(), 1));
                    }
                }
                if matches!(answer, Answer::Prediction { .. }) {
                    run.predictions += 1;
                    if let Some(truth) = truth {
                        let outcome = Frame::new(
                            first_id + idx as u64,
                            Payload::Outcome {
                                actual_us: truth[&op.key()],
                            },
                        );
                        writer
                            .lock()
                            .expect("writer lock poisoned")
                            .write_all(&frame::encode(&outcome))?;
                        awaiting_outcome.insert(idx);
                        continue; // complete once the outcome is answered
                    }
                }
            }
        }
        // The operation is complete: retire it and let the writer refill.
        inflight[idx - base] = None;
        while inflight.front() == Some(&None) {
            inflight.pop_front();
            base += 1;
        }
        let done = shared.done.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(window) = window {
            if shared.sent.load(Ordering::SeqCst) - done <= refill_mark(window) {
                let _gate = shared.gate.lock().expect("gate lock poisoned");
                shared.wake.notify_one();
            }
        }
    }
    Ok(run)
}
