//! TCP front-end: the line-delimited text protocol and the
//! length-prefixed binary framing ([`crate::frame`]), auto-detected per
//! connection, over [`PredictionService`].
//!
//! Pure `std::net`: an accept-loop thread plus one thread per
//! connection, each running one read → dispatch → write loop. The
//! dialect is a codec over that loop, decided by the first byte the
//! client sends — the binary magic's first byte is not printable ASCII,
//! and every text verb starts with an ASCII letter — and a text
//! connection can also upgrade mid-stream by sending the
//! [`frame::HELLO_BINARY`] line. A text line is dispatched exactly like
//! a binary `Line` frame and answered with one `ok ...` or `err ...`
//! line, in request order. A binary connection is multiplexed: requests
//! carry client-assigned ids, a dedicated writer thread forwards replies
//! in *completion* order, and a slow request does not head-of-line-block
//! the replies behind it. Every id a request names reaches the engine
//! scoped to its connection, so no client can cancel, hedge against, or
//! report an outcome for another client's request.
//! Concurrency control lives in the engine (bounded per-shard queues +
//! worker pools), so a slow or malicious client can at worst occupy its
//! own connection thread — it cannot starve other clients of prediction
//! workers. The filesystem-touching admin commands
//! (`load`/`save`/`reload`) are refused with `err admin disabled` unless
//! the listener was started with [`ServerConfig::admin`]; even then the
//! engine confines their paths to the configured snapshot directory, so
//! no TCP client can read or write arbitrary files.
//!
//! # Connection lifecycle
//!
//! Every connection thread is tracked in a registry of join handles, and
//! both directions of its socket are bounded: reads by
//! [`ServerConfig::read_timeout`] — a half-open client that never sends
//! a byte cannot pin its thread in `read`; the thread wakes at least
//! once per timeout and re-checks the stop flag — and writes by
//! [`ServerConfig::write_timeout`] — a client that pipelines requests
//! but never drains replies fills its socket buffers and is
//! disconnected instead of pinning the thread in `write`.
//! [`Server::shutdown`] **drains**: it stops the accept loop (waking it
//! through a loopback connection, which also works when the server is
//! bound to a wildcard address like `0.0.0.0`), then joins every live
//! connection thread. In-flight requests finish — the engine answers
//! them and the client reads a complete final reply before EOF — and no
//! thread is leaked: when `shutdown` returns,
//! [`Server::active_connections`] is zero.

use crate::engine::{Outcome, PredictionService, Reply, Request};
use crate::error::ServeError;
use crate::fault::FaultSite;
use crate::frame::{self, Frame, Payload};
use crate::protocol::{format_outcome, parse_request_options, RequestOptions};
use bagpred_obs::{Stage, Trace};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Connection-handling knobs for the TCP front-end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Upper bound on one blocking read: how long a silent connection
    /// thread can go without re-checking the stop flag, and therefore
    /// the drain latency an idle connection adds to `shutdown`.
    pub read_timeout: Duration,
    /// Upper bound on one blocking write. A client that pipelines
    /// requests but never reads replies eventually fills its socket
    /// buffers; without this bound the connection thread blocks in
    /// `write_all` forever and shutdown cannot drain it. A timed-out
    /// write is fatal to that connection (the reply would be torn
    /// anyway), so pick it generous enough for legitimately slow
    /// readers.
    pub write_timeout: Duration,
    /// Serve the `load`/`save`/`reload` admin commands on this listener.
    /// Off by default: they touch the server's filesystem, which an
    /// unauthenticated TCP client has no business doing. Even when
    /// enabled, the engine confines their paths to the configured
    /// snapshot directory.
    pub admin: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(5),
            admin: false,
        }
    }
}

/// The connection registry: join handles for every live connection
/// thread, so shutdown can drain instead of leaking them.
#[derive(Debug, Default)]
struct Lifecycle {
    stop: AtomicBool,
    next_id: AtomicU64,
    /// Handles of spawned connection threads, keyed by connection id.
    handles: Mutex<HashMap<u64, thread::JoinHandle<()>>>,
    /// Ids whose thread has finished its work; their handles are reaped
    /// (joined and removed) by the accept loop so the map stays bounded
    /// on a long-lived server. A thread cannot join itself, hence the
    /// two-phase mark-then-reap.
    finished: Mutex<Vec<u64>>,
}

impl Lifecycle {
    /// Joins and removes every handle whose thread marked itself done.
    fn reap_finished(&self) {
        let ids: Vec<u64> = {
            let mut finished = self.finished.lock().expect("finished lock poisoned");
            finished.drain(..).collect()
        };
        if ids.is_empty() {
            return;
        }
        let reaped: Vec<thread::JoinHandle<()>> = {
            let mut handles = self.handles.lock().expect("handles lock poisoned");
            ids.iter().filter_map(|id| handles.remove(id)).collect()
        };
        for handle in reaped {
            // The thread marked itself finished as its last action, so
            // this join returns immediately.
            let _ = handle.join();
        }
    }

    /// Joins every tracked connection thread. A thread notices the stop
    /// flag within one read timeout, and no single blocking operation
    /// outlasts the read/write timeouts plus one in-flight request, so
    /// this bounds shutdown instead of hanging on half-open peers or
    /// non-reading ones.
    fn drain(&self) {
        let all: Vec<thread::JoinHandle<()>> = {
            let mut handles = self.handles.lock().expect("handles lock poisoned");
            handles.drain().map(|(_, handle)| handle).collect()
        };
        for handle in all {
            let _ = handle.join();
        }
        self.finished
            .lock()
            .expect("finished lock poisoned")
            .clear();
    }

    /// Live connection threads (registered and not yet marked finished).
    fn active(&self) -> usize {
        let handles = self.handles.lock().expect("handles lock poisoned").len();
        let finished = self.finished.lock().expect("finished lock poisoned").len();
        handles.saturating_sub(finished)
    }
}

/// A running TCP server. Dropping it drains all connections; prefer an
/// explicit [`shutdown`](Server::shutdown).
pub struct Server {
    local_addr: SocketAddr,
    lifecycle: Arc<Lifecycle>,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("active_connections", &self.lifecycle.active())
            .finish()
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting connections, answering from `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<PredictionService>) -> io::Result<Self> {
        Self::serve_listener(TcpListener::bind(addr)?, service)
    }

    /// [`bind`](Self::bind) with explicit connection-handling knobs.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<PredictionService>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::serve_listener_with(TcpListener::bind(addr)?, service, config)
    }

    /// Starts accepting on an already-bound listener. Lets a caller
    /// claim the port *before* paying for model training, so a bind
    /// conflict fails in milliseconds instead of after the training run.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures on the listener.
    pub fn serve_listener(
        listener: TcpListener,
        service: Arc<PredictionService>,
    ) -> io::Result<Self> {
        Self::serve_listener_with(listener, service, ServerConfig::default())
    }

    /// [`serve_listener`](Self::serve_listener) with explicit
    /// connection-handling knobs.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures on the listener.
    pub fn serve_listener_with(
        listener: TcpListener,
        service: Arc<PredictionService>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        let lifecycle = Arc::new(Lifecycle::default());
        let accept_lifecycle = Arc::clone(&lifecycle);
        let accept_handle = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_lifecycle.stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Replies to a pipelining client come as back-to-back
                // small writes; with Nagle on, the second sits in the
                // kernel until the client's delayed ACK (up to 40ms).
                // A socket that rejects the option still serves.
                let _ = stream.set_nodelay(true);
                // Opportunistically reclaim handles of finished threads
                // so the registry stays bounded on a long-lived server.
                accept_lifecycle.reap_finished();
                let id = accept_lifecycle.next_id.fetch_add(1, Ordering::Relaxed);
                let service = Arc::clone(&service);
                let conn_lifecycle = Arc::clone(&accept_lifecycle);
                let config = config.clone();
                let handle = thread::spawn(move || {
                    let _ = handle_connection(stream, &service, &conn_lifecycle.stop, &config);
                    conn_lifecycle
                        .finished
                        .lock()
                        .expect("finished lock poisoned")
                        .push(id);
                });
                accept_lifecycle
                    .handles
                    .lock()
                    .expect("handles lock poisoned")
                    .insert(id, handle);
            }
        });
        Ok(Self {
            local_addr,
            lifecycle,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address — read the ephemeral port from here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connection threads currently serving a client.
    pub fn active_connections(&self) -> usize {
        self.lifecycle.active()
    }

    /// Stops the accept loop, then **drains**: joins every connection
    /// thread, letting in-flight requests finish their final reply.
    /// Bounded by the read timeout plus the write timeout plus the
    /// longest in-flight request — a non-reading client cannot extend
    /// it, its blocked reply write times out and fails fatally — and
    /// when it returns, no connection thread remains. Idempotent. Does
    /// not shut down the underlying [`PredictionService`] — the caller
    /// owns that (and shuts it down *after* the server, so draining
    /// connections can still collect their replies).
    pub fn shutdown(&mut self) {
        self.lifecycle.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            // Unblock the accept() call with a throwaway connection. The
            // *bound* address may be a wildcard (`0.0.0.0`/`[::]`), which
            // is not connectable — aim at the loopback of the same
            // family, same port.
            let _ = TcpStream::connect(wake_addr(self.local_addr));
            let _ = handle.join();
        }
        self.lifecycle.drain();
    }
}

/// A connectable stand-in for the bound address: wildcard binds answer on
/// loopback, everything else is connectable as-is.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = if bound.ip().is_unspecified() {
        match bound {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        }
    } else {
        bound.ip()
    };
    SocketAddr::new(ip, bound.port())
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An optional second listener answering HTTP metric scrapes with the
/// same Prometheus text document as the `metrics` wire command
/// ([`PredictionService::exposition`]).
///
/// Deliberately minimal: one accept-loop thread answers scrapes inline
/// (a scrape renders one string and writes it — there is nothing to
/// parallelize), every request gets the full document regardless of
/// method or path, and the connection closes after the response
/// (`HTTP/1.0`-style, `Connection: close`). Reads and writes are
/// bounded by timeouts so a stuck scraper delays — never wedges — the
/// loop. Exposes *only* aggregate metrics: no admin surface, no
/// request contents, so it is safe to bind more widely than the admin
/// command listener.
pub struct MetricsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts answering HTTP scrapes from `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<PredictionService>) -> io::Result<Self> {
        Self::serve_listener(TcpListener::bind(addr)?, service)
    }

    /// Starts answering scrapes on an already-bound listener (claim the
    /// port before paying for model training, like
    /// [`Server::serve_listener`]).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures on the listener.
    pub fn serve_listener(
        listener: TcpListener,
        service: Arc<PredictionService>,
    ) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_handle = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = answer_scrape(stream, &service);
            }
        });
        Ok(Self {
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address — read the ephemeral port from here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the accept loop and joins it. Idempotent; bounded by the
    /// per-scrape timeouts plus one loopback wake-up connection.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_handle.take() {
            let _ = TcpStream::connect(wake_addr(self.local_addr));
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers one HTTP scrape: drains the request head (bounded — at most
/// 4 KiB and one read timeout), then writes the exposition document.
/// The request itself is never interpreted; every scrape gets the full
/// document.
fn answer_scrape(mut stream: TcpStream, service: &PredictionService) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut head = [0u8; 4096];
    let mut filled = 0;
    while filled < head.len() {
        match stream.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                let seen = &head[..filled];
                if seen.windows(4).any(|w| w == b"\r\n\r\n")
                    || seen.windows(2).any(|w| w == b"\n\n")
                {
                    break; // end of request head — body (if any) ignored
                }
            }
            // A scraper that sent a partial head and stalled still gets
            // its answer; the response is what matters.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let body = service.exposition();
    let response = format!(
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n\
         {body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Serves one connection: one read → dispatch → write loop for both
/// dialects, with the dialect a [`Codec`] chosen from the first byte
/// and switched in place by the [`frame::HELLO_BINARY`] line.
fn handle_connection(
    stream: TcpStream,
    service: &PredictionService,
    stop: &AtomicBool,
    config: &ServerConfig,
) -> io::Result<()> {
    // Bounded reads *and* writes are what make shutdown drainable:
    // without the read timeout a half-open client (connected, never
    // sending) parks this thread in `read` forever; without the write
    // timeout a client that pipelines requests but never drains replies
    // fills its socket buffers and parks a thread in `write_all` — in
    // either case `shutdown` would hang joining it. A timed-out write
    // (`WouldBlock`/`TimedOut`) propagates as a fatal connection error:
    // the reply would be torn anyway.
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // Auto-detect the dialect from the first byte: the binary magic
    // starts with a non-ASCII byte, every text verb with an ASCII
    // letter, so one peeked byte decides without consuming anything.
    let binary = match first_byte(&mut reader, stop)? {
        None => return Ok(()), // EOF or stop before any byte arrived
        Some(byte) => byte == frame::MAGIC[0],
    };
    let served = thread::scope(|scope| {
        let mut conn = Conn {
            service,
            config,
            writer: &writer,
            tag: CONN_SEQ.fetch_add(1, Ordering::Relaxed) & WIRE_ID_MASK,
            tagged: binary.then(|| spawn_writer(scope, &writer, service)),
        };
        // Returning drops `conn` and with it the reader's sender, which
        // lets the writer drain: the engine-held clones drop as
        // in-flight jobs finish, the channel closes, and the writer
        // exits after forwarding every reply; the scope joins it.
        loop {
            match conn.codec().read(&mut reader, stop)? {
                Incoming::Request(request) => {
                    if !conn.dispatch(request)? {
                        return Ok(()); // client said quit/exit
                    }
                }
                Incoming::Answer(wire_id, outcome) => conn.reply(wire_id, outcome)?,
                Incoming::Blank => {}
                Incoming::Upgrade => {
                    // Feature negotiation: acknowledge in text, then
                    // switch this same connection to the binary framing.
                    // A server without binary support would answer
                    // `err ...`, which the client takes as "stay on text".
                    (&writer).write_all(format!("{}\n", frame::HELLO_BINARY_OK).as_bytes())?;
                    conn.tagged = Some(spawn_writer(scope, &writer, service));
                }
                Incoming::Fatal(outcome) => {
                    conn.reply(0, outcome)?;
                    return Ok(());
                }
                Incoming::End => return Ok(()),
            }
        }
    });
    // Every reply is written (the scope joined any writer thread). Close
    // the sending side first: when unread input is left — a refused
    // overlong line — closing the socket resets it, and a FIN sent
    // before the reset lets the client read its replies and a clean EOF.
    let _ = writer.shutdown(Shutdown::Write);
    served
}

/// Peeks the connection's first byte without consuming it, waiting
/// across read timeouts (re-checking the stop flag) until the client
/// sends something or hangs up.
fn first_byte(reader: &mut BufReader<TcpStream>, stop: &AtomicBool) -> io::Result<Option<u8>> {
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        match reader.fill_buf() {
            Ok(buf) => return Ok(buf.first().copied()), // empty => EOF
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Allocates each connection a namespace for the request ids its
/// client names. Wraps after 2^32 connections — by then the earliest
/// namespaces have no surviving state to collide with.
static CONN_SEQ: AtomicU64 = AtomicU64::new(1);

/// Low half of an engine tag: the client's wire id, echoed in replies.
/// The upper half is the connection namespace — request ids are
/// effectively 32-bit per connection on the wire.
const WIRE_ID_MASK: u64 = 0xFFFF_FFFF;

/// Scopes a client-chosen wire id to its connection before it reaches
/// the engine. Request ids only need to be unique *per connection* on
/// the wire, but the engine's request ledger (in-flight cancel state,
/// hedge links, outcome ring) is global — without this, client A's
/// `cancel id=7` could drop client B's in-flight request 7 (every
/// client counts from 1), and a guessed namespace would do the same.
/// Replies strip the namespace back off.
fn namespaced(conn_tag: u64, wire_id: u64) -> u64 {
    (conn_tag << 32) | (wire_id & WIRE_ID_MASK)
}

/// A connection's wire dialect: how one request is read off the socket
/// and how one reply is encoded back onto it.
#[derive(Clone, Copy)]
enum Codec {
    /// Newline-terminated request lines, one `ok ...`/`err ...` line back.
    Text,
    /// Length-prefixed frames ([`crate::frame`]) carrying request ids.
    Binary,
}

/// What one read off the wire produced, in either dialect.
enum Incoming {
    /// A request to dispatch; a text line arrives as [`Payload::Line`].
    Request(Frame),
    /// A request answered without dispatch: invalid UTF-8, or a
    /// malformed body inside a sound frame boundary (named by the wire
    /// id readable even in garbage, else 0).
    Answer(u64, Outcome),
    /// A blank text line: skipped, no reply.
    Blank,
    /// The [`frame::HELLO_BINARY`] line: switch to binary frames.
    Upgrade,
    /// An unusable binary prelude — wrong magic or version, oversized
    /// length — or a text line over the bound has no recoverable request
    /// boundary: one final error reply, then close.
    Fatal(Outcome),
    /// EOF, or the stop flag was raised.
    End,
}

impl Codec {
    fn read(self, reader: &mut BufReader<TcpStream>, stop: &AtomicBool) -> io::Result<Incoming> {
        match self {
            Codec::Text => read_line(reader, stop),
            Codec::Binary => read_frame(reader, stop),
        }
    }

    /// One reply's bytes, written with a single `write_all`. Text puts
    /// the line and its newline in one write: the writer is a raw
    /// `TcpStream`, and a separate `\n` write becomes its own TCP
    /// segment that Nagle parks behind the reply segment's (possibly
    /// delayed) ACK — tens of milliseconds added to every text request.
    fn encode(self, wire_id: u64, outcome: Outcome) -> Vec<u8> {
        match self {
            Codec::Text => {
                let mut line = format_outcome(&outcome);
                line.push('\n');
                line.into_bytes()
            }
            Codec::Binary => frame::encode(&reply_frame(wire_id, outcome)),
        }
    }
}

/// Reads one request line. Bytes, not a String: `BufRead::read_line`
/// drops a trailing incomplete UTF-8 sequence when a read times out
/// mid-character, silently corrupting the request. `read_until` keeps
/// every byte across timeouts; UTF-8 is validated once a full line is
/// present. The stop flag is checked before every read — not only
/// after a line arrives — so a client streaming requests back-to-back
/// cannot postpone drain indefinitely.
fn read_line(reader: &mut BufReader<TcpStream>, stop: &AtomicBool) -> io::Result<Incoming> {
    let mut line = Vec::new();
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(Incoming::End);
        }
        // A line, newline included, is at most `MAX_BODY` bytes — the
        // binary codec's body bound — so a client that never sends a
        // newline cannot grow this buffer without limit.
        let room = (frame::MAX_BODY - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(Incoming::End), // EOF: client hung up.
            Ok(_) if line.len() == frame::MAX_BODY && !line.ends_with(b"\n") => {
                let err = ServeError::BadRequest("line too long".into());
                return Ok(Incoming::Fatal(Err(err)));
            }
            Ok(_) => break,
            // Read timeout: nothing (or only a partial line) arrived.
            // The partial bytes stay in `line` — read_until appends —
            // so a slow sender loses nothing.
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    let Ok(text) = String::from_utf8(line) else {
        let err = ServeError::BadRequest("request is not valid UTF-8".into());
        return Ok(Incoming::Answer(0, Err(err)));
    };
    Ok(match text.trim() {
        "" => Incoming::Blank,
        frame::HELLO_BINARY => Incoming::Upgrade,
        _ => Incoming::Request(Frame::new(0, Payload::Line(text))),
    })
}

/// Reads one request frame. A malformed body inside a valid prelude is
/// answered (naming the request id, which survives even in garbage) and
/// the connection continues; an unusable prelude is [`Incoming::Fatal`].
fn read_frame(reader: &mut BufReader<TcpStream>, stop: &AtomicBool) -> io::Result<Incoming> {
    let mut prelude = [0u8; frame::PRELUDE_LEN];
    if !read_full(reader, &mut prelude, stop)? {
        return Ok(Incoming::End);
    }
    let body_len = match frame::decode_prelude(&prelude) {
        Ok(len) => len,
        Err(err @ frame::FrameError::Malformed(_)) => {
            // The declared length is in bounds but too short for a
            // frame header: the boundary is still known, so skip the
            // body and keep the connection. No request id is readable
            // — answer with id 0.
            let len = u32::from_le_bytes([prelude[3], prelude[4], prelude[5], prelude[6]]) as usize;
            let mut skipped = vec![0u8; len];
            if !read_full(reader, &mut skipped, stop)? {
                return Ok(Incoming::End);
            }
            return Ok(Incoming::Answer(0, Err(err.to_serve_error())));
        }
        Err(err) => return Ok(Incoming::Fatal(Err(err.to_serve_error()))),
    };
    let mut body = vec![0u8; body_len];
    if !read_full(reader, &mut body, stop)? {
        return Ok(Incoming::End);
    }
    Ok(match frame::decode_body(&body) {
        Ok(request) => Incoming::Request(request),
        Err(err) => {
            let wire_id = frame::peek_request_id(&body).unwrap_or(0);
            Incoming::Answer(wire_id, Err(err.to_serve_error()))
        }
    })
}

/// Fills `buf` across read timeouts, re-checking the stop flag before
/// every read — a binary client that dribbles a frame byte-by-byte
/// cannot corrupt it, and a silent one cannot block shutdown's drain.
/// Returns false when the peer hung up first (clean or torn mid-frame,
/// the connection is done either way) or the stop flag was raised.
fn read_full(reader: &mut impl Read, buf: &mut [u8], stop: &AtomicBool) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::Acquire) {
            return Ok(false);
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Ok(false),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// A socket read that hit its timeout rather than failing.
fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One connection's request path, shared by both dialects.
///
/// Where replies go is what differs. **Text** is answered on the reader
/// thread, one request at a time, in request order: submissions are
/// untagged (they never enter the engine's request ledger, so they
/// cannot be cancelled, hedged or joined by an outcome), and the reader
/// waits on a reply channel whose only sender the engine's job holds —
/// so an engine shutdown that drops the job wakes it with
/// `ShuttingDown`. **Binary** is multiplexed:
/// submissions are tagged with their connection-namespaced id and a
/// dedicated writer thread forwards replies in *completion* order, so a
/// slow request does not head-of-line-block the replies behind it. The
/// writer thread stays (rather than engine workers writing to sockets)
/// so a client that stops reading parks only its own writer for the
/// write timeout, never a shard worker.
struct Conn<'a> {
    service: &'a PredictionService,
    config: &'a ServerConfig,
    writer: &'a TcpStream,
    /// This connection's namespace for wire ids; see [`namespaced`].
    tag: u64,
    /// The writer thread's channel, once the connection speaks binary.
    tagged: Option<mpsc::Sender<(u64, Outcome)>>,
}

impl Conn<'_> {
    fn codec(&self) -> Codec {
        if self.tagged.is_some() {
            Codec::Binary
        } else {
            Codec::Text
        }
    }

    /// Turns one request into an engine submission or an inline reply.
    /// Returns `false` when the client asked to close the connection
    /// (`quit`/`exit`).
    fn dispatch(&self, request: Frame) -> io::Result<bool> {
        let tag = namespaced(self.tag, request.request_id);
        // The upstream trace context rides into the engine's per-request
        // trace, so a slow-request summary can name the caller's span.
        let make_trace = || match &request.trace_context {
            Some(context) => Trace::with_context(context.clone()),
            None => Trace::new(),
        };
        match request.payload {
            Payload::Predict {
                model,
                apps,
                deadline,
                priority,
                hedge_of,
            } => {
                let mut trace = make_trace();
                trace.mark(Stage::Parse); // frame decode is the parse work
                let options = RequestOptions {
                    deadline,
                    priority,
                    hedge_of,
                };
                self.submit(Request::Predict { model, apps }, trace, options, tag)?;
            }
            Payload::Cancel { target } => {
                // Answered inline, never queued: a cancel enqueued behind
                // the very backlog it is trying to trim would always lose
                // the race it exists to win.
                let pending = self.service.cancel(namespaced(self.tag, target));
                self.reply(tag, Ok(Reply::Cancelled { pending }))?;
            }
            Payload::Line(text) => {
                let line = text.trim();
                if line == "quit" || line == "exit" {
                    return Ok(false);
                }
                if line.is_empty() {
                    let err = ServeError::BadRequest("empty request".into());
                    self.reply(tag, Err(err))?;
                    return Ok(true);
                }
                // The trace starts when the whole line is in hand, so its
                // parse span measures parsing, not how slowly the client
                // dribbled bytes.
                let mut trace = make_trace();
                let parsed = parse_request_options(line);
                trace.mark(Stage::Parse);
                match parsed {
                    // Parse errors never reach the queue; they are
                    // answered inline so malformed floods cannot shed
                    // well-formed load.
                    Err(err) => self.reply(tag, Err(err))?,
                    // Admin commands touch the filesystem (or, for
                    // `trace`, dump other clients' request summaries);
                    // refused unless this listener opted in.
                    Ok((request, _)) if request.is_admin() && !self.config.admin => {
                        self.reply(tag, Err(ServeError::AdminDisabled))?;
                    }
                    Ok((request, options)) => self.submit(request, trace, options, tag)?,
                }
            }
            Payload::Outcome { actual_us } => {
                // The frame's own request id names the prediction being
                // reported on — the engine joins it against the pending
                // ring. Never fatal: an unmatched report is counted, and
                // the client gets an `ok outcome=orphaned` line back.
                let mut trace = make_trace();
                trace.mark(Stage::Parse);
                let id = request.request_id;
                let observe = Request::Observe { id, actual_us };
                self.submit(observe, trace, RequestOptions::default(), tag)?;
            }
            Payload::Prediction { .. } | Payload::LineReply(_) | Payload::Error { .. } => {
                let err = ServeError::Malformed("reply opcode in a request frame".into());
                self.reply(tag, Err(err))?;
            }
        }
        Ok(true)
    }

    /// Submits a request to the engine with every id it names — a
    /// cancel target, an outcome join key, a hedge link — scoped to
    /// this connection, and routes the outcome to [`reply`](Self::reply).
    fn submit(
        &self,
        mut request: Request,
        trace: Trace,
        mut options: RequestOptions,
        tag: u64,
    ) -> io::Result<()> {
        if let Request::Cancel { id } | Request::Observe { id, .. } = &mut request {
            *id = namespaced(self.tag, *id);
        }
        options.hedge_of = options.hedge_of.map(|id| namespaced(self.tag, id));
        if let Some(tx) = &self.tagged {
            let submitted = self
                .service
                .submit_tagged(request, trace, options, tag, tx.clone());
            return submitted.or_else(|err| self.reply(tag, Err(err)));
        }
        let outcome = self
            .service
            .submit(request, trace, options)
            .and_then(|rx| rx.recv().unwrap_or(Err(ServeError::ShuttingDown)));
        self.reply(tag, outcome)
    }

    /// Answers one request: written here on text, handed to the writer
    /// thread on binary (a closed channel means the writer already
    /// failed fatally, and the reply has nowhere to go).
    fn reply(&self, tag: u64, outcome: Outcome) -> io::Result<()> {
        match &self.tagged {
            Some(tx) => {
                let _ = tx.send((tag, outcome));
                Ok(())
            }
            None => write_reply(Codec::Text, self.writer, tag, outcome, self.service),
        }
    }
}

/// Starts a binary connection's writer thread, which forwards engine
/// outcomes as reply frames in completion order; returns its channel.
fn spawn_writer<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    writer: &'env TcpStream,
    service: &'env PredictionService,
) -> mpsc::Sender<(u64, Outcome)> {
    let (tx, rx) = mpsc::channel::<(u64, Outcome)>();
    scope.spawn(move || {
        for (tag, outcome) in rx {
            // A failed or timed-out write is fatal to the connection
            // (the frame would be torn anyway): stop forwarding and let
            // the remaining replies drain into the closed channel.
            if write_reply(Codec::Binary, writer, tag, outcome, service).is_err() {
                return;
            }
        }
    });
    tx
}

/// Writes one reply in `codec` and records its `ReplyWrite` span. The
/// engine saw the connection-namespaced tag; the client gets its own
/// wire id back.
fn write_reply(
    codec: Codec,
    mut writer: &TcpStream,
    tag: u64,
    outcome: Outcome,
    service: &PredictionService,
) -> io::Result<()> {
    // Fault site `stall_reply_write`: the injected pause sits *inside*
    // the reply-write span, so stalled writes show up in the stage
    // histogram exactly like a congested socket would.
    let write_started = Instant::now();
    if let Some(delay) = service
        .faults()
        .fire_delay(FaultSite::StallReplyWrite, None)
    {
        thread::sleep(delay);
    }
    // Fault sites `drop_reply` (the frame vanishes, as if a proxy ate
    // it) and `dup_reply` (delivered twice, as if a retransmit
    // survived) are binary-only: a binary client recovers through its
    // timeout/hedge machinery and discards a duplicate as a stale id,
    // but a text reply carries no id to tell a duplicate by.
    let copies = match codec {
        Codec::Text => 1,
        Codec::Binary if service.faults().fire(FaultSite::DropReply, None) => return Ok(()),
        Codec::Binary if service.faults().fire(FaultSite::DupReply, None) => 2,
        Codec::Binary => 1,
    };
    let bytes = codec.encode(tag & WIRE_ID_MASK, outcome);
    for _ in 0..copies {
        writer.write_all(&bytes)?;
    }
    writer.flush()?;
    // The engine consumed the per-request trace when it finished the
    // job, so the write span lands in the global stage histogram only.
    service.record_stage(Stage::ReplyWrite, write_started.elapsed());
    Ok(())
}

/// Maps an engine outcome to its binary reply frame. Predictions ride
/// the compact fixed layout (raw `f64` bits); every other success is
/// the text protocol's reply line framed verbatim; errors carry a
/// stable numeric code next to the message the text protocol would
/// have sent after `err `.
fn reply_frame(request_id: u64, outcome: Outcome) -> Frame {
    let payload = match outcome {
        Ok(Reply::Prediction { model, predicted_s }) => Payload::Prediction { model, predicted_s },
        Ok(reply) => Payload::LineReply(format_outcome(&Ok(reply))),
        Err(err) => Payload::Error {
            code: frame::code_of(&err),
            message: err.to_string(),
        },
    };
    Frame::new(request_id, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Request, ServiceConfig};
    use crate::metrics::Priority;
    use crate::testutil;
    use bagpred_core::Platforms;
    use std::io::BufRead;
    use std::sync::mpsc;

    fn start() -> (Server, Arc<PredictionService>) {
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
        (server, service)
    }

    fn roundtrip(addr: std::net::SocketAddr, lines: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut replies = Vec::new();
        for line in lines {
            writer.write_all(line.as_bytes()).expect("writes");
            writer.write_all(b"\n").expect("writes");
            writer.flush().expect("flushes");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reads");
            replies.push(reply.trim_end().to_string());
        }
        replies
    }

    #[test]
    fn answers_predict_stats_and_models_over_tcp() {
        let (mut server, service) = start();
        let replies = roundtrip(
            server.local_addr(),
            &["predict SIFT@20+KNN@40", "stats", "models"],
        );
        assert!(replies[0].starts_with("ok model="), "{}", replies[0]);
        assert!(replies[0].contains("predicted_s="), "{}", replies[0]);
        assert!(replies[1].starts_with("ok requests="), "{}", replies[1]);
        assert!(replies[2].starts_with("ok models=2"), "{}", replies[2]);
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn malformed_lines_get_err_replies_and_connection_survives() {
        let (mut server, service) = start();
        let replies = roundtrip(
            server.local_addr(),
            &["predict SIFT@20", "bogus", "predict SIFT@20+KNN@40"],
        );
        assert!(replies[0].starts_with("err bad request"), "{}", replies[0]);
        assert!(replies[1].starts_with("err bad request"), "{}", replies[1]);
        assert!(replies[2].starts_with("ok "), "{}", replies[2]);
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn served_line_matches_in_process_call_byte_for_byte() {
        let (mut server, service) = start();
        let wire = roundtrip(
            server.local_addr(),
            &["predict model=pair-tree HOG@20+FAST@80"],
        )
        .remove(0);
        let direct = format_outcome(&service.call(Request::Predict {
            model: Some("pair-tree".into()),
            apps: vec![
                bagpred_workloads::Workload::new(bagpred_workloads::Benchmark::Hog, 20),
                bagpred_workloads::Workload::new(bagpred_workloads::Benchmark::Fast, 80),
            ],
        }));
        assert_eq!(wire, direct);
        server.shutdown();
        service.shutdown();
    }

    /// Runs `shutdown` under a watchdog so a regression hangs the test
    /// with a clear message instead of wedging the whole test binary.
    fn shutdown_within(mut server: Server, limit: Duration) -> Server {
        let (tx, rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            server.shutdown();
            tx.send(()).expect("watchdog receiver alive");
            server
        });
        rx.recv_timeout(limit).expect("shutdown must not hang");
        handle.join().expect("shutdown thread finishes")
    }

    #[test]
    fn shutdown_wakes_the_accept_loop_on_a_wildcard_bind() {
        // Binding 0.0.0.0 used to hang shutdown: the wake-up connection
        // targeted the unconnectable bound address, so the accept loop
        // never woke and `join` blocked forever.
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        let server = Server::bind("0.0.0.0:0", Arc::clone(&service)).expect("binds wildcard");
        shutdown_within(server, Duration::from_secs(10));
        service.shutdown();
    }

    #[test]
    fn half_open_connections_do_not_block_shutdown() {
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        let server = Server::bind_with(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerConfig {
                read_timeout: Duration::from_millis(25),
                ..ServerConfig::default()
            },
        )
        .expect("binds");

        // A client that connects and never sends a byte: before read
        // timeouts its thread sat in `read` forever.
        let idle = TcpStream::connect(server.local_addr()).expect("connects");
        // Wait until the connection thread is registered.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.active_connections() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "connection never registered"
            );
            thread::sleep(Duration::from_millis(5));
        }

        let server = shutdown_within(server, Duration::from_secs(10));
        assert_eq!(
            server.active_connections(),
            0,
            "drain must join every connection thread"
        );

        // The idle client observes a clean EOF, not a hang.
        idle.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("sets timeout");
        let mut reader = BufReader::new(idle);
        let mut buf = String::new();
        assert_eq!(reader.read_line(&mut buf).expect("reads EOF"), 0);
        service.shutdown();
    }

    #[test]
    fn slow_senders_are_not_corrupted_by_read_timeouts() {
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        let mut server = Server::bind_with(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerConfig {
                read_timeout: Duration::from_millis(25),
                ..ServerConfig::default()
            },
        )
        .expect("binds");

        // Dribble one request across several read timeouts: the partial
        // line must survive each timeout intact.
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        for chunk in ["pre", "dict SIF", "T@20+K", "NN@40\n"] {
            writer.write_all(chunk.as_bytes()).expect("writes");
            writer.flush().expect("flushes");
            thread::sleep(Duration::from_millis(60));
        }
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reads");
        assert!(reply.starts_with("ok model="), "{reply}");
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn multibyte_utf8_split_across_a_read_timeout_survives_intact() {
        // A read timeout that fires between the two bytes of `é` used to
        // lose the partial line: `read_line`'s UTF-8 guard dropped the
        // incomplete tail. The byte-level reader must hand the parser
        // the full `café` so the error names it verbatim.
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        let mut server = Server::bind_with(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerConfig {
                read_timeout: Duration::from_millis(25),
                ..ServerConfig::default()
            },
        )
        .expect("binds");

        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"predict caf\xC3").expect("writes");
        writer.flush().expect("flushes");
        thread::sleep(Duration::from_millis(80)); // several timeouts fire
        writer.write_all(b"\xA9@20+KNN@40\n").expect("writes");
        writer.flush().expect("flushes");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reads");
        assert!(
            reply.contains("unknown benchmark `café`"),
            "split multi-byte char must survive the timeout: {reply:?}"
        );
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn invalid_utf8_gets_an_err_reply_and_the_connection_survives() {
        let (mut server, service) = start();
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"\xFF\xFE nonsense\n").expect("writes");
        writer
            .write_all(b"predict SIFT@20+KNN@40\n")
            .expect("writes");
        writer.flush().expect("flushes");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reads");
        assert!(
            reply.starts_with("err bad request: request is not valid UTF-8"),
            "{reply:?}"
        );
        reply.clear();
        reader.read_line(&mut reply).expect("reads");
        assert!(reply.starts_with("ok model="), "{reply:?}");
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn admin_commands_are_refused_unless_the_listener_opted_in() {
        // Default listener: no admin. The engine never sees the command
        // — no file is read or written, the queue is never entered.
        let (mut server, service) = start();
        let replies = roundtrip(
            server.local_addr(),
            &[
                "load model=x path=x.bagsnap",
                "save",
                "reload model=pair-tree",
                "predict SIFT@20+KNN@40", // non-admin traffic unaffected
            ],
        );
        for admin_reply in &replies[..3] {
            assert!(
                admin_reply.starts_with("err admin disabled"),
                "{admin_reply}"
            );
        }
        assert!(replies[3].starts_with("ok model="), "{}", replies[3]);
        server.shutdown();

        // Opt-in listener: the command reaches the engine (which still
        // demands a snapshot dir before touching the filesystem).
        let mut server = Server::bind_with(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerConfig {
                admin: true,
                ..ServerConfig::default()
            },
        )
        .expect("binds");
        let reply = roundtrip(server.local_addr(), &["save"]).remove(0);
        assert!(
            reply.starts_with("err bad request: no snapshot dir configured"),
            "{reply}"
        );
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn wire_requests_record_parse_and_reply_write_stages() {
        let (mut server, service) = start();
        let replies = roundtrip(
            server.local_addr(),
            &["predict SIFT@20+KNN@40", "predict HOG@20+FAST@80"],
        );
        assert!(replies.iter().all(|r| r.starts_with("ok model=")));
        // The reply-write span is recorded after the write the client
        // already read; joining the connection threads orders it first.
        server.shutdown();
        // Only the TCP front-end marks these stages; two wire requests
        // mean two parse samples and two reply-write samples.
        assert_eq!(service.stages().stage(Stage::Parse).count(), 2);
        assert_eq!(service.stages().stage(Stage::ReplyWrite).count(), 2);
        assert_eq!(service.stages().stage(Stage::QueueWait).count(), 2);
        service.shutdown();
    }

    #[test]
    fn metrics_listener_answers_http_scrapes_with_the_exposition() {
        let (mut server, service) = start();
        let _ = roundtrip(server.local_addr(), &["predict SIFT@20+KNN@40"]);
        let mut metrics = MetricsServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");

        let mut stream = TcpStream::connect(metrics.local_addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("sets timeout");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .expect("writes");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reads");

        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        let (head, body) = response.split_once("\r\n\r\n").expect("has blank line");
        assert!(
            head.contains(&format!("Content-Length: {}", body.len())),
            "{head}"
        );
        assert!(body.contains("bagpred_requests_received_total 1"), "{body}");
        assert!(body.ends_with("# EOF\n"), "{body}");

        metrics.shutdown();
        metrics.shutdown(); // idempotent
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn non_reading_pipelining_client_cannot_block_shutdown() {
        // A client that floods requests and never reads replies: once
        // the socket buffers fill, the connection thread blocks in
        // `write_all` — without a write timeout it would never re-check
        // the stop flag and drain would join it forever.
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig::default(),
        );
        let server = Server::bind_with(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerConfig {
                read_timeout: Duration::from_millis(25),
                write_timeout: Duration::from_millis(100),
                admin: false,
            },
        )
        .expect("binds");

        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        stream
            .set_write_timeout(Some(Duration::from_millis(250)))
            .expect("sets timeout");
        let flooder = thread::spawn(move || {
            // ~30k pipelined stats requests (~250-byte replies) — far
            // more reply bytes than default socket buffers hold. The
            // client's own sends may start failing once the server
            // stops reading; that is part of the scenario.
            let burst = b"stats\n".repeat(1_000);
            for _ in 0..30 {
                let mut w: &TcpStream = &stream;
                if w.write_all(&burst).is_err() {
                    break;
                }
            }
            stream // keep the socket open (never read) until joined
        });

        thread::sleep(Duration::from_millis(300)); // let buffers fill
        let server = shutdown_within(server, Duration::from_secs(10));
        assert_eq!(
            server.active_connections(),
            0,
            "drain must not hang on a non-reading client"
        );
        drop(flooder.join());
        service.shutdown();
    }

    // --- binary framing over the same listener ---

    fn send_frame(writer: &mut impl Write, f: &Frame) {
        writer.write_all(&frame::encode(f)).expect("writes frame");
        writer.flush().expect("flushes frame");
    }

    fn read_frame(reader: &mut impl Read) -> Frame {
        let mut prelude = [0u8; frame::PRELUDE_LEN];
        reader.read_exact(&mut prelude).expect("reads prelude");
        let len = frame::decode_prelude(&prelude).expect("valid reply prelude");
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).expect("reads body");
        frame::decode_body(&body).expect("valid reply body")
    }

    fn pair_apps() -> Vec<bagpred_workloads::Workload> {
        vec![
            bagpred_workloads::Workload::new(bagpred_workloads::Benchmark::Sift, 20),
            bagpred_workloads::Workload::new(bagpred_workloads::Benchmark::Knn, 40),
        ]
    }

    #[test]
    fn binary_connections_are_detected_from_the_first_byte() {
        let (mut server, service) = start();
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        send_frame(
            &mut writer,
            &Frame::new(
                7,
                Payload::Predict {
                    model: None,
                    apps: pair_apps(),
                    deadline: None,
                    priority: Priority::Normal,
                    hedge_of: None,
                },
            ),
        );
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 7);
        let Payload::Prediction { model, predicted_s } = reply.payload else {
            panic!("expected a prediction frame, got {:?}", reply.payload);
        };
        // Bit-identical to the in-process call: the wire carries raw
        // f64 bits, not a decimal rendering.
        let Ok(Reply::Prediction {
            model: direct_model,
            predicted_s: direct_s,
        }) = service.call(Request::Predict {
            model: None,
            apps: pair_apps(),
        })
        else {
            panic!("direct call must predict");
        };
        assert_eq!(model, direct_model);
        assert_eq!(predicted_s.to_bits(), direct_s.to_bits());
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn hello_line_upgrades_a_text_connection_to_binary() {
        let (mut server, service) = start();
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        // Plain text first: this connection started on the line protocol.
        writer
            .write_all(b"predict SIFT@20+KNN@40\n")
            .expect("writes");
        writer.flush().expect("flushes");
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        assert!(line.starts_with("ok model="), "{line}");
        // Negotiate, then speak frames on the very same connection.
        writer
            .write_all(format!("{}\n", frame::HELLO_BINARY).as_bytes())
            .expect("writes hello");
        writer.flush().expect("flushes");
        line.clear();
        reader.read_line(&mut line).expect("reads ack");
        assert_eq!(line.trim_end(), frame::HELLO_BINARY_OK);
        send_frame(&mut writer, &Frame::new(3, Payload::Line("stats".into())));
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 3);
        let Payload::LineReply(text) = reply.payload else {
            panic!("expected a line reply, got {:?}", reply.payload);
        };
        assert!(text.starts_with("ok requests="), "{text}");
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn binary_replies_come_back_in_completion_order_not_submission_order() {
        // Model A (pair-tree) is slowed by an injected fault; model B
        // (nbag-tree) is fast. Submitted A-then-B on one connection,
        // the replies must arrive B-then-A: per-model shards keep B's
        // queue moving and the tagged reply channel lets the fast reply
        // overtake instead of head-of-line-blocking behind A.
        let service = PredictionService::start(
            testutil::registry(),
            Platforms::paper(),
            ServiceConfig {
                faults: Arc::new(
                    crate::fault::FaultPlan::parse("slow_predict:model=pair-tree:count=1:ms=400")
                        .expect("parses"),
                ),
                ..ServiceConfig::default()
            },
        );
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        for (id, model) in [(1u64, "pair-tree"), (2u64, "nbag-tree")] {
            send_frame(
                &mut writer,
                &Frame::new(
                    id,
                    Payload::Predict {
                        model: Some(model.into()),
                        apps: pair_apps(),
                        deadline: None,
                        priority: Priority::Normal,
                        hedge_of: None,
                    },
                ),
            );
        }
        let first = read_frame(&mut reader);
        let second = read_frame(&mut reader);
        assert_eq!(
            (first.request_id, second.request_id),
            (2, 1),
            "the fast model's reply must overtake the slowed one"
        );
        assert!(matches!(first.payload, Payload::Prediction { .. }));
        assert!(matches!(second.payload, Payload::Prediction { .. }));
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn malformed_binary_bodies_get_an_error_frame_and_the_connection_survives() {
        let (mut server, service) = start();
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        // Hand-rolled garbage: valid prelude, unknown opcode 0xFF, but a
        // readable request id — the error frame must name it.
        let mut body = vec![0xFFu8];
        body.extend_from_slice(&99u64.to_le_bytes());
        body.extend_from_slice(&[0u8; 11]);
        let mut msg = Vec::new();
        msg.extend_from_slice(&frame::MAGIC);
        msg.push(frame::VERSION);
        msg.extend_from_slice(&(body.len() as u32).to_le_bytes());
        msg.extend_from_slice(&body);
        writer.write_all(&msg).expect("writes garbage");
        writer.flush().expect("flushes");
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 99);
        let Payload::Error { code, message } = reply.payload else {
            panic!("expected an error frame, got {:?}", reply.payload);
        };
        assert_eq!(code, frame::error_code::MALFORMED);
        assert!(message.contains("unknown opcode"), "{message}");
        // The connection survives: a well-formed request still answers.
        send_frame(
            &mut writer,
            &Frame::new(
                5,
                Payload::Predict {
                    model: None,
                    apps: pair_apps(),
                    deadline: None,
                    priority: Priority::Normal,
                    hedge_of: None,
                },
            ),
        );
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 5);
        assert!(matches!(reply.payload, Payload::Prediction { .. }));
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn an_overlong_text_line_gets_one_error_then_eof() {
        let (mut server, service) = start();
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        // Twice the bound with no newline. The server stops reading at
        // the bound, so the tail may meet a closed socket: the write's
        // result is not the point.
        let sender = thread::spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 2 * frame::MAX_BODY]);
        });
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reads the reply");
        assert_eq!(reply, "err bad request: line too long\n");
        let mut byte = [0u8; 1];
        assert_eq!(reader.read(&mut byte).expect("clean EOF"), 0);
        sender.join().expect("sender finishes");
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn a_bad_binary_prelude_gets_one_error_frame_then_eof() {
        let (mut server, service) = start();
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        // First byte matches the magic (routing the connection to the
        // binary loop), second does not: no frame boundary can be
        // recovered, so the server answers once and closes.
        writer
            .write_all(&[frame::MAGIC[0], 0x00, frame::VERSION, 0, 0, 0, 0])
            .expect("writes");
        writer.flush().expect("flushes");
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 0);
        let Payload::Error { code, message } = reply.payload else {
            panic!("expected an error frame, got {:?}", reply.payload);
        };
        assert_eq!(code, frame::error_code::MALFORMED);
        assert!(message.contains("bad magic"), "{message}");
        let mut byte = [0u8; 1];
        assert_eq!(reader.read(&mut byte).expect("clean EOF"), 0);
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn binary_cancel_opcode_answers_inline_and_late_after_the_reply() {
        let (mut server, service) = start();
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        send_frame(
            &mut writer,
            &Frame::new(
                7,
                Payload::Predict {
                    model: None,
                    apps: pair_apps(),
                    deadline: None,
                    priority: Priority::High,
                    hedge_of: None,
                },
            ),
        );
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 7);
        assert!(matches!(reply.payload, Payload::Prediction { .. }));
        // The target already answered: its cancel must come back late,
        // and must answer inline even though the id is long gone.
        send_frame(&mut writer, &Frame::new(8, Payload::Cancel { target: 7 }));
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 8);
        let Payload::LineReply(text) = reply.payload else {
            panic!("expected a line reply, got {:?}", reply.payload);
        };
        assert_eq!(text, "ok cancel=late");
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn binary_admin_commands_are_refused_unless_the_listener_opted_in() {
        let (mut server, service) = start();
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        send_frame(&mut writer, &Frame::new(11, Payload::Line("save".into())));
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 11);
        let Payload::Error { code, .. } = reply.payload else {
            panic!("expected an error frame, got {:?}", reply.payload);
        };
        assert_eq!(code, frame::error_code::ADMIN_DISABLED);
        server.shutdown();
        service.shutdown();
    }

    // --- one request path: id scoping and dialect parity ---

    /// Sends a pair-tree predict as binary request 7 behind a pinned
    /// worker and waits until it sits in the shard queue.
    fn queue_victim(service: &PredictionService, writer: &mut impl Write) {
        let victim = Payload::Predict {
            model: Some(crate::bootstrap::PAIR_MODEL.into()),
            apps: pair_apps(),
            deadline: None,
            priority: Priority::Normal,
            hedge_of: None,
        };
        send_frame(writer, &Frame::new(7, victim));
        let deadline = Instant::now() + Duration::from_secs(5);
        while crate::observe::StatsReport::read(service.inner()).count("queue_depth") == 0 {
            assert!(Instant::now() < deadline, "victim never queued");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn text_cancel_and_observe_cannot_reach_another_connections_request() {
        let service = testutil::pinnable_service(400, 64);
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
        let blocker = testutil::pin_worker(&service);
        let first_tag = CONN_SEQ.load(Ordering::Relaxed);
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        queue_victim(&service, &mut writer);
        // The victim's connection drew its namespace from this range
        // (other tests' connections may widen it); a text client naming
        // the victim's engine-side id under any of them must still reach
        // only its own requests.
        let guesses: Vec<u64> = (first_tag..CONN_SEQ.load(Ordering::Relaxed))
            .map(|tag| namespaced(tag, 7))
            .collect();
        let cancels: Vec<String> = guesses.iter().map(|id| format!("cancel id={id}")).collect();
        let cancels: Vec<&str> = cancels.iter().map(String::as_str).collect();
        for reply in roundtrip(server.local_addr(), &cancels) {
            assert_eq!(reply, "ok cancel=late");
        }
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 7);
        assert!(
            matches!(reply.payload, Payload::Prediction { .. }),
            "the victim must be served: {:?}",
            reply.payload
        );
        blocker.recv().expect("blocker answers").expect("predicts");
        // Nor can the text client consume the victim's outcome join key.
        let observes: Vec<String> = guesses
            .iter()
            .map(|id| format!("observe id={id} actual_us=1000"))
            .collect();
        let observes: Vec<&str> = observes.iter().map(String::as_str).collect();
        for reply in roundtrip(server.local_addr(), &observes) {
            assert_eq!(reply, "ok outcome=orphaned");
        }
        send_frame(
            &mut writer,
            &Frame::new(7, Payload::Outcome { actual_us: 1000 }),
        );
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 7);
        assert_eq!(
            reply.payload,
            Payload::LineReply("ok outcome=matched".into())
        );
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn binary_line_cancel_reaches_the_same_connections_queued_request() {
        let service = testutil::pinnable_service(400, 64);
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
        let blocker = testutil::pin_worker(&service);
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        queue_victim(&service, &mut writer);
        send_frame(
            &mut writer,
            &Frame::new(8, Payload::Line("cancel id=7".into())),
        );
        let replies: HashMap<u64, Payload> = (0..2)
            .map(|_| {
                let reply = read_frame(&mut reader);
                (reply.request_id, reply.payload)
            })
            .collect();
        assert_eq!(
            replies[&8],
            Payload::LineReply("ok cancel=pending".into()),
            "the line verb must name this connection's request 7"
        );
        let Payload::Error { code, .. } = &replies[&7] else {
            panic!("expected the victim's error frame, got {:?}", replies[&7]);
        };
        assert_eq!(*code, frame::error_code::CANCELLED);
        blocker.recv().expect("blocker answers").expect("predicts");
        server.shutdown();
        service.shutdown();
    }

    #[test]
    fn text_lines_and_binary_line_frames_get_byte_identical_replies() {
        let (mut server, service) = start();
        let script = [
            "predict SIFT@20+KNN@40",
            "predict SIFT@20+KNN@40+HOG@80",
            "models",
            "health",
            "predict SIFT@20",
            "save",
        ];

        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut text_replies = Vec::new();
        for line in script {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("writes");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reads");
            text_replies.push(reply.trim_end().to_string());
        }
        // A blank text line is skipped without a reply.
        writer.write_all(b"\nmodels\n").expect("writes");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reads");
        assert_eq!(reply.trim_end(), text_replies[2]);
        writer.write_all(b"quit\n").expect("writes");
        reply.clear();
        assert_eq!(reader.read_line(&mut reply).expect("reads EOF"), 0);
        // Text submissions are untagged: none waits in the outcome ring.
        let stats = roundtrip(server.local_addr(), &["stats"]).remove(0);
        assert!(stats.contains(" outcomes_pending=0 "), "{stats}");

        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut binary_replies = Vec::new();
        for (id, line) in (1u64..).zip(script) {
            send_frame(&mut writer, &Frame::new(id, Payload::Line(line.into())));
            let reply = read_frame(&mut reader);
            assert_eq!(reply.request_id, id);
            binary_replies.push(crate::client::render_reply(reply.payload));
        }
        assert_eq!(text_replies, binary_replies);
        assert!(
            text_replies[0].starts_with("ok model=pair-tree"),
            "{text_replies:?}"
        );
        assert!(
            text_replies[1].starts_with("ok model=nbag-tree"),
            "{text_replies:?}"
        );
        assert!(
            text_replies[4].starts_with("err bad request"),
            "{text_replies:?}"
        );
        assert!(
            text_replies[5].starts_with("err admin disabled"),
            "{text_replies:?}"
        );
        // An empty line frame, unlike a blank text line, is answered.
        send_frame(&mut writer, &Frame::new(9, Payload::Line(String::new())));
        let reply = read_frame(&mut reader);
        assert_eq!(reply.request_id, 9);
        assert_eq!(
            crate::client::render_reply(reply.payload),
            "err bad request: empty request"
        );
        send_frame(&mut writer, &Frame::new(10, Payload::Line("quit".into())));
        let mut byte = [0u8; 1];
        assert_eq!(reader.read(&mut byte).expect("clean EOF"), 0);
        server.shutdown();
        service.shutdown();
    }
}
