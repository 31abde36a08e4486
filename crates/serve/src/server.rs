//! `epicd`: the job service as a single-threaded event loop over
//! nonblocking sockets.
//!
//! There are no per-connection OS threads. One loop thread owns the
//! listener and every connection, and multiplexes them with a
//! hand-rolled readiness sweep (std has no `poll(2)`, so readiness is
//! discovered by attempting nonblocking I/O):
//!
//! * **Connections** are [`Conn`] state machines — reading-length →
//!   reading-body → dispatching → writing — driven by an incremental
//!   [`FrameDecoder`](proto::FrameDecoder) whose buffers (and the
//!   connection's write buffer) are reused across frames: steady-state
//!   framing allocates nothing, and responses go out as one vectored
//!   write of header + body.
//! * **Submits never block the loop.** A pending job parks the
//!   *connection* (state `AwaitJob`), not a thread: a completion hook
//!   ([`Ticket::on_complete`](crate::sched::Ticket::on_complete))
//!   enqueues the result and wakes the loop, which writes the response.
//!   Thousands of in-flight submits cost one loop thread.
//! * **Wakeup token** — a loopback `TcpStream` pair (the std-only
//!   self-pipe): when the loop has nothing to do it parks in a blocking
//!   read (with a short timeout as the readiness-poll backstop) on the
//!   receive end; job completions and [`ServerHandle::stop`] write one
//!   byte to the send end to wake it immediately.
//! * **Admission control** — a max-connections cap (over-cap peers get a
//!   typed error frame and a close) and a per-connection idle timeout
//!   (quiet connections are reaped). `serve.conns` (gauge),
//!   `serve.conns.rejected` / `serve.conns.reaped` (counters),
//!   `serve.poll.wait_us` / `serve.frame.bytes` / `serve.submit.e2e_us`
//!   (histograms) land in the process-wide registry for `epicc top`.
//!
//! A malformed frame (hostile length, truncated body, transport error)
//! closes — and a garbage verb merely errors — *that* connection; every
//! other connection keeps being served.

use crate::key::JobSpec;
use crate::proto::{self, FrameError, FrameEvent, Request, Response, ServeStats};
use crate::sched::{JobError, Priority, Scheduler, SubmitError};
use epic_driver::Measurement;
use epic_trace::{Counter, Gauge, Histogram};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning for the event loop.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Admission cap: connections over this are answered with a typed
    /// error frame and closed.
    pub max_conns: usize,
    /// Connections idle (no frame activity, not awaiting a job) longer
    /// than this are reaped.
    pub idle_timeout: Duration,
    /// Stable shard identity reported in [`ServeStats`] (0 for a
    /// standalone daemon; a fleet assigns distinct non-zero ids).
    pub shard_id: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_conns: 1024,
            idle_timeout: Duration::from_secs(60),
            shard_id: 0,
        }
    }
}

/// Longest the loop parks between readiness sweeps when nothing is
/// happening (the wake socket's read timeout); wakeups cut a park short.
const PARK: Duration = Duration::from_millis(5);

/// The std-only self-pipe: completions (from worker threads) and
/// [`ServerHandle::stop`] wake the parked loop by writing one byte to a
/// loopback socket. `armed` keeps at most one byte in flight.
struct Waker {
    tx: Mutex<TcpStream>,
    armed: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            let _ = self.tx.lock().expect("waker").write(&[1u8]);
        }
    }
}

/// Loopback socket pair (receive end, send end) — std has no
/// `pipe(2)`, so the wakeup token is a TCP connection to ourselves.
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    tx.set_nodelay(true)?;
    let (rx, _) = listener.accept()?;
    rx.set_read_timeout(Some(PARK))?;
    rx.set_nonblocking(true)?;
    Ok((rx, tx))
}

/// A finished (or failed) submit waiting for the loop to write its
/// response. `gen` guards against the slot having been recycled while
/// the job ran.
struct Completion {
    slot: usize,
    gen: u64,
    key: crate::key::CacheKey,
    cache_hit: bool,
    coalesced: bool,
    result: Result<Arc<Measurement>, JobError>,
}

/// Per-connection protocol state.
enum ConnState {
    /// Reading a frame (length prefix or body) through the decoder.
    Reading,
    /// A submit is in flight; the connection reads nothing until the
    /// completion arrives (per-connection backpressure).
    AwaitJob,
    /// Flushing `out` (header + body, vectored).
    Writing,
}

struct Conn {
    stream: TcpStream,
    decoder: proto::FrameDecoder,
    state: ConnState,
    /// Response frame header (big-endian body length).
    header: [u8; 4],
    /// Response body; reused across frames (capacity retained).
    out: Vec<u8>,
    /// Bytes of header+body already written.
    out_sent: usize,
    /// Submit dispatch time, for the end-to-end latency histogram.
    submit_started: Option<Instant>,
    last_activity: Instant,
    gen: u64,
    close_after_write: bool,
    shutdown_after_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Conn {
        Conn {
            stream,
            decoder: proto::FrameDecoder::new(),
            state: ConnState::Reading,
            header: [0; 4],
            out: Vec::new(),
            out_sent: 0,
            submit_started: None,
            last_activity: Instant::now(),
            gen,
            close_after_write: false,
            shutdown_after_write: false,
        }
    }

    /// Stage `resp` as the next outgoing frame and enter `Writing`.
    fn stage_response(&mut self, resp: &Response) {
        proto::encode_response_into(resp, &mut self.out);
        self.header = (self.out.len() as u32).to_be_bytes();
        self.out_sent = 0;
        self.state = ConnState::Writing;
    }

    /// Push staged bytes out as far as the socket allows (vectored
    /// header+body). Returns `Ok(true)` when the frame is fully flushed.
    fn write_progress(&mut self) -> std::io::Result<bool> {
        let total = 4 + self.out.len();
        while self.out_sent < total {
            let hdr = &self.header[self.out_sent.min(4)..];
            let body = &self.out[self.out_sent.saturating_sub(4)..];
            let bufs = [IoSlice::new(hdr), IoSlice::new(body)];
            match self.stream.write_vectored(&bufs) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes mid-frame",
                    ))
                }
                Ok(n) => self.out_sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// Event-loop handles into the process-wide metrics registry.
struct LoopMetrics {
    conns: Gauge,
    conns_rejected: Counter,
    conns_reaped: Counter,
    frame_errors: Counter,
    bad_requests: Counter,
    replicated: Counter,
    poll_wait_us: Histogram,
    frame_bytes: Histogram,
    submit_e2e_us: Histogram,
}

impl LoopMetrics {
    fn new() -> LoopMetrics {
        let g = epic_trace::global();
        LoopMetrics {
            conns: g.gauge("serve.conns"),
            conns_rejected: g.counter("serve.conns.rejected"),
            conns_reaped: g.counter("serve.conns.reaped"),
            frame_errors: g.counter("serve.frame.errors"),
            bad_requests: g.counter("serve.requests.bad"),
            replicated: g.counter("serve.replicated"),
            poll_wait_us: g.histogram("serve.poll.wait_us"),
            frame_bytes: g.histogram("serve.frame.bytes"),
            submit_e2e_us: g.histogram("serve.submit.e2e_us"),
        }
    }
}

/// A running server; dropping it (or calling [`stop`](ServerHandle::stop))
/// shuts the service down and joins the loop thread.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    sched: Arc<Scheduler>,
    shard_id: u64,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The scheduler behind the server.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Aggregate statistics (same data the `stats` verb serves).
    pub fn stats(&self) -> ServeStats {
        let (compiles, sims) = self.sched.work_counts();
        ServeStats {
            store: self.sched.store().stats(),
            sched: self.sched.stats(),
            compiles,
            sims,
            shard_id: self.shard_id,
        }
    }

    /// Stop the loop, close every connection, drain the scheduler.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        self.sched.shutdown();
    }

    /// Block until the loop exits (a client sent `Shutdown`).
    pub fn wait(&mut self) {
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        self.sched.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `listen_addr` (e.g. `127.0.0.1:0`) and serve `sched` on it with
/// default [`ServerConfig`].
///
/// # Errors
/// Bind failures.
pub fn serve(listen_addr: &str, sched: Arc<Scheduler>) -> std::io::Result<ServerHandle> {
    serve_with(listen_addr, sched, ServerConfig::default())
}

/// [`serve`] with explicit event-loop tuning.
///
/// # Errors
/// Bind failures.
pub fn serve_with(
    listen_addr: &str,
    sched: Arc<Scheduler>,
    cfg: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(listen_addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = wake_pair()?;
    let stop = Arc::new(AtomicBool::new(false));
    let waker = Arc::new(Waker {
        tx: Mutex::new(wake_tx),
        armed: AtomicBool::new(false),
    });
    let mut el = EventLoop {
        listener,
        sched: Arc::clone(&sched),
        stop: Arc::clone(&stop),
        waker: Arc::clone(&waker),
        wake_rx,
        completions: Arc::new(Mutex::new(Vec::new())),
        cfg,
        metrics: LoopMetrics::new(),
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        next_gen: 0,
    };
    let shard_id = cfg.shard_id;
    let loop_thread = std::thread::Builder::new()
        .name("epicd-loop".to_string())
        .spawn(move || el.run())
        .expect("spawn event loop");
    Ok(ServerHandle {
        addr,
        stop,
        waker,
        loop_thread: Some(loop_thread),
        sched,
        shard_id,
    })
}

/// What pumping one connection concluded.
enum ConnOutcome {
    Keep,
    Close,
    /// `ShutdownOk` flushed: stop the whole server.
    Shutdown,
}

struct EventLoop {
    listener: TcpListener,
    sched: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    wake_rx: TcpStream,
    completions: Arc<Mutex<Vec<Completion>>>,
    cfg: ServerConfig,
    metrics: LoopMetrics,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u64,
}

impl EventLoop {
    fn run(&mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            let mut progress = false;
            progress |= self.drain_wake();
            progress |= self.drain_completions();
            progress |= self.accept_new();
            match self.pump_all() {
                (p, false) => progress |= p,
                (_, true) => break, // shutdown verb flushed
            }
            self.reap_idle();
            if !progress {
                self.park();
            }
        }
        // close every connection and report an empty house
        self.conns.clear();
        self.metrics.conns.set(0);
    }

    /// Consume pending wake bytes so the next park blocks.
    fn drain_wake(&mut self) -> bool {
        self.waker.armed.store(false, Ordering::SeqCst);
        let mut buf = [0u8; 64];
        let mut woke = false;
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => break, // peer half gone; parks will time out
                Ok(_) => woke = true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: drained
            }
        }
        woke
    }

    /// Park until woken or [`PARK`] elapses; the park duration
    /// is the `serve.poll.wait_us` histogram.
    fn park(&mut self) {
        let t0 = Instant::now();
        if self.wake_rx.set_nonblocking(false).is_ok() {
            let mut buf = [0u8; 8];
            match self.wake_rx.read(&mut buf) {
                Ok(n) if n > 0 => self.waker.armed.store(false, Ordering::SeqCst),
                _ => {} // timeout (WouldBlock/TimedOut), EOF, or error
            }
            let _ = self.wake_rx.set_nonblocking(true);
        } else {
            std::thread::sleep(PARK);
        }
        self.metrics
            .poll_wait_us
            .record(t0.elapsed().as_micros() as u64);
    }

    fn drain_completions(&mut self) -> bool {
        let done: Vec<Completion> = {
            let mut q = self.completions.lock().expect("completion queue");
            std::mem::take(&mut *q)
        };
        let mut progress = false;
        for c in done {
            let Some(conn) = self.conns.get_mut(c.slot).and_then(Option::as_mut) else {
                continue; // connection died while the job ran
            };
            if conn.gen != c.gen || !matches!(conn.state, ConnState::AwaitJob) {
                continue; // slot recycled
            }
            let resp = match c.result {
                Ok(m) => Response::Done {
                    key: c.key,
                    cache_hit: c.cache_hit,
                    coalesced: c.coalesced,
                    measurement: Box::new((*m).clone()),
                },
                Err(JobError::Expired) => Response::Err("deadline expired".to_string()),
                Err(e) => Response::Err(e.to_string()),
            };
            conn.stage_response(&resp);
            conn.last_activity = Instant::now();
            progress = true;
        }
        progress
    }

    fn accept_new(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if self.live >= self.cfg.max_conns {
                        self.reject(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.next_gen += 1;
                    let conn = Conn::new(stream, self.next_gen);
                    match self.free.pop() {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.live += 1;
                    self.metrics.conns.set(self.live as i64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        progress
    }

    /// Over-cap admission: best-effort typed error frame, then close.
    /// The frame is a few dozen bytes — it fits any send buffer, so a
    /// single nonblocking vectored write delivers it in practice.
    fn reject(&mut self, stream: TcpStream) {
        self.metrics.conns_rejected.inc();
        let _ = stream.set_nonblocking(true);
        let mut body = Vec::new();
        proto::encode_response_into(&Response::Err("server at capacity".to_string()), &mut body);
        let header = (body.len() as u32).to_be_bytes();
        let _ = (&stream).write_vectored(&[IoSlice::new(&header), IoSlice::new(&body)]);
    }

    /// Drive every connection's state machine. Returns
    /// `(progress, shutdown_requested)`.
    fn pump_all(&mut self) -> (bool, bool) {
        let mut progress = false;
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            let before = (conn.out_sent, conn.decoder.mid_frame());
            match self.pump_conn(slot, &mut conn) {
                ConnOutcome::Keep => {
                    progress |= (conn.out_sent, conn.decoder.mid_frame()) != before;
                    self.conns[slot] = Some(conn);
                }
                ConnOutcome::Close => {
                    progress = true;
                    drop(conn);
                    self.release_slot(slot);
                }
                ConnOutcome::Shutdown => {
                    drop(conn);
                    self.release_slot(slot);
                    return (true, true);
                }
            }
        }
        (progress, false)
    }

    fn release_slot(&mut self, slot: usize) {
        self.free.push(slot);
        self.live -= 1;
        self.metrics.conns.set(self.live as i64);
    }

    /// Advance one connection as far as it will go without blocking.
    /// Bounded to a handful of request/response cycles per sweep so one
    /// chatty peer cannot starve the rest.
    fn pump_conn(&mut self, slot: usize, conn: &mut Conn) -> ConnOutcome {
        for _ in 0..4 {
            match conn.state {
                ConnState::AwaitJob => return ConnOutcome::Keep,
                ConnState::Reading => match conn.decoder.read_from(&mut conn.stream) {
                    Ok(FrameEvent::Frame) => {
                        conn.last_activity = Instant::now();
                        self.metrics
                            .frame_bytes
                            .record(conn.decoder.frame().len() as u64);
                        self.dispatch(slot, conn);
                        conn.decoder.next_frame();
                    }
                    Ok(FrameEvent::Blocked) => return ConnOutcome::Keep,
                    Ok(FrameEvent::Closed) => return ConnOutcome::Close,
                    Err(FrameError::TooLarge { len }) => {
                        // typed refusal, then hang up — only this conn
                        self.metrics.frame_errors.inc();
                        conn.stage_response(&Response::Err(format!(
                            "frame length {len} exceeds cap"
                        )));
                        conn.close_after_write = true;
                    }
                    Err(_) => {
                        // truncated frame or transport error: the peer is
                        // gone or garbled; close without a response
                        self.metrics.frame_errors.inc();
                        return ConnOutcome::Close;
                    }
                },
                ConnState::Writing => match conn.write_progress() {
                    Ok(true) => {
                        conn.last_activity = Instant::now();
                        self.metrics.frame_bytes.record(conn.out.len() as u64);
                        if let Some(t0) = conn.submit_started.take() {
                            self.metrics
                                .submit_e2e_us
                                .record(t0.elapsed().as_micros() as u64);
                        }
                        if conn.shutdown_after_write {
                            self.stop.store(true, Ordering::SeqCst);
                            return ConnOutcome::Shutdown;
                        }
                        if conn.close_after_write {
                            return ConnOutcome::Close;
                        }
                        conn.out.clear();
                        conn.out_sent = 0;
                        conn.state = ConnState::Reading;
                    }
                    Ok(false) => return ConnOutcome::Keep,
                    Err(_) => return ConnOutcome::Close,
                },
            }
        }
        ConnOutcome::Keep
    }

    /// Execute one decoded frame. Immediate verbs stage their response
    /// here; a pending submit parks the connection until its completion
    /// hook fires.
    fn dispatch(&mut self, slot: usize, conn: &mut Conn) {
        let req = match proto::decode_request(conn.decoder.frame()) {
            Ok(req) => req,
            Err(e) => {
                // garbage verb / corrupt body: typed error response, the
                // connection itself survives
                self.metrics.bad_requests.inc();
                conn.stage_response(&Response::Err(format!("bad request: {e}")));
                return;
            }
        };
        match req {
            Request::Submit {
                spec,
                prio,
                deadline_ms,
            } => self.dispatch_submit(slot, conn, spec, prio, deadline_ms),
            Request::Status(key) => conn.stage_response(&Response::Status(self.sched.status(key))),
            Request::Result(key) => conn.stage_response(&Response::Result(
                self.sched
                    .store()
                    .lookup(key)
                    .map(|m| Box::new((*m).clone())),
            )),
            Request::Stats => {
                let (compiles, sims) = self.sched.work_counts();
                conn.stage_response(&Response::Stats(ServeStats {
                    store: self.sched.store().stats(),
                    sched: self.sched.stats(),
                    compiles,
                    sims,
                    shard_id: self.cfg.shard_id,
                }));
            }
            Request::Metrics => {
                conn.stage_response(&Response::Metrics(epic_trace::global().snapshot()));
            }
            Request::Put { key, measurement } => {
                // warm-cache replication: store without scheduling; the
                // content-addressed key makes repeats idempotent
                self.sched.store().insert(key, *measurement);
                self.metrics.replicated.inc();
                conn.stage_response(&Response::PutOk);
            }
            Request::Keys => {
                // key census for the rebalance engine: everything the
                // store can serve, memory and disk alike
                conn.stage_response(&Response::Keys(self.sched.store().keys()));
            }
            Request::Admin(_) => {
                // the control plane lives in the gateway; a shard
                // answers with a typed refusal rather than misrouting
                conn.stage_response(&Response::Err(
                    "admin verbs are gateway-only; this is a shard".to_string(),
                ));
            }
            Request::Shutdown => {
                conn.stage_response(&Response::ShutdownOk);
                conn.shutdown_after_write = true;
            }
        }
    }

    fn dispatch_submit(
        &mut self,
        slot: usize,
        conn: &mut Conn,
        spec: JobSpec,
        prio: Priority,
        deadline_ms: u64,
    ) {
        conn.submit_started = Some(Instant::now());
        let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
        match self.sched.submit(spec, prio, deadline) {
            Ok(ticket) => {
                let (key, cache_hit, coalesced) = (ticket.key, ticket.cache_hit, ticket.coalesced);
                // park the connection; the hook (run inline for instant
                // cache hits, else on the completing worker) enqueues the
                // result and wakes the loop
                conn.state = ConnState::AwaitJob;
                let completions = Arc::clone(&self.completions);
                let waker = Arc::clone(&self.waker);
                let gen = conn.gen;
                ticket.on_complete(move |result| {
                    completions
                        .lock()
                        .expect("completion queue")
                        .push(Completion {
                            slot,
                            gen,
                            key,
                            cache_hit,
                            coalesced,
                            result,
                        });
                    waker.wake();
                });
            }
            Err(SubmitError::Busy { queue_depth }) => {
                conn.stage_response(&Response::Busy { queue_depth });
            }
            Err(SubmitError::Shutdown) => {
                conn.stage_response(&Response::Err("server shutting down".to_string()));
            }
        }
    }

    /// Close connections that have been quiet past the idle timeout.
    /// Connections awaiting a job are never idle — a long compile is
    /// work, not silence.
    fn reap_idle(&mut self) {
        let timeout = self.cfg.idle_timeout;
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let reap = match &self.conns[slot] {
                Some(c) => {
                    !matches!(c.state, ConnState::AwaitJob)
                        && now.duration_since(c.last_activity) > timeout
                }
                None => false,
            };
            if reap {
                self.conns[slot] = None;
                self.release_slot(slot);
                self.metrics.conns_reaped.inc();
            }
        }
    }
}
