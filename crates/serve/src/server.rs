//! `epicd`: the job service as a single-threaded event loop over
//! nonblocking sockets.
//!
//! There are no per-connection OS threads. One loop thread owns the
//! listener and every connection, sweeps them with nonblocking I/O, and
//! between sweeps blocks in the shared readiness wait
//! ([`netloop::Poller`]) until a socket is ready, the earliest idle-reap
//! deadline passes, or the waker fires:
//!
//! * **Connections** are [`Conn`] state machines — reading-length →
//!   reading-body → dispatching → writing — driven by an incremental
//!   [`FrameDecoder`](proto::FrameDecoder) whose buffers (and the
//!   connection's write buffer) are reused across frames: steady-state
//!   framing allocates nothing, and responses go out as one vectored
//!   write of header + body. A reading connection is waited on for
//!   input, a writing one for output space.
//! * **A cache hit is answered in the turn that read it.** When
//!   [`Scheduler::submit`] hands back a
//!   [ready](crate::sched::Ticket::ready) ticket, the loop encodes the
//!   `Done` frame straight from the store's shared measurement and the
//!   same bounded pass of the connection writes it: one readiness wait
//!   per hit, no completion queue, no waker byte.
//! * **Other submits never block the loop.** A queued or coalesced job
//!   parks the *connection* (state `AwaitJob`), not a thread: a
//!   completion hook ([`Ticket::on_complete`](crate::sched::Ticket::on_complete))
//!   enqueues the result and wakes the loop through its
//!   [`Waker`](netloop::Waker), and the next turn writes the response.
//!   Thousands of in-flight submits cost one loop thread.
//! * **Admission control** — a max-connections cap (over-cap peers get a
//!   typed error frame and a close) and a per-connection idle timeout
//!   (quiet connections are reaped). `serve.conns` (gauge),
//!   `serve.conns.rejected` / `serve.conns.reaped` (counters),
//!   `serve.poll.wait_us` (time blocked in the readiness wait) /
//!   `serve.frame.bytes` / `serve.submit.e2e_us` (histograms) land in
//!   the process-wide registry for `epicc top`.
//!
//! A malformed frame (hostile length, truncated body, transport error)
//! closes — and a garbage verb merely errors — *that* connection; every
//! other connection keeps being served.

use crate::key::{CacheKey, JobSpec};
use crate::netloop::{self, Interest, Key, OutFrame, Outcome, Poller, Slab, Waker};
use crate::proto::{self, FrameError, FrameEvent, Request, Response, ServeStats};
use crate::sched::{JobError, Priority, Scheduler, SubmitError};
use epic_driver::Measurement;
use epic_trace::{Counter, Gauge, Histogram};
use std::net::{TcpListener, TcpStream};
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

/// A finished (or failed) submit waiting for the loop to write its
/// response. The slab key guards against the slot having been recycled
/// while the job ran.
struct Completion {
    conn: Key,
    key: CacheKey,
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
    /// Response frame; its body buffer is reused across frames.
    out: OutFrame,
    /// Submit dispatch time, for the end-to-end latency histogram.
    submit_started: Option<Instant>,
    last_activity: Instant,
    close_after_write: bool,
    shutdown_after_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: proto::FrameDecoder::new(),
            state: ConnState::Reading,
            out: OutFrame::default(),
            submit_started: None,
            last_activity: Instant::now(),
            close_after_write: false,
            shutdown_after_write: false,
        }
    }

    /// Stage `resp` as the next outgoing frame and enter `Writing`.
    fn stage_response(&mut self, resp: &Response) {
        self.out.stage(resp);
        self.state = ConnState::Writing;
    }

    /// Stage a finished submit's answer, encoded from the shared
    /// measurement, and enter `Writing`.
    fn stage_done(&mut self, key: CacheKey, cache_hit: bool, coalesced: bool, m: &Measurement) {
        self.out.stage_done(key, cache_hit, coalesced, m);
        self.state = ConnState::Writing;
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
            frame_bytes: g.histogram("serve.frame.bytes"),
            submit_e2e_us: g.histogram("serve.submit.e2e_us"),
        }
    }
}

/// A running server; dropping it (or calling [`stop`](ServerHandle::stop))
/// shuts the service down and joins the loop thread.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
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
        serve_stats(&self.sched, self.shard_id)
    }

    /// Stop the loop, close every connection, drain the scheduler.
    pub fn stop(&mut self) {
        self.waker.stop();
        self.wait();
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

/// What the `stats` verb reports for `sched` serving as `shard_id`.
fn serve_stats(sched: &Scheduler, shard_id: u64) -> ServeStats {
    let (compiles, sims) = sched.work_counts();
    ServeStats {
        store: sched.store().stats(),
        sched: sched.stats(),
        compiles,
        sims,
        shard_id,
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
    let waker = Arc::new(Waker::new()?);
    let poll_wait_us = epic_trace::global().histogram("serve.poll.wait_us");
    let el = EventLoop {
        listener,
        sched: Arc::clone(&sched),
        poller: Poller::new(Arc::clone(&waker), poll_wait_us),
        waker: Arc::clone(&waker),
        completions: Arc::new(Mutex::new(Vec::new())),
        cfg,
        metrics: LoopMetrics::new(),
        conns: Slab::default(),
    };
    let loop_thread = std::thread::Builder::new()
        .name("epicd-loop".to_string())
        .spawn(move || el.run())
        .expect("spawn event loop");
    Ok(ServerHandle {
        addr,
        waker,
        loop_thread: Some(loop_thread),
        sched,
        shard_id: cfg.shard_id,
    })
}

struct EventLoop {
    listener: TcpListener,
    sched: Arc<Scheduler>,
    poller: Poller,
    waker: Arc<Waker>,
    completions: Arc<Mutex<Vec<Completion>>>,
    cfg: ServerConfig,
    metrics: LoopMetrics,
    conns: Slab<Conn>,
}

impl EventLoop {
    /// Serve until stopped; every connection closes as the loop drops.
    fn run(mut self) {
        while !self.waker.stopped() {
            self.drain_completions();
            self.accept_new();
            if self.pump_all() {
                break; // shutdown verb flushed
            }
            let reap_at = self.reap_idle();
            self.wait(reap_at);
        }
        self.metrics.conns.set(0);
    }

    /// Block until a connection can make progress, a completion wakes
    /// the loop, a new peer knocks, or `deadline` (the next idle reap)
    /// passes. `AwaitJob` connections are not watched: their completion
    /// arrives through the waker.
    fn wait(&mut self, deadline: Option<Instant>) {
        let p = &mut self.poller;
        p.register(&self.listener, Interest::Read);
        for (_, c) in self.conns.iter() {
            match c.state {
                ConnState::Reading => p.register(&c.stream, Interest::Read),
                ConnState::Writing => p.register(&c.stream, Interest::Write),
                ConnState::AwaitJob => {}
            }
        }
        p.wait(deadline);
    }

    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut q = self.completions.lock().expect("completion queue");
            std::mem::take(&mut *q)
        };
        for c in done {
            let Some(conn) = self.conns.get_by_key(c.conn) else {
                continue; // connection died (and maybe its slot was reused)
            };
            if !matches!(conn.state, ConnState::AwaitJob) {
                continue;
            }
            match c.result {
                Ok(m) => conn.stage_done(c.key, c.cache_hit, c.coalesced, &m),
                Err(JobError::Expired) => {
                    conn.stage_response(&Response::Err("deadline expired".to_string()));
                }
                Err(e) => conn.stage_response(&Response::Err(e.to_string())),
            }
            conn.last_activity = Instant::now();
        }
    }

    fn accept_new(&mut self) {
        while let Some(stream) = netloop::accept(&self.listener) {
            if self.conns.live() >= self.cfg.max_conns {
                self.metrics.conns_rejected.inc();
                netloop::reject(stream, "server at capacity");
                continue;
            }
            self.conns.insert(Conn::new(stream));
            self.metrics.conns.set(self.conns.live() as i64);
        }
    }

    /// Drive every connection's state machine. Returns whether a
    /// shutdown was requested.
    fn pump_all(&mut self) -> bool {
        for slot in 0..self.conns.slots() {
            let Some(mut conn) = self.conns.check_out(slot) else {
                continue;
            };
            match self.pump_conn(slot, &mut conn) {
                Outcome::Keep => self.conns.check_in(slot, conn),
                outcome => {
                    drop(conn);
                    self.release_slot(slot);
                    if matches!(outcome, Outcome::Shutdown) {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn release_slot(&mut self, slot: usize) {
        self.conns.release(slot);
        self.metrics.conns.set(self.conns.live() as i64);
    }

    /// Advance one connection as far as it will go without blocking.
    /// Bounded to a handful of request/response cycles per sweep so one
    /// chatty peer cannot starve the rest.
    fn pump_conn(&mut self, slot: usize, conn: &mut Conn) -> Outcome {
        for _ in 0..4 {
            match conn.state {
                ConnState::AwaitJob => return Outcome::Keep,
                ConnState::Reading => match conn.decoder.read_from(&mut conn.stream) {
                    Ok(FrameEvent::Frame) => {
                        conn.last_activity = Instant::now();
                        self.metrics
                            .frame_bytes
                            .record(conn.decoder.frame().len() as u64);
                        self.dispatch(slot, conn);
                        conn.decoder.next_frame();
                    }
                    Ok(FrameEvent::Blocked) => return Outcome::Keep,
                    Ok(FrameEvent::Closed) => return Outcome::Close,
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
                        return Outcome::Close;
                    }
                },
                ConnState::Writing => match conn.out.write_to(&mut conn.stream) {
                    Ok(true) => {
                        conn.last_activity = Instant::now();
                        self.metrics.frame_bytes.record(conn.out.body_len() as u64);
                        if let Some(t0) = conn.submit_started.take() {
                            self.metrics
                                .submit_e2e_us
                                .record(t0.elapsed().as_micros() as u64);
                        }
                        if conn.shutdown_after_write {
                            return Outcome::Shutdown;
                        }
                        if conn.close_after_write {
                            return Outcome::Close;
                        }
                        conn.state = ConnState::Reading;
                    }
                    Ok(false) => return Outcome::Keep,
                    Err(_) => return Outcome::Close,
                },
            }
        }
        Outcome::Keep
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
            Request::Stats => conn.stage_response(&Response::Stats(serve_stats(
                &self.sched,
                self.cfg.shard_id,
            ))),
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
                if let Some(m) = ticket.ready() {
                    // a store hit: `pump_conn` writes it in this pass
                    conn.stage_done(key, cache_hit, coalesced, m);
                    return;
                }
                // park the connection; the hook (run on the completing
                // worker, or inline if the job has just finished)
                // enqueues the result and wakes the loop
                conn.state = ConnState::AwaitJob;
                let completions = Arc::clone(&self.completions);
                let waker = Arc::clone(&self.waker);
                let conn_key = self.conns.key(slot);
                ticket.on_complete(move |result| {
                    completions
                        .lock()
                        .expect("completion queue")
                        .push(Completion {
                            conn: conn_key,
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

    /// Close connections that have been quiet past the idle timeout, and
    /// return when the next one will be. Connections awaiting a job are
    /// never idle — a long compile is work, not silence.
    fn reap_idle(&mut self) -> Option<Instant> {
        let timeout = self.cfg.idle_timeout;
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        for slot in 0..self.conns.slots() {
            let Some(c) = self.conns.get_mut(slot) else {
                continue;
            };
            if matches!(c.state, ConnState::AwaitJob) {
                continue;
            }
            if now.duration_since(c.last_activity) > timeout {
                self.conns.remove(slot);
                self.metrics.conns.set(self.conns.live() as i64);
                self.metrics.conns_reaped.inc();
            } else {
                let due = c.last_activity + timeout;
                next = Some(next.map_or(due, |n| n.min(due)));
            }
        }
        next
    }
}
