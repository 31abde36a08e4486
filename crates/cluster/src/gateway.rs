//! `epicg`: the fleet gateway as a single-threaded event loop.
//!
//! The gateway speaks the exact `epicd` frame protocol on both faces —
//! clients point `epicc` at it unchanged, and it talks to each shard as
//! an ordinary client — and adds the fleet behaviours on top:
//!
//! * **Routing** — a submit's 128-bit job key picks its shard through
//!   the rendezvous [`Ring`](crate::ring::Ring); status/result/put
//!   queries route by their key the same way. Routing is pure, so any
//!   number of gateways agree without coordination.
//! * **Hedged requests** — a submit stuck past
//!   [`hedge_after`](GatewayConfig::hedge_after) is re-issued to the
//!   key's replica shard; the first completion wins and the loser is
//!   ignored. Because jobs are content-addressed, the duplicate is
//!   harmless: both shards compute the same bytes, and the late result
//!   merely warms the loser's cache.
//! * **Failover** — a dead shard (connect refused, connection dropped
//!   mid-request) fails the *attempt*, not the request: the gateway
//!   re-issues to the next untried candidate (primary, then replica)
//!   and only errors to the client when every candidate is gone.
//! * **Warm-cache replication** — a fresh (non-cache-hit) submit result
//!   is pushed to the replica shard with the `put` verb, so the shard
//!   that would take over on failover already holds the measurement.
//! * **Fleet views** — `stats`, `metrics`, and `shutdown` fan out to
//!   every shard. Stats sum ([`merge_stats`]); metrics merge into
//!   `shard<id>.` / `fleet.` / `gateway.` sections ([`merge_metrics`]);
//!   shutdown stops the shards, then the gateway itself.
//! * **Dynamic membership** — the typed `admin` verb drives runtime
//!   `join`/`drain`/`fleet-status`. A membership change runs the
//!   warm-before-cutover state machine: census every shard's key
//!   holdings (`keys` verb), plan the exact diff between the old and
//!   new ring ([`plan_moves`]), fetch each moved key from a holder and
//!   `put` it to its new primary, and only then atomically swap the
//!   routing ring. In-flight requests issued against the old ring
//!   resolve against it (drained shards keep their addresses), so a
//!   cutover is invisible to concurrent traffic. See DESIGN.md §15.
//!
//! Answers to submits and to status/result/put queries cross the
//! gateway verbatim: the shard's response body is copied into the
//! client's frame byte for byte (`OutFrame::stage_raw`), never decoded
//! and re-encoded. The gateway decodes a body only when it needs what is
//! inside: the measurement of a fresh (`cache_hit: false`) result it
//! replicates, and the fan-out, census and rebalance answers it merges
//! or acts on. A staged answer is written to the client at once, in the
//! turn its upstream answer arrived; only what the socket does not take
//! then waits for output space. A forwarded body whose response tag is
//! unknown fails its attempt like a dropped connection.
//!
//! Like the `epicd` loop, one thread owns every socket, sweeps them with
//! nonblocking I/O, and between sweeps blocks in the shared readiness
//! wait ([`netloop::Poller`]): client connections are watched like
//! `epicd`'s, upstreams for output space until their request is sent
//! and for input after. The wait's timeout is the earliest hedge
//! deadline, so a hedge fires at [`hedge_after`](GatewayConfig::hedge_after),
//! not on a polling tick; [`GatewayHandle::stop`] ends it through the
//! loop's [`Waker`]. The time blocked is the `cluster.poll.wait_us`
//! histogram (`gateway.cluster.poll.wait_us` in a merged `metrics`
//! answer).
//!
//! Upstream streams are pooled. An attempt takes the most recently
//! parked idle stream to its shard's address, connecting only when none
//! is parked, and parks the stream again once the response is read
//! ([`FrameDecoder::read_from`](proto::FrameDecoder::read_from) never
//! reads past a frame, so a parked stream holds no stray bytes). A
//! stream is parked with its request and response buffers, so a warm
//! attempt on it allocates nothing. The
//! pool is keyed by the address a stream connected to, so a `join` that
//! moves a shard id to a new process never reaches the old one, and it
//! keeps at most [`IDLE_PER_SHARD`] streams per address. A shard may
//! close an idle stream (idle reap, restart, kill); a reused stream that
//! fails before its response is complete re-sends the request once on a
//! fresh connection, and only a fresh connection's failure fails the
//! attempt. A cold connect is still a blocking `connect_timeout` inside
//! the loop: pooling makes it rare on the hit path, not free.

use crate::merge::{merge_metrics, merge_stats};
use crate::rebalance::{plan_moves, KeyMove};
use crate::ring::Ring;
use epic_serve::key::CacheKey;
use epic_serve::netloop::{self, Interest, Key, OutFrame, Outcome, Poller, Slab, Waker};
use epic_serve::proto::{
    self, AdminRequest, AdminResponse, FleetStatus, FrameError, FrameEvent, RebalanceReport,
    Request, RespTag, Response, ShardInfo,
};
use epic_serve::CodecError;
use epic_trace::{Counter, Gauge};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for the gateway loop.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// How long a submit may sit unanswered before it is hedged to the
    /// replica shard.
    pub hedge_after: Duration,
    /// Upstream connect timeout, paid when no idle stream is pooled.
    pub connect_timeout: Duration,
    /// Client admission cap, as in `epicd`.
    pub max_conns: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            hedge_after: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(1),
            max_conns: 1024,
        }
    }
}

/// A running gateway; dropping it (or calling [`stop`](GatewayHandle::stop))
/// shuts the loop down. Stopping the gateway does **not** stop the
/// shards — only the `shutdown` verb does that, deliberately.
pub struct GatewayHandle {
    addr: std::net::SocketAddr,
    waker: Arc<Waker>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
}

impl GatewayHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop the loop and close every connection.
    pub fn stop(&mut self) {
        self.waker.stop();
        self.wait();
    }

    /// Block until the loop exits (a client sent `shutdown`).
    pub fn wait(&mut self) {
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GatewayHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `listen_addr` and gate the fleet `shards` (stable shard id,
/// reachable address) behind it.
///
/// # Errors
/// Bind failures, an empty or duplicate-id shard list.
pub fn gate(
    listen_addr: &str,
    shards: &[(u64, String)],
    cfg: GatewayConfig,
) -> std::io::Result<GatewayHandle> {
    let ring = Ring::new(&shards.iter().map(|(id, _)| *id).collect::<Vec<_>>());
    let invalid = |msg| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
    if ring.is_empty() {
        return invalid("gateway needs at least one shard");
    }
    if ring.len() != shards.len() {
        return invalid("duplicate shard ids");
    }
    let listener = TcpListener::bind(listen_addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let waker = Arc::new(Waker::new()?);
    let poll_wait_us = epic_trace::global().histogram("cluster.poll.wait_us");
    let gl = GatewayLoop {
        listener,
        waker: Arc::clone(&waker),
        poller: Poller::new(Arc::clone(&waker), poll_wait_us),
        cfg,
        ring,
        addrs: shards
            .iter()
            .map(|(id, addr)| (*id, Arc::from(addr.as_str())))
            .collect(),
        pool: HashMap::new(),
        metrics: GatewayMetrics::new(),
        clients: Slab::default(),
        ups: Slab::default(),
        pendings: Slab::default(),
        failed: Vec::new(),
        ring_version: 1,
        drained: Vec::new(),
        admin: None,
    };
    let loop_thread = std::thread::Builder::new()
        .name("epicg-loop".to_string())
        .spawn(move || gl.run())
        .expect("spawn gateway loop");
    Ok(GatewayHandle {
        addr,
        waker,
        loop_thread: Some(loop_thread),
    })
}

/// Gateway-side handles into the process-wide metrics registry; these
/// surface under the `gateway.` prefix of a merged `metrics` answer.
struct GatewayMetrics {
    conns: Gauge,
    hedged: Counter,
    hedge_wins: Counter,
    failover: Counter,
    replicated: Counter,
    upstream_errors: Counter,
    upstream_connects: Counter,
    upstream_reused: Counter,
    rebalance_keys_moved: Counter,
    rebalance_bytes: Counter,
    rebalance_ms: Counter,
}

impl GatewayMetrics {
    fn new() -> GatewayMetrics {
        let g = epic_trace::global();
        GatewayMetrics {
            conns: g.gauge("cluster.conns"),
            hedged: g.counter("cluster.hedged"),
            hedge_wins: g.counter("cluster.hedge_wins"),
            failover: g.counter("cluster.failover"),
            replicated: g.counter("cluster.replicated"),
            upstream_errors: g.counter("cluster.upstream.errors"),
            upstream_connects: g.counter("cluster.upstream.connects"),
            upstream_reused: g.counter("cluster.upstream.reused"),
            // merge_metrics prefixes the gateway registry with
            // `gateway.`, so these surface as
            // `gateway.rebalance.{keys_moved,bytes,ms}`.
            rebalance_keys_moved: g.counter("rebalance.keys_moved"),
            rebalance_bytes: g.counter("rebalance.bytes"),
            rebalance_ms: g.counter("rebalance.ms"),
        }
    }
}

/// Per-client-connection protocol state.
enum CState {
    /// Reading a frame through the decoder.
    Reading,
    /// A request is in flight upstream; the slot index of its pending.
    Waiting(usize),
    /// Flushing `out`.
    Writing,
}

struct ClientConn {
    stream: TcpStream,
    decoder: proto::FrameDecoder,
    state: CState,
    out: OutFrame,
    shutdown_after_write: bool,
}

impl ClientConn {
    fn stage_response(&mut self, resp: &Response) {
        self.out.stage(resp);
        self.state = CState::Writing;
    }
}

/// Typed admin refusal, framed as the `Admin` response verb.
fn admin_err(msg: &str) -> Response {
    Response::Admin(AdminResponse::Err(msg.to_string()))
}

/// Why an attempt was issued; decides hedging bookkeeping and whether a
/// win triggers replication.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// First-choice shard for a routed request.
    Primary,
    /// Latency hedge on the replica shard.
    Hedge,
    /// One leg of a stats/metrics/shutdown broadcast.
    Fanout,
    /// Fire-and-forget warm-cache `put`.
    Replicate,
    /// Key census leg (`keys` verb) of a rebalance or fleet-status.
    Census,
    /// Rebalance fetch of move *i* from its source shard.
    Fetch(usize),
    /// Rebalance push of move *i* to its new primary.
    Push(usize),
}

/// One upstream attempt: one request on a stream of its own, which goes
/// back to the idle pool once the response is read (see the module
/// docs).
struct Upstream {
    stream: TcpStream,
    decoder: proto::FrameDecoder,
    /// The request frame; once flushed, the attempt reads its response.
    out: OutFrame,
    shard: u64,
    /// The address `stream` connected to: its key in the idle pool.
    addr: Arc<str>,
    /// Taken from the pool rather than freshly connected, so a failure
    /// may only mean the shard closed it while it sat idle.
    reused: bool,
    pending: usize,
    role: Role,
}

/// An idle upstream stream, parked with the buffers its last attempt
/// grew, so that the next attempt on it allocates nothing.
struct Idle {
    stream: TcpStream,
    /// At a frame boundary.
    decoder: proto::FrameDecoder,
    out: OutFrame,
}

/// What a routed request still owes. Slots are freed only when every
/// attempt has reported back, so a late loser always finds the `done`
/// marker and is ignored rather than double-answered.
enum Pending {
    /// A submit: hedgeable, failover-capable, replication-triggering.
    Submit {
        client: Key,
        /// The encoded request frame, kept for re-issue.
        raw: Vec<u8>,
        key: CacheKey,
        primary: u64,
        replica: Option<u64>,
        /// An attempt has been issued to the replica (the primary always
        /// gets the first).
        replica_tried: bool,
        started: Instant,
        hedged: bool,
        outstanding: u32,
        done: bool,
    },
    /// Status/result/put: routed to the key's primary, one failover to
    /// the replica (where warm replication makes the answer meaningful).
    Simple {
        client: Key,
        raw: Vec<u8>,
        fallback: Option<u64>,
        /// An attempt has been issued to the fallback.
        fallback_tried: bool,
        outstanding: u32,
        done: bool,
    },
    /// Stats/metrics/shutdown broadcast; finalises when every shard has
    /// answered or failed.
    Fanout {
        client: Key,
        kind: FanKind,
        collected: Vec<(u64, Response)>,
        outstanding: u32,
    },
    /// Warm-cache `put` to a replica; nobody is waiting on it.
    Replicate { outstanding: u32 },
    /// A `join`/`drain` rebalance; the op state itself lives in
    /// [`GatewayLoop::admin`], this slot only anchors the requesting
    /// client and the in-flight attempt count.
    Admin {
        client: Key,
        outstanding: u32,
        done: bool,
    },
    /// A `fleet-status` census: per-shard key counts, `None` for a
    /// shard that did not answer.
    Fleet {
        client: Key,
        collected: Vec<(u64, Option<u64>)>,
        outstanding: u32,
    },
}

impl Pending {
    /// Attempts issued for this request that have not reported back.
    fn outstanding(&mut self) -> &mut u32 {
        match self {
            Pending::Submit { outstanding, .. }
            | Pending::Simple { outstanding, .. }
            | Pending::Fanout { outstanding, .. }
            | Pending::Replicate { outstanding }
            | Pending::Admin { outstanding, .. }
            | Pending::Fleet { outstanding, .. } => outstanding,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FanKind {
    Stats,
    Metrics,
    Shutdown,
}

/// How many rebalance transfers (fetch→push chains) run concurrently.
/// Enough to hide per-key round-trip latency, small enough that a
/// rebalance never starves client traffic of loop attention.
const TRANSFER_WINDOW: usize = 8;

/// Most idle upstream streams kept per shard address. Enough for the
/// concurrent requests of a busy fleet to stop connecting, few enough
/// that a burst of in-flight submits does not leave the gateway holding
/// a large share of a shard's `max_conns` once it is over.
const IDLE_PER_SHARD: usize = 16;

/// State of the one in-flight membership change. A rebalance runs as a
/// three-phase state machine — census, transfer, cutover — and the
/// routing ring is swapped only in the cutover, after every moved key
/// has landed on its new primary (warm-before-cutover).
struct AdminOp {
    /// The `Pending::Admin` slot anchoring this op.
    pid: usize,
    started: Instant,
    /// The ring to cut over to once the fleet is warm.
    new_ring: Ring,
    /// Shard drained by this op; remembered as reachable-but-routable
    /// only for old traffic after the cutover.
    drain: Option<u64>,
    /// For a join: the address entry to undo if the op aborts.
    /// `(id, previous addr if the id was already known)`.
    join_rollback: Option<(u64, Option<Arc<str>>)>,
    /// For a rejoin: the id to put back on the drained list on abort.
    drained_rollback: Option<u64>,
    /// Census legs still awaited.
    census_outstanding: usize,
    /// Per-shard key holdings reported so far.
    census: Vec<(u64, Vec<CacheKey>)>,
    /// The planned moves (empty until the census completes).
    moves: Vec<KeyMove>,
    /// Next move to start.
    next_move: usize,
    /// Fetch/push chains currently in flight.
    in_flight: usize,
    keys_moved: u64,
    bytes: u64,
    skipped: u64,
}

struct GatewayLoop {
    listener: TcpListener,
    waker: Arc<Waker>,
    poller: Poller,
    cfg: GatewayConfig,
    ring: Ring,
    addrs: HashMap<u64, Arc<str>>,
    /// Idle upstream streams by the address they connected to, most
    /// recently parked last.
    pool: HashMap<Arc<str>, Vec<Idle>>,
    metrics: GatewayMetrics,
    clients: Slab<ClientConn>,
    ups: Slab<Upstream>,
    pendings: Slab<Pending>,
    /// Attempts whose connect failed synchronously, deferred to a
    /// top-of-loop drain. Handling them inline would re-enter
    /// `attempt_failed` while the requesting client is checked out of
    /// the slab (its answer would vanish) and, for fan-outs, before the
    /// remaining legs have even been issued (the merge would fire
    /// early). The failed leg keeps `outstanding` above zero until the
    /// drain, so the slot cannot be freed or reused in between.
    failed: Vec<(usize, u64, Role)>,
    /// Monotonic routing-table version; bumps at every cutover.
    ring_version: u64,
    /// Shards drained out of the ring but still addressable, so that
    /// in-flight old-ring attempts, post-swap replications, and the
    /// shutdown broadcast still reach them.
    drained: Vec<u64>,
    /// The at-most-one in-flight membership change.
    admin: Option<AdminOp>,
}

impl GatewayLoop {
    /// Serve until stopped; every socket closes as the loop drops.
    fn run(mut self) {
        while !self.waker.stopped() {
            self.accept_new();
            if self.pump_clients() {
                break; // shutdown fan-out acknowledged
            }
            self.pump_upstreams();
            let hedge_at = self.hedge_scan();
            self.drain_failed();
            self.wait(hedge_at);
        }
        self.metrics.conns.set(0);
    }

    /// Block until a client or upstream can make progress, a new peer
    /// knocks, `stop` wakes the loop, or `deadline` (the next hedge)
    /// passes. Deferred connect failures are queued work no socket
    /// signals; `drain_failed` has just emptied that queue, so the wait
    /// can block.
    fn wait(&mut self, deadline: Option<Instant>) {
        debug_assert!(self.failed.is_empty());
        let p = &mut self.poller;
        p.register(&self.listener, Interest::Read);
        for (_, c) in self.clients.iter() {
            match c.state {
                CState::Reading => p.register(&c.stream, Interest::Read),
                CState::Writing => p.register(&c.stream, Interest::Write),
                CState::Waiting(_) => {}
            }
        }
        for (_, up) in self.ups.iter() {
            let interest = if up.out.flushed() {
                Interest::Read
            } else {
                Interest::Write
            };
            p.register(&up.stream, interest);
        }
        p.wait(deadline);
    }

    // ---- client face ----------------------------------------------------

    fn accept_new(&mut self) {
        while let Some(stream) = netloop::accept(&self.listener) {
            if self.clients.live() >= self.cfg.max_conns {
                netloop::reject(stream, "gateway at capacity");
                continue;
            }
            self.clients.insert(ClientConn {
                stream,
                decoder: proto::FrameDecoder::new(),
                state: CState::Reading,
                out: OutFrame::default(),
                shutdown_after_write: false,
            });
            self.metrics.conns.set(self.clients.live() as i64);
        }
    }

    /// Drive every client connection. Returns whether a shutdown was
    /// acknowledged.
    fn pump_clients(&mut self) -> bool {
        for slot in 0..self.clients.slots() {
            let Some(mut conn) = self.clients.check_out(slot) else {
                continue;
            };
            match self.pump_client(self.clients.key(slot), &mut conn) {
                Outcome::Keep => self.clients.check_in(slot, conn),
                outcome => {
                    drop(conn);
                    self.clients.release(slot);
                    self.metrics.conns.set(self.clients.live() as i64);
                    if matches!(outcome, Outcome::Shutdown) {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn pump_client(&mut self, client: Key, conn: &mut ClientConn) -> Outcome {
        for _ in 0..4 {
            match conn.state {
                CState::Waiting(_) => return Outcome::Keep,
                CState::Reading => match conn.decoder.read_from(&mut conn.stream) {
                    Ok(FrameEvent::Frame) => {
                        self.dispatch_client(client, conn);
                        conn.decoder.next_frame();
                    }
                    Ok(FrameEvent::Blocked) => return Outcome::Keep,
                    Ok(FrameEvent::Closed) => return Outcome::Close,
                    Err(FrameError::TooLarge { len }) => {
                        // best-effort typed refusal, then hang up —
                        // mirroring epicd's hostile-prefix handling
                        conn.stage_response(&Response::Err(format!(
                            "frame length {len} exceeds cap"
                        )));
                        let _ = conn.out.write_to(&mut conn.stream);
                        return Outcome::Close;
                    }
                    Err(_) => return Outcome::Close,
                },
                CState::Writing => match conn.out.write_to(&mut conn.stream) {
                    Ok(true) => {
                        if conn.shutdown_after_write {
                            return Outcome::Shutdown;
                        }
                        conn.state = CState::Reading;
                    }
                    Ok(false) => return Outcome::Keep,
                    Err(_) => return Outcome::Close,
                },
            }
        }
        Outcome::Keep
    }

    /// Route one decoded client frame. The raw frame bytes are reused
    /// verbatim as the upstream request — the gateway re-encodes
    /// nothing it merely forwards.
    fn dispatch_client(&mut self, client: Key, conn: &mut ClientConn) {
        let raw = conn.decoder.frame().to_vec();
        let req = match proto::decode_request(&raw) {
            Ok(req) => req,
            Err(e) => {
                conn.stage_response(&Response::Err(format!("bad request: {e}")));
                return;
            }
        };
        match req {
            Request::Submit { ref spec, .. } => {
                let key = spec.job_key();
                let route = self.ring.route(key).expect("non-empty ring");
                let pid = self.pendings.insert(Pending::Submit {
                    client,
                    raw,
                    key,
                    primary: route.primary,
                    replica: route.replica,
                    replica_tried: false,
                    started: Instant::now(),
                    hedged: false,
                    outstanding: 0,
                    done: false,
                });
                conn.state = CState::Waiting(pid);
                self.issue(route.primary, pid, Role::Primary);
            }
            Request::Status(key) | Request::Result(key) | Request::Put { key, .. } => {
                let route = self.ring.route(key).expect("non-empty ring");
                let pid = self.pendings.insert(Pending::Simple {
                    client,
                    raw,
                    fallback: route.replica,
                    fallback_tried: false,
                    outstanding: 0,
                    done: false,
                });
                conn.state = CState::Waiting(pid);
                self.issue(route.primary, pid, Role::Primary);
            }
            Request::Stats | Request::Metrics | Request::Shutdown => {
                let kind = match req {
                    Request::Stats => FanKind::Stats,
                    Request::Metrics => FanKind::Metrics,
                    _ => FanKind::Shutdown,
                };
                // Shutdown must also reach drained shards — they left
                // the routing ring, not the fleet. Views stay
                // ring-scoped so fleet stats describe what routing
                // can actually hit.
                let shards: Vec<u64> = if kind == FanKind::Shutdown {
                    self.known_shards()
                } else {
                    self.ring.shard_ids().to_vec()
                };
                let pid = self.pendings.insert(Pending::Fanout {
                    client,
                    kind,
                    collected: Vec::with_capacity(shards.len()),
                    outstanding: 0,
                });
                conn.state = CState::Waiting(pid);
                for shard in shards {
                    self.issue_raw(shard, &raw, pid, Role::Fanout);
                }
            }
            Request::Keys => {
                // shard-internal census verb; the fleet-level answer is
                // `admin fleet-status`
                conn.stage_response(&Response::Err(
                    "keys is a shard verb; ask the gateway for fleet-status".to_string(),
                ));
            }
            Request::Admin(admin) => self.dispatch_admin(client, conn, admin),
        }
    }

    // ---- admin control plane --------------------------------------------

    /// Point shard `id` at `addr` (or forget it) and return its previous
    /// address. Idle streams to an address no shard has any more are
    /// dropped: they lead to a process that routing has left behind.
    fn set_addr(&mut self, id: u64, addr: Option<Arc<str>>) -> Option<Arc<str>> {
        let prev = match addr {
            Some(addr) => self.addrs.insert(id, addr),
            None => self.addrs.remove(&id),
        };
        let addrs = &self.addrs;
        self.pool.retain(|a, _| addrs.values().any(|b| b == a));
        prev
    }

    /// Every shard the gateway can still talk to: ring members plus
    /// drained-but-addressable shards.
    fn known_shards(&self) -> Vec<u64> {
        let mut ids = self.ring.shard_ids().to_vec();
        ids.extend_from_slice(&self.drained);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Route one typed admin request. Validation errors answer on the
    /// spot (the conn is checked out of the slab here, so staging
    /// directly is both correct and required); accepted membership
    /// changes start the census phase.
    fn dispatch_admin(&mut self, client: Key, conn: &mut ClientConn, admin: AdminRequest) {
        match admin {
            AdminRequest::FleetStatus => {
                let shards = self.known_shards();
                let pid = self.pendings.insert(Pending::Fleet {
                    client,
                    collected: Vec::with_capacity(shards.len()),
                    outstanding: 0,
                });
                conn.state = CState::Waiting(pid);
                let raw = proto::encode_request(&Request::Keys);
                for shard in shards {
                    self.issue_raw(shard, &raw, pid, Role::Census);
                }
            }
            _ if self.admin.is_some() => {
                conn.stage_response(&admin_err("a rebalance is already in progress"));
            }
            AdminRequest::Join { id, addr } => {
                if self.ring.shard_ids().contains(&id) {
                    conn.stage_response(&admin_err(&format!("shard {id} is already in the ring")));
                    return;
                }
                let prev_addr = self.set_addr(id, Some(addr.into()));
                let was_drained = self.drained.contains(&id);
                self.drained.retain(|&d| d != id);
                let mut new_ring = self.ring.clone();
                new_ring.join(id);
                self.start_rebalance(
                    client,
                    conn,
                    new_ring,
                    None,
                    Some((id, prev_addr)),
                    was_drained.then_some(id),
                );
            }
            AdminRequest::Drain { id } => {
                if !self.ring.shard_ids().contains(&id) {
                    conn.stage_response(&admin_err(&format!("shard {id} is not in the ring")));
                    return;
                }
                let mut new_ring = self.ring.clone();
                new_ring.leave(id);
                if new_ring.is_empty() {
                    conn.stage_response(&admin_err("cannot drain the last shard"));
                    return;
                }
                self.start_rebalance(client, conn, new_ring, Some(id), None, None);
            }
        }
    }

    /// Phase 1 of a membership change: census every *old-ring* shard's
    /// key holdings. The plan is computed when the last census leg
    /// lands; any census failure aborts the op with the old ring fully
    /// intact.
    fn start_rebalance(
        &mut self,
        client: Key,
        conn: &mut ClientConn,
        new_ring: Ring,
        drain: Option<u64>,
        join_rollback: Option<(u64, Option<Arc<str>>)>,
        drained_rollback: Option<u64>,
    ) {
        let census_targets: Vec<u64> = self.ring.shard_ids().to_vec();
        let pid = self.pendings.insert(Pending::Admin {
            client,
            outstanding: 0,
            done: false,
        });
        conn.state = CState::Waiting(pid);
        self.admin = Some(AdminOp {
            pid,
            started: Instant::now(),
            new_ring,
            drain,
            join_rollback,
            drained_rollback,
            census_outstanding: census_targets.len(),
            census: Vec::new(),
            moves: Vec::new(),
            next_move: 0,
            in_flight: 0,
            keys_moved: 0,
            bytes: 0,
            skipped: 0,
        });
        let raw = proto::encode_request(&Request::Keys);
        for shard in census_targets {
            self.issue_raw(shard, &raw, pid, Role::Census);
        }
    }

    // ---- pending bookkeeping --------------------------------------------

    /// Decrement `outstanding`; free the slot once nothing is in flight
    /// and nobody will consult its `done` marker again.
    fn settle_attempt(&mut self, pid: usize) {
        if let Some(p) = self.pendings.get_mut(pid) {
            *p.outstanding() -= 1;
            if *p.outstanding() == 0 {
                self.pendings.remove(pid);
            }
        }
    }

    /// Answer the pending's client with `resp`, if that connection is
    /// still the one that asked.
    fn answer_client(&mut self, client: Key, pid: usize, resp: &Response) {
        let shutdown = matches!(resp, Response::ShutdownOk);
        self.deliver(client, pid, shutdown, |out| out.stage(resp));
    }

    /// Answer the pending's client with a shard's response body, byte for
    /// byte, if that connection is still the one that asked.
    fn forward_answer(&mut self, client: Key, pid: usize, body: &[u8]) {
        self.deliver(client, pid, false, |out| out.stage_raw(body));
    }

    /// Stage an answer on the client that is waiting on `pid` and write
    /// it now rather than a readiness wait later; what the socket does
    /// not take at once waits for output space. A `ShutdownOk` is left
    /// to `pump_client`, which stops the loop once it is flushed.
    fn deliver(
        &mut self,
        client: Key,
        pid: usize,
        shutdown: bool,
        stage: impl FnOnce(&mut OutFrame),
    ) {
        let Some(conn) = self.clients.get_by_key(client) else {
            return;
        };
        if !matches!(conn.state, CState::Waiting(p) if p == pid) {
            return;
        }
        stage(&mut conn.out);
        conn.state = CState::Writing;
        if shutdown {
            conn.shutdown_after_write = true;
        } else if let Ok(true) = conn.out.write_to(&mut conn.stream) {
            conn.state = CState::Reading;
        }
    }

    // ---- upstream face --------------------------------------------------

    /// Issue the pending's stored request bytes to `shard`.
    fn issue(&mut self, shard: u64, pid: usize, role: Role) {
        let raw = match self.pendings.get_mut(pid) {
            Some(Pending::Submit { raw, .. } | Pending::Simple { raw, .. }) => std::mem::take(raw),
            _ => return,
        };
        self.issue_raw(shard, &raw, pid, role);
        if let Some(Pending::Submit { raw: kept, .. } | Pending::Simple { raw: kept, .. }) =
            self.pendings.get_mut(pid)
        {
            *kept = raw;
        }
    }

    /// Start an attempt: stage `raw` as one request to `shard`.
    fn issue_raw(&mut self, shard: u64, raw: &[u8], pid: usize, role: Role) {
        if let Some(p) = self.pendings.get_mut(pid) {
            *p.outstanding() += 1;
        }
        self.send(shard, raw, pid, role);
    }

    /// Put `raw` on a stream to `shard`'s current address: the most
    /// recently parked idle stream, or a fresh connection if none is
    /// parked. A connect failure is an attempt failure, routed through
    /// the same path as a mid-request drop.
    fn send(&mut self, shard: u64, raw: &[u8], pid: usize, role: Role) {
        let Some(addr) = self.addrs.get(&shard).cloned() else {
            self.metrics.upstream_errors.inc();
            self.failed.push((pid, shard, role));
            return;
        };
        let parked = self.pool.get_mut(&addr).and_then(Vec::pop);
        let reused = parked.is_some();
        let mut link = match parked {
            Some(idle) => {
                self.metrics.upstream_reused.inc();
                idle
            }
            None => match connect(&addr, self.cfg.connect_timeout) {
                Ok(stream) => {
                    self.metrics.upstream_connects.inc();
                    Idle {
                        stream,
                        decoder: proto::FrameDecoder::new(),
                        out: OutFrame::default(),
                    }
                }
                Err(_) => {
                    self.metrics.upstream_errors.inc();
                    self.failed.push((pid, shard, role));
                    return;
                }
            },
        };
        link.out.stage_raw(raw);
        self.ups.insert(Upstream {
            stream: link.stream,
            decoder: link.decoder,
            out: link.out,
            shard,
            addr,
            reused,
            pending: pid,
            role,
        });
    }

    /// Park the stream of an answered attempt for the next attempt to
    /// its address, unless its shard has moved address since or the
    /// pool is full.
    fn park(&mut self, up: Upstream) {
        if self.addrs.get(&up.shard) != Some(&up.addr) {
            return;
        }
        let idle = self.pool.entry(up.addr).or_default();
        if idle.len() < IDLE_PER_SHARD {
            let mut decoder = up.decoder;
            decoder.next_frame();
            idle.push(Idle {
                stream: up.stream,
                decoder,
                out: up.out,
            });
        }
    }

    /// Process deferred connect failures. Runs only at the top of the
    /// event loop, where every client conn is back in its slab slot and
    /// every fan-out has issued all of its legs. A failover re-issue
    /// that itself fails to connect re-enters the queue and is handled
    /// by the same drain.
    fn drain_failed(&mut self) {
        while let Some((pid, shard, role)) = self.failed.pop() {
            self.attempt_failed(pid, shard, role);
        }
    }

    fn pump_upstreams(&mut self) {
        for slot in 0..self.ups.slots() {
            let Some(mut up) = self.ups.check_out(slot) else {
                continue;
            };
            match self.pump_upstream(&mut up) {
                UpOutcome::Keep => self.ups.check_in(slot, up),
                UpOutcome::Done => {
                    self.ups.release(slot);
                    self.park(up);
                }
                UpOutcome::Failed if up.reused => {
                    // The shard closed this stream while it sat idle
                    // (idle reap, restart, kill), and the streams parked
                    // before it have sat idle longer still: drop them
                    // all, so the request is re-sent on a fresh
                    // connection. The shard may already have seen the
                    // request, which is safe because every verb the
                    // gateway forwards is content-addressed (submit,
                    // put), read-only (status, result, keys, stats,
                    // metrics) or idempotent (shutdown). The re-send
                    // takes this attempt's place, so `outstanding` stays
                    // as it is, and it is neither a failover nor an
                    // upstream error: only a fresh connection's failure
                    // reaches `attempt_failed`.
                    self.ups.release(slot);
                    self.pool.remove(&up.addr);
                    let raw = up.out.into_body();
                    self.send(up.shard, &raw, up.pending, up.role);
                }
                UpOutcome::Failed => {
                    self.ups.release(slot);
                    self.metrics.upstream_errors.inc();
                    self.attempt_failed(up.pending, up.shard, up.role);
                }
            }
        }
    }

    fn pump_upstream(&mut self, up: &mut Upstream) -> UpOutcome {
        // flush the request first, then read exactly one response frame
        if !up.out.flushed() {
            match up.out.write_to(&mut up.stream) {
                Ok(true) => {}
                Ok(false) => return UpOutcome::Keep,
                Err(_) => return UpOutcome::Failed,
            }
        }
        match up.decoder.read_from(&mut up.stream) {
            Ok(FrameEvent::Blocked) => UpOutcome::Keep,
            Ok(FrameEvent::Frame) => {
                match self.on_upstream_response(up.shard, up.role, up.pending, up.decoder.frame()) {
                    Ok(()) => UpOutcome::Done,
                    Err(_) => UpOutcome::Failed,
                }
            }
            // a close before the answer, or a garbled frame
            _ => UpOutcome::Failed,
        }
    }

    /// One upstream answered with `body`. First answer wins; late hedge
    /// losers find `done` and are dropped (their work already warmed
    /// that shard's cache — content addressing makes the duplicate
    /// free). A submit's or a simple query's answer goes to its client
    /// verbatim; the body is decoded only where the gateway itself needs
    /// its contents: the measurement of a fresh result it replicates,
    /// and the fan-out, census and rebalance legs it merges or acts on.
    ///
    /// # Errors
    /// A body that does not decode where it must, or whose response tag
    /// is unknown: the attempt fails, as a dropped connection would.
    fn on_upstream_response(
        &mut self,
        shard: u64,
        role: Role,
        pid: usize,
        body: &[u8],
    ) -> Result<(), CodecError> {
        let Some(pending) = self.pendings.get_mut(pid) else {
            self.settle_attempt(pid);
            return Ok(());
        };
        match pending {
            // a late hedge loser, a fire-and-forget put, or a leg of an
            // already finished or aborted rebalance
            Pending::Submit { done: true, .. }
            | Pending::Simple { done: true, .. }
            | Pending::Admin { done: true, .. }
            | Pending::Replicate { .. } => self.settle_attempt(pid),
            Pending::Submit {
                client,
                key,
                primary,
                replica,
                hedged,
                done,
                ..
            } => {
                check_tag(body)?;
                // replicate a fresh result to the shard that would take
                // over on failover; a hedged request already warmed the
                // other shard the hard way
                let fresh = proto::done_cache_hit(body) == Some(false);
                let put = match (fresh && role == Role::Primary && shard == *primary && !*hedged)
                    .then_some(*replica)
                    .flatten()
                {
                    Some(to) => match proto::decode_response(body)? {
                        Response::Done { measurement, .. } => Some((
                            to,
                            proto::encode_request(&Request::Put {
                                key: *key,
                                measurement,
                            }),
                        )),
                        _ => None,
                    },
                    None => None,
                };
                *done = true;
                let client = *client;
                if role == Role::Hedge {
                    self.metrics.hedge_wins.inc();
                }
                self.forward_answer(client, pid, body);
                self.settle_attempt(pid);
                if let Some((to, put)) = put {
                    let rp = self.pendings.insert(Pending::Replicate { outstanding: 0 });
                    self.metrics.replicated.inc();
                    self.issue_raw(to, &put, rp, Role::Replicate);
                }
            }
            Pending::Simple { client, done, .. } => {
                check_tag(body)?;
                *done = true;
                let client = *client;
                self.forward_answer(client, pid, body);
                self.settle_attempt(pid);
            }
            Pending::Fanout { collected, .. } => {
                collected.push((shard, proto::decode_response(body)?));
                self.finalize_fanout_if_ready(pid);
                self.settle_attempt(pid);
            }
            Pending::Admin { .. } => {
                let resp = proto::decode_response(body)?;
                match role {
                    Role::Census => self.on_census_response(pid, shard, resp),
                    Role::Fetch(i) => self.on_fetch_response(pid, i, resp),
                    Role::Push(i) => self.on_push_response(pid, i, resp),
                    _ => {}
                }
                self.settle_attempt(pid);
            }
            Pending::Fleet { collected, .. } => {
                let count = match proto::decode_response(body)? {
                    Response::Keys(keys) => Some(keys.len() as u64),
                    _ => None,
                };
                collected.push((shard, count));
                self.finalize_fleet_if_ready(pid);
                self.settle_attempt(pid);
            }
        }
        Ok(())
    }

    /// An attempt died (connect refused, drop mid-request, garbage
    /// frame). For routed requests this triggers failover to the next
    /// untried candidate; the client sees an error only when every
    /// candidate has failed.
    fn attempt_failed(&mut self, pid: usize, shard: u64, role: Role) {
        let Some(pending) = self.pendings.get_mut(pid) else {
            self.settle_attempt(pid);
            return;
        };
        match pending {
            Pending::Submit { .. } | Pending::Simple { .. } => self.fail_over(pid, shard),
            Pending::Fanout { collected, .. } => {
                collected.push((shard, Response::Err(format!("shard {shard} unreachable"))));
                self.finalize_fanout_if_ready(pid);
                self.settle_attempt(pid);
            }
            Pending::Replicate { .. } | Pending::Admin { done: true, .. } => {
                self.settle_attempt(pid)
            }
            Pending::Admin { .. } => {
                match role {
                    // A census hole means the plan would be blind to
                    // that shard's keys — abort with the old ring
                    // intact rather than cut over cold.
                    Role::Census => self
                        .abort_rebalance(pid, format!("census failed: shard {shard} unreachable")),
                    // A lost transfer leg skips that key: the
                    // cutover still happens, the key re-warms on
                    // first miss. Losing warmth beats losing the
                    // membership change.
                    Role::Fetch(_) | Role::Push(_) => self.transfer_leg_done(pid, false),
                    _ => {}
                }
                self.settle_attempt(pid);
            }
            Pending::Fleet { collected, .. } => {
                collected.push((shard, None));
                self.finalize_fleet_if_ready(pid);
                self.settle_attempt(pid);
            }
        }
    }

    /// A routed request's attempt on `shard` failed. Unless a sibling
    /// attempt is still racing (or the request is already answered),
    /// re-issue it to the next untried candidate — primary then replica
    /// for a submit, the replica for a simple query — or, with none
    /// left, answer the client with an error.
    fn fail_over(&mut self, pid: usize, shard: u64) {
        let (client, next) = match self.pendings.get_mut(pid) {
            Some(Pending::Submit {
                client,
                replica: next,
                replica_tried: tried,
                outstanding: 1,
                done: done @ false,
                ..
            })
            | Some(Pending::Simple {
                client,
                fallback: next,
                fallback_tried: tried,
                outstanding: 1,
                done: done @ false,
                ..
            }) => {
                let next = next.filter(|_| !*tried);
                *tried |= next.is_some();
                *done = next.is_none();
                (*client, next)
            }
            // a sibling attempt is still running (or already won): let
            // it race on
            _ => return self.settle_attempt(pid),
        };
        match next {
            Some(next) => {
                self.metrics.failover.inc();
                // issue before settling: the re-issue keeps
                // `outstanding` above zero so the slot survives
                self.issue(next, pid, Role::Primary);
            }
            None => self.answer_client(
                client,
                pid,
                &Response::Err(format!("shard {shard} unreachable, no replica left")),
            ),
        }
        self.settle_attempt(pid);
    }

    /// When the last fan-out leg has reported (`outstanding == 1`: the
    /// caller settles after us), merge and answer.
    fn finalize_fanout_if_ready(&mut self, pid: usize) {
        let (client, kind, collected) = match self.pendings.get_mut(pid) {
            Some(Pending::Fanout {
                client,
                kind,
                collected,
                outstanding,
            }) if *outstanding == 1 => (*client, *kind, std::mem::take(collected)),
            _ => return,
        };
        let resp = match kind {
            FanKind::Stats => {
                let per_shard: Vec<_> = collected
                    .iter()
                    .filter_map(|(_, r)| match r {
                        Response::Stats(s) => Some(*s),
                        _ => None,
                    })
                    .collect();
                Response::Stats(merge_stats(&per_shard))
            }
            FanKind::Metrics => {
                let per_shard: Vec<_> = collected
                    .into_iter()
                    .filter_map(|(id, r)| match r {
                        Response::Metrics(m) => Some((id, m)),
                        _ => None,
                    })
                    .collect();
                Response::Metrics(merge_metrics(&per_shard, &epic_trace::global().snapshot()))
            }
            FanKind::Shutdown => Response::ShutdownOk,
        };
        self.answer_client(client, pid, &resp);
    }

    // ---- rebalance state machine ----------------------------------------

    /// A census leg answered. When the last one lands the op plans its
    /// moves against the still-routing old ring and enters the transfer
    /// phase; a refusal aborts the whole op.
    fn on_census_response(&mut self, pid: usize, shard: u64, resp: Response) {
        let Some(op) = self.admin.as_mut().filter(|op| op.pid == pid) else {
            return;
        };
        match resp {
            Response::Keys(keys) => {
                op.census.push((shard, keys));
                op.census_outstanding -= 1;
                if op.census_outstanding == 0 {
                    op.moves = plan_moves(&op.census, &self.ring, &op.new_ring);
                    op.census = Vec::new();
                    self.pump_transfers(pid);
                    self.maybe_finish_rebalance(pid);
                }
            }
            _ => self.abort_rebalance(pid, format!("census refused by shard {shard}")),
        }
    }

    /// Keep up to [`TRANSFER_WINDOW`] fetch→push chains in flight.
    fn pump_transfers(&mut self, pid: usize) {
        loop {
            let Some(op) = self.admin.as_mut().filter(|op| op.pid == pid) else {
                return;
            };
            if op.in_flight >= TRANSFER_WINDOW || op.next_move >= op.moves.len() {
                return;
            }
            let m = op.moves[op.next_move];
            let i = op.next_move;
            op.next_move += 1;
            op.in_flight += 1;
            let raw = proto::encode_request(&Request::Result(m.key));
            self.issue_raw(m.from, &raw, pid, Role::Fetch(i));
        }
    }

    /// The fetch half of chain *i* answered: forward the measurement to
    /// its new primary, or skip the key if the source no longer has it.
    fn on_fetch_response(&mut self, pid: usize, i: usize, resp: Response) {
        let Some(op) = self.admin.as_mut().filter(|op| op.pid == pid) else {
            return;
        };
        match resp {
            Response::Result(Some(measurement)) => {
                let m = op.moves[i];
                let raw = proto::encode_request(&Request::Put {
                    key: m.key,
                    measurement,
                });
                op.bytes += raw.len() as u64;
                // the chain continues as its push leg; `in_flight`
                // hands over unchanged
                self.issue_raw(m.to, &raw, pid, Role::Push(i));
            }
            _ => self.transfer_leg_done(pid, false),
        }
    }

    /// The push half of chain *i* answered.
    fn on_push_response(&mut self, pid: usize, _i: usize, resp: Response) {
        self.transfer_leg_done(pid, matches!(resp, Response::PutOk));
    }

    /// One fetch→push chain retired (landed, skipped, or lost a leg);
    /// refill the window and cut over once the last chain retires.
    fn transfer_leg_done(&mut self, pid: usize, moved: bool) {
        let Some(op) = self.admin.as_mut().filter(|op| op.pid == pid) else {
            return;
        };
        op.in_flight -= 1;
        if moved {
            op.keys_moved += 1;
        } else {
            op.skipped += 1;
        }
        self.pump_transfers(pid);
        self.maybe_finish_rebalance(pid);
    }

    fn maybe_finish_rebalance(&mut self, pid: usize) {
        let finished = self
            .admin
            .as_ref()
            .filter(|op| op.pid == pid)
            .is_some_and(|op| {
                op.census_outstanding == 0 && op.next_move >= op.moves.len() && op.in_flight == 0
            });
        if finished {
            self.finish_rebalance(pid);
        }
    }

    /// Phase 3, the cutover: every moved key has landed, so swapping
    /// the routing ring is loss-free. This is the *only* place the ring
    /// changes, and it is a plain field assignment — atomic with
    /// respect to every other event the single-threaded loop handles.
    fn finish_rebalance(&mut self, pid: usize) {
        if self.admin.as_ref().is_none_or(|op| op.pid != pid) {
            return;
        }
        let op = self.admin.take().expect("checked above");
        let ms = op.started.elapsed().as_millis() as u64;
        self.ring = op.new_ring;
        self.ring_version += 1;
        if let Some(id) = op.drain {
            if !self.drained.contains(&id) {
                self.drained.push(id);
            }
        }
        self.metrics.rebalance_keys_moved.add(op.keys_moved);
        self.metrics.rebalance_bytes.add(op.bytes);
        self.metrics.rebalance_ms.add(ms);
        let report = RebalanceReport {
            keys_moved: op.keys_moved,
            bytes: op.bytes,
            ms,
            skipped: op.skipped,
            ring: self.ring.shard_ids().to_vec(),
        };
        self.answer_admin(pid, &Response::Admin(AdminResponse::Rebalanced(report)));
    }

    /// Abandon the op with the old ring fully intact, undoing the
    /// speculative address-book/drained-list edits a join made.
    fn abort_rebalance(&mut self, pid: usize, msg: String) {
        if self.admin.as_ref().is_none_or(|op| op.pid != pid) {
            return;
        }
        let op = self.admin.take().expect("checked above");
        if let Some((id, prev)) = op.join_rollback {
            self.set_addr(id, prev);
        }
        if let Some(id) = op.drained_rollback {
            if !self.drained.contains(&id) {
                self.drained.push(id);
            }
        }
        self.answer_admin(pid, &admin_err(&msg));
    }

    /// Mark the op's anchoring pending done and answer its client.
    fn answer_admin(&mut self, pid: usize, resp: &Response) {
        if let Some(Pending::Admin { client, done, .. }) = self.pendings.get_mut(pid) {
            *done = true;
            let client = *client;
            self.answer_client(client, pid, resp);
        }
    }

    /// When the last fleet-status census leg has reported
    /// (`outstanding == 1`: the caller settles after us), assemble the
    /// typed fleet view.
    fn finalize_fleet_if_ready(&mut self, pid: usize) {
        let (client, collected) = match self.pendings.get_mut(pid) {
            Some(Pending::Fleet {
                client,
                collected,
                outstanding,
            }) if *outstanding == 1 => (*client, std::mem::take(collected)),
            _ => return,
        };
        let mut shards: Vec<ShardInfo> = collected
            .into_iter()
            .map(|(id, keys)| ShardInfo {
                id,
                addr: self
                    .addrs
                    .get(&id)
                    .map_or_else(String::new, |a| a.to_string()),
                in_ring: self.ring.shard_ids().contains(&id),
                reachable: keys.is_some(),
                keys: keys.unwrap_or(0),
            })
            .collect();
        shards.sort_unstable_by_key(|s| s.id);
        let status = FleetStatus {
            version: self.ring_version,
            shards,
        };
        self.answer_client(client, pid, &Response::Admin(AdminResponse::Status(status)));
    }

    /// Per-sweep hedge timer: any submit still unanswered past the
    /// budget gets one extra attempt on its replica shard. Returns the
    /// earliest deadline of a submit that may still be hedged.
    fn hedge_scan(&mut self) -> Option<Instant> {
        let budget = self.cfg.hedge_after;
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut to_issue: Vec<(u64, usize)> = Vec::new();
        for pid in 0..self.pendings.slots() {
            if let Some(Pending::Submit {
                replica: Some(replica),
                replica_tried: tried @ false,
                started,
                hedged: hedged @ false,
                done: false,
                ..
            }) = self.pendings.get_mut(pid)
            {
                let due = *started + budget;
                if due <= now {
                    *hedged = true;
                    *tried = true;
                    to_issue.push((*replica, pid));
                } else {
                    next = Some(next.map_or(due, |n| n.min(due)));
                }
            }
        }
        for (replica, pid) in to_issue {
            self.metrics.hedged.inc();
            self.issue(replica, pid, Role::Hedge);
        }
        next
    }
}

enum UpOutcome {
    Keep,
    Done,
    Failed,
}

/// Refuse a body whose response tag no shard would send: it is garbled,
/// and forwarding it would hand the client bytes it cannot decode.
fn check_tag(body: &[u8]) -> Result<(), CodecError> {
    match body.first().copied().and_then(RespTag::from_wire) {
        Some(_) => Ok(()),
        None => Err(CodecError("unknown response tag".to_string())),
    }
}

/// A fresh upstream connection to `addr`, nonblocking with Nagle off.
/// The connect itself blocks the loop for up to `timeout`.
fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(
        std::io::ErrorKind::AddrNotAvailable,
        "shard address did not resolve",
    );
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, timeout) {
            Ok(s) => {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                return Ok(s);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}
