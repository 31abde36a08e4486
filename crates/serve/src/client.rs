//! Client side of the `epicd` protocol: a thin blocking connection that
//! `epicc serve`/`epicc submit` (and the CI smoke test) drive.

use crate::key::{CacheKey, JobSpec};
use crate::proto::{
    self, AdminRequest, AdminResponse, FleetStatus, RebalanceReport, Request, Response, ServeStats,
};
use crate::sched::{JobStatus, Priority};
use epic_driver::Measurement;
use epic_trace::MetricsSnapshot;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

/// Deterministic retry schedule for [`Client::submit_retry`]: capped
/// exponential backoff with no jitter, so a given attempt count always
/// produces the same delay sequence (tests and CI stay reproducible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = plain [`Client::submit`]).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Ceiling the doubling schedule saturates at.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (0-based):
    /// `min(cap, base * 2^attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// Malformed response frame.
    Codec(crate::codec::CodecError),
    /// Server-reported error.
    Server(String),
    /// Typed backpressure: the server shed this submission.
    Busy {
        /// Queue depth at rejection.
        queue_depth: usize,
    },
    /// The server answered with the wrong response kind.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Codec(e) => write!(f, "protocol: {e}"),
            ClientError::Server(msg) => write!(f, "server: {msg}"),
            ClientError::Busy { queue_depth } => {
                write!(f, "busy: server queue full ({queue_depth} waiting)")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<crate::codec::CodecError> for ClientError {
    fn from(e: crate::codec::CodecError) -> ClientError {
        ClientError::Codec(e)
    }
}

/// A successfully served submission.
pub struct Served {
    /// Content key of the job.
    pub key: CacheKey,
    /// Served straight from the server's store.
    pub cache_hit: bool,
    /// Attached to a job another client had in flight.
    pub coalesced: bool,
    /// The measurement.
    pub measurement: Measurement,
}

/// One blocking connection to an `epicd` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Request body buffer, reused across requests.
    body: Vec<u8>,
    /// Response body buffer, reused across responses.
    reply: Vec<u8>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:4617`).
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            body: Vec::new(),
            reply: Vec::new(),
        })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        proto::encode_request_into(req, &mut self.body);
        self.exchange()
    }

    /// Send the request staged in `body`; read and decode the answer.
    fn exchange(&mut self) -> Result<Response, ClientError> {
        proto::write_frame(&mut self.writer, &self.body)?;
        if !proto::read_frame_into(&mut self.reader, &mut self.reply)? {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-request",
            )));
        }
        match proto::decode_response(&self.reply)? {
            Response::Err(msg) => Err(ClientError::Server(msg)),
            Response::Busy { queue_depth } => Err(ClientError::Busy { queue_depth }),
            resp => Ok(resp),
        }
    }

    /// Submit a job and block until it is served (or typed-rejected).
    ///
    /// # Errors
    /// [`ClientError::Busy`] on shed load, [`ClientError::Server`] on
    /// job failure, transport/protocol errors otherwise.
    pub fn submit(
        &mut self,
        spec: &JobSpec,
        prio: Priority,
        deadline_ms: u64,
    ) -> Result<Served, ClientError> {
        proto::encode_submit_into(spec, prio, deadline_ms, &mut self.body);
        match self.exchange()? {
            Response::Done {
                key,
                cache_hit,
                coalesced,
                measurement,
            } => Ok(Served {
                key,
                cache_hit,
                coalesced,
                measurement: *measurement,
            }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// [`submit`](Client::submit), but ride out [`ClientError::Busy`]
    /// rejections by sleeping through `policy`'s deterministic backoff
    /// schedule and resubmitting, up to `policy.max_retries` times.
    ///
    /// # Errors
    /// [`ClientError::Busy`] once the retry budget is exhausted; every
    /// other error aborts immediately (retrying cannot fix them).
    pub fn submit_retry(
        &mut self,
        spec: &JobSpec,
        prio: Priority,
        deadline_ms: u64,
        policy: &RetryPolicy,
    ) -> Result<Served, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.submit(spec, prio, deadline_ms) {
                Err(ClientError::Busy { queue_depth }) => {
                    if attempt >= policy.max_retries {
                        return Err(ClientError::Busy { queue_depth });
                    }
                    // observable interplay with gateway hedging: every
                    // Busy ridden out shows up in `epicc top`
                    epic_trace::global().counter("serve.client.retries").inc();
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Push a finished measurement into the server's store under `key`
    /// without scheduling anything (warm-cache replication).
    ///
    /// # Errors
    /// Transport/protocol errors.
    pub fn put(&mut self, key: CacheKey, measurement: &Measurement) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Put {
            key,
            measurement: Box::new(measurement.clone()),
        })? {
            Response::PutOk => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the server's full metrics-registry snapshot.
    ///
    /// # Errors
    /// Transport/protocol errors.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(s) => Ok(s),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Ask where a key stands.
    ///
    /// # Errors
    /// Transport/protocol errors.
    pub fn status(&mut self, key: CacheKey) -> Result<JobStatus, ClientError> {
        match self.roundtrip(&Request::Status(key))? {
            Response::Status(s) => Ok(s),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch a stored result without scheduling anything.
    ///
    /// # Errors
    /// Transport/protocol errors.
    pub fn result(&mut self, key: CacheKey) -> Result<Option<Measurement>, ClientError> {
        match self.roundtrip(&Request::Result(key))? {
            Response::Result(m) => Ok(m.map(|b| *b)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the server's counters.
    ///
    /// # Errors
    /// Transport/protocol errors.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Enumerate every key the server's store holds (memory + disk).
    ///
    /// # Errors
    /// Transport/protocol errors.
    pub fn keys(&mut self) -> Result<Vec<CacheKey>, ClientError> {
        match self.roundtrip(&Request::Keys)? {
            Response::Keys(keys) => Ok(keys),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Issue a typed control-plane request (gateway only; plain shards
    /// refuse with [`ClientError::Server`]).
    ///
    /// # Errors
    /// Transport/protocol errors, or a shard-side refusal.
    pub fn admin(&mut self, req: &AdminRequest) -> Result<AdminResponse, ClientError> {
        match self.roundtrip(&Request::Admin(req.clone()))? {
            Response::Admin(a) => Ok(a),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Describe the fleet behind a gateway.
    ///
    /// # Errors
    /// Transport/protocol errors, or a typed admin refusal.
    pub fn fleet_status(&mut self) -> Result<FleetStatus, ClientError> {
        match self.admin(&AdminRequest::FleetStatus)? {
            AdminResponse::Status(s) => Ok(s),
            AdminResponse::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Join `id` at `addr` into the fleet: warm it, then cut over.
    ///
    /// # Errors
    /// Transport/protocol errors, or a typed admin refusal.
    pub fn cluster_join(&mut self, id: u64, addr: &str) -> Result<RebalanceReport, ClientError> {
        match self.admin(&AdminRequest::Join {
            id,
            addr: addr.to_string(),
        })? {
            AdminResponse::Rebalanced(r) => Ok(r),
            AdminResponse::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Drain `id` out of the fleet: warm its keys' new owners, then cut
    /// over.
    ///
    /// # Errors
    /// Transport/protocol errors, or a typed admin refusal.
    pub fn cluster_drain(&mut self, id: u64) -> Result<RebalanceReport, ClientError> {
        match self.admin(&AdminRequest::Drain { id })? {
            AdminResponse::Rebalanced(r) => Ok(r),
            AdminResponse::Err(msg) => Err(ClientError::Server(msg)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Ask the server to shut down cleanly.
    ///
    /// # Errors
    /// Transport/protocol errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// A single-threaded multiplexing client: `n` nonblocking connections
/// driven by one readiness sweep, mirroring the server's event loop from
/// the other side. This is how one client thread keeps a thousand
/// submits in flight at once (the wire protocol has no request IDs, so
/// depth comes from connection count, not per-connection pipelining —
/// though queued requests on one connection are still answered in
/// order).
///
/// Script requests with [`enqueue`](Swarm::enqueue), then drive
/// everything to completion with [`run`](Swarm::run). Responses come
/// back raw (`Response`, including `Err`/`Busy`) so callers can count
/// outcomes instead of aborting on the first rejection.
pub struct Swarm {
    conns: Vec<SwarmConn>,
}

struct SwarmConn {
    stream: TcpStream,
    decoder: proto::FrameDecoder,
    /// Queued request frames (header+body), concatenated; written as
    /// far as the socket allows each sweep.
    out: Vec<u8>,
    out_sent: usize,
    expected: usize,
    responses: Vec<Response>,
}

impl Swarm {
    /// Open `n` connections to `addr`, all nonblocking.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str, n: usize) -> Result<Swarm, ClientError> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(SwarmConn {
                stream,
                decoder: proto::FrameDecoder::new(),
                out: Vec::new(),
                out_sent: 0,
                expected: 0,
                responses: Vec::new(),
            });
        }
        Ok(Swarm { conns })
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when the swarm has no connections.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Script `req` onto connection `conn` (0-based). Nothing hits the
    /// wire until [`run`](Swarm::run).
    pub fn enqueue(&mut self, conn: usize, req: &Request) {
        let c = &mut self.conns[conn];
        let mut body = Vec::new();
        proto::encode_request_into(req, &mut body);
        c.out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        c.out.extend_from_slice(&body);
        c.expected += 1;
    }

    /// Drive every connection until each has one response per scripted
    /// request, or `timeout` elapses. Returns per-connection responses
    /// in script order.
    ///
    /// # Errors
    /// Timeout, transport failure, a server that closes with responses
    /// outstanding, or a malformed response frame.
    pub fn run(&mut self, timeout: Duration) -> Result<Vec<Vec<Response>>, ClientError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let mut progress = false;
            let mut outstanding = 0usize;
            for c in &mut self.conns {
                progress |= c.pump()?;
                outstanding += c.expected - c.responses.len();
            }
            if outstanding == 0 {
                break;
            }
            if std::time::Instant::now() > deadline {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("swarm timed out with {outstanding} responses outstanding"),
                )));
            }
            if !progress {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        Ok(self
            .conns
            .iter_mut()
            .map(|c| std::mem::take(&mut c.responses))
            .collect())
    }
}

impl SwarmConn {
    /// One nonblocking sweep over this connection: flush what the
    /// socket will take, decode what it has.
    fn pump(&mut self) -> Result<bool, ClientError> {
        let mut progress = false;
        while self.out_sent < self.out.len() {
            match std::io::Write::write(&mut self.stream, &self.out[self.out_sent..]) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "server stopped accepting bytes",
                    )))
                }
                Ok(n) => {
                    self.out_sent += n;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        while self.responses.len() < self.expected {
            match self.decoder.read_from(&mut self.stream) {
                Ok(proto::FrameEvent::Frame) => {
                    let resp = proto::decode_response(self.decoder.frame())?;
                    self.decoder.next_frame();
                    self.responses.push(resp);
                    progress = true;
                }
                Ok(proto::FrameEvent::Blocked) => break,
                Ok(proto::FrameEvent::Closed) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed with responses outstanding",
                    )))
                }
                Err(proto::FrameError::Io(e)) => return Err(e.into()),
                Err(e) => return Err(ClientError::Codec(crate::codec::CodecError(e.to_string()))),
            }
        }
        Ok(progress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_double_then_saturate_at_the_cap() {
        let p = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
        };
        let delays: Vec<u64> = (0..8).map(|a| p.delay(a).as_millis() as u64).collect();
        assert_eq!(delays, vec![10, 20, 40, 80, 100, 100, 100, 100]);
        // the same policy always yields the same schedule — no jitter
        assert_eq!(p.delay(3), p.delay(3));
    }

    #[test]
    fn retry_delay_survives_huge_attempt_counts() {
        let p = RetryPolicy::default();
        // 2^40 would overflow the shift; the schedule must saturate at
        // the cap instead of panicking or wrapping
        assert_eq!(p.delay(40), p.cap);
        assert_eq!(p.delay(u32::MAX), p.cap);
    }
}
