//! Wire protocol for `epicd`: 4-byte big-endian length-prefixed frames
//! over TCP, one request frame → one response frame.
//!
//! Frame body layout (all via the [`codec`](crate::codec) primitives):
//!
//! ```text
//! request  := verb:u8 payload
//! response := tag:u8  payload
//! ```
//!
//! Every request verb and response tag is a member of the typed
//! [`Verb`] / [`RespTag`] enums — the numeric wire byte is pinned by
//! the enum discriminant and by a golden-frame test, so frames written
//! by a pre-redesign client still decode byte-for-byte. Responses carry
//! either the requested data, a typed [`Response::Busy`] (load shed — the
//! client sees backpressure, not a hang), or an error string.
//!
//! The `Admin` verb is versioned: its payload opens with
//! [`ADMIN_VERSION`], so the control plane can evolve without burning a
//! new wire byte per revision — decoders reject versions they don't
//! know instead of misparsing them.
//!
//! The frame length is capped at [`MAX_FRAME`] so a corrupt or hostile
//! length prefix cannot trigger an unbounded allocation.

use crate::codec::{self, CodecError, Dec, Enc, Sink};
use crate::key::{
    canon_machine_config, level_from_tag, level_tag, profile_input_from_tag, profile_input_tag,
    spec_model_from_tag, spec_model_tag, CacheKey, JobSpec,
};
use crate::sched::{JobStatus, Priority, SchedStats};
use crate::store::StoreStats;
use epic_driver::Measurement;
use epic_mach::{CacheConfig, MachineConfig};
use epic_sim::{PredictorSpec, SamplePolicy, Warmup};
use epic_trace::{HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot};
use std::io::{Read, Write};

/// Hard ceiling on one frame's body (16 MiB — a full measurement for
/// the largest workload is a few hundred KiB).
pub const MAX_FRAME: usize = 16 << 20;

/// Request verbs, pinned to their wire bytes. The discriminant IS the
/// protocol: existing verbs never renumber (the golden-frame test holds
/// legacy encodings against this table), new verbs only append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Verb {
    /// Run (or fetch) a job.
    Submit = 1,
    /// Query a key's status.
    Status = 2,
    /// Fetch a stored result.
    Result = 3,
    /// Server + store + scheduler counters.
    Stats = 4,
    /// Stop the server.
    Shutdown = 5,
    /// Full metrics-registry snapshot.
    Metrics = 6,
    /// Store a finished measurement (warm-cache replication).
    Put = 7,
    /// Enumerate every key the shard's store holds.
    Keys = 8,
    /// Versioned control-plane envelope ([`AdminRequest`]).
    Admin = 9,
}

impl Verb {
    /// The wire byte.
    pub fn wire(self) -> u8 {
        self as u8
    }

    /// The verb assigned to a wire byte, `None` if unassigned.
    pub fn from_wire(b: u8) -> Option<Verb> {
        Some(match b {
            1 => Verb::Submit,
            2 => Verb::Status,
            3 => Verb::Result,
            4 => Verb::Stats,
            5 => Verb::Shutdown,
            6 => Verb::Metrics,
            7 => Verb::Put,
            8 => Verb::Keys,
            9 => Verb::Admin,
            _ => return None,
        })
    }
}

/// Response tags, pinned to their wire bytes exactly like [`Verb`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RespTag {
    /// Error string.
    Err = 0,
    /// Finished submit.
    Done = 1,
    /// Status answer.
    Status = 2,
    /// Stored-result answer.
    Result = 3,
    /// Stats answer.
    Stats = 4,
    /// Typed backpressure.
    Busy = 5,
    /// Shutdown acknowledged.
    ShutdownOk = 6,
    /// Metrics answer.
    Metrics = 7,
    /// Replicate-put acknowledged.
    PutOk = 8,
    /// Key-census answer.
    Keys = 9,
    /// Versioned control-plane envelope ([`AdminResponse`]).
    Admin = 10,
}

impl RespTag {
    /// The wire byte.
    pub fn wire(self) -> u8 {
        self as u8
    }

    /// The tag assigned to a wire byte, `None` if unassigned.
    pub fn from_wire(b: u8) -> Option<RespTag> {
        Some(match b {
            0 => RespTag::Err,
            1 => RespTag::Done,
            2 => RespTag::Status,
            3 => RespTag::Result,
            4 => RespTag::Stats,
            5 => RespTag::Busy,
            6 => RespTag::ShutdownOk,
            7 => RespTag::Metrics,
            8 => RespTag::PutOk,
            9 => RespTag::Keys,
            10 => RespTag::Admin,
            _ => return None,
        })
    }
}

/// Version byte opening every `Admin` payload. Bump on any layout
/// change to [`AdminRequest`] / [`AdminResponse`]; decoders reject
/// versions they don't know.
pub const ADMIN_VERSION: u8 = 1;

/// A typed control-plane request (the [`Verb::Admin`] payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdminRequest {
    /// Describe the fleet: ring membership plus a per-shard key census.
    FleetStatus,
    /// Add a shard: warm it with every key it will own, then cut the
    /// routing ring over to it.
    Join {
        /// Stable identity of the joining shard.
        id: u64,
        /// Where it listens.
        addr: String,
    },
    /// Remove a shard: warm its keys onto their next owners first, then
    /// cut the routing ring over — zero warm-cache loss.
    Drain {
        /// The departing shard.
        id: u64,
    },
}

/// A typed control-plane response (the [`RespTag::Admin`] payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdminResponse {
    /// Fleet description.
    Status(FleetStatus),
    /// A join/drain finished: what moved, and the ring after cutover.
    Rebalanced(RebalanceReport),
    /// The operation was refused or failed; the ring is unchanged.
    Err(String),
}

/// One shard as the gateway sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Stable shard identity.
    pub id: u64,
    /// Listen address.
    pub addr: String,
    /// Member of the current routing ring (false: drained but still
    /// known, e.g. for in-flight old-ring requests and shutdown fanout).
    pub in_ring: bool,
    /// The census probe reached it.
    pub reachable: bool,
    /// Keys its store reported holding.
    pub keys: u64,
}

/// Fleet description: ring generation plus every shard the gateway
/// knows about.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStatus {
    /// Monotonic ring generation — bumps on every cutover.
    pub version: u64,
    /// Known shards, id-sorted.
    pub shards: Vec<ShardInfo>,
}

/// What a warm-before-cutover rebalance did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Cached results pushed to their new owners before the swap.
    pub keys_moved: u64,
    /// Measurement bytes transferred.
    pub bytes: u64,
    /// Wall time from admin dispatch to ring swap.
    pub ms: u64,
    /// Keys whose move was skipped (result vanished mid-flight or a
    /// transfer leg failed) — routing still cut over; those keys simply
    /// recompute cold on their new owner.
    pub skipped: u64,
    /// Ring membership after the cutover.
    pub ring: Vec<u64>,
}

/// One client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Run (or fetch) a job.
    Submit {
        /// The job.
        spec: JobSpec,
        /// Queue priority.
        prio: Priority,
        /// Queue deadline in milliseconds (0 = none).
        deadline_ms: u64,
    },
    /// Where is this key? (unknown / in flight / done)
    Status(CacheKey),
    /// Fetch a stored result without scheduling anything.
    Result(CacheKey),
    /// Server + store + scheduler counters.
    Stats,
    /// Full metrics-registry snapshot (counters, gauges, histograms).
    Metrics,
    /// Store a finished measurement under a key without running anything
    /// (warm-cache replication: the gateway pushes a completed result to
    /// a replica shard so failover is warm).
    Put {
        /// Content key of the job.
        key: CacheKey,
        /// The measurement to store.
        measurement: Box<Measurement>,
    },
    /// Enumerate every key the shard's store holds (memory + disk) —
    /// the census a rebalance walks to compute what moves.
    Keys,
    /// Control-plane operation (gateway only; a plain epicd refuses).
    Admin(AdminRequest),
    /// Stop the server (used by CI for a clean teardown).
    Shutdown,
}

/// Aggregate server statistics (the `stats` verb payload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Artifact-store counters.
    pub store: StoreStats,
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Compiles the runner actually performed.
    pub compiles: u64,
    /// Simulations the runner actually performed.
    pub sims: u64,
    /// Which shard answered (0 for a standalone epicd; the fleet assigns
    /// stable non-zero ids so `epicc top --cluster` can tell shards
    /// apart).
    pub shard_id: u64,
}

/// One server response.
#[derive(Clone, Debug)]
pub enum Response {
    /// Something went wrong (bad frame, runner failure, expiry...).
    Err(String),
    /// Submit accepted and finished.
    Done {
        /// Content key of the job.
        key: CacheKey,
        /// Served straight from the store.
        cache_hit: bool,
        /// Attached to an already-running job.
        coalesced: bool,
        /// The measurement.
        measurement: Box<Measurement>,
    },
    /// Status answer.
    Status(JobStatus),
    /// Stored result (None: not stored).
    Result(Option<Box<Measurement>>),
    /// Stats answer.
    Stats(ServeStats),
    /// Metrics answer: a name-sorted registry snapshot.
    Metrics(MetricsSnapshot),
    /// Queue full — typed backpressure, retry later.
    Busy {
        /// Queue depth at rejection.
        queue_depth: usize,
    },
    /// Replicate-put acknowledged.
    PutOk,
    /// Key census: every key the shard's store holds.
    Keys(Vec<CacheKey>),
    /// Control-plane answer.
    Admin(AdminResponse),
    /// Shutdown acknowledged.
    ShutdownOk,
}

fn enc_key(e: &mut Enc, k: CacheKey) {
    e.u64(k.hi);
    e.u64(k.lo);
}

fn dec_key(d: &mut Dec) -> Result<CacheKey, CodecError> {
    Ok(CacheKey {
        hi: d.u64()?,
        lo: d.u64()?,
    })
}

fn enc_spec(e: &mut Enc, s: &JobSpec) {
    e.str(&s.source);
    e.i64s(&s.train_args);
    e.i64s(&s.ref_args);
    e.u8(level_tag(s.level));
    e.u8(profile_input_tag(s.profile_input));
    e.bool(s.enable_data_spec);
    e.u64(s.profile_fuel);
    // the canonical encoding doubles as the wire encoding for the config
    e.nested(|e| canon_machine_config(e, &s.config));
    e.u64(s.sim_fuel);
    e.u8(spec_model_tag(s.spec_model));
    enc_sample_policy(e, s.sample);
    enc_predictor_spec(e, s.predictor);
}

fn enc_predictor_spec(e: &mut Enc, spec: PredictorSpec) {
    match spec {
        PredictorSpec::Gshare {
            table_bits,
            history_bits,
        } => {
            e.u8(0);
            e.u32(table_bits);
            e.u32(history_bits);
        }
        PredictorSpec::Bimodal { table_bits } => {
            e.u8(1);
            e.u32(table_bits);
        }
        PredictorSpec::Tage => e.u8(2),
        PredictorSpec::Oracle => e.u8(3),
    }
}

fn dec_predictor_spec(d: &mut Dec) -> Result<PredictorSpec, CodecError> {
    match d.u8()? {
        0 => Ok(PredictorSpec::Gshare {
            table_bits: d.u32()?,
            history_bits: d.u32()?,
        }),
        1 => Ok(PredictorSpec::Bimodal {
            table_bits: d.u32()?,
        }),
        2 => Ok(PredictorSpec::Tage),
        3 => Ok(PredictorSpec::Oracle),
        t => Err(CodecError(format!("bad predictor tag {t}"))),
    }
}

fn enc_sample_policy(e: &mut Enc, p: SamplePolicy) {
    match p {
        SamplePolicy::Exact => e.u8(0),
        SamplePolicy::Sampled {
            interval_len,
            max_clusters,
            warmup,
        } => {
            e.u8(1);
            e.u64(interval_len);
            e.usize(max_clusters);
            match warmup {
                Warmup::Cold => e.u8(0),
                Warmup::Ops(w) => {
                    e.u8(1);
                    e.u64(w);
                }
                Warmup::Full => e.u8(2),
            }
        }
    }
}

fn dec_sample_policy(d: &mut Dec) -> Result<SamplePolicy, CodecError> {
    match d.u8()? {
        0 => Ok(SamplePolicy::Exact),
        1 => {
            let interval_len = d.u64()?;
            let max_clusters = d.usize()?;
            let warmup = match d.u8()? {
                0 => Warmup::Cold,
                1 => Warmup::Ops(d.u64()?),
                2 => Warmup::Full,
                t => return Err(CodecError(format!("bad warmup tag {t}"))),
            };
            Ok(SamplePolicy::Sampled {
                interval_len,
                max_clusters,
                warmup,
            })
        }
        t => Err(CodecError(format!("bad sample-policy tag {t}"))),
    }
}

fn dec_cache_cfg(d: &mut Dec) -> Result<CacheConfig, CodecError> {
    Ok(CacheConfig {
        size: d.u64()?,
        line: d.u64()?,
        ways: d.u64()?,
        latency: d.u64()?,
    })
}

fn dec_spec(d: &mut Dec) -> Result<JobSpec, CodecError> {
    let source = d.str()?;
    let train_args = d.i64s()?;
    let ref_args = d.i64s()?;
    let level =
        level_from_tag(d.u8()?).ok_or_else(|| CodecError("bad opt-level tag".to_string()))?;
    let profile_input = profile_input_from_tag(d.u8()?)
        .ok_or_else(|| CodecError("bad profile-input tag".to_string()))?;
    let enable_data_spec = d.bool()?;
    let profile_fuel = d.u64()?;
    let cfg_bytes = d.bytes()?;
    let mut cd = Dec::new(cfg_bytes);
    let config = MachineConfig {
        l1i: dec_cache_cfg(&mut cd)?,
        l1d: dec_cache_cfg(&mut cd)?,
        l2: dec_cache_cfg(&mut cd)?,
        l3: dec_cache_cfg(&mut cd)?,
        mem_latency: cd.u64()?,
        mispredict_penalty: cd.u64()?,
        ib_ops: cd.usize()?,
        fetch_bundles: cd.usize()?,
        rse_capacity: cd.u32()?,
        rse_cycle_per_reg: cd.u64()?,
        dtlb_entries: cd.usize()?,
        tlb_walk_cycles: cd.u64()?,
        wild_load_kernel_cycles: cd.u64()?,
        nat_page_cycles: cd.u64()?,
        chk_recovery_cycles: cd.u64()?,
        syscall_kernel_cycles: cd.u64()?,
        store_forward_stall: cd.u64()?,
        store_buffer: cd.usize()?,
        alat_entries: cd.usize()?,
        alat_recovery_cycles: cd.u64()?,
    };
    cd.expect_end()?;
    Ok(JobSpec {
        source,
        train_args,
        ref_args,
        level,
        profile_input,
        enable_data_spec,
        profile_fuel,
        config: Box::new(config),
        sim_fuel: d.u64()?,
        spec_model: spec_model_from_tag(d.u8()?)
            .ok_or_else(|| CodecError("bad spec-model tag".to_string()))?,
        sample: dec_sample_policy(d)?,
        predictor: dec_predictor_spec(d)?,
    })
}

fn enc_store_stats(e: &mut Enc, s: &StoreStats) {
    for v in [
        s.hits,
        s.misses,
        s.evictions,
        s.disk_hits,
        s.disk_writes,
        s.mach_hits,
        s.mem_entries,
    ] {
        e.u64(v);
    }
}

fn dec_store_stats(d: &mut Dec) -> Result<StoreStats, CodecError> {
    Ok(StoreStats {
        hits: d.u64()?,
        misses: d.u64()?,
        evictions: d.u64()?,
        disk_hits: d.u64()?,
        disk_writes: d.u64()?,
        mach_hits: d.u64()?,
        mem_entries: d.u64()?,
    })
}

fn enc_sched_stats(e: &mut Enc, s: &SchedStats) {
    for v in [
        s.submitted,
        s.cache_hits,
        s.coalesced,
        s.shed,
        s.jobs_run,
        s.expired,
        s.queue_depth,
        s.in_flight,
    ] {
        e.u64(v);
    }
}

fn dec_sched_stats(d: &mut Dec) -> Result<SchedStats, CodecError> {
    Ok(SchedStats {
        submitted: d.u64()?,
        cache_hits: d.u64()?,
        coalesced: d.u64()?,
        shed: d.u64()?,
        jobs_run: d.u64()?,
        expired: d.u64()?,
        queue_depth: d.u64()?,
        in_flight: d.u64()?,
    })
}

const ADMIN_REQ_STATUS: u8 = 0;
const ADMIN_REQ_JOIN: u8 = 1;
const ADMIN_REQ_DRAIN: u8 = 2;

const ADMIN_RESP_STATUS: u8 = 0;
const ADMIN_RESP_REBALANCED: u8 = 1;
const ADMIN_RESP_ERR: u8 = 2;

fn enc_admin_request(e: &mut Enc, a: &AdminRequest) {
    e.u8(ADMIN_VERSION);
    match a {
        AdminRequest::FleetStatus => e.u8(ADMIN_REQ_STATUS),
        AdminRequest::Join { id, addr } => {
            e.u8(ADMIN_REQ_JOIN);
            e.u64(*id);
            e.str(addr);
        }
        AdminRequest::Drain { id } => {
            e.u8(ADMIN_REQ_DRAIN);
            e.u64(*id);
        }
    }
}

fn dec_admin_version(d: &mut Dec) -> Result<(), CodecError> {
    let v = d.u8()?;
    if v != ADMIN_VERSION {
        return Err(CodecError(format!(
            "unsupported admin version {v} (speaking {ADMIN_VERSION})"
        )));
    }
    Ok(())
}

fn dec_admin_request(d: &mut Dec) -> Result<AdminRequest, CodecError> {
    dec_admin_version(d)?;
    Ok(match d.u8()? {
        ADMIN_REQ_STATUS => AdminRequest::FleetStatus,
        ADMIN_REQ_JOIN => AdminRequest::Join {
            id: d.u64()?,
            addr: d.str()?,
        },
        ADMIN_REQ_DRAIN => AdminRequest::Drain { id: d.u64()? },
        t => return Err(CodecError(format!("bad admin request tag {t}"))),
    })
}

fn enc_admin_response(e: &mut Enc, a: &AdminResponse) {
    e.u8(ADMIN_VERSION);
    match a {
        AdminResponse::Status(s) => {
            e.u8(ADMIN_RESP_STATUS);
            e.u64(s.version);
            e.usize(s.shards.len());
            for sh in &s.shards {
                e.u64(sh.id);
                e.str(&sh.addr);
                e.bool(sh.in_ring);
                e.bool(sh.reachable);
                e.u64(sh.keys);
            }
        }
        AdminResponse::Rebalanced(r) => {
            e.u8(ADMIN_RESP_REBALANCED);
            e.u64(r.keys_moved);
            e.u64(r.bytes);
            e.u64(r.ms);
            e.u64(r.skipped);
            e.u64s(&r.ring);
        }
        AdminResponse::Err(msg) => {
            e.u8(ADMIN_RESP_ERR);
            e.str(msg);
        }
    }
}

fn dec_admin_response(d: &mut Dec) -> Result<AdminResponse, CodecError> {
    dec_admin_version(d)?;
    Ok(match d.u8()? {
        ADMIN_RESP_STATUS => {
            let version = d.u64()?;
            let n = d.usize()?;
            let mut shards = Vec::with_capacity(n);
            for _ in 0..n {
                shards.push(ShardInfo {
                    id: d.u64()?,
                    addr: d.str()?,
                    in_ring: d.bool()?,
                    reachable: d.bool()?,
                    keys: d.u64()?,
                });
            }
            AdminResponse::Status(FleetStatus { version, shards })
        }
        ADMIN_RESP_REBALANCED => AdminResponse::Rebalanced(RebalanceReport {
            keys_moved: d.u64()?,
            bytes: d.u64()?,
            ms: d.u64()?,
            skipped: d.u64()?,
            ring: d.u64s()?,
        }),
        ADMIN_RESP_ERR => AdminResponse::Err(d.str()?),
        t => return Err(CodecError(format!("bad admin response tag {t}"))),
    })
}

const METRIC_COUNTER: u8 = 0;
const METRIC_GAUGE: u8 = 1;
const METRIC_HISTOGRAM: u8 = 2;

fn enc_metrics(e: &mut Enc, s: &MetricsSnapshot) {
    e.usize(s.entries.len());
    for entry in &s.entries {
        e.str(&entry.name);
        match &entry.value {
            MetricValue::Counter(v) => {
                e.u8(METRIC_COUNTER);
                e.u64(*v);
            }
            MetricValue::Gauge(v) => {
                e.u8(METRIC_GAUGE);
                e.i64(*v);
            }
            MetricValue::Histogram(h) => {
                e.u8(METRIC_HISTOGRAM);
                e.u64(h.count);
                e.u64(h.sum);
                e.usize(h.buckets.len());
                for &(bucket, n) in &h.buckets {
                    e.u8(bucket);
                    e.u64(n);
                }
            }
        }
    }
}

fn dec_metrics(d: &mut Dec) -> Result<MetricsSnapshot, CodecError> {
    let n = d.usize()?;
    let mut entries = Vec::new();
    for _ in 0..n {
        let name = d.str()?;
        let value = match d.u8()? {
            METRIC_COUNTER => MetricValue::Counter(d.u64()?),
            METRIC_GAUGE => MetricValue::Gauge(d.i64()?),
            METRIC_HISTOGRAM => {
                let count = d.u64()?;
                let sum = d.u64()?;
                let nb = d.usize()?;
                let mut buckets = Vec::new();
                for _ in 0..nb {
                    buckets.push((d.u8()?, d.u64()?));
                }
                MetricValue::Histogram(HistogramSnapshot {
                    count,
                    sum,
                    buckets,
                })
            }
            t => return Err(CodecError(format!("bad metric kind tag {t}"))),
        };
        entries.push(MetricEntry { name, value });
    }
    Ok(MetricsSnapshot { entries })
}

/// Encode a request frame body.
pub fn encode_request(r: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request_into(r, &mut buf);
    buf
}

/// The verb a request travels under.
pub fn request_verb(r: &Request) -> Verb {
    match r {
        Request::Submit { .. } => Verb::Submit,
        Request::Status(_) => Verb::Status,
        Request::Result(_) => Verb::Result,
        Request::Stats => Verb::Stats,
        Request::Metrics => Verb::Metrics,
        Request::Put { .. } => Verb::Put,
        Request::Keys => Verb::Keys,
        Request::Admin(_) => Verb::Admin,
        Request::Shutdown => Verb::Shutdown,
    }
}

/// [`encode_request`] into a reusable buffer: `buf` is cleared, its
/// capacity kept, so steady-state encoding allocates nothing.
pub fn encode_request_into(r: &Request, buf: &mut Vec<u8>) {
    let mut e = Enc::with_buf(std::mem::take(buf));
    e.u8(request_verb(r).wire());
    match r {
        Request::Submit {
            spec,
            prio,
            deadline_ms,
        } => enc_submit(&mut e, spec, *prio, *deadline_ms),
        Request::Status(k) | Request::Result(k) => enc_key(&mut e, *k),
        Request::Stats | Request::Metrics | Request::Keys | Request::Shutdown => {}
        Request::Put { key, measurement } => {
            enc_key(&mut e, *key);
            codec::encode_measurement_framed(&mut e, measurement);
        }
        Request::Admin(a) => enc_admin_request(&mut e, a),
    }
    *buf = e.finish();
}

fn enc_submit(e: &mut Enc, spec: &JobSpec, prio: Priority, deadline_ms: u64) {
    e.u8(prio.tag());
    e.u64(deadline_ms);
    enc_spec(e, spec);
}

/// [`encode_request_into`] of a [`Request::Submit`], from a borrowed
/// spec: a client encodes its job without cloning it into a request
/// first. Byte-identical to the owned form.
pub fn encode_submit_into(spec: &JobSpec, prio: Priority, deadline_ms: u64, buf: &mut Vec<u8>) {
    let mut e = Enc::with_buf(std::mem::take(buf));
    e.u8(Verb::Submit.wire());
    enc_submit(&mut e, spec, prio, deadline_ms);
    *buf = e.finish();
}

/// Decode a request frame body.
///
/// # Errors
/// Malformed or truncated payloads.
pub fn decode_request(body: &[u8]) -> Result<Request, CodecError> {
    let mut d = Dec::new(body);
    let wire = d.u8()?;
    let verb =
        Verb::from_wire(wire).ok_or_else(|| CodecError(format!("unknown request verb {wire}")))?;
    let r = match verb {
        Verb::Submit => {
            let prio = Priority::from_tag(d.u8()?)
                .ok_or_else(|| CodecError("bad priority tag".to_string()))?;
            let deadline_ms = d.u64()?;
            Request::Submit {
                spec: dec_spec(&mut d)?,
                prio,
                deadline_ms,
            }
        }
        Verb::Status => Request::Status(dec_key(&mut d)?),
        Verb::Result => Request::Result(dec_key(&mut d)?),
        Verb::Stats => Request::Stats,
        Verb::Metrics => Request::Metrics,
        Verb::Put => {
            let key = dec_key(&mut d)?;
            let m = codec::decode_measurement(d.bytes()?)?;
            Request::Put {
                key,
                measurement: Box::new(m),
            }
        }
        Verb::Keys => Request::Keys,
        Verb::Admin => Request::Admin(dec_admin_request(&mut d)?),
        Verb::Shutdown => Request::Shutdown,
    };
    d.expect_end()?;
    Ok(r)
}

/// Encode a response frame body.
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response_into(r, &mut buf);
    buf
}

/// [`encode_response`] into a reusable buffer: `buf` is cleared, its
/// capacity kept. Measurements are serialized in place
/// ([`codec::encode_measurement_framed`]), so the event loop's write
/// path does zero per-frame allocation at steady state.
pub fn encode_response_into(r: &Response, buf: &mut Vec<u8>) {
    let mut e = Enc::with_buf(std::mem::take(buf));
    e.u8(response_tag(r).wire());
    match r {
        Response::Err(msg) => e.str(msg),
        Response::Done {
            key,
            cache_hit,
            coalesced,
            measurement,
        } => enc_done(&mut e, *key, *cache_hit, *coalesced, measurement),
        Response::Status(s) => e.u8(s.tag()),
        Response::Result(m) => match m {
            Some(m) => {
                e.bool(true);
                codec::encode_measurement_framed(&mut e, m);
            }
            None => e.bool(false),
        },
        Response::Stats(s) => {
            enc_store_stats(&mut e, &s.store);
            enc_sched_stats(&mut e, &s.sched);
            e.u64(s.compiles);
            e.u64(s.sims);
            e.u64(s.shard_id);
        }
        Response::Metrics(s) => enc_metrics(&mut e, s),
        Response::Busy { queue_depth } => e.u64(*queue_depth as u64),
        Response::Keys(keys) => {
            e.usize(keys.len());
            for &k in keys {
                enc_key(&mut e, k);
            }
        }
        Response::Admin(a) => enc_admin_response(&mut e, a),
        Response::PutOk | Response::ShutdownOk => {}
    }
    *buf = e.finish();
}

fn enc_done(e: &mut Enc, key: CacheKey, cache_hit: bool, coalesced: bool, m: &Measurement) {
    enc_key(e, key);
    e.bool(cache_hit);
    e.bool(coalesced);
    codec::encode_measurement_framed(e, m);
}

/// [`encode_response_into`] of a [`Response::Done`], from a borrowed
/// measurement: the server answers from the store's shared copy without
/// cloning it into a `Box` first. Byte-identical to the owned form.
pub fn encode_done_into(
    key: CacheKey,
    cache_hit: bool,
    coalesced: bool,
    m: &Measurement,
    buf: &mut Vec<u8>,
) {
    let mut e = Enc::with_buf(std::mem::take(buf));
    e.u8(RespTag::Done.wire());
    enc_done(&mut e, key, cache_hit, coalesced, m);
    *buf = e.finish();
}

/// Offset of the `cache_hit` byte in a `Done` body: tag, then the key.
const DONE_CACHE_HIT_AT: usize = 1 + 16;

/// The `cache_hit` flag of an encoded [`Response::Done`] body, read
/// without decoding the measurement; `None` for any other body. The
/// gateway forwards answers verbatim and decodes only the fresh results
/// it replicates.
pub fn done_cache_hit(body: &[u8]) -> Option<bool> {
    match body {
        [tag, ..] if *tag == RespTag::Done.wire() => body.get(DONE_CACHE_HIT_AT).map(|&b| b != 0),
        _ => None,
    }
}

/// The tag a response travels under.
pub fn response_tag(r: &Response) -> RespTag {
    match r {
        Response::Err(_) => RespTag::Err,
        Response::Done { .. } => RespTag::Done,
        Response::Status(_) => RespTag::Status,
        Response::Result(_) => RespTag::Result,
        Response::Stats(_) => RespTag::Stats,
        Response::Metrics(_) => RespTag::Metrics,
        Response::Busy { .. } => RespTag::Busy,
        Response::PutOk => RespTag::PutOk,
        Response::Keys(_) => RespTag::Keys,
        Response::Admin(_) => RespTag::Admin,
        Response::ShutdownOk => RespTag::ShutdownOk,
    }
}

/// Decode a response frame body.
///
/// # Errors
/// Malformed or truncated payloads.
pub fn decode_response(body: &[u8]) -> Result<Response, CodecError> {
    let mut d = Dec::new(body);
    let wire = d.u8()?;
    let tag = RespTag::from_wire(wire)
        .ok_or_else(|| CodecError(format!("unknown response tag {wire}")))?;
    let r = match tag {
        RespTag::Err => Response::Err(d.str()?),
        RespTag::Done => {
            let key = dec_key(&mut d)?;
            let cache_hit = d.bool()?;
            let coalesced = d.bool()?;
            let m = codec::decode_measurement(d.bytes()?)?;
            Response::Done {
                key,
                cache_hit,
                coalesced,
                measurement: Box::new(m),
            }
        }
        RespTag::Status => Response::Status(
            JobStatus::from_tag(d.u8()?).ok_or_else(|| CodecError("bad status tag".to_string()))?,
        ),
        RespTag::Result => {
            if d.bool()? {
                Response::Result(Some(Box::new(codec::decode_measurement(d.bytes()?)?)))
            } else {
                Response::Result(None)
            }
        }
        RespTag::Stats => Response::Stats(ServeStats {
            store: dec_store_stats(&mut d)?,
            sched: dec_sched_stats(&mut d)?,
            compiles: d.u64()?,
            sims: d.u64()?,
            shard_id: d.u64()?,
        }),
        RespTag::Metrics => Response::Metrics(dec_metrics(&mut d)?),
        RespTag::Busy => Response::Busy {
            queue_depth: d.u64()? as usize,
        },
        RespTag::Keys => {
            let n = d.usize()?;
            let mut keys = Vec::with_capacity(n);
            for _ in 0..n {
                keys.push(dec_key(&mut d)?);
            }
            Response::Keys(keys)
        }
        RespTag::Admin => Response::Admin(dec_admin_response(&mut d)?),
        RespTag::PutOk => Response::PutOk,
        RespTag::ShutdownOk => Response::ShutdownOk,
    };
    d.expect_end()?;
    Ok(r)
}

/// Why incremental framing failed. Every variant is a property of ONE
/// connection: the server closes that connection and keeps serving the
/// rest (malformed-frame hardening).
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix announced a body over [`MAX_FRAME`]; nothing
    /// was allocated.
    TooLarge {
        /// The announced body length.
        len: usize,
    },
    /// The peer disconnected mid-prefix or mid-body.
    Truncated {
        /// Bytes of the current unit (prefix or body) received.
        have: usize,
        /// Bytes the current unit needs in total.
        want: usize,
    },
    /// Transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len } => write!(f, "frame length {len} exceeds cap"),
            FrameError::Truncated { have, want } => {
                write!(f, "peer closed mid-frame ({have} of {want} bytes)")
            }
            FrameError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// What one [`FrameDecoder::read_from`] call produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame body is buffered: read it with
    /// [`FrameDecoder::frame`], then call [`FrameDecoder::next_frame`].
    Frame,
    /// The reader has no more bytes right now (`WouldBlock`); try again
    /// when the socket is ready.
    Blocked,
    /// The peer closed cleanly at a frame boundary.
    Closed,
}

/// Incremental, allocation-reusing decoder for length-prefixed frames —
/// the event loop's read path. Bytes go straight from the socket into
/// the decoder's internal buffers (no intermediate chunk buffer), and
/// the body buffer is reused across frames, so steady-state decoding of
/// same-sized frames allocates nothing.
#[derive(Default)]
pub struct FrameDecoder {
    len_buf: [u8; 4],
    len_got: usize,
    body: Vec<u8>,
    body_got: usize,
    ready: bool,
}

impl FrameDecoder {
    /// A fresh decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// True while a frame is partially received — an EOF here is a
    /// protocol violation, not a clean close.
    pub fn mid_frame(&self) -> bool {
        !self.ready && (self.len_got > 0 || self.body_got > 0)
    }

    /// The completed frame body. Empty unless the last event was
    /// [`FrameEvent::Frame`] (and [`next_frame`](FrameDecoder::next_frame)
    /// has not been called yet).
    pub fn frame(&self) -> &[u8] {
        if self.ready {
            &self.body
        } else {
            &[]
        }
    }

    /// Consume the completed frame: reset to the next frame boundary,
    /// keeping the body buffer's capacity.
    pub fn next_frame(&mut self) {
        self.ready = false;
        self.len_got = 0;
        self.body_got = 0;
    }

    fn on_prefix_complete(&mut self) -> Result<(), FrameError> {
        let len = u32::from_be_bytes(self.len_buf) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::TooLarge { len });
        }
        // resize within retained capacity: no allocation once the buffer
        // has grown to the connection's working frame size
        self.body.clear();
        self.body.resize(len, 0);
        self.body_got = 0;
        if len == 0 {
            self.ready = true;
        }
        Ok(())
    }

    /// Pull as many bytes as `r` will give without blocking, directly
    /// into the internal buffers.
    ///
    /// # Errors
    /// [`FrameError::TooLarge`] on a hostile prefix, [`FrameError::Truncated`]
    /// on EOF mid-frame, [`FrameError::Io`] on transport failure.
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<FrameEvent, FrameError> {
        loop {
            if self.ready {
                return Ok(FrameEvent::Frame);
            }
            let (buf, want): (&mut [u8], usize) = if self.len_got < 4 {
                (&mut self.len_buf[self.len_got..], 4)
            } else {
                let want = self.body.len();
                (&mut self.body[self.body_got..], want)
            };
            match r.read(buf) {
                Ok(0) => {
                    return if self.mid_frame() {
                        let (have, want) = if self.len_got < 4 {
                            (self.len_got, 4)
                        } else {
                            (self.body_got, want)
                        };
                        Err(FrameError::Truncated { have, want })
                    } else {
                        Ok(FrameEvent::Closed)
                    };
                }
                Ok(n) if self.len_got < 4 => {
                    self.len_got += n;
                    if self.len_got == 4 {
                        self.on_prefix_complete()?;
                    }
                }
                Ok(n) => {
                    self.body_got += n;
                    if self.body_got == self.body.len() {
                        self.ready = true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(FrameEvent::Blocked)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Feed a byte slice instead of a reader (property tests): returns
    /// `(bytes consumed, frame complete)`. End of slice is not EOF —
    /// feed the next chunk to continue.
    ///
    /// # Errors
    /// [`FrameError::TooLarge`] on a hostile prefix.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(usize, bool), FrameError> {
        let mut used = 0;
        while used < chunk.len() && !self.ready {
            if self.len_got < 4 {
                let n = (4 - self.len_got).min(chunk.len() - used);
                self.len_buf[self.len_got..self.len_got + n]
                    .copy_from_slice(&chunk[used..used + n]);
                self.len_got += n;
                used += n;
                if self.len_got == 4 {
                    self.on_prefix_complete()?;
                }
            } else {
                let n = (self.body.len() - self.body_got).min(chunk.len() - used);
                self.body[self.body_got..self.body_got + n].copy_from_slice(&chunk[used..used + n]);
                self.body_got += n;
                used += n;
                if self.body_got == self.body.len() {
                    self.ready = true;
                }
            }
        }
        Ok((used, self.ready))
    }
}

/// Write one length-prefixed frame.
///
/// # Errors
/// Underlying I/O failures, or a body over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds cap", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed between requests).
///
/// # Errors
/// Underlying I/O failures, mid-frame EOF, or a length over
/// [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(read_frame_into(r, &mut body)?.then_some(body))
}

/// [`read_frame`] into a reusable buffer: `body` is resized to the
/// frame's body within its capacity. `Ok(false)` on clean EOF at a frame
/// boundary.
///
/// # Errors
/// As [`read_frame`].
pub fn read_frame_into(r: &mut impl Read, body: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds cap"),
        ));
    }
    body.clear();
    body.resize(n, 0);
    r.read_exact(body)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::dummy_measurement;
    use epic_driver::OptLevel;

    fn sample_spec() -> JobSpec {
        let w = epic_workloads::by_name("gzip_mc").unwrap();
        JobSpec::for_workload(&w, OptLevel::IlpCs)
    }

    #[test]
    fn requests_round_trip() {
        let key = sample_spec().job_key();
        let mut zoo_spec = sample_spec();
        zoo_spec.predictor = PredictorSpec::Tage;
        let reqs = [
            Request::Submit {
                spec: sample_spec(),
                prio: Priority::High,
                deadline_ms: 1500,
            },
            Request::Submit {
                spec: zoo_spec,
                prio: Priority::Normal,
                deadline_ms: 0,
            },
            Request::Status(key),
            Request::Result(key),
            Request::Stats,
            Request::Metrics,
            Request::Put {
                key,
                measurement: Box::new(dummy_measurement(5)),
            },
            Request::Keys,
            Request::Admin(AdminRequest::FleetStatus),
            Request::Admin(AdminRequest::Join {
                id: 4,
                addr: "127.0.0.1:9944".to_string(),
            }),
            Request::Admin(AdminRequest::Drain { id: 1 }),
            Request::Shutdown,
        ];
        for r in &reqs {
            let back = decode_request(&encode_request(r)).unwrap();
            // encoding is deterministic, so byte equality of re-encoded
            // requests is semantic equality
            assert_eq!(encode_request(&back), encode_request(r));
        }
    }

    #[test]
    fn decoded_spec_preserves_the_job_key() {
        let spec = sample_spec();
        let r = Request::Submit {
            spec: spec.clone(),
            prio: Priority::Normal,
            deadline_ms: 0,
        };
        match decode_request(&encode_request(&r)).unwrap() {
            Request::Submit { spec: got, .. } => {
                assert_eq!(got.job_key(), spec.job_key());
                assert_eq!(got.compile_key(), spec.compile_key());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let m = dummy_measurement(7);
        let resps = [
            Response::Err("boom".to_string()),
            Response::Done {
                key: sample_spec().job_key(),
                cache_hit: true,
                coalesced: false,
                measurement: Box::new(m.clone()),
            },
            Response::Status(JobStatus::InFlight),
            Response::Result(Some(Box::new(m))),
            Response::Result(None),
            Response::Stats(ServeStats {
                store: StoreStats {
                    hits: 3,
                    misses: 1,
                    ..Default::default()
                },
                sched: SchedStats {
                    submitted: 4,
                    shed: 2,
                    ..Default::default()
                },
                compiles: 9,
                sims: 11,
                shard_id: 2,
            }),
            Response::Metrics(MetricsSnapshot {
                entries: vec![
                    MetricEntry {
                        name: "serve.jobs_run".to_string(),
                        value: MetricValue::Counter(12),
                    },
                    MetricEntry {
                        name: "serve.queue_depth".to_string(),
                        value: MetricValue::Gauge(-1),
                    },
                    MetricEntry {
                        name: "serve.run_us".to_string(),
                        value: MetricValue::Histogram(HistogramSnapshot {
                            count: 3,
                            sum: 700,
                            buckets: vec![(7, 2), (9, 1)],
                        }),
                    },
                ],
            }),
            Response::Metrics(MetricsSnapshot::default()),
            Response::Busy { queue_depth: 17 },
            Response::PutOk,
            Response::Keys(vec![sample_spec().job_key(), CacheKey { hi: 1, lo: 2 }]),
            Response::Keys(Vec::new()),
            Response::Admin(AdminResponse::Status(FleetStatus {
                version: 3,
                shards: vec![ShardInfo {
                    id: 2,
                    addr: "127.0.0.1:7070".to_string(),
                    in_ring: true,
                    reachable: false,
                    keys: 17,
                }],
            })),
            Response::Admin(AdminResponse::Rebalanced(RebalanceReport {
                keys_moved: 12,
                bytes: 34_567,
                ms: 89,
                skipped: 1,
                ring: vec![2, 3, 4],
            })),
            Response::Admin(AdminResponse::Err("no such shard".to_string())),
            Response::ShutdownOk,
        ];
        for r in &resps {
            let back = decode_response(&encode_response(r)).unwrap();
            // encoding is deterministic, so byte equality of re-encoded
            // responses is semantic equality
            assert_eq!(encode_response(&back), encode_response(r));
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur).unwrap().is_none());
        // a hostile length prefix must not allocate
        let huge = [(MAX_FRAME as u32 + 1).to_be_bytes().to_vec(), vec![0; 8]].concat();
        assert!(read_frame(&mut std::io::Cursor::new(huge)).is_err());
    }

    #[test]
    fn incremental_decoder_matches_blocking_reader_over_any_chunking() {
        let frames: Vec<Vec<u8>> = vec![
            encode_request(&Request::Stats),
            encode_request(&Request::Submit {
                spec: sample_spec(),
                prio: Priority::High,
                deadline_ms: 250,
            }),
            Vec::new(), // empty frame body
            encode_response(&Response::Done {
                key: sample_spec().job_key(),
                cache_hit: false,
                coalesced: true,
                measurement: Box::new(dummy_measurement(3)),
            }),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        // feed the whole stream in awkward chunk sizes; the decoder must
        // recover every frame byte-for-byte with one reused buffer
        for chunk in [1usize, 3, 7, 4096] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                let mut rest = piece;
                while !rest.is_empty() {
                    let (used, ready) = dec.feed(rest).unwrap();
                    rest = &rest[used..];
                    if ready {
                        got.push(dec.frame().to_vec());
                        dec.next_frame();
                    }
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert!(!dec.mid_frame(), "stream must end at a boundary");
        }
    }

    #[test]
    fn hostile_length_prefix_is_typed_and_allocates_nothing() {
        let mut dec = FrameDecoder::new();
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        match dec.feed(&huge) {
            Err(FrameError::TooLarge { len }) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // same through the reader-driven path
        let mut dec = FrameDecoder::new();
        let mut cur = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            dec.read_from(&mut cur),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn eof_mid_prefix_and_mid_body_are_truncation_not_clean_close() {
        // one full frame then a truncated length prefix
        let mut wire = Vec::new();
        write_frame(&mut wire, b"ok").unwrap();
        wire.extend_from_slice(&[0, 0]); // half a prefix
        let mut dec = FrameDecoder::new();
        let mut cur = std::io::Cursor::new(wire);
        assert_eq!(dec.read_from(&mut cur).unwrap(), FrameEvent::Frame);
        assert_eq!(dec.frame(), b"ok");
        dec.next_frame();
        match dec.read_from(&mut cur) {
            Err(FrameError::Truncated { have: 2, want: 4 }) => {}
            other => panic!("expected mid-prefix truncation, got {other:?}"),
        }
        // a prefix promising 10 bytes with only 3 delivered
        let mut wire = 10u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        let mut dec = FrameDecoder::new();
        assert!(dec.feed(&wire).unwrap().0 == wire.len());
        assert!(dec.mid_frame());
        match dec.read_from(&mut std::io::Cursor::new(Vec::new())) {
            Err(FrameError::Truncated { have: 3, want: 10 }) => {}
            other => panic!("expected mid-body truncation, got {other:?}"),
        }
        // a clean close at a boundary is not an error
        let mut dec = FrameDecoder::new();
        assert_eq!(
            dec.read_from(&mut std::io::Cursor::new(Vec::new()))
                .unwrap(),
            FrameEvent::Closed
        );
    }

    #[test]
    fn garbage_verb_is_a_decode_error_after_clean_framing() {
        // framing succeeds (the frame is well-formed) but the body is a
        // garbage verb: the error is typed at the request layer, so the
        // server can answer it without dropping the connection
        let mut wire = Vec::new();
        write_frame(&mut wire, &[99, 1, 2, 3]).unwrap();
        let mut dec = FrameDecoder::new();
        let (used, ready) = dec.feed(&wire).unwrap();
        assert_eq!((used, ready), (wire.len(), true));
        assert!(decode_request(dec.frame()).is_err());
    }

    #[test]
    fn encode_into_reuses_buffers_and_matches_fresh_encodes() {
        let req = Request::Submit {
            spec: sample_spec(),
            prio: Priority::Low,
            deadline_ms: 9,
        };
        let resp = Response::Done {
            key: sample_spec().job_key(),
            cache_hit: true,
            coalesced: false,
            measurement: Box::new(dummy_measurement(11)),
        };
        let mut buf = Vec::new();
        encode_request_into(&req, &mut buf);
        assert_eq!(buf, encode_request(&req));
        let cap = buf.capacity();
        encode_request_into(&Request::Stats, &mut buf);
        assert_eq!(buf, encode_request(&Request::Stats));
        assert_eq!(buf.capacity(), cap, "re-encode must reuse the buffer");
        encode_response_into(&resp, &mut buf);
        assert_eq!(buf, encode_response(&resp));
    }

    #[test]
    fn borrowed_encoders_match_the_owned_frames() {
        let m = dummy_measurement(11);
        let key = sample_spec().job_key();
        let mut buf = Vec::new();
        for (cache_hit, coalesced) in [(true, false), (false, true)] {
            encode_done_into(key, cache_hit, coalesced, &m, &mut buf);
            let owned = encode_response(&Response::Done {
                key,
                cache_hit,
                coalesced,
                measurement: Box::new(m.clone()),
            });
            assert_eq!(buf, owned);
            assert_eq!(done_cache_hit(&buf), Some(cache_hit));
        }
        encode_submit_into(&sample_spec(), Priority::High, 7, &mut buf);
        let owned = encode_request(&Request::Submit {
            spec: sample_spec(),
            prio: Priority::High,
            deadline_ms: 7,
        });
        assert_eq!(buf, owned);
        // only a Done body carries the flag, and only once it is there
        assert_eq!(done_cache_hit(&encode_response(&Response::PutOk)), None);
        assert_eq!(done_cache_hit(&[RespTag::Done.wire()]), None);
        assert_eq!(done_cache_hit(&[]), None);
    }

    #[test]
    fn golden_frames_pin_legacy_wire_bytes() {
        // Byte-for-byte encodings a pre-redesign client produced: the
        // verb table is the protocol, so these arrays must never change.
        for (verb, wire) in [
            (Verb::Submit, 1u8),
            (Verb::Status, 2),
            (Verb::Result, 3),
            (Verb::Stats, 4),
            (Verb::Shutdown, 5),
            (Verb::Metrics, 6),
            (Verb::Put, 7),
            (Verb::Keys, 8),
            (Verb::Admin, 9),
        ] {
            assert_eq!(verb.wire(), wire);
            assert_eq!(Verb::from_wire(wire), Some(verb));
        }
        for (tag, wire) in [
            (RespTag::Err, 0u8),
            (RespTag::Done, 1),
            (RespTag::Status, 2),
            (RespTag::Result, 3),
            (RespTag::Stats, 4),
            (RespTag::Busy, 5),
            (RespTag::ShutdownOk, 6),
            (RespTag::Metrics, 7),
            (RespTag::PutOk, 8),
            (RespTag::Keys, 9),
            (RespTag::Admin, 10),
        ] {
            assert_eq!(tag.wire(), wire);
            assert_eq!(RespTag::from_wire(wire), Some(tag));
        }
        // whole legacy frame bodies, handcrafted
        assert_eq!(encode_request(&Request::Stats), [4]);
        assert_eq!(encode_request(&Request::Metrics), [6]);
        assert_eq!(encode_request(&Request::Shutdown), [5]);
        let key = CacheKey {
            hi: 0x0102_0304_0506_0708,
            lo: 0x090a_0b0c_0d0e_0f10,
        };
        let mut legacy_status = vec![2u8];
        legacy_status.extend_from_slice(&key.hi.to_le_bytes());
        legacy_status.extend_from_slice(&key.lo.to_le_bytes());
        assert_eq!(encode_request(&Request::Status(key)), legacy_status);
        legacy_status[0] = 3;
        assert_eq!(encode_request(&Request::Result(key)), legacy_status);
        match decode_request(&legacy_status).unwrap() {
            Request::Result(k) => assert_eq!(k, key),
            other => panic!("wrong decode: {other:?}"),
        }
        assert_eq!(encode_response(&Response::PutOk), [8]);
        assert_eq!(encode_response(&Response::ShutdownOk), [6]);
        let mut legacy_busy = vec![5u8];
        legacy_busy.extend_from_slice(&17u64.to_le_bytes());
        assert_eq!(
            encode_response(&Response::Busy { queue_depth: 17 }),
            legacy_busy
        );
        let mut legacy_err = vec![0u8];
        legacy_err.extend_from_slice(&4u64.to_le_bytes());
        legacy_err.extend_from_slice(b"boom");
        assert_eq!(
            encode_response(&Response::Err("boom".to_string())),
            legacy_err
        );
        assert!(matches!(
            decode_response(&legacy_err).unwrap(),
            Response::Err(ref m) if m == "boom"
        ));
    }

    #[test]
    fn admin_frames_are_versioned_and_reject_future_versions() {
        let body = encode_request(&Request::Admin(AdminRequest::Drain { id: 3 }));
        assert_eq!(body[0], Verb::Admin.wire());
        assert_eq!(body[1], ADMIN_VERSION, "payload must open with version");
        let mut future = body.clone();
        future[1] = ADMIN_VERSION + 1;
        let err = decode_request(&future).unwrap_err();
        assert!(
            err.0.contains("admin version"),
            "got wrong error: {}",
            err.0
        );
        let resp = encode_response(&Response::Admin(AdminResponse::Err("nope".to_string())));
        assert_eq!(resp[0], RespTag::Admin.wire());
        assert_eq!(resp[1], ADMIN_VERSION);
        let mut future = resp.clone();
        future[1] = 0;
        assert!(decode_response(&future).is_err());
    }

    #[test]
    fn corrupt_bodies_are_rejected() {
        let good = encode_request(&Request::Stats);
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_request(&trailing).is_err());
        assert!(decode_request(&[99]).is_err());
        assert!(decode_request(&[]).is_err());
        assert!(decode_response(&[77]).is_err());
    }
}
