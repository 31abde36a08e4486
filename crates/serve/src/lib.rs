//! # epic-serve
//!
//! A content-addressed compile/sim job service. The experiment matrix
//! (12 workloads × 4 optimization levels, DESIGN.md §1) is pure: a
//! measurement is fully determined by the MiniC source, the compile
//! options, the machine configuration, and the simulation parameters.
//! This crate exploits that purity end to end:
//!
//! * [`key`] — canonical serialization of a job into a stable 128-bit
//!   [`CacheKey`] (two independent FNV-1a-64 lanes; identical across
//!   processes, runs, and thread counts).
//! * [`codec`] — versioned binary serialization of
//!   [`Measurement`](epic_driver::Measurement)s
//!   (strict decode, corrupt data is an error, never a wrong answer) and
//!   a [`digest`](codec::digest) that ignores wall-clock pass times — the
//!   bit-identity comparator used by tests and CI.
//! * [`store`] — the artifact store: bounded in-memory index over an
//!   optional persistent directory of `.epsv` files, plus a memory-only
//!   machine-code cache shared by jobs that differ only in simulation
//!   parameters. Implements [`epic_driver::MeasurementCache`], so
//!   `MeasureRequest` sweeps transparently reuse artifacts.
//! * [`sched`] — bounded priority scheduler over `std::thread` workers
//!   with in-flight coalescing (N concurrent submissions of one key run
//!   once), per-job queue deadlines, and typed [`Busy`](sched::SubmitError::Busy)
//!   load shedding.
//! * [`proto`]/[`server`]/[`client`] — a length-prefixed TCP protocol
//!   (`submit`/`status`/`result`/`stats`/`metrics`/`shutdown`) binding
//!   it together as the `epicd` daemon and the `epicc submit` client,
//!   with deterministic capped-exponential [`RetryPolicy`] backoff on
//!   shed load. The server is a **single-threaded event loop** over
//!   nonblocking sockets: an incremental [`proto::FrameDecoder`] and
//!   reused write buffers make steady-state framing allocation-free,
//!   completion hooks ([`sched::Ticket::on_complete`]) let one loop
//!   thread multiplex thousands of in-flight submits, and admission
//!   control (max-connections cap, idle-timeout reaping) keeps the
//!   house bounded. Between sweeps the loop blocks in [`netloop`]'s
//!   readiness wait — the one `poll(2)` call, and the workspace's only
//!   `unsafe` — which `epicg`'s gateway loop shares. [`client::Swarm`]
//!   is the loop's mirror image — a single-threaded multiplexing client
//!   for saturation tests.
//!
//! The scheduler, runner, and event loop publish counters and latency
//! histograms (`serve.*`) into the process-wide `epic-trace` registry;
//! the `metrics` verb ships a snapshot to `epicc top`.
//!
//! See DESIGN.md §8 for the architecture rationale, §9 for the tracing
//! layer, and §11 for the event-driven serving design.

#![deny(unsafe_code)]

pub mod client;
pub mod codec;
pub mod key;
pub mod netloop;
pub mod proto;
pub mod sched;
pub mod server;
pub mod store;
pub mod testutil;

pub use client::{Client, ClientError, RetryPolicy, Served, Swarm};
pub use codec::{digest, CodecError};
pub use key::{CacheKey, JobSpec};
pub use proto::{
    AdminRequest, AdminResponse, FleetStatus, FrameDecoder, FrameError, FrameEvent,
    RebalanceReport, RespTag, ServeStats, ShardInfo, Verb, ADMIN_VERSION,
};
pub use sched::{JobError, JobRunner, JobStatus, Priority, SchedStats, Scheduler, SubmitError};
pub use server::{serve, serve_with, ServerConfig, ServerHandle};
pub use store::{ArtifactStore, StoreStats};
