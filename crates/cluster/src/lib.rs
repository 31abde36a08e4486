//! Fleet serving for the IMPACT EPIC reproduction: scale the `epicd`
//! compile/sim service from one daemon to N shards behind an `epicg`
//! gateway, without changing a single client.
//!
//! The pieces, bottom-up:
//!
//! * [`ring`] — rendezvous (highest-random-weight) hashing of 128-bit
//!   job keys onto shard ids: deterministic placement, minimal key
//!   movement on membership change, and a well-defined replica (the
//!   runner-up shard) for hedging and warm replication.
//! * [`merge`] — fleet views: per-shard [`ServeStats`] summed, metrics
//!   snapshots merged into `shard<id>.` / `fleet.` / `gateway.`
//!   sections that `epicc top --cluster` renders directly.
//! * [`rebalance`] — membership-change planning: given a census of
//!   which shards hold which keys, the exact set of [`KeyMove`]s that
//!   makes a new ring as warm as the old one.
//! * [`gateway`] — the `epicg` event loop: routes by key, hedges slow
//!   submits to the replica, fails over past dead shards, replicates
//!   fresh results, fans out `stats`/`metrics`/`shutdown`, and runs
//!   the typed admin control plane (`fleet-status`/`join`/`drain`)
//!   with warm-before-cutover rebalancing.
//!
//! Everything speaks the existing length-prefixed frame protocol
//! ([`epic_serve::proto`]) on both faces, so a gateway is
//! indistinguishable from a big `epicd` to clients and from an
//! ordinary client to shards. See DESIGN.md §14 for the architecture
//! discussion and EXPERIMENTS.md for fleet recipes.
//!
//! [`ServeStats`]: epic_serve::proto::ServeStats

#![forbid(unsafe_code)]

pub mod gateway;
pub mod merge;
pub mod rebalance;
pub mod ring;

pub use gateway::{gate, GatewayConfig, GatewayHandle};
pub use merge::{merge_metrics, merge_stats};
pub use rebalance::{plan_moves, KeyMove};
pub use ring::{Ring, Route};
