//! `epicbench`: one seeded ledger of end-to-end and per-layer cost for
//! the whole stack — compile passes, the simulator, `epicd` and `epicg`.
//! See `README.md` for the workloads, the metrics and how to run them.

pub mod cells;
pub mod compare;
pub mod layers;
pub mod ledger;
pub mod stats;
pub mod workload;
