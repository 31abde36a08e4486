//! # impact-epic
//!
//! Umbrella crate for the reproduction of *"Field-testing IMPACT EPIC
//! research results in Itanium 2"* (ISCA 2004). Re-exports every component
//! crate; see the README for the architecture overview and `examples/` for
//! runnable entry points.

#![forbid(unsafe_code)]

pub use epic_core as core;
pub use epic_driver as driver;
pub use epic_ir as ir;
pub use epic_lang as lang;
pub use epic_mach as mach;
pub use epic_opt as opt;
pub use epic_sched as sched;
pub use epic_sim as sim;
pub use epic_workloads as workloads;
