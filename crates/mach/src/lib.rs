//! # epic-mach
//!
//! Itanium-2-like machine description for the IMPACT EPIC reproduction:
//! functional units and latencies ([`units`]), IA-64 bundle templates and
//! issue-group packing ([`template`]), the compiled-program container
//! ([`program`]), and the machine configuration shared by the scheduler
//! and the performance simulator ([`config`]).
//!
//! Register convention for compiled code: virtual registers in scheduled
//! ops have been renamed by the allocator so that indexes `0..n_gr` are
//! general registers of the function's own register-stack window and
//! indexes `GR_WINDOW..GR_WINDOW + n_pr` are predicate registers. Each
//! call allocates a fresh window (IA-64 register stack); spill beyond the
//! physical capacity is charged by the simulator's RSE model.

#![forbid(unsafe_code)]

pub mod config;
pub mod program;
pub mod template;
pub mod units;

pub use config::{CacheConfig, MachineConfig};
pub use program::{MachFunc, MachProgram, BUNDLE_BYTES, CODE_BASE};
pub use template::{pack_group, try_pack_group, Bundle, Slot, Template, TEMPLATES};

/// Upper bound on general registers per window; predicate registers are
/// numbered from here in scheduled code.
pub const GR_WINDOW: u32 = 128;
/// Predicate registers per frame.
pub const PR_COUNT: u32 = 64;
