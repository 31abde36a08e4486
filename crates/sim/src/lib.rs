//! # epic-sim
//!
//! An Itanium-2-like performance simulator for the IMPACT EPIC
//! reproduction — the stand-in for the paper's 1 GHz Itanium 2 with
//! Pfmon performance monitoring. It executes compiled
//! [`epic_mach::MachProgram`] code and reports:
//!
//! * total cycles, split into the paper's Fig. 5 nine-category cycle
//!   accounting ([`counters::CycleAccounting`]);
//! * Pfmon-style event [`counters::Counters`] (retired useful /
//!   predicate-squashed / nop operations, branch predictions and
//!   mispredictions, cache and DTLB events, speculative and wild loads,
//!   RSE traffic);
//! * per-function cycle attribution (paper Fig. 10).
//!
//! Modeled structure: 6-issue in-order core with issue-group semantics, a
//! register scoreboard, 16K/16K L1I+L1D (1 cy), unified 256K L2 (5 cy)
//! and 3M L3 (12 cy), pluggable branch prediction with an RSB (the
//! [`predict`] zoo: gshare default, bimodal, TAGE-class, ideal oracle),
//! a 48-op decoupling fetch buffer, a 128-entry DTLB with hardware
//! walks, the register stack engine, a store-forwarding (micropipe)
//! hazard model, and both general and sentinel control-speculation
//! recovery models (paper Fig. 9).

#![forbid(unsafe_code)]

pub mod attrib;
pub mod caches;
pub mod counters;
mod decode;
mod engine;
pub mod machine;
pub mod predict;
pub mod rse;
pub mod sample;
pub mod tlb;
pub mod tracesink;

pub use attrib::{Attribution, ChargeRecord, EventSink, FuncMatrix, Location, RingTrace, SimEvent};
pub use counters::{Category, Counters, CycleAccounting, CATEGORIES, NUM_CATEGORIES, NUM_COUNTERS};
pub use machine::{run, run_with_sinks, SimOptions, SimResult, SimTrap, SpecModel, TrapKind};
pub use predict::{
    read_branch_trace, replay, AnyPredictor, BranchPredictor, BranchRecord, BranchTraceSink,
    BranchTraceStats, PredStats, PredictorSpec,
};
pub use sample::{
    kmeans, phase_profile, Centroid, Kmeans, PhaseProfile, SampleInfo, SamplePolicy, Warmup,
    BBV_DIM,
};
pub use tracesink::{ChargeStats, TraceSink};
