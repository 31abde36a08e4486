//! # epic-sched
//!
//! The back end of the IMPACT EPIC reproduction: profile-guided code
//! layout ([`layout`]), linear-scan register allocation onto the windowed
//! IA-64-style register file ([`regalloc`]), dependence-graph list
//! scheduling with the paper's speculation ladder ([`schedule`]), and
//! bundle emission ([`emit`]).
//!
//! The four scheduler configurations map to the paper's compiler
//! configurations:
//!
//! | Config | memory disambiguation | pure-op motion over branches | load speculation |
//! |--------|----------------------|------------------------------|------------------|
//! | [`schedule::SchedOptions::gcc`]    | conservative | no  | no  |
//! | [`schedule::SchedOptions::o_ns`]   | alias tags   | no  | no  |
//! | [`schedule::SchedOptions::ilp_ns`] | alias tags   | yes | no  |
//! | [`schedule::SchedOptions::ilp_cs`] | alias tags   | yes | yes (`ld.s`) |

#![forbid(unsafe_code)]

pub mod emit;
pub mod layout;
pub mod regalloc;
pub mod schedule;

pub use emit::{check_machine_program, compile_program, PlanStats};
pub use schedule::SchedOptions;
