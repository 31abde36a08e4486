//! # epic-opt
//!
//! The "high-level" and classical phases of the IMPACT pipeline (paper
//! Fig. 4) for the EPIC reproduction:
//!
//! * [`profile`] — control-flow (and indirect-call-target) profiling via a
//!   training run of the reference interpreter;
//! * [`promote`] — profile-guided indirect-call promotion;
//! * [`inline`] — profile-guided procedure inlining
//!   (`priority = weight / sqrt(size)`, 1.6× growth budget);
//! * [`alias`] — interprocedural Andersen-style pointer analysis, recorded
//!   as per-op alias tags consumed by the scheduler;
//! * [`classical`] — value numbering, constant/copy propagation, dead code
//!   elimination, CFG simplification, loop-invariant code motion.
//!
//! The structural EPIC transformations (superblocks, hyperblocks, peeling,
//! speculation) live in `epic-core`.

#![forbid(unsafe_code)]

pub mod alias;
pub mod classical;
pub mod inline;
pub mod profile;
pub mod promote;

/// Run the classical pipeline over every function of a program.
/// Returns total simplifications.
pub fn classical_optimize_program(prog: &mut epic_ir::Program) -> usize {
    let mut total = 0;
    for f in &mut prog.funcs {
        total += classical::optimize_function(f);
    }
    total
}
