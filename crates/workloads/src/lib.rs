//! # epic-workloads
//!
//! Twelve MiniC workloads standing in for SPECint2000 (see DESIGN.md for
//! the substitution argument). Each imitates the control structure and
//! memory behaviour class that drives its benchmark's results in the
//! paper:
//!
//! | stand-in | SPEC | key property |
//! |---|---|---|
//! | gzip_mc    | 164.gzip    | byte loops, hash chains, short match extension |
//! | vpr_mc     | 175.vpr     | annealing accept/reject, array scans |
//! | gcc_mc     | 176.gcc     | pointer/int unions → wild speculative loads |
//! | mcf_mc     | 181.mcf     | pointer chasing, memory bound, flat speedups |
//! | crafty_mc  | 186.crafty  | serial one-trip while loops (Fig. 3), big tables |
//! | parser_mc  | 197.parser  | dictionary tries + register pressure |
//! | eon_mc     | 252.eon     | biased indirect (virtual) calls |
//! | perlbmk_mc | 253.perlbmk | bytecode dispatch, large footprint |
//! | gap_mc     | 254.gap     | interpreter with indirect operators |
//! | vortex_mc  | 255.vortex  | many small DB functions (Fig. 10 subject) |
//! | bzip2_mc   | 256.bzip2   | sort/RLE with store-to-load forwarding |
//! | twolf_mc   | 300.twolf   | lukewarm cleanup loops (I-cache, Sec. 4.1) |
//!
//! Inputs are generated deterministically inside each program from seeds;
//! `train_args` and `ref_args` give the SPEC-style training and reference
//! parameterizations (profile feedback uses train, measurement uses ref —
//! and Sec. 4.6's profile-variation experiment swaps them).

#![forbid(unsafe_code)]

mod suite_a;
mod suite_b;
mod suite_c;

/// One workload: MiniC source plus train/ref parameterizations.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Stand-in name (e.g. `gzip_mc`).
    pub name: &'static str,
    /// The SPECint2000 benchmark this stands in for.
    pub spec_name: &'static str,
    /// What the program does and which paper effect it drives.
    pub description: &'static str,
    /// MiniC source text.
    pub source: &'static str,
    /// SPEC "train" input arguments for `main`.
    pub train_args: Vec<i64>,
    /// SPEC "ref" input arguments for `main`.
    pub ref_args: Vec<i64>,
}

impl Workload {
    /// Compile this workload's source to IR.
    ///
    /// # Panics
    /// Panics if the bundled source fails to compile (a crate bug).
    pub fn compile(&self) -> epic_ir::Program {
        epic_lang::compile(self.source)
            .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", self.name))
    }
}

/// The full suite, in the paper's Table 1 order.
pub fn all() -> Vec<Workload> {
    vec![
        suite_a::gzip(),
        suite_a::vpr(),
        suite_a::gcc(),
        suite_a::mcf(),
        suite_b::crafty(),
        suite_b::parser(),
        suite_b::eon(),
        suite_b::perlbmk(),
        suite_c::gap(),
        suite_c::vortex(),
        suite_c::bzip2(),
        suite_c::twolf(),
    ]
}

/// Find a workload by stand-in or SPEC name.
pub fn by_name(name: &str) -> Option<Workload> {
    all()
        .into_iter()
        .find(|w| w.name == name || w.spec_name == name || w.spec_name.ends_with(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::interp::{run, InterpOptions};

    #[test]
    fn suite_has_twelve_unique_workloads() {
        let ws = all();
        assert_eq!(ws.len(), 12);
        let mut names: Vec<_> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn by_name_finds_both_names() {
        assert!(by_name("gzip_mc").is_some());
        assert!(by_name("181.mcf").is_some());
        assert!(by_name("crafty").is_some());
        assert!(by_name("no_such").is_none());
    }

    #[test]
    fn every_workload_compiles_and_runs_on_train() {
        for w in all() {
            let prog = w.compile();
            let r = run(
                &prog,
                &w.train_args,
                InterpOptions {
                    fuel: 400_000_000,
                    collect_profile: false,
                },
            )
            .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
            assert!(!r.output.is_empty(), "{} produced no output", w.name);
            assert!(
                r.ops_executed > 50_000,
                "{} too small: {} ops",
                w.name,
                r.ops_executed
            );
            assert!(
                r.ops_executed < 80_000_000,
                "{} too big for the suite: {} ops",
                w.name,
                r.ops_executed
            );
        }
    }

    #[test]
    fn ref_inputs_differ_from_train_and_are_bigger() {
        for w in all() {
            assert_ne!(w.train_args, w.ref_args, "{}", w.name);
            let prog = w.compile();
            let t = run(&prog, &w.train_args, InterpOptions::default()).unwrap();
            let r = run(&prog, &w.ref_args, InterpOptions::default()).unwrap();
            assert!(
                r.ops_executed > t.ops_executed,
                "{}: ref ({}) not bigger than train ({})",
                w.name,
                r.ops_executed,
                t.ops_executed
            );
        }
    }

    #[test]
    fn outputs_are_deterministic() {
        for w in all() {
            let prog = w.compile();
            let a = run(&prog, &w.train_args, InterpOptions::default()).unwrap();
            let b = run(&prog, &w.train_args, InterpOptions::default()).unwrap();
            assert_eq!(a.checksum, b.checksum, "{}", w.name);
        }
    }
}
