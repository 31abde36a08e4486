//! # epic-core
//!
//! The paper's primary contribution: IMPACT's **structural** EPIC
//! transformations, which radically rework program control structure to
//! expose instruction-level parallelism (Sec. 2.3/3 of *"Field-testing
//! IMPACT EPIC research results in Itanium 2"*, ISCA 2004):
//!
//! * [`peel`] — loop peeling for low-trip-count loops (Fig. 3);
//! * [`ifconv`] — if-conversion / hyperblock formation (predication);
//! * [`superblock`] — trace selection + tail duplication;
//! * [`unroll`] — superblock loop unrolling;
//! * [`speculate`] — control speculation via predicate promotion, under
//!   the general or sentinel recovery model (Fig. 9);
//! * [`height`] — data-height reduction (accumulator reassociation);
//! * [`dataspec`] — ALAT data speculation (`ld.a`/`chk.a`), the paper's
//!   named future-work item, implemented as an extension.
//!
//! [`ilp_transform`] sequences these into the ILP-NS / ILP-CS pipelines;
//! every step is differential-tested against the reference interpreter.

#![forbid(unsafe_code)]

pub mod dataspec;
pub mod height;
pub mod ifconv;
pub mod peel;
pub mod speculate;
pub mod superblock;
pub mod unroll;

use epic_ir::Function;

/// Configuration for the structural ILP pipeline. The `enable_*` flags
/// support the ablation experiments.
#[derive(Clone, Copy, Debug)]
pub struct IlpOptions {
    /// Loop peeling on/off.
    pub enable_peel: bool,
    /// Peeling knobs.
    pub peel: peel::PeelOptions,
    /// Hyperblock (if-conversion) on/off.
    pub enable_hyperblock: bool,
    /// If-conversion knobs.
    pub ifconv: ifconv::IfConvOptions,
    /// Superblock formation on/off.
    pub enable_superblock: bool,
    /// Superblock knobs.
    pub superblock: superblock::SuperblockOptions,
    /// Unrolling on/off.
    pub enable_unroll: bool,
    /// Unrolling knobs.
    pub unroll: unroll::UnrollOptions,
    /// Data-height reduction on/off.
    pub enable_height: bool,
    /// Height-reduction knobs.
    pub height: height::HeightOptions,
    /// Control speculation (None = ILP-NS).
    pub speculate: Option<speculate::SpeculateOptions>,
}

impl Default for IlpOptions {
    fn default() -> IlpOptions {
        IlpOptions {
            enable_peel: true,
            peel: peel::PeelOptions::default(),
            enable_hyperblock: true,
            ifconv: ifconv::IfConvOptions::default(),
            enable_superblock: true,
            superblock: superblock::SuperblockOptions::default(),
            enable_unroll: true,
            unroll: unroll::UnrollOptions::default(),
            enable_height: true,
            height: height::HeightOptions::default(),
            speculate: None,
        }
    }
}

impl IlpOptions {
    /// The ILP-NS configuration (no control speculation).
    pub fn ilp_ns() -> IlpOptions {
        IlpOptions::default()
    }

    /// The ILP-CS configuration (general speculation model).
    pub fn ilp_cs() -> IlpOptions {
        IlpOptions {
            speculate: Some(speculate::SpeculateOptions::default()),
            ..IlpOptions::default()
        }
    }
}

/// Aggregate statistics from one function's structural transformation.
#[derive(Clone, Copy, Debug, Default)]
pub struct IlpStats {
    /// Loops peeled.
    pub loops_peeled: usize,
    /// If-conversion: triangles + diamonds collapsed.
    pub regions_converted: usize,
    /// Static branches removed by if-conversion.
    pub branches_removed: usize,
    /// Superblock traces formed.
    pub traces: usize,
    /// Tail-duplication block copies.
    pub tail_dups: usize,
    /// Loops unrolled.
    pub loops_unrolled: usize,
    /// Static ops added by duplication (tail dup + peel + unroll).
    pub dup_ops: usize,
    /// Loads promoted to speculative.
    pub loads_promoted: usize,
    /// `chk` ops inserted (sentinel model).
    pub chks_inserted: usize,
    /// Accumulator chains reassociated by height reduction.
    pub chains_reassociated: usize,
    /// Loads converted to advanced (data-speculative) loads.
    pub loads_advanced: usize,
    /// Static op count before.
    pub ops_before: usize,
    /// Static op count after.
    pub ops_after: usize,
}

impl IlpStats {
    /// Accumulate another function's stats.
    pub fn merge(&mut self, o: &IlpStats) {
        self.loops_peeled += o.loops_peeled;
        self.regions_converted += o.regions_converted;
        self.branches_removed += o.branches_removed;
        self.traces += o.traces;
        self.tail_dups += o.tail_dups;
        self.loops_unrolled += o.loops_unrolled;
        self.dup_ops += o.dup_ops;
        self.loads_promoted += o.loads_promoted;
        self.chks_inserted += o.chks_inserted;
        self.chains_reassociated += o.chains_reassociated;
        self.loads_advanced += o.loads_advanced;
        self.ops_before += o.ops_before;
        self.ops_after += o.ops_after;
    }
}

/// Run the structural ILP pipeline on one function.
///
/// Order (mirroring IMPACT): peel → if-convert → simplify/merge →
/// superblock → simplify/merge → unroll → classical cleanup → promotion.
pub fn ilp_transform(f: &mut Function, opts: &IlpOptions) -> IlpStats {
    let mut stats = IlpStats {
        ops_before: f.op_count(),
        ..Default::default()
    };
    if opts.enable_peel {
        let s = peel::run(f, &opts.peel);
        stats.loops_peeled = s.loops_peeled;
        stats.dup_ops += s.dup_ops;
    }
    if opts.enable_hyperblock {
        let s = ifconv::run(f, &opts.ifconv);
        stats.regions_converted = s.triangles + s.diamonds;
        stats.branches_removed = s.branches_removed;
        epic_opt::classical::cfg::run(f);
        // peeled/merged code often exposes more triangles
        let s2 = ifconv::run(f, &opts.ifconv);
        stats.regions_converted += s2.triangles + s2.diamonds;
        stats.branches_removed += s2.branches_removed;
        epic_opt::classical::cfg::run(f);
    }
    if opts.enable_superblock {
        let s = superblock::run(f, &opts.superblock);
        stats.traces = s.traces;
        stats.tail_dups = s.tail_dups;
        stats.dup_ops += s.dup_ops;
        epic_opt::classical::cfg::run(f);
    }
    if opts.enable_unroll {
        let s = unroll::run(f, &opts.unroll);
        stats.loops_unrolled = s.loops_unrolled;
        stats.dup_ops += s.dup_ops;
    }
    if opts.enable_height {
        let s = height::run(f, &opts.height);
        stats.chains_reassociated = s.chains;
    }
    // clean up the enlarged regions
    epic_opt::classical::lvn::run(f);
    epic_opt::classical::gprop::run(f);
    epic_opt::classical::dce::run(f);
    epic_opt::classical::cfg::run(f);
    if let Some(sopts) = &opts.speculate {
        let s = speculate::run(f, sopts);
        stats.loads_promoted = s.loads_promoted;
        stats.chks_inserted = s.chks_inserted;
        epic_opt::classical::dce::run(f);
    }
    stats.ops_after = f.op_count();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_ir::interp::{run as interp_run, InterpOptions};
    use epic_ir::verify::verify_program;

    const MIXED: &str = "
        global hist: [int; 64];
        fn classify(v: int) -> int {
            if v < 10 { return 0; }
            if v < 100 { return 1; }
            return 2;
        }
        fn main() {
            let i = 0; let s = 0;
            while i < 400 {
                let v = (i * 1103515245 + 12345) % 200;
                if v < 0 { v = 0 - v; }
                let c = classify(v);
                hist[(v % 64)] = hist[(v % 64)] + 1;
                if c == 0 { s = s + 1; }
                else { if c == 1 { s = s + 10; } else { s = s + 100; } }
                // short serial loop, typically one or two iterations
                let k = v % 2 + 1;
                while k > 0 { s = s + k; k = k - 1; }
                i = i + 1;
            }
            out(s);
        }";

    fn full_pipeline(src: &str, opts: &IlpOptions) -> (epic_ir::Program, IlpStats) {
        let mut prog = epic_lang::compile(src).unwrap();
        epic_opt::profile::profile_program(&mut prog, &[], 100_000_000).unwrap();
        epic_opt::inline::run(&mut prog, Default::default());
        epic_opt::classical_optimize_program(&mut prog);
        let mut stats = IlpStats::default();
        for f in &mut prog.funcs {
            stats.merge(&ilp_transform(f, opts));
        }
        verify_program(&prog).unwrap();
        (prog, stats)
    }

    #[test]
    fn ilp_ns_pipeline_preserves_semantics() {
        let want = interp_run(
            &epic_lang::compile(MIXED).unwrap(),
            &[],
            InterpOptions::default(),
        )
        .unwrap()
        .output;
        let (prog, stats) = full_pipeline(MIXED, &IlpOptions::ilp_ns());
        assert!(stats.regions_converted > 0, "{stats:?}");
        let got = interp_run(&prog, &[], InterpOptions::default())
            .unwrap()
            .output;
        assert_eq!(got, want);
    }

    #[test]
    fn ilp_cs_pipeline_preserves_semantics() {
        let want = interp_run(
            &epic_lang::compile(MIXED).unwrap(),
            &[],
            InterpOptions::default(),
        )
        .unwrap()
        .output;
        let (prog, _stats) = full_pipeline(MIXED, &IlpOptions::ilp_cs());
        let got = interp_run(&prog, &[], InterpOptions::default())
            .unwrap()
            .output;
        assert_eq!(got, want);
    }

    #[test]
    fn transformation_reduces_dynamic_branches() {
        let base = epic_lang::compile(MIXED).unwrap();
        let r0 = interp_run(&base, &[], InterpOptions::default()).unwrap();
        let (prog, _stats) = full_pipeline(MIXED, &IlpOptions::ilp_ns());
        let r1 = interp_run(&prog, &[], InterpOptions::default()).unwrap();
        assert!(
            (r1.branches_executed as f64) < r0.branches_executed as f64 * 0.95,
            "branches {} -> {}",
            r0.branches_executed,
            r1.branches_executed
        );
    }

    #[test]
    fn ablation_flags_disable_stages() {
        let opts = IlpOptions {
            enable_peel: false,
            enable_superblock: false,
            enable_unroll: false,
            ..IlpOptions::ilp_ns()
        };
        let (_prog, stats) = full_pipeline(MIXED, &opts);
        assert_eq!(stats.loops_peeled, 0);
        assert_eq!(stats.traces, 0);
        assert_eq!(stats.loops_unrolled, 0);
    }
}
