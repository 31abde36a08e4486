//! # epic-driver
//!
//! End-to-end orchestration of the paper's Fig. 4 pipeline, exposing the
//! four compiler configurations of Table 1:
//!
//! | Level | profile | promote+inline | pointer analysis | structural ILP | speculation |
//! |-------|---------|----------------|------------------|----------------|-------------|
//! | GCC    | –  | – | – (conservative) | – | – |
//! | O-NS   | ✔  | ✔ | ✔ | – | – |
//! | ILP-NS | ✔  | ✔ | ✔ | ✔ | safe only |
//! | ILP-CS | ✔  | ✔ | ✔ | ✔ | control speculation |
//!
//! [`compile`] produces machine code plus all static statistics;
//! [`MeasureRequest`] additionally runs the simulator on the reference
//! input — it is the one measurement entry point.

#![forbid(unsafe_code)]

use epic_core::IlpOptions;
use epic_ir::Program;
use epic_mach::MachProgram;
use epic_sched::PlanStats;
use epic_sim::{SimOptions, SimResult};
use epic_workloads::Workload;

pub mod parallel;
pub mod pipeline;
pub mod request;

pub use parallel::{par_map, MatrixCell, MatrixError, MeasurementCache};
pub use pipeline::{passes_for, Pass, PassRecord, PassTimeline, PipelineCx};
pub use request::{CachePolicy, MeasureReport, MeasureRequest, MeasuredCell, TracePolicy};

use epic_trace::Trace;

/// The paper's compiler configurations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OptLevel {
    /// GCC 3.2-like: classical optimization only, no inlining, no
    /// interprocedural analysis, no profile feedback.
    Gcc,
    /// IMPACT classical baseline (inlining + pointer analysis + profile).
    ONs,
    /// + structural ILP formation, no control speculation.
    IlpNs,
    /// + control speculation (general model unless overridden).
    IlpCs,
}

impl OptLevel {
    /// All levels in Table 1 order.
    pub const ALL: [OptLevel; 4] = [
        OptLevel::Gcc,
        OptLevel::ONs,
        OptLevel::IlpNs,
        OptLevel::IlpCs,
    ];

    /// Display name as in the paper.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Gcc => "GCC",
            OptLevel::ONs => "O-NS",
            OptLevel::IlpNs => "ILP-NS",
            OptLevel::IlpCs => "ILP-CS",
        }
    }
}

/// Which input trains the profile (Sec. 4.6 swaps this).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProfileInput {
    /// SPEC methodology: train on the training input.
    #[default]
    Train,
    /// Profile-variation experiment: train on the reference input.
    Refr,
}

/// Compilation options.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Configuration level.
    pub level: OptLevel,
    /// Profile source.
    pub profile_input: ProfileInput,
    /// Override the structural-transform knobs (ablations); `None` uses
    /// the level's defaults.
    pub ilp_override: Option<IlpOptions>,
    /// Enable ALAT data speculation (`ld.a`/`chk.a`) — the paper's
    /// future-work extension; off by default to match its configuration.
    pub enable_data_spec: bool,
    /// Interpreter fuel for the profiling run.
    pub profile_fuel: u64,
    /// Debug mode: re-verify the IR after every pass, so a transform bug
    /// is caught at the pass that introduced it (off by default — the
    /// pipeline verifies at its usual checkpoints either way).
    pub verify_each_pass: bool,
    /// Test-only: deliberately miscompile by perturbing one immediate in
    /// the entry function after classical optimization. Exists so the
    /// fuzzing/shrinking harness can prove end-to-end that it detects and
    /// minimizes a real miscompile; never set outside tests.
    pub inject_bug: bool,
}

impl CompileOptions {
    /// Defaults for a level.
    pub fn for_level(level: OptLevel) -> CompileOptions {
        CompileOptions {
            level,
            profile_input: ProfileInput::Train,
            ilp_override: None,
            enable_data_spec: false,
            profile_fuel: 2_000_000_000,
            verify_each_pass: false,
            inject_bug: false,
        }
    }
}

/// A compiled workload plus every static statistic the experiments need.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The machine program.
    pub mach: MachProgram,
    /// Scheduler plan statistics (planned cycles / IPC, register windows).
    pub plan: PlanStats,
    /// Structural-transform statistics (zeroed below ILP levels).
    pub ilp: epic_core::IlpStats,
    /// Inlined callsites.
    pub inlined: usize,
    /// Indirect callsites promoted.
    pub promoted: usize,
    /// Static code bytes.
    pub code_bytes: u64,
    /// Static (real op, nop) slot counts.
    pub static_ops: (usize, usize),
    /// Static op count before any transformation (post-frontend).
    pub frontend_ops: usize,
    /// Per-pass wall time and op/block-count deltas for this compilation.
    pub pass_timeline: PassTimeline,
}

/// Errors from the driver.
#[derive(Debug)]
pub enum DriverError {
    /// MiniC compilation failed.
    Lang(epic_lang::LangError),
    /// The profiling run trapped.
    Profile(epic_ir::interp::Trap),
    /// IR verification failed after a transform.
    Verify(String),
    /// Emitted machine code failed its checks.
    Machine(String),
    /// Simulation trapped.
    Sim(epic_sim::SimTrap),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Lang(e) => write!(f, "frontend: {e}"),
            DriverError::Profile(e) => write!(f, "profiling: {e}"),
            DriverError::Verify(e) => write!(f, "verify: {e}"),
            DriverError::Machine(e) => write!(f, "machine check: {e}"),
            DriverError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Compile MiniC source through the selected pipeline.
///
/// # Errors
/// Any pipeline stage failure (see [`DriverError`]).
pub fn compile_source(
    src: &str,
    train_args: &[i64],
    ref_args: &[i64],
    opts: &CompileOptions,
) -> Result<Compiled, DriverError> {
    compile_source_traced(src, train_args, ref_args, opts, &Trace::disabled())
}

/// [`compile_source`] recording into `trace`: the whole compilation is
/// one `compile` span with a `pass:<name>` child per executed pass (the
/// returned [`PassTimeline`] is a view over those same spans).
///
/// # Errors
/// Any pipeline stage failure (see [`DriverError`]).
pub fn compile_source_traced(
    src: &str,
    train_args: &[i64],
    ref_args: &[i64],
    opts: &CompileOptions,
    trace: &Trace,
) -> Result<Compiled, DriverError> {
    let span = trace.span("compile");
    let prog = epic_lang::compile(src).map_err(DriverError::Lang)?;
    let frontend_ops = prog.op_count();
    let mut cx = PipelineCx::new(prog, opts, train_args, ref_args);
    let passes = passes_for(opts);
    let pass_timeline = pipeline::run_passes(&mut cx, &passes, opts.verify_each_pass, trace)?;
    let wall = span.finish();
    epic_trace::global()
        .histogram("driver.compile_us")
        .record(wall.as_micros() as u64);
    let (mach, plan) = cx
        .mach
        .take()
        .expect("pipeline ends with the schedule pass");
    let code_bytes = mach.code_bytes();
    let static_ops = mach.op_counts();
    Ok(Compiled {
        mach,
        plan,
        ilp: cx.ilp,
        inlined: cx.inlined,
        promoted: cx.promoted,
        code_bytes,
        static_ops,
        frontend_ops,
        pass_timeline,
    })
}

/// Compile a workload at a level (with default options).
///
/// # Errors
/// See [`compile_source`].
pub fn compile(w: &Workload, opts: &CompileOptions) -> Result<Compiled, DriverError> {
    compile_source(w.source, &w.train_args, &w.ref_args, opts)
}

/// One measured (compiled + simulated) run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Level measured.
    pub level: OptLevel,
    /// Static compilation statistics.
    pub compiled: CompiledStats,
    /// Simulation results on the chosen input.
    pub sim: SimResult,
}

/// The static side of a [`Measurement`] (no machine code, cheap to keep).
#[derive(Clone, Debug)]
pub struct CompiledStats {
    /// Planned statistics from the scheduler.
    pub plan: PlanStats,
    /// Structural transform statistics.
    pub ilp: epic_core::IlpStats,
    /// Inlined callsites.
    pub inlined: usize,
    /// Promoted indirect callsites.
    pub promoted: usize,
    /// Code bytes.
    pub code_bytes: u64,
    /// (real ops, nops).
    pub static_ops: (usize, usize),
    /// Post-frontend op count.
    pub frontend_ops: usize,
    /// Function names by id (Fig. 10 labels).
    pub func_names: Vec<String>,
    /// Per-pass compile-time breakdown.
    pub pass_timeline: PassTimeline,
}

impl Compiled {
    /// The static side of this compilation (everything a [`Measurement`]
    /// keeps once the machine code itself is no longer needed).
    pub fn stats(&self) -> CompiledStats {
        CompiledStats {
            plan: self.plan,
            ilp: self.ilp,
            inlined: self.inlined,
            promoted: self.promoted,
            code_bytes: self.code_bytes,
            static_ops: self.static_ops,
            frontend_ops: self.frontend_ops,
            func_names: self.mach.funcs.iter().map(|f| f.name.clone()).collect(),
            pass_timeline: self.pass_timeline.clone(),
        }
    }
}

/// Compile and simulate a workload on its reference input, recording a
/// `compile → pass:<name>…` and `sim → dispatch/attrib` span tree into
/// `trace` (plus deterministic `sim.charge.<category>` histograms into
/// the trace's registry). The usual entry point is
/// [`MeasureRequest::run`], which creates one trace per cell.
///
/// # Errors
/// See [`compile_source`] and the simulator's traps.
pub fn measure_traced(
    w: &Workload,
    copts: &CompileOptions,
    sopts: &SimOptions,
    trace: &Trace,
) -> Result<Measurement, DriverError> {
    let compiled = compile_source_traced(w.source, &w.train_args, &w.ref_args, copts, trace)?;
    let sim_span = trace.span("sim");
    let dispatch = trace.span("dispatch");
    let (result, stats) = if trace.is_enabled() {
        let (sink, stats) = epic_sim::TraceSink::new();
        let r = epic_sim::run_with_sinks(&compiled.mach, &w.ref_args, sopts, vec![Box::new(sink)]);
        (r, Some(stats))
    } else {
        (epic_sim::run(&compiled.mach, &w.ref_args, sopts), None)
    };
    dispatch.finish();
    let sim = result.map_err(DriverError::Sim)?;
    if let Some(stats) = stats {
        let attrib = trace.span("attrib");
        stats
            .lock()
            .expect("charge stats")
            .flush_into(trace.metrics());
        attrib.finish();
    }
    let sim_wall = sim_span.finish();
    let g = epic_trace::global();
    g.histogram("driver.sim_us")
        .record(sim_wall.as_micros() as u64);
    // per-predictor totals, so `epicc top` can break prediction quality
    // out by zoo member across everything a process has measured
    let pname = sopts.predictor.name();
    g.counter(&format!("sim.predict.{pname}.predictions"))
        .add(sim.counters.branch_predictions);
    g.counter(&format!("sim.predict.{pname}.mispredictions"))
        .add(sim.counters.branch_mispredictions);
    Ok(Measurement {
        level: copts.level,
        compiled: compiled.stats(),
        sim,
    })
}

/// Convenience: interpret a workload (the semantic oracle) on given args.
///
/// # Errors
/// Propagates interpreter traps.
pub fn oracle(w: &Workload, args: &[i64]) -> Result<Vec<u64>, DriverError> {
    let prog: Program = w.compile();
    epic_ir::interp::run(&prog, args, Default::default())
        .map(|r| r.output)
        .map_err(DriverError::Profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_is_correct_on_one_workload_all_levels() {
        let w = epic_workloads::by_name("vortex_mc").unwrap();
        let want = oracle(&w, &w.train_args).unwrap();
        for level in OptLevel::ALL {
            let compiled = compile(&w, &CompileOptions::for_level(level)).unwrap();
            let sim = epic_sim::run(&compiled.mach, &w.train_args, &SimOptions::default())
                .unwrap_or_else(|e| panic!("{} at {}: {e}", w.name, level.name()));
            assert_eq!(sim.output, want, "{} at {}", w.name, level.name());
        }
    }

    #[test]
    fn pass_timeline_names_every_phase_and_verify_each_pass_is_clean() {
        let w = epic_workloads::by_name("gzip_mc").unwrap();
        for level in OptLevel::ALL {
            let mut opts = CompileOptions::for_level(level);
            opts.verify_each_pass = true;
            let compiled = compile(&w, &opts).unwrap();
            let tl = &compiled.pass_timeline;
            assert!(!tl.is_empty(), "{} timeline empty", level.name());
            assert!(tl.get("classical").is_some(), "{}", level.name());
            assert!(tl.get("schedule").is_some(), "{}", level.name());
            assert!(tl.get("mach-check").is_some(), "{}", level.name());
            if level == OptLevel::Gcc {
                assert!(tl.get("profile").is_none(), "GCC takes no profile");
            } else {
                assert!(tl.get("profile").is_some(), "{}", level.name());
                assert!(tl.get("inline").is_some(), "{}", level.name());
            }
            if matches!(level, OptLevel::IlpNs | OptLevel::IlpCs) {
                let ilp = tl.get("ilp-transform").unwrap();
                assert!(ilp.op_delta() > 0, "structural transforms grow code");
                assert!(tl.get("verify").is_some());
            }
            assert!(tl.total_wall() > std::time::Duration::ZERO);
            assert!(!tl.render().is_empty());
        }
    }

    #[test]
    fn data_spec_pass_runs_in_place_and_counts_advances() {
        let w = epic_workloads::by_name("gap_mc").unwrap();
        let mut opts = CompileOptions::for_level(OptLevel::IlpCs);
        opts.enable_data_spec = true;
        opts.verify_each_pass = true;
        let compiled = compile(&w, &opts).unwrap();
        assert!(compiled.pass_timeline.get("data-spec").is_some());
    }

    #[test]
    fn levels_differ_statically() {
        let w = epic_workloads::by_name("crafty_mc").unwrap();
        let gcc = compile(&w, &CompileOptions::for_level(OptLevel::Gcc)).unwrap();
        let ons = compile(&w, &CompileOptions::for_level(OptLevel::ONs)).unwrap();
        let ilp = compile(&w, &CompileOptions::for_level(OptLevel::IlpNs)).unwrap();
        assert_eq!(gcc.inlined, 0);
        assert!(ons.inlined > 0, "O-NS should inline");
        assert!(ilp.ilp.regions_converted > 0, "ILP-NS should if-convert");
        assert!(
            ilp.code_bytes > ons.code_bytes,
            "structural transforms grow code: {} vs {}",
            ilp.code_bytes,
            ons.code_bytes
        );
    }
}
