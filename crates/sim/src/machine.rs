//! The in-order EPIC performance simulator.
//!
//! Executes [`epic_mach::MachProgram`] code functionally *and* charges
//! cycles to the paper's Fig. 5 categories. Values come from the shared
//! value engine ([`crate::engine`]) running the predecoded issue-group
//! tables ([`crate::decode`]), which implements Itanium 2 semantics:
//! issue groups execute atomically (all reads see pre-group state, with
//! the architected exception that a branch may consume a compare result
//! from its own group), a taken branch squashes the rest of its group,
//! predicated-off operations retire without effect, and speculative
//! loads defer faults to NaT. This module is the engine's detailed
//! timing instantiation ([`Detail`]): a register scoreboard (loads are
//! scheduled for the L1 hit; misses stall consumers), an I-cache-fed
//! front end decoupled by a 48-op buffer, a pluggable branch predictor
//! ([`crate::predict`], gshare by default), a DTLB with hardware walks,
//! the register stack engine, and the general/sentinel speculation
//! recovery models of paper Fig. 9.
//!
//! The dispatch loop contains *no accounting code*: every cycle cost and
//! counter bump is reported as a typed [`SimEvent`] to the
//! [`Attribution`] engine ([`crate::attrib`]), which arbitrates the
//! category, maintains the running clock, and builds the per-function
//! drill-down matrix.

use crate::attrib::{Attribution, EventSink, FuncMatrix, Port, SimEvent, StallProducer};
use crate::caches::Hierarchy;
use crate::counters::{Counters, CycleAccounting, CATEGORIES};
use crate::decode::{build_tables, GroupTable};
use crate::engine::{Engine, FState, Flow, Frame, Timing};
use crate::predict::{AnyPredictor, BranchPredictor, BranchRecord, PredictorSpec};
use epic_ir::interp::checksum;
use epic_mach::{MachFunc, MachProgram, MachineConfig};
use std::collections::VecDeque;

/// Speculation recovery model (paper Fig. 9 / Sec. 4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SpecModel {
    /// Wild speculative loads complete via an expensive, uncacheable
    /// kernel page-table query (charged to kernel cycles).
    #[default]
    General,
    /// Speculative loads defer cheaply on DTLB miss; `chk` recovers.
    Sentinel,
}

/// Simulator options.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Machine configuration.
    pub config: MachineConfig,
    /// Hard cycle limit.
    pub fuel_cycles: u64,
    /// Speculation recovery model.
    pub spec_model: SpecModel,
    /// Keep the last N arbitrated charges in a ring-buffer trace
    /// (`SimResult::trace`); 0 disables tracing (the default).
    pub trace_capacity: usize,
    /// Exact cycle-accurate simulation (the default) or SimPoint-style
    /// sampled estimation (`crate::sample`).
    pub sample: crate::sample::SamplePolicy,
    /// Which branch predictor the core models (`crate::predict`); the
    /// default gshare reproduces the pre-zoo simulator bit for bit.
    pub predictor: PredictorSpec,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            config: MachineConfig::default(),
            fuel_cycles: 20_000_000_000,
            spec_model: SpecModel::General,
            trace_capacity: 0,
            sample: crate::sample::SamplePolicy::Exact,
            predictor: PredictorSpec::default(),
        }
    }
}

/// The class of an abnormal termination (what went wrong).
#[derive(Clone, Debug, PartialEq)]
pub enum TrapKind {
    /// Non-speculative access to an invalid address.
    MemFault(u64),
    /// Division by zero.
    DivByZero,
    /// Indirect call to a non-function address.
    BadCall(u64),
    /// Cycle budget exhausted.
    OutOfFuel,
    /// Deferred NaT consumed by a non-speculative side effect; the payload
    /// names the consuming operation ("store", "call", "out", …).
    NatConsumed(&'static str),
    /// Ill-formed machine code (compiler bug).
    Malformed(String),
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrapKind::MemFault(a) => write!(f, "memory fault at {a:#x}"),
            TrapKind::DivByZero => write!(f, "division by zero"),
            TrapKind::BadCall(a) => write!(f, "call to non-function {a:#x}"),
            TrapKind::OutOfFuel => write!(f, "cycle budget exhausted"),
            TrapKind::NatConsumed(w) => write!(f, "NaT consumed by {w}"),
            TrapKind::Malformed(w) => write!(f, "malformed machine code: {w}"),
        }
    }
}

/// Abnormal termination, located: which function and bundle trapped, and
/// at what cycle — structured so triage tooling (the fuzzer's failure
/// bucketing, shrinker progress checks) can classify without parsing
/// strings.
#[derive(Clone, Debug, PartialEq)]
pub struct SimTrap {
    /// What went wrong.
    pub kind: TrapKind,
    /// Name of the function executing when the trap fired.
    pub func: String,
    /// Bundle index of the issue group that trapped.
    pub bundle: usize,
    /// Total cycle count at the trap.
    pub cycle: u64,
}

impl SimTrap {
    /// Short stable key for failure triage ("mem-fault", "div0", …) —
    /// same kind, any location, maps to the same bucket.
    pub fn bucket(&self) -> &'static str {
        match self.kind {
            TrapKind::MemFault(_) => "mem-fault",
            TrapKind::DivByZero => "div0",
            TrapKind::BadCall(_) => "bad-call",
            TrapKind::OutOfFuel => "fuel",
            TrapKind::NatConsumed(_) => "nat",
            TrapKind::Malformed(_) => "malformed",
        }
    }
}

impl std::fmt::Display for SimTrap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} in {} at bundle {}, cycle {}",
            self.kind, self.func, self.bundle, self.cycle
        )
    }
}

impl std::error::Error for SimTrap {}

/// Simulation results: functional output plus all measurements.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The `Out` stream.
    pub output: Vec<u64>,
    /// FNV-1a checksum of the output.
    pub checksum: u64,
    /// `main`'s return value.
    pub ret: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Fig. 5 cycle accounting.
    pub acct: CycleAccounting,
    /// Performance counters.
    pub counters: Counters,
    /// Per-function × per-category cycle attribution (the Fig. 10
    /// drill-down), indexed by `FuncId` row. Row totals are the old flat
    /// `cycles_by_func`; column totals reproduce `acct`.
    pub func_matrix: FuncMatrix,
    /// The most recent arbitrated charges when
    /// [`SimOptions::trace_capacity`] was nonzero; empty otherwise.
    pub trace: Vec<crate::attrib::ChargeRecord>,
    /// Sampling metadata when the run used
    /// [`SamplePolicy::Sampled`](crate::sample::SamplePolicy); `None` for
    /// exact runs. Cycles/acct/counters/matrix are *estimates* when this
    /// is `Some` (output, checksum, and ret are always exact).
    pub sample: Option<crate::sample::SampleInfo>,
}

impl SimResult {
    /// Verify the accounting identity: the category sum, the running
    /// total, and the per-function matrix (rows *and* columns) must all
    /// describe the same cycles. Returns a description of the first
    /// violation — the fuzzer's accounting-identity oracle and `epicc
    /// report` both call this.
    ///
    /// # Errors
    /// A human-readable description of the first violated identity.
    pub fn check_identity(&self) -> Result<(), String> {
        if self.acct.total() != self.cycles {
            return Err(format!(
                "category sum {} != total cycles {}",
                self.acct.total(),
                self.cycles
            ));
        }
        if self.func_matrix.total() != self.cycles {
            return Err(format!(
                "per-function matrix total {} != total cycles {}",
                self.func_matrix.total(),
                self.cycles
            ));
        }
        for cat in CATEGORIES {
            if self.func_matrix.col_total(cat) != self.acct.get(cat) {
                return Err(format!(
                    "matrix column {} = {} != aggregate {}",
                    cat.name(),
                    self.func_matrix.col_total(cat),
                    self.acct.get(cat)
                ));
            }
        }
        Ok(())
    }
}

/// Run a compiled program.
///
/// # Errors
/// Returns a [`SimTrap`] on any runtime error; correct compiled workloads
/// never trap.
pub fn run(mp: &MachProgram, args: &[i64], opts: &SimOptions) -> Result<SimResult, SimTrap> {
    run_with_sinks(mp, args, opts, Vec::new())
}

/// [`run`] with caller-supplied [`EventSink`]s attached to the
/// attribution engine before dispatch starts. Sinks observe every
/// arbitrated charge; they are dropped (and may publish their totals —
/// see [`crate::tracesink::TraceSink`]) when the run completes. Under
/// [`SamplePolicy::Sampled`](crate::sample::SamplePolicy) sinks observe
/// only the detailed-simulated representative intervals.
///
/// # Errors
/// Same as [`run`].
pub fn run_with_sinks(
    mp: &MachProgram,
    args: &[i64],
    opts: &SimOptions,
    sinks: Vec<Box<dyn EventSink>>,
) -> Result<SimResult, SimTrap> {
    match opts.sample {
        crate::sample::SamplePolicy::Exact => run_exact(mp, args, opts, sinks),
        crate::sample::SamplePolicy::Sampled {
            interval_len,
            max_clusters,
            warmup,
        } => crate::sample::run_sampled(mp, args, opts, interval_len, max_clusters, warmup, sinks),
    }
}

/// Simulate a whole run in detail.
pub(crate) fn run_exact(
    mp: &MachProgram,
    args: &[i64],
    opts: &SimOptions,
    sinks: Vec<Box<dyn EventSink>>,
) -> Result<SimResult, SimTrap> {
    let tabs = build_tables(mp);
    let (st, (regs, stall)) = FState::start(mp, args, opts, true);
    let mut sim = Sim::new(mp, &tabs, opts, st, true);
    for sink in sinks {
        sim.t.attrib.add_sink(sink);
    }
    // start the RSE with main's window
    let (func, bundle) = sim.eng.st.pos;
    sim.t.attrib.at(func, bundle);
    sim.t.attrib.emit(SimEvent::RseTraffic { regs, stall });
    let Exec::Done(ret) = sim.exec(u64::MAX)? else {
        unreachable!("unbounded exec cannot pause")
    };
    let output = sim.eng.out.take().unwrap_or_default();
    let cycles = sim.t.attrib.total();
    let (acct, counters, func_matrix, trace) = sim.t.attrib.finish();
    Ok(SimResult {
        checksum: checksum(&output),
        output,
        ret,
        cycles,
        acct,
        counters,
        func_matrix,
        trace,
        sample: None,
    })
}

/// How a bounded [`Sim::exec`] call ended.
pub(crate) enum Exec {
    /// The program returned from `main` with this value.
    Done(u64),
    /// The op budget was reached; execution stopped at an issue-group
    /// boundary and can resume with another `exec` call.
    Paused,
}

/// The detailed simulator: the value engine instantiated with the
/// [`Detail`] timing model.
pub(crate) struct Sim<'a> {
    pub(crate) eng: Engine<'a>,
    pub(crate) t: Detail,
    fuel: u64,
}

/// The detailed model's timing state — the [`Timing`] instantiation
/// that charges every cycle.
pub(crate) struct Detail {
    cfg: MachineConfig,
    pub(crate) hier: Hierarchy,
    pub(crate) pred: AnyPredictor,
    pub(crate) attrib: Attribution,
    /// Ops held by the decoupling buffer.
    pub(crate) ib_ops: f64,
    /// Last fetched I-cache line (`u64::MAX` restarts the fetch).
    pub(crate) last_line: u64,
    /// Store-forwarding window: (8-byte word, issue cycle).
    pub(crate) recent_stores: VecDeque<(u64, u64)>,
}

impl<'a> Sim<'a> {
    pub(crate) fn new(
        mp: &'a MachProgram,
        tabs: &'a [GroupTable],
        opts: &SimOptions,
        st: FState,
        collect_out: bool,
    ) -> Sim<'a> {
        Sim {
            eng: Engine::new(mp, tabs, opts, st, collect_out),
            t: Detail {
                cfg: opts.config,
                hier: Hierarchy::new(&opts.config),
                pred: AnyPredictor::from_spec(opts.predictor),
                attrib: Attribution::new(mp.funcs.len()).with_trace(opts.trace_capacity),
                ib_ops: 0.0,
                last_line: u64::MAX,
                recent_stores: VecDeque::new(),
            },
            fuel: opts.fuel_cycles,
        }
    }

    /// Wrap a [`TrapKind`] with the machine position `(func, bundle)` and
    /// the current cycle count.
    fn trap_at(&self, kind: TrapKind, pos: (usize, usize)) -> SimTrap {
        SimTrap {
            kind,
            func: self.eng.mp.funcs[pos.0].name.clone(),
            bundle: pos.1,
            cycle: self.t.attrib.total(),
        }
    }

    /// Dispatch issue groups until the program returns or the op count
    /// reaches `op_budget` (checked at group boundaries, so a bundle —
    /// indeed a whole issue group — is never split). `u64::MAX` runs to
    /// completion.
    pub(crate) fn exec(&mut self, op_budget: u64) -> Result<Exec, SimTrap> {
        let mp = self.eng.mp;
        let tabs = self.eng.tabs;
        loop {
            if self.eng.st.ops >= op_budget {
                return Ok(Exec::Paused);
            }
            let pos = self.eng.st.pos;
            if self.t.attrib.total() > self.fuel {
                return Err(self.trap_at(TrapKind::OutOfFuel, pos));
            }
            let (func_i, first) = pos;
            // attribute everything this group does — fetch, stall, issue,
            // recovery — to the function executing it
            self.t.attrib.at(func_i, first);
            let tab = &tabs[func_i];
            let e = match tab.g.get(first) {
                Some(&e) if e.off != u32::MAX => e,
                e => {
                    let why = match e {
                        None => format!("fell off code at bundle {first}"),
                        Some(e) if e.end == u32::MAX => "issue group runs off the code".into(),
                        // control only ever lands on predecoded starts
                        Some(_) => "entered mid-group".into(),
                    };
                    return Err(self.trap_at(TrapKind::Malformed(why), pos));
                }
            };
            let end = e.end as usize;
            self.eng.st.ops += e.nops as u64;
            self.t.fetch(&mp.funcs[func_i], first, end, e.nops);
            let srcs = &tab.srcs[e.src as usize..][..e.nsrc as usize];
            let issue = self.t.scoreboard(&self.eng.st.frame, srcs);
            let t = &mut self.t;
            let flow = if e.direct {
                self.eng
                    .exec_group::<true, _>(t, func_i, first, end, e, issue)
            } else {
                self.eng
                    .exec_group::<false, _>(t, func_i, first, end, e, issue)
            };
            let flow = flow.map_err(|k| self.trap_at(k, pos))?;
            self.t.attrib.emit(SimEvent::Issue);
            match flow {
                Flow::Fall => self.eng.st.pos = (func_i, end + 1),
                Flow::Jump(to) => {
                    self.eng.st.pos = to;
                    // control transfers restart the fetch line
                    self.t.last_line = u64::MAX;
                }
                Flow::Done(ret) => return Ok(Exec::Done(ret)),
            }
        }
    }
}

impl Detail {
    /// Front end: fetch the group's cache lines. The decoupling buffer
    /// hides as much of a miss as it has buffered.
    fn fetch(&mut self, f: &MachFunc, first: usize, end: usize, group_size: u32) {
        for k in first..=end {
            let addr = f.bundle_addr(k);
            let line = addr / self.cfg.l1i.line;
            if line != self.last_line {
                self.last_line = line;
                let (lat, lvl) = self.hier.fetch_inst(addr);
                self.attrib.emit(SimEvent::CacheAccess {
                    port: Port::Inst,
                    level: lvl,
                });
                let extra = lat.saturating_sub(self.cfg.l1i.latency);
                if extra > 0 {
                    let per_cycle = group_size.max(1) as f64;
                    let hidden = (self.ib_ops / per_cycle).min(extra as f64);
                    self.ib_ops -= hidden * per_cycle;
                    let bubble = extra - hidden as u64;
                    self.attrib.emit(SimEvent::FetchBubble { cycles: bubble });
                }
            }
        }
        // refill the buffer when streaming
        self.ib_ops = (self.ib_ops + 6.0 - group_size as f64).clamp(0.0, self.cfg.ib_ops as f64);
    }

    /// Scoreboard: the group issues when all its sources are ready; the
    /// latest-arriving source's producer takes the blame. Returns the
    /// issue cycle.
    fn scoreboard(&mut self, frame: &Frame, srcs: &[(u32, bool)]) -> u64 {
        let now0 = self.attrib.total();
        let mut need = now0;
        let mut blame = StallProducer::Other;
        for &(r, forward) in srcs {
            let mut t = frame.ready[r as usize];
            if forward {
                t = t.saturating_sub(1); // predicate->branch forwarding
            }
            if t > need {
                need = t;
                blame = frame.producer[r as usize];
            }
        }
        if need > now0 {
            self.attrib.emit(SimEvent::ScoreboardStall {
                producer: blame,
                cycles: need - now0,
            });
        }
        self.attrib.total()
    }
}

impl Timing for Detail {
    const TIMED: bool = true;

    fn emit(&mut self, ev: SimEvent) {
        self.attrib.emit(ev);
    }

    fn cond_branch(&mut self, addr: u64, taken: bool) {
        let correct = self.pred.observe(addr, taken);
        self.attrib.emit(SimEvent::BranchPredicted {
            correct,
            flush_cycles: self.cfg.mispredict_penalty,
        });
        if self.attrib.wants_branches() {
            self.attrib.branch(BranchRecord::Cond { addr, taken });
        }
    }

    fn call(&mut self, ret_addr: u64) {
        self.pred.push_return(ret_addr);
        if self.attrib.wants_branches() {
            self.attrib.branch(BranchRecord::Call { ret_addr });
        }
    }

    fn ret(&mut self, addr: u64) {
        // the return-address stack predicts returns; underflow mispredicts
        if !self.pred.pop_return(addr) {
            self.attrib.emit(SimEvent::ReturnMispredicted {
                flush_cycles: self.cfg.mispredict_penalty,
            });
        }
        if self.attrib.wants_branches() {
            self.attrib.branch(BranchRecord::Ret { actual: addr });
        }
    }

    fn data(&mut self, addr: u64, issue: u64, store: bool) -> u64 {
        let (lat, lvl) = self.hier.access_data(addr);
        self.attrib.emit(SimEvent::CacheAccess {
            port: Port::Data,
            level: lvl,
        });
        if store {
            if self.recent_stores.len() == self.cfg.store_buffer {
                self.recent_stores.pop_front();
            }
            self.recent_stores.push_back((addr >> 3, issue));
        } else if self
            .recent_stores
            .iter()
            .any(|&(sa, sc)| sa == addr >> 3 && issue.saturating_sub(sc) <= 2)
        {
            // store-to-load forwarding conflict (micropipe)
            self.attrib.emit(SimEvent::StoreForward {
                cycles: self.cfg.store_forward_stall,
            });
        }
        issue + lat
    }
}
