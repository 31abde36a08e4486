//! The value engine: the one interpreter of issue-group semantics.
//!
//! [`Engine::exec_group`] executes one predecoded issue group
//! ([`crate::decode`]) with Itanium 2 semantics: reads see pre-group
//! state (with the architected exception that a branch may consume a
//! compare result from its own group), a taken branch squashes the rest
//! of its group, predicated-off operations retire without effect,
//! speculative loads defer faults to NaT, advanced loads and `chk.a`
//! drive the ALAT, and a sentinel `ld.s` defers iff the DTLB probe
//! misses. The architectural state it runs on ([`FState`]) is
//! everything that affects *values*.
//!
//! Everything else — caches, predictor, clock, attribution — is a
//! [`Timing`] instantiation chosen at compile time: the detailed model
//! ([`crate::machine`]) reports what happened as [`SimEvent`]s and
//! stamps register ready times, while the functional executor's cold
//! and warm replays ([`crate::sample`]) keep only an exact kernel tally
//! and warm timing structures. There is no `dyn` and no per-group
//! allocation; a timing hook an instantiation ignores compiles away.

use crate::attrib::{KernelReason, Retire, SimEvent, StallProducer};
use crate::decode::{GEntry, GroupTable, PKind, PSrc};
use crate::machine::{SimOptions, SpecModel, TrapKind};
use crate::rse::Rse;
use crate::tlb::Dtlb;
use epic_ir::mem::{func_from_addr, Memory, PAGE_SIZE, STACK_MAX, STACK_TOP};
use epic_ir::{Opcode, Value, Vreg};
use epic_mach::{MachProgram, MachineConfig};
use std::collections::VecDeque;

/// Architected registers per frame: the GR window plus the predicates.
pub(crate) const NREGS: usize = (epic_mach::GR_WINDOW + epic_mach::PR_COUNT) as usize;

/// One activation's registers. `ready`/`producer` are the scoreboard's
/// view (cycle each register becomes available, and what produced it);
/// only timed instantiations write them, so functional frames keep them
/// at zero / `Other`.
#[derive(Clone)]
pub(crate) struct Frame {
    regs: Vec<Value>,
    pub(crate) ready: Vec<u64>,
    pub(crate) producer: Vec<StallProducer>,
    sp: u64,
    ret_pos: (usize, usize),
    ret_dst: Option<Vreg>,
}

impl Frame {
    fn new(sp: u64) -> Frame {
        Frame {
            regs: vec![Value::default(); NREGS],
            ready: vec![0; NREGS],
            producer: vec![StallProducer::Other; NREGS],
            sp,
            ret_pos: (usize::MAX, usize::MAX),
            ret_dst: None,
        }
    }
}

/// Architectural state — everything that affects *values*. Cloning is
/// cheap: [`Memory`] pages are Arc-shared copy-on-write, so interval
/// snapshots cost refcount bumps.
#[derive(Clone)]
pub(crate) struct FState {
    mem: Memory,
    pub(crate) frame: Frame,
    stack: Vec<Frame>,
    /// Next issue group: `(function, first bundle)`.
    pub(crate) pos: (usize, usize),
    depth: usize,
    /// ALAT entries: (frame depth, value register) -> watched range.
    alat: VecDeque<((usize, u32), u64, u64)>,
    /// Register stack occupancy (deterministic from call history).
    rse: Rse,
    /// The DTLB, when this run maintains it exactly: always in the
    /// detailed model, and in the functional executor only under
    /// [`SpecModel::Sentinel`], where it is value-affecting (a sentinel
    /// `ld.s` defers iff the probe misses).
    pub(crate) dtlb: Option<Dtlb>,
    /// Page of the last exact-DTLB access (`u64::MAX` when none): a
    /// repeat is a guaranteed hit at the LRU head, so only the access
    /// counter needs bumping.
    last_page: u64,
    /// Retired-slot op count (real ops incl. squashed, excl. nops) —
    /// the interval clock of sampled simulation.
    pub(crate) ops: u64,
}

impl FState {
    /// `main`'s initial state for `args`, plus the `(regs, stall)` RSE
    /// traffic of allocating its register window.
    pub(crate) fn start(
        mp: &MachProgram,
        args: &[i64],
        opts: &SimOptions,
        exact_dtlb: bool,
    ) -> (FState, (u64, u64)) {
        let mut mem = Memory::new();
        mem.init_globals(&mp.ir);
        let entry = mp.ir.entry.index();
        let ef = &mp.funcs[entry];
        let mut frame = Frame::new(STACK_TOP - ((ef.frame_size + 15) & !15));
        for (i, &r) in ef.param_regs.iter().enumerate() {
            frame.regs[r as usize] = Value::new(args.get(i).copied().unwrap_or(0) as u64);
        }
        let mut rse = Rse::new(opts.config.rse_capacity, opts.config.rse_cycle_per_reg);
        let traffic = rse.call(ef.n_gr);
        let st = FState {
            mem,
            frame,
            stack: Vec::new(),
            pos: (entry, ef.entry),
            depth: 0,
            alat: VecDeque::new(),
            rse,
            dtlb: exact_dtlb.then(|| Dtlb::new(opts.config.dtlb_entries)),
            last_page: u64::MAX,
            ops: 0,
        };
        (st, traffic)
    }
}

/// What an instantiation of the engine does besides computing values.
/// Hooks fire in program order, at the points where the detailed model
/// reports each event, so one engine yields the detailed event order.
pub(crate) trait Timing {
    /// Whether this instantiation keeps a clock: register ready times
    /// and producers are stamped at commit, and reused frames scrubbed.
    const TIMED: bool;
    /// Report one event (the detailed model arbitrates it; functional
    /// instantiations keep only the kernel tally).
    fn emit(&mut self, ev: SimEvent);
    /// A conditional branch at bundle address `addr` resolved.
    fn cond_branch(&mut self, addr: u64, taken: bool);
    /// A call will return to `ret_addr`.
    fn call(&mut self, ret_addr: u64);
    /// A return to `addr` (a frame was popped).
    fn ret(&mut self, addr: u64);
    /// A data access to `addr` that passed translation. Returns a
    /// load's ready time.
    fn data(&mut self, addr: u64, issue: u64, store: bool) -> u64;
}

/// Control-flow outcome of one issue group.
pub(crate) enum Flow {
    Fall,
    Jump((usize, usize)),
    Done(u64),
}

/// The value engine over one program's decoded tables.
pub(crate) struct Engine<'a> {
    pub(crate) mp: &'a MachProgram,
    pub(crate) tabs: &'a [GroupTable],
    cfg: MachineConfig,
    sentinel: bool,
    pub(crate) st: FState,
    /// `Some` collects the `Out` stream.
    pub(crate) out: Option<Vec<u64>>,
    /// Two-phase write buffer for groups that are not direct-commit
    /// safe, with the timed ready stamps in lockstep.
    writes: Vec<(u32, Value)>,
    stamps: Vec<(u64, StallProducer)>,
    /// Retired frames recycled by `Call` (a malloc per call otherwise
    /// shows up in profiles on call-heavy workloads).
    free: Vec<Frame>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        mp: &'a MachProgram,
        tabs: &'a [GroupTable],
        opts: &SimOptions,
        st: FState,
        collect_out: bool,
    ) -> Engine<'a> {
        Engine {
            mp,
            tabs,
            cfg: opts.config,
            sentinel: opts.spec_model == SpecModel::Sentinel,
            st,
            out: collect_out.then(Vec::new),
            writes: Vec::with_capacity(16),
            stamps: Vec::with_capacity(16),
            free: Vec::new(),
        }
    }

    /// A zeroed frame for `Call`, recycled from the free list when
    /// possible.
    fn fresh_frame<T: Timing>(&mut self, sp: u64) -> Frame {
        match self.free.pop() {
            Some(mut f) => {
                f.regs.fill(Value::default());
                if T::TIMED {
                    f.ready.fill(0);
                    f.producer.fill(StallProducer::Other);
                }
                f.sp = sp;
                f.ret_dst = None;
                f
            }
            None => Frame::new(sp),
        }
    }

    /// Install an ALAT entry (FIFO replacement at capacity).
    fn alat_insert(&mut self, reg: u32, addr: u64, size: u64) {
        let key = (self.st.depth, reg);
        self.st.alat.retain(|(k, ..)| *k != key);
        if self.st.alat.len() >= self.cfg.alat_entries {
            self.st.alat.pop_front();
        }
        self.st.alat.push_back((key, addr, size));
    }

    /// Translate `a` through the exact DTLB, if this run keeps one.
    /// `defer` (a sentinel `ld.s`) probes first and returns `true`
    /// without filling when the probe misses.
    #[inline]
    fn translate<T: Timing>(&mut self, t: &mut T, a: u64, defer: bool) -> bool {
        let Some(d) = &mut self.st.dtlb else {
            return false;
        };
        let page = a / PAGE_SIZE;
        if page == self.st.last_page {
            d.accesses += 1; // repeat hit at the LRU head
            return false;
        }
        if defer && !d.probe(a) {
            return true;
        }
        if !d.access(a) {
            t.emit(SimEvent::DtlbWalk {
                cycles: self.cfg.tlb_walk_cycles,
            });
        }
        self.st.last_page = page;
        false
    }

    /// Execute a load's memory access, returning `(value, ready time)`.
    #[inline]
    fn load<T: Timing>(
        &mut self,
        t: &mut T,
        addr: Value,
        bytes: u64,
        spec: bool,
        issue: u64,
    ) -> Result<(Value, u64), TrapKind> {
        if addr.nat {
            if !spec {
                return Err(TrapKind::NatConsumed("load"));
            }
            t.emit(SimEvent::SpecLoad);
            t.emit(SimEvent::DeferredLoad);
            return Ok((Value::NAT, issue + 1));
        }
        let a = addr.bits;
        if spec {
            t.emit(SimEvent::SpecLoad);
        }
        // read_fast validates internally — one page lookup on the hot
        // path; a fault sorts out NaT-vs-trap on the cold path
        let read = self.st.mem.read_fast(a, bytes);
        if read.is_err() && !self.st.mem.is_valid(a) {
            if !spec {
                return Err(TrapKind::MemFault(a));
            }
            t.emit(SimEvent::DeferredLoad);
            if Memory::is_null_page(a) {
                // architected NaT page: cheap in both models
                t.emit(SimEvent::Kernel {
                    reason: KernelReason::NatPage,
                    cycles: self.cfg.nat_page_cycles,
                });
            } else if !self.sentinel {
                // wild load: traverse the page-mapping hierarchy in the
                // kernel; results are not cached (paper Sec. 4.3). The
                // sentinel model deferred early: only the DTLB was probed.
                t.emit(SimEvent::Kernel {
                    reason: KernelReason::WildLoad,
                    cycles: self.cfg.wild_load_kernel_cycles,
                });
            }
            return Ok((Value::NAT, issue + 1));
        }
        if self.translate(t, a, spec && self.sentinel) {
            // sentinel ld.s defers on DTLB miss without walking
            t.emit(SimEvent::DeferredLoad);
            return Ok((Value::NAT, issue + 1));
        }
        let v = read.map_err(|e| TrapKind::MemFault(e.addr))?;
        let ready = t.data(a, issue, false);
        Ok((Value::new(v), ready))
    }

    /// Execute a store: translate, write, touch the data side, and
    /// invalidate overlapping ALAT entries.
    #[inline]
    fn store<T: Timing>(
        &mut self,
        t: &mut T,
        addr: Value,
        val: Value,
        bytes: u64,
        issue: u64,
    ) -> Result<(), TrapKind> {
        if addr.nat || val.nat {
            return Err(TrapKind::NatConsumed("store"));
        }
        let a = addr.bits;
        self.translate(t, a, false);
        self.st
            .mem
            .write_fast(a, bytes, val.bits)
            .map_err(|e| TrapKind::MemFault(e.addr))?;
        t.data(a, issue, true);
        self.st
            .alat
            .retain(|&(_, ea, es)| a + bytes <= ea || ea + es <= a);
        Ok(())
    }

    /// Execute one predecoded issue group of function `func_i` spanning
    /// bundles `first..=end`, issuing at cycle `issue`. `DIRECT` commits
    /// register writes straight into the frame (proved safe at predecode
    /// time); otherwise writes buffer and commit at group end, the
    /// two-phase issue of IA-64.
    #[inline(always)]
    pub(crate) fn exec_group<const DIRECT: bool, T: Timing>(
        &mut self,
        t: &mut T,
        func_i: usize,
        first: usize,
        end: usize,
        e: GEntry,
        issue: u64,
    ) -> Result<Flow, TrapKind> {
        let mp = self.mp;
        let tab = &self.tabs[func_i];
        let f = &mp.funcs[func_i];
        let pops = &tab.pops[e.off as usize..(e.off + e.len) as usize];
        if !DIRECT {
            self.writes.clear();
            self.stamps.clear();
        }
        let mut flow = Flow::Fall;
        let mut call_push: Option<Frame> = None;
        'ops: for pop in pops {
            if T::TIMED {
                for _ in 0..pop.nops {
                    t.emit(SimEvent::Retired(Retire::Nop));
                }
            }
            let guard_val = match pop.guard {
                u32::MAX => true,
                g => {
                    let v = if !DIRECT && pop.branch {
                        // may consume this group's compare
                        self.writes
                            .iter()
                            .rev()
                            .find(|(r, _)| *r == g)
                            .map(|(_, v)| *v)
                            .unwrap_or(self.st.frame.regs[g as usize])
                    } else {
                        self.st.frame.regs[g as usize]
                    };
                    if pop.branch {
                        // conditional branch: predict on both outcomes
                        t.cond_branch(f.bundle_addr(first + pop.off as usize), v.is_true());
                    }
                    v.is_true()
                }
            };
            if !guard_val {
                t.emit(SimEvent::Retired(Retire::Squashed));
                continue;
            }
            t.emit(SimEvent::Retired(Retire::Useful));
            macro_rules! ev {
                ($s:expr) => {
                    match $s {
                        PSrc::Reg(r) => self.st.frame.regs[r as usize],
                        PSrc::Imm(x) => Value::new(x),
                        PSrc::FrameAddr(o) => Value::new(self.st.frame.sp + o),
                        PSrc::Bad => unreachable!("label evaluated as value"),
                    }
                };
            }
            // write `$v` to `$r`, available at `$ready`, produced by
            // `$prod` (the default: the op's own latency and producer)
            macro_rules! put {
                ($r:expr, $v:expr) => {
                    put!($r, $v, issue + pop.lat as u64, pop.prod)
                };
                ($r:expr, $v:expr, $ready:expr, $prod:expr) => {{
                    let r = $r as usize;
                    if DIRECT {
                        self.st.frame.regs[r] = $v;
                        if T::TIMED {
                            self.st.frame.ready[r] = $ready;
                            self.st.frame.producer[r] = $prod;
                        }
                    } else {
                        self.writes.push((r as u32, $v));
                        if T::TIMED {
                            self.stamps.push(($ready, $prod));
                        }
                    }
                }};
            }
            // irrefutable by predecode: the specialized kinds are only
            // emitted for these operand shapes
            macro_rules! reg {
                ($s:expr) => {
                    match $s {
                        PSrc::Reg(r) => self.st.frame.regs[r as usize],
                        _ => unreachable!("specialized reg operand"),
                    }
                };
            }
            macro_rules! imm {
                ($s:expr) => {
                    match $s {
                        PSrc::Imm(x) => x,
                        _ => unreachable!("specialized imm operand"),
                    }
                };
            }
            macro_rules! faddr {
                ($s:expr) => {
                    match $s {
                        PSrc::FrameAddr(o) => Value::new(self.st.frame.sp + o),
                        _ => unreachable!("specialized frame operand"),
                    }
                };
            }
            macro_rules! cmp {
                ($kind:expr, $dst2:expr, $a:expr, $c:expr) => {{
                    let (a, c): (Value, Value) = ($a, $c);
                    let (tv, fv) = if a.nat || c.nat {
                        (0u64, 0u64)
                    } else {
                        let r = $kind.eval(a.bits, c.bits);
                        (r as u64, !r as u64)
                    };
                    put!(pop.dst, Value::new(tv));
                    if $dst2 != u32::MAX {
                        put!($dst2, Value::new(fv));
                    }
                }};
            }
            match pop.kind {
                PKind::Alu(opc) => {
                    let (a, c) = (ev!(pop.a), ev!(pop.b));
                    put!(pop.dst, Value::lift2(a, c, |x, y| alu(opc, x, y)));
                }
                PKind::AluRR(opc) => {
                    let (a, c) = (reg!(pop.a), reg!(pop.b));
                    put!(pop.dst, Value::lift2(a, c, |x, y| alu(opc, x, y)));
                }
                PKind::AluRI(opc) => {
                    let (a, c) = (reg!(pop.a), Value::new(imm!(pop.b)));
                    put!(pop.dst, Value::lift2(a, c, |x, y| alu(opc, x, y)));
                }
                k @ (PKind::Div | PKind::Rem) => {
                    let (a, c) = (ev!(pop.a), ev!(pop.b));
                    let v = if a.nat || c.nat {
                        Value::NAT
                    } else if c.bits == 0 {
                        return Err(TrapKind::DivByZero);
                    } else {
                        let (x, y) = (a.bits as i64, c.bits as i64);
                        Value::new(if matches!(k, PKind::Div) {
                            x.wrapping_div(y) as u64
                        } else {
                            x.wrapping_rem(y) as u64
                        })
                    };
                    put!(pop.dst, v);
                }
                PKind::Cmp { kind, dst2 } => cmp!(kind, dst2, ev!(pop.a), ev!(pop.b)),
                PKind::CmpRR { kind, dst2 } => cmp!(kind, dst2, reg!(pop.a), reg!(pop.b)),
                PKind::CmpRI { kind, dst2 } => {
                    cmp!(kind, dst2, reg!(pop.a), Value::new(imm!(pop.b)))
                }
                PKind::Mov => put!(pop.dst, ev!(pop.a)),
                PKind::MovR => put!(pop.dst, reg!(pop.a)),
                PKind::MovI => put!(pop.dst, Value::new(imm!(pop.a))),
                PKind::MovF => put!(pop.dst, faddr!(pop.a)),
                PKind::Ld { bytes, spec, adv } => {
                    let addr = ev!(pop.a);
                    let (v, ready) = self.load(t, addr, bytes as u64, spec, issue)?;
                    if adv && !addr.nat && !v.nat {
                        t.emit(SimEvent::AdvLoad);
                        self.alat_insert(pop.dst, addr.bits, bytes as u64);
                    }
                    put!(pop.dst, v, ready, StallProducer::Load);
                }
                PKind::LdR { bytes } => {
                    let (v, ready) = self.load(t, reg!(pop.a), bytes as u64, false, issue)?;
                    put!(pop.dst, v, ready, StallProducer::Load);
                }
                PKind::LdF { bytes } => {
                    let (v, ready) = self.load(t, faddr!(pop.a), bytes as u64, false, issue)?;
                    put!(pop.dst, v, ready, StallProducer::Load);
                }
                PKind::ChkA { bytes, key } => {
                    let v = ev!(pop.a);
                    if key == u32::MAX {
                        unreachable!("verified chk.a shape");
                    }
                    let k = (self.st.depth, key);
                    if self.st.alat.iter().any(|(k2, ..)| *k2 == k) && !v.nat {
                        put!(pop.dst, v);
                    } else {
                        t.emit(SimEvent::AlatMiss {
                            cycles: self.cfg.alat_recovery_cycles,
                        });
                        let (rv, ready) = self.load(t, ev!(pop.b), bytes as u64, false, issue)?;
                        put!(pop.dst, rv, ready, StallProducer::Load);
                    }
                }
                PKind::Chk { bytes } => {
                    let v = ev!(pop.a);
                    if v.nat {
                        t.emit(SimEvent::ChkRecovery {
                            cycles: self.cfg.chk_recovery_cycles,
                        });
                        let (rv, ready) = self.load(t, ev!(pop.b), bytes as u64, false, issue)?;
                        put!(pop.dst, rv, ready, StallProducer::Load);
                    } else {
                        put!(pop.dst, v);
                    }
                }
                PKind::St { bytes } => {
                    self.store(t, ev!(pop.a), ev!(pop.b), bytes as u64, issue)?;
                }
                PKind::StRR { bytes } => {
                    self.store(t, reg!(pop.a), reg!(pop.b), bytes as u64, issue)?;
                }
                PKind::StFR { bytes } => {
                    self.store(t, faddr!(pop.a), reg!(pop.b), bytes as u64, issue)?;
                }
                PKind::Br { target } => {
                    t.emit(SimEvent::BranchExecuted);
                    flow = Flow::Jump((func_i, target as usize));
                    break 'ops;
                }
                PKind::BrNoCode { label } => {
                    t.emit(SimEvent::BranchExecuted);
                    return Err(TrapKind::Malformed(format!(
                        "no code for {}",
                        epic_ir::BlockId(label)
                    )));
                }
                PKind::BrBad => {
                    t.emit(SimEvent::BranchExecuted);
                    panic!("branch label");
                }
                PKind::Call { callee, args } => {
                    let callee = if callee != u32::MAX {
                        callee as usize
                    } else {
                        let v = ev!(pop.a);
                        if v.nat {
                            return Err(TrapKind::NatConsumed("call"));
                        }
                        func_from_addr(v.bits)
                            .ok_or(TrapKind::BadCall(v.bits))?
                            .index()
                    };
                    t.emit(SimEvent::CallExecuted);
                    t.emit(SimEvent::BranchExecuted);
                    let cf = &mp.funcs[callee];
                    let (regs, stall) = self.st.rse.call(cf.n_gr);
                    t.emit(SimEvent::RseTraffic { regs, stall });
                    t.call(f.bundle_addr(end + 1));
                    let sp = self.st.frame.sp - ((cf.frame_size + 15) & !15);
                    if sp < STACK_TOP - STACK_MAX {
                        return Err(TrapKind::MemFault(sp));
                    }
                    let mut nf = self.fresh_frame::<T>(sp);
                    let argv = &tab.cargs[args.0 as usize..args.1 as usize];
                    for (ai, &pr) in cf.param_regs.iter().enumerate() {
                        if let Some(&a) = argv.get(ai) {
                            nf.regs[pr as usize] = ev!(a);
                            if T::TIMED {
                                nf.ready[pr as usize] = issue + 1;
                            }
                        }
                    }
                    nf.ret_pos = (func_i, end + 1);
                    nf.ret_dst = (pop.dst != u32::MAX).then_some(Vreg(pop.dst));
                    self.st.depth += 1;
                    flow = Flow::Jump((callee, cf.entry));
                    call_push = Some(nf);
                    break 'ops;
                }
                PKind::Ret => {
                    t.emit(SimEvent::BranchExecuted);
                    let val = ev!(pop.a);
                    let (regs, stall) = self.st.rse.ret();
                    t.emit(SimEvent::RseTraffic { regs, stall });
                    let Some(mut caller) = self.st.stack.pop() else {
                        if val.nat {
                            return Err(TrapKind::NatConsumed("main return"));
                        }
                        flow = Flow::Done(val.bits);
                        break 'ops;
                    };
                    // the return-address stack predicts returns
                    let next = self.st.frame.ret_pos;
                    t.ret(mp.funcs[next.0].bundle_addr(next.1));
                    if let Some(d) = self.st.frame.ret_dst {
                        caller.regs[d.index()] = val;
                        if T::TIMED {
                            caller.ready[d.index()] = issue + 1;
                            caller.producer[d.index()] = StallProducer::Other;
                        }
                    }
                    self.free
                        .push(std::mem::replace(&mut self.st.frame, caller));
                    let d = self.st.depth;
                    self.st.alat.retain(|&((fd, _), ..)| fd < d);
                    self.st.depth -= 1;
                    flow = Flow::Jump(next);
                    break 'ops;
                }
                PKind::Out => {
                    let v = ev!(pop.a);
                    if v.nat {
                        return Err(TrapKind::NatConsumed("out"));
                    }
                    if let Some(o) = &mut self.out {
                        o.push(v.bits);
                    }
                    t.emit(SimEvent::Kernel {
                        reason: KernelReason::Syscall,
                        cycles: self.cfg.syscall_kernel_cycles,
                    });
                }
                PKind::Alloc => {
                    let n = ev!(pop.a);
                    if n.nat {
                        return Err(TrapKind::NatConsumed("alloc"));
                    }
                    let p = self.st.mem.alloc(n.bits);
                    t.emit(SimEvent::Kernel {
                        reason: KernelReason::Alloc,
                        cycles: self.cfg.syscall_kernel_cycles / 2,
                    });
                    put!(pop.dst, Value::new(p));
                }
                PKind::Nop => t.emit(SimEvent::Retired(Retire::Nop)),
            }
        }
        if T::TIMED && matches!(flow, Flow::Fall) {
            for _ in 0..e.tail_nops {
                t.emit(SimEvent::Retired(Retire::Nop));
            }
        }
        // --- commit: a call discards the group's writes (a call is
        // alone in its group, so only argument evaluation happened); a
        // return swapped frames already, so buffered writes land in the
        // caller ---
        if let Some(nf) = call_push {
            self.st
                .stack
                .push(std::mem::replace(&mut self.st.frame, nf));
        } else if !DIRECT {
            let fr = &mut self.st.frame;
            for (i, &(r, v)) in self.writes.iter().enumerate() {
                fr.regs[r as usize] = v;
                if T::TIMED {
                    (fr.ready[r as usize], fr.producer[r as usize]) = self.stamps[i];
                }
            }
        }
        Ok(flow)
    }
}

#[inline]
fn alu(opcode: Opcode, a: u64, b: u64) -> u64 {
    match opcode {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a << (b & 63),
        Opcode::Shr => a >> (b & 63),
        Opcode::Sar => ((a as i64) >> (b & 63)) as u64,
        _ => unreachable!("non-ALU opcode"),
    }
}
