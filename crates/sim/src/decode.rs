//! The simulator's decoded program: per-function issue-group tables.
//!
//! Execution never walks `MachFunc.bundles`. Before a run starts, every
//! issue-group start that control can land on is predecoded once: where
//! the group ends (its stop bit), how many real ops and nop slots it
//! holds, its ops with operands folded to register indices or constants
//! and branch targets and direct callees resolved, the scoreboard
//! sources the detailed model waits on (in `op.uses()` order), each op's
//! latency and stall producer, whether its register writes may commit
//! straight into the frame, and the straight-line runs the functional
//! executor fuses. Both the detailed simulator and the functional
//! executor run on these tables through the one value engine
//! ([`crate::engine`]).

use crate::attrib::StallProducer;
use crate::engine::NREGS;
use crate::sample::BBV_DIM;
use epic_ir::mem::func_addr;
use epic_ir::{CmpKind, Opcode, Operand};
use epic_mach::{MachFunc, MachProgram, Slot};

/// A predecoded source operand. `Global`/`FuncAddr` fold to `Imm`
/// constants at predecode time; `Bad` preserves the exact panic for a
/// (verifier-rejected) label evaluated as data.
#[derive(Clone, Copy)]
pub(crate) enum PSrc {
    Reg(u32),
    Imm(u64),
    FrameAddr(u64),
    Bad,
}

/// Absent operand (e.g. a bare `ret`): evaluates to zero.
const NO_SRC: PSrc = PSrc::Imm(0);

/// Predecoded opcode payload. Branch targets and direct callees are
/// resolved to indices; memory sizes to byte counts.
#[derive(Clone, Copy)]
pub(crate) enum PKind {
    Alu(Opcode),
    /// [`PKind::Alu`] specialized to reg/reg and reg/imm operands
    /// (folding the operand-source dispatch into the opcode dispatch
    /// removes two data-dependent branches per op; these shapes are the
    /// bulk of every stream). Same pattern for `Mov`/`Cmp`/`Ld`/`St`.
    AluRR(Opcode),
    AluRI(Opcode),
    Div,
    Rem,
    Cmp {
        kind: CmpKind,
        dst2: u32,
    },
    CmpRR {
        kind: CmpKind,
        dst2: u32,
    },
    CmpRI {
        kind: CmpKind,
        dst2: u32,
    },
    Mov,
    MovR,
    MovI,
    MovF,
    Ld {
        bytes: u32,
        spec: bool,
        adv: bool,
    },
    /// Plain (non-speculative, non-advanced) load, reg / frame address.
    LdR {
        bytes: u32,
    },
    LdF {
        bytes: u32,
    },
    ChkA {
        bytes: u32,
        key: u32,
    },
    Chk {
        bytes: u32,
    },
    St {
        bytes: u32,
    },
    /// Store specialized to reg/frame address and reg value.
    StRR {
        bytes: u32,
    },
    StFR {
        bytes: u32,
    },
    /// Target bundle index.
    Br {
        target: u32,
    },
    /// `br` to a block with no placed code (traps if taken).
    BrNoCode {
        label: u32,
    },
    /// `br` whose operand is not a label (panics if executed).
    BrBad,
    /// `callee == u32::MAX` = indirect (resolve `a` at run time);
    /// `args` is a range into [`GroupTable::cargs`].
    Call {
        callee: u32,
        args: (u32, u32),
    },
    Ret,
    Out,
    Alloc,
    /// An explicit `nop` op (it still has a guard, so it retires as
    /// useful or squashed, and then as a nop).
    Nop,
}

/// One predecoded op. `dst`/`guard` are register indices
/// (`u32::MAX` = none); `off` is the bundle offset within the group
/// (for predictor addresses); `nops` counts the nop slots between the
/// previous op of the group and this one; `lat`/`prod` are the
/// scoreboard latency and stall producer of a computed result.
#[derive(Clone, Copy)]
pub(crate) struct POp {
    pub(crate) kind: PKind,
    pub(crate) guard: u32,
    pub(crate) dst: u32,
    pub(crate) a: PSrc,
    pub(crate) b: PSrc,
    pub(crate) off: u16,
    pub(crate) nops: u16,
    pub(crate) lat: u8,
    pub(crate) prod: StallProducer,
    pub(crate) branch: bool,
}

/// One per-bundle issue-group record, packed so a group lookup touches
/// a single cache line. For a group starting at bundle `i`: `end` is
/// its stop bundle (`u32::MAX` = malformed start that runs off the
/// code), `nops` its real-op count, `bbv` its precomputed BBV slot, and
/// `off..off+len` its predecoded ops (`off == u32::MAX` where control
/// can never land — predecoding covers only reachable starts).
/// `src..src+nsrc` indexes [`GroupTable::srcs`] with the registers the
/// scoreboard waits on; `tail_nops` counts the nop slots after the
/// group's last op. `direct` means register writes may commit straight
/// into the frame (no op observes — or, via a taken call/return frame
/// switch, discards/redirects — the pre-group value of a register
/// written earlier in the group), skipping the two-phase write buffer.
#[derive(Clone, Copy)]
pub(crate) struct GEntry {
    pub(crate) end: u32,
    pub(crate) nops: u32,
    pub(crate) off: u32,
    pub(crate) len: u32,
    pub(crate) src: u32,
    /// Fused-run extent: a maximal chain of consecutive fallthrough
    /// groups that are all direct-commit safe and contain no
    /// control-flow op executes as one flat op slice, skipping the
    /// per-group loop overhead (fuel, table fetch, BBV hash, flow
    /// dispatch). `fend`/`fops`/`flen` mirror `end`/`nops`/`len` over
    /// the whole chain; `fsteps` is its group count (1 = no fusion);
    /// `fbbv..fbbv+fpairs` indexes [`GroupTable::bbv_pairs`] with the
    /// chain's merged per-slot op counts. Only the functional executor
    /// fuses: the detailed model times every group.
    pub(crate) fend: u32,
    pub(crate) fops: u32,
    pub(crate) flen: u32,
    pub(crate) fbbv: u32,
    pub(crate) fsteps: u16,
    pub(crate) fpairs: u16,
    pub(crate) nsrc: u16,
    pub(crate) tail_nops: u16,
    pub(crate) bbv: u16,
    pub(crate) direct: bool,
}

/// Per-function predecoded issue-group structure.
pub(crate) struct GroupTable {
    pub(crate) g: Vec<GEntry>,
    pub(crate) pops: Vec<POp>,
    pub(crate) cargs: Vec<PSrc>,
    /// Scoreboard sources: `(register, branch-guard forwarding)` — a
    /// branch may consume its guard one cycle early.
    pub(crate) srcs: Vec<(u32, bool)>,
    /// `(bbv slot, op count)` pairs for fused runs (see [`GEntry`]).
    pub(crate) bbv_pairs: Vec<(u16, u32)>,
}

type RegMask = [u64; NREGS.div_ceil(64)];

fn mask_get(m: &RegMask, r: u32) -> bool {
    (r as usize) < NREGS && m[r as usize / 64] >> (r % 64) & 1 == 1
}

fn mask_set(m: &mut RegMask, r: u32) {
    m[r as usize / 64] |= 1 << (r % 64);
}

impl GroupTable {
    /// Predecode the group starting at bundle `first` of `f` (its end is
    /// already in `g[first]`), appending its ops and scoreboard sources
    /// to the pools. Returns `pure`: the group has no control-flow op, so
    /// execution provably falls through (the fusion precondition).
    fn predecode(&mut self, mp: &MachProgram, f: &MachFunc, first: usize) -> bool {
        let end = self.g[first].end as usize;
        let off = self.pops.len() as u32;
        let src = self.srcs.len() as u32;
        let mut written: RegMask = Default::default();
        let mut any_write = false;
        let mut direct = true;
        let mut pure = true;
        let mut nops = 0u16;
        let psrc = |o: &Operand| match *o {
            Operand::Reg(v) => PSrc::Reg(v.0),
            Operand::Imm(i) => PSrc::Imm(i as u64),
            Operand::Global(g) => PSrc::Imm(mp.ir.globals[g.index()].addr),
            Operand::FuncAddr(t) => PSrc::Imm(func_addr(t)),
            Operand::FrameAddr(o) => PSrc::FrameAddr(o),
            Operand::Label(_) => PSrc::Bad,
        };
        for (k, b) in f.bundles[first..=end].iter().enumerate() {
            for s in &b.slots {
                let op = match s {
                    Slot::Op(op) => op,
                    Slot::Nop => {
                        nops += 1;
                        continue;
                    }
                    Slot::LContinuation => continue,
                };
                let is_br = op.is_branch();
                for u in op.uses() {
                    self.srcs.push((u.0, is_br && op.guard == Some(u)));
                }
                // a source read sees pre-group state in buffered mode; if
                // the register was written earlier in the group, direct
                // commit would change what it reads
                macro_rules! rd {
                    ($o:expr) => {{
                        let s = psrc($o);
                        if let PSrc::Reg(r) = s {
                            if mask_get(&written, r) || r as usize >= NREGS {
                                direct = false;
                            }
                        }
                        s
                    }};
                }
                macro_rules! wr {
                    ($d:expr) => {{
                        let d: u32 = $d;
                        if (d as usize) < NREGS {
                            mask_set(&mut written, d);
                        } else {
                            direct = false; // untrackable (traps at exec)
                        }
                        any_write = true;
                    }};
                }
                let guard = match op.guard {
                    None => u32::MAX,
                    Some(g) => {
                        // branch guards read latest-write semantics, which
                        // direct commit matches; others read pre-group state
                        if !is_br && mask_get(&written, g.0) {
                            direct = false;
                        }
                        g.0
                    }
                };
                let dst = op.dsts.first().map_or(u32::MAX, |d| d.0);
                let mut a = NO_SRC;
                let mut bs = NO_SRC;
                let kind = match op.opcode {
                    Opcode::Add
                    | Opcode::Sub
                    | Opcode::Mul
                    | Opcode::And
                    | Opcode::Or
                    | Opcode::Xor
                    | Opcode::Shl
                    | Opcode::Shr
                    | Opcode::Sar => {
                        a = rd!(&op.srcs[0]);
                        bs = rd!(&op.srcs[1]);
                        wr!(dst);
                        PKind::Alu(op.opcode)
                    }
                    Opcode::Div | Opcode::Rem => {
                        a = rd!(&op.srcs[0]);
                        bs = rd!(&op.srcs[1]);
                        wr!(dst);
                        if matches!(op.opcode, Opcode::Div) {
                            PKind::Div
                        } else {
                            PKind::Rem
                        }
                    }
                    Opcode::Cmp(kind) => {
                        a = rd!(&op.srcs[0]);
                        bs = rd!(&op.srcs[1]);
                        wr!(dst);
                        let dst2 = op.dsts.get(1).map_or(u32::MAX, |d| d.0);
                        if dst2 != u32::MAX {
                            wr!(dst2);
                        }
                        PKind::Cmp { kind, dst2 }
                    }
                    Opcode::Mov => {
                        a = rd!(&op.srcs[0]);
                        wr!(dst);
                        PKind::Mov
                    }
                    Opcode::Ld(size) => {
                        a = rd!(&op.srcs[0]);
                        wr!(dst);
                        PKind::Ld {
                            bytes: size.bytes() as u32,
                            spec: op.spec,
                            adv: op.adv,
                        }
                    }
                    Opcode::ChkA(size) => {
                        a = rd!(&op.srcs[0]);
                        bs = rd!(&op.srcs[1]);
                        wr!(dst);
                        let key = match op.srcs[0] {
                            Operand::Reg(r) => r.0,
                            _ => u32::MAX, // malformed; panics if executed
                        };
                        PKind::ChkA {
                            bytes: size.bytes() as u32,
                            key,
                        }
                    }
                    Opcode::Chk(size) => {
                        a = rd!(&op.srcs[0]);
                        bs = rd!(&op.srcs[1]);
                        wr!(dst);
                        PKind::Chk {
                            bytes: size.bytes() as u32,
                        }
                    }
                    Opcode::St(size) => {
                        a = rd!(&op.srcs[0]);
                        bs = rd!(&op.srcs[1]);
                        PKind::St {
                            bytes: size.bytes() as u32,
                        }
                    }
                    Opcode::Br => {
                        pure = false;
                        match op.srcs[0] {
                            Operand::Label(t) => {
                                match f.block_entry.get(t.index()).copied().flatten() {
                                    Some(bi) => PKind::Br { target: bi as u32 },
                                    None => PKind::BrNoCode { label: t.0 },
                                }
                            }
                            _ => PKind::BrBad,
                        }
                    }
                    Opcode::Call => {
                        pure = false;
                        let callee = match op.srcs[0] {
                            Operand::FuncAddr(t) => t.index() as u32,
                            ref o => {
                                a = rd!(o);
                                u32::MAX
                            }
                        };
                        let a0 = self.cargs.len() as u32;
                        for so in &op.srcs[1..] {
                            let ps = rd!(so);
                            self.cargs.push(ps);
                        }
                        let a1 = self.cargs.len() as u32;
                        // a taken call discards the group's buffered writes
                        if any_write {
                            direct = false;
                        }
                        PKind::Call {
                            callee,
                            args: (a0, a1),
                        }
                    }
                    Opcode::Ret => {
                        pure = false;
                        a = op.srcs.first().map(|o| rd!(o)).unwrap_or(NO_SRC);
                        // buffered writes commit *after* the return's frame
                        // swap, i.e. into the caller's frame
                        if any_write {
                            direct = false;
                        }
                        PKind::Ret
                    }
                    Opcode::Out => {
                        a = rd!(&op.srcs[0]);
                        PKind::Out
                    }
                    Opcode::Alloc => {
                        a = rd!(&op.srcs[0]);
                        wr!(dst);
                        PKind::Alloc
                    }
                    Opcode::Nop => PKind::Nop,
                };
                // fold the hottest operand shapes into the opcode dispatch
                let kind = match (kind, a, bs) {
                    (PKind::Alu(o), PSrc::Reg(_), PSrc::Reg(_)) => PKind::AluRR(o),
                    (PKind::Alu(o), PSrc::Reg(_), PSrc::Imm(_)) => PKind::AluRI(o),
                    (PKind::Mov, PSrc::Reg(_), _) => PKind::MovR,
                    (PKind::Mov, PSrc::Imm(_), _) => PKind::MovI,
                    (PKind::Mov, PSrc::FrameAddr(_), _) => PKind::MovF,
                    (PKind::Cmp { kind, dst2 }, PSrc::Reg(_), PSrc::Reg(_)) => {
                        PKind::CmpRR { kind, dst2 }
                    }
                    (PKind::Cmp { kind, dst2 }, PSrc::Reg(_), PSrc::Imm(_)) => {
                        PKind::CmpRI { kind, dst2 }
                    }
                    (
                        PKind::Ld {
                            bytes,
                            spec: false,
                            adv: false,
                        },
                        PSrc::Reg(_),
                        _,
                    ) => PKind::LdR { bytes },
                    (
                        PKind::Ld {
                            bytes,
                            spec: false,
                            adv: false,
                        },
                        PSrc::FrameAddr(_),
                        _,
                    ) => PKind::LdF { bytes },
                    (PKind::St { bytes }, PSrc::Reg(_), PSrc::Reg(_)) => PKind::StRR { bytes },
                    (PKind::St { bytes }, PSrc::FrameAddr(_), PSrc::Reg(_)) => {
                        PKind::StFR { bytes }
                    }
                    (k, ..) => k,
                };
                let prod = match op.opcode {
                    Opcode::Mul | Opcode::Div | Opcode::Rem => StallProducer::Float,
                    _ => StallProducer::Other,
                };
                self.pops.push(POp {
                    kind,
                    guard,
                    dst,
                    a,
                    b: bs,
                    off: k as u16,
                    nops,
                    lat: epic_mach::units::latency(op) as u8,
                    prod,
                    branch: is_br,
                });
                nops = 0;
            }
        }
        let e = &mut self.g[first];
        e.off = off;
        e.len = self.pops.len() as u32 - off;
        e.src = src;
        e.nsrc = (self.srcs.len() as u32 - src) as u16;
        e.tail_nops = nops;
        e.direct = direct;
        pure
    }
}

/// Predecode every function of `mp`.
pub(crate) fn build_tables(mp: &MachProgram) -> Vec<GroupTable> {
    mp.funcs
        .iter()
        .enumerate()
        .map(|(func_i, f)| {
            let nb = f.bundles.len();
            let mut tab = GroupTable {
                g: vec![
                    GEntry {
                        end: u32::MAX,
                        nops: 0,
                        off: u32::MAX,
                        len: 0,
                        src: 0,
                        fend: u32::MAX,
                        fops: 0,
                        flen: 0,
                        fbbv: 0,
                        fsteps: 1,
                        fpairs: 0,
                        nsrc: 0,
                        tail_nops: 0,
                        bbv: 0,
                        direct: false,
                    };
                    nb
                ],
                pops: Vec::new(),
                cargs: Vec::new(),
                srcs: Vec::new(),
                bbv_pairs: Vec::new(),
            };
            let g = &mut tab.g;
            for i in (0..nb).rev() {
                let b = &f.bundles[i];
                if b.stop {
                    g[i].end = i as u32;
                    g[i].nops = b.op_count() as u32;
                } else if i + 1 < nb && g[i + 1].end != u32::MAX {
                    g[i].end = g[i + 1].end;
                    g[i].nops = b.op_count() as u32 + g[i + 1].nops;
                }
                g[i].bbv = bbv_slot(func_i, i) as u16;
            }
            // predecode every start control can land on: sequential
            // fallthroughs land after a stop, branches on block entries,
            // calls on the function entry, returns after a stop
            let mut pure = vec![false; nb];
            let natural: Vec<usize> = (0..nb)
                .filter(|&i| i == 0 || f.bundles[i - 1].stop)
                .collect();
            let entries = f.block_entry.iter().filter_map(|e| *e);
            for i in natural
                .into_iter()
                .chain(entries)
                .chain(std::iter::once(f.entry))
            {
                if i < nb && tab.g[i].end != u32::MAX && tab.g[i].off == u32::MAX {
                    pure[i] = tab.predecode(mp, f, i);
                }
            }
            // fuse maximal chains of pure direct fallthrough groups
            // whose predecoded ops are adjacent in `pops` (consecutive
            // natural starts always are: the natural loop above runs
            // first, in ascending bundle order). The 64-group cap
            // bounds interval-boundary overshoot and fuel-check lag.
            let g = &mut tab.g;
            fn fusible(g: &[GEntry], pure: &[bool], i: usize) -> bool {
                g[i].off != u32::MAX && g[i].end != u32::MAX && g[i].direct && pure[i]
            }
            for i in 0..nb {
                g[i].fend = g[i].end;
                g[i].fops = g[i].nops;
                g[i].flen = g[i].len;
                if !fusible(g, &pure, i) {
                    continue;
                }
                let mut pairs: Vec<(u16, u32)> = vec![(g[i].bbv, g[i].nops)];
                let mut last = i;
                loop {
                    let next = g[last].end as usize + 1;
                    if g[i].fsteps >= 64
                        || next >= nb
                        || !fusible(g, &pure, next)
                        || g[next].off != g[i].off + g[i].flen
                    {
                        break;
                    }
                    let ne = g[next];
                    g[i].fend = ne.end;
                    g[i].fops += ne.nops;
                    g[i].flen += ne.len;
                    g[i].fsteps += 1;
                    match pairs.iter_mut().find(|(s, _)| *s == ne.bbv) {
                        Some((_, n)) => *n += ne.nops,
                        None => pairs.push((ne.bbv, ne.nops)),
                    }
                    last = next;
                }
                if g[i].fsteps > 1 {
                    g[i].fbbv = tab.bbv_pairs.len() as u32;
                    g[i].fpairs = pairs.len() as u16;
                    tab.bbv_pairs.extend(pairs);
                }
            }
            tab
        })
        .collect()
}

/// Hash an issue-group start location into a BBV slot.
pub(crate) fn bbv_slot(func_i: usize, bundle: usize) -> usize {
    (mix(((func_i as u64) << 32) ^ bundle as u64) as usize) & (BBV_DIM - 1)
}

/// SplitMix64 finalizer (deterministic, std-only).
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
