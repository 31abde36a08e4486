//! SimPoint-style sampled simulation with error-bounded extrapolation.
//!
//! Detailed simulation of a whole run is the dominant cost of every
//! matrix experiment. This module slices execution into fixed-length
//! instruction intervals, fingerprints each interval with a basic-block
//! vector (BBV), clusters the intervals into phases with a deterministic
//! integer k-means, simulates *one representative interval per phase* in
//! the detailed machine model, and extrapolates total cycles, the nine
//! Fig. 5 accounting categories, the counters, and the per-function
//! matrix from the representatives, weighted by phase size.
//!
//! # Value exactness
//!
//! The fast pass ([`FRun`]) and the detailed simulator are one value
//! engine ([`crate::engine`]) over one decoded program
//! ([`crate::decode`]) with two kinds of timing: the detailed timing
//! charges every cycle, while `FRun`'s cold and warm instantiations keep
//! no clock and emit no events. Issue-group commit (reads see pre-group
//! state, a branch may consume a same-group compare), predication, NaT
//! deferral, the ALAT, and — only under [`SpecModel::Sentinel`] — the
//! DTLB are therefore the same code in both: a sentinel `ld.s` defers
//! iff the DTLB probe misses, which is value-affecting, so the
//! functional pass keeps that DTLB exactly. Under [`SpecModel::General`]
//! no value ever depends on cache/TLB/predictor state, and the
//! functional pass keeps none of it. Consequently the functional op
//! stream, trap set, output, and interval boundaries are bit-identical
//! to the exact simulation by construction, and a representative
//! interval replayed from a snapshot executes exactly the ops the exact
//! run executed there. Any functional trap falls back to an exact run,
//! which reproduces the authentic [`SimTrap`].
//!
//! # Warmup
//!
//! Microarchitectural state (caches, predictor, DTLB, RSE occupancy) at
//! a representative's start is approximated per [`Warmup`]: `Cold`
//! injects empty structures, `Ops(w)` functionally replays the last `w`
//! ops before the interval while touching fresh structures, and `Full`
//! runs a sequential second pass that keeps the structures continuously
//! warm between representatives. Warm replay happens in the functional
//! engine and emits *no* attribution events, so warmup charges can never
//! leak into extrapolated totals: the accounting identity
//! ([`SimResult::check_identity`]) holds by construction because the
//! aggregate categories and the total are *derived from* the
//! extrapolated per-function matrix.

use crate::attrib::{FuncMatrix, KernelReason, SimEvent};
use crate::caches::Hierarchy;
use crate::counters::{Category, Counters, CycleAccounting, NUM_CATEGORIES, NUM_COUNTERS};
use crate::decode::{build_tables, mix, GEntry, GroupTable};
use crate::engine::{Engine, FState, Flow, Timing};
use crate::machine::{run_exact, Exec, Sim, SimOptions, SimResult, SimTrap, SpecModel, TrapKind};
use crate::predict::{AnyPredictor, BranchPredictor, PredictorSpec};
use crate::tlb::Dtlb;
use epic_ir::interp::checksum;
use epic_ir::mem::{GLOBAL_BASE, HEAP_BASE, PAGE_SIZE, STACK_MAX, STACK_TOP};
use epic_mach::{MachProgram, MachineConfig};

/// Basic-block-vector dimensionality: issue-group start locations hash
/// into this many slots.
pub const BBV_DIM: usize = 64;

/// BBVs are normalized to this common mass before clustering so that
/// intervals of different lengths (the last one is short) compare by
/// *shape*.
const BBV_SCALE: u64 = 1 << 20;

/// Fixed clustering seed (jitters the k-means initialization picks).
const KMEANS_SEED: u64 = 0x5EED_0BB5_D1CE_0001;

/// Warm-pass memory-behavior features appended to each interval's
/// cluster vector: L1D misses, L3 misses, DTLB page switches, branch
/// mispredicts. BBVs alone can't separate intervals with identical
/// control flow but data-dependent cache behavior (two walks of the
/// same loop over near and far pointers cluster together yet differ
/// widely in CPI); these four rates make that heterogeneity visible
/// to the clusterer. All zero under `Warmup::Cold`/`Ops` profiles,
/// which degrade gracefully to pure-BBV clustering.
const N_FEAT: usize = 5;

/// Cluster-vector width: BBV dims plus the warm features.
const CVEC_DIM: usize = BBV_DIM + N_FEAT;

/// Per-feature weight, roughly the cycle cost of one event, so feature
/// distance is commensurate with the CPI difference it predicts (the
/// last is `wild_load_kernel_cycles`: wild speculative loads are the
/// dominant kernel charge and utterly invisible to a BBV).
const FEAT_W: [u64; N_FEAT] = [6, 160, 24, 8, 160];

/// Keep at most this many interval-boundary snapshots; past it the
/// snapshot stride doubles (memory stays bounded, replay distance grows).
const MAX_SNAPSHOTS: usize = 96;

/// Microarchitectural warmup applied before each representative interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Warmup {
    /// Inject empty caches/predictor/TLB (fast, overestimates misses).
    Cold,
    /// Functionally replay the last `N` ops before the representative
    /// while touching fresh timing structures.
    Ops(u64),
    /// Sequential second pass keeping timing structures continuously
    /// warm between representatives (most accurate, slowest).
    Full,
}

/// Exact cycle-accurate simulation, or SimPoint-style sampling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SamplePolicy {
    /// Simulate every instruction (bit-identical to the pre-sampling
    /// simulator).
    #[default]
    Exact,
    /// Slice into `interval_len`-op intervals, cluster BBVs into at most
    /// `max_clusters` phases, simulate one representative per phase with
    /// the given warmup, extrapolate the rest.
    Sampled {
        /// Ops per interval (clamped to at least 256).
        interval_len: u64,
        /// Phase-cluster budget for k-means.
        max_clusters: usize,
        /// Timing-structure warmup mode.
        warmup: Warmup,
    },
}

impl SamplePolicy {
    /// The tuned default sampling configuration (the one `epicc sample`
    /// and the benchmark harness use).
    pub fn default_sampled() -> SamplePolicy {
        SamplePolicy::Sampled {
            interval_len: 100_000,
            max_clusters: 12,
            warmup: Warmup::Full,
        }
    }
}

/// Metadata attached to a sampled [`SimResult`]: how the run was sliced,
/// clustered, and how trustworthy the extrapolation is.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleInfo {
    /// Nominal ops per interval.
    pub interval_len: u64,
    /// Number of intervals the run sliced into.
    pub intervals: usize,
    /// Number of phase clusters actually formed.
    pub clusters: usize,
    /// Total retired-slot ops in the run (exact).
    pub total_ops: u64,
    /// Ops simulated in detail (representatives only).
    pub sampled_ops: u64,
    /// Heuristic relative-error estimate for total cycles, from
    /// weighted intra-cluster BBV dispersion. `0.0` for fallback runs.
    pub est_error: f64,
    /// The run was too small to sample; the numbers are exact.
    pub fallback: bool,
    /// Per-interval phase assignment (cluster index per interval).
    pub phases: Vec<u32>,
}

// ---------------------------------------------------------------------
// Functional execution
// ---------------------------------------------------------------------

/// Per-set MRU mirror of one L1 cache. An access whose line is already
/// the MRU way of its set changes no tag/LRU state anywhere in the
/// hierarchy (it hits L1 without touching the shared L2/L3), so warm
/// replay can skip it outright. This filters the entire resident loop
/// working set, not just consecutive same-line repeats. Engaged only
/// for power-of-two geometry (every shipped config is).
#[derive(Clone)]
struct MruFilter {
    mru: Box<[u64]>, // per set: the line tag currently at MRU
    mask: u64,
    shift: u32,
    on: bool,
}

impl MruFilter {
    fn new(cfg: epic_mach::config::CacheConfig) -> MruFilter {
        let n_sets = (cfg.size / (cfg.line * cfg.ways)).max(1);
        let on = cfg.line.is_power_of_two() && n_sets.is_power_of_two();
        MruFilter {
            mru: vec![u64::MAX; if on { n_sets as usize } else { 0 }].into_boxed_slice(),
            mask: n_sets - 1,
            shift: cfg.line.trailing_zeros(),
            on,
        }
    }

    /// True if the access to `addr` can change cache state and must be
    /// forwarded; records its line as the new MRU of the set.
    #[inline]
    fn forward(&mut self, addr: u64) -> bool {
        if !self.on {
            return true;
        }
        let tag = addr >> self.shift;
        let si = (tag & self.mask) as usize;
        if self.mru[si] == tag {
            return false;
        }
        self.mru[si] = tag;
        true
    }
}

/// Warm-DTLB surrogate. A fully-associative LRU obeys the stack
/// property: its state after any access stream is exactly the
/// `capacity` most recently touched distinct pages, ordered by last
/// touch. So instead of replaying every page switch through a real
/// [`Dtlb`] (a hash lookup plus list splice each), record one
/// timestamp per page in flat per-region tables — a single store —
/// and rebuild the identical LRU once, at injection.
#[derive(Clone)]
struct WarmDtlb {
    clock: u64,
    /// Last-touch clock per page for globals/heap/stack, lazily grown.
    ts: [Vec<u64>; 3],
    capacity: usize,
}

impl WarmDtlb {
    const BASES: [u64; 3] = [
        GLOBAL_BASE / PAGE_SIZE,
        HEAP_BASE / PAGE_SIZE,
        (STACK_TOP - STACK_MAX) / PAGE_SIZE,
    ];

    fn new(capacity: usize) -> WarmDtlb {
        WarmDtlb {
            clock: 0,
            ts: Default::default(),
            capacity,
        }
    }

    /// Record a touch of `addr`'s page. Callers only pass addresses a
    /// load/store has validated, so the page is in one of the three
    /// storage regions.
    #[inline]
    fn touch(&mut self, addr: u64) {
        let page = addr / PAGE_SIZE;
        let r = (page >= Self::BASES[1]) as usize + (page >= Self::BASES[2]) as usize;
        let idx = (page - Self::BASES[r]) as usize;
        let t = &mut self.ts[r];
        if idx >= t.len() {
            t.resize(idx + 1, 0);
        }
        self.clock += 1;
        t[idx] = self.clock;
    }

    /// The equivalent [`Dtlb`] tag/LRU state (its counters are
    /// meaningless, which is fine: result counters come from the
    /// detailed interval's event stream, never from warm structures).
    fn rebuild(&self) -> Dtlb {
        let mut touched: Vec<(u64, u64)> = Vec::new();
        for (r, t) in self.ts.iter().enumerate() {
            for (i, &ts) in t.iter().enumerate() {
                if ts != 0 {
                    touched.push((ts, (Self::BASES[r] + i as u64) * PAGE_SIZE));
                }
            }
        }
        touched.sort_unstable();
        let skip = touched.len().saturating_sub(self.capacity);
        let mut d = Dtlb::new(self.capacity);
        for &(_, addr) in &touched[skip..] {
            d.access(addr);
        }
        d
    }
}

/// Timing-only structures warmed during `Warmup::Ops`/`Full` replay.
#[derive(Clone)]
struct WarmState {
    hier: Hierarchy,
    pred: AnyPredictor,
    /// Conditional mispredictions seen by the warm predictor — the
    /// cluster feature the predictor itself no longer counts.
    pred_mispredicts: u64,
    dtlb: WarmDtlb,
    ifilter: MruFilter,
    dfilter: MruFilter,
    /// MRU mirror of the (fully-associative) warm DTLB: a repeat
    /// same-page access is a state no-op.
    last_page: u64,
    /// Data-page switch count — the TLB-pressure cluster feature. Kept
    /// separate from `dtlb.clock` because sentinel-mode runs translate
    /// through the exact DTLB (the warm one never ticks) yet still owe
    /// their kernel cycles to page locality.
    page_switches: u64,
    /// Wild speculative loads (invalid, non-NaT-page addresses) seen by
    /// the functional pass — each costs `wild_load_kernel_cycles` in
    /// the detailed model (General spec only; sentinel defers early).
    wild_loads: u64,
}

impl WarmState {
    fn new(cfg: &MachineConfig, spec: PredictorSpec) -> WarmState {
        WarmState {
            hier: Hierarchy::new(cfg),
            pred: AnyPredictor::from_spec(spec),
            pred_mispredicts: 0,
            dtlb: WarmDtlb::new(cfg.dtlb_entries),
            ifilter: MruFilter::new(cfg.l1i),
            dfilter: MruFilter::new(cfg.l1d),
            last_page: u64::MAX,
            page_switches: 0,
            wild_loads: 0,
        }
    }

    /// Warm the data-side structures for an access to `addr`, skipping
    /// exact state no-ops. `tlb` is false when the exact (sentinel)
    /// DTLB already translated.
    #[inline]
    fn touch_data(&mut self, addr: u64, tlb: bool) {
        let page = addr / PAGE_SIZE;
        if page != self.last_page {
            self.last_page = page;
            self.page_switches += 1;
            if tlb {
                self.dtlb.touch(addr);
            }
        }
        if self.dfilter.forward(addr) {
            self.hier.access_data(addr);
        }
    }

    /// Running event totals backing the per-interval cluster features
    /// (pass 1 diffs consecutive readings).
    fn features(&self) -> [u64; N_FEAT] {
        [
            self.hier.l1d.misses,
            self.hier.l3.misses,
            self.page_switches,
            self.pred_mispredicts,
            self.wild_loads,
        ]
    }
}

/// The functional executor: the value engine instantiated without a
/// clock ([`Functional`]), replaying the exact op stream many times
/// faster than the detailed model by skipping all event emission, fusing
/// straight-line runs, and (under `General`) all timing structures.
struct FRun<'a> {
    eng: Engine<'a>,
    l1i_line: u64,
    /// `log2(l1i_line)` when the line size is a power of two (always in
    /// shipped configs): division in the warm fetch loop is a real
    /// `div` otherwise and shows up at one per executed group.
    l1i_shift: Option<u32>,
    /// Issue-group budget: the exact sim charges >=1 cycle per group, so
    /// exceeding the fuel in groups means the exact run would trap
    /// `OutOfFuel` — bail and fall back.
    step_limit: u64,
    steps: u64,
    /// Per-function kernel-cycle tally (first pass only; `None` on
    /// window replays). Every kernel charge is a value-path event with
    /// a fixed config cost — `Out`, `Alloc`, NaT-page and wild
    /// speculative loads — so the functional pass can compute the
    /// Kernel accounting column *exactly* instead of extrapolating it
    /// from representatives (wild loads are invisible to a BBV and
    /// unevenly spread within a phase, so they cluster poorly).
    kern: Option<Vec<u64>>,
}

/// The functional [`Timing`] instantiations: cold replays compute values
/// only, `WARM` replays also touch the warm timing structures, and both
/// keep the exact kernel tally when given one.
struct Functional<'w, const WARM: bool> {
    warm: &'w mut WarmState,
    /// Warm the DTLB surrogate too (no exact DTLB translates this run).
    warm_tlb: bool,
    kern: Option<&'w mut [u64]>,
    /// Function owning the currently-executing group (`kern` row).
    kfunc: usize,
}

impl<const WARM: bool> Timing for Functional<'_, WARM> {
    const TIMED: bool = false;

    #[inline(always)]
    fn emit(&mut self, ev: SimEvent) {
        if let SimEvent::Kernel { reason, cycles } = ev {
            if let Some(k) = &mut self.kern {
                k[self.kfunc] += cycles;
            }
            if WARM && reason == KernelReason::WildLoad {
                self.warm.wild_loads += 1;
            }
        }
    }

    #[inline(always)]
    fn cond_branch(&mut self, addr: u64, taken: bool) {
        if WARM && !self.warm.pred.observe(addr, taken) {
            self.warm.pred_mispredicts += 1;
        }
    }

    #[inline(always)]
    fn call(&mut self, ret_addr: u64) {
        if WARM {
            self.warm.pred.push_return(ret_addr);
        }
    }

    #[inline(always)]
    fn ret(&mut self, addr: u64) {
        if WARM {
            self.warm.pred.pop_return(addr);
        }
    }

    #[inline(always)]
    fn data(&mut self, addr: u64, _issue: u64, _store: bool) -> u64 {
        if WARM {
            self.warm.touch_data(addr, self.warm_tlb);
        }
        0
    }
}

impl<'a> FRun<'a> {
    fn new(
        mp: &'a MachProgram,
        tabs: &'a [GroupTable],
        opts: &SimOptions,
        st: FState,
        collect_out: bool,
    ) -> FRun<'a> {
        let line = opts.config.l1i.line;
        FRun {
            eng: Engine::new(mp, tabs, opts, st, collect_out),
            l1i_line: line,
            l1i_shift: line.is_power_of_two().then(|| line.trailing_zeros()),
            step_limit: opts.fuel_cycles.saturating_add(1),
            steps: 0,
            kern: collect_out.then(|| vec![0; mp.funcs.len()]),
        }
    }

    /// Execute issue groups until `st.ops >= target` (checked at group
    /// boundaries, so bundles are never split — boundary op counts are
    /// bit-identical to the detailed sim's). Returns `Some(ret)` when
    /// the program finished first. `warm` touches timing structures;
    /// `bbv` accumulates the interval's basic-block vector. `WARM` and
    /// `PROF` monomorphize those two concerns away entirely on the
    /// value-only replay and cold-profile paths.
    fn run_to<const WARM: bool, const PROF: bool>(
        &mut self,
        target: u64,
        warm: &mut WarmState,
        mut bbv: Option<&mut [u64; BBV_DIM]>,
    ) -> Result<Option<u64>, TrapKind> {
        let mp = self.eng.mp;
        let tabs = self.eng.tabs;
        let mut t = Functional::<WARM> {
            warm,
            warm_tlb: self.eng.st.dtlb.is_none(),
            kern: self.kern.as_deref_mut(),
            kfunc: 0,
        };
        while self.eng.st.ops < target {
            let (func_i, first) = self.eng.st.pos;
            let f = &mp.funcs[func_i];
            let tab = &tabs[func_i];
            let Some(&e) = tab.g.get(first) else {
                return Err(TrapKind::Malformed(format!(
                    "fell off code at bundle {first}"
                )));
            };
            if e.end == u32::MAX {
                return Err(TrapKind::Malformed("issue group runs off the code".into()));
            }
            // fuel is charged per constituent group, checked once per
            // fused run: a mid-run overshoot still errs here (the sum
            // already exceeds the limit), and the exact fallback then
            // re-derives the authentic trap point
            self.steps += e.fsteps as u64;
            if self.steps > self.step_limit {
                return Err(TrapKind::OutOfFuel);
            }
            let end = e.fend as usize;
            self.eng.st.ops += e.fops as u64;
            if PROF {
                if let Some(b) = bbv.as_deref_mut() {
                    if e.fsteps == 1 {
                        b[e.bbv as usize] += e.nops as u64;
                    } else {
                        let (p0, p1) = (e.fbbv as usize, (e.fbbv + e.fpairs as u32) as usize);
                        for &(slot, n) in &tab.bbv_pairs[p0..p1] {
                            b[slot as usize] += n as u64;
                        }
                    }
                }
            }
            // warm front end: the run's bundles cover a contiguous
            // line range; touch each line whose fetch would change state
            if WARM {
                let (l0, l1) = match self.l1i_shift {
                    Some(s) => (f.bundle_addr(first) >> s, f.bundle_addr(end) >> s),
                    None => (
                        f.bundle_addr(first) / self.l1i_line,
                        f.bundle_addr(end) / self.l1i_line,
                    ),
                };
                for l in l0..=l1 {
                    let a = l * self.l1i_line;
                    if t.warm.ifilter.forward(a) {
                        t.warm.hier.fetch_inst(a);
                    }
                }
            }
            if e.off == u32::MAX {
                // control only ever lands on predecoded starts; anything
                // else is malformed (the exact fallback re-derives the
                // authentic trap)
                return Err(TrapKind::Malformed("entered mid-group".into()));
            }
            t.kfunc = func_i;
            let eng = &mut self.eng;
            let flow = if e.fsteps > 1 {
                // a fused run is all-direct and control-free: execute
                // its whole op slice as one straight line
                let fe = GEntry { len: e.flen, ..e };
                eng.exec_group::<true, _>(&mut t, func_i, first, end, fe, 0)?
            } else if e.direct {
                eng.exec_group::<true, _>(&mut t, func_i, first, end, e, 0)?
            } else {
                eng.exec_group::<false, _>(&mut t, func_i, first, end, e, 0)?
            };
            match flow {
                Flow::Fall => self.eng.st.pos = (func_i, end + 1),
                Flow::Jump(p) => self.eng.st.pos = p,
                Flow::Done(ret) => return Ok(Some(ret)),
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Pass 1: interval profiling
// ---------------------------------------------------------------------

/// Everything the profiling pass learns about a run.
struct Pass1 {
    /// Actual op count at the end of each interval (group-aligned; the
    /// last entry equals `total_ops`).
    ends: Vec<u64>,
    /// Raw per-interval BBVs (mass = interval op count).
    bbvs: Vec<[u64; BBV_DIM]>,
    /// Per-interval warm memory-behavior event counts (see [`N_FEAT`];
    /// all zero when profiling cold).
    feats: Vec<[u64; N_FEAT]>,
    /// Exact per-function kernel cycles for the whole run (kernel
    /// charges are value-path events with fixed costs, so the
    /// functional pass tallies them precisely — no extrapolation).
    kernel_rows: Vec<u64>,
    /// Snapshots at interval starts: `(interval index, architectural
    /// state, warm timing structures when profiling warm)`. Replaying
    /// from the warm snapshot nearest a representative reproduces
    /// `Warmup::Full`'s continuously-warm state without a second pass.
    snaps: Vec<(u64, FState, Option<WarmState>)>,
    output: Vec<u64>,
    ret: u64,
    total_ops: u64,
}

/// Nominal op target ending interval `i` (0-based): `(i+1)` interval
/// lengths plus a deterministic per-boundary jitter of up to ±12.5%.
/// Fixed-length slicing can phase-lock with a hot loop whose period
/// divides the interval — every boundary then lands at the same loop
/// offset, BBVs collapse to one shape, and the representative
/// systematically over- or under-states CPI (a ~2% error becomes ~20%
/// at the resonant length). Jitter breaks the lock; targets stay
/// strictly increasing (consecutive targets differ by ≥ 3/4 of an
/// interval) and both the profiling pass and the detailed replay
/// derive them from this one function.
fn interval_target(interval_len: u64, i: u64) -> u64 {
    let base = interval_len.saturating_mul(i + 1);
    let j = interval_len / 8;
    if j == 0 {
        return base;
    }
    base.saturating_add(mix(KMEANS_SEED ^ i) % (2 * j))
        .saturating_sub(j)
}

fn pass1(
    mp: &MachProgram,
    tabs: &[GroupTable],
    args: &[i64],
    opts: &SimOptions,
    interval_len: u64,
    want_snaps: bool,
    warm_profile: bool,
) -> Result<Pass1, (TrapKind, (usize, usize))> {
    let sentinel = opts.spec_model == SpecModel::Sentinel;
    let (st, _) = FState::start(mp, args, opts, sentinel);
    let mut fr = FRun::new(mp, tabs, opts, st, true);
    let mut warm = WarmState::new(&opts.config, opts.predictor);
    let mut ends = Vec::new();
    let mut bbvs = Vec::new();
    let mut feats = Vec::new();
    let mut feat_prev = [0u64; N_FEAT];
    let mut stride = 1u64;
    let mut snaps: Vec<(u64, FState, Option<WarmState>)> = Vec::new();
    let mut idx = 0u64;
    let ret = loop {
        if want_snaps && idx.is_multiple_of(stride) {
            snaps.push((idx, fr.eng.st.clone(), warm_profile.then(|| warm.clone())));
            if snaps.len() > MAX_SNAPSHOTS {
                stride *= 2;
                snaps.retain(|(i, ..)| i % stride == 0);
            }
        }
        let mut bbv = [0u64; BBV_DIM];
        let target = interval_target(interval_len, idx);
        let fin = if warm_profile {
            fr.run_to::<true, true>(target, &mut warm, Some(&mut bbv))
        } else {
            fr.run_to::<false, true>(target, &mut warm, Some(&mut bbv))
        }
        .map_err(|k| (k, fr.eng.st.pos))?;
        ends.push(fr.eng.st.ops);
        bbvs.push(bbv);
        let cur = warm.features();
        let mut d = [0u64; N_FEAT];
        for j in 0..N_FEAT {
            d[j] = cur[j] - feat_prev[j];
        }
        feats.push(d);
        feat_prev = cur;
        idx += 1;
        if let Some(ret) = fin {
            break ret;
        }
    };
    Ok(Pass1 {
        total_ops: fr.eng.st.ops,
        ends,
        bbvs,
        feats,
        kernel_rows: fr.kern.take().unwrap_or_default(),
        snaps,
        output: fr.eng.out.take().unwrap_or_default(),
        ret,
    })
}

/// A run's phase map, as `epicc sample` prints it and the boundary tests
/// consume it: group-aligned interval boundaries plus per-interval BBVs.
#[derive(Clone, Debug)]
pub struct PhaseProfile {
    /// Nominal interval length used for slicing.
    pub interval_len: u64,
    /// Actual op count at each interval end (never splits an issue
    /// group; the last entry is the run's total op count).
    pub ends: Vec<u64>,
    /// Per-interval basic-block vectors.
    pub bbvs: Vec<[u64; BBV_DIM]>,
    /// Total retired-slot ops.
    pub total_ops: u64,
    /// `main`'s return value.
    pub ret: u64,
    /// The exact `Out` stream.
    pub output: Vec<u64>,
}

/// Profile a run into intervals without any detailed simulation (the
/// fast functional pass only).
///
/// # Errors
/// A [`SimTrap`] when the program faults (cycle counts are 0: the
/// functional pass has no clock).
pub fn phase_profile(
    mp: &MachProgram,
    args: &[i64],
    opts: &SimOptions,
    interval_len: u64,
) -> Result<PhaseProfile, SimTrap> {
    let interval_len = interval_len.max(256);
    let tabs = build_tables(mp);
    let p1 = pass1(mp, &tabs, args, opts, interval_len, false, false).map_err(|(kind, pos)| {
        SimTrap {
            kind,
            func: mp.funcs[pos.0].name.clone(),
            bundle: pos.1,
            cycle: 0,
        }
    })?;
    Ok(PhaseProfile {
        interval_len,
        ends: p1.ends,
        bbvs: p1.bbvs,
        total_ops: p1.total_ops,
        ret: p1.ret,
        output: p1.output,
    })
}

// ---------------------------------------------------------------------
// Deterministic integer k-means
// ---------------------------------------------------------------------

/// One k-means cluster: the member sum and count (the mean is
/// `sum/count`, kept as a rational so distance comparisons stay exact).
#[derive(Clone, Debug)]
pub struct Centroid<const D: usize = BBV_DIM> {
    /// Component-wise sum over members.
    pub sum: [u64; D],
    /// Member count.
    pub count: u64,
}

/// A k-means clustering of `D`-dimensional vectors (BBVs by default;
/// the sampler clusters BBVs extended with warm memory features).
#[derive(Clone, Debug)]
pub struct Kmeans<const D: usize = BBV_DIM> {
    /// Cluster index per input vector.
    pub assignment: Vec<u32>,
    /// The clusters (empty ones are dropped and indices compacted).
    pub centroids: Vec<Centroid<D>>,
}

/// Squared L2 distance *numerator* between `v` and centroid mean
/// `c.sum/c.count`, scaled by `c.count^2`: compare `dist_num(v,a) *
/// b.count^2` against `dist_num(v,b) * a.count^2` — exact in `u128`.
fn dist_num<const D: usize>(v: &[u64; D], c: &Centroid<D>) -> u128 {
    let cnt = c.count as i128;
    let mut acc: u128 = 0;
    for (&x, &s) in v.iter().zip(&c.sum) {
        let d = x as i128 * cnt - s as i128;
        acc += (d * d) as u128;
    }
    acc
}

/// Nearest centroid by exact rational distance; ties go to the lowest
/// cluster index (determinism).
fn nearest<const D: usize>(v: &[u64; D], cents: &[Centroid<D>]) -> u32 {
    let mut best = 0u32;
    let mut bn = dist_num(v, &cents[0]);
    let mut bd = (cents[0].count as u128) * (cents[0].count as u128);
    for (ci, c) in cents.iter().enumerate().skip(1) {
        let n = dist_num(v, c);
        let d = (c.count as u128) * (c.count as u128);
        if n * bd < bn * d {
            best = ci as u32;
            bn = n;
            bd = d;
        }
    }
    best
}

/// Deterministic, std-only k-means over BBVs with exact integer
/// arithmetic.
///
/// Initialization picks `k` seeds from the *sorted, deduplicated* vector
/// set — evenly spaced segments with a seed-jittered pick inside each —
/// so the result is invariant under permutation of the inputs (the
/// partition and the cluster indices both). Assignment ties break to the
/// lowest cluster index; empty clusters are dropped and indices
/// compacted; iteration stops at a fixed point (or after 100 rounds).
///
/// # Panics
/// Panics when `vecs` is empty.
pub fn kmeans<const D: usize>(vecs: &[[u64; D]], k: usize, seed: u64) -> Kmeans<D> {
    assert!(!vecs.is_empty(), "kmeans needs at least one vector");
    let mut uniq: Vec<[u64; D]> = vecs.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    let k = k.clamp(1, uniq.len());
    let seg = uniq.len() / k;
    let mut centroids: Vec<Centroid<D>> = (0..k)
        .map(|j| {
            let lo = j * seg;
            let hi = if j + 1 == k { uniq.len() } else { lo + seg };
            let pick = lo + (mix(seed ^ j as u64) as usize) % (hi - lo);
            Centroid {
                sum: uniq[pick],
                count: 1,
            }
        })
        .collect();
    let mut assignment = vec![u32::MAX; vecs.len()];
    for _ in 0..100 {
        let mut changed = false;
        for (i, v) in vecs.iter().enumerate() {
            let best = nearest(v, &centroids);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        let mut next = vec![
            Centroid {
                sum: [0; D],
                count: 0
            };
            centroids.len()
        ];
        for (i, v) in vecs.iter().enumerate() {
            let c = &mut next[assignment[i] as usize];
            c.count += 1;
            for (s, &x) in c.sum.iter_mut().zip(v) {
                *s += x;
            }
        }
        // drop empty clusters, compacting indices
        let mut remap = vec![u32::MAX; next.len()];
        let mut kept: Vec<Centroid<D>> = Vec::with_capacity(next.len());
        for (i, c) in next.into_iter().enumerate() {
            if c.count > 0 {
                remap[i] = kept.len() as u32;
                kept.push(c);
            } else {
                changed = true;
            }
        }
        for a in &mut assignment {
            *a = remap[*a as usize];
        }
        centroids = kept;
        if !changed {
            break;
        }
    }
    Kmeans {
        assignment,
        centroids,
    }
}

// ---------------------------------------------------------------------
// Sampled run orchestration
// ---------------------------------------------------------------------

/// Running totals diffed around each representative's detailed window.
struct AttribSnap {
    rows: Vec<[u64; NUM_CATEGORIES]>,
    ctrs: [u64; NUM_COUNTERS],
}

fn attrib_snap(sim: &Sim) -> AttribSnap {
    AttribSnap {
        rows: sim.t.attrib.matrix().rows().to_vec(),
        ctrs: sim.t.attrib.counters().to_array(),
    }
}

/// Move functional + warm state into the detailed simulator. The
/// functional pass has no clock, so its frames' ready times are all
/// zero; the store-forward window and fetch-buffer credit reset — both
/// decay within a few cycles, part of the sampling error budget.
fn inject(sim: &mut Sim, mut st: FState, warm: WarmState) {
    // Sentinel carries the exact (value-affecting) DTLB; General warms one.
    st.dtlb.get_or_insert_with(|| warm.dtlb.rebuild());
    sim.eng.st = st;
    sim.t.hier = warm.hier;
    sim.t.pred = warm.pred;
    sim.t.ib_ops = 0.0;
    sim.t.last_line = u64::MAX;
    sim.t.recent_stores.clear();
}

/// Exact run tagged with sampling metadata (the fallback path for runs
/// too small to sample, and for any functional-pass trap — the exact
/// rerun reproduces the authentic trap).
fn run_exact_tagged(
    mp: &MachProgram,
    args: &[i64],
    opts: &SimOptions,
    sinks: Vec<Box<dyn crate::attrib::EventSink>>,
    info: Option<SampleInfo>,
) -> Result<SimResult, SimTrap> {
    let mut r = run_exact(mp, args, opts, sinks)?;
    r.sample = info;
    Ok(r)
}

/// Scale `x` by the rational `num/den` with round-half-up, exact in
/// `u128`.
fn scale(x: u64, num: u64, den: u64) -> u128 {
    (x as u128 * num as u128 + den as u128 / 2) / den as u128
}

/// Run a program under [`SamplePolicy::Sampled`]. Called from
/// [`crate::machine::run_with_sinks`]; see the module docs for the
/// algorithm.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sampled(
    mp: &MachProgram,
    args: &[i64],
    opts: &SimOptions,
    interval_len: u64,
    max_clusters: usize,
    warmup: Warmup,
    sinks: Vec<Box<dyn crate::attrib::EventSink>>,
) -> Result<SimResult, SimTrap> {
    let mut interval_len = interval_len.max(256);
    let tabs = build_tables(mp);
    let warm_profile = warmup == Warmup::Full;
    let mut p1 = match pass1(mp, &tabs, args, opts, interval_len, true, warm_profile) {
        Ok(p) => p,
        // functional trap: the exact rerun reproduces it faithfully
        Err(_) => return run_exact_tagged(mp, args, opts, sinks, None),
    };
    // Adaptive interval sizing: a run short enough to yield few
    // intervals gives the clusterer too little to resolve phases (and
    // pays one full-length detail window per cluster — nearly the whole
    // run again). Re-profile with a proportional interval; the rerun is
    // cheap precisely because the program is small.
    if p1.ends.len() < 192 {
        let il = (p1.total_ops / 224).max(1024);
        if il < interval_len {
            interval_len = il;
            p1 = match pass1(mp, &tabs, args, opts, interval_len, true, warm_profile) {
                Ok(p) => p,
                Err(_) => return run_exact_tagged(mp, args, opts, sinks, None),
            };
        }
    }
    let n = p1.ends.len();
    if n < 8 || p1.total_ops <= 2 * interval_len {
        let info = SampleInfo {
            interval_len,
            intervals: n,
            clusters: 0,
            total_ops: p1.total_ops,
            sampled_ops: p1.total_ops,
            est_error: 0.0,
            fallback: true,
            phases: vec![0; n],
        };
        return run_exact_tagged(mp, args, opts, sinks, Some(info));
    }
    let iops = |i: usize| p1.ends[i] - if i == 0 { 0 } else { p1.ends[i - 1] };

    // --- cluster interval BBVs by shape, extended with cost-weighted
    // warm memory-feature rates (so BBV-identical intervals with
    // different cache behavior land in different clusters) ---
    let scaled: Vec<[u64; CVEC_DIM]> = (0..n)
        .map(|i| {
            let tot = iops(i).max(1);
            let mut s = [0u64; CVEC_DIM];
            for (sj, &b) in s.iter_mut().zip(&p1.bbvs[i]) {
                *sj = b * BBV_SCALE / tot;
            }
            for j in 0..N_FEAT {
                s[BBV_DIM + j] = p1.feats[i][j] * FEAT_W[j] * BBV_SCALE / tot;
            }
            s
        })
        .collect();
    let km = kmeans(&scaled, max_clusters, KMEANS_SEED);
    let nclus = km.centroids.len();

    // representative per cluster: closest member to the centroid, ties
    // to the earliest interval
    let mut rep = vec![usize::MAX; nclus];
    let mut repd: Vec<(u128, u128)> = vec![(0, 0); nclus];
    for (i, v) in scaled.iter().enumerate() {
        let c = km.assignment[i] as usize;
        let num = dist_num(v, &km.centroids[c]);
        let den = (km.centroids[c].count as u128) * (km.centroids[c].count as u128);
        if rep[c] == usize::MAX || num * repd[c].1 < repd[c].0 * den {
            rep[c] = i;
            repd[c] = (num, den);
        }
    }
    let mut weight = vec![0u64; nclus];
    for i in 0..n {
        weight[km.assignment[i] as usize] += iops(i);
    }

    // --- detailed simulation of the representatives ---
    let (st, _) = FState::start(mp, args, opts, true);
    let mut sim = Sim::new(mp, &tabs, opts, st, false);
    for s in sinks {
        sim.t.attrib.add_sink(s);
    }
    let mut rows_acc: Vec<[u128; NUM_CATEGORIES]> = vec![[0; NUM_CATEGORIES]; mp.funcs.len()];
    let mut ctrs_acc = [0u128; NUM_COUNTERS];
    let mut sampled_ops = 0u64;
    // process representatives in interval order (deterministic trace)
    let mut order: Vec<usize> = (0..nclus).collect();
    order.sort_unstable_by_key(|&c| rep[c]);

    let detail = |sim: &mut Sim,
                  c: usize,
                  rows_acc: &mut Vec<[u128; NUM_CATEGORIES]>,
                  ctrs_acc: &mut [u128; NUM_COUNTERS],
                  sampled_ops: &mut u64|
     -> Result<(), SimTrap> {
        let r = rep[c];
        let before = attrib_snap(sim);
        // target the *recorded* boundary, not the nominal jittered
        // target: pass 1 stops at fused-run granularity, the detailed
        // sim at issue-group granularity, and a nominal target landing
        // inside a fused run would make the two disagree. `ends[r]` is
        // a group boundary, so the detailed sim lands on it exactly.
        let fin = sim.exec(p1.ends[r])?;
        debug_assert_eq!(
            sim.eng.st.ops, p1.ends[r],
            "detail window missed its boundary"
        );
        if let Exec::Done(ret) = fin {
            debug_assert_eq!(ret, p1.ret, "detail replay diverged from profile");
        }
        let rep_ops = iops(r);
        *sampled_ops += rep_ops;
        let w = weight[c];
        for (fi, row) in sim.t.attrib.matrix().rows().iter().enumerate() {
            for (k, cell) in row.iter().enumerate() {
                let d = cell - before.rows[fi][k];
                rows_acc[fi][k] += scale(d, w, rep_ops);
            }
        }
        let after = sim.t.attrib.counters().to_array();
        for k in 0..NUM_COUNTERS {
            ctrs_acc[k] += scale(after[k] - before.ctrs[k], w, rep_ops);
        }
        Ok(())
    };

    for &c in &order {
        let r = rep[c];
        let rep_start = if r == 0 { 0 } else { p1.ends[r - 1] };
        let replayed = match warmup {
            Warmup::Full => {
                // the warm pass-1 snapshot nearest the representative
                // carries continuously-warm timing structures; a short
                // warm replay closes the gap
                let (_, s, w) = p1
                    .snaps
                    .iter()
                    .filter(|(_, s, _)| s.ops <= rep_start)
                    .max_by_key(|(_, s, _)| s.ops)
                    .expect("snapshot 0 always qualifies");
                let mut fr = FRun::new(mp, &tabs, opts, s.clone(), false);
                let mut warm = w.clone().expect("warm profile keeps warm snapshots");
                fr.run_to::<true, false>(rep_start, &mut warm, None)
                    .map(|_| (fr, warm))
            }
            Warmup::Cold | Warmup::Ops(_) => {
                let warm_w = match warmup {
                    Warmup::Ops(w) => w,
                    _ => 0,
                };
                let warm_from = rep_start.saturating_sub(warm_w);
                // replay from the nearest snapshot: cold to the warmup
                // window, then warming fresh timing structures
                let (_, s, _) = p1
                    .snaps
                    .iter()
                    .filter(|(_, s, _)| s.ops <= warm_from)
                    .max_by_key(|(_, s, _)| s.ops)
                    .expect("snapshot 0 always qualifies");
                let mut fr = FRun::new(mp, &tabs, opts, s.clone(), false);
                let mut warm = WarmState::new(&opts.config, opts.predictor);
                fr.run_to::<false, false>(warm_from, &mut warm, None)
                    .and_then(|_| fr.run_to::<true, false>(rep_start, &mut warm, None))
                    .map(|_| (fr, warm))
            }
        };
        let Ok((fr, warm)) = replayed else {
            // cannot happen (same value stream as pass 1), but stay
            // honest: fall back to exact
            return run_exact_tagged(mp, args, opts, Vec::new(), None);
        };
        inject(&mut sim, fr.eng.st, warm);
        detail(&mut sim, c, &mut rows_acc, &mut ctrs_acc, &mut sampled_ops)?;
    }

    // --- extrapolate: aggregate categories and the total are *derived*
    // from the scaled matrix, so the accounting identity holds exactly ---
    let mut rows: Vec<[u64; NUM_CATEGORIES]> = rows_acc
        .into_iter()
        .map(|r| {
            let mut o = [0u64; NUM_CATEGORIES];
            for (k, c) in r.into_iter().enumerate() {
                o[k] = u64::try_from(c).expect("extrapolated cycles overflow u64");
            }
            o
        })
        .collect();
    // Kernel is the one column pass 1 measured *exactly* (all kernel
    // charges are value-path events with fixed costs): substitute it
    // for the extrapolated estimate. Wild loads are BBV-invisible and
    // bursty within a phase, so this column otherwise carries the
    // largest per-category error.
    let kcol = Category::Kernel as usize;
    for (fi, row) in rows.iter_mut().enumerate() {
        row[kcol] = p1.kernel_rows[fi];
    }
    let mut acct_cells = [0u64; NUM_CATEGORIES];
    for row in &rows {
        for k in 0..NUM_CATEGORIES {
            acct_cells[k] += row[k];
        }
    }
    let func_matrix = FuncMatrix::from_rows(rows);
    let cycles = func_matrix.total();
    let mut ctrs = [0u64; NUM_COUNTERS];
    for k in 0..NUM_COUNTERS {
        ctrs[k] = u64::try_from(ctrs_acc[k]).expect("extrapolated counter overflow u64");
    }

    // --- heuristic error bound: op-weighted intra-cluster dispersion
    // (total-variation distance between each interval's cluster vector
    // and its centroid; identical-phase runs report ~0). The feature
    // dims contribute their cost-weighted rate dispersion, so CPI
    // heterogeneity the BBV can't see still widens the bound. ---
    let mut wdisp = 0.0f64;
    let mut wtot = 0.0f64;
    for (i, v) in scaled.iter().enumerate() {
        let c = &km.centroids[km.assignment[i] as usize];
        let mut l1 = 0.0f64;
        for (&x, &s) in v.iter().zip(&c.sum) {
            l1 += (x as f64 - s as f64 / c.count as f64).abs();
        }
        let w = iops(i) as f64;
        wdisp += w * l1 / (2.0 * BBV_SCALE as f64);
        wtot += w;
    }
    let est_error = 0.5 * wdisp / wtot;

    let info = SampleInfo {
        interval_len,
        intervals: n,
        clusters: nclus,
        total_ops: p1.total_ops,
        sampled_ops,
        est_error,
        fallback: false,
        phases: km.assignment,
    };
    let (.., trace) = sim.t.attrib.finish();
    Ok(SimResult {
        checksum: checksum(&p1.output),
        output: p1.output,
        ret: p1.ret,
        cycles,
        acct: CycleAccounting::from_cells(acct_cells),
        counters: Counters::from_array(ctrs),
        func_matrix,
        trace,
        sample: Some(info),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::bbv_slot;

    /// Deterministic pseudo-random BBVs: `n` vectors drawn from `k`
    /// distinct phase shapes plus per-vector jitter.
    fn synth_bbvs(n: usize, phases: usize, seed: u64) -> Vec<[u64; BBV_DIM]> {
        (0..n)
            .map(|i| {
                let p = mix(seed ^ i as u64) as usize % phases;
                let mut v = [0u64; BBV_DIM];
                for (j, x) in v.iter_mut().enumerate() {
                    // phase base shape + small jitter
                    let base = mix((p as u64) << 32 | j as u64) % BBV_SCALE;
                    let jit = mix(seed ^ (i as u64) << 8 ^ j as u64) % (BBV_SCALE / 64);
                    *x = base + jit;
                }
                v
            })
            .collect()
    }

    #[test]
    fn kmeans_is_deterministic_for_a_fixed_seed() {
        let vecs = synth_bbvs(200, 5, 0xfeed);
        let a = kmeans(&vecs, 8, KMEANS_SEED);
        let b = kmeans(&vecs, 8, KMEANS_SEED);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.centroids.len(), b.centroids.len());
        for (x, y) in a.centroids.iter().zip(&b.centroids) {
            assert_eq!(x.sum, y.sum);
            assert_eq!(x.count, y.count);
        }
    }

    #[test]
    fn kmeans_is_invariant_under_interval_permutation() {
        let vecs = synth_bbvs(150, 4, 0xabcd);
        let base = kmeans(&vecs, 6, KMEANS_SEED);
        // a deterministic permutation: reverse, then swap odd/even pairs
        let mut perm: Vec<usize> = (0..vecs.len()).rev().collect();
        for w in perm.chunks_exact_mut(2) {
            w.swap(0, 1);
        }
        let shuffled: Vec<[u64; BBV_DIM]> = perm.iter().map(|&i| vecs[i]).collect();
        let shuf = kmeans(&shuffled, 6, KMEANS_SEED);
        // initialization reads the sorted-deduped set, so the cluster
        // *indices* match too, not just the partition
        assert_eq!(shuf.centroids.len(), base.centroids.len());
        for (si, &oi) in perm.iter().enumerate() {
            assert_eq!(shuf.assignment[si], base.assignment[oi], "vector {oi}");
        }
    }

    #[test]
    fn kmeans_assigns_every_interval_exactly_once() {
        let vecs = synth_bbvs(97, 3, 0x1234);
        let km = kmeans(&vecs, 5, KMEANS_SEED);
        assert_eq!(km.assignment.len(), vecs.len());
        for &a in &km.assignment {
            assert!((a as usize) < km.centroids.len(), "dangling cluster {a}");
        }
    }

    #[test]
    fn kmeans_cluster_weights_sum_to_interval_count() {
        for (n, k, seed) in [(40usize, 3usize, 7u64), (200, 12, 8), (5, 9, 9)] {
            let vecs = synth_bbvs(n, 4, seed);
            let km = kmeans(&vecs, k, KMEANS_SEED);
            let total: u64 = km.centroids.iter().map(|c| c.count).sum();
            assert_eq!(total, n as u64, "n={n} k={k}");
            // and each centroid's count matches its assignment tally
            for (ci, c) in km.centroids.iter().enumerate() {
                let members = km.assignment.iter().filter(|&&a| a as usize == ci).count() as u64;
                assert_eq!(c.count, members, "cluster {ci}");
            }
        }
    }

    #[test]
    fn kmeans_clamps_k_to_the_distinct_vector_count() {
        let vecs = vec![[1u64; BBV_DIM]; 10];
        let km = kmeans(&vecs, 8, KMEANS_SEED);
        assert_eq!(km.centroids.len(), 1, "identical vectors are one phase");
        assert!(km.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn bbv_slots_stay_in_range() {
        for f in 0..40 {
            for b in (0..4000).step_by(37) {
                assert!(bbv_slot(f, b) < BBV_DIM);
            }
        }
    }

    #[test]
    fn scale_rounds_half_up_exactly() {
        assert_eq!(scale(10, 3, 2), 15);
        assert_eq!(scale(1, 1, 2), 1); // 0.5 rounds up
        assert_eq!(scale(1, 1, 3), 0); // 0.33 rounds down
        assert_eq!(
            scale(u64::MAX, u64::MAX, 1),
            u64::MAX as u128 * u64::MAX as u128
        );
    }
}
