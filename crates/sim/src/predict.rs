//! Pluggable branch prediction: the predictor zoo, branch-trace capture,
//! and offline replay.
//!
//! The paper's branch study (Sec. 3.5, Fig. 7) measures one design
//! point; this module makes prediction a first-class axis. A
//! [`BranchPredictor`] is a conditional-direction predictor plus a
//! return-address stack, selected by a [`PredictorSpec`] on
//! [`SimOptions`](crate::SimOptions):
//!
//! * [`Gshare`] — the original PR-1 predictor, bit-identical as the
//!   default (enforced by test);
//! * [`Bimodal`] — per-address 2-bit counters, no history;
//! * [`Tage`] — a TAGE-class tagged-geometric predictor (bimodal base
//!   plus four partially-tagged tables over geometric history lengths);
//! * [`Oracle`] — an ideal predictor, the paper's "perfect prediction"
//!   headroom bound.
//!
//! Prediction and training are *split* ([`BranchPredictor::predict`]
//! then [`BranchPredictor::train`]) so the oracle and the replay
//! harness cannot double-count; predictors keep **no** counters — the
//! detailed sim counts through [`Attribution`](crate::Attribution), the
//! sampler's warm state keeps its own tally, and [`replay`] returns
//! [`PredStats`].
//!
//! Capture and replay: the detailed sim fans resolved control-flow
//! events ([`BranchRecord`]) out to [`EventSink::on_branch`]
//! (crate::EventSink) observers; [`BranchTraceSink`] streams them to any
//! writer in a compact 9-byte/record format (bounded, drops counted).
//! Because the simulator is in-order and never executes wrong-path
//! operations, the resolved branch stream is *predictor-independent*:
//! replaying a captured trace through any predictor reproduces that
//! predictor's live misprediction counts exactly (enforced by test).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};

/// Default gshare geometry (the PR-1 design point).
pub const GSHARE_TABLE_BITS: u32 = 14;
/// Default gshare history length.
pub const GSHARE_HISTORY_BITS: u32 = 8;
/// Default bimodal geometry.
pub const BIMODAL_TABLE_BITS: u32 = 14;
/// Return-address-stack depth shared by every real predictor.
pub const RSB_DEPTH: usize = 32;

/// Which predictor a simulation uses, with its geometry — the
/// configuration axis threaded from `SimOptions` through the driver and
/// serve job keys down to `epicc --predictor`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredictorSpec {
    /// Global-history-xor-PC indexed 2-bit counters.
    Gshare {
        /// log2 of the counter-table size.
        table_bits: u32,
        /// Global-history length in bits.
        history_bits: u32,
    },
    /// Per-address 2-bit counters, no history.
    Bimodal {
        /// log2 of the counter-table size.
        table_bits: u32,
    },
    /// TAGE-class tagged-geometric predictor (fixed geometry).
    Tage,
    /// Ideal predictor: every direction and return correct.
    Oracle,
}

impl Default for PredictorSpec {
    fn default() -> PredictorSpec {
        PredictorSpec::Gshare {
            table_bits: GSHARE_TABLE_BITS,
            history_bits: GSHARE_HISTORY_BITS,
        }
    }
}

impl PredictorSpec {
    /// The full zoo at default geometries, default first — the rows of
    /// `epicc branches` and `epicc replay`.
    pub const ZOO: [PredictorSpec; 4] = [
        PredictorSpec::Gshare {
            table_bits: GSHARE_TABLE_BITS,
            history_bits: GSHARE_HISTORY_BITS,
        },
        PredictorSpec::Bimodal {
            table_bits: BIMODAL_TABLE_BITS,
        },
        PredictorSpec::Tage,
        PredictorSpec::Oracle,
    ];

    /// Short stable name (CLI value, metric label, JSON field).
    pub fn name(&self) -> &'static str {
        match self {
            PredictorSpec::Gshare { .. } => "gshare",
            PredictorSpec::Bimodal { .. } => "bimodal",
            PredictorSpec::Tage => "tage",
            PredictorSpec::Oracle => "oracle",
        }
    }

    /// Parse a CLI name (`gshare`, `bimodal`, `tage`, `oracle`) at the
    /// default geometry.
    pub fn parse(s: &str) -> Option<PredictorSpec> {
        match s.trim() {
            "gshare" => Some(PredictorSpec::default()),
            "bimodal" => Some(PredictorSpec::Bimodal {
                table_bits: BIMODAL_TABLE_BITS,
            }),
            "tage" => Some(PredictorSpec::Tage),
            "oracle" => Some(PredictorSpec::Oracle),
            _ => None,
        }
    }

    /// Canonical configuration bytes: a variant tag plus every geometry
    /// parameter. Two specs collide iff they are equal — the basis of
    /// both [`config_digest`](Self::config_digest) and the serve job-key
    /// canon.
    pub fn canon_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(9);
        match *self {
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => {
                b.push(0);
                b.extend_from_slice(&table_bits.to_le_bytes());
                b.extend_from_slice(&history_bits.to_le_bytes());
            }
            PredictorSpec::Bimodal { table_bits } => {
                b.push(1);
                b.extend_from_slice(&table_bits.to_le_bytes());
            }
            PredictorSpec::Tage => b.push(2),
            PredictorSpec::Oracle => b.push(3),
        }
        b
    }

    /// Deterministic 64-bit digest of the predictor configuration
    /// (FNV-1a over [`canon_bytes`](Self::canon_bytes)) — what cache
    /// keys and bench JSON carry.
    pub fn config_digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for &byte in &self.canon_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// A conditional-direction predictor plus a return-address stack.
///
/// The contract is predict-then-train: for every resolved conditional
/// branch the simulator calls [`predict`](Self::predict) exactly once
/// and then [`train`](Self::train) exactly once with the same
/// `(addr, outcome)`. `predict` may stash provider state for the paired
/// `train` (TAGE does), which is why it takes `&mut self`.
///
/// Predictors are plain state machines: no counters live here (see the
/// module docs for who counts), and snapshot/restore for sampled-sim
/// warm-state injection is [`AnyPredictor::snapshot`] — a deep copy of
/// the full table/history/RAS state.
pub trait BranchPredictor {
    /// The spec this predictor was built from.
    fn spec(&self) -> PredictorSpec;

    /// Predict the direction of the conditional branch at `addr`.
    /// `outcome` is the resolved direction — visible only so the ideal
    /// [`Oracle`] is expressible; real predictors must ignore it.
    fn predict(&mut self, addr: u64, outcome: bool) -> bool;

    /// Train on the resolved direction of the branch just predicted.
    fn train(&mut self, addr: u64, outcome: bool);

    /// Record a call's return address.
    fn push_return(&mut self, ret_addr: u64);

    /// Predict a return target; `true` iff the prediction matches
    /// `actual`.
    fn pop_return(&mut self, actual: u64) -> bool;

    /// Deterministic digest of this predictor's configuration.
    fn config_digest(&self) -> u64 {
        self.spec().config_digest()
    }
}

/// The shared return-address stack: a ring — pushes past the depth drop
/// the oldest entry in O(1), so deep recursion overflows gracefully
/// (the outermost returns mispredict, the innermost stay correct).
#[derive(Clone, Debug)]
struct Rsb {
    buf: VecDeque<u64>,
}

impl Rsb {
    fn new() -> Rsb {
        Rsb {
            buf: VecDeque::with_capacity(RSB_DEPTH),
        }
    }

    fn push(&mut self, ret_addr: u64) {
        if self.buf.len() == RSB_DEPTH {
            self.buf.pop_front();
        }
        self.buf.push_back(ret_addr);
    }

    fn pop(&mut self, actual: u64) -> bool {
        match self.buf.pop_back() {
            Some(a) => a == actual,
            None => false,
        }
    }
}

/// Gshare with 2-bit saturating counters — the PR-1 predictor,
/// bit-identical under the split predict/train protocol (the merged
/// `branch()` it replaces read the counter before updating it, exactly
/// what predict-then-train does).
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<u8>,
    history: u64,
    rsb: Rsb,
    table_bits: u32,
    history_bits: u32,
}

impl Gshare {
    /// A fresh predictor (counters weakly not-taken).
    pub fn new(table_bits: u32, history_bits: u32) -> Gshare {
        Gshare {
            table: vec![1u8; 1 << table_bits],
            history: 0,
            rsb: Rsb::new(),
            table_bits,
            history_bits,
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        (((addr >> 4) ^ self.history) & ((1 << self.table_bits) - 1)) as usize
    }
}

impl BranchPredictor for Gshare {
    fn spec(&self) -> PredictorSpec {
        PredictorSpec::Gshare {
            table_bits: self.table_bits,
            history_bits: self.history_bits,
        }
    }

    #[inline]
    fn predict(&mut self, addr: u64, _outcome: bool) -> bool {
        self.table[self.index(addr)] >= 2
    }

    #[inline]
    fn train(&mut self, addr: u64, outcome: bool) {
        let idx = self.index(addr);
        let ctr = &mut self.table[idx];
        if outcome {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.history = ((self.history << 1) | outcome as u64) & ((1 << self.history_bits) - 1);
    }

    #[inline]
    fn push_return(&mut self, ret_addr: u64) {
        self.rsb.push(ret_addr);
    }

    #[inline]
    fn pop_return(&mut self, actual: u64) -> bool {
        self.rsb.pop(actual)
    }
}

/// Per-address 2-bit counters, no history — the classic baseline the
/// history-aliasing adversary test defeats.
#[derive(Clone, Debug)]
pub struct Bimodal {
    table: Vec<u8>,
    rsb: Rsb,
    table_bits: u32,
}

impl Bimodal {
    /// A fresh predictor (counters weakly not-taken).
    pub fn new(table_bits: u32) -> Bimodal {
        Bimodal {
            table: vec![1u8; 1 << table_bits],
            rsb: Rsb::new(),
            table_bits,
        }
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        ((addr >> 4) & ((1 << self.table_bits) - 1)) as usize
    }
}

impl BranchPredictor for Bimodal {
    fn spec(&self) -> PredictorSpec {
        PredictorSpec::Bimodal {
            table_bits: self.table_bits,
        }
    }

    #[inline]
    fn predict(&mut self, addr: u64, _outcome: bool) -> bool {
        self.table[self.index(addr)] >= 2
    }

    #[inline]
    fn train(&mut self, addr: u64, outcome: bool) {
        let idx = self.index(addr);
        let ctr = &mut self.table[idx];
        if outcome {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
    }

    #[inline]
    fn push_return(&mut self, ret_addr: u64) {
        self.rsb.push(ret_addr);
    }

    #[inline]
    fn pop_return(&mut self, actual: u64) -> bool {
        self.rsb.pop(actual)
    }
}

// TAGE geometry: four partially-tagged tables over geometric history
// lengths on top of a bimodal base. Small by real-hardware standards but
// enough to beat gshare on long-period patterns.
const TAGE_TABLES: usize = 4;
const TAGE_HIST: [u32; TAGE_TABLES] = [5, 11, 23, 44];
const TAGE_INDEX_BITS: u32 = 10;
const TAGE_TAG_BITS: u32 = 10;
const TAGE_BASE_BITS: u32 = 12;
/// Graceful aging: every this many trains, one useful-bit generation is
/// cleared so dead entries become reclaimable.
const TAGE_RESET_PERIOD: u64 = 1 << 18;

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    /// 3-bit signed-style counter, 0..=7; >= 4 predicts taken.
    ctr: u8,
    /// 2-bit usefulness.
    useful: u8,
}

/// A TAGE-class tagged-geometric predictor: provider = longest-history
/// tag match, allocation on misprediction into a longer table.
#[derive(Clone, Debug)]
pub struct Tage {
    base: Vec<u8>,
    tables: [Vec<TageEntry>; TAGE_TABLES],
    ghist: u64,
    rsb: Rsb,
    trains: u64,
    // provider state stashed by `predict` for the paired `train`
    ctx: TageCtx,
}

#[derive(Clone, Copy, Debug, Default)]
struct TageCtx {
    /// Matching table (TAGE_TABLES = base) and its index.
    provider: usize,
    index: [usize; TAGE_TABLES],
    tag: [u16; TAGE_TABLES],
    pred: bool,
    altpred: bool,
}

impl Tage {
    /// A fresh predictor.
    pub fn new() -> Tage {
        Tage {
            base: vec![1u8; 1 << TAGE_BASE_BITS],
            tables: std::array::from_fn(|_| vec![TageEntry::default(); 1 << TAGE_INDEX_BITS]),
            ghist: 0,
            rsb: Rsb::new(),
            trains: 0,
            ctx: TageCtx::default(),
        }
    }

    #[inline]
    fn mix(x: u64) -> u64 {
        // splitmix64 finalizer: cheap, deterministic, well-spread
        let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn folded(&self, table: usize) -> u64 {
        let bits = TAGE_HIST[table];
        let h = if bits >= 64 {
            self.ghist
        } else {
            self.ghist & ((1u64 << bits) - 1)
        };
        Self::mix(h ^ ((table as u64) << 60))
    }

    #[inline]
    fn base_index(addr: u64) -> usize {
        ((addr >> 4) & ((1 << TAGE_BASE_BITS) - 1)) as usize
    }
}

impl Default for Tage {
    fn default() -> Tage {
        Tage::new()
    }
}

impl BranchPredictor for Tage {
    fn spec(&self) -> PredictorSpec {
        PredictorSpec::Tage
    }

    fn predict(&mut self, addr: u64, _outcome: bool) -> bool {
        let pc = Self::mix(addr >> 4);
        let mut ctx = TageCtx {
            provider: TAGE_TABLES,
            ..TageCtx::default()
        };
        for t in 0..TAGE_TABLES {
            let f = self.folded(t);
            ctx.index[t] = ((pc ^ f) & ((1 << TAGE_INDEX_BITS) - 1)) as usize;
            ctx.tag[t] =
                (((pc >> TAGE_INDEX_BITS) ^ (f >> 13)) & ((1 << TAGE_TAG_BITS) - 1)) as u16;
        }
        let base_pred = self.base[Self::base_index(addr)] >= 2;
        let mut pred = base_pred;
        let mut altpred = base_pred;
        // longest history wins; the runner-up is the alternate
        for t in (0..TAGE_TABLES).rev() {
            let e = &self.tables[t][ctx.index[t]];
            if e.tag == ctx.tag[t] {
                if ctx.provider == TAGE_TABLES {
                    ctx.provider = t;
                    pred = e.ctr >= 4;
                } else {
                    altpred = e.ctr >= 4;
                    break;
                }
            }
        }
        if ctx.provider == TAGE_TABLES {
            pred = base_pred;
        }
        ctx.pred = pred;
        ctx.altpred = altpred;
        self.ctx = ctx;
        pred
    }

    fn train(&mut self, addr: u64, outcome: bool) {
        let ctx = self.ctx;
        self.trains += 1;
        if self.trains.is_multiple_of(TAGE_RESET_PERIOD) {
            for t in &mut self.tables {
                for e in t.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }
        if ctx.provider < TAGE_TABLES {
            let e = &mut self.tables[ctx.provider][ctx.index[ctx.provider]];
            if outcome {
                e.ctr = (e.ctr + 1).min(7);
            } else {
                e.ctr = e.ctr.saturating_sub(1);
            }
            if ctx.pred != ctx.altpred {
                if ctx.pred == outcome {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        } else {
            let b = &mut self.base[Self::base_index(addr)];
            if outcome {
                *b = (*b + 1).min(3);
            } else {
                *b = b.saturating_sub(1);
            }
        }
        // on a misprediction, try to allocate one entry in a longer table
        if ctx.pred != outcome {
            let start = if ctx.provider < TAGE_TABLES {
                ctx.provider + 1
            } else {
                0
            };
            let mut allocated = false;
            for t in start..TAGE_TABLES {
                let e = &mut self.tables[t][ctx.index[t]];
                if e.useful == 0 {
                    e.tag = ctx.tag[t];
                    e.ctr = if outcome { 4 } else { 3 };
                    e.useful = 0;
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for t in start..TAGE_TABLES {
                    let e = &mut self.tables[t][ctx.index[t]];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        self.ghist = (self.ghist << 1) | outcome as u64;
    }

    #[inline]
    fn push_return(&mut self, ret_addr: u64) {
        self.rsb.push(ret_addr);
    }

    #[inline]
    fn pop_return(&mut self, actual: u64) -> bool {
        self.rsb.pop(actual)
    }
}

/// The ideal predictor: every direction and every return is correct.
/// Upper-bounds how much of the Fig. 5 `br_mispredict_flush` category a
/// better real predictor could recover.
#[derive(Clone, Debug, Default)]
pub struct Oracle;

impl BranchPredictor for Oracle {
    fn spec(&self) -> PredictorSpec {
        PredictorSpec::Oracle
    }

    #[inline]
    fn predict(&mut self, _addr: u64, outcome: bool) -> bool {
        outcome
    }

    #[inline]
    fn train(&mut self, _addr: u64, _outcome: bool) {}

    #[inline]
    fn push_return(&mut self, _ret_addr: u64) {}

    #[inline]
    fn pop_return(&mut self, _actual: u64) -> bool {
        true
    }
}

/// The closed predictor zoo as one `Clone`-able value: enum dispatch
/// keeps the detailed sim's hot path monomorphized per variant (one
/// match, no vtable), while [`BranchPredictor`] is implemented for the
/// enum too so trait-object surfaces (replay, extensions) work
/// uniformly.
#[derive(Clone, Debug)]
pub enum AnyPredictor {
    /// Gshare (the default).
    Gshare(Gshare),
    /// Bimodal.
    Bimodal(Bimodal),
    /// TAGE-class.
    Tage(Tage),
    /// Ideal.
    Oracle(Oracle),
}

impl AnyPredictor {
    /// Build the predictor a spec describes.
    pub fn from_spec(spec: PredictorSpec) -> AnyPredictor {
        match spec {
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => AnyPredictor::Gshare(Gshare::new(table_bits, history_bits)),
            PredictorSpec::Bimodal { table_bits } => {
                AnyPredictor::Bimodal(Bimodal::new(table_bits))
            }
            PredictorSpec::Tage => AnyPredictor::Tage(Tage::new()),
            PredictorSpec::Oracle => AnyPredictor::Oracle(Oracle),
        }
    }

    /// Snapshot the full predictor state (tables, history, RAS) — what
    /// the sampler clones at interval boundaries and later injects into
    /// a detailed sim as warm state.
    pub fn snapshot(&self) -> AnyPredictor {
        self.clone()
    }

    /// Predict + train on one resolved conditional branch; returns
    /// whether the prediction was correct. The detailed sim's hot-path
    /// entry point.
    #[inline]
    pub fn observe(&mut self, addr: u64, outcome: bool) -> bool {
        let predicted = self.predict(addr, outcome);
        self.train(addr, outcome);
        predicted == outcome
    }
}

impl Default for AnyPredictor {
    fn default() -> AnyPredictor {
        AnyPredictor::from_spec(PredictorSpec::default())
    }
}

macro_rules! delegate {
    ($self:ident, $p:ident => $e:expr) => {
        match $self {
            AnyPredictor::Gshare($p) => $e,
            AnyPredictor::Bimodal($p) => $e,
            AnyPredictor::Tage($p) => $e,
            AnyPredictor::Oracle($p) => $e,
        }
    };
}

impl BranchPredictor for AnyPredictor {
    fn spec(&self) -> PredictorSpec {
        delegate!(self, p => p.spec())
    }

    #[inline]
    fn predict(&mut self, addr: u64, outcome: bool) -> bool {
        delegate!(self, p => p.predict(addr, outcome))
    }

    #[inline]
    fn train(&mut self, addr: u64, outcome: bool) {
        delegate!(self, p => p.train(addr, outcome))
    }

    #[inline]
    fn push_return(&mut self, ret_addr: u64) {
        delegate!(self, p => p.push_return(ret_addr))
    }

    #[inline]
    fn pop_return(&mut self, actual: u64) -> bool {
        delegate!(self, p => p.pop_return(actual))
    }
}

/// One resolved control-flow event, as the in-order sim retires it —
/// predictor-agnostic by construction (no prediction outcome is
/// recorded, only what the program did), which is what makes a captured
/// trace replayable through any predictor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BranchRecord {
    /// A conditional branch at `addr` resolved `taken`.
    Cond {
        /// Bundle address of the branch.
        addr: u64,
        /// Resolved direction.
        taken: bool,
    },
    /// A call pushed `ret_addr` as its return target.
    Call {
        /// The architected return address.
        ret_addr: u64,
    },
    /// A return resolved to `actual`.
    Ret {
        /// The architected return target.
        actual: u64,
    },
}

/// Branch-trace file magic.
pub const TRACE_MAGIC: &[u8; 4] = b"EPBT";
/// Branch-trace format version.
pub const TRACE_VERSION: u32 = 1;

impl BranchRecord {
    /// Encoded size: one kind byte + a little-endian u64 payload.
    pub const WIRE_BYTES: usize = 9;

    fn encode(&self, buf: &mut [u8; Self::WIRE_BYTES]) {
        let (kind, payload) = match *self {
            BranchRecord::Cond { addr, taken } => (taken as u8, addr),
            BranchRecord::Call { ret_addr } => (2, ret_addr),
            BranchRecord::Ret { actual } => (3, actual),
        };
        buf[0] = kind;
        buf[1..].copy_from_slice(&payload.to_le_bytes());
    }

    fn decode(buf: &[u8; Self::WIRE_BYTES]) -> io::Result<BranchRecord> {
        let payload = u64::from_le_bytes(buf[1..].try_into().expect("8 payload bytes"));
        match buf[0] {
            0 => Ok(BranchRecord::Cond {
                addr: payload,
                taken: false,
            }),
            1 => Ok(BranchRecord::Cond {
                addr: payload,
                taken: true,
            }),
            2 => Ok(BranchRecord::Call { ret_addr: payload }),
            3 => Ok(BranchRecord::Ret { actual: payload }),
            k => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("branch trace: unknown record kind {k}"),
            )),
        }
    }
}

/// Totals a [`BranchTraceSink`] publishes when it is dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchTraceStats {
    /// Records written to the underlying writer.
    pub recorded: u64,
    /// Records dropped because the capture bound was reached.
    pub dropped: u64,
}

/// An [`EventSink`](crate::EventSink) that streams [`BranchRecord`]s to
/// a writer as they retire: a fixed header (`EPBT`, version) followed by
/// 9-byte records. Capture is bounded — records past `cap` are counted
/// as dropped, never buffered — so tracing a long run cannot exhaust
/// memory or disk behind the user's back.
pub struct BranchTraceSink<W: Write> {
    out: io::BufWriter<W>,
    cap: u64,
    stats: BranchTraceStats,
    shared: Arc<Mutex<BranchTraceStats>>,
}

impl<W: Write> BranchTraceSink<W> {
    /// Capture up to `cap` records into `out` (header written
    /// immediately). The returned handle holds the final
    /// [`BranchTraceStats`] after the sink is dropped.
    ///
    /// # Errors
    /// Header write failure.
    pub fn new(out: W, cap: u64) -> io::Result<(BranchTraceSink<W>, Arc<Mutex<BranchTraceStats>>)> {
        let mut out = io::BufWriter::new(out);
        out.write_all(TRACE_MAGIC)?;
        out.write_all(&TRACE_VERSION.to_le_bytes())?;
        let shared = Arc::new(Mutex::new(BranchTraceStats::default()));
        Ok((
            BranchTraceSink {
                out,
                cap,
                stats: BranchTraceStats::default(),
                shared: shared.clone(),
            },
            shared,
        ))
    }

    /// Record one resolved branch (drops past the bound).
    pub fn record(&mut self, rec: &BranchRecord) {
        if self.stats.recorded >= self.cap {
            self.stats.dropped += 1;
            return;
        }
        let mut buf = [0u8; BranchRecord::WIRE_BYTES];
        rec.encode(&mut buf);
        // a full disk surfaces at flush time; per-record errors are not
        // actionable mid-simulation
        let _ = self.out.write_all(&buf);
        self.stats.recorded += 1;
    }
}

impl<W: Write> Drop for BranchTraceSink<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
        *self.shared.lock().expect("branch trace stats") = self.stats;
    }
}

impl<W: Write> crate::EventSink for BranchTraceSink<W> {
    fn on_charge(&mut self, _rec: &crate::ChargeRecord) {}

    fn on_branch(&mut self, rec: &BranchRecord) {
        self.record(rec);
    }
}

/// Decode a branch trace produced by [`BranchTraceSink`].
///
/// # Errors
/// Bad magic/version, a truncated record, or an unknown record kind.
pub fn read_branch_trace<R: Read>(r: &mut R) -> io::Result<Vec<BranchRecord>> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "branch trace: short header"))?;
    if &header[..4] != TRACE_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "branch trace: bad magic",
        ));
    }
    let version = u32::from_le_bytes(header[4..].try_into().expect("4 version bytes"));
    if version != TRACE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("branch trace: unsupported version {version}"),
        ));
    }
    let mut records = Vec::new();
    let mut buf = [0u8; BranchRecord::WIRE_BYTES];
    loop {
        match r.read_exact(&mut buf) {
            Ok(()) => records.push(BranchRecord::decode(&buf)?),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
    }
    Ok(records)
}

/// Replay statistics: what [`replay`] counts (and the live sim's
/// [`Counters`](crate::Counters) mirror for conditional branches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredStats {
    /// Conditional-branch predictions made.
    pub predictions: u64,
    /// Conditional-branch mispredictions.
    pub mispredictions: u64,
    /// Returns predicted.
    pub returns: u64,
    /// Returns the RAS got wrong.
    pub return_mispredictions: u64,
}

impl PredStats {
    /// Conditional misprediction rate in percent (0 when no branches).
    pub fn mispredict_pct(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64 * 100.0
        }
    }
}

/// Drive a captured branch trace through a predictor — the offline
/// half of the capture/replay pair: because the trace is
/// predictor-independent (see [`BranchRecord`]), the returned
/// conditional counts equal what a live simulation with this predictor
/// would produce (enforced by test against the detailed sim).
pub fn replay(records: &[BranchRecord], pred: &mut dyn BranchPredictor) -> PredStats {
    let mut stats = PredStats::default();
    for rec in records {
        match *rec {
            BranchRecord::Cond { addr, taken } => {
                stats.predictions += 1;
                if pred.predict(addr, taken) != taken {
                    stats.mispredictions += 1;
                }
                pred.train(addr, taken);
            }
            BranchRecord::Call { ret_addr } => pred.push_return(ret_addr),
            BranchRecord::Ret { actual } => {
                stats.returns += 1;
                if !pred.pop_return(actual) {
                    stats.return_mispredictions += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-refactor merged predict+train gshare, kept verbatim as
    /// the bit-identity reference for the split protocol.
    struct LegacyGshare {
        table: Vec<u8>,
        history: u64,
    }

    impl LegacyGshare {
        fn new() -> LegacyGshare {
            LegacyGshare {
                table: vec![1u8; 1 << GSHARE_TABLE_BITS],
                history: 0,
            }
        }

        fn branch(&mut self, addr: u64, taken: bool) -> bool {
            let idx = (((addr >> 4) ^ self.history) & ((1 << GSHARE_TABLE_BITS) - 1)) as usize;
            let ctr = &mut self.table[idx];
            let predicted = *ctr >= 2;
            if taken {
                *ctr = (*ctr + 1).min(3);
            } else {
                *ctr = ctr.saturating_sub(1);
            }
            self.history = ((self.history << 1) | taken as u64) & ((1 << GSHARE_HISTORY_BITS) - 1);
            predicted == taken
        }
    }

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed
    }

    #[test]
    fn split_gshare_is_bit_identical_to_the_merged_original() {
        let mut legacy = LegacyGshare::new();
        let mut split = Gshare::new(GSHARE_TABLE_BITS, GSHARE_HISTORY_BITS);
        let mut seed = 7u64;
        for i in 0..200_000u64 {
            // a mix of hot branches, cold branches, and varied outcomes
            let r = lcg(&mut seed);
            let addr = 0x400000 + ((r >> 8) & 0x3fff) * 16 + (i % 3) * 16;
            let taken = match i % 5 {
                0 => true,
                1 => false,
                _ => (r >> 33) & 1 == 1,
            };
            let want = legacy.branch(addr, taken);
            let got = split.predict(addr, taken) == taken;
            split.train(addr, taken);
            assert_eq!(want, got, "diverged at step {i}");
        }
        assert_eq!(legacy.history, split.history, "history state diverged");
        assert_eq!(legacy.table, split.table, "table state diverged");
    }

    fn mispredicts(pred: &mut dyn BranchPredictor, stream: &[(u64, bool)]) -> u64 {
        let mut wrong = 0;
        for &(addr, taken) in stream {
            if pred.predict(addr, taken) != taken {
                wrong += 1;
            }
            pred.train(addr, taken);
        }
        wrong
    }

    #[test]
    fn every_real_predictor_learns_a_biased_branch() {
        for spec in PredictorSpec::ZOO {
            let mut p = AnyPredictor::from_spec(spec);
            let stream: Vec<(u64, bool)> = (0..200).map(|_| (0x400040, true)).collect();
            let wrong = mispredicts(&mut p, &stream);
            assert!(
                wrong <= 10,
                "{}: {wrong} wrong on always-taken",
                spec.name()
            );
        }
    }

    #[test]
    fn loop_exit_pattern_favors_history_predictors() {
        // a 16-iteration loop: 15 taken then one exit, repeated
        let stream: Vec<(u64, bool)> = (0..4096).map(|i| (0x400080, i % 16 != 15)).collect();
        let late = &stream[2048..];
        let mut bimodal = AnyPredictor::from_spec(PredictorSpec::parse("bimodal").unwrap());
        let mut tage = AnyPredictor::from_spec(PredictorSpec::Tage);
        mispredicts(&mut bimodal, &stream[..2048]);
        mispredicts(&mut tage, &stream[..2048]);
        let bimodal_wrong = mispredicts(&mut bimodal, late);
        let tage_wrong = mispredicts(&mut tage, late);
        // bimodal saturates taken and eats every exit: 1 in 16
        assert!(bimodal_wrong >= 100, "bimodal: {bimodal_wrong}");
        assert!(
            tage_wrong * 4 < bimodal_wrong,
            "tage {tage_wrong} vs bimodal {bimodal_wrong}"
        );
    }

    #[test]
    fn history_aliasing_adversary_defeats_bimodal_but_not_tage() {
        // period-4 pattern TTNN: 50/50 overall, so a per-address 2-bit
        // counter oscillates, while any history predictor locks on
        let stream: Vec<(u64, bool)> = (0..4096).map(|i| (0x4000c0, i % 4 < 2)).collect();
        let late = &stream[2048..];
        let mut bimodal = AnyPredictor::from_spec(PredictorSpec::parse("bimodal").unwrap());
        let mut tage = AnyPredictor::from_spec(PredictorSpec::Tage);
        mispredicts(&mut bimodal, &stream[..2048]);
        mispredicts(&mut tage, &stream[..2048]);
        let bimodal_wrong = mispredicts(&mut bimodal, late);
        let tage_wrong = mispredicts(&mut tage, late);
        assert!(
            bimodal_wrong >= late.len() as u64 / 4,
            "bimodal must fail the adversary: {bimodal_wrong}"
        );
        assert!(
            tage_wrong <= 20,
            "tage must learn the pattern: {tage_wrong}"
        );
    }

    #[test]
    fn oracle_never_mispredicts() {
        let mut p = AnyPredictor::from_spec(PredictorSpec::Oracle);
        let mut seed = 3u64;
        for _ in 0..1000 {
            let r = lcg(&mut seed);
            assert!(p.observe(r & 0xffff0, (r >> 40) & 1 == 1));
        }
        assert!(p.pop_return(0xdead));
    }

    #[test]
    fn random_branches_mispredict_often_on_every_real_predictor() {
        for spec in [
            PredictorSpec::default(),
            PredictorSpec::parse("bimodal").unwrap(),
            PredictorSpec::Tage,
        ] {
            let mut p = AnyPredictor::from_spec(spec);
            let mut seed = 42u64;
            let stream: Vec<(u64, bool)> = (0..1000)
                .map(|_| (0x4000c0, (lcg(&mut seed) >> 40) & 1 == 1))
                .collect();
            let wrong = mispredicts(&mut p, &stream);
            assert!(
                wrong > 250,
                "{}: random stream must mispredict: {wrong}",
                spec.name()
            );
        }
    }

    #[test]
    fn return_stack_matches_nested_calls() {
        let mut p = AnyPredictor::default();
        p.push_return(100);
        p.push_return(200);
        assert!(p.pop_return(200));
        assert!(p.pop_return(100));
        assert!(!p.pop_return(1)); // empty
    }

    #[test]
    fn ras_overflow_drops_the_oldest_frames() {
        let mut p = AnyPredictor::default();
        let depth = RSB_DEPTH as u64;
        // push depth + 4 frames: the first 4 fall off the ring
        for i in 0..depth + 4 {
            p.push_return(1000 + i);
        }
        // the newest `depth` returns predict correctly...
        for i in (4..depth + 4).rev() {
            assert!(p.pop_return(1000 + i), "frame {i} should survive");
        }
        // ...the overflowed outermost frames mispredict (stack empty)
        for i in (0..4).rev() {
            assert!(!p.pop_return(1000 + i), "frame {i} was dropped");
        }
    }

    #[test]
    fn specs_parse_name_and_digest_consistently() {
        for spec in PredictorSpec::ZOO {
            assert_eq!(PredictorSpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(
            PredictorSpec::parse("gshare"),
            Some(PredictorSpec::default())
        );
        assert_eq!(PredictorSpec::parse("nonesuch"), None);
        // digests separate every zoo member and every geometry change
        let mut digests: Vec<u64> = PredictorSpec::ZOO
            .iter()
            .map(|s| s.config_digest())
            .collect();
        digests.push(
            PredictorSpec::Gshare {
                table_bits: 12,
                history_bits: GSHARE_HISTORY_BITS,
            }
            .config_digest(),
        );
        digests.push(
            PredictorSpec::Gshare {
                table_bits: GSHARE_TABLE_BITS,
                history_bits: 12,
            }
            .config_digest(),
        );
        let n = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), n, "config digests must not collide");
    }

    #[test]
    fn branch_trace_round_trips_and_bounds_capture() {
        let records = vec![
            BranchRecord::Cond {
                addr: 0x400040,
                taken: true,
            },
            BranchRecord::Cond {
                addr: 0x400080,
                taken: false,
            },
            BranchRecord::Call { ret_addr: 0x4000f0 },
            BranchRecord::Ret { actual: 0x4000f0 },
        ];
        let mut buf = Vec::new();
        {
            let (mut sink, stats) = BranchTraceSink::new(&mut buf, 3).unwrap();
            for r in &records {
                sink.record(r);
            }
            drop(sink);
            let s = *stats.lock().unwrap();
            assert_eq!(
                s,
                BranchTraceStats {
                    recorded: 3,
                    dropped: 1
                }
            );
        }
        let got = read_branch_trace(&mut &buf[..]).unwrap();
        assert_eq!(got, records[..3]);
        // corruption is rejected, not misread
        assert!(read_branch_trace(&mut &buf[..7]).is_err());
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_branch_trace(&mut &bad[..]).is_err());
        let mut bad_kind = buf.clone();
        bad_kind[8] = 9;
        assert!(read_branch_trace(&mut &bad_kind[..]).is_err());
    }

    #[test]
    fn replay_matches_a_hand_driven_predictor() {
        // build a deterministic trace, then check replay against driving
        // a fresh predictor of the same spec by hand
        let mut seed = 11u64;
        let mut records = Vec::new();
        for i in 0..5000u64 {
            let r = lcg(&mut seed);
            match r % 8 {
                6 => records.push(BranchRecord::Call {
                    ret_addr: 0x500000 + (i << 4),
                }),
                7 => records.push(BranchRecord::Ret {
                    actual: 0x500000 + ((r >> 20) & 0xfff0),
                }),
                _ => records.push(BranchRecord::Cond {
                    addr: 0x400000 + ((r >> 8) & 0xff0),
                    taken: (r >> 41) & 1 == 1,
                }),
            }
        }
        for spec in PredictorSpec::ZOO {
            let mut replayed = AnyPredictor::from_spec(spec);
            let stats = replay(&records, &mut replayed);
            let mut hand = AnyPredictor::from_spec(spec);
            let mut want = PredStats::default();
            for rec in &records {
                match *rec {
                    BranchRecord::Cond { addr, taken } => {
                        want.predictions += 1;
                        if !hand.observe(addr, taken) {
                            want.mispredictions += 1;
                        }
                    }
                    BranchRecord::Call { ret_addr } => hand.push_return(ret_addr),
                    BranchRecord::Ret { actual } => {
                        want.returns += 1;
                        if !hand.pop_return(actual) {
                            want.return_mispredictions += 1;
                        }
                    }
                }
            }
            assert_eq!(stats, want, "{}", spec.name());
            if spec == PredictorSpec::Oracle {
                assert_eq!(stats.mispredictions, 0);
                assert_eq!(stats.return_mispredictions, 0);
            } else {
                assert!(stats.mispredictions > 0, "{}", spec.name());
            }
        }
    }
}
