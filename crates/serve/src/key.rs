//! Content addressing: a canonical byte serialization of everything
//! that determines a compile/sim job's result, hashed into a stable
//! 128-bit [`CacheKey`].
//!
//! Stability is the whole point: the key must be identical across runs,
//! processes, and thread counts, so `std::hash::DefaultHasher` (whose
//! seed is per-process) is off the table. We use two independent
//! FNV-1a-64 lanes over the same canonical bytes — one plain, one over a
//! byte-wise involution — giving a 128-bit key whose collision
//! probability over any realistic experiment matrix is negligible.
//!
//! The canonical encoding is deliberately dumb: every field of the job,
//! in declared order, length-prefixed where variable-sized, with a
//! version tag on top. Any change to the encoding (or to what a job
//! means) must bump [`CANON_VERSION`], which invalidates every existing
//! cache entry rather than silently serving stale results.
//!
//! Hashing is the warm hit's largest cost (one dependent multiply per
//! canonical byte, and the source is most of the bytes), so
//! [`JobSpec::job_key`] hashes each source once per thread: FNV-1a's
//! state after the canonical header and the source depends on those
//! bytes alone, so a small per-thread memo maps them to that
//! *midstate*, confirms every hit with a full byte compare, and hashes
//! only the few hundred bytes of tail, written straight into the
//! hasher. The key is the same by construction: the bytes hashed are
//! exactly [`JobSpec::job_canon`], only the work on its prefix is
//! reused.

use crate::codec::{Enc, Sink};
use epic_driver::{CompileOptions, OptLevel, ProfileInput};
use epic_mach::MachineConfig;
use epic_sim::{PredictorSpec, SamplePolicy, SimOptions, SpecModel, Warmup};
use epic_workloads::Workload;
use std::cell::RefCell;

/// Version tag mixed into every canonical serialization. Bump on any
/// change to [`JobSpec`]'s meaning or encoding.
/// (2: sampling policy joins the simulation half of the job. The
/// predictor spec joined later as a *trailing optional* field — elided
/// when default — so default-predictor keys are unchanged and no bump
/// was needed; see [`JobSpec::job_canon`].)
pub const CANON_VERSION: u32 = 2;

/// A stable 128-bit content hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CacheKey {
    /// Plain FNV-1a-64 lane.
    pub hi: u64,
    /// Complemented-byte FNV-1a-64 lane.
    pub lo: u64,
}

impl CacheKey {
    /// 32-hex-digit rendering (the on-disk file stem).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parse the [`hex`](CacheKey::hex) rendering back.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey { hi, lo })
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The two-lane FNV-1a state behind [`hash_bytes`], fed one write at a
/// time: a [`Sink`], so canonical bytes can be hashed as they are
/// encoded, and `Copy`, so a midstate can be kept and resumed.
#[derive(Clone, Copy, Debug)]
pub struct Fnv {
    hi: u64,
    lo: u64,
}

impl Fnv {
    /// The state before any byte.
    pub const fn new() -> Fnv {
        Fnv {
            hi: FNV_OFFSET,
            lo: FNV_OFFSET ^ 0x5a5a_5a5a_5a5a_5a5a,
        }
    }

    /// The key of every byte written so far.
    pub fn key(self) -> CacheKey {
        CacheKey {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Sink for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hi = (self.hi ^ b as u64).wrapping_mul(FNV_PRIME);
            self.lo = (self.lo ^ (b ^ 0xa5) as u64).wrapping_mul(FNV_PRIME);
        }
    }
}

/// Hash canonical bytes into a [`CacheKey`].
pub fn hash_bytes(bytes: &[u8]) -> CacheKey {
    let mut h = Fnv::new();
    h.put(bytes);
    h.key()
}

/// A sink that only counts: the length of an encoding without making it.
struct Len(u64);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
}

/// Bytes of [`JobSpec::job_canon`] before the source: the job's version
/// and `b'J'`, the compilation half's length, then that half's version,
/// `b'C'` and the source's length.
const JOB_HEAD_LEN: usize = 4 + 1 + 8 + 4 + 1 + 8;

/// Most sources one thread's key memo holds. A 12-workload matrix has
/// 12 sources (levels and simulation parameters are tail fields); the
/// bound keeps a thread's memo near 100 KiB of copied source text.
const KEY_MEMO_CAPACITY: usize = 32;

/// One remembered source: its canonical head, its bytes, and the FNV
/// state after both.
struct MemoEntry {
    head: [u8; JOB_HEAD_LEN],
    source: Box<[u8]>,
    state: Fnv,
}

/// Canonical head + source → FNV midstate, bounded by
/// [`KEY_MEMO_CAPACITY`] and replaced first-in first-out.
struct KeyMemo {
    entries: Vec<MemoEntry>,
    /// The entry the next insertion replaces once the memo is full.
    next: usize,
}

impl KeyMemo {
    const fn new() -> KeyMemo {
        KeyMemo {
            entries: Vec::new(),
            next: 0,
        }
    }

    /// The FNV state after `head` and `source`: remembered if this
    /// thread has hashed exactly these bytes before (the head carries
    /// the source's length, so only same-length sources are compared
    /// byte for byte), computed and remembered otherwise.
    fn state(&mut self, head: &[u8; JOB_HEAD_LEN], source: &[u8]) -> Fnv {
        if let Some(e) = self
            .entries
            .iter()
            .find(|e| e.head == *head && *e.source == *source)
        {
            return e.state;
        }
        let mut state = Fnv::new();
        state.put(head);
        state.put(source);
        let entry = MemoEntry {
            head: *head,
            source: source.into(),
            state,
        };
        if self.entries.len() < KEY_MEMO_CAPACITY {
            self.entries.push(entry);
        } else {
            self.entries[self.next] = entry;
            self.next = (self.next + 1) % KEY_MEMO_CAPACITY;
        }
        state
    }
}

thread_local! {
    /// Each thread's memo: the `epicd` loop thread (through
    /// `Scheduler::submit`) and the `epicg` loop thread (routing) each
    /// own one, with no lock and no sharing.
    static KEY_MEMO: RefCell<KeyMemo> = const { RefCell::new(KeyMemo::new()) };
}

/// A canonical-bytes writer: the wire [`Enc`] (fixed-width
/// little-endian scalars, length-prefixed byte strings), already tagged
/// with [`CANON_VERSION`].
fn canon() -> Enc {
    let mut c = Enc::new();
    c.u32(CANON_VERSION);
    c
}

/// Stable one-byte encoding of an [`OptLevel`] (Table 1 order).
pub fn level_tag(level: OptLevel) -> u8 {
    match level {
        OptLevel::Gcc => 0,
        OptLevel::ONs => 1,
        OptLevel::IlpNs => 2,
        OptLevel::IlpCs => 3,
    }
}

/// Inverse of [`level_tag`].
pub fn level_from_tag(tag: u8) -> Option<OptLevel> {
    OptLevel::ALL.into_iter().find(|&l| level_tag(l) == tag)
}

/// Stable one-byte encoding of a [`SpecModel`].
pub fn spec_model_tag(m: SpecModel) -> u8 {
    match m {
        SpecModel::General => 0,
        SpecModel::Sentinel => 1,
    }
}

/// Inverse of [`spec_model_tag`].
pub fn spec_model_from_tag(tag: u8) -> Option<SpecModel> {
    match tag {
        0 => Some(SpecModel::General),
        1 => Some(SpecModel::Sentinel),
        _ => None,
    }
}

/// Append a [`SamplePolicy`], tag byte first (0 exact, 1 sampled; the
/// warmup nests its own tag: 0 cold, 1 ops, 2 full).
pub fn canon_sample_policy(c: &mut impl Sink, p: SamplePolicy) {
    match p {
        SamplePolicy::Exact => c.u8(0),
        SamplePolicy::Sampled {
            interval_len,
            max_clusters,
            warmup,
        } => {
            c.u8(1);
            c.u64(interval_len);
            c.usize(max_clusters);
            match warmup {
                Warmup::Cold => c.u8(0),
                Warmup::Ops(w) => {
                    c.u8(1);
                    c.u64(w);
                }
                Warmup::Full => c.u8(2),
            }
        }
    }
}

/// Append a [`PredictorSpec`]'s canonical configuration bytes (variant
/// tag plus geometry, as defined by the sim crate).
pub fn canon_predictor_spec(c: &mut impl Sink, spec: PredictorSpec) {
    for b in spec.canon_bytes() {
        c.u8(b);
    }
}

/// Stable one-byte encoding of a [`ProfileInput`].
pub fn profile_input_tag(p: ProfileInput) -> u8 {
    match p {
        ProfileInput::Train => 0,
        ProfileInput::Refr => 1,
    }
}

/// Inverse of [`profile_input_tag`].
pub fn profile_input_from_tag(tag: u8) -> Option<ProfileInput> {
    match tag {
        0 => Some(ProfileInput::Train),
        1 => Some(ProfileInput::Refr),
        _ => None,
    }
}

/// Append every [`MachineConfig`] field, in declaration order.
pub fn canon_machine_config(c: &mut impl Sink, cfg: &MachineConfig) {
    for cache in [&cfg.l1i, &cfg.l1d, &cfg.l2, &cfg.l3] {
        c.u64(cache.size);
        c.u64(cache.line);
        c.u64(cache.ways);
        c.u64(cache.latency);
    }
    c.u64(cfg.mem_latency);
    c.u64(cfg.mispredict_penalty);
    c.usize(cfg.ib_ops);
    c.usize(cfg.fetch_bundles);
    c.u32(cfg.rse_capacity);
    c.u64(cfg.rse_cycle_per_reg);
    c.usize(cfg.dtlb_entries);
    c.u64(cfg.tlb_walk_cycles);
    c.u64(cfg.wild_load_kernel_cycles);
    c.u64(cfg.nat_page_cycles);
    c.u64(cfg.chk_recovery_cycles);
    c.u64(cfg.syscall_kernel_cycles);
    c.u64(cfg.store_forward_stall);
    c.usize(cfg.store_buffer);
    c.usize(cfg.alat_entries);
    c.u64(cfg.alat_recovery_cycles);
}

/// Everything that determines one compile+simulate job's result. This is
/// the unit of content addressing: two jobs with equal canonical bytes
/// are the same job and share one cache entry.
///
/// Deliberately *not* representable: `ilp_override` ablations,
/// `inject_bug`, and simulator tracing — jobs always run the level's
/// canonical configuration, so a cache entry can never alias an ablated
/// or instrumented run.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// MiniC source text (the content being addressed).
    pub source: String,
    /// Profile-training arguments for `main`.
    pub train_args: Vec<i64>,
    /// Measurement (reference) arguments for `main`.
    pub ref_args: Vec<i64>,
    /// Compiler configuration (Table 1 column).
    pub level: OptLevel,
    /// Which input trains the profile.
    pub profile_input: ProfileInput,
    /// ALAT data speculation on/off.
    pub enable_data_spec: bool,
    /// Interpreter fuel for the profiling run.
    pub profile_fuel: u64,
    /// Machine configuration for scheduling and simulation. Boxed: it
    /// is most of a spec's size, and requests carrying a spec are moved
    /// by value.
    pub config: Box<MachineConfig>,
    /// Simulator cycle budget.
    pub sim_fuel: u64,
    /// Speculation recovery model (paper Fig. 9).
    pub spec_model: SpecModel,
    /// Exact or sampled simulation: an estimate must never be served
    /// where an exact result was asked for (or vice versa), so the
    /// policy is part of the job's identity.
    pub sample: SamplePolicy,
    /// Branch predictor the simulator models: different predictors
    /// produce different cycle counts and must never alias in the
    /// artifact store.
    pub predictor: PredictorSpec,
}

impl JobSpec {
    /// The canonical job for a bundled workload at a level, under
    /// default compile and simulation options.
    pub fn for_workload(w: &Workload, level: OptLevel) -> JobSpec {
        JobSpec::from_options(
            w.source,
            &w.train_args,
            &w.ref_args,
            &CompileOptions::for_level(level),
            &SimOptions::default(),
        )
    }

    /// Build a spec from driver/sim option structs. Returns the spec
    /// whether or not the options are [`cacheable`](JobSpec::cacheable)
    /// — callers gate on that separately.
    pub fn from_options(
        source: &str,
        train_args: &[i64],
        ref_args: &[i64],
        copts: &CompileOptions,
        sopts: &SimOptions,
    ) -> JobSpec {
        JobSpec {
            source: source.to_string(),
            train_args: train_args.to_vec(),
            ref_args: ref_args.to_vec(),
            level: copts.level,
            profile_input: copts.profile_input,
            enable_data_spec: copts.enable_data_spec,
            profile_fuel: copts.profile_fuel,
            config: Box::new(sopts.config),
            sim_fuel: sopts.fuel_cycles,
            spec_model: sopts.spec_model,
            sample: sopts.sample,
            predictor: sopts.predictor,
        }
    }

    /// Can this option combination be represented by a [`JobSpec`] at
    /// all? Ablation overrides, injected bugs, per-pass verification and
    /// tracing fall outside the canonical configuration and must never
    /// be served from (or stored into) the cache.
    pub fn cacheable(copts: &CompileOptions, sopts: &SimOptions) -> bool {
        copts.ilp_override.is_none()
            && !copts.inject_bug
            && !copts.verify_each_pass
            && sopts.trace_capacity == 0
    }

    /// The compile options this job runs with.
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            level: self.level,
            profile_input: self.profile_input,
            ilp_override: None,
            enable_data_spec: self.enable_data_spec,
            profile_fuel: self.profile_fuel,
            verify_each_pass: false,
            inject_bug: false,
        }
    }

    /// The simulator options this job runs with.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            config: *self.config,
            fuel_cycles: self.sim_fuel,
            spec_model: self.spec_model,
            trace_capacity: 0,
            sample: self.sample,
            predictor: self.predictor,
        }
    }

    /// The compilation half after the source: training input and every
    /// compile option.
    fn compile_tail(&self, c: &mut impl Sink) {
        c.i64s(&self.train_args);
        c.u8(level_tag(self.level));
        c.u8(profile_input_tag(self.profile_input));
        c.bool(self.enable_data_spec);
        c.u64(self.profile_fuel);
        canon_machine_config(c, &self.config);
    }

    /// The whole job after the compilation half: simulation parameters
    /// and the measurement input.
    fn job_tail(&self, c: &mut impl Sink) {
        c.i64s(&self.ref_args);
        c.u64(self.sim_fuel);
        c.u8(spec_model_tag(self.spec_model));
        canon_sample_policy(c, self.sample);
        if self.predictor != PredictorSpec::default() {
            c.u8(b'P');
            canon_predictor_spec(c, self.predictor);
        }
    }

    /// Canonical bytes of the *compilation* half: source, training
    /// input, and every compile option. Machine programs are shared
    /// across jobs that differ only in simulation parameters.
    pub fn compile_canon(&self) -> Vec<u8> {
        let mut c = canon();
        c.u8(b'C');
        c.str(&self.source);
        self.compile_tail(&mut c);
        c.finish()
    }

    /// Content hash of the compilation half: [`compile_canon`]'s bytes,
    /// hashed as they are produced.
    ///
    /// [`compile_canon`]: JobSpec::compile_canon
    pub fn compile_key(&self) -> CacheKey {
        let mut h = Fnv::new();
        h.u32(CANON_VERSION);
        h.u8(b'C');
        h.str(&self.source);
        self.compile_tail(&mut h);
        h.key()
    }

    /// Canonical bytes of the whole job (compilation plus simulation
    /// parameters and the measurement input).
    ///
    /// The predictor is a *trailing optional* field: the default spec
    /// appends nothing, so default-predictor jobs keep the exact
    /// pre-zoo canonical bytes (and job keys — a warm artifact store
    /// stays warm); any non-default spec appends a `b'P'` tag plus its
    /// full [`PredictorSpec::canon_bytes`], which no default encoding
    /// can collide with.
    pub fn job_canon(&self) -> Vec<u8> {
        let mut c = canon();
        c.u8(b'J');
        c.bytes(&self.compile_canon());
        self.job_tail(&mut c);
        c.finish()
    }

    /// [`job_canon`](JobSpec::job_canon)'s first [`JOB_HEAD_LEN`] bytes,
    /// the source follows them.
    fn job_head(&self) -> [u8; JOB_HEAD_LEN] {
        let mut tail = Len(0);
        self.compile_tail(&mut tail);
        let source_len = self.source.len() as u64;
        let compile_len = 4 + 1 + 8 + source_len + tail.0;
        let mut head = [0u8; JOB_HEAD_LEN];
        head[..4].copy_from_slice(&CANON_VERSION.to_le_bytes());
        head[4] = b'J';
        head[5..13].copy_from_slice(&compile_len.to_le_bytes());
        head[13..17].copy_from_slice(&CANON_VERSION.to_le_bytes());
        head[17] = b'C';
        head[18..].copy_from_slice(&source_len.to_le_bytes());
        head
    }

    /// Content hash of the whole job — the artifact-store key:
    /// `hash_bytes(&self.job_canon())`, with the hash of the head and
    /// source taken from this thread's memo and the tail hashed as it is
    /// encoded (see the module docs).
    pub fn job_key(&self) -> CacheKey {
        let head = self.job_head();
        let mut h = KEY_MEMO.with(|m| m.borrow_mut().state(&head, self.source.as_bytes()));
        self.compile_tail(&mut h);
        self.job_tail(&mut h);
        h.key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_across_runs() {
        // Golden values: these must never change for fixed input — a
        // process-seeded hasher (DefaultHasher) would fail this test on
        // the next run. If the canonical encoding changes legitimately,
        // CANON_VERSION must be bumped and these constants re-derived.
        let k = hash_bytes(b"epic-serve golden input");
        assert_eq!(k.hex(), format!("{:016x}{:016x}", k.hi, k.lo));
        assert_eq!(k, hash_bytes(b"epic-serve golden input"));
        assert_eq!(k.hi, 0x4cd7_8099_eb42_1ea7);
        assert_eq!(k.lo, 0xf365_1250_fa87_d534);
    }

    #[test]
    fn hex_round_trips() {
        let k = hash_bytes(b"abc");
        assert_eq!(CacheKey::from_hex(&k.hex()), Some(k));
        assert_eq!(CacheKey::from_hex("xyz"), None);
        assert_eq!(CacheKey::from_hex(""), None);
    }

    #[test]
    fn all_workload_level_config_combinations_are_distinct() {
        // 12 workloads × 4 levels × 2 machine configs × 2 spec models:
        // every job key (and every compile key within a config) unique.
        let mut alt = MachineConfig::default();
        alt.l2.size *= 2;
        let mut job_keys = std::collections::HashSet::new();
        let mut n = 0;
        for w in epic_workloads::all() {
            for level in OptLevel::ALL {
                for cfg in [MachineConfig::default(), alt] {
                    for model in [SpecModel::General, SpecModel::Sentinel] {
                        let mut spec = JobSpec::for_workload(&w, level);
                        *spec.config = cfg;
                        spec.spec_model = model;
                        assert!(
                            job_keys.insert(spec.job_key()),
                            "collision: {} {level:?}",
                            w.name
                        );
                        n += 1;
                    }
                }
            }
        }
        assert_eq!(n, 12 * 4 * 2 * 2);
    }

    #[test]
    fn keys_identical_across_threads_and_recomputation() {
        let specs: Vec<JobSpec> = epic_workloads::all()
            .iter()
            .map(|w| JobSpec::for_workload(w, OptLevel::IlpCs))
            .collect();
        let serial: Vec<CacheKey> = specs.iter().map(JobSpec::job_key).collect();
        // recompute on 8 threads; the hash must not depend on process or
        // thread identity
        let parallel = epic_driver::par_map(&specs, 8, |_, s| s.job_key());
        assert_eq!(serial, parallel);
        let again: Vec<CacheKey> = specs.iter().map(JobSpec::job_key).collect();
        assert_eq!(serial, again);
    }

    #[test]
    fn sim_parameters_change_job_key_but_not_compile_key() {
        let w = epic_workloads::by_name("mcf_mc").unwrap();
        let a = JobSpec::for_workload(&w, OptLevel::Gcc);
        let mut b = a.clone();
        b.spec_model = SpecModel::Sentinel;
        assert_eq!(a.compile_key(), b.compile_key());
        assert_ne!(a.job_key(), b.job_key());
        let mut c = a.clone();
        c.ref_args = vec![1, 2, 3];
        assert_eq!(a.compile_key(), c.compile_key());
        assert_ne!(a.job_key(), c.job_key());
        // sampled and exact runs of the same job are distinct jobs
        let mut s = a.clone();
        s.sample = SamplePolicy::default_sampled();
        assert_eq!(a.compile_key(), s.compile_key());
        assert_ne!(a.job_key(), s.job_key());
        let mut s2 = s.clone();
        s2.sample = SamplePolicy::Sampled {
            interval_len: 1000,
            max_clusters: 4,
            warmup: Warmup::Full,
        };
        assert_ne!(s.job_key(), s2.job_key());
        // ... while source or level changes alter both
        let mut d = a.clone();
        d.level = OptLevel::ONs;
        assert_ne!(a.compile_key(), d.compile_key());
        assert_ne!(a.job_key(), d.job_key());
    }

    #[test]
    fn default_predictor_job_keys_match_the_pre_zoo_goldens() {
        // Captured from the PR-7 tree immediately before the predictor
        // joined JobSpec: the default spec must keep producing these
        // exact keys (trailing-optional encoding — see job_canon), so a
        // warm artifact store survives the refactor.
        let goldens = [
            ("gzip_mc", OptLevel::Gcc, "5cf175ea4054a493df020939172edc96"),
            ("mcf_mc", OptLevel::ONs, "497097f48b9929b0cb56b20099befe66"),
            (
                "vortex_mc",
                OptLevel::IlpNs,
                "56770411e5c3ca40cc50662c35cf614d",
            ),
            (
                "twolf_mc",
                OptLevel::IlpCs,
                "a0ea1f89d57c13f2f6eba6fb52b8e592",
            ),
        ];
        for (name, level, want) in goldens {
            let w = epic_workloads::by_name(name).unwrap();
            let spec = JobSpec::for_workload(&w, level);
            assert_eq!(spec.predictor, PredictorSpec::default());
            assert_eq!(spec.job_key().hex(), want, "{name} {level:?}");
        }
    }

    #[test]
    fn predictor_changes_job_key_but_not_compile_key() {
        let w = epic_workloads::by_name("mcf_mc").unwrap();
        let base = JobSpec::for_workload(&w, OptLevel::IlpCs);
        let mut keys = vec![base.job_key()];
        for spec in PredictorSpec::ZOO {
            if spec == PredictorSpec::default() {
                continue;
            }
            let mut j = base.clone();
            j.predictor = spec;
            // prediction is a simulation parameter: the compiled
            // artifact is shared, the measurement is not
            assert_eq!(base.compile_key(), j.compile_key(), "{}", spec.name());
            keys.push(j.job_key());
        }
        // a geometry change alone must also separate
        let mut small = base.clone();
        small.predictor = PredictorSpec::Gshare {
            table_bits: 10,
            history_bits: 8,
        };
        keys.push(small.job_key());
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "predictors must never alias in the store");
    }

    /// xorshift64*: a seeded stream, so every generated case replays.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        fn source(&mut self, len: usize) -> String {
            (0..len)
                .map(|_| char::from(b' ' + self.below(95) as u8))
                .collect()
        }

        fn args(&mut self) -> Vec<i64> {
            (0..self.below(4)).map(|_| self.next_u64() as i64).collect()
        }
    }

    /// The memoised key, checked against a hash of the whole canonical
    /// encoding, twice: the second call is a memo hit.
    fn memo_key(spec: &JobSpec) -> CacheKey {
        let want = hash_bytes(&spec.job_canon());
        assert_eq!(spec.job_key(), want, "first call");
        assert_eq!(spec.job_key(), want, "memo hit");
        want
    }

    fn memo_len() -> usize {
        KEY_MEMO.with(|m| m.borrow().entries.len())
    }

    #[test]
    fn memoised_job_keys_equal_the_full_hash_on_random_specs() {
        let base =
            JobSpec::for_workload(&epic_workloads::by_name("mcf_mc").unwrap(), OptLevel::Gcc);
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut keys = std::collections::HashSet::new();
        for _ in 0..300 {
            let mut s = base.clone();
            let len = rng.below(400);
            s.source = rng.source(len);
            s.train_args = rng.args();
            s.ref_args = rng.args();
            s.level = OptLevel::ALL[rng.below(4)];
            s.enable_data_spec = rng.below(2) == 1;
            s.profile_fuel = rng.next_u64();
            s.config.l2.size <<= rng.below(3);
            s.sim_fuel = rng.next_u64();
            s.spec_model = [SpecModel::General, SpecModel::Sentinel][rng.below(2)];
            if rng.below(2) == 1 {
                s.sample = SamplePolicy::Sampled {
                    interval_len: rng.next_u64() % 10_000,
                    max_clusters: rng.below(16),
                    warmup: [Warmup::Cold, Warmup::Ops(rng.next_u64()), Warmup::Full][rng.below(3)],
                };
            }
            s.predictor = PredictorSpec::ZOO[rng.below(PredictorSpec::ZOO.len())];
            keys.insert(memo_key(&s));
            assert!(memo_len() <= KEY_MEMO_CAPACITY);
        }
        assert!(keys.len() > 290, "random specs should rarely coincide");
    }

    #[test]
    fn near_identical_sources_never_share_a_midstate() {
        let base = JobSpec::for_workload(
            &epic_workloads::by_name("gzip_mc").unwrap(),
            OptLevel::IlpCs,
        );
        let prefix = base.source.clone();
        let variants = [
            // same length, same prefix, different endings
            format!("{prefix}ab"),
            format!("{prefix}ba"),
            // differ only in the last byte
            format!("{prefix}a"),
            format!("{prefix}b"),
            // the same bytes one shorter
            prefix[..prefix.len() - 1].to_string(),
        ];
        let mut keys = Vec::new();
        for src in &variants {
            let mut s = base.clone();
            s.source = src.clone();
            keys.push(memo_key(&s));
        }
        // alternate between them: every lookup is a byte-compared hit
        for (src, want) in variants.iter().zip(&keys).rev() {
            let mut s = base.clone();
            s.source = src.clone();
            assert_eq!(s.job_key(), *want);
        }
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n);
    }

    #[test]
    fn tail_fields_reuse_the_source_midstate_and_still_separate_keys() {
        let base =
            JobSpec::for_workload(&epic_workloads::by_name("twolf_mc").unwrap(), OptLevel::Gcc);
        let mut keys = vec![memo_key(&base)];
        let len = memo_len();
        let mut tails = Vec::new();
        for level in [OptLevel::ONs, OptLevel::IlpNs, OptLevel::IlpCs] {
            tails.push(JobSpec {
                level,
                ..base.clone()
            });
        }
        tails.push(JobSpec {
            train_args: vec![1, 2, 3],
            ..base.clone()
        });
        tails.push(JobSpec {
            ref_args: vec![7],
            ..base.clone()
        });
        tails.push(JobSpec {
            sample: SamplePolicy::default_sampled(),
            ..base.clone()
        });
        tails.push(JobSpec {
            predictor: PredictorSpec::Tage,
            ..base.clone()
        });
        for s in &tails {
            keys.push(memo_key(s));
        }
        // one source is one midstate, however its tail varies — except a
        // new training-argument count, which changes the head's length
        // field and so takes an entry of its own
        assert!(memo_len() <= len + 1);
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "tail fields must still separate keys");
    }

    #[test]
    fn more_sources_than_the_memo_holds_evict_without_changing_keys() {
        let base =
            JobSpec::for_workload(&epic_workloads::by_name("vpr_mc").unwrap(), OptLevel::ONs);
        let mut rng = Rng(7);
        let specs: Vec<JobSpec> = (0..2 * KEY_MEMO_CAPACITY + 5)
            .map(|_| {
                let len = 64 + rng.below(64);
                JobSpec {
                    source: rng.source(len),
                    ..base.clone()
                }
            })
            .collect();
        let keys: Vec<CacheKey> = specs.iter().map(memo_key).collect();
        assert_eq!(memo_len(), KEY_MEMO_CAPACITY, "the memo is bounded");
        // the oldest were evicted long ago, the newest are still held:
        // both give the full hash
        for (s, k) in specs.iter().zip(&keys).rev().chain(specs.iter().zip(&keys)) {
            assert_eq!(s.job_key(), *k);
        }
        assert_eq!(memo_len(), KEY_MEMO_CAPACITY);
    }

    #[test]
    fn non_canonical_options_are_not_cacheable() {
        let copts = CompileOptions::for_level(OptLevel::IlpCs);
        let sopts = SimOptions::default();
        assert!(JobSpec::cacheable(&copts, &sopts));
        let mut bugged = copts.clone();
        bugged.inject_bug = true;
        assert!(!JobSpec::cacheable(&bugged, &sopts));
        let mut ablated = copts.clone();
        ablated.ilp_override = Some(Default::default());
        assert!(!JobSpec::cacheable(&ablated, &sopts));
        let mut traced = sopts;
        traced.trace_capacity = 16;
        assert!(!JobSpec::cacheable(&copts, &traced));
    }
}
