//! Binary serialization of a full [`Measurement`] — the artifact store's
//! on-disk format and the wire format of the `epicd` protocol.
//!
//! Std-only and hand-rolled (the PR 1 rule bans serde): fixed-width
//! little-endian scalars, length-prefixed sequences, a magic/version
//! header, and a strict decoder that treats any trailing or missing
//! bytes as corruption. The encoding is deterministic — equal
//! measurements encode to equal bytes — which is what lets
//! [`digest`] stand in for bit-identity comparisons across processes.

use crate::key::{self, hash_bytes, CacheKey};
use epic_driver::{CompiledStats, Measurement, PassRecord, PassTimeline};
use epic_sim::{
    Counters, CycleAccounting, FuncMatrix, SampleInfo, SimResult, NUM_CATEGORIES, NUM_COUNTERS,
};
use std::time::Duration;

/// On-disk / on-wire format version. Bump on any layout change.
/// (2: sampled-simulation metadata appended to the sim result.)
pub const FORMAT_VERSION: u32 = 2;

/// Magic prefix of every serialized measurement.
pub const MAGIC: &[u8; 4] = b"EPSV";

/// Every pass name the driver can emit, so decoded [`PassRecord`]s get
/// their `&'static str` back without leaking. An unknown name decodes as
/// `"?"` — only reachable if a cache written by a *newer* build is read
/// without the format version having been bumped, which the version
/// check already rejects.
const PASS_NAMES: &[&str] = &[
    "profile",
    "promote",
    "inline",
    "classical",
    "bug-inject",
    "alias",
    "ilp-transform",
    "data-spec",
    "verify",
    "schedule",
    "mach-check",
];

fn intern_pass_name(name: &str) -> &'static str {
    PASS_NAMES
        .iter()
        .find(|&&n| n == name)
        .copied()
        .unwrap_or("?")
}

/// A decode failure (corrupt or version-skewed bytes).
#[derive(Clone, Debug, PartialEq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// Where encoders write: a buffer ([`Enc`]) or, for canonical job
/// bytes, the key hasher itself ([`Fnv`](crate::key::Fnv)), so a key
/// needs no buffer at all. Scalars are fixed-width little-endian;
/// sequences are length-prefixed.
pub trait Sink {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Append one byte.
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Append a bool as one byte.
    fn bool(&mut self, v: bool) {
        self.put(&[v as u8]);
    }

    /// Append a `u32`, little-endian.
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    fn i64(&mut self, v: i64) {
        self.put(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a `usize` as `u64`.
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a length-prefixed byte string.
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.put(v);
    }

    /// Append a length-prefixed UTF-8 string.
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a length-prefixed `i64` slice.
    fn i64s(&mut self, v: &[i64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.i64(x);
        }
    }

    /// Append a length-prefixed `u64` slice.
    fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
}

/// Byte writer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Sink for Enc {
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

impl Enc {
    /// Empty writer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The accumulated bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// A writer over a caller-supplied buffer: the buffer is cleared but
    /// its capacity is kept, so encoding into a long-lived scratch `Vec`
    /// allocates nothing once the buffer has grown to working size (the
    /// event loop's per-connection write path relies on this).
    pub fn with_buf(mut buf: Vec<u8>) -> Enc {
        buf.clear();
        Enc { buf }
    }

    /// Append a length-prefixed sub-encoding without materializing it in
    /// a separate allocation: writes a `u64` length placeholder, runs
    /// `f` in place, then backpatches the placeholder. Byte-compatible
    /// with [`bytes`](Enc::bytes) of the same payload.
    pub fn nested(&mut self, f: impl FnOnce(&mut Enc)) {
        let at = self.buf.len();
        self.u64(0);
        f(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// Strict byte reader over an encoded buffer.
pub struct Dec<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Dec<'a> {
    /// Reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { b: bytes, i: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.b.len() - self.i
    }

    /// Fail unless every byte was consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            err(format!("{} trailing bytes", self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err(format!("truncated: wanted {n}, have {}", self.remaining()));
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (any nonzero byte is true).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `usize` (bounded by the buffer size to fail fast on
    /// corrupt lengths).
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        if v > self.b.len() as u64 {
            return err(format!("implausible length {v}"));
        }
        Ok(v as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string in place.
    pub fn text(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError("invalid UTF-8".into()))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.text().map(str::to_string)
    }

    /// Read a length-prefixed `i64` slice.
    pub fn i64s(&mut self) -> Result<Vec<i64>, CodecError> {
        let n = self.usize()?;
        (0..n).map(|_| self.i64()).collect()
    }

    /// Read a length-prefixed `u64` slice.
    pub fn u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.usize()?;
        (0..n).map(|_| self.u64()).collect()
    }
}

fn enc_ilp(e: &mut Enc, s: &epic_core::IlpStats) {
    e.usize(s.loops_peeled);
    e.usize(s.regions_converted);
    e.usize(s.branches_removed);
    e.usize(s.traces);
    e.usize(s.tail_dups);
    e.usize(s.loops_unrolled);
    e.usize(s.dup_ops);
    e.usize(s.loads_promoted);
    e.usize(s.chks_inserted);
    e.usize(s.chains_reassociated);
    e.usize(s.loads_advanced);
    e.usize(s.ops_before);
    e.usize(s.ops_after);
}

fn dec_ilp(d: &mut Dec) -> Result<epic_core::IlpStats, CodecError> {
    Ok(epic_core::IlpStats {
        loops_peeled: d.usize()?,
        regions_converted: d.usize()?,
        branches_removed: d.usize()?,
        traces: d.usize()?,
        tail_dups: d.usize()?,
        loops_unrolled: d.usize()?,
        dup_ops: d.usize()?,
        loads_promoted: d.usize()?,
        chks_inserted: d.usize()?,
        chains_reassociated: d.usize()?,
        loads_advanced: d.usize()?,
        ops_before: d.usize()?,
        ops_after: d.usize()?,
    })
}

fn enc_counters(e: &mut Enc, c: &Counters) {
    for v in c.to_array() {
        e.u64(v);
    }
}

fn dec_counters(d: &mut Dec) -> Result<Counters, CodecError> {
    let mut a = [0u64; NUM_COUNTERS];
    for v in &mut a {
        *v = d.u64()?;
    }
    Ok(Counters::from_array(a))
}

fn enc_sample(e: &mut Enc, s: &Option<SampleInfo>) {
    match s {
        None => e.bool(false),
        Some(s) => {
            e.bool(true);
            e.u64(s.interval_len);
            e.usize(s.intervals);
            e.usize(s.clusters);
            e.u64(s.total_ops);
            e.u64(s.sampled_ops);
            e.f64(s.est_error);
            e.bool(s.fallback);
            e.usize(s.phases.len());
            for &p in &s.phases {
                e.u32(p);
            }
        }
    }
}

fn dec_sample(d: &mut Dec) -> Result<Option<SampleInfo>, CodecError> {
    if !d.bool()? {
        return Ok(None);
    }
    Ok(Some(SampleInfo {
        interval_len: d.u64()?,
        intervals: d.usize()?,
        clusters: d.usize()?,
        total_ops: d.u64()?,
        sampled_ops: d.u64()?,
        est_error: d.f64()?,
        fallback: d.bool()?,
        phases: {
            let n = d.usize()?;
            (0..n).map(|_| d.u32()).collect::<Result<Vec<_>, _>>()?
        },
    }))
}

fn encode_into(e: &mut Enc, m: &Measurement, zero_wall: bool) {
    e.u8(key::level_tag(m.level));
    let c = &m.compiled;
    e.f64(c.plan.planned_cycles);
    e.f64(c.plan.planned_ops);
    e.u32(c.plan.max_window);
    e.usize(c.plan.spills);
    enc_ilp(e, &c.ilp);
    e.usize(c.inlined);
    e.usize(c.promoted);
    e.u64(c.code_bytes);
    e.usize(c.static_ops.0);
    e.usize(c.static_ops.1);
    e.usize(c.frontend_ops);
    e.usize(c.func_names.len());
    for n in &c.func_names {
        e.str(n);
    }
    e.usize(c.pass_timeline.passes.len());
    for p in &c.pass_timeline.passes {
        e.str(p.name);
        e.u64(if zero_wall {
            0
        } else {
            p.wall.as_nanos() as u64
        });
        e.usize(p.ops_before);
        e.usize(p.ops_after);
        e.usize(p.blocks_before);
        e.usize(p.blocks_after);
    }
    let s = &m.sim;
    e.u64s(&s.output);
    e.u64(s.checksum);
    e.u64(s.ret);
    e.u64(s.cycles);
    for &v in s.acct.cells() {
        e.u64(v);
    }
    enc_counters(e, &s.counters);
    e.usize(s.func_matrix.num_funcs());
    for row in s.func_matrix.rows() {
        for &v in row {
            e.u64(v);
        }
    }
    enc_sample(e, &s.sample);
}

/// Serialize a measurement (header + body). The ring trace, if any, is
/// deliberately dropped: cached jobs always run untraced.
pub fn encode_measurement(m: &Measurement) -> Vec<u8> {
    let mut e = Enc::new();
    e.put(MAGIC);
    e.u32(FORMAT_VERSION);
    encode_into(&mut e, m, false);
    e.finish()
}

/// Deserialize a measurement encoded by [`encode_measurement`].
///
/// # Errors
/// Any truncation, trailing bytes, bad magic, or version skew.
pub fn decode_measurement(bytes: &[u8]) -> Result<Measurement, CodecError> {
    let mut d = Dec::new(bytes);
    if d.take(4)? != MAGIC {
        return err("bad magic");
    }
    let v = d.u32()?;
    if v != FORMAT_VERSION {
        return err(format!("format version {v}, expected {FORMAT_VERSION}"));
    }
    let m = decode_measurement_body(&mut d)?;
    d.expect_end()?;
    Ok(m)
}

/// Decode the body of a measurement (no header) — used by the wire
/// protocol, whose frames carry their own version.
pub fn decode_measurement_body(d: &mut Dec) -> Result<Measurement, CodecError> {
    let level = key::level_from_tag(d.u8()?).ok_or(CodecError("bad level tag".into()))?;
    let plan = epic_sched::PlanStats {
        planned_cycles: d.f64()?,
        planned_ops: d.f64()?,
        max_window: d.u32()?,
        spills: d.usize()?,
    };
    let ilp = dec_ilp(d)?;
    let inlined = d.usize()?;
    let promoted = d.usize()?;
    let code_bytes = d.u64()?;
    let static_ops = (d.usize()?, d.usize()?);
    let frontend_ops = d.usize()?;
    let nf = d.usize()?;
    let func_names = (0..nf).map(|_| d.str()).collect::<Result<Vec<_>, _>>()?;
    let np = d.usize()?;
    let mut passes = Vec::with_capacity(np);
    for _ in 0..np {
        let name = intern_pass_name(d.text()?);
        passes.push(PassRecord {
            name,
            wall: Duration::from_nanos(d.u64()?),
            ops_before: d.usize()?,
            ops_after: d.usize()?,
            blocks_before: d.usize()?,
            blocks_after: d.usize()?,
        });
    }
    let output = d.u64s()?;
    let checksum = d.u64()?;
    let ret = d.u64()?;
    let cycles = d.u64()?;
    let mut cells = [0u64; NUM_CATEGORIES];
    for c in &mut cells {
        *c = d.u64()?;
    }
    let counters = dec_counters(d)?;
    let nrows = d.usize()?;
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = [0u64; NUM_CATEGORIES];
        for c in &mut row {
            *c = d.u64()?;
        }
        rows.push(row);
    }
    let sample = dec_sample(d)?;
    Ok(Measurement {
        level,
        compiled: CompiledStats {
            plan,
            ilp,
            inlined,
            promoted,
            code_bytes,
            static_ops,
            frontend_ops,
            func_names,
            pass_timeline: PassTimeline { passes },
        },
        sim: SimResult {
            output,
            checksum,
            ret,
            cycles,
            acct: CycleAccounting::from_cells(cells),
            counters,
            func_matrix: FuncMatrix::from_rows(rows),
            trace: Vec::new(),
            sample,
        },
    })
}

/// Encode the body of a measurement (no header) into an existing writer
/// — the wire-protocol counterpart of [`decode_measurement_body`].
pub fn encode_measurement_body(e: &mut Enc, m: &Measurement) {
    encode_into(e, m, false);
}

/// Append a length-prefixed full measurement (header included) in place:
/// byte-identical to `e.bytes(&encode_measurement(m))` without the
/// intermediate allocation. The decode counterpart is `d.bytes()` +
/// [`decode_measurement`].
pub fn encode_measurement_framed(e: &mut Enc, m: &Measurement) {
    e.nested(|e| {
        e.put(MAGIC);
        e.u32(FORMAT_VERSION);
        encode_into(e, m, false);
    });
}

/// A deterministic content digest of everything reproducible in a
/// measurement: pass wall times (the only nondeterministic field) are
/// zeroed before hashing, so two runs of the same job — fresh, cached,
/// served, local — digest identically exactly when they are
/// bit-identical in cycles, all nine categories, every counter, the
/// per-function matrix, the output stream, and all static statistics.
pub fn digest(m: &Measurement) -> CacheKey {
    let mut e = Enc::new();
    encode_into(&mut e, m, true);
    hash_bytes(&e.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::dummy_measurement;

    #[test]
    fn measurement_round_trips_bit_identically() {
        let m = dummy_measurement(12345);
        let bytes = encode_measurement(&m);
        let back = decode_measurement(&bytes).unwrap();
        assert_eq!(digest(&m), digest(&back));
        assert_eq!(m.sim.output, back.sim.output);
        assert_eq!(m.sim.cycles, back.sim.cycles);
        assert_eq!(m.sim.acct, back.sim.acct);
        assert_eq!(m.sim.counters, back.sim.counters);
        assert_eq!(m.sim.func_matrix, back.sim.func_matrix);
        assert_eq!(m.compiled.func_names, back.compiled.func_names);
        assert_eq!(m.compiled.code_bytes, back.compiled.code_bytes);
        assert_eq!(
            m.compiled.pass_timeline.passes.len(),
            back.compiled.pass_timeline.passes.len()
        );
        // the full re-encoding is byte-identical too
        assert_eq!(bytes, encode_measurement(&back));
    }

    #[test]
    fn corruption_is_rejected_not_misread() {
        let m = dummy_measurement(7);
        let bytes = encode_measurement(&m);
        assert!(decode_measurement(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_measurement(&[]).is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert!(decode_measurement(&wrong_magic).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[4] ^= 0xff;
        assert!(decode_measurement(&wrong_version).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_measurement(&trailing).is_err());
    }

    #[test]
    fn framed_encoding_matches_bytes_of_encode_measurement() {
        let m = dummy_measurement(42);
        let mut reference = Enc::new();
        reference.bytes(&encode_measurement(&m));
        let mut framed = Enc::new();
        encode_measurement_framed(&mut framed, &m);
        assert_eq!(reference.finish(), framed.finish());
    }

    #[test]
    fn with_buf_reuses_capacity_and_nested_backpatches() {
        let mut e = Enc::with_buf(Vec::with_capacity(256));
        e.nested(|e| {
            e.str("abc");
            e.u8(7);
        });
        let bytes = e.finish();
        let cap = bytes.capacity();
        assert_eq!(cap, 256, "with_buf must keep the caller's capacity");
        let mut d = Dec::new(&bytes);
        let inner = d.bytes().unwrap().to_vec();
        d.expect_end().unwrap();
        let mut id = Dec::new(&inner);
        assert_eq!(id.str().unwrap(), "abc");
        assert_eq!(id.u8().unwrap(), 7);
        // a second encode into the same buffer starts clean
        let mut e = Enc::with_buf(bytes);
        e.u8(1);
        let again = e.finish();
        assert_eq!(again, vec![1]);
        assert_eq!(again.capacity(), cap);
    }

    #[test]
    fn digest_ignores_wall_time_but_not_results() {
        let mut a = dummy_measurement(1);
        let mut b = dummy_measurement(1);
        if let Some(p) = b.compiled.pass_timeline.passes.first_mut() {
            p.wall = Duration::from_millis(999);
        }
        assert_eq!(digest(&a), digest(&b), "wall time must not affect digest");
        a.sim.cycles += 1;
        assert_ne!(digest(&a), digest(&b), "cycles must affect digest");
        let mut c = dummy_measurement(1);
        c.sim.counters.l3_misses += 1;
        assert_ne!(digest(&b), digest(&c), "counters must affect digest");
    }
}
