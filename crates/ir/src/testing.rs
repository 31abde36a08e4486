//! Deterministic test support: a seeded PRNG and structured random-program
//! generators, replacing the external `proptest`/`rand` crates so the whole
//! test suite builds and runs fully offline.
//!
//! The PRNG is the same LCG the original differential harness used
//! (`state * 6364136223846793005 + 1442695040888963407`, top 31 bits), so
//! every saved regression seed regenerates byte-identical programs.
//!
//! Typical use in a test:
//!
//! ```
//! use epic_ir::testing::Rng;
//! let mut rng = Rng::new(42);
//! let die = rng.pick(6) + 1;
//! assert!((1..=6).contains(&die));
//! ```

use crate::func::mk_br;
use crate::{BlockId, FuncId, Function, Op, Opcode, Operand};

/// Seeded linear-congruential PRNG (Knuth MMIX constants, top 31 bits per
/// draw). Not cryptographic; deterministic across platforms and runs.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw draw (31 significant bits).
    pub fn draw(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 33
    }

    /// A full 64-bit value (two draws).
    pub fn next_u64(&mut self) -> u64 {
        (self.draw() << 33) ^ self.draw()
    }

    /// Uniform in `0..n` (`n == 0` returns 0).
    pub fn pick(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.draw() % n
    }

    /// Uniform index in `0..n` (`n == 0` returns 0).
    pub fn pick_usize(&mut self, n: usize) -> usize {
        self.pick(n as u64) as usize
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.pick(den) < num
    }

    /// A reference to a uniformly chosen element.
    ///
    /// # Panics
    /// Panics if `xs` is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.pick_usize(xs.len())]
    }

    /// Derive an independent stream for case `i` of a test (seed chaining
    /// keeps per-case streams decorrelated without a second algorithm).
    pub fn derive(&self, i: u64) -> Rng {
        let mut r = Rng::new(self.state ^ i.wrapping_mul(0x9E3779B97F4A7C15));
        r.draw();
        r
    }
}

/// Generator of random — but well-formed, terminating, trap-free — MiniC
/// programs covering arithmetic, shifts, comparisons, short-circuit logic,
/// nested ifs, bounded loops, masked array accesses, and calls: the
/// surfaces the structural transforms rewrite. Used by the top-level
/// differential oracle test.
pub struct MiniCGen {
    rng: Rng,
}

impl MiniCGen {
    /// Generator for a seed; the produced program is a pure function of it.
    pub fn new(seed: u64) -> MiniCGen {
        MiniCGen {
            rng: Rng::new(seed),
        }
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.rng.pick(n)
    }

    /// An expression over the in-scope variables.
    fn expr(&mut self, vars: &[String], depth: u32) -> String {
        if depth == 0 || self.pick(3) == 0 {
            return match self.pick(3) {
                0 => format!("{}", self.pick(100) as i64 - 50),
                1 if !vars.is_empty() => vars[self.pick(vars.len() as u64) as usize].clone(),
                _ => format!("g[{} & 63]", self.var_or_const(vars)),
            };
        }
        let a = self.expr(vars, depth - 1);
        let b = self.expr(vars, depth - 1);
        match self.pick(10) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} & {b})"),
            4 => format!("({a} | {b})"),
            5 => format!("({a} ^ {b})"),
            6 => format!("({a} << {})", self.pick(8)),
            7 => format!("({a} >> {})", self.pick(8)),
            8 => format!("(({a}) < ({b}))"),
            _ => format!("(({a}) == ({b}))"),
        }
    }

    fn var_or_const(&mut self, vars: &[String]) -> String {
        if !vars.is_empty() && self.pick(2) == 0 {
            vars[self.pick(vars.len() as u64) as usize].clone()
        } else {
            format!("{}", self.pick(64))
        }
    }

    fn cond(&mut self, vars: &[String]) -> String {
        let a = self.expr(vars, 1);
        let b = self.expr(vars, 1);
        let base = match self.pick(4) {
            0 => format!("({a}) < ({b})"),
            1 => format!("({a}) != ({b})"),
            2 => format!("({a}) >= ({b})"),
            _ => format!("(({a}) & 1) == 0"),
        };
        match self.pick(4) {
            0 => format!("{base} && ({}) < 40", self.expr(vars, 0)),
            1 => format!("{base} || ({}) > 9000", self.expr(vars, 0)),
            _ => base,
        }
    }

    fn stmts(&mut self, vars: &mut Vec<String>, depth: u32, budget: &mut u32) -> String {
        let mut out = String::new();
        let n = 2 + self.pick(4);
        for _ in 0..n {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            match self.pick(8) {
                0 | 1 => {
                    // new local
                    let name = format!("v{}", vars.len());
                    let e = self.expr(vars, 2);
                    out.push_str(&format!("let {name} = {e};\n"));
                    vars.push(name);
                }
                2 | 3 if !vars.is_empty() => {
                    // never assign to loop counters (names `i*`): a
                    // clobbered counter can make the loop non-terminating
                    let assignable: Vec<&String> =
                        vars.iter().filter(|v| !v.starts_with('i')).collect();
                    if let Some(v) = (!assignable.is_empty())
                        .then(|| assignable[self.pick(assignable.len() as u64) as usize].clone())
                    {
                        let e = self.expr(vars, 2);
                        out.push_str(&format!("{v} = {e};\n"));
                    }
                }
                4 => {
                    let idx = self.var_or_const(vars);
                    let e = self.expr(vars, 2);
                    out.push_str(&format!("g[{idx} & 63] = {e};\n"));
                }
                5 if depth > 0 => {
                    let c = self.cond(vars);
                    let scope0 = vars.len();
                    let t = self.stmts(vars, depth - 1, budget);
                    vars.truncate(scope0);
                    let e = self.stmts(vars, depth - 1, budget);
                    vars.truncate(scope0);
                    out.push_str(&format!("if {c} {{\n{t}}} else {{\n{e}}}\n"));
                }
                6 if depth > 0 => {
                    // bounded counter loop
                    let name = format!("i{}", vars.len());
                    let limit = 2 + self.pick(12);
                    let scope0 = vars.len();
                    out.push_str(&format!("let {name} = 0;\nwhile {name} < {limit} {{\n"));
                    vars.push(name.clone());
                    let body = self.stmts(vars, depth - 1, budget);
                    vars.truncate(scope0);
                    out.push_str(&body);
                    out.push_str(&format!("{name} = {name} + 1;\n}}\n"));
                }
                _ => {
                    let e = self.expr(vars, 2);
                    out.push_str(&format!("out({e});\n"));
                }
            }
        }
        out
    }

    /// The complete program: a `helper` function, a `main` exercising it,
    /// and a final checksum loop over the global array so every store is
    /// observable.
    pub fn program(&mut self) -> String {
        let mut vars: Vec<String> = vec!["a0".into(), "a1".into()];
        let mut budget = 60u32;
        let helper_body = {
            let mut hvars = vec!["x".to_string(), "y".to_string()];
            let mut hbudget = 12u32;
            self.stmts(&mut hvars, 1, &mut hbudget)
        };
        let hret = self.expr(&["x".to_string(), "y".to_string()], 2);
        let body = self.stmts(&mut vars, 3, &mut budget);
        let call = format!(
            "out(helper({}, {}));\n",
            self.expr(&vars, 1),
            self.expr(&vars, 1)
        );
        let tail =
            "let k = 0;\nlet h = 0;\nwhile k < 64 { h = h * 31 + g[k]; k = k + 1; }\nout(h);\n";
        format!(
            "global g: [int; 64];\n\
             fn helper(x: int, y: int) -> int {{\n{helper_body}return {hret};\n}}\n\
             fn main(a0: int, a1: int) {{\n{body}{call}{tail}}}\n"
        )
    }
}

/// Generate the MiniC program for a seed (convenience wrapper).
pub fn minic_program(seed: u64) -> String {
    MiniCGen::new(seed).program()
}

/// What a [`MutationPoint`] refers to, so a mutation engine can pick a
/// semantically sensible rewrite per site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// An integer literal anywhere mutation is safe.
    IntConst,
    /// The bound constant of a `while i < N {` counter loop (rewrites must
    /// stay small and positive to preserve termination).
    LoopBound,
    /// A two-operand arithmetic/bitwise/shift operator.
    BinOp,
    /// A comparison operator.
    CmpOp,
    /// The full condition of an `if COND {` header.
    Guard,
}

/// A rewritable site in MiniC source: the byte span `start..end` of the
/// token (or condition) within the whole source string.
#[derive(Clone, Copy, Debug)]
pub struct MutationPoint {
    /// Byte offset of the site in the source.
    pub start: usize,
    /// Byte offset one past the site.
    pub end: usize,
    /// What lives at the site.
    pub kind: MutationKind,
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// True for generator-style counter-increment lines (`iN = iN + 1;`),
/// which must never be mutated: a perturbed increment can make the
/// enclosing loop non-terminating.
fn is_counter_increment(trimmed: &str) -> bool {
    let Some((lhs, rhs)) = trimmed.split_once('=') else {
        return false;
    };
    let lhs = lhs.trim();
    if !lhs.starts_with('i') || !lhs[1..].bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    rhs.trim() == format!("{lhs} + 1;")
}

/// Scan MiniC source for mutation points: integer constants, binary and
/// comparison operators, loop bounds, and `if` guards. Counter-increment
/// lines and `while`-header operators are deliberately excluded so every
/// mutant still terminates; everything else is fair game (a mutant that
/// fails the frontend is simply rejected by the fuzz loop).
pub fn mutation_points(src: &str) -> Vec<MutationPoint> {
    let mut points = Vec::new();
    let mut line_start = 0usize;
    for line in src.split_inclusive('\n') {
        let base = line_start;
        line_start += line.len();
        let trimmed = line.trim();
        if trimmed.starts_with("fn ")
            || trimmed.starts_with("global ")
            || is_counter_increment(trimmed)
        {
            continue;
        }
        if trimmed.starts_with("while ") {
            // only the bound constant is mutable on a loop header
            if let Some(lt) = line.find('<') {
                let b = line.as_bytes();
                let mut s = lt + 1;
                while s < b.len() && b[s] == b' ' {
                    s += 1;
                }
                let mut e = s;
                while e < b.len() && b[e].is_ascii_digit() {
                    e += 1;
                }
                if e > s {
                    points.push(MutationPoint {
                        start: base + s,
                        end: base + e,
                        kind: MutationKind::LoopBound,
                    });
                }
            }
            continue;
        }
        if trimmed.starts_with("if ") {
            // the whole condition between `if ` and the opening brace
            let cond_start = line.find("if ").expect("checked") + 3;
            if let Some(brace) = line.rfind('{') {
                let cond = line[cond_start..brace].trim_end();
                if !cond.is_empty() {
                    points.push(MutationPoint {
                        start: base + cond_start,
                        end: base + cond_start + cond.len(),
                        kind: MutationKind::Guard,
                    });
                }
            }
        }
        let b = line.as_bytes();
        let mut i = 0usize;
        while i < b.len() {
            let c = b[i];
            // two-character operators first
            if i + 1 < b.len() {
                let two = &line[i..i + 2];
                if matches!(two, "==" | "!=" | "<=" | ">=") {
                    points.push(MutationPoint {
                        start: base + i,
                        end: base + i + 2,
                        kind: MutationKind::CmpOp,
                    });
                    i += 2;
                    continue;
                }
                if matches!(two, "<<" | ">>") {
                    points.push(MutationPoint {
                        start: base + i,
                        end: base + i + 2,
                        kind: MutationKind::BinOp,
                    });
                    i += 2;
                    continue;
                }
                if matches!(two, "&&" | "||") {
                    i += 2; // structural; covered by Guard rewrites
                    continue;
                }
            }
            if c.is_ascii_digit() {
                if i > 0 && is_ident_char(b[i - 1]) {
                    // digits inside an identifier (v12, i3)
                    i += 1;
                    while i < b.len() && is_ident_char(b[i]) {
                        i += 1;
                    }
                    continue;
                }
                let s = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                points.push(MutationPoint {
                    start: base + s,
                    end: base + i,
                    kind: MutationKind::IntConst,
                });
                continue;
            }
            match c {
                b'<' | b'>' => points.push(MutationPoint {
                    start: base + i,
                    end: base + i + 1,
                    kind: MutationKind::CmpOp,
                }),
                b'+' | b'*' | b'&' | b'|' | b'^' | b'/' | b'%' => points.push(MutationPoint {
                    start: base + i,
                    end: base + i + 1,
                    kind: MutationKind::BinOp,
                }),
                b'-' => {
                    // binary minus only; unary minus belongs to the literal
                    let prev = line[..i].trim_end().bytes().last();
                    if prev.is_some_and(|p| is_ident_char(p) || p == b')' || p == b']') {
                        points.push(MutationPoint {
                            start: base + i,
                            end: base + i + 1,
                            kind: MutationKind::BinOp,
                        });
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    points
}

/// A deletable/duplicable span of source lines: a single statement, or a
/// whole block construct (`if`/`while`/`fn`) including its matching brace.
/// Spans overlap — a block chunk contains its interior statement chunks —
/// so consumers get both coarse and fine granularities from one scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrcChunk {
    /// First line index (0-based) of the span.
    pub first: usize,
    /// Last line index, inclusive.
    pub last: usize,
}

impl SrcChunk {
    /// Line count of the span.
    pub fn len(&self) -> usize {
        self.last - self.first + 1
    }

    /// Never true (a chunk spans at least one line); keeps clippy happy.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Scan MiniC source into deletable chunks (see [`SrcChunk`]). Pure
/// closer/continuation lines (`}`, `} else {`) are not chunks themselves;
/// they travel with the block chunk that owns them.
pub fn statement_chunks(src: &str) -> Vec<SrcChunk> {
    let lines: Vec<&str> = src.lines().collect();
    let net = |l: &str| {
        l.bytes().filter(|&b| b == b'{').count() as i64
            - l.bytes().filter(|&b| b == b'}').count() as i64
    };
    let mut chunks = Vec::new();
    let mut depth = 0i64;
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim();
        let n = net(line);
        let starts_closed = trimmed.starts_with('}');
        if !trimmed.is_empty() && !starts_closed {
            if n > 0 {
                // block construct: span to where the net returns to zero
                let mut acc = n;
                let mut j = i;
                while acc > 0 && j + 1 < lines.len() {
                    j += 1;
                    acc += net(lines[j]);
                }
                if acc == 0 {
                    chunks.push(SrcChunk { first: i, last: j });
                }
            } else if n == 0 && depth >= 1 {
                chunks.push(SrcChunk { first: i, last: i });
            }
        }
        depth += n;
    }
    chunks
}

/// Rebuild source keeping only the lines where `keep[i]` is true (the
/// sub-program extraction primitive used by the shrinker and mutator).
pub fn remove_lines(src: &str, keep: &[bool]) -> String {
    let mut out = String::new();
    for (i, line) in src.lines().enumerate() {
        if keep.get(i).copied().unwrap_or(true) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// A random multi-block function with real dataflow, predicated ops, and
/// arbitrary (possibly unreachable) control flow — the liveness and
/// verifier property tests' input distribution.
pub fn random_dataflow_cfg(seed: u64) -> Function {
    let mut rng = Rng::new(seed);
    let mut f = Function::new(FuncId(0), "t");
    let nblocks = 2 + rng.pick(5) as usize;
    for _ in 1..nblocks {
        f.add_block();
    }
    let nregs = 3 + rng.pick(6);
    let regs: Vec<_> = (0..nregs).map(|_| f.new_vreg()).collect();
    for b in 0..nblocks {
        let mut ops = Vec::new();
        for _ in 0..rng.pick(6) {
            let d = regs[rng.pick(nregs) as usize];
            let a = regs[rng.pick(nregs) as usize];
            let c = regs[rng.pick(nregs) as usize];
            let mut op = Op::new(
                f.new_op_id(),
                Opcode::Add,
                vec![d],
                vec![Operand::Reg(a), Operand::Reg(c)],
            );
            if rng.pick(4) == 0 {
                op.guard = Some(regs[rng.pick(nregs) as usize]);
            }
            ops.push(op);
        }
        // terminator: branch to a random block or return
        if rng.pick(4) == 0 || nblocks == 1 {
            let val = regs[rng.pick(nregs) as usize];
            ops.push(Op::new(
                f.new_op_id(),
                Opcode::Ret,
                vec![],
                vec![Operand::Reg(val)],
            ));
        } else {
            let t = BlockId(rng.pick(nblocks as u64) as u32);
            if rng.pick(2) == 0 {
                let mut c = mk_br(f.new_op_id(), BlockId(rng.pick(nblocks as u64) as u32));
                c.guard = Some(regs[rng.pick(nregs) as usize]);
                ops.push(c);
            }
            ops.push(mk_br(f.new_op_id(), t));
        }
        f.block_mut(BlockId(b as u32)).ops = ops;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            let x = a.pick(10);
            assert_eq!(x, b.pick(10));
            assert!(x < 10);
        }
        assert_eq!(Rng::new(3).pick(0), 0);
    }

    #[test]
    fn derived_streams_differ() {
        let base = Rng::new(1);
        let xs: Vec<u64> = (0..4).map(|i| base.derive(i).next_u64()).collect();
        for i in 0..xs.len() {
            for j in i + 1..xs.len() {
                assert_ne!(xs[i], xs[j]);
            }
        }
    }

    #[test]
    fn minic_generator_is_deterministic() {
        assert_eq!(minic_program(42), minic_program(42));
        assert_ne!(minic_program(1), minic_program(2));
    }

    #[test]
    fn random_cfgs_are_deterministic() {
        let a = random_dataflow_cfg(9);
        let b = random_dataflow_cfg(9);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    const SNIPPET: &str = "global g: [int; 64];\n\
         fn main(a0: int, a1: int) {\n\
         let v2 = (a0 + 7);\n\
         if (v2) < (a1) {\n\
         g[v2 & 63] = -3;\n\
         } else {\n\
         out(v2);\n\
         }\n\
         let i5 = 0;\n\
         while i5 < 9 {\n\
         out((i5 << 2));\n\
         i5 = i5 + 1;\n\
         }\n\
         out(a1);\n\
         }\n";

    #[test]
    fn mutation_points_classify_sites() {
        let pts = mutation_points(SNIPPET);
        let at = |start: usize| pts.iter().find(|p| p.start == start);
        // constants, operators, guards exist; loop header yields exactly
        // one LoopBound; counter increment line yields nothing
        assert!(pts.iter().any(|p| p.kind == MutationKind::IntConst));
        assert!(pts.iter().any(|p| p.kind == MutationKind::BinOp));
        assert!(pts.iter().any(|p| p.kind == MutationKind::CmpOp));
        assert!(pts.iter().any(|p| p.kind == MutationKind::Guard));
        let bounds: Vec<_> = pts
            .iter()
            .filter(|p| p.kind == MutationKind::LoopBound)
            .collect();
        assert_eq!(bounds.len(), 1);
        assert_eq!(&SNIPPET[bounds[0].start..bounds[0].end], "9");
        let inc = SNIPPET.find("i5 = i5 + 1").unwrap();
        assert!(
            !pts.iter().any(|p| p.start >= inc && p.start < inc + 11),
            "counter increment must not be mutable"
        );
        // digits inside identifiers are not constants
        let v2use = SNIPPET.find("g[v2").unwrap() + 3;
        assert!(at(v2use).is_none());
        // every span is a sane slice
        for p in &pts {
            assert!(p.start < p.end && p.end <= SNIPPET.len());
            assert!(!SNIPPET[p.start..p.end].is_empty());
        }
    }

    #[test]
    fn statement_chunks_cover_blocks_and_statements() {
        let chunks = statement_chunks(SNIPPET);
        let lines: Vec<&str> = SNIPPET.lines().collect();
        // the if/else block is one chunk spanning header..closing brace
        let if_line = lines.iter().position(|l| l.starts_with("if ")).unwrap();
        let if_chunk = chunks.iter().find(|c| c.first == if_line).unwrap();
        assert_eq!(lines[if_chunk.last], "}");
        assert!(if_chunk.len() >= 4);
        // the while block is one chunk, and its interior statements are
        // separate (overlapping) chunks
        let wh = lines.iter().position(|l| l.starts_with("while ")).unwrap();
        let wh_chunk = chunks.iter().find(|c| c.first == wh).unwrap();
        assert!(wh_chunk.last > wh);
        assert!(chunks.iter().any(|c| c.first == wh + 1 && c.last == wh + 1));
        // the whole fn is a chunk; pure closers are not
        let fn_line = lines.iter().position(|l| l.starts_with("fn ")).unwrap();
        assert!(chunks.iter().any(|c| c.first == fn_line));
        assert!(!chunks
            .iter()
            .any(|c| lines[c.first].trim().starts_with('}')));
    }

    #[test]
    fn remove_lines_extracts_subprograms() {
        let src = "a\nb\nc\n";
        assert_eq!(remove_lines(src, &[true, false, true]), "a\nc\n");
        assert_eq!(remove_lines(src, &[true, true, true]), src);
    }

    #[test]
    fn generated_programs_scan_cleanly() {
        for seed in [0u64, 7, 99] {
            let src = minic_program(seed);
            let pts = mutation_points(&src);
            assert!(!pts.is_empty());
            let chunks = statement_chunks(&src);
            assert!(!chunks.is_empty());
            let nlines = src.lines().count();
            for c in &chunks {
                assert!(c.first <= c.last && c.last < nlines);
            }
        }
    }
}
