//! What the benchmark feeds the system: the cell sets of each workload,
//! the seeded request streams, and the golden bytes every output is
//! checked against.

use epic_driver::{Measurement, OptLevel};
use epic_serve::JobSpec;
use epic_workloads::Workload;
use std::collections::HashMap;

/// The seven workloads whose exact cells take more than a second each.
pub const HEAVY: [&str; 7] = [
    "vpr_mc",
    "mcf_mc",
    "crafty_mc",
    "parser_mc",
    "perlbmk_mc",
    "gap_mc",
    "twolf_mc",
];

/// The other five.
pub const LIGHT: [&str; 5] = ["gzip_mc", "gcc_mc", "eon_mc", "vortex_mc", "bzip2_mc"];

/// The cold matrix: two heavy and two light workloads at all four levels.
/// The set is fixed and the seed only orders it: drawing the set per
/// seed made the seed-to-seed spread of the matrix time (and of the
/// sampled error) far wider than any useful regression bound, because
/// the twelve workloads' costs differ by 40x. perlbmk and gap are the
/// cheapest heavy pair.
pub const COLD_HEAVY: [&str; 2] = ["perlbmk_mc", "gap_mc"];
/// See [`COLD_HEAVY`].
pub const COLD_LIGHT: [&str; 2] = ["gzip_mc", "vortex_mc"];

/// Connection B of `mixed_fleet`: six heavy cells spread over all four
/// levels so every pass runs, from the cheapest heavy workloads (and
/// memory-bound mcf) so the workload stays well under 30 s. The order is
/// fixed: where mcf falls in it moved the fleet's peak RSS by up to 11%
/// from one seed to another.
pub const MIXED_B: [(&str, OptLevel); 6] = [
    ("perlbmk_mc", OptLevel::Gcc),
    ("perlbmk_mc", OptLevel::ONs),
    ("gap_mc", OptLevel::IlpNs),
    ("gap_mc", OptLevel::IlpCs),
    ("mcf_mc", OptLevel::IlpNs),
    ("perlbmk_mc", OptLevel::IlpCs),
];

/// One (workload, level) cell of the 12 × 4 matrix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cell {
    /// Workload name, e.g. `gzip_mc`.
    pub workload: &'static str,
    /// Compiler configuration.
    pub level: OptLevel,
}

impl Cell {
    /// The bundled workload this cell compiles.
    pub fn load(&self) -> Workload {
        epic_workloads::by_name(self.workload).expect("cell names a bundled workload")
    }

    /// The canonical job for this cell under default options.
    pub fn spec(&self) -> JobSpec {
        JobSpec::for_workload(&self.load(), self.level)
    }
}

fn row(names: &[&'static str]) -> Vec<Cell> {
    names
        .iter()
        .flat_map(|&workload| OptLevel::ALL.map(|level| Cell { workload, level }))
        .collect()
}

/// The cold matrix, one program's four levels after another, with the
/// programs in seeded order.
pub fn cold_cells(seed: u64) -> Vec<Cell> {
    let mut programs = [COLD_HEAVY[0], COLD_HEAVY[1], COLD_LIGHT[0], COLD_LIGHT[1]];
    Rng::new(seed ^ 0xc).shuffle(&mut programs);
    row(&programs)
}

/// The warm set: the twelve cells of eon, vortex and bzip2, most
/// simulated cycles first. The three-shard ring places their keys four
/// to a shard: with eon and bzip2 alone, shard 1 held no key and
/// `warm_fleet`'s p50 flipped between 11 and 16 ms from run to run.
/// gzip is left out to keep set-up, which every run does three times,
/// short; gcc's cells take 0.8 s, past `epicg`'s default 250 ms hedge
/// delay, so warming them through the gateway would hedge each one
/// (`mixed_fleet`'s connection B is where hedging is measured).
pub fn warm_cells(golden: &Golden) -> Vec<Cell> {
    let mut cells = row(&["eon_mc", "vortex_mc", "bzip2_mc"]);
    cells.sort_by_key(|c| std::cmp::Reverse(golden.get(c).map_or(0, |g| g.cycles)));
    cells
}

/// Connection B's cells, then every other heavy cell: the tail B keeps
/// submitting (untimed) until connection A has enough samples for its
/// p99.
pub fn mixed_b_cells() -> (Vec<Cell>, Vec<Cell>) {
    let timed: Vec<Cell> = MIXED_B
        .iter()
        .map(|&(workload, level)| Cell { workload, level })
        .collect();
    let extra = row(&HEAVY)
        .into_iter()
        .filter(|c| !timed.contains(c))
        .collect();
    (timed, extra)
}

/// splitmix64: a tiny, well-mixed, reproducible generator — the only
/// source of randomness in the benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The request stream of connection `conn` under `seed`.
    pub fn stream(seed: u64, conn: u64) -> Rng {
        Rng::new(seed ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One golden `cell` line, parsed.
#[derive(Clone, Debug)]
pub struct GoldenCell {
    /// The whole line, byte for byte.
    pub line: String,
    /// Exact simulated cycles.
    pub cycles: u64,
    /// Output checksum.
    pub checksum: u64,
    /// `epic_serve::digest` of the exact measurement, in hex.
    pub digest: String,
}

/// The 48 `cell` lines `epicc matrix --no-cache` printed when the
/// benchmark was defined, compiled into the binary.
pub struct Golden(HashMap<(String, String), GoldenCell>);

impl Golden {
    /// Parse the bundled `golden_cells.txt`.
    pub fn bundled() -> Golden {
        Golden::parse(include_str!("../golden_cells.txt")).expect("bundled golden file parses")
    }

    /// Parse `cell <workload> <level> cycles=N checksum=HEX digest=HEX`
    /// lines.
    ///
    /// # Errors
    /// The first malformed line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut cells = HashMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let f: Vec<&str> = line.split(' ').collect();
            let field = |i: usize, key: &str| {
                f.get(i)
                    .and_then(|s| s.strip_prefix(key))
                    .ok_or_else(|| format!("malformed golden line: {line}"))
            };
            if f.len() != 6 || f[0] != "cell" {
                return Err(format!("malformed golden line: {line}"));
            }
            let cycles = field(3, "cycles=")?
                .parse()
                .map_err(|e| format!("{line}: {e}"))?;
            let checksum = u64::from_str_radix(field(4, "checksum=")?, 16)
                .map_err(|e| format!("{line}: {e}"))?;
            let digest = field(5, "digest=")?.to_string();
            cells.insert(
                (f[1].to_string(), f[2].to_string()),
                GoldenCell {
                    line: line.to_string(),
                    cycles,
                    checksum,
                    digest,
                },
            );
        }
        Ok(Golden(cells))
    }

    /// Number of golden cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no cell is recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The golden record of `cell`.
    pub fn get(&self, cell: &Cell) -> Option<&GoldenCell> {
        self.0
            .get(&(cell.workload.to_string(), cell.level.name().to_string()))
    }

    fn want(&self, cell: &Cell) -> Result<&GoldenCell, String> {
        self.get(cell)
            .ok_or_else(|| format!("{} {}: no golden cell", cell.workload, cell.level.name()))
    }

    /// An exact measurement must print the golden line byte for byte.
    ///
    /// # Errors
    /// Both lines, when they differ.
    pub fn check_exact(&self, cell: &Cell, m: &Measurement) -> Result<(), String> {
        let want = &self.want(cell)?.line;
        let got = cell_line(cell, m);
        if &got == want {
            Ok(())
        } else {
            Err(format!("wrong bytes: got `{got}`, golden `{want}`"))
        }
    }

    /// A sampled measurement must reproduce the golden checksum and stay
    /// within 5% of the golden cycles (the `ci.sh` sampled-sim gate).
    /// Returns the relative cycle error.
    ///
    /// # Errors
    /// A checksum mismatch or an error above 5%.
    pub fn check_sampled(&self, cell: &Cell, m: &Measurement) -> Result<f64, String> {
        let want = self.want(cell)?;
        let err = (m.sim.cycles as f64 - want.cycles as f64).abs() / want.cycles as f64;
        if m.sim.checksum != want.checksum {
            Err(format!(
                "{} {}: sampled checksum {:016x}, golden {:016x}",
                cell.workload,
                cell.level.name(),
                m.sim.checksum,
                want.checksum
            ))
        } else if err > 0.05 {
            Err(format!(
                "{} {}: sampled cycles {} are {:.2}% off golden {}",
                cell.workload,
                cell.level.name(),
                m.sim.cycles,
                err * 100.0,
                want.cycles
            ))
        } else {
            Ok(err)
        }
    }
}

/// The `epicc matrix` / `epicc submit` cell line for a measurement.
pub fn cell_line(cell: &Cell, m: &Measurement) -> String {
    format!(
        "cell {} {} cycles={} checksum={:016x} digest={}",
        cell.workload,
        cell.level.name(),
        m.sim.cycles,
        m.sim.checksum,
        epic_serve::digest(m).hex()
    )
}
