//! # epic-bench
//!
//! Harness regenerating every table and figure of the paper's evaluation.
//! Each `benches/*.rs` target (run via `cargo bench`) prints one table or
//! figure data series; this library holds the shared machinery: running
//! the 12-workload × 4-level sweep in parallel, speedup math, and
//! paper-style table formatting.
//!
//! The reproduction criterion is *shape*, not absolute numbers (our
//! substrate is a simulator and the workloads are stand-ins): orderings,
//! approximate factors, and which benchmarks deviate in which direction.

#![forbid(unsafe_code)]

use epic_driver::{
    CachePolicy, CompileOptions, MeasureRequest, Measurement, OptLevel, TracePolicy,
};
use epic_serve::{ArtifactStore, JobSpec, StoreStats};
use epic_sim::{PredictorSpec, SimOptions};
use epic_trace::TraceSnapshot;
use epic_workloads::Workload;

pub mod json;
pub mod timing;

/// Cache outcome for one (workload × level) cell of a sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellCache {
    /// Served from the artifact store rather than recomputed.
    pub hit: bool,
    /// 32-hex content key (empty when the cell was not cacheable).
    pub key: String,
}

/// Cache-side report for a cached sweep: per-cell outcomes plus the
/// store's counters after the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheReport {
    /// `cells[w][l]` pairs with `Suite::results[w][l]`.
    pub cells: Vec<Vec<CellCache>>,
    /// Store counters at the end of the sweep.
    pub stats: StoreStats,
}

/// A full sweep: per workload, one measurement per requested level.
pub struct Suite {
    /// The workloads measured, in Table 1 order.
    pub workloads: Vec<Workload>,
    /// `results[w][l]` pairs with `workloads[w]` and `levels[l]`.
    pub results: Vec<Vec<Measurement>>,
    /// The levels measured.
    pub levels: Vec<OptLevel>,
    /// Present when the sweep went through an artifact cache
    /// (`EPIC_CACHE_DIR`; see [`cache_store_from_env`]).
    pub cache: Option<CacheReport>,
    /// Per-cell span trees + metrics, present when the sweep was traced
    /// (`EPIC_TRACE=1`; see [`trace_policy_from_env`]). `traces[w][l]`
    /// pairs with `results[w][l]`.
    pub traces: Option<Vec<Vec<TraceSnapshot>>>,
    /// The branch predictor every cell of the sweep simulated with.
    pub predictor: PredictorSpec,
}

/// Worker-pool bound for the sweeps: `EPIC_BENCH_WORKERS` if set, else 0
/// (let the driver use the machine's available parallelism).
pub fn worker_bound() -> usize {
    worker_bound_from(std::env::var("EPIC_BENCH_WORKERS").ok().as_deref())
}

/// [`worker_bound`]'s parsing, factored out so the edge cases are
/// testable without touching the process environment: unset, empty,
/// non-numeric, negative, and overlong values all fall back to 0
/// (= available parallelism); surrounding whitespace is tolerated.
pub fn worker_bound_from(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_default()
}

/// The artifact store the bench sweeps use, from the environment:
/// `EPIC_CACHE_DIR=<dir>` enables a persistent store there, and
/// `EPIC_NO_CACHE=1` is the escape hatch that disables caching even when
/// a directory is configured.
pub fn cache_store_from_env() -> Option<ArtifactStore> {
    if std::env::var_os("EPIC_NO_CACHE").is_some() {
        return None;
    }
    std::env::var_os("EPIC_CACHE_DIR").map(ArtifactStore::persistent)
}

/// The sweep's [`TracePolicy`] from the environment: `EPIC_TRACE=1` (or
/// `on`/`true`) attaches a span tree + metrics snapshot to every cell.
/// Environment parsing happens here, at the binary boundary — the driver
/// library only ever sees the explicit policy.
pub fn trace_policy_from_env() -> TracePolicy {
    std::env::var("EPIC_TRACE")
        .map(|v| TracePolicy::from_flag(&v))
        .unwrap_or_default()
}

/// Run the sweep over all 12 workloads at the given levels, in parallel
/// over every (workload × level) cell via
/// [`MeasureRequest`]'s bounded worker pool, consulting the
/// environment-configured artifact cache (if any).
///
/// # Panics
/// Panics if any compilation or simulation fails — the differential test
/// suite guarantees these paths are correct, so a failure here is a bug.
pub fn run_suite(levels: &[OptLevel]) -> Suite {
    run_suite_with(levels, &CompileOptions::for_level, &SimOptions::default())
}

/// [`run_suite`] with custom compile/sim options per level.
pub fn run_suite_with(
    levels: &[OptLevel],
    copts: &(dyn Fn(OptLevel) -> CompileOptions + Sync),
    sopts: &SimOptions,
) -> Suite {
    run_suite_store(
        levels,
        copts,
        sopts,
        cache_store_from_env().as_ref(),
        trace_policy_from_env(),
    )
}

/// [`run_suite_with`] against an explicit store (or none) and an
/// explicit [`TracePolicy`]. The cache is consulted per cell; results
/// are bit-identical with and without it, and with and without tracing.
pub fn run_suite_store(
    levels: &[OptLevel],
    copts: &(dyn Fn(OptLevel) -> CompileOptions + Sync),
    sopts: &SimOptions,
    store: Option<&ArtifactStore>,
    trace: TracePolicy,
) -> Suite {
    let workloads = epic_workloads::all();
    let report = MeasureRequest::new(&workloads)
        .levels(levels)
        .compile_options(copts)
        .sim_options(*sopts)
        .threads(worker_bound())
        .cache(match store {
            Some(s) => CachePolicy::Store(s),
            None => CachePolicy::Disabled,
        })
        .trace(trace)
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
    let cache = store.map(|s| CacheReport {
        cells: workloads
            .iter()
            .zip(&report.cells)
            .map(|(w, row)| {
                levels
                    .iter()
                    .zip(row)
                    .map(|(&level, cell)| {
                        let co = copts(level);
                        let key = if JobSpec::cacheable(&co, sopts) {
                            JobSpec::from_options(w.source, &w.train_args, &w.ref_args, &co, sopts)
                                .job_key()
                                .hex()
                        } else {
                            String::new()
                        };
                        CellCache {
                            hit: cell.cache_hit,
                            key,
                        }
                    })
                    .collect()
            })
            .collect(),
        stats: s.stats(),
    });
    let (results, traces): (Vec<Vec<Measurement>>, Vec<Vec<Option<TraceSnapshot>>>) = report
        .cells
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|c| (c.measurement, c.trace))
                .unzip::<_, _, Vec<_>, Vec<_>>()
        })
        .unzip();
    let traces = if trace == TracePolicy::Enabled {
        Some(
            traces
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|t| t.expect("traced run attaches a snapshot to every cell"))
                        .collect()
                })
                .collect(),
        )
    } else {
        None
    };
    Suite {
        workloads,
        results,
        levels: levels.to_vec(),
        cache,
        traces,
        predictor: sopts.predictor,
    }
}

impl Suite {
    /// Index of a level within this suite.
    pub fn level_idx(&self, level: OptLevel) -> usize {
        self.levels
            .iter()
            .position(|l| *l == level)
            .expect("level was measured")
    }

    /// Measurement for (workload index, level).
    pub fn get(&self, wi: usize, level: OptLevel) -> &Measurement {
        &self.results[wi][self.level_idx(level)]
    }

    /// Speedup of `num` over `den` (cycles ratio, >1 = num faster).
    pub fn speedup(&self, wi: usize, num: OptLevel, den: OptLevel) -> f64 {
        self.get(wi, den).sim.cycles as f64 / self.get(wi, num).sim.cycles as f64
    }
}

/// Geometric mean.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut s, mut n) = (0.0, 0);
    for x in xs {
        s += x.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (s / n as f64).exp()
}

/// A "SPEC ratio"-style figure of merit: bigger is better, scaled so the
/// numbers land in a Table 1-like range.
pub fn pseudo_ratio(cycles: u64) -> f64 {
    2.0e9 / cycles as f64
}

/// Fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn print(&self) {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    out.push_str(&format!("{:<w$}", c, w = width[0]));
                } else {
                    out.push_str(&format!("  {:>w$}", c, w = width[i]));
                }
            }
            println!("{out}");
        };
        line(&self.header);
        println!(
            "{}",
            "-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1))
        );
        for r in &self.rows {
            line(r);
        }
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Print a standard experiment banner.
pub fn banner(id: &str, paper: &str) {
    println!();
    println!("=== {id} ===");
    println!("    paper reference: {paper}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
    }

    #[test]
    fn worker_bound_parsing_edge_cases() {
        assert_eq!(worker_bound_from(None), 0);
        assert_eq!(worker_bound_from(Some("")), 0);
        assert_eq!(worker_bound_from(Some("abc")), 0);
        assert_eq!(worker_bound_from(Some("-1")), 0);
        assert_eq!(worker_bound_from(Some("3.5")), 0);
        assert_eq!(worker_bound_from(Some("0")), 0);
        assert_eq!(worker_bound_from(Some("4")), 4);
        assert_eq!(worker_bound_from(Some(" 8 ")), 8);
        assert_eq!(worker_bound_from(Some("99999999999999999999")), 0);
    }

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new(&["Benchmark", "A", "B"]);
        t.row(vec!["x".into(), "1.00".into(), "2.00".into()]);
        t.print();
    }
}
