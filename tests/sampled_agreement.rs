//! Sampled-vs-exact validation (DESIGN.md §12): the SimPoint-style
//! sampler must agree with the exact simulator within its error budget
//! on real workloads, `SamplePolicy::Exact` must be bit-identical to
//! the pre-sampling simulator, and warmup handling must respect the
//! documented boundary/bracketing invariants.
//!
//! The non-ignored tests run the small workloads so the debug-build
//! suite stays fast; the full 12×4 matrix rides behind `#[ignore]` and
//! is exercised in release by `scripts/ci.sh` (via `epicc sample
//! --bench`, which also enforces the wall-clock gate).

use epic_core::speculate::{SpecModel as CompileSpec, SpeculateOptions};
use epic_core::IlpOptions;
use epic_driver::{compile, compile_source, CompileOptions, OptLevel};
use epic_sim::{SamplePolicy, SimOptions, SimResult, SpecModel, Warmup, CATEGORIES};

/// Total-cycle relative error budget per cell.
const MAX_TOTAL_ERR: f64 = 0.05;
/// Per-category relative error budget...
const MAX_CAT_ERR: f64 = 0.10;
/// ...with an absolute slack of this fraction of total cycles, so a
/// category holding 100 of 10M cycles may wobble without failing (its
/// relative error is meaningless at that size).
const CAT_SLACK: f64 = 0.01;

/// Exact and `policy` runs of one cell under `model`. Sentinel ILP-CS
/// cells are compiled for the sentinel model (with `chk` recovery):
/// that is the one mode where a value depends on the DTLB, which the
/// functional pass must then maintain exactly.
fn run_pair(
    name: &str,
    level: OptLevel,
    model: SpecModel,
    policy: SamplePolicy,
) -> (SimResult, SimResult) {
    let w = epic_workloads::by_name(name).unwrap();
    let mut copts = CompileOptions::for_level(level);
    if model == SpecModel::Sentinel && level == OptLevel::IlpCs {
        copts.ilp_override = Some(IlpOptions {
            speculate: Some(SpeculateOptions {
                model: CompileSpec::Sentinel,
                ..SpeculateOptions::default()
            }),
            ..IlpOptions::default()
        });
    }
    let c = compile(&w, &copts).unwrap();
    let exact_opts = SimOptions {
        spec_model: model,
        ..SimOptions::default()
    };
    let exact = epic_sim::run(&c.mach, &w.ref_args, &exact_opts).unwrap();
    let sampled = epic_sim::run(
        &c.mach,
        &w.ref_args,
        &SimOptions {
            sample: policy,
            ..exact_opts
        },
    )
    .unwrap();
    (exact, sampled)
}

fn assert_cell_agrees(name: &str, level: OptLevel, model: SpecModel) {
    let (exact, sampled) = run_pair(name, level, model, SamplePolicy::default_sampled());
    let tag = format!("{name} {} {model:?}", level.name());

    // functional results are exact, never extrapolated
    assert_eq!(sampled.output, exact.output, "{tag}: output diverged");
    assert_eq!(sampled.ret, exact.ret, "{tag}: return value diverged");
    assert_eq!(sampled.checksum, exact.checksum, "{tag}: checksum diverged");

    // the extrapolated numbers still satisfy the accounting identity
    sampled.check_identity().unwrap();

    let err = (sampled.cycles as f64 - exact.cycles as f64).abs() / exact.cycles.max(1) as f64;
    assert!(
        err <= MAX_TOTAL_ERR,
        "{tag}: total-cycle error {:.3}% exceeds {:.1}%",
        err * 100.0,
        MAX_TOTAL_ERR * 100.0
    );

    let slack = CAT_SLACK * exact.cycles as f64;
    for cat in CATEGORIES {
        let (s, e) = (sampled.acct.get(cat) as f64, exact.acct.get(cat) as f64);
        let d = (s - e).abs();
        assert!(
            d <= MAX_CAT_ERR * e + slack,
            "{tag}: category {} off by {d:.0} cycles (sampled {s}, exact {e})",
            cat.name()
        );
    }

    let info = sampled.sample.expect("sampled run carries metadata");
    assert!(info.est_error.is_finite() && info.est_error >= 0.0);
    assert_eq!(info.phases.len(), info.intervals);
    assert!(info.total_ops > 0);
    assert!(info.sampled_ops <= info.total_ops);
}

/// Debug-build-friendly subset: the four cheapest workloads, all
/// levels, under both speculation recovery models.
#[test]
fn sampled_agrees_with_exact_on_small_workloads() {
    for model in [SpecModel::General, SpecModel::Sentinel] {
        for name in ["gzip_mc", "eon_mc", "vortex_mc", "bzip2_mc"] {
            for level in OptLevel::ALL {
                assert_cell_agrees(name, level, model);
            }
        }
    }
}

/// The full 12×4 agreement matrix. Slow in debug builds — run with
/// `cargo test --release -- --ignored` or let `scripts/ci.sh` cover it
/// through `epicc sample --bench` (same assertions plus the wall-clock
/// gate).
#[test]
#[ignore = "full matrix is release-speed work; ci.sh covers it"]
fn sampled_agrees_with_exact_full_matrix() {
    for w in epic_workloads::all() {
        for level in OptLevel::ALL {
            assert_cell_agrees(w.name, level, SpecModel::General);
        }
    }
}

/// `SamplePolicy::Exact` must be indistinguishable from the default
/// options — same cycles, accounting, counters, matrix, output — bit
/// for bit.
#[test]
fn exact_policy_is_bit_identical() {
    for (name, level) in [("bzip2_mc", OptLevel::IlpCs), ("gzip_mc", OptLevel::Gcc)] {
        let (exact, via_policy) = run_pair(name, level, SpecModel::General, SamplePolicy::Exact);
        assert_eq!(via_policy.output, exact.output);
        assert_eq!(via_policy.checksum, exact.checksum);
        assert_eq!(via_policy.ret, exact.ret);
        assert_eq!(via_policy.cycles, exact.cycles);
        assert_eq!(via_policy.acct, exact.acct);
        assert_eq!(via_policy.counters, exact.counters);
        assert_eq!(via_policy.func_matrix, exact.func_matrix);
        assert!(
            via_policy.sample.is_none(),
            "Exact policy carries no sample info"
        );
    }
}

/// Interval boundaries are deterministic and well-formed: profiling the
/// same run twice slices it identically, boundaries strictly increase,
/// and the last boundary is the run's total op count. (Group alignment
/// itself is enforced inside the sampler: the detailed replay
/// `debug_assert!`s that every representative window lands exactly on
/// its profiled boundary, so any split-group boundary fails the debug
/// suite through `sampled_agrees_with_exact_on_small_workloads`.)
#[test]
fn phase_profile_boundaries_are_deterministic_and_monotonic() {
    let w = epic_workloads::by_name("vortex_mc").unwrap();
    let c = compile(&w, &CompileOptions::for_level(OptLevel::IlpNs)).unwrap();
    let a = epic_sim::phase_profile(&c.mach, &w.ref_args, &SimOptions::default(), 20_000).unwrap();
    let b = epic_sim::phase_profile(&c.mach, &w.ref_args, &SimOptions::default(), 20_000).unwrap();
    assert_eq!(a.ends, b.ends, "profiling must be deterministic");
    assert_eq!(a.bbvs, b.bbvs);
    assert!(
        a.ends.windows(2).all(|p| p[0] < p[1]),
        "boundaries must strictly increase"
    );
    assert_eq!(*a.ends.last().unwrap(), a.total_ops);
    assert_eq!(a.total_ops, b.total_ops);
    // BBV mass equals the interval's op count: nothing double-counted
    // across a boundary, nothing dropped.
    let mut prev = 0;
    for (i, &end) in a.ends.iter().enumerate() {
        let mass: u64 = a.bbvs[i].iter().sum();
        assert_eq!(mass, end - prev, "interval {i} BBV mass != op count");
        prev = end;
    }
}

/// Warmup charges never leak into the extrapolated totals: whatever the
/// warmup mode, the accounting identity (every cycle charged exactly
/// once, to one function and one category) holds on the sampled result.
#[test]
fn warmup_charges_are_excluded_from_totals() {
    for warmup in [Warmup::Cold, Warmup::Ops(50_000), Warmup::Full] {
        let policy = SamplePolicy::Sampled {
            interval_len: 10_000,
            max_clusters: 8,
            warmup,
        };
        let (exact, sampled) = run_pair("bzip2_mc", OptLevel::IlpNs, SpecModel::General, policy);
        sampled.check_identity().unwrap();
        assert_eq!(sampled.output, exact.output, "warmup {warmup:?} diverged");
        assert!(sampled.cycles > 0);
    }
}

/// A microbenchmark built to thrash the caches: a strided walk over a
/// buffer far larger than L1D, so a representative interval's cycle
/// count depends heavily on how warm the hierarchy is at injection.
/// Cold injection overestimates misses (so cycles); full functional
/// warming reproduces the continuously-warm state. Exact must be
/// bracketed: cold above, and full strictly closer than cold.
#[test]
fn cold_and_full_warmup_bracket_exact_on_cache_thrasher() {
    let src = r#"
global buf: [int; 16384];
global acc: int;

fn main(n: int, stride: int) -> int {
    let round = 0;
    while round < n {
        let i = 0;
        while i < 16384 {
            acc = acc + buf[i];
            buf[i] = acc & 1023;
            i = i + stride;
        }
        round = round + 1;
    }
    out(acc);
    return acc & 255;
}
"#;
    let args: Vec<i64> = vec![120, 17];
    let opts = CompileOptions::for_level(OptLevel::IlpNs);
    let c = compile_source(src, &args, &args, &opts).unwrap();
    let exact = epic_sim::run(&c.mach, &args, &SimOptions::default()).unwrap();
    let run_with = |warmup| {
        let policy = SamplePolicy::Sampled {
            interval_len: 8_000,
            max_clusters: 6,
            warmup,
        };
        epic_sim::run(
            &c.mach,
            &args,
            &SimOptions {
                sample: policy,
                ..SimOptions::default()
            },
        )
        .unwrap()
    };
    let cold = run_with(Warmup::Cold);
    let full = run_with(Warmup::Full);
    assert!(
        cold.cycles >= exact.cycles,
        "cold injection must overestimate: cold {} < exact {}",
        cold.cycles,
        exact.cycles
    );
    let (dc, df) = (
        cold.cycles.abs_diff(exact.cycles),
        full.cycles.abs_diff(exact.cycles),
    );
    assert!(
        df < dc,
        "full warming must beat cold injection: |full-exact|={df} vs |cold-exact|={dc}"
    );
}
