//! Simulator bit-identity pins.
//!
//! The exact simulator's every observable is frozen here: the `cell`
//! line `epicc matrix --no-cache` prints (whose digest covers cycles,
//! all nine Fig. 5 categories, every counter, the per-function matrix
//! and the output) for the light workloads at every level, and — for
//! two speculation-heavy ILP-CS cells under both speculation recovery
//! models — the order of the arbitrated charges (the `RingTrace`) and
//! of the retired branch records (the `EPBT` stream). A refactor of the
//! simulator's dispatch or value engine must leave all of these
//! unchanged.
//!
//! The full 48-cell comparison rides behind `#[ignore]`; `scripts/ci.sh`
//! runs it in release.

use epic_core::speculate::{SpecModel as CompileSpec, SpeculateOptions};
use epic_core::IlpOptions;
use epic_driver::{compile, measure_traced, CompileOptions, Measurement, OptLevel};
use epic_serve::key::hash_bytes;
use epic_sim::{run_with_sinks, BranchTraceSink, SimOptions, SpecModel};
use epic_trace::Trace;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The 48 golden `cell` lines.
const GOLDEN: &str = include_str!("../benchmark/golden_cells.txt");

/// The cheap workloads pinned on every `cargo test`.
const LIGHT: [&str; 4] = ["gzip_mc", "eon_mc", "vortex_mc", "bzip2_mc"];

/// `(workload, spec model, digest, ring-trace hash, EPBT hash)` for
/// ILP-CS with `trace_capacity` 4096 and a branch-trace sink attached.
/// Sentinel runs simulate code compiled for the sentinel model (with
/// `chk` recovery); general-model code has none and would consume the
/// NaT of a deferred load.
const SPEC_PINS: [(&str, SpecModel, &str, &str, &str); 4] = [
    (
        "vortex_mc",
        SpecModel::General,
        "08736fbfbf231ed876bc486ba473d63f",
        "4bae340573baf925a7a123082f419b53",
        "eba300e769d6ba55bbbd4193ed80019e",
    ),
    (
        "vortex_mc",
        SpecModel::Sentinel,
        "08736fbfbf231ed876bc486ba473d63f",
        "4bae340573baf925a7a123082f419b53",
        "eba300e769d6ba55bbbd4193ed80019e",
    ),
    (
        "bzip2_mc",
        SpecModel::General,
        "4a1fb2e7bf200d9603399319eb197fbe",
        "281faec528bcef57ff87583222b7f8dd",
        "bc054477fbcb60c2109771417bcd0656",
    ),
    (
        "bzip2_mc",
        SpecModel::Sentinel,
        "337af1f5fa589e241e3fe0457a7b28a8",
        "0b5d944a3ab9da80e72bb2f367e198ca",
        "4c8dd1c60bd9bd02eb8f5d63a169037a",
    ),
];

fn golden_line(workload: &str, level: OptLevel) -> &'static str {
    let prefix = format!("cell {workload} {} ", level.name());
    GOLDEN
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no golden line for {prefix}"))
}

fn cell_line(workload: &str, m: &Measurement) -> String {
    format!(
        "cell {workload} {} cycles={} checksum={:016x} digest={}",
        m.level.name(),
        m.sim.cycles,
        m.sim.checksum,
        epic_serve::digest(m).hex()
    )
}

/// One cell measured the way `epicc matrix --no-cache` measures it.
fn matrix_line(workload: &str, level: OptLevel) -> String {
    let w = epic_workloads::by_name(workload).unwrap();
    let m = measure_traced(
        &w,
        &CompileOptions::for_level(level),
        &SimOptions::default(),
        &Trace::disabled(),
    )
    .unwrap();
    cell_line(workload, &m)
}

fn assert_rows(workloads: &[&str]) {
    let mut bad = Vec::new();
    for &w in workloads {
        for level in OptLevel::ALL {
            let got = matrix_line(w, level);
            if got != golden_line(w, level) {
                bad.push(got);
            }
        }
    }
    assert!(
        bad.is_empty(),
        "cells diverged from golden:\n{}",
        bad.join("\n")
    );
}

#[test]
fn light_cells_match_golden() {
    assert_rows(&LIGHT);
}

#[test]
#[ignore = "the full matrix is release-speed work; ci.sh runs it"]
fn all_cells_match_golden() {
    let names: Vec<&str> = epic_workloads::all().iter().map(|w| w.name).collect();
    assert_rows(&names);
}

/// A `Write` target the test keeps after the sink owning it is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `(digest, ring-trace hash, EPBT hash)` of one traced ILP-CS run.
fn spec_pins(workload: &str, spec_model: SpecModel) -> (String, String, String) {
    let w = epic_workloads::by_name(workload).unwrap();
    let level = OptLevel::IlpCs;
    let mut copts = CompileOptions::for_level(level);
    if spec_model == SpecModel::Sentinel {
        copts.ilp_override = Some(IlpOptions {
            speculate: Some(SpeculateOptions {
                model: CompileSpec::Sentinel,
                ..SpeculateOptions::default()
            }),
            ..IlpOptions::default()
        });
    }
    let compiled = compile(&w, &copts).unwrap();
    let opts = SimOptions {
        spec_model,
        trace_capacity: 4096,
        ..SimOptions::default()
    };
    let buf = SharedBuf::default();
    let (sink, stats) = BranchTraceSink::new(buf.clone(), 1 << 24).unwrap();
    let sim = run_with_sinks(&compiled.mach, &w.ref_args, &opts, vec![Box::new(sink)]).unwrap();
    assert_eq!(stats.lock().unwrap().dropped, 0, "{workload}: EPBT cap hit");
    assert_eq!(sim.trace.len(), 4096, "{workload}: ring trace not full");
    let mut ring = Vec::new();
    for r in &sim.trace {
        for x in [
            r.cycle,
            r.at.func as u64,
            r.at.bundle as u64,
            r.cat as u64,
            r.cycles,
        ] {
            ring.extend_from_slice(&x.to_le_bytes());
        }
    }
    let epbt = hash_bytes(&buf.0.lock().unwrap()).hex();
    let m = Measurement {
        level,
        compiled: compiled.stats(),
        sim,
    };
    (epic_serve::digest(&m).hex(), hash_bytes(&ring).hex(), epbt)
}

#[test]
fn speculation_models_pin_digest_charge_order_and_branch_order() {
    let mut bad = Vec::new();
    for (w, model, digest, ring, epbt) in SPEC_PINS {
        let got = spec_pins(w, model);
        if got != (digest.to_string(), ring.to_string(), epbt.to_string()) {
            bad.push(format!(
                "(\"{w}\", {model:?}, {:?}, {:?}, {:?})",
                got.0, got.1, got.2
            ));
        }
        if model == SpecModel::General {
            // tracing and sinks never change the measurement
            assert!(
                golden_line(w, OptLevel::IlpCs).ends_with(&got.0),
                "{w}: traced digest"
            );
        }
    }
    assert!(bad.is_empty(), "pins diverged:\n{}", bad.join("\n"));
}
