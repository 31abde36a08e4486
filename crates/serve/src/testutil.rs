//! Test support: deterministic fake measurements, so store/scheduler
//! tests don't pay for real compiles. Follows the `epic_ir::testing`
//! precedent of shipping test helpers in the library proper (the
//! workspace has no dev-only crates).

use crate::key::JobSpec;
use crate::sched::{JobRunner, Scheduler};
use crate::store::ArtifactStore;
use epic_driver::{CompiledStats, Measurement, OptLevel, PassRecord, PassTimeline};
use epic_sim::{Category, CycleAccounting, FuncMatrix, SimResult, CATEGORIES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fully populated, deterministic measurement derived from `seed`.
/// Distinct seeds produce distinct digests; equal seeds, equal bytes.
pub fn dummy_measurement(seed: u64) -> Measurement {
    let mut acct = CycleAccounting::default();
    for (i, cat) in CATEGORIES.iter().enumerate() {
        acct.charge(*cat, seed.wrapping_mul(i as u64 + 1) % 1000);
    }
    // two function rows whose column sums match nothing in particular —
    // the identity only matters for real simulations
    let rows = vec![
        [seed % 7; epic_sim::NUM_CATEGORIES],
        [(seed + 1) % 5; epic_sim::NUM_CATEGORIES],
    ];
    let counters = epic_sim::Counters {
        retired_useful: seed * 3 + 1,
        l3_misses: seed % 11,
        ..Default::default()
    };
    Measurement {
        level: OptLevel::Gcc,
        compiled: CompiledStats {
            plan: epic_sched::PlanStats {
                planned_cycles: seed as f64 * 1.5,
                planned_ops: seed as f64 * 4.0,
                max_window: (seed % 90) as u32,
                spills: (seed % 3) as usize,
            },
            ilp: epic_core::IlpStats::default(),
            inlined: (seed % 4) as usize,
            promoted: 0,
            code_bytes: seed * 16,
            static_ops: ((seed % 100) as usize, (seed % 37) as usize),
            frontend_ops: (seed % 80) as usize,
            func_names: vec!["main".into(), format!("f{}", seed % 9)],
            pass_timeline: PassTimeline {
                passes: vec![PassRecord {
                    name: "classical",
                    wall: Duration::from_micros(seed % 500),
                    ops_before: 10,
                    ops_after: 8,
                    blocks_before: 3,
                    blocks_after: 3,
                }],
            },
        },
        sim: SimResult {
            output: vec![seed, seed ^ 0xffff, seed / 3],
            checksum: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ret: seed % 2,
            cycles: acct.get(Category::Unstalled) + acct.total() - acct.unstalled(),
            acct,
            counters,
            func_matrix: FuncMatrix::from_rows(rows),
            trace: Vec::new(),
            sample: None,
        },
    }
}

/// A runner that "measures" instantly: [`dummy_measurement`] keyed off
/// the spec's source length. Saturation benchmarks use it so the measurement
/// exercises the serving layer, not the simulator.
#[derive(Default)]
pub struct InstantRunner {
    runs: AtomicU64,
}

impl InstantRunner {
    /// Jobs actually executed (cache misses).
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }
}

impl JobRunner for InstantRunner {
    fn run(&self, spec: &JobSpec, _store: &ArtifactStore) -> Result<Measurement, String> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        Ok(dummy_measurement(spec.source.len() as u64))
    }
}

/// A runner whose every invocation parks until the test sends a token
/// through the gate, so tests decide exactly when work completes (and an
/// artificially slow shard is one whose gate is never opened). Results
/// are [`dummy_measurement`] keyed off the spec's source length, same as
/// [`InstantRunner`] — a gated shard and an instant shard produce
/// byte-identical measurements for the same spec.
pub struct GatedRunner {
    runs: AtomicU64,
    gate: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
}

impl GatedRunner {
    /// Jobs that have *started* running (they may still be parked).
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::SeqCst)
    }
}

impl JobRunner for GatedRunner {
    fn run(&self, spec: &JobSpec, _store: &ArtifactStore) -> Result<Measurement, String> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        let _ = self.gate.lock().unwrap().recv();
        Ok(dummy_measurement(spec.source.len() as u64))
    }

    fn work_counts(&self) -> (u64, u64) {
        (self.runs.load(Ordering::SeqCst), 0)
    }
}

/// A scheduler over a [`GatedRunner`]: each token sent on the returned
/// channel releases one parked job. Drop-safety caveat: open the gate
/// (or drop the sender) before shutting the scheduler down, or workers
/// blocked in `run` keep the shutdown join waiting.
pub fn gated_scheduler(
    workers: usize,
    queue_cap: usize,
) -> (Arc<Scheduler>, std::sync::mpsc::Sender<()>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = GatedRunner {
        runs: AtomicU64::new(0),
        gate: std::sync::Mutex::new(rx),
    };
    let sched = Scheduler::with_runner(
        Arc::new(ArtifactStore::in_memory()),
        Box::new(runner),
        workers,
        queue_cap,
    );
    (Arc::new(sched), tx)
}
