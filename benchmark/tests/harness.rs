//! Tests of the benchmark harness itself: its inputs, its names, its
//! agreement with `BENCHMARK.json`, and that the traced compile path
//! measures the same program as the untraced one.

use epic_bench::json::Json;
use epic_driver::{MeasureRequest, OptLevel};
use epic_trace::Trace;
use epicbench::cells::{self, Cell, Golden, Rng, HEAVY, LIGHT};
use epicbench::layers::{self, LayerSums};
use epicbench::ledger::{valid_name, Ledger, END_TO_END, PER_LAYER};
use epicbench::workload::Workload;
use std::collections::BTreeSet;

#[test]
fn inputs_are_deterministic_per_seed_and_the_cold_set_is_two_heavy_two_light() {
    for seed in 1..=20 {
        let cold = cells::cold_cells(seed);
        assert_eq!(cold, cells::cold_cells(seed));
        let workloads: BTreeSet<&str> = cold.iter().map(|c| c.workload).collect();
        assert_eq!(workloads.len(), 4);
        assert_eq!(workloads.iter().filter(|w| HEAVY.contains(*w)).count(), 2);
        assert_eq!(workloads.iter().filter(|w| LIGHT.contains(*w)).count(), 2);
        assert_eq!(cold.len(), 16, "all four levels of each");
        for row in cold.chunks(4) {
            let levels: Vec<OptLevel> = row.iter().map(|c| c.level).collect();
            assert_eq!(levels, OptLevel::ALL, "one program's levels per row");
        }
    }
    assert_ne!(
        cells::cold_cells(1),
        cells::cold_cells(2),
        "the seed orders the matrix"
    );

    let draw = |seed| {
        let mut r = Rng::stream(seed, 1);
        (0..64).map(|_| r.below(20)).collect::<Vec<_>>()
    };
    assert_eq!(draw(1), draw(1));
    assert_ne!(draw(1), draw(2));
    assert_ne!(Rng::stream(1, 1).next_u64(), Rng::stream(1, 2).next_u64());

    let (timed, extra) = cells::mixed_b_cells();
    assert_eq!(timed.len(), 6);
    assert!(timed
        .iter()
        .chain(&extra)
        .all(|c| HEAVY.contains(&c.workload)));
    assert!(extra.iter().all(|c| !timed.contains(c)));
    let levels: BTreeSet<&str> = timed.iter().map(|c| c.level.name()).collect();
    assert_eq!(levels.len(), 4, "B runs every pass");
}

#[test]
fn golden_file_covers_the_whole_matrix_and_orders_the_warm_set() {
    let golden = Golden::bundled();
    assert_eq!(golden.len(), 48);
    for &workload in HEAVY.iter().chain(&LIGHT) {
        for level in OptLevel::ALL {
            let cell = Cell { workload, level };
            assert!(golden.get(&cell).is_some(), "{workload} {}", level.name());
        }
    }
    let warm = cells::warm_cells(&golden);
    assert_eq!(warm.len(), 12);
    assert!(warm
        .windows(2)
        .all(|p| { golden.get(&p[0]).unwrap().cycles >= golden.get(&p[1]).unwrap().cycles }));
}

#[test]
fn every_emitted_name_is_legal() {
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name), "{name}");
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
    for level in OptLevel::ALL {
        let opts = epic_driver::CompileOptions::for_level(level);
        for pass in epic_driver::passes_for(&opts) {
            assert!(valid_name(&format!("pass.{}_ms", pass.name())));
        }
    }
    assert!(!valid_name("bad name"));
    assert!(!valid_name(""));
    assert!(std::panic::catch_unwind(|| Ledger::new("w").put("a b", 1.0, "s")).is_err());
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc {
        Json::Obj(kvs) => match kvs.iter().find(|(k, _)| k == key) {
            Some((_, Json::Arr(xs))) => xs,
            _ => panic!("BENCHMARK.json: no list {key}"),
        },
        _ => panic!("BENCHMARK.json is not an object"),
    }
}

fn text(j: &Json, key: &str) -> String {
    match j {
        Json::Obj(kvs) => match kvs.iter().find(|(k, _)| k == key) {
            Some((_, Json::Str(s))) => s.clone(),
            _ => panic!("BENCHMARK.json entry without {key}"),
        },
        _ => panic!("BENCHMARK.json entry is not an object"),
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let workloads: Vec<String> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for (key, catalog) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = list(&doc, key)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        let emitted: Vec<(String, String)> = catalog
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, emitted, "{key}");
    }
    // the per-pass metrics are exactly the passes the pipeline runs
    let mut passes = BTreeSet::new();
    for level in OptLevel::ALL {
        for pass in epic_driver::passes_for(&epic_driver::CompileOptions::for_level(level)) {
            passes.insert(format!("pass.{}_ms", pass.name()));
        }
    }
    let listed: BTreeSet<String> = PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("pass."))
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(listed, passes);
}

#[test]
fn the_decomposed_compile_path_measures_the_same_program() {
    let golden = Golden::bundled();
    let cells: Vec<Cell> = OptLevel::ALL
        .iter()
        .map(|&level| Cell {
            workload: "eon_mc",
            level,
        })
        .collect();
    let trace = Trace::enabled();
    let sopts = epic_sim::SimOptions::default();
    let eon = vec![cells[0].load()];
    let reference = MeasureRequest::new(&eon).threads(2).run().unwrap();
    let mut sums = LayerSums::default();
    for (cell, r) in cells.iter().zip(&reference.cells[0]) {
        let (m, cost) = layers::measure_decomposed(cell, &sopts, &trace).unwrap();
        let r = &r.measurement;
        assert_eq!(m.sim.cycles, r.sim.cycles);
        assert_eq!(m.sim.checksum, r.sim.checksum);
        assert_eq!(m.sim.counters, r.sim.counters);
        assert_eq!(epic_serve::digest(&m), epic_serve::digest(r));
        golden.check_exact(cell, &m).unwrap();
        sums.add(&cost, &m);
    }
    let mut l = Ledger::new("test");
    sums.emit(&mut l);
    let coverage = l.get("bench.span_coverage_pct").unwrap();
    assert!(coverage >= 95.0, "spans cover {coverage}% of the cells");
    let snap = trace.finish().unwrap();
    let layers = layers::self_times(&snap);
    assert_eq!(layers["cell"].0, 4);
    assert_eq!(layers["lang.compile"].0, 4);
    assert_eq!(layers["sim"].0, 4);
    assert!(layers.contains_key("pass:ilp-transform"));
}
