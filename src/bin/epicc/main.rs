//! `epicc` — command-line front end to the IMPACT EPIC reproduction.
//!
//! Compile a MiniC source file at a chosen optimization level, then dump
//! IR, disassemble machine code, or run it on the Itanium-2-like
//! simulator with full cycle accounting.
//!
//! ```text
//! epicc prog.mc                          # compile + simulate at ILP-CS
//! epicc prog.mc --level o-ns --args 3,4  # pass main() arguments
//! epicc prog.mc --emit mach              # disassemble bundles
//! epicc prog.mc --emit ir                # post-transform IR
//! epicc --workload crafty_mc --level all # sweep a bundled workload
//! epicc prog.mc --spec-model sentinel    # Fig. 9 recovery model
//! epicc report --workload vortex_mc      # Fig. 5 table + Fig. 10 drill-down
//! ```
//!
//! Job-service mode (see DESIGN.md §8):
//!
//! ```text
//! epicc serve [--listen A] [--cache-dir D] [--workers N] [--queue-cap N]
//!             [--max-conns N] [--idle-timeout-ms MS]
//! epicc submit --addr A [--workload N|all] [--level L|all] [--threads N]
//! epicc matrix [--level L|all] [--cache-dir D] [--no-cache]
//! epicc stats --addr A
//! epicc saturate --addr A [--conns N]          # swarm smoke vs a live epicd
//! epicc saturate --bench [--out BENCH.json]    # event-loop throughput on an instant runner
//! epicc shutdown --addr A
//! ```
//!
//! Sampled simulation (see DESIGN.md §12):
//!
//! ```text
//! epicc sample [--workload N|all] [--level L|all] [--interval N]
//!              [--clusters K] [--warmup full|cold|ops:N] [--exact]
//! epicc sample --bench [--out BENCH_7.json] [--max-err PCT] [--min-speedup X]
//! ```
//!
//! `sample` prints each run's phase map and extrapolation metadata
//! (`--exact` adds est-vs-exact deltas per accounting category);
//! `sample --bench` sweeps exact vs sampled vs cold-profile timings,
//! writes BENCH_7.json, and enforces the accuracy/speed gate.
//!
//! Branch prediction (see DESIGN.md §13):
//!
//! ```text
//! epicc branches [--workload N|all] [--level L]      # Fig. 7-style zoo table
//! epicc branches --workload N --capture T.epbt       # trace + replay self-check
//! epicc replay --trace T.epbt [--predictor NAME|all]
//! ```
//!
//! `matrix`, `submit`, `sample`, and the single-file path all take
//! `--predictor gshare|bimodal|tage|oracle` (default gshare, which is
//! bit-identical to the pre-zoo simulator).
//!
//! `benchcmp --baseline BENCH_N.json --current NEW.json` red-flags
//! regressions over 10% of a fresh bench run against a committed
//! checkpoint (threshold adjustable with `--threshold-pct`);
//! `benchcmp --history DIR` instead scans every committed
//! `BENCH_*.json` checkpoint and prints each headline metric's
//! trajectory across them.
//!
//! Fleet mode (see DESIGN.md §14):
//!
//! ```text
//! epicc cluster serve [--shards N] [--listen A] [--hedge-ms MS]
//!                     [--workers N] [--queue-cap N]
//! epicc submit --gateway A [...]      # --gateway is an --addr alias
//! epicc stats --gateway A             # summed fleet stats (shard_id 0)
//! epicc top --gateway A --cluster     # fleet / per-shard / gateway sections
//! epicc cluster status --gateway A    # ring version + per-shard membership
//! epicc cluster join --gateway A --shard ID=ADDR   # warm, then cut over
//! epicc cluster drain --gateway A --shard ID       # move warmth out first
//! ```
//!
//! `cluster serve` runs an N-shard fleet plus an `epicg` gateway in one
//! process (handy for demos; note the shards share one process-global
//! metrics registry, so per-shard metric sections are confounded — CI
//! uses separate `epicd` processes for honest per-shard views).
//!
//! `submit` and `matrix` print identical, deterministic `cell` lines
//! (workload, level, cycles, checksum, content digest), so CI can diff a
//! served sweep against a direct in-process one byte for byte.

#![forbid(unsafe_code)]

use epic_driver::{compile_source, CompileOptions, OptLevel};
use epic_sim::{Category, PredictorSpec, SimOptions, SimResult, SpecModel, CATEGORIES};
use std::process::ExitCode;

mod endpoint;
use endpoint::Endpoint;

struct Args {
    source: Option<String>,
    workload: Option<String>,
    levels: Vec<OptLevel>,
    emit: Emit,
    main_args: Vec<i64>,
    spec_model: SpecModel,
    predictor: PredictorSpec,
    report: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Emit {
    Sim,
    Ir,
    Mach,
}

fn usage() -> ! {
    eprintln!(
        "usage: epicc <file.mc> [--level gcc|o-ns|ilp-ns|ilp-cs|all] [--emit sim|ir|mach]\n\
         \x20            [--args a,b,...] [--spec-model general|sentinel]\n\
         \x20            [--predictor gshare|bimodal|tage|oracle]\n\
         \x20      epicc --workload <name> [...]   (bundled SPEC stand-ins; see epic-workloads)\n\
         \x20      epicc report (<file.mc> | --workload <name>) [--level ...]\n\
         \x20            Fig. 5 cycle-accounting table + Fig. 10 per-function drill-down\n\
         \x20      epicc branches [--workload <name>|all] [--level ...] [--capture FILE]\n\
         \x20            Fig. 7-style predictor-zoo table (+ trace capture/replay check)\n\
         \x20      epicc replay --trace FILE [--predictor <name>|all]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        source: None,
        workload: None,
        levels: vec![OptLevel::IlpCs],
        emit: Emit::Sim,
        main_args: Vec::new(),
        spec_model: SpecModel::General,
        predictor: PredictorSpec::default(),
        report: false,
    };
    let mut first_positional = true;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "report" if first_positional => {
                args.report = true;
                args.levels = OptLevel::ALL.to_vec();
                first_positional = false;
            }
            "--level" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.levels = match v.as_str() {
                    "gcc" => vec![OptLevel::Gcc],
                    "o-ns" => vec![OptLevel::ONs],
                    "ilp-ns" => vec![OptLevel::IlpNs],
                    "ilp-cs" => vec![OptLevel::IlpCs],
                    "all" => OptLevel::ALL.to_vec(),
                    _ => usage(),
                };
            }
            "--emit" => {
                args.emit = match it.next().unwrap_or_else(|| usage()).as_str() {
                    "sim" => Emit::Sim,
                    "ir" => Emit::Ir,
                    "mach" => Emit::Mach,
                    _ => usage(),
                };
            }
            "--args" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.main_args = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--spec-model" => {
                args.spec_model = match it.next().unwrap_or_else(|| usage()).as_str() {
                    "general" => SpecModel::General,
                    "sentinel" => SpecModel::Sentinel,
                    _ => usage(),
                };
            }
            "--predictor" => {
                args.predictor = PredictorSpec::parse(&it.next().unwrap_or_else(|| usage()))
                    .unwrap_or_else(|| usage());
            }
            "--workload" => args.workload = Some(it.next().unwrap_or_else(|| usage())),
            "-h" | "--help" => usage(),
            path if !path.starts_with('-') => {
                args.source = Some(path.to_string());
                first_positional = false;
            }
            _ => usage(),
        }
    }
    if args.source.is_none() && args.workload.is_none() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match argv.first().map(String::as_str) {
            Some("serve") => return serve_cmd(&argv[1..]),
            Some("submit") => return submit_cmd(&argv[1..]),
            Some("matrix") => return matrix_cmd(&argv[1..]),
            Some("stats") => return stats_cmd(&argv[1..]),
            Some("top") => return top_cmd(&argv[1..]),
            Some("saturate") => return saturate_cmd(&argv[1..]),
            Some("sample") => return sample_cmd(&argv[1..]),
            Some("branches") => return branches_cmd(&argv[1..]),
            Some("replay") => return replay_cmd(&argv[1..]),
            Some("benchcmp") => return benchcmp_cmd(&argv[1..]),
            Some("cluster") => return cluster_cmd(&argv[1..]),
            Some("shutdown") => return shutdown_cmd(&argv[1..]),
            _ => {}
        }
    }
    let args = parse_args();
    let (src, train, mut run_args) = match (&args.source, &args.workload) {
        (Some(path), _) => {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("epicc: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (src, args.main_args.clone(), args.main_args.clone())
        }
        (None, Some(name)) => match epic_workloads::by_name(name) {
            Some(w) => (
                w.source.to_string(),
                w.train_args.clone(),
                w.ref_args.clone(),
            ),
            None => {
                eprintln!(
                    "epicc: unknown workload `{name}`; available: {}",
                    epic_workloads::all()
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
        _ => unreachable!("parse_args enforces one input"),
    };
    if !args.main_args.is_empty() {
        run_args = args.main_args.clone();
    }

    for &level in &args.levels {
        let compiled =
            match compile_source(&src, &train, &run_args, &CompileOptions::for_level(level)) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("epicc [{}]: {e}", level.name());
                    return ExitCode::FAILURE;
                }
            };
        if args.report {
            let sim = match epic_sim::run(
                &compiled.mach,
                &run_args,
                &SimOptions {
                    spec_model: args.spec_model,
                    predictor: args.predictor,
                    ..Default::default()
                },
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("epicc [{}]: simulation trapped: {e}", level.name());
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = sim.check_identity() {
                eprintln!(
                    "epicc [{}]: accounting identity violated: {e}",
                    level.name()
                );
                return ExitCode::FAILURE;
            }
            let names: Vec<&str> = compiled
                .mach
                .funcs
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            print_report(level, &sim, &names, args.predictor);
            continue;
        }
        match args.emit {
            Emit::Ir => {
                println!("; === {} ===", level.name());
                for f in &compiled.mach.ir.funcs {
                    println!("{f}");
                }
            }
            Emit::Mach => {
                println!("; === {} ===", level.name());
                for f in &compiled.mach.funcs {
                    println!("{}", epic_mach::program::disasm(f));
                }
            }
            Emit::Sim => {
                let sim = match epic_sim::run(
                    &compiled.mach,
                    &run_args,
                    &SimOptions {
                        spec_model: args.spec_model,
                        predictor: args.predictor,
                        ..Default::default()
                    },
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("epicc [{}]: simulation trapped: {e}", level.name());
                        return ExitCode::FAILURE;
                    }
                };
                println!("[{}]", level.name());
                println!("  output    {:?}", sim.output);
                println!("  cycles    {}", sim.cycles);
                println!(
                    "  IPC       {:.2} achieved / {:.2} planned",
                    sim.counters.retired_useful as f64 / sim.cycles as f64,
                    compiled.plan.planned_ipc()
                );
                println!(
                    "  ops       {} useful, {} squashed, {} nops",
                    sim.counters.retired_useful,
                    sim.counters.retired_squashed,
                    sim.counters.retired_nops
                );
                println!(
                    "  cycles/cat unstalled {} | ld {} | fe {} | br {} | rse {} | kernel {} | misc {}",
                    sim.acct.unstalled(),
                    sim.acct.int_load_bubble(),
                    sim.acct.front_end_bubble(),
                    sim.acct.br_mispredict_flush(),
                    sim.acct.register_stack(),
                    sim.acct.kernel(),
                    sim.acct.misc() + sim.acct.float_scoreboard() + sim.acct.micropipe(),
                );
                println!(
                    "  code      {} bytes, {} loads promoted, {} wild loads",
                    compiled.code_bytes, compiled.ilp.loads_promoted, sim.counters.wild_loads
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// Short column header for one Fig. 5 category.
fn short_name(cat: Category) -> &'static str {
    match cat {
        Category::Unstalled => "unstall",
        Category::FloatScoreboard => "float",
        Category::Misc => "misc",
        Category::IntLoadBubble => "ldbub",
        Category::Micropipe => "upipe",
        Category::FrontEndBubble => "febub",
        Category::BrMispredictFlush => "brflush",
        Category::RegisterStack => "rse",
        Category::Kernel => "kernel",
    }
}

/// Render the Fig. 5 stacked cycle table and the Fig. 10 per-function
/// drill-down for one level. Pure function of the sim result, so output
/// is deterministic (ties in the function sort break by function index).
fn print_report(level: OptLevel, sim: &SimResult, func_names: &[&str], predictor: PredictorSpec) {
    let total = sim.cycles.max(1);
    println!("=== {} ===", level.name());
    let (p, m) = (
        sim.counters.branch_predictions,
        sim.counters.branch_mispredictions,
    );
    println!(
        "branch predictor: {}  predictions={p} mispredictions={m} ({:.2}%)",
        predictor.name(),
        if p == 0 {
            0.0
        } else {
            100.0 * m as f64 / p as f64
        },
    );
    println!("cycle accounting (Fig. 5):");
    println!("  {:<20} {:>14} {:>7}", "category", "cycles", "%");
    for cat in CATEGORIES {
        let c = sim.acct.get(cat);
        println!(
            "  {:<20} {:>14} {:>6.1}%",
            cat.name(),
            c,
            100.0 * c as f64 / total as f64
        );
    }
    println!("  {:<20} {:>14} {:>6.1}%", "total", sim.cycles, 100.0);
    println!();
    println!("per-function drill-down (Fig. 10):");
    print!("  {:<16} {:>14} {:>7}", "function", "cycles", "%");
    for cat in CATEGORIES {
        print!(" {:>9}", short_name(cat));
    }
    println!();
    let mut order: Vec<usize> = (0..sim.func_matrix.num_funcs()).collect();
    order.sort_by_key(|&f| (std::cmp::Reverse(sim.func_matrix.row_total(f)), f));
    for f in order {
        let row_total = sim.func_matrix.row_total(f);
        if row_total == 0 {
            continue;
        }
        let name = func_names.get(f).copied().unwrap_or("?");
        print!(
            "  {:<16} {:>14} {:>6.1}%",
            name,
            row_total,
            100.0 * row_total as f64 / total as f64
        );
        for &c in sim.func_matrix.row(f) {
            print!(" {:>9}", c);
        }
        println!();
    }
    println!();
}

// --- job-service subcommands ------------------------------------------

/// One (workload, level) cell of the canonical sweep, in deterministic
/// (Table 1 × OptLevel::ALL) order.
fn sweep_cells(
    workload: &str,
    levels: &[OptLevel],
) -> Result<Vec<(epic_workloads::Workload, OptLevel)>, String> {
    let workloads = if workload == "all" {
        epic_workloads::all()
    } else {
        vec![epic_workloads::by_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?]
    };
    Ok(workloads
        .into_iter()
        .flat_map(|w| levels.iter().map(move |&l| (w.clone(), l)))
        .collect())
}

/// The shared `cell` line: everything in it is a pure function of the
/// job, so direct and served sweeps print identical bytes.
fn cell_line(w: &str, level: OptLevel, m: &epic_driver::Measurement) -> String {
    format!(
        "cell {w} {} cycles={} checksum={:016x} digest={}",
        level.name(),
        m.sim.cycles,
        m.sim.checksum,
        epic_serve::digest(m).hex()
    )
}

/// Parse a `--predictor` value from a kv map (absent = default gshare).
fn parse_predictor(
    kv: &std::collections::HashMap<String, String>,
) -> Result<PredictorSpec, String> {
    match kv.get("--predictor") {
        None => Ok(PredictorSpec::default()),
        Some(v) => PredictorSpec::parse(v)
            .ok_or_else(|| format!("unknown predictor `{v}` (gshare|bimodal|tage|oracle)")),
    }
}

fn parse_levels(v: &str) -> Result<Vec<OptLevel>, String> {
    Ok(match v {
        "gcc" => vec![OptLevel::Gcc],
        "o-ns" => vec![OptLevel::ONs],
        "ilp-ns" => vec![OptLevel::IlpNs],
        "ilp-cs" => vec![OptLevel::IlpCs],
        "all" => OptLevel::ALL.to_vec(),
        other => return Err(format!("unknown level `{other}`")),
    })
}

/// Tiny flag parser shared by the service subcommands: alternating
/// `--flag value` pairs (plus bare switches listed in `switches`).
fn parse_kv(
    args: &[String],
    switches: &[&str],
) -> Result<std::collections::HashMap<String, String>, String> {
    let mut map = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if switches.contains(&a.as_str()) {
            map.insert(a.clone(), "1".to_string());
            continue;
        }
        if !a.starts_with("--") {
            return Err(format!("unexpected argument `{a}`"));
        }
        let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        map.insert(a.clone(), v.clone());
    }
    Ok(map)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("epicc: {msg}");
    ExitCode::FAILURE
}

/// `epicc serve`: run the job daemon in-process (same engine as the
/// standalone `epicd` binary).
fn serve_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let listen = kv
        .get("--listen")
        .map_or("127.0.0.1:0", String::as_str)
        .to_string();
    let workers = kv.get("--workers").map_or(Ok(0), |v| v.parse());
    let queue_cap = kv.get("--queue-cap").map_or(Ok(256), |v| v.parse());
    let (Ok(workers), Ok(queue_cap)) = (workers, queue_cap) else {
        return fail("--workers/--queue-cap must be integers");
    };
    let defaults = epic_serve::ServerConfig::default();
    let max_conns = kv
        .get("--max-conns")
        .map_or(Ok(defaults.max_conns), |v| v.parse());
    let idle_ms = kv
        .get("--idle-timeout-ms")
        .map_or(Ok(defaults.idle_timeout.as_millis() as u64), |v| v.parse());
    let (Ok(max_conns), Ok(idle_ms)) = (max_conns, idle_ms) else {
        return fail("--max-conns/--idle-timeout-ms must be integers");
    };
    let store = match kv.get("--cache-dir") {
        Some(dir) => epic_serve::ArtifactStore::persistent(dir),
        None => epic_serve::ArtifactStore::in_memory(),
    };
    let sched = std::sync::Arc::new(epic_serve::Scheduler::new(
        std::sync::Arc::new(store),
        workers,
        queue_cap,
    ));
    let cfg = epic_serve::ServerConfig {
        max_conns,
        idle_timeout: std::time::Duration::from_millis(idle_ms),
        ..defaults
    };
    let mut handle = match epic_serve::serve_with(&listen, sched, cfg) {
        Ok(h) => h,
        Err(e) => return fail(format!("bind {listen}: {e}")),
    };
    println!("epicd listening on {}", handle.addr());
    handle.wait();
    ExitCode::SUCCESS
}

/// `epicc submit`: drive a served sweep from N client threads and print
/// deterministic `cell` lines plus a `# hits=` summary.
fn submit_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let ep = match Endpoint::from_kv(&kv, "submit") {
        Ok(ep) => ep,
        Err(e) => return fail(e),
    };
    let levels = match parse_levels(kv.get("--level").map_or("all", String::as_str)) {
        Ok(l) => l,
        Err(e) => return fail(e),
    };
    let cells = match sweep_cells(kv.get("--workload").map_or("all", String::as_str), &levels) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let threads: usize = match kv.get("--threads").map_or(Ok(0), |v| v.parse()) {
        Ok(n) => n,
        Err(_) => return fail("--threads must be an integer"),
    };
    let predictor = match parse_predictor(&kv) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let threads = if threads == 0 {
        cells.len().min(8)
    } else {
        threads.min(cells.len().max(1))
    };
    // work-stealing over the cell list; results land by index so output
    // order is deterministic regardless of scheduling
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<Result<epic_serve::Served, String>>>> =
        cells.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut conn = match ep.connect() {
                    Ok(c) => c,
                    Err(e) => {
                        // mark every remaining cell failed
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            let Some(slot) = results.get(i) else { break };
                            *slot.lock().unwrap() = Some(Err(e.clone()));
                        }
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    let Some((w, level)) = cells.get(i) else {
                        break;
                    };
                    let mut spec = epic_serve::JobSpec::for_workload(w, *level);
                    spec.predictor = predictor;
                    let r = conn.run("submit", |c| {
                        c.submit(&spec, epic_serve::Priority::Normal, 0)
                    });
                    *results[i].lock().unwrap() = Some(r);
                }
            });
        }
    });
    let (mut hits, mut misses) = (0u64, 0u64);
    for ((w, level), slot) in cells.iter().zip(&results) {
        match slot.lock().unwrap().take() {
            Some(Ok(served)) => {
                if served.cache_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                println!("{}", cell_line(w.name, *level, &served.measurement));
            }
            Some(Err(e)) => return fail(format!("{} {}: {e}", w.name, level.name())),
            None => return fail(format!("{} {}: not submitted", w.name, level.name())),
        }
    }
    println!("# hits={hits} misses={misses}");
    ExitCode::SUCCESS
}

/// `epicc matrix`: the same sweep measured directly in-process (through
/// the artifact cache unless `--no-cache`), printing the same `cell`
/// lines as `submit`. `--workload <name>` restricts the sweep;
/// `--trace` attaches a span tree + metrics to every cell and
/// self-validates the trees (round-trip through JSON, expected roots,
/// durations sum-checked against cell wall time) before printing a
/// final `trace-ok cells=N` line. The cell lines themselves are
/// byte-identical with and without `--trace`.
fn matrix_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &["--no-cache", "--trace"]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let levels = match parse_levels(kv.get("--level").map_or("all", String::as_str)) {
        Ok(l) => l,
        Err(e) => return fail(e),
    };
    let workloads = match kv.get("--workload").map_or("all", String::as_str) {
        "all" => epic_workloads::all(),
        name => match epic_workloads::by_name(name) {
            Some(w) => vec![w],
            None => return fail(format!("unknown workload `{name}`")),
        },
    };
    let store = match (kv.contains_key("--no-cache"), kv.get("--cache-dir")) {
        (true, _) | (false, None) => None,
        (false, Some(dir)) => Some(epic_serve::ArtifactStore::persistent(dir)),
    };
    let sopts = SimOptions {
        predictor: match parse_predictor(&kv) {
            Ok(p) => p,
            Err(e) => return fail(e),
        },
        ..SimOptions::default()
    };
    let trace = if kv.contains_key("--trace") {
        epic_driver::TracePolicy::Enabled
    } else {
        epic_driver::TracePolicy::Disabled
    };
    let report = match epic_driver::MeasureRequest::new(&workloads)
        .levels(&levels)
        .compile_options(&CompileOptions::for_level)
        .sim_options(sopts)
        .cache(match &store {
            Some(s) => epic_driver::CachePolicy::Store(s),
            None => epic_driver::CachePolicy::Disabled,
        })
        .trace(trace)
        .run()
    {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let (mut hits, mut misses) = (0u64, 0u64);
    for (w, row) in workloads.iter().zip(&report.cells) {
        for (level, cell) in levels.iter().zip(row) {
            if cell.cache_hit {
                hits += 1;
            } else {
                misses += 1;
            }
            println!("{}", cell_line(w.name, *level, &cell.measurement));
        }
    }
    println!("# hits={hits} misses={misses}");
    if trace == epic_driver::TracePolicy::Enabled {
        let mut checked = 0usize;
        for (w, row) in workloads.iter().zip(&report.cells) {
            for (level, cell) in levels.iter().zip(row) {
                if let Err(e) = validate_cell_trace(cell) {
                    return fail(format!("{} {}: {e}", w.name, level.name()));
                }
                checked += 1;
            }
        }
        println!("trace-ok cells={checked}");
    }
    ExitCode::SUCCESS
}

/// Well-formedness check for one traced cell: the span tree must
/// survive a JSON round-trip, carry the expected roots (`compile` and
/// `sim` for a fresh cell, `cache-lookup` for a hit), and its root
/// durations must sum to the cell's wall time within 5%.
fn validate_cell_trace(cell: &epic_driver::MeasuredCell) -> Result<(), String> {
    let snap = cell.trace.as_ref().ok_or("traced cell carries no trace")?;
    let j = epic_bench::json::trace_to_json(snap);
    let parsed = epic_bench::json::Json::parse(&j.render())
        .map_err(|e| format!("trace JSON does not re-parse: {e}"))?;
    let back = epic_bench::json::trace_from_json(&parsed)
        .map_err(|e| format!("trace JSON does not decode: {e}"))?;
    if epic_bench::json::trace_to_json(&back).render() != j.render() {
        return Err("trace JSON round-trip is lossy".to_string());
    }
    if snap.dropped != 0 {
        return Err(format!("{} spans dropped", snap.dropped));
    }
    if cell.cache_hit {
        snap.root("cache-lookup")
            .ok_or("cache hit without a cache-lookup span")?;
        return Ok(());
    }
    snap.root("compile").ok_or("no compile root span")?;
    snap.root("sim").ok_or("no sim root span")?;
    let roots_ns: u64 = snap.spans.iter().map(|s| s.dur_ns).sum();
    let wall_ns = cell.wall.as_nanos() as u64;
    let tolerance = wall_ns / 20;
    if roots_ns < wall_ns.saturating_sub(tolerance) || roots_ns > wall_ns + tolerance {
        return Err(format!(
            "root spans cover {roots_ns}ns of {wall_ns}ns wall (outside ±5%)"
        ));
    }
    Ok(())
}

/// `epicc top`: fetch a server's metrics-registry snapshot over the
/// `metrics` verb and render it as a fixed-width table (deterministic
/// for a given snapshot: entries are name-sorted by the registry).
///
/// Against a gateway, `--cluster` splits the merged snapshot into its
/// sections — fleet aggregate, per-shard, gateway-local — instead of
/// one flat prefix-sorted table.
fn top_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &["--cluster"]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let snap = match Endpoint::from_kv(&kv, "top")
        .and_then(|ep| ep.connect())
        .and_then(|mut conn| conn.run("top", |c| c.metrics()))
    {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    if !kv.contains_key("--cluster") {
        print!("{}", epic_trace::render_top(&snap));
        return ExitCode::SUCCESS;
    }
    // sectioned fleet view: strip each section's prefix so the tables
    // read like a single daemon's `top`
    let section = |title: &str, prefix: &str| {
        let entries: Vec<_> = snap
            .entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .map(|e| epic_trace::MetricEntry {
                name: e.name[prefix.len()..].to_string(),
                value: e.value.clone(),
            })
            .collect();
        if !entries.is_empty() {
            println!("== {title} ==");
            print!(
                "{}",
                epic_trace::render_top(&epic_trace::MetricsSnapshot { entries })
            );
        }
    };
    section("fleet", "fleet.");
    section("gateway", "gateway.");
    let mut shard_ids: Vec<u64> = snap
        .entries
        .iter()
        .filter_map(|e| {
            let rest = e.name.strip_prefix("shard")?;
            rest[..rest.find('.')?].parse().ok()
        })
        .collect();
    shard_ids.sort_unstable();
    shard_ids.dedup();
    for id in shard_ids {
        section(&format!("shard{id}"), &format!("shard{id}."));
    }
    ExitCode::SUCCESS
}

/// `epicc stats`: one line per counter, `stat <name> <value>`.
fn stats_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let stats = match Endpoint::from_kv(&kv, "stats")
        .and_then(|ep| ep.connect())
        .and_then(|mut conn| conn.run("stats", |c| c.stats()))
    {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    for (name, v) in [
        ("store_hits", stats.store.hits),
        ("store_misses", stats.store.misses),
        ("store_evictions", stats.store.evictions),
        ("store_disk_hits", stats.store.disk_hits),
        ("store_disk_writes", stats.store.disk_writes),
        ("store_mach_hits", stats.store.mach_hits),
        ("store_mem_entries", stats.store.mem_entries),
        ("sched_submitted", stats.sched.submitted),
        ("sched_cache_hits", stats.sched.cache_hits),
        ("sched_coalesced", stats.sched.coalesced),
        ("sched_shed", stats.sched.shed),
        ("sched_jobs_run", stats.sched.jobs_run),
        ("sched_expired", stats.sched.expired),
        ("sched_queue_depth", stats.sched.queue_depth),
        ("sched_in_flight", stats.sched.in_flight),
        ("compiles", stats.compiles),
        ("sims", stats.sims),
        ("shard_id", stats.shard_id),
    ] {
        println!("stat {name} {v}");
    }
    ExitCode::SUCCESS
}

/// One histogram as bench JSON: count plus the latency quartet.
fn histo_json(h: &epic_trace::HistogramSnapshot) -> epic_bench::json::Json {
    use epic_bench::json::Json;
    Json::obj([
        ("count", Json::Num(h.count as f64)),
        ("mean_us", h.mean().map_or(Json::Null, Json::Num)),
        (
            "p50_us",
            h.quantile(0.5).map_or(Json::Null, |v| Json::Num(v as f64)),
        ),
        (
            "p99_us",
            h.quantile(0.99).map_or(Json::Null, |v| Json::Num(v as f64)),
        ),
    ])
}

/// Registry histogram by name, empty when absent or mistyped.
fn registry_histo(snap: &epic_trace::MetricsSnapshot, name: &str) -> epic_trace::HistogramSnapshot {
    match snap.get(name) {
        Some(epic_trace::MetricValue::Histogram(h)) => h.clone(),
        _ => epic_trace::HistogramSnapshot::default(),
    }
}

/// One saturation phase: `total` unique submits spread over a swarm of
/// `conns` connections against `addr`. Returns (wall seconds, failures).
fn saturate_phase(addr: &str, conns: usize, total: usize) -> Result<(f64, u64), String> {
    let base = epic_workloads::all()[0].clone();
    let mut swarm =
        epic_serve::Swarm::connect(addr, conns).map_err(|e| format!("connect {addr}: {e}"))?;
    for i in 0..total {
        let mut spec = epic_serve::JobSpec::for_workload(&base, OptLevel::Gcc);
        spec.source = format!("// saturate event {i}");
        swarm.enqueue(
            i % conns,
            &epic_serve::proto::Request::Submit {
                spec,
                prio: epic_serve::Priority::Normal,
                deadline_ms: 0,
            },
        );
    }
    let t0 = std::time::Instant::now();
    let responses = swarm
        .run(std::time::Duration::from_secs(600))
        .map_err(|e| format!("swarm: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let mut failures = 0u64;
    for conn in &responses {
        for r in conn {
            if !matches!(r, epic_serve::proto::Response::Done { .. }) {
                failures += 1;
            }
        }
    }
    Ok((wall, failures))
}

/// `epicc saturate --bench`: saturate the event-driven server on an
/// instant runner, and record throughput plus registry-derived latency
/// quantiles in a `BENCH_<n>.json` trajectory point.
fn saturate_bench(kv: &std::collections::HashMap<String, String>) -> ExitCode {
    let conns: usize = match kv.get("--conns").map_or(Ok(128), |v| v.parse()) {
        Ok(n) if n > 0 => n,
        _ => return fail("--conns must be a positive integer"),
    };
    let requests: usize = match kv.get("--requests").map_or(Ok(4096), |v| v.parse()) {
        Ok(n) if n > 0 => n,
        _ => return fail("--requests must be a positive integer"),
    };
    let workers: usize = match kv.get("--workers").map_or(Ok(2), |v| v.parse()) {
        Ok(n) => n,
        Err(_) => return fail("--workers must be an integer"),
    };
    let out = kv.get("--out").map_or("BENCH_6.json", String::as_str);
    let queue_cap = conns.max(256);

    let sched = std::sync::Arc::new(epic_serve::Scheduler::with_runner(
        std::sync::Arc::new(epic_serve::ArtifactStore::in_memory()),
        Box::new(epic_serve::testutil::InstantRunner::default()),
        workers,
        queue_cap,
    ));

    let before_ev = epic_trace::global().snapshot();
    let mut event = match epic_serve::serve_with(
        "127.0.0.1:0",
        sched,
        epic_serve::ServerConfig {
            max_conns: conns + 8,
            ..epic_serve::ServerConfig::default()
        },
    ) {
        Ok(h) => h,
        Err(e) => return fail(format!("event bind: {e}")),
    };
    let (ev_wall, ev_failures) = match saturate_phase(&event.addr().to_string(), conns, requests) {
        Ok(r) => r,
        Err(e) => return fail(format!("event phase: {e}")),
    };
    event.stop();
    let after_ev = epic_trace::global().snapshot();
    let ev_queue_wait = registry_histo(&after_ev, "serve.queue_wait_us")
        .delta_since(&registry_histo(&before_ev, "serve.queue_wait_us"));
    let ev_e2e = registry_histo(&after_ev, "serve.submit.e2e_us")
        .delta_since(&registry_histo(&before_ev, "serve.submit.e2e_us"));
    let ev_poll = registry_histo(&after_ev, "serve.poll.wait_us")
        .delta_since(&registry_histo(&before_ev, "serve.poll.wait_us"));

    if ev_failures > 0 {
        return fail(format!(
            "saturation bench saw {ev_failures} non-Done responses"
        ));
    }

    use epic_bench::json::Json;
    let ev_rps = requests as f64 / ev_wall;
    let j = Json::obj([
        ("pr", Json::Num(6.0)),
        ("benchmark", Json::Str("serve-saturate".to_string())),
        ("conns", Json::Num(conns as f64)),
        ("requests", Json::Num(requests as f64)),
        ("workers", Json::Num(workers as f64)),
        (
            "event_loop",
            Json::obj([
                ("wall_s", Json::Num(ev_wall)),
                ("throughput_rps", Json::Num(ev_rps)),
                ("queue_wait_us", histo_json(&ev_queue_wait)),
                ("submit_e2e_us", histo_json(&ev_e2e)),
                ("poll_wait_us", histo_json(&ev_poll)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(out, format!("{}\n", j.render())) {
        return fail(format!("write {out}: {e}"));
    }
    println!("# bench event_rps={ev_rps:.0} -> {out}");
    ExitCode::SUCCESS
}

/// `epicc saturate --addr`: swarm smoke against a live epicd — every
/// connection submits the whole 12×4 matrix (rotated so concurrent
/// waves overlap on different cells), then the responses are checked
/// for lost, duplicated, or cross-wired results and printed as the
/// same deterministic `cell` lines `matrix`/`submit` emit.
fn saturate_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &["--bench"]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    if kv.contains_key("--bench") {
        return saturate_bench(&kv);
    }
    let Some(addr) = kv.get("--addr") else {
        return fail("saturate needs --addr HOST:PORT (or --bench)");
    };
    let conns: usize = match kv.get("--conns").map_or(Ok(64), |v| v.parse()) {
        Ok(n) if n > 0 => n,
        _ => return fail("--conns must be a positive integer"),
    };
    let cells = match sweep_cells("all", OptLevel::ALL.as_ref()) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let specs: Vec<epic_serve::JobSpec> = cells
        .iter()
        .map(|(w, l)| epic_serve::JobSpec::for_workload(w, *l))
        .collect();

    let mut swarm = match epic_serve::Swarm::connect(addr, conns) {
        Ok(s) => s,
        Err(e) => return fail(format!("connect {addr}: {e}")),
    };
    for c in 0..conns {
        for j in 0..specs.len() {
            let spec = &specs[(c + j) % specs.len()];
            swarm.enqueue(
                c,
                &epic_serve::proto::Request::Submit {
                    spec: spec.clone(),
                    prio: epic_serve::Priority::Normal,
                    deadline_ms: 0,
                },
            );
        }
    }
    let responses = match swarm.run(std::time::Duration::from_secs(600)) {
        Ok(r) => r,
        Err(e) => return fail(format!("swarm: {e}")),
    };

    // cross-check every response against the submission script: right
    // key, and per-key digests all agree (then printed once per cell)
    let (mut lost, mut crosswired, mut mismatched) = (0u64, 0u64, 0u64);
    let mut digests: Vec<Option<epic_serve::CacheKey>> = vec![None; specs.len()];
    let mut cell_lines: Vec<Option<String>> = vec![None; specs.len()];
    for (c, conn) in responses.iter().enumerate() {
        for (j, resp) in conn.iter().enumerate() {
            let cell = (c + j) % specs.len();
            match resp {
                epic_serve::proto::Response::Done {
                    key, measurement, ..
                } => {
                    if *key != specs[cell].job_key() {
                        crosswired += 1;
                        continue;
                    }
                    let d = epic_serve::digest(measurement);
                    match &digests[cell] {
                        None => {
                            let (w, level) = &cells[cell];
                            digests[cell] = Some(d);
                            cell_lines[cell] = Some(cell_line(w.name, *level, measurement));
                        }
                        Some(first) if *first != d => mismatched += 1,
                        Some(_) => {}
                    }
                }
                _ => lost += 1,
            }
        }
    }
    for line in cell_lines.iter().flatten() {
        println!("{line}");
    }
    println!(
        "# saturate conns={conns} submits={} lost={lost} crosswired={crosswired} digest-mismatch={mismatched}",
        conns * specs.len()
    );
    if lost + crosswired + mismatched > 0 {
        return fail("saturation smoke found protocol violations");
    }
    ExitCode::SUCCESS
}

/// Parse `--warmup full|cold|ops:N`.
fn parse_warmup(v: &str) -> Result<epic_sim::Warmup, String> {
    match v {
        "full" => Ok(epic_sim::Warmup::Full),
        "cold" => Ok(epic_sim::Warmup::Cold),
        other => match other.strip_prefix("ops:").and_then(|n| n.parse().ok()) {
            Some(n) => Ok(epic_sim::Warmup::Ops(n)),
            None => Err(format!("unknown warmup `{other}` (full|cold|ops:N)")),
        },
    }
}

/// Render a phase assignment as one compact char per interval (cluster
/// 0-9 then a-z; `*` past 36), wrapped to 100 columns.
fn phase_map_lines(phases: &[u32]) -> Vec<String> {
    const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    phases
        .chunks(100)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&p| *GLYPHS.get(p as usize).unwrap_or(&b'*') as char)
                .collect()
        })
        .collect()
}

/// `epicc sample`: run the SimPoint-style sampled simulator over
/// workloads and print each run's phase map plus extrapolation
/// metadata. `--exact` also runs the exact simulator and prints
/// est-vs-exact deltas (total cycles and every accounting category).
/// `--bench` sweeps the matrix with exact, sampled, and cold-profile
/// timings, writes a BENCH_7.json trajectory point, and enforces the
/// calibrated accuracy/speed gate (see DESIGN.md §12 for why the gate
/// is 2x, not the naive 5x).
fn sample_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &["--exact", "--bench"]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let levels = match parse_levels(kv.get("--level").map_or("all", String::as_str)) {
        Ok(l) => l,
        Err(e) => return fail(e),
    };
    let cells = match sweep_cells(kv.get("--workload").map_or("all", String::as_str), &levels) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let mut policy = epic_sim::SamplePolicy::default_sampled();
    if let epic_sim::SamplePolicy::Sampled {
        interval_len,
        max_clusters,
        warmup,
    } = &mut policy
    {
        match kv.get("--interval").map(|v| v.parse()) {
            None => {}
            Some(Ok(n)) => *interval_len = n,
            Some(Err(_)) => return fail("--interval must be an integer"),
        }
        match kv.get("--clusters").map(|v| v.parse()) {
            None => {}
            Some(Ok(n)) => *max_clusters = n,
            Some(Err(_)) => return fail("--clusters must be an integer"),
        }
        match kv.get("--warmup").map(|v| parse_warmup(v)) {
            None => {}
            Some(Ok(w)) => *warmup = w,
            Some(Err(e)) => return fail(e),
        }
    }
    let predictor = match parse_predictor(&kv) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    if kv.contains_key("--bench") {
        return sample_bench(&cells, policy, predictor, &kv);
    }
    let want_exact = kv.contains_key("--exact");

    for (w, level) in &cells {
        let compiled = match epic_driver::compile(w, &CompileOptions::for_level(*level)) {
            Ok(c) => c,
            Err(e) => return fail(format!("{} [{}]: {e}", w.name, level.name())),
        };
        let sopts = SimOptions {
            sample: policy,
            predictor,
            ..SimOptions::default()
        };
        let sampled = match epic_sim::run(&compiled.mach, &w.ref_args, &sopts) {
            Ok(r) => r,
            Err(e) => return fail(format!("{} [{}]: sim trapped: {e}", w.name, level.name())),
        };
        if let Err(e) = sampled.check_identity() {
            return fail(format!("{} [{}]: identity: {e}", w.name, level.name()));
        }
        let info = sampled.sample.as_ref().expect("sampled run carries info");
        println!(
            "sample {} {} cycles={} est_error={:.3}% intervals={} clusters={} \
             sampled_ops={}/{}{}",
            w.name,
            level.name(),
            sampled.cycles,
            info.est_error * 100.0,
            info.intervals,
            info.clusters,
            info.sampled_ops,
            info.total_ops,
            if info.fallback { " fallback" } else { "" },
        );
        for line in phase_map_lines(&info.phases) {
            println!("  phase-map {line}");
        }
        if !want_exact {
            continue;
        }
        let exact_opts = SimOptions {
            predictor,
            ..SimOptions::default()
        };
        let exact = match epic_sim::run(&compiled.mach, &w.ref_args, &exact_opts) {
            Ok(r) => r,
            Err(e) => return fail(format!("{} [{}]: exact trapped: {e}", w.name, level.name())),
        };
        if sampled.output != exact.output || sampled.ret != exact.ret {
            return fail(format!(
                "{} [{}]: sampled run diverged functionally",
                w.name,
                level.name()
            ));
        }
        let err = (sampled.cycles as f64 - exact.cycles as f64) / exact.cycles.max(1) as f64;
        println!(
            "  exact cycles={} err={:+.3}% (est {:.3}%)",
            exact.cycles,
            err * 100.0,
            info.est_error * 100.0
        );
        for cat in CATEGORIES {
            let (s, e) = (sampled.acct.get(cat), exact.acct.get(cat));
            if s == 0 && e == 0 {
                continue;
            }
            let d = (s as f64 - e as f64) / e.max(1) as f64;
            println!(
                "  cat {:<20} sampled={:>12} exact={:>12} err={:+.3}%",
                cat.name(),
                s,
                e,
                d * 100.0
            );
        }
    }
    ExitCode::SUCCESS
}

/// `epicc sample --bench`: exact vs sampled vs cold-profile timings
/// over a sweep, written as BENCH_7.json, with the accuracy/speed gate
/// applied (`--max-err` percent per cell, `--min-speedup` aggregate).
fn sample_bench(
    cells: &[(epic_workloads::Workload, OptLevel)],
    policy: epic_sim::SamplePolicy,
    predictor: PredictorSpec,
    kv: &std::collections::HashMap<String, String>,
) -> ExitCode {
    use epic_bench::json::Json;
    let out = kv.get("--out").map_or("BENCH_7.json", String::as_str);
    let max_err: f64 = match kv.get("--max-err").map_or(Ok(5.0), |v| v.parse()) {
        Ok(v) => v / 100.0,
        Err(_) => return fail("--max-err must be a number (percent)"),
    };
    let min_speedup: f64 = match kv.get("--min-speedup").map_or(Ok(2.0), |v| v.parse()) {
        Ok(v) => v,
        Err(_) => return fail("--min-speedup must be a number"),
    };
    let mut rows = Vec::new();
    let (mut wall_exact, mut wall_sampled, mut wall_cold) = (0.0f64, 0.0f64, 0.0f64);
    let mut worst_err = 0.0f64;
    let mut violations = Vec::new();
    for (w, level) in cells {
        let compiled = match epic_driver::compile(w, &CompileOptions::for_level(*level)) {
            Ok(c) => c,
            Err(e) => return fail(format!("{} [{}]: {e}", w.name, level.name())),
        };
        let exact_opts = SimOptions {
            predictor,
            ..SimOptions::default()
        };
        let t0 = std::time::Instant::now();
        let exact = match epic_sim::run(&compiled.mach, &w.ref_args, &exact_opts) {
            Ok(r) => r,
            Err(e) => return fail(format!("{} [{}]: exact trapped: {e}", w.name, level.name())),
        };
        let te = t0.elapsed().as_secs_f64();
        let sopts = SimOptions {
            sample: policy,
            predictor,
            ..SimOptions::default()
        };
        let t1 = std::time::Instant::now();
        let sampled = match epic_sim::run(&compiled.mach, &w.ref_args, &sopts) {
            Ok(r) => r,
            Err(e) => return fail(format!("{} [{}]: sim trapped: {e}", w.name, level.name())),
        };
        let ts = t1.elapsed().as_secs_f64();
        // the cold functional profiling pass alone: the sampling floor
        let t2 = std::time::Instant::now();
        let cold =
            epic_sim::phase_profile(&compiled.mach, &w.ref_args, &SimOptions::default(), 100_000);
        let tc = t2.elapsed().as_secs_f64();
        if let Err(e) = cold {
            return fail(format!(
                "{} [{}]: profile trapped: {e}",
                w.name,
                level.name()
            ));
        }
        if sampled.output != exact.output || sampled.ret != exact.ret {
            return fail(format!(
                "{} [{}]: sampled run diverged functionally",
                w.name,
                level.name()
            ));
        }
        if let Err(e) = sampled.check_identity() {
            return fail(format!("{} [{}]: identity: {e}", w.name, level.name()));
        }
        let info = sampled.sample.as_ref().expect("sampled run carries info");
        let err = (sampled.cycles as f64 - exact.cycles as f64).abs() / exact.cycles.max(1) as f64;
        worst_err = worst_err.max(err);
        if err > max_err {
            violations.push(format!(
                "{} {}: err {:.3}% > {:.1}%",
                w.name,
                level.name(),
                err * 100.0,
                max_err * 100.0
            ));
        }
        wall_exact += te;
        wall_sampled += ts;
        wall_cold += tc;
        println!(
            "sample-cell {} {} exact={} sampled={} err={:.3}% est={:.3}% \
             exact_s={te:.2} sampled_s={ts:.2} cold_s={tc:.2}",
            w.name,
            level.name(),
            exact.cycles,
            sampled.cycles,
            err * 100.0,
            info.est_error * 100.0,
        );
        rows.push(Json::obj([
            ("workload", Json::Str(w.name.to_string())),
            ("level", Json::Str(level.name().to_string())),
            ("exact_cycles", Json::Num(exact.cycles as f64)),
            ("sampled_cycles", Json::Num(sampled.cycles as f64)),
            ("rel_err", Json::Num(err)),
            ("est_error", Json::Num(info.est_error)),
            ("exact_wall_s", Json::Num(te)),
            ("sampled_wall_s", Json::Num(ts)),
            ("cold_profile_wall_s", Json::Num(tc)),
            ("intervals", Json::Num(info.intervals as f64)),
            ("clusters", Json::Num(info.clusters as f64)),
            (
                "fallback",
                if info.fallback {
                    Json::Num(1.0)
                } else {
                    Json::Num(0.0)
                },
            ),
        ]));
    }
    let speedup = wall_exact / wall_sampled.max(1e-9);
    let (interval_len, max_clusters) = match policy {
        epic_sim::SamplePolicy::Sampled {
            interval_len,
            max_clusters,
            ..
        } => (interval_len, max_clusters),
        epic_sim::SamplePolicy::Exact => (0, 0),
    };
    let j = Json::obj([
        ("pr", Json::Num(7.0)),
        ("benchmark", Json::Str("sampled-sim".to_string())),
        ("interval_len", Json::Num(interval_len as f64)),
        ("max_clusters", Json::Num(max_clusters as f64)),
        ("cells", Json::Arr(rows)),
        (
            "totals",
            Json::obj([
                ("exact_wall_s", Json::Num(wall_exact)),
                ("sampled_wall_s", Json::Num(wall_sampled)),
                ("cold_profile_wall_s", Json::Num(wall_cold)),
                ("speedup", Json::Num(speedup)),
                ("worst_rel_err", Json::Num(worst_err)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(out, format!("{}\n", j.render())) {
        return fail(format!("write {out}: {e}"));
    }
    println!(
        "# sample bench cells={} speedup={speedup:.2}x worst_err={:.3}% -> {out}",
        cells.len(),
        worst_err * 100.0
    );
    if speedup < min_speedup {
        violations.push(format!("speedup {speedup:.2}x < {min_speedup:.2}x"));
    }
    if !violations.is_empty() {
        return fail(format!("sample gate: {}", violations.join("; ")));
    }
    ExitCode::SUCCESS
}

/// `epicc branches`: the Fig. 7-style predictor-zoo table — for every
/// workload at a level, simulate with each zoo member and print the
/// conditional misprediction rates side by side. Functional results
/// (output, return value, checksum) and the branch count itself must be
/// predictor-invariant; any divergence is a hard failure. With
/// `--capture FILE` (exactly one workload × level) the default-predictor
/// run's branch stream is also recorded to FILE and self-checked: the
/// trace replayed through every zoo member must reproduce the live
/// simulators' counts exactly, reported as `replay-ok predictors=4`.
fn branches_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let levels = match parse_levels(kv.get("--level").map_or("ilp-cs", String::as_str)) {
        Ok(l) => l,
        Err(e) => return fail(e),
    };
    let cells = match sweep_cells(kv.get("--workload").map_or("all", String::as_str), &levels) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    let capture = kv.get("--capture");
    if capture.is_some() && cells.len() != 1 {
        return fail("--capture needs exactly one workload at one level");
    }

    let zoo = PredictorSpec::ZOO;
    let mut header = vec!["benchmark", "level", "branches"];
    header.extend(zoo.iter().map(|s| s.name()));
    let mut table = epic_bench::Table::new(&header);
    // live per-predictor (predictions, mispredictions) of the last cell,
    // consumed by the capture self-check (single-cell there by construction)
    let mut live_counts: Vec<(PredictorSpec, u64, u64)> = Vec::new();
    let mut last_compiled = None;
    for (w, level) in &cells {
        let compiled = match epic_driver::compile(w, &CompileOptions::for_level(*level)) {
            Ok(c) => c,
            Err(e) => return fail(format!("{} [{}]: {e}", w.name, level.name())),
        };
        live_counts.clear();
        let mut baseline: Option<(Vec<u64>, u64, u64, u64)> = None;
        let mut rates = Vec::new();
        for spec in zoo {
            let sopts = SimOptions {
                predictor: spec,
                ..SimOptions::default()
            };
            let sim = match epic_sim::run(&compiled.mach, &w.ref_args, &sopts) {
                Ok(r) => r,
                Err(e) => {
                    return fail(format!(
                        "{} [{}] {}: sim trapped: {e}",
                        w.name,
                        level.name(),
                        spec.name()
                    ))
                }
            };
            if let Err(e) = sim.check_identity() {
                return fail(format!(
                    "{} [{}] {}: identity: {e}",
                    w.name,
                    level.name(),
                    spec.name()
                ));
            }
            let fingerprint = (
                sim.output.clone(),
                sim.ret,
                sim.checksum,
                sim.counters.branch_predictions,
            );
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(b) if *b != fingerprint => {
                    return fail(format!(
                        "{} [{}]: predictor {} changed program semantics or the branch stream",
                        w.name,
                        level.name(),
                        spec.name()
                    ))
                }
                Some(_) => {}
            }
            let (p, m) = (
                sim.counters.branch_predictions,
                sim.counters.branch_mispredictions,
            );
            live_counts.push((spec, p, m));
            rates.push(if p == 0 {
                "0.00%".to_string()
            } else {
                format!("{:.2}%", 100.0 * m as f64 / p as f64)
            });
        }
        let branches = baseline.as_ref().map_or(0, |b| b.3);
        let mut row = vec![
            w.name.to_string(),
            level.name().to_string(),
            branches.to_string(),
        ];
        row.extend(rates);
        table.row(row);
        last_compiled = Some((w.clone(), *level, compiled));
    }
    println!("conditional branch misprediction rate (Fig. 7):");
    table.print();

    if let Some(path) = capture {
        let (w, level, compiled) = last_compiled.as_ref().expect("capture has one cell");
        let file = match std::fs::File::create(path) {
            Ok(f) => f,
            Err(e) => return fail(format!("create {path}: {e}")),
        };
        let (sink, stats) = match epic_sim::BranchTraceSink::new(file, 1 << 24) {
            Ok(s) => s,
            Err(e) => return fail(format!("write {path}: {e}")),
        };
        let run = epic_sim::run_with_sinks(
            &compiled.mach,
            &w.ref_args,
            &SimOptions::default(),
            vec![Box::new(sink)],
        );
        if let Err(e) = run {
            return fail(format!("{} [{}]: sim trapped: {e}", w.name, level.name()));
        }
        let (recorded, dropped) = {
            let g = stats.lock().unwrap();
            (g.recorded, g.dropped)
        };
        if dropped > 0 {
            return fail(format!(
                "trace cap exceeded: {dropped} records dropped (replay would diverge)"
            ));
        }
        println!("captured {recorded} branch records -> {path}");
        let mut f = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => return fail(format!("open {path}: {e}")),
        };
        let records = match epic_sim::read_branch_trace(&mut f) {
            Ok(r) => r,
            Err(e) => return fail(format!("read {path}: {e}")),
        };
        for (spec, live_p, live_m) in &live_counts {
            let mut pred = epic_sim::AnyPredictor::from_spec(*spec);
            let st = epic_sim::replay(&records, &mut pred);
            if st.predictions != *live_p || st.mispredictions != *live_m {
                return fail(format!(
                    "replay {} diverged from live sim: replay {}/{} vs live {}/{}",
                    spec.name(),
                    st.mispredictions,
                    st.predictions,
                    live_m,
                    live_p
                ));
            }
        }
        println!("replay-ok predictors={}", live_counts.len());
    }
    ExitCode::SUCCESS
}

/// `epicc replay`: offline branch prediction over a trace captured by
/// `epicc branches --capture` — no compilation or simulation, just the
/// predictor models over the recorded stream.
fn replay_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let Some(path) = kv.get("--trace") else {
        return fail("replay needs --trace FILE");
    };
    let specs: Vec<PredictorSpec> = match kv.get("--predictor").map(String::as_str) {
        None | Some("all") => PredictorSpec::ZOO.to_vec(),
        Some(v) => match PredictorSpec::parse(v) {
            Some(s) => vec![s],
            None => {
                return fail(format!(
                    "unknown predictor `{v}` (gshare|bimodal|tage|oracle)"
                ))
            }
        },
    };
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => return fail(format!("open {path}: {e}")),
    };
    let records = match epic_sim::read_branch_trace(&mut f) {
        Ok(r) => r,
        Err(e) => return fail(format!("read {path}: {e}")),
    };
    println!("# trace {path}: {} records", records.len());
    for spec in specs {
        let mut pred = epic_sim::AnyPredictor::from_spec(spec);
        let st = epic_sim::replay(&records, &mut pred);
        println!(
            "replay {} predictions={} mispredictions={} misp={:.2}% returns={} \
             ret_mispredictions={}",
            spec.name(),
            st.predictions,
            st.mispredictions,
            st.mispredict_pct(),
            st.returns,
            st.return_mispredictions,
        );
    }
    ExitCode::SUCCESS
}

/// Walk a dotted path (`totals.speedup`) through a JSON object tree.
fn json_path<'a>(j: &'a epic_bench::json::Json, path: &str) -> Option<&'a epic_bench::json::Json> {
    let mut cur = j;
    for seg in path.split('.') {
        match cur {
            epic_bench::json::Json::Obj(kvs) => {
                cur = &kvs.iter().find(|(k, _)| k == seg)?.1;
            }
            _ => return None,
        }
    }
    Some(cur)
}

/// Higher-is-better headline metrics per benchmark family.
fn family_metrics(bench: &str) -> Option<&'static [&'static str]> {
    match bench {
        "serve-saturate" => Some(&["event_loop.throughput_rps"]),
        "sampled-sim" => Some(&["totals.speedup"]),
        _ => None,
    }
}

/// `epicc benchcmp`: the BENCH checkpoint guard (first slice of ROADMAP
/// item 3) — compare a freshly generated bench JSON against the last
/// committed `BENCH_*.json` and red-flag any higher-is-better headline
/// metric that regressed by more than `--threshold-pct` (default 10).
///
/// `--history DIR` is the trajectory view instead: scan every
/// `BENCH_*.json` checkpoint in DIR (filename order — the PR-numbered
/// naming makes that chronological) and print each family's headline
/// metrics across all of them, with the net first-to-last delta.
fn benchcmp_cmd(args: &[String]) -> ExitCode {
    use epic_bench::json::Json;
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    if let Some(dir) = kv.get("--history") {
        return benchcmp_history(dir);
    }
    let (Some(base_path), Some(cur_path)) = (kv.get("--baseline"), kv.get("--current")) else {
        return fail("benchcmp needs --baseline FILE and --current FILE (or --history DIR)");
    };
    let thr: f64 = match kv.get("--threshold-pct").map_or(Ok(10.0), |v| v.parse()) {
        Ok(v) if v >= 0.0 => v,
        _ => return fail("--threshold-pct must be a non-negative number"),
    };
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{p}: {e}"))
    };
    let (base, cur) = match (read(base_path), read(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let bench_name = |j: &Json| -> Option<String> {
        match json_path(j, "benchmark") {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        }
    };
    let (Some(bench), Some(cur_bench)) = (bench_name(&base), bench_name(&cur)) else {
        return fail("both files need a top-level \"benchmark\" field");
    };
    if bench != cur_bench {
        return fail(format!(
            "benchmark mismatch: baseline is `{bench}`, current is `{cur_bench}`"
        ));
    }
    let Some(metrics) = family_metrics(&bench) else {
        return fail(format!("no benchcmp metrics defined for `{bench}`"));
    };
    let num = |j: &Json, path: &str, which: &str| -> Result<f64, String> {
        match json_path(j, path) {
            Some(Json::Num(n)) if *n > 0.0 => Ok(*n),
            _ => Err(format!("{which}: missing or non-positive metric `{path}`")),
        }
    };
    let mut regressions = Vec::new();
    for m in metrics {
        let (b, c) = match (num(&base, m, base_path), num(&cur, m, cur_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => return fail(e),
        };
        let delta = (c - b) / b * 100.0;
        let flag = c < b * (1.0 - thr / 100.0);
        println!(
            "benchcmp {bench} {m} baseline={b:.3} current={c:.3} delta={delta:+.1}%{}",
            if flag { " REGRESSION" } else { "" }
        );
        if flag {
            regressions.push(format!("{m} {delta:+.1}%"));
        }
    }
    if !regressions.is_empty() {
        return fail(format!(
            "bench regression vs {base_path} (> {thr}%): {}",
            regressions.join("; ")
        ));
    }
    println!("benchcmp-ok {bench} metrics={}", metrics.len());
    ExitCode::SUCCESS
}

/// `epicc benchcmp --history DIR`: per-metric trajectory across every
/// committed `BENCH_*.json` checkpoint. Checkpoints whose family has no
/// headline metrics (or that predate a metric) are reported, not fatal
/// — history is an audit view, not a gate.
fn benchcmp_history(dir: &str) -> ExitCode {
    use epic_bench::json::Json;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => return fail(format!("read {dir}: {e}")),
    };
    let mut files: Vec<String> = entries
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return fail(format!("no BENCH_*.json checkpoints in {dir}"));
    }
    // family -> [(file, parsed json)], in filename (i.e. PR) order
    let mut by_family: std::collections::BTreeMap<String, Vec<(String, Json)>> =
        std::collections::BTreeMap::new();
    for name in &files {
        let path = format!("{dir}/{name}");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(format!("read {path}: {e}")),
        };
        let j = match Json::parse(text.trim()) {
            Ok(j) => j,
            Err(e) => return fail(format!("{path}: {e}")),
        };
        let Some(Json::Str(bench)) = json_path(&j, "benchmark") else {
            return fail(format!("{path}: no top-level \"benchmark\" field"));
        };
        by_family
            .entry(bench.clone())
            .or_default()
            .push((name.clone(), j));
    }
    for (bench, checkpoints) in &by_family {
        let Some(metrics) = family_metrics(bench) else {
            println!("benchhist {bench}: no headline metrics defined, skipping");
            continue;
        };
        for m in metrics {
            let mut seen: Vec<f64> = Vec::new();
            for (name, j) in checkpoints {
                match json_path(j, m) {
                    Some(Json::Num(v)) => {
                        println!("benchhist {bench} {m} {name} {v:.3}");
                        seen.push(*v);
                    }
                    _ => println!("benchhist {bench} {m} {name} -"),
                }
            }
            if let (Some(first), Some(last)) = (seen.first(), seen.last()) {
                if seen.len() > 1 && *first > 0.0 {
                    println!(
                        "benchhist {bench} {m}: net {:+.1}% over {} checkpoints",
                        (last - first) / first * 100.0,
                        seen.len()
                    );
                }
            }
        }
    }
    println!(
        "benchhist-ok families={} files={}",
        by_family.len(),
        files.len()
    );
    ExitCode::SUCCESS
}

/// `epicc cluster <verb>`: fleet-mode subcommands.
fn cluster_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("serve") => cluster_serve_cmd(&args[1..]),
        Some("join") => cluster_join_cmd(&args[1..]),
        Some("drain") => cluster_drain_cmd(&args[1..]),
        Some("status") => cluster_status_cmd(&args[1..]),
        _ => fail(
            "usage: epicc cluster serve [--shards N] [--listen A] [--hedge-ms MS] [--workers N] [--queue-cap N]\n\
             \x20      epicc cluster join --gateway HOST:PORT --shard ID=ADDR\n\
             \x20      epicc cluster drain --gateway HOST:PORT --shard ID\n\
             \x20      epicc cluster status --gateway HOST:PORT",
        ),
    }
}

/// One greppable line per completed rebalance:
/// `rebalance <verb> keys_moved=.. bytes=.. ms=.. skipped=.. ring=2,3,4`.
fn print_rebalance(verb: &str, r: &epic_serve::RebalanceReport) {
    let ring: Vec<String> = r.ring.iter().map(u64::to_string).collect();
    println!(
        "rebalance {verb} keys_moved={} bytes={} ms={} skipped={} ring={}",
        r.keys_moved,
        r.bytes,
        r.ms,
        r.skipped,
        ring.join(",")
    );
}

/// Parse a `--shard ID=ADDR` join spec.
fn parse_shard_spec(v: &str) -> Result<(u64, String), String> {
    let Some((id, addr)) = v.split_once('=') else {
        return Err(format!("--shard wants ID=ADDR, got `{v}`"));
    };
    let id = id
        .parse()
        .map_err(|_| format!("bad shard id `{id}` in --shard"))?;
    if addr.is_empty() {
        return Err(format!("--shard `{v}` has an empty address"));
    }
    Ok((id, addr.to_string()))
}

/// `epicc cluster join`: add a running `epicd` to a gateway's ring.
/// The gateway warms the newcomer (pushes every cached key it will
/// own) before cutting the ring over, so it starts serving hits.
fn cluster_join_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let Some(spec) = kv.get("--shard") else {
        return fail("cluster join needs --shard ID=ADDR");
    };
    let (id, addr) = match parse_shard_spec(spec) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    match Endpoint::from_kv(&kv, "cluster join")
        .and_then(|ep| ep.connect())
        .and_then(|mut conn| conn.run("cluster join", |c| c.cluster_join(id, &addr)))
    {
        Ok(report) => {
            print_rebalance("join", &report);
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `epicc cluster drain`: remove a shard from a gateway's ring. Its
/// cached results are pushed to their new owners before the ring cuts
/// over, so the fleet loses no warmth; the daemon itself keeps running
/// (and still answers fleet-wide shutdown) until stopped.
fn cluster_drain_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let id: u64 = match kv.get("--shard").map(|v| v.parse()) {
        Some(Ok(id)) => id,
        Some(Err(_)) => return fail("--shard must be a shard id (integer)"),
        None => return fail("cluster drain needs --shard ID"),
    };
    match Endpoint::from_kv(&kv, "cluster drain")
        .and_then(|ep| ep.connect())
        .and_then(|mut conn| conn.run("cluster drain", |c| c.cluster_drain(id)))
    {
        Ok(report) => {
            print_rebalance("drain", &report);
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `epicc cluster status`: the gateway's live view of the fleet — ring
/// version, membership, and per-shard reachability plus cached-key
/// counts (drained-but-running shards show `in_ring=no reachable=yes`).
fn cluster_status_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let fs = match Endpoint::from_kv(&kv, "cluster status")
        .and_then(|ep| ep.connect())
        .and_then(|mut conn| conn.run("cluster status", |c| c.fleet_status()))
    {
        Ok(fs) => fs,
        Err(e) => return fail(e),
    };
    let yn = |b: bool| if b { "yes" } else { "no" };
    let ring: Vec<String> = fs
        .shards
        .iter()
        .filter(|s| s.in_ring)
        .map(|s| s.id.to_string())
        .collect();
    println!("fleet version={} ring={}", fs.version, ring.join(","));
    for s in &fs.shards {
        println!(
            "shard {} addr={} in_ring={} reachable={} keys={}",
            s.id,
            s.addr,
            yn(s.in_ring),
            yn(s.reachable),
            s.keys
        );
    }
    ExitCode::SUCCESS
}

/// `epicc cluster serve`: an N-shard fleet plus `epicg` gateway in one
/// process. Prints `epicg listening on <addr>` and serves until a
/// client sends `shutdown` through the gateway (which stops the shards
/// first, then the gateway).
///
/// In-process caveat: every shard shares the one process-global metrics
/// registry, so the `shard<id>.` sections of `top --cluster` all show
/// the same combined numbers. Stats (`epicc stats`) are per-scheduler
/// and honest. For real per-shard metrics run separate `epicd`
/// processes — the CI cluster stage does exactly that.
fn cluster_serve_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    let shards = match kv.get("--shards").map_or(Ok(3), |v| v.parse::<u64>()) {
        Ok(n) if n > 0 => n,
        _ => return fail("--shards must be a positive integer"),
    };
    let workers = kv.get("--workers").map_or(Ok(0), |v| v.parse());
    let queue_cap = kv.get("--queue-cap").map_or(Ok(256), |v| v.parse());
    let (Ok(workers), Ok(queue_cap)) = (workers, queue_cap) else {
        return fail("--workers/--queue-cap must be integers");
    };
    let defaults = epic_cluster::GatewayConfig::default();
    let hedge_ms = kv
        .get("--hedge-ms")
        .map_or(Ok(defaults.hedge_after.as_millis() as u64), |v| v.parse());
    let Ok(hedge_ms) = hedge_ms else {
        return fail("--hedge-ms must be an integer");
    };
    let listen = kv
        .get("--listen")
        .map_or("127.0.0.1:0", String::as_str)
        .to_string();
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for id in 1..=shards {
        let sched = std::sync::Arc::new(epic_serve::Scheduler::new(
            std::sync::Arc::new(epic_serve::ArtifactStore::in_memory()),
            workers,
            queue_cap,
        ));
        let cfg = epic_serve::ServerConfig {
            shard_id: id,
            ..epic_serve::ServerConfig::default()
        };
        match epic_serve::serve_with("127.0.0.1:0", sched, cfg) {
            Ok(h) => {
                addrs.push((id, h.addr().to_string()));
                handles.push(h);
            }
            Err(e) => return fail(format!("shard {id}: {e}")),
        }
    }
    let gcfg = epic_cluster::GatewayConfig {
        hedge_after: std::time::Duration::from_millis(hedge_ms),
        ..defaults
    };
    let mut gw = match epic_cluster::gate(&listen, &addrs, gcfg) {
        Ok(g) => g,
        Err(e) => return fail(format!("bind {listen}: {e}")),
    };
    println!("epicg listening on {}", gw.addr());
    for (id, addr) in &addrs {
        eprintln!("epicg: shard {id} at {addr}");
    }
    gw.wait();
    // shutdown fanned out through the gateway already stopped the
    // shards' loops; joining drains their schedulers
    for mut h in handles {
        h.wait();
    }
    ExitCode::SUCCESS
}

/// `epicc shutdown`: ask a server to exit cleanly.
fn shutdown_cmd(args: &[String]) -> ExitCode {
    let kv = match parse_kv(args, &[]) {
        Ok(kv) => kv,
        Err(e) => return fail(e),
    };
    match Endpoint::from_kv(&kv, "shutdown")
        .and_then(|ep| ep.connect())
        .and_then(|mut conn| conn.run("shutdown", |c| c.shutdown()))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}
