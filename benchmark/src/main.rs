//! `epicbench` — run the benchmark's workloads, or compare two sets of
//! runs. See `README.md`.

use epic_bench::json::Json;
use epicbench::compare;
use epicbench::layers;
use epicbench::ledger::Ledger;
use epicbench::workload::{self, RunOpts, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  epicbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  epicbench compare --base RUN.json... --head RUN.json... [--bench BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(|a| match a.workload {
            Some(wl) => run_one(wl, &a),
            None => run_all(&a),
        }),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err("expected a subcommand".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("epicbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Option<Workload>,
    opts: RunOpts,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        opts: RunOpts {
            seed: 1,
            seconds: 5.0,
            trace: false,
        },
        out: PathBuf::from(".epicbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => a.opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.opts.seconds > 0.0 && a.opts.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, not {value}"));
                }
            }
            "--trace" => {
                a.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            "--out" => a.out = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// The `compare` input format: `{seed, seconds, trace, workloads: {name:
/// ledger}}`. `compare` refuses run files whose settings differ.
fn run_file(a: &RunArgs, ledgers: &[&Ledger]) -> Json {
    Json::obj([
        ("seed", Json::Num(a.opts.seed as f64)),
        ("seconds", Json::Num(a.opts.seconds)),
        ("trace", Json::Bool(a.opts.trace)),
        (
            "workloads",
            Json::Obj(
                ledgers
                    .iter()
                    .map(|l| (l.workload.clone(), l.to_json()))
                    .collect(),
            ),
        ),
    ])
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in this process: `metric` lines, the run file (and
/// span file when traced), then the one-line JSON result.
fn run_one(wl: Workload, a: &RunArgs) -> ExitCode {
    let (ledger, snap) = match workload::run(wl, &a.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("epicbench: {}: {e}", wl.name());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", ledger.lines());
    for w in &ledger.wrong {
        eprintln!("epicbench: {}: {w}", wl.name());
    }
    let tag = if a.opts.trace { "_trace" } else { "" };
    let path = a
        .out
        .join(format!("run_{}_s{}{tag}.json", wl.name(), a.opts.seed));
    let mut saved = write(&path, &run_file(a, &[&ledger]));
    if let Some(snap) = &snap {
        saved = saved.and(
            layers::write_trace(&a.out, wl.name(), a.opts.seed, snap)
                .map_err(|e| format!("trace file: {e}")),
        );
    }
    let result = saved.and(ledger.result_json(a.opts.trace));
    match result {
        Ok(line) => {
            println!("{line}");
            if ledger.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("epicbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run `wl` in a fresh child process of this binary, so peak RSS and the
/// process-wide metrics registry belong to that workload alone. Returns
/// the child's ledger rebuilt from its `metric` lines and result line.
fn run_child(wl: Workload, a: &RunArgs, trace: bool) -> Result<Ledger, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe);
    child
        .arg("run")
        .args(["--workload", wl.name()])
        .args(["--seed", &a.opts.seed.to_string()])
        .args(["--seconds", &a.opts.seconds.to_string()])
        .arg("--out")
        .arg(&a.out)
        .stderr(Stdio::inherit());
    if trace {
        child.args(["--trace", "1"]);
    }
    let out = child
        .output()
        .map_err(|e| format!("spawning {}: {e}", wl.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut ledger = Ledger::new(wl.name());
    let mut result = None;
    for line in stdout.lines() {
        if !ledger.absorb_line(line) {
            result = Json::parse(line).ok();
        }
    }
    let Some(Json::Obj(result)) = result else {
        return Err(format!("{} printed no result ({})", wl.name(), out.status));
    };
    for (k, v) in result {
        match (k.as_str(), v) {
            ("attempted", Json::Num(n)) => ledger.attempted = n as u64,
            ("failed", Json::Num(n)) => ledger.failed = n as u64,
            ("correct", Json::Bool(false)) => ledger.wrong.push("wrong output".into()),
            _ => {}
        }
    }
    Ok(ledger)
}

/// Run every workload, each in its own child process. With tracing, each
/// workload runs untraced and then traced, and the traced ledger gains
/// `bench.trace_overhead_pct` on the workload's primary metric.
fn run_all(a: &RunArgs) -> ExitCode {
    let mut ledgers = Vec::new();
    for wl in Workload::ALL {
        let run = run_child(wl, a, false).and_then(|plain| {
            if !a.opts.trace {
                return Ok(plain);
            }
            let mut traced = run_child(wl, a, true)?;
            let p = wl.primary();
            if let (Some(x), Some(t)) = (plain.get(p), traced.get(p)) {
                traced.put("bench.trace_overhead_pct", 100.0 * (t - x) / x, "%");
            }
            Ok(traced)
        });
        match run {
            Ok(l) => {
                print!("{}", l.lines());
                ledgers.push(l);
            }
            Err(e) => {
                eprintln!("epicbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let refs: Vec<&Ledger> = ledgers.iter().collect();
    let tag = if a.opts.trace { "_trace" } else { "" };
    let path = a.out.join(format!("run_s{}{tag}.json", a.opts.seed));
    if let Err(e) = write(&path, &run_file(a, &refs)) {
        eprintln!("epicbench: {e}");
        return ExitCode::FAILURE;
    }
    let attempted: u64 = ledgers.iter().map(|l| l.attempted).sum();
    let failed: u64 = ledgers.iter().map(|l| l.failed).sum();
    let correct = ledgers.iter().all(Ledger::correct);
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("run_file", Json::Str(path.display().to_string())),
        ])
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (mut base, mut head) = (Vec::new(), Vec::new());
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--head" => side = Some(&mut head),
            "--bench" => {
                bench = PathBuf::from(it.next().ok_or("--bench needs a value")?);
                side = None;
            }
            file => match side.as_mut() {
                Some(files) => files.push(file.to_string()),
                None => return Err(format!("unexpected argument `{file}`")),
            },
        }
    }
    if base.is_empty() || head.is_empty() {
        return Err("compare needs --base and --head run files".into());
    }
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds = compare::bounds(&load(&bench.display().to_string())?)?;
    let runs = |files: &[String]| -> Result<Vec<compare::RunFile>, String> {
        files
            .iter()
            .map(|f| compare::parse_run(&load(f)?).map_err(|e| format!("{f}: {e}")))
            .collect()
    };
    let (report, pass) = compare::compare(&runs(&base)?, &runs(&head)?, &bounds)?;
    print!("{report}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
