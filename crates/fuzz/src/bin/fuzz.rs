//! Differential fuzzing driver.
//!
//! ```text
//! cargo run --release -p epic-fuzz --bin fuzz -- [--cases N] [--seconds S]
//!     [--seed N] [--corpus FILE] [--max-corpus N] [--levels L1,L2]
//!     [--no-shrink] [--no-cache-oracle] [--inject-bug]
//! ```
//!
//! Exits 0 when every case passed its oracles, 1 on any violation
//! (after printing a minimized, paste-ready regression snippet per
//! failure), 2 on usage errors.

#![forbid(unsafe_code)]

use epic_fuzz::oracle::OptLevel;
use epic_fuzz::{corpus, run_fuzz, FuzzConfig};

const USAGE: &str = "usage: fuzz [--cases N] [--seconds S] [--seed N] [--corpus FILE]
            [--max-corpus N] [--levels GCC,O-NS,ILP-NS,ILP-CS]
            [--no-shrink] [--no-cache-oracle] [--inject-bug]";

fn parse_level(name: &str) -> Option<OptLevel> {
    OptLevel::ALL.into_iter().find(|l| l.name() == name)
}

fn main() {
    let mut cfg = FuzzConfig::default();
    let mut corpus_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let next_value = |flag: &str, it: &mut dyn Iterator<Item = String>| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => {
                cfg.max_cases = next_value("--cases", &mut args)
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--cases: not a number\n{USAGE}");
                        std::process::exit(2);
                    })
            }
            "--seconds" => {
                cfg.max_seconds = Some(next_value("--seconds", &mut args).parse().unwrap_or_else(
                    |_| {
                        eprintln!("--seconds: not a number\n{USAGE}");
                        std::process::exit(2);
                    },
                ))
            }
            "--seed" => {
                cfg.seed = next_value("--seed", &mut args).parse().unwrap_or_else(|_| {
                    eprintln!("--seed: not a number\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--max-corpus" => {
                cfg.max_corpus = next_value("--max-corpus", &mut args)
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--max-corpus: not a number\n{USAGE}");
                        std::process::exit(2);
                    })
            }
            "--levels" => {
                let spec = next_value("--levels", &mut args);
                let levels: Option<Vec<OptLevel>> =
                    spec.split(',').map(|n| parse_level(n.trim())).collect();
                cfg.oracle.levels = levels.unwrap_or_else(|| {
                    eprintln!("--levels: unknown level in {spec:?}\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--corpus" => corpus_path = Some(next_value("--corpus", &mut args)),
            "--no-shrink" => cfg.shrink_failures = false,
            "--no-cache-oracle" => cfg.oracle.cache_consistency = false,
            "--inject-bug" => cfg.oracle.inject_bug = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let seed_text = match &corpus_path {
        Some(p) => std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("--corpus {p}: {e}");
            std::process::exit(2);
        }),
        None => corpus::DEFAULT_SEEDS.to_string(),
    };
    let seeds = corpus::parse_seed_list(&seed_text);
    if seeds.is_empty() {
        eprintln!("seed corpus is empty");
        std::process::exit(2);
    }

    println!(
        "fuzz: {} seeds, up to {} cases{}, master seed {}, levels {:?}",
        seeds.len(),
        cfg.max_cases,
        cfg.max_seconds
            .map_or(String::new(), |s| format!(" / {s}s")),
        cfg.seed,
        cfg.oracle
            .levels
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
    );
    let report = run_fuzz(&seeds, &cfg);
    println!("fuzz: {}", report.render());
    for (i, f) in report.failures.iter().enumerate() {
        let lines = f.shrunk.as_deref().unwrap_or(&f.source).lines().count();
        println!();
        println!(
            "--- failure {} [{}] ({} line reproducer, {} shrink probes) ---",
            i + 1,
            f.bucket,
            lines,
            f.shrink_probes
        );
        print!("{}", f.regression_snippet());
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}
