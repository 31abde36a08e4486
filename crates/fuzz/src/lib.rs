//! # epic-fuzz
//!
//! Differential fuzzing subsystem: coverage-guided mutation over
//! generated MiniC programs, a stack of metamorphic oracles, and an
//! automatic delta-debugging shrinker that turns any violation into a
//! paste-ready regression test.
//!
//! The loop ([`run_fuzz`]):
//!
//! 1. every corpus seed regenerates its program and runs the full
//!    oracle stack ([`oracle::check`]);
//! 2. mutation cases pick a weighted corpus entry, apply one rewrite
//!    ([`mutate::Mutator`]), and re-run the oracles;
//! 3. mutants that exercise *new* pipeline behavior — judged by the
//!    [`epic_driver::PassTimeline`] coverage signature — join the corpus
//!    with extra weight, so the search walks toward untested transform
//!    interactions;
//! 4. failures are minimized ([`shrink::shrink`]) against a predicate
//!    that demands the *same* failure bucket, and reported as a
//!    `check_source(…)` snippet for `tests/random_differential.rs`.
//!
//! Everything is deterministic: one `--seed` fixes the whole run (the
//! optional wall-clock budget can truncate it, never reorder it).

#![forbid(unsafe_code)]

pub mod corpus;
pub mod framefuzz;
pub mod mutate;
pub mod oracle;
pub mod shrink;

use epic_ir::testing::{minic_program, Rng};
use mutate::Mutator;
use oracle::{alt_train_args, args_for_seed, check, Failure, OracleOptions, Verdict};
use std::time::Instant;

/// Fuzz campaign configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed for corpus picks and mutation streams.
    pub seed: u64,
    /// Oracle evaluations (seed + mutant) before stopping.
    pub max_cases: usize,
    /// Optional wall-clock budget; checked between cases.
    pub max_seconds: Option<f64>,
    /// Corpus size cap; beyond it, novel mutants replace random entries.
    pub max_corpus: usize,
    /// Stop after this many failures (each may cost a shrink).
    pub max_failures: usize,
    /// Minimize failures before reporting.
    pub shrink_failures: bool,
    /// Predicate-evaluation budget per shrink.
    pub shrink_probes: usize,
    /// Oracle stack configuration.
    pub oracle: OracleOptions,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            max_cases: 200,
            max_seconds: None,
            max_corpus: 64,
            max_failures: 3,
            shrink_failures: true,
            shrink_probes: 600,
            oracle: OracleOptions::default(),
        }
    }
}

/// One oracle violation, with its minimized reproducer when shrinking
/// was enabled and made progress.
#[derive(Clone, Debug)]
pub struct FoundFailure {
    /// The source that first failed.
    pub source: String,
    /// Arguments it ran with.
    pub args: [i64; 2],
    /// Triage bucket (see [`oracle::Failure`]).
    pub bucket: String,
    /// Human-readable detail.
    pub detail: String,
    /// Minimized source, if shrinking ran.
    pub shrunk: Option<String>,
    /// Probes the shrink spent.
    pub shrink_probes: usize,
}

impl FoundFailure {
    /// A ready-to-paste regression for `tests/random_differential.rs`
    /// (its `check_source` helper).
    pub fn regression_snippet(&self) -> String {
        let src = self.shrunk.as_deref().unwrap_or(&self.source);
        format!(
            "// fuzz regression — {}: {}\ncheck_source(\n    r#\"{}\"#,\n    [{}, {}],\n);\n",
            self.bucket, self.detail, src, self.args[0], self.args[1]
        )
    }
}

/// Campaign summary.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Oracle evaluations performed.
    pub cases: usize,
    /// Candidates outside the oracle domain (frontend reject / fuel).
    pub rejected: usize,
    /// Cases that produced a previously-unseen coverage signature.
    pub new_signatures: usize,
    /// Corpus size at the end.
    pub corpus_len: usize,
    /// Wall-clock seconds elapsed.
    pub elapsed: f64,
    /// Oracle violations, shrunk when configured.
    pub failures: Vec<FoundFailure>,
}

impl FuzzReport {
    /// One-paragraph human summary.
    pub fn render(&self) -> String {
        format!(
            "{} cases in {:.1}s ({} rejected, {} novel-coverage, corpus {}): {}",
            self.cases,
            self.elapsed,
            self.rejected,
            self.new_signatures,
            self.corpus_len,
            if self.failures.is_empty() {
                "no oracle violations".to_string()
            } else {
                format!("{} FAILURE(S)", self.failures.len())
            }
        )
    }
}

fn record_failure(
    src: String,
    args: [i64; 2],
    f: Failure,
    cfg: &FuzzConfig,
    failures: &mut Vec<FoundFailure>,
) {
    let (shrunk, probes) = if cfg.shrink_failures {
        let mut opts = cfg.oracle.clone();
        if let Some(level) = f.level {
            // Re-checking only the failing level makes each probe one
            // compile instead of four.
            opts.levels = vec![level];
        }
        let bucket = f.bucket.clone();
        let mut pred = |s: &str| oracle::fails_with(s, args, alt_train_args(args), &opts, &bucket);
        let (small, stats) = shrink::shrink(&src, &mut pred, cfg.shrink_probes);
        (Some(small), stats.probes)
    } else {
        (None, 0)
    };
    failures.push(FoundFailure {
        source: src,
        args,
        bucket: f.bucket,
        detail: f.detail,
        shrunk,
        shrink_probes: probes,
    });
}

/// Run a fuzz campaign from `seeds` under `cfg`. Fully deterministic for
/// a given (seeds, cfg.seed, case budget); the optional time budget only
/// truncates the case sequence.
pub fn run_fuzz(seeds: &[u64], cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let out_of_time = |_: ()| {
        cfg.max_seconds
            .is_some_and(|s| start.elapsed().as_secs_f64() >= s)
    };
    let mut report = FuzzReport::default();
    let mut sigs = std::collections::HashSet::new();
    // (source, args, weight): seeds enter at weight 2, novel mutants at 3.
    let mut corpus: Vec<(String, [i64; 2], u64)> = Vec::new();

    for &seed in seeds {
        if report.cases >= cfg.max_cases
            || report.failures.len() >= cfg.max_failures
            || out_of_time(())
        {
            break;
        }
        let src = minic_program(seed);
        let args = args_for_seed(seed);
        report.cases += 1;
        match check(&src, args, alt_train_args(args), &cfg.oracle) {
            Verdict::Pass { signature } => {
                if sigs.insert(signature) {
                    report.new_signatures += 1;
                }
                corpus.push((src, args, 2));
            }
            Verdict::Reject(_) => report.rejected += 1,
            Verdict::Fail(f) => record_failure(src, args, f, cfg, &mut report.failures),
        }
    }

    let rng = Rng::new(cfg.seed);
    let mut case_id = 0u64;
    while !corpus.is_empty()
        && report.cases < cfg.max_cases
        && report.failures.len() < cfg.max_failures
        && !out_of_time(())
    {
        case_id += 1;
        let mut r = rng.derive(case_id);
        let total: u64 = corpus.iter().map(|e| e.2).sum();
        let mut roll = r.pick(total);
        let mut idx = 0;
        for (i, e) in corpus.iter().enumerate() {
            if roll < e.2 {
                idx = i;
                break;
            }
            roll -= e.2;
        }
        let (src, args, _) = corpus[idx].clone();
        let mut mutator = Mutator::new(r.next_u64());
        report.cases += 1;
        let Some(mutant) = mutator.mutate(&src) else {
            report.rejected += 1;
            continue;
        };
        match check(&mutant, args, alt_train_args(args), &cfg.oracle) {
            Verdict::Pass { signature } => {
                if sigs.insert(signature) {
                    report.new_signatures += 1;
                    if corpus.len() < cfg.max_corpus {
                        corpus.push((mutant, args, 3));
                    } else {
                        let slot = r.pick_usize(corpus.len());
                        corpus[slot] = (mutant, args, 3);
                    }
                }
            }
            Verdict::Reject(_) => report.rejected += 1,
            Verdict::Fail(f) => record_failure(mutant, args, f, cfg, &mut report.failures),
        }
    }

    report.corpus_len = corpus.len();
    report.elapsed = start.elapsed().as_secs_f64();
    report
}
