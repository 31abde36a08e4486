//! `epicbench compare`: judge a set of head runs against a set of base
//! runs, per (workload, end-to-end metric), with the bounds
//! `BENCHMARK.json` fixes — the small-sandbox rule of the
//! choosing-metrics method: medians and quartiles per side, the share of
//! paired runs the head wins, and one verdict per row.

use crate::stats::quartiles;
use epic_bench::json::Json;
use std::collections::BTreeMap;

/// Metrics judged by an absolute bound, in their own unit: the largest
/// sampled-simulation error may grow by at most 0.1 percentage points.
/// They are read from the run files of the workloads that report them;
/// `BENCHMARK.json` cannot list them, since every workload reports each
/// of its metrics and each bound there is a share of the base median.
pub const ABSOLUTE: [(&str, f64); 1] = [("sampled_max_err_pct", 0.1)];

/// One metric's regression rule.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Smaller is better.
    pub lower_better: bool,
    /// Largest tolerated worsening of the median: a share of the base
    /// median, or with `absolute` a difference in the metric's unit.
    pub bound: f64,
    /// `bound` is a difference, not a share.
    pub absolute: bool,
}

fn field<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(j: Option<&Json>) -> Option<f64> {
    match j {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    }
}

fn text(j: Option<&Json>) -> Option<&str> {
    match j {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document, then the
/// [`ABSOLUTE`] ones.
///
/// # Errors
/// A missing or malformed `end_to_end` list.
pub fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    let Some(Json::Arr(list)) = field(doc, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out = list
        .iter()
        .map(|m| {
            let name = text(field(m, "name")).ok_or("end_to_end entry without a name")?;
            let better = text(field(m, "better")).ok_or("end_to_end entry without `better`")?;
            let bound = num(field(m, "bound")).ok_or("end_to_end entry without a bound")?;
            Ok(Bound {
                name: name.to_string(),
                lower_better: better == "lower",
                bound,
                absolute: false,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    out.extend(ABSOLUTE.iter().map(|&(name, bound)| Bound {
        name: name.to_string(),
        lower_better: true,
        bound,
        absolute: true,
    }));
    Ok(out)
}

/// One workload's record in a run file.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: f64,
    /// Operations failed.
    pub failed: f64,
}

/// A run file: the settings it ran with and workload name → record.
#[derive(Clone, Debug, Default)]
pub struct RunFile {
    /// `--seconds` of the run.
    pub seconds: f64,
    /// `--trace` of the run.
    pub trace: bool,
    /// Records by workload name.
    pub workloads: BTreeMap<String, Record>,
}

/// Parse a run file written by `epicbench run`.
///
/// # Errors
/// A document without its settings or a `workloads` object.
pub fn parse_run(doc: &Json) -> Result<RunFile, String> {
    let seconds = num(field(doc, "seconds")).ok_or("run file has no seconds")?;
    let Some(&Json::Bool(trace)) = field(doc, "trace") else {
        return Err("run file has no trace flag".into());
    };
    let Some(Json::Obj(workloads)) = field(doc, "workloads") else {
        return Err("run file has no workloads object".into());
    };
    let mut out = RunFile {
        seconds,
        trace,
        workloads: BTreeMap::new(),
    };
    for (name, rec) in workloads {
        let mut r = Record {
            attempted: num(field(rec, "attempted")).unwrap_or(0.0),
            failed: num(field(rec, "failed")).unwrap_or(0.0),
            ..Record::default()
        };
        if let Some(Json::Obj(metrics)) = field(rec, "metrics") {
            for (m, v) in metrics {
                if let Some(x) = num(field(v, "value")) {
                    r.metrics.insert(m.clone(), x);
                }
            }
        }
        out.workloads.insert(name.clone(), r);
    }
    Ok(out)
}

/// Outcome of one (workload, metric) row.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The head wins at least nine tenths of the paired runs and the
    /// medians differ by more than the base runs' own spread.
    Improved,
    /// No worse than the bound, and the spread resolves it.
    Unchanged,
    /// The head median is worse than the base median by more than the
    /// bound.
    Regressed,
    /// Run-to-run spread wider than the bound, and not every head run
    /// beats every base run: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The judged comparison of one metric.
#[derive(Clone, Debug)]
pub struct Judgement {
    /// Base (q1, median, q3).
    pub base: (f64, f64, f64),
    /// Head (q1, median, q3).
    pub head: (f64, f64, f64),
    /// Share of pairs (base run i, head run i) the head wins; ties
    /// count for neither side.
    pub win: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn share(delta: f64, of: f64) -> f64 {
    if of != 0.0 {
        delta / of.abs()
    } else if delta == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// Judge `head` runs against `base` runs of one metric under `rule`.
pub fn judge(base: &[f64], head: &[f64], rule: &Bound) -> Judgement {
    let b = quartiles(base);
    let h = quartiles(head);
    let lower_better = rule.lower_better;
    let better = |x: f64, y: f64| if lower_better { x < y } else { x > y };
    // A change of `delta` against `of`, in the units of `rule.bound`.
    let scaled = |delta: f64, of: f64| {
        if rule.absolute {
            delta
        } else {
            share(delta, of)
        }
    };
    let pairs = base.len().min(head.len());
    let wins = (0..pairs).filter(|&i| better(head[i], base[i])).count();
    let win = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let worse = scaled(if lower_better { h.1 - b.1 } else { b.1 - h.1 }, b.1);
    let spread = scaled(b.2 - b.0, b.1).max(scaled(h.2 - h.0, h.1));
    let all_beat = head.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let bound = rule.bound;
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if win >= 0.9 && better(h.1, b.1) && (h.1 - b.1).abs() > b.2 - b.0 {
        Verdict::Improved
    } else if spread > bound && !all_beat {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        base: b,
        head: h,
        win,
        verdict,
    }
}

/// Compare run sets; returns the report and whether it passes (no
/// regression and no higher failure ratio on any workload).
///
/// # Errors
/// Run files that ran with different `--seconds` or `--trace`: their
/// metrics do not measure the same thing.
pub fn compare(
    base: &[RunFile],
    head: &[RunFile],
    bounds: &[Bound],
) -> Result<(String, bool), String> {
    let mut settings: Vec<(f64, bool)> = base
        .iter()
        .chain(head)
        .map(|r| (r.seconds, r.trace))
        .collect();
    settings.dedup();
    if settings.len() > 1 {
        return Err(format!(
            "run files differ in (seconds, trace): {settings:?}"
        ));
    }
    let mut workloads: Vec<&String> = base
        .iter()
        .chain(head)
        .flat_map(|r| r.workloads.keys())
        .collect();
    workloads.sort();
    workloads.dedup();
    let mut out = format!(
        "{:<13} {:<19} {:>28} {:>28} {:>9} {:>5}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "win"
    );
    let mut pass = true;
    for w in workloads {
        let values = |runs: &[RunFile], m: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.workloads.get(w)?.metrics.get(m).copied())
                .collect()
        };
        for b in bounds {
            let (bv, hv) = (values(base, &b.name), values(head, &b.name));
            if bv.is_empty() || hv.is_empty() {
                continue;
            }
            let j = judge(&bv, &hv, b);
            pass &= j.verdict != Verdict::Regressed;
            let change = if b.absolute {
                format!("{:+.3}", j.head.1 - j.base.1)
            } else {
                format!("{:+.2}%", 100.0 * share(j.head.1 - j.base.1, j.base.1))
            };
            out.push_str(&format!(
                "{:<13} {:<19} {:>28} {:>28} {:>9} {:>5.2}  {}\n",
                w,
                b.name,
                format!("{:.6} [{:.6}, {:.6}]", j.base.1, j.base.0, j.base.2),
                format!("{:.6} [{:.6}, {:.6}]", j.head.1, j.head.0, j.head.2),
                change,
                j.win,
                j.verdict.name()
            ));
        }
        let ratio = |runs: &[RunFile]| {
            let (f, a) = runs
                .iter()
                .filter_map(|r| r.workloads.get(w))
                .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
            if a > 0.0 {
                f / a
            } else {
                0.0
            }
        };
        let (bf, hf) = (ratio(base), ratio(head));
        let ok = hf <= bf;
        pass &= ok;
        out.push_str(&format!(
            "{:<13} {:<19} {:>28} {:>28} {:>9} {:>5}  {}\n",
            w,
            "fail_ratio",
            format!("{bf:.6}"),
            format!("{hf:.6}"),
            "",
            "",
            if ok { "unchanged" } else { "regressed" }
        ));
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    fn rule(name: &str, lower_better: bool, bound: f64, absolute: bool) -> Bound {
        Bound {
            name: name.into(),
            lower_better,
            bound,
            absolute,
        }
    }

    #[test]
    fn every_verdict_on_synthetic_runs() {
        let lower = rule("t", true, 0.1, false);
        let higher = rule("t", false, 0.1, false);
        let base = runs(10, |i| 100.0 + (i % 3) as f64);
        // 20% faster in every pair: improved
        let fast = runs(10, |i| 80.0 + (i % 3) as f64);
        assert_eq!(judge(&base, &fast, &lower).verdict, Verdict::Improved);
        // the same runs again: unchanged
        assert_eq!(judge(&base, &base, &lower).verdict, Verdict::Unchanged);
        // 20% slower: regressed
        let slow = runs(10, |i| 120.0 + (i % 3) as f64);
        assert_eq!(judge(&base, &slow, &lower).verdict, Verdict::Regressed);
        // a higher-is-better metric reads the other way round
        assert_eq!(judge(&base, &slow, &higher).verdict, Verdict::Improved);
        // spread wider than the bound: unresolved
        let noisy = runs(10, |i| if i % 2 == 0 { 70.0 } else { 130.0 });
        assert_eq!(judge(&noisy, &noisy, &lower).verdict, Verdict::Unresolved);
        // ... unless every head run beats every base run
        let beat = runs(10, |i| 60.0 + i as f64 / 10.0);
        let j = judge(&noisy, &beat, &lower);
        assert_ne!(j.verdict, Verdict::Unresolved);
        assert_eq!(j.win, 1.0);
    }

    #[test]
    fn an_absolute_bound_catches_an_accuracy_regression_a_share_would_miss() {
        let err = rule("sampled_max_err_pct", true, 0.1, true);
        let base = runs(10, |_| 4.0);
        // +0.2 points is 5% of the base: inside a 10% share, outside 0.1 pp
        let worse = runs(10, |_| 4.2);
        assert_eq!(
            judge(&base, &worse, &rule("e", true, 0.1, false)).verdict,
            Verdict::Unchanged
        );
        assert_eq!(judge(&base, &worse, &err).verdict, Verdict::Regressed);
        // +0.05 points stays inside it
        let close = runs(10, |_| 4.05);
        assert_eq!(judge(&base, &close, &err).verdict, Verdict::Unchanged);
        // and a drop is an improvement
        let better = runs(10, |_| 1.0);
        assert_eq!(judge(&base, &better, &err).verdict, Verdict::Improved);
    }

    fn file(metric: &str, value: f64, failed: f64) -> RunFile {
        let mut r = Record {
            attempted: 100.0,
            failed,
            ..Record::default()
        };
        r.metrics.insert(metric.into(), value);
        RunFile {
            seconds: 5.0,
            trace: false,
            workloads: BTreeMap::from([("cold_sampled".to_string(), r)]),
        }
    }

    #[test]
    fn a_higher_fail_ratio_fails_the_comparison() {
        let bounds = vec![rule("matrix_wall_s", true, 0.1, false)];
        let f = |failed| file("matrix_wall_s", 1.0, failed);
        let (_, pass) = compare(&[f(0.0)], &[f(0.0)], &bounds).unwrap();
        assert!(pass);
        let (report, pass) = compare(&[f(0.0)], &[f(1.0)], &bounds).unwrap();
        assert!(!pass, "{report}");
        assert!(report.contains("fail_ratio"));
    }

    #[test]
    fn a_sampled_error_regression_fails_the_comparison() {
        let doc = Json::parse(r#"{"end_to_end":[]}"#).unwrap();
        let bounds = bounds(&doc).unwrap();
        let f = |err| file("sampled_max_err_pct", err, 0.0);
        let (_, pass) = compare(&[f(1.47)], &[f(1.5)], &bounds).unwrap();
        assert!(pass);
        let (report, pass) = compare(&[f(1.47)], &[f(4.9)], &bounds).unwrap();
        assert!(!pass, "{report}");
        assert!(report.contains("regressed"));
    }

    #[test]
    fn run_files_with_different_settings_do_not_compare() {
        let base = file("matrix_wall_s", 1.0, 0.0);
        let mut head = base.clone();
        head.seconds = 10.0;
        assert!(compare(std::slice::from_ref(&base), &[head], &[]).is_err());
        let mut head = base.clone();
        head.trace = true;
        assert!(compare(&[base], &[head], &[]).is_err());
    }

    #[test]
    fn bounds_parse_from_a_benchmark_document() {
        let doc = Json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), 1 + ABSOLUTE.len());
        assert!(b[0].lower_better && !b[0].absolute);
        assert_eq!(b[0].bound, 0.1);
        assert!(b[1..].iter().all(|b| b.absolute));
    }
}
