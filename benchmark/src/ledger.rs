//! The ledger one workload run fills: every metric by name and unit,
//! operation counts, and the wrong outputs that fail the run.

use epic_bench::json::Json;

/// End-to-end metrics, emitted by every workload (`BENCHMARK.json`
/// `end_to_end` lists exactly these).
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("warm_p50_us", "us")];

/// Per-layer metrics every workload's traced run emits
/// (`BENCHMARK.json` `per_layer` lists exactly these). Metrics that
/// exist on only some workloads (gateway, fleet, scheduler histograms)
/// are printed as `metric` lines and kept in the run files.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("matrix_wall_s", "s"),
    ("warm_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("lang.compile_ms", "ms"),
    ("pass.profile_ms", "ms"),
    ("pass.promote_ms", "ms"),
    ("pass.inline_ms", "ms"),
    ("pass.classical_ms", "ms"),
    ("pass.alias_ms", "ms"),
    ("pass.ilp-transform_ms", "ms"),
    ("pass.verify_ms", "ms"),
    ("pass.schedule_ms", "ms"),
    ("pass.mach-check_ms", "ms"),
    ("sim.host_s", "s"),
    ("sim.mops", "Mop/s"),
    ("sim.mcycles_per_s", "Mcycle/s"),
    ("sim.detail_share", "ratio"),
    ("bench.span_coverage_pct", "%"),
    ("key.job_key_ns", "ns"),
    ("proto.encode_request_ns", "ns"),
    ("proto.decode_request_ns", "ns"),
    ("proto.encode_response_ns", "ns"),
    ("proto.decode_response_ns", "ns"),
    ("proto.response_bytes", "bytes"),
    ("store.lookup_ns", "ns"),
    ("sched.hit_ns", "ns"),
    ("net.loopback_rtt_us", "us"),
    ("server.wait_us", "us"),
    ("ring.route_ns", "ns"),
    ("loadgen.samples", "count"),
    ("loadgen.rps", "1/s"),
];

/// Is `name` a legal metric name (`[A-Za-z0-9_.-]+`)?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `us`, `count`.
    pub unit: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Workload name.
    pub workload: String,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (cells, submits, warm re-runs).
    pub attempted: u64,
    /// Operations that failed: transport errors, `Busy`, typed errors,
    /// warm misses, and wrong outputs.
    pub failed: u64,
    /// Outputs that differed from the golden bytes.
    pub wrong: Vec<String>,
}

impl Ledger {
    /// An empty ledger for `workload`.
    pub fn new(workload: &str) -> Ledger {
        Ledger {
            workload: workload.to_string(),
            ..Ledger::default()
        }
    }

    /// Record a metric (replacing an earlier value of the same name).
    ///
    /// # Panics
    /// On a name outside `[A-Za-z0-9_.-]+` — a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_name(name), "bad metric name {name:?}");
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Count one attempted operation and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// An output differed from the golden bytes: count it failed and
    /// keep the evidence.
    pub fn wrong(&mut self, what: String) {
        self.attempt(false);
        self.wrong.push(what);
    }

    /// True when every output matched its golden bytes.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// `metric <workload> <name> <value> <unit>` lines, one per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "metric {} {} {} {}\n",
                self.workload, m.name, m.value, m.unit
            ));
        }
        out
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and the
    /// `end_to_end` (untraced) or `per_layer` (traced) metrics.
    ///
    /// # Errors
    /// A contract metric this run did not measure.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = names
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(value) => Ok(metric_json(name, value, unit)),
                None => Err(format!("{}: metric {name} was not measured", self.workload)),
            })
            .collect::<Result<_, _>>()?;
        Ok(self.json(metrics).render())
    }

    /// The whole ledger as the `compare` input format.
    pub fn to_json(&self) -> Json {
        self.json(
            self.metrics
                .iter()
                .map(|m| metric_json(&m.name, m.value, &m.unit))
                .collect(),
        )
    }

    fn json(&self, metrics: Vec<(String, Json)>) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Rebuild a ledger from `metric` lines (how `run` collects the
    /// workloads it ran in child processes).
    pub fn absorb_line(&mut self, line: &str) -> bool {
        let f: Vec<&str> = line.split(' ').collect();
        match f.as_slice() {
            ["metric", w, name, value, unit] if *w == self.workload => match value.parse() {
                Ok(v) => {
                    self.put(name, v, unit);
                    true
                }
                Err(_) => false,
            },
            _ => false,
        }
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.to_string())),
        ]),
    )
}
