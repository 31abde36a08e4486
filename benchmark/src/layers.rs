//! Per-layer measurement from the benchmark's own side of each layer
//! boundary: the compile pipeline decomposed into its public calls with
//! a span around each, timed calls into the serving layers, and the
//! span file a traced run leaves behind. Nothing here instruments the
//! program itself.

use crate::cells::Cell;
use crate::ledger::Ledger;
use crate::stats::median;
use epic_bench::json::{trace_to_json, Json};
use epic_driver::{
    passes_for, CompileOptions, CompiledStats, Measurement, PassRecord, PassTimeline, PipelineCx,
};
use epic_serve::proto::{self, Request, Response};
use epic_serve::{ArtifactStore, JobSpec, Priority, Scheduler};
use epic_sim::SimOptions;
use epic_trace::{SpanNode, Trace, TraceSnapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where one cell's host time went.
#[derive(Clone, Debug, Default)]
pub struct CellCost {
    /// The whole cell, frontend to simulation result.
    pub wall: Duration,
    /// `epic_lang::compile`.
    pub lang: Duration,
    /// Each `Pass::run`, in pipeline order.
    pub passes: Vec<(&'static str, Duration)>,
    /// `epic_sim::run`.
    pub sim: Duration,
}

/// Compile and simulate `cell` call by call — `epic_lang::compile`,
/// every `Pass::run` of `passes_for` on a `PipelineCx`, then
/// `epic_sim::run` — with a span around each call. Produces the same
/// measurement as `MeasureRequest` (the tests hold it to the golden
/// digest), so a traced cold run measures the same program.
///
/// # Errors
/// The failing stage, located.
pub fn measure_decomposed(
    cell: &Cell,
    sopts: &SimOptions,
    trace: &Trace,
) -> Result<(Measurement, CellCost), String> {
    let w = cell.load();
    let opts = CompileOptions::for_level(cell.level);
    let whole = trace.span("cell");
    let fail = |stage: &str, e: &dyn std::fmt::Display| {
        format!("{} {} {stage}: {e}", cell.workload, cell.level.name())
    };
    let span = trace.span("lang.compile");
    let prog = epic_lang::compile(w.source).map_err(|e| fail("frontend", &e))?;
    let lang = span.finish();
    let frontend_ops = prog.op_count();
    let mut cx = PipelineCx::new(prog, &opts, &w.train_args, &w.ref_args);
    let mut timeline = PassTimeline::default();
    let mut passes = Vec::new();
    for pass in passes_for(&opts) {
        let (ops_before, blocks_before) = (cx.prog.op_count(), cx.prog.block_count());
        let span = trace.span_pair("pass:", pass.name());
        let result = pass.run(&mut cx);
        let wall = span.finish();
        result.map_err(|e| fail(pass.name(), &e))?;
        passes.push((pass.name(), wall));
        timeline.passes.push(PassRecord {
            name: pass.name(),
            wall,
            ops_before,
            ops_after: cx.prog.op_count(),
            blocks_before,
            blocks_after: cx.prog.block_count(),
        });
    }
    let (mach, plan) = cx
        .mach
        .take()
        .ok_or_else(|| fail("schedule", &"no machine program"))?;
    let compiled = CompiledStats {
        plan,
        ilp: cx.ilp,
        inlined: cx.inlined,
        promoted: cx.promoted,
        code_bytes: mach.code_bytes(),
        static_ops: mach.op_counts(),
        frontend_ops,
        func_names: mach.funcs.iter().map(|f| f.name.clone()).collect(),
        pass_timeline: timeline,
    };
    let span = trace.span("sim");
    let sim = epic_sim::run(&mach, &w.ref_args, sopts).map_err(|e| fail("sim", &e))?;
    let sim_wall = span.finish();
    let m = Measurement {
        level: cell.level,
        compiled,
        sim,
    };
    let cost = CellCost {
        wall: whole.finish(),
        lang,
        passes,
        sim: sim_wall,
    };
    Ok((m, cost))
}

/// Compile and simulation layer totals over a set of cells.
#[derive(Debug, Default)]
pub struct LayerSums {
    cells: Duration,
    lang: Duration,
    passes: BTreeMap<&'static str, Duration>,
    sim: Duration,
    ops: u64,
    detail_ops: u64,
    cycles: u64,
}

impl LayerSums {
    /// Add one measured cell.
    pub fn add(&mut self, cost: &CellCost, m: &Measurement) {
        self.cells += cost.wall;
        self.lang += cost.lang;
        for &(name, d) in &cost.passes {
            *self.passes.entry(name).or_default() += d;
        }
        self.sim += cost.sim;
        let c = &m.sim.counters;
        let (ops, detail) = match &m.sim.sample {
            Some(info) => (info.total_ops, info.sampled_ops),
            None => {
                let ops = c.retired_useful + c.retired_squashed + c.retired_nops;
                (ops, ops)
            }
        };
        self.ops += ops;
        self.detail_ops += detail;
        self.cycles += m.sim.cycles;
    }

    /// Emit the compile and simulation metrics.
    pub fn emit(&self, l: &mut Ledger) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        l.put("lang.compile_ms", ms(self.lang), "ms");
        for (name, d) in &self.passes {
            l.put(&format!("pass.{name}_ms"), ms(*d), "ms");
        }
        let sim_s = self.sim.as_secs_f64();
        l.put("sim.host_s", sim_s, "s");
        l.put("sim.mops", self.ops as f64 / sim_s / 1e6, "Mop/s");
        l.put(
            "sim.mcycles_per_s",
            self.cycles as f64 / sim_s / 1e6,
            "Mcycle/s",
        );
        l.put(
            "sim.detail_share",
            self.detail_ops as f64 / self.ops as f64,
            "ratio",
        );
        let covered = self.lang + self.passes.values().sum::<Duration>() + self.sim;
        l.put(
            "bench.span_coverage_pct",
            100.0 * covered.as_secs_f64() / self.cells.as_secs_f64(),
            "%",
        );
    }
}

/// Median nanoseconds per call of `f` over `rounds` batches of `batch`
/// calls each, cycling through `n` inputs.
fn ns_per_call(n: usize, rounds: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let i = r % n;
        let t0 = Instant::now();
        for _ in 0..batch {
            f(i);
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call)
}

/// Time the serving layers' public calls on this run's own jobs and
/// (golden-checked) measurements: job keys, the frame codec, store
/// lookups, scheduler hits, the loopback floor and ring routing.
///
/// # Errors
/// A probe that could not run (socket or codec failure).
pub fn serve_probes(
    l: &mut Ledger,
    jobs: &[(JobSpec, Arc<Measurement>)],
    trace: &Trace,
) -> Result<(), String> {
    let n = jobs.len();
    let rounds = 40 * n;
    let span = trace.span("probe:key");
    let ns = ns_per_call(n, rounds, 32, |i| {
        black_box(black_box(&jobs[i].0).job_key());
    });
    span.finish();
    l.put("key.job_key_ns", ns, "ns");

    let reqs: Vec<Request> = jobs
        .iter()
        .map(|(spec, _)| Request::Submit {
            spec: spec.clone(),
            prio: Priority::Normal,
            deadline_ms: 0,
        })
        .collect();
    let resps: Vec<Response> = jobs
        .iter()
        .map(|(spec, m)| Response::Done {
            key: spec.job_key(),
            cache_hit: true,
            coalesced: false,
            measurement: Box::new((**m).clone()),
        })
        .collect();
    let req_bytes: Vec<Vec<u8>> = reqs.iter().map(proto::encode_request).collect();
    let resp_bytes: Vec<Vec<u8>> = resps.iter().map(proto::encode_response).collect();
    let span = trace.span("probe:proto");
    let mut buf = Vec::new();
    let enc_req = ns_per_call(n, rounds, 16, |i| {
        proto::encode_request_into(black_box(&reqs[i]), &mut buf);
        black_box(&buf);
    });
    let dec_req = ns_per_call(n, rounds, 16, |i| {
        black_box(proto::decode_request(black_box(&req_bytes[i])).is_ok());
    });
    let enc_resp = ns_per_call(n, rounds, 16, |i| {
        proto::encode_response_into(black_box(&resps[i]), &mut buf);
        black_box(&buf);
    });
    let dec_resp = ns_per_call(n, rounds, 16, |i| {
        black_box(proto::decode_response(black_box(&resp_bytes[i])).is_ok());
    });
    span.finish();
    l.put("proto.encode_request_ns", enc_req, "ns");
    l.put("proto.decode_request_ns", dec_req, "ns");
    l.put("proto.encode_response_ns", enc_resp, "ns");
    l.put("proto.decode_response_ns", dec_resp, "ns");
    let resp_len = median(
        &resp_bytes
            .iter()
            .map(|b| b.len() as f64)
            .collect::<Vec<_>>(),
    );
    let req_len = median(&req_bytes.iter().map(|b| b.len() as f64).collect::<Vec<_>>());
    l.put("proto.response_bytes", resp_len, "bytes");

    let store = Arc::new(ArtifactStore::in_memory());
    let keys: Vec<_> = jobs
        .iter()
        .map(|(spec, m)| {
            let key = spec.job_key();
            store.insert(key, (**m).clone());
            key
        })
        .collect();
    let span = trace.span("probe:store");
    let ns = ns_per_call(n, rounds, 64, |i| {
        black_box(store.lookup(black_box(keys[i])).is_some());
    });
    span.finish();
    l.put("store.lookup_ns", ns, "ns");

    let sched = Scheduler::new(Arc::clone(&store), 0, 256);
    let span = trace.span("probe:sched");
    let mut hit_ns = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let batch: Vec<JobSpec> = (0..16).map(|_| jobs[r % n].0.clone()).collect();
        let t0 = Instant::now();
        for spec in batch {
            let hit = sched
                .submit(spec, Priority::Normal, None)
                .map_err(|e| format!("scheduler probe: {e}"))?
                .wait()
                .map_err(|e| format!("scheduler probe: {e}"))?;
            black_box(hit);
        }
        hit_ns.push(t0.elapsed().as_nanos() as f64 / 16.0);
    }
    span.finish();
    sched.shutdown();
    l.put("sched.hit_ns", median(&hit_ns), "ns");

    let span = trace.span("probe:loopback");
    let rtt = loopback_rtt(req_len as usize, resp_len as usize, 2000)
        .map_err(|e| format!("loopback probe: {e}"))?;
    span.finish();
    l.put("net.loopback_rtt_us", rtt.as_secs_f64() * 1e6, "us");

    let ring = epic_cluster::Ring::new(&[1, 2, 3]);
    let span = trace.span("probe:ring");
    let ns = ns_per_call(n, rounds, 64, |i| {
        black_box(ring.route(black_box(keys[i])));
    });
    span.finish();
    l.put("ring.route_ns", ns, "ns");
    Ok(())
}

/// Median round trip of a request-sized frame out and a response-sized
/// frame back over a nodelay loopback socket: the network floor under
/// every served request, which no server change can beat.
fn loopback_rtt(req_len: usize, resp_len: usize, rounds: usize) -> std::io::Result<Duration> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut req = vec![0u8; req_len];
        let resp = vec![1u8; resp_len];
        for _ in 0..rounds {
            s.read_exact(&mut req)?;
            s.write_all(&resp)?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    let req = vec![2u8; req_len];
    let mut resp = vec![0u8; resp_len];
    let mut rtts = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        c.write_all(&req)?;
        c.read_exact(&mut resp)?;
        rtts.push(t0.elapsed().as_secs_f64());
    }
    echo.join().expect("echo thread does not panic")?;
    Ok(Duration::from_secs_f64(median(&rtts)))
}

/// Per-name span totals: count, total time, and self time (a span's
/// duration minus its children's).
pub fn self_times(snap: &TraceSnapshot) -> BTreeMap<String, (u64, u64, u64)> {
    fn walk(n: &SpanNode, acc: &mut BTreeMap<String, (u64, u64, u64)>) {
        let children: u64 = n.children.iter().map(|c| c.dur_ns).sum();
        let e = acc.entry(n.name.clone()).or_default();
        e.0 += 1;
        e.1 += n.dur_ns;
        e.2 += n.dur_ns.saturating_sub(children);
        for c in &n.children {
            walk(c, acc);
        }
    }
    let mut acc = BTreeMap::new();
    for root in &snap.spans {
        walk(root, &mut acc);
    }
    acc
}

/// Write `trace_<workload>.json` into `dir`: the per-layer self-time
/// table and the full span forest.
///
/// # Errors
/// File-system failures.
pub fn write_trace(
    dir: &Path,
    workload: &str,
    seed: u64,
    snap: &TraceSnapshot,
) -> std::io::Result<()> {
    let layers = self_times(snap)
        .into_iter()
        .map(|(name, (count, total, own))| {
            Json::obj([
                ("name", Json::Str(name)),
                ("count", Json::Num(count as f64)),
                ("total_ms", Json::Num(total as f64 / 1e6)),
                ("self_ms", Json::Num(own as f64 / 1e6)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("layers", Json::Arr(layers)),
        ("trace", trace_to_json(snap)),
    ]);
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("trace_{workload}.json")), doc.render())
}
