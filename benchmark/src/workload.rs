//! The five workloads. Every workload starts the same way: bring up its
//! deployment and submit the warm set through the entry point, three
//! times over fresh deployments (the median is `setup_s`), keeping the
//! last. Then it runs its own phases, so that every workload reports
//! the same end-to-end metrics over a different path through the system.
//!
//! | workload | deployment | cold phase (`matrix_wall_s`) | warm phase (`warm_p50_us`, `warm_p99_us`) |
//! |---|---|---|---|
//! | `cold_exact` | one `epicd` | in-process `MeasureRequest`, exact, 16 cells on 2 threads | hits on `epicd` |
//! | `cold_sampled` | one `epicd` | the same, sampled simulation | hits on `epicd` |
//! | `warm_direct` | one `epicd` | the set-up's warming sweep | hits on `epicd` |
//! | `warm_fleet` | 3 shards + `epicg` | the set-up's warming sweep | hits through `epicg` |
//! | `mixed_fleet` | 3 shards + `epicg` | connection B: 6 heavy cells, cold | connection A: hits while B runs |

use crate::cells::{self, Cell, Golden, Rng};
use crate::layers::{self, LayerSums};
use crate::ledger::Ledger;
use crate::stats::{median, percentile};
use epic_cluster::{gate, GatewayConfig, GatewayHandle, Ring};
use epic_driver::{par_map, MeasureRequest, Measurement, OptLevel};
use epic_serve::{
    serve_with, ArtifactStore, CacheKey, Client, JobSpec, Priority, Scheduler, ServeStats,
    ServerConfig, ServerHandle,
};
use epic_sim::{SamplePolicy, SimOptions};
use epic_trace::{MetricsSnapshot, Trace, TraceSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Warm samples a run must collect before it may end: the least that
/// leaves ten samples beyond the p99.
pub const MIN_SAMPLES: usize = 1000;

/// Closed-loop connections of a warm phase; sized for a two-core host.
const CONNS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Worker threads of the cold matrix: `epicc matrix` on a two-core host.
const COLD_THREADS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The researcher's `epicc matrix` path, exact simulation.
    ColdExact,
    /// The same matrix under `SamplePolicy::default_sampled()`.
    ColdSampled,
    /// Warm hits straight to one `epicd`.
    WarmDirect,
    /// Warm hits through `epicg` over three shards.
    WarmFleet,
    /// Warm hits beside cold heavy submits on the same fleet.
    MixedFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::ColdExact,
        Workload::ColdSampled,
        Workload::WarmDirect,
        Workload::WarmFleet,
        Workload::MixedFleet,
    ];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdExact => "cold_exact",
            Workload::ColdSampled => "cold_sampled",
            Workload::WarmDirect => "warm_direct",
            Workload::WarmFleet => "warm_fleet",
            Workload::MixedFleet => "mixed_fleet",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The end-to-end metric this workload exists to move; tracing
    /// overhead is judged on it.
    pub fn primary(self) -> &'static str {
        match self {
            Workload::WarmDirect | Workload::WarmFleet => "warm_p50_us",
            _ => "matrix_wall_s",
        }
    }

    fn topology(self) -> Topology {
        match self {
            Workload::WarmFleet | Workload::MixedFleet => Topology::Fleet,
            _ => Topology::Direct,
        }
    }
}

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Picks the request streams and the cold matrix's order.
    pub seed: u64,
    /// Least length of the warm phase.
    pub seconds: f64,
    /// Per-layer run: decomposed compile path, spans, layer probes.
    pub trace: bool,
}

/// Run one workload.
///
/// # Errors
/// A failure that left the run without its measurements (a server that
/// would not start, a warm set that never warmed); wrong outputs are not
/// errors but land in the ledger.
pub fn run(wl: Workload, opts: &RunOpts) -> Result<(Ledger, Option<TraceSnapshot>), String> {
    let mut l = Ledger::new(wl.name());
    let trace = if opts.trace {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let golden = Golden::bundled();
    let warmed = served_setup(&mut l, &golden, wl.topology())?;
    let matrix_wall = match wl {
        Workload::ColdExact => cold(&mut l, &golden, opts, &trace, SamplePolicy::Exact)?,
        Workload::ColdSampled => cold(
            &mut l,
            &golden,
            opts,
            &trace,
            SamplePolicy::default_sampled(),
        )?,
        Workload::WarmDirect | Workload::WarmFleet => warmed.sweep_wall,
        Workload::MixedFleet => mixed(&mut l, &golden, opts, &warmed)?,
    };
    if wl == Workload::WarmFleet {
        l.put("fleet.jobs_per_cold_submit", warmed.jobs_per_cell, "ratio");
    }
    if wl != Workload::MixedFleet {
        warm(&mut l, opts, &warmed, wl.topology());
    }
    if opts.trace {
        // The cold workloads' own phase already ran the decomposed path.
        match wl {
            Workload::WarmDirect | Workload::WarmFleet => {
                compile_probe(&mut l, &warmed.cells, &trace)?;
            }
            Workload::MixedFleet => {
                compile_probe(&mut l, &cells::mixed_b_cells().0, &trace)?;
            }
            _ => {}
        }
        layers::serve_probes(&mut l, &warmed.jobs, &trace)?;
        put_server_wait(&mut l);
    }
    l.put("setup_s", warmed.setup_wall.as_secs_f64(), "s");
    l.put("matrix_wall_s", matrix_wall.as_secs_f64(), "s");
    l.put("peak_rss_mb", peak_rss_mb()?, "MB");
    l.put(
        "fail_ratio",
        l.failed as f64 / l.attempted.max(1) as f64,
        "ratio",
    );
    Ok((l, trace.finish()))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Is the warm phase over? At least `seconds` long and `MIN_SAMPLES`
/// deep, with a backstop so a stalled server cannot hold the run.
fn warm_done(opts: &RunOpts, elapsed: Duration, samples: usize) -> bool {
    let secs = elapsed.as_secs_f64();
    (secs >= opts.seconds && samples >= MIN_SAMPLES) || secs >= opts.seconds * 10.0
}

fn digest_hex(m: &Measurement) -> String {
    epic_serve::digest(m).hex()
}

/// The cold phase: the matrix in-process with the cache off, one
/// program after another, each program's four levels on [`COLD_THREADS`]
/// workers of the driver's pool. Traced, each cell goes through the
/// decomposed compile path on the same pool instead of `MeasureRequest`.
/// Returns the wall time until every cell completed.
///
/// Per program, the two workers always start together on two levels of
/// one program, so the phase's peak memory is the same in every run: a
/// sampled vortex cell holds about 39 MiB, and across programs whether
/// two of them overlapped depended on the seed's order and the host's
/// timing, which split `peak_rss_mb` between 76 and 84 MiB.
fn cold(
    l: &mut Ledger,
    golden: &Golden,
    opts: &RunOpts,
    trace: &Trace,
    policy: SamplePolicy,
) -> Result<Duration, String> {
    let sopts = SimOptions {
        sample: policy,
        ..SimOptions::default()
    };
    let cells = cells::cold_cells(opts.seed);
    let mut busy = Duration::ZERO;
    let mut measured = Vec::new();
    let mut sums = LayerSums::default();
    let t0 = Instant::now();
    // `cold_cells` lists each program's four levels in a row, the order
    // `MeasureRequest` reports its cells in.
    for row in cells.chunks(OptLevel::ALL.len()) {
        if opts.trace {
            let results = par_map(row, COLD_THREADS, |_, cell| {
                layers::measure_decomposed(cell, &sopts, trace)
            });
            for r in results {
                let (m, cost) = r?;
                busy += cost.wall;
                sums.add(&cost, &m);
                measured.push(m);
            }
        } else {
            let program = [row[0].load()];
            let report = MeasureRequest::new(&program)
                .threads(COLD_THREADS)
                .sim_options(sopts)
                .run()
                .map_err(|e| e.to_string())?;
            for c in report.cells.into_iter().flatten() {
                busy += c.wall;
                measured.push(c.measurement);
            }
        }
    }
    let wall = t0.elapsed();
    if opts.trace {
        sums.emit(l);
    }
    l.put(
        "driver.pool_busy_ratio",
        busy.as_secs_f64() / (COLD_THREADS as f64 * wall.as_secs_f64()),
        "ratio",
    );
    let mut max_err = 0.0f64;
    for (cell, m) in cells.iter().zip(&measured) {
        let verdict = if policy == SamplePolicy::Exact {
            golden.check_exact(cell, m)
        } else {
            golden
                .check_sampled(cell, m)
                .map(|e| max_err = max_err.max(e))
        };
        match verdict {
            Ok(()) => l.attempt(true),
            Err(e) => l.wrong(e),
        }
    }
    if policy != SamplePolicy::Exact {
        l.put("sampled_max_err_pct", max_err * 100.0, "%");
    }
    Ok(wall)
}

/// Which serving stack a workload runs against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Topology {
    /// One `epicd`.
    Direct,
    /// Three `epicd` shards (ids 1–3) behind one `epicg`.
    Fleet,
}

/// A running in-process deployment with the binaries' defaults.
/// Field order is drop order: the gateway stops before its shards.
struct Deployment {
    gateway: Option<GatewayHandle>,
    shards: Vec<(u64, ServerHandle)>,
}

impl Deployment {
    fn start(topology: Topology) -> Result<Deployment, String> {
        let shard = |id: u64| {
            let sched = Scheduler::new(Arc::new(ArtifactStore::in_memory()), 0, 256);
            let cfg = ServerConfig {
                shard_id: id,
                ..ServerConfig::default()
            };
            serve_with("127.0.0.1:0", Arc::new(sched), cfg).map_err(|e| format!("epicd: {e}"))
        };
        match topology {
            Topology::Direct => Ok(Deployment {
                gateway: None,
                shards: vec![(0, shard(0)?)],
            }),
            Topology::Fleet => {
                let shards = (1..=3)
                    .map(|id| Ok((id, shard(id)?)))
                    .collect::<Result<Vec<_>, String>>()?;
                let addrs: Vec<(u64, String)> = shards
                    .iter()
                    .map(|(id, h)| (*id, h.addr().to_string()))
                    .collect();
                let gateway = gate("127.0.0.1:0", &addrs, GatewayConfig::default())
                    .map_err(|e| format!("epicg: {e}"))?;
                Ok(Deployment {
                    gateway: Some(gateway),
                    shards,
                })
            }
        }
    }

    /// Where clients connect.
    fn entry(&self) -> String {
        match &self.gateway {
            Some(g) => g.addr().to_string(),
            None => self.shards[0].1.addr().to_string(),
        }
    }

    fn shard_addrs(&self) -> HashMap<u64, String> {
        self.shards
            .iter()
            .map(|(id, h)| (*id, h.addr().to_string()))
            .collect()
    }

    fn stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(|(_, h)| h.stats()).collect()
    }

    /// Wait until no shard has a job queued or running: a hedged
    /// duplicate can outlive the request that started it, and the jobs
    /// counts are read once every job has finished.
    fn wait_idle(&self) -> Result<(), String> {
        for _ in 0..3000 {
            if self.stats().iter().all(|s| s.sched.in_flight == 0) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("the deployment never went idle".into())
    }
}

/// Submit every spec once, one after another on one connection, so the
/// sweep's time does not depend on how the host shares its second core;
/// returns the measurements in spec order and the sweep's wall time.
fn sweep(addr: &str, specs: &[JobSpec]) -> Result<(Vec<Measurement>, Duration), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let t0 = Instant::now();
    let served = specs
        .iter()
        .map(|spec| {
            client
                .submit(spec, Priority::Normal, 0)
                .map(|s| s.measurement)
                .map_err(|e| format!("warming submit: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((served, t0.elapsed()))
}

/// Resubmit until every spec is a cache hit (a hedged duplicate may
/// still be finishing on its primary when the sweep returns).
fn confirm_warm(addr: &str, specs: &[JobSpec]) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut pending: Vec<usize> = (0..specs.len()).collect();
    for _ in 0..200 {
        pending.retain(
            |&i| !matches!(client.submit(&specs[i], Priority::Normal, 0), Ok(s) if s.cache_hit),
        );
        if pending.is_empty() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    Err(format!(
        "{} warm cells never became cache hits",
        pending.len()
    ))
}

/// A warm deployment and what setting it up cost.
struct Warmed {
    dep: Deployment,
    /// Median wall time of a set-up: start, warming sweep, confirmation.
    setup_wall: Duration,
    /// Median wall time of the warming sweep alone.
    sweep_wall: Duration,
    /// Jobs the kept deployment ran per warmed cell (above 1 means
    /// hedges duplicated work).
    jobs_per_cell: f64,
    cells: Vec<Cell>,
    jobs: Vec<(JobSpec, Arc<Measurement>)>,
}

/// Start `topology` and submit the warm set through its entry point,
/// [`SETUPS`] times over fresh deployments; keep the last deployment.
fn served_setup(l: &mut Ledger, golden: &Golden, topology: Topology) -> Result<Warmed, String> {
    let cells = cells::warm_cells(golden);
    let specs: Vec<JobSpec> = cells.iter().map(Cell::spec).collect();
    let (mut setups, mut sweeps) = (Vec::new(), Vec::new());
    let mut kept: Option<(Deployment, Vec<Measurement>)> = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let dep = Deployment::start(topology)?;
        let (served, wall) = sweep(&dep.entry(), &specs)?;
        confirm_warm(&dep.entry(), &specs)?;
        setups.push(t0.elapsed().as_secs_f64());
        sweeps.push(wall.as_secs_f64());
        for (cell, m) in cells.iter().zip(&served) {
            match golden.check_exact(cell, m) {
                Ok(()) => l.attempt(true),
                Err(e) => l.wrong(e),
            }
        }
        kept = Some((dep, served));
    }
    let (dep, served) = kept.expect("at least one set-up");
    dep.wait_idle()?;
    let jobs_run: u64 = dep.stats().iter().map(|s| s.sched.jobs_run).sum();
    Ok(Warmed {
        jobs_per_cell: jobs_run as f64 / cells.len() as f64,
        dep,
        setup_wall: Duration::from_secs_f64(median(&setups)),
        sweep_wall: Duration::from_secs_f64(median(&sweeps)),
        jobs: specs
            .into_iter()
            .zip(served.into_iter().map(Arc::new))
            .collect(),
        cells,
    })
}

/// What a closed-loop warm load measured.
#[derive(Default)]
struct WarmLoad {
    /// Latency of each good hit through the entry point, nanoseconds.
    entry_ns: Vec<u64>,
    /// Same, straight to the key's primary shard (gateway-tax runs).
    direct_ns: Vec<u64>,
    ok: u64,
    failed: u64,
    wrong: Vec<String>,
    wall: Duration,
}

/// Closed-loop warm hits from `conns` connections, each drawing keys
/// uniformly from `jobs` with its own seeded stream, until `until`
/// (elapsed, entry samples so far) says stop. With `direct`, every
/// other request skips the gateway and goes to the key's primary shard.
fn warm_load(
    entry: &str,
    jobs: &[(JobSpec, Arc<Measurement>)],
    seed: u64,
    conns: usize,
    direct: Option<&HashMap<u64, String>>,
    count: &AtomicUsize,
    until: &(dyn Fn(Duration, usize) -> bool + Sync),
) -> WarmLoad {
    let expect: Vec<String> = jobs.iter().map(|(_, m)| digest_hex(m)).collect();
    let keys: Vec<CacheKey> = jobs.iter().map(|(s, _)| s.job_key()).collect();
    let ring = Ring::new(&[1, 2, 3]);
    let t0 = Instant::now();
    let total = Mutex::new(WarmLoad::default());
    std::thread::scope(|s| {
        for conn in 0..conns {
            let (expect, keys, ring, total) = (&expect, &keys, &ring, &total);
            s.spawn(move || {
                let mut out = WarmLoad::default();
                let mut rng = Rng::stream(seed, conn as u64 + 1);
                let mut clients: HashMap<u64, Client> = HashMap::new();
                let mut entry_client = Client::connect(entry).ok();
                let mut n = 0u64;
                while !until(t0.elapsed(), count.load(Ordering::SeqCst)) {
                    let k = rng.below(jobs.len());
                    let shard = direct
                        .filter(|_| n % 2 == 1)
                        .and_then(|addrs| ring.primary(keys[k]).map(|id| (id, &addrs[&id])));
                    n += 1;
                    let client = match shard {
                        Some((id, addr)) => match clients.entry(id) {
                            std::collections::hash_map::Entry::Occupied(e) => Some(e.into_mut()),
                            std::collections::hash_map::Entry::Vacant(e) => {
                                Client::connect(addr).ok().map(|c| e.insert(c))
                            }
                        },
                        None => entry_client.as_mut(),
                    };
                    let Some(client) = client else {
                        out.failed += 1;
                        entry_client = Client::connect(entry).ok();
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    };
                    let t = Instant::now();
                    let r = client.submit(&jobs[k].0, Priority::Normal, 0);
                    let dt = t.elapsed().as_nanos() as u64;
                    match r {
                        Ok(s) if s.cache_hit && digest_hex(&s.measurement) == expect[k] => {
                            out.ok += 1;
                            if shard.is_some() {
                                out.direct_ns.push(dt);
                            } else {
                                out.entry_ns.push(dt);
                                count.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        Ok(s) if s.cache_hit => out.wrong.push(format!(
                            "warm hit on {}: digest {}, golden {}",
                            s.key,
                            digest_hex(&s.measurement),
                            expect[k]
                        )),
                        Ok(_) => out.failed += 1,
                        Err(_) => {
                            out.failed += 1;
                            match shard {
                                Some((id, _)) => {
                                    clients.remove(&id);
                                }
                                None => entry_client = Client::connect(entry).ok(),
                            }
                        }
                    }
                }
                let mut t = total.lock().expect("warm totals");
                t.entry_ns.extend(out.entry_ns);
                t.direct_ns.extend(out.direct_ns);
                t.ok += out.ok;
                t.failed += out.failed;
                t.wrong.extend(out.wrong);
            });
        }
    });
    let mut load = total.into_inner().expect("warm totals");
    load.wall = t0.elapsed();
    load
}

/// Fold a warm load into the ledger: its operations, its latency
/// percentiles (each only with ten samples beyond it), and the load
/// generator's throughput.
fn record_load(l: &mut Ledger, load: &mut WarmLoad) {
    for _ in 0..load.ok {
        l.attempt(true);
    }
    for _ in 0..load.failed {
        l.attempt(false);
    }
    for w in load.wrong.drain(..) {
        l.wrong(w);
    }
    let requests = load.entry_ns.len() + load.direct_ns.len();
    let samples = &mut load.entry_ns;
    samples.sort_unstable();
    if let Some(p50) = percentile(samples, 0.5) {
        l.put("warm_p50_us", p50 as f64 / 1e3, "us");
    }
    if let Some(p99) = percentile(samples, 0.99) {
        l.put("warm_p99_us", p99 as f64 / 1e3, "us");
    }
    l.put("loadgen.samples", samples.len() as f64, "count");
    l.put(
        "loadgen.rps",
        requests as f64 / load.wall.as_secs_f64(),
        "1/s",
    );
}

fn counter_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// p50 of the histogram `name` over the interval between two snapshots.
fn put_histo_p50(l: &mut Ledger, after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) {
    let Some(a) = after.histogram(name) else {
        return;
    };
    let d = match before.histogram(name) {
        Some(b) => a.delta_since(b),
        None => a.clone(),
    };
    if let Some(p50) = d.quantile(0.5) {
        l.put(&format!("{name}.p50"), p50 as f64, "us");
    }
}

/// The gateway's hedging and failover counters over one phase.
fn put_gateway(l: &mut Ledger, after: &MetricsSnapshot, before: &MetricsSnapshot) {
    let hedged = counter_delta(after, before, "cluster.hedged");
    let wins = counter_delta(after, before, "cluster.hedge_wins");
    l.put("gateway.hedged", hedged, "count");
    l.put("gateway.hedge_wins", wins, "count");
    l.put(
        "gateway.hedge_win_ratio",
        if hedged > 0.0 { wins / hedged } else { 0.0 },
        "ratio",
    );
    l.put(
        "gateway.failover",
        counter_delta(after, before, "cluster.failover"),
        "count",
    );
    l.put(
        "gateway.upstream_errors",
        counter_delta(after, before, "cluster.upstream.errors"),
        "count",
    );
}

/// Compile/simulate layer metrics over `cells`, measured by the
/// decomposed path in-process (the servers' internals carry no
/// benchmark spans).
fn compile_probe(l: &mut Ledger, cells: &[Cell], trace: &Trace) -> Result<(), String> {
    let mut sums = LayerSums::default();
    for cell in cells {
        let (m, cost) = layers::measure_decomposed(cell, &SimOptions::default(), trace)?;
        sums.add(&cost, &m);
    }
    sums.emit(l);
    Ok(())
}

/// `server.wait_us`: the part of a warm hit that is neither the network
/// floor, nor the codec, nor the scheduler's hit path — time the loops
/// spend parked or waiting.
fn put_server_wait(l: &mut Ledger) {
    let parts = [
        "proto.encode_request_ns",
        "proto.decode_request_ns",
        "proto.encode_response_ns",
        "proto.decode_response_ns",
        "sched.hit_ns",
    ];
    let (Some(p50), Some(rtt)) = (l.get("warm_p50_us"), l.get("net.loopback_rtt_us")) else {
        return;
    };
    let codec_us: f64 = parts.iter().filter_map(|p| l.get(p)).sum::<f64>() / 1e3;
    l.put("server.wait_us", p50 - rtt - codec_us, "us");
}

/// The closed-loop warm phase on the set-up's deployment.
fn warm(l: &mut Ledger, opts: &RunOpts, warmed: &Warmed, topology: Topology) {
    let dep = &warmed.dep;
    let stats0 = dep.stats();
    let snap0 = epic_trace::global().snapshot();
    let addrs = dep.shard_addrs();
    // The traced fleet run alternates gateway and direct-to-primary
    // requests to price the gateway hop.
    let direct = (opts.trace && topology == Topology::Fleet).then_some(&addrs);
    let count = AtomicUsize::new(0);
    let mut load = warm_load(
        &dep.entry(),
        &warmed.jobs,
        opts.seed,
        CONNS,
        direct,
        &count,
        &|elapsed, n| warm_done(opts, elapsed, n),
    );
    let snap1 = epic_trace::global().snapshot();
    record_load(l, &mut load);
    put_histo_p50(l, &snap1, &snap0, "serve.poll.wait_us");
    if topology == Topology::Fleet {
        let submitted: Vec<f64> = dep
            .stats()
            .iter()
            .zip(&stats0)
            .map(|(a, b)| (a.sched.submitted - b.sched.submitted) as f64)
            .collect();
        let mean = submitted.iter().sum::<f64>() / submitted.len() as f64;
        let max = submitted.iter().cloned().fold(0.0, f64::max);
        l.put("fleet.shard_skew", max / mean, "ratio");
        put_gateway(l, &snap1, &snap0);
        if direct.is_some() {
            let (mut g, mut d) = (load.entry_ns.clone(), load.direct_ns.clone());
            g.sort_unstable();
            d.sort_unstable();
            if let (Some(g), Some(d)) = (percentile(&g, 0.5), percentile(&d, 0.5)) {
                l.put("gateway.tax_us", (g as f64 - d as f64) / 1e3, "us");
                l.put("gateway.tax_ratio", g as f64 / d as f64, "ratio");
            }
        }
    }
}

/// Connection B submits its heavy cells cold, one after another, while
/// connection A loops warm hits; returns the wall time of B's timed
/// cells.
fn mixed(
    l: &mut Ledger,
    golden: &Golden,
    opts: &RunOpts,
    warmed: &Warmed,
) -> Result<Duration, String> {
    let dep = &warmed.dep;
    let entry = dep.entry();
    let (timed, extra) = cells::mixed_b_cells();
    let stats0 = dep.stats();
    let snap0 = epic_trace::global().snapshot();
    let stop = AtomicBool::new(false);
    let count = AtomicUsize::new(0);
    let mut b_wall = None;
    let mut b_submits = 0u64;
    let mut load = std::thread::scope(|s| {
        let a = s.spawn(|| {
            warm_load(&entry, &warmed.jobs, opts.seed, 1, None, &count, &|_, _| {
                stop.load(Ordering::SeqCst)
            })
        });
        // Connection B: the timed cells, then (untimed) more heavy cells
        // while A still lacks samples for its p99.
        let b = (|| {
            let mut b = Client::connect(&entry).map_err(|e| format!("connect {entry}: {e}"))?;
            let t0 = Instant::now();
            for (i, cell) in timed.iter().chain(&extra).enumerate() {
                if i >= timed.len() && count.load(Ordering::SeqCst) >= MIN_SAMPLES {
                    break;
                }
                b_submits += 1;
                match b.submit(&cell.spec(), Priority::Normal, 0) {
                    Ok(served) => match golden.check_exact(cell, &served.measurement) {
                        Ok(()) => l.attempt(true),
                        Err(e) => l.wrong(e),
                    },
                    Err(e) => {
                        l.attempt(false);
                        eprintln!("epicbench: B {} {}: {e}", cell.workload, cell.level.name());
                    }
                }
                if i + 1 == timed.len() {
                    b_wall = Some(t0.elapsed());
                }
            }
            Ok::<(), String>(())
        })();
        stop.store(true, Ordering::SeqCst);
        let load = a.join().expect("connection A does not panic");
        b.map(|()| load)
    })?;
    let snap1 = epic_trace::global().snapshot();
    dep.wait_idle()?;
    record_load(l, &mut load);
    let jobs: u64 = dep
        .stats()
        .iter()
        .zip(&stats0)
        .map(|(a, b)| a.sched.jobs_run - b.sched.jobs_run)
        .sum();
    l.put(
        "fleet.jobs_per_cold_submit",
        jobs as f64 / b_submits as f64,
        "ratio",
    );
    put_gateway(l, &snap1, &snap0);
    for h in ["serve.poll.wait_us", "serve.queue_wait_us", "serve.run_us"] {
        put_histo_p50(l, &snap1, &snap0, h);
    }
    b_wall.ok_or_else(|| "connection B never finished its timed cells".to_string())
}
