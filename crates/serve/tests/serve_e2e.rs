//! End-to-end tests of `epicd` over real loopback TCP: served results
//! are bit-identical to direct in-process measurement, concurrent
//! clients coalesce onto one compile, and a saturated queue answers with
//! typed `Busy` backpressure instead of hanging.

use epic_serve::proto::{Request, Response};
use epic_serve::testutil::{dummy_measurement, gated_scheduler, InstantRunner};
use epic_serve::{
    digest, serve, serve_with, ArtifactStore, Client, ClientError, JobRunner, JobSpec, Priority,
    RetryPolicy, Scheduler, ServerConfig, Swarm,
};
use epic_trace::{MetricValue, Trace};
use epic_workloads::Workload;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

const TINY_SRC: &str = "
fn main(n: int) -> int {
    let s = 0;
    let i = 0;
    while i < n {
        s = s + i * i;
        i = i + 1;
    }
    out(s);
    return s;
}
";

fn tiny_workload() -> Workload {
    Workload {
        name: "tiny_e2e",
        spec_name: "tiny_e2e",
        description: "loop kernel for serve e2e tests",
        source: TINY_SRC,
        train_args: vec![50],
        ref_args: vec![200],
    }
}

#[test]
fn served_results_are_bit_identical_to_direct_measurement() {
    let w = tiny_workload();
    let sched = Arc::new(Scheduler::new(Arc::new(ArtifactStore::in_memory()), 2, 32));
    let mut server = serve("127.0.0.1:0", Arc::clone(&sched)).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    for level in epic_driver::OptLevel::ALL {
        let spec = JobSpec::for_workload(&w, level);
        let served = client.submit(&spec, Priority::Normal, 0).unwrap();
        assert!(!served.cache_hit);
        let direct = epic_driver::measure_traced(
            &w,
            &spec.compile_options(),
            &spec.sim_options(),
            &epic_trace::Trace::disabled(),
        )
        .unwrap();
        assert_eq!(
            digest(&served.measurement),
            digest(&direct),
            "served vs direct mismatch at {level:?}"
        );
        // resubmission is a pure cache hit with the identical payload
        let again = client.submit(&spec, Priority::Normal, 0).unwrap();
        assert!(again.cache_hit, "second submission must hit the store");
        assert_eq!(digest(&again.measurement), digest(&direct));
        // the result verb fetches without scheduling
        let fetched = client.result(served.key).unwrap().expect("stored");
        assert_eq!(digest(&fetched), digest(&direct));
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.sched.jobs_run, 4, "one run per level, hits are free");
    assert_eq!(stats.sched.cache_hits, 4);
    assert_eq!(stats.compiles, 4);
    assert_eq!(stats.sims, 4);

    // clean shutdown through the protocol: the accept loop exits and the
    // server drains without being killed
    client.shutdown().unwrap();
    server.wait();
}

fn spec_named(tag: &str) -> JobSpec {
    let mut w = tiny_workload();
    w.train_args = vec![tag.len() as i64];
    let mut s = JobSpec::for_workload(&w, epic_driver::OptLevel::Gcc);
    s.source = format!("{TINY_SRC}// {tag}");
    s
}

#[test]
fn eight_tcp_clients_submitting_one_key_trigger_one_run() {
    let (sched, release) = gated_scheduler(4, 64);
    let mut server = serve("127.0.0.1:0", Arc::clone(&sched)).unwrap();
    let addr = server.addr().to_string();
    let spec = spec_named("coalesce");

    let digests: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).unwrap();
                    let served = c.submit(&spec, Priority::Normal, 0).unwrap();
                    digest(&served.measurement)
                })
            })
            .collect();
        // give every connection time to land on the server, then open
        // the gate (extra tokens cover scheduling races)
        std::thread::sleep(Duration::from_millis(150));
        for _ in 0..16 {
            let _ = release.send(());
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(digests.windows(2).all(|p| p[0] == p[1]));
    let (runs, _) = sched.work_counts();
    assert_eq!(runs, 1, "eight concurrent clients must coalesce to one run");
    let stats = server.stats();
    assert_eq!(stats.sched.jobs_run, 1);
    assert!(
        stats.sched.coalesced >= 1,
        "later submissions attach to the in-flight job"
    );
    server.stop();
}

#[test]
fn saturated_queue_answers_busy_over_tcp() {
    // one worker, queue of one: A occupies the worker, B fills the
    // queue, C is shed with a typed Busy response
    let (sched, release) = gated_scheduler(1, 1);
    let mut server = serve("127.0.0.1:0", Arc::clone(&sched)).unwrap();
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        let a = {
            let addr = addr.clone();
            scope.spawn(move || {
                Client::connect(&addr)
                    .unwrap()
                    .submit(&spec_named("a"), Priority::Normal, 0)
                    .map(|s| s.key)
            })
        };
        // wait until A is running (queue drained, one in flight)
        let t0 = Instant::now();
        loop {
            let st = sched.stats();
            if st.queue_depth == 0 && st.in_flight == 1 {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "A never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        let b = {
            let addr = addr.clone();
            scope.spawn(move || {
                Client::connect(&addr)
                    .unwrap()
                    .submit(&spec_named("b"), Priority::Normal, 0)
                    .map(|s| s.key)
            })
        };
        let t0 = Instant::now();
        while sched.stats().queue_depth < 1 {
            assert!(t0.elapsed() < Duration::from_secs(10), "B never queued");
            std::thread::sleep(Duration::from_millis(2));
        }
        match Client::connect(&addr)
            .unwrap()
            .submit(&spec_named("c"), Priority::Normal, 0)
        {
            Err(ClientError::Busy { queue_depth }) => assert_eq!(queue_depth, 1),
            other => panic!("expected typed Busy, got {:?}", other.map(|s| s.key).err()),
        }
        assert_eq!(sched.stats().shed, 1);
        for _ in 0..8 {
            let _ = release.send(());
        }
        assert!(a.join().unwrap().is_ok());
        assert!(b.join().unwrap().is_ok());
    });
    server.stop();
}

#[test]
fn metrics_verb_ships_registry_snapshot_over_tcp() {
    let (sched, release) = gated_scheduler(2, 32);
    // pre-open the gate so jobs finish without choreography
    for _ in 0..8 {
        let _ = release.send(());
    }
    let mut server = serve("127.0.0.1:0", Arc::clone(&sched)).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    client
        .submit(&spec_named("metrics"), Priority::Normal, 0)
        .unwrap();

    let snap = client.metrics().unwrap();
    // the registry is process-wide and shared with other tests in this
    // binary, so assert floors, not exact values
    match snap.get("serve.submitted") {
        Some(MetricValue::Counter(n)) => assert!(*n >= 1, "submitted = {n}"),
        other => panic!("serve.submitted missing or mistyped: {other:?}"),
    }
    match snap.get("serve.jobs_run") {
        Some(MetricValue::Counter(n)) => assert!(*n >= 1, "jobs_run = {n}"),
        other => panic!("serve.jobs_run missing or mistyped: {other:?}"),
    }
    for h in ["serve.queue_wait_us", "serve.run_us", "serve.store_us"] {
        match snap.get(h) {
            Some(MetricValue::Histogram(hs)) => {
                assert!(hs.count >= 1, "{h} recorded nothing");
                assert!(hs.quantile(0.5).is_some());
            }
            other => panic!("{h} missing or mistyped: {other:?}"),
        }
    }
    assert!(
        matches!(snap.get("serve.queue_depth"), Some(MetricValue::Gauge(_))),
        "queue depth gauge missing"
    );
    // snapshots are name-sorted, so the rendered table is deterministic
    let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
    drop(client);
    server.stop();
}

#[test]
fn submit_retry_rides_out_a_saturated_queue() {
    // same saturation shape as the Busy test: one worker occupied, queue
    // of one full — a plain submit is shed, but submit_retry's backoff
    // schedule outlasts the congestion once the gate opens
    let (sched, release) = gated_scheduler(1, 1);
    let mut server = serve("127.0.0.1:0", Arc::clone(&sched)).unwrap();
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        let a = {
            let addr = addr.clone();
            scope.spawn(move || {
                Client::connect(&addr)
                    .unwrap()
                    .submit(&spec_named("ra"), Priority::Normal, 0)
                    .map(|s| s.key)
            })
        };
        let t0 = Instant::now();
        loop {
            let st = sched.stats();
            if st.queue_depth == 0 && st.in_flight == 1 {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "A never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        let b = {
            let addr = addr.clone();
            scope.spawn(move || {
                Client::connect(&addr)
                    .unwrap()
                    .submit(&spec_named("rb"), Priority::Normal, 0)
                    .map(|s| s.key)
            })
        };
        let t0 = Instant::now();
        while sched.stats().queue_depth < 1 {
            assert!(t0.elapsed() < Duration::from_secs(10), "B never queued");
            std::thread::sleep(Duration::from_millis(2));
        }

        // a zero-retry policy is a plain submit: shed immediately
        let no_retry = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        match Client::connect(&addr).unwrap().submit_retry(
            &spec_named("rc"),
            Priority::Normal,
            0,
            &no_retry,
        ) {
            Err(ClientError::Busy { .. }) => {}
            other => panic!("expected Busy, got {:?}", other.map(|s| s.key).err()),
        }
        let shed_before = sched.stats().shed;
        assert!(shed_before >= 1);

        // open the gate shortly after C starts retrying, so C's first
        // attempt is shed and a later one lands once the queue drains
        let gate = scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            for _ in 0..8 {
                let _ = release.send(());
            }
        });
        let patient = RetryPolicy {
            max_retries: 20,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
        };
        let retries_before = match epic_trace::global().snapshot().get("serve.client.retries") {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        };
        let served = Client::connect(&addr)
            .unwrap()
            .submit_retry(&spec_named("rc"), Priority::Normal, 0, &patient)
            .expect("retry must outlast the congestion");
        assert_eq!(served.key, spec_named("rc").job_key());
        // every ridden-out Busy is observable in the metrics registry
        match epic_trace::global().snapshot().get("serve.client.retries") {
            Some(MetricValue::Counter(n)) => assert!(
                *n > retries_before,
                "serve.client.retries must count the shed attempts ({n} vs {retries_before})"
            ),
            other => panic!("serve.client.retries missing or mistyped: {other:?}"),
        }
        gate.join().unwrap();
        assert!(a.join().unwrap().is_ok());
        assert!(b.join().unwrap().is_ok());
    });
    server.stop();
}

/// Opens a [`gated_scheduler`]'s gate when dropped — declared after the
/// server handle so a failing assertion can still unwind (the handle's
/// drop joins workers that would otherwise block on the gate forever).
struct GateGuard(mpsc::Sender<()>, usize);

impl Drop for GateGuard {
    fn drop(&mut self) {
        for _ in 0..self.1 {
            let _ = self.0.send(());
        }
    }
}

/// Threads in this process whose comm name is exactly `name`.
fn count_threads_named(name: &str) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .map(|c| c.trim() == name)
                .unwrap_or(false)
        })
        .count()
}

#[test]
fn one_event_loop_thread_holds_1000_submits_in_flight() {
    const N: usize = 1000;
    let (sched, release) = gated_scheduler(4, 2048);
    let cfg = ServerConfig {
        max_conns: N + 8,
        ..ServerConfig::default()
    };
    let mut server = serve_with("127.0.0.1:0", Arc::clone(&sched), cfg).unwrap();
    let _guard = GateGuard(release.clone(), N + 64);
    let addr = server.addr().to_string();

    // 1000 connections, one distinct submit each, all driven by one
    // client thread (the protocol has no request IDs, so in-flight depth
    // comes from connection count)
    let specs: Vec<JobSpec> = (0..N).map(|i| spec_named(&format!("swarm{i}"))).collect();
    let mut swarm = Swarm::connect(&addr, N).unwrap();
    for (i, spec) in specs.iter().enumerate() {
        swarm.enqueue(
            i,
            &Request::Submit {
                spec: spec.clone(),
                prio: Priority::Normal,
                deadline_ms: 0,
            },
        );
    }
    let driver = std::thread::spawn(move || {
        let out = swarm.run(Duration::from_secs(120));
        (swarm, out)
    });

    // every submit reaches the scheduler and parks there (the gate is
    // shut): in_flight counts queued-or-running, so it hits N exactly
    // when all 1000 are inside the scheduler at once
    let t0 = Instant::now();
    loop {
        let st = sched.stats();
        if st.submitted == N as u64 && st.in_flight == N as u64 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "submits never all arrived: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // the serving layer spawns exactly one loop thread per server and no
    // per-connection threads — with 1000 submits in flight there must be
    // no thread named like the old per-connection workers
    assert_eq!(
        count_threads_named("epicd-conn"),
        0,
        "event-driven epicd must not spawn per-connection threads"
    );
    assert!(count_threads_named("epicd-loop") >= 1);

    for _ in 0..(N + 64) {
        let _ = release.send(());
    }
    let (_swarm, out) = driver.join().unwrap();
    let responses = out.expect("all 1000 responses arrive");

    // zero lost, duplicated, or cross-wired: every connection got exactly
    // one response carrying its own key and that key's measurement
    assert_eq!(responses.len(), N);
    for (i, (conn, spec)) in responses.iter().zip(&specs).enumerate() {
        assert_eq!(conn.len(), 1, "conn {i} got {} responses", conn.len());
        match &conn[0] {
            Response::Done {
                key, measurement, ..
            } => {
                assert_eq!(*key, spec.job_key(), "conn {i} got another conn's key");
                assert_eq!(
                    digest(measurement),
                    digest(&dummy_measurement(spec.source.len() as u64)),
                    "conn {i} payload does not match its spec"
                );
            }
            other => panic!("conn {i}: expected Done, got {other:?}"),
        }
    }
    let st = sched.stats();
    assert_eq!(st.jobs_run, N as u64, "all distinct keys, no coalescing");
    server.stop();
}

#[test]
fn malformed_frames_hurt_only_the_offending_connection() {
    let sched = Arc::new(Scheduler::with_runner(
        Arc::new(ArtifactStore::in_memory()),
        Box::new(InstantRunner::default()),
        1,
        8,
    ));
    let mut server = serve("127.0.0.1:0", Arc::clone(&sched)).unwrap();
    let addr = server.addr().to_string();
    let mut bystander = Client::connect(&addr).unwrap();
    bystander.stats().unwrap();

    // hostile length prefix (4 GiB): typed refusal, then a clean close
    {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        use std::io::{Read, Write};
        s.write_all(&0xFFFF_FFFFu32.to_be_bytes()).unwrap();
        let body = epic_serve::proto::read_frame(&mut s).unwrap().unwrap();
        match epic_serve::proto::decode_response(&body).unwrap() {
            Response::Err(msg) => assert!(msg.contains("exceeds cap"), "got: {msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection must close after the refusal");
    }

    // truncated length prefix, then disconnect mid-frame: silent close,
    // nothing else disturbed
    {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        std::io::Write::write_all(&mut s, &[0x00, 0x00]).unwrap();
        drop(s);
    }
    {
        // full prefix, half a body, then gone
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        std::io::Write::write_all(&mut s, &8u32.to_be_bytes()).unwrap();
        std::io::Write::write_all(&mut s, &[1, 2, 3]).unwrap();
        drop(s);
    }

    // garbage verb in a well-framed body: typed error, and the SAME
    // connection keeps working afterwards
    {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        epic_serve::proto::write_frame(&mut s, &[0xEE, 1, 2, 3]).unwrap();
        let body = epic_serve::proto::read_frame(&mut s).unwrap().unwrap();
        match epic_serve::proto::decode_response(&body).unwrap() {
            Response::Err(msg) => assert!(msg.contains("bad request"), "got: {msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
        epic_serve::proto::write_frame(&mut s, &epic_serve::proto::encode_request(&Request::Stats))
            .unwrap();
        let body = epic_serve::proto::read_frame(&mut s).unwrap().unwrap();
        assert!(matches!(
            epic_serve::proto::decode_response(&body).unwrap(),
            Response::Stats(_)
        ));
    }

    // the bystander never noticed any of it
    bystander
        .submit(&spec_named("innocent"), Priority::Normal, 0)
        .unwrap();
    bystander.stats().unwrap();
    server.stop();
}

#[test]
fn admission_cap_rejects_and_idle_reaper_recovers_slots() {
    let sched = Arc::new(Scheduler::with_runner(
        Arc::new(ArtifactStore::in_memory()),
        Box::new(InstantRunner::default()),
        1,
        8,
    ));
    let cfg = ServerConfig {
        max_conns: 2,
        ..ServerConfig::default()
    };
    let mut server = serve_with("127.0.0.1:0", Arc::clone(&sched), cfg).unwrap();
    let addr = server.addr().to_string();

    // fill both slots (a completed roundtrip proves registration)
    let mut c1 = Client::connect(&addr).unwrap();
    c1.stats().unwrap();
    let mut c2 = Client::connect(&addr).unwrap();
    c2.stats().unwrap();

    // the third connection is answered with a typed refusal and closed
    let mut c3 = Client::connect(&addr).unwrap();
    match c3.stats() {
        Err(ClientError::Server(msg)) => assert!(msg.contains("capacity"), "got: {msg}"),
        other => panic!(
            "expected capacity refusal, got {:?}",
            other.map(|_| "stats").err()
        ),
    }
    match epic_trace::global().snapshot().get("serve.conns.rejected") {
        Some(MetricValue::Counter(n)) => assert!(*n >= 1),
        other => panic!("serve.conns.rejected missing: {other:?}"),
    }

    // hanging up frees the slot within a sweep or two
    drop(c1);
    let t0 = Instant::now();
    loop {
        let mut c4 = Client::connect(&addr).unwrap();
        if c4.stats().is_ok() {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "slot never came back after a hangup"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(c2);
    server.stop();
}

#[test]
fn idle_connections_are_reaped_but_inflight_submits_are_not() {
    let (sched, release) = gated_scheduler(1, 8);
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let mut server = serve_with("127.0.0.1:0", Arc::clone(&sched), cfg).unwrap();
    let _guard = GateGuard(release.clone(), 8);
    let addr = server.addr().to_string();

    // a connection whose submit outlives the idle timeout is work, not
    // silence: it must survive and be answered
    let slow = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            Client::connect(&addr)
                .unwrap()
                .submit(&spec_named("slowjob"), Priority::Normal, 0)
                .map(|s| s.key)
        })
    };

    // a connection that goes quiet past the timeout is reaped
    let mut idle = Client::connect(&addr).unwrap();
    idle.stats().unwrap();
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        idle.stats().is_err(),
        "idle connection must be closed by the reaper"
    );
    match epic_trace::global().snapshot().get("serve.conns.reaped") {
        Some(MetricValue::Counter(n)) => assert!(*n >= 1),
        other => panic!("serve.conns.reaped missing: {other:?}"),
    }

    for _ in 0..4 {
        let _ = release.send(());
    }
    let key = slow.join().unwrap().expect("in-flight submit survives");
    assert_eq!(key, spec_named("slowjob").job_key());
    server.stop();
}

#[test]
fn warm_hits_are_answered_on_socket_readiness_not_a_park_timer() {
    // An idle loop must wake on the client's bytes. A loop that only
    // notices requests when a park timer expires pays milliseconds per
    // hit, so 200 sequential round trips would take seconds.
    let sched = Arc::new(Scheduler::with_runner(
        Arc::new(ArtifactStore::in_memory()),
        Box::new(InstantRunner::default()),
        1,
        8,
    ));
    let mut server = serve("127.0.0.1:0", sched).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let spec = spec_named("warm");
    assert!(!client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    let t0 = Instant::now();
    for _ in 0..200 {
        assert!(client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(400),
        "200 warm hits took {took:?}"
    );
    server.stop();
}

#[test]
fn traced_scheduler_records_serve_span_trees() {
    let (tx, rx) = mpsc::channel::<()>();
    for _ in 0..4 {
        let _ = tx.send(());
    }
    struct FreeRunner(Mutex<mpsc::Receiver<()>>);
    impl JobRunner for FreeRunner {
        fn run(
            &self,
            spec: &JobSpec,
            _store: &ArtifactStore,
        ) -> Result<epic_driver::Measurement, String> {
            let _ = self.0.lock().unwrap().recv();
            Ok(dummy_measurement(spec.source.len() as u64))
        }
        fn work_counts(&self) -> (u64, u64) {
            (0, 0)
        }
    }
    let trace = Trace::enabled();
    let sched = Arc::new(Scheduler::with_runner_traced(
        Arc::new(ArtifactStore::in_memory()),
        Box::new(FreeRunner(Mutex::new(rx))),
        1,
        8,
        trace.clone(),
    ));
    let ticket = sched
        .submit(spec_named("traced"), Priority::Normal, None)
        .unwrap();
    ticket.wait().expect("job runs");

    let snap = trace.finish().expect("enabled trace snapshots");
    let serve_root = snap.root("serve").expect("one serve span per job");
    let kids: Vec<&str> = serve_root
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(kids, ["queue-wait", "run", "store"]);
    // the three phases tile the job's span: child durations sum to the
    // root's and each child starts where the previous ended
    let total: u64 = serve_root.children.iter().map(|c| c.dur_ns).sum();
    assert_eq!(total, serve_root.dur_ns);
    for pair in serve_root.children.windows(2) {
        assert_eq!(pair[0].start_ns + pair[0].dur_ns, pair[1].start_ns);
    }
    sched.shutdown();
}
