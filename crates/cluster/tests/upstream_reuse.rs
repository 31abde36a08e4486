//! The gateway's pool of idle upstream streams: a warm hit reuses a
//! parked stream instead of connecting, a stream the shard has closed
//! while idle is re-sent on a fresh connection without counting as a
//! failover, and a shard id re-joined at a new address never reaches
//! the old process through a stream parked before the join.
//!
//! Lives in its own test binary: the assertions read the process-wide
//! `gateway.cluster.*` counters, which other e2e tests would pollute.
//! For the same reason the tests here take [`SERIAL`] and run one at a
//! time.

use epic_cluster::{gate, GatewayConfig, Ring};
use epic_serve::testutil::InstantRunner;
use epic_serve::{serve_with, ArtifactStore, Client, JobSpec, Priority, Scheduler};
use epic_serve::{ServerConfig, ServerHandle};
use epic_trace::{MetricValue, MetricsSnapshot};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn instant_shard(cfg: ServerConfig) -> ServerHandle {
    let store = Arc::new(ArtifactStore::in_memory());
    let sched = Arc::new(Scheduler::with_runner(
        store,
        Box::new(InstantRunner::default()),
        4,
        64,
    ));
    serve_with("127.0.0.1:0", sched, cfg).unwrap()
}

fn shard(shard_id: u64) -> ServerHandle {
    instant_shard(ServerConfig {
        shard_id,
        ..ServerConfig::default()
    })
}

fn matrix_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for w in epic_workloads::all() {
        for level in epic_driver::OptLevel::ALL {
            specs.push(JobSpec::for_workload(&w, level));
        }
    }
    specs
}

/// A gateway counter from a merged `metrics` answer. The pool counters
/// are registered when the gateway starts, so a missing one is a bug.
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    match snap.get(&format!("gateway.cluster.{name}")) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("gateway.cluster.{name} is not a counter: {other:?}"),
    }
}

/// A loopback forwarder in front of `target` that counts the
/// connections it accepts: an upstream connection count that does not
/// rely on the gateway's own bookkeeping.
fn counting_proxy(target: SocketAddr) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for down in listener.incoming() {
            let Ok(down) = down else { return };
            count.fetch_add(1, Ordering::SeqCst);
            let up = TcpStream::connect(target).unwrap();
            for s in [&down, &up] {
                s.set_nodelay(true).unwrap();
            }
            let (down2, up2) = (down.try_clone().unwrap(), up.try_clone().unwrap());
            std::thread::spawn(move || pipe(down, up));
            std::thread::spawn(move || pipe(up2, down2));
        }
    });
    (addr, accepted)
}

fn pipe(mut from: TcpStream, mut to: TcpStream) {
    let _ = std::io::copy(&mut from, &mut to);
    let _ = to.shutdown(Shutdown::Both);
}

#[test]
fn sequential_warm_hits_share_one_upstream_connection() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let s = shard(1);
    let (proxy, accepted) = counting_proxy(s.addr());
    let gw = gate(
        "127.0.0.1:0",
        &[(1, proxy.to_string())],
        GatewayConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(&gw.addr().to_string()).unwrap();
    let spec = matrix_specs().swap_remove(0);
    assert!(!client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    let before = client.metrics().unwrap();
    let accepted_before = accepted.load(Ordering::SeqCst);
    for _ in 0..200 {
        assert!(client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    }
    let after = client.metrics().unwrap();
    let opened = accepted.load(Ordering::SeqCst) - accepted_before;
    assert!(
        opened <= 1,
        "200 sequential hits opened {opened} upstream connections"
    );
    let connects = counter(&after, "upstream.connects") - counter(&before, "upstream.connects");
    assert_eq!(connects as usize, opened, "connects counter vs the proxy");
    let reused = counter(&after, "upstream.reused") - counter(&before, "upstream.reused");
    assert!(reused >= 200, "only {reused} of 200 hits reused a stream");
}

#[test]
fn a_stream_the_shard_reaped_is_resent_not_failed_over() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let s = instant_shard(ServerConfig {
        shard_id: 2,
        idle_timeout: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let gw = gate(
        "127.0.0.1:0",
        &[(2, s.addr().to_string())],
        GatewayConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(&gw.addr().to_string()).unwrap();
    let spec = matrix_specs().swap_remove(1);
    assert!(!client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    assert!(client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    let before = client.metrics().unwrap();

    // the shard reaps every idle stream the gateway has parked
    std::thread::sleep(Duration::from_millis(250));
    let served = client.submit(&spec, Priority::Normal, 0).unwrap();
    assert!(
        served.cache_hit,
        "the hit after the reap must still be served"
    );

    let after = client.metrics().unwrap();
    for name in ["failover", "upstream.errors"] {
        assert_eq!(
            counter(&after, name),
            counter(&before, name),
            "a reaped pooled stream must not count as cluster.{name}"
        );
    }
    assert!(
        counter(&after, "upstream.connects") > counter(&before, "upstream.connects"),
        "the re-send must have gone out on a fresh connection"
    );
    match after.get("gateway.serve.conns.reaped") {
        Some(MetricValue::Counter(n)) => assert!(*n > 0, "the shard never reaped a stream"),
        other => panic!("serve.conns.reaped missing: {other:?}"),
    }
}

#[test]
fn a_rejoined_shard_id_never_reaches_its_old_process() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (s1, old2, s3) = (shard(1), shard(2), shard(3));
    let gw = gate(
        "127.0.0.1:0",
        &[
            (1, s1.addr().to_string()),
            (2, old2.addr().to_string()),
            (3, s3.addr().to_string()),
        ],
        GatewayConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(&gw.addr().to_string()).unwrap();
    let ring = Ring::new(&[1, 2, 3]);
    let on_2: Vec<JobSpec> = matrix_specs()
        .into_iter()
        .filter(|s| ring.primary(s.job_key()) == Some(2))
        .collect();
    assert!(on_2.len() >= 4, "too few keys route to shard 2");

    // warm the gateway's pool to shard 2's first process
    let before = client.metrics().unwrap();
    for spec in &on_2 {
        client.submit(spec, Priority::Normal, 0).unwrap();
    }
    let warmed = client.metrics().unwrap();
    assert!(counter(&warmed, "upstream.reused") > counter(&before, "upstream.reused"));

    // move id 2 to a new process at a new address
    client.cluster_drain(2).unwrap();
    let new2 = shard(2);
    assert_ne!(new2.addr(), old2.addr());
    client.cluster_join(2, &new2.addr().to_string()).unwrap();

    let old_submitted = old2.stats().sched.submitted;
    let new_submitted = new2.stats().sched.submitted;
    for spec in &on_2 {
        let served = client.submit(spec, Priority::Normal, 0).unwrap();
        assert!(
            served.cache_hit,
            "the join must have warmed the new shard 2"
        );
    }
    assert_eq!(
        new2.stats().sched.submitted,
        new_submitted + on_2.len() as u64,
        "shard 2's keys must reach its new process"
    );
    assert_eq!(
        old2.stats().sched.submitted,
        old_submitted,
        "a stream parked before the join reached the old process"
    );
}
