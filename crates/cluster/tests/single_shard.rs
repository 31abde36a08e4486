//! The `replica: None` path end-to-end: a 1-shard ring (at boot or
//! after draining down to one) must skip hedging and warm replication
//! entirely — there is no replica, and hedging against the primary
//! itself would just double every submit.
//!
//! Lives in its own test binary: the assertions read the process-wide
//! `gateway.cluster.*` counters, which other e2e tests would pollute.

use epic_cluster::{gate, GatewayConfig};
use epic_serve::testutil::InstantRunner;
use epic_serve::{serve_with, ArtifactStore, Client, JobSpec, Priority, Scheduler};
use epic_serve::{ServerConfig, ServerHandle};
use epic_trace::MetricValue;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn instant_shard(shard_id: u64) -> ServerHandle {
    let store = Arc::new(ArtifactStore::in_memory());
    let sched = Arc::new(Scheduler::with_runner(
        store,
        Box::new(InstantRunner::default()),
        4,
        64,
    ));
    let cfg = ServerConfig {
        shard_id,
        ..ServerConfig::default()
    };
    serve_with("127.0.0.1:0", sched, cfg).unwrap()
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

fn counter(client: &mut Client, name: &str) -> u64 {
    match client.metrics().unwrap().get(name) {
        Some(MetricValue::Counter(v)) => *v,
        None => 0,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

#[test]
fn a_single_shard_fleet_never_hedges_or_replicates() {
    let mut s = instant_shard(7);
    let shards = vec![(7, s.addr().to_string())];
    // an absurdly eager hedge budget: if the gateway were willing to
    // hedge a 1-shard ring, this would force it to
    let cfg = GatewayConfig {
        hedge_after: Duration::from_millis(1),
        ..GatewayConfig::default()
    };
    let mut gw = gate("127.0.0.1:0", &shards, cfg).unwrap();
    let mut client = Client::connect(&gw.addr().to_string()).unwrap();

    let specs = matrix_specs();
    for spec in &specs {
        let served = client.submit(spec, Priority::Normal, 0).unwrap();
        assert!(!served.cache_hit);
    }
    // give a (buggy) hedge or replicate every chance to fire
    std::thread::sleep(Duration::from_millis(50));
    for spec in &specs {
        let served = client.submit(spec, Priority::Normal, 0).unwrap();
        assert!(served.cache_hit, "resubmit must hit the lone shard's cache");
    }

    assert_eq!(
        counter(&mut client, "gateway.cluster.hedged"),
        0,
        "a 1-shard ring has no replica to hedge to"
    );
    assert_eq!(
        counter(&mut client, "gateway.cluster.replicated"),
        0,
        "a 1-shard ring has no replica to warm"
    );
    assert_eq!(s.stats().sched.jobs_run, 48);

    // drain-to-1 behaves the same: grow to two shards, drain back down,
    // and a fresh submit on the lone survivor stays hedge/replica-free
    let s8 = instant_shard(8);
    client.cluster_join(8, &s8.addr().to_string()).unwrap();
    client.cluster_drain(8).unwrap();
    let hedged_before = counter(&mut client, "gateway.cluster.hedged");
    let replicated_before = counter(&mut client, "gateway.cluster.replicated");

    let mut fresh = specs[0].clone();
    fresh.sim_fuel += 12_345; // a key nobody has computed yet
    let served = client.submit(&fresh, Priority::Normal, 0).unwrap();
    assert!(!served.cache_hit);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        counter(&mut client, "gateway.cluster.hedged"),
        hedged_before
    );
    assert_eq!(
        counter(&mut client, "gateway.cluster.replicated"),
        replicated_before
    );

    // protocol shutdown still reaches the drained shard
    client.shutdown().unwrap();
    s.wait();
    let mut s8 = s8;
    s8.wait();
    gw.wait();
}

#[test]
fn warm_hits_through_the_gateway_wait_on_readiness_not_a_park_timer() {
    // Both loops must wake on socket readiness: with a park timer in
    // either, every hit pays milliseconds and 200 hits take seconds.
    let s = instant_shard(3);
    let gw = gate(
        "127.0.0.1:0",
        &[(3, s.addr().to_string())],
        GatewayConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(&gw.addr().to_string()).unwrap();
    let spec = matrix_specs().swap_remove(0);
    assert!(!client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    let t0 = Instant::now();
    for _ in 0..200 {
        assert!(client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(400),
        "200 warm hits through the gateway took {took:?}"
    );
    // the gateway's blocked time surfaces in the merged metrics view
    match client
        .metrics()
        .unwrap()
        .get("gateway.cluster.poll.wait_us")
    {
        Some(MetricValue::Histogram(h)) => assert!(h.count > 0),
        other => panic!("gateway.cluster.poll.wait_us missing: {other:?}"),
    }
}

#[test]
fn stopping_an_idle_gateway_is_prompt() {
    // With no timer pending the gateway's wait has no timeout; only the
    // waker can end it.
    let s = instant_shard(4);
    let mut gw = gate(
        "127.0.0.1:0",
        &[(4, s.addr().to_string())],
        GatewayConfig::default(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    gw.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "stop took {took:?}");
}
