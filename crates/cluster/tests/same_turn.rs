//! A warm hit costs each loop one readiness wait per hop: `epicd`
//! answers a store hit in the turn that read it (no completion queue,
//! no waker byte, no second wait), and `epicg` forwards the shard's
//! answer byte for byte and writes it to the client at once. The waits
//! are counted through the loops' own histograms, `serve.poll.wait_us`
//! and `cluster.poll.wait_us`, which record one sample per wait.
//!
//! Lives in its own test binary: the histograms are process-wide.

use epic_cluster::{gate, GatewayConfig};
use epic_serve::proto::{self, Request};
use epic_serve::testutil::InstantRunner;
use epic_serve::{serve, ArtifactStore, JobSpec, Priority, Scheduler};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

/// Sequential hits per phase.
const N: u64 = 200;

fn waits(histogram: &str) -> u64 {
    epic_trace::global()
        .snapshot()
        .histogram(histogram)
        .map_or(0, |h| h.count)
}

/// One request frame out in a single write (so the peer's wait never
/// wakes for half a frame), one response body back.
fn exchange(stream: &mut TcpStream, body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    stream.write_all(&frame).unwrap();
    proto::read_frame(stream).unwrap().expect("an answer")
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

#[test]
fn a_warm_hit_takes_one_wait_per_loop_and_crosses_the_gateway_unchanged() {
    let store = Arc::new(ArtifactStore::in_memory());
    let sched = Arc::new(Scheduler::with_runner(
        store,
        Box::new(InstantRunner::default()),
        2,
        64,
    ));
    let shard = serve("127.0.0.1:0", sched).unwrap();
    let w = epic_workloads::by_name("mcf_mc").unwrap();
    let submit = proto::encode_request(&Request::Submit {
        spec: JobSpec::for_workload(&w, epic_driver::OptLevel::IlpCs),
        prio: Priority::Normal,
        deadline_ms: 0,
    });

    let mut direct = connect(shard.addr());
    let cold = exchange(&mut direct, &submit);
    assert_eq!(proto::done_cache_hit(&cold), Some(false));

    let before = waits("serve.poll.wait_us");
    let answers: Vec<Vec<u8>> = (0..N).map(|_| exchange(&mut direct, &submit)).collect();
    let spent = waits("serve.poll.wait_us") - before;
    assert!(
        spent <= N + 2,
        "{N} direct hits took {spent} epicd waits; a same-turn hit takes one"
    );
    assert!(answers
        .iter()
        .all(|a| proto::done_cache_hit(a) == Some(true)));
    assert!(answers.windows(2).all(|w| w[0] == w[1]));

    let gw = gate(
        "127.0.0.1:0",
        &[(1, shard.addr().to_string())],
        GatewayConfig::default(),
    )
    .unwrap();
    let mut fleet = connect(gw.addr());
    // the first hit connects the gateway's upstream stream
    assert_eq!(exchange(&mut fleet, &submit), answers[0]);
    let (shard_before, gw_before) = (waits("serve.poll.wait_us"), waits("cluster.poll.wait_us"));
    for (i, want) in answers.iter().enumerate() {
        let got = exchange(&mut fleet, &submit);
        assert!(
            got == *want,
            "hit {i} through the gateway differs from the direct answer"
        );
    }
    let shard_spent = waits("serve.poll.wait_us") - shard_before;
    let gw_spent = waits("cluster.poll.wait_us") - gw_before;
    assert!(
        shard_spent <= N + 2,
        "{N} fleet hits took {shard_spent} epicd waits"
    );
    // one wait for the client's request, one for the shard's answer;
    // the answer is written to the client without a third
    assert!(
        gw_spent <= 2 * N + 2,
        "{N} fleet hits took {gw_spent} gateway waits"
    );
}
