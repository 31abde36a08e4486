//! Allocation budget of a warm hit, end to end: the client's encode and
//! decode, the serving loop, the scheduler's hit path, and for the fleet
//! path the gateway hop as well. A counting global allocator sees every
//! thread of the process, so the budget covers all of them; the shard's
//! workers and the loops are idle between hits, and nothing else runs.
//!
//! The budgets are exact per-hit counts measured on this code; a change
//! that adds an allocation to the hit path fails here and must either
//! remove it or re-pin the budget with a reason.
//!
//! Lives in its own test binary, because it replaces the global
//! allocator; the tests take [`SERIAL`] because the count is global too.

use epic_cluster::{gate, GatewayConfig};
use epic_serve::testutil::InstantRunner;
use epic_serve::{serve, ArtifactStore, Client, JobSpec, Priority, Scheduler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counts every allocation and reallocation, then defers to `System`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Hits measured per path, after two warm-up hits.
const HITS: u64 = 500;

/// Allocations per warm hit straight to `epicd` (37 before hits were
/// answered from the shared measurement): the client's decode of the
/// answer (the boxed measurement and its vectors and strings) and the
/// shard's decode of the request (the spec's source, argument vectors
/// and boxed machine configuration).
const DIRECT_BUDGET: u64 = 12;

/// Allocations per warm hit through a one-shard `epicg` (62 before
/// answers were forwarded verbatim over pooled buffers): the direct
/// hit's, plus the gateway's copy of the request frame and its decode
/// of the spec for routing.
const FLEET_BUDGET: u64 = 17;

fn shard() -> epic_serve::ServerHandle {
    let store = Arc::new(ArtifactStore::in_memory());
    let sched = Arc::new(Scheduler::with_runner(
        store,
        Box::new(InstantRunner::default()),
        2,
        64,
    ));
    serve("127.0.0.1:0", sched).unwrap()
}

fn spec() -> JobSpec {
    let w = epic_workloads::by_name("gcc_mc").unwrap();
    JobSpec::for_workload(&w, epic_driver::OptLevel::IlpCs)
}

/// Mean allocations of one warm hit on `client`, after a cold submit
/// and two warm-up hits have grown every reused buffer.
fn allocs_per_hit(client: &mut Client) -> f64 {
    let spec = spec();
    client.submit(&spec, Priority::Normal, 0).unwrap();
    for _ in 0..2 {
        assert!(client.submit(&spec, Priority::Normal, 0).unwrap().cache_hit);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..HITS {
        let served = client.submit(&spec, Priority::Normal, 0).unwrap();
        assert!(served.cache_hit);
    }
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / HITS as f64
}

#[test]
fn a_direct_warm_hit_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let s = shard();
    let mut client = Client::connect(&s.addr().to_string()).unwrap();
    let per_hit = allocs_per_hit(&mut client);
    println!("direct warm hit: {per_hit:.2} allocations");
    assert!(
        per_hit <= DIRECT_BUDGET as f64,
        "a direct warm hit allocates {per_hit:.2} times, budget {DIRECT_BUDGET}"
    );
}

#[test]
fn a_fleet_warm_hit_stays_within_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let s = shard();
    let gw = gate(
        "127.0.0.1:0",
        &[(1, s.addr().to_string())],
        GatewayConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(&gw.addr().to_string()).unwrap();
    let per_hit = allocs_per_hit(&mut client);
    println!("fleet warm hit: {per_hit:.2} allocations");
    assert!(
        per_hit <= FLEET_BUDGET as f64,
        "a fleet warm hit allocates {per_hit:.2} times, budget {FLEET_BUDGET}"
    );
}
