//! Frame-codec property fuzzing: random `epicd` requests and responses
//! round-tripped through the incremental [`FrameDecoder`] under
//! adversarial chunking.
//!
//! Three properties, each checked against `encode_request` /
//! `encode_response` as the reference:
//!
//! 1. **Framing transparency** — for any frame bodies and any split of
//!    the wire bytes into read chunks, the decoder yields exactly those
//!    bodies, byte for byte, in order.
//! 2. **Codec round-trip** — decode-then-re-encode of a decoded frame
//!    reproduces the original encoding bit-identically.
//! 3. **Robustness** — arbitrary garbage never panics the decoder; it
//!    produces frames or typed errors only.
//!
//! Deterministic throughout: one seed fixes every generated message and
//! every chunk boundary (same [`Rng`] discipline as the MiniC fuzzer).

use epic_ir::testing::Rng;
use epic_serve::proto::{self, Request, Response, ServeStats};
use epic_serve::testutil::dummy_measurement;
use epic_serve::{CacheKey, FrameDecoder, JobSpec, JobStatus, Priority, SchedStats, StoreStats};
use epic_trace::{HistogramSnapshot, MetricEntry, MetricValue, MetricsSnapshot};

/// A random syntactically-plausible job spec (the source need not
/// compile — the frame layer never looks inside it).
fn random_spec(rng: &mut Rng) -> JobSpec {
    let level = *rng.choose(&epic_driver::OptLevel::ALL);
    let copts = epic_driver::CompileOptions::for_level(level);
    let sopts = epic_sim::SimOptions::default();
    let source = match rng.pick(3) {
        0 => String::new(),
        1 => "fn main(n: int) -> int { return n; }".to_string(),
        _ => {
            // arbitrary bytes of printable noise, length 0..512
            let len = rng.pick_usize(512);
            (0..len)
                .map(|_| (b' ' + rng.pick(95) as u8) as char)
                .collect()
        }
    };
    let train: Vec<i64> = (0..rng.pick_usize(4))
        .map(|_| rng.next_u64() as i64)
        .collect();
    let refa: Vec<i64> = (0..rng.pick_usize(4))
        .map(|_| rng.next_u64() as i64)
        .collect();
    let mut spec = JobSpec::from_options(&source, &train, &refa, &copts, &sopts);
    spec.profile_fuel = rng.next_u64();
    spec.sim_fuel = rng.next_u64();
    spec
}

fn random_key(rng: &mut Rng) -> CacheKey {
    CacheKey {
        hi: rng.next_u64(),
        lo: rng.next_u64(),
    }
}

/// A random request covering every verb.
pub fn random_request(rng: &mut Rng) -> Request {
    match rng.pick(7) {
        0 => Request::Submit {
            spec: random_spec(rng),
            prio: *rng.choose(&[Priority::Low, Priority::Normal, Priority::High]),
            deadline_ms: rng.pick(100_000),
        },
        1 => Request::Status(random_key(rng)),
        2 => Request::Result(random_key(rng)),
        3 => Request::Stats,
        4 => Request::Metrics,
        5 => Request::Put {
            key: random_key(rng),
            measurement: Box::new(dummy_measurement(rng.pick(1 << 20))),
        },
        _ => Request::Shutdown,
    }
}

fn random_metrics(rng: &mut Rng) -> MetricsSnapshot {
    let n = rng.pick_usize(6);
    let mut entries: Vec<MetricEntry> = (0..n)
        .map(|i| {
            let value = match rng.pick(3) {
                0 => MetricValue::Counter(rng.next_u64()),
                1 => MetricValue::Gauge(rng.next_u64() as i64),
                _ => MetricValue::Histogram(HistogramSnapshot {
                    count: rng.pick(1000),
                    sum: rng.next_u64(),
                    buckets: (0..rng.pick_usize(5))
                        .map(|b| (b as u8 * 7, rng.pick(100)))
                        .collect(),
                }),
            };
            MetricEntry {
                name: format!("fuzz.metric.{i}"),
                value,
            }
        })
        .collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    MetricsSnapshot { entries }
}

/// A random response covering every variant.
pub fn random_response(rng: &mut Rng) -> Response {
    match rng.pick(9) {
        0 => Response::Err(format!("fuzz error {}", rng.next_u64())),
        1 => Response::Done {
            key: random_key(rng),
            cache_hit: rng.chance(1, 2),
            coalesced: rng.chance(1, 2),
            measurement: Box::new(dummy_measurement(rng.pick(1 << 20))),
        },
        2 => Response::Status(*rng.choose(&[
            JobStatus::Unknown,
            JobStatus::InFlight,
            JobStatus::Done,
        ])),
        3 => Response::Result(if rng.chance(1, 2) {
            Some(Box::new(dummy_measurement(rng.pick(1 << 20))))
        } else {
            None
        }),
        // fields are drawn in the order written
        4 => Response::Stats(ServeStats {
            compiles: rng.pick(1000),
            sims: rng.pick(1000),
            sched: SchedStats {
                submitted: rng.next_u64(),
                jobs_run: rng.next_u64(),
                ..SchedStats::default()
            },
            store: StoreStats {
                hits: rng.next_u64(),
                misses: rng.next_u64(),
                ..StoreStats::default()
            },
            shard_id: rng.pick(8),
        }),
        5 => Response::Metrics(random_metrics(rng)),
        6 => Response::Busy {
            queue_depth: rng.pick_usize(1 << 16),
        },
        7 => Response::PutOk,
        _ => Response::ShutdownOk,
    }
}

/// Wire bytes for `bodies` (length prefix + body per frame).
fn wire(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut w = Vec::new();
    for b in bodies {
        w.extend_from_slice(&(b.len() as u32).to_be_bytes());
        w.extend_from_slice(b);
    }
    w
}

/// Feed `stream` to a fresh decoder in random chunks; return the frames
/// it produced.
///
/// # Errors
/// Any [`proto::FrameError`] from the decoder, stringified.
pub fn decode_chunked(rng: &mut Rng, stream: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < stream.len() {
        let chunk_len = 1 + rng.pick_usize(64.min(stream.len() - at));
        let chunk = &stream[at..at + chunk_len];
        let mut off = 0usize;
        while off < chunk.len() {
            let (used, ready) = dec.feed(&chunk[off..]).map_err(|e| e.to_string())?;
            off += used;
            if ready {
                out.push(dec.frame().to_vec());
                dec.next_frame();
            } else if used == 0 {
                return Err("decoder consumed nothing without a frame".to_string());
            }
        }
        at += chunk_len;
    }
    if dec.mid_frame() {
        return Err("decoder left mid-frame at end of stream".to_string());
    }
    Ok(out)
}

/// Property 1+2 for a batch of requests: frame them, decode under
/// random chunking, compare bodies and re-encodings byte-for-byte.
///
/// # Errors
/// A description of the first violated property.
pub fn check_requests(rng: &mut Rng, count: usize) -> Result<(), String> {
    let reqs: Vec<Request> = (0..count).map(|_| random_request(rng)).collect();
    let bodies: Vec<Vec<u8>> = reqs.iter().map(proto::encode_request).collect();
    let frames = decode_chunked(rng, &wire(&bodies))?;
    if frames != bodies {
        return Err(format!(
            "framing mangled request bodies: {} in, {} out",
            bodies.len(),
            frames.len()
        ));
    }
    for (i, body) in frames.iter().enumerate() {
        let decoded = proto::decode_request(body).map_err(|e| format!("request {i}: {e}"))?;
        let re = proto::encode_request(&decoded);
        if re != *body {
            return Err(format!("request {i} re-encoded differently"));
        }
    }
    Ok(())
}

/// Property 1+2 for a batch of responses.
///
/// # Errors
/// A description of the first violated property.
pub fn check_responses(rng: &mut Rng, count: usize) -> Result<(), String> {
    let resps: Vec<Response> = (0..count).map(|_| random_response(rng)).collect();
    let bodies: Vec<Vec<u8>> = resps.iter().map(proto::encode_response).collect();
    let frames = decode_chunked(rng, &wire(&bodies))?;
    if frames != bodies {
        return Err(format!(
            "framing mangled response bodies: {} in, {} out",
            bodies.len(),
            frames.len()
        ));
    }
    for (i, body) in frames.iter().enumerate() {
        let decoded = proto::decode_response(body).map_err(|e| format!("response {i}: {e}"))?;
        let re = proto::encode_response(&decoded);
        if re != *body {
            return Err(format!("response {i} re-encoded differently"));
        }
    }
    Ok(())
}

/// Property 3: feed `len` bytes of garbage; the decoder must only ever
/// produce frames or typed errors (a panic fails the test by crashing).
pub fn check_garbage(rng: &mut Rng, len: usize) {
    let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
    let mut dec = FrameDecoder::new();
    let mut at = 0usize;
    while at < noise.len() {
        let chunk_len = 1 + rng.pick_usize(16.min(noise.len() - at));
        let chunk = &noise[at..at + chunk_len];
        let mut off = 0usize;
        while off < chunk.len() {
            match dec.feed(&chunk[off..]) {
                Ok((used, ready)) => {
                    off += used;
                    if ready {
                        // a garbage "frame" is legal at this layer; the
                        // request decoder above it rejects it
                        let _ = proto::decode_request(dec.frame());
                        dec.next_frame();
                    } else if used == 0 {
                        panic!("decoder stalled on garbage");
                    }
                }
                Err(_) => {
                    // typed refusal (e.g. hostile length): reset, as the
                    // server does by dropping the connection
                    dec = FrameDecoder::new();
                    off = chunk.len();
                }
            }
        }
        at += chunk_len;
    }
}
