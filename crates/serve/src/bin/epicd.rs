//! `epicd` — the compile/sim job daemon.
//!
//! ```text
//! epicd [--listen ADDR] [--cache-dir DIR] [--workers N] [--queue-cap N]
//!       [--max-conns N] [--idle-timeout-ms MS] [--shard-id N]
//! ```
//!
//! Binds ADDR (default `127.0.0.1:0`), prints `epicd listening on <addr>`
//! on stdout (scripts parse this line to find the ephemeral port), and
//! serves until a client sends the `shutdown` verb. Serving is one
//! event-loop thread (plus the scheduler's workers); `--max-conns` and
//! `--idle-timeout-ms` tune admission control.

#![forbid(unsafe_code)]

use epic_serve::{serve_with, ArtifactStore, Scheduler, ServerConfig};
use std::sync::Arc;

struct Args {
    listen: String,
    cache_dir: Option<std::path::PathBuf>,
    workers: usize,
    queue_cap: usize,
    max_conns: usize,
    idle_timeout_ms: u64,
    shard_id: u64,
}

fn parse_args() -> Result<Args, String> {
    let defaults = ServerConfig::default();
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        cache_dir: None,
        workers: 0,
        queue_cap: 256,
        max_conns: defaults.max_conns,
        idle_timeout_ms: defaults.idle_timeout.as_millis() as u64,
        shard_id: defaults.shard_id,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--listen" => args.listen = val("--listen")?,
            "--cache-dir" => args.cache_dir = Some(val("--cache-dir")?.into()),
            "--workers" => {
                args.workers = val("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-cap" => {
                args.queue_cap = val("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--max-conns" => {
                args.max_conns = val("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = val("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
            }
            "--shard-id" => {
                args.shard_id = val("--shard-id")?
                    .parse()
                    .map_err(|e| format!("--shard-id: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: epicd [--listen ADDR] [--cache-dir DIR] [--workers N] [--queue-cap N] [--max-conns N] [--idle-timeout-ms MS] [--shard-id N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("epicd: {e}");
            std::process::exit(2);
        }
    };
    let store = match &args.cache_dir {
        Some(dir) => ArtifactStore::persistent(dir),
        None => ArtifactStore::in_memory(),
    };
    let sched = Arc::new(Scheduler::new(
        Arc::new(store),
        args.workers,
        args.queue_cap,
    ));
    let cfg = ServerConfig {
        max_conns: args.max_conns,
        idle_timeout: std::time::Duration::from_millis(args.idle_timeout_ms),
        shard_id: args.shard_id,
    };
    let mut handle = match serve_with(&args.listen, sched, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("epicd: bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    println!("epicd listening on {}", handle.addr());
    handle.wait();
    let s = handle.stats();
    eprintln!(
        "epicd: served {} submissions ({} cache hits, {} coalesced, {} shed), ran {} jobs ({} compiles, {} sims)",
        s.sched.submitted,
        s.sched.cache_hits,
        s.sched.coalesced,
        s.sched.shed,
        s.sched.jobs_run,
        s.compiles,
        s.sims
    );
}
