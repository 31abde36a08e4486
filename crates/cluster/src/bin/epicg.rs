//! `epicg` — the fleet gateway daemon.
//!
//! ```text
//! epicg --shard [ID=]ADDR [--shard [ID=]ADDR ...]
//!       [--listen ADDR] [--hedge-ms MS] [--connect-timeout-ms MS]
//!       [--max-conns N]
//! ```
//!
//! Binds ADDR (default `127.0.0.1:0`), prints `epicg listening on
//! <addr>` on stdout (scripts parse this line to find the ephemeral
//! port), and gates the given `epicd` shards until a client sends the
//! `shutdown` verb (which shuts the shards down first, then the
//! gateway). Shards without an explicit `ID=` get ids 1, 2, ... in
//! argument order; ids must be stable across restarts or keys will
//! re-route.

#![forbid(unsafe_code)]

use epic_cluster::{gate, GatewayConfig};
use std::time::Duration;

struct Args {
    listen: String,
    shards: Vec<(u64, String)>,
    cfg: GatewayConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".to_string(),
        shards: Vec::new(),
        cfg: GatewayConfig::default(),
    };
    let mut next_auto_id = 1u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--listen" => args.listen = val("--listen")?,
            "--shard" => {
                let v = val("--shard")?;
                let (id, addr) = match v.split_once('=') {
                    Some((id, addr)) => {
                        let id = id.parse().map_err(|e| format!("--shard id: {e}"))?;
                        (id, addr.to_string())
                    }
                    None => (next_auto_id, v),
                };
                next_auto_id = next_auto_id.max(id + 1);
                args.shards.push((id, addr));
            }
            "--hedge-ms" => {
                let ms: u64 = val("--hedge-ms")?
                    .parse()
                    .map_err(|e| format!("--hedge-ms: {e}"))?;
                args.cfg.hedge_after = Duration::from_millis(ms);
            }
            "--connect-timeout-ms" => {
                let ms: u64 = val("--connect-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--connect-timeout-ms: {e}"))?;
                args.cfg.connect_timeout = Duration::from_millis(ms);
            }
            "--max-conns" => {
                args.cfg.max_conns = val("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: epicg --shard [ID=]ADDR [--shard [ID=]ADDR ...] [--listen ADDR] [--hedge-ms MS] [--connect-timeout-ms MS] [--max-conns N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.shards.is_empty() {
        return Err("at least one --shard is required".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("epicg: {e}");
            std::process::exit(2);
        }
    };
    let mut handle = match gate(&args.listen, &args.shards, args.cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("epicg: bind {}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    println!("epicg listening on {}", handle.addr());
    for (id, addr) in &args.shards {
        eprintln!("epicg: shard {id} at {addr}");
    }
    handle.wait();
    let snap = epic_trace::global().snapshot();
    eprintln!(
        "epicg: {} hedged ({} hedge wins), {} failovers, {} replications, {} upstream errors",
        snap.counter("cluster.hedged"),
        snap.counter("cluster.hedge_wins"),
        snap.counter("cluster.failover"),
        snap.counter("cluster.replicated"),
        snap.counter("cluster.upstream.errors"),
    );
}
