#!/usr/bin/env bash
# CI gate: formatting, lints, a clean release build, and the full test
# suite — all offline (the offline_manifests test enforces that no dependency
# resolves to a registry crate).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Lint gate: library and binary targets build clippy-clean, warnings
# as errors.
echo "==> cargo clippy -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Smoke-fuzz: a short deterministic differential-fuzzing campaign over
# the checked-in seed corpus (crates/fuzz/corpus/seeds.txt). Fixed
# master seed, case-bounded, wall-clock capped as a backstop; any
# metamorphic-oracle violation fails CI with a minimized reproducer.
echo "==> smoke fuzz (deterministic, ~15s)"
cargo run --release -q -p epic-fuzz --bin fuzz -- --cases 2000 --seed 1 --seconds 120

# Simulator pins: all 48 matrix cells must reproduce their golden
# `cell` lines (benchmark/golden_cells.txt) bit for bit.
echo "==> simulator golden pins (all 48 cells)"
cargo test --release -q --test sim_golden -- --ignored

# Report smoke: render the Fig. 5 table + Fig. 10 drill-down for one
# workload at all four levels. `epicc report` exits nonzero if the
# accounting identity is violated; on top of that, require the output to
# be non-empty and deterministic across two runs.
echo "==> epicc report smoke (vortex_mc, all levels)"
report_a=$(mktemp)
report_b=$(mktemp)
smoke_dir=$(mktemp -d)
epicd_pid=
fleet_pids=
cleanup() {
    rm -f "$report_a" "$report_b"
    rm -rf "$smoke_dir"
    if [ -n "${epicd_pid:-}" ] && kill -0 "$epicd_pid" 2>/dev/null; then
        kill "$epicd_pid" 2>/dev/null || true
    fi
    for p in ${fleet_pids:-}; do
        kill "$p" 2>/dev/null || true
    done
}
trap cleanup EXIT
cargo run --release -q --bin epicc -- report --workload vortex_mc --level all > "$report_a"
cargo run --release -q --bin epicc -- report --workload vortex_mc --level all > "$report_b"
test -s "$report_a"
cmp "$report_a" "$report_b"

# Serve smoke: start epicd on an ephemeral loopback port and push the
# full 12×4 matrix through it from 8 client threads. Required:
#   (1) served `cell` lines byte-identical to a direct in-process sweep,
#   (2) a second submission is 100% cache hits,
#   (3) the warm sweep issued zero extra compiles/sims (stats verb),
#   (4) clean protocol shutdown — epicd exits 0 without being killed.
echo "==> serve smoke (epicd + epicc submit, full 12x4 matrix)"
cargo build --release -q -p epic-serve --bin epicd
cargo run --release -q -p epic-serve --bin epicd -- --listen 127.0.0.1:0 \
    > "$smoke_dir/epicd.log" &
epicd_pid=$!
addr=
for _ in $(seq 1 200); do
    addr=$(sed -n 's/^epicd listening on //p' "$smoke_dir/epicd.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
test -n "$addr"

cargo run --release -q --bin epicc -- matrix --no-cache > "$smoke_dir/direct.txt"
cargo run --release -q --bin epicc -- submit --addr "$addr" > "$smoke_dir/served_cold.txt"
cargo run --release -q --bin epicc -- submit --addr "$addr" > "$smoke_dir/served_warm.txt"

grep '^cell ' "$smoke_dir/direct.txt" > "$smoke_dir/direct_cells.txt"
grep '^cell ' "$smoke_dir/served_cold.txt" > "$smoke_dir/served_cold_cells.txt"
grep '^cell ' "$smoke_dir/served_warm.txt" > "$smoke_dir/served_warm_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/served_cold_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/served_warm_cells.txt"
grep -qx '# hits=0 misses=48' "$smoke_dir/served_cold.txt"
grep -qx '# hits=48 misses=0' "$smoke_dir/served_warm.txt"

cargo run --release -q --bin epicc -- stats --addr "$addr" > "$smoke_dir/stats.txt"
grep -qx 'stat compiles 48' "$smoke_dir/stats.txt"
grep -qx 'stat sims 48' "$smoke_dir/stats.txt"
grep -qx 'stat sched_jobs_run 48' "$smoke_dir/stats.txt"
grep -qx 'stat sched_cache_hits 48' "$smoke_dir/stats.txt"

cargo run --release -q --bin epicc -- top --addr "$addr" > "$smoke_dir/top.txt"
grep -q '^serve\.jobs_run ' "$smoke_dir/top.txt"

# Saturation smoke: 64 swarm connections each pipeline the full 12×4
# matrix (rotated so concurrent waves overlap on different cells)
# through the single event-loop thread. Required: zero lost, duplicated,
# or cross-wired responses, and `cell` lines byte-identical to the
# direct in-process sweep.
echo "==> serve saturate smoke (64 swarm conns, 3072 pipelined submits)"
cargo run --release -q --bin epicc -- saturate --addr "$addr" --conns 64 \
    > "$smoke_dir/saturate.txt"
grep '^cell ' "$smoke_dir/saturate.txt" > "$smoke_dir/saturate_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/saturate_cells.txt"
grep -qx '# saturate conns=64 submits=3072 lost=0 crosswired=0 digest-mismatch=0' \
    "$smoke_dir/saturate.txt"

cargo run --release -q --bin epicc -- shutdown --addr "$addr"
wait "$epicd_pid"
epicd_pid=

# Trace smoke: one matrix cell with tracing on. Required:
#   (1) the traced run's `cell` lines are byte-identical to an untraced
#       run (tracing never perturbs what it observes),
#   (2) the in-binary validation passes — every cell's span tree
#       round-trips through JSON, carries `compile` and `sim` roots, and
#       its root durations sum-check against the cell's wall time —
#       reported as a final `trace-ok cells=1` line,
#   (3) with tracing off, the output carries no trace artifacts at all.
echo "==> trace smoke (epicc matrix --trace, one cell)"
cargo run --release -q --bin epicc -- matrix --no-cache --workload mcf_mc --level gcc \
    > "$smoke_dir/untraced.txt"
cargo run --release -q --bin epicc -- matrix --no-cache --workload mcf_mc --level gcc --trace \
    > "$smoke_dir/traced.txt"
grep '^cell ' "$smoke_dir/untraced.txt" > "$smoke_dir/untraced_cells.txt"
grep '^cell ' "$smoke_dir/traced.txt" > "$smoke_dir/traced_cells.txt"
cmp "$smoke_dir/untraced_cells.txt" "$smoke_dir/traced_cells.txt"
grep -qx 'trace-ok cells=1' "$smoke_dir/traced.txt"
! grep -q 'trace' "$smoke_dir/untraced.txt"

# Saturation bench smoke: a shrunk in-process run of the event loop on
# an instant runner — validates the BENCH_6.json pipeline, not
# performance numbers.
echo "==> saturation bench smoke (in-process event loop, instant runner)"
cargo run --release -q --bin epicc -- saturate --bench --conns 32 --requests 512 \
    --out "$smoke_dir/bench.json" > "$smoke_dir/bench.txt"
grep -q '^# bench ' "$smoke_dir/bench.txt"
test -s "$smoke_dir/bench.json"

# Sampled-simulation gate: the full 12×4 exact-vs-sampled matrix
# (DESIGN.md §12). `epicc sample --bench` exits nonzero unless every
# cell's functional results are identical, every cell's total-cycle
# error is ≤ 5%, and the whole matrix runs ≥ 2× faster than exact.
# (Measured: ~2.1× and worst error ~1.5%. The speedup was ~3.3× until
# the exact simulator ran on the predecoded tables too and got ~1.9×
# faster; the gate's headroom is now ~5% — see the floor argument in
# DESIGN.md §12. 5× is unreachable while functional warming is on, and
# turning it off costs 30%+ error on mcf.)
echo "==> sampled-sim gate (12x4 exact-vs-sampled, err<=5%, speedup>=2x)"
cargo run --release -q --bin epicc -- sample --bench --max-err 5.0 --min-speedup 2.0 \
    --out "$smoke_dir/bench7.json" > "$smoke_dir/sample.txt"
grep -q '^# sample bench ' "$smoke_dir/sample.txt"
test -s "$smoke_dir/bench7.json"

# Predictor matrix smoke (DESIGN.md §13). Required:
#   (1) `--predictor gshare` (the explicit default) produces cell lines
#       byte-identical to the plain matrix — the zoo refactor may not
#       perturb the default measurement,
#   (2) a non-default predictor produces a *different* cell line for
#       the same (workload, level) — the sweep axis is real,
#   (3) `epicc branches --capture` passes its built-in replay-vs-live
#       self-check for all four zoo members, and offline `epicc replay`
#       of the captured trace reports the oracle at zero mispredicts.
echo "==> predictor smoke (zoo matrix + trace capture/replay)"
cargo run --release -q --bin epicc -- matrix --no-cache --workload mcf_mc --level gcc \
    --predictor gshare > "$smoke_dir/pred_default.txt"
grep '^cell ' "$smoke_dir/pred_default.txt" > "$smoke_dir/pred_default_cells.txt"
cmp "$smoke_dir/untraced_cells.txt" "$smoke_dir/pred_default_cells.txt"
cargo run --release -q --bin epicc -- matrix --no-cache --workload mcf_mc --level gcc \
    --predictor tage > "$smoke_dir/pred_tage.txt"
grep '^cell ' "$smoke_dir/pred_tage.txt" > "$smoke_dir/pred_tage_cells.txt"
if cmp -s "$smoke_dir/untraced_cells.txt" "$smoke_dir/pred_tage_cells.txt"; then
    echo "FAIL: --predictor tage produced cell lines identical to the default" >&2
    exit 1
fi
cargo run --release -q --bin epicc -- branches --workload mcf_mc --level gcc \
    --capture "$smoke_dir/mcf.epbt" > "$smoke_dir/branches.txt"
grep -q '^replay-ok predictors=4$' "$smoke_dir/branches.txt"
cargo run --release -q --bin epicc -- replay --trace "$smoke_dir/mcf.epbt" \
    --predictor all > "$smoke_dir/replay.txt"
grep -q '^replay oracle predictions=[0-9]* mispredictions=0 ' "$smoke_dir/replay.txt"

# Perf-trajectory checkpoint guard (ROADMAP perf-trajectory item,
# first slice): compare this run's bench JSON against the committed
# checkpoint and red-flag regressions. Self-comparison first validates
# the tool path (identical files must pass with zero delta); the live
# comparison uses a generous 25% threshold so shared-runner noise on
# wall-clock speedups cannot flake CI while real cliffs still fail.
echo "==> benchcmp guard (vs committed BENCH_7.json checkpoint)"
cargo run --release -q --bin epicc -- benchcmp --baseline BENCH_7.json \
    --current BENCH_7.json > "$smoke_dir/benchcmp_self.txt"
grep -q '^benchcmp-ok ' "$smoke_dir/benchcmp_self.txt"
cargo run --release -q --bin epicc -- benchcmp --baseline BENCH_7.json \
    --current "$smoke_dir/bench7.json" --threshold-pct 25 \
    > "$smoke_dir/benchcmp.txt"
grep -q '^benchcmp-ok ' "$smoke_dir/benchcmp.txt"

# Bench-history smoke (ROADMAP perf-trajectory item, second slice):
# `benchcmp --history DIR` renders per-metric trajectories over a
# directory of BENCH_*.json checkpoints. Two checkpoints of the
# sampled-sim family (the committed one and this run's) must produce a
# clean `benchhist-ok` summary.
echo "==> benchcmp history smoke (2 sampled-sim checkpoints)"
mkdir -p "$smoke_dir/hist"
cp BENCH_7.json "$smoke_dir/hist/BENCH_1.json"
cp "$smoke_dir/bench7.json" "$smoke_dir/hist/BENCH_2.json"
cargo run --release -q --bin epicc -- benchcmp --history "$smoke_dir/hist" \
    > "$smoke_dir/benchhist.txt"
grep -q '^benchhist-ok families=1 files=2$' "$smoke_dir/benchhist.txt"

# Cluster smoke (DESIGN.md §14): an epicg gateway in front of a 3-shard
# epicd fleet on loopback, hedging disabled (--hedge-ms 600000 — the
# heaviest cell can outlast any budget CI could afford on a loaded
# runner, and a hedged cell runs twice, breaking the exact compile
# counts below); failover in the kill phase is driven by connection
# refusal, not the hedge timer, so it is unaffected. Hedging itself is
# covered by the cluster_e2e suite under `cargo test`. Required:
#   (1) the full 12×4 matrix through the gateway is byte-identical to
#       the direct in-process sweep, all misses,
#   (2) a warm re-sweep through the gateway is 100% cache hits,
#   (3) merged fleet stats account for exactly 48 compiles and speak
#       for no single shard (shard_id 0); `top --cluster` renders
#       fleet, gateway, and per-shard sections, and its gateway section
#       reports a nonzero `cluster.upstream.reused` — the sweeps went
#       out on pooled upstream streams, not a connection per request,
#   (4) with shard 1 killed, a warm re-sweep is still 100% hits — the
#       dead shard's cells answer from their replicas' stores, which
#       warm-cache replication filled while shard 1 was alive; the
#       gateway's streams parked to shard 1 are now dead, so this also
#       drives the pooled-stream re-send into the failover path,
#   (5) still degraded, a fresh sweep (different predictor ⇒ different
#       job keys) completes with zero lost or mismatched cells,
#       byte-identical to a direct run — orphaned keys re-route and
#       recompute on their replicas,
#   (6) protocol shutdown through the gateway stops every live shard
#       and then the gateway itself — all exit 0 without being killed.
echo "==> cluster smoke (epicg + 3-shard epicd fleet, kill-one failover)"
cargo build --release -q -p epic-cluster --bin epicg
for i in 1 2 3; do
    cargo run --release -q -p epic-serve --bin epicd -- --listen 127.0.0.1:0 \
        --shard-id "$i" > "$smoke_dir/shard$i.log" &
    fleet_pids="$fleet_pids $!"
done
shard_addrs=
for i in 1 2 3; do
    a=
    for _ in $(seq 1 200); do
        a=$(sed -n 's/^epicd listening on //p' "$smoke_dir/shard$i.log")
        [ -n "$a" ] && break
        sleep 0.1
    done
    test -n "$a"
    shard_addrs="$shard_addrs --shard $i=$a"
done
# shellcheck disable=SC2086
cargo run --release -q -p epic-cluster --bin epicg -- $shard_addrs \
    --hedge-ms 600000 > "$smoke_dir/epicg.log" &
gw_pid=$!
fleet_pids="$fleet_pids $gw_pid"
gw=
for _ in $(seq 1 200); do
    gw=$(sed -n 's/^epicg listening on //p' "$smoke_dir/epicg.log")
    [ -n "$gw" ] && break
    sleep 0.1
done
test -n "$gw"

cargo run --release -q --bin epicc -- submit --gateway "$gw" > "$smoke_dir/gw_cold.txt"
cargo run --release -q --bin epicc -- submit --gateway "$gw" > "$smoke_dir/gw_warm.txt"
grep '^cell ' "$smoke_dir/gw_cold.txt" > "$smoke_dir/gw_cold_cells.txt"
grep '^cell ' "$smoke_dir/gw_warm.txt" > "$smoke_dir/gw_warm_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/gw_cold_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/gw_warm_cells.txt"
grep -qx '# hits=0 misses=48' "$smoke_dir/gw_cold.txt"
grep -qx '# hits=48 misses=0' "$smoke_dir/gw_warm.txt"

cargo run --release -q --bin epicc -- stats --gateway "$gw" > "$smoke_dir/gw_stats.txt"
grep -qx 'stat compiles 48' "$smoke_dir/gw_stats.txt"
grep -qx 'stat sched_jobs_run 48' "$smoke_dir/gw_stats.txt"
grep -qx 'stat sched_cache_hits 48' "$smoke_dir/gw_stats.txt"
grep -qx 'stat shard_id 0' "$smoke_dir/gw_stats.txt"
cargo run --release -q --bin epicc -- top --gateway "$gw" --cluster \
    > "$smoke_dir/gw_top.txt"
grep -qx '== fleet ==' "$smoke_dir/gw_top.txt"
grep -qx '== gateway ==' "$smoke_dir/gw_top.txt"
grep -qx '== shard1 ==' "$smoke_dir/gw_top.txt"
grep -qx '== shard3 ==' "$smoke_dir/gw_top.txt"
awk '/^== /{sec=$2} sec=="gateway" && $1=="cluster.upstream.reused" && $3>0 {ok=1}
     END{exit !ok}' "$smoke_dir/gw_top.txt"

shard1_pid=$(echo "$fleet_pids" | awk '{print $1}')
kill "$shard1_pid"
cargo run --release -q --bin epicc -- submit --gateway "$gw" > "$smoke_dir/gw_degraded.txt"
grep '^cell ' "$smoke_dir/gw_degraded.txt" > "$smoke_dir/gw_degraded_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/gw_degraded_cells.txt"
grep -qx '# hits=48 misses=0' "$smoke_dir/gw_degraded.txt"

cargo run --release -q --bin epicc -- matrix --no-cache --predictor tage \
    > "$smoke_dir/direct_tage.txt"
cargo run --release -q --bin epicc -- submit --gateway "$gw" --predictor tage \
    > "$smoke_dir/gw_tage.txt"
grep '^cell ' "$smoke_dir/direct_tage.txt" > "$smoke_dir/direct_tage_cells.txt"
grep '^cell ' "$smoke_dir/gw_tage.txt" > "$smoke_dir/gw_tage_cells.txt"
cmp "$smoke_dir/direct_tage_cells.txt" "$smoke_dir/gw_tage_cells.txt"
grep -qx '# hits=0 misses=48' "$smoke_dir/gw_tage.txt"

cargo run --release -q --bin epicc -- shutdown --gateway "$gw"
for p in $fleet_pids; do
    [ "$p" = "$shard1_pid" ] && continue
    wait "$p"
done
fleet_pids=

# Membership smoke (DESIGN.md §15): runtime join/drain against a live,
# warm fleet, with a concurrent sweep hammering the gateway during both
# rebalances. Hedging stays disabled as above. Required:
#   (1) joining a 4th shard reports a rebalance with skipped=0 and the
#       new ring; the sweep running *during* the join stays 100% hits,
#       byte-identical to the direct run,
#   (2) draining shard 1 likewise: its cached primaries move before
#       cutover, the concurrent sweep stays 100% hits,
#   (3) `cluster status` shows version=3 ring=2,3,4, the drained shard
#       as in_ring=no reachable=yes, and the joined shard in the ring,
#   (4) a post-cutover re-sweep is 48/48 hits, byte-identical — zero
#       warmth lost across both membership changes,
#   (5) bad admin ops (drain a stranger, re-join a member, drain to an
#       empty ring) exit nonzero and leave the ring untouched,
#   (6) protocol shutdown through the gateway exits the whole fleet —
#       including the drained-but-running shard 1 — all without kill.
echo "==> membership smoke (runtime join/drain, warm-before-cutover)"
for i in 1 2 3; do
    cargo run --release -q -p epic-serve --bin epicd -- --listen 127.0.0.1:0 \
        --shard-id "$i" > "$smoke_dir/mem_shard$i.log" &
    fleet_pids="$fleet_pids $!"
done
shard_addrs=
for i in 1 2 3; do
    a=
    for _ in $(seq 1 200); do
        a=$(sed -n 's/^epicd listening on //p' "$smoke_dir/mem_shard$i.log")
        [ -n "$a" ] && break
        sleep 0.1
    done
    test -n "$a"
    shard_addrs="$shard_addrs --shard $i=$a"
done
# shellcheck disable=SC2086
cargo run --release -q -p epic-cluster --bin epicg -- $shard_addrs \
    --hedge-ms 600000 > "$smoke_dir/mem_epicg.log" &
fleet_pids="$fleet_pids $!"
gw=
for _ in $(seq 1 200); do
    gw=$(sed -n 's/^epicg listening on //p' "$smoke_dir/mem_epicg.log")
    [ -n "$gw" ] && break
    sleep 0.1
done
test -n "$gw"

cargo run --release -q --bin epicc -- submit --gateway "$gw" > "$smoke_dir/mem_cold.txt"
grep -qx '# hits=0 misses=48' "$smoke_dir/mem_cold.txt"

cargo run --release -q -p epic-serve --bin epicd -- --listen 127.0.0.1:0 \
    --shard-id 4 > "$smoke_dir/mem_shard4.log" &
fleet_pids="$fleet_pids $!"
a4=
for _ in $(seq 1 200); do
    a4=$(sed -n 's/^epicd listening on //p' "$smoke_dir/mem_shard4.log")
    [ -n "$a4" ] && break
    sleep 0.1
done
test -n "$a4"

cargo run --release -q --bin epicc -- submit --gateway "$gw" \
    > "$smoke_dir/mem_during_join.txt" &
sweep_pid=$!
cargo run --release -q --bin epicc -- cluster join --gateway "$gw" \
    --shard "4=$a4" > "$smoke_dir/mem_join.txt"
grep -q '^rebalance join keys_moved=' "$smoke_dir/mem_join.txt"
grep -q 'skipped=0 ring=1,2,3,4$' "$smoke_dir/mem_join.txt"
wait "$sweep_pid"
grep '^cell ' "$smoke_dir/mem_during_join.txt" > "$smoke_dir/mem_during_join_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/mem_during_join_cells.txt"
grep -qx '# hits=48 misses=0' "$smoke_dir/mem_during_join.txt"

cargo run --release -q --bin epicc -- submit --gateway "$gw" \
    > "$smoke_dir/mem_during_drain.txt" &
sweep_pid=$!
cargo run --release -q --bin epicc -- cluster drain --gateway "$gw" \
    --shard 1 > "$smoke_dir/mem_drain.txt"
grep -q '^rebalance drain keys_moved=' "$smoke_dir/mem_drain.txt"
grep -q 'skipped=0 ring=2,3,4$' "$smoke_dir/mem_drain.txt"
wait "$sweep_pid"
grep '^cell ' "$smoke_dir/mem_during_drain.txt" > "$smoke_dir/mem_during_drain_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/mem_during_drain_cells.txt"
grep -qx '# hits=48 misses=0' "$smoke_dir/mem_during_drain.txt"

cargo run --release -q --bin epicc -- cluster status --gateway "$gw" \
    > "$smoke_dir/mem_status.txt"
grep -qx 'fleet version=3 ring=2,3,4' "$smoke_dir/mem_status.txt"
grep -q '^shard 1 addr=.* in_ring=no reachable=yes' "$smoke_dir/mem_status.txt"
grep -q '^shard 4 addr=.* in_ring=yes reachable=yes' "$smoke_dir/mem_status.txt"

cargo run --release -q --bin epicc -- submit --gateway "$gw" > "$smoke_dir/mem_final.txt"
grep '^cell ' "$smoke_dir/mem_final.txt" > "$smoke_dir/mem_final_cells.txt"
cmp "$smoke_dir/direct_cells.txt" "$smoke_dir/mem_final_cells.txt"
grep -qx '# hits=48 misses=0' "$smoke_dir/mem_final.txt"

! cargo run --release -q --bin epicc -- cluster drain --gateway "$gw" --shard 9 \
    2> /dev/null
! cargo run --release -q --bin epicc -- cluster join --gateway "$gw" \
    --shard "4=$a4" 2> /dev/null
cargo run --release -q --bin epicc -- cluster status --gateway "$gw" \
    | grep -qx 'fleet version=3 ring=2,3,4'

cargo run --release -q --bin epicc -- shutdown --gateway "$gw"
for p in $fleet_pids; do
    wait "$p"
done
fleet_pids=

echo "CI OK"
