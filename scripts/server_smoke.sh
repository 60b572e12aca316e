#!/usr/bin/env bash
# CI smoke of the plan-serving daemon through the real binary: start
# `dsq serve` on a Unix socket, drive it with `dsq client`, check the
# hit-rate summary, then close the daemon's stdin and assert a clean
# EOF-triggered drain. Mirrors crates/cli/tests/server_smoke.rs, but
# through the same shell path an operator would use.
#
# Usage: scripts/server_smoke.sh [DSQ_BINARY]
#   DSQ_BINARY   defaults to target/release/dsq (built by the CI release
#                build step)
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${1:-target/release/dsq}"
if ! [ -x "$bin" ]; then
    echo "server_smoke: $bin not built (run cargo build --release first)" >&2
    exit 1
fi

workdir="$(mktemp -d)"
sock="$workdir/dsq.sock"
snapshot="$workdir/plans.dsqc"
server_log="$workdir/server.log"
fifo="$workdir/stdin.fifo"
# Every spawned daemon registers its PID here; the single EXIT trap
# kills whatever is still running and removes the workdir — no chained
# traps to keep in sync as smoke legs are added.
daemon_pids=()
cleanup() {
    exec 3>&- 2>/dev/null || true
    for pid in ${daemon_pids[@]+"${daemon_pids[@]}"}; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

"$bin" generate --family clustered -n 7 --seed 11 > "$workdir/q.dsq"

# Hold the daemon's stdin open on a FIFO; closing fd 3 later is the
# graceful-shutdown signal (single worker: the single-core CI container
# measures oversubscription, not speedup, beyond that).
mkfifo "$fifo"
"$bin" serve --unix "$sock" --workers 1 --snapshot "$snapshot" < "$fifo" > "$server_log" &
server_pid=$!
daemon_pids+=("$server_pid")
exec 3>"$fifo"

for _ in $(seq 1 300); do
    [ -S "$sock" ] && break
    sleep 0.1
done
[ -S "$sock" ] || { echo "server_smoke: socket never appeared" >&2; cat "$server_log" >&2; exit 1; }

"$bin" client --unix "$sock" ping | grep -qx "pong"
"$bin" client --unix "$sock" optimize "$workdir/q.dsq" --repeat 3 > "$workdir/served.out"
grep -q " cold " "$workdir/served.out"
grep -q " hit " "$workdir/served.out"
"$bin" client --unix "$sock" stats | tee "$workdir/stats.out"
grep -q "requests 3 hits 2" "$workdir/stats.out"
grep -q "hit-rate 66.7%" "$workdir/stats.out"
# Hits are answered on the reactor: all three requests recorded a plan
# stage, but only the cold one waited in the admission queue.
"$bin" client --unix "$sock" metrics > "$workdir/metrics.out"
grep -q "histogram server.stage.queue_wait_ns count 1 " "$workdir/metrics.out" || \
    { echo "server_smoke: hits went through the admission queue" >&2; cat "$workdir/metrics.out" >&2; exit 1; }
grep -q "histogram server.stage.plan_ns count 3 " "$workdir/metrics.out" || \
    { echo "server_smoke: a request recorded no plan stage" >&2; cat "$workdir/metrics.out" >&2; exit 1; }

# ---- pipelined + connection-scale leg --------------------------------
# Three distinct documents as one coalesced frame: one response line per
# request, in request order (all cold — fresh seeds).
for seed in 12 13 14; do
    "$bin" generate --family clustered -n 7 --seed "$seed" > "$workdir/p$seed.dsq"
done
"$bin" client --unix "$sock" optimize \
    "$workdir/p12.dsq" "$workdir/p13.dsq" "$workdir/p14.dsq" --pipeline \
    > "$workdir/pipelined.out"
[ "$(grep -c " cost " "$workdir/pipelined.out")" -eq 3 ] || \
    { echo "server_smoke: pipelined batch lost responses" >&2; cat "$workdir/pipelined.out" >&2; exit 1; }
[ "$(grep -c " cold " "$workdir/pipelined.out")" -eq 3 ] || \
    { echo "server_smoke: pipelined batch was not served fresh" >&2; exit 1; }
# One reactor thread parks a thousand concurrent idle connections; the
# drain summary proves every one of them stayed live until teardown.
"$bin" client --unix "$sock" hold 1000 > "$workdir/hold.out"
grep -q "held 1000 concurrent connections" "$workdir/hold.out" || \
    { echo "server_smoke: could not hold 1000 connections" >&2; cat "$workdir/hold.out" >&2; exit 1; }
grep -q "drained 1000 held connections: 1000 live, 0 dropped" "$workdir/hold.out" || \
    { echo "server_smoke: held connections were dropped before drain" >&2; cat "$workdir/hold.out" >&2; exit 1; }

# Close stdin: the daemon must drain and exit 0 on its own.
exec 3>&-
wait "$server_pid"
grep -q "served 6 requests" "$server_log"
# The drain summary counts every accepted connection — the held
# thousand included.
conns="$(sed -n 's/.*served 6 requests over \([0-9][0-9]*\) connections.*/\1/p' "$server_log")"
[ "${conns:-0}" -ge 1001 ] || \
    { echo "server_smoke: expected >=1001 connections, saw ${conns:-none}" >&2; cat "$server_log" >&2; exit 1; }
grep -q "hit-rate" "$server_log"
grep -q "drained cleanly" "$server_log"
[ -f "$snapshot" ] || { echo "server_smoke: no final snapshot" >&2; exit 1; }
[ -e "$sock" ] && { echo "server_smoke: socket not unlinked" >&2; exit 1; }

# ---- 2-backend fleet smoke -------------------------------------------
# Two daemons (1 worker each: single-core container), requests sharded
# across them by fingerprint via `client --fleet`, repeats hitting the
# backend caches, then one backend killed and the same stream completing
# via failover.
sock_a="$workdir/fleet-a.sock"
sock_b="$workdir/fleet-b.sock"

"$bin" serve --unix "$sock_a" --workers 1 < /dev/null > "$workdir/fleet-a.log" &
fleet_a_pid=$!
daemon_pids+=("$fleet_a_pid")
"$bin" serve --unix "$sock_b" --workers 1 < /dev/null > "$workdir/fleet-b.log" &
fleet_b_pid=$!
daemon_pids+=("$fleet_b_pid")
for _ in $(seq 1 300); do
    [ -S "$sock_a" ] && [ -S "$sock_b" ] && break
    sleep 0.1
done
[ -S "$sock_a" ] && [ -S "$sock_b" ] || { echo "server_smoke: fleet sockets never appeared" >&2; exit 1; }

# A handful of distinct queries so both backends see traffic
# (fingerprint routing is deterministic in the generator seeds).
fleet_files=()
for seed in 21 22 23 24 25 26; do
    "$bin" generate --family clustered -n 7 --seed "$seed" > "$workdir/fq$seed.dsq"
    fleet_files+=("$workdir/fq$seed.dsq")
done
"$bin" client --fleet "unix://$sock_a,unix://$sock_b" optimize "${fleet_files[@]}" --repeat 2 \
    > "$workdir/fleet.out"
grep -q " cold " "$workdir/fleet.out"
grep -q " hit " "$workdir/fleet.out"
grep -q "fleet: 2 backends served 12 requests" "$workdir/fleet.out"
grep -q "0 failovers, 0 local fallbacks" "$workdir/fleet.out"
# Both partitions carried traffic.
"$bin" client --unix "$sock_a" stats | grep -vq "^requests 0 " || \
    { echo "server_smoke: backend a served nothing" >&2; exit 1; }
"$bin" client --unix "$sock_b" stats | grep -vq "^requests 0 " || \
    { echo "server_smoke: backend b served nothing" >&2; exit 1; }

# Kill backend B; the same stream must complete by failing over to A
# (and the summary must say so).
"$bin" client --unix "$sock_b" shutdown | grep -qx "server draining"
wait "$fleet_b_pid"
"$bin" client --fleet "unix://$sock_a,unix://$sock_b" optimize "${fleet_files[@]}" \
    > "$workdir/failover.out"
grep -q "fleet: 2 backends served 6 requests" "$workdir/failover.out"
grep -q "0 local fallbacks" "$workdir/failover.out"

# ---- warm handoff smoke ----------------------------------------------
# Grow the surviving backend into a 2-backend fleet with the rebalance
# verb: whatever slice of the keyspace the new daemon owns moves over
# warm, and the grown fleet answers the whole stream from cache.
sock_c="$workdir/fleet-c.sock"
"$bin" serve --unix "$sock_c" --workers 1 < /dev/null > "$workdir/fleet-c.log" &
fleet_c_pid=$!
daemon_pids+=("$fleet_c_pid")
for _ in $(seq 1 300); do
    [ -S "$sock_c" ] && break
    sleep 0.1
done
[ -S "$sock_c" ] || { echo "server_smoke: grow socket never appeared" >&2; exit 1; }
"$bin" fleet rebalance --from "unix://$sock_a" --to "unix://$sock_a,unix://$sock_c" \
    > "$workdir/rebalance.out"
grep -q "rebalance complete: moved" "$workdir/rebalance.out"
"$bin" client --fleet "unix://$sock_a,unix://$sock_c" optimize "${fleet_files[@]}" \
    > "$workdir/grown.out"
[ "$(grep -c " hit " "$workdir/grown.out")" -eq 6 ] || \
    { echo "server_smoke: grown fleet lost warm keys" >&2; cat "$workdir/grown.out" >&2; exit 1; }
grep -q "0 failovers, 0 local fallbacks" "$workdir/grown.out"

"$bin" client --unix "$sock_a" shutdown | grep -qx "server draining"
wait "$fleet_a_pid"
"$bin" client --unix "$sock_c" shutdown | grep -qx "server draining"
wait "$fleet_c_pid"

# ---- chaos smoke ------------------------------------------------------
# A daemon injecting deterministic drop/delay/truncate faults into its
# own response frames: individual requests may fail typed (that is the
# point), but the client never hangs, at least one request is served,
# and the daemon still drains cleanly on shutdown.
chaos_sock="$workdir/chaos.sock"
"$bin" serve --unix "$chaos_sock" --workers 1 --chaos 7 < /dev/null > "$workdir/chaos.log" &
chaos_pid=$!
daemon_pids+=("$chaos_pid")
for _ in $(seq 1 300); do
    [ -S "$chaos_sock" ] && break
    sleep 0.1
done
[ -S "$chaos_sock" ] || { echo "server_smoke: chaos socket never appeared" >&2; exit 1; }
served=0
for _ in $(seq 1 8); do
    if "$bin" client --unix "$chaos_sock" optimize "$workdir/q.dsq" > /dev/null 2>&1; then
        served=$((served + 1))
    fi
done
[ "$served" -ge 1 ] || { echo "server_smoke: chaos starved serving entirely" >&2; exit 1; }
# The shutdown acknowledgement itself may be a dropped frame; the drain
# must happen regardless.
"$bin" client --unix "$chaos_sock" shutdown > /dev/null 2>&1 || true
wait "$chaos_pid"
grep -q ", chaos)" "$workdir/chaos.log"
grep -q "drained cleanly" "$workdir/chaos.log"

# ---- open-loop loadgen smoke -----------------------------------------
# A ~2k-request Poisson burst (667 requests x 3 classes) against a fresh
# daemon: every class must report a non-zero p99 and zero protocol
# errors. Latency is measured from each request's scheduled send time,
# so a stalling server cannot hide in generator back-pressure.
lg_sock="$workdir/loadgen.sock"
"$bin" serve --unix "$lg_sock" --workers 1 < /dev/null > "$workdir/loadgen-server.log" &
lg_pid=$!
daemon_pids+=("$lg_pid")
for _ in $(seq 1 300); do
    [ -S "$lg_sock" ] && break
    sleep 0.1
done
[ -S "$lg_sock" ] || { echo "server_smoke: loadgen socket never appeared" >&2; exit 1; }
"$bin" loadgen --unix "$lg_sock" --rate 1500 --requests 667 -n 6 --json \
    > "$workdir/loadgen.json"
grep -q '"schema": "dsq-loadgen/v1"' "$workdir/loadgen.json"
for class in drift boundary pipelined; do
    grep -q "\"class\": \"$class\"" "$workdir/loadgen.json" || \
        { echo "server_smoke: loadgen dropped class $class" >&2; cat "$workdir/loadgen.json" >&2; exit 1; }
done
grep -q '"sent": 667' "$workdir/loadgen.json" || \
    { echo "server_smoke: loadgen lost requests" >&2; cat "$workdir/loadgen.json" >&2; exit 1; }
if grep -Eq '"p99_ns": 0[,}]' "$workdir/loadgen.json"; then
    echo "server_smoke: loadgen reported a zero p99" >&2
    cat "$workdir/loadgen.json" >&2
    exit 1
fi
if grep -Eq '"protocol_errors": [1-9]' "$workdir/loadgen.json"; then
    echo "server_smoke: loadgen saw protocol errors" >&2
    cat "$workdir/loadgen.json" >&2
    exit 1
fi
# The daemon's own stage histograms were live for the whole burst.
"$bin" client --unix "$lg_sock" metrics > "$workdir/loadgen-metrics.out"
head -1 "$workdir/loadgen-metrics.out" | grep -qx "# dsq-metrics v1"
grep -q "histogram server.stage.plan_ns count " "$workdir/loadgen-metrics.out"
"$bin" client --unix "$lg_sock" shutdown | grep -qx "server draining"
wait "$lg_pid"

# ---- tiered serve-batch smoke ----------------------------------------
# First run: every miss is answered at the greedy tier (`tier heur` on
# the output line) and refined to exact before the snapshot is written
# (heuristic-tier entries are never persisted). Second run restores the
# snapshot: pure exact hits, no heuristic answer — the background
# refinement upgraded the hit path across the restart.
batch_dir="$workdir/batch"
mkdir -p "$batch_dir"
for seed in 31 32 33; do
    "$bin" generate --family clustered -n 7 --seed "$seed" > "$batch_dir/b$seed.dsq"
done
tiered_snap="$workdir/tiered.dsqc"
"$bin" serve-batch "$batch_dir" --workers 1 --tiered --snapshot-out "$tiered_snap" \
    > "$workdir/tiered-cold.out"
[ "$(grep -c " tier heur$" "$workdir/tiered-cold.out")" -eq 3 ]
grep -q "tiered: 3 tier-1 answers, 3 refined" "$workdir/tiered-cold.out"
grep -q "wrote snapshot (3 entries)" "$workdir/tiered-cold.out"
"$bin" serve-batch "$batch_dir" --workers 1 --tiered --snapshot-in "$tiered_snap" \
    > "$workdir/tiered-warm.out"
grep -q "cache: 3 hits, 0 warm starts, 0 cold" "$workdir/tiered-warm.out"
grep -q "tiered: 0 tier-1 answers, 0 refined" "$workdir/tiered-warm.out"
if grep -q " tier heur" "$workdir/tiered-warm.out"; then
    echo "server_smoke: restored tiered cache still answered heuristically" >&2
    exit 1
fi

echo "server_smoke: OK (clean drain, pipelined batch, 1k connections held and drained live, snapshot persisted, fleet sharding + failover, warm rebalance, chaos drain, 2k-request open-loop burst, metrics verb, tiered refinement)" >&2
