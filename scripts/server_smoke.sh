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
# Absolute, so legs that run from inside the workdir can still call it.
bin="$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")"

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
"$bin" client --unix "$sock" metrics > "$workdir/metrics.out"
for line in "counter server.serve.requests 3" "counter server.serve.hits 2" \
    "counter server.serve.hit-rate-bp 6667"; do
    grep -qx "$line" "$workdir/metrics.out" || \
        { echo "server_smoke: expected \`$line\`" >&2; cat "$workdir/metrics.out" >&2; exit 1; }
done
# Hits are answered on the reactor: all three requests recorded a plan
# stage, but only the cold one waited in the admission queue.
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

# ---- crash-restart smoke ---------------------------------------------
# A daemon with a 1 s snapshot period serves one cold request, writes a
# periodic snapshot holding its plan, and is killed with SIGKILL: no
# drain, no cleanup. The kernel drops its snapshot lock with the
# process, so a new daemon on the same snapshot path starts and restores
# the plan. (A fresh socket path: the dead daemon's socket file stays.)
crash_sock="$workdir/crash.sock"
crash_snap="$workdir/crash.dsqc"
"$bin" serve --unix "$crash_sock" --workers 1 --snapshot "$crash_snap" \
    --snapshot-interval-secs 1 < /dev/null > "$workdir/crash.log" &
crash_pid=$!
daemon_pids+=("$crash_pid")
for _ in $(seq 1 300); do
    [ -S "$crash_sock" ] && break
    sleep 0.1
done
[ -S "$crash_sock" ] || { echo "server_smoke: crash socket never appeared" >&2; exit 1; }
"$bin" client --unix "$crash_sock" optimize "$workdir/q.dsq" | grep -q " cold "
snapshots_written() {
    "$bin" client --unix "$crash_sock" metrics | sed -n 's/^counter server.snapshots.written //p'
}
written_before="$(snapshots_written)"
for _ in $(seq 1 300); do
    [ "$(snapshots_written)" -gt "$written_before" ] && break
    sleep 0.1
done
[ "$(snapshots_written)" -gt "$written_before" ] || \
    { echo "server_smoke: no periodic snapshot within 30 s" >&2; exit 1; }
# (The group's stderr swallows the shell's "Killed" job notice.)
{ kill -9 "$crash_pid" && wait "$crash_pid"; } 2>/dev/null || true
restart_sock="$workdir/restart.sock"
"$bin" serve --unix "$restart_sock" --workers 1 --snapshot "$crash_snap" \
    < /dev/null > "$workdir/restart.log" 2>&1 &
restart_pid=$!
daemon_pids+=("$restart_pid")
for _ in $(seq 1 300); do
    [ -S "$restart_sock" ] && break
    sleep 0.1
done
[ -S "$restart_sock" ] || \
    { echo "server_smoke: restart after SIGKILL never listened" >&2; cat "$workdir/restart.log" >&2; exit 1; }
"$bin" client --unix "$restart_sock" optimize "$workdir/q.dsq" | grep -q " hit " || \
    { echo "server_smoke: restart after SIGKILL answered cold" >&2; exit 1; }
"$bin" client --unix "$restart_sock" shutdown | grep -qx "server draining"
wait "$restart_pid"
grep -q "restored 1 cached plans from snapshot" "$workdir/restart.log"

# ---- 2-backend fleet smoke -------------------------------------------
# Two daemons (1 worker each: single-core container), requests sharded
# across them by fingerprint via `client --fleet`, repeats hitting the
# backend caches, then one backend killed and the same stream completing
# via failover. The fleet legs run from inside the workdir with
# relative socket paths: a backend's ring label embeds its address, so
# paths that do not change from run to run keep the keyspace split
# (which backend owns which query) the same in every run.
pushd "$workdir" > /dev/null
sock_a="fleet-a.sock"
sock_b="fleet-b.sock"

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

# A handful of distinct queries so both backends see traffic.
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
for backend in a b; do
    "$bin" client --unix "$workdir/fleet-$backend.sock" metrics > "$workdir/fleet-$backend.metrics"
    if grep -qx "counter server.serve.requests 0" "$workdir/fleet-$backend.metrics"; then
        echo "server_smoke: backend $backend served nothing" >&2
        exit 1
    fi
done

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
sock_c="fleet-c.sock"
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
popd > /dev/null

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

# ---- pipelined burst smoke --------------------------------------------
# 2000 requests against a fresh daemon: 8 documents per coalesced frame,
# 250 rounds. The scrape afterwards counts every request exactly: none
# lost, none malformed, one plan-stage sample each, none outstanding.
burst_sock="$workdir/burst.sock"
"$bin" serve --unix "$burst_sock" --workers 1 < /dev/null > "$workdir/burst-server.log" &
burst_pid=$!
daemon_pids+=("$burst_pid")
for _ in $(seq 1 300); do
    [ -S "$burst_sock" ] && break
    sleep 0.1
done
[ -S "$burst_sock" ] || { echo "server_smoke: burst socket never appeared" >&2; exit 1; }
burst_files=()
for seed in 41 42 43 44 45 46 47 48; do
    "$bin" generate --family clustered -n 6 --seed "$seed" > "$workdir/bq$seed.dsq"
    burst_files+=("$workdir/bq$seed.dsq")
done
"$bin" client --unix "$burst_sock" optimize "${burst_files[@]}" --repeat 250 --pipeline \
    > "$workdir/burst.out"
"$bin" client --unix "$burst_sock" metrics > "$workdir/burst-metrics.out"
for line in "counter server.serve.requests 2000" "counter server.admission.protocol-errors 0" \
    "counter server.reactor.outstanding 0"; do
    grep -qx "$line" "$workdir/burst-metrics.out" || \
        { echo "server_smoke: expected \`$line\`" >&2; cat "$workdir/burst-metrics.out" >&2; exit 1; }
done
grep -q "^histogram server.stage.plan_ns count 2000 " "$workdir/burst-metrics.out" || \
    { echo "server_smoke: a burst request recorded no plan stage" >&2; cat "$workdir/burst-metrics.out" >&2; exit 1; }

# ---- stdin stream smoke -----------------------------------------------
# Three fresh documents concatenated on stdin, sent twice: `optimize -`
# splits the stream with the same reader as `serve-batch -`, names the
# requests stdin[0..2] in stream order, and the repeat round hits.
for seed in 51 52 53; do
    "$bin" generate --family clustered -n 7 --seed "$seed"
done | "$bin" client --unix "$burst_sock" optimize - --repeat 2 > "$workdir/stdin.out"
[ "$(awk '{print $1}' "$workdir/stdin.out" | tr '\n' ' ')" = \
    "stdin[0] stdin[1] stdin[2] stdin[0] stdin[1] stdin[2] " ] || \
    { echo "server_smoke: stdin stream misnamed" >&2; cat "$workdir/stdin.out" >&2; exit 1; }
[ "$(grep -c " hit " "$workdir/stdin.out")" -eq 3 ] || \
    { echo "server_smoke: stdin repeat round missed the cache" >&2; cat "$workdir/stdin.out" >&2; exit 1; }
"$bin" client --unix "$burst_sock" shutdown | grep -qx "server draining"
wait "$burst_pid"

# ---- tiered serve-batch smoke ----------------------------------------
# Three keys, each present three times (`b*` first, then the `d*` and
# `e*` copies). First run: each key's first request is answered at the
# greedy tier (`tier heur` on the output line); every copy waits for
# that key's refinement and hits the exact plan, and everything is
# refined before the snapshot is written (heuristic-tier entries are
# never persisted). The output, with the timing line masked, is the
# same on every run, with one worker or two. Second run restores the
# snapshot: pure exact hits, no heuristic answer — the background
# refinement carried the exact plans across the restart.
batch_dir="$workdir/batch"
mkdir -p "$batch_dir"
for seed in 31 32 33; do
    "$bin" generate --family clustered -n 7 --seed "$seed" > "$batch_dir/b$seed.dsq"
    cp "$batch_dir/b$seed.dsq" "$batch_dir/d$seed.dsq"
    cp "$batch_dir/b$seed.dsq" "$batch_dir/e$seed.dsq"
done
tiered_snap="$workdir/tiered.dsqc"
"$bin" serve-batch "$batch_dir" --workers 1 --tiered --snapshot-out "$tiered_snap" \
    > "$workdir/tiered-cold.out"
[ "$(grep -c " tier heur$" "$workdir/tiered-cold.out")" -eq 3 ]
[ "$(grep -c "^b3[123].dsq  *cold .* tier heur$" "$workdir/tiered-cold.out")" -eq 3 ]
[ "$(grep -c "^[de]3[123].dsq  *hit .*[0-9]$" "$workdir/tiered-cold.out")" -eq 6 ]
grep -q "cache: 6 hits, 0 warm starts, 3 cold" "$workdir/tiered-cold.out"
grep -q "tiered: 3 tier-1 answers, 3 refined" "$workdir/tiered-cold.out"
grep -q "wrote snapshot (3 entries)" "$workdir/tiered-cold.out"
# With two workers, which copy of a key leads (and gets the tier-1
# answer) is a scheduling race that plain `serve-batch --workers 2` has
# as well, so that leg drops the name column and sorts the lines: the
# answers themselves, one tier-1 line and two exact hits per key, must
# still be the same on every run.
for workers in 1 2; do
    distinct=$(for _ in $(seq 20); do
        "$bin" serve-batch "$batch_dir" --workers "$workers" --tiered | grep -v "^served " |
            if [ "$workers" -eq 1 ]; then cat; else sed 's/^[^ ]* *//' | sort; fi | cksum
    done | sort -u | wc -l)
    [ "$distinct" -eq 1 ] || {
        echo "server_smoke: serve-batch --tiered --workers $workers gave $distinct outputs in 20 runs" >&2
        exit 1
    }
done
"$bin" serve-batch "$batch_dir" --workers 1 --tiered --snapshot-in "$tiered_snap" \
    > "$workdir/tiered-warm.out"
grep -q "cache: 9 hits, 0 warm starts, 0 cold" "$workdir/tiered-warm.out"
grep -q "tiered: 0 tier-1 answers, 0 refined" "$workdir/tiered-warm.out"
if grep -q " tier heur" "$workdir/tiered-warm.out"; then
    echo "server_smoke: restored tiered cache still answered heuristically" >&2
    exit 1
fi

echo "server_smoke: OK (clean drain, pipelined batch, 1k connections held and drained live, snapshot persisted, crash-restart after SIGKILL, fleet sharding + failover, warm rebalance, chaos drain, 2k-request pipelined burst, stdin stream, metrics counters, tiered refinement)" >&2
