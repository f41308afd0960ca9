#!/usr/bin/env bash
# End-to-end smoke test for the sharded serving layer: boot two journaled
# vdbd shards plus a vdb-router in front, stream a clip in through the
# router, query it back, restart one shard on its same port, and verify
# the cluster answers whole again, then SIGTERM the router and restart it
# on its own port. CI runs this after server_smoke.sh;
# locally:
#
#   cargo build --bins && scripts/router_smoke.sh [target/debug]
set -euo pipefail

BIN_DIR="${1:-target/debug}"
VDBD="$BIN_DIR/vdbd"
VDBC="$BIN_DIR/vdbc"
ROUTER="$BIN_DIR/vdb-router"
[ -x "$VDBD" ] && [ -x "$VDBC" ] && [ -x "$ROUTER" ] || {
    echo "router_smoke: $VDBD / $VDBC / $ROUTER not built (run: cargo build --bins)" >&2
    exit 1
}

WORKDIR="$(mktemp -d)"
PIDS=()
# Every daemon must die no matter how this script exits: terminate the
# lot, wait briefly, then escalate to KILL. The original exit status is
# preserved so failures still fail the job.
cleanup() {
    status=$?
    for pid in "${PIDS[@]:-}"; do
        [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null || continue
        kill "$pid" 2>/dev/null || true
    done
    for pid in "${PIDS[@]:-}"; do
        [ -n "$pid" ] || continue
        for _ in $(seq 1 20); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
        done
        kill -0 "$pid" 2>/dev/null && kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORKDIR"
    exit "$status"
}
trap cleanup EXIT INT TERM

# start_shard <slot> [<addr>]: boots a journaled vdbd, sets SHARD_PID
# and SHARD_ADDR once it reports its bound address.
start_shard() {
    local slot="$1" addr="${2:-127.0.0.1:0}"
    "$VDBD" --addr "$addr" --metrics-interval 0 \
        --shard-id "$slot" --journal "$WORKDIR/shard$slot.vdbj" \
        >"$WORKDIR/shard$slot.out" 2>"$WORKDIR/shard$slot.err" &
    SHARD_PID=$!
    PIDS+=("$SHARD_PID")
    SHARD_ADDR=""
    for _ in $(seq 1 100); do
        SHARD_ADDR="$(sed -n 's/^vdbd listening on //p' "$WORKDIR/shard$slot.out" | tail -n1)"
        [ -n "$SHARD_ADDR" ] && break
        kill -0 "$SHARD_PID" 2>/dev/null || {
            echo "router_smoke: shard $slot died before binding:" >&2
            cat "$WORKDIR/shard$slot.err" >&2
            exit 1
        }
        sleep 0.1
    done
    [ -n "$SHARD_ADDR" ] || { echo "router_smoke: shard $slot never bound" >&2; exit 1; }
    echo "router_smoke: shard $slot up on $SHARD_ADDR"
}

expect_contains() { # <needle> <label> <<< haystack
    local needle="$1" label="$2" out
    out="$(cat)"
    case "$out" in
    *"$needle"*) ;;
    *)
        echo "router_smoke: $label output missing '$needle':" >&2
        echo "$out" >&2
        exit 1
        ;;
    esac
}

# start_router <run> <addr>: boots vdb-router over both shards, sets
# ROUTER_PID and RADDR once it reports its bound address.
start_router() {
    local run="$1" addr="$2"
    "$ROUTER" --addr "$addr" --shard "$SHARD0_ADDR" --shard "$SHARD1_ADDR" \
        >"$WORKDIR/router$run.out" 2>"$WORKDIR/router$run.err" &
    ROUTER_PID=$!
    PIDS+=("$ROUTER_PID")
    RADDR=""
    for _ in $(seq 1 100); do
        RADDR="$(sed -n 's/^vdb-router listening on //p' "$WORKDIR/router$run.out")"
        [ -n "$RADDR" ] && break
        kill -0 "$ROUTER_PID" 2>/dev/null || {
            echo "router_smoke: vdb-router died before binding:" >&2
            cat "$WORKDIR/router$run.err" >&2
            exit 1
        }
        sleep 0.1
    done
    [ -n "$RADDR" ] || { echo "router_smoke: vdb-router never bound" >&2; exit 1; }
    echo "router_smoke: router up on $RADDR over 2 shards"
}

# stop_by_signal <pid> <label> <stderr file>: SIGTERM, wait, and require a
# zero exit with a "clean shutdown" line.
stop_by_signal() {
    local pid="$1" label="$2" err="$3"
    kill "$pid"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$pid" 2>/dev/null && { echo "router_smoke: $label ignored SIGTERM" >&2; exit 1; }
    wait "$pid" || { echo "router_smoke: $label exited non-zero after SIGTERM" >&2; exit 1; }
    grep -q "clean shutdown" "$err" || {
        echo "router_smoke: $label did not shut down cleanly:" >&2
        cat "$err" >&2
        exit 1
    }
}

start_shard 0
SHARD0_PID=$SHARD_PID
SHARD0_ADDR=$SHARD_ADDR
start_shard 1
SHARD1_ADDR=$SHARD_ADDR
start_router 1 127.0.0.1:0

"$VDBC" "$RADDR" ping | expect_contains "pong" "ping"
"$VDBC" "$RADDR" ring | expect_contains "vnodes" "ring"

# Stream two clips in through the router; the binary protocol is proxied
# to whichever shard owns each name, and the ack carries the global id.
CLIP="$WORKDIR/clip.y4m"
"$VDBC" --synth-y4m "$CLIP" 3 9 | expect_contains "wrote $CLIP" "synth-y4m"
"$VDBC" "$RADDR" stream "$CLIP" as "routed alpha" | expect_contains "durable=true" "stream-alpha"
"$VDBC" "$RADDR" stream "$CLIP" as "routed beta" | expect_contains "durable=true" "stream-beta"

# Scatter-gather answers across both shards, whole-cluster stats, and
# per-shard counters in the router metrics table.
"$VDBC" "$RADDR" list | expect_contains "routed alpha" "list"
"$VDBC" "$RADDR" list | expect_contains "routed beta" "list"
"$VDBC" "$RADDR" query "ba=0.4 oa=14 limit=5" | expect_contains "answers" "query"
"$VDBC" "$RADDR" stats | expect_contains "videos 2" "stats"
"$VDBC" "$RADDR" stats | expect_contains "router.shards 2" "stats"
"$VDBC" "$RADDR" metrics | expect_contains "router.shard.0.requests" "metrics"
"$VDBC" "$RADDR" metrics | expect_contains "router.shard.1.requests" "metrics"
# A healthy cluster must never mark an answer partial.
"$VDBC" "$RADDR" list | { ! grep -q "partial="; } \
    || { echo "router_smoke: healthy cluster answered 'list' partial" >&2; exit 1; }
"$VDBC" "$RADDR" stats | { ! grep -q "partial="; } \
    || { echo "router_smoke: healthy cluster answered 'stats' partial" >&2; exit 1; }

# Restart shard 0: SIGTERM it, rebind the same port (SO_REUSEADDR), and
# the cluster must answer whole again — same journal, no partial marker.
stop_by_signal "$SHARD0_PID" "shard 0" "$WORKDIR/shard0.err"
start_shard 0 "$SHARD0_ADDR"
[ "$SHARD_ADDR" = "$SHARD0_ADDR" ] || {
    echo "router_smoke: restarted shard 0 on $SHARD_ADDR, wanted $SHARD0_ADDR" >&2
    exit 1
}

"$VDBC" "$RADDR" list | expect_contains "routed alpha" "list-after-restart"
"$VDBC" "$RADDR" stats | expect_contains "videos 2" "stats-after-restart"
"$VDBC" "$RADDR" query "ba=0.4 oa=14 limit=5" | { ! grep -q "partial="; } || {
    echo "router_smoke: cluster still partial after shard restart" >&2
    exit 1
}

# Restart the router: SIGTERM it (the shared signal hook drains and exits
# 0), rebind its same port (the shared SO_REUSEADDR bind), rebuild the id
# catalog from the shards, and the cluster must answer as before.
ROUTER1_ADDR=$RADDR
stop_by_signal "$ROUTER_PID" "router" "$WORKDIR/router1.err"
start_router 2 "$ROUTER1_ADDR"
[ "$RADDR" = "$ROUTER1_ADDR" ] || {
    echo "router_smoke: restarted router on $RADDR, wanted $ROUTER1_ADDR" >&2
    exit 1
}
"$VDBC" "$RADDR" refresh | expect_contains "catalog rebuilt: 2 videos from 2 shards" "refresh"
"$VDBC" "$RADDR" list | expect_contains "routed alpha" "list-after-router-restart"
"$VDBC" "$RADDR" list | expect_contains "routed beta" "list-after-router-restart"
"$VDBC" "$RADDR" stats | expect_contains "videos 2" "stats-after-router-restart"
"$VDBC" "$RADDR" stats | expect_contains "router.videos 2" "stats-after-router-restart"

# Wire shutdown: the router drains and exits 0 on its own; the shards
# are then shut down over their own wire.
"$VDBC" "$RADDR" shutdown | expect_contains "shutting down" "router-shutdown"
for _ in $(seq 1 100); do
    kill -0 "$ROUTER_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$ROUTER_PID" 2>/dev/null && { echo "router_smoke: router did not exit" >&2; exit 1; }
wait "$ROUTER_PID" || {
    echo "router_smoke: vdb-router exited non-zero:" >&2
    cat "$WORKDIR/router2.err" >&2
    exit 1
}
grep -q "clean shutdown" "$WORKDIR/router2.err" || {
    echo "router_smoke: router did not report a clean shutdown:" >&2
    cat "$WORKDIR/router2.err" >&2
    exit 1
}
"$VDBC" "$SHARD0_ADDR" shutdown | expect_contains "shutting down" "shard0-shutdown"
"$VDBC" "$SHARD1_ADDR" shutdown | expect_contains "shutting down" "shard1-shutdown"
echo "router_smoke: OK"
