#!/usr/bin/env bash
# End-to-end smoke test for the serving layer: start vdbd on an ephemeral
# port, run a scripted client session through vdbc, shut the server down
# over the wire, and check that both sides exit clean. The daemon runs
# journal-backed (then restarts on the journal) and in memory. CI runs
# this after the test suite; it is also handy locally:
#
#   cargo build --bins && scripts/server_smoke.sh [target/debug]
set -euo pipefail

BIN_DIR="${1:-target/debug}"
VDBD="$BIN_DIR/vdbd"
VDBC="$BIN_DIR/vdbc"
[ -x "$VDBD" ] && [ -x "$VDBC" ] || {
    echo "server_smoke: $VDBD / $VDBC not built (run: cargo build --bins)" >&2
    exit 1
}

WORKDIR="$(mktemp -d)"
DAEMON_OUT="$WORKDIR/vdbd.out"
DAEMON_PID=""
# The daemon must die no matter how this script exits (failure, ctrl-C,
# CI cancellation): terminate it, wait briefly, then escalate to KILL.
# The original exit status is preserved so failures still fail the job.
cleanup() {
    status=$?
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        for _ in $(seq 1 20); do
            kill -0 "$DAEMON_PID" 2>/dev/null || break
            sleep 0.1
        done
        if kill -0 "$DAEMON_PID" 2>/dev/null; then
            echo "server_smoke: vdbd ignored SIGTERM; sending SIGKILL" >&2
            kill -9 "$DAEMON_PID" 2>/dev/null || true
        fi
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
    exit "$status"
}
trap cleanup EXIT INT TERM

# Start vdbd with the given extra flags; sets DAEMON_PID and ADDR.
start_daemon() {
    # Empty the address file first: the background job's own truncation
    # can land after the poll below has read the previous daemon's line.
    : >"$DAEMON_OUT"
    "$VDBD" --addr 127.0.0.1:0 --metrics-interval 0 "$@" \
        >"$DAEMON_OUT" 2>"$WORKDIR/vdbd.err" &
    DAEMON_PID=$!
    # vdbd prints "vdbd listening on <addr>" once the socket is bound.
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^vdbd listening on //p' "$DAEMON_OUT")"
        [ -n "$ADDR" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "server_smoke: vdbd died before binding:" >&2
            cat "$WORKDIR/vdbd.err" >&2
            exit 1
        }
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "server_smoke: vdbd never reported its address" >&2; exit 1; }
    echo "server_smoke: vdbd up on $ADDR"
}

# After a wire shutdown the daemon must drain and exit 0 on its own.
await_clean_exit() {
    for _ in $(seq 1 100); do
        kill -0 "$DAEMON_PID" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "server_smoke: vdbd still running after shutdown command" >&2
        exit 1
    fi
    wait "$DAEMON_PID" || {
        echo "server_smoke: vdbd exited non-zero:" >&2
        cat "$WORKDIR/vdbd.err" >&2
        exit 1
    }
    DAEMON_PID=""
    grep -q "clean shutdown" "$WORKDIR/vdbd.err" || {
        echo "server_smoke: vdbd did not report a clean shutdown:" >&2
        cat "$WORKDIR/vdbd.err" >&2
        exit 1
    }
}

JOURNAL="$WORKDIR/db.vdbj"
start_daemon --demo 2 --journal "$JOURNAL"

expect_contains() { # <needle> <haystack-label> <<< haystack
    local needle="$1" label="$2" out
    out="$(cat)"
    case "$out" in
    *"$needle"*) ;;
    *)
        echo "server_smoke: $label output missing '$needle':" >&2
        echo "$out" >&2
        exit 1
        ;;
    esac
}

# expect_capped_rows <label> <<< reply: an unlimited query counts every
# kept match but shows exactly 10 rows.
expect_capped_rows() {
    local label="$1" out count rows
    out="$(cat)"
    count="$(printf '%s\n' "$out" | sed -n 's/^  \([0-9][0-9]*\) answers$/\1/p')"
    rows="$(printf '%s\n' "$out" | grep -c '^  video ')" || true
    if [ -z "$count" ] || [ "$count" -le 10 ] || [ "$rows" != 10 ]; then
        echo "server_smoke: $label wants a count above 10 and 10 rows, got '$count' and $rows:" >&2
        echo "$out" >&2
        exit 1
    fi
}

# expect_explain_counts_all <label> <<< reply: an unfiltered explain keeps
# every match, so its answer count equals the summary's matches=, while
# exactly 10 rows are shown.
expect_explain_counts_all() {
    local label="$1" out count matches rows
    out="$(cat)"
    count="$(printf '%s\n' "$out" | sed -n 's/^  \([0-9][0-9]*\) answers$/\1/p')"
    matches="$(printf '%s\n' "$out" | sed -n 's/.* matches=\([0-9][0-9]*\).*/\1/p')"
    rows="$(printf '%s\n' "$out" | grep -c '^  video ')" || true
    if [ -z "$count" ] || [ "$count" != "$matches" ] || [ "$rows" != 10 ]; then
        echo "server_smoke: $label wants answers = matches= and 10 rows, got '$count', '$matches' and $rows:" >&2
        echo "$out" >&2
        exit 1
    fi
}

"$VDBC" "$ADDR" ping | expect_contains "pong" "ping"
"$VDBC" "$ADDR" stats | expect_contains "videos 2" "stats"
"$VDBC" "$ADDR" query "ba=0.4 oa=14 alpha=4 beta=4 limit=5" | expect_contains "answers" "query"
"$VDBC" "$ADDR" board 0 4 | expect_contains "rep frame" "board"
# An unlimited wide query counts every match but shows only 10 rows.
"$VDBC" "$ADDR" query "ba=0 oa=0 alpha=1000 beta=1000" | expect_capped_rows "wide query"
# A huge k answers like k = every row, and the connection stays usable.
huge_k="$("$VDBC" "$ADDR" <<'EOF'
query ba=1 oa=1 k=1000000000000
ping
EOF
)"
expect_contains " answers" "huge-k query" <<<"$huge_k"
expect_contains "pong" "ping after huge-k query" <<<"$huge_k"
# The demo ingest went through the instrumented pipeline, so the metrics
# command must report the whole-stack core section.
"$VDBC" "$ADDR" metrics | expect_contains "core.pipeline.frames" "metrics"
# explain reports the probe's exact work next to the answers.
"$VDBC" "$ADDR" explain "ba=0.4 oa=14 alpha=4 beta=4" | expect_contains "window=[" "explain"
"$VDBC" "$ADDR" explain "ba=0.4 oa=14 alpha=4 beta=4" | expect_contains "visited=" "explain"
# A wide unfiltered explain counts every match the probe returned but
# shows only 10 rows.
"$VDBC" "$ADDR" explain "ba=0 oa=0 alpha=1000 beta=1000" | expect_explain_counts_all "wide explain"
# trace appends the request's span tree to the wrapped command's output.
"$VDBC" "$ADDR" trace query "ba=0.4 oa=14 alpha=4 beta=4" | expect_contains "store.query" "trace"
"$VDBC" "$ADDR" trace query "ba=0.4 oa=14 alpha=4 beta=4" | expect_contains "core.index.probe" "trace"
"$VDBC" "$ADDR" trace explain "ba=0.4 oa=14 alpha=4 beta=4" | expect_contains "store.query" "trace explain"
"$VDBC" "$ADDR" trace explain "ba=0.4 oa=14 alpha=4 beta=4" | expect_contains "core.index.probe" "trace explain"
# debug dump drains the flight recorder as chrome://tracing JSON; the
# traced query above must show up as a server.request span tree.
"$VDBC" "$ADDR" debug dump | expect_contains '{"traceEvents":[' "debug dump"
"$VDBC" "$ADDR" debug dump | expect_contains "server.request" "debug dump"
# --timing prints client-side wall time per request on stderr.
"$VDBC" --timing "$ADDR" ping 2>&1 | expect_contains "time: " "timing"

# Streaming ingest round trip: synthesize a clip locally, stream it in
# frame-by-frame over the binary protocol, and query it back. On a
# journal-backed daemon the ack must report durable=true.
CLIP="$WORKDIR/clip.y4m"
"$VDBC" --synth-y4m "$CLIP" 3 9 | expect_contains "wrote $CLIP" "synth-y4m"
"$VDBC" "$ADDR" stream "$CLIP" as "smoke stream" | expect_contains "durable=true" "stream"
"$VDBC" "$ADDR" list | expect_contains "smoke stream" "list-after-stream"
"$VDBC" "$ADDR" stats | expect_contains "videos 3" "stats-after-stream"
# The session must be drained (0 open) and accounted for in the stats.
"$VDBC" "$ADDR" stats | expect_contains "server.stream.open 0" "stream-stats"
"$VDBC" "$ADDR" stats | expect_contains "server.stream.committed 1" "stream-stats"
# The server table (one registry snapshot) shows the session's commit
# row, its streams line and the totals line.
"$VDBC" "$ADDR" metrics | expect_contains "  stream.commit " "stream-metrics"
"$VDBC" "$ADDR" metrics | expect_contains "  streams: 1 opened (1 committed" "stream-metrics"
"$VDBC" "$ADDR" metrics | expect_contains "  total: " "stream-metrics"

# Shard transfer round trip (the router's rebalance path): export video 0
# and import it back. The copy is durable, listed as one more video, and
# browses exactly like the original; the same record with its last byte
# cut off is refused, and the connection keeps answering.
HEX="$("$VDBC" "$ADDR" export 0)"
imported="$("$VDBC" "$ADDR" import "$HEX")"
expect_contains "video=3 " "import" <<<"$imported"
expect_contains "durable=true" "import" <<<"$imported"
"$VDBC" "$ADDR" stats | expect_contains "videos 4" "stats-after-import"
TREE0="$("$VDBC" "$ADDR" tree 0)"
expect_same_tree() { # <label>: tree 3 (the imported copy) prints tree 0's rows
    [ "$("$VDBC" "$ADDR" tree 3)" = "$TREE0" ] || {
        echo "server_smoke: $1: tree 3 differs from tree 0:" >&2
        "$VDBC" "$ADDR" tree 3 >&2
        exit 1
    }
}
expect_same_tree "import"
torn_import="$("$VDBC" "$ADDR" <<EOF || true
import ${HEX%??}
ping
EOF
)"
expect_contains "error: " "torn import" <<<"$torn_import"
expect_contains "pong" "ping after torn import" <<<"$torn_import"
"$VDBC" "$ADDR" stats | expect_contains "videos 4" "stats-after-torn-import"

# A scripted multi-command session over one connection, ending in a wire
# shutdown. vdbc exits 0 only if every response had an ok status.
"$VDBC" "$ADDR" <<'EOF' | expect_contains "shutting down" "session"
list
tree 1
metrics
shutdown
EOF
await_clean_exit

# Restart on the same journal: the streamed and the imported videos must
# have survived.
start_daemon --journal "$JOURNAL"
"$VDBC" "$ADDR" stats | expect_contains "videos 4" "stats-after-restart"
"$VDBC" "$ADDR" list | expect_contains "smoke stream" "list-after-restart"
expect_same_tree "restart"
"$VDBC" "$ADDR" shutdown | expect_contains "shutting down" "shutdown-after-restart"
await_clean_exit

# In-memory leg: no --journal, so vdbd serves a plain VideoDatabase.
start_daemon --demo 2
listed="$("$VDBC" "$ADDR" list | grep -c 'demo-movie-')" || true
[ "$listed" = 2 ] || {
    echo "server_smoke: in-memory list shows $listed videos, expected 2" >&2
    exit 1
}
"$VDBC" "$ADDR" query "ba=0.4 oa=14 alpha=4 beta=4 limit=5" | expect_contains "answers" "memory-query"
"$VDBC" "$ADDR" shutdown | expect_contains "shutting down" "memory-shutdown"
await_clean_exit
echo "server_smoke: OK"
