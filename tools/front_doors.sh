#!/usr/bin/env bash
# front_doors.sh: every front-door check of avglocal_cli, through real
# processes. Every sharded, merged, driven, served and fabric report must
# equal the monolithic sweep's byte for byte, bad input must be rejected
# with a clean exit, no command may crash, and the paper's tables must
# pass their self-checks.
#
#   tools/front_doors.sh build/avglocal_cli
#
# It works in a fresh `mktemp -d` directory, which keeps Unix-socket paths
# short. On success it removes that directory. On the first failed check
# it keeps the directory, prints its path and exits 1, naming the check.
# CI runs it on a Release build; tools/coverage.sh runs it on an
# instrumented build and lists the src/ functions that no leg called.
# Needs bash, coreutils, grep, sed, awk and cmp.
set -Eeuo pipefail

if [ $# -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: front_doors.sh CLI  (the path of an avglocal_cli binary)" >&2
  exit 2
fi
CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d -t front-doors.XXXXXX)
cd "$WORK"

# A failed check must not leave a daemon, coordinator or worker running.
finish() {
  local status=$?
  kill $(jobs -p) 2> /dev/null || true
  if [ "$status" -eq 0 ]; then
    rm -rf "$WORK"
  else
    echo "front_doors: work dir kept at $WORK" >&2
  fi
}
trap finish EXIT
fail() {
  echo "front_doors: FAILED: $*" >&2
  exit 1
}
trap 'fail "line $LINENO: $BASH_COMMAND"' ERR

# exits STATUS CMD...: CMD exits with exactly STATUS. A bare `! CMD` would
# also pass on a crash (134 abort, 139 segfault). Its output is check.log.
exits() {
  local want=$1 status=0
  shift
  "$@" > check.log 2>&1 || status=$?
  [ "$status" -eq "$want" ] || { cat check.log >&2; fail "$* (exit $status, wanted $want)"; }
}
must() { exits 0 "$@"; }
# leg CMD...: a front-door command whose rejection (exit 1 or 2) is an
# answer. A crash - a signal, or a Debug assert's abort - fails.
leg() {
  local status=0
  "$@" > check.log 2>&1 || status=$?
  [ "$status" -le 2 ] || { cat check.log >&2; fail "$* (crashed with exit $status)"; }
}
has() { grep -qF -- "$2" "$1" || { cat "$1" >&2; fail "no '$2' in $1"; }; }
lacks() { ! grep -qF -- "$2" "$1" || { cat "$1" >&2; fail "'$2' in $1"; }; }
absent() { [ ! -e "$1" ] || fail "$1 exists"; }
# await FILE PATTERN: a background process writes PATTERN to FILE within 10 s.
await() {
  for _ in $(seq 200); do
    grep -q -- "$2" "$1" 2> /dev/null && return
    sleep 0.05
  done
  fail "no '$2' in $1 after 10 s"
}
step() { echo "front_doors: [${SECONDS} s] $*"; }

# sharded NAME WORKLOAD...: two shards merged and a two-shard drive each
# write the monolithic sweep's report, mono-NAME.json.
sharded() {
  local name=$1
  shift
  must "$CLI" sweep "$@" --json "mono-$name.json"
  must "$CLI" sweep "$@" --shard 0/2 --out "s0-$name.json"
  must "$CLI" sweep "$@" --shard 1/2 --out "s1-$name.json"
  must "$CLI" merge --json "merged-$name.json" "s0-$name.json" "s1-$name.json"
  must cmp "mono-$name.json" "merged-$name.json"
  must "$CLI" drive "$@" --shards 2 --jobs 2 --json "driven-$name.json"
  must cmp "mono-$name.json" "driven-$name.json"
}

step "list, single runs and the algorithm x family sweeps"
must "$CLI" list
families=$(awk '/^graph families/ {on = 1; next} /^$/ {on = 0} on && /^  [a-z]/ {print $1}' check.log)
algorithms=$(awk '/algorithms \(--algo/ {on = 1; next} /^$/ {on = 0} on && /^  [a-z]/ {print $1}' check.log)
for algo in $algorithms; do
  leg "$CLI" --algo "$algo" --graph cycle --n 64 --seed 7 --csv "radii-$algo.csv"
  for family in $families; do
    for n in 2 17 64; do
      for semantics in induced flooding; do
        leg "$CLI" sweep --algo "$algo" --graph "$family" --ns "$n" --trials 3 --seed 1 \
          --semantics "$semantics"
      done
    done
  done
done

step "rejected workloads and artefacts"
# Workload validation happens before any artefact exists.
exits 1 "$CLI" sweep --algo largest-id --graph nosuch --ns 64 --trials 4 --shard 0/2 \
  --out never.json
has check.log 'unknown graph family'
absent never.json
leg "$CLI" sweep --graph no-such-family --ns 8
leg "$CLI" request --socket nothing-here.sock --connect-timeout-ms 0 --op ping

step "sharded, merged and driven sweeps"
# merge resolves the artefacts' scenario header, and cv3/mis take their
# schedule from n, so every algorithm kind goes through the loop.
torus=(--algo largest-id --graph torus --ns 250,1000)
sharded torus "${torus[@]}" --trials 8 --seed 5
must "$CLI" sweep "${torus[@]}" --trials 8 --seed 5 --threads 2 --json pooled-torus.json
must cmp mono-torus.json pooled-torus.json
for algo in largest-id largest-id-msg; do
  sharded "$algo-36-64" --algo "$algo" --graph cycle --ns 36,64 --trials 8 --seed 5
done
for algo in largest-id-msg local3 cv3-msg greedy-msg largest-id-ua cv3 mis greedy; do
  graph=cycle
  case "$algo" in greedy*) graph=gnp:avg-degree=4 ;; esac
  sharded "$algo-64" --algo "$algo" --graph "$graph" --ns 64 --trials 6 --seed 5
done
must "$CLI" sweep --algo largest-id --graph cycle --ns 64 --trials 6 --seed 5 --shard 0/2 \
  --out view0.json
exits 1 "$CLI" merge --json cross-merged.json view0.json s1-largest-id-msg-64.json
has check.log 'different engines'
absent cross-merged.json
head -c 40 s0-largest-id-36-64.json > truncated.json
leg "$CLI" merge truncated.json
echo '[]' > not-an-object.json
leg "$CLI" merge not-an-object.json

step "serial, pooled and batched sweeps"
must "$CLI" sweep --algo greedy --graph torus --ns 36,64 --trials 6 --seed 3 \
  --threads 3 --batch 2 --node-profile --json pooled.json
must "$CLI" sweep --algo greedy-msg --graph gnp --ns 64 --trials 6 --seed 3 --threads 3 \
  --node-profile
flags=(--algo largest-id-msg --graph cycle --ns 256 --trials 12 --seed 9)
must "$CLI" sweep "${flags[@]}" --threads 1 --json msg-serial.json
must "$CLI" sweep "${flags[@]}" --threads 4 --json msg-parallel.json
must cmp msg-serial.json msg-parallel.json
# largest-id-msg floods Θ(n²) token-hops per trial; at n = 1024 the run
# takes well under a second serially (Release).
flags=(--algo largest-id-msg --graph cycle --ns 1024 --trials 8 --seed 9)
must "$CLI" sweep "${flags[@]}" --threads 1 --json msg1024-t1.json
must "$CLI" sweep "${flags[@]}" --threads 4 --json msg1024-t4.json
must cmp msg1024-t1.json msg1024-t4.json
# --batch 3 of 8 trials: a lane refills its id batch in place and shrinks
# it for the short last batch (3, 3, 2 serially; 3, 1 per lane on 2
# threads). greedy-msg on a 4-regular graph covers broadcasts to four
# ports, whose words every port's slot shares.
for pair in local3:cycle greedy-msg:cycle greedy-msg:random-regular:degree=4 cv3-msg:cycle; do
  algo=${pair%%:*}
  graph=${pair#*:}
  out="$algo-${graph%%:*}"
  flags=(--algo "$algo" --graph "$graph" --ns 4096 --trials 8 --seed 9)
  must "$CLI" sweep "${flags[@]}" --threads 1 --json "$out-t1.json"
  must "$CLI" sweep "${flags[@]}" --threads 1 --batch 3 --json "$out-b3-t1.json"
  must "$CLI" sweep "${flags[@]}" --threads 2 --batch 3 --json "$out-b3-t2.json"
  must cmp "$out-t1.json" "$out-b3-t1.json"
  must cmp "$out-t1.json" "$out-b3-t2.json"
done
# greedy and cv3 read full views, so they run the view engine's lockstep
# mode with 96 trials in flight per vertex; largest-id and largest-id-ua
# take the ids-only sequential mode, on the ring and on gnp (closed balls
# off the ring). --node-profile puts every node_sum in the cmp.
for semantics in induced flooding; do
  for pair in greedy:torus cv3:cycle mis:cycle largest-id:cycle largest-id-ua:cycle \
    largest-id:gnp largest-id-ua:gnp; do
    algo=${pair%%:*}
    graph=${pair#*:}
    n=4096
    if [ "$algo" = greedy ]; then n=1024; fi
    flags=(--algo "$algo" --graph "$graph" --ns "$n" --trials 96 --seed 5
      --semantics "$semantics" --node-profile)
    out="lockstep-$algo-$graph-$semantics"
    must "$CLI" sweep "${flags[@]}" --threads 1 --json "$out-t1.json"
    must "$CLI" sweep "${flags[@]}" --threads 4 --json "$out-t4.json"
    must "$CLI" sweep "${flags[@]}" --batch 7 --json "$out-b7.json"
    must cmp "$out-t1.json" "$out-t4.json"
    must cmp "$out-t1.json" "$out-b7.json"
  done
done

step "adaptive sweeps"
must "$CLI" sweep --algo cv3 --graph cycle --ns 64 --trials 64 --seed 3 \
  --target-hw 0.5 --min-trials 4
must "$CLI" sweep --algo cv3 --graph cycle --ns 256 --trials 64 \
  --target-hw 0.5 --min-trials 4 --adaptive-batch 8
must "$CLI" sweep --algo largest-id --graph cycle --ns 32 --trials 16 --seed 3 \
  --target-hw 1e-9 --min-trials 4 --adaptive-batch 4
# Adaptive message runs go through the persistent per-point engine: every
# round after the first rebinds the engines built in round one.
must "$CLI" sweep --algo largest-id-msg --graph cycle --ns 128 --trials 32 \
  --target-hw 0.5 --min-trials 4 --adaptive-batch 8
must "$CLI" sweep --algo local3 --graph cycle --ns 64 --trials 32 --seed 3 \
  --target-hw 0.5 --min-trials 4 --threads 2
must "$CLI" sweep --algo local3 --graph cycle --ns 128 --trials 48 \
  --target-hw 0.2 --min-trials 8 --adaptive-batch 8 --threads 2

step "serve and request over a Unix socket"
# What every served report must match.
must "$CLI" sweep "${torus[@]}" --trials 20 --seed 5 --json mono-torus-20.json
must "$CLI" sweep "${torus[@]}" --trials 8 --seed 7 --json mono-torus-seed7.json
msg=(--algo local3 --graph cycle --ns 256,1024)
must "$CLI" sweep "${msg[@]}" --trials 8 --seed 5 --json mono-msg-8.json
must "$CLI" sweep "${msg[@]}" --trials 20 --seed 5 --json mono-msg-20.json
must "$CLI" sweep "${msg[@]}" --trials 8 --seed 7 --json mono-msg-seed7.json
"$CLI" serve --socket serve.sock --threads 2 > serve.log 2>&1 &
serve_pid=$!
request=("$CLI" request --socket serve.sock)
# No poll loop: `request` retries the connect with bounded backoff while
# the daemon is still binding its socket.
must "${request[@]}" --op ping --connect-timeout-ms 10000
# Two concurrent clients request the same sweep.
"${request[@]}" "${torus[@]}" --trials 8 --seed 5 --json served-a.json > client-a.log 2>&1 &
client_a=$!
must "${request[@]}" "${torus[@]}" --trials 8 --seed 5 --json served-b.json
must wait "$client_a"
must cmp mono-torus.json served-a.json
must cmp mono-torus.json served-b.json
# A repeat is served warm; an extension computes only the missing tail.
must "${request[@]}" "${torus[@]}" --trials 8 --seed 5 --json served-warm.json
has check.log 'warm (served from cache), 0 trial(s) computed'
must cmp mono-torus.json served-warm.json
must "${request[@]}" "${torus[@]}" --trials 20 --seed 5 --json served-ext.json
has check.log '24 trial(s) computed'
must cmp mono-torus-20.json served-ext.json
must "${request[@]}" --op stats
has check.log '"extensions":1'
must "${request[@]}" "${msg[@]}" --trials 8 --seed 5 --json served-msg.json
has check.log 'computed, 16 trial(s) computed'
must cmp mono-msg-8.json served-msg.json
must "${request[@]}" "${msg[@]}" --trials 20 --seed 5 --json served-msg-ext.json
has check.log '24 trial(s) computed'
must cmp mono-msg-20.json served-msg-ext.json
# Different identities compute concurrently on the daemon's one pool.
"${request[@]}" "${torus[@]}" --trials 8 --seed 7 --json served-seed7.json > client-a.log 2>&1 &
client_a=$!
must "${request[@]}" "${msg[@]}" --trials 8 --seed 7 --json served-msg-seed7.json
must wait "$client_a"
must cmp mono-torus-seed7.json served-seed7.json
must cmp mono-msg-seed7.json served-msg-seed7.json
ring=(--algo largest-id --graph cycle --ns 36,64 --seed 5)
must "${request[@]}" "${ring[@]}" --trials 4 --json cold.json
must "${request[@]}" "${ring[@]}" --trials 4 --json warm.json
must "${request[@]}" "${ring[@]}" --trials 8 --json extended.json
must cmp mono-largest-id-36-64.json extended.json
must "${request[@]}" --algo local3 --graph cycle --ns 64 --trials 4 --seed 5
must "${request[@]}" --algo local3 --graph cycle --ns 64 --trials 8 --seed 5
leg "${request[@]}" --algo local3 --graph path --ns 64 --trials 4 --seed 5
leg "${request[@]}" "${ring[@]}" --trials 4 --target-hw 0.5
must "${request[@]}" --op stats
leg "$CLI" serve --socket serve.sock
# SIGTERM shuts the daemon down cleanly: exit 0, socket unlinked.
kill -TERM "$serve_pid"
exits 0 wait "$serve_pid"
has serve.log 'server stopped'
absent serve.sock
# A daemon killed outright leaves its socket file behind; the next daemon
# on that path finds nothing accepting there and replaces it.
"$CLI" serve --socket stale.sock > stale.log 2>&1 &
serve_pid=$!
must "$CLI" request --socket stale.sock --op ping
{ kill -KILL "$serve_pid"; wait "$serve_pid" || true; } 2> /dev/null
"$CLI" serve --socket stale.sock > stale.log 2>&1 &
serve_pid=$!
must "$CLI" request --socket stale.sock --op shutdown
exits 0 wait "$serve_pid"

step "serve and request over an ephemeral TCP port"
"$CLI" serve --socket tcp:127.0.0.1:0 --threads 2 > serve-tcp.log 2>&1 &
serve_pid=$!
await serve-tcp.log '^serving on '
endpoint=$(sed -n 's/^serving on //p' serve-tcp.log)
must "$CLI" request --socket "$endpoint" --op ping
must "$CLI" request --socket "$endpoint" "${torus[@]}" --trials 8 --seed 5 --json served-tcp.json
must cmp mono-torus.json served-tcp.json
must "$CLI" request --socket "$endpoint" "${ring[@]}" --trials 8 --json served-tcp-ring.json
must cmp mono-largest-id-36-64.json served-tcp-ring.json
must "$CLI" request --socket "$endpoint" --op shutdown
exits 0 wait "$serve_pid"
# The endpoint is TCP, not a Unix socket file named after its spelling.
absent tcp:127.0.0.1:0

step "the fabric over TCP and over a Unix socket (one worker dies by SIGKILL on purpose)"
must "$ROOT/tools/fabric_launch.sh" --cli "$CLI" --listen tcp:127.0.0.1:0 \
  --workers "local local" --json fabric-tcp.json -- "${ring[@]}" --trials 8
must cmp mono-largest-id-36-64.json fabric-tcp.json
must "$ROOT/tools/fabric_launch.sh" --cli "$CLI" --listen "unix:$WORK/fabric.sock" \
  --workers "local local" --json fabric-unix.json -- \
  --algo largest-id-msg --graph cycle --ns 36,64 --trials 8 --seed 5
must cmp mono-largest-id-msg-36-64.json fabric-unix.json
big=(--algo largest-id --graph cycle --ns 2048,4096 --trials 120 --seed 5)
must "$CLI" sweep "${big[@]}" --json mono-big.json
must "$ROOT/tools/fabric_launch.sh" --cli "$CLI" --listen tcp:127.0.0.1:0 \
  --workers "local local local" --json fabric-big.json -- "${big[@]}"
must cmp mono-big.json fabric-big.json
# A worker SIGKILLed mid-unit over TCP: the casualty takes its first grant
# and dies between the grant and the artefact, so a unit is in flight on a
# dead connection and must be re-dispatched.
"$CLI" fabric-serve --listen tcp:127.0.0.1:0 --endpoint-file kill.endpoint --unit-trials 4 \
  --json fabric-kill.json "${big[@]}" > fabric-kill.log 2>&1 &
serve_pid=$!
await kill.endpoint .
endpoint=$(cat kill.endpoint)
exits 137 env AVGLOCAL_TEST_FAIL_MARKER="$WORK/marker" AVGLOCAL_TEST_FAIL_MODE=kill \
  "$CLI" fabric-worker --connect "$endpoint" --name casualty --threads 1
[ -e marker.worker-casualty ] || fail "the casualty worker was never granted a unit"
"$CLI" fabric-worker --connect "$endpoint" --name w2 --threads 2 > w2.log 2>&1 &
"$CLI" fabric-worker --connect "$endpoint" --name w3 --threads 2 > w3.log 2>&1 &
exits 0 wait "$serve_pid"
has fabric-kill.log 're-dispatch(es)'
lacks fabric-kill.log ' 0 re-dispatch(es)'
must cmp mono-big.json fabric-kill.json
wait
# A coordinator refuses a daemon request, and SIGTERM drains it while it
# has no workers: exit 1, no report.
"$CLI" fabric-serve --listen "unix:$WORK/stop.sock" --endpoint-file stop.endpoint \
  --algo largest-id --graph cycle --ns 36 --trials 4 > stop.log 2>&1 &
serve_pid=$!
await stop.endpoint .
leg "$CLI" request --socket "$(cat stop.endpoint)" --op ping
kill -TERM "$serve_pid"
leg wait "$serve_pid"

step "experiments E1-E14 and their self-checks"
must "$CLI" experiments
mv check.log experiments.md
[ -s experiments.md ] || fail "experiments printed nothing"
lacks experiments.md ' NO '

step "all checks passed"
