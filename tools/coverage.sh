#!/usr/bin/env bash
# coverage.sh: the front-door coverage gate. The avglocal library should
# hold only code that a front door reaches: sweep, merge/drive,
# serve/request, the fabric and experiments. This script checks that.
#
#   tools/coverage.sh
#
# It builds avglocal_cli alone, with gcov instrumentation at -O0, in
# .coverage_build/build. At -O0 no inlining can hide a call, and the
# separate directory keeps ctest's .gcda files out of the count. It then
# drives every front door on small workloads, reads the counters with
# `gcov --json-format` and lists every src/ function that no leg called.
# It exits 1 if any of them is missing from tools/coverage_allow.txt
# (one `function | reason` per line), or if the allow-list names a
# function that no longer exists.
#
# Needs cmake, g++, gcov and python3, and nothing else. Most of its run
# time (minutes) is `experiments` at -O0.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=$ROOT/.coverage_build/build
WORK=$ROOT/.coverage_build/work
ALLOW=$ROOT/tools/coverage_allow.txt
CLI=$BUILD/avglocal_cli

echo "coverage: building avglocal_cli (Debug, --coverage -O0) in $BUILD"
cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  "-DCMAKE_CXX_FLAGS=--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage > /dev/null
cmake --build "$BUILD" -j "$(nproc)" --target avglocal_cli > /dev/null
find "$BUILD" -name '*.gcda' -delete
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"
# A failed leg must not leave a daemon or coordinator running.
trap 'kill $(jobs -p) 2> /dev/null || true' EXIT

# leg CMD...: one front-door command whose rejection (exit 1 or 2) is an
# answer the gate counts. A crash - a signal, or a Debug assert's abort -
# fails the gate.
leg() {
  local status=0
  "$@" > leg.log 2>&1 || status=$?
  if [ "$status" -gt 2 ]; then
    echo "coverage: leg crashed with exit $status: $*" >&2
    cat leg.log >&2
    exit 1
  fi
}

# must CMD...: one front-door command that has to succeed.
must() {
  if ! "$@" > leg.log 2>&1; then
    echo "coverage: leg failed: $*" >&2
    cat leg.log >&2
    exit 1
  fi
}

echo "coverage: list, single runs and the algorithm x family sweeps"
"$CLI" list > list.txt
families=$(awk '/^graph families/ {on = 1; next} /^$/ {on = 0} on && /^  [a-z]/ {print $1}' list.txt)
algorithms=$(awk '/algorithms \(--algo/ {on = 1; next} /^$/ {on = 0} on && /^  [a-z]/ {print $1}' list.txt)
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

echo "coverage: pooled, adaptive, sharded and driven sweeps"
must "$CLI" sweep --algo greedy --graph torus --ns 36,64 --trials 6 --seed 3 \
  --threads 3 --batch 2 --node-profile --json pooled.json
must "$CLI" sweep --algo greedy-msg --graph gnp --ns 64 --trials 6 --seed 3 --threads 3 \
  --node-profile
must "$CLI" sweep --algo cv3 --graph cycle --ns 64 --trials 64 --seed 3 \
  --target-hw 0.5 --min-trials 4
must "$CLI" sweep --algo largest-id --graph cycle --ns 32 --trials 16 --seed 3 \
  --target-hw 1e-9 --min-trials 4 --adaptive-batch 4
must "$CLI" sweep --algo local3 --graph cycle --ns 64 --trials 32 --seed 3 \
  --target-hw 0.5 --min-trials 4 --threads 2
for algo in largest-id largest-id-msg; do
  workload=(--algo "$algo" --graph cycle --ns 36,64 --trials 8 --seed 5)
  must "$CLI" sweep "${workload[@]}" --json "mono-$algo.json"
  must "$CLI" sweep "${workload[@]}" --shard 0/2 --out "s0-$algo.json"
  must "$CLI" sweep "${workload[@]}" --shard 1/2 --out "s1-$algo.json"
  must "$CLI" merge --json "merged-$algo.json" "s0-$algo.json" "s1-$algo.json"
  must "$CLI" drive "${workload[@]}" --shards 2 --jobs 2 --workdir "drive-$algo" \
    --json "drive-$algo.json"
  must cmp "mono-$algo.json" "merged-$algo.json"
  must cmp "mono-$algo.json" "drive-$algo.json"
done

echo "coverage: rejected workloads and artefacts"
leg "$CLI" sweep --graph no-such-family --ns 8
head -c 40 s0-largest-id.json > truncated.json
leg "$CLI" merge truncated.json
echo '[]' > not-an-object.json
leg "$CLI" merge not-an-object.json
leg "$CLI" request --socket nothing-here.sock --connect-timeout-ms 0 --op ping

echo "coverage: serve and request over a Unix socket"
"$CLI" serve --socket serve.sock --threads 2 > serve.log 2>&1 &
serve_pid=$!
request=("$CLI" request --socket serve.sock)
workload=(--algo largest-id --graph cycle --ns 36,64 --seed 5)
must "${request[@]}" --op ping
must "${request[@]}" "${workload[@]}" --trials 4 --json cold.json
must "${request[@]}" "${workload[@]}" --trials 4 --json warm.json
must "${request[@]}" "${workload[@]}" --trials 8 --json extended.json
must "${request[@]}" --algo local3 --graph cycle --ns 64 --trials 4 --seed 5
must "${request[@]}" --algo local3 --graph cycle --ns 64 --trials 8 --seed 5
leg "${request[@]}" --algo local3 --graph path --ns 64 --trials 4 --seed 5
leg "${request[@]}" "${workload[@]}" --trials 4 --target-hw 0.5
must "${request[@]}" --op stats
must cmp mono-largest-id.json extended.json
leg "$CLI" serve --socket serve.sock
kill -TERM "$serve_pid"
wait "$serve_pid"
# A daemon killed outright leaves its socket file behind; the next daemon
# on that path finds nothing accepting there and replaces it.
"$CLI" serve --socket stale.sock > stale.log 2>&1 &
serve_pid=$!
must "$CLI" request --socket stale.sock --op ping
{ kill -KILL "$serve_pid"; wait "$serve_pid" || true; } 2> /dev/null
"$CLI" serve --socket stale.sock > stale.log 2>&1 &
serve_pid=$!
must "$CLI" request --socket stale.sock --op shutdown
wait "$serve_pid"

echo "coverage: serve and request over an ephemeral TCP port"
"$CLI" serve --socket tcp:127.0.0.1:0 > serve-tcp.log 2>&1 &
serve_pid=$!
for _ in $(seq 200); do
  grep -q '^serving on ' serve-tcp.log && break
  sleep 0.05
done
endpoint=$(sed -n 's/^serving on //p' serve-tcp.log)
must "$CLI" request --socket "$endpoint" --op ping
must "$CLI" request --socket "$endpoint" "${workload[@]}" --trials 8 --json served-tcp.json
must cmp mono-largest-id.json served-tcp.json
must "$CLI" request --socket "$endpoint" --op shutdown
wait "$serve_pid"
# The endpoint is TCP, not a Unix socket file named after its spelling.
must test ! -e tcp:127.0.0.1:0

echo "coverage: the fabric, two local workers over TCP and over a Unix socket"
must "$ROOT/tools/fabric_launch.sh" --cli "$CLI" --listen tcp:127.0.0.1:0 \
  --workers "local local" --json fabric-tcp.json -- \
  --algo largest-id --graph cycle --ns 36,64 --trials 8 --seed 5
must cmp mono-largest-id.json fabric-tcp.json
must "$ROOT/tools/fabric_launch.sh" --cli "$CLI" --listen "unix:$WORK/fabric.sock" \
  --workers "local local" --json fabric-unix.json -- \
  --algo largest-id-msg --graph cycle --ns 36,64 --trials 8 --seed 5
must cmp mono-largest-id-msg.json fabric-unix.json
# A coordinator refuses a daemon request, and SIGTERM drains it while it
# has no workers: exit 1, no report.
"$CLI" fabric-serve --listen "unix:$WORK/stop.sock" --endpoint-file stop.endpoint \
  --algo largest-id --graph cycle --ns 36 --trials 4 > stop.log 2>&1 &
serve_pid=$!
for _ in $(seq 200); do
  [ -s stop.endpoint ] && break
  sleep 0.05
done
leg "$CLI" request --socket "$(cat stop.endpoint)" --op ping
kill -TERM "$serve_pid"
leg wait "$serve_pid"

echo "coverage: experiments E1-E14"
must "$CLI" experiments

echo "coverage: reading the counters"
python3 - "$BUILD" "$ROOT/src/" "$ALLOW" <<'EOF'
import glob
import json
import os
import subprocess
import sys

build, src, allow_path = sys.argv[1:4]

# Sum each function's calls over every object that emits it: an inline or
# template function in a header appears once per translation unit, and a
# constructor or destructor once per ABI variant (complete, base,
# deleting), all under one demangled name.
calls = {}
for gcno in sorted(glob.glob(os.path.join(build, "CMakeFiles", "**", "*.gcno"), recursive=True)):
    out = subprocess.run(["gcov", "--json-format", "--stdout", "--demangled-names",
                          "--object-directory", os.path.dirname(gcno), gcno],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        for record in json.loads(line)["files"]:
            path = os.path.realpath(record["file"])
            if not path.startswith(src):
                continue
            for fn in record["functions"]:
                where = "%s:%d" % (os.path.relpath(path, src), fn["start_line"])
                key = (where, fn["demangled_name"])
                calls[key] = calls.get(key, 0) + fn["execution_count"]

# An allow-list entry names a function by its qualified name without
# parameters, which also covers its overloads and the lambdas inside it,
# or by its full demangled signature, which picks one overload.
allow = []
errors = 0
with open(allow_path) as f:
    for number, raw in enumerate(f, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = (part.strip() for part in line.partition("|"))
        if not name or not reason:
            print("%s:%d: an entry is `function | reason`" % (allow_path, number))
            errors += 1
            continue
        allow.append(name)

def allowed_by(demangled):
    return [name for name in allow if demangled == name or name + "(" in demangled]

used = set()
uncalled = []
for (where, demangled), count in calls.items():
    names = allowed_by(demangled)
    used.update(names)
    if count == 0 and not names:
        uncalled.append((where, demangled))

for name in allow:
    if name not in used:
        print("%s: `%s` names no src/ function" % (allow_path, name))
        errors += 1
for where, demangled in sorted(uncalled):
    print("uncalled: src/%s %s" % (where, demangled))

called = sum(1 for count in calls.values() if count > 0)
print("coverage: %d src/ functions, %d called by a front door, %d allow-listed entries, "
      "%d uncalled and not allowed" % (len(calls), called, len(allow), len(uncalled)))
sys.exit(1 if uncalled or errors else 0)
EOF
