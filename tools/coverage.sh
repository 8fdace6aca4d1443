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
# drives every front door through tools/front_doors.sh, reads the
# counters with `gcov --json-format` and lists every src/ function that
# no leg called. It exits 1 if a front-door check fails, if an uncalled
# function is missing from tools/coverage_allow.txt (one
# `function | reason` per line), or if the allow-list names a function
# that no longer exists.
#
# Needs cmake, g++, gcov and python3, and what front_doors.sh needs.
# It takes about 15 minutes on 4 cores from an empty .coverage_build/,
# most of it the batched and lockstep sweeps and `experiments` at -O0.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=$ROOT/.coverage_build/build
ALLOW=$ROOT/tools/coverage_allow.txt
CLI=$BUILD/avglocal_cli

echo "coverage: building avglocal_cli (Debug, --coverage -O0) in $BUILD"
cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  "-DCMAKE_CXX_FLAGS=--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage > /dev/null
cmake --build "$BUILD" -j "$(nproc)" --target avglocal_cli > /dev/null
find "$BUILD" -name '*.gcda' -delete
"$ROOT/tools/front_doors.sh" "$CLI"
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
