#!/bin/sh
# Observability overhead gate (DESIGN.md §9): instrumentation must stay
# within budget on the Table 2 synthesis workload. Runs the synth_perf
# bench (one fast-path pass) once with tracing off and once with tracing
# on, and fails if the traced pass allocates more than TOL percent more
# minor-heap words than the untraced one. Allocation is deterministic
# for a given build, so one run of each mode decides; wall time, which
# swings by tens of percent between runs on a shared host, is printed as
# a report only. Enabled tracing bounds disabled tracing from above: the
# untraced run already carries every Obs call as a no-op.
set -eu

cd "$(dirname "$0")/.."

TOL="${TOL:-2.0}"
BENCH="_build/default/bench/main.exe"

if [ ! -x "$BENCH" ]; then
  echo "bench/main.exe not built — run: dune build bench/main.exe" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$BENCH" --only synth_perf --json "$tmp/plain.json" > /dev/null
"$BENCH" --only synth_perf --json "$tmp/traced.json" \
  --trace "$tmp/trace.json" > /dev/null

python3 - "$tmp" "$TOL" << 'PY'
import json, sys

tmp, tol = sys.argv[1], float(sys.argv[2])
plain = json.load(open(tmp + "/plain.json"))["synth"]
traced = json.load(open(tmp + "/traced.json"))["synth"]

def pct(a, b):
    return 100.0 * (b / a - 1.0)

words = pct(plain["minor_words"], traced["minor_words"])
wall = pct(plain["total_s"], traced["total_s"])
print("fast-path minor words: untraced %.0f, traced %.0f, overhead %+.3f%% "
      "(budget %.1f%%)" % (plain["minor_words"], traced["minor_words"],
                           words, tol))
print("fast-path wall time (report only): untraced %.3fs, traced %.3fs, "
      "%+.2f%%" % (plain["total_s"], traced["total_s"], wall))
sys.exit(0 if words < tol else 1)
PY
