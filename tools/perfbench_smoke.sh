#!/bin/sh
# Repository-benchmark smoke: runs every workload BENCHMARK.json declares
# for a 2 s window (seed 1, untraced) and fails unless each result line
# reports "correct": true and "failed": 0. The workloads' correctness gates
# (daemon bytes vs the interpreter, crawl NDJSON vs the one-worker oracle,
# learned winners stable across passes and across runs of a seed) thereby
# run on every change.
# perfbench/run.py builds its own Release-like tree under .bench_build/.
# learn_dealers compares its winners+F1 digest with the one the first run
# of the seed in this checkout left in
# .bench_build/perfbench-state/learn_dealers_seed1.ref; after a change
# that alters the winning wrappers on purpose, delete that file.
# Usage: sh tools/perfbench_smoke.sh
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
LEARN_REF="$ROOT/.bench_build/perfbench-state/learn_dealers_seed1.ref"
FAILED=0

WORKLOADS="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$ROOT/BENCHMARK.json")" || exit 1

for workload in $WORKLOADS; do
  result="$(cd "$ROOT" && python3 perfbench/run.py --workload "$workload" \
      --seed 1 --seconds 2 --trace 0 | tail -n 1)"
  if printf '%s\n' "$result" | python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)'; then
    echo "perfbench_smoke: $workload OK"
  else
    echo "perfbench_smoke: $workload FAILED: $result" >&2
    if [ "$workload" = learn_dealers ] && [ -f "$LEARN_REF" ]; then
      echo "perfbench_smoke: learn_dealers checks its winners+F1 against" \
           "$LEARN_REF, written by an earlier run in this checkout; if" \
           "the change alters the winning wrappers on purpose, delete" \
           "that file and rerun" >&2
    fi
    FAILED=1
  fi
done
exit "$FAILED"
