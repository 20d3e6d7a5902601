#!/bin/sh
# Tier-1 verification: build + ctest once normally, then once under
# ThreadSanitizer (NTW_SANITIZE=thread) to vet the parallel enumeration
# engine, then smoke runs of the tools, the bench binaries and the
# repository benchmark (tools/perfbench_smoke.sh; its learn_dealers gate compares
# with .bench_build/perfbench-state/learn_dealers_seed1.ref from an
# earlier run in this checkout — delete that file after a change that
# alters the learned winners on purpose). Every stage must pass; each
# failure is reported and propagated explicitly (set -e alone is too
# easy to defeat — e.g. a future `ctest || true` or an `if`
# context would swallow the TSan suite's exit code).
# Usage: tools/check.sh [extra ctest args, e.g. -R enumerate_test]
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
FAILED=0

echo "==> normal build + ctest"
cmake -B "$ROOT/build" -S "$ROOT" || exit 1
cmake --build "$ROOT/build" -j "$JOBS" || exit 1
(cd "$ROOT/build" && ctest --output-on-failure -j "$JOBS" "$@") || {
  echo "check.sh: normal ctest suite FAILED" >&2
  FAILED=1
}

echo "==> ThreadSanitizer build + ctest"
cmake -B "$ROOT/build-tsan" -S "$ROOT" -DNTW_SANITIZE=thread || exit 1
cmake --build "$ROOT/build-tsan" -j "$JOBS" || exit 1
(cd "$ROOT/build-tsan" && ctest --output-on-failure -j "$JOBS" "$@") || {
  echo "check.sh: ThreadSanitizer ctest suite FAILED" >&2
  FAILED=1
}

echo "==> ntw_serve smoke (2 shards)"
sh "$ROOT/tools/serve_smoke.sh" "$ROOT/build" 2 || {
  echo "check.sh: ntw_serve smoke run FAILED" >&2
  FAILED=1
}

echo "==> ntw_serve smoke (self-heal)"
sh "$ROOT/tools/serve_smoke.sh" "$ROOT/build" --self-heal || {
  echo "check.sh: ntw_serve self-heal smoke run FAILED" >&2
  FAILED=1
}

echo "==> ntw_crawl smoke (file+http byte-identity)"
sh "$ROOT/tools/crawl_smoke.sh" "$ROOT/build" || {
  echo "check.sh: ntw_crawl smoke run FAILED" >&2
  FAILED=1
}

echo "==> scan bench smoke"
"$ROOT/build/bench/bench_tokenizer_scan" --smoke \
    --out "$ROOT/build/BENCH_scan.json" || {
  echo "check.sh: bench_tokenizer_scan smoke run FAILED" >&2
  FAILED=1
}

echo "==> wrapper pack build/verify roundtrip"
PACK_DIR="$ROOT/build/pack_roundtrip"
rm -rf "$PACK_DIR"
{ "$ROOT/build/tools/ntw_origin" --out "$PACK_DIR/repo" \
      --sites 200 --attrs 3 --seed 7 &&
  "$ROOT/build/tools/ntw_pack" build --root "$PACK_DIR/repo" \
      --out "$PACK_DIR/wrappers.pack" &&
  "$ROOT/build/tools/ntw_pack" verify "$PACK_DIR/wrappers.pack"; } || {
  echo "check.sh: wrapper pack roundtrip FAILED" >&2
  FAILED=1
}
rm -rf "$PACK_DIR"

echo "==> repo bench smoke (pack open vs eager load)"
"$ROOT/build/bench/bench_repo" --smoke \
    --out "$ROOT/build/BENCH_repo.json" || {
  echo "check.sh: bench_repo smoke run FAILED" >&2
  FAILED=1
}

echo "==> ntw_loadgen smoke (equivalence gates + shard sweep)"
"$ROOT/build/tools/ntw_loadgen" --smoke --shards 2 --sweep 1,2 \
    --out "$ROOT/build/BENCH_serve.json" || {
  echo "check.sh: ntw_loadgen smoke run FAILED" >&2
  FAILED=1
}

echo "==> repository benchmark smoke (every BENCHMARK.json workload)"
sh "$ROOT/tools/perfbench_smoke.sh" || {
  echo "check.sh: repository benchmark smoke FAILED" >&2
  FAILED=1
}

if [ "$FAILED" -ne 0 ]; then
  echo "check.sh FAILED" >&2
  exit 1
fi
echo "check.sh OK"
