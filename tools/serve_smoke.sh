#!/bin/sh
# Smoke test of the ntw_serve daemon as a black box: start it on an
# ephemeral port against a throwaway wrapper repository, hit every
# endpoint with curl, then SIGTERM it and assert a clean drain (exit 0,
# final metrics flushed). check.sh and CI run this after the unit suite —
# it is the only place the installed binary, the signal handlers and the
# port-file handshake are exercised end to end.
# Usage: tools/serve_smoke.sh <build-dir> [shards] [extra daemon flags...]
# e.g. tools/serve_smoke.sh build 2 --no-fast-path
#
# `tools/serve_smoke.sh <build-dir> --self-heal` runs the self-healing
# scenario instead: break the live template mid-traffic and assert the
# daemon re-induces, hot-publishes and persists a working wrapper.
set -u

BUILD="${1:?usage: tools/serve_smoke.sh <build-dir> [shards|--self-heal] [flags...]}"
SERVE="$BUILD/tools/ntw_serve"
[ -x "$SERVE" ] || { echo "serve_smoke: $SERVE not built" >&2; exit 1; }
SELF_HEAL=0
if [ "${2:-}" = "--self-heal" ]; then
  SELF_HEAL=1
  SHARDS=1
  shift 2
  # Tight thresholds so the drift pipeline (warmup -> streak -> collect
  # -> re-induce -> publish) completes within a smoke-test budget.
  set -- --drift-warmup 4 --drift-window 2 --drift-empty-streak 2 \
      --drift-retain 3 --drift-hysteresis 1 "$@"
else
  SHARDS="${2:-1}"
  # Remaining arguments are passed to the daemon verbatim (e.g. the
  # --no-fast-path interpreter switch).
  [ "$#" -ge 2 ] && shift 2 || shift "$#"
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ntw_serve_smoke.XXXXXX")"
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$WORK"' EXIT

# A two-wrapper repository: example.com/name extracts <li> text via
# XPATH (fused streaming XPath executor); example.com/name_lr is the
# equivalent LR delimiter plan (StreamPage + stream matchers).
mkdir -p "$WORK/repo/example.com"
if [ "$SELF_HEAL" -eq 1 ]; then
  # Self-heal scenario: one LR delimiter wrapper that a <b> -> <strong>
  # template change breaks completely.
  printf 'LR\t<b>\t</b>\n' > "$WORK/repo/example.com/name.wrapper"
else
  printf 'XPATH\t//li/text()\n' > "$WORK/repo/example.com/name.wrapper"
  printf 'LR\t<li>\t</li>\n' > "$WORK/repo/example.com/name_lr.wrapper"
fi

"$SERVE" --wrapper-dir "$WORK/repo" --port 0 --port-file "$WORK/port" \
    --shards "$SHARDS" \
    --metrics-json "$WORK/metrics.json" --quiet "$@" 2> "$WORK/stderr.log" &
PID=$!

# Wait for the port-file handshake (the daemon writes it after bind).
i=0
while [ ! -s "$WORK/port" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve_smoke: daemon never wrote the port file" >&2
    cat "$WORK/stderr.log" >&2
    exit 1
  fi
  kill -0 "$PID" 2>/dev/null || {
    echo "serve_smoke: daemon died at startup" >&2
    cat "$WORK/stderr.log" >&2
    exit 1
  }
  sleep 0.1
done
PORT="$(cat "$WORK/port")"
BASE="http://127.0.0.1:$PORT"

fail() { echo "serve_smoke: $1" >&2; cat "$WORK/stderr.log" >&2; exit 1; }

if [ "$SELF_HEAL" -eq 1 ]; then
  HEALTHY='<html><body><div><b>alpha cars</b><i>s</i></div><div><b>bravo vans</b><i>s</i></div><div><b>carol autos</b><i>s</i></div></body></html>'
  MUTATED='<html><body><div><strong>alpha cars</strong><i>s</i></div><div><strong>bravo vans</strong><i>s</i></div><div><strong>carol autos</strong><i>s</i></div></body></html>'

  # Warm the drift detector's baseline (and its value dictionary, which
  # seeds re-induction labeling) with healthy traffic.
  i=0
  while [ "$i" -lt 6 ]; do
    WARM="$(printf '%s' "$HEALTHY" | curl -sS --max-time 5 --data-binary @- \
        "$BASE/extract?site=example.com&attribute=name")" \
        || fail "self-heal warmup extract failed"
    case "$WARM" in
      *'"values":["alpha cars","bravo vans","carol autos"]'*) ;;
      *) fail "unexpected healthy extract response: $WARM" ;;
    esac
    i=$((i + 1))
  done

  # /driftz exposes the detector with self-healing on.
  DRIFTZ="$(curl -sS --max-time 5 "$BASE/driftz")" || fail "driftz request failed"
  case "$DRIFTZ" in
    *'"schema":"ntw-serve-drift"'*) ;;
    *) fail "driftz response is not an ntw-serve-drift document: $DRIFTZ" ;;
  esac
  case "$DRIFTZ" in
    *'"self_heal":true'*) ;;
    *) fail "driftz does not report self_heal enabled: $DRIFTZ" ;;
  esac

  # Break the template and keep the traffic coming: the daemon must
  # detect the drift, re-induce from retained pages and hot-publish a
  # repaired wrapper — after which the same mutated body extracts again.
  i=0
  while :; do
    HEALED="$(printf '%s' "$MUTATED" | curl -sS --max-time 5 --data-binary @- \
        "$BASE/extract?site=example.com&attribute=name")" \
        || fail "self-heal drifted extract failed"
    case "$HEALED" in
      *'"values":["alpha cars","bravo vans","carol autos"]'*) break ;;
      *'"values":[]'*) ;;
      *) fail "unexpected drifted extract response: $HEALED" ;;
    esac
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
      fail "daemon never healed from the template mutation: $HEALED"
    fi
    sleep 0.05
  done

  # The repaired wrapper must be durable: persisted over the incumbent
  # with the new delimiters, so a restart would survive the drift too.
  grep -q 'strong' "$WORK/repo/example.com/name.wrapper" \
      || fail "published wrapper was not persisted to disk"
  METRICS="$(curl -sS --max-time 5 "$BASE/metrics")" || fail "metrics request failed"
  case "$METRICS" in
    *'"ntw.serve.reinduce_published":1'*) ;;
    *) fail "metrics do not report exactly one publish: $METRICS" ;;
  esac

  kill -TERM "$PID" || fail "SIGTERM failed"
  wait "$PID"
  CODE=$?
  [ "$CODE" -eq 0 ] || fail "daemon exited $CODE instead of 0"
  echo "serve_smoke OK (port $PORT, self-heal)"
  exit 0
fi

# /healthz
HEALTH="$(curl -sS --max-time 5 "$BASE/healthz")" || fail "healthz request failed"
[ "$HEALTH" = "ok" ] || fail "unexpected healthz body: $HEALTH"

# /extract
BODY='<html><ul><li>alpha</li><li>beta</li></ul></html>'
EXTRACT="$(printf '%s' "$BODY" | curl -sS --max-time 5 --data-binary @- \
    "$BASE/extract?site=example.com&attribute=name")" \
    || fail "extract request failed"
case "$EXTRACT" in
  *'"values":["alpha","beta"]'*) ;;
  *) fail "unexpected extract response: $EXTRACT" ;;
esac

# /extract with the LR delimiter plan (streaming no-DOM path unless the
# daemon was started with --no-fast-path): same values, same bytes.
EXTRACT_LR="$(printf '%s' "$BODY" | curl -sS --max-time 5 --data-binary @- \
    "$BASE/extract?site=example.com&attribute=name_lr")" \
    || fail "lr extract request failed"
case "$EXTRACT_LR" in
  *'"values":["alpha","beta"]'*) ;;
  *) fail "unexpected lr extract response: $EXTRACT_LR" ;;
esac

# /extract_batch
BATCH="$(printf '{"id":"p1","html":"<ul><li>one</li></ul>"}\n{"id":"p2","html":"<ul><li>two</li></ul>"}\n' \
    | curl -sS --max-time 5 --data-binary @- \
    "$BASE/extract_batch?site=example.com&attribute=name")" \
    || fail "extract_batch request failed"
case "$BATCH" in
  *'"id":"p1","values":["one"]'*) ;;
  *) fail "unexpected batch response: $BATCH" ;;
esac

# /metrics must be the canonical ntw-metrics document and account for
# every request issued, including itself: healthz + extract + lr extract
# + batch + this one = 5 (the counter is bumped when a request is
# dispatched).
METRICS="$(curl -sS --max-time 5 "$BASE/metrics")" || fail "metrics request failed"
case "$METRICS" in
  *'"schema":"ntw-metrics"'*) ;;
  *) fail "metrics response is not an ntw-metrics document" ;;
esac
case "$METRICS" in
  *'"ntw.serve.requests":5'*) ;;
  *) fail "request counter does not account for the 5 requests: $METRICS" ;;
esac

# Hot reload on SIGHUP: a new wrapper becomes servable without restart.
printf 'XPATH\t//b/text()\n' > "$WORK/repo/example.com/price.wrapper"
kill -HUP "$PID" || fail "SIGHUP failed"
i=0
while :; do
  RELOADED="$(printf '<b>9</b>' | curl -sS --max-time 5 --data-binary @- \
      "$BASE/extract?site=example.com&attribute=price")" \
      || fail "post-reload extract failed"
  case "$RELOADED" in
    *'"values":["9"]'*) break ;;
  esac
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    fail "reload never served the new wrapper: $RELOADED"
  fi
  sleep 0.1
done

# Graceful SIGTERM: exit 0 and a flushed metrics file.
kill -TERM "$PID" || fail "SIGTERM failed"
wait "$PID"
CODE=$?
[ "$CODE" -eq 0 ] || fail "daemon exited $CODE instead of 0"
[ -s "$WORK/metrics.json" ] || fail "daemon did not flush --metrics-json"
case "$(cat "$WORK/metrics.json")" in
  *'"schema":"ntw-metrics"'*) ;;
  *) fail "flushed metrics file is not an ntw-metrics document" ;;
esac

echo "serve_smoke OK (port $PORT, $SHARDS shard(s))"
