#!/bin/sh
# Smoke test of the crawl workload as a black box: generate a multi-site
# origin with ntw_origin, crawl it over file:// AND over a live local
# HTTP origin, and assert both NDJSON outputs are byte-identical to the
# offline `ntw_extract --emit ndjson` baseline over the same pages —
# fetch transport, worker scheduling, and the frontier must not change a
# single output byte, and neither may serving the learned wrappers from
# an ntw_pack pack. check.sh and CI run this after the unit suite; it
# is the only place the installed ntw_origin/ntw_crawl binaries, the
# static-file origin, and the port-file handshake meet end to end.
# Usage: tools/crawl_smoke.sh <build-dir> [workers]
set -u

BUILD="${1:?usage: tools/crawl_smoke.sh <build-dir> [workers]}"
WORKERS="${2:-4}"
ORIGIN_BIN="$BUILD/tools/ntw_origin"
CRAWL_BIN="$BUILD/tools/ntw_crawl"
EXTRACT_BIN="$BUILD/tools/ntw_extract"
PACK_BIN="$BUILD/tools/ntw_pack"
for BIN in "$ORIGIN_BIN" "$CRAWL_BIN" "$EXTRACT_BIN" "$PACK_BIN"; do
  [ -x "$BIN" ] || { echo "crawl_smoke: $BIN not built" >&2; exit 1; }
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ntw_crawl_smoke.XXXXXX")"
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() { echo "crawl_smoke: $1" >&2; exit 1; }

# An 8-site origin (the acceptance floor) with learned wrappers: every
# site gets an XPATH wrapper (fused streaming XPath executor) and an LR
# delimiter wrapper (StreamPage + stream matchers), so one crawl
# exercises both streaming plan kinds.
"$ORIGIN_BIN" --out "$WORK/origin" --wrapper-dir "$WORK/repo" \
    --sites 8 --pages 5 2> "$WORK/origin.log" \
    || fail "ntw_origin failed: $(cat "$WORK/origin.log")"

# Per-site, per-attribute NDJSON from ntw_extract with backend "$1 $2",
# interleaved into crawl emission order in $3 (pages in sorted order;
# within a page, wrappers in repository order: name before name_lr).
extract_all() {
  : > "$3"
  for SITE_DIR in "$WORK/origin"/site_*; do
    SITE="$(basename "$SITE_DIR")"
    for ATTR in name name_lr; do
      "$EXTRACT_BIN" --pages "$SITE_DIR" "$1" "$2" \
          --site "$SITE" --attribute "$ATTR" --emit ndjson \
          --url-prefix "file://$WORK/origin/$SITE" \
          > "$3.$SITE.$ATTR" 2>/dev/null \
          || fail "ntw_extract $1 failed for $SITE/$ATTR"
    done
    # paste -d'\n' interleaves line i of both files: name, name_lr, ...
    paste -d '\n' "$3.$SITE.name" "$3.$SITE.name_lr" >> "$3"
  done
}

# The offline baseline, from the learned directory repository.
extract_all --wrapper-dir "$WORK/repo" "$WORK/offline.ndjson"
[ -s "$WORK/offline.ndjson" ] || fail "offline baseline is empty"

# The same learned wrappers served from a pack must give the same bytes.
{ "$PACK_BIN" build --root "$WORK/repo" --out "$WORK/wrappers.pack" &&
  "$PACK_BIN" verify "$WORK/wrappers.pack"; } 2> "$WORK/pack.log" \
    || fail "ntw_pack build/verify failed: $(cat "$WORK/pack.log")"
extract_all --pack "$WORK/wrappers.pack" "$WORK/pack.ndjson"
cmp -s "$WORK/pack.ndjson" "$WORK/offline.ndjson" \
    || fail "pack-backed ntw_extract output differs from offline baseline"

# Crawl over file:// from the root index (depth 1 discovers every page).
"$CRAWL_BIN" --wrapper-dir "$WORK/repo" \
    --seeds "file://$WORK/origin/index.html" --max-depth 1 \
    --workers "$WORKERS" --out "$WORK/crawl_file.ndjson" --quiet \
    2> "$WORK/crawl_file.log" \
    || fail "file:// crawl failed: $(cat "$WORK/crawl_file.log")"
cmp -s "$WORK/crawl_file.ndjson" "$WORK/offline.ndjson" \
    || fail "file:// crawl output differs from offline baseline"

# Single worker must produce the same bytes as $WORKERS workers.
"$CRAWL_BIN" --wrapper-dir "$WORK/repo" \
    --seeds "file://$WORK/origin/index.html" --max-depth 1 \
    --workers 1 --out "$WORK/crawl_serial.ndjson" --quiet \
    2> "$WORK/crawl_serial.log" \
    || fail "serial crawl failed: $(cat "$WORK/crawl_serial.log")"
cmp -s "$WORK/crawl_serial.ndjson" "$WORK/offline.ndjson" \
    || fail "serial crawl output differs from offline baseline"

# Serve the same tree over HTTP and crawl it: same records, same order,
# only the url member's prefix differs.
"$ORIGIN_BIN" --serve "$WORK/origin" --port 0 \
    --port-file "$WORK/port" 2> "$WORK/serve.log" &
PID=$!
i=0
while [ ! -s "$WORK/port" ]; do
  i=$((i + 1))
  [ "$i" -gt 100 ] && fail "origin server never wrote the port file: $(cat "$WORK/serve.log")"
  kill -0 "$PID" 2>/dev/null \
      || fail "origin server died at startup: $(cat "$WORK/serve.log")"
  sleep 0.1
done
PORT="$(cat "$WORK/port")"

# --rps is generous: politeness is the limiter test's concern; the smoke
# asserts byte-identity, not pacing.
"$CRAWL_BIN" --wrapper-dir "$WORK/repo" \
    --seeds "http://127.0.0.1:$PORT/index.html" --max-depth 1 \
    --workers "$WORKERS" --rps 10000 --burst 64 \
    --out "$WORK/crawl_http.ndjson" --quiet 2> "$WORK/crawl_http.log" \
    || fail "http crawl failed: $(cat "$WORK/crawl_http.log")"
kill "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
PID=""

sed "s|http://127.0.0.1:$PORT|file://$WORK/origin|g" \
    "$WORK/crawl_http.ndjson" > "$WORK/crawl_http_norm.ndjson"
cmp -s "$WORK/crawl_http_norm.ndjson" "$WORK/offline.ndjson" \
    || fail "http crawl output differs from offline baseline"

RECORDS="$(wc -l < "$WORK/offline.ndjson")"
echo "crawl_smoke OK ($RECORDS records, file+http+pack byte-identical, $WORKERS workers)"
