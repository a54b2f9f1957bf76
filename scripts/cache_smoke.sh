#!/bin/sh
# Result-cache smoke (registered as ctest `cli/cache_smoke` and run by
# CI): the content-addressed store's end-to-end contract on a 64-cell
# grid —
#   1. a cold cached sweep (all misses) and a warm re-sweep (all hits)
#      are both byte-identical to a cache-less sweep,
#   2. a warm re-sweep under `orchestrate` with 4 workers and an
#      injected cache-corruption fault still merges byte-identical,
#      serving what survived and recomputing the rest; the segment
#      whose payload was zeroed is dropped from disk on its first hit,
#   3. `cache stats` / `verify --strict` / `gc` manage the store:
#      verify repairs a poisoned segment, gc enforces a byte budget,
#   4. a store left by an older format (one `railcorr-cache-v1`
#      segment) is dropped at open and re-filled: the re-sweep hits
#      nothing and stays byte-identical.
#
# The ≥5x warm-vs-cold speedup itself is measured by bench_cache (and
# gated against a recorded floor in CI); this smoke pins the mechanism
# that produces it: a warm run answers every cell from the store.
#
# usage: cache_smoke.sh <railcorr-binary>
set -eu

BIN="$1"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The same cheap 64-cell grid as the orchestrate/chaos smokes.
cat > "$TMP/plan.sweep" <<'PLAN'
base = paper
set max_repeaters = 2
set isd_search.isd_step_m = 100
set isd_search.sample_step_m = 50
axis radio.lp_eirp_dbm = 37, 38, 39, 40
axis timetable.trains_per_hour = 6, 8, 10, 12
axis timetable.night_hours = 4, 5
axis radio.hp_eirp_dbm = 60, 61
PLAN

"$BIN" sweep --plan "$TMP/plan.sweep" --out "$TMP/nocache.csv"

# --- 1: cold fill, then warm re-sweep, byte-identical -----------------
"$BIN" sweep --plan "$TMP/plan.sweep" --out "$TMP/cold.csv" \
    --cache-dir "$TMP/cache" 2> "$TMP/cold.log"
"$BIN" sweep --plan "$TMP/plan.sweep" --out "$TMP/warm.csv" \
    --cache-dir "$TMP/cache" 2> "$TMP/warm.log"

if ! cmp "$TMP/cold.csv" "$TMP/nocache.csv"; then
  echo "FAIL: cold cached sweep differs from the cache-less sweep" >&2
  exit 1
fi
if ! cmp "$TMP/warm.csv" "$TMP/nocache.csv"; then
  echo "FAIL: warm cached sweep differs from the cache-less sweep" >&2
  exit 1
fi
if ! grep -q "cache 0 hit(s) / 64 miss(es)" "$TMP/cold.log"; then
  echo "FAIL: cold run did not miss all 64 cells:" >&2
  cat "$TMP/cold.log" >&2
  exit 1
fi
if ! grep -q "cache 64 hit(s) / 0 miss(es)" "$TMP/warm.log"; then
  echo "FAIL: warm run did not hit all 64 cells:" >&2
  cat "$TMP/warm.log" >&2
  exit 1
fi

# --- 2: warm orchestrate under an injected cache-corruption fault -----
# Corrupt one published segment, then drive a 4-worker fleet over the
# store with a cache-corrupt-segment fault armed in every worker: the
# poisoned bytes must never reach merged.csv.
# The zeroed byte sits in the first entry's payload: past the magic
# line, the key directory and the first `entry <len>` line.
seg="$(ls "$TMP/cache"/*.seg | head -n 1)"
entries="$(sed -n '1s/.* entries=//p' "$seg")"
payload="$(head -n "$((entries + 2))" "$seg" | wc -c)"
dd if=/dev/zero of="$seg" bs=1 seek="$((payload + 5))" count=1 \
    conv=notrunc 2>/dev/null

RAILCORR_FAULT="cache-corrupt-segment" "$BIN" orchestrate \
    --plan "$TMP/plan.sweep" --out-dir "$TMP/run" --workers 4 \
    --cache-dir "$TMP/cache" > "$TMP/orch.log" 2>/dev/null

if ! cmp "$TMP/run/merged.csv" "$TMP/nocache.csv"; then
  echo "FAIL: cached orchestrate merge differs from the cache-less sweep" >&2
  exit 1
fi
if ! grep -q "orchestrate: cache" "$TMP/orch.log"; then
  echo "FAIL: orchestrate summary reports no cache tallies:" >&2
  cat "$TMP/orch.log" >&2
  exit 1
fi
# The directory open checks is intact, and only the first hit's checks
# reject the segment.
if [ -e "$seg" ]; then
  echo "FAIL: the zeroed segment survived a warm orchestrate: $seg" >&2
  exit 1
fi

# --- 3: stats / verify / gc manage the store --------------------------
# The corruption-fault workers above published deliberately-poisoned
# segments; verify must drop whatever is damaged, then pass strictly.
"$BIN" cache stats --dir "$TMP/cache" > /dev/null 2>&1
"$BIN" cache verify --dir "$TMP/cache" > /dev/null 2>&1
if ! "$BIN" cache verify --dir "$TMP/cache" --strict > /dev/null 2>&1; then
  echo "FAIL: cache verify --strict failed after a repair pass" >&2
  exit 1
fi
# A zero-byte budget evicts everything that is not lock-protected.
"$BIN" cache gc --dir "$TMP/cache" --max-mb 0 > /dev/null
left="$(ls "$TMP/cache"/*.seg 2>/dev/null | wc -l)"
if [ "$left" -ne 0 ]; then
  echo "FAIL: cache gc --max-mb 0 left $left segment(s)" >&2
  exit 1
fi

# --- 4: a segment of the older format is dropped at open -------------
# Cell 0's row as the v1 format published it: entries framed with
# their keys, no key directory, and keys hashed from another field
# order. A reader of the current format must drop it, never serve it.
mkdir "$TMP/v1cache"
v1seg="$TMP/v1cache/seg_426e9feddac6fa5a.seg"
cat > "$v1seg" <<'SEGMENT'
# railcorr-cache-v1 schema=1
entry 68b68aa0bafeb17e 160
0,37,6,4,60,2,1000,29.04294600289308,29.04294600289308,463.12,333.03999999999996,256.0524,235.76,0.44711435481084827,0.49093107617896015,0.035,5.073099999999999
@railcorr-crc 6ebb7622c47b9758
SEGMENT
"$BIN" sweep --plan "$TMP/plan.sweep" --out "$TMP/v1.csv" \
    --cache-dir "$TMP/v1cache" 2> "$TMP/v1.log"
if [ -e "$v1seg" ]; then
  echo "FAIL: the v1 segment survived a sweep over its store" >&2
  exit 1
fi
if ! grep -q "cache 0 hit(s) / 64 miss(es)" "$TMP/v1.log"; then
  echo "FAIL: a sweep over a v1 store did not miss all 64 cells:" >&2
  cat "$TMP/v1.log" >&2
  exit 1
fi
if ! cmp "$TMP/v1.csv" "$TMP/nocache.csv"; then
  echo "FAIL: the sweep over a v1 store differs from the cache-less sweep" >&2
  exit 1
fi
"$BIN" cache stats --dir "$TMP/v1cache" > "$TMP/v1stats.log"
if ! grep -q "cache stats: 1 segment(s), 64 entrie(s), .* 0 corrupt" \
    "$TMP/v1stats.log"; then
  echo "FAIL: the re-filled store is not one intact 64-entry segment:" >&2
  cat "$TMP/v1stats.log" >&2
  exit 1
fi
if grep -L "railcorr-cache-v2" "$TMP/v1cache"/*.seg | grep -q .; then
  echo "FAIL: the re-filled store holds a segment of another format" >&2
  exit 1
fi

echo "cli cache smoke OK"
