#!/bin/sh
# Seeded chaos harness (registered as ctest `cli/chaos_smoke` and run
# by CI): the orchestrator's whole failure model exercised at once, end
# to end against the real binary on a 64-cell grid.
#
#   1. `orchestrate --chaos-seed` drives the worker fleet through a
#      deterministic random schedule of injected faults — torn writes,
#      corrupted integrity trailers, progress stalls, mid-shard kills —
#      and must still converge (attempts at or past the retry budget run
#      clean by construction) with merged.csv byte-identical to the
#      clean single-process sweep,
#   2. the run's manifest carries classified `fail` audit lines for the
#      injected failures,
#   3. a resume over a deliberately truncated shard file recomputes
#      exactly that shard (not a fatal contract violation) and again
#      reproduces the same bytes,
#   4. a fault storm over a shared result cache — pre-poisoned with a
#      corrupt segment, then battered with cache-torn-write /
#      cache-corrupt-segment faults and a hostile concurrent evictor —
#      must never change merged.csv bytes (a poisoned cache costs
#      recomputes, never correctness), and `cache verify` must leave
#      the store clean afterwards.
#
# usage: chaos_smoke.sh <railcorr-binary>
set -eu

BIN="$1"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The same cheap 64-cell grid as orchestrate_smoke.sh.
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

"$BIN" sweep --plan "$TMP/plan.sweep" --out "$TMP/single.csv"

# --- 1: seeded fault storm must converge byte-identically -------------
# Seed 7 exercises a mixed schedule (torn writes, trailer corruption,
# stalls, kills) across the 8 shards; any seed must converge, this one
# is pinned so failures reproduce.
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/run" \
    --workers 4 --retries 3 --timeout 120 --stall-timeout 2 \
    --chaos-seed 7 2> "$TMP/chaos.log"

if ! grep -q "chaos: shard" "$TMP/chaos.log"; then
  echo "FAIL: chaos schedule injected no faults (seed too clean?)" >&2
  exit 1
fi
if ! cmp "$TMP/run/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: chaos-run merge differs from the single-process sweep" >&2
  exit 1
fi

# --- 2: the manifest audits the injected failures ---------------------
if ! grep -q "^fail " "$TMP/run/orchestrate.manifest"; then
  echo "FAIL: manifest has no classified fail lines after a fault storm" >&2
  exit 1
fi
# One attempt per shard: the storm's attempts and failure classes are a
# function of the seed alone (chaos_fault_for), so the tally is pinned.
# launch-refused on a local worker is a plain exit-255 failure.
TALLY="attempts=21 retried=13 [corrupt-output=5 exit-255=2 signal-9=3 stalled=3]"
if ! grep -qF "$TALLY" "$TMP/run/orchestrate.manifest"; then
  echo "FAIL: seed-7 tally differs from the pinned '$TALLY':" >&2
  grep "^info run summary" "$TMP/run/orchestrate.manifest" >&2
  exit 1
fi

# --- 3: resume over a truncated shard recomputes it -------------------
# Truncate one durable shard file mid-document (a crash between rename
# and fsync on a torn filesystem): its manifest entry still says done,
# so resume must detect the damage, reclassify the shard as not done,
# and re-run exactly it.
head -c 40 "$TMP/run/shard_3.csv" > "$TMP/run/shard_3.csv.tmp"
mv "$TMP/run/shard_3.csv.tmp" "$TMP/run/shard_3.csv"
rm "$TMP/run/merged.csv"
"$BIN" orchestrate --resume "$TMP/run" --workers 4 2> "$TMP/resume.log"

if ! grep -q "re-running" "$TMP/resume.log"; then
  echo "FAIL: resume did not reclassify the truncated shard" >&2
  exit 1
fi
launches="$(grep -c "launch shard" "$TMP/resume.log")"
if [ "$launches" -ne 1 ]; then
  echo "FAIL: resume launched $launches workers, expected exactly 1" >&2
  exit 1
fi
if ! cmp "$TMP/run/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: resumed merge differs from the single-process sweep" >&2
  exit 1
fi

# --- 4: a poisoned shared cache never changes output bytes ------------
# Warm a store, then flip one byte of a published segment's payload:
# silent on-disk corruption a worker will meet on its first hit.
"$BIN" sweep --plan "$TMP/plan.sweep" --out "$TMP/warmup.csv" \
    --cache-dir "$TMP/cache"
# The byte sits past the key directory and the first entry line, so
# open accepts the segment and its first hit drops it.
seg="$(ls "$TMP/cache"/*.seg | head -n 1)"
entries="$(sed -n '1s/.* entries=//p' "$seg")"
payload="$(head -n "$((entries + 2))" "$seg" | wc -c)"
dd if=/dev/zero of="$seg" bs=1 seek="$((payload + 20))" count=1 \
    conv=notrunc 2>/dev/null

# The storm: the same seeded schedule, now with cache-torn-write and
# cache-corrupt-segment faults in the mix (chaos cases 4/5 arm only
# when --cache-dir is set), plus a hostile evictor unlinking other
# segments at every flush of shard 0's workers.
RAILCORR_FAULT="" "$BIN" orchestrate --plan "$TMP/plan.sweep" \
    --out-dir "$TMP/cacherun" --workers 4 --retries 3 --timeout 120 \
    --stall-timeout 2 --chaos-seed 7 --cache-dir "$TMP/cache" \
    2> "$TMP/cachechaos.log"

if ! cmp "$TMP/cacherun/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: poisoned-cache chaos merge differs from the clean sweep" >&2
  exit 1
fi

# A concurrent evictor racing a full re-sweep: rows vanish mid-run, the
# sweep must still emit identical bytes (vanished segments are misses).
RAILCORR_FAULT="cache-evict" "$BIN" sweep --plan "$TMP/plan.sweep" \
    --out "$TMP/evicted.csv" --cache-dir "$TMP/cache"
if ! cmp "$TMP/evicted.csv" "$TMP/single.csv"; then
  echo "FAIL: concurrent-evictor sweep differs from the clean sweep" >&2
  exit 1
fi

# After the storm: verify repairs whatever damage remains, and a
# strict re-verify must then pass.
"$BIN" cache verify --dir "$TMP/cache" > /dev/null
if ! "$BIN" cache verify --dir "$TMP/cache" --strict > /dev/null; then
  echo "FAIL: cache verify --strict failed after a repair pass" >&2
  exit 1
fi

echo "cli chaos smoke OK"
