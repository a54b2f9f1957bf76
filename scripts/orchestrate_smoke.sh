#!/bin/sh
# Orchestrator smoke (registered as ctest `cli/orchestrate_smoke` and
# run by CI): the acceptance contract of `railcorr orchestrate`, end to
# end against the real binary on a 64-cell grid:
#
#   1. orchestrate with 4 workers merges byte-identical to the
#      single-process sweep (a killed worker's retry is pinned by
#      OrchestrateEndToEnd in tests/orch/orchestrator_test.cpp, and
#      chaos_smoke.sh pins kill classification through the CLI),
#   2. --resume re-runs only the missing shard and reproduces the same
#      bytes,
#   3. a resumed run whose plan fingerprint changed is refused, exit 2,
#   4. a resumed run whose manifest records a different banner (the
#      ` accuracy=fast-ulp` tag older fast-mode runs left) is refused,
#      exit 2,
#   5. a fresh (non-resume) run into a used directory is refused,
#      exit 1,
#   6. a worker write torn inside its last row, which leaves every
#      row's index, is rejected and retried, and never merged.
#
# usage: orchestrate_smoke.sh <railcorr-binary>
set -eu

BIN="$1"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# 64 cells (4 x 4 x 2 x 2), each cheap: shallow repeater sweep, coarse
# search steps.
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

# --- 1: a 4-worker fleet ---------------------------------------------
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/run" \
    --workers 4 2> "$TMP/orch.log"

if ! cmp "$TMP/run/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: orchestrated merge differs from the single-process sweep" >&2
  exit 1
fi

# --- 2: resume re-runs only the missing shard ------------------------
rm "$TMP/run/merged.csv" "$TMP/run/shard_5.csv"
"$BIN" orchestrate --resume "$TMP/run" --workers 4 2> "$TMP/resume.log"

if ! grep -q "skipping 7 finished shard(s) of 8" "$TMP/resume.log"; then
  echo "FAIL: resume did not skip the 7 intact shards" >&2
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

# --- 3: plan-fingerprint mismatch is refused with exit 2 -------------
sed 's/axis radio.lp_eirp_dbm = 37, 38, 39, 40/axis radio.lp_eirp_dbm = 37/' \
    "$TMP/run/plan.sweep" > "$TMP/run/plan.tampered"
mv "$TMP/run/plan.tampered" "$TMP/run/plan.sweep"
set +e
"$BIN" orchestrate --resume "$TMP/run" > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
  echo "FAIL: tampered plan fingerprint exited $code, expected 2" >&2
  exit 1
fi
# Restore the canonical plan for the banner check.
cp "$TMP/plan.sweep" "$TMP/run/plan.sweep"

# --- 4: banner mismatch is refused with exit 2 -----------------------
# The banner line a run made in the retired fast-ULP mode recorded.
sed 's/^banner = .*/& accuracy=fast-ulp/' "$TMP/run/orchestrate.manifest" \
    > "$TMP/run/manifest.edited"
mv "$TMP/run/manifest.edited" "$TMP/run/orchestrate.manifest"
if ! grep -q '^banner = # railcorr-sweep-v1 .* accuracy=fast-ulp$' \
    "$TMP/run/orchestrate.manifest"; then
  echo "FAIL: manifest banner line was not edited" >&2
  exit 1
fi
set +e
"$BIN" orchestrate --resume "$TMP/run" > /dev/null 2> "$TMP/banner.log"
code=$?
set -e
if [ "$code" -ne 2 ]; then
  echo "FAIL: banner mismatch exited $code, expected 2" >&2
  exit 1
fi
if ! grep -q "banner mismatch" "$TMP/banner.log"; then
  echo "FAIL: refused resume does not name the banner mismatch" >&2
  exit 1
fi

# --- 5: fresh run into a used directory is refused (exit 1) ----------
set +e
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/run" \
    > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "FAIL: fresh run into a used dir exited $code, expected 1" >&2
  exit 1
fi

# --- 6: a write torn inside the last row is never merged -------------
# `sweep --out` trailers the body as a worker does, so the one-shard
# body is single.csv less its 31-byte trailer line. Every attempt tears
# 4 bytes before the body's end; only the lost trailer tells.
body=$(($(wc -c < "$TMP/single.csv") - 31))
set +e
RAILCORR_FAULT="torn-write=$((body - 4))" "$BIN" orchestrate \
    --plan "$TMP/plan.sweep" --out-dir "$TMP/torn" --shards 1 \
    --workers 1 --retries 1 > "$TMP/torn.log" 2>&1
code=$?
set -e
if [ "$code" -eq 0 ] || [ -e "$TMP/torn/merged.csv" ]; then
  echo "FAIL: a shard torn inside its last row merged (exit $code)" >&2
  exit 1
fi
if ! grep -q "rejected: missing integrity trailer (torn write)" \
    "$TMP/torn.log" ||
    ! grep -q "attempts=2 retried=1 \[corrupt-output=2\]" "$TMP/torn.log"; then
  echo "FAIL: the torn shard was not rejected and retried:" >&2
  cat "$TMP/torn.log" >&2
  exit 1
fi

echo "cli orchestrate smoke OK"
