#!/bin/sh
# Observability smoke (registered as ctest `cli/obs_smoke` and run by
# CI): the run-telemetry contract on the same 64-cell grid as the other
# smokes —
#   1. telemetry is provably inert: a traced 4-worker orchestrate (and a
#      traced standalone sweep, a traced sizing sweep, and a traced
#      chaos-seeded orchestrate) produce result artifacts byte-identical
#      to their untraced twins; the sizing sweep's work counters
#      (sky tables, weather syntheses, case-days) are pinned,
#   2. the traced orchestrate assembles a fleet timeline: trace.json is
#      plain valid JSON with one process_name lane per worker plus the
#      orchestrator's own, and run_metrics.json is the plain-JSON
#      counter/histogram rollup (the sweep's radio-memo counters
#      included, as in the standalone sweep's metrics); a traced warm
#      orchestrate over a store a cold one filled explains its fixed
#      costs: each shard's cells sit in one segment, so 8 segments are
#      hashed on their first hit for 64 hits, and the orchestrator's own
#      `verify` and `merge` spans are in the timeline, with one
#      `publish` span per landed shard,
#   3. the run summary is always printed (and appended to the manifest
#      as an `info` line), traced or not,
#   4. `railcorr trace merge|stats` consume worker `.trace` files (the
#      per-span rollups list the shard stages, the sizing spans and,
#      for a 2-segment corridor, the corridor check with its self
#      time, whose metrics count the probe's and the check's samples),
#      and a torn input fails cleanly: exit 1, no partial output file.
#
# The disabled-path overhead itself is measured by bench_obs (and gated
# against a recorded floor in CI); this smoke pins the byte-identity
# contract that makes enabling telemetry free of risk.
#
# usage: obs_smoke.sh <railcorr-binary>
set -eu

BIN="$1"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Plain-JSON validation needs a JSON parser; python3 is present in CI
# and on dev boxes, but the smoke degrades to structural greps without.
if command -v python3 > /dev/null 2>&1; then
  JSON_CHECK="python3 -m json.tool"
else
  JSON_CHECK=""
fi

# The same cheap 64-cell grid as the orchestrate/chaos/cache smokes.
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

# --- 1a: untraced baselines ------------------------------------------
"$BIN" sweep --plan "$TMP/plan.sweep" --out "$TMP/plain.csv"
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/run_plain" \
    --workers 4 > "$TMP/orch_plain.log"

# The run summary prints on every orchestrate, traced or not, and is
# appended to the manifest as an `info` audit line.
if ! grep -q "run summary: wall=" "$TMP/orch_plain.log"; then
  echo "FAIL: untraced orchestrate printed no run summary:" >&2
  cat "$TMP/orch_plain.log" >&2
  exit 1
fi
if ! grep -q "^info run summary: " "$TMP/run_plain/orchestrate.manifest"; then
  echo "FAIL: manifest carries no info summary line" >&2
  exit 1
fi

# --- 1b: traced standalone sweep is byte-identical --------------------
"$BIN" sweep --plan "$TMP/plan.sweep" --out "$TMP/traced.csv" \
    --trace "$TMP/sweep.trace" --metrics "$TMP/sweep.metrics.json"
if ! cmp "$TMP/traced.csv" "$TMP/plain.csv"; then
  echo "FAIL: traced sweep output differs from the untraced sweep" >&2
  exit 1
fi
for f in "$TMP/sweep.trace" "$TMP/sweep.metrics.json"; do
  if [ ! -s "$f" ]; then
    echo "FAIL: traced sweep did not write $f" >&2
    exit 1
  fi
done
# The radio stage runs once per distinct radio input: the 64 cells
# hold 4 lp x 2 hp inputs, so 8 searches and 56 memo hits. Each search
# walks N = 2's grid down from the top: 214 grid points visited in all,
# and only the 8 winners run the full min-SNR reduction.
for counter in '"sweep.isd_searches":8' '"sweep.isd_memo_hits":56' \
    '"corridor.isd_points":214' '"corridor.isd_full_scans":8'; do
  if ! grep -q "$counter" "$TMP/sweep.metrics.json"; then
    echo "FAIL: sweep.metrics.json lacks $counter:" >&2
    cat "$TMP/sweep.metrics.json" >&2
    exit 1
  fi
done

# --- 1c: traced sizing sweep is byte-identical and counts its work ----
# The small arctic-climate sizing grid of cli_smoke.sh: 3 sites at one
# plane (3 sky tables), 2 weather seeds (6 syntheses), and the days the
# ladder walks simulate, summed over cases (ladder rungs that fail before
# the last stop at their first outage day).
cat > "$TMP/sizing.sweep" <<'PLAN'
base = arctic-climate
set max_repeaters = 2
set isd_search.isd_step_m = 100
set isd_search.sample_step_m = 50
set sizing.years = 1
axis sizing.seed = 1, 2
axis timetable.trains_per_hour = 4, 12
PLAN
"$BIN" sweep --plan "$TMP/sizing.sweep" --include-sizing \
    --out "$TMP/sizing_plain.csv"
"$BIN" sweep --plan "$TMP/sizing.sweep" --include-sizing \
    --out "$TMP/sizing_traced.csv" --trace "$TMP/sizing.trace" \
    --metrics "$TMP/sizing.metrics.json"
if ! cmp "$TMP/sizing_traced.csv" "$TMP/sizing_plain.csv"; then
  echo "FAIL: traced sizing sweep differs from the untraced sweep" >&2
  exit 1
fi
for counter in '"solar.sky_tables":3' '"solar.weather_syntheses":6' \
    '"solar.case_days":16670'; do
  if ! grep -q "$counter" "$TMP/sizing.metrics.json"; then
    echo "FAIL: sizing.metrics.json lacks $counter:" >&2
    cat "$TMP/sizing.metrics.json" >&2
    exit 1
  fi
done

# --- 2: traced orchestrate assembles the fleet timeline ---------------
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/run_traced" \
    --workers 4 --trace-dir "$TMP/run_traced/telemetry" \
    > "$TMP/orch_traced.log"

if ! cmp "$TMP/run_traced/merged.csv" "$TMP/run_plain/merged.csv"; then
  echo "FAIL: traced orchestrate merge differs from the untraced merge" >&2
  exit 1
fi
TRACE="$TMP/run_traced/telemetry/trace.json"
METRICS="$TMP/run_traced/telemetry/run_metrics.json"
for f in "$TRACE" "$METRICS"; do
  if [ ! -s "$f" ]; then
    echo "FAIL: traced orchestrate did not write $f" >&2
    exit 1
  fi
  if [ -n "$JSON_CHECK" ] && ! $JSON_CHECK "$f" > /dev/null; then
    echo "FAIL: $f is not valid JSON" >&2
    exit 1
  fi
done
# One lane per worker shard (8 shards by default) plus the
# orchestrator's own; lanes are process_name metadata rows.
lanes="$(grep -c '"process_name"' "$TRACE")"
if [ "$lanes" -lt 5 ]; then
  echo "FAIL: merged trace has only $lanes lane(s)" >&2
  exit 1
fi
if ! grep -q '"orchestrator"' "$TRACE"; then
  echo "FAIL: merged trace lacks the orchestrator lane" >&2
  exit 1
fi
if ! grep -q '"sweep.cells":64' "$METRICS"; then
  echo "FAIL: run_metrics.json did not roll up 64 swept cells:" >&2
  cat "$METRICS" >&2
  exit 1
fi
# Each of the 8 interleaved shards holds one hp value, so each sees
# the 4 lp inputs: 32 searches fleet-wide.
if ! grep -q '"sweep.isd_searches":32' "$METRICS"; then
  echo "FAIL: run_metrics.json did not roll up 32 radio searches:" >&2
  cat "$METRICS" >&2
  exit 1
fi
if ! grep -q "run summary: wall=" "$TMP/orch_traced.log"; then
  echo "FAIL: traced orchestrate printed no run summary" >&2
  exit 1
fi

# --- 2b: a warm traced orchestrate explains its fixed costs -----------
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/run_cold" \
    --workers 4 --cache-dir "$TMP/cache" > /dev/null
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/run_warm" \
    --workers 4 --cache-dir "$TMP/cache" \
    --trace-dir "$TMP/run_warm/telemetry" > /dev/null
if ! cmp "$TMP/run_warm/merged.csv" "$TMP/run_plain/merged.csv"; then
  echo "FAIL: warm traced orchestrate differs from the untraced merge" >&2
  exit 1
fi
WARM_METRICS="$TMP/run_warm/telemetry/run_metrics.json"
for counter in '"cache.segments_verified":8' '"cache.hits":64'; do
  if ! grep -q "$counter" "$WARM_METRICS"; then
    echo "FAIL: warm run_metrics.json lacks $counter:" >&2
    cat "$WARM_METRICS" >&2
    exit 1
  fi
done
"$BIN" trace stats "$TMP/run_warm/telemetry/trace.json" \
    > "$TMP/warm_stats.log"
for span in verify=1 merge=1 publish=8; do
  if ! grep -q "^  span name=${span%=*} count=${span#*=} total_usec=" \
      "$TMP/warm_stats.log"; then
    echo "FAIL: trace stats of the warm fleet trace lacks ${span#*=}" \
         "${span%=*} span(s):" >&2
    cat "$TMP/warm_stats.log" >&2
    exit 1
  fi
done

# --- 3: inert under seeded chaos too ----------------------------------
# The chaos schedule keys on (seed, shard, attempt) — never on argv —
# so the traced storm replays the identical fault sequence. Seed 7
# stalls some attempts; --stall-timeout is what clears them.
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/chaos_plain" \
    --workers 4 --stall-timeout 2 --chaos-seed 7 > /dev/null 2>&1
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/chaos_traced" \
    --workers 4 --stall-timeout 2 --chaos-seed 7 \
    --trace-dir "$TMP/chaos_traced/telemetry" > /dev/null 2>&1
if ! cmp "$TMP/chaos_plain/merged.csv" "$TMP/chaos_traced/merged.csv"; then
  echo "FAIL: tracing changed the chaos run's merged bytes" >&2
  exit 1
fi
if ! cmp "$TMP/chaos_traced/merged.csv" "$TMP/plain.csv"; then
  echo "FAIL: traced chaos merge differs from the single-process sweep" >&2
  exit 1
fi

# --- 4: trace merge|stats, and torn inputs fail cleanly ---------------
"$BIN" trace stats "$TMP/sweep.trace" > "$TMP/stats.log"
if ! grep -q "events=" "$TMP/stats.log"; then
  echo "FAIL: trace stats printed no event tally:" >&2
  cat "$TMP/stats.log" >&2
  exit 1
fi
# After each file's tally, one line per span name with its count and
# total time. The shard's first and last stages run once per shard.
for span in scenarios emit; do
  if ! grep -q "^  span name=$span count=1 total_usec=" "$TMP/stats.log"
  then
    echo "FAIL: trace stats of the sweep trace lacks span $span:" >&2
    cat "$TMP/stats.log" >&2
    exit 1
  fi
done
# The sizing run's time shows in its batch span, in the batch's
# per-weather-group tasks, and in each group's day synthesis (one per
# solar.weather_syntheses).
"$BIN" trace stats "$TMP/sizing.trace" > "$TMP/sizing_stats.log"
for span in sizing_batch weather_group; do
  if ! grep -q "^  span name=$span count=[0-9]* total_usec=" \
      "$TMP/sizing_stats.log"; then
    echo "FAIL: trace stats of the sizing trace lacks span $span:" >&2
    cat "$TMP/sizing_stats.log" >&2
    exit 1
  fi
done
if ! grep -q "^  span name=synthesis count=6 total_usec=" \
    "$TMP/sizing_stats.log"; then
  echo "FAIL: trace stats of the sizing trace lacks 6 synthesis spans:" >&2
  cat "$TMP/sizing_stats.log" >&2
  exit 1
fi
# A 2-segment corridor runs the whole-corridor check inside the radio
# stage, under its own span; tracing it leaves the rows alone. Its
# metrics count the samples the search's reject probe and the check
# evaluated, and each span line reports its self time.
{ cat "$TMP/plan.sweep"; echo "set corridor.segments = 2"; } \
    > "$TMP/segments.sweep"
"$BIN" sweep --plan "$TMP/segments.sweep" --out "$TMP/segments_plain.csv"
"$BIN" sweep --plan "$TMP/segments.sweep" --out "$TMP/segments_traced.csv" \
    --trace "$TMP/segments.trace" --metrics "$TMP/segments.metrics.json"
if ! cmp "$TMP/segments_traced.csv" "$TMP/segments_plain.csv"; then
  echo "FAIL: traced 2-segment sweep differs from the untraced sweep" >&2
  exit 1
fi
for counter in '"corridor.isd_probe_samples":[1-9]' \
    '"corridor.check_samples":[1-9]'; do
  if ! grep -q "$counter" "$TMP/segments.metrics.json"; then
    echo "FAIL: segments.metrics.json lacks $counter:" >&2
    cat "$TMP/segments.metrics.json" >&2
    exit 1
  fi
done
"$BIN" trace stats "$TMP/segments.trace" > "$TMP/segments_stats.log"
if ! grep -q \
    "^  span name=corridor_check count=[0-9]* total_usec=[0-9]* self_usec=" \
    "$TMP/segments_stats.log"; then
  echo "FAIL: trace stats of the 2-segment trace lacks corridor_check:" >&2
  cat "$TMP/segments_stats.log" >&2
  exit 1
fi
first_two="$(ls "$TMP/run_traced/telemetry/"*.trace | head -n 2)"
# shellcheck disable=SC2086
"$BIN" trace merge --out "$TMP/merged_pair.json" $first_two
if [ -n "$JSON_CHECK" ] && ! $JSON_CHECK "$TMP/merged_pair.json" > /dev/null
then
  echo "FAIL: trace merge output is not valid JSON" >&2
  exit 1
fi

# A torn worker trace (crash mid-write) must be rejected: exit 1 and no
# partial --out file left behind.
head -c 100 "$TMP/sweep.trace" > "$TMP/torn.trace"
if "$BIN" trace merge --out "$TMP/torn_out.json" \
    "$TMP/sweep.trace" "$TMP/torn.trace" 2> /dev/null; then
  echo "FAIL: trace merge accepted a torn input" >&2
  exit 1
fi
if [ -e "$TMP/torn_out.json" ]; then
  echo "FAIL: trace merge left partial output for a torn input" >&2
  exit 1
fi

echo "cli obs smoke OK"
