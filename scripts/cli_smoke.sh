#!/bin/sh
# Shard-and-merge smoke for the railcorr CLI (registered as ctest
# `cli/shard_merge_smoke` and run by CI):
#   1. evaluate a tiny sweep grid as 2 shards and as 1 shard,
#   2. merge both ways — the outputs must be byte-identical
#      (the cross-shard determinism contract), also for a small grid
#      with the off-grid sizing stage at one and at four threads and at
#      both SIMD levels; the one accepted --accuracy value and the
#      retired RAILCORR_ACCURACY variable leave the bytes alone,
#   3. corrupt one shard row and check merge exits nonzero,
#   4. pin the worker progress stream: the start line, then the done
#      line, nothing per cell; the kill fault's threshold on the
#      shard's size (`kill=4` on the 4-cell plan exits 137 with no
#      done line and no shard file, `kill=5` never fires); and the
#      damage each cache fault does to the segment the sweep published,
#   5. pin the CLI error matrix: exit codes AND messages of the
#      sweep/orchestrate/cache usage-error paths (wrong-flag
#      combinations, non-finite seconds, refused resumes) so
#      orchestrating scripts can rely on them, and the usage text that
#      `railcorr help` prints from the flag table.
#
# usage: cli_smoke.sh <railcorr-binary>
set -eu

BIN="$1"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# A fast grid: shallow repeater sweep, coarse search steps, 2x2 axes.
cat > "$TMP/plan.sweep" <<'PLAN'
base = paper
set max_repeaters = 2
set isd_search.isd_step_m = 100
set isd_search.sample_step_m = 50
axis radio.lp_eirp_dbm = 37, 40
axis timetable.trains_per_hour = 8, 12
PLAN

"$BIN" sweep --plan "$TMP/plan.sweep" --shard 0/2 --out "$TMP/shard0.csv"
"$BIN" sweep --plan "$TMP/plan.sweep" --shard 1/2 --out "$TMP/shard1.csv"
"$BIN" sweep --plan "$TMP/plan.sweep" --shard 0/1 --out "$TMP/full.csv"

"$BIN" merge --out "$TMP/merged_sharded.csv" \
    "$TMP/shard0.csv" "$TMP/shard1.csv"
"$BIN" merge --out "$TMP/merged_single.csv" "$TMP/full.csv"

if ! cmp "$TMP/merged_sharded.csv" "$TMP/merged_single.csv"; then
  echo "FAIL: sharded merge differs from single-process run" >&2
  exit 1
fi

# One numeric contract: `--accuracy bitexact` is accepted and changes
# nothing, and the retired RAILCORR_ACCURACY variable is ignored.
"$BIN" sweep --plan "$TMP/plan.sweep" --accuracy bitexact \
    --out "$TMP/bitexact.csv"
RAILCORR_ACCURACY=fast "$BIN" sweep --plan "$TMP/plan.sweep" \
    --out "$TMP/env_fast.csv"
for variant in bitexact env_fast; do
  if ! cmp "$TMP/$variant.csv" "$TMP/full.csv"; then
    echo "FAIL: $variant sweep differs from the plain sweep" >&2
    exit 1
  fi
done

# A corrupted row under a now-stale integrity trailer is caught by the
# trailer check first: an I/O-integrity input error (exit 1), not a
# determinism-contract violation.
sed 's/^0,37,8,/0,37,8,CORRUPTED/' "$TMP/shard0.csv" > "$TMP/shard0_stale.csv"
set +e
"$BIN" merge "$TMP/shard0_stale.csv" "$TMP/full.csv" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "FAIL: stale-trailer corruption exited $code, expected 1" >&2
  exit 1
fi

# With the trailer stripped the document is structurally valid again,
# so the same corrupted row now means overlapping cells with differing
# bytes — the dedicated contract-violation exit code (2, not 1).
grep -v '^@railcorr-crc ' "$TMP/shard0.csv" \
    | sed 's/^0,37,8,/0,37,8,CORRUPTED/' > "$TMP/shard0_bad.csv"
set +e
"$BIN" merge "$TMP/shard0_bad.csv" "$TMP/full.csv" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
  echo "FAIL: corrupted duplicate row exited $code, expected 2" >&2
  exit 1
fi

# The same contract with the off-grid sizing stage on: a small
# arctic-climate grid (3 sites, 2 weather seeds, 2 timetables) as 2
# shards + merge must byte-match the single-process sweep, at one and
# at four threads.
cat > "$TMP/sizing.sweep" <<'PLAN'
base = arctic-climate
set max_repeaters = 2
set isd_search.isd_step_m = 100
set isd_search.sample_step_m = 50
set sizing.years = 1
axis sizing.seed = 1, 2
axis timetable.trains_per_hour = 4, 12
PLAN
for threads in 1 4; do
  for shard in 0 1; do
    "$BIN" sweep --plan "$TMP/sizing.sweep" --include-sizing \
        --threads "$threads" --shard "$shard/2" \
        --out "$TMP/sizing_shard$shard.csv"
  done
  "$BIN" sweep --plan "$TMP/sizing.sweep" --include-sizing \
      --threads "$threads" --out "$TMP/sizing_full.csv"
  "$BIN" merge --out "$TMP/sizing_sharded_t$threads.csv" \
      "$TMP/sizing_shard0.csv" "$TMP/sizing_shard1.csv"
  "$BIN" merge --out "$TMP/sizing_single_t$threads.csv" "$TMP/sizing_full.csv"
  if ! cmp "$TMP/sizing_sharded_t$threads.csv" \
      "$TMP/sizing_single_t$threads.csv"; then
    echo "FAIL: sharded sizing merge differs at --threads $threads" >&2
    exit 1
  fi
done
if ! cmp "$TMP/sizing_single_t1.csv" "$TMP/sizing_single_t4.csv"; then
  echo "FAIL: sizing sweep differs between --threads 1 and 4" >&2
  exit 1
fi
# Each weather group holds two ladder walks, which run four cases to a
# register on the AVX2 lanes, or one case at a time on the scalar lane.
# Both must give the bytes of the automatic level.
for level in scalar avx2; do
  RAILCORR_SIMD=$level "$BIN" sweep --plan "$TMP/sizing.sweep" \
      --include-sizing --out "$TMP/sizing_$level.csv"
  if ! cmp "$TMP/sizing_$level.csv" "$TMP/sizing_full.csv"; then
    echo "FAIL: sizing sweep differs under RAILCORR_SIMD=$level" >&2
    exit 1
  fi
done

# Garbage input is a usage error (1), not a determinism violation.
echo "not a shard document" > "$TMP/garbage.csv"
set +e
"$BIN" merge "$TMP/garbage.csv" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "FAIL: garbage input exited $code, expected 1" >&2
  exit 1
fi

# --- 4: the progress stream ------------------------------------------
# A worker's protocol: the start line before compute, then the done
# line last, and no line per cell. The shard document is the plain
# sweep's.
"$BIN" sweep --plan "$TMP/plan.sweep" --shard 0/1 --progress \
    --out "$TMP/progress.csv" > "$TMP/progress.log"
if ! cmp "$TMP/progress.csv" "$TMP/full.csv"; then
  echo "FAIL: --progress sweep differs from the plain sweep" >&2
  exit 1
fi
cat > "$TMP/events_want.txt" <<'EVENTS'
@railcorr 1 start shard=0/1 cells=4
@railcorr 1 done rows=4
EVENTS
if ! cmp "$TMP/progress.log" "$TMP/events_want.txt"; then
  echo "FAIL: --progress stream is not the start line, then done:" >&2
  cat "$TMP/progress.log" >&2
  exit 1
fi
# The kill fault fires after the start line, before any cell computes,
# on a shard owning at least N cells. kill=4 fires on the 4-cell plan:
# SIGKILL (exit 137), no done line and no shard file. kill=5 never
# fires.
set +e
"$BIN" sweep --plan "$TMP/plan.sweep" --progress --fault kill=4 \
    --out "$TMP/killed.csv" > "$TMP/killed.log" 2>/dev/null
code=$?
set -e
if [ "$code" -ne 137 ] || grep -q '^@railcorr 1 done ' "$TMP/killed.log" \
    || [ -e "$TMP/killed.csv" ]; then
  echo "FAIL: --fault kill=4 exited $code, expected 137 with no done" \
       "line and no shard file" >&2
  exit 1
fi
"$BIN" sweep --plan "$TMP/plan.sweep" --progress --fault kill=5 \
    --out "$TMP/kill5.csv" > /dev/null
if ! cmp "$TMP/kill5.csv" "$TMP/full.csv"; then
  echo "FAIL: --fault kill=5 on a 4-cell plan changed the shard" >&2
  exit 1
fi
# The cache faults fire after the rows are out, on the one segment the
# sweep's flush published ($published), in a store that already holds
# shard 1/2's segment ($seeded): a torn segment keeps its first N
# bytes, a corrupt one fails its trailer check, and the evictor unlinks
# every other segment. The shard document is the plain sweep's.
faulted_store() {
  rm -rf "$TMP/store"
  "$BIN" sweep --plan "$TMP/plan.sweep" --shard 1/2 \
      --cache-dir "$TMP/store" --out "$TMP/seeded.csv" 2>/dev/null
  seeded="$(ls "$TMP/store")"
  "$BIN" sweep --plan "$TMP/plan.sweep" --fault "$1" \
      --cache-dir "$TMP/store" --out "$TMP/faulted.csv" 2>/dev/null
  published="$(ls "$TMP/store" | grep -vxF "$seeded" || true)"
  stats="$("$BIN" cache stats --dir "$TMP/store" | head -n 1)"
  if ! cmp "$TMP/faulted.csv" "$TMP/full.csv"; then
    echo "FAIL: --fault $1 changed the shard" >&2
    exit 1
  fi
}
faulted_store cache-torn-write=50
if [ -z "$published" ] || [ "$(wc -c < "$TMP/store/$published")" -ne 50 ] ||
    [ "${stats##*, }" != "1 corrupt" ]; then
  echo "FAIL: cache-torn-write=50 left '$published', '$stats'" >&2
  exit 1
fi
faulted_store cache-corrupt-segment
if [ -z "$published" ] || [ "${stats##*, }" != "1 corrupt" ]; then
  echo "FAIL: cache-corrupt-segment left '$published', '$stats'" >&2
  exit 1
fi
faulted_store cache-evict
if [ -e "$TMP/store/$seeded" ] || [ -z "$published" ] ||
    [ "${stats##*, }" != "0 corrupt" ]; then
  echo "FAIL: cache-evict left '$seeded', '$published', '$stats'" >&2
  exit 1
fi

# --- 5: the CLI error matrix ------------------------------------------
# Each case pins BOTH the exit code and a stable message fragment:
# exit 1 = usage/configuration error, exit 2 = the grid you asked for
# is not the grid on disk (refused resume).
#
#   expect_error <code> <message-fragment> <args...>
expect_error() {
  want_code="$1"; want_msg="$2"; shift 2
  set +e
  got_msg="$("$BIN" "$@" 2>&1 >/dev/null)"
  got_code=$?
  set -e
  if [ "$got_code" -ne "$want_code" ]; then
    echo "FAIL: '$*' exited $got_code, expected $want_code" >&2
    exit 1
  fi
  case "$got_msg" in
    *"$want_msg"*) ;;
    *)
      echo "FAIL: '$*' stderr lacks '$want_msg': $got_msg" >&2
      exit 1
      ;;
  esac
}

# The usage text is printed from the flag table: `help` exits 0 and
# names all 11 verbs.
if ! "$BIN" help > "$TMP/help.txt"; then
  echo "FAIL: 'railcorr help' exited nonzero" >&2
  exit 1
fi
for verb in list show run sweep merge orchestrate "cache stats" \
    "cache verify" "cache gc" "trace merge" "trace stats"; do
  if ! grep -Eq "^  $verb( |\$)" "$TMP/help.txt"; then
    echo "FAIL: 'railcorr help' does not name verb '$verb'" >&2
    exit 1
  fi
done
expect_error 1 "unknown option 'extra'" list extra
expect_error 1 "unknown option '--bogus'" merge --bogus "$TMP/full.csv"

# sweep flag misuse.
expect_error 1 "--progress requires --out" \
    sweep --plan "$TMP/plan.sweep" --progress
expect_error 1 "--accuracy accepts only 'bitexact', got 'fast'" \
    sweep --plan "$TMP/plan.sweep" --accuracy fast
expect_error 1 "--accuracy expects an argument" \
    sweep --plan "$TMP/plan.sweep" --accuracy
# Seconds are finite and >= 0: NaN would slip past every range check.
expect_error 1 "--heartbeat must be >= 0 seconds and finite" \
    sweep --plan "$TMP/plan.sweep" --heartbeat nan
# A 20-digit shard count is refused, not wrapped to 2.
expect_error 1 "shard count out of range" \
    sweep --plan "$TMP/plan.sweep" --shard 1/18446744073709551618
# A study shape the max-ISD search cannot run is a spec error naming
# the key and line, not a contract abort inside the search.
sed 's/^set max_repeaters = 2$/set max_repeaters = 0/' "$TMP/plan.sweep" \
    > "$TMP/no_repeaters.sweep"
expect_error 1 "invalid value for 'max_repeaters' (line 2)" \
    sweep --plan "$TMP/no_repeaters.sweep" --out "$TMP/no_repeaters.csv"
# An out-of-range sizing value is rejected the same way, even by a
# sweep that never runs the sizing stage.
sed 's/^set sizing.years = 1$/set sizing.plane.albedo = 1.5/' \
    "$TMP/sizing.sweep" > "$TMP/bad_albedo.sweep"
expect_error 1 "invalid value for 'sizing.plane.albedo' (line 5)" \
    sweep --plan "$TMP/bad_albedo.sweep" --out "$TMP/bad_albedo.csv"
sed 's/^set sizing.years = 1$/set sizing.ladder = inf:720/' \
    "$TMP/sizing.sweep" > "$TMP/bad_ladder.sweep"
expect_error 1 "malformed value for 'sizing.ladder' (line 5): non-finite size in rung 'inf:720'" \
    sweep --plan "$TMP/bad_ladder.sweep" --out "$TMP/bad_ladder.csv"
expect_error 1 "--cache-max-mb requires --cache-dir" \
    sweep --plan "$TMP/plan.sweep" --cache-max-mb 64
# Thread counts are whole decimals up to 1024: a trailing byte is not
# dropped, and a typo cannot ask the OS for a hundred thousand threads.
printf 'base = paper\nset max_repeaters = 1\n' > "$TMP/one_cell.sweep"
for threads in 4x -3 1025 18446744073709551617; do
  expect_error 1 "--threads expects a thread count in [0, 1024], got '$threads'" \
      sweep --plan "$TMP/one_cell.sweep" --threads "$threads"
done
expect_error 1 "--threads expects a thread count in [0, 1024], got '1025'" \
    orchestrate --plan "$TMP/one_cell.sweep" --out-dir "$TMP/threads_run" \
    --threads 1,1025
expect_error 1 "--plan FILE required" sweep
expect_error 1 "cannot read" sweep --plan "$TMP/no_such_plan.sweep"
# The legacy kill alias is gone; `--fault kill=N` is the one spelling.
expect_error 1 "unknown option '--abort-after-cells'" \
    sweep --plan "$TMP/plan.sweep" --abort-after-cells 1
# The transfer faults are fetch faults, which only orchestrate
# --chaos-seed injects: a worker refuses them by flag and by variable.
expect_error 1 "fault 'transfer-stalled' is a fetch fault" \
    sweep --plan "$TMP/plan.sweep" --fault transfer-stalled
export RAILCORR_FAULT=transfer-torn=5
expect_error 1 "fault 'transfer-torn=5' is a fetch fault" \
    sweep --plan "$TMP/plan.sweep" --out "$TMP/transfer_torn.csv"
unset RAILCORR_FAULT

# orchestrate argument misuse.
expect_error 1 "--plan FILE and --out-dir DIR required" \
    orchestrate --workers 2
expect_error 1 "unknown option '--no-speculate'" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/x" --no-speculate
expect_error 1 "unknown option '--inject-kill'" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/x" --inject-kill 2
expect_error 1 "drop --out-dir" \
    orchestrate --resume "$TMP/run" --out-dir "$TMP/other"
expect_error 1 "--cache-max-mb requires --cache-dir" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/x" --cache-max-mb 8
expect_error 1 "--timeout must be >= 0 seconds and finite" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/n1" --timeout nan
# The worker heartbeat is a quarter of the stall budget, so an infinite
# one would make every worker heartbeat without pause.
expect_error 1 "--stall-timeout must be >= 0 seconds and finite" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/n2" \
    --stall-timeout inf

# orchestrate resume error paths.
expect_error 1 "cannot read" orchestrate --resume "$TMP/no_such_run"
mkdir -p "$TMP/freshrun"
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/freshrun" \
    --workers 2 --threads 1,1 2>/dev/null >/dev/null
expect_error 1 "already holds an orchestrate.manifest" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/freshrun"
# A resume whose --plan disagrees with the recorded run: refused, and
# with the dedicated exit code 2, not a generic usage error.
sed 's/axis radio.lp_eirp_dbm = 37, 40/axis radio.lp_eirp_dbm = 37, 41/' \
    "$TMP/plan.sweep" > "$TMP/other_plan.sweep"
expect_error 2 "--resume refused" \
    orchestrate --resume "$TMP/freshrun" --plan "$TMP/other_plan.sweep"

# distributed-orchestration flag misuse: every transport flag is
# validated before any filesystem work, so a typo never strands a run.
expect_error 1 "requires --hosts" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d1" \
    --launcher 'ssh {host} {cmd}'
expect_error 1 "requires --hosts" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d2" \
    --fetch 'scp {host}:{remote} {local}'
expect_error 1 "--fetch-timeout requires --fetch" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d3" \
    --hosts h1 --launcher 'ssh {host} {cmd}' --fetch-timeout 5
expect_error 1 "unknown placeholder" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d4" \
    --hosts h1 --launcher 'ssh {hots} {cmd}'
expect_error 1 "must contain '{cmd}'" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d5" \
    --hosts h1 --launcher 'ssh {host}'
expect_error 1 "no --launcher template" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d6" --hosts h1,local
expect_error 1 "must match --hosts" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d7" \
    --hosts h1,h2 --launcher 'ssh {host} {cmd}' --threads 2,4,8
expect_error 1 "empty host name" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d8" \
    --hosts "h1,,h2" --launcher 'ssh {host} {cmd}'
expect_error 1 "duplicate host" \
    orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/d9" \
    --hosts h1,h1 --launcher 'ssh {host} {cmd}'

# cache verb misuse.
expect_error 1 "expected a verb" cache
expect_error 1 "unknown verb" cache prune --dir "$TMP/cache"
expect_error 1 "--dir DIR required" cache stats
expect_error 1 "--max-mb N required" cache gc --dir "$TMP/cache"
expect_error 1 "unknown option '--strict'" cache stats --dir x --strict
# A MiB count whose bytes overflow std::size_t (2^44 MiB = 2^64 bytes)
# is refused before any store is opened or worker launched; unchecked,
# it wrapped to a bound of zero bytes (or 1 MiB for 2^44 + 1).
"$BIN" sweep --plan "$TMP/one_cell.sweep" --out "$TMP/one_cell.csv" \
    --cache-dir "$TMP/cache"
TOO_MANY_MIB=17592186044416
expect_error 1 "--cache-max-mb $TOO_MANY_MIB MiB does not fit in a byte count" \
    sweep --plan "$TMP/one_cell.sweep" --out "$TMP/one_cell.csv" \
    --cache-dir "$TMP/cache" --cache-max-mb "$TOO_MANY_MIB"
expect_error 1 "--cache-max-mb $TOO_MANY_MIB MiB does not fit in a byte count" \
    orchestrate --plan "$TMP/one_cell.sweep" --out-dir "$TMP/big_cache" \
    --cache-dir "$TMP/cache" --cache-max-mb "$TOO_MANY_MIB"
expect_error 1 "--max-mb $TOO_MANY_MIB MiB does not fit in a byte count" \
    cache gc --dir "$TMP/cache" --max-mb "$TOO_MANY_MIB"
# 2^44 - 1 MiB still fits, and bounds nothing.
"$BIN" cache gc --dir "$TMP/cache" --max-mb 17592186044415 > /dev/null
if [ -e "$TMP/big_cache" ] ||
    ! "$BIN" cache stats --dir "$TMP/cache" | grep -q ": 1 segment(s)"; then
  echo "FAIL: a refused cache size touched the store or the run dir" >&2
  exit 1
fi

echo "cli shard+merge smoke OK"
