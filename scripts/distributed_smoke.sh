#!/bin/sh
# Distributed-orchestration smoke (registered as ctest
# `cli/distributed_smoke` and run by CI): the pluggable transport
# layer, verified shard fetch, and host-failure model exercised end to
# end against the real binary — a 3-"host" localhost fleet whose
# "remote" launches are plain subshells, so every network behaviour is
# simulated deterministically on one machine.
#
#   1. a clean fleet (`--hosts h1,h2,h3 --launcher ... --fetch ...`)
#      merges byte-identical to the single-process sweep,
#   2. the same fleet under `--chaos-seed` — refused launches, torn and
#      stalled transfers, flapping hosts — still converges to the same
#      bytes, the manifest classifies every transport failure, and the
#      run-summary tally matches the seed's pinned one,
#   3. a fleet with one permanently refusing host degrades onto the
#      survivors (quarantine audit, identical bytes),
#   4. a fleet with every host dead stops with exit 1 and a resumable
#      manifest; resuming onto a healthy fleet completes the run,
#   5. killing one host after the fact (its shard files lost) and
#      resuming recomputes exactly the lost shards, nothing else,
#   6. a one-host fleet whose first three launches are refused audits
#      quarantine, probe and recover in that order and merges the same
#      bytes,
#   7. the clean fleet with `--trace-dir` fetches every finished
#      attempt's trace and metrics back over `--fetch`, with its shard,
#      in one fetch child: the timeline holds one host-labelled lane
#      and one `fetch` span per attempt, and no `.remote` copy is left
#      behind; it logs its run-summary wall next to section 1's
#      (informational, not a gate),
#   8. section 2's storm with `--trace-dir` merges the same bytes,
#      reaches the same pinned tally, logs as many transfer faults,
#      writes the timeline and the metrics rollup, and leaves no
#      `.remote` copy of a rejected attempt's files behind,
#   9. a `--shards 2 --workers 4` fleet and its resume without
#      `--shards` launch their workers with the same default
#      `--threads` (checked on 4 or more online CPUs).
#
# usage: distributed_smoke.sh <railcorr-binary>
set -eu

BIN="$1"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# The same cheap 64-cell grid as chaos_smoke.sh.
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

# A stand-in for ssh: drop the host argument, run the quoted worker
# command in a local subshell. The {cmd} placeholder expands to one
# shell-quoted word, exactly the `ssh host 'cmd...'` calling shape.
cat > "$TMP/fake_launch.sh" <<'EOF'
#!/bin/sh
shift
exec /bin/sh -c "$1"
EOF
# Same, but hosts named bad* refuse every launch with ssh's own
# connection-failure code (255) — a dead machine.
cat > "$TMP/refuse_launch.sh" <<'EOF'
#!/bin/sh
case "$1" in bad*) exit 255 ;; esac
shift
exec /bin/sh -c "$1"
EOF
chmod +x "$TMP/fake_launch.sh" "$TMP/refuse_launch.sh"

LAUNCH="$TMP/fake_launch.sh {host} {cmd}"
REFUSE="$TMP/refuse_launch.sh {host} {cmd}"
FETCH='cp {remote} {local}'

# --- 1: a clean fleet is invisible in the output bytes ----------------
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/clean" \
    --hosts h1,h2,h3 --launcher "$LAUNCH" --fetch "$FETCH" \
    --workers 3 --timeout 120 2> "$TMP/clean.log"
if ! cmp "$TMP/clean/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: clean-fleet merge differs from the single-process sweep" >&2
  exit 1
fi

# --- 2: network chaos must converge byte-identically ------------------
# Seed 7 over 3 hosts schedules refused launches, host flaps
# (connection-lost), torn and stalled transfers, and worker stalls.
# Pinned so failures reproduce; any seed must converge.
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/run" \
    --hosts h1,h2,h3 --launcher "$LAUNCH" --fetch "$FETCH" \
    --fetch-timeout 2 --workers 3 --retries 3 --timeout 120 \
    --stall-timeout 2 --chaos-seed 7 2> "$TMP/chaos.log"

if ! grep -q "chaos: shard" "$TMP/chaos.log"; then
  echo "FAIL: chaos schedule injected no faults (seed too clean?)" >&2
  exit 1
fi
if ! cmp "$TMP/run/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: chaos-fleet merge differs from the single-process sweep" >&2
  exit 1
fi
MANIFEST="$TMP/run/orchestrate.manifest"
# The fetched-but-corrupt path: rejected by the integrity check,
# audited, recomputed — never trusted.
if ! grep -q "corrupt-transfer$" "$MANIFEST"; then
  echo "FAIL: no corrupt-transfer audit despite torn-transfer faults" >&2
  exit 1
fi
# Transport failures are classified, not lumped into worker errors.
for cause in launch-refused connection-lost; do
  if ! grep -q " $cause\$" "$MANIFEST"; then
    echo "FAIL: no $cause fail line in the chaos manifest" >&2
    exit 1
  fi
done
# With one attempt per shard the storm depends only on the seed, so its
# tally is pinned. Which host collects consecutive transport failures
# depends on reap order, so host-health audits are checked in section 6.
TALLY="attempts=17 retried=11 [connection-lost=3 corrupt-transfer=3 exit-137=1 launch-refused=1 stalled=3]"
if ! grep -qF "$TALLY" "$MANIFEST"; then
  echo "FAIL: seed-7 fleet tally differs from the pinned '$TALLY':" >&2
  grep "^info run summary" "$MANIFEST" >&2
  exit 1
fi

# --- 3: one dead host degrades the fleet, not the run -----------------
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/degraded" \
    --hosts bad1,h2,h3 --launcher "$REFUSE" --fetch "$FETCH" \
    --workers 3 --timeout 120 2> "$TMP/degraded.log"
if ! cmp "$TMP/degraded/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: degraded-fleet merge differs from the single-process sweep" >&2
  exit 1
fi
if ! grep -q "^host bad1 quarantine\$" "$TMP/degraded/orchestrate.manifest"
then
  echo "FAIL: refusing host was never quarantined" >&2
  exit 1
fi

# --- 4: an all-dead fleet stops resumably, never hangs ----------------
set +e
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/dead" \
    --hosts bad1,bad2 --launcher "$REFUSE" --fetch "$FETCH" \
    --workers 2 --timeout 120 2> "$TMP/dead.log"
code=$?
set -e
if [ "$code" -ne 1 ]; then
  echo "FAIL: all-dead fleet exited $code, expected 1" >&2
  exit 1
fi
deaths="$(grep -c "^host bad[0-9]* dead\$" "$TMP/dead/orchestrate.manifest")"
if [ "$deaths" -ne 2 ]; then
  echo "FAIL: expected 2 host-dead audits, found $deaths" >&2
  exit 1
fi
if ! grep -q -- "--resume" "$TMP/dead.log"; then
  echo "FAIL: the all-dead error does not point at --resume" >&2
  exit 1
fi
# The fleet recovered (here: replaced): resume finishes the run.
"$BIN" orchestrate --resume "$TMP/dead" \
    --hosts h1,h2,h3 --launcher "$LAUNCH" --fetch "$FETCH" \
    --workers 3 --timeout 120 2> "$TMP/dead_resume.log"
if ! cmp "$TMP/dead/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: resumed all-dead run differs from the single-process sweep" >&2
  exit 1
fi

# --- 5: resume recomputes only a killed host's lost shards ------------
# Simulate losing one machine (and the shards it held) after the run:
# the durable shard files vanish, the manifest still says done.
rm "$TMP/run/shard_1.csv" "$TMP/run/shard_4.csv" "$TMP/run/merged.csv"
"$BIN" orchestrate --resume "$TMP/run" \
    --hosts h1,h2,h3 --launcher "$LAUNCH" --fetch "$FETCH" \
    --workers 3 --timeout 120 2> "$TMP/lost.log"
if ! grep -q "re-running" "$TMP/lost.log"; then
  echo "FAIL: resume did not reclassify the lost shards" >&2
  exit 1
fi
launches="$(grep -c "launch shard" "$TMP/lost.log")"
if [ "$launches" -ne 2 ]; then
  echo "FAIL: resume launched $launches workers, expected exactly 2" >&2
  exit 1
fi
if ! cmp "$TMP/run/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: lost-shard resume differs from the single-process sweep" >&2
  exit 1
fi

# --- 6: quarantine, probe, recover — deterministically ----------------
# One worker on one host whose first three launches are refused (a
# counter file next to the launcher tracks them): the third consecutive
# refusal quarantines h1, the re-probe succeeds, and h1 recovers.
cat > "$TMP/flaky_launch.sh" <<'EOF'
#!/bin/sh
count="$(dirname "$0")/flaky.count"
n="$(cat "$count" 2>/dev/null || echo 0)"
echo $((n + 1)) > "$count"
if [ "$n" -lt 3 ]; then exit 255; fi
shift
exec /bin/sh -c "$1"
EOF
chmod +x "$TMP/flaky_launch.sh"
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/flaky" \
    --hosts h1 --launcher "$TMP/flaky_launch.sh {host} {cmd}" \
    --workers 1 --timeout 120 2> "$TMP/flaky.log"
if ! cmp "$TMP/flaky/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: flaky-host merge differs from the single-process sweep" >&2
  exit 1
fi
audit="$(grep "^host h1 " "$TMP/flaky/orchestrate.manifest" | tr '\n' ';')"
if [ "$audit" != "host h1 quarantine;host h1 probe;host h1 recover;" ]; then
  echo "FAIL: expected quarantine, probe, recover audits; got '$audit'" >&2
  exit 1
fi

# --- 7: a traced fleet fetches every remote lane back -----------------
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/traced" \
    --hosts h1,h2,h3 --launcher "$LAUNCH" --fetch "$FETCH" \
    --workers 3 --timeout 120 --trace-dir "$TMP/traced/telemetry" \
    2> "$TMP/traced.log"
if ! cmp "$TMP/traced/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: traced-fleet merge differs from the single-process sweep" >&2
  exit 1
fi
TRACE="$TMP/traced/telemetry/trace.json"
METRICS="$TMP/traced/telemetry/run_metrics.json"
for f in "$TRACE" "$METRICS"; do
  if [ ! -s "$f" ]; then
    echo "FAIL: traced fleet did not write $f" >&2
    exit 1
  fi
done
attempts="$(sed -n 's/^info run summary: .* attempts=\([0-9]*\) .*/\1/p' \
    "$TMP/traced/orchestrate.manifest")"
if [ -z "$attempts" ] || [ "$attempts" -eq 0 ]; then
  echo "FAIL: traced fleet recorded no attempts in its run summary" >&2
  exit 1
fi
# Lanes are process_name metadata rows: the orchestrator's, then one
# per finished attempt, named after its trace file and its host.
lanes="$(grep -o '"name":"process_name"' "$TRACE" | wc -l)"
host_lanes="$(grep -o '"name":"shard_[0-9]*\.attempt[0-9]* (h[123])"' \
    "$TRACE" | wc -l)"
if ! grep -q '"args":{"name":"orchestrator"}' "$TRACE" ||
    [ "$lanes" -ne $((attempts + 1)) ] || [ "$host_lanes" -ne "$attempts" ]
then
  echo "FAIL: expected the orchestrator lane plus $attempts host-labelled" \
       "lane(s); got $lanes lane(s), $host_lanes host-labelled" >&2
  exit 1
fi
# An attempt's shard, metrics and trace come back through one fetch
# child, so the orchestrator's lane holds one fetch span per attempt.
fetches="$(grep -o '"name":"fetch"' "$TRACE" | wc -l)"
if [ "$fetches" -ne "$attempts" ]; then
  echo "FAIL: expected one fetch span per attempt ($attempts); got" \
       "$fetches" >&2
  exit 1
fi
# Every worker's metrics came back too: one source each, plus the
# orchestrator's own registry.
if ! grep -q "\"sources\":$((attempts + 1))," "$METRICS"; then
  echo "FAIL: run_metrics.json does not roll up $((attempts + 1)) sources" >&2
  exit 1
fi
leftover="$(find "$TMP/traced" -name '*.remote')"
if [ -n "$leftover" ]; then
  echo "FAIL: remote telemetry copies left behind: $leftover" >&2
  exit 1
fi
wall() { sed -n 's/^info run summary: wall=\([^ ]*\) .*/\1/p' "$1"; }
echo "traced fleet wall $(wall "$TMP/traced/orchestrate.manifest")," \
     "clean fleet wall $(wall "$TMP/clean/orchestrate.manifest")" \
     "(run summaries; informational)"

# --- 8: a traced storm: same bytes, same tally, no remote copy --------
"$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/traced_run" \
    --hosts h1,h2,h3 --launcher "$LAUNCH" --fetch "$FETCH" \
    --fetch-timeout 2 --workers 3 --retries 3 --timeout 120 \
    --stall-timeout 2 --chaos-seed 7 \
    --trace-dir "$TMP/traced_run/telemetry" 2> "$TMP/traced_chaos.log"
if ! cmp "$TMP/traced_run/merged.csv" "$TMP/single.csv"; then
  echo "FAIL: traced chaos-fleet merge differs from the single-process" \
       "sweep" >&2
  exit 1
fi
if ! grep -qF "$TALLY" "$TMP/traced_run/orchestrate.manifest"; then
  echo "FAIL: traced seed-7 fleet tally differs from the pinned" \
       "'$TALLY':" >&2
  grep "^info run summary" "$TMP/traced_run/orchestrate.manifest" >&2
  exit 1
fi
# A traced attempt's fetch child pulls three files, yet the storm names
# each transfer fault once, as the untraced one does.
faults="$(grep -c 'fetch fault' "$TMP/chaos.log" || true)"
traced_faults="$(grep -c 'fetch fault' "$TMP/traced_chaos.log" || true)"
if [ "$traced_faults" -ne "$faults" ]; then
  echo "FAIL: the traced storm logged $traced_faults fetch fault line(s)," \
       "the untraced one $faults" >&2
  exit 1
fi
for f in trace.json run_metrics.json; do
  if [ ! -s "$TMP/traced_run/telemetry/$f" ]; then
    echo "FAIL: traced chaos fleet did not write $f" >&2
    exit 1
  fi
done
leftover="$(find "$TMP/traced_run" -name '*.remote')"
if [ -n "$leftover" ]; then
  echo "FAIL: traced chaos fleet left remote copies behind: $leftover" >&2
  exit 1
fi

# --- 9: a resume splits cores like the run it resumes ----------------
# Without --threads, the cores are divided by the fleet's real width:
# no more workers run at once than the run has shards. A resume without
# --shards takes the count from the manifest, so its workers must get
# the same --threads as the fresh run's. Below 4 CPUs both widths
# divide down to 1 thread and the check would prove nothing.
if [ "$(getconf _NPROCESSORS_ONLN)" -ge 4 ]; then
  # The fake ssh, logging each worker command it runs.
  cat > "$TMP/logging_launch.sh" <<'EOF'
#!/bin/sh
echo "$2" >> "$(dirname "$0")/launches.log"
shift
exec /bin/sh -c "$1"
EOF
  chmod +x "$TMP/logging_launch.sh"
  LOGGED="$TMP/logging_launch.sh {host} {cmd}"
  "$BIN" orchestrate --plan "$TMP/plan.sweep" --out-dir "$TMP/split" \
      --hosts h1,h2 --launcher "$LOGGED" --fetch "$FETCH" \
      --workers 4 --shards 2 --timeout 120 2> "$TMP/split.log"
  mv "$TMP/launches.log" "$TMP/fresh_launches.log"
  rm "$TMP/split/shard_1.csv" "$TMP/split/merged.csv"
  "$BIN" orchestrate --resume "$TMP/split" \
      --hosts h1,h2 --launcher "$LOGGED" --fetch "$FETCH" \
      --workers 4 --timeout 120 2> "$TMP/split_resume.log"
  threads() {
    sed -n "s/.*'--threads' '\([0-9]*\)'.*/\1/p" "$1" | sort -u | tr '\n' ' '
  }
  fresh="$(threads "$TMP/fresh_launches.log")"
  resumed="$(threads "$TMP/launches.log")"
  if [ -z "$fresh" ] || [ "$fresh" != "$resumed" ]; then
    echo "FAIL: resumed workers got --threads '$resumed', the fresh" \
         "run's got '$fresh'" >&2
    exit 1
  fi
  if ! cmp "$TMP/split/merged.csv" "$TMP/single.csv"; then
    echo "FAIL: resumed 2-shard fleet differs from the single-process" \
         "sweep" >&2
    exit 1
  fi
else
  echo "skipping the resume thread-split check: fewer than 4 CPUs online"
fi

echo "cli distributed smoke OK"
