#!/usr/bin/env python3
"""End-to-end sweep benchmark for the railcorr CLI.

Run from the repository root:

    python3 perfbench/run.py --workload grid_shared --seed 0 --seconds 10 --trace 0

It builds the `railcorr` CLI and the in-process replay tool from source
(Release, into `.bench_build/`), writes the workload's sweep plan from the
seed, and then runs operations in a closed loop for `--seconds` seconds.
One operation is one fresh `railcorr` process taking the plan file to a
merged CSV on disk; every output is checked byte for byte against an
oracle: the pinned FNV-1a digest for seed 0, the naive per-cell
`core::evaluate_sweep_cell` rows for any other seed, and for the fleet
workloads also the single-process `sweep` of the same plan.

With `--trace 0` the last stdout line is the JSON result with every
end-to-end metric of BENCHMARK.json. With `--trace 1` traced and untraced
operations alternate (their outputs must be identical), and the replay
tool attributes the work to layers; the result then holds every per-layer
metric. Scratch files live in `.bench_work/` and are removed on exit.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CLI = os.path.join(BUILD_DIR, "railcorr", "railcorr")
REPLAY = os.path.join(BUILD_DIR, "perfbench_replay")

DEFAULT_SEED = 0
OP_TIMEOUT_S = 60.0
# Fleet ops run one single-threaded worker per core of a 4-core box.
FLEET_WORKERS = 4
# Per-thread CPU time of `perfbench_replay calibrate --threads 4` (both
# parts) on a quiet 4-core x86-64 box: the speed time metrics are
# expressed at.
CAL_REF_S = 0.035
CLK_TCK = os.sysconf("SC_CLK_TCK")
# Op time between two calibrations (about a tenth of the run calibrates).
CAL_EVERY_S = 0.6


def grid(start, step, count, fmt="{:g}"):
    return [fmt.format(start + step * i) for i in range(count)]


# Axis pools seeded plans draw from; seed 0 uses each axis's default list.
LP_POOL = grid(28.0, 0.5, 37)          # 28 .. 46 dBm
HP_POOL = grid(54.0, 0.5, 33)          # 54 .. 70 dBm
TPH_POOL = grid(1, 1, 20)              # 1 .. 20 trains/h
NF_POOL = grid(3.0, 0.5, 19)           # 3 .. 12 dB
KT_POOL = grid(0.08, 0.01, 15, "{:.2f}")  # 0.08 .. 0.22
SEED_POOL = range(1, 2**31)

# Each workload: base scenario, axes as (key, seed-0 values, pool), how an
# operation runs, and the fixed percentile its tail latency reports.
WORKLOADS = {
    "grid_shared": {
        "base": "paper",
        "axes": [
            ("radio.lp_eirp_dbm", grid(30, 2, 8), LP_POOL),
            ("timetable.trains_per_hour", grid(2, 2, 8), TPH_POOL),
            ("radio.hp_eirp_dbm", ["55", "58", "61", "64"], HP_POOL),
        ],
        "fleet": False, "sizing": False, "cache": None,
        "threads": 4, "workers": 1, "tail_pct": 75, "setup_reps": 5,
    },
    "radio_distinct_fleet": {
        "base": "long-corridor",
        "axes": [
            ("radio.lp_eirp_dbm", grid(30, 2, 8), LP_POOL),
            ("radio.hp_eirp_dbm", ["55", "58", "61", "64"], HP_POOL),
            ("link.noise.nf_repeater_db", grid(4, 1, 8), NF_POOL),
        ],
        "fleet": True, "sizing": False, "cache": "cold",
        "threads": 1, "workers": FLEET_WORKERS, "tail_pct": 75, "setup_reps": 5,
    },
    "sizing_climate": {
        "base": "arctic-climate",
        "axes": [
            ("sizing.seed", grid(1, 1, 4), SEED_POOL),
            ("sizing.weather.kt_sigma", ["0.10", "0.13", "0.16", "0.19"], KT_POOL),
            ("timetable.trains_per_hour", grid(4, 4, 4), TPH_POOL),
        ],
        "fleet": False, "sizing": True, "cache": None,
        "threads": 4, "workers": 1, "tail_pct": 75, "setup_reps": 5,
    },
    "resweep_warm": {
        "base": "paper",
        "axes": [
            ("radio.lp_eirp_dbm", grid(30, 1, 16), LP_POOL),
            ("radio.hp_eirp_dbm", grid(55, 1, 16), HP_POOL),
            ("timetable.trains_per_hour", grid(1, 1, 16), TPH_POOL),
        ],
        "fleet": True, "sizing": False, "cache": "warm",
        "threads": 1, "workers": FLEET_WORKERS, "tail_pct": 90, "setup_reps": 3,
    },
}


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A condition under which the benchmark must not report a result."""


def log_failure(why, result):
    """Say on stderr why an op failed, with the tail of its output."""
    log(f"op failed: {why} after {result.wall_s:.3f} s; output ends:\n"
        f"{result.stdout[-1500:]}")


# ------------------------------------------------------------------ plans --

def plan_axes(workload, seed):
    """Axis (key, values) of the workload's plan for `seed`.

    Seed 0 is the canonical plan. Any other seed draws each axis's values
    from the axis's fixed pool, keeping the value count, so the cell count
    and the sharing structure (distinct ISD-search inputs and weather
    tuples per cell) do not depend on the seed.
    """
    axes = []
    rng = random.Random(f"{workload}:{seed}")
    for key, default, pool in WORKLOADS[workload]["axes"]:
        if seed == DEFAULT_SEED:
            values = list(default)
        else:
            drawn = rng.sample(pool, len(default))
            values = sorted((str(v) for v in drawn), key=float)
        axes.append((key, values))
    return axes


def plan_text(workload, seed):
    lines = [f"base = {WORKLOADS[workload]['base']}"]
    for key, values in plan_axes(workload, seed):
        lines.append(f"axis {key} = {', '.join(values)}")
    return "\n".join(lines) + "\n"


def plan_cells(workload):
    cells = 1
    for _, default, _ in WORKLOADS[workload]["axes"]:
        cells *= len(default)
    return cells


# ------------------------------------------------------------- processes --

def child_env():
    # RAILCORR_* variables (fault points, thread counts, SIMD/accuracy
    # overrides) must not leak in from the caller's environment.
    return {k: v for k, v in os.environ.items() if not k.startswith("RAILCORR_")}


def stolen_s():
    """CPU time the host has taken from this machine's CPUs so far (the
    `steal` column of /proc/stat; 0 on bare metal)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLK_TCK if len(fields) > 8 else 0.0


class OpResult:
    def __init__(self, rc, wall_s, steal_s, cpu_s, maxrss_kb, stdout):
        self.rc = rc
        self.wall_s = wall_s
        self.steal_s = steal_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout


def kill_session(sid):
    """SIGKILL every process of session `sid`. orchestrate puts each worker
    in a process group of its own, so killing one group is not enough."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # Fields after the parenthesised command: state ppid pgrp session.
                fields = f.read().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid:
                os.kill(int(entry), signal.SIGKILL)
        except (OSError, IndexError, ValueError):
            pass


def run_process(argv, log_path, timeout_s=OP_TIMEOUT_S):
    """Run argv to completion in its own session; return its wall time and
    the rusage of it and every descendant it waited for."""
    with open(log_path, "wb") as out:
        steal = stolen_s()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                start_new_session=True)

        timer = threading.Timer(timeout_s, kill_session, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        steal = stolen_s() - steal
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", errors="replace") as f:
        stdout = f.read()
    return OpResult(proc.returncode, wall, steal, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss, stdout)


def check_call(argv, what):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          stdin=subprocess.DEVNULL, env=child_env(),
                          timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed (exit {proc.returncode}): "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return proc.stdout.decode()


# ----------------------------------------------------------------- build --

def build():
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")

    def cmake(*args):
        return subprocess.run(["cmake", *args], stdout=sys.stderr,
                              stderr=sys.stderr,
                              stdin=subprocess.DEVNULL).returncode == 0

    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    while True:
        configured = os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt"))
        if not configured and not cmake("-S", HERE, "-B", BUILD_DIR,
                                        "-DCMAKE_BUILD_TYPE=Release"):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed (are the railcorr "
                             "sources next to perfbench/?)")
        if cmake("--build", BUILD_DIR, "-j", jobs, "--target", "railcorr_cli",
                 "perfbench_replay"):
            return
        if not configured:
            raise BenchError("build failed")
        # A build tree left by another checkout or toolchain: start afresh.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)


class Speed:
    """How fast this machine's cores and memory run during the run, from
    a fixed kernel that shares no code with the program under test.

    On a shared host the cores slow down by tens of percent over minutes
    (busy neighbours), and the host also steals whole time slices from
    the VM. Time metrics are reported at the reference core speed and
    ops the host stole time from are left out (see `unstolen`).
    """

    def __init__(self):
        self.samples = []
        self.since = 0.0

    def sample(self):
        out = check_call([REPLAY, "calibrate", "--threads", "4"], "calibration")
        sample = json.loads(out)
        self.samples.append(sample["fp_s"] + sample["mem_s"])
        self.since = 0.0

    def tick(self, op_s):
        self.since += op_s
        if self.since >= CAL_EVERY_S:
            self.sample()

    def slowdown(self):
        """Calibration CPU time over the reference (> 1: slower machine)."""
        return statistics.median(self.samples) / CAL_REF_S


def unstolen(results, min_keep):
    """The ops during which the host stole no time from this machine's
    CPUs (every op on bare metal): a stolen slice stalls a parallel op, so
    such ops measure the host, not the program. When fewer than
    `min_keep` ops (at most all) are clean, the least-stolen ones fill up
    to it."""
    clean = sum(r.steal_s == 0 for r in results)
    keep = max(clean, min(len(results), min_keep))
    return sorted(results, key=lambda r: r.steal_s)[:keep]


def busy_wall(result):
    """An op's wall time less the time stolen from the CPUs it kept busy
    (an overestimate of its delay when slices on two CPUs overlap)."""
    return max(result.wall_s - result.steal_s, 0.5 * result.wall_s)


def run_context():
    context = json.loads(check_call([REPLAY, "context"], "context probe"))
    context["nproc"] = len(os.sched_getaffinity(0))
    build_type = "unknown"
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    context["build_type"] = build_type
    return context


# ---------------------------------------------------------------- oracle --

def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def split_trailer(document):
    """(body, trailer hex) of a trailered document, or (None, None)."""
    if not document.endswith(b"\n"):
        return None, None
    cut = document.rfind(b"\n", 0, len(document) - 1) + 1
    match = re.fullmatch(rb"@railcorr-crc ([0-9a-f]{16})\n", document[cut:])
    if match is None:
        return None, None
    return document[:cut], match.group(1).decode()


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


class Oracle:
    """The expected merged output: a pinned digest, or known body bytes."""

    def __init__(self, cells, digest=None, body=None):
        self.cells = cells
        self.body = body
        self.digest = digest if body is None else fnv1a64(body)

    def check(self, path):
        """Cells in the verified output at `path`, or 0 when it is wrong."""
        try:
            with open(path, "rb") as f:
                document = f.read()
        except OSError:
            return 0
        body, digest = split_trailer(document)
        if body is None or digest != self.digest:
            return 0
        if self.body is None:
            # First output matching a pinned digest: hash it once, then
            # later outputs compare byte for byte.
            if fnv1a64(body) != digest:
                return 0
            self.body = body
        return self.cells if body == self.body else 0

    def write(self, path):
        if self.body is None:
            raise BenchError("no set-up output matched the oracle")
        with open(path, "wb") as f:
            f.write(self.body + f"@railcorr-crc {self.digest}\n".encode())


# ------------------------------------------------------------ operations --

class Workload:
    def __init__(self, name, seed, work_dir):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work_dir
        self.cells = plan_cells(name)
        self.plan = os.path.join(work_dir, "plan.sweep")
        with open(self.plan, "w") as f:
            f.write(plan_text(name, seed))
        self.store = os.path.join(work_dir, "store")
        self.ops = 0
        self.oracle = None

    def fresh_dir(self, tag):
        self.ops += 1
        path = os.path.join(self.work, f"{tag}{self.ops}")
        os.makedirs(path)
        return path

    def sweep_argv(self, out, threads):
        argv = [CLI, "sweep", "--plan", self.plan, "--out", out,
                "--threads", str(threads), "--accuracy", "bitexact"]
        if self.spec["sizing"]:
            argv.append("--include-sizing")
        return argv

    def fleet_argv(self, run_dir, store):
        argv = [CLI, "orchestrate", "--plan", self.plan, "--out-dir", run_dir,
                "--workers", str(FLEET_WORKERS),
                "--threads", ",".join(["1"] * FLEET_WORKERS),
                "--accuracy", "bitexact"]
        if store is not None:
            argv += ["--cache-dir", store]
        if self.spec["sizing"]:
            argv.append("--include-sizing")
        return argv

    def op(self, traced=False, fleet=None, store=None):
        """One operation. Returns (OpResult, merged path, op dir, trace dir)."""
        fleet = self.spec["fleet"] if fleet is None else fleet
        d = self.fresh_dir("op")
        trace_dir = None
        if fleet:
            if store is None and self.spec["cache"] == "cold":
                store = os.path.join(d, "cache")
            elif store is None and self.spec["cache"] == "warm":
                store = self.store
            argv = self.fleet_argv(os.path.join(d, "run"), store)
            merged = os.path.join(d, "run", "merged.csv")
            if traced:
                trace_dir = os.path.join(d, "trace")
                argv += ["--trace-dir", trace_dir]
        else:
            merged = os.path.join(d, "merged.csv")
            argv = self.sweep_argv(merged, self.spec["threads"])
            if traced:
                trace_dir = d
                argv += ["--trace", os.path.join(d, "sweep.trace"),
                         "--metrics", os.path.join(d, "sweep.metrics.json")]
        result = run_process(argv, os.path.join(d, "op.log"))
        return result, merged, d, trace_dir

    def verified_cells(self, result, merged):
        if result.rc != 0:
            log_failure(f"exit {result.rc}", result)
            return 0
        cells = self.oracle.check(merged)
        if cells == 0:
            log_failure("output differs from the oracle", result)
            return 0
        if self.spec["cache"] is not None and self.spec["fleet"]:
            warm = self.spec["cache"] == "warm"
            if not self.tally_ok(result.stdout, warm):
                hits, misses = cache_tally(result.stdout)
                log_failure(f"cache tally {hits}/{misses} on a "
                            f"{'warm' if warm else 'cold'} store", result)
                return 0
        return cells

    def tally_ok(self, stdout, warm):
        """Whether a fleet op's cache tally fits its store: all hits when
        warm. A cold store starts empty, so its only hits come from a
        speculative twin that opened the store after the shard it races
        had published its segment (the tally keeps the twin's report)."""
        hits, misses = cache_tally(stdout)
        if hits + misses != self.cells:
            return False
        if warm:
            return misses == 0
        shard_cells = -(-self.cells // (2 * FLEET_WORKERS))
        return hits <= speculative_attempts(stdout) * shard_cells

    # ---- set-up

    def reference_body(self):
        """Expected body from the naive per-cell path (any seed)."""
        out = os.path.join(self.work, "reference.csv")
        argv = [REPLAY, "reference", "--plan", self.plan, "--threads", "4",
                "--out", out]
        if self.spec["sizing"]:
            argv.append("--include-sizing")
        check_call(argv, "naive reference")
        with open(out, "rb") as f:
            return f.read()

    def setup_once(self):
        """One timed set-up: the work that must precede steady-state ops.
        Cold store fill for the warm workload; one first op otherwise.
        Returns (OpResult, output verified)."""
        if self.spec["cache"] == "warm":
            shutil.rmtree(self.store, ignore_errors=True)
            result, merged, d, _ = self.op(store=self.store)
            ok = (result.rc == 0 and self.oracle.check(merged) > 0
                  and self.tally_ok(result.stdout, warm=False))
        else:
            result, merged, d, _ = self.op()
            ok = self.verified_cells(result, merged) > 0
        shutil.rmtree(d)
        return result, ok

    def setup(self, speed):
        """Time the set-up `setup_reps` times, checking every set-up output
        (and for the fleet workloads the single-process sweep of the same
        plan) against the oracle. Returns (set-up OpResults, checks,
        failed)."""
        if self.seed == DEFAULT_SEED:
            self.oracle = Oracle(self.cells, digest=load_digests()[self.name])
        else:
            self.oracle = Oracle(self.cells, body=self.reference_body())
        runs = []
        failed = 0
        for _ in range(self.spec["setup_reps"]):
            speed.sample()
            result, ok = self.setup_once()
            runs.append(result)
            failed += not ok
        checks = len(runs)
        if self.spec["fleet"]:
            out = os.path.join(self.work, "single.csv")
            result = run_process(self.sweep_argv(out, 4), out + ".log")
            checks += 1
            failed += result.rc != 0 or self.oracle.check(out) == 0
        return runs, checks, failed


def cache_tally(stdout):
    match = re.search(r"orchestrate: cache (\d+) hit\(s\) / (\d+) miss\(es\)", stdout)
    return (int(match.group(1)), int(match.group(2))) if match else (0, 0)


def speculative_attempts(stdout):
    match = re.search(r"run summary: .*\bspeculative=(\d+)", stdout)
    return int(match.group(1)) if match else 0


def orch_summary(stdout):
    match = re.search(r"\((\d+) attempt\(s\), (\d+) retried, (\d+) speculative", stdout)
    wall = re.search(r"run summary: wall=([0-9.eE+-]+)s", stdout)
    if match is None or wall is None:
        raise BenchError("orchestrate printed no run summary")
    return {"attempts": int(match.group(1)), "retried": int(match.group(2)),
            "speculative": int(match.group(3)), "wall_ms": float(wall.group(1)) * 1e3}


def attempt_spans_ms(trace_dir):
    """Durations of the orchestrator's `attempt` spans in the merged trace."""
    with open(os.path.join(trace_dir, "trace.json")) as f:
        trace = json.load(f)
    return [e["dur"] / 1e3 for e in trace["traceEvents"]
            if e.get("name") == "attempt" and e.get("ph") == "X"]


# --------------------------------------------------------------- metrics --

def median_wall(results):
    return statistics.median(busy_wall(r) for r in results)


def percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(wl, seconds, speed):
    """Closed loop of untraced ops for `seconds`, calibrating between ops.
    Returns the ops' results, with `cells` set to the verified cell count."""
    results = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not results:
        result, merged, d, _ = wl.op()
        result.cells = wl.verified_cells(result, merged)
        shutil.rmtree(d)
        results.append(result)
        speed.tick(result.wall_s)
    return results


def end_to_end(wl, seconds):
    speed = Speed()
    setups, setup_checks, setup_failed = wl.setup(speed)
    results = measure(wl, seconds, speed)
    attempted = len(results) + setup_checks
    failed = setup_failed + sum(r.cells == 0 for r in results)
    core = speed.slowdown()
    clean = unstolen(results, max(10, len(results) // 4))
    clean_setups = unstolen(setups, (len(setups) + 1) // 2)
    walls = [busy_wall(r) for r in clean]
    pct = wl.spec["tail_pct"]
    beyond = len(walls) * (100 - pct) / 100.0
    print(f"latency from the {len(clean)} least-stolen of {len(results)} ops "
          f"({sum(r.steal_s == 0 for r in results)} without host steal); "
          f"op_ms_tail is p{pct} ({beyond:.1f} ops beyond it)")
    print(f"core slowdown {core:.4f} over {len(speed.samples)} calibrations; "
          f"raw op_ms_p50 {median_wall(clean) * 1e3:.3f}, "
          f"raw setup_s {median_wall(clean_setups):.4f}")
    cells = sum(r.cells for r in results)
    metrics = {
        "cells_per_s": statistics.median(r.cells / busy_wall(r) for r in clean) * core,
        "op_ms_p50": median_wall(clean) * 1e3 / core,
        "op_ms_tail": percentile(walls, pct) * 1e3 / core,
        "cpu_s_per_kcell": sum(r.cpu_s for r in results) / max(1, cells) * 1e3 / core,
        "peak_rss_mb": statistics.median(r.maxrss_kb / 1024.0 for r in results),
        "setup_s": median_wall(clean_setups) / core,
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, attempted, failed


def per_layer(wl, seconds):
    _, attempted, failed = wl.setup(Speed())
    expected = os.path.join(wl.work, "expected.csv")
    wl.oracle.write(expected)
    # Alternate untraced and traced ops; tracing must not change a byte.
    plain, traced, fleet_runs = [], [], []
    hits_misses = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        for is_traced in (False, True):
            result, merged, d, trace_dir = wl.op(traced=is_traced)
            attempted += 1
            ok = wl.verified_cells(result, merged) > 0
            failed += not ok
            (traced if is_traced else plain).append(result)
            if ok and wl.spec["fleet"]:
                # The exact counts: from an op no speculative twin
                # perturbed (see Workload.tally_ok).
                if hits_misses is None and speculative_attempts(result.stdout) == 0:
                    hits_misses = cache_tally(result.stdout)
                if is_traced:
                    fleet_runs.append((orch_summary(result.stdout),
                                       attempt_spans_ms(trace_dir)))
            shutil.rmtree(d)
    # Single-process workloads attribute the orchestrator layer on the
    # same plan run through the 4-worker fleet.
    for _ in range(0 if wl.spec["fleet"] else 3):
        result, merged, d, trace_dir = wl.op(traced=True, fleet=True)
        attempted += 1
        if result.rc != 0 or wl.oracle.check(merged) == 0:
            failed += 1
        else:
            fleet_runs.append((orch_summary(result.stdout),
                               attempt_spans_ms(trace_dir)))
        shutil.rmtree(d)
    if not fleet_runs:
        raise BenchError("no traced fleet op succeeded")
    hits, misses = hits_misses or (0, 0)

    replay_dir = os.path.join(wl.work, "replay")
    os.makedirs(replay_dir)
    argv = [REPLAY, "replay", "--plan", wl.plan,
            "--rows", expected,
            "--threads", str(wl.spec["threads"]),
            # orchestrate's default: two shards per worker.
            "--shards", str(2 * FLEET_WORKERS if wl.spec["fleet"] else 1),
            "--work", replay_dir]
    if wl.spec["sizing"]:
        argv.append("--include-sizing")
    replay = json.loads(check_call(argv, "replay").strip().splitlines()[-1])
    replay_ok = (replay.pop("replay.mismatched_rows") == 0
                 and replay.pop("replay.merge_ok") == 1
                 and replay.pop("replay.cache_hits_ok") == 1)
    if not replay_ok:
        log("replay diverged from the program's output")
    shard_s = replay.pop("core.shard_s")
    log(f"replayed shard: {shard_s:.4f} s, stage coverage "
        f"{replay['core.stage_coverage']:.3f}")

    orch_ms = [s["wall_ms"] for s, _ in fleet_runs]
    attempt_max = [max(spans) for _, spans in fleet_runs]
    metrics = dict(replay)
    metrics.update({
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "orch.orchestrate_ms": statistics.median(orch_ms),
        "orch.attempts": statistics.median(s["attempts"] for s, _ in fleet_runs),
        "orch.retried": sum(s["retried"] for s, _ in fleet_runs),
        "orch.speculative": sum(s["speculative"] for s, _ in fleet_runs),
        "orch.attempt_ms_p50": statistics.median(
            [ms for _, spans in fleet_runs for ms in spans]),
        "orch.attempt_ms_max": statistics.median(attempt_max),
        "orch.overhead_ms": statistics.median(
            o - a for o, a in zip(orch_ms, attempt_max)),
        "obs.trace_overhead_frac":
            median_wall(unstolen(traced, 10)) / median_wall(unstolen(plain, 10)) - 1.0,
    })
    return metrics, attempted, failed, replay_ok


# ------------------------------------------------------------------ main --

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    spec = WORKLOADS[args.workload]

    build()
    context = run_context()
    context.update(workload=args.workload, seed=args.seed)
    print("perfbench context: " + json.dumps(context, sort_keys=True), flush=True)
    # Load guard: more runnable threads than cores measures the scheduler.
    demand = spec["threads"] * spec["workers"]
    if demand > context["nproc"]:
        raise BenchError(f"{args.workload} needs {demand} threads but only "
                         f"{context['nproc']} CPUs are available")

    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = Workload(args.workload, args.seed, work)
        if args.trace:
            values, attempted, failed, correct = per_layer(wl, args.seconds)
            declared = bench["per_layer"]
        else:
            values, attempted, failed = end_to_end(wl, args.seconds)
            correct = True
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:34s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
