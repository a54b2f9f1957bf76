#!/usr/bin/env python3
"""Self-tests of the end-to-end sweep benchmark.

Run from the repository root (builds into `.bench_build/` like run.py):

    python3 perfbench/test_perfbench.py

They pin what the benchmark's numbers rest on: seeded plans keep the cell
count and sharing structure, the exact work counts repeat and match hand
values, the warm workload really is all hits, the load guard refuses an
oversubscribed workload, and a checkout without the program's sources
fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def counts(plan_path, sizing):
    argv = [run.REPLAY, "counts", "--plan", plan_path]
    if sizing:
        argv.append("--include-sizing")
    return json.loads(run.check_call(argv, "counts"))


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.WORK_ROOT, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        try:
            os.rmdir(run.WORK_ROOT)
        except OSError:
            pass

    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=run.WORK_ROOT)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def write_plan(self, workload, seed):
        path = os.path.join(self.tmp, f"{workload}-{seed}.sweep")
        with open(path, "w") as f:
            f.write(run.plan_text(workload, seed))
        return path

    def test_seeded_plans_keep_cells_and_sharing(self):
        for workload, spec in run.WORKLOADS.items():
            base = counts(self.write_plan(workload, 0), spec["sizing"])
            self.assertEqual(base["cells"], run.plan_cells(workload))
            for seed in (1, 2, 3):
                self.assertEqual(run.plan_text(workload, seed),
                                 run.plan_text(workload, seed))
                self.assertNotEqual(run.plan_text(workload, seed),
                                    run.plan_text(workload, 0))
                got = counts(self.write_plan(workload, seed), spec["sizing"])
                for key in ("cells", "corridor.isd_search.distinct",
                            "solar.weather_tuples"):
                    self.assertEqual(got[key], base[key], (workload, seed, key))

    def test_grid_shared_work_counts_repeat_and_match_hand_values(self):
        plan = self.write_plan("grid_shared", 0)
        rows = os.path.join(self.tmp, "grid.csv")
        run.check_call([run.CLI, "sweep", "--plan", plan, "--out", rows],
                       "sweep")
        runs = []
        for i in range(2):
            work = os.path.join(self.tmp, f"replay{i}")
            os.makedirs(work)
            out = run.check_call([run.REPLAY, "replay", "--plan", plan,
                                  "--rows", rows, "--threads", "4",
                                  "--shards", "1", "--work", work], "replay")
            runs.append(json.loads(out))
        exact = ("corridor.isd_search.calls", "corridor.isd_search.distinct",
                 "corridor.isd_search.useful_ratio", "rf.link_models",
                 "solar.weather_tuples", "solar.cases", "cache.inserts",
                 "replay.mismatched_rows")
        for key in exact:
            self.assertEqual(runs[0][key], runs[1][key], key)
        self.assertEqual(runs[0]["corridor.isd_search.calls"], 256)
        self.assertEqual(runs[0]["corridor.isd_search.distinct"], 32)
        self.assertEqual(runs[0]["rf.link_models"], 138240)
        self.assertEqual(runs[0]["replay.mismatched_rows"], 0)
        self.assertEqual(runs[0]["replay.merge_ok"], 1)
        self.assertGreaterEqual(runs[0]["core.stage_coverage"], 0.95)

    def test_resweep_warm_is_all_hits(self):
        wl = run.Workload("resweep_warm", 0, self.tmp)
        with mock.patch.dict(run.WORKLOADS["resweep_warm"], setup_reps=1):
            _, _, failed = wl.setup(run.Speed())
        self.assertEqual(failed, 0)
        for _ in range(2):
            result, merged, _, _ = wl.op()
            self.assertEqual(result.rc, 0)
            self.assertEqual(run.cache_tally(result.stdout), (4096, 0))
            self.assertEqual(wl.verified_cells(result, merged), 4096)

    def test_load_guard_refuses_oversubscription(self):
        with mock.patch.object(run.os, "sched_getaffinity",
                               return_value={0, 1}):
            with self.assertRaises(run.BenchError):
                run.main(["--workload", "grid_shared", "--seconds", "1"])

    def test_fails_without_program_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid_shared",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b"\"metrics\"", proc.stdout)


if __name__ == "__main__":
    unittest.main()
