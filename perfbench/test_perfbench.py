#!/usr/bin/env python3
"""Guards for the repository benchmark itself.

    python3 perfbench/test_perfbench.py            # all workloads, ~5 min
    python3 perfbench/test_perfbench.py -k serve   # a subset

- Determinism: two runs of a workload at one seed report bit-identical
  model_us_per_op, modeled per-layer metrics, window op counts and trace
  digest; a timed run agrees with the traced runs; another seed draws a
  different trace.
- Correctness: every run verifies every answer and reports no failures.
- Thread layout: the layout fits in the CPUs the run may use, and a
  layout that does not fit is refused.
- A directory holding only BENCHMARK.json and perfbench/ cannot build,
  and the benchmark exits non-zero there without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Per-layer metrics taken from modeled time or from deterministic counts:
# identical in every run of one seed.
MODELED = [
    "core.spmv_exec.model_us", "core.spmv.model_us", "core.spmm8.model_us",
    "core.spadd.model_us", "core.spgemm.model_us",
    "core.spmv.partition_us", "core.spmv.reduce_us", "core.spmv.update_us",
    "core.spgemm.setup_us", "core.spgemm.block_sort_us", "core.spgemm.global_sort_us",
    "core.spgemm.product_compute_us", "core.spgemm.product_reduce_us",
    "vgpu.launches_per_op", "vgpu.bytes_per_op", "vgpu.achieved_bw_frac",
    "autotune.trials", "autotune.nondefault_wins",
    "serve.batch_size_mean", "serve.batched_frac", "serve.plan_cache.hit_ratio",
    "serve.failed", "serve.retries",
    "shard.halo_bytes", "shard.halo_us", "shard.imbalance",
]
WINDOW_COUNTS = ["cycle_ops", "window_ops", "window_spmv", "window_spadd", "window_spgemm"]


def run(workload, seed, trace, cmd_prefix=(), cwd=ROOT, env=None):
    cmd = list(cmd_prefix) + RUN + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


class Determinism(unittest.TestCase):
    def check(self, workload):
        runs = {}
        for key, seed, trace in (("a", 7, 1), ("b", 7, 1), ("timed", 7, 0), ("other", 8, 0)):
            rc, report, result = run(workload, seed, trace)
            self.assertEqual(rc, 0, f"{workload} seed {seed} trace {trace} failed")
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            layout = report["layout"]
            self.assertLessEqual(layout["total_threads"], layout["nproc"])
            runs[key] = (report, result)
        (a, a_res), (b, b_res) = runs["a"], runs["b"]
        timed, timed_res = runs["timed"]
        other = runs["other"][0]

        self.assertEqual(a["info"]["model_us_per_op"], b["info"]["model_us_per_op"])
        self.assertEqual(a["info"]["model_us_per_op"], timed_res["metrics"]["model_us_per_op"]["value"])
        for name in MODELED:
            self.assertEqual(a_res["metrics"][name]["value"], b_res["metrics"][name]["value"], name)
        for name in WINDOW_COUNTS:
            if name in a["info"]:
                self.assertEqual(a["info"][name], b["info"][name], name)
                self.assertEqual(a["info"][name], timed["info"][name], name)
        self.assertEqual(a["trace_digest"], b["trace_digest"])
        self.assertEqual(a["trace_digest"], timed["trace_digest"])
        self.assertNotEqual(timed["trace_digest"], other["trace_digest"])
        self.assertEqual(a_res["metrics"]["serve.failed"]["value"], 0)
        self.assertEqual(a_res["metrics"]["serve.retries"]["value"], 0)
        return a_res["metrics"]

    def test_kernels(self):
        m = self.check("kernels")
        self.assertGreater(m["core.spgemm.model_us"]["value"], 0)
        self.assertEqual(m["serve.batch_size_mean"]["value"], 0)  # no engine on this path

    def test_serve_spmv(self):
        m = self.check("serve_spmv")
        self.assertGreater(m["serve.batch_size_mean"]["value"], 1)
        self.assertEqual(m["shard.halo_bytes"]["value"], 0)  # legacy mode: no shards

    def test_serve_fleet(self):
        m = self.check("serve_fleet")
        for name in ("shard.halo_bytes", "durability.register_ms", "autotune.trials",
                     "serve.matrix_op.settle_ms_p50"):
            self.assertGreater(m[name]["value"], 0, name)


class Guards(unittest.TestCase):
    @unittest.skipUnless(shutil.which("taskset") and len(os.sched_getaffinity(0)) >= 2,
                         "needs taskset and two CPUs")
    def test_layout_that_does_not_fit_is_refused(self):
        cpus = sorted(os.sched_getaffinity(0))[:2]
        prefix = ["taskset", "-c", ",".join(map(str, cpus))]
        rc, report, result = run("serve_spmv", 1, 0, cmd_prefix=prefix)
        self.assertEqual(rc, 3)  # client + dispatcher + 2 workers > 2 CPUs
        self.assertIsNone(result)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kernels",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
