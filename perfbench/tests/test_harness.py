#!/usr/bin/env python3
"""Self-test of the repository benchmark, on tiny inputs.

    python3 perfbench/tests/test_harness.py

Runs every workload with --tiny (atlflood corpus, R-MAT scale 10, one
worker) untraced and traced, and asserts that each run exits 0, prints a
well-formed result with every named metric and its unit, and ran and passed
every output check. Also checks BENCHMARK.json against run.py's metric
tables, the oversubscription guard, and that the benchmark fails cleanly
where the GraphCT sources are missing. Takes well under a minute once the
program is built.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

CHECKS = {
    run.P: {"funnel_repeatable", "top15_vs_fine_reference", "funnel.tweets",
            "funnel.users", "funnel.unique_interactions", "funnel.lwcc_vertices",
            "funnel.lwcc_edges", "funnel.mutual_vertices", "funnel.mutual_edges",
            "funnel.mutual_lwcc_vertices"},
    run.K: {"kernels_repeatable", "brandes_identity", "components_vs_generator",
            "vertices_vs_generator"},
    run.S: {"payloads_match_serial"},
    run.D: {"bitwise_vs_fine"},
}
TRACED_CHECKS = {run.P: {"stage_spans_cover_pass"}, run.K: {"stage_spans_cover_pass"}}


def bench(*args):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_benchmark_json_matches_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [run.P, run.K, run.S, run.D])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, _ in run.PER_LAYER])
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def check_run(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        table = (run.END_TO_END if not trace
                 else [(n, u) for n, u, _ in run.PER_LAYER])
        self.assertEqual(list(result["metrics"]), [n for n, _ in table])
        for name, unit in table:
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertTrue(math.isfinite(metric["value"]), name)
            self.assertTrue(any(l.split()[:1] == [name] for l in lines), name)
        if not trace:
            for name, _ in table:
                self.assertGreater(result["metrics"][name]["value"], 0.0, name)
        else:
            for name, _, where in run.PER_LAYER:
                if workload not in where:
                    self.assertEqual(result["metrics"][name]["value"], 0.0, name)

        ran = {l.split()[1]: l.split()[2] for l in lines if l.startswith("check ")}
        want = CHECKS[workload] | (TRACED_CHECKS.get(workload, set()) if trace else set())
        self.assertEqual(set(ran), want)
        self.assertTrue(all(v.startswith("ok") for v in ran.values()), ran)
        host = json.loads(next(l for l in lines if l.startswith("host "))[5:])
        for key in ("nproc", "hw_concurrency", "omp_threads", "cpu_model",
                    "caches", "commit", "src_sha256"):
            self.assertIn(key, host)

    def test_pipeline(self):
        self.check_run(run.P, 0)
        self.check_run(run.P, 1)

    def test_kernels(self):
        self.check_run(run.K, 0)
        self.check_run(run.K, 1)

    def test_server(self):
        self.check_run(run.S, 0)
        self.check_run(run.S, 1)

    def test_dist(self):
        self.check_run(run.D, 0)
        self.check_run(run.D, 1)

    def test_oversubscription_fails(self):
        proc = subprocess.run(
            [str(run.PROGRAM), "dist", "--graph", "unused.bin", "--workers",
             "4096", "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("oversubscribed", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_sources(self):
        bare = run.BUILD_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", run.K,
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
