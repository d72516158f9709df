#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the benchmark program
(perfbench/CMakeLists.txt, into .bench_build/), generates the workload's
inputs from --seed with the program's generator subcommands, runs the
measured subcommand in a fresh process, checks its outputs, and prints:

  * a `host {...}` line (processors, OpenMP threads, CPU model, caches,
    commit or source digest) and an `info {...}` line (input sizes, pass
    and sample counts),
  * one `check <name> ok|FAILED: <detail>` line per output check,
  * one line per metric with its unit,
  * last, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes every span to .bench_build/traces/). A failed output check
prints the result with "correct": false and exits 1; a run that cannot be
measured (build failure, invalid open-loop run, crash) exits non-zero
without a result. --tiny shrinks every input for the self-test
(perfbench/tests/test_harness.py); --calibrate measures the server_mixed
miss service time from which its frozen request rate was derived.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
PROGRAM = BUILD_DIR / "perfbench"

# Requests per second offered to server_mixed: about half the job pool's
# BC-miss capacity on the 4-core reference host (miss service 29 ms at 2
# threads, 2 job workers -> 68 misses/s; 34 misses/s at 10 % misses).
# Frozen: changing it changes the workload.
SERVER_RATE = 340.0
# Traced batch runs: the stage spans of a pass must cover the pass to
# within this share (the rest is harness glue between calls).
SPAN_GAP_BOUND = 0.01
PROGRAM_TIMEOUT_S = 150
GEN_TIMEOUT_S = 60

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
]

P, K, S, D = "pipeline_sep1", "rmat_kernels", "server_mixed", "dist_bc"

# Per-layer metrics: (name, unit, workloads that measure it). On the other
# workloads the layer does no work and the value is 0.
PER_LAYER = [
    ("twitter.read_s", "s", {P}),
    ("twitter.build_s", "s", {P}),
    ("graph.undirected_s", "s", {P}),
    ("twitter.filter_s", "s", {P}),
    ("twitter.rank_s", "s", {P}),
    ("twitter.tweets", "count", {P}),
    ("twitter.users", "count", {P}),
    ("twitter.mutual_vertices", "count", {P}),
    ("core.bc_s", "s", {P, K}),
    ("core.bc.mteps", "MTEPS", {P, K}),
    ("core.bc.choose_sources_s", "s", {P, K}),
    ("core.bc.narrow_adjacency_s", "s", {P, K}),
    ("core.bc.accumulate_s", "s", {P, K}),
    ("core.bc.reduce_tree_s", "s", {P, K}),
    ("core.bc.t1_s", "s", {P, K}),
    ("core.kbc_s", "s", {K}),
    ("core.toolkit_load_s", "s", {K, S}),
    ("algs.components_s", "s", {K, S}),
    ("algs.kcore_s", "s", {K, S}),
    ("algs.clustering_s", "s", {K}),
    ("cached_p50_ms", "ms", {S}),
    ("cached_p99_ms", "ms", {S}),
    ("uncached_p50_ms", "ms", {S}),
    ("uncached_p90_ms", "ms", {S}),
    ("served_rps", "1/s", {S}),
    ("server.cached.queue_p99_ms", "ms", {S}),
    ("server.cached.run_p99_ms", "ms", {S}),
    ("server.uncached.queue_p50_ms", "ms", {S}),
    ("server.uncached.run_p50_ms", "ms", {S}),
    ("server.transport_p99_ms", "ms", {S}),
    ("util.result_cache.hit_ratio", "ratio", {S}),
    ("server.busy", "count", {S}),
    ("generator.late_p99_ms", "ms", {S}),
    ("server.load_peak_rss_mb", "MiB", {S}),
    ("dist.spawn_s", "s", {D}),
    ("dist.load_s", "s", {D}),
    ("dist.bc_s", "s", {D}),
    ("dist.steps", "count", {D}),
    ("dist.messages", "count", {D}),
    ("dist.bytes", "bytes", {D}),
    ("dist.local_bc_s", "s", {D}),
    ("dist.step_us", "us", {D}),
    ("obs.trace_overhead_s", "s", {P, K, D}),
    ("obs.span_gap_share", "ratio", {P, K}),
]

# Input sizes: (full, tiny).
SIZES = {
    P: ({"preset": "sep1"}, {"preset": "atlflood"}),
    K: ({"scale": 17}, {"scale": 10}),
    S: ({"scale": 14, "workers": 2, "threads": 2, "rate": SERVER_RATE},
        {"scale": 10, "workers": 1, "threads": 1, "rate": 100.0}),
    D: ({"scale": 14, "workers": 2}, {"scale": 10, "workers": 1}),
}


class BenchError(Exception):
    """The run cannot be measured; exit non-zero without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_process(cmd, timeout, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    (workers the program forked included) and wait for it."""
    proc = subprocess.Popen(
        [str(c) for c in cmd], cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr, stderr=sys.stderr,
        text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{Path(str(cmd[0])).name} {cmd[1]} timed out after {timeout} s")
    finally:
        # Nothing the program started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd[:2]))} exited with {proc.returncode}")
    return out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("no GraphCT sources (src/) next to perfbench/")
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_process(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_process(["cmake", "--build", BUILD_DIR, "-j", jobs,
                 "--target", "perfbench"], timeout=850)


def host_record(program_host):
    rec = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "hw_concurrency": program_host.get("hw_concurrency"),
        "omp_threads": program_host.get("omp_threads"),
        "cpu_model": "unknown",
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            rec["caches"][f"L{level}"] = size
    try:
        rec["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rec["commit"] = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    rec["src_sha256"] = digest.hexdigest()[:16]
    return rec


def generate(workload, seed, tiny, inputs):
    """Write the workload's inputs; returns (program args, expected values)."""
    size = SIZES[workload][1 if tiny else 0]
    gen = lambda *args: run_process([PROGRAM, *args], timeout=GEN_TIMEOUT_S)
    if workload == P:
        tweets, expected = inputs / "tweets.tsv", inputs / "expected.json"
        gen("gen-corpus", "--preset", size["preset"], "--seed", seed,
            "--out", tweets, "--expected", expected)
        args = ["pipeline", "--tweets", tweets]
    elif workload == S:
        paths = []
        for i in range(2):
            graph = inputs / f"g{i}.bin"
            gen("gen-rmat", "--scale", size["scale"], "--seed", 2 * seed + 1 + i,
                "--out", graph, "--expected", inputs / f"g{i}.json")
            paths.append(graph)
        args = ["server", "--graph0", paths[0], "--graph1", paths[1],
                "--workers", size["workers"], "--threads", size["threads"],
                "--rate", size["rate"]]
        expected = None
    else:
        graph, expected = inputs / "graph.bin", inputs / "expected.json"
        gen("gen-rmat", "--scale", size["scale"], "--seed", seed,
            "--out", graph, "--expected", expected)
        args = ["kernels" if workload == K else "dist", "--graph", graph]
        if workload == D:
            args += ["--workers", size["workers"]]
    return args, (json.loads(expected.read_text()) if expected else {})


def compare_expected(workload, values, expected):
    """Outputs the generator predicted by another route."""
    checks = []
    if workload == P:
        for key, want in expected.items():
            got = values.get(f"out.{key}")
            checks.append((f"funnel.{key}", got == want, f"{got} vs generator {want}"))
    elif workload == K:
        for key in ("components", "vertices"):
            got, want = values.get(f"out.{key}"), expected[key]
            checks.append((f"{key}_vs_generator", got == want,
                           f"{got} vs generator {want}"))
    return checks


def span_analysis(spans):
    """Self time per span name and the largest uncovered share of a pass."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    self_time, worst_gap = {}, 0.0
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        covered = sum(spans[c]["end"] - spans[c]["start"] for c in children.get(i, []))
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + max(0.0, dur - covered)
        if s["name"].endswith(".pass") and dur > 0:
            worst_gap = max(worst_gap, (dur - covered) / dur)
    return self_time, worst_gap


def measure(opts):
    build()
    BUILD_DIR.mkdir(exist_ok=True)
    inputs = BUILD_DIR / "inputs" / f"{opts.workload}-{opts.seed}"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        args, expected = generate(opts.workload, opts.seed, opts.tiny, inputs)
        args += ["--seed", opts.seed, "--seconds", opts.seconds,
                 "--trace", opts.trace]
        if opts.tiny:
            args += ["--setups", 2]
        out = run_process([PROGRAM, *args], timeout=PROGRAM_TIMEOUT_S, capture=True)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("the program printed no result")
    raw = json.loads(lines[-1])
    if raw["invalid"]:
        raise BenchError(f"invalid run: {raw['invalid']}")

    values = dict(raw["values"])
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    checks += compare_expected(opts.workload, values, expected)

    if opts.trace:
        self_time, gap = span_analysis(raw["spans"])
        if opts.workload in (P, K):
            values["obs.span_gap_share"] = gap
            checks.append(("stage_spans_cover_pass", gap <= SPAN_GAP_BOUND,
                           f"largest uncovered share of a pass {gap:.5f} "
                           f"(bound {SPAN_GAP_BOUND})"))
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        trace_file = traces / f"{opts.workload}-{opts.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": opts.workload, "seed": opts.seed, "spans": raw["spans"],
             "self_time_s": self_time, "values": values}))
        log(f"trace: {len(raw['spans'])} spans -> {trace_file.relative_to(ROOT)}")
        table = [(n, u, values.get(n, 0.0) if opts.workload in w else 0.0,
                  opts.workload in w) for n, u, w in PER_LAYER]
    else:
        table = [(n, u, values.get(n), True) for n, u in END_TO_END]

    for name, unit, value, measured in table:
        if measured and value is None:
            raise BenchError(f"the program did not report {name}")
    host = host_record(raw["host"])
    print("host " + json.dumps(host, sort_keys=True))
    print("info " + json.dumps(raw["info"], sort_keys=True))
    for name, ok, detail in checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    for name, unit, value, measured in table:
        print(f"{name:32s} {value:16.6f} {unit}" + ("" if measured else "  (layer idle)"))
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value, _ in table},
    }))
    return 0 if correct else 1


def calibrate(opts):
    """Median BC-miss service time on one graph, at the frozen pool shape."""
    build()
    inputs = BUILD_DIR / "inputs" / "calibrate"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        args, _ = generate(S, opts.seed, False, inputs)
        run_process([PROGRAM, *args, "--seconds", 1, "--calibrate", 30],
                    timeout=PROGRAM_TIMEOUT_S)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[P, K, S, D])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: atlflood, R-MAT scale 10, 1 worker")
    ap.add_argument("--calibrate", action="store_true",
                    help="measure the server_mixed miss service time")
    opts = ap.parse_args()
    if opts.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if opts.calibrate:
            return calibrate(opts)
        if not opts.workload:
            ap.error("--workload is required")
        return measure(opts)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
