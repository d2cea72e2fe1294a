#!/usr/bin/env python3
"""sublap benchmark: one closed-loop client running one workload's checks.

    python3 bench/run.py --workload mc-checks --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports sublap from ./src.  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics of a separate traced run.  The last line of standard
output is the JSON result; the lines before it record the environment.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, so sublap's threads are the only ones.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)
os.environ.pop("SUBLAP_THREADS", None)  # every check passes --threads

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import subprocess
import sys
import time
from statistics import median

import numpy
import scipy

import checks
import workloads
from layers import COUNT_METRICS, Instrumentation, layer_metrics
from speed import NominalClock
from tracer import Tracer

MIN_PASSES = 3            # timed passes per run, even past --seconds
SETUP_PROBES = 7          # fresh-process imports timed per run
SPEEDUP_REPEATS = 5       # sigma runs per thread count for thread_speedup
DETERMINISM_SAMPLES = 200_000  # four shards, so threads really split the work
WARMUP_ARGS = ("--samples", "20000", "--points", "10")

class Ledger:
    """Counts attempted and failed checks; keeps each check's first report.

    A check is keyed by its argument list (a slot), so the repeats of one
    check within and across passes must give the same report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reports = {}
        self._canonical = {}

    def fail(self, problems) -> None:
        self.failed += 1
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

    def record(self, slot, kind: str, code: int, text: str) -> None:
        self.attempted += 1
        report, problems = checks.verify(kind, code, text)
        if report is not None:
            canon = checks.canonical(report)
            if self._canonical.setdefault(slot, canon) != canon:
                problems.append(f"{kind}: report differs from its first repeat")
            self.reports.setdefault(slot, report)
        if problems:
            self.fail(problems)


def invoke(cli, argv) -> tuple[float, int, str]:
    """Run one CLI check in-process; returns (seconds, exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return seconds, code, buf.getvalue()


def kernel_of(check) -> str:
    """The reference kernel (speed.NOMINAL_S) that scales a check's time."""
    return "interpreter" if check.kind in workloads.CALCULUS_KINDS else "array"


def run_pass(cli, plan, ledger: Ledger) -> tuple[int, list[float]]:
    """One pass over the plan; returns (wall ns, seconds of each check).

    Outputs are checked after the clock stops, so the pass wall time holds
    only the CLI calls and the loop around them.
    """
    outputs = []
    start = time.perf_counter_ns()
    for check in plan:
        outputs.append(invoke(cli, check.argv))
    wall = time.perf_counter_ns() - start
    for check, (_, code, text) in zip(plan, outputs):
        ledger.record(check.argv, check.kind, code, text)
    return wall, [seconds for seconds, _, _ in outputs]


def repeat(seconds: float, min_runs: int, fn) -> None:
    """Call fn until the next call would end past `seconds` (at least min_runs)."""
    start = time.perf_counter()
    last = runs = 0
    while runs < min_runs or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        fn()
        last = time.perf_counter() - t
        runs += 1


def warm_up(cli, plan) -> None:
    """One small call per check kind: imports and caches, outside all timing."""
    seen = set()
    for check in plan:
        if check.kind not in seen:
            seen.add(check.kind)
            invoke(cli, check.argv + WARMUP_ARGS)


def cross_thread_check(cli, workload: str, seed: int, nproc: int, ledger: Ledger) -> None:
    """Short seeded sigma and density must be bit-identical at 1 and nproc threads."""
    mc = workloads.mc_config(workload, nproc)
    for check in mc.checks(workloads.cli_seed(seed)):
        if check.kind not in ("sigma", "density"):
            continue
        argv = check.argv + ("--samples", str(DETERMINISM_SAMPLES))
        results = []
        for threads in (1, nproc):
            _, _, text = invoke(cli, argv + ("--threads", str(threads)))
            try:
                results.append(json.loads(text)["results"])
            except (ValueError, KeyError):
                results.append(None)
        ledger.attempted += 1
        if results[0] is None or results[0] != results[1]:
            ledger.fail([f"{check.kind}: results differ between 1 and {nproc} threads"])


def setup_seconds(root: str) -> float:
    """Median time of a fresh process importing sublap and sublap.cli (nominal s)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import sublap, sublap.cli"]
    subprocess.run(cmd, env=env, cwd=root, check=True)  # fills bytecode caches
    clock = NominalClock()
    times = []

    def probe():
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True)
        return time.perf_counter() - start

    for _ in range(SETUP_PROBES):
        seconds, scales = clock.measure(probe)
        times.append(seconds * scales["array"])
    return median(times)


def environment(args, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "cli_seed": workloads.cli_seed(args.seed),
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc, "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "thread_env": THREAD_ENV,
        "loadavg": list(os.getloadavg()),
    }


def timed_run(cli, plan, args, nproc: int, root: str, ledger: Ledger) -> dict:
    cross_thread_check(cli, args.workload, args.seed, nproc, ledger)
    warm_up(cli, plan)
    setup = setup_seconds(root)
    clock = NominalClock()
    kernels = [kernel_of(check) for check in plan]
    walls, times, scales = [], [], []  # per pass: raw wall s, nominal s per check

    def one_pass():
        (wall, seconds), scale = clock.measure(lambda: run_pass(cli, plan, ledger))
        times.append([t * scale[kernel] for t, kernel in zip(seconds, kernels)])
        walls.append(wall / 1e9)
        scales.append(scale)

    repeat(args.seconds, MIN_PASSES, one_pass)
    # Each check's median over all its runs (repeats in a pass included),
    # summed per kind: a burst of machine noise moves none of the medians.
    samples = {}
    for pass_times in times:
        for check, t in zip(plan, pass_times):
            samples.setdefault(check, []).append(t)
    metrics = {"setup_s": setup, "pass_s": median(sum(pass_times) for pass_times in times)}
    for kind in workloads.CHECK_KINDS:
        if kind != "bracket-report":
            metrics[kind.replace("-", "_") + "_s"] = sum(
                median(ts) for check, ts in samples.items() if check.kind == kind)
    reports = [ledger.reports[check.argv] for check in samples if check.argv in ledger.reports]
    metrics["sigma_cost"] = checks.rel_var(reports, checks.SIGMA_RECORDS) * metrics["sigma_s"]
    metrics["capacity_cost"] = (checks.rel_var(reports, checks.CAPACITY_RECORDS)
                                * metrics["capacity_s"])
    metrics["pass_frac"] = (ledger.attempted - ledger.failed) / ledger.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"raw_pass_s": walls, "nominal_scale": scales,
                      "fail_frac": ledger.failed / ledger.attempted}))
    return metrics


def thread_speedup(cli, seed: int, nproc: int, ledger: Ledger) -> float:
    """sigma_p at threads=1 over threads=nproc, on the mc-checks configuration."""
    sigma = workloads.mc_config("mc-checks", nproc).checks(workloads.cli_seed(seed))[0]
    times = {1: [], nproc: []}
    for _ in range(SPEEDUP_REPEATS):
        for threads in (1, nproc):
            seconds, code, text = invoke(cli, sigma.argv + ("--threads", str(threads)))
            ledger.record(("speedup", threads), "sigma", code, text)
            times[threads].append(seconds)
    return median(times[1]) / median(times[nproc])


def traced_run(cli, plan, args, nproc: int, ledger: Ledger) -> dict:
    cross_thread_check(cli, args.workload, args.seed, nproc, ledger)
    warm_up(cli, plan)
    speedup = thread_speedup(cli, args.seed, nproc, ledger)
    tracer = Tracer()
    untraced, traced = [], []

    def pair():
        untraced.append(run_pass(cli, plan, ledger)[0])
        tracer.reset()
        with Instrumentation(tracer):
            wall, _ = run_pass(cli, plan, ledger)
        snap = tracer.snapshot()
        traced.append((wall, layer_metrics(snap, wall)))
        # Self times must add up to the time inside the top-level spans.
        ledger.attempted += 1
        total, roots = sum(snap["self"].values()), snap["incl"]["cli.main"]
        if abs(total - roots) > 1e-6 * roots:
            ledger.fail([f"trace: self times sum to {total:.0f} ns, spans cover {roots:.0f} ns"])

    repeat(args.seconds, 1, pair)
    metrics = {}
    for name in traced[0][1]:
        values = [m[name] for _, m in traced]
        if name in COUNT_METRICS:
            ledger.attempted += 1
            if len(set(values)) != 1:
                ledger.fail([f"trace: count {name} differs between passes: {values}"])
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    traced_wall = median(w for w, _ in traced)
    metrics["montecarlo.thread_speedup"] = speedup
    metrics["trace.pass_s"] = traced_wall / 1e9
    metrics["trace.overhead_frac"] = traced_wall / median(untraced) - 1.0
    print(json.dumps({"untraced_passes": len(untraced), "traced_passes": len(traced)}))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "sublap", "cli.py")):
        print(f"error: no sublap source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    cli = importlib.import_module("sublap.cli")

    nproc = len(os.sched_getaffinity(0))
    print(json.dumps({"environment": environment(args, nproc)}), flush=True)
    plan = workloads.build(args.workload, args.seed, nproc)
    ledger = Ledger()
    if args.trace:
        metrics, declared = traced_run(cli, plan, args, nproc, ledger), spec["per_layer"]
    else:
        metrics, declared = timed_run(cli, plan, args, nproc, root, ledger), spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
