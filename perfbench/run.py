"""cohomkit benchmark: seeded desk-user workloads, checked answers, timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: group-cohomology, extensions, lie-modular, cli-cold (see
perfbench/README.md for why each exists).  Load is one process and one
caller in a closed loop: the task list runs in order, each task after the
previous one returned, and whole passes repeat until ``--seconds`` have
passed (at least one pass).  Every answer is checked against a reference
that does not come from the route under test, after its timing stops.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` one warm untraced pass is followed by one traced pass, and the
last line carries the per-layer metrics of the traced pass.  The line
before the last one holds the details: every end-to-end figure including
``fail_ratio``, the tail percentile, the environment and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
# a task faster than this repeats back to back until this much time has
# passed, and its time is the mean per call: single calls of a few
# milliseconds spread by tens of percent from pass to pass
MIN_EXECUTION_S = 0.01
FLOOR_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
END_TO_END = ("setup_s", "wall_s", "task_p50_ms", "task_tail_ms", "peak_rss_mb")

SPAN_FIELDS = (
    ("exactmat.smith_transforms", ("calls", "self_s", "cells")),
    ("exactmat.rref", ("calls", "self_s", "cells")),
    ("exactmat.rank_gf2", ("calls", "self_s", "cells")),
    ("exactmat.rank_gfp", ("calls", "self_s", "cells")),
    ("exactmat.rank_q", ("calls", "self_s")),
    ("exactmat.solve_mod", ("calls", "self_s", "solved_ratio")),
    ("exactmat.kernel_mod", ("calls", "self_s", "cells")),
    ("grpcoh.coboundary_matrix", ("calls", "self_s", "cells")),
    ("grpcoh.coboundary", ("calls", "self_s")),
    ("grpcoh.cohomology_group", ("calls", "self_s")),
    ("grpcoh.cocycle_space", ("calls", "self_s")),
    ("grpcoh.hom_group", ("calls", "self_s")),
    ("ext.build_extension", ("calls", "self_s")),
    ("ext.are_equivalent", ("calls", "self_s")),
    ("ext.is_split", ("calls", "self_s")),
    ("ext.cocycle_of_section", ("calls", "self_s")),
    ("ext.h1_h2_correspondence_check", ("calls", "self_s")),
    ("liecoh.ce_differential", ("calls", "self_s", "cells")),
    ("liecoh.cohomology_report", ("calls", "self_s")),
    ("liealg.generated_subalgebra", ("calls", "self_s")),
    ("liealg.ideal_closure", ("calls", "self_s")),
    ("liealg.subspace_add", ("calls", "accept_ratio")),
    ("modular.algebra_closure", ("calls", "self_s")),
    ("modular.commutant", ("calls", "self_s")),
    ("modular.tomita", ("calls", "self_s")),
    ("modular.modular_flow_defect", ("calls", "self_s")),
    ("modular.kms_defect", ("calls", "self_s")),
    ("modular.is_separating", ("calls", "self_s")),
    ("spacetime.wedge_boost_generator", ("calls", "self_s")),
    ("spacetime.boost_generation_check", ("calls", "self_s", "first_call_s")),
)
CLI_FIELDS = ("floor_s", "import_cohomkit_s", "import_sympy_s", "import_numpy_s",
              "compute_s", "self_s")
UNITS = {"calls": "count", "cells": "count", "solved_ratio": "ratio",
         "accept_ratio": "ratio"}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in output order."""
    names = [(f"{span}.{f}", UNITS.get(f, "s")) for span, fields in SPAN_FIELDS for f in fields]
    names += [(f"cli.{f}", "s") for f in CLI_FIELDS]
    names.append(("trace.overhead_s", "s"))
    return names


def limit_blas_threads() -> int:
    """One BLAS thread (never more than nproc), in this process and its
    children: the load is one caller, and a second thread only adds the
    noise of a shared host."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program() -> str | None:
    """Import cohomkit from this checkout's src/; an error message or None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cohomkit
    except ImportError as exc:
        return f"cannot import cohomkit from {src}: {exc}"
    if src.resolve() not in Path(cohomkit.__file__).resolve().parents:
        return f"cohomkit was imported from {cohomkit.__file__}, not from {src}"
    return None


def environment(seed: int, threads: int) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import numpy

    try:
        sympy_version = version("sympy")
    except PackageNotFoundError:
        sympy_version = "unknown"
    try:  # numpy >= 1.26 reports its build configuration as a dict
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy_version,
        "blas": blas_version,
        "blas_threads": threads,
        "TOOLKIT_THREADS": os.environ.get("TOOLKIT_THREADS", "unset"),
        "seed": seed,
    }


def setup_probe(workload: str, seed: int, host) -> tuple[float, float, float]:
    """Start, end and yardstick seconds inside, of a fresh process that
    builds the task list and stops: process start to the first timed task."""
    spent = host.spent
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    end = time.perf_counter()
    inside = host.spent - spent
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return start, end, inside


def measure_floor() -> float:
    """Median wall time of a bare ``python -c pass``."""
    times = []
    for _ in range(FLOOR_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs passes over one task list and keeps every execution's record,
    with the host-speed timeline it was measured against."""

    def __init__(self, tasks, tracer=None, keep_results=False):
        self.tasks = tasks
        self.tracer = tracer
        self.keep_results = keep_results
        self.host = hostspeed.HostSpeed()
        # task, pass, start, end, yardstick seconds inside, calls
        self.executions: list[tuple[int, int, float, float, float, int]] = []
        self.first_answer: list = [None] * len(tasks)
        self.passes = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.results_of_last_pass: list = []
        self.child_rss_kb = 0  # the largest CLI child's peak RSS

    def run_pass(self, repeat: bool = True) -> None:
        """One pass over the tasks; ``repeat=False`` makes one call per task,
        which keeps the traced pass's counts exact."""
        clock = time.perf_counter
        self.results_of_last_pass = []
        for i, task in enumerate(self.tasks):
            if self.tracer is not None:
                self.tracer.task = task.id
            error = None
            calls = 0
            spent = self.host.spent
            start = clock()
            try:
                while True:
                    result = task.run()
                    calls += 1
                    if not repeat or clock() - start >= MIN_EXECUTION_S:
                        break
            except Exception as exc:  # a failed task is counted, never fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            end = clock()
            inside = self.host.spent - spent
            self.executions.append((i, self.passes, start, end, inside, max(calls, 1)))
            self.child_rss_kb = max(self.child_rss_kb, getattr(result, "rss_kb", 0))
            self.attempted += 1
            if error is None:
                try:
                    answer = task.summarize(result)
                except Exception as exc:
                    error = f"summary failed: {type(exc).__name__}: {exc}"
            if error is None:
                if answer != task.expected:
                    error = f"answer {answer!r} != expected {task.expected!r}"
                elif self.passes == 0:
                    self.first_answer[i] = answer
                elif answer != self.first_answer[i]:
                    error = f"answer {answer!r} differs from the first pass"
            if error is not None:
                self.failures.append(f"{task.id}: {error}")
            if self.keep_results:
                self.results_of_last_pass.append(result)
        self.passes += 1

    def timings(self, scaled: bool, passes=None) -> tuple[list[list[float]], list[float]]:
        """Per-task times per call and per-pass walls, in raw seconds or in
        seconds at the reference host speed; ``passes`` selects passes."""
        per_task: list[list[float]] = [[] for _ in self.tasks]
        walls = [0.0] * self.passes
        for i, p, start, end, inside, calls in self.executions:
            if passes is not None and p not in passes:
                continue
            t = (end - start - inside) / calls * (self.host.factor(start, end) if scaled else 1.0)
            per_task[i].append(t)
            walls[p] += t
        return per_task, [walls[p] for p in range(self.passes) if passes is None or p in passes]


def end_to_end(runner: Runner, probes: list[tuple[float, float, float]], peak_rss_mb: float,
               scaled: bool, passes=None) -> tuple[dict, dict]:
    per_task, walls = runner.timings(scaled, passes)
    medians = sorted(statistics.median(t) for t in per_task)
    # set-up runs in child processes, where the parent's yardstick does not
    # follow it (scaling widened the spread), so it stays in raw seconds
    setup = [end - start - inside for start, end, inside in probes]
    n = len(medians)
    # the highest percentile with ten tasks beyond it; the maximum when the
    # list has too few tasks for that
    beyond = 10 if n > 10 else 0
    tail_index = n - 1 - beyond
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "task_p50_ms": {"value": statistics.median(medians) * 1000.0, "unit": "ms"},
        "task_tail_ms": {"value": medians[tail_index] * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "tasks_beyond": beyond, "tasks": n}
    return metrics, tail


def layer_metrics(summary: dict, cli: dict, overhead_s: float) -> dict:
    metrics = {}
    for span, fields in SPAN_FIELDS:
        agg = summary.get(span, {"calls": 0, "self_s": 0.0, "cells": 0, "ok": 0,
                                 "first_call_s": 0.0})
        for f in fields:
            if f in ("solved_ratio", "accept_ratio"):
                value = agg["ok"] / agg["calls"] if agg["calls"] else 0.0
            else:
                value = agg[f]
            metrics[f"{span}.{f}"] = value
    for f in CLI_FIELDS:
        metrics[f"cli.{f}"] = cli.get(f, 0.0)
    metrics["trace.overhead_s"] = overhead_s
    return {name: {"value": metrics[name], "unit": unit} for name, unit in per_layer_names()}


def cli_breakdown(results, floor_s: float) -> dict:
    """Sums over one pass of CLI children. Imports come from -X importtime.
    Compute is the report's elapsed_ms less the layer imports made inside
    it. Self is what remains of the wall after the floor per child."""
    wall = sum(r.wall_s for r in results)
    imports = {k: sum(r.imports.get(k, 0.0) for r in results)
               for k in ("cohomkit", "cohomkit_lazy", "sympy", "numpy")}
    elapsed = sum(r.report.get("elapsed_ms", 0.0) / 1000.0 for r in results if r.report)
    compute = elapsed - imports["cohomkit_lazy"]
    return {
        "floor_s": floor_s,
        "import_cohomkit_s": imports["cohomkit"],
        "import_sympy_s": imports["sympy"],
        "import_numpy_s": imports["numpy"],
        "compute_s": compute,
        "self_s": wall - len(results) * floor_s - imports["cohomkit"] - compute,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = limit_blas_threads()
    problem = import_program()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import spans
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        build(workloads.Context(ROOT, args.seed))
        print("ready", flush=True)
        return 0

    ctx = workloads.Context(ROOT, args.seed)
    tasks = build(ctx)
    cli = args.workload == "cli-cold"
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(tasks, tracer, keep_results=cli)
    floor_s = measure_floor() if cli and args.trace else 0.0

    probes = []
    traced_pass = None
    traced_results = []
    started = time.perf_counter()
    runner.host.start()
    try:
        while True:
            if tracer is not None and runner.passes == 1:
                tracer.install()
                ctx.traced = True
                try:
                    runner.run_pass(repeat=False)
                finally:
                    tracer.uninstall()
                    ctx.traced = False
                traced_pass = runner.passes - 1
                traced_results = runner.results_of_last_pass
            else:
                runner.run_pass()
            # set-up is probed between passes, so that it samples the same
            # stretch of host time as the tasks
            probes.append(setup_probe(args.workload, args.seed, runner.host))
            if time.perf_counter() - started >= args.seconds and \
                    (tracer is None or traced_pass is not None):
                break
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args.workload, args.seed, runner.host))
    finally:
        runner.host.stop()

    if cli:
        rss_kb = runner.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = len(runner.failures)
    untraced = [p for p in range(runner.passes) if p != traced_pass]
    e2e, tail = end_to_end(runner, probes, rss_kb / 1024.0, True, untraced)
    raw, _ = end_to_end(runner, probes, rss_kb / 1024.0, False, untraced)
    if tracer is None:
        metrics = e2e
    else:
        summary = tracer.summarize()
        child_results = [r for r in traced_results if r is not None]
        for r in child_results:
            if r.trace:
                spans.merge(summary, r.trace)
        cli_stats = cli_breakdown(child_results, floor_s) if cli else {}
        _, walls = runner.timings(True)
        overhead = walls[traced_pass] - statistics.median(walls[p] for p in untraced)
        metrics = layer_metrics(summary, cli_stats, overhead)
        out = ctx.out_dir / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps({"spans": tracer.dump(),
                                   "children": [r.trace for r in child_results]}))
    e2e["fail_ratio"] = {"value": failed / runner.attempted, "unit": "ratio"}
    print(json.dumps({"details": {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "passes": runner.passes, "tasks": len(tasks), "tail": tail,
        "end_to_end": e2e, "raw_seconds": raw,
        "setup_probes_raw_s": [end - start - inside for start, end, inside in probes],
        "yardstick_ms": {"median": statistics.median(runner.host.values) * 1e3,
                         "reference": hostspeed.YARDSTICK_REF_S * 1e3},
        "environment": environment(args.seed, threads),
        "failures": runner.failures[:20]}}))
    del e2e["fail_ratio"]
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
