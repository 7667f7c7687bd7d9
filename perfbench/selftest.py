"""Self-tests of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that a planted wrong reference and a raising task count as failures,
that another seed changes the inputs but not the task list, that traced
and untraced passes give identical answers, that the size counts
(``*.calls``, ``*.cells``) repeat exactly across two traced runs of one
seed, and that BENCHMARK.json names exactly the metrics run.py prints.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(message)


def _tasks(workload: str, seed: int):
    import workloads
    return workloads.WORKLOADS[workload](workloads.Context(ROOT, seed))


def test_planted_failures_are_counted():
    tasks = _tasks("extensions", 1)[:6]
    tasks[2].expected = ("planted", "wrong")

    def boom():
        raise ValueError("planted exception")

    tasks[4].run = boom
    runner = run.Runner(tasks)
    runner.run_pass()
    check(runner.attempted == 6, f"attempted {runner.attempted} != 6")
    check(len(runner.failures) == 2, f"failures {runner.failures}")
    check(runner.failures[0].startswith(tasks[2].id), runner.failures[0])
    check("planted exception" in runner.failures[1], runner.failures[1])


def test_seed_changes_inputs_not_tasks():
    for workload in ("group-cohomology", "extensions", "lie-modular", "cli-cold"):
        one, two = _tasks(workload, 1), _tasks(workload, 2)
        check([t.id for t in one] == [t.id for t in two], f"{workload}: task lists differ")
        check(any(repr(a.inputs) != repr(b.inputs) for a, b in zip(one, two)),
              f"{workload}: seeds 1 and 2 give identical inputs")


def test_traced_answers_match_untraced():
    import spans

    tasks = _tasks("extensions", 5)
    tracer = spans.Tracer()
    runner = run.Runner(tasks, tracer)
    runner.run_pass()
    tracer.install()
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()
    check(not runner.failures, f"failures {runner.failures[:3]}")
    check(len(tracer.spans) > len(tasks), "the traced pass recorded too few spans")
    runner.run_pass()  # the originals are back in place
    check(not runner.failures, f"failures after uninstall {runner.failures[:3]}")


def _traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(result["correct"], f"{workload}: traced run reported failures")
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls") or k.endswith(".cells")}


def test_size_counts_repeat():
    for workload in ("extensions", "lie-modular", "cli-cold"):
        first, second = _traced_counts(workload, 7), _traced_counts(workload, 7)
        check(first == second, f"{workload}: counts differ between two traced runs")
        check(any(first.values()), f"{workload}: no layer was called")


def test_benchmark_json_matches_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(),
          "per_layer in BENCHMARK.json differs from run.per_layer_names()")
    check([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
          "end_to_end in BENCHMARK.json differs from run.END_TO_END")
    check([w["name"] for w in spec["workloads"]] == list(_workload_names()),
          "workloads in BENCHMARK.json differ from workloads.WORKLOADS")


def _workload_names():
    import workloads
    return workloads.WORKLOADS


def main() -> int:
    if run.import_program() is not None:
        print("cohomkit is not importable from src/", file=sys.stderr)
        return 1
    tests = [obj for name, obj in globals().items() if name.startswith("test_")]
    for test in tests:
        try:
            test()
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
