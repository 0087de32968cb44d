"""Tiny-size self-test of every workload, plain and traced.

    python3 pebblebench/selftest.py [--seconds 2]

Run from the root of a checkout.  For each workload in ``BENCHMARK.json``
and ``--trace`` 0 and 1 it runs ``run.py`` briefly and asserts that the
run exits 0 with every answer correct, that the result carries exactly
the metric names of ``BENCHMARK.json`` with their units, that every
metric of the plain run and every layer on the workload's path in the
traced run has at least one sample, and that no process the run started
is left.  Finally it checks that the benchmark refuses to run, without
printing a result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List

#: the per-layer metrics each workload's path must produce samples for
PATH_LAYERS: Dict[str, List[str]] = {
    "solve-exact": [
        "generators.build_ms", "core.instance_ms",
        "solvers.solve_small_ms", "solvers.solve_large_ms",
        "solvers.expanded", "solvers.generated", "solvers.expand_per_s",
        "solvers.expand_ratio", "solvers.bits_expand_per_s",
        "solvers.numpy_expand_per_s", "multilevel.solve_ms",
        "multilevel.expanded", "multilevel.expand_per_s",
        "experiments.method_ms", "experiments.execute_ms", "trace.overhead",
    ],
    "heur-kernels": [
        "generators.build_ms", "core.instance_ms", "core.replay_moves_per_s",
        "heuristics.greedy_ms", "heuristics.beam_ms",
        "heuristics.fixed_order_ms", "heuristics.moves",
        "experiments.method_ms", "experiments.execute_ms", "trace.overhead",
    ],
}
_SERVICE = [
    "experiments.execute_ms", "experiments.backend.busy_ms",
    "experiments.backend.ipc_ms", "experiments.backend.spawns_per_1k",
    "experiments.store.get_ms", "experiments.store.put_ms",
    "experiments.store.hit_ratio", "service.http_ms",
    "service.queue_wait_ms", "service.batch_size", "trace.overhead",
]
PATH_LAYERS["serve-miss"] = _SERVICE
PATH_LAYERS["serve-batch"] = _SERVICE + ["service.coalesced_share"]

_MARKERS = ("pebblebench/launcher.py", "pebblebench/run.py")


def _leftovers() -> List[str]:
    """Command lines of live processes the benchmark starts."""
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace")
            with open(f"/proc/{name}/stat", encoding="utf-8") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z" and any(m in cmd for m in _MARKERS):
            found.append(cmd)
    return found


def _run(root: str, workload: str, trace: int, seconds: float,
         spec: dict) -> List[str]:
    done = subprocess.run(
        [sys.executable, os.path.join("pebblebench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    problems = []
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"exit {done.returncode}: {done.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    record = json.loads(next(l for l in lines if l.startswith("# record "))[9:])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"answers: {record['errors']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"metric names {sorted(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got.get('unit')}")
    must = PATH_LAYERS[workload] if trace else [m["name"] for m in wanted]
    for name in must:
        samples = record["metrics"].get(name, {}).get("samples", 0)
        if samples < 1:
            problems.append(f"{name}: no samples")
    left = _leftovers()
    if left:
        problems.append(f"processes left: {left}")
    return problems


def _refuses_without_program(root: str) -> List[str]:
    """The benchmark alone, without the program, must fail cleanly."""
    bare = os.path.join(root, ".pebblebench-selftest")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(root, "pebblebench"),
                        os.path.join(bare, "pebblebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, os.path.join("pebblebench", "run.py"),
             "--workload", "solve-exact", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"ran without the program: exit {done.returncode}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    # serve-batch is runnable by name but not (yet) one of the measured
    # workloads; it is checked here so that it keeps working
    names = [w["name"] for w in spec["workloads"]]
    for workload in names + [w for w in PATH_LAYERS if w not in names]:
        for trace in (0, 1):
            problems = _run(root, workload, trace, args.seconds, spec)
            failures += bool(problems)
            print(f"{workload:13} trace={trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}", flush=True)
    problems = _refuses_without_program(root)
    failures += bool(problems)
    print(f"without program: {'ok' if not problems else problems[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
