"""Run one benchmark workload and print its metrics.

    python3 pebblebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/repro`` and
``BENCHMARK.json``).  Workloads: ``solve-exact``, ``heur-kernels`` and
``serve-miss`` (see ``BENCHMARK.json`` for why each exists), and
``serve-batch``, which runs but is too unsteady to carry a bound while
the worker pool churns (see ``serve.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Every answer is checked; a wrong one exits 1.

Output: lines starting with ``#`` form the run record (host, versions,
commit, seed, configuration, every metric with its sample count and raw
value); the last line is the result object.  Seed ``DEFAULT_SEED`` is
the default; ``HELD_OUT_SEED`` is reserved for confirming a claim and
must not be used while tuning anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from pebblebench import cells  # noqa: E402
from pebblebench.common import (  # noqa: E402
    become_subreaper,
    git_commit,
    host_info,
    reap_adopted,
)

WORKLOADS = ("solve-exact", "heur-kernels", "serve-miss", "serve-batch")


def _dispatch(name: str):
    if name in ("solve-exact", "heur-kernels"):
        from pebblebench import inproc

        return inproc.solve_exact if name == "solve-exact" else inproc.heur_kernels
    from pebblebench import serve

    return serve.serve_miss if name == "serve-miss" else serve.serve_batch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=cells.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("pebblebench: no src/repro here; run from a repro checkout",
              file=sys.stderr)
        return 2
    try:
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"pebblebench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    become_subreaper()
    started = time.perf_counter()
    try:
        outcome = _dispatch(args.workload)(root, args.seed, args.seconds,
                                           bool(args.trace))
    finally:
        reap_adopted()
    if args.trace:
        # layers not on this workload's path read 0 with 0 samples
        for metric in wanted:
            if metric["name"] not in outcome.metrics.values:
                outcome.metrics.add(metric["name"], 0.0, metric["unit"], 0)
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics.values]
    if missing:
        outcome.count(1, [f"metrics not produced: {', '.join(missing)}"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "commit": git_commit(root),
        "wall_s": time.perf_counter() - started,
        **outcome.record,
        "metrics": outcome.metrics.values,
        "warnings": outcome.metrics.warnings,
        "errors": outcome.errors[:20],
    }
    for name, entry in outcome.metrics.values.items():
        raw = f"  raw {entry['raw']:.6g}" if "raw" in entry else ""
        print(f"# {name:36} {entry['value']:14.6g} {entry['unit']:9} "
              f"n={entry['samples']}{raw}")
    for error in outcome.errors[:20]:
        print(f"# FAILED {error}")
    print("# record " + json.dumps(record, sort_keys=True, default=str))
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": outcome.metrics.result(m["name"] for m in wanted
                                          if m["name"] not in missing),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
