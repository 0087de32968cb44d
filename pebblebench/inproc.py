"""The in-process workloads: ``solve-exact`` and ``heur-kernels``.

Both run a fixed cell list in the benchmark process, one cell at a time:

1. an untimed warm-up pass with capture wrappers, whose answers are
   checked (pinned optima or bounds, and every schedule replayed through
   the referee) outside any timed region;
2. a closed loop of whole passes over the list, each pass in a seeded
   order, giving ``rps`` and the per-cell latency percentiles;
3. an open loop of light cells at a fixed rate, each timed from when it
   was due, giving ``lat_p50_ms`` / ``lat_p95_ms`` (p99 and p99.9 stay
   in the run record).

Times are scaled to reference speed by the host clock sampled during the
pass or chunk they belong to; ``rps`` is the median of the pass rates.

Every timed answer must equal the warm-up answer for its cell.
"""

from __future__ import annotations

import contextlib
import gc
import io
import resource
import statistics
import subprocess
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import cells as C
from .common import (
    TAIL_BLOCKS,
    HostClock,
    Metrics,
    Outcome,
    percentile,
    python,
    src_env,
)
from .tracing import Tracer, by_name, duration, install_inprocess, self_time

#: open-loop arrival rates in cells per second at reference speed (about
#: 20% of one core, so a cell seldom waits for the one before it and a
#: host stall delays few cells), and the share of ``--seconds`` given to
#: the closed loop; the rest is open loop, 1500 cells at 30 s
SOLVE_OPEN_RATE, SOLVE_CLOSED_SHARE = 125.0, 0.6
HEUR_OPEN_RATE, HEUR_CLOSED_SHARE = 100.0, 0.5
#: fresh-process starts per run for ``setup_s``
SETUP_STARTS = 5

Key = Tuple[str, str, str, str]


class Runner:
    """Executes cells through the path each one names."""

    def __init__(self) -> None:
        from repro.cli import build_parser
        from repro.experiments import TaskSpec

        self._parser = build_parser()
        self._task_cls = TaskSpec
        self._args: Dict[Key, object] = {}
        self._tasks: Dict[Key, object] = {}
        self.sink = io.StringIO()

    def prepare(self, cell: C.Cell) -> None:
        if cell.path == "cli":
            self._args[cell.key] = self._parser.parse_args(
                ["solve", "--dag", cell.dag, "--model", cell.model,
                 "--red", str(cell.red)])
        else:
            self._tasks[cell.key] = self._task_cls(
                spec="pebblebench", dag=cell.dag, model=cell.model,
                method=cell.method, red_limit=cell.red)

    def run(self, cell: C.Cell) -> Tuple[float, str]:
        """Run one cell; returns (seconds, answer).  The answer is the
        optimum the CLI printed, or ``status:cost`` of the task."""
        if cell.path == "cli":
            args = self._args[cell.key]
            sink = self.sink
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                args.fn(args)
                elapsed = time.perf_counter() - start
            return elapsed, _cli_optimum(sink.getvalue())
        from repro.experiments import backends

        task = self._tasks[cell.key]
        start = time.perf_counter()
        result = backends.execute_task(task)
        elapsed = time.perf_counter() - start
        return elapsed, f"{result.status.value}:{result.cost}"


# -- answer checks -------------------------------------------------------


def _capture(tracer: Tracer) -> None:
    keep = lambda a, k, r: (a[0], r)  # noqa: E731 - (instance, result)
    tracer.wrap("repro.solvers.exact:solve_optimal", "solve", keep)
    tracer.wrap("repro.solvers.multilevel:solve_multilevel_optimal",
                "ml-solve", keep)
    tracer.wrap("repro.heuristics:greedy_pebble", "greedy", keep)
    tracer.wrap("repro.heuristics:beam_search_pebble", "beam", keep)
    tracer.wrap("repro.heuristics:fixed_order_schedule", "fixed-order", keep)
    tracer.wrap("repro.heuristics:topological_schedule", "baseline", keep)


def _replayed(name: str, inst: object, result: object) -> Fraction:
    """Replay a captured schedule through the referee; its cost."""
    if name == "ml-solve":
        from repro.multilevel import MultilevelSimulator

        return MultilevelSimulator(inst).run(
            result.moves, require_complete=True).cost
    from repro.core.simulator import PebblingSimulator

    schedule = result if name in ("fixed-order", "baseline") else result.schedule
    return PebblingSimulator(inst).run(schedule, require_complete=True).cost


def check_solve(cell: C.Cell, answer: str, captured: List[list]) -> List[str]:
    want = C.SOLVE_OPTIMA[cell.key]
    got = answer if cell.path == "cli" else answer.partition(":")[2]
    errors = []
    if cell.path == "task" and not answer.startswith("ok:"):
        errors.append(f"{cell.key}: status {answer}")
    if got != want:
        errors.append(f"{cell.key}: answered {got}, pinned optimum {want}")
    solves = [s for s in captured if s[1] in ("solve", "ml-solve")]
    if len(solves) != 1:
        errors.append(f"{cell.key}: {len(solves)} solver calls captured")
    for span in solves:
        inst, result = span[7]
        cost = _replayed(span[1], inst, result)
        if str(cost) != want:
            errors.append(f"{cell.key}: schedule replays to {cost}, want {want}")
    return errors


def check_heuristic(cell: C.Cell, answer: str, captured: List[list]) -> List[str]:
    from repro.generators import dag_from_spec
    from repro.solvers.bounds import (
        fft_io_lower_bound,
        matmul_io_lower_bound,
        trivial_lower_bound,
    )

    status, _, cost_text = answer.partition(":")
    if status != "ok":
        return [f"{cell.key}: status {answer}"]
    cost = Fraction(cost_text)
    replays = [_replayed(s[1], *s[7]) for s in captured
               if s[1] in ("greedy", "beam", "fixed-order", "baseline")]
    errors = []
    if not replays:
        errors.append(f"{cell.key}: no schedule captured")
    elif cell.method.startswith("heur:portfolio"):
        if min(replays) != cost:
            errors.append(f"{cell.key}: portfolio {cost} != best member "
                          f"replay {min(replays)}")
    elif len(replays) != 1 or replays[0] != cost:
        errors.append(f"{cell.key}: reported {cost}, replays {replays}")
    dag = dag_from_spec(cell.dag)
    floor = trivial_lower_bound(dag, cell.model, cell.red)
    if cost < floor:
        errors.append(f"{cell.key}: cost {cost} below lower bound {floor}")
    kind, _, arg = cell.dag.partition(":")
    curve = None
    if kind == "matmul":
        curve = matmul_io_lower_bound(int(arg.split(":")[0]), cell.red)
    elif kind == "butterfly":
        curve = fft_io_lower_bound(1 << int(arg), cell.red)
    if curve is not None and float(cost) < curve - cell.red:
        errors.append(f"{cell.key}: cost {cost} below Hong-Kung floor "
                      f"{curve} - R")
    return errors


# -- phases ----------------------------------------------------------------


def warm_up(runner: Runner, cells: List[C.Cell],
            check: Callable[[C.Cell, str, List[list]], List[str]]
            ) -> Tuple[Dict[Key, str], List[str]]:
    """Untimed pass with capture; returns answers and check failures."""
    tracer = Tracer()
    _capture(tracer)
    answers: Dict[Key, str] = {}
    try:
        for cell in cells:
            runner.prepare(cell)
            tracer.request = cell.key
            _, answers[cell.key] = runner.run(cell)
    finally:
        tracer.uninstall()
        tracer.request = None
    errors: List[str] = []
    for cell in cells:
        captured = [s for s in tracer.spans if s[5] == cell.key]
        errors.extend(check(cell, answers[cell.key], captured))
    return answers, errors


class Loop:
    """Latencies and answer checks gathered by one phase."""

    def __init__(self, expected: Dict[Key, str]) -> None:
        self.expected = expected
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        #: (start, end, first index, end index) of each pass or chunk
        self.segments: List[Tuple[float, float, int, int]] = []
        self.busy = 0.0
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def normalised(self, clock: HostClock) -> Tuple[List[float], List[float], List[float]]:
        """Latencies at reference speed, each scaled by the host speed
        sampled during its own pass or chunk, and the per-segment rates
        (cells per busy second) raw and at reference speed."""
        values: List[float] = []
        raw_rates: List[float] = []
        rates: List[float] = []
        for t0, t1, first, end in self.segments:
            factor = clock.factor_between(t0, t1)
            part = self.latencies[first:end]
            values.extend(x * factor for x in part)
            if part:
                raw_rates.append(len(part) / sum(part))
                rates.append(raw_rates[-1] / factor)
        return values, raw_rates, rates

    def record(self, cell: C.Cell, seconds: float, answer: str) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if answer != self.expected[cell.key]:
            self.failed += 1
            self.errors.append(f"{cell.key}: answered {answer}, warm-up "
                               f"answered {self.expected[cell.key]}")


def closed_loop(runner: Runner, cells: List[C.Cell], seed: int, budget: float,
                clock: HostClock, loop: Loop,
                tracer: Optional[Tracer] = None) -> None:
    """Whole passes, each in a seeded order, until ``budget`` is spent."""
    last_pass = 0.0
    while loop.passes == 0 or loop.busy + last_pass / 2 < budget:
        before = loop.busy
        first, t0 = len(loop.latencies), time.perf_counter()
        for cell in C.shuffled(cells, seed, f"pass-{loop.passes}"):
            if tracer is not None:
                tracer.request = (cell.key, cell.size)
            seconds, answer = runner.run(cell)
            loop.busy += seconds
            loop.record(cell, seconds, answer)
            clock.maybe_sample()
        loop.segments.append((t0, time.perf_counter(), first,
                              len(loop.latencies)))
        last_pass = loop.busy - before
        loop.passes += 1
    if tracer is not None:
        tracer.request = None


def open_loop(runner: Runner, sequence: List[C.Cell], rate: float,
              clock: HostClock, loop: Loop) -> float:
    """Cells due every 1/rate s of reference time, timed from when each
    was due; returns the rate offered in real seconds.

    The rate scales with the host speed measured so far, so a slow spell
    of the host does not push the loop into another queueing regime.  The
    schedule runs in quarter-second chunks with a reference sample
    between chunks; each chunk restarts the schedule.
    """
    rate *= clock.factor
    chunk = max(1, int(rate / 4))
    for first in range(0, len(sequence), chunk):
        begun = time.perf_counter()
        t0 = begun + 0.002
        for i, cell in enumerate(sequence[first:first + chunk]):
            due = t0 + i / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            start = time.perf_counter()
            _, answer = runner.run(cell)
            end = time.perf_counter()
            loop.lateness.append(max(0.0, start - due))
            loop.record(cell, end - due, answer)
        clock.sample()
        # the chunk's own sample and the one just before it
        loop.segments.append((begun - 0.01, time.perf_counter(), first,
                              len(loop.latencies)))
    return rate


def fresh_process_setup(root: str, argv: List[str], expect: str,
                        parse: Callable[[str], str],
                        clock: HostClock) -> Tuple[List[float], List[str]]:
    """``SETUP_STARTS`` fresh processes, each timed to its answer, which
    ``parse`` reads from its output and must equal ``expect``."""
    times, errors = [], []
    for _ in range(SETUP_STARTS):
        clock.sample()
        start = time.perf_counter()
        done = subprocess.run([python(), *argv], cwd=root, env=src_env(root),
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if done.returncode != 0 or parse(done.stdout) != expect:
            errors.append(f"setup start printed {done.stdout!r} "
                          f"(rc {done.returncode}, want {expect!r})")
    return times, errors


def _cli_optimum(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("optimal"):
            return line.split(":", 1)[1].strip()
    return "no-answer"


# -- metrics ---------------------------------------------------------------


def end_to_end(metrics: Metrics, closed: Loop, opened: Loop,
               setup: List[float], clock: HostClock) -> None:
    """``rps`` is the median of the per-pass rates; the tails of the open
    loop are block medians (see :func:`common.block_percentile`)."""
    cells, raw_rates, rates = closed.normalised(clock)
    metrics.add("rps", statistics.median(rates), "1/s", len(cells),
                statistics.median(raw_rates))
    metrics.add_tail("cell_p50_ms", cells, closed.latencies, 0.50)
    metrics.add_tail("cell_p90_ms", cells, closed.latencies, 0.90)
    opened_values = opened.normalised(clock)[0]
    metrics.add_tail("lat_p50_ms", opened_values, opened.latencies, 0.50)
    metrics.add_tail("lat_p95_ms", opened_values, opened.latencies, 0.95,
                     blocks=TAIL_BLOCKS)
    raw = statistics.median(setup)
    metrics.add("setup_s", raw * clock.factor, "s", len(setup), raw)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.add("peak_rss_mb", peak, "MB", 1)


def layer_metrics(metrics: Metrics, spans: List[list], passes: int,
                  factor: float) -> None:
    """Per-layer metrics of the in-process paths from one traced phase."""
    named = by_name(spans)

    def median_ms(name: str, values: List[float]) -> None:
        raw = statistics.median(values) * 1000.0 if values else 0.0
        metrics.add(name, raw * factor, "ms", len(values), raw)

    def rate(name: str, count: float, seconds: float, samples: int) -> None:
        raw = count / seconds if seconds > 0 else 0.0
        metrics.add(name, raw / factor, "1/s", samples, raw)

    def per_pass(name: str, total: float, samples: int) -> None:
        metrics.add(name, total / passes if passes else 0.0, "count", samples)

    build = named.get("generators.build", [])
    median_ms("generators.build_ms", [self_time(s) for s in build])
    median_ms("core.instance_ms", [duration(s) for s in named.get("core.instance", [])])
    replay = named.get("core.replay", [])
    rate("core.replay_moves_per_s", sum(s[7] for s in replay),
         sum(self_time(s) for s in replay), len(replay))

    solves = named.get("solvers.solve", [])
    small = [s for s in solves if s[5] and s[5][1] == "small"]
    large = [s for s in solves if s[5] and s[5][1] == "large"]
    median_ms("solvers.solve_small_ms", [duration(s) for s in small])
    median_ms("solvers.solve_large_ms", [duration(s) for s in large])
    expanded = sum(s[7][0] for s in solves)
    generated = sum(s[7][1] for s in solves)
    per_pass("solvers.expanded", expanded, len(solves))
    per_pass("solvers.generated", generated, len(solves))
    rate("solvers.expand_per_s", expanded, sum(self_time(s) for s in solves),
         len(solves))
    metrics.add("solvers.expand_ratio",
                expanded / generated if generated else 0.0, "ratio", len(solves))

    ml = named.get("multilevel.solve", [])
    median_ms("multilevel.solve_ms", [duration(s) for s in ml])
    ml_expanded = sum(s[7][0] for s in ml)
    per_pass("multilevel.expanded", ml_expanded, len(ml))
    rate("multilevel.expand_per_s", ml_expanded, sum(self_time(s) for s in ml),
         len(ml))

    for layer, span_name in (("heuristics.greedy_ms", "heuristics.greedy"),
                             ("heuristics.beam_ms", "heuristics.beam"),
                             ("heuristics.fixed_order_ms",
                              "heuristics.fixed_order")):
        median_ms(layer, [self_time(s) for s in named.get(span_name, [])])
    moves = [s for n in ("heuristics.greedy", "heuristics.beam",
                         "heuristics.fixed_order") for s in named.get(n, [])]
    per_pass("heuristics.moves", sum(s[7] for s in moves), len(moves))

    median_ms("experiments.method_ms",
              [self_time(s) for s in named.get("experiments.method", [])])
    median_ms("experiments.execute_ms",
              [s[7] for s in named.get("experiments.execute", [])])


def engine_sweep(cells: List[C.Cell], metrics: Metrics, factor: float) -> List[str]:
    """Every distinct exact cell re-solved on the bits and numpy engines
    (the engine crossover measurement); both must reach the optimum."""
    from repro.core.instance import PebblingInstance
    from repro.generators import dag_from_spec
    from repro.solvers.exact import solve_optimal

    errors = []
    for engine in ("bits", "numpy"):
        expanded, seconds, n = 0, 0.0, 0
        for cell in cells:
            if cell.path != "cli":
                continue
            inst = PebblingInstance(dag=dag_from_spec(cell.dag),
                                    model=cell.model, red_limit=cell.red)
            start = time.perf_counter()
            result = solve_optimal(inst, engine=engine)
            seconds += time.perf_counter() - start
            expanded += result.expanded
            n += 1
            if str(result.cost) != C.SOLVE_OPTIMA[cell.key]:
                errors.append(f"{cell.key}: engine {engine} found {result.cost}")
        raw = expanded / seconds
        metrics.add(f"solvers.{engine}_expand_per_s", raw / factor, "1/s", n, raw)
    return errors


# -- workloads -------------------------------------------------------------


def _run(root: str, seed: int, seconds: float, trace: bool, cells: List[C.Cell],
         check: Callable[[C.Cell, str, List[list]], List[str]],
         open_rate: float, closed_share: float, setup_argv: List[str],
         setup_key: Key,
         setup_parse: Callable[[str], str], sweep: bool) -> Outcome:
    clock = HostClock()
    runner = Runner()
    expected, errors = warm_up(runner, cells, check)
    # collections scan only what the cells allocate from here on, not the
    # imported modules or this benchmark's own bookkeeping
    gc.collect()
    gc.freeze()
    out = Outcome()
    out.count(len(cells), errors)

    metrics = out.metrics
    if not trace:
        setup, setup_errors = fresh_process_setup(
            root, setup_argv, expected[setup_key], setup_parse, clock)
        out.count(len(setup), setup_errors)
        opened = Loop(expected)
        closed_s = closed_share * seconds
        sequence = C.light_sequence(
            cells, seed, max(20, int(open_rate * (seconds - closed_s))), "open")
        closed = Loop(expected)
        closed_loop(runner, cells, seed, closed_s, clock, closed)
        offered = open_loop(runner, sequence, open_rate, clock, opened)
        for loop in (closed, opened):
            out.count(loop.attempted, loop.errors, loop.failed)
        end_to_end(metrics, closed, opened, setup, clock)
        out.record["closed"] = {"passes": closed.passes, "cells": closed.attempted,
                                "busy_s": closed.busy}
        out.record["open"] = {
            "rate_per_s": open_rate, "offered_per_s": offered,
            "requests": opened.attempted,
            "lateness_p50_ms": percentile(opened.lateness, 0.5) * 1000,
            "lateness_p99_ms": percentile(opened.lateness, 0.99) * 1000,
            "lateness_max_ms": max(opened.lateness, default=0.0) * 1000,
            "p99_ms_raw": percentile(opened.latencies, 0.99) * 1000,
            "p999_ms_raw": percentile(opened.latencies, 0.999) * 1000}
    else:
        plain = Loop(expected)
        closed_loop(runner, cells, seed, seconds / 2, clock, plain)
        tracer = Tracer()
        install_inprocess(tracer)
        traced = Loop(expected)
        try:
            closed_loop(runner, cells, seed, seconds / 2, clock, traced, tracer)
        finally:
            tracer.uninstall()
        for loop in (plain, traced):
            out.count(loop.attempted, loop.errors, loop.failed)
        factor = clock.factor
        layer_metrics(metrics, tracer.spans, traced.passes, factor)
        if sweep:
            out.count(2 * sum(c.path == "cli" for c in cells),
                      engine_sweep(cells, metrics, factor))
        # both at reference speed, so host drift between the halves cancels
        untraced = statistics.median(plain.normalised(clock)[2])
        traced_rps = statistics.median(traced.normalised(clock)[2])
        metrics.add("trace.overhead", traced_rps / untraced, "ratio",
                    len(traced.latencies))
        out.record["traced"] = {"passes": traced.passes, "spans": len(tracer.spans),
                                "untraced_rps": untraced,
                                "traced_rps": traced_rps}
    out.record["host_speed"] = {"factor": clock.factor,
                                "ref_samples": len(clock.samples),
                                "ref_mean_s": statistics.fmean(clock.samples)}
    return out


_HEUR_SETUP = (
    "from repro.experiments import TaskSpec, execute_task\n"
    "r = execute_task(TaskSpec(spec='pebblebench', dag='butterfly:3', "
    "model='oneshot', method='greedy', red_limit=3))\n"
    "print(r.status.value, r.cost)\n"
)


def solve_exact(root: str, seed: int, seconds: float, trace: bool) -> Outcome:
    setup = C.find(C.SOLVE_CELLS, ("tree:4", "nodel", "exact", "3"))
    return _run(root, seed, seconds, trace, C.SOLVE_CELLS, check_solve,
                SOLVE_OPEN_RATE, SOLVE_CLOSED_SHARE,
                ["-m", "repro", "solve", "--dag", setup.dag, "--model",
                 setup.model, "--red", str(setup.red)],
                setup.key, _cli_optimum, sweep=True)


def heur_kernels(root: str, seed: int, seconds: float, trace: bool) -> Outcome:
    key = ("butterfly:3", "oneshot", "greedy", "3")
    return _run(root, seed, seconds, trace, C.HEUR_CELLS, check_heuristic,
                HEUR_OPEN_RATE, HEUR_CLOSED_SHARE, ["-c", _HEUR_SETUP], key,
                lambda out: ":".join(out.split()[-2:]), sweep=False)
