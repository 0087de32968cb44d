"""The service workloads: ``serve-miss`` and ``serve-batch``.

``repro-pebble serve`` runs with its defaults (``--jobs 2``, two
dispatchers) in its own process group, started through ``launcher.py``.
Its result store is sqlite in memory (``sqlite::memory:``): the sqlite
store path runs, nothing is written outside the checkout, and disk
fsync does not set the figures.  The load comes from this process over
two keep-alive connections, one driven by the main thread and one by a
helper thread:

* a closed loop in one-second chunks (a reference sample between
  chunks) gives ``rps`` and the per-cell latency percentiles;
* an open loop at a fixed rate, each request timed from when it was due,
  gives ``lat_p50_ms`` / ``lat_p95_ms`` and the generator's lateness.

``rps`` is the median of the chunk rates, and every time is scaled to
reference speed by the pipeline clock sampled around its own chunk.  The
open-loop tail is reported as p95: p99 sits on the edge of the requests
delayed by the server's garbage-collection pauses (about 1% of them) and
moved by 20-50% from run to run, so it stays in the run record with
p99.9.  On ``serve-batch`` a retire stuck in ``retire_pipe_worker``'s 5 s
join stalls a chunk now and then; the median keeps ``rps`` resolvable,
and the stalls are counted in the run record and read from the traced
run (``experiments.backend.retire_ms``, ``spawns_per_1k``).

Every answer is compared, after the server has stopped, with
``execute_task`` run in this process on the same cell.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import selectors
import statistics
import subprocess
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import cells as C
from .common import (
    TAIL_BLOCKS,
    HostClock,
    Outcome,
    PipelineClock,
    children,
    percentile,
    python,
    src_env,
    stop_group,
    vm_hwm_kb,
)
from .tracing import by_name, duration

CONNECTIONS = 2
#: the server's default pool size (splits backend busy time into
#: execution and IPC)
SERVER_JOBS = 2
#: open-loop rates: requests (serve-miss) or batch requests (serve-batch)
#: per second at reference speed.  serve-miss runs at about half its
#: capacity; serve-batch stays below the rate at which concurrent batches
#: make the pool churn without end.
MISS_OPEN_RATE = 350.0
BATCH_OPEN_RATE = 55.0
#: share of ``--seconds`` given to the closed loop (the rest is open loop)
MISS_CLOSED_SHARE = 0.5
BATCH_CLOSED_SHARE = 0.2
#: load runs in chunks this long, with a reference sample between chunks
CHUNK_S = 1.0
BATCH_DISTINCT, BATCH_REPEATS = 3, 1
WARM_UP_REQUESTS = 20
SETUP_STARTS = 5
#: a request slower than this is counted as a stall in the run record
STALL_S = 1.0
VERIFY_WORKERS = 2

Key = Tuple[str, str, str, str]
SETUP_QUERY = {"dag": "chain:8", "model": "oneshot", "method": "greedy",
               "red_limit": "min"}


class Server:
    """One ``repro-pebble serve`` process group."""

    def __init__(self, root: str, trace: bool) -> None:
        argv = [python(), os.path.join("pebblebench", "launcher.py")]
        if trace:
            argv.append("--trace")
        argv += ["serve", "--port", "0", "--store", "sqlite::memory:"]
        self.output = ""
        self.errors = ""
        self.proc = subprocess.Popen(
            argv, cwd=root, env=src_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        self.port = self._read_port()

    def _read_port(self) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(timeout=60):
                self.stop()
                raise RuntimeError("server did not start within 60 s")
        finally:
            selector.close()
        line = self.proc.stdout.readline()
        if "serving on" not in line:
            self.stop()
            raise RuntimeError(f"server failed to start: {line!r} {self.errors}")
        return int(line.rsplit(":", 1)[1])

    def peak_rss_kb(self) -> int:
        """Peak RSS of the server plus that of each live worker."""
        return vm_hwm_kb(self.proc.pid) + sum(
            vm_hwm_kb(pid) for pid in children(self.proc.pid))

    def stop(self) -> None:
        out, err = stop_group(self.proc)
        self.output += out
        self.errors += err

    def spans(self) -> List[list]:
        for line in self.output.splitlines():
            if line.startswith("PEBBLEBENCH-TRACE "):
                return json.loads(line[len("PEBBLEBENCH-TRACE "):])
        raise RuntimeError("traced server printed no spans")


class Connection:
    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, path: str, payload: object) -> Tuple[int, dict]:
        self.http.request("POST", path, json.dumps(payload),
                          {"Content-Type": "application/json"})
        response = self.http.getresponse()
        return response.status, json.loads(response.read())

    def stats(self) -> Dict[str, int]:
        self.http.request("GET", "/v1/stats")
        return json.loads(self.http.getresponse().read())["stats"]["queue"]

    def close(self) -> None:
        self.http.close()


class Shape:
    """How one workload turns its stream into requests and answers."""

    def __init__(self, seed: int, batch: bool) -> None:
        self.batch = batch
        self.stream = C.QueryStream(seed)
        self.lock = threading.Lock()

    def next(self) -> Tuple[str, object, List[dict]]:
        """(path, payload, cells) of the next request."""
        with self.lock:
            if self.batch:
                cells = self.stream.batch(BATCH_DISTINCT, BATCH_REPEATS)
                return "/v1/batch", {"queries": cells}, cells
            query = self.stream.next()
            return "/v1/query", query, [query]

    @staticmethod
    def answers(cells: List[dict], status: int, body: dict) -> List[Tuple[Key, str]]:
        """(cell key, ``status:cost``) per cell; ``http-NNN`` on failure."""
        envelopes = body.get("results") if "results" in body else [body]
        if status != 200 or not isinstance(envelopes, list) \
                or len(envelopes) != len(cells):
            return [(C.query_key(c), f"http-{status}") for c in cells]
        out = []
        for cell, env in zip(cells, envelopes):
            result = env.get("result") or {}
            out.append((C.query_key(cell),
                        f"{result.get('status')}:{result.get('cost')}"))
        return out


class Exchange:
    """One request/response as the client saw it."""

    __slots__ = ("due", "sent", "done", "cells", "answers")

    def __init__(self, due: float, sent: float, done: float, cells: List[dict],
                 answers: List[Tuple[Key, str]]) -> None:
        self.due, self.sent, self.done = due, sent, done
        self.cells, self.answers = cells, answers


def _exchange(conn: Connection, request: Tuple[str, object, List[dict]],
              due: Optional[float] = None) -> Exchange:
    path, payload, cells = request
    sent = time.perf_counter()
    status, body = conn.post(path, payload)
    done = time.perf_counter()
    return Exchange(sent if due is None else due, sent, done, cells,
                    Shape.answers(cells, status, body))


def _with_helper(conns: List[Connection], drive: Callable[[Connection], None]) -> None:
    """Run ``drive`` on the first connection here and on the second in a
    helper thread; re-raise a failure of either."""
    failure: List[BaseException] = []

    def helper() -> None:
        try:
            drive(conns[1])
        except BaseException as exc:  # handed to the main thread below
            failure.append(exc)

    thread = threading.Thread(target=helper, name="pebblebench-conn-1")
    thread.start()
    try:
        drive(conns[0])
    finally:
        thread.join()
    if failure:
        raise failure[0]


class Chunk:
    """One stretch of load between two reference samples."""

    __slots__ = ("start", "end", "elapsed", "exchanges")

    def __init__(self, start: float, end: float, elapsed: float,
                 exchanges: List[Exchange]) -> None:
        self.start, self.end = start, end  # end: after the reference sample
        self.elapsed, self.exchanges = elapsed, exchanges

    def rate(self) -> float:
        """Answered cells per second."""
        return sum(len(x.cells) for x in self.exchanges) / self.elapsed

    def factor(self, clock: HostClock) -> float:
        """Host speed over this chunk: its own sample and the one before."""
        return clock.factor_between(self.start - 0.01, self.end)


def closed_loop(conns: List[Connection], shape: Shape, budget: float,
                clock: HostClock) -> List[Chunk]:
    """Closed-loop chunks of ``CHUNK_S`` until ``budget`` is spent."""
    chunks: List[Chunk] = []
    spent = 0.0
    while spent < budget or not chunks:
        start = time.perf_counter()
        deadline = start + min(CHUNK_S, max(0.05, budget - spent))
        exchanges: List[Exchange] = []

        def drive(conn: Connection) -> None:
            while time.perf_counter() < deadline:
                exchanges.append(_exchange(conn, shape.next()))

        _with_helper(conns, drive)
        elapsed = time.perf_counter() - start
        spent += elapsed
        clock.sample()
        chunks.append(Chunk(start, time.perf_counter(), elapsed, exchanges))
    return chunks


def open_loop(conns: List[Connection], requests: List[Tuple[str, object, List[dict]]],
              rate: float, clock: HostClock) -> Tuple[float, List[Chunk]]:
    """Requests due every 1/rate s of reference time, in chunks of
    ``CHUNK_S``; each connection sends the next due request as soon as it
    is free.  Returns the rate offered in real seconds (scaled by the host
    speed measured so far, as in :func:`inproc.open_loop`) and the chunks."""
    rate *= clock.factor
    size = max(1, int(rate * CHUNK_S))
    chunks: List[Chunk] = []
    for first in range(0, len(requests), size):
        part = requests[first:first + size]
        start = time.perf_counter()
        t0 = start + 0.002
        cursor = [0]
        lock = threading.Lock()
        exchanges: List[Exchange] = []

        def drive(conn: Connection) -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(part):
                    return
                due = t0 + i / rate
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                exchanges.append(_exchange(conn, part[i], due))

        _with_helper(conns, drive)
        elapsed = time.perf_counter() - start
        clock.sample()
        exchanges.sort(key=lambda x: x.due)
        chunks.append(Chunk(start, time.perf_counter(), elapsed, exchanges))
    return rate, chunks


def _warm_up(conns: List[Connection], shape: Shape, log: List[Exchange]) -> None:
    for i in range(WARM_UP_REQUESTS):
        log.append(_exchange(conns[i % len(conns)], shape.next()))


def _connect(server: Server) -> List[Connection]:
    return [Connection(server.port) for _ in range(CONNECTIONS)]


def setup_starts(root: str, clock: HostClock) -> Tuple[List[float], List[Exchange]]:
    """Fresh server processes, each timed from start to its first answer."""
    times, log = [], []
    for _ in range(SETUP_STARTS):
        clock.sample()
        start = time.perf_counter()
        server = Server(root, trace=False)
        try:
            conn = Connection(server.port)
            log.append(_exchange(conn, ("/v1/query", SETUP_QUERY, [SETUP_QUERY])))
            times.append(time.perf_counter() - start)
            conn.close()
        finally:
            server.stop()
    return times, log


# -- checks ------------------------------------------------------------------


_VERIFY = (
    "import json, sys\n"
    "from repro.experiments import TaskSpec, execute_task\n"
    "out = []\n"
    "for dag, model, method, red in json.load(sys.stdin):\n"
    "    r = execute_task(TaskSpec(spec='service', dag=dag, model=model,\n"
    "                              method=method, red_limit=red))\n"
    "    out.append(f'{r.status.value}:{r.cost}')\n"
    "json.dump(out, sys.stdout)\n"
)


def verify(root: str, log: List[Exchange], out: Outcome) -> None:
    """Every answer against ``execute_task`` on the same cell, computed
    in two fresh processes after the server has stopped."""
    keys = sorted({key for x in log for key, _ in x.answers})
    parts = [keys[i::VERIFY_WORKERS] for i in range(VERIFY_WORKERS)]
    procs = [subprocess.Popen([python(), "-c", _VERIFY], cwd=root,
                              env=src_env(root), stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
             for _ in parts]
    expected: Dict[Key, str] = {}
    try:
        for proc, part in zip(procs, parts):
            proc.stdin.write(json.dumps(part))
            proc.stdin.close()
        for proc, part in zip(procs, parts):
            expected.update(zip(part, json.loads(proc.stdout.read())))
    finally:
        for proc in procs:
            proc.stdout.close()
            proc.wait(timeout=60)
    errors: List[str] = []
    answered = 0
    for exchange in log:
        for key, answer in exchange.answers:
            answered += 1
            if answer != expected.get(key):
                errors.append(f"{key}: served {answer}, in process "
                              f"{expected.get(key)}")
    out.count(answered, errors)
    out.record["distinct_cells_checked"] = len(expected)


# -- metrics -------------------------------------------------------------------


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before.get(k, 0) for k in after
            if isinstance(after[k], int) and k != "largest_batch"}


def layer_metrics(out: Outcome, spans: List[list], log: List[Exchange],
                  stats: Dict[str, int], factor: float) -> None:
    """Per-layer metrics of the service path from one traced server."""
    metrics = out.metrics
    named = by_name(spans)

    def ms(name: str, values: List[float], mean: bool = False) -> None:
        pick = statistics.fmean if mean else statistics.median
        raw = pick(values) * 1000.0 if values else 0.0
        metrics.add(name, raw * factor, "ms", len(values), raw)

    runs = named.get("experiments.backend.run_tasks", [])
    walls = [w for r in runs for w in r[7]["walls"]]
    ms("experiments.execute_ms", walls)
    ms("experiments.backend.busy_ms", [duration(r) for r in runs])
    ms("experiments.backend.ipc_ms",
       [duration(r) - sum(r[7]["walls"]) / min(SERVER_JOBS, len(r[7]["walls"]))
        for r in runs if r[7]["walls"]])
    spawns = named.get("experiments.backend.spawn", [])
    metrics.add("experiments.backend.spawns_per_1k",
                1000.0 * len(spawns) / len(walls) if walls else 0.0,
                "count/1k", len(walls))
    retires = named.get("experiments.backend.retire", [])
    ms("experiments.backend.retire_ms", [duration(r) for r in retires], mean=True)
    gets = named.get("experiments.store.get", [])
    ms("experiments.store.get_ms", [duration(g) for g in gets])
    ms("experiments.store.put_ms",
       [duration(p) for p in named.get("experiments.store.put", [])])
    metrics.add("experiments.store.hit_ratio",
                sum(1 for g in gets if g[7]) / len(gets) if gets else 0.0,
                "ratio", len(gets))

    submits: Dict[tuple, List[list]] = {}
    for span in named.get("service.submit", []):
        submits.setdefault(tuple(span[7][0]), []).append(span)
    http = []
    for x in log:
        inside = [s for cell in x.cells for s in submits.get(C.query_key(cell), [])
                  if x.sent <= s[2] <= x.done]
        if inside:
            covered = max(s[3] for s in inside) - min(s[2] for s in inside)
            http.append(x.done - x.sent - covered)
    ms("service.http_ms", http)
    dispatch: Dict[tuple, List[float]] = {}
    for r in runs:
        for key in r[7]["keys"]:
            dispatch.setdefault(tuple(key), []).append(r[2])
    waits = []
    for key, spans_of_key in submits.items():
        starts = sorted(dispatch.get(key, []))
        for s in spans_of_key:
            later = [t for t in starts if t >= s[2]]
            if not s[7][1] and later:
                waits.append(later[0] - s[2])
    ms("service.queue_wait_ms", waits)
    batches, requests = stats.get("batches", 0), stats.get("requests", 0)
    metrics.add("service.batch_size",
                stats.get("executed", 0) / batches if batches else 0.0,
                "count", batches)
    metrics.add("service.coalesced_share",
                stats.get("coalesced", 0) / requests if requests else 0.0,
                "ratio", requests)


# -- workloads -----------------------------------------------------------------


class Session:
    """What one server run produced."""

    def __init__(self) -> None:
        self.server: Optional[Server] = None
        self.warm: List[Exchange] = []
        self.chunks: List[Chunk] = []
        self.open_chunks: List[Chunk] = []
        self.offered = 0.0
        self.stats: Dict[str, int] = {}
        self.peak_kb = 0

    @property
    def closed(self) -> List[Exchange]:
        return [x for chunk in self.chunks for x in chunk.exchanges]

    @property
    def opened(self) -> List[Exchange]:
        return [x for chunk in self.open_chunks for x in chunk.exchanges]


def _session(root: str, shape: Shape, trace: bool, clock: HostClock,
             closed_s: float, open_requests: int, open_rate: float) -> Session:
    """One server: warm-up, a closed loop, then (optionally) an open loop."""
    run = Session()
    run.server = Server(root, trace=trace)
    gc.disable()  # the client's own collections would stall the load
    try:
        conns = _connect(run.server)
        _warm_up(conns, shape, run.warm)
        stats0 = conns[0].stats()
        run.chunks = closed_loop(conns, shape, closed_s, clock)
        if open_requests:
            requests = [shape.next() for _ in range(open_requests)]
            run.offered, run.open_chunks = open_loop(conns, requests,
                                                     open_rate, clock)
        run.stats = _delta(conns[0].stats(), stats0)
        run.peak_kb = run.server.peak_rss_kb()
        for conn in conns:
            conn.close()
    finally:
        gc.enable()
        run.server.stop()
    return run


def _run(root: str, seed: int, seconds: float, trace: bool, batch: bool,
         open_rate: float, closed_share: float) -> Outcome:
    out = Outcome()
    clock = PipelineClock()
    try:
        _workload(out, clock, root, seed, seconds, trace, batch, open_rate,
                  closed_share)
    finally:
        clock.close()
    out.record["host_speed"] = {"factor": clock.factor,
                                "ref_samples": len(clock.samples),
                                "ref_mean_s": statistics.fmean(clock.samples)}
    return out


def _workload(out: Outcome, clock: HostClock, root: str, seed: int,
              seconds: float, trace: bool, batch: bool, open_rate: float,
              closed_share: float) -> None:
    log: List[Exchange] = []
    record = out.record
    closed_s = closed_share * seconds
    if not trace:
        setup, setup_log = setup_starts(root, clock)
        log.extend(setup_log)
        open_requests = max(20, int(open_rate * (seconds - closed_s)))
        run = _session(root, Shape(seed, batch), False, clock, closed_s,
                       open_requests, open_rate)
        closed = run.closed
        log.extend(run.warm + closed + run.opened)
        m = out.metrics
        factors = [c.factor(clock) for c in run.chunks]
        raw_rates = [c.rate() for c in run.chunks]
        m.add("rps", statistics.median(r / f for r, f in zip(raw_rates, factors)),
              "1/s", len(closed), statistics.median(raw_rates))
        cell_raw = [x.done - x.sent for c in run.chunks for x in c.exchanges
                    for _ in x.cells]
        cell_lat = [(x.done - x.sent) * f for c, f in zip(run.chunks, factors)
                    for x in c.exchanges for _ in x.cells]
        m.add_tail("cell_p50_ms", cell_lat, cell_raw, 0.50)
        m.add_tail("cell_p90_ms", cell_lat, cell_raw, 0.90)
        lat_raw = [x.done - x.due for x in run.opened]
        lat = [(x.done - x.due) * c.factor(clock) for c in run.open_chunks
               for x in c.exchanges]
        m.add_tail("lat_p50_ms", lat, lat_raw, 0.50)
        m.add_tail("lat_p95_ms", lat, lat_raw, 0.95, blocks=TAIL_BLOCKS)
        raw_setup = statistics.median(setup)
        m.add("setup_s", raw_setup * clock.factor, "s", len(setup), raw_setup)
        m.add("peak_rss_mb", run.peak_kb / 1024.0, "MB", 1)
        lateness = [x.sent - x.due for x in run.opened]
        record["closed"] = {
            "requests": len(closed), "chunk_rates": raw_rates,
            "chunk_factors": factors,
            "overall_rate": sum(len(x.cells) for x in closed)
            / sum(c.elapsed for c in run.chunks),
            "stalls": sum(1 for x in closed if x.done - x.sent > STALL_S)}
        record["open"] = {
            "rate_per_s": open_rate, "offered_per_s": run.offered,
            "requests": len(run.opened),
            "stalls": sum(1 for x in run.opened if x.done - x.sent > STALL_S),
            "lateness_p50_ms": percentile(lateness, 0.5) * 1000,
            "lateness_p99_ms": percentile(lateness, 0.99) * 1000,
            "lateness_max_ms": max(lateness, default=0.0) * 1000,
            "p99_ms_raw": percentile(lat_raw, 0.99) * 1000,
            "p999_ms_raw": percentile(lat_raw, 0.999) * 1000}
        record["stats_delta"] = run.stats
    else:
        rps = {}
        for traced in (False, True):
            # a fresh stream per server, whose store starts empty
            run = _session(root, Shape(seed + traced, batch), traced, clock,
                           seconds / 2, 0, open_rate)
            log.extend(run.warm + run.closed)
            # at reference speed, so host drift between the servers cancels
            rps[traced] = statistics.median(c.rate() / c.factor(clock)
                                            for c in run.chunks)
        layer_metrics(out, run.server.spans(), run.closed, run.stats,
                      clock.factor)
        out.metrics.add("trace.overhead", rps[True] / rps[False], "ratio",
                        len(run.closed))
        record["stats_delta"] = run.stats
        record["traced"] = {"untraced_rps": rps[False],
                            "traced_rps": rps[True]}
    verify(root, log, out)


def serve_miss(root: str, seed: int, seconds: float, trace: bool) -> Outcome:
    return _run(root, seed, seconds, trace, False, MISS_OPEN_RATE,
                MISS_CLOSED_SHARE)


def serve_batch(root: str, seed: int, seconds: float, trace: bool) -> Outcome:
    return _run(root, seed, seconds, trace, True, BATCH_OPEN_RATE,
                BATCH_CLOSED_SHARE)
