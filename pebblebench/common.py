"""Shared machinery: host-speed reference, statistics, process control.

Host speed on a shared machine drifts by tens of percent within a
minute, and the drift moves the program's times with it.  Every run
therefore interleaves a fixed reference kernel (dict and heap churn
shaped like a best-first search, sharing no code with ``repro``) with
the measured work, and reports each timing at *reference speed*: raw
time x ``REF_NOMINAL_S`` / mean reference time.  The raw figures and the
speed factor stay in the run record.
"""

from __future__ import annotations

import ctypes
import gc
import heapq
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: reference times that define reference speed (seconds): the
#: single-threaded kernel, and the kernel plus the pipeline round trips
REF_NOMINAL_S = 0.004
PIPELINE_NOMINAL_S = 0.007

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
#: open-loop tails are the median over this many consecutive blocks
TAIL_BLOCKS = 3


def _reference_kernel() -> int:
    seen: Dict[int, int] = {}
    heap = [(0, 1)]
    popped = 0
    while heap and popped < 1000:
        g, s = heapq.heappop(heap)
        popped += 1
        for k in (1, 3, 7, 11):
            t = (s * 2654435761 + k) & 0xFFFFFFFFFF
            if t not in seen:
                seen[t] = g + k
                heapq.heappush(heap, (g + (t & 7), t))
    return len(seen)


class HostClock:
    """Samples the reference kernel between chunks of measured work."""

    #: ``maybe_sample`` samples at most this often (seconds)
    EVERY_S = 0.1

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.ends: List[float] = []
        self._last = 0.0

    def sample(self) -> None:
        # with the collector off, the kernel's allocations cannot trigger a
        # collection of the program's heap inside the timed region
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self._record(start, end)

    def _record(self, start: float, end: float) -> None:
        self.samples.append(end - start)
        self.ends.append(end)
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    nominal = REF_NOMINAL_S

    @property
    def factor(self) -> float:
        """Multiply a raw time by this to get it at reference speed."""
        if not self.samples:
            self.sample()
        return self.nominal / statistics.fmean(self.samples)

    def factor_between(self, t0: float, t1: float) -> float:
        """The factor from the samples taken between ``t0`` and ``t1``
        (from the sample nearest that span when none was)."""
        inside = [d for d, e in zip(self.samples, self.ends) if t0 <= e <= t1]
        if not inside:
            if not self.samples:
                self.sample()
            mid = (t0 + t1) / 2
            nearest = min(range(len(self.ends)), key=lambda i: abs(self.ends[i] - mid))
            inside = [self.samples[nearest]]
        return self.nominal / statistics.fmean(inside)

    def close(self) -> None:
        pass


_ECHO = (
    "import sys\n"
    "src, dst = sys.stdin.buffer, sys.stdout.buffer\n"
    "for line in src:\n"
    "    seen = {}\n"
    "    for i in range(300):\n"
    "        seen[(i * 2654435761) & 0xFFFFF] = i\n"
    "    dst.write(b'%d\\n' % len(seen))\n"
    "    dst.flush()\n"
)


class PipelineClock(HostClock):
    """Host speed as seen by a multi-process pipeline.

    The service path is mostly process wake-ups and pipe or socket hops
    across both cores, which a slow spell of the host stretches
    differently from single-threaded work.  This reference sends
    ``ROUND_TRIPS`` messages through an echo process (plain stdlib, no
    ``repro`` code) that does a little dict work per message, and times
    them together with the single-threaded kernel.
    """

    ROUND_TRIPS = 20
    nominal = PIPELINE_NOMINAL_S

    def __init__(self) -> None:
        super().__init__()
        self._echo = subprocess.Popen(
            [python(), "-c", _ECHO], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)

    def sample(self) -> None:
        echo = self._echo
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(self.ROUND_TRIPS):
                echo.stdin.write(b"x\n")
                echo.stdin.flush()
                echo.stdout.readline()
            _reference_kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self._record(start, end)

    def close(self) -> None:
        self._echo.stdin.close()
        self._echo.stdout.close()
        self._echo.wait(timeout=10)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_supported(n: int, q: float) -> bool:
    return n * (1.0 - q) >= TAIL_SAMPLES - 1e-9


def block_percentile(values: Sequence[float], q: float, blocks: int) -> float:
    """Median over ``blocks`` consecutive blocks of each block's
    ``q``-quantile: one burst of host stalls moves one block, not the
    result.  With too few samples for that, the plain quantile."""
    size = len(values) // blocks
    if not tail_supported(size, q):
        return percentile(values, q)
    return statistics.median(
        percentile(values[i * size:(i + 1) * size], q) for i in range(blocks))


class Metrics:
    """Named metrics with unit and sample count, plus raw companions."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, object]] = {}
        self.warnings: List[str] = []

    def add(self, name: str, value: float, unit: str, samples: int,
            raw: Optional[float] = None) -> None:
        entry: Dict[str, object] = {"value": value, "unit": unit,
                                    "samples": samples}
        if raw is not None:
            entry["raw"] = raw
        self.values[name] = entry

    def add_tail(self, name: str, values: Sequence[float], raw: Sequence[float],
                 q: float, blocks: int = 1) -> None:
        """A latency percentile in ms: ``values`` at reference speed,
        ``raw`` as measured (the same samples, in the same order)."""
        per_block = len(values) // blocks
        if q > 0.5 and not tail_supported(per_block, q):
            self.warnings.append(
                f"{name}: {per_block} samples per block leave fewer than "
                f"{TAIL_SAMPLES} beyond p{round(q * 100)}")
        self.add(name, block_percentile(values, q, blocks) * 1000.0, "ms",
                 len(values), block_percentile(raw, q, blocks) * 1000.0)

    def result(self, names: Iterable[str]) -> Dict[str, Dict[str, object]]:
        return {n: {"value": self.values[n]["value"],
                    "unit": self.values[n]["unit"]} for n in names}


def host_info() -> Dict[str, object]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def git_commit(root: str) -> Optional[str]:
    """The checkout's commit, when it is a git work tree (else None)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


# -- processes -----------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be waited for (Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_adopted() -> None:
    """Wait for every already-exited adopted descendant."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2:].split()


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(name))
    return members


def children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="utf-8") as fh:
                kids.extend(int(k) for k in fh.read().split())
    except OSError:
        pass
    return kids


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def stop_group(proc: subprocess.Popen, grace: float = 12.0) -> Tuple[str, str]:
    """Stop a process started with ``start_new_session=True`` and every
    process of its group, wait until all of them have ended, and return
    what the leader wrote to its stdout and stderr pipes.

    SIGINT asks for a clean shutdown; whatever is still alive after
    ``grace`` seconds (a retire stuck in its 5 s join, a wedged worker)
    is killed.
    """
    pgid = proc.pid
    out, err = "", ""
    if proc.poll() is None:
        try:
            os.kill(proc.pid, signal.SIGINT)
        except ProcessLookupError:
            pass
    try:
        out, err = proc.communicate(timeout=grace)
    except subprocess.TimeoutExpired:
        pass
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.poll() is None:
            try:
                more_out, more_err = proc.communicate(timeout=0.5)
                out, err = out + (more_out or ""), err + (more_err or "")
            except subprocess.TimeoutExpired:
                pass
        reap_adopted()
        if proc.poll() is not None and not group_members(pgid):
            return out or "", err or ""
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes of group {pgid} did not exit")
        time.sleep(0.05)


def src_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


def python() -> str:
    return sys.executable or "python3"


class Outcome:
    """What a workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.metrics = Metrics()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.record: Dict[str, object] = {}

    def count(self, attempted: int, errors: Sequence[str],
              failed: Optional[int] = None) -> None:
        """Add ``attempted`` checked answers, of which ``failed`` (default:
        one per error) were wrong."""
        self.attempted += attempted
        self.failed += len(errors) if failed is None else failed
        self.errors.extend(errors)
