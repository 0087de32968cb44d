"""Workload inputs: the fixed cell lists and the seeded query streams.

Every cell is one grid cell of the experiment vocabulary (DAG spec, cost
model, method, red limit).  The lists below are fixed; ``--seed`` only
orders them, draws the open-loop sequences and generates every ``rand:``
DAG of the service streams, so the program under test sees nothing but
the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: the seed used when none is given, and one that tuning never used
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


@dataclass(frozen=True)
class Cell:
    """One benchmark cell.

    ``path`` is ``"cli"`` for ``repro-pebble solve`` and ``"task"`` for
    ``execute_task``; ``size`` is ``"small"`` or ``"large"`` (the two
    sides of the exact-engine crossover) and ``light`` marks the cells
    the open-loop phase draws from.
    """

    dag: str
    model: str
    method: str
    red: int
    path: str = "task"
    size: str = "small"
    light: bool = False

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.dag, self.model, self.method, str(self.red))


def _exact(dag: str, model: str, red: int, size: str = "small",
           light: bool = False) -> Cell:
    return Cell(dag, model, "exact", red, "cli", size, light)


def _ml(method: str, dag: str, red: int, size: str = "small") -> Cell:
    return Cell(dag, "base", method, red, "task", size)


# solve-exact: three quarters small-frontier cells (1-30 ms on the bits
# kernel, where it beats numpy), one quarter large-frontier cells
# (0.1-0.8 s, where numpy wins 3-6x); all four models, plus ml:exact
# cells including two 3-level hierarchies.
SOLVE_CELLS: List[Cell] = [
    _exact("tree:4", "base", 3),
    _exact("tree:4", "oneshot", 3),
    _exact("tree:4", "nodel", 3, light=True),
    _exact("tree:4", "nodel", 4, light=True),
    _exact("tree:4", "compcost", 3),
    _exact("grid:3x3", "oneshot", 3),
    _exact("grid:3x3", "nodel", 3),
    _exact("grid:3x3", "nodel", 4),
    _exact("grid:3x3", "base", 4, light=True),
    _exact("grid:3x3", "compcost", 4, light=True),
    _exact("chain:8", "nodel", 2, light=True),
    _exact("chain:8", "nodel", 3, light=True),
    _exact("chain:8", "compcost", 3, light=True),
    _exact("pyramid:3", "nodel", 3),
    _exact("pyramid:3", "nodel", 4),
    _exact("pyramid:3", "oneshot", 4),
    _exact("grid:3x4", "oneshot", 4, light=True),
    _exact("grid:3x4", "nodel", 3),
    _exact("grid:3x4", "nodel", 4),
    _exact("grid:3x4", "base", 4),
    _exact("grid:3x4", "compcost", 4),
    _ml("ml:exact", "tree:4", 3),
    _ml("ml:exact", "grid:3x3", 3),
    _ml("ml:exact:hier:3,5:1,4", "tree:4", 3),
    _exact("pyramid:3", "base", 3, "large"),
    _exact("pyramid:3", "compcost", 3, "large"),
    _exact("grid:3x4", "oneshot", 3, "large"),
    _exact("grid:3x4", "compcost", 3, "large"),
    _exact("pyramid:4", "nodel", 4, "large"),
    _ml("ml:exact", "pyramid:3", 3, "large"),
    _ml("ml:exact:hier:3,6:1,4", "pyramid:3", 3, "large"),
]

#: optimum per solve-exact cell, pinned once and cross-checked on the
#: bits, numpy and legacy engines (the exact costs as Fraction strings)
SOLVE_OPTIMA: Dict[Tuple[str, str, str, str], str] = {
    ("tree:4", "base", "exact", "3"): "2",
    ("tree:4", "oneshot", "exact", "3"): "2",
    ("tree:4", "nodel", "exact", "3"): "6",
    ("tree:4", "nodel", "exact", "4"): "3",
    ("tree:4", "compcost", "exact", "3"): "207/100",
    ("grid:3x3", "oneshot", "exact", "3"): "4",
    ("grid:3x3", "nodel", "exact", "3"): "10",
    ("grid:3x3", "nodel", "exact", "4"): "5",
    ("grid:3x3", "base", "exact", "4"): "0",
    ("grid:3x3", "compcost", "exact", "4"): "9/100",
    ("chain:8", "nodel", "exact", "2"): "6",
    ("chain:8", "nodel", "exact", "3"): "5",
    ("chain:8", "compcost", "exact", "3"): "2/25",
    ("pyramid:3", "nodel", "exact", "3"): "13",
    ("pyramid:3", "nodel", "exact", "4"): "8",
    ("pyramid:3", "oneshot", "exact", "4"): "2",
    ("grid:3x4", "oneshot", "exact", "4"): "0",
    ("grid:3x4", "nodel", "exact", "3"): "15",
    ("grid:3x4", "nodel", "exact", "4"): "8",
    ("grid:3x4", "base", "exact", "4"): "0",
    ("grid:3x4", "compcost", "exact", "4"): "3/25",
    ("tree:4", "base", "ml:exact", "3"): "2",
    ("grid:3x3", "base", "ml:exact", "3"): "2",
    ("tree:4", "base", "ml:exact:hier:3,5:1,4", "3"): "2",
    ("pyramid:3", "base", "exact", "3"): "6",
    ("pyramid:3", "compcost", "exact", "3"): "61/10",
    ("grid:3x4", "oneshot", "exact", "3"): "6",
    ("grid:3x4", "compcost", "exact", "3"): "207/50",
    ("pyramid:4", "nodel", "exact", "4"): "15",
    ("pyramid:3", "base", "ml:exact", "3"): "6",
    ("pyramid:3", "base", "ml:exact:hier:3,6:1,4", "3"): "6",
}


def _heur(dag: str, method: str, red: int, light: bool = False) -> Cell:
    return Cell(dag, "oneshot", method, red, "task", "small", light)


# heur-kernels: the heuristic tier on real-kernel DAGs of 27-378 nodes;
# no cell reaches the exact search kernel.
HEUR_CELLS: List[Cell] = [
    _heur("matmul:3", "heur:portfolio", 3),
    _heur("matmul:3", "heur:portfolio", 5),
    _heur("matmul:3", "greedy", 3),
    _heur("matmul:3", "baseline", 3, light=True),
    _heur("matmul:4:b2", "heur:portfolio", 3),
    _heur("matmul:4:b2", "greedy", 5),
    _heur("matmul:4", "baseline", 3),
    _heur("conv:16:3", "heur:portfolio", 3),
    _heur("conv:16:3", "heur:portfolio", 5),
    _heur("conv:16:3", "baseline", 3),
    _heur("conv:24:4:c2", "greedy", 3),
    _heur("conv:24:4:c2", "baseline", 5),
    _heur("attn:4", "heur:portfolio", 3),
    _heur("attn:4", "greedy", 5),
    _heur("attn:4", "baseline", 3),
    _heur("attn:6:h2", "greedy", 3),
    _heur("attn:6:h2", "baseline", 5),
    _heur("stencil:3x3:t2", "heur:portfolio:4", 6),
    _heur("stencil:3x3:t2", "greedy", 6, light=True),
    _heur("stencil:3x3:t2", "baseline", 8, light=True),
    _heur("stencil:6x6:t3", "heur:portfolio", 6),
    _heur("stencil:6x6:t3", "greedy", 8),
    _heur("stencil:6x6:t3", "baseline", 6),
    _heur("butterfly:3", "heur:portfolio", 3),
    _heur("butterfly:3", "greedy", 3, light=True),
    _heur("butterfly:3", "baseline", 5, light=True),
    _heur("butterfly:5", "heur:portfolio", 3),
    _heur("butterfly:5", "heur:portfolio", 5),
    _heur("butterfly:5", "greedy", 3),
    _heur("butterfly:5", "baseline", 3),
]


def service_cell(rng: random.Random, index: int, seed: int) -> Dict[str, object]:
    """A distinct cheap query: greedy/baseline on a seeded ``rand:`` DAG.

    The ``rand:`` seed is derived from the run seed and the query index,
    so no two queries of one stream (and no two streams) share a cell.
    """
    n = rng.randint(12, 16)
    p = rng.choice(("0.2", "0.25", "0.3"))
    return {
        "dag": f"rand:{n}:{p}:s{seed * 1_000_003 + index}",
        "model": rng.choice(("oneshot", "base", "nodel", "compcost")),
        "method": rng.choice(("greedy", "baseline")),
        "red_limit": "min",
    }


class QueryStream:
    """The seeded service stream: mostly distinct cells, some repeats.

    ``REPEAT_SHARE`` of the queries repeat a cell issued at least
    ``REPEAT_LAG`` queries earlier, which by then is in the result store;
    the rest are new cells that miss it.
    """

    REPEAT_SHARE = 0.2
    REPEAT_LAG = 50

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(f"stream-{seed}")
        self._issued: List[Dict[str, object]] = []

    def next(self) -> Dict[str, object]:
        issued = self._issued
        if (len(issued) > self.REPEAT_LAG
                and self._rng.random() < self.REPEAT_SHARE):
            query = issued[self._rng.randrange(len(issued) - self.REPEAT_LAG)]
        else:
            query = service_cell(self._rng, len(issued), self.seed)
        issued.append(query)
        return query

    def batch(self, distinct: int, duplicates: int) -> List[Dict[str, object]]:
        """``distinct`` new cells plus ``duplicates`` in-batch repeats."""
        cells = [service_cell(self._rng, len(self._issued) + i, self.seed)
                 for i in range(distinct)]
        self._issued.extend(cells)
        return cells + [cells[i % distinct] for i in range(duplicates)]


def query_key(query: Dict[str, object]) -> Tuple[str, str, str, str]:
    return (str(query["dag"]), str(query["model"]), str(query["method"]),
            str(query["red_limit"]))


def light_sequence(cells: List[Cell], seed: int, count: int,
                   salt: str) -> List[Cell]:
    """``count`` light cells: every light cell equally often (up to one),
    in a seeded order, so the mix is the same for every seed."""
    light = [c for c in cells if c.light]
    sequence = [light[i % len(light)] for i in range(count)]
    random.Random(f"{salt}-{seed}").shuffle(sequence)
    return sequence


def shuffled(cells: List[Cell], seed: int, salt: str) -> List[Cell]:
    out = list(cells)
    random.Random(f"{salt}-{seed}").shuffle(out)
    return out


def find(cells: List[Cell], key: Tuple[str, str, str, str]) -> Optional[Cell]:
    return next((c for c in cells if c.key == key), None)
