"""Query-counted local-search algorithms and the search-to-decision wrapper.

The oracle counts distinct first-time queries (the information-theoretic
metric); repeats are served from a memo and also tallied separately as raw
calls.  Answers may be plain numbers or (value, flag) pairs; solvers
compare on the value component.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .graphs import Graph
from .staircase import local_minima


class QueryOracle:
    """Memoizing counter around a vertex -> answer map or callable."""

    def __init__(self, target):
        self._fn = target if callable(target) else target.__getitem__
        self.memo = {}
        self.raw_calls = 0

    @property
    def count(self) -> int:
        return len(self.memo)

    @property
    def transcript(self) -> list:
        """(vertex, answer) of each first query, in query order."""
        return list(self.memo.items())

    def query(self, v: int):
        self.raw_calls += 1
        if v in self.memo:
            return self.memo[v]
        ans = self._fn(v)
        self.memo[v] = ans
        return ans

    def value(self, v: int):
        ans = self.query(v)
        return ans[0] if isinstance(ans, tuple) else ans


@dataclass(frozen=True)
class SolverResult:
    answer: int
    queries: int
    trace: tuple = field(default=(), repr=False)


def steepest_descent(g: Graph, oracle: QueryOracle, start: int) -> SolverResult:
    """Descend to the best neighbor until no neighbor improves.

    Neighbor ties break toward the lowest vertex id.  Termination is
    guaranteed because the tracked value strictly decreases.
    """
    if not (1 <= start <= g.n):
        raise ValueError(f"start vertex {start} outside 1..{g.n}")
    cur = start
    cur_val = oracle.value(cur)
    moves = [cur]
    while True:
        best_v = None
        best_val = None
        for u in g.neighbors(cur):  # ascending: strict < keeps lowest id
            val = oracle.value(u)
            if best_val is None or val < best_val:
                best_v, best_val = u, val
        if best_val is not None and best_val < cur_val:
            cur, cur_val = best_v, best_val
            moves.append(cur)
        else:
            return SolverResult(cur, oracle.count, tuple(moves))


def auto_warm_start_size(g: Graph) -> int:
    """Default sample budget ceil(sqrt(n * max_degree))."""
    delta = g.max_degree
    return math.isqrt(g.n * delta - 1) + 1 if g.n * delta else 1


def warm_start_descent(g: Graph, oracle: QueryOracle, t="auto",
                       seed=0) -> SolverResult:
    """Sample t random vertices (with replacement, memoized), then descend
    from the best of them.  Deterministic for a fixed seed."""
    if t == "auto":
        t = auto_warm_start_size(g)
    if t < 1:
        raise ValueError("warm start needs t >= 1")
    rng = random.Random(seed)
    best_v = None
    best_val = None
    for _ in range(t):
        v = rng.randrange(1, g.n + 1)
        val = oracle.value(v)
        if best_val is None or val < best_val or (val == best_val and v < best_v):
            best_v, best_val = v, val
    return steepest_descent(g, oracle, best_v)


def solve_decision(g: Graph, oracle: QueryOracle, inner) -> SolverResult:
    """Run a search solver on the value component, then read the flag at
    the returned minimum.  Costs at most one query beyond the inner run
    (zero here, since the inner solver always queried its answer)."""
    result = inner(g, oracle)
    ans = oracle.query(result.answer)
    if not isinstance(ans, tuple):
        raise ValueError("decision solving needs (value, flag) oracle answers")
    flag = ans[1]
    if flag == -1:
        raise ValueError(
            f"inner solver returned vertex {result.answer}, which is not the minimum"
        )
    return SolverResult(flag, oracle.count, result.trace)


def brute_force_min(g: Graph, target) -> set:
    """Evaluate everything and return all local minima; the test oracle."""
    oracle = QueryOracle(target)
    return local_minima(g, {v: oracle.value(v) for v in g.vertices()})
