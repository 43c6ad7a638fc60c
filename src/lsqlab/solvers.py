"""Query-counted local-search algorithms and the search-to-decision wrapper.

The oracle counts distinct first-time queries (the information-theoretic
metric); repeats are served from a memo and also tallied separately as raw
calls; a batched read counts each of its elements.  Answers are plain
values, which solvers compare directly, picking the least (value, vertex
id).  Only the decision step reads a hidden bit, through its flag function.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .graphs import Graph
from .staircase import local_minima


class QueryOracle:
    """Memoizing counter around a callable vertex -> value target."""

    def __init__(self, target):
        self._fn = target
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
        return self.best((v,))[1]

    def best(self, vs) -> tuple:
        """Read the vertices of vs in order, each counted as a raw call, and
        return the (vertex, value) with the least (value, vertex id), or
        (None, None) when vs is empty."""
        memo, fn = self.memo, self._fn
        self.raw_calls += len(vs)
        best_v = best_val = None
        for v in vs:
            if v in memo:
                val = memo[v]
            else:
                val = memo[v] = fn(v)
            if best_v is None or val < best_val or (val == best_val and v < best_v):
                best_v, best_val = v, val
        return best_v, best_val


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
    cur_val = oracle.query(cur)
    moves = [cur]
    adjacency = g.adjacency
    while True:
        best_v, best_val = oracle.best(adjacency[cur])
        if best_v is not None and best_val < cur_val:
            cur, cur_val = best_v, best_val
            moves.append(cur)
        else:
            return SolverResult(cur, oracle.count, tuple(moves))


def auto_warm_start_size(g: Graph) -> int:
    """Default sample budget ceil(sqrt(n * max_degree))."""
    delta = g.max_degree
    return math.isqrt(g.n * delta - 1) + 1 if g.n * delta else 1


def uniform_vertices(n: int, t: int, seed) -> list:
    """t draws from 1..n, each random.Random(seed).randrange(1, n + 1)
    written out as its getrandbits rejection loop: the same vertices, draw
    for draw, at a fraction of the per-call cost."""
    k = n.bit_length()
    getrandbits = random.Random(seed).getrandbits
    draws = []
    for _ in range(t):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        draws.append(r + 1)
    return draws


def warm_start_descent(g: Graph, oracle: QueryOracle, t="auto",
                       seed=0) -> SolverResult:
    """Sample t random vertices (with replacement, memoized), then descend
    from the one with the least (value, vertex id).  Deterministic for a
    fixed seed."""
    if t == "auto":
        t = auto_warm_start_size(g)
    if t < 1:
        raise ValueError("warm start needs t >= 1")
    draws = uniform_vertices(g.n, t, seed)
    return steepest_descent(g, oracle, oracle.best(draws)[0])


def solve_decision(g: Graph, oracle: QueryOracle, inner, flag) -> SolverResult:
    """Run a search solver, query its answer and return flag(answer), the
    hidden bit there (HiddenBitInstance.flag).  Costs at most one query
    beyond the inner run (zero here: the inner solver queried its answer)."""
    result = inner(g, oracle)
    oracle.query(result.answer)
    bit = flag(result.answer)
    if bit == -1:
        raise ValueError(
            f"inner solver returned vertex {result.answer}, which is not the minimum"
        )
    return SolverResult(bit, oracle.count, result.trace)


def brute_force_min(g: Graph, target) -> set:
    """Evaluate everything and return all local minima; the test oracle."""
    oracle = QueryOracle(target)
    return local_minima(g, {v: oracle.query(v) for v in g.vertices()})
