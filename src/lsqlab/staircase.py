"""Staircase hard instances over a path system.

A milestone sequence x = (x_1, ..., x_{L+1}) with x_1 = 1 induces a walk
(the staircase) by concatenating the system's paths between consecutive
milestones.  The value function decreases along the staircase and equals
the hop distance to vertex 1 everywhere else, so the unique local minimum
sits at the end of the walk, where one bit is hidden.  An instance stores
the function once, as a dense table indexed by vertex; the bit is a rule
read by HiddenBitInstance.flag, not a stored map.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Graph, bfs_distances
from .pathsystems import PathSystem

# Rational upper bound on 1/(2e), used to check lower bounds of the form
# sum >= (1/2e) * core conservatively in exact arithmetic.
ONE_OVER_2E_UPPER = Fraction(184, 1000)


@dataclass(frozen=True)
class Staircase:
    """Concatenated walk plus the start index of each quasi-segment.

    segment_starts[i] is the walk position (0-based) of milestone x_{i+1},
    i.e. where quasi-segment i+1 begins; junction vertices are stored once.
    """

    walk: tuple
    segment_starts: tuple

    @property
    def end(self) -> int:
        return self.walk[-1]


def check_milestones(x, n: int) -> None:
    if len(x) < 1:
        raise ValueError("milestone sequence is empty")
    if x[0] != 1:
        raise ValueError("milestone sequence must start at vertex 1")
    for v in x:
        if not (1 <= v <= n):
            raise ValueError(f"milestone {v} outside 1..{n}")


def chain(start: int, segments) -> Staircase:
    """The walk from start through each segment in turn; every segment
    must begin where the walk so far ends.  Both staircase kinds are put
    together here."""
    walk = [start]
    starts = []
    for seg in segments:
        if seg[0] != walk[-1]:
            raise ValueError(f"segment at {seg[0]} does not chain to {walk[-1]}")
        starts.append(len(walk) - 1)
        walk.extend(seg[1:])
    return Staircase(tuple(walk), tuple(starts))


def build_staircase(x, ps: PathSystem) -> Staircase:
    """Concatenate ps entries between consecutive milestones."""
    check_milestones(x, ps.n)
    return chain(x[0], (ps.path(a, b) for a, b in zip(x, x[1:])))


def is_good(x) -> bool:
    """True iff all milestones are pairwise distinct."""
    return len(set(x)) == len(x)


def all_sequences(n: int, L: int):
    """All milestone sequences (1, x_2, ..., x_{L+1}) over [n], in
    lexicographic order."""
    for rest in itertools.product(range(1, n + 1), repeat=L):
        yield (1, *rest)


def good_sequences(n: int, L: int):
    """All good milestone sequences (1, x_2, ..., x_{L+1}) over [n]."""
    for rest in itertools.permutations(range(2, n + 1), L):
        yield (1, *rest)


def tail(j: int, s: Staircase) -> tuple:
    """Suffix of the walk from quasi-segment j, minus the first occurrence
    of milestone x_j; empty for j = L+1."""
    segments = len(s.segment_starts)
    if not (1 <= j <= segments + 1):
        raise ValueError(f"tail index {j} outside 1..{segments + 1}")
    if j == segments + 1:
        return ()
    return s.walk[s.segment_starts[j - 1] + 1:]


@dataclass(frozen=True)
class HiddenBitInstance:
    """A staircase function with its hidden bit and full provenance.

    table is the instance's one value map: table[v] is the value at vertex
    v (index 0 is padding).  Walk vertices hold their staircase values and
    every other vertex its hop distance to the walk's start.  value(v)
    reads the table and is what every solver's oracle answers.  flag(v) is
    the bit at minimum, the walk's last vertex, and -1 elsewhere; no solver
    reads it, only the decision step.  oracle(v) answers (value, flag),
    the function the adversary machinery tabulates.
    """

    milestones: tuple
    bit: int
    staircase: Staircase
    table: list = field(repr=False)
    minimum: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        object.__setattr__(self, "minimum", self.staircase.end)

    @property
    def value(self):
        """The value read as a callable, table.__getitem__."""
        return self.table.__getitem__

    def flag(self, v: int) -> int:
        return self.bit if v == self.minimum else -1

    def oracle(self, v: int):
        return self.table[v], self.flag(v)


def make_instance(x, bit: int, ps: PathSystem, g: Graph) -> HiddenBitInstance:
    """The hidden-bit instance of a milestone sequence.

    On the walk the value is -(i*n + j), where i is the largest
    quasi-segment index whose path contains v and j is v's position
    within that path (from 1).  Each path is read once, for the walk and
    the values, which are written straight into a copy of g.dist, the
    distances from x_1 = 1.
    """
    check_milestones(x, ps.n)
    n = g.n
    table = list(g.dist)
    paths = []
    for i, (a, b) in enumerate(zip(x, x[1:]), start=1):
        p = ps.path(a, b)
        paths.append(p)
        val = -i * n
        for v in p:
            val -= 1
            table[v] = val
    return HiddenBitInstance(tuple(x), bit, chain(x[0], paths), table)


# ---------------------------------------------------------------------------
# The relation and its refinements
# ---------------------------------------------------------------------------


def shared_prefix_length(x, y) -> int:
    """Largest j with x_{1..j} = y_{1..j} (0 if first entries differ)."""
    j = 0
    for a, b in zip(x, y):
        if a != b:
            break
        j += 1
    return j


def related(x, b1: int, y, b2: int) -> bool:
    """Whether two equal-length sequences starting at 1 carry a nonzero
    relation weight: different bits and both sequences good."""
    if len(x) != len(y):
        raise ValueError("sequences must share their length")
    if x[0] != 1 or y[0] != 1:
        raise ValueError("sequences must start at 1")
    return b1 != b2 and is_good(x) and is_good(y)


def relation_congestion(x, b1: int, y, b2: int, n: int) -> int:
    """r(g_{x,b1}, g_{y,b2}): 0 for equal bits or a bad sequence, else n^j.

    The result is an exact Python int; n^{L+1} routinely exceeds 64 bits.
    """
    return n ** shared_prefix_length(x, y) if related(x, b1, y, b2) else 0


def distinguishing_weights(v: int, f1: HiddenBitInstance,
                           f2: HiddenBitInstance) -> tuple:
    """(r, r_v, r~_v) for a vertex and two provenance-carrying functions
    over the same n vertices, n read from f1's table.

    r_v keeps r only where the functions disagree at v; r~_v additionally
    requires the first walk to visit v at most as often as the second.
    """
    n = len(f1.table) - 1
    r = relation_congestion(f1.milestones, f1.bit, f2.milestones, f2.bit, n)
    if r == 0:
        return 0, 0, 0
    r_v = r if f1.oracle(v) != f2.oracle(v) else 0
    if r_v == 0:
        return r, 0, 0
    mu1, mu2 = f1.staircase.walk.count(v), f2.staircase.walk.count(v)
    r_tilde = r_v if mu1 <= mu2 else 0
    return r, r_v, r_tilde


def count_good_with_prefix(x, j: int, n: int) -> int:
    """Closed-form count of good sequences whose longest shared prefix with
    the good sequence x is exactly j: (n-j-1) * prod_{i=j+2}^{L+1}(n-i+1).

    Cluster sequences are counted the same way, with n = m: the count
    classifies by the longest shared prefix over all positions, not only
    the odd ones the separation relation reads.
    """
    length = len(x)  # L + 1
    if not is_good(x):
        raise ValueError("reference sequence must be good")
    if not (1 <= j <= length - 1):
        raise ValueError(f"prefix length {j} outside 1..{length - 1}")
    count = n - j - 1
    for i in range(j + 2, length + 1):
        count *= n - i + 1
    return count


def tail_count_bound(psi_at_xj: int, g_cong: int, n: int, L: int, j: int) -> Fraction:
    """Counting bound psi_v(x_j)*n^(L-j) + L*g*n^(L-j-1) on the number of
    sequences agreeing with x through j whose tail visits v.

    Exact rational; the second term is fractional at j = L.
    """
    return psi_at_xj * n ** (L - j) + Fraction(L * g_cong * n ** (L - j), n)


# ---------------------------------------------------------------------------
# Validity and local minima
# ---------------------------------------------------------------------------


def validate_function(values, walk, g: Graph) -> bool:
    """Check the three validity conditions of a function against a walk:
    strictly decreasing in last-occurrence order along the walk, equal to
    dist(walk start, .) off the walk, and nonpositive on the walk.  values
    is any vertex-indexed read, such as an instance's table or a dict."""
    last = {}
    for idx, v in enumerate(walk):
        last[v] = idx
    order = sorted(last, key=last.get)
    for a, b in zip(order, order[1:]):
        if not values[a] > values[b]:
            return False
    dist = bfs_distances(g, walk[0])
    on_walk = set(walk)
    for v in g.vertices():
        if v in on_walk:
            if values[v] > 0:
                return False
        elif values[v] != dist[v]:
            return False
    return True


def local_minima(g: Graph, values) -> set:
    """All vertices no neighbor improves on; values is any vertex-indexed
    read, such as an instance's table or a dict."""
    return {
        v for v in g.vertices()
        if all(values[v] <= values[u] for u in g.neighbors(v))
    }


# ---------------------------------------------------------------------------
# Hard-instance sampling
# ---------------------------------------------------------------------------


def sample_milestones(n: int, L: int, rng: random.Random) -> tuple:
    """Vertex 1 followed by L distinct vertices drawn uniformly from 2..n.

    Sampling without replacement makes every good sequence equally likely,
    which is exactly the relation-induced hard distribution restricted to
    good functions.
    """
    if L < 0:
        raise ValueError(f"L: must be >= 0, got {L}")
    if L + 1 > n:
        raise ValueError(f"need L + 1 <= n, got L={L}, n={n}")
    return (1, *rng.sample(range(2, n + 1), L))


def sample_sequence(n: int, L: int, seed) -> tuple:
    """Seed-deterministic draw of (sequence, bit): sample_milestones(n, L)
    from a fresh generator, then the bit from the same generator."""
    rng = random.Random(seed)
    x = sample_milestones(n, L, rng)
    return x, rng.randrange(2)


def sample_hard_instance(g: Graph, ps: PathSystem, L: int, seed) -> HiddenBitInstance:
    """Seed-deterministic draw of (milestones, bit) plus the built instance."""
    return make_instance(*sample_sequence(g.n, L, seed), ps, g)
