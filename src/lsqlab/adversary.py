"""Evaluation of the variant relational adversary and the original one.

For a finite family of labelled functions with a symmetric relation r,
the variant bound is min over subsets Z with q(Z) > 0 of
M(Z) / (100 * q(Z)), where M(Z) sums r(F1, F2) over F1 in Z and F2 in the
whole family, and q(Z) is the largest single-point distinguishing mass
within Z.  Both double sums run over ordered pairs, so a symmetric pair
contributes twice; this matches the matrix-game arithmetic.  Both bounds
read r only on pairs with different labels, so a family holds just its
related pairs, and each reader works per point from the pairs that differ
there, a split the family derives once, on first read.

The variant bound is found exactly without a subset sweep: one small
parametric min cut per group of domain points (Dinkelbach's method over
Goldberg's densest-subgraph network, cut by a greedy flow that often
certifies the cut alone, else by Dinic's blocking flows), so
the cap is 64 functions rather than the 16 a 2^F sweep allowed.  All
weights are exact integers, all capacities integers and all ratios exact
fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import cap_of, check_cap
from .graphs import Graph
from .pathsystems import PathSystem
from .staircase import all_sequences, is_good, make_instance, \
    relation_congestion


@dataclass(frozen=True)
class FunctionFamily:
    """Finite functions over a shared finite domain, each labelled 0 or 1,
    with a symmetric integer relation over them.

    domain lists the query points; functions[i] is a tuple of answers
    aligned with domain; labels[i] is the hidden label of function i.
    pairs holds the relation's related pairs (i, j, w): i < j, labels
    that differ, w > 0, ascending in (i, j); any other pair weighs 0.
    mass[i] is r(i, .) summed.  differing[a] lists the related pairs (in
    pairs order) whose two functions differ at domain point a, derived on
    first read and then kept.
    """

    name: str
    domain: tuple
    functions: tuple
    labels: tuple
    pairs: tuple = field(repr=False)
    mass: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.domain)
        for f in self.functions:
            if len(f) != k:
                raise ValueError("function table does not match the domain")
        size = len(self.functions)
        if len(self.labels) != size:
            raise ValueError("labels must cover every function")
        if any(lab not in (0, 1) for lab in self.labels):
            raise ValueError("labels must be 0 or 1")
        mass = [0] * size
        last = (-1, -1)
        for i, j, w in self.pairs:
            if w < 0:
                raise ValueError("relation weights must be nonnegative")
            if not (w and 0 <= i < j < size and (i, j) > last):
                raise ValueError(
                    f"relation pair ({i}, {j}) must have 0 <= i < j < {size},"
                    " a positive weight and come after the pair before it")
            if self.labels[i] == self.labels[j]:
                raise ValueError("relation must vanish on equal labels")
            mass[i] += w
            mass[j] += w
            last = (i, j)
        if not self.pairs:
            raise ValueError("relation is identically zero")
        object.__setattr__(self, "mass", tuple(mass))

    @property
    def size(self) -> int:
        return len(self.functions)

    @cached_property
    def differing(self) -> tuple:
        pairs = self.pairs
        return tuple([p for p in pairs if column[p[0]] != column[p[1]]]
                     for column in zip(*self.functions))


def big_m(fam: FunctionFamily, z) -> int:
    """M(Z) = sum over F1 in Z, F2 in the whole family of r(F1, F2)."""
    return sum(fam.mass[i] for i in z)


def big_q(fam: FunctionFamily, z) -> int:
    """q(Z) = max over domain points of the ordered distinguishing sum."""
    z = set(z)
    return max((2 * sum(w for i, j, w in differ if i in z and j in z)
                for differ in fam.differing), default=0)


@dataclass(frozen=True)
class VariantBound:
    min_ratio: Fraction
    bound: Fraction
    argmin: tuple


def _network(g: list, rest: list, group: tuple, caps: list, flow: list):
    """The residual network of a greedy flow, s = F, t = F + 1.  Arc a
    runs to to[a] with residual capacity cap[a], a ^ 1 is its reverse and
    arcs[u] lists u's arcs: s -> i if g_i > 0, else i -> t, carrying
    g_i - rest[i], then i <-> j for each pair, carrying flow[k] from i to
    j (a negative flow runs from j to i).  Listing the arc at s or t first
    lets the DFS try it before a node's pair arcs."""
    s, t = len(g), len(g) + 1
    to, cap, arcs = [], [], [[] for _ in range(t + 1)]
    a = 0
    for i, (gi, ri) in enumerate(zip(g, rest)):
        u, v = (s, i) if gi > 0 else (i, t)
        arcs[u].append(a)
        arcs[v].append(a + 1)
        to += v, u
        cap += abs(ri), abs(gi - ri)
        a += 2
    for (i, j, _), c, f in zip(group, caps, flow):
        arcs[i].append(a)
        arcs[j].append(a + 1)
        to += j, i
        cap += c - f, c + f
        a += 2
    return to, cap, arcs


def _min_cut(mass: tuple, group: tuple, best: Fraction, largest: bool):
    """Twice the group's largest num D_a(Z) - den M(Z) at num/den = best:
    the positive g_i summed less a max flow, s = F, t = F + 1.  Returns
    the value and a set of functions: the source side of the least min
    cut, or, when largest is set and the value is 0, that of the largest
    min cut less the functions of mass 0, as a tuple.

    Flow first goes greedily along each s -> i -> j -> t.  If that
    saturates every positive g_i, it is a max flow and the value is 0, a
    certificate read with no network built (without largest, the least
    min cut's source side is then empty).  Otherwise Dinic's blocking
    flows (BFS levels, a DFS keeping each node's next arc) run on the
    greedy flow's residual network until t is out of reach."""
    size = len(mass)
    s, t = size, size + 1
    num, den = 2 * best.numerator, 2 * best.denominator
    caps = [num * w for _, _, w in group]
    g = [-den * m for m in mass]
    for (i, j, _), c in zip(group, caps):
        g[i] += c
        g[j] += c
    rest = g[:]  # what is left of each g_i after the greedy pushes
    flow = []
    for (i, j, _), c in zip(group, caps):
        ri, rj = rest[i], rest[j]
        if ri > 0 > rj:
            push = min(ri, c, -rj)
        elif rj > 0 > ri:
            push = -min(rj, c, -ri)
        else:
            flow.append(0)
            continue
        rest[i], rest[j] = ri - push, rj + push
        flow.append(push)
    if not largest and max(rest) <= 0:
        return 0, ()
    to, cap, arcs = _network(g, rest, group, caps, flow)
    ends = list(map(len, arcs))
    while True:
        level, queue = [-1] * s + [0, -1], [s]
        for u in queue:
            up = level[u] + 1
            new = [to[a] for a in arcs[u] if cap[a] and level[to[a]] < 0]
            for v in new:
                level[v] = up
            queue += new
            if level[t] >= 0:
                break
        else:  # t is out of reach: the flow is a max flow
            break
        nxt, path, u = [0] * (t + 1), [], s
        while True:
            if u == t:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                del path[next(k for k, a in enumerate(path) if not cap[a]):]
                u = to[path[-1]] if path else s
            elif nxt[u] == ends[u]:  # a dead end, left for good
                if u == s:
                    break
                u = to[path.pop() ^ 1]
                nxt[u] += 1
            else:
                a = arcs[u][nxt[u]]
                if cap[a] and level[to[a]] == level[u] + 1:
                    path.append(a)
                    u = to[a]
                else:
                    nxt[u] += 1
    value = sum(cap[a] for a in arcs[s])  # what the arcs out of s have left
    if value or not largest:
        return value, set(queue[1:])
    reach = [False] * size + [False, True]  # what reaches t
    queue = [t]
    for v in queue:
        for a in arcs[v]:
            if cap[a ^ 1] and not reach[to[a]]:
                reach[to[a]] = True
                queue.append(to[a])
    return 0, tuple(i for i in range(size) if mass[i] and not reach[i])


def variant_bound_exhaustive(fam: FunctionFamily) -> VariantBound:
    """Exact min of M(Z)/q(Z) over all subsets with q(Z) > 0, and /100.

    The result is the optimum over all 2^F subsets, but no subset sweep
    is made.  Since q = max_a D_a, with D_a(Z) the ordered distinguishing
    sum at point a, the minimum is min over a of min_Z M(Z)/D_a(Z).
    Points at which the same related pairs differ pose the same inner
    problem, so the points are grouped by that set of pairs and each
    group is solved once.

    Dinkelbach's method keeps the running best ratio num/den as a
    Fraction, starting from the whole family.  For a group, twice the
    largest num * D_a(Z) - den * M(Z) is the sum of the positive g_i less
    one s-t min cut over Goldberg's densest-subgraph network: an arc
    i <-> j of capacity 2 num r(i, j) for each pair that differs at the
    group's points, and g_i, the sum of i's arc capacities minus
    2 den M({i}), on an arc s -> i or i -> t.  While that is positive, the
    source side Z of the least min cut has M(Z)/D_a(Z) < num/den and
    becomes the new best.  All capacities are integers.

    The argmin is the union of the minimizers Z with D_a(Z) > 0 at the
    first domain point a, in domain order, where the optimum lam* is
    attained, less the functions of mass 0.  A group checked only at an
    earlier, larger ratio attains nothing below it; at a group last cut at
    lam*, lam* D_a - M is supermodular with largest value 0, so its
    maximizers are closed under union, and those of positive mass are the
    minimizers.  The union of all of them is the source side of the
    largest min cut: in any max flow's residual graph the min cuts are
    exactly the sets holding s, not t, and the head of each arc out of
    them (Picard & Queyranne, Math. Programming Study 13, 1980), so it is
    every function that cannot reach t, found by one BFS from t along
    reversed residual arcs.  That BFS runs right after a group's last cut
    while no group since the last drop of the ratio has given a set of
    positive mass; the first such set is the argmin.
    """
    size = fam.size
    check_cap("variant_bound_exhaustive", size)
    mass = fam.mass
    groups = dict.fromkeys(map(tuple, fam.differing))
    groups.pop((), None)
    if not groups:
        raise ValueError("no subset has q(Z) > 0: relation is degenerate")

    best = Fraction(
        sum(mass), 2 * max(sum(w for _, _, w in group) for group in groups))
    argmin = ()
    for group in groups:
        value, side = _min_cut(mass, group, best, not argmin)
        while value:
            best = Fraction(
                sum(mass[i] for i in side),
                2 * sum(w for i, j, w in group if i in side and j in side))
            value, side = _min_cut(mass, group, best, True)
            argmin = ()
        argmin = argmin or side
    return VariantBound(best, best / 100, argmin)


@dataclass(frozen=True)
class AaronsonBound:
    v_min: Fraction
    bound: Fraction


def aaronson_vmin(fam: FunctionFamily) -> AaronsonBound:
    """v_min and 1/(5 v_min) of the original relational adversary over the
    label classes A (label 0) and B (label 1).

    theta is only evaluated at visited triples, i.e. related pairs that
    disagree at the queried point; the pair's own weight, positive in a
    family, sits in both theta denominators, so neither can vanish there.
    Per point, each function's sum over the pairs that differ there is
    computed once, the thetas are compared as integer cross products and
    one Fraction is built at the end.
    """
    mass = fam.mass
    best_n, best_d = 0, 1  # every visited theta is positive
    for differ in fam.differing:
        # away[i]: the weight between i and the functions that disagree
        # with it at this point
        away = [0] * fam.size
        for i, j, w in differ:
            away[i] += w
            away[j] += w
        for i, j, _ in differ:
            # theta = min(away_i / mass_i, away_j / mass_j)
            n, d = away[i], mass[i]
            if away[j] * d < n * mass[j]:
                n, d = away[j], mass[j]
            if n * best_d > best_n * d:
                best_n, best_d = n, d
    if not best_n:
        raise ValueError("no distinguishing triple with positive relation")
    v_min = Fraction(best_n, best_d)
    return AaronsonBound(v_min, Fraction(1, 5) / v_min)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def family_matrix_game(k: int):
    """Row/column matrices over a k x k board with the indicator relation.

    Functions are the k row matrices (one row of 1s, label 0) followed by
    the k column matrices (one column of 2s, label 1); the domain is the
    k^2 cells in row-major order.  Each row and column are related with
    weight 1: k^2 pairs.
    """
    if k < 2:
        raise ValueError("matrix game needs k >= 2")
    domain = tuple((r, c) for r in range(1, k + 1) for c in range(1, k + 1))
    functions = []
    labels = []
    for i in range(1, k + 1):
        functions.append(tuple(1 if r == i else 0 for (r, _) in domain))
        labels.append(0)
    for j in range(1, k + 1):
        functions.append(tuple(2 if c == j else 0 for (_, c) in domain))
        labels.append(1)
    pairs = tuple((i, k + j, 1) for i in range(k) for j in range(k))
    return FunctionFamily("matrix_game", domain, tuple(functions),
                          tuple(labels), pairs)


def check_staircase_cap(what: str, n: int, L: int) -> None:
    """check_cap(what, 2 n^L), the size of the staircase family over n
    vertices at depth L, after refusing L < 0.  Past the cap's bit length,
    L is not used as an exponent: for n > 1, 2 n^L is then past the cap,
    shown as 2*n^L."""
    if L < 0:
        raise ValueError(f"L: must be >= 0, got {L}")
    bits = cap_of(what).bit_length()
    check_cap(what, 2 * n ** min(L, bits), None if L <= bits else f"2*{n}^{L}")


def family_staircase(g: Graph, ps: PathSystem, L: int):
    """Full staircase function family with its prefix-power relation, and
    the provenance instances aligned with the family's function order.

    Materializes all 2 * n^L hidden-bit functions, so the family size is
    capped by errors.CAPS.  The relation weighs only pairs of good
    sequences with opposite bits, so only those are passed to
    relation_congestion.
    """
    n = g.n
    check_staircase_cap("family_staircase", n, L)
    domain = tuple(g.vertices())
    instances = []
    functions = []
    labels = []
    for x in all_sequences(n, L):
        for bit in (0, 1):
            inst = make_instance(x, bit, ps, g)
            instances.append(inst)
            functions.append(tuple(inst.oracle(v) for v in domain))
            labels.append(bit)
    good = [(i, f) for i, f in enumerate(instances) if is_good(f.milestones)]
    pairs = tuple(
        (i, j, relation_congestion(f.milestones, f.bit, h.milestones, h.bit, n))
        for k, (i, f) in enumerate(good) for j, h in good[k + 1:]
        if f.bit != h.bit)
    fam = FunctionFamily(f"staircase_n{n}_L{L}", domain, tuple(functions),
                         tuple(labels), pairs)
    return fam, instances


# ---------------------------------------------------------------------------
# Matrix game solver
# ---------------------------------------------------------------------------


def matrix_game_diagonal_solver(oracle, k: int):
    """Query the main diagonal until a 1 (row) or 2 (column) appears.

    oracle maps a (row, col) cell to its value.  Returns (label, queries)
    with label 0 for row and 1 for column, in at most k queries.
    """
    for q, i in enumerate(range(1, k + 1), start=1):
        val = oracle((i, i))
        if val == 1:
            return 0, q
        if val == 2:
            return 1, q
    raise ValueError("all-zero diagonal: oracle is not a row/column matrix")
