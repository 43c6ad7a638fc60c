"""Evaluation of the variant relational adversary and the original one.

For a finite family of labelled functions with a symmetric relation r,
the variant bound is min over subsets Z with q(Z) > 0 of
M(Z) / (100 * q(Z)), where M(Z) sums r(F1, F2) over F1 in Z and F2 in the
whole family, and q(Z) is the largest single-point distinguishing mass
within Z.  Both double sums run over ordered pairs, so a symmetric pair
contributes twice; this matches the matrix-game arithmetic.

All weights are exact integers and all ratios exact fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import check_cap
from .graphs import Graph
from .pathsystems import PathSystem
from .staircase import all_sequences, make_instance, relation_congestion


@dataclass(frozen=True)
class FunctionFamily:
    """Finite functions over a shared finite domain, each labelled 0 or 1.

    domain lists the query points; functions[i] is a tuple of answers
    aligned with domain; labels[i] is the hidden label of function i.
    """

    name: str
    domain: tuple
    functions: tuple
    labels: tuple

    def __post_init__(self):
        k = len(self.domain)
        for f in self.functions:
            if len(f) != k:
                raise ValueError("function table does not match the domain")
        if len(self.labels) != len(self.functions):
            raise ValueError("labels must cover every function")
        if any(lab not in (0, 1) for lab in self.labels):
            raise ValueError("labels must be 0 or 1")

    @property
    def size(self) -> int:
        return len(self.functions)


@dataclass(frozen=True)
class Relation:
    """Symmetric nonnegative integer weights, zero on equal labels."""

    weights: tuple = field(repr=False)

    @staticmethod
    def build(fam: FunctionFamily, weight_fn) -> "Relation":
        size = fam.size
        w = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                w[i][j] = w[j][i] = weight_fn(i, j)
        rel = Relation(tuple(tuple(row) for row in w))
        rel.validate(fam)
        return rel

    def validate(self, fam: FunctionFamily) -> None:
        size = fam.size
        if len(self.weights) != size or any(len(r) != size for r in self.weights):
            raise ValueError("relation shape does not match the family")
        nonzero = False
        for i in range(size):
            for j in range(size):
                wij = self.weights[i][j]
                if wij < 0:
                    raise ValueError("relation weights must be nonnegative")
                if wij != self.weights[j][i]:
                    raise ValueError("relation is not symmetric")
                if wij and fam.labels[i] == fam.labels[j]:
                    raise ValueError("relation must vanish on equal labels")
                nonzero = nonzero or wij > 0
        if not nonzero:
            raise ValueError("relation is identically zero")


def big_m(fam: FunctionFamily, rel: Relation, z) -> int:
    """M(Z) = sum over F1 in Z, F2 in the whole family of r(F1, F2)."""
    return sum(sum(rel.weights[i]) for i in z)


def big_q(fam: FunctionFamily, rel: Relation, z) -> int:
    """q(Z) = max over domain points of the ordered distinguishing sum."""
    z = list(z)
    best = 0
    for a in range(len(fam.domain)):
        total = 0
        for i in z:
            fi = fam.functions[i][a]
            row = rel.weights[i]
            for j in z:
                if row[j] and fi != fam.functions[j][a]:
                    total += row[j]
        best = max(best, total)
    return best


@dataclass(frozen=True)
class VariantBound:
    min_ratio: Fraction
    bound: Fraction
    argmin: tuple


def variant_bound_exhaustive(fam: FunctionFamily, rel: Relation) -> VariantBound:
    """Exact min of M(Z)/q(Z) over all subsets with q(Z) > 0, and /100.

    Iterates subsets in Gray-code order, maintaining M(Z) and the per-point
    ordered distinguishing sums d[a] incrementally; q(Z) is max over a of
    d[a].  Every d[a] is at most total, the sum of all row masses, so the
    sums are packed into one integer d with a field of B = bits(total) + 1
    bits per point, the top bit of each field always clear.  Z is a
    bitmask of function indices; toggling function i adds or subtracts,
    for each related j in Z, the precomputed vector 2 r(i, j) times the
    field unit of every point where i and j differ.  Fields never carry
    or borrow, since every sum stays within [0, total].

    The best ratio is kept as an integer pair (best_m, best_q) and a
    subset replaces it only when m_z * best_q < best_m * q, i.e. M(Z)/q(Z)
    is strictly smaller, so argmin is the first minimizer in Gray-code
    order; one Fraction is built at the end.  For integer q that rule is
    q > t with t = floor(m_z * best_q / best_m).  No sum exceeds total,
    so nothing can fire when t >= total; otherwise adding 2^(B-1) - 1 - t
    to every field sets a field's top bit exactly when its sum exceeds t,
    so "some field exceeds t" is one addition and one AND.  q itself is
    read from the fields only when that test fires.
    """
    size = fam.size
    check_cap("variant_bound_exhaustive", size)
    npoints = len(fam.domain)
    row_mass = [sum(rel.weights[i]) for i in range(size)]
    total = sum(row_mass)
    width = total.bit_length() + 1
    field_mask = (1 << width) - 1
    ones = sum(1 << (width * a) for a in range(npoints))  # 1 in every field
    high_bits = ones << (width - 1)
    fill = (1 << (width - 1)) - 1
    # Per function, the related functions and the vector of 2 r(i, j) at
    # the points where they differ; pairs with zero weight or no
    # differing point never change a sum.
    related = [[] for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            w = rel.weights[i][j]
            pts = [a for a in range(npoints)
                   if w and fam.functions[i][a] != fam.functions[j][a]]
            if pts:
                vec = 2 * w * sum(1 << (width * a) for a in pts)
                related[i].append((1 << j, vec))
                related[j].append((1 << i, vec))

    members = 0
    m_z = 0
    d = 0  # packed ordered distinguishing sums, one field per point
    best_m, best_q = 1, 0  # 1/0 stands for +infinity: any q > 0 beats it
    argmin = None
    for step in range(1, 1 << size):
        i = (step & -step).bit_length() - 1
        members ^= 1 << i
        if members >> i & 1:
            m_z += row_mass[i]
            for bit, vec in related[i]:
                if members & bit:
                    d += vec
        else:
            m_z -= row_mass[i]
            for bit, vec in related[i]:
                if members & bit:
                    d -= vec
        t = m_z * best_q // best_m
        if t < total and (d + (fill - t) * ones) & high_bits:
            best_q = max((d >> (width * a)) & field_mask
                         for a in range(npoints))
            best_m = m_z
            argmin = members
    if argmin is None:
        raise ValueError("no subset has q(Z) > 0: relation is degenerate")
    best = Fraction(best_m, best_q)
    subset = tuple(i for i in range(size) if (argmin >> i) & 1)
    return VariantBound(best, best / 100, subset)


@dataclass(frozen=True)
class AaronsonBound:
    v_min: Fraction
    bound: Fraction


def aaronson_vmin(fam: FunctionFamily, rel: Relation) -> AaronsonBound:
    """v_min and 1/(5 v_min) of the original relational adversary over the
    label classes A (label 0) and B (label 1).

    theta is only evaluated at visited triples, i.e. pairs with positive
    weight that disagree at the queried point; the pair's own weight sits
    in both theta denominators, and the relation is validated first, so no
    weight is negative and neither denominator can vanish there.
    """
    rel.validate(fam)
    a_set = [i for i in range(fam.size) if fam.labels[i] == 0]
    b_set = [i for i in range(fam.size) if fam.labels[i] == 1]
    denom_a = {i: sum(rel.weights[i][j] for j in b_set) for i in a_set}
    denom_b = {j: sum(rel.weights[i][j] for i in a_set) for j in b_set}

    v_min = None
    for i in a_set:
        row = rel.weights[i]
        for j in b_set:
            if not row[j]:
                continue
            for a in range(len(fam.domain)):
                fia = fam.functions[i][a]
                fja = fam.functions[j][a]
                if fia == fja:
                    continue
                num_i = sum(row[j2] for j2 in b_set
                            if fam.functions[j2][a] != fia)
                num_j = sum(rel.weights[i2][j] for i2 in a_set
                            if fam.functions[i2][a] != fja)
                theta = min(Fraction(num_i, denom_a[i]),
                            Fraction(num_j, denom_b[j]))
                if v_min is None or theta > v_min:
                    v_min = theta
    if v_min is None or v_min == 0:
        raise ValueError("no distinguishing triple with positive relation")
    return AaronsonBound(v_min, Fraction(1, 5) / v_min)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def family_matrix_game(k: int):
    """Row/column matrices over a k x k board with the indicator relation.

    Functions are the k row matrices (one row of 1s, label 0) followed by
    the k column matrices (one column of 2s, label 1); the domain is the
    k^2 cells in row-major order.
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
    fam = FunctionFamily("matrix_game", domain, tuple(functions), tuple(labels))
    rel = Relation.build(fam, lambda i, j: int(fam.labels[i] != fam.labels[j]))
    return fam, rel


def family_staircase(g: Graph, ps: PathSystem, L: int):
    """Full staircase function family with its prefix-power relation.

    Materializes all 2 * n^L hidden-bit functions, so the family size is
    capped by errors.CAPS.  Also returns the provenance instances aligned
    with the family's function order.
    """
    if L < 0:
        raise ValueError(f"L: must be >= 0, got {L}")
    n = g.n
    size = 2 * n ** L
    check_cap("family_staircase", size)
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
    fam = FunctionFamily(f"staircase_n{n}_L{L}", domain,
                         tuple(functions), tuple(labels))

    def weight(i, j):
        return relation_congestion(
            instances[i].milestones, instances[i].bit,
            instances[j].milestones, instances[j].bit, n,
        )

    rel = Relation.build(fam, weight)
    return fam, rel, instances


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
