"""Exact adversary quantities on the matrix game and staircase families."""

import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

import lsqlab as L
from lsqlab import CapabilityError
from lsqlab.adversary import FunctionFamily


def related_pairs(size, weight):
    """The pairs (i, j, w) of a weight function r(i, j) over size
    functions, i < j, with w != 0, ascending in (i, j)."""
    return tuple((i, j, w) for i in range(size) for j in range(i + 1, size)
                 if (w := weight(i, j)))


def two_point_family():
    """Two related functions over a 1-point domain, differing there."""
    return FunctionFamily("toy", (0,), ((0,), (1,)), (0, 1), ((0, 1, 1),))


def test_big_m_examples():
    fam = L.family_matrix_game(4)
    row0 = [0]
    assert L.big_m(fam, row0) == 4
    assert L.big_m(fam, []) == 0
    assert L.big_m(fam, range(fam.size)) == 2 * 4 * 4


def test_big_q_examples():
    fam = L.family_matrix_game(4)
    assert L.big_q(fam, [0, 4]) == 2  # one row + one column
    assert L.big_q(fam, [0, 1, 2]) == 0  # same label only
    fam3 = L.family_matrix_game(3)
    assert L.big_q(fam3, range(fam3.size)) == 2 * (2 * 3 - 1)


def test_q_at_most_m_everywhere():
    fam = L.family_matrix_game(3)
    for mask in range(1, 1 << fam.size):
        z = [i for i in range(fam.size) if (mask >> i) & 1]
        assert L.big_q(fam, z) <= L.big_m(fam, z)


def test_matrix_game_m_law():
    for k in (2, 3, 4):
        fam = L.family_matrix_game(k)
        for mask in range(1 << fam.size):
            z = [i for i in range(fam.size) if (mask >> i) & 1]
            assert L.big_m(fam, z) == len(z) * k


def test_variant_bound_matrix_closed_form():
    for k in (2, 3, 4):
        fam = L.family_matrix_game(k)
        vb = L.variant_bound_exhaustive(fam)
        assert vb.min_ratio == Fraction(k * k, 2 * k - 1)
        assert vb.bound == Fraction(k * k, 100 * (2 * k - 1))
    fam3 = L.family_matrix_game(3)
    vb3 = L.variant_bound_exhaustive(fam3)
    assert vb3.argmin == tuple(range(6))  # attained at the whole family


def _variant_bound_reference(fam):
    """(min M/q, argmin) by brute force over every subset Z and point a,
    with D_a(Z) the ordered sum of r over the pairs in Z that differ at a;
    None if no subset has q > 0.  The argmin is the first nonempty union,
    over the points in domain order, of the Z with D_a(Z) > 0 and
    M(Z)/D_a(Z) the minimum, less the functions of mass 0."""
    f, points = fam.functions, range(len(fam.domain))
    found = []  # (a, M(Z)/D_a(Z), Z) for each Z and a with D_a(Z) > 0
    for mask in range(1, 1 << fam.size):
        z = {i for i in range(fam.size) if (mask >> i) & 1}
        for a in points:
            d = 2 * sum(w for i, j, w in fam.pairs
                        if i in z and j in z and f[i][a] != f[j][a])
            if d:
                found.append((a, Fraction(L.big_m(fam, z), d), z))
    if not found:
        return None
    best = min(ratio for _, ratio, _ in found)
    for a in points:
        union = set().union(*(z for b, ratio, z in found
                              if b == a and ratio == best))
        if union:
            return best, tuple(i for i in sorted(union) if fam.mass[i])


def _track_networks(monkeypatch):
    """Watch the residual networks adversary._network builds: "built"
    counts them, "uncertified" counts those whose greedy flow left some
    positive g_i unsaturated, and "peak" is the most alive at once, a
    network being alive while any of its three lists is."""
    from lsqlab import adversary

    class Watched(list):  # a list that a weak reference can watch
        pass

    seen = {"built": 0, "uncertified": 0, "alive": 0, "peak": 0}
    build = adversary._network

    def network(g, rest, group, caps, flow):
        parts = [Watched(part) for part in build(g, rest, group, caps, flow)]
        left = [len(parts)]  # parts of this network still alive

        def freed():
            left[0] -= 1
            seen["alive"] -= not left[0]

        for part in parts:
            weakref.finalize(part, freed)
        seen["built"] += 1
        seen["uncertified"] += max(rest) > 0
        seen["alive"] += 1
        seen["peak"] = max(seen["peak"], seen["alive"])
        return tuple(parts)

    monkeypatch.setattr(adversary, "_network", network)
    return seen


def _check_variant_bound(fam, ref):
    """The routine's (min_ratio, argmin) is ref, and the argmin's own
    M/q is min_ratio."""
    vb = L.variant_bound_exhaustive(fam)
    assert (vb.min_ratio, vb.argmin) == ref
    z = vb.argmin
    assert Fraction(L.big_m(fam, z), L.big_q(fam, z)) == vb.min_ratio
    return vb


def _random_family(rng, max_weight=3):
    """2-10 functions over 1-4 points with values 0-2, both labels present,
    and random weights up to max_weight across labels (ties are common
    when it is small)."""
    size = rng.randint(2, 10)
    npoints = rng.randint(1, 4)
    labels = [0, 1] + [rng.randint(0, 1) for _ in range(size - 2)]
    rng.shuffle(labels)
    functions = tuple(tuple(rng.randint(0, 2) for _ in range(npoints))
                      for _ in range(size))
    weights = {(i, j): rng.randint(0, max_weight) for i in range(size)
               for j in range(i + 1, size) if labels[i] != labels[j]}
    first_pair = min(weights)
    weights[first_pair] = weights[first_pair] or 1
    return FunctionFamily("random", tuple(range(npoints)), functions,
                          tuple(labels), related_pairs(
                              size, lambda i, j: weights.get((i, j), 0)))


def test_variant_bound_matches_direct_subset_sweep(monkeypatch):
    # min_ratio and argmin against every subset's M and D_a, also on
    # families where the greedy flow leaves a group uncertified, so that
    # Dinic's phases run (ring-8 at L = 1 has one such group of seven)
    cases = [L.family_matrix_game(2), L.family_matrix_game(3)]
    for g in (L.clique_graph(4), L.ring_graph(8)):
        cases.append(L.family_staircase(g, L.shortest_path_system(g), 1)[0])
    rng = random.Random(8)
    cases += [_random_family(rng) for _ in range(150)]
    seen = _track_networks(monkeypatch)
    degenerate, uncertified = 0, []
    for fam in cases:
        before = seen["uncertified"]
        ref = _variant_bound_reference(fam)
        if ref is None:
            degenerate += 1
            with pytest.raises(ValueError):
                L.variant_bound_exhaustive(fam)
            continue
        vb = _check_variant_bound(fam, ref)
        assert vb.bound == ref[0] / 100
        if seen["uncertified"] > before:
            uncertified.append(fam.name)
    assert 0 < degenerate < len(cases) // 2
    assert "staircase_n8_L1" in uncertified
    assert len(uncertified) > 10, uncertified


def test_variant_bound_certifies_every_matrix_group(monkeypatch):
    # on matrix k = 8 the greedy flow saturates every positive g_i in all
    # 64 groups at the first ratio, so the one network built is the
    # argmin's, for its BFS
    from lsqlab import adversary

    cuts = []
    cut = adversary._min_cut
    monkeypatch.setattr(adversary, "_min_cut",
                        lambda *args: cuts.append(args) or cut(*args))
    seen = _track_networks(monkeypatch)
    vb = L.variant_bound_exhaustive(L.family_matrix_game(8))
    assert (vb.min_ratio, vb.argmin) == (Fraction(64, 15), tuple(range(16)))
    assert len(cuts) == 64
    assert (seen["built"], seen["uncertified"]) == (1, 0)


def test_variant_bound_holds_one_residual_network_at_a_time(monkeypatch):
    # ring-8 at L = 3 (1024 functions) cuts each of its groups on a network
    # that is dropped before the next one is built
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "variant_bound_exhaustive=1024")
    seen = _track_networks(monkeypatch)
    g = L.ring_graph(8)
    fam, _ = L.family_staircase(g, L.shortest_path_system(g), 3)
    vb = L.variant_bound_exhaustive(fam)
    assert (vb.min_ratio, len(vb.argmin)) == (Fraction(1148, 569), 60)
    assert seen["built"] > 1 and seen["peak"] == 1, seen


def test_replaced_family_derives_its_own_split():
    # the per-point split is derived from the family's own pairs on first
    # read, so a family rebuilt with other pairs does not inherit it
    fam = L.family_matrix_game(3)
    f = fam.functions

    def split(pairs):
        return tuple([p for p in pairs if f[p[0]][a] != f[p[1]][a]]
                     for a in range(len(fam.domain)))

    assert fam.differing == split(fam.pairs)
    fewer = replace(fam, pairs=fam.pairs[:4])
    assert fewer.differing == split(fam.pairs[:4]) != fam.differing
    # at cell (1, 1) row 1 differs from all three columns and row 2 from
    # column 1; with every pair, a cell separates 2k - 1 = 5 of them
    assert L.big_q(fewer, range(6)) == 2 * 4 < L.big_q(fam, range(6)) == 2 * 5


def _packed_sweep(fam, width):
    """(members, M(Z), d) for every nonempty subset Z in Gray-code order,
    members a bitmask and d holding D_a(Z) in field a, of width bits.
    Toggling function i adds or subtracts, per related j in Z, 2 r(i, j)
    times the field unit of every point where i and j differ."""
    npoints = len(fam.domain)
    related = [[] for _ in range(fam.size)]
    for i, j, w in fam.pairs:
        pts = [a for a in range(npoints)
               if fam.functions[i][a] != fam.functions[j][a]]
        if pts:
            vec = 2 * w * sum(1 << (width * a) for a in pts)
            related[i].append((1 << j, vec))
            related[j].append((1 << i, vec))
    members = m_z = d = 0
    for step in range(1, 1 << fam.size):
        i = (step & -step).bit_length() - 1
        members ^= 1 << i
        sign = 1 if members >> i & 1 else -1
        m_z += sign * fam.mass[i]
        for bit, vec in related[i]:
            if members & bit:
                d += sign * vec
        yield members, m_z, d


def _variant_bound_packed(fam):
    """(min M/q, argmin) by two Gray-code sweeps over packed integers,
    fast enough for 16 functions; None if no subset has q > 0.

    The per-point distinguishing sums are fields of B = bits(total) + 1
    bits, total the sum of all row masses, so no field carries or borrows.
    The first sweep finds the minimum: a subset replaces the best only
    when M(Z)/q(Z) is strictly smaller, i.e. when some field exceeds
    t = floor(m_z * best_q / best_m); adding 2^(B-1) - 1 - t to every
    field sets a field's top bit exactly then, so that test is one
    addition and one AND, and q is read out only when it fires.  The
    second ORs each Z into the union of every point whose field is
    t = M(Z) / min > 0: no field exceeds t, so adding 2^(B-1) - t to
    every field sets the top bit of exactly those.
    """
    npoints = len(fam.domain)
    total = sum(fam.mass)
    width = total.bit_length() + 1
    field_mask = (1 << width) - 1
    ones = sum(1 << (width * a) for a in range(npoints))  # 1 in every field
    high_bits = ones << (width - 1)
    fill = (1 << (width - 1)) - 1
    best_m, best_q = 1, 0  # 1/0 stands for +infinity: any q > 0 beats it
    for _, m_z, d in _packed_sweep(fam, width):
        t = m_z * best_q // best_m
        if t < total and (d + (fill - t) * ones) & high_bits:
            best_q = max((d >> (width * a)) & field_mask
                         for a in range(npoints))
            best_m = m_z
    if not best_q:
        return None
    unions = [0] * npoints
    for members, m_z, d in _packed_sweep(fam, width):
        t, rest = divmod(m_z * best_q, best_m)
        hits = (d + (fill + 1 - t) * ones) & high_bits if t and not rest else 0
        for a in range(npoints):
            if hits >> (width * a + width - 1) & 1:
                unions[a] |= members
    first = next(u for u in unions if u)
    return (Fraction(best_m, best_q),
            tuple(i for i in range(fam.size) if first >> i & 1 and fam.mass[i]))


def _wide_random_family(rng):
    """11-16 functions over 1-4 random points, with up to 3 of them
    repeated (so points share their tuple of differing pairs), up to 3
    functions related to no other (mass 0) and weights drawn up to 1
    (ties are common), 3 or 2^70.  Returns the family and its weight
    function r(i, j), i < j."""
    size = rng.randint(11, 16)
    columns = [[rng.randint(0, 2) for _ in range(size)]
               for _ in range(rng.randint(1, 4))]
    columns += rng.choices(columns, k=rng.randint(0, 3))
    rng.shuffle(columns)
    labels = [0, 1] + [rng.randint(0, 1) for _ in range(size - 2)]
    rng.shuffle(labels)
    isolated = set(rng.sample(range(size), rng.randint(0, 3)))
    max_weight = rng.choice((1, 3, 2 ** 70))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)
             if labels[i] != labels[j] and not {i, j} & isolated]
    if not pairs:
        return _wide_random_family(rng)
    weights = {p: rng.randint(0, max_weight) for p in pairs}
    weights[pairs[0]] = weights[pairs[0]] or 1

    def weight(i, j):
        return weights.get((i, j), 0)

    fam = FunctionFamily("wide", tuple(range(len(columns))),
                         tuple(zip(*columns)), tuple(labels),
                         related_pairs(size, weight))
    return fam, weight


def _coverage(seen, fam):
    """Count the features of a wide family that the tests must meet."""
    seen["mass 0"] += 0 in fam.mass
    seen["repeated point"] += len(set(zip(*fam.functions))) < len(fam.domain)
    seen["past 2^64"] += max(w for *_, w in fam.pairs) >= 2 ** 64


def test_variant_bound_matches_packed_sweep_on_wide_families():
    rng = random.Random(19)
    seen = {"mass 0": 0, "repeated point": 0, "past 2^64": 0}
    for _ in range(24):
        fam, _ = _wide_random_family(rng)
        _coverage(seen, fam)
        _check_variant_bound(fam, _variant_bound_packed(fam))
    assert min(seen.values()) > 0, seen


def test_packed_sweep_matches_direct_subset_sweep():
    rng = random.Random(20)
    for _ in range(60):
        fam = _random_family(rng, max_weight=rng.choice((1, 2 ** 70)))
        assert _variant_bound_packed(fam) == _variant_bound_reference(fam)


def _dense(fam, weight):
    """The F x F symmetric matrix of a weight function, for dense sums."""
    r = [[0] * fam.size for _ in range(fam.size)]
    for i in range(fam.size):
        for j in range(i + 1, fam.size):
            r[i][j] = r[j][i] = weight(i, j)
    return r


def test_sparse_relation_matches_dense_double_sums():
    # big_m, big_q and v_min against their double-sum definitions over the
    # dense matrix of the same weight function
    rng = random.Random(21)
    seen = {"mass 0": 0, "repeated point": 0, "past 2^64": 0}
    for _ in range(40):
        fam, weight = _wide_random_family(rng)
        _coverage(seen, fam)
        r, f, size = _dense(fam, weight), fam.functions, fam.size
        everyone, points = range(size), range(len(fam.domain))
        subsets = [everyone, []] + [rng.sample(everyone, rng.randint(1, size))
                                    for _ in range(20)]
        for z in subsets:
            assert L.big_m(fam, z) == sum(r[i][j] for i in z
                                          for j in everyone)
            assert L.big_q(fam, z) == max(
                (sum(r[i][j] for i in z for j in z if f[i][a] != f[j][a])
                 for a in points), default=0)

        def share(x, a):
            return Fraction(sum(r[x][y] for y in everyone
                                if f[y][a] != f[x][a]), sum(r[x]))

        thetas = [min(share(x, a), share(y, a))
                  for x in everyone if fam.labels[x] == 0
                  for y in everyone if fam.labels[y] == 1 and r[x][y]
                  for a in points if f[x][a] != f[y][a]]
        if thetas:
            assert L.aaronson_vmin(fam).v_min == max(thetas)
        else:
            with pytest.raises(ValueError, match="no distinguishing triple"):
                L.aaronson_vmin(fam)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("pairs", [
    ((0, 1, 1), (0, 1, 2)),  # repeated
    ((0, 3, 1), (0, 1, 1)),  # not ascending
    ((1, 0, 1),),  # not i < j
    ((2, 4, 1),),  # out of range
    ((-1, 1, 1),),  # out of range
])
def test_relation_rejects_malformed_pairs(pairs):
    with pytest.raises(ValueError, match=r"relation pair \(-?\d+, \d+\) must"):
        FunctionFamily("toy", (0,), ((0,), (1,), (0,), (1,)), (0, 1, 0, 1),
                       pairs)


def test_variant_bound_matrix_closed_form_up_to_k12():
    for k in range(2, 13):
        fam = L.family_matrix_game(k)
        vb = L.variant_bound_exhaustive(fam)
        assert vb.min_ratio == Fraction(k * k, 2 * k - 1)
        assert vb.argmin == tuple(range(2 * k))


def test_variant_bound_with_weights_beyond_64_bits():
    # weights this large put every sum, capacity and ratio term far past
    # a machine word
    rng = random.Random(9)
    cases = [_random_family(rng, max_weight=2 ** 70) for _ in range(60)]
    # q(Z) = total exactly: both functions differ at every point
    cases.append(FunctionFamily("far", (0, 1, 2), ((0, 0, 0), (1, 2, 1)),
                                (0, 1), ((0, 1, 2 ** 64 + 1),)))
    checked = 0
    for fam in cases:
        ref = _variant_bound_reference(fam)
        if ref is None:
            continue
        _check_variant_bound(fam, ref)
        checked += 1
    assert checked > 40


def test_variant_bound_argmin_among_tied_ratios():
    # the argmin is the union of all minimizers at the first optimal
    # point, also when the weights are scaled past 2^64, which leaves every
    # ratio as it was
    rng = random.Random(10)
    tied = 0
    for _ in range(80):
        fam = _random_family(rng, max_weight=1)
        ref = _variant_bound_reference(fam)
        if ref is None:
            continue
        subsets = ([i for i in range(fam.size) if (mask >> i) & 1]
                   for mask in range(1, 1 << fam.size))
        ratios = [Fraction(L.big_m(fam, z), q) for z in subsets
                  if (q := L.big_q(fam, z))]
        tied += ratios.count(ref[0]) > 1
        for factor in (1, 3, 2 ** 66 + 1):
            scaled = replace(
                fam, pairs=tuple((i, j, factor * w) for i, j, w in fam.pairs))
            _check_variant_bound(scaled, ref)
    assert tied >= 20


def test_variant_bound_degenerate_families_raise():
    # no point separates two related functions, or there is no point
    same = FunctionFamily("same", (0, 1), ((0, 1), (0, 1), (0, 1)),
                          (0, 1, 1), ((0, 1, 2 ** 70), (0, 2, 2 ** 70)))
    empty = FunctionFamily("empty", (), ((), ()), (0, 1), ((0, 1, 2 ** 70),))
    for fam in (same, empty):
        assert _variant_bound_reference(fam) is None
        with pytest.raises(ValueError, match="degenerate"):
            L.variant_bound_exhaustive(fam)


def test_variant_bound_two_point_family():
    fam = two_point_family()
    vb = L.variant_bound_exhaustive(fam)
    assert vb.min_ratio == 1
    assert vb.bound == Fraction(1, 100)


def test_variant_bound_cap(monkeypatch):
    fam = L.family_matrix_game(4)
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "variant_bound_exhaustive=4")
    with pytest.raises(CapabilityError):
        L.variant_bound_exhaustive(fam)


def test_variant_bound_default_cap_is_64_functions():
    fam = L.family_matrix_game(32)
    assert L.variant_bound_exhaustive(fam).min_ratio == Fraction(1024, 63)
    labels = (0, 1) * 32 + (0,)
    big = FunctionFamily("big", (0,), tuple((lab,) for lab in labels), labels,
                         ((0, 1, 1),))
    with pytest.raises(CapabilityError, match="size 65 exceeds"):
        L.variant_bound_exhaustive(big)


def test_variant_bound_staircase_values_beyond_the_packed_sweep(monkeypatch):
    # F = 2 n^L up to 686 functions, against ROADMAP's baseline table; the
    # argmin is Z_a, of size 2 (n-2)...(n-L)
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "variant_bound_exhaustive=686")
    cases = [(L.ring_graph(n), 2,
              Fraction((3 * n - 4) * (n - 1), n * n + n - 3))
             for n in range(4, 11)]
    cases += [(L.clique_graph(4), 3, Fraction(72, 65)),
              (L.ring_graph(5), 3, Fraction(94, 67)),
              (L.ring_graph(6), 3, Fraction(130, 79)),
              (L.ring_graph(7), 3, Fraction(351, 190))]
    for g, depth, ratio in cases:
        fam, _ = L.family_staircase(g, L.shortest_path_system(g), depth)
        vb = L.variant_bound_exhaustive(fam)
        argmin_size = 2 * (g.n - 2) * (g.n - 3 if depth == 3 else 1)
        assert (vb.min_ratio, len(vb.argmin)) == (ratio, argmin_size), fam.name


def test_variant_bound_ring9_optimum_lies_below_za(monkeypatch):
    # the counterexample to the Z_a conjecture: on ring-9 at L = 3 (1458
    # functions) Z_9 is beaten by 660 good functions
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "variant_bound_exhaustive=1458")
    g = L.ring_graph(9)
    fam, instances = L.family_staircase(g, L.shortest_path_system(g), 3)
    vb = L.variant_bound_exhaustive(fam)
    assert vb.min_ratio == Fraction(144540, 67141)
    good = [L.is_good(f.milestones) for f in instances]
    z9 = [i for i, f in enumerate(instances)
          if good[i] and f.milestones[-1] == 9]
    za_ratio = Fraction(L.big_m(fam, z9), L.big_q(fam, z9))
    assert za_ratio == Fraction(292, 135) > vb.min_ratio
    assert len(vb.argmin) == 660 and all(good[i] for i in vb.argmin)
    z = vb.argmin
    assert Fraction(L.big_m(fam, z), L.big_q(fam, z)) == vb.min_ratio


def test_aaronson_matrix_game():
    for k in (2, 3, 4):
        fam = L.family_matrix_game(k)
        ab = L.aaronson_vmin(fam)
        assert ab.v_min == 1
        assert ab.bound == Fraction(1, 5)


def test_aaronson_two_point():
    fam = two_point_family()
    ab = L.aaronson_vmin(fam)
    assert ab.v_min == 1


def test_variant_vs_aaronson_constant_free():
    # min M/q grows with k while 1/v_min stays at 1
    for k in (2, 3, 4):
        fam = L.family_matrix_game(k)
        vb = L.variant_bound_exhaustive(fam)
        ab = L.aaronson_vmin(fam)
        assert vb.min_ratio > 1 / ab.v_min
        assert vb.min_ratio >= 1 / (2 * ab.v_min)


def test_row_and_column_matrices_differ_at_2k_minus_1_cells():
    for k in (2, 3, 4):
        fam = L.family_matrix_game(k)
        assert fam.size == 2 * k
        for i in range(k):
            for j in range(k, 2 * k):
                diffs = sum(
                    1 for a in range(len(fam.domain))
                    if fam.functions[i][a] != fam.functions[j][a])
                assert diffs == 2 * k - 1


def test_relation_validation():
    def toy(labels, pairs):
        return FunctionFamily("toy", (0,), tuple((lab,) for lab in labels),
                              labels, pairs)

    fam = toy((0, 1, 1), ((0, 1, 2), (0, 2, 3)))
    assert fam.mass == (5, 2, 3)
    with pytest.raises(ValueError, match="identically zero"):
        toy((0, 1), ())
    with pytest.raises(ValueError, match="vanish on equal labels"):
        toy((0, 0), ((0, 1, 1),))
    with pytest.raises(ValueError, match="nonnegative"):
        toy((0, 1), ((0, 1, -1),))
    with pytest.raises(ValueError, match="relation pair"):
        toy((0, 1), ((0, 1, 0),))  # listed, but not related
    # the relation is part of the family: other weights, another family
    assert fam == toy((0, 1, 1), ((0, 1, 2), (0, 2, 3)))
    assert fam != toy((0, 1, 1), ((0, 1, 2), (0, 2, 4)))
    for weight, message in ((-1, "nonnegative"), (0, "identically zero"),
                            (1, "vanish on equal labels")):
        with pytest.raises(ValueError, match=message):
            toy((0, 1, 1), related_pairs(3, lambda i, j: weight))


def test_family_staircase_small():
    g = L.clique_graph(4)
    ps = L.shortest_path_system(g)
    fam, insts = L.family_staircase(g, ps, 1)
    assert fam.size == 8
    good = [i for i, inst in enumerate(insts) if L.is_good(inst.milestones)]
    assert len(good) == 6
    for i in good:
        assert L.big_m(fam, [i]) == 24
    vb = L.variant_bound_exhaustive(fam)
    assert vb.bound > 0
    ab = L.aaronson_vmin(fam)
    assert vb.min_ratio >= 1 / (2 * ab.v_min)


def test_family_staircase_weighs_only_related_pairs(monkeypatch):
    # the relation over all F(F-1)/2 pairs, from the weight on good pairs
    # with opposite bits only: (n-1)...(n-L) good sequences squared
    from lsqlab import adversary

    g = L.ring_graph(5)
    calls = []
    weigh = adversary.relation_congestion
    monkeypatch.setattr(adversary, "relation_congestion",
                        lambda *args: calls.append(args) or weigh(*args))
    fam, insts = L.family_staircase(g, L.shortest_path_system(g), 2)
    assert len(calls) == (4 * 3) ** 2
    assert fam.pairs == related_pairs(fam.size, lambda i, j: weigh(
        insts[i].milestones, insts[i].bit, insts[j].milestones,
        insts[j].bit, g.n))


def test_family_staircase_rejects_negative_L():
    g = L.ring_graph(5)
    ps = L.shortest_path_system(g)
    with pytest.raises(ValueError, match="L: must be >= 0, got -1"):
        L.family_staircase(g, ps, -1)
    fam, _ = L.family_staircase(g, ps, 0)
    assert (fam.name, fam.size) == ("staircase_n5_L0", 2)


def test_family_staircase_cap(monkeypatch):
    g = L.clique_graph(4)
    ps = L.shortest_path_system(g)
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "family_staircase=16")
    with pytest.raises(CapabilityError):
        L.family_staircase(g, ps, 2)


def test_family_staircase_cap_without_the_power():
    # 7^(10^8) is never computed: L past the cap's bit length puts 2 * 7^L
    # past the cap, and the message shows it as a power
    g = L.ring_graph(7)
    with pytest.raises(CapabilityError,
                       match=r"family_staircase: size 2\*7\^100000000 exceeds"):
        L.family_staircase(g, L.shortest_path_system(g), 10 ** 8)
    with pytest.raises(CapabilityError, match="size 33614 exceeds"):
        L.family_staircase(g, L.shortest_path_system(g), 5)


def test_diagonal_solver_examples():
    k = 4
    fam = L.family_matrix_game(k)
    idx = {cell: i for i, cell in enumerate(fam.domain)}

    def oracle_for(fi):
        return lambda cell: fam.functions[fi][idx[cell]]

    # row matrix i detects at the i-th diagonal query
    for i in range(k):
        label, queries = L.matrix_game_diagonal_solver(oracle_for(i), k)
        assert (label, queries) == (0, i + 1)
    for j in range(k):
        label, queries = L.matrix_game_diagonal_solver(oracle_for(k + j), k)
        assert (label, queries) == (1, j + 1)
    worst = max(L.matrix_game_diagonal_solver(oracle_for(f), k)[1]
                for f in range(fam.size))
    assert worst == k


def test_diagonal_solver_rejects_corrupt_oracle():
    with pytest.raises(ValueError):
        L.matrix_game_diagonal_solver(lambda cell: 0, 3)


def test_aaronson_requires_distinguishing_triple():
    # a related pair with different labels that agree at every point
    # leaves no triple to evaluate over the full label classes
    gap = ("gap", (0, 1), ((0, 1), (0, 1), (1, 1)), (0, 1, 1))
    with pytest.raises(ValueError, match="no distinguishing triple"):
        L.aaronson_vmin(FunctionFamily(*gap, ((0, 1, 1),)))
    # a negative weight could cancel a visited pair's own weight in a theta
    # denominator; a family that holds one cannot be constructed
    with pytest.raises(ValueError, match="nonnegative"):
        FunctionFamily(*gap, ((0, 1, 1), (0, 2, -1)))
