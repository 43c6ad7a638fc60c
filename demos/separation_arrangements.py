#!/usr/bin/env python3
"""Walkthrough: path arrangements and cluster staircases.

Builds the 9-vertex three-cluster arrangement, walks a cluster staircase
through it, and shows the grid arrangement plus the parameter arithmetic
that connects separation number to arrangement size.
"""

import os

import lsqlab as L
from lsqlab.separation import PathArrangement, cluster_staircase

print("9-vertex arrangement: clusters {1,2,3}, {4,5,6}, {7,8,9}")
print("-" * 70)
g = L.from_edges(9, [
    (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
    (1, 4), (4, 7), (1, 7), (2, 5), (5, 8), (2, 8), (3, 6), (6, 9), (3, 9),
])
clusters = (frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset({7, 8, 9}))
inter = {}
for k in (1, 2, 3):
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                inter[(k, i, j)] = (k + 3 * (i - 1),)
            else:
                mid = 6 - i - j
                inter[(k, i, j)] = (k + 3 * (i - 1), k + 3 * (mid - 1),
                                    k + 3 * (j - 1))
pa = PathArrangement(g, 3, clusters, inter)
print("arrangement valid:", not L.arrangement_violations(pa, g))
print("path 2 from cluster 2 to cluster 3:", pa.path(2, 2, 3))

# odd entries select clusters, even entries select inter-cluster paths:
# start in cluster 1, ride path 3 to cluster 3, then path 1 to cluster 2
x = (1, 3, 3, 1, 2)
walk = cluster_staircase(x, pa)
print(f"cluster sequence {x} -> walk {walk.walk}")
vals = L.make_separation_instance(x, 0, pa, g).table
print("values:", {v: vals[v] for v in g.vertices()})
print("unique minimum:", L.local_minima(g, vals))
print()

print("Grid arrangements: columns as clusters, rows as paths")
print("-" * 70)
for side in (2, 3, 4):
    pa = L.grid_path_arrangement(side)
    valid = not L.arrangement_violations(pa, pa.graph)
    print(f"side {side}: m = {pa.m}, valid = {valid}")
pa3 = L.grid_path_arrangement(3)
x3 = (1, 2, 3, 3, 2)
w3 = cluster_staircase(x3, pa3)
print(f"side 3, sequence {x3} -> walk {w3.walk}")
print()

print("Arrangement-parameter arithmetic: max(floor(sqrt(s / 2*delta)), 1)")
print("-" * 70)
for s, delta in ((162, 1), (8, 1), (0, 5), (200, 2)):
    print(f"  s={s}, delta={delta} -> m >= {L.arrangement_parameter_bound(s, delta)}")
print()
print("Barbell separation numbers (boundary restricted to the chosen subset):")
print("  s(barbell 8)  =", L.separation_number_exact(L.barbell_graph(8)))
# 16 vertices is above the routine's default cap of 14; the variable
# raises it (about 0.25 s here)
os.environ[L.errors.ENV_CAP] = "separation_number_exact=16"
print("  s(barbell 16) =", L.separation_number_exact(L.barbell_graph(16)))
