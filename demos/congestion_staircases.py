#!/usr/bin/env python3
"""Walkthrough: staircase hard instances over all-pairs path systems.

Builds two hand-sized instances (a 12-vertex graph with a self-crossing
staircase, and a 4x4 grid), prints their value functions, and checks the
congestion formulas for the hypercube and Cayley systems.
"""

import lsqlab as L
from lsqlab.pathsystems import PathTable, shortest_path_system

print("=" * 70)
print("1. A staircase that revisits vertices (12-vertex graph)")
print("=" * 70)

g = L.from_edges(12, [
    (1, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 6), (6, 10),
    (10, 3), (3, 11), (1, 2), (2, 4), (11, 12),
])
paths = shortest_path_system(g).table()
paths[(1, 6)] = (1, 3, 5, 6)
paths[(6, 8)] = (6, 7, 8)
paths[(8, 6)] = (8, 9, 6)
paths[(6, 11)] = (6, 10, 3, 11)
ps = PathTable(12, paths)

x = (1, 6, 8, 6, 11)  # milestones may repeat; the sequence is "bad"
stair = L.build_staircase(x, ps)
print(f"milestones: {x}")
print(f"walk:       {stair.walk}")
print(f"good sequence? {L.is_good(x)}")

vals = L.make_instance(x, 0, ps, g).table
print("values:", {v: vals[v] for v in g.vertices()})
print("local minima:", L.local_minima(g, vals), "(walk end =", stair.end, ")")
print("tail from segment 4:", L.tail(4, stair))
print("vertex 6 appears", stair.walk.count(6), "times")

print()
print("=" * 70)
print("2. The 4x4 grid instance")
print("=" * 70)

g2 = L.grid_graph(4)
p2 = shortest_path_system(g2).table()
p2[(1, 6)] = (1, 2, 3, 7, 6)
p2[(6, 11)] = (6, 10, 11)
p2[(11, 16)] = (11, 7, 8, 12, 16)
ps2 = PathTable(16, p2)
x2 = (1, 6, 11, 16)
stair2 = L.build_staircase(x2, ps2)
v2 = L.make_instance(x2, 0, ps2, g2).table
print(f"walk: {stair2.walk}")
print(f"f(v4) = {v2[4]} (off the walk: distance to the entrance)")
print(f"f(v7) = {v2[7]} (on the walk, via its last quasi-segment)")
print(f"f(v16) = {v2[16]}, unique minimum: {L.local_minima(g2, v2)}")

print()
print("=" * 70)
print("3. Congestion of structured path systems")
print("=" * 70)

for b in (1, 2, 3, 4):
    h = L.hypercube_graph(b)
    got = L.congestion(L.hypercube_path_system(h))
    print(f"hypercube dim {b}: vertex congestion {got} "
          f"= N*(1 + dim/2) = {h.n}*{1 + b / 2}")

z5 = L.TableGroup(L.cyclic_group(5))
c5 = L.cayley_graph(z5, {2, 5})
per_vertex = L.cayley_path_system(c5).vertex_counts()
diam = L.graph_metrics(c5)["diameter"]
print(f"C5 as a Cayley graph: every vertex has congestion "
      f"{set(per_vertex.values())}, bound (diam+1)*n = {(diam + 1) * 5}")

for name, graph in (("K4", L.clique_graph(4)), ("C4", L.ring_graph(4))):
    g_star, _ = L.min_congestion_oracle(graph)
    lex = L.congestion(L.shortest_path_system(graph))
    print(f"{name}: optimal congestion {g_star} "
          f"(canonical shortest-path system achieves {lex})")
