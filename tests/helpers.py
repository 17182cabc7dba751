"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations, combinations_with_replacement, permutations

from linemg import Multigraph, SimpleGraph, is_isomorphic, line_graph


def random_multigraph(
    rng: random.Random,
    max_n: int = 12,
    max_m: int = 30,
    min_n: int = 1,
    min_m: int = 0,
) -> Multigraph:
    """Loop-free multigraph with uniform random endpoint pairs (parallel edges
    arise naturally from collisions); may be disconnected."""
    n = rng.randint(max(min_n, 2) if min_m > 0 else min_n, max_n)
    if n < 2:
        return Multigraph.from_pairs(n, [])
    m = rng.randint(min_m, max_m)
    pairs = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        pairs.append((u, v))
    return Multigraph.from_pairs(n, pairs)


def random_connected_multigraph(rng: random.Random, n: int, m: int) -> Multigraph:
    """Random spanning tree plus ``m - (n-1)`` extra uniform pairs."""
    if n < 1 or m < n - 1:
        raise ValueError("need m >= n - 1")
    pairs = []
    for v in range(1, n):
        pairs.append((rng.randrange(v), v))
    for _ in range(m - (n - 1)):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        pairs.append((u, v))
    return Multigraph.from_pairs(n, pairs)


def random_simple_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def root_search(g: SimpleGraph) -> Multigraph | None:
    """Second opinion on line-multigraph membership: exhaustively search for a
    multigraph R with line_graph(R) isomorphic to ``g``.

    Tries every multiset of ``n_vertices(g)`` endpoint pairs over up to
    ``n_vertices(g) + 1`` root vertices, so it is only usable for tiny inputs
    (five-ish vertices).  Completely independent of the production recognizer
    and of the forbidden catalogs.
    """
    k = g.n_vertices
    if k == 0:
        return Multigraph.from_pairs(0, [])
    for n_root in range(2, k + 2):
        all_pairs = list(combinations(range(n_root), 2))
        for combo in combinations_with_replacement(all_pairs, k):
            covered = set()
            for u, v in combo:
                covered.add(u)
                covered.add(v)
            if len(covered) != n_root:
                continue  # isolated root vertices only duplicate smaller n_root
            candidate = Multigraph.from_pairs(n_root, combo)
            lg = line_graph(candidate).graph
            if lg.n_edges != g.n_edges:
                continue
            if is_isomorphic(lg, g) is not None:
                return candidate
    return None


def is_induced_at(host: SimpleGraph, pattern: SimpleGraph, mapping) -> bool:
    """Pattern vertex i sits at host vertex mapping[i], and every pattern
    pair is an edge exactly when its image pair is."""
    if len(set(mapping)) != pattern.n_vertices:
        return False
    return all(
        pattern.has_edge(i, j) == host.has_edge(mapping[i], mapping[j])
        for i, j in combinations(range(pattern.n_vertices), 2)
    )


def bfs_distances(g: SimpleGraph, source: int) -> list[float]:
    """Hop distances from ``source``; unreachable vertices get math.inf."""
    dist: list[float] = [math.inf] * g.n_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if dist[u] == math.inf:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def permutation_code(g: SimpleGraph) -> int:
    """The smallest packed adjacency code over every vertex order, by trying
    them all: pair (p[i], p[j]) for i < j in combinations order, first pair
    most significant."""
    n = g.n_vertices
    pairs = list(combinations(range(n), 2))
    return min(
        sum(
            1 << (len(pairs) - 1 - k)
            for k, (i, j) in enumerate(pairs)
            if g.has_edge(p[i], p[j])
        )
        for p in permutations(range(n))
    )
