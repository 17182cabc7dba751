"""Seeded input generators for the benchmark.

Everything here is plain Python on plain data (vertex counts, pair lists,
edge-list text), so the inputs do not depend on the package under test or
on its test helpers: the same seed gives the same inputs at every commit.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

# The seven minimal forbidden induced subgraphs for line graphs of
# multigraphs, by catalog name, as (vertex count, edges).  A private copy:
# reject-side checks compare the program's witness against these, not
# against the program's own catalog file.
MULTIGRAPH7 = {
    "F1": (4, ((0, 3), (1, 3), (2, 3))),
    "F2": (6, ((0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5))),
    "F3": (6, ((0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5))),
    "F4": (6, ((0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5))),
    "F5": (6, ((0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5))),
    "F6": (7, ((0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6),
               (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6))),
    "F7": (7, ((0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
               (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 6), (5, 6))),
}


def random_connected_multigraph(rng: random.Random, n: int, m: int) -> tuple[int, list[tuple[int, int]]]:
    """A random spanning tree on ``n`` vertices plus ``m - n + 1`` uniform
    extra pairs (collisions give parallel edges).  Returns (n, pairs)."""
    if n < 2 or m < n - 1:
        raise ValueError("need n >= 2 and m >= n - 1")
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(m - n + 1):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        pairs.append((u, v + 1 if v >= u else v))
    return n, pairs


def line_graph_pairs(n: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges of the line graph of the multigraph (n, pairs): line vertex i is
    root edge i; two line vertices are adjacent when their edges meet."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        incident[u].append(i)
        incident[v].append(i)
    seen: set[tuple[int, int]] = set()
    for inc in incident:
        seen.update(combinations(inc, 2))
    return sorted(seen)


def relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Rename vertices by a random permutation and shuffle the edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The package's edge-list format: a ``v n`` line, then ``e u v`` lines."""
    return "".join([f"v {n}\n", *(f"e {u} {v}\n" for u, v in edges)])


def geometric_network(
    rng: random.Random, n: int, side: float, links: int
) -> tuple[int, list[tuple[int, int]]]:
    """``n`` points uniform on a ``side`` x ``side`` square; the ``links``
    closest pairs become links (a unit disk graph whose radius is chosen so
    that the link count is exact).  Links are listed in (u, v) order."""
    pts = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    by_distance = sorted(
        (math.dist(pts[u], pts[v]), u, v) for u, v in combinations(range(n), 2)
    )
    return n, sorted((u, v) for _, u, v in by_distance[:links])
