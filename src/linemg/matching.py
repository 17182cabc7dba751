"""Maximum weight matching, parallel-edge reduction, and brute-force oracles.

Matchings in a root multigraph correspond to independent sets in its line
graph, which is what makes the scheduling pipeline polynomial.  Parallel
edges never help a matching, so ``reduce_multigraph`` keeps only the heaviest
edge of each parallel class first.

``max_weight_matching`` is the production path (blossom algorithm via
networkx, exact for integer weights; rational weights are scaled to integers
and back, so the result stays exact).  Weights are used as given: totals are
ints for int weights and Fractions otherwise.  Blossom sees only the edges
and the vertices they touch, so its cost grows with the edges passed in, not
with ``n_vertices``: the scheduler passes only a root's non-empty links.

``brute_force_mwm`` and ``brute_force_mwis`` are independent exhaustive
oracles used to check it and the scheduler; both resolve weight ties
deterministically by preferring the smallest ids, greedily: a vertex or edge
is taken whenever some optimum extends the choices made so far.

Weighted edges ride on :class:`~linemg.graphcore.Multigraph` (every edge has
an int or Fraction weight); the matching entry points require the graph to be
parallel-free so that edge ids and endpoint pairs identify each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .graphcore import Multigraph, SimpleGraph


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edge ids and its total weight."""

    edges: frozenset[int]
    weight: int | Fraction


@dataclass(frozen=True)
class WeightedReduction:
    """Parallel-free version of a multigraph.

    ``simple.edges[i]`` is the surviving edge of one parallel class (heaviest
    weight, ties to the smallest original id) and ``survivor[i]`` is its
    original edge id.
    """

    simple: Multigraph
    survivor: tuple[int, ...]


def reduce_multigraph(g: Multigraph) -> WeightedReduction:
    """Keep one maximum-weight edge per endpoint pair."""
    best: dict[tuple[int, int], int] = {}
    for e in g.edges:
        cur = best.get(e.pair)
        if cur is None or e.weight > g.edges[cur].weight:
            best[e.pair] = e.id
    pairs = sorted(best)
    survivors = tuple(best[p] for p in pairs)
    simple = Multigraph.from_pairs(
        g.n_vertices, pairs, [g.edges[s].weight for s in survivors]
    )
    return WeightedReduction(simple, survivors)


def _require_simple(g: Multigraph) -> None:
    if not g.is_simple():
        raise ValueError("graph has parallel edges; reduce_multigraph first")


def max_weight_matching(g: Multigraph) -> Matching:
    """Maximum weight matching of a parallel-free multigraph, exactly.

    Weights are put over a common denominator (1 when all are ints) so the
    blossom solver only ever sees integers, for which it is exact.
    """
    _require_simple(g)
    if g.n_edges == 0:
        return Matching(frozenset(), 0)
    if g.n_edges == 1:
        e = g.edges[0]
        return Matching(frozenset({e.id}), e.weight)
    import networkx as nx  # deferred: keeps CLI commands that skip matching fast

    scale = lcm(*(e.weight.denominator for e in g.edges))
    graph = nx.Graph()
    # blossom breaks weight ties by node insertion order: insert ascending
    graph.add_nodes_from(sorted({x for e in g.edges for x in e.pair}))
    for e in g.edges:
        graph.add_edge(e.u, e.v, weight=int(e.weight * scale), eid=e.id)
    mate = nx.max_weight_matching(graph, maxcardinality=False)
    ids = frozenset(graph.edges[u, v]["eid"] for u, v in mate)
    weight = sum(g.edges[i].weight for i in ids)
    return Matching(ids, weight)


def brute_force_mwm(g: Multigraph) -> Matching:
    """Exhaustive maximum weight matching (at most 24 edges, enough for K7).

    Depth-first over edges in id order with a remaining-weight bound; ties
    break toward including smaller edge ids.
    """
    _require_simple(g)
    m = g.n_edges
    if m > 24:
        raise ValueError("brute-force matching accepts at most 24 edges")
    edges = g.edges
    vbit = [(1 << e.u) | (1 << e.v) for e in edges]
    suffix_weight = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + edges[i].weight

    def best_from(start: int, used: int):
        best = 0

        def dfs(i: int, used: int, acc) -> None:
            nonlocal best
            if acc > best:
                best = acc
            if i == m or acc + suffix_weight[i] <= best:
                return
            if not vbit[i] & used:
                dfs(i + 1, used | vbit[i], acc + edges[i].weight)
            dfs(i + 1, used, acc)

        dfs(start, used, 0)
        return best

    target = best_from(0, 0)
    chosen: list[int] = []
    used = 0
    acc = 0
    for i in range(m):
        if vbit[i] & used:
            continue
        if acc + edges[i].weight + best_from(i + 1, used | vbit[i]) == target:
            chosen.append(i)
            used |= vbit[i]
            acc += edges[i].weight
    return Matching(frozenset(chosen), acc)


def brute_force_mwis(
    g: SimpleGraph, weights: Sequence | None = None
) -> tuple[tuple[int, ...], int | Fraction]:
    """Exhaustive maximum weight independent set (at most 25 vertices).

    Weights default to all ones.  Returns (vertices ascending, total weight).
    Branch and bound on bitmasks: branch on the heaviest live vertex, bound
    by the live weight total.  Ties break toward including smaller vertex ids.
    """
    n = g.n_vertices
    if n > 25:
        raise ValueError("brute-force independent set accepts at most 25 vertices")
    if weights is None:
        weights = [1] * n
    w = list(weights)
    if len(w) != n:
        raise ValueError("weights length mismatch")
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")

    closed = [1 << v for v in range(n)]
    for v in range(n):
        for u in g.adj[v]:
            closed[v] |= 1 << u

    def live_weight(mask: int):
        total = 0
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            total += w[v]
        return total

    def max_weight(mask: int):
        # greedy lower bound: first-fit by ascending id
        best = 0
        m0 = mask
        while m0:
            v = (m0 & -m0).bit_length() - 1
            best += w[v]
            m0 &= ~closed[v]

        def dfs(mask: int, acc, remaining) -> None:
            nonlocal best
            if acc > best:
                best = acc
            if not mask or acc + remaining <= best:
                return
            live = mask
            pick, pick_w = -1, -1
            while live:
                v = (live & -live).bit_length() - 1
                live &= live - 1
                if w[v] > pick_w:
                    pick, pick_w = v, w[v]
            dfs(
                mask & ~closed[pick],
                acc + pick_w,
                remaining - live_weight(mask & closed[pick]),
            )
            dfs(mask & ~(1 << pick), acc, remaining - pick_w)

        dfs(mask, 0, live_weight(mask))
        return best

    full = (1 << n) - 1
    target = max_weight(full)
    chosen: list[int] = []
    acc = 0
    avail = full
    for v in range(n):
        if not (avail >> v) & 1:
            continue
        above = ~((1 << (v + 1)) - 1)
        if acc + w[v] + max_weight(avail & ~closed[v] & above) == target:
            chosen.append(v)
            acc += w[v]
            avail &= ~closed[v]
        else:
            avail &= ~(1 << v)
    return tuple(chosen), acc
