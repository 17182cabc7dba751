"""Exact matching, brute-force oracles, and the MWM/MWIS weight transfer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemg import (
    Multigraph,
    SimpleGraph,
    brute_force_mwis,
    brute_force_mwm,
    line_graph,
    max_weight_matching,
    reduce_multigraph,
)
from tests.helpers import random_multigraph


def weighted(pairs, weights, n):
    return Multigraph.from_pairs(n, pairs, [Fraction(w) for w in weights])


# ---------------------------------------------------------------- reduction


def test_reduce_keeps_heaviest_edge():
    g = weighted([(0, 1), (0, 1), (0, 1), (1, 2)], [2, 5, 3, 1], 3)
    red = reduce_multigraph(g)
    assert red.simple.is_simple()
    assert red.survivor == (1, 3)
    assert [e.weight for e in red.simple.edges] == [Fraction(5), Fraction(1)]


def test_reduce_breaks_ties_toward_smallest_id():
    g = weighted([(0, 1), (0, 1)], [4, 4], 2)
    assert reduce_multigraph(g).survivor == (0,)


def test_reduce_on_simple_graph_is_identity_shaped():
    g = weighted([(0, 1), (1, 2)], [1, 2], 3)
    red = reduce_multigraph(g)
    assert red.survivor == (0, 1)
    assert [e.pair for e in red.simple.edges] == [(0, 1), (1, 2)]


# ----------------------------------------------------------------- exact MWM


def test_mwm_rejects_parallel_edges():
    with pytest.raises(ValueError):
        max_weight_matching(weighted([(0, 1), (0, 1)], [1, 1], 2))


def test_mwm_on_path():
    g = weighted([(0, 1), (1, 2), (2, 3)], [3, 1, 2], 4)
    m = max_weight_matching(g)
    assert m.edges == frozenset({0, 2}) and m.weight == 5


def test_mwm_prefers_heavy_single_edge():
    g = weighted([(0, 1), (1, 2), (2, 3)], [1, 10, 1], 4)
    m = max_weight_matching(g)
    assert m.edges == frozenset({1}) and m.weight == 10


def test_mwm_handles_fractional_weights():
    g = weighted([(0, 1), (1, 2), (2, 3)], ["1/3", "1/2", "1/4"], 4)
    m = max_weight_matching(g)
    assert m.weight == Fraction(1, 3) + Fraction(1, 4)


def test_mwm_totals_stay_int_for_int_weights():
    g = Multigraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)], [3, 1, 2])
    for m in (max_weight_matching(g), brute_force_mwm(g)):
        assert m.weight == 5 and type(m.weight) is int


def test_mwm_empty_and_single():
    assert max_weight_matching(Multigraph.from_pairs(3, [])).weight == 0
    single = max_weight_matching(weighted([(0, 1)], [7], 2))
    assert single.edges == frozenset({0}) and single.weight == 7


def test_mwm_on_odd_cycle_blossom_case():
    # C5 with uniform weights: matching number 2, greedy-by-weight also 2,
    # but C9 with crafted weights defeats naive augmenting approaches
    c9 = weighted(
        [(i, (i + 1) % 9) for i in range(9)],
        [6, 1, 6, 1, 6, 1, 6, 1, 6],
        9,
    )
    exact = max_weight_matching(c9)
    brute = brute_force_mwm(c9)
    assert exact.weight == brute.weight == 24


# ------------------------------------------------------------ brute oracles


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_mwm_with_isolated_vertices_matches_brute(seed):
    # edges on a random few of up to 14 vertices; the rest stay isolated
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    active = rng.sample(range(n), rng.randint(2, min(n, 7)))
    pairs = sorted({tuple(sorted(rng.sample(active, 2))) for _ in range(rng.randint(1, 10))})
    g = Multigraph.from_pairs(n, pairs, [rng.randint(0, 6) for _ in pairs])
    exact = max_weight_matching(g)
    assert exact.weight == brute_force_mwm(g).weight
    ends = [x for i in exact.edges for x in g.edges[i].pair]
    assert len(ends) == len(set(ends))


def test_brute_mwm_limits():
    big = Multigraph.from_pairs(26, [(i, i + 1) for i in range(0, 25)])
    assert big.n_edges == 25
    with pytest.raises(ValueError):
        brute_force_mwm(big)


def test_brute_mwm_lexicographic_tie_break():
    # two disjoint edges with equal weight versus one heavy edge: ties on
    # total weight resolve toward including the smallest edge ids
    g = weighted([(0, 1), (2, 3), (0, 2)], [1, 1, 2], 4)
    m = brute_force_mwm(g)
    assert m.weight == 2
    assert m.edges == frozenset({0, 1})  # 1+1 ties 2; ids (0,1) beat (2,)


def test_brute_mwis_on_path():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    vertices, weight = brute_force_mwis(p3, [3, 4, 3])
    assert vertices == (0, 2) and weight == 6


def test_brute_mwis_respects_zero_weights():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    vertices, weight = brute_force_mwis(p3, [0, 5, 0])
    assert weight == 5 and 1 in vertices


def test_brute_mwis_lexicographic_tie_break():
    square = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    vertices, weight = brute_force_mwis(square, [1, 1, 1, 1])
    assert weight == 2 and vertices == (0, 2)


def test_brute_mwis_validates_input():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        brute_force_mwis(p3, [1, 2])
    with pytest.raises(ValueError):
        brute_force_mwis(p3, [1, -2, 1])
    with pytest.raises(ValueError):
        brute_force_mwis(SimpleGraph.from_edges(26, []), None)


def test_brute_mwis_results_are_independent_sets():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 10)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = SimpleGraph.from_edges(n, edges)
        w = [rng.randint(0, 9) for _ in range(n)]
        vertices, weight = brute_force_mwis(g, w)
        assert sum(w[v] for v in vertices) == weight
        for a in vertices:
            for b in vertices:
                if a != b:
                    assert b not in g.adj[a]


# --------------------------------------------------------- oracle agreement


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 100_000))
def test_exact_matches_brute_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=8, max_m=12)
    red = reduce_multigraph(
        Multigraph.from_pairs(
            g.n_vertices,
            [e.pair for e in g.edges],
            [Fraction(rng.randint(0, 20), rng.randint(1, 4)) for _ in g.edges],
        )
    )
    exact = max_weight_matching(red.simple)
    brute = brute_force_mwm(red.simple)
    assert exact.weight == brute.weight
    # both results must be matchings of the claimed weight
    for result in (exact, brute):
        used = set()
        total = Fraction(0)
        for i in result.edges:
            e = red.simple.edges[i]
            assert e.u not in used and e.v not in used
            used.update((e.u, e.v))
            total += e.weight
        assert total == result.weight


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_mwis_of_line_graph_equals_mwm_of_reduced_root(seed):
    # weight transfer across the line-graph correspondence
    rng = random.Random(seed)
    r = random_multigraph(rng, max_n=6, max_m=10)
    weights = [Fraction(rng.randint(0, 9)) for _ in r.edges]
    weighted_root = Multigraph.from_pairs(
        r.n_vertices, [e.pair for e in r.edges], weights
    )
    lg = line_graph(weighted_root)
    vertex_weights = [weights[lg.map.edge_of_vertex[v]] for v in range(r.n_edges)]
    _, mwis_weight = brute_force_mwis(lg.graph, vertex_weights)
    mwm = max_weight_matching(reduce_multigraph(weighted_root).simple)
    assert mwis_weight == mwm.weight
