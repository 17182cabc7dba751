"""Exact matching, brute-force oracles, and the MWM/MWIS weight transfer."""

import random
from fractions import Fraction
from math import lcm

import networkx as nx
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
from linemg import matching
from linemg.matching import _check_optimum
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


# The classic hand-built blossom cases of J. van Rantwijk's mwmatching.py
# test suite: (u, v, weight) edges and the unique maximum weight matching.
BLOSSOM_CASES = {
    "s_blossom": (
        [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7)],
        {(1, 2), (3, 4)},
    ),
    "s_blossom_augment": (
        [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7), (1, 6, 5), (4, 5, 6)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s_t_blossom": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 4), (1, 6, 3)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s_t_blossom_reweighted": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (1, 6, 4)],
        {(1, 6), (2, 3), (4, 5)},
    ),
    "s_t_blossom_moved": (
        [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (3, 6, 4)],
        {(1, 2), (3, 6), (4, 5)},
    ),
    "nested_s_blossom": (
        [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8), (4, 5, 10), (5, 6, 6)],
        {(1, 3), (2, 4), (5, 6)},
    ),
    "nested_s_blossom_relabel": (
        [
            (1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20),
            (4, 5, 25), (5, 6, 10), (6, 7, 10), (7, 8, 8),
        ],
        {(1, 2), (3, 4), (5, 6), (7, 8)},
    ),
    "nested_s_blossom_expand": (
        [
            (1, 2, 8), (1, 3, 8), (2, 3, 10), (2, 4, 12), (3, 5, 12),
            (4, 5, 14), (4, 6, 12), (5, 7, 12), (6, 7, 14), (7, 8, 12),
        ],
        {(1, 2), (3, 5), (4, 6), (7, 8)},
    ),
    "s_blossom_relabel_expand": (
        [
            (1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25),
            (3, 4, 22), (4, 5, 25), (4, 8, 14), (5, 7, 13),
        ],
        {(1, 6), (2, 3), (4, 8), (5, 7)},
    ),
    "nested_s_blossom_relabel_expand": (
        [
            (1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18),
            (3, 5, 18), (4, 5, 13), (4, 7, 7), (5, 6, 7),
        ],
        {(1, 8), (2, 3), (4, 7), (5, 6)},
    ),
    "nasty_blossom1": (
        [
            (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50),
            (1, 6, 30), (3, 9, 35), (4, 8, 35), (5, 7, 26), (9, 10, 5),
        ],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "nasty_blossom2": (
        [
            (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50),
            (1, 6, 30), (3, 9, 35), (4, 8, 26), (5, 7, 40), (9, 10, 5),
        ],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "nasty_blossom_least_slack": (
        [
            (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50),
            (1, 6, 30), (3, 9, 35), (4, 8, 28), (5, 7, 26), (9, 10, 5),
        ],
        {(1, 6), (2, 3), (4, 8), (5, 7), (9, 10)},
    ),
    "nasty_blossom_augmenting": (
        [
            (1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95),
            (4, 6, 94), (5, 6, 94), (6, 7, 50), (1, 8, 30), (3, 11, 35),
            (5, 9, 36), (7, 10, 26), (11, 12, 5),
        ],
        {(1, 8), (2, 3), (4, 6), (5, 9), (7, 10), (11, 12)},
    ),
    "nasty_blossom_expand_recursively": (
        [
            (1, 2, 40), (1, 3, 40), (2, 3, 60), (2, 4, 55), (3, 5, 55), (4, 5, 50),
            (1, 8, 15), (5, 7, 30), (7, 6, 10), (8, 10, 10), (4, 9, 30),
        ],
        {(1, 2), (3, 5), (4, 9), (6, 7), (8, 10)},
    ),
}


@pytest.mark.parametrize("name", sorted(BLOSSOM_CASES))
def test_mwm_classic_blossom_cases(name):
    triples, expected = BLOSSOM_CASES[name]
    n = 1 + max(max(u, v) for u, v, _ in triples)
    g = Multigraph.from_pairs(n, [(u, v) for u, v, _ in triples], [w for _, _, w in triples])
    m = max_weight_matching(g)
    assert {g.edges[i].pair for i in m.edges} == {tuple(sorted(p)) for p in expected}
    assert m.weight == brute_force_mwm(g).weight


def networkx_edge_ids(g: Multigraph) -> frozenset[int]:
    """networkx's blossom on the same graph: nodes ascending, edges in id
    order, weights over their common denominator."""
    scale = lcm(*(Fraction(e.weight).denominator for e in g.edges))
    graph = nx.Graph()
    graph.add_nodes_from(sorted({x for e in g.edges for x in e.pair}))
    for e in g.edges:
        graph.add_edge(e.u, e.v, weight=int(e.weight * scale), eid=e.id)
    return frozenset(graph.edges[u, v]["eid"] for u, v in nx.max_weight_matching(graph))


def odd_cycle_graph(rng: random.Random, n_max: int, m_max: int, weight) -> Multigraph:
    """Random simple graph built on an odd cycle, so blossoms form, with extra
    chords and pendant edges; endpoints listed in either order."""
    n = rng.randint(3, n_max)
    cycle = rng.sample(range(n), rng.choice([c for c in (3, 5, 7) if c <= n]))
    pairs = {frozenset((cycle[i], cycle[i - 1])) for i in range(len(cycle))}
    target = rng.randint(len(pairs), max(len(pairs), m_max))
    while len(pairs) < min(target, n * (n - 1) // 2):
        pairs.add(frozenset(rng.sample(range(n), 2)))
    ordered = [tuple(rng.sample(sorted(p), 2)) for p in pairs]
    rng.shuffle(ordered)
    return Multigraph.from_pairs(n, ordered, [weight(rng) for _ in ordered])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from(["tied", "spread", "fraction"]))
def test_mwm_matches_brute_weight_and_networkx_edges(seed, kind):
    rng = random.Random(seed)
    weight = {
        "tied": lambda r: r.randint(0, 3),
        "spread": lambda r: r.randint(0, 60),
        "fraction": lambda r: Fraction(r.randint(0, 12), r.randint(1, 6)),
    }[kind]
    g = odd_cycle_graph(rng, n_max=10, m_max=20, weight=weight)
    m = max_weight_matching(g)
    assert m.weight == brute_force_mwm(g).weight
    assert m.edges == networkx_edge_ids(g)


def test_mwm_matches_networkx_edges_on_larger_graphs():
    # past brute force: the same edge set as networkx on 400 graphs of up to
    # 40 vertices, where blossoms nest, T-blossoms expand and zero-dual
    # sub-blossoms are expanded recursively
    rng = random.Random(2024)
    for _ in range(400):
        top = rng.choice([2, 10, 1000])
        g = odd_cycle_graph(rng, n_max=40, m_max=200, weight=lambda r: r.randint(0, top))
        assert max_weight_matching(g).edges == networkx_edge_ids(g)


def test_certificate_check_rejects_wrong_duals_and_mates():
    # path 0 - 1 - 2, weights 1 and 2; edge k joins end[2k] and end[2k + 1]
    end, w = [0, 1, 1, 2], [1, 2]
    optimum = [-1, 3, 2]  # 1 and 2 matched along edge 1
    duals = [0, 2, 2, 0, 0, 0]  # doubled: u = (0, 1, 1)
    _check_optimum(end, w, optimum, duals, [-1] * 6, {})
    with pytest.raises(AssertionError, match="negative slack"):
        _check_optimum(end, w, optimum, [0, 2, 1, 0, 0, 0], [-1] * 6, {})
    lighter = [1, 0, -1]  # 0 and 1 matched along edge 0: weight 1 < 2
    with pytest.raises(AssertionError):
        _check_optimum(end, w, lighter, duals, [-1] * 6, {})
    with pytest.raises(AssertionError, match="not symmetric"):
        _check_optimum(end, w, [-1, 3, -1], duals, [-1] * 6, {})


def test_certificate_check_covers_blossom_duals():
    # unit triangle 0 1 2 as blossom 3 with dual 1; vertex duals 0
    end, w = [0, 1, 1, 2, 2, 0], [1, 1, 1]
    parent = [3, 3, 3, -1, -1, -1]
    duals = [0, 0, 0, 1, 0, 0]
    cycle = {3: [0, 2, 4]}  # 0 -> 1 -> 2 -> 0
    _check_optimum(end, w, [-1, 3, 2], duals, parent, cycle)  # 1 - 2 matched
    with pytest.raises(AssertionError, match="not full"):
        _check_optimum(end, w, [-1, -1, -1], duals, parent, cycle)


def test_every_answer_is_checked(monkeypatch):
    checked = []
    monkeypatch.setattr(matching, "_check_optimum", lambda *state: checked.append(state))
    max_weight_matching(weighted([(0, 1), (1, 2), (2, 0)], [1, 2, 3], 3))
    assert len(checked) == 1


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
