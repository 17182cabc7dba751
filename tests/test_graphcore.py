"""Core containers, the edge-list format, and small-graph search routines."""

import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemg import (
    Embedding,
    GraphFormatError,
    Multigraph,
    SimpleGraph,
    connected_components,
    find_induced,
    geometric_graph,
    is_isomorphic,
    parse_graph,
    serialize_graph,
    true_twin_classes,
)
from linemg.graphcore import MAX_VERTICES
from tests.helpers import bfs_distances, random_multigraph, random_simple_graph


# ---------------------------------------------------------------- containers


def test_from_pairs_normalizes_endpoints_and_ids():
    g = Multigraph.from_pairs(3, [(2, 1), (0, 1), (1, 0)])
    assert [(e.id, e.u, e.v) for e in g.edges] == [(0, 1, 2), (1, 0, 1), (2, 0, 1)]
    assert g.multiplicity[(0, 1)] == 2
    assert not g.is_simple()


def test_multigraph_rejects_loops_and_bad_endpoints():
    with pytest.raises(ValueError):
        Multigraph.from_pairs(3, [(1, 1)])
    with pytest.raises(ValueError):
        Multigraph.from_pairs(2, [(0, 2)])
    with pytest.raises(ValueError):
        Multigraph.from_pairs(2, [(0, 1)], [Fraction(-1)])
    with pytest.raises(ValueError):
        Multigraph.from_pairs(2, [(0, 1)], [1, 2])


def test_weights_pass_through_unchanged():
    g = Multigraph.from_pairs(3, [(0, 1), (1, 2)])
    assert [type(e.weight) for e in g.edges] == [int, int]
    g = Multigraph.from_pairs(3, [(0, 1), (1, 2)], [4, Fraction(1, 3)])
    assert [type(e.weight) for e in g.edges] == [int, Fraction]
    for bad in (0.5, "1/3"):
        with pytest.raises(ValueError):
            Multigraph.from_pairs(2, [(0, 1)], [bad])


def test_degree_counts_parallel_edges():
    g = Multigraph.from_pairs(3, [(0, 1), (0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [2, 3, 1]


def test_to_simple_graph_strictness():
    g = Multigraph.from_pairs(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        g.to_simple_graph()


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph((frozenset({0}), frozenset()))  # loop
    with pytest.raises(ValueError):
        SimpleGraph((frozenset({1}), frozenset()))  # asymmetric
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 0)])


def test_induced_subgraph_sorts_and_reports_ids():
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub, original = g.induced([4, 0, 1])
    assert original == (0, 1, 4)
    assert sub.edge_list == ((0, 1), (0, 2))  # 0-1 and 0-4 survive


def test_embedding_must_be_injective():
    with pytest.raises(ValueError):
        Embedding((0, 0))


# -------------------------------------------------------------------- format


def test_parse_basic_file():
    text = "# demo\nv 4\ne 0 1\ne 1 2 5\ne 1 2 1/3\ne 2 3 0.25\n"
    g = parse_graph(text)
    assert g.n_vertices == 4
    assert [e.weight for e in g.edges] == [
        Fraction(1),
        Fraction(5),
        Fraction(1, 3),
        Fraction(1, 4),
    ]


@pytest.mark.parametrize(
    "text",
    [
        "",  # no vertex line
        "e 0 1\nv 2\n",  # edge first
        "v 2\nv 2\n",  # duplicate count
        "v x\n",
        "v -1\n",
        "v 2\ne 0 2\n",  # out of range
        "v 2\ne 0 0\n",  # loop
        "v 2\ne 0 1 -2\n",  # negative weight
        "v 2\ne 0 1 abc\n",
        "v 2\nq 0 1\n",  # unknown record
        "v 2\ne 0\n",  # short edge line
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_unit_weight_is_int():
    assert type(parse_graph("v 2\ne 0 1\n").edges[0].weight) is int


def test_parse_vertex_count_limit():
    assert parse_graph(f"v {MAX_VERTICES}\n").n_vertices == MAX_VERTICES
    with pytest.raises(GraphFormatError) as err:
        parse_graph(f"# hostile\nv {MAX_VERTICES + 1}\n")
    assert err.value.line_no == 2


def test_format_error_reports_line_number():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("# one\nv 2\ne 0 5\n")
    assert err.value.line_no == 3


@settings(max_examples=60)
@given(st.integers(0, 500))
def test_serialize_parse_round_trip(seed):
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=8, max_m=14)
    if rng.random() < 0.5 and g.n_edges:
        weights = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in g.edges]
        g = Multigraph.from_pairs(g.n_vertices, [e.pair for e in g.edges], weights)
    back = parse_graph(serialize_graph(g))
    assert back.n_vertices == g.n_vertices
    assert [(e.pair, e.weight) for e in back.edges] == [
        (e.pair, e.weight) for e in g.edges
    ]


def test_serialize_omits_unit_weights():
    g = Multigraph.from_pairs(2, [(0, 1)], [Fraction(1)])
    assert "e 0 1\n" in serialize_graph(g)
    g2 = Multigraph.from_pairs(2, [(0, 1)], [Fraction(1, 3)])
    assert "e 0 1 1/3\n" in serialize_graph(g2)


# -------------------------------------------------------------- isomorphism


def test_is_isomorphic_finds_relabeling():
    c5a = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    c5b = SimpleGraph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    emb = is_isomorphic(c5a, c5b)
    assert emb is not None
    mapping = emb.mapping
    for u in range(5):
        for v in range(5):
            if u != v:
                assert (v in c5a.adj[u]) == (mapping[v] in c5b.adj[mapping[u]])


def test_is_isomorphic_rejects_same_degree_sequence():
    # C6 versus two triangles: both 2-regular on six vertices
    c6 = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    kk = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert is_isomorphic(c6, kk) is None


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_is_isomorphic_accepts_random_relabelings(seed):
    rng = random.Random(seed)
    g = random_simple_graph(rng, rng.randint(1, 7), rng.random())
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    relabeled = SimpleGraph.from_edges(
        g.n_vertices, [(perm[u], perm[v]) for u, v in g.edge_list]
    )
    assert is_isomorphic(g, relabeled) is not None


def test_find_induced_is_lexicographically_first():
    host = SimpleGraph.from_edges(6, [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)])
    claw = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    emb = find_induced(host, claw)
    assert emb is not None
    assert emb.mapping == (0, 1, 2, 3)


def test_find_induced_requires_induced_not_subgraph():
    k4 = SimpleGraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert find_induced(k4, p3) is None  # P3 is a subgraph but never induced


def test_matchers_leave_no_reference_cycles():
    # a search that only the cyclic collector can free would keep the host
    # graph alive after every call
    host = SimpleGraph.from_edges(6, [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)])
    claw = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    relabeled = SimpleGraph.from_edges(4, [(1, 0), (2, 0), (3, 0)])
    gc.collect()
    gc.disable()
    try:
        assert find_induced(host, claw) is not None
        assert is_isomorphic(claw, relabeled) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------- twins, components, bfs


def test_true_twin_classes_on_diamond():
    diamond = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert true_twin_classes(diamond) == [[0, 1], [2], [3]]


def test_true_twins_require_adjacency():
    # star leaves share open neighborhoods but are pairwise non-adjacent
    star = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    assert true_twin_classes(star) == [[0], [1], [2], [3]]


def test_connected_components_order():
    g = SimpleGraph.from_edges(5, [(3, 4), (0, 1)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]


def test_bfs_distances():
    p4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert bfs_distances(p4, 0) == [0, 1, 2, 3]
    g = SimpleGraph.from_edges(3, [(0, 1)])
    dist = bfs_distances(g, 0)
    assert dist[1] == 1 and math.isinf(dist[2])


# ---------------------------------------------------------------- geometric


def test_geometric_graph_thresholds():
    pts = [(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)]
    g = geometric_graph(pts, 1.0)
    assert g.edge_list == ((0, 1),)
    g2 = geometric_graph(pts, 1.5)
    assert g2.edge_list == ((0, 1), (1, 2))


def test_geometric_graph_rejects_duplicates_and_bad_radius():
    with pytest.raises(ValueError):
        geometric_graph([(0, 0), (0, 0)], 1.0)
    with pytest.raises(ValueError):
        geometric_graph([(0, 0)], 0.0)
