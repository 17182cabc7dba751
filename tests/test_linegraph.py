"""Line graphs, powers, conflict graphs, and simple-root recognition."""

import importlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemg import (
    ForbiddenWitness,
    Multigraph,
    NotLineGraph,
    SimpleGraph,
    VertexEdgeMap,
    conflict_graph,
    enumerate_connected,
    graph_power,
    is_isomorphic,
    line_graph,
    load_catalog,
    recognize_line_graph,
)
from tests.helpers import bfs_distances, is_induced_at, random_multigraph, random_simple_graph


def relabel(g: SimpleGraph, vmap: VertexEdgeMap) -> SimpleGraph:
    """Rename line-graph vertices (edge ids) through vertex_of_edge."""
    adj = [frozenset()] * g.n_vertices
    for e in range(g.n_vertices):
        v = vmap.vertex_of_edge[e]
        adj[v] = frozenset(vmap.vertex_of_edge[f] for f in g.adj[e])
    return SimpleGraph(tuple(adj))


# ---------------------------------------------------------------- line graph


def test_line_graph_of_path():
    p4 = Multigraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    lg = line_graph(p4)
    assert lg.graph.edge_list == ((0, 1), (1, 2))
    assert lg.map.edge_of_vertex == (0, 1, 2)


def test_line_graph_of_triangle_and_star_coincide():
    k3 = Multigraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    star = Multigraph.from_pairs(4, [(0, 3), (1, 3), (2, 3)])
    assert line_graph(k3).graph.adj == line_graph(star).graph.adj


def test_line_graph_parallel_edges_form_clique():
    g = Multigraph.from_pairs(2, [(0, 1), (0, 1), (0, 1)])
    lg = line_graph(g).graph
    assert lg.edge_list == ((0, 1), (0, 2), (1, 2))


def test_line_graph_empty_and_single_edge():
    assert line_graph(Multigraph.from_pairs(3, [])).graph.n_vertices == 0
    single = line_graph(Multigraph.from_pairs(2, [(0, 1)]))
    assert single.graph.n_vertices == 1
    assert single.graph.n_edges == 0


@settings(max_examples=50)
@given(st.integers(0, 10_000))
def test_line_graph_degree_identity(seed):
    # deg_L(e) = deg(u) + deg(v) - 2 - (mult(uv) - 1): the other parallel
    # copies of e share both endpoints yet contribute one neighbor, not two
    rng = random.Random(seed)
    g = random_multigraph(rng, max_n=7, max_m=12)
    lg = line_graph(g).graph
    for e in g.edges:
        expected = g.degree(e.u) + g.degree(e.v) - 2 - (g.multiplicity[e.pair] - 1)
        assert lg.degree(e.id) == expected


# ------------------------------------------------------------------- powers


def test_graph_power_identity_and_growth():
    p4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert graph_power(p4, 1) is p4
    sq = graph_power(p4, 2)
    assert sq.edge_list == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    cube = graph_power(p4, 3)
    assert cube.n_edges == 6  # K4
    with pytest.raises(ValueError):
        graph_power(p4, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_graph_power_matches_bfs_distance_definition(seed):
    # sparse parts give long shortest paths; several parts, a disconnected graph
    rng = random.Random(seed)
    g = SimpleGraph(())
    for _ in range(rng.randint(1, 3)):
        part = random_simple_graph(rng, rng.randint(1, 10), rng.choice((0.15, 0.3, 0.6)))
        g = _disjoint_union(g, part)
    for t in range(1, 5):
        expected = tuple(
            frozenset(u for u, d in enumerate(bfs_distances(g, v)) if 1 <= d <= t)
            for v in range(g.n_vertices)
        )
        assert graph_power(g, t).adj == expected


def test_conflict_graph_examples():
    p4 = Multigraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    assert conflict_graph(p4, 1).graph.edge_list == ((0, 1), (1, 2))
    assert conflict_graph(p4, 2).graph.n_edges == 3  # K3
    with pytest.raises(ValueError):
        conflict_graph(p4, 0)


def test_conflict_graph_disagrees_with_edge_distance_for_m2():
    # links at edge-distance 2 in P5 are still non-adjacent in [L(P5)]^2
    p5 = Multigraph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    gc = conflict_graph(p5, 2).graph
    # edge-distance 2: an endpoint of link 0 (vertex 1) is two hops from
    # an endpoint of link 3 (vertex 3) in the root
    root = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert 3 not in root.adj[1] and 3 in graph_power(root, 2).adj[1]
    assert 3 not in gc.adj[0]  # line-graph hops: d(0,3) = 3 > 2


# -------------------------------------------------------------- recognition


def test_recognize_path_line_graph():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    res = recognize_line_graph(p3)
    root = res.root
    assert root.n_vertices == 4 and root.n_edges == 3
    assert relabel(line_graph(root).graph, res.map).adj == p3.adj


def test_recognize_triangle_prefers_star_and_offers_k3():
    # K3 is also L(K3); the recognizer returns the star and offers nothing else
    k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    res = recognize_line_graph(k3)
    assert res.root.n_vertices == 4  # K1,3
    assert sorted(res.root.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_recognize_isolated_vertex_and_empty():
    lonely = SimpleGraph.from_edges(1, [])
    res = recognize_line_graph(lonely)
    assert res.root.n_vertices == 2 and res.root.n_edges == 1
    empty = recognize_line_graph(SimpleGraph.from_edges(0, []))
    assert empty.root.n_vertices == 0 and empty.root.n_edges == 0


def _disjoint_union(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    shift = a.n_vertices
    pairs = list(a.edge_list) + [(u + shift, v + shift) for u, v in b.edge_list]
    return SimpleGraph.from_edges(shift + b.n_vertices, pairs)


def _accepted(g: SimpleGraph) -> bool:
    try:
        recognize_line_graph(g)
    except NotLineGraph:
        return False
    return True


def test_recognize_disjoint_unions_of_small_connected_graphs():
    # the single pass decides a union exactly as its parts are decided, keeps
    # line vertex v as root edge v, and every "no" names an induced entry
    small = enumerate_connected(5)
    accepted = [_accepted(g) for g in small]
    patterns = {e.name: e.graph for e in load_catalog("beineke9").entries}
    for (a, a_ok), (b, b_ok) in product(zip(small, accepted), repeat=2):
        g = _disjoint_union(a, b)
        try:
            res = recognize_line_graph(g)
        except NotLineGraph as err:
            assert not (a_ok and b_ok)
            w = err.witness
            assert w.pattern is patterns[w.name]
            assert is_induced_at(g, w.pattern, w.embedding.mapping)
            continue
        assert a_ok and b_ok
        assert res.map.edge_of_vertex == tuple(range(g.n_vertices))
        assert res.root.is_simple()
        assert line_graph(res.root).graph == g


def test_recognize_computes_one_line_graph_for_many_components(monkeypatch):
    linegraph = importlib.import_module("linemg.linegraph")
    calls = []
    real = linegraph.line_graph

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(linegraph, "line_graph", counting)
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    g = _disjoint_union(_disjoint_union(p3, k3), SimpleGraph.from_edges(1, []))
    res = recognize_line_graph(g)
    assert len(calls) == 1
    assert res.root.n_edges == 7 and real(res.root).graph == g


def test_recognize_claw_fails_with_catalog_witness():
    claw = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    with pytest.raises(NotLineGraph) as err:
        recognize_line_graph(claw)
    w = err.value.witness
    assert isinstance(w, ForbiddenWitness)
    assert w.name == "G1"
    assert set(w.embedding.mapping) == {0, 1, 2, 3}


def test_recognize_k5_minus_edge_fails():
    g = SimpleGraph.from_edges(
        5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )
    with pytest.raises(NotLineGraph) as err:
        recognize_line_graph(g)
    assert isinstance(err.value.witness, ForbiddenWitness)


@pytest.mark.parametrize("n", [160, 2000])
def test_recognize_large_star_names_the_claw_at_the_highest_ids(n):
    # deletion runs in ascending order, so the claw that survives is the
    # centre n-1 with the three highest leaves
    star = SimpleGraph.from_edges(n, [(i, n - 1) for i in range(n - 1)])
    with pytest.raises(NotLineGraph) as err:
        recognize_line_graph(star)
    w = err.value.witness
    assert w.name == "G1"
    assert sorted(w.embedding.mapping) == [n - 4, n - 3, n - 2, n - 1]


def test_recognize_wheel_like_graph_fails():
    # W5: C5 plus a dominating hub; contains a claw
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] + [(i, 5) for i in range(5)]
    g = SimpleGraph.from_edges(6, edges)
    with pytest.raises(NotLineGraph):
        recognize_line_graph(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_recognition_round_trip_on_random_simple_roots(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    root = random_simple_graph(rng, n, rng.uniform(0.2, 0.9))
    h = line_graph(Multigraph.from_pairs(n, root.edge_list)).graph
    res = recognize_line_graph(h)
    assert relabel(line_graph(res.root).graph, res.map).adj == h.adj


def test_recognition_root_has_no_parallel_edges():
    c6 = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    res = recognize_line_graph(c6)
    assert res.root.is_simple()
    assert is_isomorphic(res.root.to_simple_graph(), c6) is not None  # C6 self-line
