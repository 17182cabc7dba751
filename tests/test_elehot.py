"""Twin contraction, multiplicity expansion, and the full root pipeline."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemg import (
    ForbiddenWitness,
    Multigraph,
    NotLineMultigraph,
    SimpleGraph,
    VertexEdgeMap,
    contract_twins,
    elehot,
    expand_root,
    krausz_oracle,
    line_graph,
    load_catalog,
    recognize_line_graph,
    true_twin_classes,
    verify_root,
)
from tests.helpers import is_induced_at, random_connected_multigraph, random_multigraph


DIAMOND = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
K3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
CLAW = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])


# -------------------------------------------------------------- contraction


def test_contract_diamond():
    tp = contract_twins(DIAMOND)
    assert tp.classes == ((0, 1), (2,), (3,))
    assert tp.weights == (2, 1, 1)
    assert tp.class_map == (0, 0, 1, 2)
    assert tp.h.edge_list == ((0, 1), (0, 2))  # P3, twin class in the middle


def test_contract_clique_to_point():
    tp = contract_twins(K3)
    assert tp.h.n_vertices == 1
    assert tp.weights == (3,)


def test_contract_twin_free_graph_is_identity():
    p4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    tp = contract_twins(p4)
    assert tp.h.adj == p4.adj
    assert tp.weights == (1, 1, 1, 1)


@settings(max_examples=80)
@given(st.integers(0, 10_000))
def test_contraction_is_idempotent_and_twin_free(seed):
    rng = random.Random(seed)
    g = line_graph(random_multigraph(rng, max_n=7, max_m=14)).graph
    tp = contract_twins(g)
    assert all(len(c) == 1 for c in true_twin_classes(tp.h))
    again = contract_twins(tp.h)
    assert again.h.adj == tp.h.adj
    # classes partition the vertices and weights add up
    assert sorted(v for cls in tp.classes for v in cls) == list(range(g.n_vertices))
    assert sum(tp.weights) == g.n_vertices


# ---------------------------------------------------------------- expansion


def test_expand_restores_multiplicities():
    tp = contract_twins(DIAMOND)
    rec = recognize_line_graph(tp.h)
    result = expand_root(rec.root, rec.map, tp)
    pairs = sorted(e.pair for e in result.root.edges)
    # P4 root with its middle edge doubled
    assert result.root.n_vertices == 4
    assert len(pairs) == 4 and len(set(pairs)) == 3
    assert verify_root(DIAMOND, result)


def test_verify_root_rejects_wrong_candidate():
    tp = contract_twins(DIAMOND)
    rec = recognize_line_graph(tp.h)
    result = expand_root(rec.root, rec.map, tp)
    # swap the map of two line vertices that are not twins: must fail
    wrong = type(result)(
        root=result.root,
        map=type(result.map)(
            edge_of_vertex=(
                result.map.edge_of_vertex[2],
                result.map.edge_of_vertex[1],
                result.map.edge_of_vertex[0],
                result.map.edge_of_vertex[3],
            ),
            vertex_of_edge=(
                result.map.vertex_of_edge[2],
                result.map.vertex_of_edge[1],
                result.map.vertex_of_edge[0],
                result.map.vertex_of_edge[3],
            ),
        ),
    )
    assert not verify_root(DIAMOND, wrong)
    # the identity map over a root whose edges 0 and 2 trade places: must fail
    pairs = [e.pair for e in result.root.edges]
    pairs[0], pairs[2] = pairs[2], pairs[0]
    swapped = type(result)(
        Multigraph.from_pairs(result.root.n_vertices, pairs), result.map
    )
    assert not verify_root(DIAMOND, swapped)


def test_expand_gives_root_edge_v_to_vertex_v():
    # twins 0 and 2 around vertex 1: class order (0, 2), (1), (3) is not
    # vertex order, yet root edge v must still explain vertex v
    g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    result = elehot(g)
    assert result.map == VertexEdgeMap.identity(4)
    edges = result.root.edges
    assert edges[0].pair == edges[2].pair != edges[1].pair
    assert line_graph(result.root).graph.adj == g.adj


# ----------------------------------------------------------------- pipeline


def test_elehot_triangle_gives_parallel_root():
    result = elehot(K3)
    assert result.root.n_vertices == 2
    assert [e.pair for e in result.root.edges] == [(0, 1)] * 3
    assert verify_root(K3, result)


def test_elehot_diamond():
    result = elehot(DIAMOND)
    mult = result.root.multiplicity
    assert sorted(mult.values()) == [1, 1, 2]
    assert verify_root(DIAMOND, result)


def test_elehot_claw_raises_with_family_witness():
    with pytest.raises(NotLineMultigraph) as err:
        elehot(CLAW)
    w = err.value.witness
    assert isinstance(w, ForbiddenWitness)
    assert w.name == "F1"
    assert set(w.embedding.mapping) == {0, 1, 2, 3}


def test_elehot_witness_embeds_in_the_input_not_the_contraction():
    # two twin apexes over a claw: contraction changes vertex ids, the
    # witness must still index vertices of the original graph
    edges = [(0, 1)] + [(0, v) for v in (2, 3, 4)] + [(1, v) for v in (2, 3, 4)]
    g = SimpleGraph.from_edges(5, edges)
    with pytest.raises(NotLineMultigraph) as err:
        elehot(g)
    w = err.value.witness
    assert isinstance(w, ForbiddenWitness)
    mapping = w.embedding.mapping
    # check the named pattern really is induced at the reported vertices
    sub, original = g.induced(mapping)
    index = {orig: i for i, orig in enumerate(original)}
    for pv in range(w.pattern.n_vertices):
        for pu in w.pattern.adj[pv]:
            assert index[mapping[pu]] in sub.adj[index[mapping[pv]]]
    assert sub.n_edges == w.pattern.n_edges


@pytest.mark.parametrize("n", [160, 2000])
def test_elehot_large_star_names_f1_at_the_highest_ids(n):
    star = SimpleGraph.from_edges(n, [(i, n - 1) for i in range(n - 1)])
    with pytest.raises(NotLineMultigraph) as err:
        elehot(star)
    w = err.value.witness
    assert w.name == "F1"
    assert sorted(w.embedding.mapping) == [n - 4, n - 3, n - 2, n - 1]


def test_elehot_padded_g4_gets_a_multigraph7_witness():
    # a 7-vertex non-member holding Beineke's G4, next to a K150: the old
    # size cutoff answered "induced G4", and G4 is a line multigraph
    edges = [(0, 6), (1, 4), (1, 5), (2, 3), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5)]
    edges += list(combinations(range(7, 157), 2))
    g = SimpleGraph.from_edges(157, edges)
    with pytest.raises(NotLineMultigraph) as err:
        elehot(g)
    w = err.value.witness
    assert w.name.startswith("F")
    assert not krausz_oracle(w.pattern)
    assert is_induced_at(g, w.pattern, w.embedding.mapping)


def test_elehot_line_graph_plus_f7_names_f7():
    f7 = load_catalog("multigraph7").entries[-1].graph
    lg = line_graph(random_connected_multigraph(random.Random(7), 60, 147 - f7.n_vertices)).graph
    m = lg.n_vertices
    edges = list(lg.edge_list) + [(m + u, m + v) for u, v in f7.edge_list]
    g = SimpleGraph.from_edges(147, edges)
    with pytest.raises(NotLineMultigraph) as err:
        elehot(g)
    w = err.value.witness
    assert w.name == "F7"
    assert sorted(w.embedding.mapping) == list(range(m, 147))
    assert is_induced_at(g, w.pattern, w.embedding.mapping)


def test_elehot_disconnected_input():
    # K3 plus an isolated vertex plus a P3
    edges = [(0, 1), (0, 2), (1, 2), (4, 5), (5, 6)]
    g = SimpleGraph.from_edges(7, edges)
    result = elehot(g)
    assert verify_root(g, result)


def test_elehot_empty_and_single_vertex():
    empty = SimpleGraph.from_edges(0, [])
    assert verify_root(empty, elehot(empty))
    single = SimpleGraph.from_edges(1, [])
    result = elehot(single)
    assert result.root.n_edges == 1
    assert verify_root(single, result)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_elehot_round_trip_on_random_multigraphs(seed):
    rng = random.Random(seed)
    r = random_multigraph(rng, max_n=9, max_m=16)
    gc = line_graph(r).graph
    result = elehot(gc)
    # verify_root is the whole contract: the root's line graph IS gc.  The
    # root need not equal r (roots are not unique: any multistar's line
    # graph is complete and is explained by one big parallel class).
    assert verify_root(gc, result)
    assert result.root.n_edges == gc.n_vertices


def test_root_multiplicities_match_twin_class_sizes():
    g = line_graph(Multigraph.from_pairs(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (2, 3)])).graph
    result = elehot(g)
    assert sorted(result.root.multiplicity.values()) == [1, 2, 3]
