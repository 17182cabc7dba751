"""The validation raises of the library, each fed the input it guards against."""

import pytest

from linemg import (
    Edge,
    Multigraph,
    SimpleGraph,
    VertexEdgeMap,
    brute_force_mwis,
    contract_twins,
    find_clique_cover,
    greedy_mwis,
    load_catalog,
    parse_graph,
    recognize_line_graph,
)
from linemg import forbidden
from linemg.elehot import expand_root
from linemg.forbidden import Catalog, CatalogEntry, canonical_code, catalog_witness
from linemg.graphcore import GraphFormatError
from linemg.matching import _check_optimum
from linemg.scheduler import read_vector_csv

CLAW = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
K3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
TWO_POINTS = SimpleGraph.from_edges(2, [])


# ------------------------------------------------------------------ graphcore


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, (), "vertex count"),
        (2, (Edge(1, 0, 1, 1),), "edge id 1 at position 0"),
        (2, (Edge(0, 1, 1, 1),), "loop"),
        (2, (Edge(0, 1, 0, 1),), "not normalized"),
    ],
)
def test_multigraph_constructor_rejects(n, edges, message):
    with pytest.raises(ValueError, match=message):
        Multigraph(n, edges)


def test_simple_graph_rejects_out_of_range_vertices():
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph((frozenset({5}),))
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph.from_edges(2, [(0, 5)])


@pytest.mark.parametrize(
    "text, message",
    [("v 3 4\n", "expected 'v <n>'"), ("v 3\ne a 1\n", "endpoints must be integers")],
)
def test_parse_graph_rejects_bad_fields(text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse_graph(text)


# ------------------------------------------------------ linegraph and elehot


def test_vertex_edge_map_must_be_a_bijection():
    with pytest.raises(ValueError, match="differ in size"):
        VertexEdgeMap((0, 1), (0,))
    with pytest.raises(ValueError, match="not a bijection"):
        VertexEdgeMap((0, 0), (0, 1))


def test_expand_root_rejects_a_map_of_another_size():
    recognition = recognize_line_graph(K3)
    with pytest.raises(ValueError, match="does not match"):
        expand_root(recognition.root, recognition.map, contract_twins(K3))


# ------------------------------------------------------------------ forbidden


def test_catalog_text_needs_a_header_and_a_name():
    with pytest.raises(ValueError, match="before the first entry header"):
        forbidden._parse_catalog_text("x", "v 1\n# name: A\nv 1\n")
    with pytest.raises(ValueError, match="empty entry name"):
        forbidden._parse_catalog_text("x", "# name:\nv 1\n")


def corrupt(entries, i, graph=None, name=None):
    e = entries[i]
    changed = CatalogEntry(name or e.name, graph or e.graph)
    return entries[:i] + (changed,) + entries[i + 1 :]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda es: es[:-1], "expected 7 entries, found 6"),
        (lambda es: corrupt(es, 1, name="F1"), "duplicate entry names"),
        (lambda es: corrupt(es, 1, graph=TWO_POINTS), "not connected"),
        (lambda es: corrupt(es, 1, graph=es[0].graph), "isomorphic"),
        (lambda es: corrupt(es, 1, graph=K3), "true twins"),
    ],
)
def test_load_catalog_validates_the_file(monkeypatch, damage, message):
    parse = forbidden._parse_catalog_text
    monkeypatch.setattr(forbidden, "_parse_catalog_text", lambda *a: damage(parse(*a)))
    with pytest.raises(ValueError, match=message):
        load_catalog.__wrapped__("multigraph7")


def test_catalog_witness_flags_a_catalog_without_the_minimal_graph(monkeypatch):
    full = load_catalog("multigraph7")
    without_claw = Catalog(full.name, full.provenance, full.entries[1:])
    monkeypatch.setattr(forbidden, "load_catalog", lambda name: without_claw)
    with pytest.raises(AssertionError, match="is not in multigraph7"):
        catalog_witness(CLAW, "multigraph7")


def test_exhaustive_oracles_refuse_large_graphs():
    with pytest.raises(ValueError, match="at most 12 vertices"):
        find_clique_cover(SimpleGraph.from_edges(13, []))
    with pytest.raises(ValueError, match="at most 7 vertices"):
        canonical_code(SimpleGraph.from_edges(8, []))


# ------------------------------------------------------ matching, scheduler


def test_certificate_check_rejects_a_negative_dual_and_a_slack_matched_edge():
    # path 0 - 1 - 2, weights 1 and 2, with 1 and 2 matched along edge 1
    end, w, mate = [0, 1, 1, 2], [1, 2], [-1, 3, 2]
    with pytest.raises(AssertionError, match="negative dual"):
        _check_optimum(end, w, mate, [-1, 2, 2, 0, 0, 0], [-1] * 6, {})
    with pytest.raises(AssertionError, match="matched edge 1 has positive slack"):
        _check_optimum(end, w, mate, [0, 2, 4, 0, 0, 0], [-1] * 6, {})


def test_independent_set_weights_default_to_ones_and_must_fit():
    assert brute_force_mwis(CLAW) == ((0, 1, 2), 3)
    assert greedy_mwis(CLAW) == ((0, 1, 2), 3)
    with pytest.raises(ValueError, match="length mismatch"):
        greedy_mwis(CLAW, [1])


def test_vector_csv_skips_blank_rows():
    assert read_vector_csv("link_id,value\n0,1\n\n  \n1,2\n") == {0: 1, 1: 2}
