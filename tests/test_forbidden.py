"""Forbidden-subgraph catalogs, the membership oracles, and the derivation."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemg import (
    SimpleGraph,
    derive_minimal_forbidden,
    elehot,
    enumerate_connected,
    find_clique_cover,
    find_induced,
    is_isomorphic,
    krausz_oracle,
    line_graph,
    load_catalog,
    recognize_line_graph,
    scan,
    true_twin_classes,
)
from linemg.forbidden import CONNECTED_COUNTS, _all_codes, canonical_code, catalog_witness
from linemg.linegraph import NotLineGraph
from linemg.elehot import NotLineMultigraph
from tests.helpers import is_induced_at, permutation_code, random_simple_graph, root_search


CLAW = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])


# ----------------------------------------------------------------- catalogs


def test_catalogs_load_with_expected_shapes():
    b9 = load_catalog("beineke9")
    m7 = load_catalog("multigraph7")
    assert len(b9) == 9 and len(m7) == 7
    assert [e.name for e in b9.entries] == [f"G{i}" for i in range(1, 10)]
    assert [e.name for e in m7.entries] == [f"F{i}" for i in range(1, 8)]
    # both families start with the claw
    assert is_isomorphic(b9.entries[0].graph, CLAW) is not None
    assert is_isomorphic(m7.entries[0].graph, CLAW) is not None


def test_load_catalog_rejects_unknown_name():
    with pytest.raises(ValueError):
        load_catalog("nonexistent")


def test_multigraph7_entries_are_twin_free():
    for entry in load_catalog("multigraph7").entries:
        assert all(len(c) == 1 for c in true_twin_classes(entry.graph))


def test_the_families_overlap_in_exactly_three_graphs():
    b9 = load_catalog("beineke9").entries
    m7 = load_catalog("multigraph7").entries
    shared = sum(
        1
        for f in m7
        if any(is_isomorphic(f.graph, g.graph) is not None for g in b9)
    )
    assert shared == 3  # F1=G1 (claw), F2=G7, F3=G8


def test_every_multigraph_pattern_contains_a_simple_pattern():
    # not being a line multigraph implies not being a simple line graph,
    # so each F entry must exhibit some G entry induced
    b9 = load_catalog("beineke9")
    for entry in load_catalog("multigraph7").entries:
        assert scan(entry.graph, b9), entry.name


def test_scan_reports_deterministic_embeddings():
    host = SimpleGraph.from_edges(6, [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)])
    hits = scan(host, load_catalog("beineke9"))
    assert [name for name, _ in hits] == ["G1"]
    assert hits[0][1].mapping == (0, 1, 2, 3)
    assert scan(SimpleGraph.from_edges(3, [(0, 1), (1, 2)]), load_catalog("beineke9")) == []


# ------------------------------------------------------------------ oracles


def test_clique_cover_on_small_members():
    diamond = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cover = find_clique_cover(diamond)
    assert cover is not None
    seen_budget = {}
    edge_set = set(diamond.edge_list)
    covered = set()
    for clique in cover.cliques:
        for v in clique:
            seen_budget[v] = seen_budget.get(v, 0) + 1
        for u, v in combinations(sorted(clique), 2):
            assert (u, v) in edge_set  # cliques are real cliques
            covered.add((u, v))
    assert covered == edge_set
    assert all(count <= 2 for count in seen_budget.values())


def test_clique_cover_fails_on_claw():
    assert find_clique_cover(CLAW) is None
    assert not krausz_oracle(CLAW)


def test_krausz_oracle_accepts_cover_only_members():
    # C7 squared-ish cases aside, the simplest cover-vs-partition split is K3:
    # partition {0,1,2} works, but so does a two-cliques cover; both accepted
    k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert krausz_oracle(k3)


def test_dual_route_oracles_agree_on_all_tiny_graphs():
    # krausz backtracking versus exhaustive root search, fully independent
    for n in range(1, 5):
        for g in enumerate_connected(n):
            assert krausz_oracle(g) == (root_search(g) is not None), g.edge_list


def test_dual_route_oracles_agree_on_five_vertex_samples():
    graphs = enumerate_connected(5)
    rng = random.Random(5)
    for g in rng.sample(graphs, 8):
        assert krausz_oracle(g) == (root_search(g) is not None), g.edge_list


# -------------------------------------------------------------- enumeration


def test_connected_counts_match_reference_sequence():
    for n in range(1, 7):
        assert len(enumerate_connected(n)) == sum(CONNECTED_COUNTS[:n])


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_connected(8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_canonical_code_is_permutation_invariant(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    g = random_simple_graph(rng, n, rng.random())
    perm = list(range(n))
    rng.shuffle(perm)
    h = SimpleGraph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edge_list])
    assert canonical_code(g) == canonical_code(h)


def test_canonical_code_separates_non_isomorphic():
    c6 = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_k3 = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert canonical_code(c6) != canonical_code(two_k3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_canonical_code_is_the_smallest_code_over_all_vertex_orders(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    g = random_simple_graph(rng, n, rng.random())
    assert canonical_code(g) == (n, permutation_code(g))


def test_graph_counts_match_reference_sequence():
    # every graph on 1..7 vertices up to isomorphism, connected or not
    assert tuple(len(_all_codes(n)) for n in range(1, 8)) == (1, 2, 4, 11, 34, 156, 1044)


# --------------------------------------------------------------- derivation


def test_derive_up_to_four_vertices_is_exactly_the_claw():
    catalog = derive_minimal_forbidden(4)
    assert catalog.provenance == "derived"
    assert len(catalog) == 1
    assert is_isomorphic(catalog.entries[0].graph, CLAW) is not None


def test_derive_rejects_out_of_range():
    with pytest.raises(ValueError):
        derive_minimal_forbidden(8)
    with pytest.raises(ValueError):
        derive_minimal_forbidden(0)


def test_derived_five_vertex_family_is_minimal():
    # each entry fails the oracle while every single-vertex deletion passes
    for entry in derive_minimal_forbidden(5).entries:
        g = entry.graph
        assert not krausz_oracle(g)
        for v in range(g.n_vertices):
            rest = [u for u in range(g.n_vertices) if u != v]
            assert krausz_oracle(g.induced(rest)[0])


# ------------------------------------------------ three-way membership check


def test_membership_routes_agree_on_line_graphs_and_patterns():
    m7 = load_catalog("multigraph7")

    def routes(g: SimpleGraph) -> tuple[bool, bool, bool]:
        try:
            elehot(g)
            ok = True
        except NotLineMultigraph:
            ok = False
        return ok, krausz_oracle(g) if g.n_vertices <= 12 else ok, not scan(g, m7)

    # positives: line graphs of a few multigraphs
    from linemg import Multigraph

    for pairs, n in [
        ([(0, 1), (0, 1), (1, 2)], 3),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),
        ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4),
    ]:
        g = line_graph(Multigraph.from_pairs(n, pairs)).graph
        assert routes(g) == (True, True, True)

    # negatives: every forbidden pattern itself
    for entry in m7.entries:
        assert routes(entry.graph) == (False, False, False)


def test_beineke_scan_matches_simple_recognition_on_patterns():
    b9 = load_catalog("beineke9")
    for entry in b9.entries:
        with pytest.raises(NotLineGraph):
            recognize_line_graph(entry.graph)
        assert scan(entry.graph, b9)


@pytest.mark.parametrize("name", ["beineke9", "multigraph7"])
def test_witnesses_agree_with_the_catalog_scan_on_small_graphs(name):
    # every rejection among the connected graphs on up to 7 vertices names a
    # catalog entry that is induced in the input and that a full scan finds
    catalog = load_catalog(name)
    patterns = {e.name: e.graph for e in catalog.entries}
    decide = recognize_line_graph if name == "beineke9" else elehot
    rejections = 0
    for g in enumerate_connected(7):
        try:
            decide(g)
            continue
        except (NotLineGraph, NotLineMultigraph) as err:
            w = err.witness
        rejections += 1
        assert w.pattern is patterns[w.name]
        assert is_induced_at(g, w.pattern, w.embedding.mapping)
        assert w.name in {hit for hit, _ in scan(g, catalog)}
    assert rejections == {"beineke9": 866, "multigraph7": 774}[name]


def test_catalog_witness_refuses_an_accepted_graph():
    k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError):
        catalog_witness(k3, "beineke9")
