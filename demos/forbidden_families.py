"""
Two forbidden families, one derivation
======================================

Line graphs of simple graphs are characterized by nine forbidden induced
subgraphs; line graphs of multigraphs by seven.  Both families ship as data,
and the seven-member family can be re-derived from scratch by exhaustive
search.
"""

from linemg import (
    NotLineMultigraph,
    SimpleGraph,
    derive_minimal_forbidden,
    elehot,
    enumerate_connected,
    find_clique_cover,
    is_isomorphic,
    krausz_oracle,
    load_catalog,
)

beineke = load_catalog("beineke9")
family7 = load_catalog("multigraph7")

print("simple-graph family:   ", ", ".join(e.name for e in beineke.entries))
print("multigraph family:     ", ", ".join(e.name for e in family7.entries))

# The families overlap exactly where a Beineke graph is itself not a line
# multigraph: the claw and two six-vertex graphs.
overlap = [
    (f.name, g.name)
    for f in family7.entries
    for g in beineke.entries
    if is_isomorphic(f.graph, g.graph) is not None
]
print("shared members:", overlap)

# The recognizer's "no" carries its proof: a family member induced in the
# host, with an embedding (vertex i of the member sits at mapping[i]).  A
# net-shaped host: claw at the hub.
host = SimpleGraph.from_edges(7, [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)])
try:
    elehot(host)
except NotLineMultigraph as no:
    print(f"host contains {no.witness.name} at vertices {no.witness.embedding.mapping}")

# Membership itself has a second, catalog-free characterization: an edge
# clique cover using every vertex at most twice.  The diamond has one; the
# claw cannot (three independent edges at one hub need three cliques there).
diamond = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
print("\ndiamond cover:", find_clique_cover(diamond).cliques)
print("claw cover:", find_clique_cover(SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])))

# The seven-member family is not folklore here: it falls out of a search over
# every connected graph with at most `n` vertices.  Up to five vertices the
# claw is the only minimal obstruction; the other six members need six or
# seven vertices.
for n in (4, 5, 6, 7):
    derived = derive_minimal_forbidden(n)
    sizes = [entry.graph.n_vertices for entry in derived.entries]
    print(f"minimal obstructions with <= {n} vertices: {len(derived)} {sizes}")

# Cross-check the derivation against the packaged file, entry by entry.
derived = derive_minimal_forbidden(7)
agree = all(
    is_isomorphic(d.graph, p.graph) is not None
    for d, p in zip(derived.entries, family7.entries)
)
print("derived family matches packaged catalog:", agree)

# Sanity scale: how rare is the property?  Among all 143 connected graphs on
# at most six vertices, count the line multigraphs by the oracle.
graphs = enumerate_connected(6)
members = sum(1 for g in graphs if krausz_oracle(g))
print(f"{members} of {len(graphs)} connected graphs (<= 6 vertices) are line multigraphs")
