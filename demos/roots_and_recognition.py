"""
Reconstructing root multigraphs
===============================

A walk from a conflict-style graph back to the multigraph that explains it:
contract true twins, recognize the remainder as a simple line graph, then
re-expand the twin classes as parallel edges.
"""

from linemg import (
    NotLineMultigraph,
    SimpleGraph,
    contract_twins,
    elehot,
    line_graph,
    recognize_line_graph,
    serialize_graph,
    verify_root,
)

# The diamond: K4 minus one edge.  Vertices 0 and 1 are true twins (adjacent,
# same closed neighborhood), which is exactly the footprint parallel edges
# leave in a line graph.
diamond = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])

tp = contract_twins(diamond)
print("twin classes:", tp.classes)
print("contracted graph edges:", tp.h.edge_list)
print("class weights:", tp.weights)

# The contraction is a path on three vertices -- the line graph of P4.  The
# recognizer hands back that P4.
rec = recognize_line_graph(tp.h)
print("simple root:", [e.pair for e in rec.root.edges])

# elehot chains contraction, recognition, and expansion, and re-checks the
# answer before returning it.
result = elehot(diamond)
print("root multigraph:")
print(serialize_graph(result.root))
print("verified:", verify_root(diamond, result))
print("line vertex -> root edge:", result.map.edge_of_vertex)

# The doubled edge is where the twin class went: two parallel links in the
# root interfere with exactly the same links, so their line-graph images are
# twins.  Round-tripping confirms the multiplicity came back.
back = line_graph(result.root)
print("round trip adjacency equal:", back.graph.n_edges == diamond.n_edges)

# Roots are not unique everywhere.  The triangle is the classic ambiguity: it
# is the line graph of the 3-star AND of the triangle itself (K3 = L(K3)).
# The recognizer returns the star.
k3 = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
rec_k3 = recognize_line_graph(k3)
print("\ntriangle root edges (the 3-star):", [e.pair for e in rec_k3.root.edges])

# elehot on the triangle reads its three mutual twins as one contracted
# vertex of weight 3: a triple edge.
print("elehot(K3) root:", [e.pair for e in elehot(k3).root.edges])

# And failure is a certificate, not a shrug: the claw cannot be any line
# graph, and the error carries the forbidden pattern with its embedding.
claw = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
try:
    elehot(claw)
except NotLineMultigraph as err:
    print("\nclaw rejected:", err)
