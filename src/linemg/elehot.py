"""Root reconstruction for line graphs of multigraphs.

A graph is the line graph of a multigraph exactly when, after contracting
every true-twin class to a single weighted vertex, what remains is the line
graph of a simple graph.  The pipeline here does precisely that:

1. ``contract_twins`` collapses each class of vertices with identical closed
   neighborhoods into one vertex weighted by the class size.  The result is
   twin-free, and contracting again is the identity.
2. The twin-free graph is handed to :func:`linemg.linegraph.recognize_line_graph`,
   which either produces a simple root or a witness.
3. ``expand_root`` replicates each root edge as many times as its line vertex
   weighs, i.e. parallel edges reappear with the multiplicities the twin
   classes encoded.

``elehot`` chains the three steps and never returns an unchecked answer: the
candidate root's line graph is recomputed and compared edge-for-edge against
the input (``verify_root``).  On failure it raises :class:`NotLineMultigraph`,
whose witness is a ``multigraph7`` entry induced in the input graph, computed
only when read.

The package attribute ``linemg.elehot`` is the function, which shadows this
module; ``importlib.import_module("linemg.elehot")`` gives the module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import Multigraph, SimpleGraph, true_twin_classes
from .linegraph import (
    NotLineGraph,
    RootResult,
    VertexEdgeMap,
    _Rejected,
    line_graph,
    recognize_line_graph,
)


class NotLineMultigraph(_Rejected):
    """The input is not the line graph of any multigraph; the witness is a
    ``multigraph7`` entry."""

    catalog = "multigraph7"


@dataclass(frozen=True)
class TwinPartition:
    """Result of contracting true twins.

    ``classes[i]`` lists the input vertices merged into vertex i of ``h``
    (ascending), ``weights[i] == len(classes[i])``, and ``class_map[v]`` is
    the h-vertex that input vertex v went to.
    """

    classes: tuple[tuple[int, ...], ...]
    h: SimpleGraph
    weights: tuple[int, ...]
    class_map: tuple[int, ...]


def contract_twins(gc: SimpleGraph) -> TwinPartition:
    """Collapse every true-twin class of ``gc`` into one weighted vertex.

    Classes are ordered by smallest member, which fixes the vertex ids of the
    contracted graph.  Two classes are adjacent exactly when their members
    are, which is well defined because twins share closed neighborhoods.
    """
    classes = [tuple(c) for c in true_twin_classes(gc)]
    class_map = [0] * gc.n_vertices
    for i, members in enumerate(classes):
        for v in members:
            class_map[v] = i
    k = len(classes)
    nbrs: list[set[int]] = [set() for _ in range(k)]
    for i, members in enumerate(classes):
        rep = members[0]
        for u in gc.adj[rep]:
            j = class_map[u]
            if j != i:
                nbrs[i].add(j)
    h = SimpleGraph(tuple(frozenset(s) for s in nbrs))
    return TwinPartition(
        classes=tuple(classes),
        h=h,
        weights=tuple(len(c) for c in classes),
        class_map=tuple(class_map),
    )


def expand_root(h_root: Multigraph, map_h: VertexEdgeMap, tp: TwinPartition) -> RootResult:
    """Undo the contraction on the root side: replicate each root edge by the
    weight of its line vertex.

    Replica k of h-vertex u's edge is assigned to the k-th smallest member of
    u's class, so the final map is deterministic.  The expanded root has one
    edge per vertex of the original graph.
    """
    if len(map_h) != tp.h.n_vertices:
        raise ValueError("map does not match the contracted graph")
    n_gc = sum(tp.weights)
    pairs: list[tuple[int, int]] = []
    edge_of_vertex = [0] * n_gc
    for u in range(tp.h.n_vertices):
        e = h_root.edges[map_h.edge_of_vertex[u]]
        for member in tp.classes[u]:
            edge_of_vertex[member] = len(pairs)
            pairs.append((e.u, e.v))
    root = Multigraph.from_pairs(h_root.n_vertices, pairs)
    vmap = VertexEdgeMap.from_edge_of_vertex(tuple(edge_of_vertex))
    return RootResult(root, vmap)


def verify_root(gc: SimpleGraph, result: RootResult) -> bool:
    """Exact check that ``result`` explains ``gc``: the root's line graph,
    with edges renamed through the map, must equal ``gc`` edge for edge.
    Isomorphism is not enough here; the map has to be the certificate."""
    root, vmap = result.root, result.map
    if root.n_edges != gc.n_vertices or len(vmap) != gc.n_vertices:
        return False
    lg = line_graph(root).graph
    for e in range(root.n_edges):
        v = vmap.vertex_of_edge[e]
        mapped = frozenset(vmap.vertex_of_edge[f] for f in lg.adj[e])
        if mapped != gc.adj[v]:
            return False
    return True


def elehot(gc: SimpleGraph) -> RootResult:
    """Reconstruct a multigraph whose line graph is ``gc``.

    Contract twins, recognize the contracted graph as a simple line graph,
    then expand multiplicities.  The result is verified before being returned.
    A rejection raises :class:`NotLineMultigraph`, which builds nothing until
    its witness is read.  Roots are not unique in general (a triangle is
    explained by three parallel edges and by a 3-star among others); this
    returns the deterministic choice made by the recognizer.
    """
    tp = contract_twins(gc)
    try:
        recognition = recognize_line_graph(tp.h)
    except NotLineGraph:
        raise NotLineMultigraph(gc) from None
    result = expand_root(recognition.root, recognition.map, tp)
    if not verify_root(gc, result):
        raise AssertionError("internal error: recognized root failed verification")
    return result
