"""Root reconstruction for line graphs of multigraphs.

A graph is the line graph of a multigraph exactly when, after contracting
every true-twin class to a single weighted vertex, what remains is the line
graph of a simple graph.  The pipeline here does precisely that:

1. ``contract_twins`` collapses each class of vertices with identical closed
   neighborhoods into one vertex weighted by the class size.  The result is
   twin-free, and contracting again is the identity.
2. The twin-free graph is handed to :func:`linemg.linegraph.recognize_line_graph`,
   which either produces a simple root or a witness.
3. ``expand_root`` gives every input vertex a copy of its class's root edge,
   i.e. parallel edges reappear with the multiplicities the twin classes
   encoded.  Root edge v is input vertex v, as everywhere in the package.

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
    """Undo the contraction on the root side: input vertex v gets root edge
    v, a copy of the edge of v's class.  Each class's edge is thereby
    replicated by the class weight, and the map is the identity.
    """
    if len(map_h) != tp.h.n_vertices:
        raise ValueError("map does not match the contracted graph")
    pairs = [h_root.edges[map_h.edge_of_vertex[c]].pair for c in tp.class_map]
    root = Multigraph.from_pairs(h_root.n_vertices, pairs)
    return RootResult(root, VertexEdgeMap.identity(len(pairs)))


def verify_root(gc: SimpleGraph, result: RootResult) -> bool:
    """Exact check that ``result`` explains ``gc``: the map must be the
    identity and the root's line graph must equal ``gc`` edge for edge.
    Isomorphism is not enough here; the map has to be the certificate."""
    if result.map != VertexEdgeMap.identity(gc.n_vertices):
        return False
    return line_graph(result.root).graph.adj == gc.adj


def elehot(gc: SimpleGraph) -> RootResult:
    """Reconstruct a multigraph whose line graph is ``gc``.

    Contract twins, recognize the contracted graph as a simple line graph,
    then expand multiplicities.  Root edge v explains input vertex v, and the
    result is verified before being returned.
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
