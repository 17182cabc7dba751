"""Line graphs, graph powers, conflict graphs, and line graph recognition.

The line graph of a multigraph has one vertex per edge, with two vertices
adjacent exactly when their edges share an endpoint (parallel edges share
both, so each parallel class becomes a clique).  A conflict graph under an
M-hop interference model is the M-th power of the line graph.

``recognize_line_graph`` answers the inverse question for simple roots: given
a simple graph h, rebuild a simple graph whose line graph is h, or raise
:class:`NotLineGraph`, whose witness is a Beineke graph induced in h.  The
implementation grows Krausz cells (cliques partitioning the edge set with
every vertex in at most two cells), which is the structure line graphs are
characterized by, and then verifies the candidate root by recomputing its
line graph, so success is self-certifying.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .graphcore import (
    Embedding,
    Multigraph,
    SimpleGraph,
    bfs_distances,
    connected_components,
)


@dataclass(frozen=True)
class VertexEdgeMap:
    """Bijection between line-graph vertices and root-graph edge ids."""

    edge_of_vertex: tuple[int, ...]
    vertex_of_edge: tuple[int, ...]

    def __post_init__(self):
        n = len(self.edge_of_vertex)
        if len(self.vertex_of_edge) != n:
            raise ValueError("map sides differ in size")
        for v, e in enumerate(self.edge_of_vertex):
            if not (0 <= e < n) or self.vertex_of_edge[e] != v:
                raise ValueError("map is not a bijection")

    @staticmethod
    def identity(n: int) -> "VertexEdgeMap":
        ids = tuple(range(n))
        return VertexEdgeMap(ids, ids)

    @staticmethod
    def from_edge_of_vertex(edge_of_vertex: tuple[int, ...]) -> "VertexEdgeMap":
        n = len(edge_of_vertex)
        inverse = [-1] * n
        for v, e in enumerate(edge_of_vertex):
            if not (0 <= e < n) or inverse[e] != -1:
                raise ValueError("map is not a bijection")
            inverse[e] = v
        return VertexEdgeMap(tuple(edge_of_vertex), tuple(inverse))

    def __len__(self) -> int:
        return len(self.edge_of_vertex)


@dataclass(frozen=True)
class LineGraphResult:
    """A line (or conflict) graph plus the edge-to-vertex correspondence."""

    graph: SimpleGraph
    map: VertexEdgeMap


@dataclass(frozen=True)
class ForbiddenWitness:
    """An induced forbidden subgraph: catalog name, pattern, and embedding."""

    name: str
    pattern: SimpleGraph
    embedding: Embedding

    def __str__(self) -> str:
        hosts = " ".join(str(v) for v in self.embedding.mapping)
        return f"forbidden induced subgraph {self.name} on vertices {hosts}"


class _Rejected(Exception):
    """A "no" answer about ``graph``.  The witness, an entry of ``catalog``
    induced in ``graph``, is computed on first access only, so callers that
    just need the decision pay nothing for it."""

    catalog: str

    def __init__(self, graph: SimpleGraph):
        super().__init__(graph)
        self.graph = graph

    @cached_property
    def witness(self) -> ForbiddenWitness:
        from .forbidden import catalog_witness  # forbidden imports this module

        return catalog_witness(self.graph, self.catalog)

    def __str__(self) -> str:
        return str(self.witness)


class NotLineGraph(_Rejected):
    """The input is not the line graph of any simple graph; the witness is a
    ``beineke9`` entry."""

    catalog = "beineke9"


# ---------------------------------------------------------------------------
# Forward constructions
# ---------------------------------------------------------------------------


def line_graph(g: Multigraph) -> LineGraphResult:
    """Line graph of ``g``; vertex i of the result corresponds to edge i of g."""
    m = g.n_edges
    nbrs: list[set[int]] = [set() for _ in range(m)]
    for inc in g.incidence:
        for a, b in combinations(inc, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
    graph = SimpleGraph(tuple(frozenset(s) for s in nbrs))
    return LineGraphResult(graph, VertexEdgeMap.identity(m))


def graph_power(g: SimpleGraph, t: int) -> SimpleGraph:
    """The t-th power: u ~ v when 1 <= d(u, v) <= t.  t must be >= 1."""
    if t < 1:
        raise ValueError("power must be >= 1")
    if t == 1:
        return g
    nbrs: list[set[int]] = [set() for _ in range(g.n_vertices)]
    for v in range(g.n_vertices):
        dist = bfs_distances(g, v)
        for u in range(g.n_vertices):
            if u != v and dist[u] <= t:
                nbrs[v].add(u)
    return SimpleGraph(tuple(frozenset(s) for s in nbrs))


def conflict_graph(network: Multigraph, hops: int) -> LineGraphResult:
    """Conflict graph of a network under M-hop interference: the M-th power
    of the line graph.  Vertex i still corresponds to link (edge) i."""
    if hops < 1:
        raise ValueError("hops must be >= 1")
    lg = line_graph(network)
    return LineGraphResult(graph_power(lg.graph, hops), lg.map)


# ---------------------------------------------------------------------------
# Recognition (simple roots)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentAlternative:
    """Other valid roots for one connected component.

    ``vertices`` lists the component's vertices in the recognized graph;
    ``roots`` are (root, map) pairs over the component relabeled 0..k-1 in
    sorted order, primary candidate first.  Only triangle components ever
    populate this (a K3 is the line graph of both K1,3 and K3).
    """

    vertices: tuple[int, ...]
    roots: tuple[tuple[Multigraph, VertexEdgeMap], ...]


@dataclass(frozen=True)
class RecognitionResult:
    root: Multigraph
    map: VertexEdgeMap
    alternatives: tuple[ComponentAlternative, ...] = ()


class _CellFailure(Exception):
    """Internal: cell growth hit a contradiction."""


def _triangles_on_edge(g: SimpleGraph, u: int, v: int) -> list[int]:
    return sorted(g.adj[u] & g.adj[v])


def _odd_triangle(g: SimpleGraph, tri: tuple[int, int, int]) -> bool:
    """A triangle is odd when some outside vertex is adjacent to an odd
    number of its three vertices."""
    tset = set(tri)
    counts: dict[int, int] = {}
    for t in tri:
        for w in g.adj[t]:
            if w not in tset:
                counts[w] = counts.get(w, 0) + 1
    return any(c % 2 == 1 for c in counts.values())


def _starting_cell(g: SimpleGraph, edge: tuple[int, int], depth: int = 0) -> tuple[int, ...]:
    """Choose the first Krausz cell, anchored at ``edge``.

    An edge in no triangle is its own cell.  An edge in one triangle whose
    other two edges also lie in a single triangle, takes the triangle as cell;
    otherwise the analysis restarts from the ambiguous side (at most once,
    since that side lies in >= 2 triangles).  For an edge in >= 2 triangles
    the odd triangles decide: their union must be a clique, which becomes the
    cell.
    """
    a, b = edge
    tri_vertices = _triangles_on_edge(g, a, b)
    r = len(tri_vertices)
    if r == 0:
        return (a, b)
    if r == 1:
        c = tri_vertices[0]
        if len(_triangles_on_edge(g, a, c)) != 1:
            if depth >= 2:  # cannot happen: the next edge sits in >= 2 triangles
                raise _CellFailure("cell selection did not settle")
            return _starting_cell(g, (a, c), depth + 1)
        if len(_triangles_on_edge(g, b, c)) != 1:
            if depth >= 2:
                raise _CellFailure("cell selection did not settle")
            return _starting_cell(g, (b, c), depth + 1)
        return (a, b, c)
    odd = [c for c in tri_vertices if _odd_triangle(g, (a, b, c))]
    s = len(odd)
    if r == 2 and s == 0:
        return (a, b, tri_vertices[0])
    if s in (r - 1, r):
        cell = sorted({a, b, *odd})
        for x, y in combinations(cell, 2):
            if not g.has_edge(x, y):
                raise _CellFailure("odd triangles around an edge do not span a clique")
        return tuple(cell)
    raise _CellFailure("edge lies in an impossible number of odd triangles")


def _krausz_cells(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Partition the edges of a connected graph (n >= 2) into Krausz cells.

    Raises _CellFailure when the growth hits a contradiction, which proves the
    graph is not a line graph.
    """
    first_edge = g.edge_list[0]
    cells = [_starting_cell(g, first_edge)]
    remaining: list[set[int]] = [set(s) for s in g.adj]
    uncovered = g.n_edges

    def cover(cell: tuple[int, ...]) -> int:
        removed = 0
        for x, y in combinations(cell, 2):
            if y in remaining[x]:
                remaining[x].discard(y)
                remaining[y].discard(x)
                removed += 1
        return removed

    uncovered -= cover(cells[0])
    frontier = list(cells[0])
    while uncovered > 0:
        if not frontier:
            # unreachable for connected inputs; guard against malformed state
            raise _CellFailure("edge partition stalled")
        u = frontier.pop()
        if not remaining[u]:
            continue
        cell = (u, *sorted(remaining[u]))
        for x, y in combinations(cell, 2):
            if x != u and y != u and y not in remaining[x]:
                raise _CellFailure("partition cell is not a clique")
        cells.append(cell)
        uncovered -= cover(cell)
        frontier.extend(cell)
    return cells


def _root_from_cells(g: SimpleGraph, cells: list[tuple[int, ...]]) -> tuple[Multigraph, VertexEdgeMap]:
    """Turn a cell partition into a simple root whose edge i is line vertex i."""
    n = g.n_vertices
    membership: list[list[int]] = [[] for _ in range(n)]
    for idx, cell in enumerate(cells):
        for v in cell:
            membership[v].append(idx)
    for v in range(n):
        if len(membership[v]) > 2:
            raise _CellFailure("vertex belongs to more than two cells")

    next_vertex = len(cells)
    pairs: list[tuple[int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    for v in range(n):
        cells_of_v = membership[v]
        if len(cells_of_v) == 2:
            a, b = cells_of_v
        elif len(cells_of_v) == 1:
            a, b = cells_of_v[0], next_vertex
            next_vertex += 1
        else:  # isolated vertex: a private edge between two fresh endpoints
            a, b = next_vertex, next_vertex + 1
            next_vertex += 2
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            # two line vertices sharing both cells would force parallel edges
            raise _CellFailure(
                "two vertices share the same two cells (a twin pair: no simple root)"
            )
        seen_pairs.add(key)
        pairs.append(key)
    root = Multigraph.from_pairs(next_vertex, pairs)
    return root, VertexEdgeMap.identity(g.n_vertices)


def _is_triangle(g: SimpleGraph) -> bool:
    return g.n_vertices == 3 and g.n_edges == 3


def _component_candidates(local: SimpleGraph) -> list[tuple[Multigraph, VertexEdgeMap]]:
    """Candidate simple roots of a connected graph with local labels.

    Exactly one candidate except for the triangle, which is the line graph of
    both the 3-star and the triangle itself (the star is listed first).  Each
    candidate is verified by recomputing its line graph.
    """
    k = local.n_vertices
    if k == 1:
        return [(Multigraph.from_pairs(2, [(0, 1)]), VertexEdgeMap.identity(1))]
    if _is_triangle(local):
        star = Multigraph.from_pairs(4, [(0, 1), (0, 2), (0, 3)])
        tri = Multigraph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        out = [(star, VertexEdgeMap.identity(3)), (tri, VertexEdgeMap.identity(3))]
    else:
        cells = _krausz_cells(local)
        out = [_root_from_cells(local, cells)]
    for root, _ in out:
        if line_graph(root).graph.adj != local.adj:
            raise _CellFailure("candidate root failed line graph verification")
    return out


def recognize_line_graph(h: SimpleGraph) -> RecognitionResult:
    """Find a simple graph whose line graph is ``h``, or raise NotLineGraph.

    Components are recognized independently and the root is their disjoint
    union; an empty input yields an empty root, an isolated vertex the
    two-vertex path.  The returned map sends line vertex v to root edge id.
    Each component's root is verified by recomputing its line graph, which
    verifies the disjoint union too.  Triangle components additionally report
    their second root through ``alternatives``.
    """
    comps = connected_components(h)
    root_pairs: list[tuple[int, int]] = []
    edge_of_vertex: list[int] = [0] * h.n_vertices
    alternatives: list[ComponentAlternative] = []
    vertex_offset = 0
    edge_counter = 0
    for comp in comps:
        local, original = h.induced(comp)
        try:
            candidates = _component_candidates(local)
        except _CellFailure:
            raise NotLineGraph(h) from None
        root_local, map_local = candidates[0]
        for local_vertex in range(local.n_vertices):
            e_local = map_local.edge_of_vertex[local_vertex]
            edge = root_local.edges[e_local]
            # append in local-vertex order so global edge id tracks edge_counter
            root_pairs.append((edge.u + vertex_offset, edge.v + vertex_offset))
            edge_of_vertex[original[local_vertex]] = edge_counter
            edge_counter += 1
        vertex_offset += root_local.n_vertices
        if len(candidates) > 1:
            alternatives.append(ComponentAlternative(tuple(comp), tuple(candidates)))
    root = Multigraph.from_pairs(vertex_offset, root_pairs)
    vmap = (
        VertexEdgeMap.from_edge_of_vertex(tuple(edge_of_vertex))
        if h.n_vertices
        else VertexEdgeMap.identity(0)
    )
    return RecognitionResult(root, vmap, tuple(alternatives))

