"""Line graphs, graph powers, conflict graphs, and line graph recognition.

The line graph of a multigraph has one vertex per edge, with two vertices
adjacent exactly when their edges share an endpoint (parallel edges share
both, so each parallel class becomes a clique).  A conflict graph under an
M-hop interference model is the M-th power of the line graph.

``recognize_line_graph`` answers the inverse question for simple roots: given
a simple graph h, rebuild a simple graph whose line graph is h, or raise
:class:`NotLineGraph`, whose witness is a Beineke graph induced in h.  It grows
Krausz cells (cliques partitioning the edge set with every vertex in at most
two cells), the structure line graphs are characterized by, in one pass over
the whole graph, component after component.  The cells become the root's
vertices and line vertex v becomes root edge v.  One recomputation of the
root's line graph, compared with h, certifies the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .graphcore import Embedding, Multigraph, SimpleGraph


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
    adj = g.adj
    nbrs: list[frozenset[int]] = []
    for v in range(g.n_vertices):
        # breadth-first search from v, stopped after t levels
        seen = {v}
        frontier = [v]
        for _ in range(t):
            reached = []
            for x in frontier:
                for u in adj[x]:
                    if u not in seen:
                        seen.add(u)
                        reached.append(u)
            if not reached:
                break
            frontier = reached
        seen.discard(v)
        nbrs.append(frozenset(seen))
    return SimpleGraph(tuple(nbrs))


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
class RootResult:
    """A reconstructed root multigraph plus the vertex<->edge correspondence.

    Both producers, ``recognize_line_graph`` and ``elehot``, return the
    identity map: root edge v is line vertex v.
    """

    root: Multigraph
    map: VertexEdgeMap


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


def _starting_cell(g: SimpleGraph, edge: tuple[int, int]) -> tuple[int, ...]:
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
            return _starting_cell(g, (a, c))
        if len(_triangles_on_edge(g, b, c)) != 1:
            return _starting_cell(g, (b, c))
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
    """Partition the edges of ``g`` into Krausz cells, one component at a time.

    A component is started at its smallest vertex s, with the first cell
    anchored at the edge (s, min(adj[s])), and grown until its frontier is
    empty, which covers all of its edges.  Isolated vertices get no cell.
    Raises _CellFailure when the growth hits a contradiction, which proves
    the graph is not a line graph.
    """
    remaining: list[set[int]] = [set(s) for s in g.adj]
    cells: list[tuple[int, ...]] = []
    for s in range(g.n_vertices):
        if not remaining[s]:
            continue
        cell = _starting_cell(g, (s, min(g.adj[s])))
        frontier: list[int] = []
        while cell:
            cells.append(cell)
            for x, y in combinations(cell, 2):
                remaining[x].discard(y)
                remaining[y].discard(x)
            frontier.extend(cell)
            cell = _next_cell(frontier, remaining)
    return cells


def _next_cell(frontier: list[int], remaining: list[set[int]]) -> tuple[int, ...]:
    """Pop the frontier down to a vertex u with uncovered edges; its cell is u
    plus all of them, which must be a clique.  Empty when the frontier is."""
    while frontier:
        u = frontier.pop()
        if remaining[u]:
            cell = (u, *sorted(remaining[u]))
            for x, y in combinations(cell[1:], 2):
                if y not in remaining[x]:
                    raise _CellFailure("partition cell is not a clique")
            return cell
    return ()


def _root_from_cells(g: SimpleGraph, cells: list[tuple[int, ...]]) -> Multigraph:
    """Turn a cell partition into a simple root whose edge i is line vertex i."""
    n = g.n_vertices
    membership: list[list[int]] = [[] for _ in range(n)]
    for idx, cell in enumerate(cells):
        for v in cell:
            membership[v].append(idx)
    for v in range(n):
        if len(membership[v]) > 2:
            raise _CellFailure("vertex belongs to more than two cells")

    # cells are edge-disjoint, so two line vertices share at most one cell and
    # the root has no parallel edges
    next_vertex = len(cells)
    pairs: list[tuple[int, int]] = []
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
        pairs.append((a, b))
    return Multigraph.from_pairs(next_vertex, pairs)


def recognize_line_graph(h: SimpleGraph) -> RootResult:
    """Find a simple graph whose line graph is ``h``, or raise NotLineGraph.

    One pass over the whole graph: Krausz cells are grown component by
    component, each cell becomes a root vertex, and line vertex v becomes root
    edge v (the map is the identity).  An isolated vertex gets a private edge,
    and an empty input an empty root.  A triangle yields the 3-star, although
    it is also the line graph of itself.  The root is certified by
    recomputing its line graph once and comparing it with ``h``.
    """
    try:
        root = _root_from_cells(h, _krausz_cells(h))
    except _CellFailure:
        raise NotLineGraph(h) from None
    if line_graph(root).graph.adj != h.adj:
        raise NotLineGraph(h)
    return RootResult(root, VertexEdgeMap.identity(h.n_vertices))
