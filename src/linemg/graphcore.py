"""Core graph types and primitives.

Two graph representations are used throughout the package:

* :class:`Multigraph` - a loop-free multigraph given as a vertex count plus an
  ordered list of edges.  Edge ids are dense (0..m-1) and stable, parallel
  edges are simply repeated endpoint pairs, and every edge carries a
  non-negative weight, an ``int`` or a ``Fraction`` (default the int 1).
* :class:`SimpleGraph` - an immutable simple graph stored as per-vertex
  neighbor sets.

On top of these the module provides the text edge-list format (parse and
serialize), exhaustive isomorphism and induced-subgraph search (intended for
small graphs, where they double as test oracles), true-twin detection, unit
disk graphs, and connected components.

Weights pass through unchanged: ints stay ints, and a ``Fraction`` appears
only where the input is fractional (an edge-list weight column).  Nothing in
this module touches floating point except geometric_graph's distance test.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence


class GraphFormatError(ValueError):
    """Malformed edge-list input. Carries the offending line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class Edge(NamedTuple):
    """One multigraph edge. Endpoints are normalized so that u < v."""

    id: int
    u: int
    v: int
    weight: int | Fraction

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


def _as_weight(value) -> int | Fraction:
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"weight {value!r} is not an int or a Fraction")
    if value < 0:
        raise ValueError(f"negative weight {value!r}")
    return value


@dataclass(frozen=True)
class Multigraph:
    """Loop-free multigraph: a vertex count and an ordered tuple of edges.

    Vertices are 0..n_vertices-1.  Edge ids always equal the edge's position
    in ``edges``.  Instances are immutable; derived adjacency structures are
    cached on first use.
    """

    n_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("vertex count must be >= 0")
        for k, e in enumerate(self.edges):
            if e.id != k:
                raise ValueError(f"edge id {e.id} at position {k}")
            if e.u == e.v:
                raise ValueError(f"loop at vertex {e.u} (edge {k})")
            if not (0 <= e.u < self.n_vertices and 0 <= e.v < self.n_vertices):
                raise ValueError(f"edge {k} endpoint out of range")
            if e.u > e.v:
                raise ValueError(f"edge {k} endpoints not normalized")

    @staticmethod
    def from_pairs(
        n_vertices: int,
        pairs: Iterable[tuple[int, int]],
        weights: Iterable | None = None,
    ) -> "Multigraph":
        """Build a multigraph from endpoint pairs, assigning ids in order.

        Endpoints are normalized to (min, max); loops are rejected.  When
        ``weights`` is omitted every edge gets weight 1.  Weights must be
        non-negative ints or Fractions and are kept as given.
        """
        pair_list = list(pairs)
        if weights is None:
            weight_list = [1] * len(pair_list)
        else:
            weight_list = [_as_weight(w) for w in weights]
            if len(weight_list) != len(pair_list):
                raise ValueError("weights and pairs differ in length")
        edges = []
        for k, (u, v) in enumerate(pair_list):
            if u == v:
                raise ValueError(f"loop at vertex {u} (edge {k})")
            a, b = (u, v) if u < v else (v, u)
            edges.append(Edge(k, a, b, weight_list[k]))
        return Multigraph(n_vertices, tuple(edges))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge ids, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for e in self.edges:
            inc[e.u].append(e.id)
            inc[e.v].append(e.id)
        return tuple(tuple(lst) for lst in inc)

    @cached_property
    def multiplicity(self) -> dict[tuple[int, int], int]:
        """Endpoint pair -> number of parallel edges."""
        mult: dict[tuple[int, int], int] = {}
        for e in self.edges:
            mult[e.pair] = mult.get(e.pair, 0) + 1
        return mult

    def is_simple(self) -> bool:
        return all(c == 1 for c in self.multiplicity.values())

    def to_simple_graph(self) -> "SimpleGraph":
        """View as a SimpleGraph; parallel edges are an error."""
        if not self.is_simple():
            raise ValueError("multigraph has parallel edges")
        return SimpleGraph.from_edges(self.n_vertices, [e.pair for e in self.edges])

    def degree(self, v: int) -> int:
        return len(self.incidence[v])


@dataclass(frozen=True)
class SimpleGraph:
    """Immutable simple graph as a tuple of per-vertex neighbor sets.

    ``adj[v]`` never contains v itself and membership is symmetric.
    """

    adj: tuple[frozenset[int], ...]

    def __post_init__(self):
        n = len(self.adj)
        for v, nbrs in enumerate(self.adj):
            if v in nbrs:
                raise ValueError(f"loop at vertex {v}")
            for u in nbrs:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric adjacency {v}-{u}")

    @staticmethod
    def from_edges(n_vertices: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Build from undirected edge pairs; duplicates collapse, loops are errors."""
        nbrs: list[set[int]] = [set() for _ in range(n_vertices)]
        for u, v in pairs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return SimpleGraph(tuple(frozenset(s) for s in nbrs))

    @property
    def n_vertices(self) -> int:
        return len(self.adj)

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return tuple(
            (u, v) for u in range(self.n_vertices) for v in sorted(self.adj[u]) if u < v
        )

    @property
    def n_edges(self) -> int:
        return len(self.edge_list)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return self.adj[v] | {v}

    def induced(self, vertices: Sequence[int]) -> tuple["SimpleGraph", tuple[int, ...]]:
        """Induced subgraph on ``vertices``, relabeled 0..k-1 in sorted order.

        Returns (subgraph, original_ids) where original_ids[i] is the vertex
        of self that became vertex i of the subgraph.
        """
        order = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(order)}
        adj = tuple(
            frozenset(index[u] for u in self.adj[v] if u in index) for v in order
        )
        return SimpleGraph(adj), order


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern-vertex -> host-vertex; mapping[i] is the image of i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.mapping)) != len(self.mapping):
            raise ValueError("embedding is not injective")


# ---------------------------------------------------------------------------
# Edge-list text format
#
#   # comment
#   v <n>
#   e <u> <v> [weight]
#
# 'v' must be the first non-comment line; parallel edges are repeated 'e'
# lines; weights accept integers, decimal notation, and p/q fractions.
# ---------------------------------------------------------------------------

# Largest vertex count a 'v' line may declare.  Graph views allocate per
# vertex, so a one-line file must not be able to ask for more than this.
MAX_VERTICES = 10**6

# Largest decimal exponent a number in an input file may carry.  Fraction
# accepts "1e999999999" and then spends minutes building 10**999999999.
MAX_EXPONENT = 4300

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)`` with the exponent bounded by MAX_EXPONENT.

    Raises ValueError (or ZeroDivisionError for a zero denominator) on text
    that is not a number or whose exponent is out of range."""
    exponent = _EXPONENT.search(text)
    if exponent is not None and abs(int(exponent.group(1))) > MAX_EXPONENT:
        raise ValueError(f"exponent out of range in {text!r}")
    return Fraction(text)


def parse_graph(text: str) -> Multigraph:
    """Parse an edge-list document into a Multigraph.

    Raises GraphFormatError (with the line number) on malformed lines, vertex
    counts above MAX_VERTICES, endpoints out of range, loops, or negative
    weights.  An edge without a weight column weighs the int 1; a weight
    column is read as a Fraction.
    """
    n: int | None = None
    pairs: list[tuple[int, int]] = []
    weights: list[int | Fraction] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "v":
            if n is not None:
                raise GraphFormatError("duplicate vertex-count line", line_no)
            if len(fields) != 2:
                raise GraphFormatError("expected 'v <n>'", line_no)
            try:
                n = int(fields[1])
            except ValueError:
                raise GraphFormatError(f"bad vertex count {fields[1]!r}", line_no)
            if n < 0:
                raise GraphFormatError("vertex count must be >= 0", line_no)
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"vertex count {n} is over the limit {MAX_VERTICES}", line_no
                )
        elif tag == "e":
            if n is None:
                raise GraphFormatError("edge line before the vertex-count line", line_no)
            if len(fields) not in (3, 4):
                raise GraphFormatError("expected 'e <u> <v> [weight]'", line_no)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError("endpoints must be integers", line_no)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"endpoint out of range in ({u},{v})", line_no)
            if u == v:
                raise GraphFormatError(f"loop at vertex {u}", line_no)
            w: int | Fraction = 1
            if len(fields) == 4:
                try:
                    w = parse_fraction(fields[3])
                except (ValueError, ZeroDivisionError):
                    raise GraphFormatError(f"bad weight {fields[3]!r}", line_no)
                if w < 0:
                    raise GraphFormatError("negative weight", line_no)
            pairs.append((u, v))
            weights.append(w)
        else:
            raise GraphFormatError(f"unknown record {tag!r}", line_no)
    if n is None:
        raise GraphFormatError("missing vertex-count line 'v <n>'")
    return Multigraph.from_pairs(n, pairs, weights)


def serialize_graph(g: Multigraph) -> str:
    """Serialize to the edge-list format. parse_graph(serialize_graph(g)) == g."""
    lines = [f"v {g.n_vertices}"]
    for e in g.edges:
        if e.weight == 1:
            lines.append(f"e {e.u} {e.v}")
        else:
            lines.append(f"e {e.u} {e.v} {e.weight}")  # "5" or "5/2": both parse back
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exhaustive search primitives (small graphs; these double as oracles)
# ---------------------------------------------------------------------------


def _first_embedding(
    pattern: SimpleGraph, host: SimpleGraph, candidates: list[list[int]]
) -> Embedding | None:
    """Lexicographically first induced embedding of ``pattern`` in ``host``
    that sends pattern vertex k into ``candidates[k]`` (ascending), or None."""
    mapping: list[int] = []
    used = [False] * host.n_vertices
    if _place(pattern.adj, host.adj, candidates, mapping, used):
        return Embedding(tuple(mapping))
    return None


def _place(pattern_adj, host_adj, candidates, mapping: list[int], used: list[bool]) -> bool:
    """Backtracking step of :func:`_first_embedding`: place pattern vertex
    ``len(mapping)`` and everything after it."""
    k = len(mapping)
    if k == len(candidates):
        return True
    row = pattern_adj[k]
    for u in candidates[k]:
        if used[u]:
            continue
        host_row = host_adj[u]
        for j in range(k):
            if (j in row) != (mapping[j] in host_row):
                break
        else:
            used[u] = True
            mapping.append(u)
            if _place(pattern_adj, host_adj, candidates, mapping, used):
                return True
            mapping.pop()
            used[u] = False
    return False


def is_isomorphic(g1: SimpleGraph, g2: SimpleGraph) -> Embedding | None:
    """Exhaustive isomorphism test with degree pruning.

    Returns a vertex bijection g1 -> g2 as an Embedding, or None.  Intended
    for n <= 10; correctness does not depend on the bound, only speed.
    """
    n = g1.n_vertices
    if n != g2.n_vertices or g1.n_edges != g2.n_edges:
        return None
    deg1 = [g1.degree(v) for v in range(n)]
    deg2 = [g2.degree(v) for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return None
    candidates = [[u for u in range(n) if deg2[u] == deg1[v]] for v in range(n)]
    return _first_embedding(g1, g2, candidates)


def find_induced(host: SimpleGraph, pattern: SimpleGraph) -> Embedding | None:
    """First induced embedding of ``pattern`` in ``host``, or None.

    "First" means lexicographically smallest tuple (image of pattern vertex 0,
    image of 1, ...), which makes witnesses reproducible.  Pattern sizes up to
    about 8 vertices stay fast.
    """
    if pattern.n_vertices > host.n_vertices:
        return None
    host_deg = [host.degree(u) for u in range(host.n_vertices)]
    candidates = [
        [u for u, d in enumerate(host_deg) if d >= pattern.degree(k)]
        for k in range(pattern.n_vertices)
    ]
    return _first_embedding(pattern, host, candidates)


# ---------------------------------------------------------------------------
# Twins, components, unit disk graphs
# ---------------------------------------------------------------------------


def true_twin_classes(g: SimpleGraph) -> list[list[int]]:
    """Partition vertices into true-twin classes.

    Two vertices are true twins when their closed neighborhoods coincide,
    which forces them to be adjacent; every class therefore induces a clique.
    Classes are sorted by smallest member, members ascending.  Singletons are
    included, so this is always a partition of the vertex set.
    """
    groups: dict[frozenset[int], list[int]] = {}
    for v in range(g.n_vertices):
        groups.setdefault(g.closed_neighborhood(v), []).append(v)
    classes = [sorted(members) for members in groups.values()]
    classes.sort(key=lambda c: c[0])
    return classes


def connected_components(g: SimpleGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    seen = [False] * g.n_vertices
    comps: list[list[int]] = []
    for s in range(g.n_vertices):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def geometric_graph(points: Sequence[tuple[float, float]], radius: float) -> SimpleGraph:
    """Unit disk graph: vertices at ``points``, edges between pairs at distance <= radius.

    Duplicate coordinates are rejected (they would sit at distance 0 and defeat
    the interference model this feeds).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if points[i] == points[j]:
                raise ValueError(f"duplicate coordinates for vertices {i} and {j}")
    r2 = radius * radius
    pairs = []
    for i in range(n):
        xi, yi = points[i]
        for j in range(i + 1, n):
            xj, yj = points[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                pairs.append((i, j))
    return SimpleGraph.from_edges(n, pairs)
