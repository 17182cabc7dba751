"""Forbidden-subgraph catalogs, membership oracles, and their derivation.

Line graphs of simple graphs and of multigraphs are both characterized by
finite families of forbidden induced subgraphs.  This module ships the two
families as data files:

* ``beineke9`` - the nine minimal graphs no line graph of a simple graph may
  contain as an induced subgraph,
* ``multigraph7`` - the seven minimal graphs (all twin-free, starting with
  the claw) that play the same role for line graphs of multigraphs,

and, independently of the data files, can re-derive the second family from
scratch: ``enumerate_connected`` lists every connected graph up to
isomorphism (up to 7 vertices), ``krausz_oracle`` decides line-multigraph
membership by exhaustive search for an edge clique cover using every vertex
at most twice, and ``derive_minimal_forbidden`` combines the two.  The
derived catalog is the ground truth the shipped file is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import combinations

from .elehot import contract_twins
from .graphcore import (
    Embedding,
    SimpleGraph,
    connected_components,
    find_induced,
    is_isomorphic,
    parse_graph,
    true_twin_classes,
)
from .linegraph import ForbiddenWitness, NotLineGraph, recognize_line_graph

_EXPECTED_SIZES = {"beineke9": 9, "multigraph7": 7}

# how many connected graphs exist on 1..7 vertices, up to isomorphism;
# used to sanity-check the enumerator before anything trusts it
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: SimpleGraph


@dataclass(frozen=True)
class Catalog:
    """A named family of forbidden induced subgraphs."""

    name: str
    provenance: str  # "catalog-file" or "derived"
    entries: tuple[CatalogEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CliqueCover:
    """An edge clique cover certifying line-multigraph membership: every edge
    lies in at least one clique and every vertex in at most two."""

    cliques: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Catalog files
# ---------------------------------------------------------------------------


def _parse_catalog_text(catalog_name: str, text: str) -> tuple[CatalogEntry, ...]:
    chunks: list[tuple[str, list[str]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("# name:"):
            chunks.append((line.split(":", 1)[1].strip(), []))
            continue
        if not chunks:
            if not line or line.startswith("#"):
                continue
            raise ValueError(f"{catalog_name}: content before the first entry header")
        chunks[-1][1].append(raw)
    entries = []
    for label, lines in chunks:
        if not label:
            raise ValueError(f"{catalog_name}: empty entry name")
        mg = parse_graph("\n".join(lines))
        entries.append(CatalogEntry(label, mg.to_simple_graph()))
    return tuple(entries)


@lru_cache(maxsize=None)
def load_catalog(name: str) -> Catalog:
    """Load and validate a packaged catalog ("beineke9" or "multigraph7").

    Validation: expected entry count, unique names, connected and pairwise
    non-isomorphic entries; multigraph7 entries must also be twin-free.
    """
    if name not in _EXPECTED_SIZES:
        raise ValueError(f"unknown catalog {name!r}")
    text = resources.files("linemg.data").joinpath(f"{name}.txt").read_text()
    entries = _parse_catalog_text(name, text)
    if len(entries) != _EXPECTED_SIZES[name]:
        raise ValueError(
            f"{name}: expected {_EXPECTED_SIZES[name]} entries, found {len(entries)}"
        )
    labels = [e.name for e in entries]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{name}: duplicate entry names")
    for e in entries:
        if len(connected_components(e.graph)) != 1:
            raise ValueError(f"{name}/{e.name}: entry is not connected")
    for a, b in combinations(entries, 2):
        if is_isomorphic(a.graph, b.graph) is not None:
            raise ValueError(f"{name}: entries {a.name} and {b.name} are isomorphic")
    if name == "multigraph7":
        for e in entries:
            if any(len(c) > 1 for c in true_twin_classes(e.graph)):
                raise ValueError(f"{name}/{e.name}: entry has true twins")
    return Catalog(name, "catalog-file", entries)


def catalog_witness(g: SimpleGraph, name: str) -> ForbiddenWitness:
    """An entry of catalog ``name`` induced in ``g``, which the recognizer of
    that family rejects.

    "beineke9" pairs with :func:`recognize_line_graph` on ``g``, and
    "multigraph7" with the same recognizer on ``g`` twin-contracted.  Within
    the first rejected component, vertices are deleted in chunks of halving
    size, in ascending order, whenever the rest is still rejected.  The final
    pass deletes single vertices, so what is left is a minimal rejected graph
    (membership is hereditary), and the characterization theorem says that
    is a catalog entry.  Failing to match one is an internal error.
    """
    catalog = load_catalog(name)

    def rejected(vertices: list[int]) -> bool:
        sub, _ = g.induced(vertices)
        try:
            recognize_line_graph(contract_twins(sub).h if name == "multigraph7" else sub)
        except NotLineGraph:
            return True
        return False

    keep = next((c for c in connected_components(g) if rejected(c)), None)
    if keep is None:
        raise ValueError("the graph is accepted, so it has no witness")
    chunk = len(keep) // 2
    while chunk:
        i = 0
        while i < len(keep):
            rest = keep[:i] + keep[i + chunk :]
            if rejected(rest):
                keep = rest
            else:
                i += chunk
        chunk //= 2
    remainder, original = g.induced(keep)
    for entry in catalog.entries:
        emb = find_induced(remainder, entry.graph)
        if emb is not None:
            mapping = tuple(original[v] for v in emb.mapping)
            return ForbiddenWitness(entry.name, entry.graph, Embedding(mapping))
    raise AssertionError(f"minimal rejected graph on {keep} is not in {name}")


# ---------------------------------------------------------------------------
# Line-multigraph membership oracle
# ---------------------------------------------------------------------------


def find_clique_cover(g: SimpleGraph) -> CliqueCover | None:
    """Search for an edge clique cover with every vertex in at most two
    cliques.  Exhaustive backtracking over all cliques through the first
    uncovered edge, so it is exact; limited to 12 vertices to stay honest
    about the exponential worst case."""
    n = g.n_vertices
    if n > 12:
        raise ValueError("clique-cover oracle accepts at most 12 vertices")
    edges = g.edge_list
    m = len(edges)
    if m == 0:
        return CliqueCover(())
    edge_index = {pair: i for i, pair in enumerate(edges)}
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    budget = [2] * n
    covered = [False] * m
    chosen: list[tuple[int, ...]] = []

    def cliques_through(u: int, v: int) -> list[tuple[int, ...]]:
        common = sorted(w for w in g.adj[u] & g.adj[v] if budget[w] >= 1)
        found: list[tuple[int, ...]] = []

        def grow(prefix: list[int], candidates: list[int]) -> None:
            found.append(tuple(prefix))
            for idx, w in enumerate(candidates):
                grow(prefix + [w], [x for x in candidates[idx + 1 :] if x in g.adj[w]])

        grow([u, v], common)
        found.sort(key=len, reverse=True)  # big cliques first: covers faster
        return found

    def search() -> bool:
        target = next((i for i in range(m) if not covered[i]), None)
        if target is None:
            return True
        # both ends have budget left: a vertex whose budget ran out had all
        # of its edges covered, or the clique that spent it was not viable
        u, v = edges[target]
        for clique in cliques_through(u, v):
            for w in clique:
                budget[w] -= 1
            newly: list[int] = []
            for x, y in combinations(clique, 2):
                j = edge_index[(x, y) if x < y else (y, x)]
                if not covered[j]:
                    covered[j] = True
                    newly.append(j)
            viable = all(
                budget[w] > 0 or all(covered[i] for i in incident[w]) for w in clique
            )
            if viable:
                chosen.append(clique)
                if search():
                    return True
                chosen.pop()
            for j in newly:
                covered[j] = False
            for w in clique:
                budget[w] += 1
        return False

    if search():
        return CliqueCover(tuple(chosen))
    return None


def krausz_oracle(g: SimpleGraph) -> bool:
    """True when ``g`` is the line graph of some multigraph (cover exists)."""
    return find_clique_cover(g) is not None


# ---------------------------------------------------------------------------
# Exhaustive enumeration up to isomorphism (n <= 7)
# ---------------------------------------------------------------------------
#
# Graphs are packed as bit vectors over vertex pairs in combinations order,
# so row i of the upper adjacency triangle is more significant than every
# later row.  The canonical code of a graph is the smallest packed value over
# all vertex orders, found by ordered partition refinement (after McKay,
# "Practical graph isomorphism", 1981): the vertex at the next position comes
# from the first cell, and it splits every cell into its non-neighbours, then
# its neighbours, which makes its row as small as the cells allow.  Only the
# candidates with the smallest row are followed, and a prefix that already
# exceeds the best code found is dropped.  Graphs with many automorphisms
# still branch on every candidate, hence the 7-vertex limit.


@lru_cache(maxsize=None)
def _pair_order(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


def canonical_code(g: SimpleGraph) -> tuple[int, int]:
    """(n, code) identifying ``g`` up to isomorphism; n must be <= 7."""
    n = g.n_vertices
    if n > 7:
        raise ValueError("canonical codes support at most 7 vertices")
    if n <= 1:
        return (n, 0)
    adj = g.adj
    best = -1

    def place(cells: list[list[int]], code: int) -> None:
        nonlocal best
        if not cells:
            if best < 0 or code < best:
                best = code
            return
        first = cells[0]
        options = []
        for v in first:
            row = code
            split: list[list[int]] = []
            for cell in [[u for u in first if u != v], *cells[1:]]:
                zeros = [u for u in cell if u not in adj[v]]
                ones = [u for u in cell if u in adj[v]]
                row = row << len(cell) | (1 << len(ones)) - 1
                split += [part for part in (zeros, ones) if part]
            options.append((row, split))
        low = min(row for row, _ in options)
        left = sum(map(len, cells)) - 1  # vertices still unplaced after v
        if best >= 0 and low > best >> (left * (left - 1) // 2):
            return
        for row, split in options:
            if row == low:
                place(split, row)

    place([list(range(n))], 0)
    return (n, best)


def _graph_from_code(n: int, code: int) -> SimpleGraph:
    pairs = _pair_order(n)
    k = len(pairs)
    edge_pairs = [pairs[i] for i in range(k) if (code >> (k - 1 - i)) & 1]
    return SimpleGraph.from_edges(n, edge_pairs)


@lru_cache(maxsize=None)
def _all_codes(n: int) -> tuple[int, ...]:
    """Canonical codes of every graph on n unlabeled vertices, by augmenting
    each (n-1)-vertex representative with one new vertex attached in every
    possible way."""
    if n == 1:
        return (0,)
    out: set[int] = set()
    for pcode in _all_codes(n - 1):
        edges = list(_graph_from_code(n - 1, pcode).edge_list)
        for mask in range(1 << (n - 1)):
            attach = [(u, n - 1) for u in range(n - 1) if mask >> u & 1]
            out.add(canonical_code(SimpleGraph.from_edges(n, edges + attach))[1])
    return tuple(sorted(out))


def _is_connected_code(n: int, code: int) -> bool:
    return len(connected_components(_graph_from_code(n, code))) <= 1


@lru_cache(maxsize=None)
def _connected_codes(n: int) -> tuple[int, ...]:
    return tuple(c for c in _all_codes(n) if _is_connected_code(n, c))


def enumerate_connected(max_n: int) -> list[SimpleGraph]:
    """One representative per isomorphism class of connected graphs on
    1..max_n vertices, in (vertex count, canonical code) order.  max_n <= 7."""
    if not 1 <= max_n <= 7:
        raise ValueError("enumeration supports 1..7 vertices")
    out: list[SimpleGraph] = []
    for n in range(1, max_n + 1):
        out.extend(_graph_from_code(n, c) for c in _connected_codes(n))
    return out


# ---------------------------------------------------------------------------
# Deriving the minimal forbidden family
# ---------------------------------------------------------------------------


def derive_minimal_forbidden(max_n: int) -> Catalog:
    """Compute the minimal non-line-multigraphs with at most ``max_n``
    vertices, from first principles: a connected graph belongs to the family
    when the cover oracle rejects it but accepts every single-vertex-deleted
    induced subgraph.  Entries are sorted by (vertex count, edge count,
    canonical code) and named F1, F2, ...; at max_n=4 the family is exactly
    the claw, which therefore is always F1."""
    if not 1 <= max_n <= 7:
        raise ValueError("derivation supports 1..7 vertices")
    memo: dict[tuple[int, int], bool] = {}

    def member(g: SimpleGraph) -> bool:
        key = canonical_code(g)
        if key not in memo:
            memo[key] = krausz_oracle(g)
        return memo[key]

    found: list[SimpleGraph] = []
    for g in enumerate_connected(max_n):
        if member(g):
            continue
        deletions = (
            g.induced([u for u in range(g.n_vertices) if u != v])[0]
            for v in range(g.n_vertices)
        )
        if all(member(sub) for sub in deletions):
            found.append(g)
    found.sort(key=lambda g: (g.n_vertices, g.n_edges, canonical_code(g)[1]))
    entries = tuple(
        CatalogEntry(f"F{i}", g) for i, g in enumerate(found, start=1)
    )
    return Catalog(f"minimal-forbidden-{max_n}", "derived", entries)
