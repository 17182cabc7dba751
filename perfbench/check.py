"""Output checks that do not trust the code under test.

Each check recomputes what the answer must satisfy with its own small
routines: line graphs and conflict graphs from the benchmark's inputs,
induced-subgraph tests pair by pair, and reference matching weights from
networkx called directly.  No function of the package is called here.
"""

from __future__ import annotations

from itertools import combinations, permutations

import gen


def edge_set(edges) -> set[tuple[int, int]]:
    return {(u, v) if u < v else (v, u) for u, v in edges}


def parse_root_text(text: str) -> list[tuple[int, int]] | None:
    """Edge pairs of an edge-list document whose edges all have weight 1,
    or None if the text is not one."""
    lines = text.split("\n")
    if lines[-1] != "" or not lines[0].startswith("v "):
        return None
    n = int(lines[0][2:])
    pairs = []
    for line in lines[1:-1]:
        fields = line.split()
        if len(fields) != 3 or fields[0] != "e":
            return None
        u, v = int(fields[1]), int(fields[2])
        if not (0 <= u < n and 0 <= v < n and u != v):
            return None
        pairs.append((u, v))
    return pairs


def root_explains(n, edges: set, root_pairs, edge_of_vertex) -> bool:
    """True when the root's line graph, with root edge ``edge_of_vertex[v]``
    named v, is exactly the graph on vertices 0..n-1 with ``edges``."""
    if len(root_pairs) != n or sorted(edge_of_vertex) != list(range(n)):
        return False
    vertex_of_edge = [0] * n
    for v, e in enumerate(edge_of_vertex):
        vertex_of_edge[e] = v
    incident: dict[int, list[int]] = {}
    for e, (a, b) in enumerate(root_pairs):
        incident.setdefault(a, []).append(e)
        incident.setdefault(b, []).append(e)
    found = set()
    for inc in incident.values():
        for e, f in combinations(inc, 2):
            u, v = vertex_of_edge[e], vertex_of_edge[f]
            found.add((u, v) if u < v else (v, u))
    return found == edges


def _canonical(k: int, edges) -> tuple:
    """Smallest sorted edge list over all relabelings: equal for two graphs
    exactly when they are isomorphic.  Only for catalog-sized graphs."""
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in permutations(range(k))
    )


_CANONICAL: dict[tuple, tuple] = {}


def _canonical_cached(k: int, edges) -> tuple:
    key = (k, tuple(sorted(edges)))
    if key not in _CANONICAL:
        _CANONICAL[key] = _canonical(k, edges)
    return _CANONICAL[key]


def witness_is_planted(n, edges: set, planted: str, witness) -> bool:
    """The witness names the planted ``multigraph7`` entry, its pattern is
    that entry up to relabeling, and its embedding induces the pattern in
    the input: every pattern pair is an input edge exactly when it is a
    pattern edge."""
    if witness is None or getattr(witness, "name", None) != planted:
        return False
    k, entry_edges = gen.MULTIGRAPH7[planted]
    adj = witness.pattern.adj
    pattern_edges = edge_set((u, v) for u in range(len(adj)) for v in adj[u])
    if len(adj) != k or _canonical_cached(k, pattern_edges) != _canonical_cached(k, entry_edges):
        return False
    image = witness.embedding.mapping
    if len(image) != k or len(set(image)) != k or not all(0 <= x < n for x in image):
        return False
    return all(
        ((i, j) in pattern_edges)
        == ((min(image[i], image[j]), max(image[i], image[j])) in edges)
        for i, j in combinations(range(k), 2)
    )


def conflict_adjacency(n: int, pairs, hops: int) -> list[set[int]]:
    """Conflict graph of the network (n, pairs): links are adjacent when
    their distance in the line graph is between 1 and ``hops``."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(pairs):
        incident[u].append(e)
        incident[v].append(e)
    line = [set() for _ in pairs]
    for inc in incident:
        for e, f in combinations(inc, 2):
            line[e].add(f)
            line[f].add(e)
    adj = [set(s) for s in line]
    for _ in range(hops - 1):
        adj = [s.union(*(line[u] for u in s)) - {v} for v, s in enumerate(adj)]
    return adj


def is_independent(adj: list[set[int]], links) -> bool:
    return len(set(links)) == len(links) and not any(
        v in adj[u] for u, v in combinations(links, 2)
    )


def is_matching(pairs, links) -> bool:
    """Links share no endpoint: independent in the hops=1 conflict graph."""
    ends = [x for link in links for x in pairs[link]]
    return len(set(ends)) == len(ends) and len(set(links)) == len(links)


def schedule_serves_queues(queues, links) -> bool:
    """Links are valid ids, ascending, and each has a packet waiting."""
    return list(links) == sorted(set(links)) and all(
        0 <= link < len(queues) and queues[link] > 0 for link in links
    )


def reference_matching_weight(pairs, weights) -> int:
    """Maximum weight of a matching, keeping the heaviest edge of each
    parallel class (zero-weight edges cannot add weight)."""
    import networkx as nx

    best: dict[tuple[int, int], int] = {}
    for (u, v), w in zip(pairs, weights):
        key = (u, v) if u < v else (v, u)
        if w > best.get(key, 0):
            best[key] = w
    g = nx.Graph()
    g.add_weighted_edges_from((u, v, w) for (u, v), w in best.items())
    return sum(g.edges[u, v]["weight"] for u, v in nx.max_weight_matching(g))


def simulation_replays(log, seen, links: int) -> bool:
    """Replay the simulator's bookkeeping from its own records: queues start
    empty, lose one packet per scheduled link and gain the slot's arrivals.
    ``seen`` holds the (queues, schedule) pairs observed at each decision."""
    queues = [0] * links
    total_sum = 0
    if len(log.records) != len(seen):
        return False
    for record, (observed, scheduled) in zip(log.records, seen):
        if observed != queues or record.scheduled != scheduled:
            return False
        for link in scheduled:
            queues[link] -= 1
        for link in record.arrivals:
            queues[link] += 1
        if record.queue_total != sum(queues):
            return False
        total_sum += record.queue_total
    return list(log.final_queues) == queues and log.mean_queue_total == total_sum / len(seen)
