"""Maximum weight matching, parallel-edge reduction, and brute-force oracles.

Matchings in a root multigraph correspond to independent sets in its line
graph, which is what makes the scheduling pipeline polynomial.  Parallel
edges never help a matching, so ``reduce_multigraph`` keeps only the heaviest
edge of each parallel class first.

``max_weight_matching`` is the production path: Edmonds' primal-dual blossom
algorithm, written here on int lists and exact for integer weights (rational
weights are scaled to integers and back, so the result stays exact).  Every
answer is checked against its dual certificate before it is returned.
Weights are used as given: totals are ints for int weights and Fractions
otherwise.  Blossom sees only the edges and the vertices they touch, so its
cost grows with the edges passed in, not with ``n_vertices``: the scheduler
passes only a root's non-empty links.

``brute_force_mwm`` and ``brute_force_mwis`` are independent exhaustive
oracles used to check it and the scheduler; both resolve weight ties
deterministically by preferring the smallest ids, greedily: a vertex or edge
is taken whenever some optimum extends the choices made so far.

Weighted edges ride on :class:`~linemg.graphcore.Multigraph` (every edge has
an int or Fraction weight); the matching entry points require the graph to be
parallel-free so that edge ids and endpoint pairs identify each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Sequence

from .graphcore import Multigraph, SimpleGraph


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edge ids and its total weight."""

    edges: frozenset[int]
    weight: int | Fraction


@dataclass(frozen=True)
class WeightedReduction:
    """Parallel-free version of a multigraph.

    ``simple.edges[i]`` is the surviving edge of one parallel class (heaviest
    weight, ties to the smallest original id) and ``survivor[i]`` is its
    original edge id.
    """

    simple: Multigraph
    survivor: tuple[int, ...]


def reduce_multigraph(g: Multigraph) -> WeightedReduction:
    """Keep one maximum-weight edge per endpoint pair."""
    best: dict[tuple[int, int], int] = {}
    for e in g.edges:
        cur = best.get(e.pair)
        if cur is None or e.weight > g.edges[cur].weight:
            best[e.pair] = e.id
    pairs = sorted(best)
    survivors = tuple(best[p] for p in pairs)
    simple = Multigraph.from_pairs(
        g.n_vertices, pairs, [g.edges[s].weight for s in survivors]
    )
    return WeightedReduction(simple, survivors)


def _require_simple(g: Multigraph) -> None:
    if not g.is_simple():
        raise ValueError("graph has parallel edges; reduce_multigraph first")


def max_weight_matching(g: Multigraph) -> Matching:
    """Maximum weight matching of a parallel-free multigraph, exactly.

    Weights are put over a common denominator (1 when all are ints) so the
    blossom solver only ever sees integers, for which it is exact.  The
    solver numbers the edges' endpoints 0..k-1 in ascending order and visits
    each vertex's edges in id order; weight ties fall by those orders.
    """
    _require_simple(g)
    if g.n_edges == 0:
        return Matching(frozenset(), 0)
    if g.n_edges == 1:
        e = g.edges[0]
        return Matching(frozenset({e.id}), e.weight)
    scale = lcm(*(e.weight.denominator for e in g.edges))
    nodes = sorted({x for e in g.edges for x in (e.u, e.v)})
    index = {x: i for i, x in enumerate(nodes)}
    end = [index[x] for e in g.edges for x in (e.u, e.v)]
    mate = _blossom(len(nodes), end, [int(e.weight * scale) for e in g.edges])
    ids = frozenset(g.edges[p >> 1].id for p in mate if p != -1)
    weight = sum(g.edges[i].weight for i in ids)
    return Matching(ids, weight)


# ------------------------------------------------------------ blossom solver
#
# Edmonds' primal-dual blossom method for maximum weight matching, in the
# O(n^3) form of Galil, "Efficient algorithms for finding maximum matching in
# graphs" (ACM Computing Surveys, 1986), kept on plain int lists with edges
# addressed by index as in J. van Rantwijk's mwmatching.py.
#
# Edge k joins end[2k] and end[2k + 1].  An endpoint index d stands for edge
# d >> 1 directed away from end[d]: end[d] -> end[d ^ 1].  Vertices are ids
# 0..n-1 and are also the trivial blossoms; non-trivial blossoms take ids
# n..2n-1.  Duals are doubled (dual[v] = 2 u(v), and edge weights enter as
# 2 w), so every slack and every delta stays an int.


def _blossom(n: int, end: list[int], w: list[int]) -> list[int]:
    """Maximum weight matching on vertices 0..n-1, every one on some edge.

    Returns ``mate``: ``mate[v]`` is the endpoint index of v's partner (the
    matched edge is ``mate[v] >> 1``), or -1 when v stays single.  Every
    least-slack choice keeps the first minimum found, with free vertices
    labelled in ascending order, the scan queue popped from its end, edges
    visited in id order and blossoms in creation order.  The result is
    checked against its dual certificate before it is returned.
    """
    m = len(w)
    w2 = [2 * x for x in w]
    # adj[v]: (d, neighbour, edge) for v's endpoints d, by edge id
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for d in range(2 * m):
        adj[end[d]].append((d, end[d ^ 1], d >> 1))

    nb = 2 * n
    mate = [-1] * n
    dual = [max(0, max(w))] * n + [0] * n
    inblossom = list(range(n))  # top-level blossom of each vertex
    parent = [-1] * nb  # enclosing blossom, -1 at top level
    childs: list = [None] * nb  # sub-blossoms round the cycle, base first
    bedges: list = [None] * nb  # bedges[b][i] runs childs[b][i] -> childs[b][i+1]
    base = list(range(n)) + [-1] * n
    mybest: list = [None] * nb  # least-slack edges to other S-blossoms
    free = list(range(nb - 1, n - 1, -1))
    live: dict[int, None] = {}  # non-trivial blossoms in creation order
    label = [0] * nb  # 0 free, 1 S, 2 T; bit 4 marks a traced blossom
    labeledge = [-1] * nb  # edge that gave the label, pointing into it
    bestedge = [-1] * nb
    allowed = [False] * m
    queue: list[int] = []

    def slack(d: int) -> int:
        return dual[end[d]] + dual[end[d ^ 1]] - w2[d >> 1]

    def leaves(b: int) -> list[int]:
        if b < n:
            return [b]
        out = []
        stack = childs[b][:]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(childs[t])
        return out

    def assign_label(x: int, t: int, d: int) -> None:
        b = inblossom[x]
        label[x] = label[b] = t
        labeledge[x] = labeledge[b] = d
        bestedge[x] = bestedge[b] = -1
        if t == 1:
            if b < n:
                queue.append(b)
            else:
                queue.extend(leaves(b))
        else:  # a T-blossom's base is matched; its mate becomes S
            p = mate[base[b]]
            assign_label(end[p], 1, p ^ 1)

    def scan_blossom(v: int, x: int) -> int:
        """Trace back from S-vertices v and x: the base vertex of the blossom
        their paths close, or -1 when the paths reach two single vertices."""
        path = []
        found = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] == -1:
                v = -1
            else:
                v = end[labeledge[inblossom[end[labeledge[b]]]]]
            if x != -1:
                v, x = x, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(root: int, d: int) -> None:
        bb = inblossom[root]
        bv = inblossom[end[d]]
        bw = inblossom[end[d ^ 1]]
        b = free.pop()
        base[b] = root
        parent[b] = -1
        parent[bb] = b
        path = []
        edges = [d]
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            e = labeledge[bv]
            edges.append(e)
            bv = inblossom[end[e]]
        path.append(bb)
        path.reverse()
        edges.reverse()
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            e = labeledge[bw]
            edges.append(e ^ 1)
            bw = inblossom[end[e]]
        childs[b] = path
        bedges[b] = edges
        label[b] = 1
        labeledge[b] = labeledge[bb]
        dual[b] = 0
        live[b] = None
        for y in leaves(b):
            if label[inblossom[y]] == 2:  # T-vertices turn S inside the blossom
                queue.append(y)
            inblossom[y] = b
        best_to: dict[int, int] = {}  # per neighbouring S-blossom, first seen first
        for sub in path:
            candidates = mybest[sub]
            if candidates is None:
                candidates = [e for y in leaves(sub) for e, _, _ in adj[y]]
            mybest[sub] = None
            for e in candidates:
                bj = inblossom[end[e ^ 1]]
                if bj != b and label[bj] == 1:
                    cur = best_to.get(bj)
                    if cur is None or slack(e) < slack(cur):
                        best_to[bj] = e
            bestedge[sub] = -1
        mybest[b] = mine = list(best_to.values())
        best = -1
        best_slack = 0
        for e in mine:
            s = slack(e)
            if best == -1 or s < best_slack:
                best, best_slack = e, s
        bestedge[b] = best

    def relabel_expanded_t(b: int) -> None:
        """Label the children of T-blossom b, just made top level, along the
        even path from the child it was entered through to its base."""
        ch = childs[b]
        ed = bedges[b]
        d = labeledge[b]
        entry = inblossom[end[d ^ 1]]
        j = ch.index(entry)
        if j & 1:  # odd: go forward and wrap
            j -= len(ch)
            step = 1
        else:
            step = -1
        while j != 0:  # d enters a T child, e leaves it for the next S child
            e = ed[j] if step == 1 else ed[j - 1] ^ 1
            x = end[d ^ 1]
            label[x] = label[end[e ^ 1]] = 0
            assign_label(x, 2, d)
            allowed[e >> 1] = True
            j += step
            d = ed[j] if step == 1 else ed[j - 1] ^ 1
            allowed[d >> 1] = True
            j += step
        x = end[d ^ 1]
        bx = ch[j]
        label[x] = label[bx] = 2
        labeledge[x] = labeledge[bx] = d
        bestedge[bx] = -1
        j += step
        while ch[j] != entry:
            bv = ch[j]
            j += step
            if label[bv] == 1:  # became S through a neighbour just now
                continue
            for y in leaves(bv):
                if label[y]:
                    break
            if label[y]:  # reached from outside: it becomes a T-blossom
                label[y] = 0
                label[end[mate[base[bv]]]] = 0
                assign_label(y, 2, labeledge[y])

    def expand(b0: int, endstage: bool) -> None:
        """Dissolve top-level blossom b0; at the end of a stage, also every
        sub-blossom with zero dual."""
        stack = [b0]
        while stack:
            b = stack.pop()
            for s in childs[b]:
                parent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and dual[s] == 0:
                    stack.append(s)
                else:
                    for y in leaves(s):
                        inblossom[y] = s
            if not endstage and label[b] == 2:
                relabel_expanded_t(b)
            label[b] = 0
            labeledge[b] = bestedge[b] = base[b] = -1
            childs[b] = bedges[b] = mybest[b] = None
            del live[b]
            free.append(b)

    def augment_blossom(b0: int, v0: int) -> None:
        """Swap matched and unmatched edges on the even path from vertex v0
        to the base of blossom b0, and make v0 the base."""
        stack = [(b0, v0)]
        while stack:
            b, v = stack.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                stack.append((t, v))
            ch = childs[b]
            ed = bedges[b]
            i = j = ch.index(t)
            if i & 1:
                j -= len(ch)
                step = 1
            else:
                step = -1
            while j != 0:
                j += step
                e = ed[j] if step == 1 else ed[j - 1] ^ 1
                if ch[j] >= n:
                    stack.append((ch[j], end[e]))
                j += step
                if ch[j] >= n:
                    stack.append((ch[j], end[e ^ 1]))
                mate[end[e]] = e ^ 1
                mate[end[e ^ 1]] = e
            childs[b] = ch[i:] + ch[:i]
            bedges[b] = ed[i:] + ed[:i]
            base[b] = v

    def augment_matching(d: int) -> None:
        """Augment along the path through S-vertices end[d] and end[d ^ 1]."""
        for e in (d, d ^ 1):
            s = end[e]
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = e ^ 1
                if labeledge[bs] == -1:  # reached a single vertex
                    break
                bt = inblossom[end[labeledge[bs]]]
                e = labeledge[bt]
                s = end[e]
                j = end[e ^ 1]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = e

    while True:  # one stage per augmentation
        label[:] = [0] * nb
        labeledge[:] = [-1] * nb
        bestedge[:] = [-1] * nb
        for b in live:
            mybest[b] = None
        allowed[:] = [False] * m
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                if inblossom[v] == v:
                    label[v] = 1
                    queue.append(v)
                else:
                    assign_label(v, 1, -1)

        augmented = False
        while True:  # substages: grow the forest, else move the duals
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                for d, x, k in adj[v]:
                    bx = inblossom[x]
                    if bv == bx:
                        continue
                    if not allowed[k]:
                        kslack = dual[v] + dual[x] - w2[k]
                        if kslack > 0:  # not tight: keep the least slack seen
                            if label[bx] == 1:
                                y = bv  # towards another S-blossom
                            elif label[x] == 0:
                                y = x  # towards a free or unreached vertex
                            else:
                                continue
                            e = bestedge[y]
                            if e == -1 or kslack < dual[end[e]] + dual[end[e ^ 1]] - w2[e >> 1]:
                                bestedge[y] = d
                            continue
                        allowed[k] = True
                    t = label[bx]
                    if t == 0:
                        assign_label(x, 2, d)
                    elif t == 1:
                        root = scan_blossom(v, x)
                        if root == -1:
                            augment_matching(d)
                            augmented = True
                            break
                        add_blossom(root, d)
                        bv = inblossom[v]
                    elif label[x] == 0:  # inside a T-blossom, now reached
                        label[x] = 2
                        labeledge[x] = d
            if augmented:
                break

            # delta1: smallest vertex dual (the optimum when it is least)
            delta_type = 1
            delta = min(dual[:n])
            delta_at = -1
            # delta2: least slack from an S-vertex to a free vertex
            for v in range(n):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    s = slack(bestedge[v])
                    if s < delta:
                        delta, delta_type, delta_at = s, 2, bestedge[v]
            # delta3: half the least slack between two S-blossoms
            for b in chain(range(n), live):
                if parent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    s = slack(bestedge[b]) // 2
                    if s < delta:
                        delta, delta_type, delta_at = s, 3, bestedge[b]
            # delta4: least dual of a top-level T-blossom
            for b in live:
                if parent[b] == -1 and label[b] == 2 and dual[b] < delta:
                    delta, delta_type, delta_at = dual[b], 4, b

            for v in range(n):
                t = label[inblossom[v]]
                if t == 1:
                    dual[v] -= delta
                elif t == 2:
                    dual[v] += delta
            for b in live:
                if parent[b] == -1:
                    if label[b] == 1:
                        dual[b] += delta
                    elif label[b] == 2:
                        dual[b] -= delta

            if delta_type == 1:
                break
            if delta_type == 4:
                expand(delta_at, False)
            else:  # the least-slack edge now has zero slack: scan from it
                allowed[delta_at >> 1] = True
                queue.append(end[delta_at])

        if not augmented:
            break
        for b in list(live):
            if b in live and parent[b] == -1 and label[b] == 1 and dual[b] == 0:
                expand(b, True)

    _check_optimum(end, w, mate, dual, parent, {b: bedges[b] for b in live})
    return mate


def _check_optimum(
    end: list[int],
    w: list[int],
    mate: list[int],
    dual: list[int],
    parent: list[int],
    blossoms: dict[int, list[int]],
) -> None:
    """Raise AssertionError unless the duals certify ``mate`` as a maximum
    weight matching.

    Arguments are in ``_blossom``'s terms: doubled duals of the vertices and
    then of the blossoms by id, the enclosing blossom of each (-1 at top
    level), and each blossom's cycle edges, base child first.  The checks
    are complementary slackness for the blossom linear program: the matching
    is symmetric, duals are non-negative, every edge has non-negative slack
    once the duals of the blossoms holding both ends are added, matched
    edges are tight, single vertices have dual 0 and every blossom with
    positive dual is full.
    """
    n = len(mate)
    for v, p in enumerate(mate):
        if p != -1 and (end[p ^ 1] != v or mate[end[p]] != p ^ 1):
            raise AssertionError(f"mate is not symmetric at vertex {v}")
    if min(dual[:n]) < 0 or any(dual[b] < 0 for b in blossoms):
        raise AssertionError("negative dual")

    def nesting(x: int) -> list[int]:
        out = [x]
        while parent[out[-1]] != -1:
            out.append(parent[out[-1]])
        out.reverse()
        return out

    for k, wk in enumerate(w):
        u, v = end[2 * k], end[2 * k + 1]
        s = dual[u] + dual[v] - 2 * wk
        if parent[u] != -1 and parent[v] != -1:
            for bu, bv in zip(nesting(u), nesting(v)):
                if bu != bv:
                    break
                s += 2 * dual[bu]
        if s < 0:
            raise AssertionError(f"edge {k} has negative slack")
        if mate[u] != -1 and mate[u] >> 1 == k and s != 0:
            raise AssertionError(f"matched edge {k} has positive slack")
    for v in range(n):
        if mate[v] == -1 and dual[v] != 0:
            raise AssertionError(f"single vertex {v} has a positive dual")
    for b, edges in blossoms.items():
        if dual[b] > 0 and (
            len(edges) % 2 == 0 or any(mate[end[e]] != e ^ 1 for e in edges[1::2])
        ):
            raise AssertionError(f"blossom {b} has a positive dual but is not full")


def brute_force_mwm(g: Multigraph) -> Matching:
    """Exhaustive maximum weight matching (at most 24 edges, enough for K7).

    Depth-first over edges in id order with a remaining-weight bound; ties
    break toward including smaller edge ids.
    """
    _require_simple(g)
    m = g.n_edges
    if m > 24:
        raise ValueError("brute-force matching accepts at most 24 edges")
    edges = g.edges
    vbit = [(1 << e.u) | (1 << e.v) for e in edges]
    suffix_weight = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + edges[i].weight

    def best_from(start: int, used: int):
        best = 0

        def dfs(i: int, used: int, acc) -> None:
            nonlocal best
            if acc > best:
                best = acc
            if i == m or acc + suffix_weight[i] <= best:
                return
            if not vbit[i] & used:
                dfs(i + 1, used | vbit[i], acc + edges[i].weight)
            dfs(i + 1, used, acc)

        dfs(start, used, 0)
        return best

    target = best_from(0, 0)
    chosen: list[int] = []
    used = 0
    acc = 0
    for i in range(m):
        if vbit[i] & used:
            continue
        if acc + edges[i].weight + best_from(i + 1, used | vbit[i]) == target:
            chosen.append(i)
            used |= vbit[i]
            acc += edges[i].weight
    return Matching(frozenset(chosen), acc)


def brute_force_mwis(
    g: SimpleGraph, weights: Sequence | None = None
) -> tuple[tuple[int, ...], int | Fraction]:
    """Exhaustive maximum weight independent set (at most 25 vertices).

    Weights default to all ones.  Returns (vertices ascending, total weight).
    Branch and bound on bitmasks: branch on the heaviest live vertex, bound
    by the live weight total.  Ties break toward including smaller vertex ids.
    """
    n = g.n_vertices
    if n > 25:
        raise ValueError("brute-force independent set accepts at most 25 vertices")
    if weights is None:
        weights = [1] * n
    w = list(weights)
    if len(w) != n:
        raise ValueError("weights length mismatch")
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")

    closed = [1 << v for v in range(n)]
    for v in range(n):
        for u in g.adj[v]:
            closed[v] |= 1 << u

    def live_weight(mask: int):
        total = 0
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            total += w[v]
        return total

    def max_weight(mask: int):
        # greedy lower bound: first-fit by ascending id
        best = 0
        m0 = mask
        while m0:
            v = (m0 & -m0).bit_length() - 1
            best += w[v]
            m0 &= ~closed[v]

        def dfs(mask: int, acc, remaining) -> None:
            nonlocal best
            if acc > best:
                best = acc
            if not mask or acc + remaining <= best:
                return
            live = mask
            pick, pick_w = -1, -1
            while live:
                v = (live & -live).bit_length() - 1
                live &= live - 1
                if w[v] > pick_w:
                    pick, pick_w = v, w[v]
            dfs(
                mask & ~closed[pick],
                acc + pick_w,
                remaining - live_weight(mask & closed[pick]),
            )
            dfs(mask & ~(1 << pick), acc, remaining - pick_w)

        dfs(mask, 0, live_weight(mask))
        return best

    full = (1 << n) - 1
    target = max_weight(full)
    chosen: list[int] = []
    acc = 0
    avail = full
    for v in range(n):
        if not (avail >> v) & 1:
            continue
        above = ~((1 << (v + 1)) - 1)
        if acc + w[v] + max_weight(avail & ~closed[v] & above) == target:
            chosen.append(v)
            acc += w[v]
            avail &= ~closed[v]
        else:
            avail &= ~(1 << v)
    return tuple(chosen), acc
