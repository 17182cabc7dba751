"""MaxWeight link scheduling over conflict graphs, plus a slotted simulator.

Every slot, MaxWeight serves a maximum-queue-weight set of non-conflicting
links, i.e. a maximum weight independent set of the conflict graph with
queue lengths as vertex weights.  Three interchangeable schedulers:

* ``ROOT_MWM`` - the polynomial path: when the conflict graph is the line
  graph of a multigraph, its independent sets are matchings of the
  reconstructed root, so each slot reduces to one call of the package's
  blossom solver (``max_weight_matching``).  The call sees only the root
  edges whose queues are non-empty (an empty link adds nothing and is never
  served), so a slot's cost grows with the number of non-empty links, not
  with the size of the root.
* ``EXACT_MWIS`` - brute force on the conflict graph, exact but exponential;
  the fallback for conflict graphs of at most ``EXACT_LIMIT`` links that are
  not line multigraphs.
* ``GREEDY`` - heaviest-vertex-first greedy, the only choice left for large
  irregular conflict graphs.

``build_pipeline`` picks between them (policy "auto"), ``schedule_slot``
computes one slot's schedule, and ``simulate`` runs Bernoulli arrivals
against the schedule for a fixed number of slots, deterministically for a
given seed.  Queues are plain integers and stay integers through every
scheduler, so all scheduling arithmetic is exact.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .elehot import NotLineMultigraph, elehot
from .graphcore import Multigraph, SimpleGraph, parse_fraction
from .linegraph import LineGraphResult, RootResult, conflict_graph
from .matching import max_weight_matching, reduce_multigraph, brute_force_mwis

ROOT_MWM = "ROOT_MWM"
EXACT_MWIS = "EXACT_MWIS"
GREEDY = "GREEDY"

_POLICIES = ("auto", "root", "exact", "greedy")

# Largest conflict graph (in links) that EXACT_MWIS will take; brute_force_mwis
# accepts at most this many vertices.
EXACT_LIMIT = 25


@dataclass(frozen=True)
class Pipeline:
    """Everything needed to schedule one network: the conflict graph, the
    chosen scheduler mode, and (for ROOT_MWM) the reconstructed root.

    ``rejection`` is the ``NotLineMultigraph`` that ruled ROOT_MWM out under
    policy "auto"; its ``.witness`` names a catalog entry induced in the
    conflict graph and is built only when read.  It is None when ROOT_MWM was
    chosen or never tried (a forced "exact" or "greedy" policy)."""

    network: Multigraph
    hops: int
    conflict: LineGraphResult
    mode: str
    root: RootResult | None
    rejection: NotLineMultigraph | None


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    scheduled: tuple[int, ...]
    arrivals: tuple[int, ...]  # links that received a packet this slot
    queue_total: int


@dataclass(frozen=True)
class SlotLog:
    """Per-slot records plus summary statistics of one simulation run."""

    records: tuple[SlotRecord, ...]
    final_queues: tuple[int, ...]
    mean_queue_total: float
    throughput: tuple[float, ...]  # packets served per slot, per link
    slots: int
    seed: int


def build_pipeline(
    network: Multigraph,
    hops: int,
    policy: str = "auto",
) -> Pipeline:
    """Construct the conflict graph and choose a scheduler.

    Policy "auto" prefers ROOT_MWM (conflict graph explained by a root
    multigraph), falls back to EXACT_MWIS when the conflict graph has at most
    ``EXACT_LIMIT`` vertices, and to GREEDY beyond that.  Policies "root",
    "exact", and "greedy" force a mode; forcing an impossible one raises.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    gc = conflict_graph(network, hops)
    n = gc.graph.n_vertices

    root: RootResult | None = None
    rejection: NotLineMultigraph | None = None
    if policy in ("auto", "root"):
        try:
            root = elehot(gc.graph)
            mode = ROOT_MWM
        except NotLineMultigraph as exc:
            if policy == "root":
                raise
            # kept without traceback and context: their frames would hold
            # the recognizer's state and a reference cycle through this one
            rejection = exc.with_traceback(None)
            rejection.__context__ = None
            mode = EXACT_MWIS if n <= EXACT_LIMIT else GREEDY
    elif policy == "exact":
        if n > EXACT_LIMIT:
            raise ValueError(
                f"conflict graph has {n} vertices, over the exact limit {EXACT_LIMIT}"
            )
        mode = EXACT_MWIS
    else:
        mode = GREEDY
    return Pipeline(network, hops, gc, mode, root, rejection)


def _as_count(q) -> int:
    value = int(q)
    if value != q:
        raise ValueError(f"queue length {q!r} is not an integer")
    return value


def _normalize_weights(p: Pipeline, queues) -> list[int]:
    m = p.network.n_edges
    if isinstance(queues, Mapping):
        for link in queues:
            if not (isinstance(link, int) and 0 <= link < m):
                raise ValueError(f"unknown link {link!r}")
        out = [_as_count(queues.get(link, 0)) for link in range(m)]
    else:
        seq = list(queues)
        if len(seq) != m:
            raise ValueError(f"expected {m} queue values, got {len(seq)}")
        out = [_as_count(q) for q in seq]
    if any(q < 0 for q in out):
        raise ValueError("queue lengths must be non-negative")
    return out


def greedy_mwis(
    g: SimpleGraph, weights: Sequence | None = None
) -> tuple[tuple[int, ...], int | Fraction]:
    """Heaviest-first greedy independent set: take the maximum-weight vertex
    (smallest id on ties), drop its closed neighborhood, repeat.  A fast
    heuristic with no optimality guarantee.  Weights are used as given."""
    n = g.n_vertices
    if weights is None:
        weights = [1] * n
    w = list(weights)
    if len(w) != n:
        raise ValueError("weights length mismatch")
    alive = set(range(n))
    chosen: list[int] = []
    total = 0
    while alive:
        v = min(alive, key=lambda x: (-w[x], x))
        chosen.append(v)
        total += w[v]
        alive -= g.adj[v] | {v}
    return tuple(sorted(chosen)), total


def schedule_slot(p: Pipeline, queues) -> tuple[int, ...]:
    """One MaxWeight decision: links to serve this slot, ascending.

    ``queues`` is a sequence over all links or a mapping from link id.  The
    result is always an independent set of the conflict graph, and links with
    empty queues are never scheduled.
    """
    w = _normalize_weights(p, queues)
    if p.mode == ROOT_MWM:
        assert p.root is not None
        root = p.root.root  # root edge v is link v
        live = [e.id for e in root.edges if w[e.id] > 0]  # empty links never help
        weighted = Multigraph.from_pairs(
            root.n_vertices, [root.edges[link].pair for link in live], [w[link] for link in live]
        )
        reduction = reduce_multigraph(weighted)
        matching = max_weight_matching(reduction.simple)
        links = [live[reduction.survivor[i]] for i in matching.edges]
    elif p.mode == EXACT_MWIS:
        links, _ = brute_force_mwis(p.conflict.graph, w)
    else:
        links, _ = greedy_mwis(p.conflict.graph, w)
    return tuple(sorted(link for link in links if w[link] > 0))


def simulate(p: Pipeline, rates: Sequence[float], slots: int, seed: int) -> SlotLog:
    """Run ``slots`` time slots of Bernoulli(rate) arrivals against MaxWeight.

    Each slot: draw one arrival coin per link (ascending link order), schedule
    on the queues as they stand, serve one packet from every scheduled link,
    then add the arrivals.  Everything after the seed is deterministic.
    """
    m = p.network.n_edges
    rate_list = list(rates)
    if len(rate_list) != m:
        raise ValueError(f"expected {m} rates, got {len(rate_list)}")
    # checked before float(): a huge Fraction overflows it
    if any(not 0 <= r <= 1 for r in rate_list):
        raise ValueError("rates must lie in [0, 1]")
    rate_list = [float(r) for r in rate_list]
    if slots < 1:
        raise ValueError("slots must be >= 1")

    rng = random.Random(seed)
    queues = [0] * m
    records: list[SlotRecord] = []
    served = [0] * m
    queue_total_acc = 0
    for t in range(slots):
        arrivals = tuple(
            link for link in range(m) if rng.random() < rate_list[link]
        )
        scheduled = schedule_slot(p, queues)
        for link in scheduled:
            queues[link] -= 1  # schedule_slot never picks empty queues
            served[link] += 1
        for link in arrivals:
            queues[link] += 1
        total = sum(queues)
        queue_total_acc += total
        records.append(SlotRecord(t, scheduled, arrivals, total))
    return SlotLog(
        records=tuple(records),
        final_queues=tuple(queues),
        mean_queue_total=queue_total_acc / slots,
        throughput=tuple(s / slots for s in served),
        slots=slots,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# CSV / JSON-lines interchange
# ---------------------------------------------------------------------------

VECTOR_HEADER = ("link_id", "value")


def read_vector_csv(text: str) -> dict[int, Fraction]:
    """Parse a per-link vector: header 'link_id,value', one row per link."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # e.g. a bare carriage return inside a field
        raise ValueError(f"malformed CSV: {exc}") from None
    if not rows:
        raise ValueError("empty CSV")
    if tuple(field.strip() for field in rows[0]) != VECTOR_HEADER:
        raise ValueError("CSV header must be exactly 'link_id,value'")
    out: dict[int, Fraction] = {}
    for row_no, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ValueError(f"row {row_no}: expected two fields")
        try:
            link = int(row[0])
            value = parse_fraction(row[1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"row {row_no}: bad link id or value") from None
        if link in out:
            raise ValueError(f"row {row_no}: duplicate link {link}")
        out[link] = value
    return out


def write_vector_csv(values: Sequence) -> str:
    lines = ["link_id,value"]
    lines += [f"{link},{value}" for link, value in enumerate(values)]
    return "\n".join(lines) + "\n"


def write_slots_csv(log: SlotLog) -> str:
    """Per-slot totals: slot, how many links served, how many arrivals, queue total."""
    lines = ["slot,served,arrivals,queue_total"]
    lines += [
        f"{r.slot},{len(r.scheduled)},{len(r.arrivals)},{r.queue_total}"
        for r in log.records
    ]
    return "\n".join(lines) + "\n"


def write_summary_csv(log: SlotLog) -> str:
    lines = ["link_id,throughput"]
    lines += [f"{link},{thr}" for link, thr in enumerate(log.throughput)]
    return "\n".join(lines) + "\n"


def write_slots_jsonl(log: SlotLog) -> str:
    """Full log, one JSON object per slot."""
    out = []
    for r in log.records:
        out.append(
            json.dumps(
                {
                    "slot": r.slot,
                    "scheduled": list(r.scheduled),
                    "arrivals": list(r.arrivals),
                    "queue_total": r.queue_total,
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(out) + "\n"
