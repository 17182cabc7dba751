"""The five workloads: inputs, set-up, timed operations and their checks.

Each workload is a closed loop with one caller in one thread: an operation
starts when the previous one has returned.  Inputs come in *rounds*.  A
round holds one input from every stratum of the workload (each size band,
each planted pattern), so a run, which always ends at a round boundary,
measures the same mix whatever the seed or the speed of the program.  Sizes
are drawn log-uniformly within each band, so latencies spread continuously
and the p50 and p90 do not sit in a gap between two fixed sizes.

The package is reached only through ``sys.modules["linemg.<module>"]`` and
attribute lookups made at call time, so the timing wrappers of
:mod:`spans` see every call the benchmark makes.
"""

from __future__ import annotations

import math
import random
import sys
from time import perf_counter

import check
import gen


def lib(module: str):
    """The package module ``linemg.<module>`` as callers see it."""
    return sys.modules[f"linemg.{module}"]


def round_rng(workload: str, seed: int, k: int) -> random.Random:
    # string seeds hash with SHA-512, so streams are stable across processes
    return random.Random(f"{workload}/{seed}/{k}")


def banded_sizes(rng: random.Random, lo: int, hi: int, bands: int) -> list[int]:
    """One size per band, the bands splitting [lo, hi) evenly on a log scale."""
    step = math.log(hi / lo) / bands
    return [int(lo * math.exp((i + rng.random()) * step)) for i in range(bands)]


class Workload:
    """Set-up is ``prepare`` (benchmark-side input generation, not timed)
    then ``setup`` (library calls, timed as ``setup_s``).  By default the
    set-up runs one warm-up operation and a round is a list of inputs, one
    operation each."""

    name: str

    def prepare(self, seed: int):
        return self.warmup_input(round_rng(self.name, seed, -1))

    def setup(self, warmup):
        self.run_op(None, warmup)

    def run_round(self, state, items) -> list:
        """(latency, output record, input) per operation."""
        return [(*self.run_op(state, item), item) for item in items]

    def summary(self, state) -> dict[str, tuple[float, str]]:
        return {}


# ---------------------------------------------------------------------------
# accept: recognition success path
# ---------------------------------------------------------------------------


class Accept(Workload):
    """Line graphs of random connected multigraphs; every verdict is a root.

    Sparse inputs (n = 2m/3) exercise Krausz cells; dense ones (n = sqrt(m),
    about two parallel edges per vertex pair) give twin contraction real
    work.  An operation is parse, ``elehot``, and serializing the root."""

    name = "accept"

    def __init__(self, tiny: bool):
        self.sparse = (20, 40) if tiny else (200, 2000)
        self.dense = (12, 24) if tiny else (50, 500)
        self.bands = 2 if tiny else 4

    def _input(self, rng: random.Random, m: int, dense: bool):
        n = max(3, math.isqrt(m)) if dense else max(3, 2 * m // 3)
        n, pairs = gen.random_connected_multigraph(rng, n, m)
        edges = gen.relabel(rng, m, gen.line_graph_pairs(n, pairs))
        return m, edges, gen.edge_list_text(m, edges)

    def make_round(self, seed: int, k: int) -> list:
        rng = round_rng(self.name, seed, k)
        items = [self._input(rng, m, False) for m in banded_sizes(rng, *self.sparse, self.bands)]
        items += [self._input(rng, m, True) for m in banded_sizes(rng, *self.dense, self.bands)]
        rng.shuffle(items)
        return items

    def warmup_input(self, rng: random.Random):
        return self._input(rng, self.sparse[0], False)

    def run_op(self, state, item):
        graphcore, elehot = lib("graphcore"), lib("elehot")
        t0 = perf_counter()
        g = graphcore.parse_graph(item[2]).to_simple_graph()
        result = elehot.elehot(g)
        out = graphcore.serialize_graph(result.root)
        t1 = perf_counter()
        return t1 - t0, (out, result.map.edge_of_vertex)

    def check(self, state, record, item) -> bool:
        n, edges, _ = item
        root_text, edge_of_vertex = record
        root_pairs = check.parse_root_text(root_text)
        return root_pairs is not None and check.root_explains(
            n, check.edge_set(edges), root_pairs, edge_of_vertex
        )


# ---------------------------------------------------------------------------
# reject: recognition failure path (catalog scans)
# ---------------------------------------------------------------------------


class Reject(Workload):
    """A line graph of a random connected multigraph, disjoint from one
    planted ``multigraph7`` entry (F1 to F7 in every round); every verdict
    must be a rejection whose witness is the planted entry.  An operation
    is parse and ``elehot``, which raises ``NotLineMultigraph``."""

    name = "reject"

    def __init__(self, tiny: bool):
        self.sizes = (3, 5) if tiny else (4, 9)
        self.bands = 1 if tiny else 3

    def _input(self, rng: random.Random, m: int, planted: str):
        n, pairs = gen.random_connected_multigraph(rng, m // 2 + 1, m)
        k, pattern = gen.MULTIGRAPH7[planted]
        edges = gen.line_graph_pairs(n, pairs) + [(m + u, m + v) for u, v in pattern]
        edges = gen.relabel(rng, m + k, edges)
        return m + k, edges, gen.edge_list_text(m + k, edges), planted

    def make_round(self, seed: int, k: int) -> list:
        rng = round_rng(self.name, seed, k)
        items = [
            self._input(rng, m, planted)
            for planted in gen.MULTIGRAPH7
            for m in banded_sizes(rng, *self.sizes, self.bands)
        ]
        rng.shuffle(items)
        return items

    def warmup_input(self, rng: random.Random):
        return self._input(rng, self.sizes[0], "F1")

    def run_op(self, state, item):
        graphcore, elehot = lib("graphcore"), lib("elehot")
        witness = None
        t0 = perf_counter()
        g = graphcore.parse_graph(item[2]).to_simple_graph()
        try:
            elehot.elehot(g)
        except elehot.NotLineMultigraph as err:
            witness = err.witness
        t1 = perf_counter()
        return t1 - t0, witness

    def check(self, state, witness, item) -> bool:
        n, edges, _, planted = item
        return check.witness_is_planted(n, check.edge_set(edges), planted, witness)


# ---------------------------------------------------------------------------
# sched-light / sched-heavy: MaxWeight slots through the simulator
# ---------------------------------------------------------------------------


class SchedState:
    def __init__(self, pipeline, pairs, rates):
        self.pipeline = pipeline
        self.pairs = pairs
        self.rates = rates
        self.mean_queue_totals: list[float] = []


class Sched(Workload):
    """One geometric network per seed (100 nodes uniform on a 9 x 9 square,
    the 405 closest pairs as links, i.e. radius about 1.6) at hops=1, so the
    mode is ROOT_MWM.  Link rates are load / (larger endpoint degree), at
    most 1.  A
    round is one ``simulate`` call of ``slots`` slots from empty queues; an
    operation is one slot, timed from one scheduling decision to the next,
    so it covers arrivals, the decision and the simulator's bookkeeping."""

    def __init__(self, name: str, load: float, tiny: bool):
        self.name = name
        self.load = load
        self.nodes, self.side, self.links = (20, 4.0, 40) if tiny else (100, 9.0, 405)
        self.slots = 10 if tiny else 100

    def prepare(self, seed: int):
        # the network depends on the seed only, so both loads share it
        rng = round_rng("sched-network", seed, 0)
        n, pairs = gen.geometric_network(rng, self.nodes, self.side, self.links)
        degree = [0] * n
        for u, v in pairs:
            degree[u] += 1
            degree[v] += 1
        rates = [min(1.0, self.load / max(degree[u], degree[v])) for u, v in pairs]
        return n, pairs, rates, rng.randrange(2**32)

    def setup(self, prepared) -> SchedState:
        n, pairs, rates, warmup_seed = prepared
        scheduler = lib("scheduler")
        network = lib("graphcore").Multigraph.from_pairs(n, pairs)
        state = SchedState(scheduler.build_pipeline(network, 1), pairs, rates)
        # one slot imports the matching backend and fills lazy state
        scheduler.simulate(state.pipeline, rates, 1, warmup_seed)
        return state

    def make_round(self, seed: int, k: int) -> int:
        return round_rng(self.name, seed, k).randrange(2**32)

    def run_round(self, state: SchedState, sim_seed: int) -> list:
        scheduler = lib("scheduler")
        inner = scheduler.schedule_slot
        marks: list[float] = []
        seen: list[tuple[list[int], tuple[int, ...]]] = []

        def decide(p, queues):
            marks.append(perf_counter())
            snapshot = list(queues)
            scheduled = inner(p, queues)
            seen.append((snapshot, scheduled))
            return scheduled

        scheduler.schedule_slot = decide  # simulate looks it up per slot
        try:
            t0 = perf_counter()
            log = scheduler.simulate(state.pipeline, state.rates, self.slots, sim_seed)
            t1 = perf_counter()
        finally:
            scheduler.schedule_slot = inner
        state.mean_queue_totals.append(log.mean_queue_total)
        bounds = [t0, *marks[1:], t1]
        replay_ok = check.simulation_replays(log, seen, len(state.pairs))
        return [
            (end - start, (queues, scheduled, replay_ok), sim_seed)
            for start, end, (queues, scheduled) in zip(bounds, bounds[1:], seen)
        ]

    def check(self, state: SchedState, record, sim_seed) -> bool:
        queues, scheduled, replay_ok = record
        pairs = state.pairs
        return (
            replay_ok
            and check.schedule_serves_queues(queues, scheduled)
            and check.is_matching(pairs, scheduled)
            and sum(queues[link] for link in scheduled)
            == check.reference_matching_weight(pairs, queues)
        )

    def summary(self, state: SchedState) -> dict[str, tuple[float, str]]:
        totals = state.mean_queue_totals
        return {"mean_queue_total": (sum(totals) / len(totals), "packets")}


# ---------------------------------------------------------------------------
# hops2: conflict graphs at two hops, mode fallback, greedy slots
# ---------------------------------------------------------------------------


class Hops2(Workload):
    """Geometric networks as dense as the sched-* one (about four links per
    node), of 155 to 330 links.  An operation is ``build_pipeline(network,
    hops=2)`` (policy auto) followed by a fixed set of ``schedule_slot``
    calls on seeded random queues, some empty.  The conflict graphs are
    rejected, so the operation builds a witness (a ``beineke9`` scan of the
    twin-contracted graph) and falls back to GREEDY.

    Link counts stay above 150 on purpose: up to 150, ``elehot`` also scans
    ``multigraph7`` on the whole conflict graph, and on a small dense
    conflict graph that scan can run for minutes (one 103-link network took
    over 400 s), longer than a run may take."""

    name = "hops2"

    def __init__(self, tiny: bool):
        self.sizes = (30, 60) if tiny else (155, 330)
        self.bands = 2 if tiny else 5
        self.slots = 2 if tiny else 10

    def _input(self, rng: random.Random, links: int):
        nodes = max(8, links // 4)
        n, pairs = gen.geometric_network(rng, nodes, 9.0 * math.sqrt(nodes / 100), links)
        queues = [[rng.randrange(5) for _ in pairs] for _ in range(self.slots)]
        return n, pairs, queues

    def make_round(self, seed: int, k: int) -> list:
        rng = round_rng(self.name, seed, k)
        items = [self._input(rng, links) for links in banded_sizes(rng, *self.sizes, self.bands)]
        rng.shuffle(items)
        return items

    def warmup_input(self, rng: random.Random):
        return self._input(rng, self.sizes[0])

    def run_op(self, state, item):
        n, pairs, queues = item
        scheduler = lib("scheduler")
        network = lib("graphcore").Multigraph.from_pairs(n, pairs)
        t0 = perf_counter()
        p = scheduler.build_pipeline(network, 2)
        scheduled = [scheduler.schedule_slot(p, q) for q in queues]
        t1 = perf_counter()
        return t1 - t0, (p, scheduled)

    def check(self, state, record, item) -> bool:
        n, pairs, queues = item
        p, scheduled = record
        conflict = check.conflict_adjacency(n, pairs, 2)
        if list(map(set, p.conflict.graph.adj)) != conflict:
            return False
        root_mwm = p.mode == lib("scheduler").ROOT_MWM
        if root_mwm:
            root_pairs = [e.pair for e in p.root.root.edges]
            links = p.root.map.vertex_of_edge
            conflict_edges = {(u, v) for u in range(len(pairs)) for v in conflict[u] if u < v}
            if not check.root_explains(len(pairs), conflict_edges, root_pairs, p.root.map.edge_of_vertex):
                return False
        for q, s in zip(queues, scheduled):
            if not (check.schedule_serves_queues(q, s) and check.is_independent(conflict, s)):
                return False
            if root_mwm:
                weights = [q[links[e]] for e in range(len(root_pairs))]
                if sum(q[link] for link in s) != check.reference_matching_weight(root_pairs, weights):
                    return False
        return True


NAMES = ("accept", "reject", "sched-light", "sched-heavy", "hops2")


def make(name: str, tiny: bool) -> Workload:
    """The workload called ``name``; ``tiny`` shrinks every input for the self-test."""
    if name == "accept":
        return Accept(tiny)
    if name == "reject":
        return Reject(tiny)
    if name in ("sched-light", "sched-heavy"):
        return Sched(name, 0.2 if name == "sched-light" else 1.2, tiny)
    if name == "hops2":
        return Hops2(tiny)
    raise ValueError(f"unknown workload {name!r}")
