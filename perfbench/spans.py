"""Spans around calls into each layer, recorded from outside the package.

A wrapper is installed at every module attribute through which callers
reach a function: the defining module and every copy bound by
``from ... import``, such as ``linemg.scheduler.elehot`` or
``linemg.elehot.find_induced``.  Functions are found through
``sys.modules`` because the package attribute ``linemg.elehot`` is the
function, not the module.  Spans (name, start, end, parent) are kept in
memory, closed in ``finally`` so that calls which raise are recorded too,
and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# The layers are the package modules; cli is left out (process start-up
# would swamp it, and its parsing is graphcore.parse_graph).
TARGETS = {
    "graphcore": ("parse_graph", "serialize_graph", "true_twin_classes", "find_induced"),
    "linegraph": ("line_graph", "graph_power", "conflict_graph", "recognize_line_graph"),
    "elehot": ("elehot", "contract_twins", "expand_root", "verify_root"),
    "forbidden": ("load_catalog",),
    "matching": ("reduce_multigraph", "max_weight_matching"),
    "scheduler": ("build_pipeline", "schedule_slot", "greedy_mwis", "simulate"),
}


def _found(args, result, err):
    return result is not None


def _edges(args, result, err):
    return args[0].n_edges


def _nonempty(args, result, err):
    pipeline, queues = args[0], args[1]
    values = queues.values() if hasattr(queues, "values") else queues
    return sum(1 for q in values if q > 0) / max(1, pipeline.network.n_edges)


def _witness(args, result, err):
    witness = getattr(err, "witness", None)
    if witness is None:
        return None
    embedding = getattr(witness, "embedding", None)
    if embedding is not None:
        return (True, len(embedding.mapping))
    return (False, len(witness.vertices))


# Facts recorded per call, after the span has closed.
FACTS = {
    "graphcore.find_induced": _found,
    "matching.max_weight_matching": _edges,
    "scheduler.schedule_slot": _nonempty,
    "elehot.elehot": _witness,
}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.raised: list[bool] = []
        self.facts: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, fact):
        names, starts, ends = self.names, self.starts, self.ends
        parents, raised, facts, stack = self.parents, self.raised, self.facts, self._stack

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            raised.append(True)
            facts.append(None)
            stack.append(i)
            result = err = None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                raised[i] = False
                return result
            except BaseException as exc:
                err = exc
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
                if fact is not None:
                    facts[i] = fact(args, result, err)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target at every ``linemg`` module attribute bound to it.

        A target that no longer exists raises here, so a renamed or moved
        function fails the run instead of reading as zero."""
        modules = [m for k, m in list(sys.modules.items()) if k == "linemg" or k.startswith("linemg.")]
        for module, functions in TARGETS.items():
            home = sys.modules[f"linemg.{module}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{module}.{fn_name}"
                wrapper = self._wrap(name, original, FACTS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "raised": self.raised[i],
                }) + "\n")


# name, unit, better, and which end-to-end metric it should move on which workload
PER_LAYER = (
    ("graphcore.parse_graph.s", "s/op", "lower", "op_p50_ms on accept"),
    ("graphcore.true_twin_classes.s", "s/op", "lower", "ops_per_s on accept (dense half)"),
    ("graphcore.find_induced.calls", "calls/op", "lower", "op_p50_ms, op_p90_ms on reject; ops_per_s on hops2"),
    ("graphcore.find_induced.s", "s/op", "lower", "op_p50_ms, op_p90_ms on reject; ops_per_s on hops2; none on accept"),
    ("graphcore.find_induced.hit_ratio", "ratio", "higher", "embeddings found per call; wasted scans on reject and hops2"),
    ("linegraph.line_graph.calls_per_op", "calls/op", "lower", "ops_per_s on accept; a count that repeats exactly"),
    ("linegraph.line_graph.s", "s/op", "lower", "ops_per_s on accept"),
    ("linegraph.recognize_line_graph.s", "s/op", "lower", "ops_per_s on accept"),
    ("linegraph.recognize_line_graph.self_s", "s/op", "lower", "ops_per_s on accept (Krausz cells)"),
    ("linegraph.graph_power.s", "s/op", "lower", "ops_per_s on hops2; none on sched-*"),
    ("linegraph.conflict_graph.s", "s/op", "lower", "ops_per_s on hops2; none on sched-*"),
    ("elehot.elehot.s", "s/op", "lower", "ops_per_s on accept and reject"),
    ("elehot.contract_twins.s", "s/op", "lower", "ops_per_s on accept"),
    ("elehot.expand_root.s", "s/op", "lower", "ops_per_s on accept"),
    ("elehot.verify_root.s", "s/op", "lower", "ops_per_s on accept"),
    ("elehot.witness.s", "s/op", "lower", "op_p90_ms on reject; ops_per_s on hops2"),
    ("elehot.witness.forbidden_ratio", "ratio", "higher", "catalog witnesses per reject; explains the witness path"),
    ("elehot.witness.vertices", "vertices", "lower", "mean witness size; explains the witness path"),
    ("forbidden.load_catalog.s", "s", "lower", "setup_s on reject and hops2 (set-up phase, where the cold load runs)"),
    ("matching.reduce_multigraph.s", "s/op", "lower", "op_p50_ms on sched-light"),
    ("matching.max_weight_matching.calls", "calls/op", "lower", "ops_per_s on sched-light (large) and sched-heavy (small)"),
    ("matching.max_weight_matching.s", "s/op", "lower", "ops_per_s on sched-light (large) and sched-heavy (small)"),
    ("matching.max_weight_matching.edges_per_call", "edges/call", "lower", "ops_per_s on sched-light (large) and sched-heavy (small)"),
    ("scheduler.schedule_slot.s", "s/op", "lower", "op_p50_ms on sched-*"),
    ("scheduler.schedule_slot.self_s", "s/op", "lower", "op_p50_ms on sched-* (per-slot rebuild)"),
    ("scheduler.slot.nonempty_ratio", "ratio", "lower", "links with a queue at decision time; explains light vs heavy"),
    ("scheduler.greedy_mwis.s", "s/op", "lower", "ops_per_s on hops2"),
    ("scheduler.build_pipeline.s", "s/op", "lower", "ops_per_s on hops2"),
    ("scheduler.build_pipeline.setup_s", "s", "lower", "setup_s on sched-*"),
    ("scheduler.simulate.self_s", "s/op", "lower", "op_p50_ms and peak_rss_mb on sched-* (arrivals, bookkeeping)"),
    ("trace.overhead_ratio", "ratio", "higher", "traced ops_per_s / untraced ops_per_s; none"),
)


def _durations(t: Tracer, lo: int, hi: int):
    """Per-name inclusive time (outermost spans of a name only), self time,
    and call count, over spans lo..hi-1."""
    names, parents = t.names, t.parents
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = parents[i]
        if p >= lo:
            child_time[p - lo] += t.ends[i] - t.starts[i]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(lo, hi):
        name = names[i]
        d = t.ends[i] - t.starts[i]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + d - child_time[i - lo]
        p = parents[i]
        while p >= lo and names[p] != name:
            p = parents[p]
        if p < lo:
            total[name] = total.get(name, 0.0) + d
    return total, self_time, calls


def _witness_time(t: Tracer, lo: int, hi: int) -> float:
    """Time in outermost find_induced spans under a rejected elehot or
    recognize_line_graph span: the catalog scans."""
    rejecting = ("elehot.elehot", "linegraph.recognize_line_graph")
    out = 0.0
    for i in range(lo, hi):
        if t.names[i] != "graphcore.find_induced":
            continue
        p, nested, under_reject = t.parents[i], False, False
        while p >= lo:
            nested |= t.names[p] == "graphcore.find_induced"
            under_reject |= t.names[p] in rejecting and t.raised[p]
            p = t.parents[p]
        if under_reject and not nested:
            out += t.ends[i] - t.starts[i]
    return out


def layer_metrics(t: Tracer, setup_end: int, ops: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics: set-up totals from the spans before ``setup_end``,
    per-op figures from the spans after it, over ``ops`` traced operations."""
    loop_start, hi = setup_end, len(t.names)
    total, self_time, calls = _durations(t, loop_start, hi)
    setup_total, _, _ = _durations(t, 0, setup_end)

    def per_op(d: dict, name: str) -> float:
        return d.get(name, 0) / ops

    def facts(name: str) -> list:
        return [t.facts[i] for i in range(loop_start, hi) if t.names[i] == name and t.facts[i] is not None]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    witnesses = facts("elehot.elehot")
    out = {
        "graphcore.find_induced.calls": per_op(calls, "graphcore.find_induced"),
        "graphcore.find_induced.hit_ratio": mean(facts("graphcore.find_induced")),
        "linegraph.line_graph.calls_per_op": per_op(calls, "linegraph.line_graph"),
        "linegraph.recognize_line_graph.self_s": per_op(self_time, "linegraph.recognize_line_graph"),
        "elehot.witness.s": _witness_time(t, loop_start, hi) / ops,
        "elehot.witness.forbidden_ratio": mean(found for found, _ in witnesses),
        "elehot.witness.vertices": mean(size for _, size in witnesses),
        "forbidden.load_catalog.s": setup_total.get("forbidden.load_catalog", 0.0),
        "matching.max_weight_matching.calls": per_op(calls, "matching.max_weight_matching"),
        "matching.max_weight_matching.edges_per_call": mean(facts("matching.max_weight_matching")),
        "scheduler.schedule_slot.self_s": per_op(self_time, "scheduler.schedule_slot"),
        "scheduler.slot.nonempty_ratio": mean(facts("scheduler.schedule_slot")),
        "scheduler.build_pipeline.setup_s": setup_total.get("scheduler.build_pipeline", 0.0),
        "scheduler.simulate.self_s": per_op(self_time, "scheduler.simulate"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for name, _, _, _ in PER_LAYER:
        if name not in out and name.endswith(".s"):
            out[name] = per_op(total, name[: -len(".s")])
    return {name: out[name] for name, _, _, _ in PER_LAYER}
