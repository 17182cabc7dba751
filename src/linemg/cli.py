"""Command-line front end.

Subcommands wire the library together: recognition (``recognize``), root
extraction (``root``), line/conflict-graph construction (``linegraph``,
``conflict``), forbidden-subgraph scanning and derivation (``forbidden``,
``derive``), matching/independent-set solvers (``mwm``, ``mwis``), and
scheduling (``schedule``, ``simulate``).

Conventions shared by every subcommand:

* exit 0 = success / positive answer, exit 1 = negative answer (not a line
  multigraph, forbidden subgraphs found), exit 2 = usage or input error;
* diagnostics go to stderr, data to stdout or to ``--out PATH``;
* commands that also produce a vertex/edge map write it next to the primary
  output as ``PATH.map.csv`` (and therefore require ``--out``).

Graphs travel in the edge-list format of :func:`linemg.parse_graph`; weight
vectors (queues, arrival rates, vertex weights) travel as two-column CSV with
header ``link_id,value``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .graphcore import GraphFormatError, Multigraph, parse_graph, serialize_graph
from .linegraph import NotLineGraph, conflict_graph, line_graph
from .elehot import NotLineMultigraph, elehot
from .forbidden import derive_minimal_forbidden, load_catalog, scan
from .matching import brute_force_mwis, max_weight_matching, reduce_multigraph
from .scheduler import (
    build_pipeline,
    read_vector_csv,
    schedule_slot,
    simulate,
    write_slots_csv,
    write_slots_jsonl,
    write_summary_csv,
)


class UsageError(Exception):
    """Bad flags or malformed input; maps to exit code 2."""


def _load_graph(path: str) -> Multigraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return parse_graph(text)
    except GraphFormatError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_vector(path: str) -> dict[int, Fraction]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return read_vector_csv(text)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_map(out: str, header: str, rows: list[tuple[int, int]]) -> str:
    map_path = out + ".map.csv"
    with open(map_path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for a, b in rows:
            fh.write(f"{a},{b}\n")
    return map_path


def _decimal(value) -> str:
    """``str(value)``, with a number past the interpreter's limit on digits
    converted to text reported as an input error instead of a crash."""
    try:
        return str(value)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise UsageError(f"result has more than {limit} digits") from exc


def _multiplicity_histogram(g: Multigraph) -> str:
    counts: dict[int, int] = {}
    for mult in g.multiplicity.values():
        counts[mult] = counts.get(mult, 0) + 1
    return " ".join(f"{mult}x{counts[mult]}" for mult in sorted(counts))


# ---------------------------------------------------------------- subcommands


def cmd_recognize(args) -> int:
    g = _load_graph(args.graph)
    try:
        simple = g.to_simple_graph()
    except ValueError as exc:
        raise UsageError(f"{args.graph}: {exc}") from exc
    try:
        if args.mode == "multi":
            result = elehot(simple)
        else:
            from .linegraph import recognize_line_graph

            result = recognize_line_graph(simple)
    except (NotLineGraph, NotLineMultigraph) as exc:
        print("NO")
        print(exc, file=sys.stderr)
        return 1
    root = result.root
    print("YES")
    print(f"vertices: {root.n_vertices}")
    print(f"edges: {len(root.edges)}")
    print(f"multiplicities: {_multiplicity_histogram(root)}")
    return 0


def cmd_root(args) -> int:
    g = _load_graph(args.graph)
    try:
        simple = g.to_simple_graph()
    except ValueError as exc:
        raise UsageError(f"{args.graph}: {exc}") from exc
    try:
        result = elehot(simple)
    except NotLineMultigraph as exc:
        print(exc, file=sys.stderr)
        return 1
    text = serialize_graph(result.root)
    _write_text(args.out, text)
    if args.out is not None:
        rows = [(v, result.map.edge_of_vertex[v]) for v in range(simple.n_vertices)]
        map_path = _write_map(args.out, "gc_vertex,root_edge", rows)
        print(f"wrote {args.out} and {map_path}", file=sys.stderr)
    return 0


def _emit_line_result(args, result, map_header: str) -> int:
    text = serialize_graph(
        Multigraph.from_pairs(result.graph.n_vertices, result.graph.edge_list)
    )
    _write_text(args.out, text)
    if args.out is not None:
        vmap = result.map.vertex_of_edge
        rows = [(eid, vmap[eid]) for eid in range(len(vmap))]
        map_path = _write_map(args.out, map_header, rows)
        print(f"wrote {args.out} and {map_path}", file=sys.stderr)
    return 0


def cmd_linegraph(args) -> int:
    g = _load_graph(args.graph)
    result = line_graph(g)
    return _emit_line_result(args, result, "link_id,line_vertex")


def cmd_conflict(args) -> int:
    if args.hops < 1:
        raise UsageError("--hops must be a positive integer")
    g = _load_graph(args.network)
    result = conflict_graph(g, args.hops)
    return _emit_line_result(args, result, "link_id,gc_vertex")


def cmd_forbidden(args) -> int:
    g = _load_graph(args.graph)
    try:
        simple = g.to_simple_graph()
    except ValueError as exc:
        raise UsageError(f"{args.graph}: {exc}") from exc
    try:
        catalog = load_catalog(args.catalog)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    hits = scan(simple, catalog)
    for name, emb in hits:
        print(f"{name}: {' '.join(str(v) for v in emb.mapping)}")
    print(f"hits: {len(hits)}", file=sys.stderr)
    return 1 if hits else 0


def cmd_derive(args) -> int:
    if not 1 <= args.max_n <= 7:
        raise UsageError("--max-n must be between 1 and 7")
    catalog = derive_minimal_forbidden(args.max_n)
    blocks = []
    for entry in catalog.entries:
        lines = [f"# name: {entry.name}", f"v {entry.graph.n_vertices}"]
        lines.extend(f"e {u} {v}" for u, v in entry.graph.edge_list)
        blocks.append("\n".join(lines))
    _write_text(args.out, "\n".join(blocks) + "\n")
    print(f"entries: {len(catalog.entries)}", file=sys.stderr)
    return 0


def cmd_mwm(args) -> int:
    g = _load_graph(args.graph)
    reduction = reduce_multigraph(g)
    matching = max_weight_matching(reduction.simple)
    chosen = sorted(reduction.survivor[i] for i in matching.edges)
    weight = _decimal(matching.weight)
    print(f"edges: {' '.join(str(e) for e in chosen)}")
    print(f"weight: {weight}")
    return 0


def cmd_mwis(args) -> int:
    g = _load_graph(args.graph)
    try:
        simple = g.to_simple_graph()
    except ValueError as exc:
        raise UsageError(f"{args.graph}: {exc}") from exc
    if simple.n_vertices > 25:
        raise UsageError("mwis is exhaustive and limited to 25 vertices")
    if args.weights is not None:
        vector = _load_vector(args.weights)
        unknown = set(vector) - set(range(simple.n_vertices))
        if unknown:
            raise UsageError(f"weight rows for unknown vertices: {sorted(unknown)}")
        weights = [vector.get(v, 0) for v in range(simple.n_vertices)]
    else:
        weights = [1] * simple.n_vertices
    try:
        chosen, weight = brute_force_mwis(simple, weights)
    except ValueError as exc:  # a negative weight
        raise UsageError(f"{args.weights}: {exc}") from exc
    weight = _decimal(weight)
    print(f"vertices: {' '.join(str(v) for v in sorted(chosen))}")
    print(f"weight: {weight}")
    return 0


def cmd_schedule(args) -> int:
    if args.hops < 1:
        raise UsageError("--hops must be a positive integer")
    network = _load_graph(args.network)
    queues = _load_vector(args.queues)
    try:
        pipeline = build_pipeline(network, args.hops, policy=args.policy)
        links = schedule_slot(pipeline, queues)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    weight = _decimal(sum(queues[link] for link in links))
    print(f"links: {' '.join(str(link) for link in links)}")
    print(f"weight: {weight}")
    print(f"mode: {pipeline.mode}")
    return 0


def cmd_simulate(args) -> int:
    if args.hops < 1:
        raise UsageError("--hops must be a positive integer")
    if args.slots < 1:
        raise UsageError("--slots must be a positive integer")
    network = _load_graph(args.network)
    vector = _load_vector(args.rates)
    unknown = set(vector) - set(range(network.n_edges))
    if unknown:
        raise UsageError(f"rate rows for unknown links: {sorted(unknown)}")
    rates = [vector.get(link, 0) for link in range(network.n_edges)]
    try:
        pipeline = build_pipeline(network, args.hops, policy=args.policy)
        log = simulate(pipeline, rates, args.slots, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_text(args.out, write_slots_csv(log))
    if args.summary is not None:
        _write_text(args.summary, write_summary_csv(log))
    if args.log is not None:
        _write_text(args.log, write_slots_jsonl(log))
    final_total = sum(log.final_queues)
    print(
        f"slots={log.slots} mode={pipeline.mode} "
        f"mean_queue_total={float(log.mean_queue_total):.4f} "
        f"final_queue_total={final_total}",
        file=sys.stderr,
    )
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linemg",
        description="Line-multigraph recognition, root reconstruction, and "
        "MaxWeight link scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide whether a graph is a line graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument(
        "--mode",
        choices=("simple", "multi"),
        default="multi",
        help="root class: line graph of a simple graph or of a multigraph",
    )
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("root", help="reconstruct a root multigraph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--out", help="write the root here plus OUT.map.csv")
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("linegraph", help="build the line graph of a multigraph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--out", help="write the line graph here plus OUT.map.csv")
    p.set_defaults(func=cmd_linegraph)

    p = sub.add_parser("conflict", help="build the M-hop conflict graph")
    p.add_argument("network", help="edge-list file")
    p.add_argument("--hops", type=int, required=True, help="interference range M >= 1")
    p.add_argument("--out", help="write the conflict graph here plus OUT.map.csv")
    p.set_defaults(func=cmd_conflict)

    p = sub.add_parser("forbidden", help="scan for forbidden induced subgraphs")
    p.add_argument("graph", help="edge-list file")
    p.add_argument(
        "--catalog",
        default="multigraph7",
        help="catalog name: multigraph7 or beineke9",
    )
    p.set_defaults(func=cmd_forbidden)

    p = sub.add_parser("derive", help="re-derive a minimal forbidden catalog")
    p.add_argument("--max-n", type=int, required=True, help="vertex bound (<= 7)")
    p.add_argument("--out", help="write the catalog here (default stdout)")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("mwm", help="maximum-weight matching of a weighted graph")
    p.add_argument("graph", help="edge-list file; parallel edges reduced to heaviest")
    p.set_defaults(func=cmd_mwm)

    p = sub.add_parser("mwis", help="maximum-weight independent set (exhaustive)")
    p.add_argument("graph", help="edge-list file, must be simple")
    p.add_argument("--weights", help="vertex weights CSV (default: all ones)")
    p.set_defaults(func=cmd_mwis)

    p = sub.add_parser("schedule", help="one MaxWeight scheduling decision")
    p.add_argument("network", help="edge-list file")
    p.add_argument("--hops", type=int, required=True, help="interference range M >= 1")
    p.add_argument("--queues", required=True, help="queue CSV (link_id,value)")
    p.add_argument(
        "--policy",
        choices=("auto", "root", "exact", "greedy"),
        default="auto",
        help="scheduler selection policy",
    )
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="slotted-time queueing simulation")
    p.add_argument("network", help="edge-list file")
    p.add_argument("--hops", type=int, required=True, help="interference range M >= 1")
    p.add_argument("--rates", required=True, help="arrival-rate CSV (link_id,value)")
    p.add_argument("--slots", type=int, required=True, help="number of slots")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", help="per-slot totals CSV (default stdout)")
    p.add_argument("--summary", help="optional per-link throughput CSV")
    p.add_argument("--log", help="optional full JSON-lines slot log")
    p.add_argument(
        "--policy",
        choices=("auto", "root", "exact", "greedy"),
        default="auto",
        help="scheduler selection policy",
    )
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
