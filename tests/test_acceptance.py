"""Acceptance gate: ten oracle- and property-based criteria, one per test.

Each test prints exactly one ``[criterion NN] PASS/FAIL`` line (bypassing
pytest's capture, so the lines are visible in any run mode) and then asserts.
Everything runs at desk scale with fixed seeds; the whole module takes a few
minutes.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from linemg import (
    Multigraph,
    NotLineGraph,
    NotLineMultigraph,
    SimpleGraph,
    VertexEdgeMap,
    brute_force_mwis,
    brute_force_mwm,
    build_pipeline,
    contract_twins,
    derive_minimal_forbidden,
    elehot,
    enumerate_connected,
    is_isomorphic,
    krausz_oracle,
    line_graph,
    load_catalog,
    max_weight_matching,
    parse_graph,
    recognize_line_graph,
    reduce_multigraph,
    schedule_slot,
    simulate,
    true_twin_classes,
    verify_root,
)
from linemg.scheduler import ROOT_MWM
from tests.helpers import (
    random_connected_multigraph,
    random_multigraph,
    random_simple_graph,
    scan,
)


def report(capfd, num, name, ok, detail=""):
    with capfd.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[criterion {num:2d}] {status} {name}{suffix}", flush=True)
    assert ok, f"criterion {num} {name} {detail}"


def test_criterion_01_forbidden_family_reproduction(capfd):
    t0 = time.perf_counter()
    derived = derive_minimal_forbidden(7)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600
    ok &= len(enumerate_connected(7)) == 996
    ok &= len(derived) == 7
    claw = SimpleGraph.from_edges(4, [(0, 3), (1, 3), (2, 3)])
    ok &= any(is_isomorphic(e.graph, claw) is not None for e in derived.entries)
    for entry in derived.entries:
        ok &= all(len(c) == 1 for c in true_twin_classes(entry.graph))
        ok &= not krausz_oracle(entry.graph)
        for v in range(entry.graph.n_vertices):
            rest = [u for u in range(entry.graph.n_vertices) if u != v]
            ok &= krausz_oracle(entry.graph.induced(rest)[0])
    # agreement with the packaged transcription, entry for entry
    packaged = load_catalog("multigraph7")
    ok &= all(
        is_isomorphic(d.graph, p.graph) is not None
        for d, p in zip(derived.entries, packaged.entries)
    )
    report(
        capfd, 1, "derive_minimal_forbidden(7) = the 7 minimal graphs",
        ok, f"{elapsed:.1f}s over 996 graphs",
    )


def test_criterion_02_three_way_recognition_equivalence(capfd):
    graphs = enumerate_connected(6)
    ok = len(graphs) == 143
    catalog = load_catalog("multigraph7")
    members = 0
    for g in graphs:
        try:
            result = elehot(g)
            via_elehot = verify_root(g, result)
        except NotLineMultigraph:
            via_elehot = False
        via_krausz = krausz_oracle(g)
        via_scan = not scan(g, catalog)
        ok &= via_elehot == via_krausz == via_scan
        members += via_elehot
    report(
        capfd, 2, "elehot = krausz oracle = forbidden scan on all 143 graphs",
        ok, f"{members} members",
    )


def test_criterion_03_simple_recognition_matches_beineke_scan(capfd):
    graphs = enumerate_connected(6)
    ok = len(graphs) == 143
    catalog = load_catalog("beineke9")
    members = 0
    for g in graphs:
        try:
            recognize_line_graph(g)
            recognized = True
        except NotLineGraph:
            recognized = False
        ok &= recognized == (not scan(g, catalog))
        members += recognized
    report(
        capfd, 3, "simple recognition = beineke scan on all 143 graphs",
        ok, f"{members} members",
    )


def test_criterion_04_root_reconstruction_round_trip(capfd):
    rng = random.Random(4)
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        r = random_multigraph(rng, max_n=12, max_m=30)
        gc = line_graph(r).graph
        try:
            result = elehot(gc)
            ok &= verify_root(gc, result)
            ok &= result.map == VertexEdgeMap.identity(gc.n_vertices)
        except NotLineMultigraph:
            ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    report(
        capfd, 4, "1000 random multigraph roots reconstructed and verified",
        ok, f"{elapsed:.1f}s",
    )


def test_criterion_05_twin_contraction_lemma(capfd):
    rng = random.Random(5)
    ok = True
    for _ in range(1000):
        g = random_simple_graph(rng, rng.randint(1, 12), rng.random())
        tp = contract_twins(g)
        ok &= all(len(c) == 1 for c in true_twin_classes(tp.h))
        again = contract_twins(tp.h)
        ok &= again.h.adj == tp.h.adj and again.weights == (1,) * tp.h.n_vertices
    report(capfd, 5, "contraction is twin-free and idempotent on 1000 graphs", ok)


def test_criterion_06_matching_exactness(capfd):
    rng = random.Random(6)
    ok = True
    checked = 0
    for g in enumerate_connected(7):
        pairs = g.edge_list
        for _ in range(3):
            weights = [Fraction(rng.randint(0, 100)) for _ in pairs]
            mg = Multigraph.from_pairs(g.n_vertices, pairs, weights)
            ok &= max_weight_matching(mg).weight == brute_force_mwm(mg).weight
            checked += 1
    for _ in range(500):
        r = random_multigraph(rng, max_n=10, max_m=20)
        weighted = Multigraph.from_pairs(
            r.n_vertices,
            [e.pair for e in r.edges],
            [Fraction(rng.randint(0, 50), rng.randint(1, 3)) for _ in r.edges],
        )
        simple = reduce_multigraph(weighted).simple
        ok &= max_weight_matching(simple).weight == brute_force_mwm(simple).weight
        checked += 1
    report(capfd, 6, "blossom weight = brute-force weight", ok, f"{checked} instances")


def test_criterion_07_schedule_weight_equals_mwis(capfd):
    rng = random.Random(7)
    ok = True
    for _ in range(300):
        network = random_multigraph(rng, max_n=7, max_m=12, min_n=2, min_m=1)
        pipeline = build_pipeline(network, 1)
        ok &= pipeline.mode == ROOT_MWM
        queues = [rng.randint(0, 20) for _ in range(network.n_edges)]
        links = schedule_slot(pipeline, queues)
        _, optimal = brute_force_mwis(pipeline.conflict.graph, queues)
        ok &= sum(queues[l] for l in links) == optimal
    report(capfd, 7, "ROOT_MWM schedule weight = brute MWIS weight, 300 runs", ok)


def test_criterion_08_simulator_stability_contrast(capfd):
    star = Multigraph.from_pairs(4, [(0, 3), (1, 3), (2, 3)])
    pipeline = build_pipeline(star, 1)
    t0 = time.perf_counter()
    stable = simulate(pipeline, [0.25, 0.25, 0.25], 100_000, seed=7)
    t_stable = time.perf_counter() - t0
    t0 = time.perf_counter()
    overloaded = simulate(pipeline, [0.4, 0.4, 0.4], 100_000, seed=7)
    t_over = time.perf_counter() - t0
    ok = stable.mean_queue_total < 50
    ok &= sum(overloaded.final_queues) >= 10_000
    ok &= t_stable < 30 and t_over < 30
    report(
        capfd, 8, "stability contrast on the 3-link star",
        ok,
        f"mean={stable.mean_queue_total:.2f}, final={sum(overloaded.final_queues)}, "
        f"{t_stable:.1f}s/{t_over:.1f}s",
    )


def test_criterion_09_near_cubic_scaling(capfd):
    rng = random.Random(9)

    def timed(m_edges: int) -> float:
        n = max(3, (2 * m_edges) // 3)
        best = float("inf")
        for _ in range(3):
            r = random_connected_multigraph(rng, n, m_edges)
            gc = line_graph(r).graph
            t0 = time.perf_counter()
            result = elehot(gc)
            best = min(best, time.perf_counter() - t0)
            assert verify_root(gc, result)
        return best

    t50 = timed(50)
    t400 = timed(400)
    # middle sizes are exercised for the record but the bound uses the ends
    timed(100)
    timed(200)
    ratio = t400 / t50 if t50 > 0 else float("inf")
    ok = ratio <= 1024
    report(
        capfd, 9, "elehot runtime scaling 50 -> 400 within 2 x 8^3",
        ok, f"ratio {ratio:.0f} ({t50 * 1e3:.1f}ms -> {t400 * 1e3:.1f}ms)",
    )


def test_criterion_10_cli_round_trip(capfd, tmp_path):
    rng = random.Random(10)

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "linemg", *args],
            capture_output=True,
            text=True,
        )

    # networks whose conflict graphs admit roots for BOTH hop counts, so the
    # full round trip is exercised 40 times; membership at M=2 is pre-checked
    # in process (line-multigraph conflict graphs are not guaranteed there)
    networks = []
    draws = 0
    while len(networks) < 20 and draws < 400:
        draws += 1
        candidate = random_multigraph(rng, max_n=6, max_m=9, min_n=2, min_m=1)
        try:
            from linemg import conflict_graph

            elehot(conflict_graph(candidate, 2).graph)
        except NotLineMultigraph:
            continue
        networks.append(candidate)
    ok = len(networks) == 20

    from linemg import serialize_graph

    for i, network in enumerate(networks):
        net_path = tmp_path / f"net{i}.txt"
        net_path.write_text(serialize_graph(network))
        for hops in (1, 2):
            gc_path = tmp_path / f"gc{i}_{hops}.txt"
            root_path = tmp_path / f"root{i}_{hops}.txt"
            ok &= cli("conflict", str(net_path), "--hops", str(hops), "--out", str(gc_path)).returncode == 0
            ok &= cli("root", str(gc_path), "--out", str(root_path)).returncode == 0
            if not ok:
                break
            gc = parse_graph(gc_path.read_text()).to_simple_graph()
            root = parse_graph(root_path.read_text())
            to_gc = {}
            for line in (tmp_path / f"root{i}_{hops}.txt.map.csv").read_text().splitlines()[1:]:
                v, e = line.split(",")
                to_gc[int(e)] = int(v)
            lg = line_graph(root).graph
            translated = {
                (min(to_gc[u], to_gc[v]), max(to_gc[u], to_gc[v]))
                for u, v in lg.edge_list
            }
            ok &= translated == set(gc.edge_list)
            ok &= lg.n_vertices == gc.n_vertices
    report(capfd, 10, "CLI conflict -> root -> line graph round trip, 20 x {1,2}", ok)
