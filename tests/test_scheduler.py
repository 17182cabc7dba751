"""Pipeline construction, per-slot scheduling, the simulator, and CSV I/O."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linemg import (
    EXACT_MWIS,
    GREEDY,
    ROOT_MWM,
    Multigraph,
    NotLineMultigraph,
    SimpleGraph,
    brute_force_mwis,
    build_pipeline,
    greedy_mwis,
    load_catalog,
    schedule_slot,
    simulate,
)
from linemg import forbidden
from linemg.scheduler import (
    EXACT_LIMIT,
    read_vector_csv,
    write_slots_csv,
    write_slots_jsonl,
    write_summary_csv,
    write_vector_csv,
)
from tests.helpers import is_induced_at, random_multigraph

P4 = Multigraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
STAR = Multigraph.from_pairs(4, [(0, 3), (1, 3), (2, 3)])
# a 3-legged spider: center 0, legs of length 2; its 2-hop conflict graph
# contains a claw (the three outer links all conflict with any inner link
# but not with each other), so the root route is unavailable
SPIDER = Multigraph.from_pairs(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
# the same shape with 13 legs: 26 links, one more than EXACT_LIMIT
SPIDER13 = Multigraph.from_pairs(
    27, [pair for k in range(13) for pair in ((0, 2 * k + 1), (2 * k + 1, 2 * k + 2))]
)


# ----------------------------------------------------------------- pipeline


def test_pipeline_p4_hops1_takes_root_route():
    p = build_pipeline(P4, 1)
    assert p.mode == ROOT_MWM
    assert p.root is not None
    assert p.root.root.n_edges == 3


def test_pipeline_p4_hops2_contracts_triangle():
    p = build_pipeline(P4, 2)
    assert p.mode == ROOT_MWM
    assert [e.pair for e in p.root.root.edges] == [(0, 1)] * 3


def test_pipeline_spider_falls_back_to_exact():
    p = build_pipeline(SPIDER, 2)
    assert p.mode == EXACT_MWIS
    assert p.root is None


def test_pipeline_greedy_fallback_beyond_exact_limit():
    assert SPIDER13.n_edges == EXACT_LIMIT + 1
    p = build_pipeline(SPIDER13, 2)
    assert p.mode == GREEDY


def test_pipeline_fallback_builds_no_witness(monkeypatch):
    def boom(*args):
        raise AssertionError("build_pipeline built a witness")

    monkeypatch.setattr(forbidden, "find_induced", boom)
    monkeypatch.setattr(forbidden, "load_catalog", boom)
    assert build_pipeline(SPIDER13, 2).mode == GREEDY


def test_pipeline_records_why_root_was_ruled_out():
    assert build_pipeline(P4, 1).rejection is None
    assert build_pipeline(SPIDER, 2, policy="exact").rejection is None
    p = build_pipeline(SPIDER, 2)
    assert isinstance(p.rejection, NotLineMultigraph)
    w = p.rejection.witness
    entries = {e.name: e.graph for e in load_catalog("multigraph7").entries}
    assert w.pattern == entries[w.name]
    assert is_induced_at(p.conflict.graph, w.pattern, w.embedding.mapping)


def test_pipeline_rejection_leaves_no_reference_cycle():
    # a caught exception keeps frames (and through them itself) alive
    build_pipeline(SPIDER13, 2)
    gc.collect()
    gc.disable()
    try:
        p = build_pipeline(SPIDER13, 2)
        assert p.rejection is not None
        del p
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pipeline_forced_policies():
    assert build_pipeline(P4, 1, policy="exact").mode == EXACT_MWIS
    assert build_pipeline(P4, 1, policy="greedy").mode == GREEDY
    with pytest.raises(Exception):
        build_pipeline(SPIDER, 2, policy="root")
    with pytest.raises(ValueError):
        build_pipeline(P4, 1, policy="bogus")
    with pytest.raises(ValueError):
        build_pipeline(SPIDER13, 2, policy="exact")


# ------------------------------------------------------------ schedule_slot


def test_schedule_examples_from_both_hop_counts():
    assert schedule_slot(build_pipeline(P4, 1), [3, 1, 2]) == (0, 2)
    assert schedule_slot(build_pipeline(P4, 2), [3, 1, 2]) == (0,)


def test_schedule_accepts_sparse_mapping():
    p = build_pipeline(P4, 1)
    assert schedule_slot(p, {0: 3, 2: 2}) == (0, 2)
    with pytest.raises(ValueError):
        schedule_slot(p, {5: 1})


def test_schedule_skips_empty_queues():
    p = build_pipeline(P4, 1)
    assert schedule_slot(p, [0, 0, 0]) == ()
    assert schedule_slot(p, [0, 4, 0]) == (1,)


def test_schedule_validates_queues():
    p = build_pipeline(P4, 1)
    with pytest.raises(ValueError):
        schedule_slot(p, [1, 2])
    with pytest.raises(ValueError):
        schedule_slot(p, [1, -2, 1])
    with pytest.raises(ValueError):
        schedule_slot(p, [1, 2.5, 1])


def test_schedule_result_is_independent_in_conflict_graph():
    rng = random.Random(3)
    for hops in (1, 2):
        p = build_pipeline(SPIDER, hops)
        gc = p.conflict.graph
        for _ in range(25):
            q = [rng.randint(0, 9) for _ in range(SPIDER.n_edges)]
            chosen = schedule_slot(p, q)
            for a in chosen:
                assert q[a] > 0
                for b in chosen:
                    if a != b:
                        assert b not in gc.adj[a]


def test_greedy_slots_are_greedy_mwis_on_the_live_links():
    # SPIDER13 at 2 hops has one link more than the exact solver takes, so
    # every slot of this simulation runs greedy_mwis on the conflict graph
    p = build_pipeline(SPIDER13, 2)
    assert p.mode == GREEDY
    conflict = p.conflict.graph
    log = simulate(p, [0.3] * SPIDER13.n_edges, 200, seed=5)
    queues = [0] * SPIDER13.n_edges
    for r in log.records:
        chosen, _ = greedy_mwis(conflict, queues)
        assert r.scheduled == tuple(link for link in chosen if queues[link] > 0)
        for a in r.scheduled:
            assert queues[a] > 0
            assert not conflict.adj[a] & set(r.scheduled)
        for link in r.scheduled:
            queues[link] -= 1
        for link in r.arrivals:
            queues[link] += 1
    assert tuple(queues) == log.final_queues
    assert sum(len(r.scheduled) for r in log.records) > 0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_root_schedule_on_sparse_queues_is_a_maximum_weight_matching(seed):
    # random multigraph networks (parallel links, isolated nodes) with mostly
    # empty queues and many tied values; brute_force_mwis is the oracle
    rng = random.Random(seed)
    net = random_multigraph(rng, max_n=10, max_m=14, min_m=1)
    for hops in (1, 2):
        p = build_pipeline(net, hops)
        if p.mode != ROOT_MWM:
            continue
        root = p.root.root
        for _ in range(4):
            q = [rng.choice((1, 2, 2)) if rng.random() < 0.3 else 0 for _ in range(net.n_edges)]
            chosen = schedule_slot(p, q)
            assert all(q[link] > 0 for link in chosen)
            ends = [x for link in chosen for x in root.edges[link].pair]
            assert len(ends) == len(set(ends))
            _, best = brute_force_mwis(p.conflict.graph, q)
            assert sum(q[link] for link in chosen) == best


# Recorded from a matching over the whole root (every link, empty or not,
# handed to blossom), so dropping empty links must not move a tie-break: 29
# of these 40 slots have more than one maximum-weight schedule.
PINNED_NETWORK = Multigraph.from_pairs(
    9,
    [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (1, 3),
     (3, 4), (4, 5), (5, 6), (6, 4), (4, 5), (6, 7)],
)
PINNED_SCHEDULES = [
    (), (2, 7), (1, 6, 11), (0, 3, 10), (5, 9), (1, 6, 8), (2, 4, 7, 11),
    (0, 6, 8), (0, 3, 7, 11), (0, 3, 10, 11), (1, 3, 9), (0, 6, 8), (2, 4, 10),
    (5, 9), (1, 3, 9), (2, 4, 8), (1, 6, 8), (0, 6, 8), (5, 10, 11), (5, 7, 11),
    (2, 4, 10), (0, 3, 9), (5, 10, 11), (1, 6, 8), (5, 9), (0, 3, 7),
    (2, 4, 10, 11), (5, 10, 11), (0, 6, 8), (2, 4, 9), (1, 3, 9), (5, 7, 11),
    (0, 6, 8), (2, 4, 7), (0, 6, 8), (1, 3, 10), (5, 7, 11), (2, 4, 10, 11),
    (5, 9), (1, 3, 7, 11),
]


def test_simulate_pins_tied_schedules():
    p = build_pipeline(PINNED_NETWORK, 1)
    assert p.mode == ROOT_MWM
    log = simulate(p, [0.4] * PINNED_NETWORK.n_edges, 40, seed=2024)
    assert [r.scheduled for r in log.records] == PINNED_SCHEDULES
    assert log.final_queues == (5, 6, 4, 5, 8, 9, 9, 8, 5, 8, 9, 0)


def test_root_and_exact_modes_agree_on_weight():
    rng = random.Random(9)
    p_root = build_pipeline(P4, 1)
    p_exact = build_pipeline(P4, 1, policy="exact")
    for _ in range(30):
        q = [rng.randint(0, 12) for _ in range(3)]
        w_root = sum(q[l] for l in schedule_slot(p_root, q))
        w_exact = sum(q[l] for l in schedule_slot(p_exact, q))
        assert w_root == w_exact


def test_greedy_is_suboptimal_on_weighted_path():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    chosen, weight = greedy_mwis(p3, [3, 4, 3])
    assert chosen == (1,) and weight == 4
    _, optimal = brute_force_mwis(p3, [3, 4, 3])
    assert optimal == 6


def test_greedy_tie_breaks_toward_smallest_id():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    chosen, _ = greedy_mwis(p3, [2, 2, 2])
    assert chosen == (0, 2)
    claw = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert greedy_mwis(claw, [1, 1, 1, 1])[0] == (0,)


def test_independent_set_totals_stay_int_for_int_weights():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    for solver in (greedy_mwis, brute_force_mwis):
        _, total = solver(p3, [3, 4, 3])
        assert type(total) is int
        _, total = solver(p3, [Fraction(3, 2), 1, 1])
        assert total == Fraction(5, 2)


# ---------------------------------------------------------------- simulator


def test_simulate_is_deterministic_per_seed():
    p = build_pipeline(STAR, 1)
    a = simulate(p, [0.3, 0.3, 0.3], 200, seed=42)
    b = simulate(p, [0.3, 0.3, 0.3], 200, seed=42)
    assert a == b
    c = simulate(p, [0.3, 0.3, 0.3], 200, seed=43)
    assert a != c


def test_simulate_zero_rate_keeps_queues_empty():
    p = build_pipeline(P4, 1)
    log = simulate(p, [0, 0, 0], 50, seed=1)
    assert log.final_queues == (0, 0, 0)
    assert log.mean_queue_total == 0
    assert all(r.scheduled == () for r in log.records)


def test_simulate_rate_one_single_link():
    p = build_pipeline(Multigraph.from_pairs(2, [(0, 1)]), 1)
    log = simulate(p, [1.0], 100, seed=0)
    # one packet arrives and one departs every slot after the first
    assert log.final_queues == (1,)
    assert log.throughput[0] == pytest.approx(0.99)


def test_simulate_conservation_of_packets():
    p = build_pipeline(SPIDER, 2)
    log = simulate(p, [0.2] * 6, 500, seed=7)
    arrived = sum(len(r.arrivals) for r in log.records)
    served = round(sum(log.throughput) * log.slots)
    assert arrived - served == sum(log.final_queues)
    assert log.records[-1].queue_total == sum(log.final_queues)


def test_simulate_validates_inputs():
    p = build_pipeline(P4, 1)
    with pytest.raises(ValueError):
        simulate(p, [0.5, 0.5], 10, seed=0)
    with pytest.raises(ValueError):
        simulate(p, [0.5, 1.5, 0.5], 10, seed=0)
    with pytest.raises(ValueError):
        simulate(p, [0.5, 0.5, 0.5], 0, seed=0)


def test_stability_contrast_on_star():
    # under the capacity line (sum of rates < 1 service per slot) queues stay
    # near zero; above it they grow roughly (sum - 1) per slot
    p = build_pipeline(STAR, 1)
    stable = simulate(p, [0.25] * 3, 4000, seed=7)
    assert stable.mean_queue_total < 20
    overloaded = simulate(p, [0.4] * 3, 4000, seed=7)
    assert sum(overloaded.final_queues) > 400


# -------------------------------------------------------------------- CSV IO


def test_vector_csv_round_trip():
    text = write_vector_csv([Fraction(3), Fraction(1, 2)])
    assert text == "link_id,value\n0,3\n1,1/2\n"
    back = read_vector_csv(text)
    assert back == {0: Fraction(3), 1: Fraction(1, 2)}


@pytest.mark.parametrize(
    "text",
    [
        "",
        "wrong,header\n0,1\n",
        "link_id,value\n0,1\n0,2\n",  # duplicate
        "link_id,value\nx,1\n",
        "link_id,value\n0,1,2\n",
        "link_id,value\n0,1/0\n",
    ],
)
def test_vector_csv_rejects_malformed(text):
    with pytest.raises(ValueError):
        read_vector_csv(text)


def test_slot_outputs_have_documented_headers():
    p = build_pipeline(P4, 1)
    log = simulate(p, [0.5, 0.2, 0.5], 5, seed=3)
    slots = write_slots_csv(log)
    assert slots.startswith("slot,served,arrivals,queue_total\n")
    assert len(slots.strip().splitlines()) == 6
    summary = write_summary_csv(log)
    assert summary.startswith("link_id,throughput\n")
    jsonl = write_slots_jsonl(log)
    import json

    first = json.loads(jsonl.splitlines()[0])
    assert set(first) == {"slot", "scheduled", "arrivals", "queue_total"}
