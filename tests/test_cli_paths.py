"""In-process command-line checks: ``forbidden`` on large inputs, the "root"
policy on a non-member, and the input errors that exit with code 2."""

import random
import sys
import time

import pytest

from linemg import Multigraph, SimpleGraph, line_graph, load_catalog, serialize_graph
from linemg import cli
from linemg.scheduler import EXACT_LIMIT
from tests.helpers import is_induced_at, random_connected_multigraph

P4 = "v 4\ne 0 1\ne 1 2\ne 2 3\n"
# six links in a row: at two hops the conflict graph has no root
PATH6 = "v 7\n" + "".join(f"e {i} {i + 1}\n" for i in range(6))


@pytest.fixture
def write(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def graph_file(write, name, g: SimpleGraph) -> str:
    text = serialize_graph(Multigraph.from_pairs(g.n_vertices, g.edge_list))
    return write(name, text)


@pytest.fixture(scope="module")
def member() -> SimpleGraph:
    # the line graph of a random connected multigraph with 1000 edges
    return line_graph(random_connected_multigraph(random.Random(25), 300, 1000)).graph


def test_forbidden_accepts_a_1000_vertex_member_within_a_second(write, member, capsys):
    path = graph_file(write, "member.txt", member)
    t0 = time.perf_counter()
    code = cli.main(["forbidden", path])
    elapsed = time.perf_counter() - t0
    assert (code, *capsys.readouterr()) == (0, "", "hits: 0\n")
    assert elapsed < 1.0, f"{elapsed:.2f}s"


@pytest.mark.parametrize("name", [f"F{i}" for i in range(1, 8)])
def test_forbidden_names_an_entry_planted_in_a_1000_vertex_member(
    write, member, capsys, name
):
    entry = {e.name: e.graph for e in load_catalog("multigraph7").entries}[name]
    n, k = member.n_vertices, entry.n_vertices
    perm = list(range(n + k))
    random.Random(name).shuffle(perm)
    edges = [*member.edge_list, *((n + u, n + v) for u, v in entry.edge_list)]
    host = SimpleGraph.from_edges(n + k, [(perm[u], perm[v]) for u, v in edges])
    code = cli.main(["forbidden", graph_file(write, "host.txt", host)])
    out, err = capsys.readouterr()
    label, hosts = out.rstrip("\n").split(": ")
    mapping = [int(v) for v in hosts.split()]
    assert (code, err, label) == (1, "hits: 1\n", name)
    assert sorted(mapping) == sorted(perm[n:])
    assert is_induced_at(host, entry, mapping)


# ------------------------------------------------- "root" policy, non-member


def test_schedule_with_root_policy_on_a_non_member_exits_one(write, capsys):
    net = write("path6.txt", PATH6)
    queues = write("q.csv", "link_id,value\n" + "".join(f"{i},1\n" for i in range(6)))
    args = ["schedule", net, "--hops", "2", "--queues", queues]
    code = cli.main([*args, "--policy", "root"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "forbidden induced subgraph F" in err and "Traceback" not in err


def test_simulate_with_root_policy_on_a_non_member_exits_one(write, capsys):
    net = write("path6.txt", PATH6)
    rates = write("r.csv", "link_id,value\n0,1/4\n")
    args = ["simulate", net, "--hops", "2", "--rates", rates, "--slots", "5"]
    code = cli.main([*args, "--policy", "root"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "forbidden induced subgraph F" in err and "Traceback" not in err


# ------------------------------------------------------------ input errors


def usage_error(capsys, *args) -> str:
    assert cli.main(list(args)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


def test_unreadable_vector_file(write, capsys):
    p4 = write("p4.txt", P4)
    args = ["schedule", p4, "--hops", "1", "--queues", p4 + ".missing"]
    assert "cannot read" in usage_error(capsys, *args)


def test_parallel_edges_where_a_simple_graph_is_needed(write, capsys):
    doubled = write("d.txt", "v 2\ne 0 1\ne 0 1\n")
    assert "parallel edges" in usage_error(capsys, "recognize", doubled)


def test_mwis_limits_and_unknown_weight_rows(write, capsys):
    big = write("big.txt", "v 26\n")
    assert "25 vertices" in usage_error(capsys, "mwis", big)
    p4 = write("p4.txt", P4)
    weights = write("w.csv", "link_id,value\n0,1\n7,2\n")
    err = usage_error(capsys, "mwis", p4, "--weights", weights)
    assert "unknown vertices: [7]" in err


def test_simulate_unknown_rate_rows(write, capsys):
    rates = write("r.csv", "link_id,value\n3,1/2\n")
    p4 = write("p4.txt", P4)
    args = ["simulate", p4, "--hops", "1", "--rates", rates, "--slots", "2"]
    assert "unknown links: [3]" in usage_error(capsys, *args)


def test_exact_policy_over_the_limit(write, capsys):
    links = EXACT_LIMIT + 1
    edges = "".join(f"e {i} {links}\n" for i in range(links))
    star = write("star.txt", f"v {links + 1}\n{edges}")
    queues = write("q.csv", "link_id,value\n0,1\n")
    args = ["schedule", star, "--hops", "1", "--queues", queues, "--policy", "exact"]
    assert "exact limit" in usage_error(capsys, *args)


@pytest.mark.parametrize(
    "args",
    [
        ["schedule", "--hops", "0", "--queues", "q.csv"],
        ["simulate", "--hops", "0", "--rates", "r.csv", "--slots", "5"],
        ["simulate", "--hops", "1", "--rates", "r.csv", "--slots", "0"],
        ["derive", "--max-n", "0"],
    ],
)
def test_counts_below_one_exit_two_before_any_file_is_read(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, *(["net.txt"] if args[0] != "derive" else [])])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


def test_a_closed_stdout_ends_quietly(write, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["linegraph", write("p4.txt", P4)]) == 0
