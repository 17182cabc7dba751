"""End-to-end command-line checks via ``python -m linemg`` subprocesses."""

import subprocess
import sys
from importlib import resources

import pytest

from linemg import Multigraph, line_graph, parse_graph, serialize_graph


def run(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "linemg", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return tmp_path, write


def test_recognize_positive(files):
    _, write = files
    k3 = write("k3.txt", "v 3\ne 0 1\ne 0 2\ne 1 2\n")
    proc = run("recognize", k3)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "YES"
    assert "vertices: 2" in lines and "edges: 3" in lines
    assert "multiplicities: 3x1" in lines


def test_recognize_negative_modes(files):
    _, write = files
    claw = write("claw.txt", "v 4\ne 0 3\ne 1 3\ne 2 3\n")
    multi = run("recognize", claw)
    assert multi.returncode == 1
    assert multi.stdout.strip() == "NO"
    assert "F1" in multi.stderr
    simple = run("recognize", claw, "--mode", "simple")
    assert simple.returncode == 1
    assert "G1" in simple.stderr


def test_recognize_bad_file_is_usage_error(files):
    tmp, write = files
    assert run("recognize", str(tmp / "missing.txt")).returncode == 2
    bad = write("bad.txt", "e 0 1\n")
    proc = run("recognize", bad)
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_recognize_hostile_vertex_count_is_usage_error(files):
    _, write = files
    huge = write("huge.txt", "v 1000000000000\n")
    proc = run("recognize", huge)
    assert proc.returncode == 2
    assert "limit" in proc.stderr


def test_root_writes_graph_and_map(files):
    tmp, write = files
    diamond = write("d.txt", "v 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\n")
    out = str(tmp / "root.txt")
    proc = run("root", diamond, "--out", out)
    assert proc.returncode == 0
    root = parse_graph((tmp / "root.txt").read_text())
    assert root.n_edges == 4 and not root.is_simple()
    map_lines = (tmp / "root.txt.map.csv").read_text().splitlines()
    assert map_lines[0] == "gc_vertex,root_edge"
    assert len(map_lines) == 5
    # root edge v explains conflict vertex v
    assert map_lines[1:] == [f"{v},{v}" for v in range(4)]


def test_root_failure_exits_one(files):
    _, write = files
    claw = write("claw.txt", "v 4\ne 0 3\ne 1 3\ne 2 3\n")
    proc = run("root", claw, "--out", "/dev/null")
    assert proc.returncode == 1
    assert "F1" in proc.stderr


def test_root_stdout_when_no_out(files):
    _, write = files
    c6 = write("c6.txt", "v 6\n" + "".join(f"e {i} {(i + 1) % 6}\n" for i in range(6)))
    proc = run("root", c6)
    assert proc.returncode == 0
    root = parse_graph(proc.stdout)
    assert root.n_vertices == 6 and root.n_edges == 6


def test_conflict_hops_examples(files):
    tmp, write = files
    p4 = write("p4.txt", "v 4\ne 0 1\ne 1 2\ne 2 3\n")
    one = run("conflict", p4, "--hops", "1")
    assert parse_graph(one.stdout).n_edges == 2
    two = run("conflict", p4, "--hops", "2")
    assert parse_graph(two.stdout).n_edges == 3
    zero = run("conflict", p4, "--hops", "0")
    assert zero.returncode == 2


def test_conflict_map_file(files):
    tmp, write = files
    p4 = write("p4.txt", "v 4\ne 0 1\ne 1 2\ne 2 3\n")
    out = str(tmp / "gc.txt")
    run("conflict", p4, "--hops", "1", "--out", out)
    lines = (tmp / "gc.txt.map.csv").read_text().splitlines()
    assert lines == ["link_id,gc_vertex", "0,0", "1,1", "2,2"]


def test_linegraph_command(files):
    tmp, write = files
    tri = write("k3.txt", "v 3\ne 0 1\ne 0 2\ne 1 2\n")
    proc = run("linegraph", tri)
    assert proc.returncode == 0
    assert parse_graph(proc.stdout).n_edges == 3


def test_forbidden_scan_exit_codes(files):
    _, write = files
    claw = write("claw.txt", "v 4\ne 0 3\ne 1 3\ne 2 3\n")
    hit = run("forbidden", claw)
    assert hit.returncode == 1
    assert hit.stdout.splitlines() == ["F1: 0 1 2 3"]
    assert "hits: 1" in hit.stderr
    hit9 = run("forbidden", claw, "--catalog", "beineke9")
    assert hit9.stdout.splitlines() == ["G1: 0 1 2 3"]
    clean = run("forbidden", write("p3.txt", "v 3\ne 0 1\ne 1 2\n"))
    assert clean.returncode == 0 and clean.stdout == ""
    bogus = run("forbidden", claw, "--catalog", "nope")
    assert bogus.returncode == 2


def test_derive_small(files):
    proc = run("derive", "--max-n", "4")
    assert proc.returncode == 0
    assert "entries: 1" in proc.stderr
    assert "# name: F1" in proc.stdout
    assert run("derive", "--max-n", "9").returncode == 2


def test_mwm_and_mwis(files):
    _, write = files
    p4w = write("p4w.txt", "v 4\ne 0 1 3\ne 1 2 1\ne 2 3 2\n")
    mwm = run("mwm", p4w)
    assert mwm.stdout == "edges: 0 2\nweight: 5\n"
    # parallel edges: the heavier copy (original id) must be reported
    par = write("par.txt", "v 2\ne 0 1 2\ne 0 1 5\n")
    assert run("mwm", par).stdout == "edges: 1\nweight: 5\n"
    p3 = write("p3.txt", "v 3\ne 0 1\ne 1 2\n")
    w = write("w.csv", "link_id,value\n0,3\n1,4\n2,3\n")
    mwis = run("mwis", p3, "--weights", w)
    assert mwis.stdout == "vertices: 0 2\nweight: 6\n"
    ones = run("mwis", p3)
    assert ones.stdout == "vertices: 0 2\nweight: 2\n"


def test_mwis_negative_weight_is_usage_error(files):
    _, write = files
    p3 = write("p3.txt", "v 3\ne 0 1\ne 1 2\n")
    neg = write("neg.csv", "link_id,value\n0,-1\n")
    proc = run("mwis", p3, "--weights", neg)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "non-negative" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_schedule_spec_example(files):
    _, write = files
    p4 = write("p4.txt", "v 4\ne 0 1\ne 1 2\ne 2 3\n")
    q = write("q.csv", "link_id,value\n0,3\n1,1\n2,2\n")
    proc = run("schedule", p4, "--hops", "1", "--queues", q)
    assert proc.returncode == 0
    assert proc.stdout == "links: 0 2\nweight: 5\nmode: ROOT_MWM\n"
    two = run("schedule", p4, "--hops", "2", "--queues", q)
    assert two.stdout == "links: 0\nweight: 3\nmode: ROOT_MWM\n"


def test_schedule_rejects_bad_queue_file(files):
    _, write = files
    p4 = write("p4.txt", "v 4\ne 0 1\ne 1 2\ne 2 3\n")
    bad = write("bad.csv", "queue,len\n0,1\n")
    assert run("schedule", p4, "--hops", "1", "--queues", bad).returncode == 2


def test_simulate_writes_artifacts(files):
    tmp, write = files
    star = write("star.txt", "v 4\ne 0 3\ne 1 3\ne 2 3\n")
    rates = write("r.csv", "link_id,value\n0,1/4\n1,1/4\n2,1/4\n")
    out = str(tmp / "slots.csv")
    summary = str(tmp / "sum.csv")
    jsonl = str(tmp / "log.jsonl")
    proc = run(
        "simulate", star, "--hops", "1", "--rates", rates,
        "--slots", "300", "--seed", "7",
        "--out", out, "--summary", summary, "--log", jsonl,
    )
    assert proc.returncode == 0
    assert "slots=300" in proc.stderr and "mode=ROOT_MWM" in proc.stderr
    slot_lines = (tmp / "slots.csv").read_text().splitlines()
    assert slot_lines[0] == "slot,served,arrivals,queue_total"
    assert len(slot_lines) == 301
    assert (tmp / "sum.csv").read_text().startswith("link_id,throughput")
    assert len((tmp / "log.jsonl").read_text().splitlines()) == 300
    # same seed, same artifacts
    again = run(
        "simulate", star, "--hops", "1", "--rates", rates,
        "--slots", "300", "--seed", "7",
    )
    assert again.stdout.splitlines()[:5] == (tmp / "slots.csv").read_text().splitlines()[:5]


def test_simulate_requires_rates_flag(files):
    _, write = files
    star = write("star.txt", "v 4\ne 0 3\ne 1 3\ne 2 3\n")
    proc = run("simulate", star, "--hops", "1", "--slots", "5")
    assert proc.returncode == 2


def test_root_round_trip_through_files(files, tmp_path):
    # conflict -> root -> re-read -> line graph == conflict graph
    tmp, write = files
    net = write("net.txt", "v 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 1 3\n")
    gc_path = str(tmp / "gc.txt")
    root_path = str(tmp / "root.txt")
    assert run("conflict", net, "--hops", "1", "--out", gc_path).returncode == 0
    assert run("root", gc_path, "--out", root_path).returncode == 0
    gc = parse_graph((tmp / "gc.txt").read_text()).to_simple_graph()
    root = parse_graph((tmp / "root.txt").read_text())
    lg = line_graph(root).graph  # vertices of lg are root edge ids
    to_gc_vertex = {}
    for line in (tmp / "root.txt.map.csv").read_text().splitlines()[1:]:
        v, e = line.split(",")
        to_gc_vertex[int(e)] = int(v)
    translated = {
        (min(to_gc_vertex[u], to_gc_vertex[v]), max(to_gc_vertex[u], to_gc_vertex[v]))
        for u, v in lg.edge_list
    }
    assert translated == set(gc.edge_list)


def test_matching_paths_run_without_networkx(tmp_path):
    # networkx is a test-only dependency: with every import of it failing,
    # a ROOT_MWM simulation and the mwm command must still work
    graph = tmp_path / "w.txt"
    graph.write_text("v 6\ne 0 1 8\ne 0 2 9\ne 1 2 10\ne 2 3 7\ne 0 5 5\ne 3 4 6\n")
    code = """
import sys
sys.modules["networkx"] = None  # makes `import networkx` raise ImportError
import linemg
from linemg import cli

net = linemg.Multigraph.from_pairs(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 6)])
p = linemg.build_pipeline(net, 1)
assert p.mode == linemg.ROOT_MWM, p.mode
log = linemg.simulate(p, [0.4] * net.n_edges, 60, 3)
assert sum(len(r.scheduled) for r in log.records) > 0
sys.exit(cli.main(["mwm", sys.argv[1]]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(graph)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["edges: 2 4 5", "weight: 21"]


def test_derive_runs_without_numpy_and_reproduces_the_shipped_catalog():
    # the package has no runtime dependency: with every import of numpy
    # failing, the derivation must still print the shipped multigraph7
    # entries byte for byte (names, order and edge lists)
    code = """
import sys
sys.modules["numpy"] = None  # makes `import numpy` raise ImportError
from linemg import cli
sys.exit(cli.main(["derive", "--max-n", "7"]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    shipped = resources.files("linemg.data").joinpath("multigraph7.txt").read_text()
    assert proc.stdout == shipped[shipped.index("# name: F1") :]
