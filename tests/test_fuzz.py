"""Hostile-input fuzzing of the parsers and of the file-reading commands.

Arbitrary text goes to ``parse_graph`` and ``read_vector_csv`` (which may
only raise their documented ``ValueError``) and, through files, to the
``mwm``, ``schedule`` and ``simulate`` commands, which must answer with an
exit code of 0, 1 or 2 and let no exception escape.  The commands run
in-process through ``cli.main``.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from linemg import cli
from linemg.graphcore import GraphFormatError, parse_graph
from linemg.scheduler import read_vector_csv

# numbers that are odd, huge, or slow to build
NUMBERS = [
    "0", "1", "2", "7", "-1", "00", "+2", "1_0", "٣", "5/2", "1/0", "0/3", "-1/2",
    "0.5", ".5", "1e3", "1E-2", "nan", "inf", "1e400", "1e4300", "9" * 4300,
    "1e999999999", "1e1_000_000_000",
]
number = st.one_of(st.sampled_from(NUMBERS), st.integers(-2, 12).map(str))
token = st.one_of(number, st.sampled_from(["v", "e", "#", "1000001", "\x00", "é", ""]))


def lines(words, sep: str):
    return st.lists(st.lists(words, max_size=5).map(sep.join), max_size=10).map("\n".join)


def edge_list(n: int):
    """Well-formed files (endpoints in range, no loops) with hostile weights,
    so that the commands get past parsing."""
    edge = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.one_of(st.just(""), number))
    body = st.lists(edge.map(lambda t: f"e {t[0]} {(t[0] + t[1]) % n} {t[2]}"), max_size=10)
    return body.map(lambda es: "\n".join([f"v {n}", *es]))


rows = st.lists(st.tuples(st.integers(0, 7).map(str), number).map(",".join), max_size=10)
graph_text = st.one_of(
    st.text(max_size=120),
    lines(token, " "),
    st.tuples(st.integers(0, 9), lines(token, " ")).map(lambda t: f"v {t[0]}\n{t[1]}"),
    st.integers(2, 8).flatmap(edge_list),
)
vector_text = st.one_of(
    st.text(max_size=120),
    lines(token, ","),
    rows.map(lambda body: "\n".join(["link_id,value", *body])),
)
fuzz = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@fuzz
@given(graph_text)
@example("v 2\ne 0 1 1e999999999")  # used to spend minutes on 10**999999999
@example("v 2\ne 0 1 1e1_000_000_000")
def test_parse_graph_raises_only_format_errors(text):
    try:
        g = parse_graph(text)
    except GraphFormatError:
        return
    assert all(0 <= e.u < g.n_vertices and 0 <= e.v < g.n_vertices for e in g.edges)


@fuzz
@given(vector_text)
@example("link_id,value\n0,1e999999999")  # used to spend minutes on 10**999999999
@example("\r0")  # csv.Error, not a ValueError, used to escape
def test_read_vector_csv_raises_only_value_errors(text):
    try:
        read_vector_csv(text)
    except ValueError:
        pass


def run_cli(argv) -> None:
    assert cli.main(argv) in (0, 1, 2)


@fuzz
@given(graph_text)
@example("v 2\ne 0 1 1e4300")  # a weight of 4301 digits used to crash printing
def test_mwm_command_survives_any_graph_file(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    run_cli(["mwm", str(path)])


@fuzz
@given(graph_text, vector_text, st.sampled_from(["1", "2"]))
@example("v 4\ne 0 1\ne 2 3", "link_id,value\n0,1e4300\n1,1e4300", "1")  # as for mwm
def test_schedule_command_survives_any_input_files(tmp_path, net, queues, hops):
    (tmp_path / "net.txt").write_text(net, encoding="utf-8")
    (tmp_path / "q.csv").write_text(queues, encoding="utf-8")
    run_cli(["schedule", str(tmp_path / "net.txt"), "--hops", hops,
             "--queues", str(tmp_path / "q.csv")])


@fuzz
@given(graph_text, vector_text, st.sampled_from(["1", "2"]))
@example("v 2\ne 0 1", "link_id,value\n0,1e400", "1")  # float() used to overflow
def test_simulate_command_survives_any_input_files(tmp_path, net, rates, hops):
    (tmp_path / "net.txt").write_text(net, encoding="utf-8")
    (tmp_path / "r.csv").write_text(rates, encoding="utf-8")
    run_cli(["simulate", str(tmp_path / "net.txt"), "--hops", hops,
             "--rates", str(tmp_path / "r.csv"), "--slots", "3",
             "--out", str(tmp_path / "slots.csv")])
