import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_readers
from conftest import mutated_text
from inka import (
    REPORT_COLUMNS,
    Layout,
    ParseError,
    ParseWarning,
    ReportRow,
    build_graph,
    emit_report,
    load_graph,
    parse_chaco,
    parse_edge_list,
    parse_layout_csv,
    parse_matrix_market,
    read_layout_csv,
    write_edge_list,
    write_layout_csv,
)
from inka.model import _MAX_NODES

DATA = Path(__file__).parent / "data"
GRAPHS = Path(__file__).resolve().parents[1] / "data" / "graphs"


# --- matrix market ----------------------------------------------------------

MM_SMALL = """%%MatrixMarket matrix coordinate pattern symmetric
% a comment
4 4 4
2 1
3 1
4 2
4 4
"""


def test_parse_matrix_market_small():
    g = parse_matrix_market(MM_SMALL)
    assert g.n == 4
    # the 4 4 diagonal entry drops, the rest symmetrize to 3 edges
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]


def test_parse_matrix_market_general_with_values():
    text = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.5\n2 1 1.5\n3 3 9.0\n"
    g = parse_matrix_market(text)
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1]]


def test_parse_matrix_market_reports_line_numbers():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 oops\n"
    with pytest.raises(ParseError) as exc:
        parse_matrix_market(text)
    assert "3" in str(exc.value)


# --- chaco ------------------------------------------------------------------

CHACO_PATH = """4 3
2
1 3
2 4
3
"""


def test_parse_chaco_path():
    g = parse_chaco(CHACO_PATH)
    assert g.n == 4
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_parse_chaco_blank_line_is_isolated_node():
    g = parse_chaco("3 1\n2\n1\n\n")
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1]]


def test_parse_chaco_weighted_formats_ignore_weights():
    # fmt 1: edge weights; neighbors come in (id, weight) pairs
    g1 = parse_chaco("2 1 1\n2 5\n1 5\n")
    assert g1.edges.tolist() == [[0, 1]]
    # fmt 10: one node weight leads each line
    g10 = parse_chaco("2 1 10\n7 2\n3 1\n")
    assert g10.edges.tolist() == [[0, 1]]
    # fmt 11: node weight then (id, weight) pairs
    g11 = parse_chaco("2 1 11\n7 2 5\n3 1 5\n")
    assert g11.edges.tolist() == [[0, 1]]


def test_parse_chaco_edge_count_mismatch_warns_not_raises():
    # header claims 2 edges, body has 1
    with pytest.warns(ParseWarning):
        g = parse_chaco("3 2\n2\n1\n\n")
    assert g.edges.tolist() == [[0, 1]]


def test_load_graph_warning_names_the_file(tmp_path):
    # the parser's warning is given again by load_graph, prefixed with the
    # path and pointing at the line that called load_graph
    path = tmp_path / "triangle.graph"
    path.write_text("3 2\n2 3\n1 3\n1 2\n")
    with pytest.warns(ParseWarning) as caught:
        g = load_graph(path)
    assert g.m == 3
    assert [str(w.message) for w in caught] == [
        f"{path}: header declares 2 edges, found 3 after deduplication"]
    assert caught[0].filename == __file__


def test_parse_chaco_zero_id_message():
    with pytest.raises(ParseError) as exc:
        parse_chaco("2 1\n0\n1\n")
    assert "1-indexed" in str(exc.value) or "0" in str(exc.value)


# --- edge list --------------------------------------------------------------

def test_parse_edge_list_compacts_ids_first_seen():
    g = parse_edge_list("# comment\n% also comment\n10 20\n20 30 1.5\n10 30\n")
    assert g.n == 3
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    # ids past int64 too, mixed with small ones
    g = parse_edge_list("99999999999999999999 5\n5 7\n7 99999999999999999999\n")
    assert (g.n, g.edges.tolist()) == (3, [[0, 1], [0, 2], [1, 2]])


def test_parse_edge_list_self_loop_registers_node_only():
    g = parse_edge_list("5 5\n5 6\n")
    assert g.n == 2
    assert g.edges.tolist() == [[0, 1]]


def test_parse_edge_list_duplicate_edges_collapse():
    g = parse_edge_list("1 2\n2 1\n1 2\n")
    assert g.m == 1


def test_write_edge_list_round_trip():
    g = build_graph(5, [(0, 3), (1, 2)])  # node 4 isolated
    assert parse_edge_list(write_edge_list(g)) == g


def test_write_edge_list_round_trip_empty_graph():
    g = build_graph(0, [])
    assert parse_edge_list(write_edge_list(g)) == g


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    if n < 2:
        return build_graph(n, [])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] != ab[1]
    )
    return build_graph(n, draw(st.lists(pairs, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_write_edge_list_fixpoint(g):
    assert parse_edge_list(write_edge_list(g)) == g


# --- load_graph -------------------------------------------------------------

def test_load_graph_by_suffix(tmp_path):
    p = tmp_path / "tiny.edges"
    p.write_text("0 1\n1 2\n")
    g = load_graph(p)
    assert g.m == 2


def test_load_graph_explicit_format_overrides_suffix(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("2 1\n2\n1\n")
    g = load_graph(p, fmt="chaco")
    assert g.n == 2 and g.m == 1


def test_load_graph_unknown_suffix(tmp_path):
    p = tmp_path / "tiny.dat"
    p.write_text("0 1\n")
    with pytest.raises(ParseError):
        load_graph(p)


def test_load_graph_attaches_path_to_errors(tmp_path):
    p = tmp_path / "broken.edges"
    p.write_text("0\n")
    with pytest.raises(ParseError) as exc:
        load_graph(p)
    assert "broken.edges" in str(exc.value)


@pytest.mark.parametrize("kind", ["missing", "not-utf8"])
def test_unreadable_graph_and_layout_files_name_the_path(tmp_path, kind):
    for path, load in ((tmp_path / "g.edges", load_graph), (tmp_path / "l.csv", read_layout_csv)):
        if kind == "not-utf8":
            path.write_bytes(b"\xff\xfe0 1\n")
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}: cannot read file:")


def test_benchmark_fixture_sizes():
    can = load_graph(GRAPHS / "can_144.mtx")
    assert (can.n, can.m) == (144, 576)
    mesh = load_graph(GRAPHS / "mesh24.graph")
    assert (mesh.n, mesh.m) == (576, 1633)
    ba = load_graph(GRAPHS / "ba800.edges")
    assert (ba.n, ba.m) == (800, 2394)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParseWarning)
        yeast = load_graph(GRAPHS / "yeastppi.edges")
    assert (yeast.n, yeast.m) == (2361, 7182)


def test_malformed_corpus_raises_structured_errors():
    corpus = sorted((DATA / "malformed").iterdir())
    assert len(corpus) >= 20
    for path in corpus:
        with pytest.raises(ParseError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ParseWarning)
                load_graph(path)


# --- reader properties ------------------------------------------------------

def _noisy_texts(rng):
    """A seeded random graph as (n, edges) and as edge-list, Matrix Market and
    Chaco text, each with its edges listed in shuffled order and orientation,
    some twice, with self-loops, comment lines and weight columns."""
    n = int(rng.integers(1, 30))
    edges = [(a, b) for a, b in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
             if a != b]
    listed = edges + [edges[i] for i in rng.integers(0, len(edges) or 1, size=len(edges) // 3)]
    listed += [(v, v) for v in rng.integers(0, n, size=3).tolist()]
    listed = [(b, a) if flip else (a, b)
              for (a, b), flip in zip(listed, rng.random(len(listed)) < 0.5)]
    listed = [listed[i] for i in rng.permutation(len(listed))]

    def weights(k):
        return "".join(f" {rng.normal():.3g}" for _ in range(k))

    def noise(lines, comments):
        """lines with comment lines dropped in at random places."""
        out = []
        for line in lines:
            if rng.random() < 0.15:
                out.append(f"{rng.choice(list(comments))} note {rng.integers(100)}")
            out.append(line)
        return "\n".join(out) + "\n"

    # the first n lines pin ids 0..n-1 to the first-seen order
    edge_list = noise([f"{v} {v}" + weights(rng.integers(2)) for v in range(n)]
                      + [f"{a} {b}" + weights(rng.integers(2)) for a, b in listed], "%#")
    field = rng.choice(["pattern", "real", "integer", "complex"])
    values = {"pattern": 0, "real": 1, "integer": 1, "complex": 2}[field]
    mtx = f"%%MatrixMarket matrix coordinate {field} {rng.choice(['general', 'symmetric'])}\n"
    mtx += noise([f"{n} {n} {len(listed)}"] + [f"{a + 1} {b + 1}" + weights(values)
                                               for a, b in listed], "%")
    fmt = int(rng.choice([0, 1, 10, 11]))
    vertex_weights = int(rng.integers(1, 3)) if fmt >= 10 else 0
    adjacency = [[] for _ in range(n)]
    for a, b in listed:  # each pair on one or both of its lines
        for u, v in [(a, b), (b, a)][:int(rng.integers(1, 3))]:
            adjacency[u].append(f"{v + 1}" + weights(fmt % 10))
    m = len({(min(a, b), max(a, b)) for a, b in edges})
    shortest = 4 if vertex_weights > 1 else 3 if fmt else 2  # the rest are defaults
    header = [n, m, fmt, vertex_weights][:int(rng.integers(shortest, 5))]
    chaco = noise([" ".join(map(str, header))]
                  + [" ".join([weights(vertex_weights).strip()] * bool(vertex_weights) + nbrs)
                     for nbrs in adjacency], "%#")
    return n, edges, {parse_edge_list: edge_list, parse_matrix_market: mtx, parse_chaco: chaco}


def test_noisy_texts_of_random_graphs_parse_to_build_graph():
    rng = np.random.default_rng(20)
    for _ in range(150):
        n, edges, texts = _noisy_texts(rng)
        expected = build_graph(n, edges)
        for parse, text in texts.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", ParseWarning)
                assert parse(text) == expected, (parse.__name__, text)


def _outcome(parse, text):
    """The graph parse reads from text, or its ParseError's line and message,
    and the ParseWarnings it gives; any other exception propagates."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ParseWarning)
        try:
            g = parse(text)
            read = (g.node_count, g.edges.tobytes())
        except ParseError as e:
            read = (e.line, e.message)
    return read, [str(w.message) for w in caught]


def test_mutated_files_read_as_the_loop_readers_read_them():
    # every reader ends in a Graph or a ParseError, never another exception
    # (numpy's OverflowError or ValueError, an IndexError), and in the same
    # one as its one-token-at-a-time reference
    rng = np.random.default_rng(21)
    for path in sorted(GRAPHS.iterdir()) + sorted((DATA / "malformed").iterdir()):
        text = path.read_text()
        for _ in range(6 if len(text) > 4000 else 60):
            mutated = mutated_text(rng, text)
            for fast, loop in ((parse_edge_list, loop_readers.parse_edge_list),
                               (parse_matrix_market, loop_readers.parse_matrix_market),
                               (parse_chaco, loop_readers.parse_chaco)):
                assert _outcome(fast, mutated) == _outcome(loop, mutated), (fast, mutated)


_MM_HEAD = "%%MatrixMarket matrix coordinate pattern general\n"
_MM_REAL = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("parse, text, line, message", [
    (parse_matrix_market, "%%MatrixMarket matrix coordinate\n", 1,
     "header needs object, format, and field"),
    (parse_matrix_market, "%%MatrixMarket matrix coordinate bogus\n1 1 0\n", 1,
     "unsupported field 'bogus'"),
    (parse_matrix_market, "%%MatrixMarket matrix coordinate real sideways\n1 1 0\n", 1,
     "unsupported symmetry 'sideways'"),
    (parse_matrix_market, _MM_HEAD + "% sizes follow\n", 2, "missing size line"),
    (parse_matrix_market, _MM_HEAD + "-2 -2 0\n", 2, "size values must be non-negative"),
    (parse_chaco, "2 1 0 1 5\n2\n1\n", 1, "header must be 'n m [fmt [#vweights]]'"),
    (parse_chaco, "-1 0\n", 1, "counts must be non-negative"),
    (parse_chaco, "2 1 0 1\n2\n1\n", 1, "vertex weight count given but format has none"),
    (parse_chaco, "2 1 10 2\n5\n5 6 1\n", 2, "expected 2 vertex weights"),
    (parse_chaco, "2 1 10 99999999999999999999\n1 2\n1 1\n", 2,
     "expected 99999999999999999999 vertex weights"),
    # Chaco rows: a line's weights are checked first, then its neighbours in turn
    (parse_chaco, "2 1\nfoo\n1\n", 2, "neighbor id must be an integer, got 'foo'"),
    (parse_chaco, "2 1\n2 1.5\n1\n", 2, "neighbor id must be an integer, got '1.5'"),
    (parse_chaco, "2 1\n2\n0\n", 3, "node ids are 1-indexed; got 0"),
    (parse_chaco, "2 1\n2\n5\n", 3, "neighbor id 5 out of range 1..2"),
    (parse_chaco, "2 1\n2\n-1\n", 3, "neighbor id -1 out of range 1..2"),
    (parse_chaco, "2 1\n2\n99999999999999999999\n", 3,
     "neighbor id 99999999999999999999 out of range 1..2"),
    (parse_chaco, "2 1\n5 x\n1\n", 2, "neighbor id 5 out of range 1..2"),
    (parse_chaco, "2 1 10\nx 2\n1 1\n", 2, "bad vertex weight 'x'"),
    (parse_chaco, "2 1 1\n2\n1 7\n", 2, "edge-weighted line has a neighbor without a weight"),
    (parse_chaco, "2 1 1\n2 w\n1 7\n", 2, "bad edge weight 'w'"),
    (parse_chaco, "2 1 11\n5 9 x\n5 1 1\n", 2, "bad edge weight 'x'"),
    (parse_chaco, "3 2\n2\n1 9\nx\n", 3, "neighbor id 9 out of range 1..3"),
    (parse_chaco, "3 2 1\n2 1\n1 1 3\n0 1\n", 3,
     "edge-weighted line has a neighbor without a weight"),
    # Matrix Market entries: token count, row and column ids, values, then range
    (parse_matrix_market, _MM_HEAD + "3 3 1\n1\n", 3, "expected 2 tokens per entry, got 1"),
    (parse_matrix_market, _MM_REAL + "3 3 1\n1 2 abc\n", 3, "bad numeric value 'abc'"),
    (parse_matrix_market, _MM_HEAD + "3 3 1\n5 1\n", 3, "index (5, 1) outside 3x3"),
    (parse_matrix_market, _MM_HEAD + "3 3 1\n1 4\n", 3, "index (1, 4) outside 3x3"),
    (parse_matrix_market, _MM_HEAD + "3 3 1\n0 1\n", 3, "index (0, 1) outside 3x3"),
    (parse_matrix_market, _MM_HEAD + "3 3 1\n99999999999999999999 1\n", 3,
     "index (99999999999999999999, 1) outside 3x3"),
    (parse_matrix_market, _MM_HEAD + "3 3 1\n1 x\n", 3, "column index must be an integer, got 'x'"),
    (parse_matrix_market, _MM_HEAD + "3 3 1\n1 2\n2 3\n", 4, "more than the declared 1 entries"),
    (parse_matrix_market, _MM_HEAD + "3 3 3\n1 2\n2 3\n", 4, "declared 3 entries but found 2"),
    (parse_matrix_market, _MM_HEAD + "3 3 2\n5 1\nx 1\n", 3, "index (5, 1) outside 3x3"),
    (parse_matrix_market, _MM_REAL + "3 3 1\n5 1 abc\n", 3, "bad numeric value 'abc'"),
    (parse_matrix_market, _MM_REAL + "3 3 2\n1 2 abc\n1 2 3 4\n", 3, "bad numeric value 'abc'"),
    (parse_matrix_market, _MM_HEAD + "3 3 2\n1 x\n0 1\n", 3,
     "column index must be an integer, got 'x'"),
    # edge-list rows: token count, both ids, their sign, then the weight
    (parse_edge_list, "1 2 3 4\n", 1, "expected 'id id [weight]', got 4 tokens"),
    (parse_edge_list, "3\n", 1, "expected 'id id [weight]', got 1 tokens"),
    (parse_edge_list, "-1 2\n", 1, "node ids must be non-negative"),
    (parse_edge_list, "a b\n", 1, "node id must be an integer, got 'a'"),
    (parse_edge_list, "1.5 2\n", 1, "node id must be an integer, got '1.5'"),
    (parse_edge_list, "1 2 heavy\n", 1, "bad weight 'heavy'"),
    (parse_edge_list, "0 1\n-1 2\n1.5 2\n", 2, "node ids must be non-negative"),
    (parse_edge_list, "0 1\n2 x\n1 2 3 4\n", 2, "node id must be an integer, got 'x'"),
    (parse_edge_list, "0 1 x\n-5 2\n", 1, "bad weight 'x'"),
    (parse_edge_list, "-1 x\n", 1, "node id must be an integer, got 'x'"),
    (parse_edge_list, "99999999999999999999 1\n1 -99999999999999999999\n", 2,
     "node ids must be non-negative"),
    (parse_layout_csv, "", 1, "empty layout file"),
    (parse_layout_csv, "id,x,y\n0,0,0\n", 1, "layout header must be 'node,x,y'"),
    (parse_layout_csv, "node,x,y\n-1,0,0\n", 2, "node ids must be non-negative"),
    (parse_layout_csv, "node,x,y\n0,0,0\n1,a,1\n", 3, "bad coordinate in ['a', '1']"),
])
def test_each_malformed_header_and_row_names_its_fault(parse, text, line, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.message) == (line, message)


def test_chaco_negative_vertex_weight_count_is_refused():
    # a count of -1 once took all but each line's last token as weights
    assert parse_chaco("3 3 10 1\n1 2 3\n1 1 3\n1 1 2\n").edges.tolist() == [
        [0, 1], [0, 2], [1, 2]]
    with pytest.raises(ParseError) as exc:
        parse_chaco("3 3 10 -1\n1 2 3\n1 1 3\n1 1 2\n")
    assert (exc.value.line, exc.value.message) == (
        1, "vertex weight count must be non-negative, got -1")


def test_matrix_market_node_count_past_the_limit_names_the_size_line():
    text = _MM_HEAD + f"% too big\n{_MAX_NODES + 1} {_MAX_NODES + 1} 0\n"
    with pytest.raises(ParseError) as exc:
        parse_matrix_market(text)
    assert (exc.value.line, exc.value.message) == (
        3, f"node_count must be an integer in 0..{_MAX_NODES}, got {_MAX_NODES + 1}")
    assert parse_matrix_market(_MM_HEAD + "3 3 0\n").n == 3


def test_blank_lines_and_explicit_vertex_weight_counts_parse():
    # an explicit count of one vertex weight, then trailing blank padding
    assert parse_chaco("2 1 10 1\n5 2\n5 1\n\n\n").edges.tolist() == [[0, 1]]
    # no adjacency line to hold them, so any count of vertex weights passes
    assert parse_chaco("0 0 11 99999999999999999999\n\n").n == 0
    assert parse_edge_list("0 1\n\n1 2\n").edges.tolist() == [[0, 1], [1, 2]]
    layout = parse_layout_csv("node,x,y\n0,1,2\n\n1,3,4\n")
    assert layout.positions.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_graph_unknown_format_names_the_path(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n")
    with pytest.raises(ParseError, match=r"g\.edges: unknown graph format 'bogus'$"):
        load_graph(path, fmt="bogus")


# --- layout csv -------------------------------------------------------------

def test_layout_csv_round_trip_exact():
    pos = np.array([[0.1, -2.5], [1e-17, 3.000000000000001], [1234.5678, 0.0]])
    text = write_layout_csv(Layout(pos))
    assert text == "node,x,y\n0,0.1,-2.5\n1,1e-17,3.000000000000001\n2,1234.5678,0.0\n"
    back = parse_layout_csv(text)
    assert np.array_equal(back.positions, pos)


def test_layout_csv_file_round_trip(tmp_path):
    pos = np.array([[1.5, 2.5], [3.5, 4.5]])
    p = tmp_path / "lay.csv"
    write_layout_csv(Layout(pos), path=p)
    back = read_layout_csv(p, node_count=2)
    assert np.array_equal(back.positions, pos)


def test_layout_csv_bare_carriage_return_is_a_parse_error():
    # the csv module refuses a \r inside an unquoted line, which a file
    # read with universal newlines never holds but a direct call can
    with pytest.raises(ParseError) as exc:
        parse_layout_csv("node,x,y\n0,1,2\n1,3\r4,5\n")
    assert exc.value.line == 3
    assert exc.value.message.startswith("new-line character seen in unquoted field")


def test_layout_csv_errors():
    with pytest.raises(ParseError):
        parse_layout_csv("node,x,y\n0,1.0\n")  # short row
    with pytest.raises(ParseError):
        parse_layout_csv("node,x,y\n0,1.0,2.0\n0,3.0,4.0\n")  # duplicate
    with pytest.raises(ParseError) as exc:
        parse_layout_csv("node,x,y\n0,1.0,2.0\n2,3.0,4.0\n")  # gap
    assert "1" in str(exc.value)
    with pytest.raises(ParseError):
        parse_layout_csv("node,x,y\n0,nan,2.0\n")
    with pytest.raises(ParseError):
        parse_layout_csv("node,x,y\n0,1.0,2.0\n", node_count=3)
    # the squared span overflows; 1e154 squared is 1e308, still finite
    with pytest.raises(ParseError, match=r"^layout span 1e\+308 x inf is too large to square$"):
        parse_layout_csv("node,x,y\n0,0,-1e308\n1,1e308,0\n2,0,1e308\n")
    assert parse_layout_csv("node,x,y\n0,0,0\n1,1e154,0\n").positions.max() == 1e154


def test_layout_csv_huge_node_id_fails_in_bounded_memory():
    # the gap below id 10**12 is found without listing the missing ids
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^missing row for node 1$"):
            parse_layout_csv("node,x,y\n0,1.0,2.0\n1000000000000,3.0,4.0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_layout_csv_first_missing_id_and_empty_layout():
    with pytest.raises(ParseError, match=r"^missing row for node 0$"):
        parse_layout_csv("node,x,y\n2,1.0,2.0\n1,3.0,4.0\n")
    with pytest.raises(ParseError, match=r"^missing row for node 2$"):
        parse_layout_csv("node,x,y\n0,1.0,2.0\n3,3.0,4.0\n1,5.0,6.0\n", node_count=3)
    with pytest.raises(ParseError, match=r"^missing row for node 1$"):
        parse_layout_csv("node,x,y\n0,1.0,2.0\n5,3.0,4.0\n", node_count=2)
    assert parse_layout_csv("node,x,y\n").positions.shape == (0, 2)


# --- report rows ------------------------------------------------------------

def sample_row(**overrides):
    base = dict(
        graph_name="g",
        layout_name="force-directed",
        n=4,
        m=2,
        r=1.0,
        w=0.1,
        gamma=1.0,
        L=20.0,
        cr=1,
        A=144.0,
        ink=14.97,
        density=0.104,
        feasible=True,
        raster_ink=None,
        log10_ink=1.175,
    )
    base.update(overrides)
    return ReportRow(**base)


def test_report_row_rejects_non_finite():
    with pytest.raises(ValueError):
        sample_row(ink=float("nan"))
    with pytest.raises(ValueError):
        sample_row(A=float("inf"))


@pytest.mark.parametrize("format", ["csv", "json"])
def test_report_row_of_numpy_scalars_emits_its_python_twin(format):
    numpy_row = sample_row(n=np.int64(4), m=np.int32(2), r=np.float32(1.0),
                           L=np.float64(3.5), cr=np.int64(1), feasible=np.bool_(True),
                           raster_ink=np.float64(15.0), log10_ink=np.float64(1.175))
    python_row = sample_row(L=3.5, raster_ink=15.0)
    assert [type(getattr(numpy_row, c)) for c in REPORT_COLUMNS] == [
        type(getattr(python_row, c)) for c in REPORT_COLUMNS]
    assert emit_report([numpy_row], format) == emit_report([python_row], format)


def test_emit_report_csv_and_json_agree():
    rows = [sample_row(), sample_row(graph_name="h", raster_ink=15.0, feasible=False)]
    csv_text = emit_report(rows, format="csv")
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 3
    assert ",true," in lines[1]
    assert ",false," in lines[2]
    # None renders as an empty cell
    assert lines[1].split(",")[REPORT_COLUMNS.index("raster_ink")] == ""

    data = json.loads(emit_report(rows, format="json"))
    assert [row["graph_name"] for row in data] == ["g", "h"]
    assert data[0]["raster_ink"] is None
    assert data[1]["raster_ink"] == 15.0
    assert data[0]["feasible"] is True


def test_emit_report_exact_bytes():
    # names that need CSV quoting, a None in each optional column, floats
    # that print in exponent form
    rows = [
        sample_row(graph_name="g,1", ink=14.97, density=0.104),
        sample_row(graph_name='h"q', layout_name="rand", r=2.0, w=0.0, gamma=0.5,
                   L=1e-300, cr=0, A=1e20, ink=1 / 3, density=2 / 3, feasible=False,
                   raster_ink=15.0, log10_ink=None),
    ]
    assert emit_report(rows, format="csv") == (
        "graph_name,layout_name,n,m,r,w,gamma,L,cr,A,ink,density,feasible,"
        "raster_ink,log10_ink\n"
        '"g,1",force-directed,4,2,1.0,0.1,1.0,20.0,1,144.0,14.97,0.104,true,,1.175\n'
        '"h""q",rand,4,2,2.0,0.0,0.5,1e-300,0,1e+20,0.3333333333333333,'
        "0.6666666666666666,false,15.0,\n"
    )
    assert emit_report(rows, format="json") == (
        '[\n  {\n    "graph_name": "g,1",\n    "layout_name": "force-directed",\n'
        '    "n": 4,\n    "m": 2,\n    "r": 1.0,\n    "w": 0.1,\n    "gamma": 1.0,\n'
        '    "L": 20.0,\n    "cr": 1,\n    "A": 144.0,\n    "ink": 14.97,\n'
        '    "density": 0.104,\n    "feasible": true,\n    "raster_ink": null,\n'
        '    "log10_ink": 1.175\n  },\n  {\n    "graph_name": "h\\"q",\n'
        '    "layout_name": "rand",\n    "n": 4,\n    "m": 2,\n    "r": 2.0,\n'
        '    "w": 0.0,\n    "gamma": 0.5,\n    "L": 1e-300,\n    "cr": 0,\n'
        '    "A": 1e+20,\n    "ink": 0.3333333333333333,\n'
        '    "density": 0.6666666666666666,\n    "feasible": false,\n'
        '    "raster_ink": 15.0,\n    "log10_ink": null\n  }\n]\n'
    )


def test_emit_report_writes_file(tmp_path):
    p = tmp_path / "report.csv"
    emit_report([sample_row()], format="csv", path=p)
    assert p.read_text().startswith("graph_name,")


def test_emit_report_rejects_empty_and_bad_format():
    with pytest.raises(ValueError):
        emit_report([], format="csv")
    with pytest.raises(ValueError):
        emit_report([sample_row()], format="yaml")
