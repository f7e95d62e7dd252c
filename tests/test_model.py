import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inka import (
    BoldDrawing,
    DrawingMetrics,
    Graph,
    GraphError,
    Layout,
    RenderParams,
    build_graph,
    graph_density,
)
from inka.model import _INT64_MAX, _MAX_NODES, _pack, _unpack


@st.composite
def digit_rows(draw):
    """(base, k, rows): rows of k digits below base, for bases up to
    _MAX_NODES (a pair is one code) and for bases whose 4th power
    overflows int64 (a 4-tuple takes two or more codes)."""
    base = draw(st.one_of(st.integers(2, 9), st.integers(2, _MAX_NODES),
                          st.integers(55_109, _INT64_MAX)))
    k = draw(st.integers(1, 5))
    digit = st.integers(0, base - 1)
    rows = draw(st.lists(st.tuples(*[digit] * k), max_size=25))
    rows += draw(st.lists(st.sampled_from(rows), max_size=5)) if rows else []
    return base, k, rows


def _columns(rows, k):
    return list(np.array(rows, dtype=np.int64).reshape(-1, k).T)


@settings(max_examples=300, deadline=None)
@given(digit_rows())
def test_unpack_gives_back_the_digit_columns(case):
    base, k, rows = case
    codes = _pack(_columns(rows, k), base)
    assert all(c.dtype == np.int64 for c in codes)
    got = _unpack(codes, base, k)
    assert len(got) == k
    assert all(np.array_equal(g, c) for g, c in zip(got, _columns(rows, k)))


@settings(max_examples=300, deadline=None)
@given(digit_rows())
def test_codes_compare_first_code_first_as_python_tuples(case):
    base, k, rows = case
    codes = _pack(_columns(rows, k), base)
    coded = list(zip(*(c.tolist() for c in codes))) if rows else []
    for a in range(len(rows)):
        for b in range(len(rows)):
            assert (coded[a] < coded[b]) == (rows[a] < rows[b])
            assert (coded[a] == coded[b]) == (rows[a] == rows[b])


def test_codes_per_tuple():
    # a pair below _MAX_NODES is one code; 4 digits take one code up to
    # base 55,108, and from 55,109 as few codes as hold them, digits
    # spread evenly
    pair = [np.array([_MAX_NODES - 1])] * 2
    assert [c.tolist() for c in _pack(pair, _MAX_NODES)] == [[_MAX_NODES**2 - 1]]
    assert len(_pack(pair, _MAX_NODES + 1)) == 2
    four = [np.array([1])] * 4
    assert len(_pack(four, 55_108)) == 1
    assert [c.tolist() for c in _pack(four, 55_109)] == [[55_110], [55_110]]
    assert len(_pack(four, 2**31)) == 2 and len(_pack(four, 2**32)) == 4
    five = [np.array([1])] * 5
    assert [c.tolist() for c in _pack(five, 10**6)] == [[10**12 + 10**6 + 1], [10**6 + 1]]


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]


def test_build_graph_dedupes_and_normalizes_orientation():
    g = build_graph(3, [(1, 0), (0, 1), (2, 1), (1, 2)])
    assert g.m == 2
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_build_graph_rejects_self_loop_with_index():
    with pytest.raises(GraphError) as exc:
        build_graph(3, [(0, 1), (2, 2)])
    assert "1" in str(exc.value)  # names the offending edge position


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(-1, 0)])


def test_build_graph_node_count_keeps_edge_keys_in_int64():
    n = 3_037_000_499  # the largest n with (n - 2) * n + n - 1 < 2**63
    assert build_graph(n, [(n - 1, n - 2)]).edges.tolist() == [[n - 2, n - 1]]
    with pytest.raises(GraphError, match="node_count"):
        build_graph(n + 1, [])
    with pytest.raises(GraphError, match="node_count"):
        build_graph(-1, [])


def test_graph_is_immutable():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.node_count = 5


def test_edges_array_shape_and_dtype():
    g = build_graph(3, [(0, 1), (1, 2)])
    arr = g.edges
    assert arr.shape == (2, 2)
    assert arr.dtype == np.int64
    with pytest.raises(ValueError):
        arr[0, 0] = 2
    assert Graph(0, ()).edges.shape == (0, 2)
    assert build_graph(0, []).edges.shape == (0, 2)


def test_graph_constructor_copies_and_freezes():
    src = np.array([[0, 1], [1, 2]])
    g = Graph(3, src)
    src[0, 1] = 2
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert not g.edges.flags.writeable


@pytest.mark.parametrize("rows, bad", [
    ([(-1, 0)], 0),  # would wrap to node 2
    ([(0, 1), (0, 5)], 1),  # past the last node
    ([(0, 1), (2, 1)], 1),  # lo > hi
    ([(0, 1), (1, 1)], 1),  # a self-loop
    ([(0, 1), (0, 2), (0, 2)], 2),  # a repeat
    ([(0, 2), (0, 1)], 1),  # hi falls under a tied lo
    ([(1, 2), (0, 1), (-3, 9)], 1),  # lo falls; the first bad row is named
])
def test_graph_constructor_rejects_non_canonical_rows(rows, bad):
    with pytest.raises(GraphError, match=rf"edge row {bad}: \({rows[bad][0]}, {rows[bad][1]}\)"):
        Graph(3, rows)


@pytest.mark.parametrize("n", [-1, 2.5, 3.0, True, np.bool_(True), _MAX_NODES + 1, "3", None])
def test_a_node_count_that_is_not_an_integer_in_range_is_rejected(n):
    message = rf"node_count must be an integer in 0\.\.{_MAX_NODES}, got {re.escape(repr(n))}"
    with pytest.raises(GraphError, match=message):
        Graph(n, [(0, 1), (1, 2)])
    with pytest.raises(GraphError, match=message):
        build_graph(n, [(0, 1), (1, 2)])


@pytest.mark.parametrize("rows, bad", [
    ([(0.7, 1.9)], "(0.7, 1.9)"),  # would build the edge (0, 1)
    ([(0, 1), (0, 1.5)], "(0.0, 1.5)"),
    ([(0, 1), (0, math.nan)], "(0.0, nan)"),
    ([(0, 1e20)], "(0.0, 1e+20)"),  # past int64, where a cast wraps
])
def test_graph_constructor_rejects_non_integral_rows(rows, bad):
    message = rf"edge row {len(rows) - 1}: {re.escape(bad)} is not canonical"
    with pytest.raises(GraphError, match=message):
        Graph(3, rows)


def test_graph_constructor_rejects_rows_that_are_not_numbers():
    with pytest.raises(GraphError, match="edge rows must hold integers, got <U1 values"):
        Graph(3, [("0", "1")])


def test_graph_constructor_accepts_integral_floats_and_numpy_counts():
    g = Graph(np.int64(3), [(0.0, 2.0), (1, 2)])
    assert g.edges.tolist() == [[0, 2], [1, 2]] and g.edges.dtype == np.int64
    assert type(g.node_count) is int and g == Graph(3, [(0, 2), (1, 2)])


def test_build_graph_accepts_integral_floats_and_numpy_integers():
    g = build_graph(3, [(2.0, 0), (np.int32(1), np.int64(2)), (np.uint8(1), 0.0)])
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert g.edges.dtype == np.int64


@pytest.mark.parametrize("bad", [(0, 1.7), (0, -0.5), (0, math.nan), (0, math.inf), "ab",
                                 (0, None), (0, "1")],
                         ids=["1.7", "-0.5", "nan", "inf", "ab", "None", "str"])
def test_build_graph_rejects_non_integral_endpoint(bad):
    # strings and None are not integers, even where float() takes them:
    # Graph rejects string values too
    with pytest.raises(GraphError, match="edge 1: endpoints must be integers"):
        build_graph(3, [(0, 1), bad, (1, 2)])


def test_build_graph_reports_the_first_bad_edge():
    # at one index a self-loop is reported before an out-of-range endpoint
    with pytest.raises(GraphError, match="edge 1: self-loop at node 5"):
        build_graph(3, [(0, 1), (5, 5), (0, 9)])
    with pytest.raises(GraphError, match=r"edge 1: endpoint out of range for 3 nodes: \(0, 9\)"):
        build_graph(3, [(0, 1), (0, 9), (2, 2)])
    with pytest.raises(GraphError, match="edge 2: expected a pair"):
        build_graph(3, [(0, 1), (1, 2), (0, 1, 2), (1, 1)])
    with pytest.raises(GraphError, match="edge 0: endpoints must be integers"):
        build_graph(3, [(0, 0.5), (1, 1)])


def test_graph_density():
    # edges per node, not the 2m/n average degree
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert graph_density(g) == pytest.approx(0.75)
    with pytest.raises(GraphError):
        graph_density(Graph(0, ()))


def test_layout_validation():
    with pytest.raises(ValueError):
        Layout(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Layout(np.array([[0.0, np.nan]]))
    with pytest.raises(ValueError):
        Layout(np.array([[np.inf, 0.0]]))


def test_layout_copies_and_freezes():
    src = np.array([[0.0, 0.0], [1.0, 2.0]])
    lay = Layout(src)
    src[0, 0] = 99.0
    assert lay.positions[0, 0] == 0.0
    with pytest.raises(ValueError):
        lay.positions[0, 0] = 1.0
    assert len(lay) == 2


def test_render_params_validation():
    RenderParams(0.0, 0.0)
    RenderParams(1.0, 0.5, gamma=1.0)
    with pytest.raises(ValueError):
        RenderParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        RenderParams(1.0, -0.5)
    with pytest.raises(ValueError):
        RenderParams(1.0, 0.5, gamma=0.0)
    with pytest.raises(ValueError):
        RenderParams(1.0, 0.5, gamma=1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_params_reject_non_finite(bad):
    with pytest.raises(ValueError, match="radius"):
        RenderParams(bad, 0.5)
    with pytest.raises(ValueError, match="width"):
        RenderParams(1.0, bad)


def test_bold_drawing_checks_layout_length():
    g = build_graph(3, [(0, 1)])
    lay = Layout(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        BoldDrawing(g, lay, RenderParams(1.0, 0.1))


def test_layout_extent_is_its_box_in_python_floats():
    lay = Layout(np.array([[3.0, -1.0], [-2.0, 4.0], [0.5, 0.5]]))
    assert lay.extent == (-2.0, -1.0, 3.0, 4.0)
    assert all(type(v) is float for v in lay.extent)
    assert Layout(np.empty((0, 2))).extent == (0.0, 0.0, 0.0, 0.0)


def test_bold_drawing_box_must_square_finitely():
    # the box is the layout's extent widened by max(2r, w): 10 + 2r or 10 + w
    g = build_graph(2, [(0, 1)])
    lay = Layout(np.array([[0.0, 0.0], [10.0, 10.0]]))
    BoldDrawing(g, lay, RenderParams(1e153, 1e153))
    for r, w in ((1e154, 0.0), (0.0, 2e154), (1e200, 1e200)):
        grow = max(2 * r, w)
        with pytest.raises(ValueError, match=re.escape(
                f"drawing box {10 + grow!r} x {10 + grow!r} is too large to square")):
            BoldDrawing(g, lay, RenderParams(r, w))
    far = Layout(np.array([[-1e308, 0.0], [1e308, 0.0]]))
    with pytest.raises(ValueError, match=r"^drawing box inf x 0\.0 is too large to square$"):
        BoldDrawing(g, far, RenderParams(0.0, 0.0))


def test_records_compare_by_value():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g == build_graph(3, [(2, 1), (1, 0), (0, 1)])
    assert g != build_graph(3, [(0, 1)])
    assert g != build_graph(4, [(0, 1), (1, 2)])
    assert Graph(0, ()) == build_graph(0, [])

    pos = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
    lay = Layout(pos)
    assert lay == Layout(pos.copy())
    assert lay != Layout(pos + 1.0)
    assert lay != Layout(pos[:2])

    metrics = DrawingMetrics(3.0, 1, 10.0, np.array([1.0, 2.0]))
    assert metrics == DrawingMetrics(3.0, 1, 10.0, [1.0, 2.0])
    assert metrics != DrawingMetrics(3.0, 1, 10.0, np.array([1.0, 2.5]))
    assert metrics != DrawingMetrics(3.0, 2, 10.0, np.array([1.0, 2.0]))

    d = BoldDrawing(g, lay, RenderParams(1.0, 0.1))
    assert d == BoldDrawing(build_graph(3, [(1, 2), (0, 1)]), Layout(pos.copy()),
                            RenderParams(1.0, 0.1))
    assert d != BoldDrawing(build_graph(3, [(0, 2)]), lay, RenderParams(1.0, 0.1))
    assert d != BoldDrawing(g, Layout(pos * 2.0), RenderParams(1.0, 0.1))
    assert d != BoldDrawing(g, lay, RenderParams(1.0, 0.2))
    # a record never equals a value of another type
    assert g != (3, ((0, 1), (1, 2))) and lay != 0


def test_drawing_metrics_copies_edge_lengths():
    lengths = np.array([1.0, 2.0])
    metrics = DrawingMetrics(3.0, 0, 100.0, lengths)
    lengths[0] = 7.0
    assert metrics.edge_lengths[0] == 1.0
    # and the caller's array stays writable
    lengths[1] = 9.0
