import json
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
from inka.bench import load_bench_config, worker_count
from inka.errors import InkaError, ParseError
from inka.ink import (
    bounds_report,
    check_area_constraint,
    density,
    equal_length_bounds,
    ink_components,
    ink_report,
    min_ink_radius,
    partial_edge_formulas,
    planar_formulas,
    radius_bounds,
    radius_delta_ink,
    radius_delta_ink_exact,
    scale_ink_delta,
    width_bounds,
    width_delta_ink,
    zoom_ink,
)
from inka.layout import LayoutConfig
from inka.model import _INT64_MAX, _MAX_NODES, _fraction, _pack, _unpack
from inka.raster import RasterConfig
from inka.transforms import partial_edges, scale_layout, zoom_drawing


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


def _bench_field(tmp_path, **fields):
    """load_bench_config of a one-graph, one-layout config with fields."""
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"graphs": [{"name": "ring", "path": "ring.edges"}],
                               "layouts": [{"algorithm": "circular"}], **fields}))
    return load_bench_config(cfg)


# Each public inka.ink function that takes counts or lengths, at valid factors.
_INK_CALLS = [
    (ink_components, dict(n=2, m=1, r=1.0, w=1.0, L=4.0, cr=0)),
    (ink_report, dict(n=2, m=1, r=1.0, w=1.0, L=4.0, cr=0, A=100.0)),
    (radius_bounds, dict(n=2, m=1, w=1.0, L=4.0, cr=0, gamma=1.0, A=100.0)),
    (width_bounds, dict(n=2, m=1, r=1.0, L=4.0, cr=0, gamma=1.0, A=100.0)),
    (min_ink_radius, dict(n=2, m=1, w=1.0)),
    (scale_ink_delta, dict(w=1.0, L=4.0, sigma=2.0)),
    (planar_formulas, dict(n=2, m=1, r=1.0, w=1.0, L=4.0, gamma=1.0, A=100.0)),
    (equal_length_bounds, dict(n=2, m=1, w=1.0, cr=0, gamma=1.0, A=100.0)),
    (partial_edge_formulas, dict(n=2, m=1, r=1.0, w=1.0, L=4.0, p=0.5, cr_full=0,
                                 cr_partial=0, gamma=1.0, A=100.0)),
    (width_delta_ink, dict(w=1.0, w_prime=2.0, L=4.0, m=1, r=1.0, cr=0)),
    (radius_delta_ink, dict(n=2, r=1.0, r_prime=2.0)),
    (radius_delta_ink_exact, dict(n=2, m=1, w=1.0, r=1.0, r_prime=2.0)),
    (bounds_report, dict(n=2, m=1, r=1.0, w=1.0, L=4.0, cr=0, gamma=1.0, A=100.0)),
]
_COUNTS = ("n", "m", "cr", "cr_full", "cr_partial")
_LENGTHS = ("r", "w", "L", "r_prime", "w_prime")


def _number_inputs(tmp_path):
    """(field, call of one value, integer wanted, error type): every
    numeric value a caller passes in, by the name its errors give it.  A
    field may instead be the message a value gets, where it is not the
    number rule's own wording."""
    drawing = BoldDrawing(build_graph(2, [(0, 1)]), Layout([[0.0, 0.0], [1.0, 0.0]]),
                          RenderParams(1.0, 1.0))

    def layout_entry(name):
        return lambda v: _bench_field(tmp_path, layouts=[{"algorithm": "random", name: v}])

    dtypes = {True: "bool", "1": "<U1", None: "object"}
    return [
        *[(name, lambda v, f=f, kw=kw, name=name: f(**{**kw, name: v}), name in _COUNTS,
           ValueError) for f, kw in _INK_CALLS for name in kw if name in _COUNTS + _LENGTHS],
        *[("ink", lambda v, f=f: f(v, 2.0), False, ValueError)
          for f in (density, check_area_constraint, zoom_ink)],
        (lambda v: f"edge 0: endpoints must be integers, got ({v!r}, 2)",
         lambda v: build_graph(3, [(v, 2)]), True, GraphError),
        (lambda v: f"edge 0: endpoints must be integers, got (0, {v!r})",
         lambda v: build_graph(3, [(0, v)]), True, GraphError),
        (lambda v: f"edge rows must hold integers, got {dtypes[v]} values",
         lambda v: Graph(3, [(v, v)]), True, GraphError),
        ("radius", lambda v: RenderParams(v, 1.0), False, ValueError),
        ("width", lambda v: RenderParams(1.0, v), False, ValueError),
        ("gamma", lambda v: RenderParams(1.0, 1.0, v), False, ValueError),
        ("gamma", lambda v: _fraction(v, "gamma"), False, ValueError),
        *[(name, lambda v, name=name: LayoutConfig(**{name: v}), name in ("seed", "iterations"),
           ValueError) for name in ("seed", "iterations", "ideal_edge_length", "cooling")],
        *[(name, lambda v, name=name: RasterConfig(**{name: v}), True, ValueError)
          for name in ("resolution", "supersampling")],
        ("setting 0", lambda v: _bench_field(tmp_path, settings=[[v, 1]]), False, ParseError),
        ("setting 0", lambda v: _bench_field(tmp_path, settings=[[1, v]]), False, ParseError),
        ('"gamma"', lambda v: _bench_field(tmp_path, gamma=v), False, ParseError),
        ('"area"', lambda v: _bench_field(tmp_path, area=v), False, ParseError),
        ("layout entry 0: seed", layout_entry("seed"), True, ParseError),
        ("layout entry 0: cooling", layout_entry("cooling"), False, ParseError),
        ("length multiplier", lambda v: scale_layout(drawing.layout, v), False, ValueError),
        ("area magnification", lambda v: zoom_drawing(drawing, v), False, ValueError),
        ("area", lambda v: density(1.0, v), False, ValueError),
        ("area", lambda v: check_area_constraint(1.0, v), False, ValueError),
        ("gamma", lambda v: check_area_constraint(1.0, 1.0, v), False, ValueError),
        ("retained fraction", lambda v: partial_edges(drawing, v), False, ValueError),
        ("retained fraction",
         lambda v: partial_edge_formulas(2, 1, 1.0, 1.0, 1.0, v, 0, 0, 1.0, 1.0), False, ValueError),
    ]


def _defaulted_number_inputs():
    """The entries of :func:`_number_inputs` for inputs where None asks
    for a default: worker_count's one worker per CPU, and min_ink_radius's
    L and cr, which price the minimum ink only when both are given."""
    return [
        ("thread count", lambda v: worker_count(v, 4), True, ValueError),
        ("L", lambda v: min_ink_radius(2, 1, 1.0, v, 0), False, ValueError),
        ("cr", lambda v: min_ink_radius(2, 1, 1.0, 4.0, v), True, ValueError),
    ]


def test_every_numeric_input_refuses_bools_and_non_numbers_by_name(tmp_path):
    (tmp_path / "ring.edges").write_text("0 1\n1 2\n2 0\n")
    wrong = []
    inputs = [(entry, (True, "1", None)) for entry in _number_inputs(tmp_path)]
    inputs += [(entry, (True, "1")) for entry in _defaulted_number_inputs()]
    for (field, call, integer, error), values in inputs:
        for value in values:
            kind = "an integer" if integer else "a number"
            message = (field(value) if callable(field)
                       else f"{field} must be {kind}, got {value!r}")
            try:
                call(value)
                wrong.append((field, value, "accepted"))
            except Exception as e:  # a TypeError, say, is wrong too
                if type(e) is not error or message not in str(e):
                    wrong.append((field, value, type(e).__name__, str(e)))
    assert wrong == []


def test_numbers_out_of_range_keep_their_messages(tmp_path):
    (tmp_path / "ring.edges").write_text("0 1\n1 2\n2 0\n")
    drawing = BoldDrawing(build_graph(1, []), Layout([[0.0, 0.0]]), RenderParams(1.0, 1.0))
    huge = 10**400  # an int past the floats counts as inf, as 1e400 does
    cases = [
        (lambda: RenderParams(math.nan, 1.0), ValueError,
         "radius must be finite and >= 0, got nan"),
        (lambda: RenderParams(huge, 1.0), ValueError,
         f"radius must be finite and >= 0, got {huge}"),
        (lambda: RenderParams(1.0, -1), ValueError, "width must be finite and >= 0, got -1"),
        (lambda: RenderParams(1.0, 1.0, 2), ValueError, "gamma must be in (0, 1], got 2"),
        (lambda: _fraction(math.nan, "gamma"), ValueError, "gamma must be in (0, 1], got nan"),
        (lambda: LayoutConfig(seed=-1), ValueError, "seed must fit in 64 unsigned bits"),
        (lambda: LayoutConfig(iterations=0), ValueError, "iterations must be in 1..2**20, got 0"),
        (lambda: LayoutConfig(ideal_edge_length=math.inf), ValueError,
         "ideal_edge_length must be finite and > 0, got inf"),
        (lambda: LayoutConfig(ideal_edge_length=-huge), ValueError,
         f"ideal_edge_length must be finite and > 0, got {-huge}"),
        (lambda: LayoutConfig(cooling=huge), ValueError, "cooling must be in (0, 1)"),
        (lambda: RasterConfig(resolution=32), ValueError, "resolution must be >= 64, got 32"),
        (lambda: RasterConfig(supersampling=3), ValueError,
         "supersampling must be 1, 2, or 4, got 3"),
        (lambda: _bench_field(tmp_path, gamma=2), ParseError, "gamma must be in (0, 1], got 2.0"),
        (lambda: _bench_field(tmp_path, area=huge), ParseError,
         "fixed area must be finite and > 0, got inf"),
        (lambda: scale_layout(drawing.layout, math.nan), ValueError,
         "length multiplier must be finite and > 0, got nan"),
        (lambda: zoom_drawing(drawing, -1), ValueError,
         "area magnification must be finite and > 0, got -1"),
        (lambda: density(1.0, 0), ValueError, "area must be finite and > 0, got 0"),
        (lambda: partial_edges(drawing, 0), ValueError,
         "retained fraction must be in (0, 1], got 0"),
        (lambda: check_area_constraint(1.0, 1.0, 0.0), ValueError,
         "gamma must be in (0, 1], got 0.0"),
        (lambda: worker_count(-2, 4), InkaError, "thread count must be >= 0 (0 = auto), got -2"),
        (lambda: ink_report(2, 1, -1.0, 1.0, 1.0, 0, 1.0), ValueError,
         "r must be finite and >= 0, got -1.0"),
        (lambda: ink_report(2, 1, 1.0, math.nan, 1.0, 0, 1.0), ValueError,
         "w must be finite and >= 0, got nan"),
        (lambda: ink_report(2, 1, 1.0, 1.0, 1.0, -3, 1.0), ValueError,
         "cr must be finite and >= 0, got -3"),
        (lambda: ink_report(2.5, 1, 1.0, 1.0, 1.0, 0, 1.0), ValueError,
         "n must be an integer, got 2.5"),
        (lambda: radius_bounds(4, 2, 1.0, 28.0, -5, 1.0, 100.0), ValueError,
         "cr must be finite and >= 0, got -5"),
        (lambda: equal_length_bounds(4, 2, math.nan, 0, 1.0, 100.0), ValueError,
         "w must be finite and >= 0, got nan"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value).endswith(message)


def test_an_int_too_long_to_print_keeps_its_named_error():
    huge = 10**5000  # past Python's 4,300-digit limit, str(huge) raises
    cases = [
        (lambda: RenderParams(huge, 1.0), ValueError,
         "radius must be finite and >= 0, got <int too long to print>"),
        (lambda: build_graph(3, [(0, huge)]), GraphError,
         "edge 0: endpoint out of range for 3 nodes: (0, <int too long to print>)"),
        (lambda: build_graph(huge, []), GraphError,
         f"node_count must be an integer in 0..{_MAX_NODES}, got <int too long to print>"),
        (lambda: RasterConfig(resolution=-huge), ValueError,
         "resolution must be >= 64, got <int too long to print>"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message


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
