import math

import numpy as np
import pytest

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


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_build_graph_dedupes_and_normalizes_orientation():
    g = build_graph(3, [(1, 0), (0, 1), (2, 1), (1, 2)])
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_build_graph_rejects_self_loop_with_index():
    with pytest.raises(GraphError) as exc:
        build_graph(3, [(0, 1), (2, 2)])
    assert "1" in str(exc.value)  # names the offending edge position


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(-1, 0)])


def test_graph_is_immutable():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.node_count = 5


def test_adjacency():
    g = build_graph(4, [(0, 1), (0, 2)])
    adj = g.adjacency()
    assert adj[0] == {1, 2}
    assert adj[1] == {0}
    assert adj[3] == set()


def test_edge_array_shape_and_dtype():
    g = build_graph(3, [(0, 1), (1, 2)])
    arr = g.edge_array()
    assert arr.shape == (2, 2)
    assert arr.dtype == np.int64


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


def test_drawing_metrics_copies_edge_lengths():
    lengths = np.array([1.0, 2.0])
    metrics = DrawingMetrics(3.0, 0, 100.0, lengths)
    lengths[0] = 7.0
    assert metrics.edge_lengths[0] == 1.0
    # and the caller's array stays writable
    lengths[1] = 9.0
