import math
from pathlib import Path

import numpy as np
import pytest

from inka import (
    BoldDrawing,
    LayoutConfig,
    RenderParams,
    build_graph,
    compute_layout,
    edge_lengths,
    layout_circular,
    layout_force_directed,
    layout_multilevel,
    layout_random,
    load_graph,
)
from inka.layout import _GOLDEN, _coarsen, _interpolate, _repulsion_exact

CAN_144 = Path(__file__).resolve().parents[1] / "data" / "graphs" / "can_144.mtx"


def grid_graph(rows, cols):
    edges = []
    for y in range(rows):
        for x in range(cols):
            i = y * cols + x
            if x + 1 < cols:
                edges.append((i, i + 1))
            if y + 1 < rows:
                edges.append((i, i + cols))
    return build_graph(rows * cols, edges)


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def total_length(g, layout):
    d = BoldDrawing(g, layout, RenderParams(0.0, 0.0))
    return edge_lengths(d)[1]


def test_layout_config_validation():
    LayoutConfig()
    with pytest.raises(ValueError):
        LayoutConfig(algorithm="fm3")
    with pytest.raises(ValueError):
        LayoutConfig(seed=-1)
    with pytest.raises(ValueError):
        LayoutConfig(iterations=0)
    with pytest.raises(ValueError):
        LayoutConfig(ideal_edge_length=0.0)
    with pytest.raises(ValueError):
        LayoutConfig(cooling=1.0)
    with pytest.raises(ValueError):
        LayoutConfig(coarsen_threshold=1)
    LayoutConfig(seed=np.int64(3), iterations=np.int32(10), cooling=np.float32(0.5))


@pytest.mark.parametrize(
    "field, value",
    [
        ("iterations", "300"),
        ("iterations", 2.5),
        ("iterations", True),
        ("seed", 1.0),
        ("coarsen_threshold", None),
        ("ideal_edge_length", None),
        ("ideal_edge_length", "30"),
        ("ideal_edge_length", math.inf),
        ("ideal_edge_length", math.nan),
        ("cooling", False),
    ],
)
def test_layout_config_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        LayoutConfig(**{field: value})


def repulsion_reference(pos, weight, k):
    """The (n, n, 2) difference-tensor form of the exact repulsion."""
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.maximum(diff[..., 0] ** 2 + diff[..., 1] ** 2, 1e-8)
    f = k * k / d2 * np.outer(weight, weight)
    np.fill_diagonal(f, 0.0)
    return (diff * f[:, :, None]).sum(axis=1)


def assert_matches_reference(pos, weight, k=30.0):
    ref = repulsion_reference(pos, weight, k)
    got = _repulsion_exact(pos, weight, k)
    assert got.shape == pos.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 3, 144, 600])
@pytest.mark.parametrize("weighted", [False, True])
def test_repulsion_exact_matches_reference(n, weighted):
    rng = np.random.default_rng(n)
    pos = rng.uniform(0.0, math.sqrt(n) * 30.0, size=(n, 2))
    # multilevel passes sqrt(node_weight), node weights being merged counts
    weight = np.sqrt(rng.integers(1, 9, size=n)) if weighted else np.ones(n)
    assert_matches_reference(pos, weight)


def test_repulsion_exact_coincident_nodes():
    rng = np.random.default_rng(7)
    pos = rng.uniform(0.0, 400.0, size=(144, 2))
    pos[[3, 50, 99]] = pos[10]  # four nodes on one spot hit the 1e-8 clamp
    pos[120] = pos[121]
    assert_matches_reference(pos, np.sqrt(rng.integers(1, 5, size=144)))
    assert_matches_reference(pos, np.ones(144))


@pytest.mark.parametrize("shift", [(1e6, 1e6), (-3e6, 1e6)])
def test_repulsion_exact_translated_drawing(shift):
    rng = np.random.default_rng(8)
    pos = rng.uniform(0.0, 400.0, size=(144, 2)) + np.array(shift)
    assert_matches_reference(pos, np.sqrt(rng.integers(1, 5, size=144)))


def interpolate_loop(pos, cid, k):
    """Per-coarse-node jitter loop that _interpolate vectorises."""
    fine = pos[cid].copy()
    for c in range(len(pos)):
        members = np.flatnonzero(cid == c)
        if len(members) == 2:
            theta = 2.0 * math.pi * ((c + 1) * _GOLDEN % 1.0)
            off = 0.25 * k * np.array([math.cos(theta), math.sin(theta)])
            fine[members[0]] += off
            fine[members[1]] -= off
    return fine


@pytest.mark.parametrize(
    "cid",
    [
        [0, 0, 1, 1, 2, 2],  # all pairs
        [0, 2, 1, 3],  # all singletons
        [0, 1, 0, 2, 3, 1, 4, 3, 2, 5],  # mixed, pairs not adjacent
        [0],
    ],
)
def test_interpolate_matches_loop(cid):
    cid = np.array(cid, dtype=np.int64)
    pos = np.random.default_rng(len(cid)).uniform(-50.0, 50.0, size=(cid.max() + 1, 2))
    # np.cos/np.sin may differ from math.cos/math.sin in the last place
    np.testing.assert_allclose(
        _interpolate(pos, cid, 30.0), interpolate_loop(pos, cid, 30.0), rtol=0, atol=1e-12
    )


def test_interpolate_matches_loop_on_a_matching():
    # the fine-to-coarse map of a real coarsening pass, 500 nodes
    g = grid_graph(20, 25)
    E = g.edge_array()
    *_, cid = _coarsen(g.node_count, E, np.ones(len(E)), np.ones(g.node_count))
    pos = np.random.default_rng(0).uniform(0.0, 600.0, size=(cid.max() + 1, 2))
    np.testing.assert_allclose(
        _interpolate(pos, cid, 30.0), interpolate_loop(pos, cid, 30.0), rtol=0, atol=1e-12
    )


def test_layout_random_stays_in_box_and_is_seeded():
    g = grid_graph(5, 5)
    a = layout_random(g, seed=4)
    b = layout_random(g, seed=4)
    c = layout_random(g, seed=5)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)
    side = math.sqrt(25) * 30.0
    assert (a.positions >= 0).all() and (a.positions <= side).all()


def test_layout_circular_radius_and_spacing():
    g = cycle_graph(12)
    lay = layout_circular(g, ideal_edge_length=10.0)
    center = lay.positions.mean(axis=0)
    radii = np.hypot(*(lay.positions - center).T)
    assert np.allclose(radii, 12 * 10.0 / (2 * math.pi))
    gaps = np.hypot(*np.diff(np.vstack([lay.positions, lay.positions[:1]]), axis=0).T)
    assert np.allclose(gaps, gaps[0])


def test_force_directed_is_deterministic():
    g = grid_graph(6, 6)
    cfg = LayoutConfig(algorithm="force-directed", seed=9, iterations=120)
    a = layout_force_directed(g, cfg)
    b = layout_force_directed(g, cfg)
    assert np.array_equal(a.positions, b.positions)
    other = layout_force_directed(g, LayoutConfig(seed=10, iterations=120))
    assert not np.array_equal(a.positions, other.positions)


def test_force_directed_single_edge_near_ideal_length():
    g = build_graph(2, [(0, 1)])
    cfg = LayoutConfig(seed=1, iterations=400, ideal_edge_length=30.0)
    lay = layout_force_directed(g, cfg)
    d = float(np.hypot(*(lay.positions[0] - lay.positions[1])))
    assert abs(d - 30.0) / 30.0 < 0.10


def test_force_directed_cycle_is_regular():
    g = cycle_graph(8)
    cfg = LayoutConfig(seed=3, iterations=500)
    lay = layout_force_directed(g, cfg)
    d = BoldDrawing(g, lay, RenderParams(0.0, 0.0))
    lengths, _ = edge_lengths(d)
    cv = lengths.std() / lengths.mean()
    assert cv < 0.1


def test_force_directed_components_do_not_overlap():
    # two triangles, no connection
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cfg = LayoutConfig(seed=2, iterations=200)
    lay = layout_force_directed(g, cfg)
    assert np.isfinite(lay.positions).all()
    box_a = (lay.positions[:3].min(axis=0), lay.positions[:3].max(axis=0))
    box_b = (lay.positions[3:].min(axis=0), lay.positions[3:].max(axis=0))
    separated_x = box_a[1][0] < box_b[0][0] or box_b[1][0] < box_a[0][0]
    separated_y = box_a[1][1] < box_b[0][1] or box_b[1][1] < box_a[0][1]
    assert separated_x or separated_y


@pytest.mark.parametrize("algorithm", ["force-directed", "multilevel"])
def test_spring_layouts_of_can_144_repeat_bit_for_bit(algorithm):
    g = load_graph(CAN_144)
    cfg = LayoutConfig(algorithm=algorithm, seed=11, iterations=100)
    a = compute_layout(g, cfg).positions
    b = compute_layout(g, cfg).positions
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()


def test_multilevel_small_graph_matches_force_directed():
    g = grid_graph(5, 5)
    cfg = LayoutConfig(algorithm="multilevel", seed=6, iterations=150)
    a = layout_multilevel(g, cfg)
    b = layout_force_directed(g, cfg)
    assert np.array_equal(a.positions, b.positions)


def test_multilevel_is_deterministic_and_finite():
    g = grid_graph(12, 12)
    cfg = LayoutConfig(algorithm="multilevel", seed=8, iterations=150)
    a = layout_multilevel(g, cfg)
    b = layout_multilevel(g, cfg)
    assert np.array_equal(a.positions, b.positions)
    assert np.isfinite(a.positions).all()


def test_spring_layouts_beat_random_on_grid():
    g = grid_graph(12, 12)
    rand_L = total_length(g, layout_random(g, seed=1))
    fd_L = total_length(
        g, layout_force_directed(g, LayoutConfig(seed=1, iterations=250))
    )
    ml_L = total_length(
        g, layout_multilevel(g, LayoutConfig(algorithm="multilevel", seed=1, iterations=250))
    )
    assert fd_L < rand_L
    assert ml_L < rand_L


def test_compute_layout_dispatch():
    g = cycle_graph(6)
    for algorithm, direct in (
        ("random", lambda: layout_random(g, seed=7)),
        ("circular", lambda: layout_circular(g)),
        ("force-directed", lambda: layout_force_directed(g, LayoutConfig(seed=7, iterations=80))),
        (
            "multilevel",
            lambda: layout_multilevel(
                g, LayoutConfig(algorithm="multilevel", seed=7, iterations=80)
            ),
        ),
    ):
        cfg = LayoutConfig(algorithm=algorithm, seed=7, iterations=80)
        assert np.array_equal(compute_layout(g, cfg).positions, direct().positions)


def test_empty_and_singleton_graphs():
    g0 = build_graph(0, [])
    g1 = build_graph(1, [])
    for fn in (
        lambda g: layout_random(g, seed=0),
        lambda g: layout_circular(g),
        lambda g: layout_force_directed(g, LayoutConfig(seed=0, iterations=10)),
        lambda g: layout_multilevel(g, LayoutConfig(algorithm="multilevel", seed=0, iterations=10)),
    ):
        assert fn(g0).positions.shape == (0, 2)
        assert fn(g1).positions.shape == (1, 2)
        assert np.isfinite(fn(g1).positions).all()
