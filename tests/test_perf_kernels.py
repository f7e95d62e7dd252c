"""Microbenchmarks of graph loading, component labelling, the
spring-layout kernels, the multilevel matching and layout, the crossing
sweep on each side of its sign-table gate and its pairwise oracle, the
disk overlap query, the stub crossing count at one ratio and at ``inka
partial``'s default ratios, the one pass that lists crossings and
collinear overlaps, check_proper, its close-pair scan and
concurrent-point stage, the raster, on mesh24 and on one small drawing
at 64 rows, and one bench cell at one worker (pytest-benchmark).

They carry the ``perf`` marker, which the default options deselect, so
the ordinary suite never runs them.  Run them with

    PYTHONPATH=src python -m pytest -m perf tests/test_perf_kernels.py
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from inka import (
    BoldDrawing,
    Layout,
    LayoutConfig,
    RasterConfig,
    RenderParams,
    build_graph,
    check_proper,
    compute_layout,
    count_crossings_bruteforce,
    count_crossings_sweep,
    load_bench_config,
    load_graph,
    measure_stub_crossings,
    partial_crossing_counts,
    partial_edges,
    rasterize_ink,
    run_bench,
)
from inka.geometry import (
    _close_pairs,
    _concurrent_points,
    _crossing_arrays,
    _ordered_pairs,
    _segment_arrays,
)
from inka.layout import _coarsen, _component_labels, _repulsion_exact, _spring_iterate

pytestmark = pytest.mark.perf

ROOT = Path(__file__).resolve().parents[1]
GRAPHS = ROOT / "data" / "graphs"
MESH24 = GRAPHS / "mesh24.graph"


def random_positions(n, k=30.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, np.sqrt(n) * k, size=(n, 2))


def traced_peak_mb(f, *args):
    """Peak traced MB above the start of one untimed call f(*args)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_load_graph_yeastppi(benchmark):
    # 2,361 nodes and 7,182 edges, with duplicate, reversed, self-loop and
    # weighted lines the parser must drop or fold
    g = benchmark(load_graph, GRAPHS / "yeastppi.edges")
    assert g.edges.shape == (g.m, 2)


def test_component_labels_shuffled_path(benchmark):
    ids = np.random.default_rng(5).permutation(5000)
    g = build_graph(5000, np.column_stack([ids[:-1], ids[1:]]))
    label = benchmark(_component_labels, g.node_count, g.edges)
    assert not label.any()


# 181 nodes and fewer are one strip; OpenBLAS split the old single product
# over threads from about 580 nodes; 2,361 is yeastppi's component
@pytest.mark.parametrize("n", [144, 288, 576, 600, 2361])
def test_repulsion_exact(benchmark, n):
    pos = random_positions(n)
    disp = benchmark(_repulsion_exact, pos, np.ones(n), 30.0)
    assert disp.shape == (n, 2)


def test_spring_iterate_one_step_mesh24(benchmark):
    g = load_graph(MESH24)
    n, edges = g.node_count, g.edges
    pos = random_positions(n)
    out = benchmark(
        _spring_iterate, pos, edges, np.ones(len(edges)), np.ones(n), 30.0, 1,
        t0=0.1 * np.sqrt(n) * 30.0, cooling=0.95, what="reach",
    )
    assert np.isfinite(out).all()


def test_spring_iterate_100_steps_can_144(benchmark):
    # n = 144 is one repulsion strip, so the fixed cost of a step around
    # repulsion (attraction gathers, bincounts, the step) weighs most here
    g = load_graph(GRAPHS / "can_144.mtx")
    n, edges = g.node_count, g.edges
    pos = random_positions(n)
    out = benchmark(
        _spring_iterate, pos, edges, np.ones(len(edges)), np.ones(n), 30.0, 100,
        t0=0.1 * np.sqrt(n) * 30.0, cooling=0.95, what="reach",
    )
    assert np.isfinite(out).all()


def test_layout_multilevel_mesh24_100_iterations(benchmark):
    # the bench-fixtures cell: 100 steps on the coarsest level, then up to
    # 50 on each of four refinement levels, each stopped at its first step
    # past 5% stretch
    g = load_graph(MESH24)
    cfg = LayoutConfig("multilevel", seed=2, iterations=100)
    layout = benchmark(compute_layout, g, cfg)
    assert np.isfinite(layout.positions).all()


def test_run_bench_one_cell_can_144_circular(benchmark):
    # one bench-fixtures item without its spring layout: the harness's fixed
    # cost per cell (graph parse, one task's lengths, crossings and five rows)
    config = load_bench_config(ROOT / "data" / "bench.json")
    cell = dataclasses.replace(config, graphs=config.graphs[:1], layouts=config.layouts[1:2])
    assert (cell.graphs[0].name, cell.layouts[0][0]) == ("can_144", "circular")
    rows = benchmark(run_bench, cell, threads=1)
    assert len(rows) == 5  # the shipped config's five (r, w) settings


def test_coarsen_yeastppi(benchmark):
    # one heavy-edge matching pass over 2,361 nodes and 7,182 edges
    g = load_graph(GRAPHS / "yeastppi.edges")
    n, edges = g.node_count, g.edges
    n2, *_ = benchmark(_coarsen, n, edges, np.ones(len(edges)), np.ones(n))
    assert 0 < n2 < n


def test_count_crossings_sweep_uniform_ba800(benchmark):
    # the random layout's box: about 1.9 M x-overlapping pairs xp, 0.63 M
    # crossings; its 800 points and 2,394 edges make a sign table of about
    # xp entries, so the gate answers it from the table
    g = load_graph(GRAPHS / "ba800.edges")
    d = BoldDrawing(g, Layout(random_positions(g.node_count, seed=3)), RenderParams(5.0, 1.0))
    assert benchmark(count_crossings_sweep, d) > 0


def test_count_crossings_sweep_mesh24_force(benchmark):
    # the bench's force layout: short edges, about 0.1 M x-overlapping pairs
    # xp against a table of about 9 xp entries, so the gate keeps engine runs
    g = load_graph(MESH24)
    layout = compute_layout(g, LayoutConfig("force-directed", seed=1, iterations=300))
    d = BoldDrawing(g, layout, RenderParams(1.0, 1.0))
    assert benchmark(count_crossings_sweep, d) > 0


def test_count_crossings_bruteforce_uniform_mesh24(benchmark):
    # the pairwise oracle on the random layout's box: all 1.33 M edge
    # pairs, in dense triangular tiles of 111 segments
    g = load_graph(MESH24)
    d = BoldDrawing(g, Layout(random_positions(g.node_count, seed=3)), RenderParams(5.0, 1.0))
    assert benchmark(count_crossings_bruteforce, d) == count_crossings_sweep(d) > 0


def test_crossing_arrays_uniform_mesh24(benchmark):
    # the oracle's drawing, one kernel pass for crossings and collinear
    # overlaps: the kernel's first stage keeps the pairs with both of J's
    # orientations against line I exactly 0; no two edges lie on one line
    g = load_graph(MESH24)
    d = BoldDrawing(g, Layout(random_positions(g.node_count, seed=3)), RenderParams(5.0, 1.0))
    P, Q, _E = _segment_arrays(d)
    I, _J, _pts, overlaps = benchmark(_crossing_arrays, P, Q)
    assert I.size > 0 and overlaps == []


def test_disk_overlap_pairs_uniform_mesh24(benchmark):
    # the oracle's nodes at r = 5: cells of side 10 over a box of side
    # 30 sqrt(n), about a hundred close pairs
    g = load_graph(MESH24)
    x, y = random_positions(g.node_count, seed=3).T
    pairs = benchmark(lambda: _ordered_pairs(_close_pairs(x, y, 10.0), x.size))
    assert pairs and pairs == sorted(set(pairs))


def test_measure_stub_crossings_uniform_mesh24(benchmark):
    # half stubs in the random layout's box: the kernel enumerates the
    # edges' own crossings, and those within a quarter of an end along
    # both edges count
    g = load_graph(MESH24)
    d = BoldDrawing(g, Layout(random_positions(g.node_count, seed=3)), RenderParams(5.0, 1.0))
    stubs = partial_edges(d, 0.5)
    assert benchmark(measure_stub_crossings, stubs) > 0


def test_partial_crossing_counts_default_ratios_uniform_mesh24(benchmark):
    # `inka partial`'s default ratios in one kernel pass: every crossing
    # counts at p = 1, and those below 1 take the crossings out once
    g = load_graph(MESH24)
    d = BoldDrawing(g, Layout(random_positions(g.node_count, seed=3)), RenderParams(5.0, 1.0))
    counts = benchmark(partial_crossing_counts, d, [0.1, 0.25, 0.5, 1.0])
    assert 0 < counts[0] <= counts[1] <= counts[2] <= counts[3] == count_crossings_sweep(d)


def test_crossing_arrays_uniform_ba800(benchmark):
    # the sweep's drawing: about 0.63 M crossing pairs, each block coded as
    # int64 pair keys, sorted once and decoded, then the crossing points
    g = load_graph(GRAPHS / "ba800.edges")
    d = BoldDrawing(g, Layout(random_positions(g.node_count, seed=3)), RenderParams(5.0, 1.0))
    P, Q, _E = _segment_arrays(d)
    benchmark.extra_info["tracemalloc_peak_mb"] = traced_peak_mb(_crossing_arrays, P, Q)
    I, J, pts, _overlaps = benchmark(_crossing_arrays, P, Q)
    benchmark.extra_info["returned_mb"] = (I.nbytes + J.nbytes + pts.nbytes) / 1e6
    assert I.size == J.size == len(pts) > 0 and (I < J).all()


def test_check_proper_lattice_can_144(benchmark):
    # distinct points of an integer lattice: ties, vertical edges and
    # collinear overlaps, and tens of thousands of crossings to compare
    g = load_graph(GRAPHS / "can_144.mtx")
    n = g.node_count
    side = int(np.ceil(2 * np.sqrt(n)))
    cells = np.random.default_rng(1).choice(side * side, size=n, replace=False)
    pos = np.column_stack([cells % side, cells // side]).astype(np.float64)
    d = BoldDrawing(g, Layout(pos), RenderParams(0.25, 0.1))
    benchmark.extra_info["tracemalloc_peak_mb"] = traced_peak_mb(check_proper, d)
    report = benchmark(check_proper, d)
    benchmark.extra_info["report_arrays_mb"] = (report.concurrent_points.nbytes
                                                + report.concurrent_edges.nbytes) / 1e6
    assert len(report.concurrent_points) and report.collinear_overlaps


def test_close_crossing_pairs_circle_mesh24(benchmark):
    # nodes at uniform angles on a circle of circumference n * 30: 433,629
    # crossings, 98,942 concurrent points at w = 1
    g = load_graph(MESH24)
    n = g.node_count
    theta = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, size=n)
    pos = n * 30.0 / (2.0 * np.pi) * np.column_stack([np.cos(theta), np.sin(theta)])
    P, Q, _E = _segment_arrays(BoldDrawing(g, Layout(pos), RenderParams(5.0, 1.0)))
    _I, _J, pts, _overlaps = _crossing_arrays(P, Q)
    X, Y = pts[:, 0].copy(), pts[:, 1].copy()
    # the scan yields its blocks lazily: list them inside the timed call
    blocks = benchmark(lambda: list(_close_pairs(X, Y, 1.0)))
    A, B = (np.concatenate(c) for c in zip(*blocks))
    assert A.size == B.size > 0 and (A < B).all()


def test_concurrent_points_lattice_can_144(benchmark):
    # the memory test's drawing: 35,208 crossings, 92,583 concurrent
    # points at w = 0.1
    g = load_graph(GRAPHS / "can_144.mtx")
    n = g.node_count
    side = int(np.ceil(2 * np.sqrt(n)))
    cells = np.random.default_rng(1).choice(side * side, size=n, replace=False)
    pos = np.column_stack([cells % side, cells // side]).astype(np.float64)
    P, Q, _E = _segment_arrays(BoldDrawing(g, Layout(pos), RenderParams(0.25, 0.1)))
    I, J, pts, _overlaps = _crossing_arrays(P, Q)
    benchmark.extra_info["tracemalloc_peak_mb"] = traced_peak_mb(
        _concurrent_points, I, J, pts, 0.1, g.m)
    points, edges = benchmark(_concurrent_points, I, J, pts, 0.1, g.m)
    benchmark.extra_info["report_arrays_mb"] = (points.nbytes + edges.nbytes) / 1e6
    assert len(points) == len(edges) > 0


def test_rasterize_ink_mesh24(benchmark):
    g = load_graph(MESH24)
    d = BoldDrawing(g, Layout(random_positions(g.node_count, seed=2)), RenderParams(5.0, 2.0))
    area = benchmark(rasterize_ink, d, RasterConfig(512, 1))
    assert area > 0


def test_rasterize_ink_mesh24_force_default_config(benchmark):
    # the default 2,048 x 2 rows at r = w = 1 on the bench's force layout
    # make 8 bands; the traced peak is about one band's, near 3.6 MB
    g = load_graph(MESH24)
    layout = compute_layout(g, LayoutConfig("force-directed", seed=1, iterations=300))
    d = BoldDrawing(g, layout, RenderParams(1.0, 1.0))
    benchmark.extra_info["tracemalloc_peak_mb"] = traced_peak_mb(rasterize_ink, d)
    area = benchmark(rasterize_ink, d)
    assert area > 0


def test_rasterize_ink_small_drawing(benchmark):
    # 35 nodes on a random tree plus half as many edges again, at 64 rows:
    # the shape of one item of the small-drawings perfbench workload
    rng = np.random.default_rng(4)
    n = 35
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(pairs) < n - 1 + n // 2:
        a, b = sorted(int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            pairs.add((a, b))
    g = build_graph(n, sorted(pairs))
    d = BoldDrawing(g, Layout(random_positions(n, seed=4)), RenderParams(1.5, 0.8))
    area = benchmark(rasterize_ink, d, RasterConfig(64, 1))
    assert area > 0
