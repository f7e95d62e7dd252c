import math
import os
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_size
import inka.layout
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
from inka.errors import LayoutError
from inka.layout import (
    _GOLDEN,
    _coarsen,
    _component_labels,
    _interpolate,
    _repulsion_buffers,
    _repulsion_exact,
    _spring_iterate,
)
from inka.model import _pack, _unpack

GRAPHS = Path(__file__).resolve().parents[1] / "data" / "graphs"
CAN_144 = GRAPHS / "can_144.mtx"


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
    LayoutConfig(seed=np.int64(3), iterations=np.int32(10), cooling=np.float32(0.5))
    # 2**63 spring steps would never end: the count is capped
    LayoutConfig(iterations=2**20)
    for bad in (2**20 + 1, 2**63):
        with pytest.raises(ValueError, match=rf"^iterations must be in 1\.\.2\*\*20, got {bad}$"):
            LayoutConfig(iterations=bad)


def test_spring_layouts_at_a_subnormal_ideal_length_are_finite():
    # attraction multiplies by d / k, never by a floored d / k, so no pull
    # overflows however small k is
    g = load_graph(CAN_144)
    for algorithm in ("force-directed", "multilevel"):
        cfg = LayoutConfig(algorithm=algorithm, seed=1, iterations=20, ideal_edge_length=5e-324)
        assert np.isfinite(compute_layout(g, cfg).positions).all()


@pytest.mark.parametrize(
    "field, value",
    [
        ("iterations", "300"),
        ("iterations", 2.5),
        ("iterations", True),
        ("seed", 1.0),
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


# The constant that caps the entries of one repulsion strip, for block_size.
STRIPS = "inka.layout._REPULSION_BLOCK_ENTRIES"


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


@pytest.mark.parametrize("n", [600, 1500])
@pytest.mark.parametrize("rows", [1, 7, 64, None])
def test_repulsion_exact_row_blocks(n, rows):
    # rows=None builds the whole matrix as one block
    rng = np.random.default_rng(n + 1)
    pos = rng.uniform(0.0, math.sqrt(n) * 30.0, size=(n, 2))
    pos[n - 1] = pos[0]  # a coincident pair split across blocks
    weight = np.sqrt(rng.integers(1, 9, size=n))
    with block_size((rows or n) * n, STRIPS):
        assert_matches_reference(pos, weight)


def test_repulsion_exact_coincident_nodes():
    rng = np.random.default_rng(7)
    pos = rng.uniform(0.0, 400.0, size=(144, 2))
    pos[[3, 50, 99]] = pos[10]  # four nodes on one spot hit the 1e-8 clamp
    pos[120] = pos[121]
    assert_matches_reference(pos, np.sqrt(rng.integers(1, 5, size=144)))
    assert_matches_reference(pos, np.ones(144))


def test_repulsion_exact_reuses_buffers_bit_for_bit():
    # one set of scratch buffers across calls, with 7-row strips so every
    # strip after the first fills only part of them, gives the bytes of
    # freshly built buffers
    n, rows = 600, 7
    with block_size(rows * n, STRIPS):
        buffers = _repulsion_buffers(n)
        assert [(b.shape, b.dtype) for b in buffers] == [((rows * n,), np.float64)] * 2
        rng = np.random.default_rng(9)
        for _ in range(3):
            pos = rng.uniform(0.0, math.sqrt(n) * 30.0, size=(n, 2))
            pos[n - 1] = pos[0]
            weight = np.sqrt(rng.integers(1, 9, size=n))
            got = _repulsion_exact(pos, weight, 30.0, _buffers=buffers)
            assert np.array_equal(got, _repulsion_exact(pos, weight, 30.0))


@pytest.mark.parametrize(
    "n, size", [(1, 1), (3, 9), (181, 181 * 181), (182, 180 * 182), (600, 54 * 600),
                (2361, 13 * 2361), (40000, 40000)],
)
def test_repulsion_buffers_hold_the_first_strip(n, size):
    # rows = min(n, max(1, 2**15 // n)): one strip up to 181 nodes, and
    # one row of n entries once n passes 2**15
    assert [b.shape for b in _repulsion_buffers(n)] == [(size,)] * 2


@pytest.mark.parametrize(
    "pairs",
    [
        [(8, 10), (9, 12)],  # both ends inside the second strip
        [(2, 500), (3, 599)],  # a row of the first strip, a column of a later one
        [(6, 7), (13, 14)],  # the last row of a strip and the first of the next
    ],
)
@pytest.mark.parametrize("gap", [0.0, 3e-5])  # coincident, or 0 < d^2 < 1e-8
def test_repulsion_exact_close_pairs_in_strips(pairs, gap):
    # 7-row strips; only the strips holding a planted pair look for close
    # pairs.  The nodes start on a jittered 30-unit lattice, so no other
    # pair is close: the cancelling form loses about eps * |c| * k^2 / d^2,
    # which at d = 0.2 already passes 1e-12 of the largest force.
    n, rows = 600, 7
    rng = np.random.default_rng(11)
    cell = np.column_stack([np.arange(n) % 25, np.arange(n) // 25])
    pos = 30.0 * cell + rng.uniform(-5.0, 5.0, size=(n, 2))
    for a, b in pairs:
        pos[b] = pos[a] + (gap, 0.0)
    weight = np.sqrt(rng.integers(1, 9, size=n))
    with block_size(rows * n, STRIPS):
        assert_matches_reference(pos, weight)
    assert_matches_reference(pos, weight)  # default strips: 54 rows


def repulsion_one_matrix(pos, weight, k):
    """The whole clamped force matrix times the (n, 3) block, in one product."""
    c = pos - pos.mean(axis=0)
    x, y = c[:, 0], c[:, 1]
    rhs = np.column_stack([weight, weight[:, None] * c])
    g = np.subtract.outer(x, x)
    g *= g
    dy = np.subtract.outer(y, y)
    dy *= dy
    g += dy
    coincident = g == 0.0
    g = k * k / np.maximum(g, 1e-8)
    g[coincident] = 0.0
    s = g @ rhs
    return weight[:, None] * (c * s[:, :1] - s[:, 1:])


@pytest.mark.parametrize("n", [2, 144, 181])
def test_repulsion_exact_single_strip_is_the_whole_matrix_product(n):
    # up to 181 nodes the kernel is one strip, bit for bit the one product
    # over the whole clamped matrix, coincident pairs included
    rng = np.random.default_rng(n)
    pos = rng.uniform(0.0, math.sqrt(n) * 30.0, size=(n, 2))
    weight = np.sqrt(rng.integers(1, 9, size=n))
    assert np.array_equal(_repulsion_exact(pos, weight, 30.0),
                          repulsion_one_matrix(pos, weight, 30.0))
    if n > 4:
        pos[[n - 1, n - 2]] = pos[0]
        assert np.array_equal(_repulsion_exact(pos, weight, 30.0),
                              repulsion_one_matrix(pos, weight, 30.0))


BLAS_THREADS_PROBE = """
import hashlib
import sys
from pathlib import Path

import numpy as np

from inka import LayoutConfig, layout_force_directed, load_graph
from inka.layout import _repulsion_exact

for n in (600, 1500, 2361):
    pos = np.random.default_rng(n).uniform(0.0, np.sqrt(n) * 30.0, size=(n, 2))
    print(hashlib.sha256(_repulsion_exact(pos, np.ones(n), 30.0).tobytes()).hexdigest())
g = load_graph(Path(sys.argv[1]) / "ba800.edges")
layout = layout_force_directed(g, LayoutConfig(seed=1, iterations=20))
print(hashlib.sha256(layout.positions.tobytes()).hexdigest())
"""


def test_repulsion_does_not_depend_on_blas_threads():
    # a product big enough for OpenBLAS to split it over threads sums in
    # another order, so the forces would change with OPENBLAS_NUM_THREADS
    src = str(Path(inka.layout.__file__).resolve().parents[1])
    digests = [
        subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_PROBE, str(GRAPHS)],
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(digests[0].split()) == 4
    assert digests[0] == digests[1]


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
    E = g.edges
    *_, cid = _coarsen(g.node_count, E, np.ones(len(E)), np.ones(g.node_count))
    pos = np.random.default_rng(0).uniform(0.0, 600.0, size=(cid.max() + 1, 2))
    np.testing.assert_allclose(
        _interpolate(pos, cid, 30.0), interpolate_loop(pos, cid, 30.0), rtol=0, atol=1e-12
    )


def reference_components(g):
    """Connected components by breadth-first search over adjacency sets,
    as sorted node-index arrays ordered by their smallest node id."""
    adj = [set() for _ in range(g.node_count)]
    for a, b in g.edges.tolist():
        adj[a].add(b)
        adj[b].add(a)
    seen = np.zeros(g.node_count, dtype=bool)
    comps = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        members = [start]
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    members.append(u)
                    queue.append(u)
        comps.append(np.array(sorted(members), dtype=np.int64))
    return comps


def assert_labels_match_reference(g):
    label = _component_labels(g.node_count, g.edges)
    comps = [np.flatnonzero(label == c) for c in range(label.max(initial=-1) + 1)]
    expected = reference_components(g)
    assert len(comps) == len(expected)
    for got, want in zip(comps, expected):
        np.testing.assert_array_equal(got, want)


@st.composite
def component_graphs(draw):
    """Graphs whose nodes fall into random groups with edges only inside a
    group (a shuffled path through it, random chords, or both), ids
    shuffled: isolated nodes, many components and long paths."""
    n = draw(st.integers(1, 60))
    group = draw(st.lists(st.integers(0, draw(st.integers(0, n))), min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    edges = []
    if draw(st.booleans()):
        for k in set(group):
            members = [ids[v] for v in range(n) if group[v] == k]
            edges += zip(members, members[1:])
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges += [(ids[a], ids[b]) for a, b in chords if a != b and group[a] == group[b]]
    return build_graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(component_graphs())
def test_component_labels_match_breadth_first_search(g):
    assert_labels_match_reference(g)


def coarsen_loop(n, edges, edge_weight, node_weight):
    """The heavy-edge matching as a loop over adjacency lists, the form
    _coarsen had before its sorted greedy pass; kept as its reference."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), w in zip(edges, edge_weight):
        adj[a].append((int(b), float(w)))
        adj[b].append((int(a), float(w)))
    mate = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if mate[v] >= 0:
            continue
        best, best_w = -1, -1.0
        for u, w in adj[v]:
            if mate[u] < 0 and u != v and (w > best_w or (w == best_w and u < best)):
                best, best_w = u, w
        if best >= 0:
            mate[v] = best
            mate[best] = v
        else:
            mate[v] = v
    # Coarse ids number the matched pairs by their smaller fine index.
    leaders, cid = np.unique(np.minimum(np.arange(n), mate), return_inverse=True)
    nxt = len(leaders)
    node_weight2 = np.bincount(cid, node_weight, nxt)
    ends = np.sort(cid[edges], axis=1)
    cross = ends[:, 0] != ends[:, 1]
    keys, inv = np.unique(_pack(ends[cross].T, nxt)[0], return_inverse=True)
    edges2 = np.column_stack(_unpack([keys], nxt, 2))
    edge_weight2 = np.bincount(inv, edge_weight[cross], len(keys))
    return nxt, edges2, edge_weight2, node_weight2, cid


def assert_coarsen_matches_loop(n, edges, edge_weight, node_weight):
    got = _coarsen(n, edges, edge_weight, node_weight)
    want = coarsen_loop(n, edges, edge_weight, node_weight)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["can_144.mtx", "mesh24.graph", "ba800.edges", "yeastppi.edges"])
@pytest.mark.parametrize("weights", ["unit", "tied"])
def test_coarsen_matches_loop_on_fixtures(name, weights):
    g = load_graph(GRAPHS / name)
    n, E = g.node_count, g.edges
    rng = np.random.default_rng(3)
    if weights == "unit":
        ew, nw = np.ones(len(E)), np.ones(n)
    else:  # integer weights in {1, 2, 3}: many ties to break by id
        ew, nw = rng.integers(1, 4, len(E)).astype(float), rng.integers(1, 4, n).astype(float)
    assert_coarsen_matches_loop(n, E, ew, nw)


@settings(max_examples=200, deadline=None)
@given(component_graphs(), st.data())
def test_coarsen_matches_loop_on_random_graphs(g, data):
    # isolated nodes, edgeless graphs and unit or tied integer weights
    top = data.draw(st.sampled_from([1, 3]))
    ew = data.draw(st.lists(st.integers(1, top), min_size=g.m, max_size=g.m))
    nw = data.draw(st.lists(st.integers(1, 3), min_size=g.node_count, max_size=g.node_count))
    assert_coarsen_matches_loop(
        g.node_count, g.edges, np.array(ew, dtype=float), np.array(nw, dtype=float)
    )


def test_component_labels_on_fixtures_and_edge_cases():
    for name in ("can_144.mtx", "mesh24.graph", "ba800.edges", "yeastppi.edges"):
        assert_labels_match_reference(load_graph(GRAPHS / name))
    assert_labels_match_reference(build_graph(0, []))
    assert_labels_match_reference(build_graph(5, []))
    assert_labels_match_reference(build_graph(6, [(4, 5), (0, 5), (1, 3)]))


def test_component_labels_of_a_shuffled_path_take_bounded_time():
    # a min-label loop that moves labels one edge per round takes 4,281
    # rounds (about 0.16 s CPU) here; hook and jump takes under 1 ms
    ids = np.random.default_rng(5).permutation(5000)
    g = build_graph(5000, np.column_stack([ids[:-1], ids[1:]]))
    seconds = []
    for _ in range(3):
        start = time.process_time()
        label = _component_labels(g.node_count, g.edges)
        seconds.append(time.process_time() - start)
    assert not label.any()
    assert min(seconds) < 0.05


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


def spring_iterate_rows(pos, edges, edge_weight, node_weight, k, iterations, t0, cooling):
    """The spring loop as it was before attraction gathered coordinate
    columns: (m, 2) row gathers and a fresh pos update each step; kept as
    the reference for _spring_iterate."""
    pos = pos.copy()
    n = len(pos)
    t = t0
    buffers = _repulsion_buffers(n)
    for it in range(iterations):
        disp = _repulsion_exact(pos, node_weight, k, _buffers=buffers)
        if len(edges):
            delta = pos[edges[:, 0]] - pos[edges[:, 1]]
            d = np.hypot(delta[:, 0], delta[:, 1])
            pull = delta * (edge_weight * d / k)[:, None]
            for axis in (0, 1):
                disp[:, axis] += np.bincount(edges[:, 1], pull[:, axis], n)
                disp[:, axis] -= np.bincount(edges[:, 0], pull[:, axis], n)
        norm = np.hypot(disp[:, 0], disp[:, 1])
        np.maximum(norm, 1e-12, out=norm)
        step = np.minimum(norm, t)
        pos += disp / norm[:, None] * step[:, None]
        if not np.isfinite(pos).all():
            raise LayoutError(f"force blowup at iteration {it}")
        t *= cooling
    return pos


@pytest.mark.parametrize("name", ["can_144.mtx", "mesh24.graph"])
def test_spring_iterate_matches_rows_reference(name):
    # weighted as a multilevel level: integer node weights passed as their
    # square roots, integer edge weights, k grown with the mean node weight
    g = load_graph(GRAPHS / name)
    n, E = g.node_count, g.edges
    rng = np.random.default_rng(9)
    nw, ew = rng.integers(1, 5, n).astype(float), rng.integers(1, 4, len(E)).astype(float)
    k = 30.0 * math.sqrt(nw.mean())
    pos = rng.uniform(0.0, math.sqrt(n) * k, size=(n, 2))
    args = (pos, E, ew, np.sqrt(nw), k, 30)
    kw = dict(t0=0.1 * math.sqrt(n) * k, cooling=0.95)
    got = _spring_iterate(*args, **kw, what="reach")
    assert got.tobytes() == spring_iterate_rows(*args, **kw).tobytes()
    assert got.flags.c_contiguous and not np.shares_memory(got, pos)


def test_spring_iterate_without_edges_matches_rows_reference():
    pos = np.random.default_rng(4).uniform(0.0, 100.0, size=(7, 2))
    args = (pos, np.empty((0, 2), dtype=np.int64), np.empty(0), np.ones(7), 30.0, 20)
    got = _spring_iterate(*args, t0=10.0, cooling=0.9, what="reach")
    assert got.tobytes() == spring_iterate_rows(*args, t0=10.0, cooling=0.9).tobytes()


def test_multilevel_refinement_reach_names_the_users_length_and_nodes():
    # the coarsest level (36 nodes) runs; the 72-node refinement's reach
    # does not square, and the refusal names 1.5e152 and the 144 nodes
    cfg = LayoutConfig(algorithm="multilevel", seed=1, iterations=100, ideal_edge_length=1.5e152)
    with mock.patch("inka.layout._spring_iterate", wraps=_spring_iterate) as spy:
        with pytest.raises(LayoutError, match=r"^ideal edge length 1\.5e\+152 for 144 nodes: "
                                              r"spring reach 1\.07\d*e\+154 x 9\.74\d*e\+153 is"):
            compute_layout(load_graph(CAN_144), cfg)
    assert [len(call.args[0]) for call in spy.call_args_list] == [36, 72]


def test_spring_iterate_refuses_a_reach_that_does_not_square():
    # 20 steps at t0 = 1e153, cooling 0.9, can widen each axis by about
    # 1.76e154, whose square overflows; at t0 = 1e152 the run goes ahead
    pos = np.random.default_rng(4).uniform(0.0, 100.0, size=(7, 2))
    args = (pos, np.empty((0, 2), dtype=np.int64), np.empty(0), np.ones(7), 30.0, 20)
    with pytest.raises(LayoutError, match=r"^reach 1\.7568466908188618e\+154 x "
                                          r"1\.7568466908188618e\+154 is too large to square$"):
        _spring_iterate(*args, t0=1e153, cooling=0.9, what="reach")
    assert np.isfinite(_spring_iterate(*args, t0=1e152, cooling=0.9, what="reach")).all()


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


def test_multilevel_coarsening_stops_when_a_level_stalls(monkeypatch):
    # ba800's matchings go 800 -> 506 -> 356 -> 278 -> 238; the last keeps
    # 86% of its nodes, so three levels are built, not 136
    calls = []
    coarsen = inka.layout._coarsen

    def spy(n, *rest):
        out = coarsen(n, *rest)
        calls.append((n, out[0]))
        return out

    monkeypatch.setattr(inka.layout, "_coarsen", spy)
    g = load_graph(GRAPHS / "ba800.edges")
    lay = layout_multilevel(g, LayoutConfig(algorithm="multilevel", seed=1, iterations=10))
    assert calls == [(800, 506), (506, 356), (356, 278), (278, 238)]
    assert np.isfinite(lay.positions).all()


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
