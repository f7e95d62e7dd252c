import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_size, bold, kernel_path, random_bold_drawing
import inka
from inka import (
    bounding_area,
    bounding_box,
    check_proper,
    count_crossings_bruteforce,
    count_crossings_sweep,
    crossing_pairs,
    edge_lengths,
    measure,
)
from inka.geometry import (
    _BLOCK_PAIRS,
    _cell_ranks,
    _close_pairs,
    _concurrent_points,
    _crossing_arrays,
    _crossing_blocks,
    _edge_set_codes,
    _expand,
    _hit_pairs,
    _least_key_of_each,
    _ordered_pairs,
    _orient,
    _pair_keys,
    _rank_blocks,
    _runs,
    _segment_arrays,
    _spans,
    collinear_overlap_mask,
    crossing_points_of,
    transversal_crossing_mask,
)
from inka.model import _MAX_NODES, _pack, _unpack

GRAPHS = Path(__file__).resolve().parents[1] / "data" / "graphs"


def _rows(*points):
    """One-row (1, 2) endpoint arrays, one per point, for the row-wise
    predicates."""
    return [np.array([pt], dtype=np.float64) for pt in points]


def test_segments_intersect_midpoint():
    rows = _rows((0, 0), (10, 10), (0, 10), (10, 0))
    assert transversal_crossing_mask(*rows)[0]
    assert tuple(crossing_points_of(*rows)[0]) == pytest.approx((5.0, 5.0))


def test_segments_intersect_disjoint():
    assert not transversal_crossing_mask(*_rows((0, 0), (1, 0), (0, 1), (1, 1)))[0]


def test_segments_intersect_shared_endpoint_is_not_a_crossing():
    assert not transversal_crossing_mask(*_rows((0, 0), (1, 1), (1, 1), (2, 0)))[0]


def test_segments_intersect_touching_interior_is_not_transversal():
    # endpoint of one lies on the interior of the other: orientation zero
    assert not transversal_crossing_mask(*_rows((0, 0), (2, 0), (1, 0), (1, 5)))[0]


def test_segments_intersect_degenerate_segment():
    assert not transversal_crossing_mask(*_rows((1, 1), (1, 1), (0, 0), (2, 2)))[0]


def test_collinear_overlap_detected_separately():
    rows = _rows((0, 0), (2, 0), (1, 0), (3, 0))
    assert not transversal_crossing_mask(*rows)[0]
    assert collinear_overlap_mask(*rows)[0]
    # touching only at one point is not a positive-length overlap
    assert not collinear_overlap_mask(*_rows((0, 0), (1, 0), (1, 0), (2, 0)))[0]
    # vertical flavor
    assert collinear_overlap_mask(*_rows((0, 0), (0, 2), (0, 1), (0, 3)))[0]


coords = st.integers(min_value=-4, max_value=4)
points = st.tuples(coords, coords)


@settings(max_examples=300, deadline=None)
@given(points, points, points, points)
def test_intersection_predicate_is_symmetric(p1, q1, p2, q2):
    # small integer coordinates force collinear, degenerate, and
    # endpoint-touching configurations
    a, b, rev = _rows(p1, q1), _rows(p2, q2), _rows(q1, p1)
    assert transversal_crossing_mask(*a, *b)[0] == transversal_crossing_mask(*b, *a)[0]
    assert collinear_overlap_mask(*a, *b)[0] == collinear_overlap_mask(*b, *a)[0]
    # swapping a segment's own endpoints changes nothing either
    assert transversal_crossing_mask(*rev, *b)[0] == transversal_crossing_mask(*a, *b)[0]


def test_crossing_counts_on_fixtures(parallel_drawing, diagonal_drawing, xshape_drawing):
    for d, expected in ((parallel_drawing, 0), (diagonal_drawing, 1), (xshape_drawing, 1)):
        assert count_crossings_bruteforce(d) == expected
        assert count_crossings_sweep(d) == expected


@pytest.mark.parametrize("counter", [count_crossings_sweep, count_crossings_bruteforce])
@pytest.mark.parametrize("side", [1.0, 1e-5, 1e-6])
def test_two_diagonal_square_crosses_once_at_every_scale(counter, side):
    assert counter(bold([(0, 0), (side, side), (0, side), (side, 0)], [(0, 1), (2, 3)])) == 1


def exact_answers(d):
    """Every count and list a drawing's predicates decide, with the report
    for its float outputs."""
    stubs = [inka.measure_stub_crossings(inka.partial_edges(d, p)) for p in (0.5, 1.0)]
    report = check_proper(d)
    pairs = [(i, j) for i, j, _pt in crossing_pairs(d)[0]]
    counts = (count_crossings_sweep(d), count_crossings_bruteforce(d), *stubs)
    return counts, pairs, report.disk_overlaps, report.collinear_overlaps, report


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([100.0, 15.0, 1.0]),
       st.sampled_from([0.0, 1.0]), st.integers(-40, 40), st.data())
def test_answers_are_exact_under_power_of_two_scaling(seed, span, lattice_prob, k, data):
    # IEEE arithmetic commutes with a 2^k scale, and the sign tests are
    # against exact 0: every answer stays, and each point scales exactly
    d = random_bold_drawing(np.random.default_rng(seed), span=span, lattice_prob=lattice_prob)
    s = 2.0**k
    scaled = inka.BoldDrawing(d.graph, inka.Layout(d.layout.positions * s),
                              inka.RenderParams(d.params.radius * s, d.params.width * s))
    *want, report = exact_answers(d)
    *got, scaled_report = exact_answers(scaled)
    assert got == want
    assert scaled_report.concurrent_edges.tobytes() == report.concurrent_edges.tobytes()
    assert scaled_report.concurrent_points.tobytes() == (report.concurrent_points * s).tobytes()
    if lattice_prob:
        # integer coordinates keep every orientation exact when moved too
        shift = data.draw(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)))
        moved = bold(d.layout.positions + shift, d.graph.edges, d.params.radius, d.params.width)
        assert list(exact_answers(moved)[:-1]) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1000, 40))
def test_lattice_answers_are_exact_under_power_of_two_scaling_down_to_2_to_the_minus_1000(seed, k):
    # Below a span of 1 the predicates scale the endpoints back into
    # [0.5, 1) by a power of two, so no orientation underflows: a lattice
    # at 2^-1000 has the answers, and the points, of the lattice at 1
    d = random_bold_drawing(np.random.default_rng(seed), lattice_prob=1.0)
    s = 2.0**k
    scaled = inka.BoldDrawing(d.graph, inka.Layout(d.layout.positions * s),
                              inka.RenderParams(d.params.radius * s, d.params.width * s))
    *want, report = exact_answers(d)
    *got, scaled_report = exact_answers(scaled)
    assert got == want
    assert scaled_report.concurrent_edges.tobytes() == report.concurrent_edges.tobytes()
    assert scaled_report.concurrent_points.tobytes() == (report.concurrent_points * s).tobytes()


@pytest.mark.parametrize("path", ["runs", "table"])
@pytest.mark.parametrize("k", [-500, -560, -1000])
def test_crossings_of_a_drawing_near_2_to_the_minus_560_do_not_underflow(k, path):
    # Two diagonals of a square and a stretch of the first one: at 2^-560
    # every orientation was a product below the least subnormal, so exactly
    # 0, and all three pairs read as collinear
    s = 2.0**k
    d = bold(np.array([(0, 0), (4, 4), (0, 4), (4, 0), (1, 1), (3, 3)]) * s,
             [(0, 1), (2, 3), (4, 5)], r=s, w=s / 8)
    with kernel_path(path):
        assert count_crossings_sweep(d) == count_crossings_bruteforce(d) == 2
        crossings, overlaps = crossing_pairs(d)
        assert crossings == [(0, 1, (2 * s, 2 * s)), (1, 2, (2 * s, 2 * s))]
        assert overlaps == [(0, 2)] == check_proper(d).collinear_overlaps
        assert inka.partial_crossing_counts(d, [0.5, 1.0]) == [0, 2]


def test_k4_convex_position_has_one_crossing():
    pts = [(0, 0), (4, 0), (4, 4), (0, 4)]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
    d = bold(pts, edges, r=0.2, w=0.05)
    assert count_crossings_bruteforce(d) == 1
    assert count_crossings_sweep(d) == 1


def test_adjacent_edges_never_counted():
    # star: every edge pair shares the hub
    pts = [(0, 0), (2, 0), (-2, 1), (0, 2), (1, -2)]
    d = bold(pts, [(0, i) for i in range(1, 5)], r=0.1, w=0.05)
    assert count_crossings_sweep(d) == 0
    assert count_crossings_bruteforce(d) == 0


def test_vertical_segments_and_shared_x():
    # two verticals at the same x plus a horizontal through both
    pts = [(0, 0), (0, 4), (2, 0), (2, 4), (-1, 2), (3, 2)]
    d = bold(pts, [(0, 1), (2, 3), (4, 5)], r=0.1, w=0.05)
    assert count_crossings_bruteforce(d) == 2
    assert count_crossings_sweep(d) == 2


def test_crossing_pairs_reports_points():
    d = bold([(0, 0), (10, 10), (0, 10), (10, 0)], [(0, 1), (2, 3)])
    crossings, overlaps = crossing_pairs(d)
    assert overlaps == []
    assert len(crossings) == 1
    i, j, pt = crossings[0]
    assert {i, j} == {0, 1}
    assert pt == pytest.approx((5.0, 5.0))


def test_counters_agree_on_random_drawings():
    rng = np.random.default_rng(42)
    for _ in range(120):
        d = random_bold_drawing(rng)
        assert count_crossings_sweep(d) == count_crossings_bruteforce(d)


def x_rank_pairs(lx, hx):
    """The (I, J) pairs of :func:`_rank_blocks` on extents sorted by a
    stable argsort of lx, mapped back through it."""
    order = np.argsort(lx, kind="stable")
    return [
        (i, j)
        for I, J in _rank_blocks(lx[order], hx[order])[1]
        for i, j in zip(order[I].tolist(), order[J].tolist())
    ]


def test_candidate_blocks_yield_each_x_overlapping_pair_once():
    # lattice endpoints bring tied x-extents, vertical segments and
    # zero-width extents; a block size of 1 gives one rank per block
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = int(rng.integers(0, 30))
        xs = rng.integers(0, 6, size=(m, 2)).astype(np.float64)
        lx, hx = xs.min(axis=1), xs.max(axis=1)
        expected = {
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if lx[i] <= hx[j] and lx[j] <= hx[i]
        }
        for block_pairs in (1, 3, 50):
            with block_size(block_pairs):
                got = [(min(i, j), max(i, j)) for i, j in x_rank_pairs(lx, hx)]
            assert len(got) == len(set(got))
            assert set(got) == expected


# ---------------------------------------------------------------- block engine
# _expand, _spans and _runs against a plain Python expansion of the runs
# and a greedy split of them into blocks.


def reference_expand(first, size):
    e, k = [], []
    for run, (f, n) in enumerate(zip(first, size)):
        e += [run] * n
        k += range(f, f + n)
    return e, k


def reference_spans(size, limit):
    spans, a = [], 0
    while a < len(size):
        b, total = a + 1, size[a]
        while b < len(size) and total + size[b] <= limit:
            total += size[b]
            b += 1
        if total:
            spans.append((a, b))
        a = b
    return spans


def engine_cases():
    rng = np.random.default_rng(11)
    yield [], []
    yield [4], [0]
    yield [0, 5, 9], [0, 0, 0]
    yield [3, -2, 7, 0], [2, 30_000, 0, 3]  # one run larger than every block
    for _ in range(30):
        runs = int(rng.integers(1, 40))
        size = rng.integers(0, 12, size=runs) * (rng.random(runs) < 0.7)
        yield rng.integers(-50, 50, size=runs).tolist(), size.tolist()


@pytest.mark.parametrize("limit", [1, 7, 25_000])
def test_block_engine_equals_python_expansion(limit):
    for first, size in engine_cases():
        f, n = np.array(first, np.int64), np.array(size, np.int64)
        e, k = _expand(f, n)
        assert (e.tolist(), k.tolist()) == reference_expand(first, size)
        spans = reference_spans(size, limit)
        with block_size(limit):
            assert list(_spans(np.cumsum(n))) == spans
            blocks = list(_runs(f, n))
        assert len(blocks) == len(spans)
        for (e, k), (a, b) in zip(blocks, spans):
            assert e.size == k.size > 0
            assert e.size <= limit or set(e.tolist()) == {a}
            assert (e.tolist(), k.tolist()) == reference_expand(
                [0] * a + first[a:b], [0] * a + size[a:b])
        got_e = [x for e, _ in blocks for x in e.tolist()]
        got_k = [x for _, k in blocks for x in k.tolist()]
        assert (got_e, got_k) == reference_expand(first, size)


# ---------------------------------------------------------------- crossing kernel
# _crossing_blocks must yield exactly the pairs that the full predicate
# (box test included) and the adjacency test pass over all pairs, at any
# block size, although it has no adjacency test of its own.


def kernel_pairs(P, Q, block_pairs=_BLOCK_PAIRS):
    with block_size(block_pairs):
        order, blocks = _crossing_blocks(P, Q)
        got = [
            (min(i, j), max(i, j))
            for I, J, hit, _C in blocks
            for i, j in zip(*(K.tolist() for K in _hit_pairs(order, I, J, hit)))
        ]
    assert len(got) == len(set(got))
    return set(got)


def kernel_candidates(P, Q, block_pairs=_BLOCK_PAIRS):
    """The kernel's collinear candidates as (i, j), i < j, each met once."""
    with block_size(block_pairs):
        got = [
            (min(i, j), max(i, j))
            for _I, _J, _hit, (CI, CJ) in _crossing_blocks(P, Q)[1]
            for i, j in zip(CI.tolist(), CJ.tolist())
        ]
    assert len(got) == len(set(got))
    return set(got)


def _adjacent_mask(E, I, J):
    a, b = E.T  # gathers from the two column views run faster than E[I, 0]
    a1, b1, a2, b2 = a[I], b[I], a[J], b[J]
    return (a1 == a2) | (a1 == b2) | (b1 == a2) | (b1 == b2)


def oracle_pairs(P, Q, nodes):
    """Every i < j pair at once, off the block engine."""
    I, J = np.triu_indices(P.shape[0], 1)
    mask = transversal_crossing_mask(P[I], Q[I], P[J], Q[J]) & ~_adjacent_mask(nodes, I, J)
    return set(zip(I[mask].tolist(), J[mask].tolist()))


def assert_kernel_matches_oracle(d):
    P, Q, E = _segment_arrays(d)
    want = oracle_pairs(P, Q, E)
    for path in ("runs", "table"):
        with kernel_path(path):
            for block_pairs in (1, 7, _BLOCK_PAIRS):
                assert kernel_pairs(P, Q, block_pairs) == want
    return want


# ---------------------------------------------------------------- oracle tiles
# count_crossings_bruteforce tests every pair in triangular tiles of
# T = isqrt(_BLOCK_PAIRS / 2) segments (111), off the block engine.


def drawing_with_edges(rng, m, lattice):
    """m distinct random edges among 10 + isqrt(2m) nodes, placed on a
    small integer lattice or uniformly."""
    n = 10 + math.isqrt(2 * m)
    I, J = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(I.size, size=m, replace=False))
    pos = rng.integers(0, 12, size=(n, 2)) if lattice else rng.uniform(0.0, 100.0, size=(n, 2))
    return bold(pos, np.column_stack((I[pick], J[pick])))


@pytest.mark.parametrize("block_pairs", [_BLOCK_PAIRS, 1, 8])
def test_oracle_tiles_equal_every_pair_at_once(block_pairs):
    # m below, at and past one tile's edge, and at three tile rows: 110,
    # 111, 112 and 223 at the default T = 111; tiles of 1 and 2 segments too
    T = max(1, math.isqrt(block_pairs // 2))
    rng = np.random.default_rng(T)
    found = 0
    for m in (0, 1, 2, T - 1, T, T + 1, 2 * T + 1):
        for lattice in (False, True) * 5:
            d = drawing_with_edges(rng, m, lattice)
            want = len(oracle_pairs(*_segment_arrays(d)))
            with block_size(block_pairs):
                assert count_crossings_bruteforce(d) == want
            found += want
    assert found > 0


def test_oracle_never_reaches_the_block_engine(parallel_drawing, diagonal_drawing,
                                               xshape_drawing):
    # an engine bug could hide in both counters at once only if the oracle
    # ran on the engine too
    drawings = [parallel_drawing, diagonal_drawing, xshape_drawing]
    for seed, name in enumerate(["can_144.mtx", "mesh24.graph"]):
        g = inka.load_graph(GRAPHS / name)
        drawings.append(inka.BoldDrawing(g, inka.layout_random(g, seed=seed),
                                         inka.RenderParams(1.0, 1.0)))
    rng = np.random.default_rng(32)
    drawings += [random_bold_drawing(rng, lattice_prob=1.0) for _ in range(20)]
    want = [count_crossings_sweep(d) for d in drawings]

    def engine(*args):
        raise AssertionError("the block engine was called")

    with mock.patch.multiple("inka.geometry", _runs=engine, _spans=engine, _expand=engine):
        with pytest.raises(AssertionError, match="block engine"):
            count_crossings_sweep(drawings[3])
        assert [count_crossings_bruteforce(d) for d in drawings] == want


@pytest.mark.parametrize("k", [-24, -20, -16, 0, 20])
def test_crossing_kernel_equals_oracle_on_scaled_lattices(k):
    # lattice orientations are integers times 4^k, down to 1e-14 at k = -24
    rng = np.random.default_rng(40 + k)
    for _ in range(12):
        d = random_bold_drawing(rng, n_max=30, m_max=70, lattice_prob=1.0)
        assert_kernel_matches_oracle(bold(d.layout.positions * 2.0**k, d.graph.edges))


def test_crossing_kernel_equals_oracle_on_degenerate_segments():
    # shared endpoints, vertical and horizontal edges through each other,
    # zero-length edges, coincident nodes, and edges touching at a node
    pts = [(0, 0), (4, 4), (0, 4), (4, 0), (2, 0), (2, 4), (0, 2), (4, 2),
           (2, 2), (2, 2), (1, 1), (1, 1), (3, 3), (0, 0), (4, 4), (2, 6)]
    edges = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (0, 2), (1, 3),
             (13, 14), (12, 15), (4, 8), (6, 9), (3, 12), (5, 15), (10, 12)]
    d = bold(pts, edges)
    crossings = assert_kernel_matches_oracle(d)
    assert len(crossings) == count_crossings_bruteforce(d) == count_crossings_sweep(d)
    assert crossings
    rng = np.random.default_rng(41)
    for _ in range(20):
        d = random_bold_drawing(rng, n_max=12, m_max=40, lattice_prob=1.0)
        pos = d.layout.positions.copy()
        pos[rng.integers(len(pos), size=3)] = pos[0]  # coincident nodes
        assert_kernel_matches_oracle(bold(pos, d.graph.edges))


@pytest.mark.parametrize("shift", [(1e6, 0.0), (-1e6, 1e6)])
def test_crossing_kernel_equals_oracle_on_translated_drawings(shift):
    rng = np.random.default_rng(42)
    for lattice_prob in (0.0, 1.0):
        for _ in range(8):
            d = random_bold_drawing(rng, lattice_prob=lattice_prob)
            moved = d.layout.positions + np.array(shift)
            assert_kernel_matches_oracle(bold(moved, d.graph.edges))


def test_crossing_kernel_never_rebuilds_q_from_p():
    # each drawing has an endpoint q exactly on the other segment's line,
    # so it touches and does not cross; p + (q - p) rounds q off that line,
    # by one ulp that the long segment lifts off 0.  In the first drawing
    # the touching edge ranks second by left x, in the second it ranks first.
    y, a = 0.3, -0.1
    assert a + (y - a) != y
    drawings = (
        bold([(0, y), (1e5, y), (5e4, a), (5e4, y)], [(0, 1), (2, 3)]),
        bold([(0, a), (5e4, y), (1, y), (1e5, y)], [(0, 1), (2, 3)]),
    )
    for d in drawings:
        P, Q, E = _segment_arrays(d)
        rebuilt = P + (Q - P)
        assert transversal_crossing_mask(P[:1], rebuilt[:1], P[1:], rebuilt[1:])[0]
        assert assert_kernel_matches_oracle(d) == set()
        assert count_crossings_sweep(d) == count_crossings_bruteforce(d) == 0


def test_endpoint_near_a_line_takes_its_sign():
    # a tip 1e-13 above the line has orientation 1e-13 > 0, so the edges
    # cross; a tip 1e-13 below it never reaches the line
    for tip, expected in ((1e-13, 1), (-1e-13, 0), (1e-11, 1)):
        d = bold([(0, 0), (1, 0), (0.5, -1), (0.5, tip)], [(0, 1), (2, 3)])
        assert count_crossings_sweep(d) == count_crossings_bruteforce(d) == expected


scaled_coords = st.integers(min_value=-4, max_value=4)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(scaled_coords, scaled_coords), min_size=2, max_size=12),
    st.sampled_from([-21, -20, 0, 20]),
    st.sampled_from([0.0, 1e6]),
    st.data(),
)
def test_crossing_kernel_equals_oracle_property(pts, k, shift, data):
    n = len(pts)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(a, b) for a, b in data.draw(st.lists(pairs, max_size=24)) if a != b]
    pos = np.asarray(pts, dtype=np.float64) * 2.0**k + shift
    assert_kernel_matches_oracle(bold(pos, edges))


@st.composite
def shared_endpoint_drawings(draw):
    """Stars, fans and lattices: most edge pairs share a node, and so an
    endpoint.  Lattice points keep every orientation exact; other floats
    round, so only the exact zero at a shared endpoint rules a pair out."""
    kind = draw(st.sampled_from(["star", "fan", "lattice"]))
    coord = st.one_of(st.integers(min_value=-4, max_value=4), st.floats(-4.0, 4.0))
    if kind == "lattice":
        w, h = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        n = w * h
        edges = [(v, v + 1) for v in range(n) if v % w < w - 1]
        edges += [(v, v + w) for v in range(n - w)]
        # both diagonals of each cell: they cross, and touch its sides
        edges += [e for v in range(n - w) if v % w < w - 1 for e in ((v, v + w + 1), (v + 1, v + w))]
        grid = [(v % w, v // w) for v in range(n)]
        pts = grid if draw(st.booleans()) else draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    else:
        pts = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=12))
        n = len(pts)
        # the hub's id sets whether edges share their p or their q
        hub = draw(st.integers(0, n - 1))
        rim = [v for v in range(n) if v != hub]
        edges = [(hub, v) for v in rim]
        if kind == "fan":
            edges += list(zip(rim, rim[1:]))
    k = draw(st.integers(min_value=-40, max_value=40))
    shift = draw(st.sampled_from([0.0, 1e6]))
    return bold(np.asarray(pts, dtype=np.float64) * 2.0**k + shift, edges)


# Edges (0, 1) and (2, 3) cross at (-2^-1050, 0), inside both; on the raw
# coordinates the orientation -2^-1049 * 2^-26 rounds to 0.
UNDERFLOW_CROSSING = bold(
    [(0.0, -2.0**-26), (-2.0**-1049, 2.0**-26), (0.0, 0.0), (-2.0**-26, 0.0)], [(0, 1), (2, 3)])


def test_crossing_mask_of_a_subnormal_crossing_does_not_underflow():
    P, Q, _E = _segment_arrays(UNDERFLOW_CROSSING)
    assert transversal_crossing_mask(P[:1], Q[:1], P[1:], Q[1:]).tolist() == [True]
    assert count_crossings_sweep(UNDERFLOW_CROSSING) == 1
    assert count_crossings_bruteforce(UNDERFLOW_CROSSING) == 1


@settings(max_examples=200, deadline=None)
@given(shared_endpoint_drawings())
@example(UNDERFLOW_CROSSING)
def test_crossing_kernel_without_adjacency_test_equals_oracle(d):
    # The oracle masks adjacent pairs; the kernel never looks at nodes,
    # because a shared endpoint makes one orientation exactly 0.
    assert_kernel_matches_oracle(d)


# Overlaps with no transversal crossing: horizontal (0, 1)/(2, 3), vertical
# (4, 5)/(6, 7), adjacent collinear (8, 9)/(8, 10), which overlap, and
# (8, 9)/(9, 11), which only touch, and the zero-length edges (12, 13) on
# edge (0, 1) and (14, 15) alone.
COLLINEAR_EDGES = bold(
    [(0, 0), (2, 0), (1, 0), (3, 0), (5, 0), (5, 2), (5, 1), (5, 3), (0, 5), (2, 5), (1, 5),
     (4, 5), (0.5, 0), (0.5, 0), (7, 7), (7, 7)],
    [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (8, 10), (9, 11), (12, 13), (14, 15)])


def assert_candidates_hold_the_overlaps(d):
    P, Q, _E = _segment_arrays(d)
    I, J = np.triu_indices(P.shape[0], 1)
    over = collinear_overlap_mask(P[I], Q[I], P[J], Q[J])
    want = set(zip(I[over].tolist(), J[over].tolist()))
    for block_pairs in (1, 7):
        assert want <= kernel_candidates(P, Q, block_pairs)
    return want


def test_collinear_candidates_hold_the_fixed_overlaps():
    assert assert_candidates_hold_the_overlaps(COLLINEAR_EDGES) == {(0, 1), (2, 3), (4, 5)}
    assert crossing_pairs(COLLINEAR_EDGES)[1] == [(0, 1), (2, 3), (4, 5)]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(shared_endpoint_drawings(), st.builds(
        lambda pts, k, shift, pick: bold(np.asarray(pts, dtype=np.float64) * 2.0**k + shift,
                                         [(a % len(pts), b % len(pts)) for a, b in pick
                                          if a % len(pts) != b % len(pts)]),
        st.lists(st.tuples(scaled_coords, scaled_coords), min_size=2, max_size=12),
        st.sampled_from([-21, -20, 0, 20]), st.sampled_from([0.0, 1e6]),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=24))),
)
def test_collinear_candidates_hold_every_flagged_pair(d):
    # The kernel's candidates are the pairs past its x and y filters whose
    # first-stage orientations are both 0, so they hold every pair the
    # all-pairs mask flags, at any block size.
    assert_candidates_hold_the_overlaps(d)


@st.composite
def kernel_drawings(draw):
    """Drawings of every kind the two ways of answering the band must agree
    on: uniform random floats, lattices, coincident nodes, zero-length,
    axis-parallel and collinear edges, and shared endpoints."""
    kind = draw(st.sampled_from(["random", "lattice", "coincident", "zero-length",
                                 "axis-parallel", "collinear", "shared-endpoint"]))
    if kind == "shared-endpoint":
        return draw(shared_endpoint_drawings())
    n = draw(st.integers(2, 14))
    if kind == "random":
        coord = st.floats(-50.0, 50.0, allow_subnormal=False)
        pts = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    elif kind == "axis-parallel":
        # a 3 x 3 grid's points: many edges share an x or a y
        pts = draw(st.lists(st.tuples(st.sampled_from([0, 2, 5]), st.sampled_from([0, 3, 4])),
                            min_size=n, max_size=n))
    elif kind == "collinear":
        # most points on the line y = 2x + 1, the rest beside it
        on = st.integers(-4, 4).map(lambda x: (x, 2 * x + 1))
        pts = draw(st.lists(st.one_of(on, on, st.tuples(scaled_coords, scaled_coords)),
                            min_size=n, max_size=n))
    else:
        pts = draw(st.lists(st.tuples(scaled_coords, scaled_coords), min_size=n, max_size=n))
    if kind in ("coincident", "zero-length"):
        # some nodes moved onto node 0
        for v in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            pts[v] = pts[0]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(a, b) for a, b in draw(st.lists(pairs, max_size=30)) if a != b]
    if kind == "zero-length":
        edges += [(0, v) for v in range(1, n) if pts[v] == pts[0]]
    k = draw(st.sampled_from([-20, 0, 20])) if kind != "random" else 0
    shift = draw(st.sampled_from([0.0, 1e6]))
    return bold(np.asarray(pts, dtype=np.float64) * 2.0**k + shift, edges)


@settings(max_examples=150, deadline=None)
@given(kernel_drawings())
def test_table_and_runs_give_the_same_pairs_and_candidates(d):
    # The sign table holds the run kernel's own orientation floats, so at
    # every tile and block size both paths yield the same crossing pairs
    # and the same collinear candidates.
    P, Q, _E = _segment_arrays(d)
    with kernel_path("runs"):
        want = kernel_pairs(P, Q), kernel_candidates(P, Q)
    with kernel_path("table"):
        for block_pairs in (1, 7, _BLOCK_PAIRS):
            assert (kernel_pairs(P, Q, block_pairs), kernel_candidates(P, Q, block_pairs)) == want


def kernel_arrays(P, Q):
    """The kernel's crossing pairs and collinear candidates as sorted
    (min, max) pair-key arrays, for drawings too large for sets of tuples."""
    order, blocks = _crossing_blocks(P, Q)
    candidates = []

    def hits():
        for I, J, hit, C in blocks:
            candidates.append(C)
            yield _hit_pairs(order, I, J, hit)

    return _pair_keys(hits(), len(P)), _pair_keys(candidates, len(P))


def test_table_and_runs_agree_past_the_int16_tile_ranks():
    # The table tiles rank in int16 below 16,384 edges and in int32 from
    # there, which no drawing in the other tests reaches.  Every point of
    # an 80 x 20 lattice gets an edge to every point within distance 3:
    # 20,618 short edges with many crossings and collinear pairs.
    x, y = np.meshgrid(np.arange(80.0), np.arange(20.0), indexing="ij")
    pts = np.column_stack((x.ravel(), y.ravel()))
    P, Q = [], []
    for step in [(dx, dy) for dx in range(4) for dy in range(-3, 4)
                 if (dx, dy) > (0, 0) and dx * dx + dy * dy <= 9]:
        to = pts + step
        ok = (to[:, 0] < 80) & (to[:, 1] >= 0) & (to[:, 1] < 20)
        P.append(pts[ok])
        Q.append(to[ok])
    P, Q = np.concatenate(P), np.concatenate(Q)
    assert len(P) > 2**14 and len(pts) * len(P) <= inka.geometry._TABLE_BYTES
    with kernel_path("runs"):
        want = kernel_arrays(P, Q)
    assert want[0].size > 0 and want[1].size > 0
    with kernel_path("table"), mock.patch("inka.geometry._table_tiles",
                                          wraps=inka.geometry._table_tiles) as tiles:
        got = kernel_arrays(P, Q)
    assert tiles.called
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_the_gate_takes_the_table_for_dense_drawings_only():
    # A uniform drawing of mesh24 is dense (N m about xp); its force
    # layout is not (N m about 9 xp).  Both paths give the same pairs either way.
    g = inka.load_graph(GRAPHS / "mesh24.graph")
    rng = np.random.default_rng(7)
    dense = inka.BoldDrawing(g, inka.Layout(rng.uniform(0, 720, (g.node_count, 2))),
                             inka.RenderParams(1.0, 1.0))
    sparse = inka.BoldDrawing(g, inka.compute_layout(g, inka.LayoutConfig(
        "force-directed", seed=1, iterations=30)), inka.RenderParams(1.0, 1.0))
    for d, table in ((dense, True), (sparse, False)):
        P, Q, _E = _segment_arrays(d)
        with mock.patch("inka.geometry._table_tiles", side_effect=AssertionError("table")):
            if table:
                with pytest.raises(AssertionError, match="table"):
                    _crossing_blocks(P, Q)
            else:
                _crossing_blocks(P, Q)
        for path in ("runs", "table"):
            with kernel_path(path):
                assert count_crossings_sweep(d) == count_crossings_bruteforce(d) > 0


small = st.integers(min_value=0, max_value=5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small, small), min_size=2, max_size=10), st.data())
def test_sweep_equals_bruteforce_on_small_integer_drawings(pts, data):
    n = len(pts)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(a, b) for a, b in data.draw(st.lists(pairs, max_size=20)) if a != b]
    d = bold(pts, edges)
    assert count_crossings_sweep(d) == count_crossings_bruteforce(d)


def test_counts_invariant_under_rigid_motion():
    rng = np.random.default_rng(7)
    d = random_bold_drawing(rng, lattice_prob=0.0)
    base = count_crossings_bruteforce(d)
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = bold(
        (d.layout.positions @ rot.T) + np.array([13.0, -4.5]),
        d.graph.edges,
        r=d.params.radius,
        w=d.params.width,
    )
    assert count_crossings_bruteforce(moved) == base
    assert count_crossings_sweep(moved) == base


def test_edge_lengths_and_total(xshape_drawing):
    lengths, total = edge_lengths(xshape_drawing)
    assert lengths == pytest.approx([10.0, 10.0])
    assert total == pytest.approx(20.0)


def test_bounding_box_inflates_by_radius(parallel_drawing):
    xmin, ymin, xmax, ymax = bounding_box(parallel_drawing)
    assert (xmin, ymin, xmax, ymax) == pytest.approx((-1, -1, 11, 11))
    assert bounding_area(parallel_drawing) == pytest.approx(144.0)


def test_bounding_box_includes_wide_edges():
    # width sticks out past the r=0 disks
    d = bold([(0, 0), (10, 0)], [(0, 1)], r=0.0, w=2.0)
    xmin, ymin, xmax, ymax = bounding_box(d)
    assert (ymin, ymax) == pytest.approx((-1.0, 1.0))
    assert (xmin, xmax) == pytest.approx((0.0, 10.0))


def test_bounding_area_fixed_override(parallel_drawing):
    assert bounding_area(parallel_drawing, fixed=500.0) == 500.0
    with pytest.raises(ValueError):
        bounding_area(parallel_drawing, fixed=0.0)
    with pytest.raises(ValueError):
        bounding_area(parallel_drawing, fixed=-3.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="fixed area must be finite and > 0"):
            bounding_area(parallel_drawing, fixed=bad)


def test_check_proper_clean_drawing(parallel_drawing):
    report = check_proper(parallel_drawing)
    assert report.verdict
    assert report.disk_overlaps == []
    assert concurrent_entries(report) == []
    assert report.collinear_overlaps == []


def test_check_proper_disk_overlap():
    d = bold([(0, 0), (1.5, 0)], [], r=1.0, w=0.1)
    report = check_proper(d)
    assert report.disk_overlaps == [(0, 1)]
    assert not report.verdict
    # tangency is allowed
    assert check_proper(bold([(0, 0), (2, 0)], [], r=1.0, w=0.1)).verdict


def test_check_proper_concurrent_crossings():
    # three long edges through (almost) one point
    pts = [(-10, 0), (10, 0), (0, -10), (0, 10), (-10, -10), (10, 10)]
    d = bold(pts, [(0, 1), (2, 3), (4, 5)], r=0.3, w=0.5)
    report = check_proper(d)
    assert [e for _pt, e in concurrent_entries(report)] == [(0, 1, 2)]
    assert not report.verdict
    # eq=False: reports compare by identity, never element-wise on arrays
    assert check_proper(d) != report


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-170, 1e-300])
def test_tiny_radius_and_width_still_flag_violations(scale):
    # (2r)^2 and w^2 underflow to 0 below about 1e-162, which once let two
    # coincident disks and three edges through one point pass; node 4,
    # above nodes 0 and 1, overflows in units of 2r but warns of nothing
    r = scale
    d = bold([(0, 0), (0, 0), (3 * r, 0), (4.5 * r, 0), (0, 1e150)], [], r=r, w=1.0)
    report = check_proper(d)
    assert report.disk_overlaps == [(0, 1), (2, 3)] and not report.verdict
    # three edges through the origin, and a fourth crossing two of them 3 apart
    pts = [(-4, 0), (4, 0), (0, -4), (0, 4), (-4, -4), (4, 4), (3, -4), (3, 4)]
    report = check_proper(bold(pts, [(0, 1), (2, 3), (4, 5), (6, 7)], r=0.0, w=scale))
    assert concurrent_entries(report) == [((0.0, 0.0), (0, 1, 2))] and not report.verdict


def test_tiny_limits_far_out_neither_warn_nor_merge_cells():
    # At 1e10 every x / w and y / w floor overflows: each distinct
    # coordinate is a cell apart from the next, so the three crossings at
    # the exact point (1e10, 1e10) and the two coincident nodes still meet,
    # and no pair of the distinct points is compared
    c = 1e10
    pts = [(c - 1, c), (c + 1, c), (c, c - 1), (c, c + 1), (c - 1, c - 1), (c + 1, c + 1),
           (c + 5, c - 3), (c + 5, c - 3)]
    d = bold(pts, [(0, 1), (2, 3), (4, 5)], r=1e-300, w=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_proper(d)
    assert report.concurrent_points.tolist() == [[c, c]]
    assert report.concurrent_edges.tolist() == [[0, 1, 2, -1]]
    assert report.disk_overlaps == [(6, 7)] and not report.verdict
    x = np.full(6, c) + np.arange(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [A.size for A, _B in _close_pairs(x, x, 1e-300)] == []


def test_check_proper_collinear_overlap():
    pts = [(0, 0), (2, 0), (1, 0), (3, 0)]
    d = bold(pts, [(0, 1), (2, 3)], r=0.1, w=0.05)
    report = check_proper(d)
    assert report.collinear_overlaps == [(0, 1)]
    assert not report.verdict


def test_measure_selects_counter(diagonal_drawing):
    d = diagonal_drawing
    assert measure(d).crossings == count_crossings_bruteforce(d) == 1


def test_measure_fixed_area(diagonal_drawing):
    assert measure(diagonal_drawing, area=1000.0).area == 1000.0


# ---------------------------------------------------------------- properness oracles
# The all-pairs crossing_pairs and check_proper that the engine versions
# replaced, kept as references: every list must come out equal, crossing
# points and representative points bit for bit, in the same order.  Only
# the reference's choice of each edge set's point has changed since: it
# keeps the close pair with the least (a, b), not the first one its cell
# dict meets.


def reference_crossing_pairs(d):
    P, Q, E = _segment_arrays(d)
    m = P.shape[0]
    crossings = []
    I, J = np.triu_indices(m, 1)
    cross = transversal_crossing_mask(P[I], Q[I], P[J], Q[J]) & ~_adjacent_mask(E, I, J)
    if np.any(cross):
        ci, cj = I[cross], J[cross]
        pts = crossing_points_of(P[ci], Q[ci], P[cj], Q[cj])
        for a, b, pt in zip(ci, cj, pts):
            crossings.append((int(a), int(b), (float(pt[0]), float(pt[1]))))
    over = collinear_overlap_mask(P[I], Q[I], P[J], Q[J])
    overlaps = [(int(a), int(b)) for a, b in zip(I[over], J[over])]
    return crossings, overlaps


def reference_check_proper(d):
    pos = d.layout.positions
    n = d.graph.node_count
    r = d.params.radius
    w = d.params.width

    disk_overlaps = []
    if r > 0 and n >= 2:
        limit = (2.0 * r) ** 2
        I, J = np.triu_indices(n, 1)
        dx = pos[I, 0] - pos[J, 0]
        dy = pos[I, 1] - pos[J, 1]
        close = dx * dx + dy * dy < limit
        for a, b in zip(I[close], J[close]):
            disk_overlaps.append((int(a), int(b)))

    crossings, overlaps = reference_crossing_pairs(d)

    concurrent = {}
    if w > 0 and len(crossings) >= 2:
        cells = {}
        for idx, (_i, _j, (x, y)) in enumerate(crossings):
            cells.setdefault((int(np.floor(x / w)), int(np.floor(y / w))), []).append(idx)
        for (cx, cy), members in cells.items():
            neighborhood = []
            for ox in (-1, 0, 1):
                for oy in (-1, 0, 1):
                    neighborhood.extend(cells.get((cx + ox, cy + oy), []))
            for a in members:
                ia, ja, (xa, ya) = crossings[a]
                for b in neighborhood:
                    if b <= a:
                        continue
                    ib, jb, (xb, yb) = crossings[b]
                    if (xa - xb) ** 2 + (ya - yb) ** 2 < w * w:
                        edges = tuple(sorted({ia, ja, ib, jb}))
                        pair = (a, b), (0.5 * (xa + xb), 0.5 * (ya + yb))
                        concurrent[edges] = min(concurrent.get(edges, pair), pair)

    concurrent_points = [(pt, edges) for edges, (_ab, pt) in sorted(concurrent.items())]
    verdict = not disk_overlaps and not concurrent_points and not overlaps
    return SimpleNamespace(
        disk_overlaps=disk_overlaps,
        concurrent_points=concurrent_points,
        collinear_overlaps=overlaps,
        verdict=verdict,
    )


def concurrent_entries(report):
    """The report's concurrent arrays as the reference's (point, edge-ids)
    list, after checking their dtypes, shapes and -1 padding."""
    pts, edges = report.concurrent_points, report.concurrent_edges
    assert pts.dtype == np.float64 and edges.dtype == np.int64
    assert pts.ndim == edges.ndim == 2 and pts.shape == (len(edges), 2)
    assert edges.shape[1] == 4
    assert (edges[:, :3] >= 0).all() and (edges[:, 3] >= -1).all()
    ids = [tuple(v for v in row if v != -1) for row in edges.tolist()]
    return list(zip(map(tuple, pts.tolist()), ids))


def assert_matches_oracle(d):
    """check_proper and crossing_pairs equal the references; returns the
    report for further checks."""
    got, want = check_proper(d), reference_check_proper(d)
    assert got.disk_overlaps == want.disk_overlaps
    assert concurrent_entries(got) == want.concurrent_points
    assert got.collinear_overlaps == want.collinear_overlaps
    assert got.verdict == want.verdict
    crossings, overlaps = crossing_pairs(d)
    ref_crossings, ref_overlaps = reference_crossing_pairs(d)
    assert crossings == ref_crossings
    assert overlaps == ref_overlaps
    # equal floats compare equal across int/float; pin the types too
    assert all(type(v) is float for _i, _j, pt in crossings for v in pt)
    assert all(type(v) is int for i, j, _pt in crossings for v in (i, j))
    return got


def test_check_proper_matches_oracle_on_random_drawings():
    rng = np.random.default_rng(11)
    totals = np.zeros(3, dtype=int)
    for case in range(150):
        # a small span packs crossings close enough to be concurrent
        d = random_bold_drawing(rng, lattice_prob=0.3, span=(100.0, 15.0)[case % 2])
        report = assert_matches_oracle(d)
        totals += [len(report.disk_overlaps), len(report.concurrent_points),
                   len(report.collinear_overlaps)]
    assert (totals > 0).all(), totals


def test_check_proper_matches_oracle_on_lattice_drawings():
    # integer lattices bring collinear overlaps, vertical edges, shared x
    # and exactly tied crossing points
    rng = np.random.default_rng(12)
    overlaps = 0
    for case in range(40):
        d = random_bold_drawing(rng, n_max=40, m_max=80, lattice_prob=1.0,
                                width=(0.1, 0.5, 1.0, 3.0)[case % 4])
        overlaps += len(assert_matches_oracle(d).collinear_overlaps)
    assert overlaps > 0
    pts = [(0, 0), (0, 4), (0, 2), (0, 6), (2, 0), (2, 4), (-1, 2), (3, 2),
           (-1, 3), (5, 3), (1, 3), (4, 3)]
    edges = [(0, 1), (0, 5), (1, 4), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
    report = assert_matches_oracle(bold(pts, edges, r=0.3, w=1.5))
    # a vertical overlap along x = 0 and a horizontal one along y = 3
    assert report.collinear_overlaps == [(0, 3), (6, 7)]


def test_check_proper_matches_oracle_on_degenerate_drawings():
    # coincident nodes, zero-length edges, an edge through a coincident pair
    pts = [(0, 0), (0, 0), (4, 4), (0, 4), (4, 0), (2, 2), (2, 2), (1e6, 0), (1e6 + 0.5, 0)]
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6), (3, 5), (1, 3), (7, 8)]
    for r, w in ((0.3, 0.5), (0.0, 0.5), (0.3, 0.0), (0.25, 2.0), (0.0, 0.0)):
        assert_matches_oracle(bold(pts, edges, r=r, w=w))
    # disks at x = 1e6, where coordinates step by 1.2e-10: one pair 5e-11
    # closer than 2r, the next 7e-11 farther
    r = 0.1
    pts = [(1e6, 7.0), (1e6 + np.nextafter(2 * r, 0), 7.0), (1e6 + 4 * r, 7.0)]
    assert assert_matches_oracle(bold(pts, [], r=r, w=0.1)).disk_overlaps == [(0, 1)]
    for d in (bold(pts, [], r=1.0), bold([], [], r=1.0), bold([(0, 0)], [], r=1.0)):
        report = assert_matches_oracle(d)
        assert concurrent_entries(report) == [] and report.collinear_overlaps == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 15), st.sampled_from([0.05, 0.3, 1.0, 7.0]))
def test_disk_overlap_pairs_equal_all_pairs_at_every_offset(seed, exponent, r):
    # Cells of side 2r with no margin, at offsets up to 1e15, where rounding
    # decides pairs: every fourth node on a cell corner fl(k 2r) or 1 ulp
    # off it in x and in y, and partners at fl(x + 2r) and 1 ulp either side.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pos = 10.0**exponent + rng.uniform(0.0, 10.0 * r, size=(n, 2))
    corner = np.floor(pos / (2.0 * r)) * (2.0 * r)
    off = corner + rng.integers(-1, 2, size=(n, 2))  # the direction of the ulp, if any
    pos[::4] = np.nextafter(corner, off)[::4]
    for i in range(1, n, 2):
        pos[i] = pos[i - 1]
        pos[i, 0] += 2.0 * r
        if i % 3:
            pos[i, 0] = np.nextafter(pos[i, 0], (-np.inf, np.inf)[i % 3 - 1])
    I, J = np.triu_indices(n, 1)
    dx, dy = pos[I, 0] - pos[J, 0], pos[I, 1] - pos[J, 1]
    close = dx * dx + dy * dy < (2.0 * r) ** 2
    got = _ordered_pairs(_close_pairs(pos[:, 0], pos[:, 1], 2.0 * r), n)
    assert got == list(zip(I[close].tolist(), J[close].tolist()))


@pytest.mark.parametrize("k", [0, 700])
def test_collinear_overlap_needs_y_extents_that_meet(k):
    # parallel edges 1e-200 apart: all four orientations underflow to 0
    # and the x-extents overlap, but the y-extents are disjoint; scaled by
    # 2^700 the orientations are not 0
    pts = np.array([(0.0, 0.0), (1e-200, 0.0), (5e-201, 1e-200), (2e-200, 1e-200)]) * 2.0**k
    d = bold(pts, [(0, 1), (2, 3)], r=0.0, w=0.0)
    P, Q, _E = _segment_arrays(d)
    assert not collinear_overlap_mask(P[:1], Q[:1], P[1:], Q[1:])[0]
    report = check_proper(d)
    assert crossing_pairs(d)[1] == report.collinear_overlaps == []
    assert report.verdict


def test_collinear_overlap_of_x_disjoint_edges():
    # two near-vertical edges whose x-extents are disjoint while their
    # y-extents overlap: their orientations are not 0, so they are not
    # collinear, and the x-engine, which never pairs them, misses nothing
    pts = [(0.0, 0.0), (1e-13, 2.0), (2e-13, 1.0), (3e-13, 3.0)]
    P, Q, _E = _segment_arrays(bold(pts, [(0, 1), (2, 3)]))
    assert not collinear_overlap_mask(P[:1], Q[:1], P[1:], Q[1:])[0]
    report = assert_matches_oracle(bold(pts, [(0, 1), (2, 3)], r=0.0, w=0.1))
    assert report.collinear_overlaps == []


def test_concurrent_point_is_the_least_close_pair():
    # three lines crossing pairwise near one spot: crossings 0=(0,1),
    # 1=(0,2) and 2=(1,2) all reach the edge set (0, 1, 2).  Crossing 2
    # lies in the cell left of crossing 0's and crossing 1 in the cell to
    # its right, both within w of crossing 0, so a scan from the left cell
    # meets the pair (0, 2) first; the least pair in crossing order, (0, 1),
    # picks the point all the same.
    pts = [(-5, 0.5), (5, 0.5), (7.5, -2.5), (-4.5, 3.5), (6.9, -0.7), (-3.9, 2.0)]
    d = bold(pts, [(0, 1), (2, 3), (4, 5)], r=0.1, w=1.0)
    crossings, _ = crossing_pairs(d)
    assert [(i, j) for i, j, _pt in crossings] == [(0, 1), (0, 2), (1, 2)]
    (x0, y0), (x1, y1), (x2, y2) = (pt for _i, _j, pt in crossings)
    assert math.floor(x2) < math.floor(x0) < math.floor(x1)
    report = assert_matches_oracle(d)
    assert concurrent_entries(report) == [((0.5 * (x0 + x1), 0.5 * (y0 + y1)), (0, 1, 2))]


def test_concurrent_scan_is_independent_of_block_size():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = random_bold_drawing(rng, span=10.0, width=1.0)
        P, Q, _E = _segment_arrays(d)
        I, J, pts, _overlaps = _crossing_arrays(P, Q)
        if I.size < 2:
            continue
        full = _concurrent_points(I, J, pts, 1.0, P.shape[0])
        for block_pairs in (1, 7):
            with block_size(block_pairs):
                got = _concurrent_points(I, J, pts, 1.0, P.shape[0])
            assert all(np.array_equal(g, f) for g, f in zip(got, full, strict=True))


def reference_close_crossing_pairs(X, Y, w):
    # The nine-run scan that the three-run one replaced, kept verbatim: a
    # 9-slot neighbour table per cell on plain ranks of the floors, one
    # run per (A, neighbour cell), B > A tested before the distance.
    ux, rx = np.unique(np.floor(X / w), return_inverse=True)
    uy, ry = np.unique(np.floor(Y / w), return_inverse=True)
    code = rx * uy.size + ry
    by_cell = np.argsort(code, kind="stable")
    cells, start, size = np.unique(code[by_cell], return_index=True, return_counts=True)
    cell = np.searchsorted(cells, code)

    def step(u, ru, o):
        t = np.clip(ru + o, 0, u.size - 1)
        return np.where(u[t] - u[ru] == o, t, -1)

    offsets = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]
    cx, cy = np.divmod(cells, uy.size)
    nb_start = np.zeros((cells.size, 9), np.int64)
    nb_size = np.zeros((cells.size, 9), np.int64)
    for s, (ox, oy) in enumerate(offsets):
        tx, ty = step(ux, cx, ox), step(uy, cy, oy)
        c = tx * uy.size + ty
        at = np.minimum(np.searchsorted(cells, c), cells.size - 1)
        hit = (tx >= 0) & (ty >= 0) & (cells[at] == c)
        nb_start[:, s] = start[at]
        nb_size[:, s] = np.where(hit, size[at], 0)

    seq = np.argsort(by_cell[start][cell], kind="stable")
    run_start = nb_start[cell[seq]].ravel()
    run_size = nb_size[cell[seq]].ravel()
    limit = w * w
    kept_a, kept_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for e, k in _runs(run_start, run_size):
        A, B = seq[e // 9], by_cell[k]
        keep = B > A
        A, B = A[keep], B[keep]
        dx = X[A] - X[B]
        dy = Y[A] - Y[B]
        keep = dx * dx + dy * dy < limit
        kept_a.append(A[keep])
        kept_b.append(B[keep])
    return np.concatenate(kept_a), np.concatenate(kept_b)


def test_cell_ranks_step_by_one_only_where_floors_do():
    v = np.array([5.0, -3.0, 0.0, 1.0, 2.0, 4.0, -2.0, 1e6, 1e6 + 1, 5.0, -0.0, 9.0,
                  1.5, 0.25, -2.5, 1e6 + 0.5])
    g = _cell_ranks(v, 1.0)
    assert g.min() == 0 and g.max() < 2 * np.unique(v).size
    for a, ga in zip(v, g):
        for b, gb in zip(v, g):
            assert (gb - ga == 1) == (math.floor(b) - math.floor(a) == 1)
            assert (gb == ga) == (math.floor(b) == math.floor(a))
    # floors past 1.8e308 overflow: distinct values never share or touch a cell
    v = np.array([1e10, -1e10, np.nextafter(1e10, 2e10), 1e10, 3e8, -1e10, 1e-290, 1e-291])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = _cell_ranks(v, 1e-300)
    for a, ga in zip(v, g):
        for b, gb in zip(v, g):
            assert abs(gb - ga) >= 2 if a != b else gb == ga


@st.composite
def crossing_clouds(draw):
    """(X, Y, w, block_pairs): points in cells whose floors come from a
    few integers with gaps (consecutive ranks, cells that do not touch),
    placed at cell corners (exact multiples of w) or inside, with
    repeated points, negative floors and an optional 1e6 offset."""
    w = draw(st.sampled_from([0.1, 1.0, 3.0]))
    block_pairs = draw(st.sampled_from([1, 7, _BLOCK_PAIRS]))
    shift = draw(st.sampled_from([0.0, 1e6, -1e6]))
    floors = st.lists(st.integers(-8, 8), min_size=1, max_size=5, unique=True)
    fx, fy = draw(floors), draw(floors)
    frac = st.sampled_from([0.0, 0.5, 0.999]) | st.floats(0.0, 1.0, exclude_max=True)
    cell_point = st.tuples(st.sampled_from(fx), frac, st.sampled_from(fy), frac)
    pts = [((cx + ax) * w + shift, (cy + ay) * w)
           for cx, ax, cy, ay in draw(st.lists(cell_point, min_size=2, max_size=40))]
    pts += draw(st.lists(st.sampled_from(pts), max_size=6))
    order = draw(st.permutations(range(len(pts))))
    X, Y = np.array([pts[i] for i in order]).T.copy()
    return X, Y, w, block_pairs


@settings(max_examples=300, deadline=None)
@given(crossing_clouds())
def test_close_pair_scan_equals_the_nine_run_scan(cloud):
    # The forward scan meets each close pair once, as A < B, in no set
    # order; sorted by (A, B), its pairs are the nine-run scan's sorted so.
    X, Y, w, block_pairs = cloud
    with block_size(block_pairs):
        none = np.empty(0, np.int64)  # a scan may meet no pair and yield no block
        A, B = (np.concatenate(c) for c in zip((none,) * 2, *_close_pairs(X, Y, w),
                                               strict=True))
        want = reference_close_crossing_pairs(X, Y, w)
    assert (A < B).all()
    key = A * X.size + B
    assert np.unique(key).size == key.size
    order, ref = np.lexsort((B, A)), np.lexsort(want[::-1])
    for g, f in zip((A[order], B[order]), want, strict=True):
        assert g.dtype == f.dtype and np.array_equal(g, f[ref])


def test_edge_set_codes_are_the_sorted_edge_sets_with_ties():
    # the merge of the two ascending pairs and the shift of a shared edge
    # against Python's sorted sets: few edges bring shared edges at every
    # place of the merge, many bring 4-edge sets
    rng = np.random.default_rng(15)
    for m in (4, 6, 50):
        I, J = np.sort(rng.choice(m, size=(2000, 2), replace=True), axis=1).T
        I, J = I[I < J], J[I < J]
        A, B = rng.integers(0, I.size, size=(2, 4000))
        shares = [len({I[a], J[a]} & {I[b], J[b]}) for a, b in zip(A, B)]
        A, B = A[np.less(shares, 2)], B[np.less(shares, 2)]
        want = [sorted({I[a], J[a], I[b], J[b]}) for a, b in zip(A.tolist(), B.tolist())]
        got = set_edges(_edge_set_codes(I, J, A, B, m), m).tolist()
        assert got == [t + [-1] * (4 - len(t)) for t in want]
        assert {len(t) for t in want} == {3, 4}


@st.composite
def pair_blocks(draw):
    """(blocks, base): distinct unordered pairs of indices below base,
    each in a random orientation, split into blocks, some of them empty."""
    base = draw(st.one_of(st.integers(2, 40), st.integers(2, _MAX_NODES)))
    index = st.integers(0, base - 1)
    pairs = draw(st.lists(st.tuples(index, index).filter(lambda p: p[0] != p[1]),
                          max_size=60, unique_by=lambda p: (min(p), max(p))))
    cuts = sorted(draw(st.lists(st.integers(0, len(pairs)), max_size=5)))
    bounds = [0, *cuts, len(pairs)]
    blocks = [np.array(pairs[a:b], dtype=np.int64).reshape(-1, 2).T
              for a, b in zip(bounds[:-1], bounds[1:])]
    return blocks, base


@settings(max_examples=200, deadline=None)
@given(pair_blocks())
def test_ordered_pairs_is_the_sorted_set_of_unordered_pairs(case):
    blocks, base = case
    want = sorted({(min(i, j), max(i, j)) for b in blocks for i, j in b.T.tolist()})
    assert _ordered_pairs(iter(blocks), base) == want


def set_codes(rows, m):
    """The edge-set codes of _concurrent_points: digits edge + 1 (pad 0)
    in base m + 1."""
    return _pack(list(np.asarray(rows).T + 1), m + 1)


def set_edges(codes, m):
    return np.column_stack(_unpack(codes, m + 1, 4)) - 1


def test_edge_set_grouping_without_an_int64_code():
    # with m = 100,000, (m + 1)^4 overflows int64: the two codes must group
    # and order the sets as the one packed code does, in tuple order, keep
    # the same least key of each, and unpack to the same edge ids
    rng = np.random.default_rng(14)
    rows = np.array([sorted(rng.choice(6, size=k, replace=False).tolist()) + [-1] * (4 - k)
                     for k in rng.integers(3, 5, size=300)])
    key = rng.permutation(10**6)[:300].astype(np.int64)
    small_codes, big_codes = set_codes(rows, 6), set_codes(rows, 100_000)
    assert np.shape(small_codes) == (1, 300) and np.shape(big_codes) == (2, 300)
    *small_kept, small_key = _least_key_of_each(small_codes, key)
    *big_kept, big_key = _least_key_of_each(big_codes, key)
    assert np.array_equal(big_key, small_key)
    assert np.array_equal(set_edges(small_codes, 6), rows)
    assert np.array_equal(set_edges(big_codes, 100_000), rows)
    assert np.array_equal(set_edges(small_kept, 6), set_edges(big_kept, 100_000))
    as_tuples = [tuple(v for v in row if v != -1) for row in rows.tolist()]
    least = {}
    for t, k in zip(as_tuples, key.tolist()):
        least[t] = min(least.get(t, k), k)
    kept = [tuple(v for v in row if v != -1) for row in set_edges(small_kept, 6).tolist()]
    assert kept == sorted(least)
    assert small_key.tolist() == [least[t] for t in sorted(least)]


def test_one_edge_set_code_up_to_the_int64_limit():
    # 55,107 edges is the most one code holds: the top set's code is the
    # exact integer, below 2^63, and one more edge takes two codes
    m = 55_107
    top = np.arange(m - 4, m)[None, :]
    assert np.array(set_codes(top, m)).tolist() == [[sum((e + 1) * (m + 1) ** (3 - k)
                                                         for k, e in enumerate(range(m - 4, m)))]]
    assert set_edges(set_codes(top, m), m).tolist() == [list(range(m - 4, m))]
    assert len(set_codes(top, m + 1)) == 2


def test_check_proper_with_more_edges_than_one_code_holds():
    # A core drawing with concurrent points, its nodes and edges numbered
    # after 55,200 short horizontal edges that touch nothing: at m >= 55,108
    # edges the sets take two codes, and the report must be the core's
    # with every edge id shifted by the filler count.
    rng = np.random.default_rng(16)
    filler = 55_200
    k = np.arange(filler, dtype=np.float64)
    far = np.column_stack((1e3 + 3 * k, 1e3 + 3 * k))
    far = np.stack((far, far + [1.0, 0.0]), axis=1).reshape(-1, 2)
    found = 0
    for _ in range(4):
        core = random_bold_drawing(rng, span=10.0, width=1.0)
        want = assert_matches_oracle(core)
        g = core.graph
        big = inka.BoldDrawing(
            inka.build_graph(2 * filler + g.node_count,
                             np.vstack((np.arange(2 * filler).reshape(-1, 2),
                                        g.edges + 2 * filler))),
            inka.Layout(np.vstack((far, core.layout.positions))), core.params)
        assert big.graph.m >= 55_108
        got = check_proper(big)
        shifted = np.where(want.concurrent_edges >= 0, want.concurrent_edges + filler, -1)
        assert np.array_equal(got.concurrent_edges, shifted)
        assert got.concurrent_points.tobytes() == want.concurrent_points.tobytes()
        assert got.collinear_overlaps == [(i + filler, j + filler) for i, j in want.collinear_overlaps]
        found += len(got.concurrent_points)
    assert found > 0


def test_concurrent_points_peak_memory_is_bounded_by_the_report():
    # The close pairs are streamed a block at a time and cut to the first
    # pair of each edge set, and the kept codes are decoded a block at a
    # time into the report, so the traced peak stays within 2x the report
    # (holding every close pair's edge set at once took 5x, decoding the
    # whole report at once 2.2x).
    g = inka.load_graph(Path(__file__).resolve().parents[1] / "data" / "graphs" / "can_144.mtx")
    n = g.node_count
    side = int(np.ceil(2 * np.sqrt(n)))
    cells = np.random.default_rng(1).choice(side * side, size=n, replace=False)
    pos = np.column_stack([cells % side, cells // side]).astype(np.float64)
    d = inka.BoldDrawing(g, inka.Layout(pos), inka.RenderParams(0.25, 0.1))
    P, Q, _E = _segment_arrays(d)
    I, J, pts, _overlaps = _crossing_arrays(P, Q)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = _concurrent_points(I, J, pts, 0.1, g.m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(report[0]) >= 90_000
    assert peak <= 2 * sum(a.nbytes for a in report), (peak, sum(a.nbytes for a in report))


def test_crossing_arrays_peak_memory_is_bounded_by_its_output():
    # The crossing points are filled a block at a time into one array, so
    # the traced peak stays within 1.5x the I, J and points returned (one
    # whole-array call, with its four gathered endpoint arrays, took 5x).
    g = inka.load_graph(Path(__file__).resolve().parents[1] / "data" / "graphs" / "ba800.edges")
    n = g.node_count
    pos = np.random.default_rng(3).uniform(0.0, np.sqrt(n) * 30.0, size=(n, 2))
    P, Q, _E = _segment_arrays(inka.BoldDrawing(g, inka.Layout(pos), inka.RenderParams(5.0, 1.0)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        I, J, pts, _overlaps = _crossing_arrays(P, Q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    out = I.nbytes + J.nbytes + pts.nbytes
    assert I.size >= 600_000
    assert peak <= 1.5 * out, (peak, out)


@pytest.mark.parametrize("block_pairs", [1, 7])
def test_crossing_points_per_block_equal_one_whole_array_call(block_pairs):
    rng = np.random.default_rng(17)
    blocks = 0
    for _ in range(30):
        P, Q, _E = _segment_arrays(random_bold_drawing(rng))
        with block_size(block_pairs):
            I, J, pts, _overlaps = _crossing_arrays(P, Q)
        whole = crossing_points_of(P[I], Q[I], P[J], Q[J])
        assert pts.shape == whole.shape and pts.tobytes() == whole.tobytes()
        blocks += I.size > block_pairs
    assert blocks >= 10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small, small), min_size=2, max_size=10), st.data())
def test_overlap_engine_equals_all_pairs_on_small_integer_drawings(pts, data):
    n = len(pts)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = [(a, b) for a, b in data.draw(st.lists(pairs, max_size=20)) if a != b]
    d = bold(pts, edges)
    want = reference_crossing_pairs(d)[1]
    assert crossing_pairs(d)[1] == check_proper(d).collinear_overlaps == want


def test_staged_collinear_filter_keeps_the_mask_verdict():
    # edge 1's endpoints, 8/14 and 8.5/14 of the way along edge 0, round
    # onto its line: both orientations against line 0 are exactly 0, but
    # edge 0's against line 1 are -+8.9e-16, so only the last stage drops
    # the pair.  Edges 2 and 3 overlap along y = 5, so the list is not empty.
    pts = [(0.0, 0.0), (14.0, 13.0), (8.0, 13 * 8 / 14), (8.5, 13 * 8.5 / 14),
           (0.0, 5.0), (2.0, 5.0), (1.0, 5.0), (3.0, 5.0)]
    d = bold(pts, [(0, 1), (2, 3), (4, 5), (6, 7)], r=0.0, w=0.1)
    P, Q, _E = _segment_arrays(d)
    (i_p, i_q), (j_p, j_q) = (P[0], Q[0]), (P[1], Q[1])
    assert _orient(*i_p, *i_q, *j_p) == 0 and _orient(*i_p, *i_q, *j_q) == 0
    assert _orient(*j_p, *j_q, *i_p) != 0 and _orient(*j_p, *j_q, *i_q) != 0
    lx, hx = np.minimum(P[:, 0], Q[:, 0]), np.maximum(P[:, 0], Q[:, 0])
    assert (0, 1) in x_rank_pairs(lx, hx)  # the x-engine gives edge 0, which starts left of edge 1, as I
    assert (0, 1) in kernel_candidates(P, Q)
    assert crossing_pairs(d)[1] == check_proper(d).collinear_overlaps == [(2, 3)]
    assert reference_crossing_pairs(d)[1] == [(2, 3)]


NUMPY_MA_PROBE = """
import sys
from pathlib import Path

import numpy as np

import inka
from inka import LayoutConfig, build_graph, check_proper, compute_layout, load_graph

graphs = Path(sys.argv[1])
can = load_graph(graphs / "can_144.mtx")
load_graph(graphs / "mesh24.graph")
load_graph(graphs / "ba800.edges")
compute_layout(can, LayoutConfig(algorithm="multilevel", seed=1, iterations=20))
pts = np.array([(-10, 0), (10, 0), (0, -10), (0, 10), (-10, -10), (10, 10)], float)
g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
report = check_proper(inka.BoldDrawing(g, inka.Layout(pts), inka.RenderParams(0.3, 0.5)))
assert len(report.concurrent_points) == 1
print("numpy.ma" in sys.modules)
"""


def test_core_paths_never_import_numpy_ma():
    # Plain np.unique(x) imports numpy.ma on its first call (about 14 ms);
    # _coarsen and _cell_ranks use the return_inverse form, which does
    # not, so a fresh process that parses, lays out and checks a drawing
    # never pays for it.
    graphs = Path(__file__).resolve().parents[1] / "data" / "graphs"
    env = {**os.environ, "PYTHONPATH": str(Path(inka.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, str(graphs)],
                          capture_output=True, text=True, env=env, check=True, timeout=120)
    assert done.stdout == "False\n"
