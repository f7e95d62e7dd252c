import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bold, random_bold_drawing
from inka import (
    Segment,
    bounding_area,
    bounding_box,
    check_proper,
    count_crossings_bruteforce,
    count_crossings_sweep,
    crossing_pairs,
    edge_lengths,
    measure,
    segments_intersect,
    segments_overlap_collinear,
)
from inka.geometry import _candidate_blocks


def test_segments_intersect_midpoint():
    pt = segments_intersect(Segment((0, 0), (10, 10)), Segment((0, 10), (10, 0)))
    assert pt == pytest.approx((5.0, 5.0))


def test_segments_intersect_disjoint():
    assert segments_intersect(Segment((0, 0), (1, 0)), Segment((0, 1), (1, 1))) is None


def test_segments_intersect_shared_endpoint_is_not_a_crossing():
    assert segments_intersect(Segment((0, 0), (1, 1)), Segment((1, 1), (2, 0))) is None


def test_segments_intersect_touching_interior_is_not_transversal():
    # endpoint of one lies on the interior of the other: orientation zero
    assert segments_intersect(Segment((0, 0), (2, 0)), Segment((1, 0), (1, 5))) is None


def test_segments_intersect_degenerate_segment():
    assert segments_intersect(Segment((1, 1), (1, 1)), Segment((0, 0), (2, 2))) is None


def test_collinear_overlap_detected_separately():
    a = Segment((0, 0), (2, 0))
    b = Segment((1, 0), (3, 0))
    assert segments_intersect(a, b) is None
    assert segments_overlap_collinear(a, b)
    # touching only at one point is not a positive-length overlap
    assert not segments_overlap_collinear(Segment((0, 0), (1, 0)), Segment((1, 0), (2, 0)))
    # vertical flavor
    assert segments_overlap_collinear(Segment((0, 0), (0, 2)), Segment((0, 1), (0, 3)))


coords = st.integers(min_value=-4, max_value=4)
points = st.tuples(coords, coords)


@settings(max_examples=300, deadline=None)
@given(points, points, points, points)
def test_intersection_predicate_is_symmetric(p1, q1, p2, q2):
    # small integer coordinates force collinear, degenerate, and
    # endpoint-touching configurations
    a = Segment(p1, q1)
    b = Segment(p2, q2)
    assert (segments_intersect(a, b) is None) == (segments_intersect(b, a) is None)
    assert segments_overlap_collinear(a, b) == segments_overlap_collinear(b, a)
    # swapping a segment's own endpoints changes nothing either
    rev = Segment(q1, p1)
    assert (segments_intersect(rev, b) is None) == (segments_intersect(a, b) is None)


def test_crossing_counts_on_fixtures(parallel_drawing, diagonal_drawing, xshape_drawing):
    for d, expected in ((parallel_drawing, 0), (diagonal_drawing, 1), (xshape_drawing, 1)):
        assert count_crossings_bruteforce(d) == expected
        assert count_crossings_sweep(d) == expected


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


def test_candidate_blocks_yield_each_x_overlapping_pair_once():
    # lattice endpoints bring tied x-extents, vertical segments and
    # zero-width extents; block_pairs=1 gives one rank per block
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
            got = [
                (min(i, j), max(i, j))
                for I, J in _candidate_blocks(lx, hx, block_pairs)
                for i, j in zip(I.tolist(), J.tolist())
            ]
            assert len(got) == len(set(got))
            assert set(got) == expected


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


def test_check_proper_clean_drawing(parallel_drawing):
    report = check_proper(parallel_drawing)
    assert report.verdict
    assert report.disk_overlaps == []
    assert report.concurrent_points == []
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
    assert report.concurrent_points
    assert not report.verdict


def test_check_proper_collinear_overlap():
    pts = [(0, 0), (2, 0), (1, 0), (3, 0)]
    d = bold(pts, [(0, 1), (2, 3)], r=0.1, w=0.05)
    report = check_proper(d)
    assert report.collinear_overlaps == [(0, 1)]
    assert not report.verdict


def test_measure_selects_counter(diagonal_drawing):
    m1 = measure(diagonal_drawing, counter="sweep")
    m2 = measure(diagonal_drawing, counter="brute")
    assert m1.crossings == m2.crossings == 1
    assert m1.total_edge_length == pytest.approx(m2.total_edge_length)
    assert m1.area == pytest.approx(m2.area)
    with pytest.raises(ValueError):
        measure(diagonal_drawing, counter="magic")


def test_measure_fixed_area(diagonal_drawing):
    assert measure(diagonal_drawing, area=1000.0).area == 1000.0
