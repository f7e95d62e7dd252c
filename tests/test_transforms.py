import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from conftest import bold, kernel_path, random_bold_drawing
from inka import (
    BoldDrawing,
    Layout,
    check_proper,
    count_crossings_bruteforce,
    count_crossings_sweep,
    crossing_pairs,
    edge_lengths,
    measure,
    measure_stub_crossings,
    partial_crossing_counts,
    partial_edges,
    scale_layout,
    zoom_drawing,
)
from inka.geometry import transversal_crossing_mask


def test_scale_layout_identity():
    lay = Layout(np.array([[0.0, 0.0], [3.0, 4.0]]))
    out = scale_layout(lay, 1.0)
    assert np.array_equal(out.positions, lay.positions)


def test_scale_layout_multiplies_all_distances():
    rng = np.random.default_rng(2)
    pos = rng.uniform(0, 50, size=(8, 2))
    lay = Layout(pos)
    out = scale_layout(lay, 2.5)
    d_before = np.hypot(*(pos[:, None, :] - pos[None, :, :]).transpose(2, 0, 1))
    p2 = out.positions
    d_after = np.hypot(*(p2[:, None, :] - p2[None, :, :]).transpose(2, 0, 1))
    assert np.allclose(d_after, 2.5 * d_before)
    # centroid fixed
    assert np.allclose(out.positions.mean(axis=0), pos.mean(axis=0))


def test_scale_layout_rejects_bad_factor():
    lay = Layout(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        scale_layout(lay, 0.0)
    with pytest.raises(ValueError):
        scale_layout(lay, -2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="length multiplier must be finite and > 0"):
            scale_layout(lay, bad)


def test_scale_and_zoom_refuse_a_span_that_does_not_square_before_any_product(
        diagonal_drawing):
    # the tests run with RuntimeWarning as an error, so an overflowing
    # product would fail here before the refusal
    lay = diagonal_drawing.layout
    with pytest.raises(ValueError, match="^scaled layout span .* is too large to square$"):
        scale_layout(lay, 1e200)
    with pytest.raises(ValueError, match="^zoomed drawing box .* is too large to square$"):
        zoom_drawing(diagonal_drawing, 1e308)
    # a far offset overflows the zoomed corners, not the span
    far = BoldDrawing(diagonal_drawing.graph, Layout(lay.positions + 1e300),
                      diagonal_drawing.params)
    with pytest.raises(ValueError, match="^zoomed drawing box nan x nan is too large"):
        zoom_drawing(far, 1e20)


def test_scale_preserves_crossings():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = random_bold_drawing(rng, lattice_prob=0.0)
        before = count_crossings_bruteforce(d)
        scaled = BoldDrawing(d.graph, scale_layout(d.layout, 3.0), d.params)
        assert count_crossings_bruteforce(scaled) == before


def test_zoom_drawing_scales_params(diagonal_drawing):
    z = zoom_drawing(diagonal_drawing, 4.0)
    assert z.params.radius == pytest.approx(2.0)
    assert z.params.width == pytest.approx(0.2)
    assert z.params.gamma == diagonal_drawing.params.gamma
    _, L = edge_lengths(z)
    assert L == pytest.approx(2.0 * edge_lengths(diagonal_drawing)[1])
    with pytest.raises(ValueError):
        zoom_drawing(diagonal_drawing, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="area magnification must be finite and > 0"):
            zoom_drawing(diagonal_drawing, bad)


def test_zoom_preserves_properness():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = random_bold_drawing(rng, n_max=12, m_max=15)
        verdict = check_proper(d).verdict
        assert check_proper(zoom_drawing(d, 2.25)).verdict == verdict


def test_partial_edges_stub_geometry():
    d = bold([(0, 0), (10, 0)], [(0, 1)], r=1.0, w=0.1)
    stubs = partial_edges(d, 0.5)
    assert len(stubs.segments) == 2
    (p1, q1), (p2, q2) = stubs.segments
    assert p1 == (0.0, 0.0)
    assert q1 == pytest.approx((2.5, 0.0))
    assert p2 == (10.0, 0.0)
    assert q2 == pytest.approx((7.5, 0.0))
    assert stubs.total_length == pytest.approx(5.0)
    assert list(stubs.parent_edge) == [0, 0]


def test_partial_edges_full_ratio_is_one_segment_per_edge(diagonal_drawing):
    stubs = partial_edges(diagonal_drawing, 1.0)
    assert len(stubs.segments) == 2
    assert stubs.total_length == pytest.approx(edge_lengths(diagonal_drawing)[1])
    assert measure_stub_crossings(stubs) == 1


def test_partial_edges_total_length_is_p_times_L():
    rng = np.random.default_rng(19)
    for p in (0.1, 0.25, 0.5, 0.9):
        d = random_bold_drawing(rng, lattice_prob=0.0)
        stubs = partial_edges(d, p)
        _, L = edge_lengths(d)
        assert stubs.total_length == pytest.approx(p * L, rel=1e-9, abs=0)


def test_partial_edges_rejects_bad_ratio(diagonal_drawing):
    for p in (0.0, -1.0, 1.01):
        with pytest.raises(ValueError):
            partial_edges(diagonal_drawing, p)


def test_stub_crossings_vanish_for_short_stubs(diagonal_drawing):
    # diagonals cross at the center; 10% stubs nowhere near it
    stubs = partial_edges(diagonal_drawing, 0.1)
    assert measure_stub_crossings(stubs) == 0


def test_stub_crossings_monotone_in_p():
    rng = np.random.default_rng(29)
    for _ in range(15):
        d = random_bold_drawing(rng, lattice_prob=0.0)
        counts = [
            measure_stub_crossings(partial_edges(d, p)) for p in (0.1, 0.3, 0.6, 1.0)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == count_crossings_bruteforce(d)


def test_stub_pair_counted_once():
    # crossing near both start endpoints: the start stubs capture it at
    # p = 0.5; all four stub pairs get tested but the parent pair counts once
    d = bold([(0, 0), (10, 0), (2, -1), (2, 9)], [(0, 1), (2, 3)], r=0.1, w=0.05)
    assert count_crossings_bruteforce(d) == 1
    assert measure_stub_crossings(partial_edges(d, 0.5)) == 1


def test_stub_crossings_skip_adjacent_edges():
    # shared endpoint: never a crossing at any ratio
    d = bold([(0, 0), (5, 5), (10, 0)], [(0, 1), (1, 2)], r=0.1, w=0.05)
    for p in (0.25, 0.75, 1.0):
        assert measure_stub_crossings(partial_edges(d, p)) == 0


def _fractions(p1, q1, p2, q2):
    # where (p1, q1) and (p2, q2) meet, as fractions along each from p1 and p2
    r, s, o = q1 - p1, q2 - p2, p2 - p1
    rs = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    return (o[:, 0] * s[:, 1] - o[:, 1] * s[:, 0]) / rs, (o[:, 0] * r[:, 1] - o[:, 1] * r[:, 0]) / rs


def _stub_crossings_reference(d, p):
    # the definition, all pairs at once: the non-adjacent edge pairs that
    # cross transversally at fractions, from the nearer end of each edge,
    # both strictly below p/2; at p = 1 all of them
    P, Q = np.take(d.layout.positions, d.graph.edges.T, axis=0)
    a, b = d.graph.edges.T
    I, J = np.triu_indices(len(P), 1)
    adjacent = (a[I] == a[J]) | (a[I] == b[J]) | (b[I] == a[J]) | (b[I] == b[J])
    cross = transversal_crossing_mask(P[I], Q[I], P[J], Q[J]) & ~adjacent
    I, J = I[cross], J[cross]
    if p == 1.0:
        return int(I.size)
    t, u = _fractions(P[I], Q[I], P[J], Q[J])
    t_far, u_far = _fractions(Q[I], P[I], Q[J], P[J])
    kept = (np.minimum(t, t_far) < p / 2) & (np.minimum(u, u_far) < p / 2)
    return int(np.count_nonzero(kept))


def test_stub_crossings_skip_same_and_adjacent_parents_off_a_shared_node():
    # Stub tips are computed points.  Two nearly collinear adjacent edges
    # at 1e6 leave some stub pairs of theirs crossing by the predicate,
    # although the edges meet only at their shared node, and at
    # p = 1 - 2^-40 the two stubs of one edge end 2^-40 of it apart.  The
    # count tests the edges, not the stubs, so neither is a crossing.
    rng = np.random.default_rng(33)
    fired = 0
    for _ in range(200):
        a = rng.uniform(-10.0, 10.0, 2)
        b = a + rng.uniform(-10.0, 10.0, 2)
        c = a + rng.uniform(0.1, 0.9) * (b - a) + rng.normal(size=2) * 1e-9
        d = bold(np.array([a, b, c]) + 1e6, [(0, 1), (1, 2)])
        for p in (0.9, 0.99, 1 - 2.0**-40):
            stubs = partial_edges(d, p)
            assert measure_stub_crossings(stubs) == _stub_crossings_reference(d, p) == 0
            I, J = np.triu_indices(len(stubs.P), 1)
            apart = stubs.parent_edge[I] != stubs.parent_edge[J]
            I, J = I[apart], J[apart]
            fired += bool(transversal_crossing_mask(stubs.P[I], stubs.Q[I], stubs.P[J], stubs.Q[J]).any())
    assert fired > 0


def test_stub_crossings_match_pairwise_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = random_bold_drawing(rng, n_max=20, m_max=40)
        for p in (0.1, 0.5, 1.0):
            assert measure_stub_crossings(partial_edges(d, p)) == _stub_crossings_reference(d, p)


@pytest.mark.parametrize("k", [-20, 0, 20])
def test_stub_crossings_match_pairwise_oracle_on_scaled_and_moved_lattices(k):
    # lattice edges bring shared ends, collinear and vertical edges, and
    # crossings at simple fractions; the drawing is scaled by 2^k and moved
    rng = np.random.default_rng(32 + k)
    counts = []
    for shift in (0.0, 1e6):
        for _ in range(2):
            d = random_bold_drawing(rng, n_max=16, m_max=30, lattice_prob=1.0)
            moved = bold(d.layout.positions * 2.0**k + shift, d.graph.edges)
            for p in (0.1, 0.5, 1.0):
                counts.append(measure_stub_crossings(partial_edges(moved, p)))
                assert counts[-1] == _stub_crossings_reference(moved, p)
    assert sum(counts) > 0


def test_partial_crossing_counts_equal_one_count_per_ratio():
    # One enumeration for all ratios, unsorted and repeated, equals the
    # definition at each ratio alone, including the non-dyadic ones where a
    # lattice crossing's fraction can sit next to p/2
    ratios = [2 / 3, 0.3, 1.0, 1 / 3, 0.7, 0.3, 1.0, 2 / 3]
    rng = np.random.default_rng(34)
    counts = []
    for lattice_prob in (0.0, 1.0):
        for _ in range(15):
            d = random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=lattice_prob)
            want = [_stub_crossings_reference(d, p) for p in ratios]
            assert partial_crossing_counts(d, ratios) == want
            assert [measure_stub_crossings(partial_edges(d, p)) for p in ratios] == want
            counts += want
    assert len(set(counts)) > 5


@pytest.mark.parametrize("path", ["runs", "table"])
def test_full_edge_counts_take_out_no_crossing_pair(path):
    # At p = 1 a count is one count_nonzero per kernel block: taking the
    # crossing pairs out would cost more than counting them
    d = random_bold_drawing(np.random.default_rng(38), n_max=30, m_max=60, lattice_prob=0.0)
    want = count_crossings_bruteforce(d)
    assert want > 0
    with kernel_path(path), \
            mock.patch("inka.geometry._hit_pairs", side_effect=AssertionError("pairs")), \
            mock.patch("inka.geometry._crossing_params", side_effect=AssertionError("params")):
        assert count_crossings_sweep(d) == want
        assert measure_stub_crossings(partial_edges(d, 1.0)) == want
        assert partial_crossing_counts(d, [1.0]) == [want]


def test_partial_crossing_counts_check_every_ratio():
    d = bold([(0, 0), (10, 10), (0, 10), (10, 0)], [(0, 1), (2, 3)])
    assert partial_crossing_counts(d, []) == []
    for bad in (0.0, 1.5, float("nan"), "0.5"):
        with pytest.raises(ValueError, match="retained fraction"):
            partial_crossing_counts(d, [0.5, bad])


def _reversed_edges(d):
    # nodes numbered backwards: every edge (a, b) becomes (n-1-b, n-1-a),
    # so its segment runs from b's position to a's
    n = d.graph.node_count
    return bold(d.layout.positions[::-1], n - 1 - d.graph.edges)


def test_stub_crossings_keep_under_translation_scaling_and_edge_reversal():
    # On integer coordinates the fractions from each end are ratios of
    # exact integers, and moving by an integer or scaling by 2^k leaves both
    # integers alone or scales them exactly; computed stub tips would round
    # differently after each move, at ratios with no short binary fraction.
    rng = np.random.default_rng(36)
    moves = [(1.0, s) for s in (1.0, 1024.0, 2.0**20 + 3)] + [(2.0**k, 0.0) for k in (-20, 20)]
    crossed = 0
    for _ in range(100):
        d = random_bold_drawing(rng, n_max=29, m_max=60, lattice_prob=1.0)
        for p in (1 / 3, 2 / 3, 0.3, 0.7):
            want = measure_stub_crossings(partial_edges(d, p))
            crossed += want
            for scale, shift in moves:
                moved = bold(d.layout.positions * scale + shift, d.graph.edges)
                assert measure_stub_crossings(partial_edges(moved, p)) == want, (p, scale, shift)
            assert measure_stub_crossings(partial_edges(_reversed_edges(d), p)) == want, p
    assert crossed > 0


def test_lattice_stub_crossings_equal_the_exact_fractions():
    # Fractions computed exactly, against the ratio meant: a crossing a
    # sixth along an edge lies at the tip for p = 1/3 from either end, and
    # 1 - t rounded after t would put one from the far end inside
    rng = np.random.default_rng(37)
    crossed = 0
    for _ in range(30):
        d = random_bold_drawing(rng, n_max=29, m_max=60, lattice_prob=1.0)
        P, Q = np.take(d.layout.positions, d.graph.edges.T, axis=0).astype(int).tolist()
        found = []
        for i, j, _pt in crossing_pairs(d)[0]:
            (rx, ry), (sx, sy) = np.subtract(Q[i], P[i]), np.subtract(Q[j], P[j])
            ox, oy = np.subtract(P[j], P[i])
            rs = int(rx * sy - ry * sx)
            found.append((Fraction(int(ox * sy - oy * sx), rs), Fraction(int(ox * ry - oy * rx), rs)))
        for meant in map(Fraction, ("1/3", "2/3", "1/10", "3/10", "7/10", "1/6")):
            half = meant / 2
            want = sum(min(t, 1 - t) < half and min(u, 1 - u) < half for t, u in found)
            assert measure_stub_crossings(partial_edges(d, float(meant))) == want, meant
            crossed += want
    assert crossed > 0


def test_crossing_at_a_stub_tip_is_not_a_crossing():
    # the edges cross at (1, 0), a quarter along both: the half stubs end
    # there and only touch, slightly longer ones cross, shorter ones miss
    d = bold([(0, 0), (4, 0), (1, -1), (1, 3)], [(0, 1), (2, 3)])
    counts = [measure_stub_crossings(partial_edges(d, p)) for p in (0.49, 0.5, 0.51, 1.0)]
    assert counts == [0, 0, 1, 1]
    assert [_stub_crossings_reference(d, p) for p in (0.49, 0.5, 0.51, 1.0)] == counts
