import math

import numpy as np
import pytest

from conftest import bold, random_bold_drawing
from inka import (
    BoldDrawing,
    Layout,
    check_proper,
    count_crossings_bruteforce,
    edge_lengths,
    measure,
    measure_stub_crossings,
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


def _stub_crossings_pairwise(stubs):
    # the definition, pair by pair: parent-edge pairs, neither the same
    # nor adjacent, with at least one transversally crossing stub pair
    P, Q = stubs.P, stubs.Q
    par = stubs.parent_edge.tolist()
    nodes = stubs.parent_nodes.tolist()
    found = set()
    for a in range(len(P)):
        for b in range(a + 1, len(P)):
            e1, e2 = par[a], par[b]
            if set(nodes[e1]) & set(nodes[e2]):
                continue
            if transversal_crossing_mask(P[a:a + 1], Q[a:a + 1], P[b:b + 1], Q[b:b + 1])[0]:
                found.add((min(e1, e2), max(e1, e2)))
    return len(found)


def test_stub_crossings_skip_same_and_adjacent_parents_off_a_shared_node():
    # Stub tips are computed points.  Two nearly collinear adjacent edges
    # at 1e6 leave some stub pairs of theirs crossing by the predicate,
    # although the edges meet only at their shared node, and at
    # p = 1 - 2^-40 the two stubs of one edge end 2^-40 of it apart.  The
    # count skips both, as the pairwise definition does.
    rng = np.random.default_rng(33)
    fired = 0
    for _ in range(200):
        a = rng.uniform(-10.0, 10.0, 2)
        b = a + rng.uniform(-10.0, 10.0, 2)
        c = a + rng.uniform(0.1, 0.9) * (b - a) + rng.normal(size=2) * 1e-9
        d = bold(np.array([a, b, c]) + 1e6, [(0, 1), (1, 2)])
        for p in (0.9, 0.99, 1 - 2.0**-40):
            stubs = partial_edges(d, p)
            assert measure_stub_crossings(stubs) == _stub_crossings_pairwise(stubs) == 0
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
            stubs = partial_edges(d, p)
            assert measure_stub_crossings(stubs) == _stub_crossings_pairwise(stubs)


@pytest.mark.parametrize("k", [-20, 0, 20])
def test_stub_crossings_match_pairwise_oracle_on_scaled_and_moved_lattices(k):
    # lattice stubs bring shared anchors, collinear and vertical stubs;
    # scaling by 2^k and moving by 1e6 change the rounding of every tip
    rng = np.random.default_rng(32 + k)
    counts = []
    for shift in (0.0, 1e6):
        for _ in range(2):
            d = random_bold_drawing(rng, n_max=16, m_max=30, lattice_prob=1.0)
            moved = bold(d.layout.positions * 2.0**k + shift, d.graph.edges)
            for p in (0.1, 0.5, 1.0):
                stubs = partial_edges(moved, p)
                counts.append(measure_stub_crossings(stubs))
                assert counts[-1] == _stub_crossings_pairwise(stubs)
    assert sum(counts) > 0
