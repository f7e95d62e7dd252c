import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bold, random_bold_drawing
from inka import (
    BoldDrawing,
    DegenerateDrawingError,
    Layout,
    RasterConfig,
    RenderParams,
    ink_total,
    measure,
    rasterize_ink,
    render_svg,
)
from inka.geometry import bounding_box


def reference_rasterize_ink(d, cfg=RasterConfig()):
    """The per-shape window loop the scanline replaced, kept verbatim as
    the oracle: one boolean mask, painted one disk and one edge at a
    time."""
    if d.graph.node_count == 0:
        raise DegenerateDrawingError("cannot rasterize an empty drawing")
    box = bounding_box(d)
    xmin, ymin, xmax, ymax = box
    span = max(xmax - xmin, ymax - ymin)
    if span <= 0:
        raise DegenerateDrawingError(
            "degenerate bounding box: coincident nodes with zero radius"
        )
    px = span / (cfg.resolution * cfg.supersampling)
    nx = max(1, math.ceil((xmax - xmin) / px - 1e-9))
    ny = max(1, math.ceil((ymax - ymin) / px - 1e-9))
    mask = np.zeros((ny, nx), dtype=bool)

    def window(lo_x, hi_x, lo_y, hi_y):
        c0 = max(0, int(math.floor((lo_x - xmin) / px)))
        c1 = min(nx, int(math.ceil((hi_x - xmin) / px)))
        r0 = max(0, int(math.floor((lo_y - ymin) / px)))
        r1 = min(ny, int(math.ceil((hi_y - ymin) / px)))
        if c0 >= c1 or r0 >= r1:
            return None
        xs = xmin + (np.arange(c0, c1) + 0.5) * px
        ys = ymin + (np.arange(r0, r1) + 0.5) * px
        return (slice(r0, r1), slice(c0, c1)), xs[None, :], ys[:, None]

    pos = d.layout.positions
    r = d.params.radius
    if r > 0:
        r2 = r * r
        for cx, cy in pos:
            win = window(cx - r, cx + r, cy - r, cy + r)
            if win is None:
                continue
            sl, xs, ys = win
            mask[sl] |= (xs - cx) ** 2 + (ys - cy) ** 2 <= r2

    w = d.params.width
    if w > 0:
        half = 0.5 * w
        E = d.graph.edges
        for a, b in E:
            p, q = pos[a], pos[b]
            dx, dy = q[0] - p[0], q[1] - p[1]
            length = math.hypot(dx, dy)
            if length == 0:
                continue
            ux, uy = dx / length, dy / length
            spread_x = abs(uy) * half
            spread_y = abs(ux) * half
            win = window(
                min(p[0], q[0]) - spread_x,
                max(p[0], q[0]) + spread_x,
                min(p[1], q[1]) - spread_y,
                max(p[1], q[1]) + spread_y,
            )
            if win is None:
                continue
            sl, xs, ys = win
            relx = xs - p[0]
            rely = ys - p[1]
            along = relx * ux + rely * uy
            across = rely * ux - relx * uy
            mask[sl] |= (along >= 0) & (along <= length) & (np.abs(across) <= half)

    return float(mask.sum()) * px * px


def assert_same_as_reference(d, cfg):
    assert rasterize_ink(d, cfg) == reference_rasterize_ink(d, cfg)


def with_params(d, r, w):
    return BoldDrawing(d.graph, d.layout, RenderParams(r, w))


def translated(d, offset):
    return BoldDrawing(d.graph, Layout(d.layout.positions + offset), d.params)


def overhanging_windows(d, cfg):
    """Shapes whose cell window, by the rasterizer's arithmetic, reaches
    past the grid, so that clipping decides which cells they may ink."""
    xmin, ymin, xmax, ymax = bounding_box(d)
    px = max(xmax - xmin, ymax - ymin) / (cfg.resolution * cfg.supersampling)
    nx = max(1, math.ceil((xmax - xmin) / px - 1e-9))
    ny = max(1, math.ceil((ymax - ymin) / px - 1e-9))
    pos, r, half = d.layout.positions, d.params.radius, 0.5 * d.params.width
    boxes = [(x - r, x + r, y - r, y + r) for x, y in pos] if r > 0 else []
    if half > 0:
        for a, b in d.graph.edges:
            p, q = pos[a], pos[b]
            length = math.hypot(q[0] - p[0], q[1] - p[1])
            if length:
                sx = abs((q[1] - p[1]) / length) * half
                sy = abs((q[0] - p[0]) / length) * half
                boxes.append((min(p[0], q[0]) - sx, max(p[0], q[0]) + sx,
                              min(p[1], q[1]) - sy, max(p[1], q[1]) + sy))
    return sum(
        math.floor((lx - xmin) / px) < 0 or math.ceil((hx - xmin) / px) > nx
        or math.floor((ly - ymin) / px) < 0 or math.ceil((hy - ymin) / px) > ny
        for lx, hx, ly, hy in boxes
    )


def test_raster_config_validation():
    RasterConfig()
    RasterConfig(resolution=np.int64(64), supersampling=np.int32(4))
    with pytest.raises(ValueError):
        RasterConfig(resolution=32)
    with pytest.raises(ValueError):
        RasterConfig(supersampling=3)
    for bad in (dict(resolution=64.5), dict(resolution=64.0), dict(resolution=True),
                dict(resolution="2048"), dict(supersampling=True),
                dict(supersampling=2.0), dict(supersampling=None)):
        with pytest.raises(ValueError, match="must be an integer"):
            RasterConfig(**bad)


def test_raster_config_caps_the_grid_side():
    # the sample-centre arrays grow with the grid side, so a side past
    # 2**20 samples (2**18 x 4, the largest grid tested) is refused up front
    RasterConfig(resolution=2**18, supersampling=4)
    RasterConfig(resolution=2**20, supersampling=1)
    for resolution, supersampling in ((2**18 + 1, 4), (2**19 + 1, 2), (2**20 + 1, 1),
                                      (100_000_000, 1), (np.int64(2**62), 4)):
        with pytest.raises(ValueError, match=r"resolution \* supersampling must be <= 2\*\*20"):
            RasterConfig(resolution=resolution, supersampling=supersampling)


@pytest.mark.parametrize("supersampling", [1, 2, 4])
def test_scanline_equals_reference_on_random_drawings(supersampling):
    rng = np.random.default_rng(20 + supersampling)
    for case in range(150):
        d = random_bold_drawing(rng, n_max=25, m_max=50, lattice_prob=0.3,
                                span=(100.0, 15.0)[case % 2])
        assert_same_as_reference(d, RasterConfig(64 + 16 * (case % 3), supersampling))


def test_scanline_equals_reference_on_lattice_drawings():
    # vertical and horizontal edges, a zero-length edge (nodes 4 and 5
    # coincide) and edges through coincident nodes
    points = [(0, 0), (0, 6), (6, 6), (6, 0), (3, 3), (3, 3), (3, 0), (0, 3)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (4, 6), (5, 7), (0, 2), (6, 7)]
    for r, w in [(1.0, 0.5), (0.0, 1.0), (1.5, 0.0), (0.5, 3.0), (0.25, 0.25)]:
        for supersampling in (1, 2, 4):
            assert_same_as_reference(bold(points, edges, r=r, w=w),
                                     RasterConfig(64, supersampling))


@pytest.mark.parametrize("band_pairs", [1, 7])
def test_scanline_equals_reference_in_small_bands(band_pairs, monkeypatch):
    # many bands per drawing: a band that drops or repeats a row shows
    monkeypatch.setattr("inka.raster.BAND_PAIRS", band_pairs)
    rng = np.random.default_rng(30 + band_pairs)
    for case in range(20):
        d = random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=0.3)
        assert_same_as_reference(d, RasterConfig(64, 1 + case % 2))
    points = [(0, 0), (0, 6), (6, 6), (6, 0), (3, 3), (3, 3), (3, 0), (0, 3)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (4, 6), (5, 7), (0, 2), (6, 7)]
    for r, w in [(1.0, 0.5), (0.0, 1.0), (1.5, 0.0), (0.5, 3.0)]:
        assert_same_as_reference(bold(points, edges, r=r, w=w), RasterConfig(64, 2))


def test_scanline_equals_reference_with_zero_radius_or_width():
    rng = np.random.default_rng(5)
    for case in range(30):
        d = random_bold_drawing(rng, n_max=15, m_max=30, lattice_prob=0.5)
        for r, w in [(0.0, d.params.width), (d.params.radius, 0.0),
                     (d.params.radius, d.params.width)]:
            assert_same_as_reference(with_params(d, r, w), RasterConfig(64, 2))


def test_scanline_equals_reference_on_sides_through_sample_centres():
    # The box is [0, 16] x [0, 16] and px = 1/4, so sample centres sit at
    # 1/8 + k/4.  Every number below is dyadic, so the tests are exact:
    # the rectangle sides y = 4.125, 5.125 and x = 7.125, 8.125, the caps
    # x = 2.125, 12.125 and y = 1.125, 14.125, and the circles of radius
    # 1.25 around centres met by samples 3/4 and 1 away (3-4-5).
    corners = [(0.0, 0.0), (16.0, 16.0)]
    bars = [(2.125, 4.625), (12.125, 4.625), (7.625, 1.125), (7.625, 14.125)]
    d = bold(corners + bars, [(2, 3), (4, 5)], r=0.0, w=1.0)
    for supersampling in (1, 2, 4):
        assert_same_as_reference(d, RasterConfig(64, supersampling))
    inset = [(1.25, 1.25), (14.75, 14.75)]  # disks of radius 1.25 keep the box
    disks = bold(inset + [(4.125, 10.125), (11.125, 10.125)], [(2, 3)], r=1.25, w=0.5)
    for supersampling in (1, 2, 4):
        assert_same_as_reference(disks, RasterConfig(64, supersampling))
    # 12 samples of a disk lie on its circle, (+-3, +-4), (+-4, +-3),
    # (+-5, 0) and (0, +-5) quarter units away, next to 69 inside it
    cfg = RasterConfig(64, 1)
    one_disk = bold(inset + [(4.125, 10.125)], [], r=1.25, w=0.0)
    no_disk = bold(inset, [], r=1.25, w=0.0)
    assert rasterize_ink(one_disk, cfg) - rasterize_ink(no_disk, cfg) == (69 + 12) / 16
    # the closed tests count the samples on the sides: a bar of 10 x 1
    # covers 40 x 5 samples of a quarter unit, caps and sides included
    one_bar = bold(corners + bars[:2], [(2, 3)], r=0.0, w=1.0)
    assert rasterize_ink(one_bar, RasterConfig(64, 1)) == 41 * 5 / 16


def test_scanline_equals_reference_on_clipped_windows():
    # A grid side of 10 + 5e-10 cells loses its last partial row to the
    # 1e-9 slack, so the top disk and edge reach past the grid; random
    # drawings at a coarse resolution overhang by rounding.
    clipped = 0
    for w in (0.0, 0.5, 2.0):
        d = bold([(1.0, 1.0), (63.0, 9.0 + 5e-10)], [(0, 1)], r=1.0, w=w)
        clipped += overhanging_windows(d, RasterConfig(64, 1))
        assert_same_as_reference(d, RasterConfig(64, 1))
    rng = np.random.default_rng(11)
    for case in range(60):
        d = random_bold_drawing(rng, n_max=12, m_max=20, lattice_prob=0.5)
        d = with_params(d, 0.1, 3.0)  # wide edges set the box
        cfg = RasterConfig(64, 1 + case % 2)
        clipped += overhanging_windows(d, cfg)
        assert_same_as_reference(d, cfg)
    assert clipped > 0


def test_scanline_equals_reference_translated_by_1e6():
    rng = np.random.default_rng(9)
    for case in range(40):
        d = random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=0.3,
                                span=(100.0, 2.0)[case % 2])
        for supersampling in (1, 2):
            assert_same_as_reference(translated(d, 1e6), RasterConfig(64, supersampling))
            assert_same_as_reference(translated(d, -1e6), RasterConfig(64, supersampling))


@st.composite
def integer_drawings(draw):
    n = draw(st.integers(2, 7))
    points = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=10))
    r = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    w = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    return bold([(float(x), float(y)) for x, y in points],
                sorted({(min(e), max(e)) for e in edges}), r=r, w=w)


@settings(max_examples=150, deadline=None)
@given(integer_drawings(), st.sampled_from([1, 2, 4]))
def test_scanline_equals_reference_property(d, supersampling):
    cfg = RasterConfig(64, supersampling)
    try:
        expected = reference_rasterize_ink(d, cfg)
    except DegenerateDrawingError:
        with pytest.raises(DegenerateDrawingError):
            rasterize_ink(d, cfg)
        return
    assert rasterize_ink(d, cfg) == expected


def test_raster_memory_bounded_at_huge_resolution():
    # 2**18 x 2**18 samples: a mask of them would take 64 GiB
    r = w = 0.5
    d = bold([(0.0, 0.0), (1.0, 1.0)], [(0, 1)], r=r, w=w)
    tracemalloc.start()
    try:
        got = rasterize_ink(d, RasterConfig(resolution=2**18, supersampling=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    expected = ink_total(d, measure(d), strict=True).ink_total
    assert got > 0
    assert abs(got - expected) / expected < 0.02
    # exact union: two disks and the rectangle, less the strip
    # |across| <= w/2 of each disk that the rectangle also covers
    a = 0.5 * w
    strip = a * math.sqrt(r * r - a * a) + r * r * math.asin(a / r)
    exact = 2 * math.pi * r * r + math.sqrt(2.0) * w - 2 * strip
    assert abs(got - exact) / exact < 1e-4


def test_single_disk_area():
    d = bold([(0.0, 0.0)], [], r=1.0, w=0.0)
    got = rasterize_ink(d, RasterConfig(resolution=1024, supersampling=2))
    assert abs(got - math.pi) / math.pi < 0.01


def test_single_rectangle_area():
    # tilted so the rectangle edges do not ride the pixel grid
    d = bold([(0.0, 0.0), (8.0, 5.0)], [(0, 1)], r=0.0, w=1.0)
    got = rasterize_ink(d, RasterConfig(resolution=1024, supersampling=2))
    expected = math.hypot(8.0, 5.0) * 1.0
    assert abs(got - expected) / expected < 0.01


def test_union_not_double_counted():
    # two identical edges between the same endpoints ink the same pixels;
    # duplicate edges collapse in the graph, so overlay two crossing edges
    # sharing most of their rectangle instead
    d = bold([(0.0, 0.0), (10.0, 0.3), (0.0, 0.3), (10.0, 0.0)], [(0, 1), (2, 3)],
             r=0.0, w=1.0)
    got = rasterize_ink(d, RasterConfig(resolution=1024, supersampling=2))
    # the union is well under the 2 * l * w sum of the parts
    assert got < 1.5 * 10.0


def test_crossing_free_drawing_matches_formula(parallel_drawing):
    metrics = measure(parallel_drawing)
    ink = ink_total(parallel_drawing, metrics, strict=True).ink_total
    got = rasterize_ink(parallel_drawing, RasterConfig(resolution=1024, supersampling=2))
    assert abs(got - ink) / ink < 0.02


def test_resolution_convergence():
    d = bold([(0, 0), (9, 4), (3, 8)], [(0, 1), (1, 2)], r=1.2, w=0.4)
    coarse = rasterize_ink(d, RasterConfig(resolution=1024, supersampling=1))
    fine = rasterize_ink(d, RasterConfig(resolution=2048, supersampling=1))
    assert abs(fine - coarse) / fine < 0.005


def test_rasterize_degenerate_drawings():
    with pytest.raises(DegenerateDrawingError):
        rasterize_ink(bold([], [], r=1.0, w=0.1))
    with pytest.raises(DegenerateDrawingError):
        rasterize_ink(bold([(2.0, 2.0)], [], r=0.0, w=0.0))


def test_render_svg_structure(diagonal_drawing, tmp_path):
    out = tmp_path / "drawing.svg"
    text = render_svg(diagonal_drawing, out)
    assert out.read_text() == text
    assert text.count("<circle") == 4
    assert text.count("<line") == 2
    assert 'stroke-linecap="butt"' in text
    assert 'stroke-width="0.1"' in text
    assert text.startswith("<?xml")
    assert "<svg" in text
    # numeric attributes stay plain decimal, no numpy repr leakage
    assert "np.float" not in text


def test_render_svg_deterministic(diagonal_drawing):
    assert render_svg(diagonal_drawing) == render_svg(diagonal_drawing)


def test_render_svg_empty_graph_is_well_formed():
    # unlike the raster oracle, the exporter accepts an empty drawing
    text = render_svg(bold([], [], r=1.0, w=0.1))
    assert "<svg" in text and "</svg>" in text
    assert "<circle" not in text and "<line" not in text
