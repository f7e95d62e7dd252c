import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import block_size, bold, random_bold_drawing
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
    """Sample-grid ink, the bounded reference for rasterize_ink: one
    boolean mask of sample centres on the raster's rows, painted one
    disk and one edge at a time."""
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


def assert_near_reference(d, cfg):
    """rasterize_ink within 2 px^2 per (shape, row) pair of the grid: a
    merged chord of length l holds l / px sample centres, +-1."""
    px, pairs = row_height_and_pairs(d, cfg)
    assert abs(rasterize_ink(d, cfg) - reference_rasterize_ink(d, cfg)) <= 2 * px * px * pairs


def shape_boxes(d):
    """(lo_x, hi_x, lo_y, hi_y) of each disk and drawn edge rectangle."""
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
    return boxes


def grid_of(d, cfg):
    """xmin, ymin, the row height px and the grid's nx columns and ny rows."""
    xmin, ymin, xmax, ymax = bounding_box(d)
    px = max(xmax - xmin, ymax - ymin) / (cfg.resolution * cfg.supersampling)
    nx = max(1, math.ceil((xmax - xmin) / px - 1e-9))
    ny = max(1, math.ceil((ymax - ymin) / px - 1e-9))
    return xmin, ymin, px, nx, ny


def row_height_and_pairs(d, cfg):
    """Row height and the count of (shape, row) pairs: rows whose cells
    meet a shape's y-extent, clipped to the grid."""
    _, ymin, px, _, ny = grid_of(d, cfg)
    pairs = sum(max(0, min(ny, math.ceil((hy - ymin) / px))
                    - max(0, math.floor((ly - ymin) / px)))
                for _, _, ly, hy in shape_boxes(d))
    return px, pairs


def with_params(d, r, w):
    return BoldDrawing(d.graph, d.layout, RenderParams(r, w))


def translated(d, offset):
    return BoldDrawing(d.graph, Layout(d.layout.positions + offset), d.params)


def overhanging_windows(d, cfg):
    """Shapes whose cell window, by the grid's arithmetic, reaches past
    the grid, so that clipping decides which cells they may ink."""
    xmin, ymin, px, nx, ny = grid_of(d, cfg)
    return sum(
        math.floor((lx - xmin) / px) < 0 or math.ceil((hx - xmin) / px) > nx
        or math.floor((ly - ymin) / px) < 0 or math.ceil((hy - ymin) / px) > ny
        for lx, hx, ly, hy in shape_boxes(d)
    )


def scaled(d, k):
    """The drawing with positions, r and w multiplied by 2**k."""
    f = math.ldexp(1.0, k)
    p = d.params
    return BoldDrawing(d.graph, Layout(d.layout.positions * f),
                       RenderParams(p.radius * f, p.width * f))


def exact_union_area(d):
    """Exact area of the union of the disks and edge rectangles, by
    Green's theorem: the union's area is the integral of x dy around its
    boundary, which is made of the pieces of the circles and rectangle
    sides that lie in no other shape.  Each circle and side is cut where
    it meets another shape's boundary, a piece is kept when its midpoint
    is inside no other shape, and the kept pieces' integrals, in closed
    form, are summed.  Needs general position: no tangencies and no
    shared boundaries."""
    pos, r, half = d.layout.positions.tolist(), d.params.radius, 0.5 * d.params.width
    disks = pos if r > 0 else []
    rects = []  # corners counterclockwise
    for a, b in d.graph.edges.tolist() if half > 0 else []:
        (x0, y0), (x1, y1) = pos[a], pos[b]
        length = math.hypot(x1 - x0, y1 - y0)
        if length:
            nx, ny = (y0 - y1) / length * half, (x1 - x0) / length * half
            rects.append([(x0 - nx, y0 - ny), (x1 - nx, y1 - ny),
                          (x1 + nx, y1 + ny), (x0 + nx, y0 + ny)])
    sides = [(k, c[i], c[(i + 1) % 4]) for k, c in enumerate(rects) for i in range(4)]

    def inside(x, y, disk=None, rect=None):
        return (any((x - cx) ** 2 + (y - cy) ** 2 < r * r
                    for i, (cx, cy) in enumerate(disks) if i != disk)
                or any(all((bx - ax) * (y - ay) > (by - ay) * (x - ax)
                           for (ax, ay), (bx, by) in zip(c, c[1:] + c[:1]))
                       for k, c in enumerate(rects) if k != rect))

    def circle_cuts(p, q, c):  # t in (0, 1) where p + t (q - p) meets circle c
        dx, dy, ox, oy = q[0] - p[0], q[1] - p[1], p[0] - c[0], p[1] - c[1]
        a, b = dx * dx + dy * dy, dx * ox + dy * oy
        disc = b * b - a * (ox * ox + oy * oy - r * r)
        roots = [(-b - math.sqrt(disc)) / a, (-b + math.sqrt(disc)) / a] if disc > 0 else []
        return [t for t in roots if 0 < t < 1]

    def side_cut(p, q, a, b):  # t in (0, 1) where p + t (q - p) crosses side ab
        dx, dy, ex, ey = q[0] - p[0], q[1] - p[1], b[0] - a[0], b[1] - a[1]
        den = dx * ey - dy * ex
        if den:
            t = ((a[0] - p[0]) * ey - (a[1] - p[1]) * ex) / den
            u = ((a[0] - p[0]) * dy - (a[1] - p[1]) * dx) / den
            if 0 < t < 1 and 0 < u < 1:
                return [t]
        return []

    total = 0.0
    for i, (cx, cy) in enumerate(disks):
        angles = []
        for j, (ox, oy) in enumerate(disks):
            dist = math.hypot(ox - cx, oy - cy)
            if j != i and 0 < dist < 2 * r:
                mid, spread = math.atan2(oy - cy, ox - cx), math.acos(dist / (2 * r))
                angles += [mid - spread, mid + spread]
        for _, p, q in sides:
            angles += [math.atan2(p[1] + t * (q[1] - p[1]) - cy, p[0] + t * (q[0] - p[0]) - cx)
                       for t in circle_cuts(p, q, (cx, cy))]
        angles = sorted(t % (2 * math.pi) for t in angles) or [0.0]
        for t0, t1 in zip(angles, angles[1:] + [angles[0] + 2 * math.pi]):
            mid = 0.5 * (t0 + t1)
            if not inside(cx + r * math.cos(mid), cy + r * math.sin(mid), disk=i):
                total += (cx * r * (math.sin(t1) - math.sin(t0)) + r * r * (
                    0.5 * (t1 - t0) + 0.25 * (math.sin(2 * t1) - math.sin(2 * t0))))
    for k, p, q in sides:
        ts = [t for c in disks for t in circle_cuts(p, q, c)]
        ts += [t for o, a, b in sides if o != k for t in side_cut(p, q, a, b)]
        ts = [0.0] + sorted(ts) + [1.0]
        for t0, t1 in zip(ts, ts[1:]):
            x0, y0 = p[0] + t0 * (q[0] - p[0]), p[1] + t0 * (q[1] - p[1])
            x1, y1 = p[0] + t1 * (q[0] - p[0]), p[1] + t1 * (q[1] - p[1])
            if not inside(0.5 * (x0 + x1), 0.5 * (y0 + y1), rect=k):
                total += 0.5 * (x0 + x1) * (y1 - y0)
    return total


def general_position_drawing(rng, n_max=20, m_max=30):
    """A random drawing of at most n_max + m_max shapes with uniform
    float positions, r and w, so that no boundaries touch or coincide."""
    return random_bold_drawing(rng, n_max=n_max, m_max=m_max, lattice_prob=0.0,
                               span=float(rng.uniform(5.0, 40.0)))


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
    # the per-row lengths and the grid reference's arrays grow with the
    # side, so a side past 2**20 rows (2**18 x 4, the largest tested) is
    # refused up front
    RasterConfig(resolution=2**18, supersampling=4)
    RasterConfig(resolution=2**20, supersampling=1)
    for resolution, supersampling in ((2**18 + 1, 4), (2**19 + 1, 2), (2**20 + 1, 1),
                                      (100_000_000, 1), (np.int64(2**62), 4)):
        with pytest.raises(ValueError, match=r"resolution \* supersampling must be <= 2\*\*20"):
            RasterConfig(resolution=resolution, supersampling=supersampling)


@pytest.mark.parametrize("supersampling", [1, 2, 4])
def test_scanline_equals_reference_on_random_drawings(supersampling):
    # and scaling positions, r and w by 2**k scales every chord, row and
    # sum by a power of two, so the ink by exactly 4**k
    rng = np.random.default_rng(20 + supersampling)
    for case in range(150):
        d = random_bold_drawing(rng, n_max=25, m_max=50, lattice_prob=0.3,
                                span=(100.0, 15.0)[case % 2])
        cfg = RasterConfig(64 + 16 * (case % 3), supersampling)
        assert_near_reference(d, cfg)
        k = int(rng.integers(-30, 31))
        assert rasterize_ink(scaled(d, k), cfg) == math.ldexp(rasterize_ink(d, cfg), 2 * k)


def test_scanline_equals_reference_on_lattice_drawings():
    # vertical and horizontal edges, a zero-length edge (nodes 4 and 5
    # coincide) and edges through coincident nodes
    points = [(0, 0), (0, 6), (6, 6), (6, 0), (3, 3), (3, 3), (3, 0), (0, 3)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (4, 6), (5, 7), (0, 2), (6, 7)]
    for r, w in [(1.0, 0.5), (0.0, 1.0), (1.5, 0.0), (0.5, 3.0), (0.25, 0.25)]:
        for supersampling in (1, 2, 4):
            assert_near_reference(bold(points, edges, r=r, w=w),
                                  RasterConfig(64, supersampling))


@pytest.mark.parametrize("band_pairs", [1, 7])
def test_scanline_equals_reference_in_small_bands(band_pairs):
    # many bands per drawing: a band that drops or repeats a row shows,
    # and as every row lies in one band the float is the default's
    rng = np.random.default_rng(30 + band_pairs)
    cases = [(random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=0.3),
              RasterConfig(64, 1 + case % 2)) for case in range(20)]
    points = [(0, 0), (0, 6), (6, 6), (6, 0), (3, 3), (3, 3), (3, 0), (0, 3)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (4, 6), (5, 7), (0, 2), (6, 7)]
    cases += [(bold(points, edges, r=r, w=w), RasterConfig(64, 2))
              for r, w in [(1.0, 0.5), (0.0, 1.0), (1.5, 0.0), (0.5, 3.0)]]
    default = [rasterize_ink(d, cfg) for d, cfg in cases]
    for (d, cfg), expected in zip(cases, default):
        with block_size(band_pairs):
            assert rasterize_ink(d, cfg) == expected
        assert_near_reference(d, cfg)


def test_scanline_equals_reference_with_zero_radius_or_width():
    rng = np.random.default_rng(5)
    for case in range(30):
        d = random_bold_drawing(rng, n_max=15, m_max=30, lattice_prob=0.5)
        for r, w in [(0.0, d.params.width), (d.params.radius, 0.0),
                     (d.params.radius, d.params.width)]:
            assert_near_reference(with_params(d, r, w), RasterConfig(64, 2))


def test_scanline_equals_reference_on_sides_through_sample_centres():
    # The box is [0, 16] x [0, 16] and px = 1/4, so row centres sit at
    # 1/8 + k/4.  Every number below is dyadic, so the chords are exact.
    # Shapes are closed, so a row through a side inks that side's chord:
    # the bar with sides y = 4.125 and 5.125 inks rows 16..20, five rows
    # of 10, and the bar with caps y = 1.125 and 14.125 rows 4..56, 53
    # rows of 1, five of them inside the first bar.
    corners = [(0.0, 0.0), (16.0, 16.0)]
    bars = [(2.125, 4.625), (12.125, 4.625), (7.625, 1.125), (7.625, 14.125)]
    cfg = RasterConfig(64, 1)
    d = bold(corners + bars, [(2, 3), (4, 5)], r=0.0, w=1.0)
    assert rasterize_ink(d, cfg) == (5 * 10 + 53 - 5) / 4
    assert rasterize_ink(bold(corners + bars[:2], [(2, 3)], r=0.0, w=1.0), cfg) == 5 * 10 / 4
    assert rasterize_ink(bold(corners + bars[2:], [(2, 3)], r=0.0, w=1.0), cfg) == 53 / 4
    for supersampling in (1, 2, 4):
        assert_near_reference(d, RasterConfig(64, supersampling))
    # a disk of radius 1.25 at a row centre meets rows j/4 away, j in
    # -5..5, in chords 2 sqrt(25 - j^2) / 4: 5/2 at j = 0, 2 at +-3,
    # 3/2 at +-4, and 0 on the two rows it only touches
    inset = [(1.25, 1.25), (14.75, 14.75)]  # disks of radius 1.25 keep the box
    one_disk = bold(inset + [(4.125, 10.125)], [], r=1.25, w=0.0)
    no_disk = bold(inset, [], r=1.25, w=0.0)
    chords = math.fsum(2 * math.sqrt(25 - j * j) / 4 for j in range(-5, 6))
    assert rasterize_ink(one_disk, cfg) - rasterize_ink(no_disk, cfg) == pytest.approx(
        chords / 4, rel=1e-13, abs=0)
    disks = bold(inset + [(4.125, 10.125), (11.125, 10.125)], [(2, 3)], r=1.25, w=0.5)
    for supersampling in (1, 2, 4):
        assert_near_reference(disks, RasterConfig(64, supersampling))


def test_scanline_equals_reference_on_clipped_windows():
    # A grid side of 10 + 5e-10 cells loses its last partial row to the
    # 1e-9 slack, so the top disk and edge reach past the grid; random
    # drawings at a coarse resolution overhang by rounding.
    clipped = 0
    for w in (0.0, 0.5, 2.0):
        d = bold([(1.0, 1.0), (63.0, 9.0 + 5e-10)], [(0, 1)], r=1.0, w=w)
        clipped += overhanging_windows(d, RasterConfig(64, 1))
        assert_near_reference(d, RasterConfig(64, 1))
    rng = np.random.default_rng(11)
    for case in range(60):
        d = random_bold_drawing(rng, n_max=12, m_max=20, lattice_prob=0.5)
        d = with_params(d, 0.1, 3.0)  # wide edges set the box
        cfg = RasterConfig(64, 1 + case % 2)
        clipped += overhanging_windows(d, cfg)
        assert_near_reference(d, cfg)
    assert clipped > 0


def test_scanline_equals_reference_translated_by_1e6():
    rng = np.random.default_rng(9)
    for case in range(40):
        d = random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=0.3,
                                span=(100.0, 2.0)[case % 2])
        for supersampling in (1, 2):
            assert_near_reference(translated(d, 1e6), RasterConfig(64, supersampling))
            assert_near_reference(translated(d, -1e6), RasterConfig(64, supersampling))


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
        reference_rasterize_ink(d, cfg)
    except DegenerateDrawingError:
        with pytest.raises(DegenerateDrawingError):
            rasterize_ink(d, cfg)
        return
    assert_near_reference(d, cfg)


def test_raster_memory_bounded_at_huge_resolution():
    # 2**18 rows: a sample mask of that side would take 64 GiB
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


def test_exact_union_area_matches_closed_forms():
    assert exact_union_area(bold([(3.0, -2.0)], [], r=1.5, w=0.0)) == pytest.approx(
        math.pi * 1.5**2, rel=1e-14, abs=0)
    tilted = bold([(0.0, 0.0), (8.0, 5.0)], [(0, 1)], r=0.0, w=1.0)
    assert exact_union_area(tilted) == pytest.approx(math.hypot(8.0, 5.0), rel=1e-14, abs=0)
    r = w = 0.5
    a = 0.5 * w
    strip = a * math.sqrt(r * r - a * a) + r * r * math.asin(a / r)
    bar = bold([(0.0, 0.0), (1.0, 1.0)], [(0, 1)], r=r, w=w)
    assert exact_union_area(bar) == pytest.approx(
        2 * math.pi * r * r + math.sqrt(2.0) * w - 2 * strip, rel=1e-14, abs=0)


def test_raster_converges_to_exact_union_area():
    rng = np.random.default_rng(16)
    worst = {1: 0.0, 4: 0.0}  # 1,024 and 4,096 rows
    for _ in range(20):
        d = general_position_drawing(rng)
        exact = exact_union_area(d)
        for supersampling in worst:
            got = rasterize_ink(d, RasterConfig(1024, supersampling))
            worst[supersampling] = max(worst[supersampling], abs(got - exact) / exact)
    assert worst[1] <= 2e-3
    assert worst[4] <= 5e-4


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


@pytest.mark.parametrize("points, edges, r, w", [
    ([(0, 0), (5e-324, 0), (5e-324, 5e-324), (0, 5e-324)],
     [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)], 0.0, 0.0),
    ([(1e-300, 5e-324)], [], 5e-324, 1e-300),
])
def test_rasterize_refuses_a_box_whose_rows_underflow(points, edges, r, w):
    # a span below about 1e-320 over 4,096 rows makes a row height of
    # exactly 0, which the rows were once divided by
    with pytest.raises(DegenerateDrawingError, match="rows of height 0"):
        rasterize_ink(bold(points, edges, r=r, w=w))


def test_rasterize_long_nearly_vertical_edge_keeps_its_area():
    # the edge's x direction is about 5e-155, so a row 1e154 up bounds
    # its along-edge slab past 1.8e308: the bounds are -+inf, silently
    d = bold([(0.5, 1e10), (3.0, 5e-324), (1e-160, 1e154)], [(0, 2)], r=0.0, w=1.0)
    assert rasterize_ink(d, RasterConfig(64, 1)) == pytest.approx(1e154, rel=1e-12)


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
