"""Pixel-grid ground truth for ink, plus an SVG exporter.

The analytic model approximates; this module measures.  The drawing is
sampled on a regular grid (pixel centers, optionally supersampled) and a
sample counts as inked when it falls inside any node disk or any edge
rectangle.  Painting a union means double-covered regions are counted
once, so disk/rectangle overlap at edge endpoints and rectangle/rectangle
overlap at crossings need no special treatment here; comparing the
painted area against the closed-form total is exactly how the analytic
approximation is audited.

Rectangles have butt caps: they span endpoint to endpoint with no
rounding, matching the SVG exporter's stroke-linecap.

The grid is painted by scanlines, with no per-shape loop and no mask.
A shape tests only the samples of its window, the grid cells that its
bounding box meets, and each row of a window is one (shape, row) pair
whose inked samples form a single run of columns [a, b):

- Sample j of a row lies at x = xmin + (j + 0.5) * px, which never
  decreases as j grows, and every later step of a test (a difference,
  a product with a fixed factor, a sum with a fixed term) is a rounded
  operation that keeps or reverses that order as a whole.  So on a
  rectangle row each of ``along >= 0``, ``along <= length``,
  ``across <= half`` and ``across >= -half`` holds on a prefix or on a
  suffix of the window, and all four hold on one run.
- A disk row's distance test can only fail more as x moves away from
  the first column with x >= cx: it holds on a suffix of the columns
  before that split and on a prefix of the columns from it on.

A vectorised bisection over all pairs at once finds the ends of every
run by evaluating, at the columns it visits, the same rounded
expressions a sample-by-sample test would, so the count is exact for
the grid and not an approximation of it.  The union is counted without
a mask: runs become int64 keys ``row * (nx + 1) + column``, sorted by
start, and each run adds the part that reaches past the furthest end of
the runs before it.  Rows are taken in bands of at most BAND_PAIRS
pairs, the blocks of the engine in :mod:`inka.geometry` over the rows'
pair counts, so memory stays bounded at any resolution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DegenerateDrawingError
from .geometry import _expand, _spans, bounding_box
from .model import BoldDrawing

# Most (shape, row) pairs in one band of grid rows.  A rectangle search
# keeps about 300 bytes a pair alive, so a band peaks near 20 MB.
BAND_PAIRS = 1 << 16


@dataclass(frozen=True)
class RasterConfig:
    """resolution: samples along the longer bounding-box side before
    supersampling; supersampling 1, 2, or 4 refines the grid by that
    factor in each direction, to at most 2^20 samples a side (tested as a
    quotient: an int64 product can wrap)."""

    resolution: int = 2048
    supersampling: int = 2

    def __post_init__(self):
        for name in ("resolution", "supersampling"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.resolution < 64:
            raise ValueError(f"resolution must be >= 64, got {self.resolution}")
        if self.supersampling not in (1, 2, 4):
            raise ValueError(
                f"supersampling must be 1, 2, or 4, got {self.supersampling}"
            )
        if self.resolution > 2**20 // self.supersampling:
            raise ValueError("resolution * supersampling must be <= 2**20, got "
                             f"{self.resolution} * {self.supersampling}")


def rasterize_ink(d: BoldDrawing, cfg: RasterConfig = RasterConfig()) -> float:
    """Painted area of the drawing in drawing units, measured on the grid."""
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
    grid = (xmin, ymin, px, nx, ny)
    # sample centres; a search step looks at most nx columns past a window
    xs = xmin + (np.arange(2 * nx + 1) + 0.5) * px
    ys = ymin + (np.arange(ny) + 0.5) * px

    shapes = []  # (window, run finder of its (shape, row) pairs)
    pos = d.layout.positions
    r = d.params.radius
    if r > 0:
        cx, cy = pos[:, 0], pos[:, 1]
        shapes.append((_window(grid, cx - r, cx + r, cy - r, cy + r),
                       partial(_disk_runs, xs, cx, cy, r * r)))

    w = d.params.width
    if w > 0:
        p, q = pos[d.graph.edges[:, 0]], pos[d.graph.edges[:, 1]]
        dx, dy = q[:, 0] - p[:, 0], q[:, 1] - p[:, 1]
        length = np.array([math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())],
                          dtype=np.float64)
        drawn = length != 0
        p, q, dx, dy, length = p[drawn], q[drawn], dx[drawn], dy[drawn], length[drawn]
        ux, uy = dx / length, dy / length
        half = 0.5 * w
        spread_x = np.abs(uy) * half
        spread_y = np.abs(ux) * half
        shapes.append((
            _window(grid,
                    np.minimum(p[:, 0], q[:, 0]) - spread_x,
                    np.maximum(p[:, 0], q[:, 0]) + spread_x,
                    np.minimum(p[:, 1], q[:, 1]) - spread_y,
                    np.maximum(p[:, 1], q[:, 1]) + spread_y),
            partial(_rect_runs, xs, p[:, 0], p[:, 1], ux, uy, length, half)))

    covered = 0
    for top, bottom in _bands([win for win, _ in shapes], ny):
        rows, starts, ends = [], [], []
        for win, runs in shapes:
            s, row, c0, c1 = _pairs(win, top, bottom)
            a, b = runs(s, ys[row], c0, c1)
            rows.append(row)
            starts.append(a)
            ends.append(b)
        covered += _union_length(np.concatenate(rows), np.concatenate(starts),
                                 np.concatenate(ends), nx)
    return float(covered) * px * px


def _window(grid, lo_x, hi_x, lo_y, hi_y):
    """Per shape, the columns [c0, c1) and rows [r0, r1) of the cells its
    box meets, clipped to the grid; a window with no column has no row.
    Clipping both ends of an axis to [0, n] keeps empty windows empty."""
    xmin, ymin, px, nx, ny = grid
    c0 = np.clip(np.floor((lo_x - xmin) / px), 0, nx).astype(np.int64)
    c1 = np.clip(np.ceil((hi_x - xmin) / px), 0, nx).astype(np.int64)
    r0 = np.clip(np.floor((lo_y - ymin) / px), 0, ny).astype(np.int64)
    r1 = np.clip(np.ceil((hi_y - ymin) / px), 0, ny).astype(np.int64)
    return c0, c1, r0, np.where(c0 < c1, np.maximum(r0, r1), r0)


def _bands(windows, ny):
    """Row ranges [top, bottom) of the bands that hold a (shape, row) pair."""
    per_row = np.zeros(ny + 1, dtype=np.int64)
    for _, _, r0, r1 in windows:
        per_row += np.bincount(r0, minlength=ny + 1) - np.bincount(r1, minlength=ny + 1)
    return _spans(np.cumsum(np.cumsum(per_row)[:ny]), BAND_PAIRS)


def _pairs(window, top, bottom):
    """Shape index, row and columns [c0, c1) of each (shape, row) pair
    with its row in [top, bottom), shape by shape."""
    c0, c1, r0, r1 = window
    lo = np.maximum(r0, top)
    s, row = _expand(lo, np.maximum(np.minimum(r1, bottom) - lo, 0))
    return s, row, c0[s], c1[s]


def _first_failing(holds, lo, hi):
    """Per search, the least j in [lo, hi) where holds(j) is false, or hi
    where there is none; holds must be true then false over each range.

    Binary lifting from lo - 1 visits one column per search and step, so
    a call costs bit_length(max(hi - lo)) evaluations of holds, each at
    a column below lo + 2 (hi - lo).
    """
    last = lo - 1
    for step in reversed(range(int(np.max(hi - lo, initial=0)).bit_length())):
        j = last + (1 << step)
        last = np.where((j < hi) & holds(j), j, last)
    return last + 1


def _disk_runs(xs, cx, cy, r2, s, y, c0, c1):
    """Inked columns [a, b) of each disk row, from the test
    (x - cx)**2 + (y - cy)**2 <= r2.  Left of the split, the first
    column with x >= cx, x - cx < 0 rises to it, so the test holds on a
    suffix; from the split on it holds on a prefix.  One search finds
    both ends: the test fails before the run's start and from its end."""
    n = s.size
    split = np.clip(np.searchsorted(xs, cx[s]), c0, c1)
    s2 = np.concatenate((s, s))
    cx = cx[s2]
    dy2 = (np.concatenate((y, y)) - cy[s2]) ** 2
    at_end = np.arange(2 * n) >= n

    def holds(j):
        return ((xs[j] - cx) ** 2 + dy2 <= r2) == at_end

    found = _first_failing(holds, np.concatenate((c0, split)),
                           np.concatenate((split, c1)))
    return found[:n], found[n:]


def _rect_runs(xs, x0, y0, ux, uy, length, half, s, y, c0, c1):
    """Inked columns [a, b) of each rectangle row, from the tests
    0 <= along <= length and -half <= across <= half.

    along = relx*ux + rely*uy never falls as the column grows when
    ux >= 0 and never rises when ux < 0; across = rely*ux - relx*uy
    never rises when uy >= 0 and never falls when uy < 0.  So in each
    row two of the four tests can only turn true and two only false.
    One search finds both ends: the run starts where the first two
    hold and ends where one of the other two fails; the bounds of the
    two tests left out of each half of the search are infinite.
    """
    n = s.size
    s2 = np.concatenate((s, s))
    x0, ux, uy, length = x0[s2], ux[s2], uy[s2], length[s2]
    rely = np.concatenate((y, y)) - y0[s2]
    rely_uy, rely_ux = rely * uy, rely * ux
    at_end = np.arange(2 * n) >= n
    along_key = (ux >= 0) != at_end  # along >= 0 takes part, not along <= length
    across_key = (uy >= 0) == at_end  # across >= -half takes part, not <= half
    along_lo = np.where(along_key, 0.0, -np.inf)
    along_hi = np.where(along_key, np.inf, length)
    across_lo = np.where(across_key, -half, -np.inf)
    across_hi = np.where(across_key, np.inf, half)

    def holds(j):
        relx = xs[j] - x0
        along = relx * ux + rely_uy
        across = rely_ux - relx * uy
        inside = ((along >= along_lo) & (along <= along_hi)
                  & (across >= across_lo) & (across <= across_hi))
        return inside == at_end

    found = _first_failing(holds, np.concatenate((c0, c0)), np.concatenate((c1, c1)))
    return found[:n], found[n:]


def _union_length(row, a, b, nx):
    """Number of grid cells in the union of the runs [a, b) of the rows."""
    run = b > a
    base = row[run] * (nx + 1)
    start, end = base + a[run], base + b[run]
    order = np.argsort(start)
    start, end = start[order], end[order]
    before = np.concatenate((start[:1], np.maximum.accumulate(end)[:-1]))
    return int(np.maximum(end - np.maximum(start, before), 0).sum())


def render_svg(d: BoldDrawing, path=None) -> str:
    """Deterministic SVG of the drawing: one stroked line per edge (butt
    caps, width w), one filled circle per node, drawn over the edges.

    Coordinates are emitted as-is, so the picture appears mirrored
    vertically in SVG viewers (SVG's y axis points down).
    """
    box = bounding_box(d)
    if box is None:
        xmin = ymin = 0.0
        width = height = 1.0
    else:
        xmin, ymin, xmax, ymax = box
        width = max(xmax - xmin, 1e-9)
        height = max(ymax - ymin, 1e-9)
    pos = d.layout.positions
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{float(xmin)!r} {float(ymin)!r} {float(width)!r} {float(height)!r}">',
        f'<g stroke="black" stroke-width="{float(d.params.width)!r}" '
        f'stroke-linecap="butt">',
    ]
    for (x1, y1), (x2, y2) in pos[d.graph.edges].tolist():
        out.append(f'<line x1="{x1!r}" y1="{y1!r}" x2="{x2!r}" y2="{y2!r}"/>')
    out.append("</g>")
    out.append('<g fill="black">')
    r = float(d.params.radius)
    for x, y in pos.tolist():
        out.append(f'<circle cx="{x!r}" cy="{y!r}" r="{r!r}"/>')
    out.append("</g>")
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
