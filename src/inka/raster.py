"""Row-by-row ground truth for ink, plus an SVG exporter.

The analytic model approximates; this module measures.  The drawing is
cut into rows of height px; along the centre line of each row the inked
length is measured exactly as the union of the chords in which that line
meets the node disks and the edge rectangles, and each row adds its
inked length times px (the midpoint rule across rows).  Measuring a
union means double-covered regions are counted once, so disk/rectangle
overlap at edge endpoints and rectangle/rectangle overlap at crossings
need no special treatment here; comparing the measured area against the
closed-form total is exactly how the analytic approximation is audited.

Rectangles have butt caps: they span endpoint to endpoint with no
rounding, matching the SVG exporter's stroke-linecap.  Shapes are
closed, so a row through a side inks that side's full chord.

A row meets a disk in cx +- sqrt(r^2 - (y - cy)^2), and a rectangle in
the part of the row where both slabs 0 <= along <= length and
|across| <= w/2 hold.  The chords of a row are merged by one sort of
their ends, +1 at each start and -1 at each end, ordered by (row, x):
a gap between consecutive ends is inked where the running depth is
above 0, and the depth is back to 0 at the end of every row.  Each
row's inked length goes to its own entry of one array, summed once at
the end.  The (shape, row) pairs are taken in bands, the blocks of the
engine in :mod:`inka.geometry` over the rows' pair counts, of at most
its _BLOCK_PAIRS pairs unless one row holds more.  A band keeps about
140 bytes a pair alive, disk or rectangle, so memory stays near 3.5 MB
at any resolution; as every row lies in one band, no result depends on
the band size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateDrawingError
from .formats import _save
from .geometry import _bounding_box, _edge_rects, _expand, _segment_arrays, _spans, bounding_box
from .model import BoldDrawing, _number, _shown


_SUPERSAMPLING = (1, 2, 4)


@dataclass(frozen=True)
class RasterConfig:
    """resolution: rows along the longer bounding-box side before
    supersampling; supersampling 1, 2, or 4 makes the rows that many
    times thinner, to at most 2^20 rows a side (tested as a quotient: an
    int64 product can wrap)."""

    resolution: int = 2048
    supersampling: int = 2

    def __post_init__(self):
        for name in ("resolution", "supersampling"):
            _number(getattr(self, name), name, integer=True)
        if self.resolution < 64:
            raise ValueError(f"resolution must be >= 64, got {_shown(self.resolution)}")
        if self.supersampling not in _SUPERSAMPLING:
            raise ValueError(
                f"supersampling must be 1, 2, or 4, got {_shown(self.supersampling)}"
            )
        if self.resolution > 2**20 // self.supersampling:
            raise ValueError("resolution * supersampling must be <= 2**20, got "
                             f"{_shown(self.resolution)} * {self.supersampling}")


def rasterize_ink(d: BoldDrawing, cfg: RasterConfig = RasterConfig()) -> float:
    """Painted area of the drawing in drawing units, exact along each row."""
    if d.graph.node_count == 0:
        raise DegenerateDrawingError("cannot rasterize an empty drawing")
    frame, rect_box = _edge_rects(d)
    xmin, ymin, xmax, ymax = _bounding_box(d, rect_box)
    span = max(xmax - xmin, ymax - ymin)
    if span <= 0:
        raise DegenerateDrawingError(
            "degenerate bounding box: coincident nodes with zero radius"
        )
    px = span / (cfg.resolution * cfg.supersampling)
    if px == 0:  # a span below about 1e-320
        raise DegenerateDrawingError(f"degenerate bounding box: span {span!r} "
                                     "makes rows of height 0")
    ny = max(1, math.ceil((ymax - ymin) / px - 1e-9))
    rows_of = partial(_rows, ymin, px, ny)

    shapes = []  # (rows [r0, r1) of each shape, chords of its (shape, row) pairs)
    r = d.params.radius
    if r > 0:
        cx, cy = d.layout.positions.T
        shapes.append((rows_of(cy - r, cy + r), partial(_disk_chords, cx, cy, r * r)))

    _lx, ly, _hx, hy = rect_box
    if ly.size:
        shapes.append((rows_of(ly, hy), partial(_rect_chords, *frame, 0.5 * d.params.width)))

    inked = np.zeros(ny)  # inked length of each row
    for top, bottom in _bands([rows for rows, _ in shapes], ny):
        row, starts, ends = [], [], []
        for rows, chords in shapes:
            s, k = _pairs(rows, top, bottom)
            a, b = chords(s, ymin + (k + 0.5) * px)
            row.append(k)
            starts.append(a)
            ends.append(b)
        inked[top:bottom] = _union_lengths(np.concatenate(row) - top, np.concatenate(starts),
                                           np.concatenate(ends), bottom - top)
    return float(inked.sum()) * px


def _rows(ymin, px, ny, lo_y, hi_y):
    """Per shape, the rows [r0, r1) of the cells its y-extent meets,
    clipped to [0, ny]."""
    r0 = np.clip(np.floor((lo_y - ymin) / px), 0, ny).astype(np.int64)
    r1 = np.clip(np.ceil((hi_y - ymin) / px), 0, ny).astype(np.int64)
    return r0, r1


def _bands(row_ranges, ny):
    """Row ranges [top, bottom) of the bands that hold a (shape, row) pair."""
    per_row = np.zeros(ny + 1, dtype=np.int64)
    for r0, r1 in row_ranges:
        per_row += np.bincount(r0, minlength=ny + 1) - np.bincount(r1, minlength=ny + 1)
    return _spans(np.cumsum(np.cumsum(per_row)[:ny]))


def _pairs(rows, top, bottom):
    """Shape index and row of each (shape, row) pair with its row in
    [top, bottom), shape by shape."""
    r0, r1 = rows
    lo = np.maximum(r0, top)
    return _expand(lo, np.maximum(np.minimum(r1, bottom) - lo, 0))


def _disk_chords(cx, cy, r2, s, y):
    """Chord [a, b] of each disk row; a row that misses the disk gets
    a == b, which inks nothing."""
    h = np.sqrt(np.maximum(r2 - (y - cy[s]) ** 2, 0.0))
    return cx[s] - h, cx[s] + h


def _slab(c, d, lo, hi):
    """Per row, the range [a, b] of t with lo <= c*t + d <= hi; where c
    is 0 that is every t or none, and an empty range has a > b."""
    moving = c != 0
    c = np.where(moving, c, 1.0)
    with np.errstate(over="ignore"):  # a tiny c: bounds at -+inf are right
        t0, t1 = (lo - d) / c, (hi - d) / c
    flat = np.where((lo <= d) & (d <= hi), -np.inf, np.inf)
    return (np.where(moving, np.minimum(t0, t1), flat),
            np.where(moving, np.maximum(t0, t1), -flat))


def _rect_chords(x0, y0, ux, uy, length, half, s, y):
    """Chord [a, b] of each rectangle row, where along = relx*ux + rely*uy
    lies in [0, length] and across = rely*ux - relx*uy in [-half, half];
    a row that misses the rectangle gets a >= b."""
    rely = y - y0[s]
    ux, uy = ux[s], uy[s]
    a0, b0 = _slab(ux, rely * uy, 0.0, length[s])
    a1, b1 = _slab(-uy, rely * ux, -half, half)
    return x0[s] + np.maximum(a0, a1), x0[s] + np.minimum(b0, b1)


def _union_lengths(row, a, b, ny):
    """Length of the union of the chords [a, b] in each of rows 0..ny-1.

    The ends are sorted by x and then, stably, by row; a stable sort of
    small unsigned integers is a radix sort."""
    keep = a < b
    row, a, b = row[keep], a[keep], b[keep]
    x = np.concatenate((a, b))
    row = np.concatenate((row, row)).astype(np.min_scalar_type(ny))
    order = np.argsort(x)
    order = order[np.argsort(row[order], kind="stable")]
    x, row = x[order], row[order]
    depth = np.cumsum(np.where(order < a.size, 1, -1))
    gap = np.where(depth[:-1] > 0, np.diff(x), 0.0)
    return np.bincount(row[:-1], weights=gap, minlength=ny)


def render_svg(d: BoldDrawing, path=None) -> str:
    """Deterministic SVG of the drawing: one stroked line per edge (butt
    caps, width w), one filled circle per node, drawn over the edges.

    Coordinates are emitted as-is, so the picture appears mirrored
    vertically in SVG viewers (SVG's y axis points down).
    """
    xmin, ymin, xmax, ymax = bounding_box(d) or (0.0, 0.0, 1.0, 1.0)  # 1 x 1 for no node
    width, height = max(xmax - xmin, 1e-9), max(ymax - ymin, 1e-9)
    P, Q, _ = _segment_arrays(d)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{float(xmin)!r} {float(ymin)!r} {float(width)!r} {float(height)!r}">',
        f'<g stroke="black" stroke-width="{float(d.params.width)!r}" '
        f'stroke-linecap="butt">',
    ]
    for x1, y1, x2, y2 in np.hstack((P, Q)).tolist():
        out.append(f'<line x1="{x1!r}" y1="{y1!r}" x2="{x2!r}" y2="{y2!r}"/>')
    out.append("</g>")
    out.append('<g fill="black">')
    r = float(d.params.radius)
    for x, y in d.layout.positions.tolist():
        out.append(f'<circle cx="{x!r}" cy="{y!r}" r="{r!r}"/>')
    out.append("</g>")
    out.append("</svg>")
    return _save("\n".join(out) + "\n", path)
