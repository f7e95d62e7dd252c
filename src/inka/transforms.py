"""Derived drawings: scaled layouts, zoomed drawings, partial-edge stubs.

Scaling spreads node positions (lengths grow, r and w do not); zooming
magnifies everything together; partial-edge drawing keeps only a fraction
p of each edge as two symmetric end stubs.  Each transform here is the
geometric counterpart of a closed-form ink delta in the ink module, and
the tests hold the two accountable to each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _crossing_counts, _segment_arrays
from .model import BoldDrawing, Layout, RenderParams, _fraction, _positive, _squarable


def scale_layout(layout: Layout, sigma_len: float) -> Layout:
    """Spread positions about the centroid so every distance multiplies
    by sigma_len; the scaled span must square.  sigma_len == 1 returns an
    identical layout."""
    _positive(sigma_len, "length multiplier")
    pos = layout.positions
    if sigma_len == 1.0 or len(pos) == 0:
        return Layout(pos)
    xmin, ymin, xmax, ymax = layout.extent
    _squarable(sigma_len * (xmax - xmin), sigma_len * (ymax - ymin), "scaled layout span")
    low = np.array([xmin, ymin])
    centroid = low + (pos - low).mean(axis=0)  # offsets are bounded by the span
    return Layout(centroid + sigma_len * (pos - centroid))


def zoom_drawing(d: BoldDrawing, zeta_area: float) -> BoldDrawing:
    """Magnify the drawing by area factor zeta_area: positions, radius,
    and width all multiply by sqrt(zeta_area), once the zoomed box squares."""
    _positive(zeta_area, "area magnification")
    s = math.sqrt(zeta_area)
    xmin, ymin, xmax, ymax = (s * v for v in d.layout.extent)
    grow = s * max(2.0 * d.params.radius, d.params.width)
    _squarable(xmax - xmin + grow, ymax - ymin + grow, "zoomed drawing box")
    return BoldDrawing(
        graph=d.graph,
        layout=Layout(d.layout.positions * s),
        params=RenderParams(
            radius=d.params.radius * s, width=d.params.width * s, gamma=d.params.gamma
        ),
    )


@dataclass(frozen=True)
class StubSet:
    """The segments of a partial-edge drawing, as endpoint arrays: stub k
    runs from P[k] to Q[k] and parent_edge maps it to its edge.  Each edge
    gives two stubs, from its ends P[2e] and P[2e + 1], or at ratio 1 one
    full segment.
    """

    P: np.ndarray
    Q: np.ndarray
    parent_edge: np.ndarray
    ratio: float

    @property
    def segments(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        """The stubs as ((px, py), (qx, qy)) pairs."""
        return [(tuple(p), tuple(q)) for p, q in zip(self.P.tolist(), self.Q.tolist())]

    @property
    def total_length(self) -> float:
        return float(np.hypot(*(self.Q - self.P).T).sum())


def partial_edges(d: BoldDrawing, p: float) -> StubSet:
    """Replace every edge by two stubs of length p*l_e/2, one anchored at
    each endpoint.  p == 1 keeps each edge as its single full segment."""
    _fraction(p, "retained fraction")
    A, B, E = _segment_arrays(d)
    parents = np.arange(E.shape[0], dtype=np.int64)
    if p < 1.0:
        step = 0.5 * p * (B - A)
        anchors = np.stack([A, B], axis=1)
        tips = np.stack([A + step, B - step], axis=1)
        A, B = anchors.reshape(-1, 2), tips.reshape(-1, 2)
        parents = np.repeat(parents, 2)
    return StubSet(P=A, Q=B, parent_edge=parents, ratio=p)


def measure_stub_crossings(stubs: StubSet) -> int:
    """Crossings of a partial-edge drawing: its edges' crossings at its
    ratio, by the rule of :func:`inka.geometry._crossing_counts`."""
    p = _fraction(stubs.ratio, "retained fraction")
    A, B = (stubs.P[0::2], stubs.P[1::2]) if p < 1.0 else (stubs.P, stubs.Q)
    return _crossing_counts(A, B, [p])[0]


def partial_crossing_counts(d: BoldDrawing, ratios) -> list[int]:
    """:func:`measure_stub_crossings` of d's partial-edge drawing at each
    retained fraction in ratios, in their order, from one enumeration of
    the edges' crossings."""
    A, B, _ = _segment_arrays(d)
    return _crossing_counts(A, B, [_fraction(p, "retained fraction") for p in ratios])
