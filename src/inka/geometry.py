"""Measured layout quantities: edge lengths, crossings, area, properness.

Crossing counting comes in two independent flavours:

* :func:`count_crossings_bruteforce` tests every non-adjacent edge pair.
* :func:`count_crossings_sweep` tests only the pairs whose closed
  x-extents overlap, the candidate filter that opens the Bentley-Ottmann
  sweep.  One engine, :func:`_candidate_blocks`, sorts the segments by
  their left x and emits those pairs as int64 index blocks; y-extent and
  adjacency filters then thin each block before the predicate.  Stub
  crossings of partial-edge drawings run on the same engine.

Both call the same transversal-crossing predicate on exactly the same
arithmetic, so any disagreement between them is an enumeration bug, which
is what the pairing is meant to catch.  Predicates are plain double
precision with a fixed epsilon; a pair "crosses" when the open segments
intersect transversally at an interior point.  Segments sharing an
endpoint (adjacent edges) never cross, and collinear overlap is not a
crossing but is flagged for properness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoldDrawing, DrawingMetrics

EPS = 1e-12

Point = tuple[float, float]


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point


@dataclass(frozen=True)
class PropernessReport:
    """Violations of the three proper-drawing conditions.

    disk_overlaps: node pairs whose disks intersect (center distance < 2r).
    concurrent_points: approximate >=3-edge coincidences, each a
        (point, edge-ids) entry; detected as two crossing points of
        distinct edge pairs lying within one edge width of each other.
    collinear_overlaps: edge pairs overlapping along a positive-length
        collinear stretch (they "cross" infinitely often).
    """

    disk_overlaps: list[tuple[int, int]]
    concurrent_points: list[tuple[Point, tuple[int, ...]]]
    collinear_overlaps: list[tuple[int, int]]
    verdict: bool


def _orient(ax, ay, bx, by, cx, cy):
    # Sign of the cross product (b - a) x (c - a); works on scalars and arrays.
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def transversal_crossing_mask(p1, q1, p2, q2):
    """Row-wise test: do the open segments (p1,q1) and (p2,q2) cross?

    Inputs are (k, 2) arrays of endpoints.  True requires strictly
    opposite orientations on both sides, so endpoint touching, collinear
    overlap, and degenerate segments all test False.  A closed bounding-box
    overlap check runs first; it is a necessary condition for a crossing
    and keeps the arithmetic identical between the pairwise and the sweep
    counters.
    """
    p1x, p1y = p1[..., 0], p1[..., 1]
    q1x, q1y = q1[..., 0], q1[..., 1]
    p2x, p2y = p2[..., 0], p2[..., 1]
    q2x, q2y = q2[..., 0], q2[..., 1]

    bbox = (
        (np.maximum(p1x, q1x) >= np.minimum(p2x, q2x))
        & (np.maximum(p2x, q2x) >= np.minimum(p1x, q1x))
        & (np.maximum(p1y, q1y) >= np.minimum(p2y, q2y))
        & (np.maximum(p2y, q2y) >= np.minimum(p1y, q1y))
    )

    o1 = _orient(p1x, p1y, q1x, q1y, p2x, p2y)
    o2 = _orient(p1x, p1y, q1x, q1y, q2x, q2y)
    o3 = _orient(p2x, p2y, q2x, q2y, p1x, p1y)
    o4 = _orient(p2x, p2y, q2x, q2y, q1x, q1y)
    return (
        bbox
        & ((o1 > EPS) & (o2 < -EPS) | (o1 < -EPS) & (o2 > EPS))
        & ((o3 > EPS) & (o4 < -EPS) | (o3 < -EPS) & (o4 > EPS))
    )


def collinear_overlap_mask(p1, q1, p2, q2):
    """Row-wise test: collinear segments overlapping over positive length."""
    p1x, p1y = p1[..., 0], p1[..., 1]
    q1x, q1y = q1[..., 0], q1[..., 1]
    p2x, p2y = p2[..., 0], p2[..., 1]
    q2x, q2y = q2[..., 0], q2[..., 1]

    collinear = (
        (np.abs(_orient(p1x, p1y, q1x, q1y, p2x, p2y)) <= EPS)
        & (np.abs(_orient(p1x, p1y, q1x, q1y, q2x, q2y)) <= EPS)
        & (np.abs(_orient(p2x, p2y, q2x, q2y, p1x, p1y)) <= EPS)
        & (np.abs(_orient(p2x, p2y, q2x, q2y, q1x, q1y)) <= EPS)
    )
    nonzero = ((p1x != q1x) | (p1y != q1y)) & ((p2x != q2x) | (p2y != q2y))
    ox = np.minimum(np.maximum(p1x, q1x), np.maximum(p2x, q2x)) - np.maximum(
        np.minimum(p1x, q1x), np.minimum(p2x, q2x)
    )
    oy = np.minimum(np.maximum(p1y, q1y), np.maximum(p2y, q2y)) - np.maximum(
        np.minimum(p1y, q1y), np.minimum(p2y, q2y)
    )
    return collinear & nonzero & ((ox > 0) | (oy > 0))


def crossing_points_of(p1, q1, p2, q2):
    """Interior crossing points for rows already known to cross transversally."""
    r = q1 - p1
    s = q2 - p2
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    d = p2 - p1
    t = (d[..., 0] * s[..., 1] - d[..., 1] * s[..., 0]) / denom
    return p1 + t[..., None] * r


def segments_intersect(s1: Segment, s2: Segment) -> Point | None:
    """Proper interior crossing point of two segments, or None.

    Segments sharing an endpoint return None; collinear overlap returns
    None (use :func:`segments_overlap_collinear` to detect it).
    """
    p1 = np.array([s1.p], dtype=np.float64)
    q1 = np.array([s1.q], dtype=np.float64)
    p2 = np.array([s2.p], dtype=np.float64)
    q2 = np.array([s2.q], dtype=np.float64)
    if not transversal_crossing_mask(p1, q1, p2, q2)[0]:
        return None
    pt = crossing_points_of(p1, q1, p2, q2)[0]
    return (float(pt[0]), float(pt[1]))


def segments_overlap_collinear(s1: Segment, s2: Segment) -> bool:
    """True when the segments are collinear and overlap over positive length."""
    p1 = np.array([s1.p], dtype=np.float64)
    q1 = np.array([s1.q], dtype=np.float64)
    p2 = np.array([s2.p], dtype=np.float64)
    q2 = np.array([s2.q], dtype=np.float64)
    return bool(collinear_overlap_mask(p1, q1, p2, q2)[0])


def _segment_arrays(d: BoldDrawing):
    """Endpoint arrays P, Q (m, 2) and node-id array E (m, 2) for the edges."""
    E = d.graph.edge_array()
    pos = d.layout.positions
    return pos[E[:, 0]], pos[E[:, 1]], E


def _adjacent_mask(E, I, J):
    a1, b1 = E[I, 0], E[I, 1]
    a2, b2 = E[J, 0], E[J, 1]
    return (a1 == a2) | (a1 == b2) | (b1 == a2) | (b1 == b2)


def _pair_index_blocks(m: int, block_pairs: int = 1_500_000):
    """Yield (I, J) index arrays covering every i < j pair once."""
    i = 0
    while i < m - 1:
        rows = 1
        pairs = m - i - 1
        while i + rows < m - 1 and pairs + (m - i - rows - 1) <= block_pairs:
            pairs += m - i - rows - 1
            rows += 1
        I_parts = []
        J_parts = []
        for r in range(i, i + rows):
            J_parts.append(np.arange(r + 1, m, dtype=np.int64))
            I_parts.append(np.full(m - r - 1, r, dtype=np.int64))
        yield np.concatenate(I_parts), np.concatenate(J_parts)
        i += rows


def count_crossings_bruteforce(d: BoldDrawing) -> int:
    """Number of non-adjacent edge pairs with a transversal interior crossing.

    O(m^2) pairwise oracle; vectorized in blocks so it stays usable for a
    few thousand edges.
    """
    P, Q, E = _segment_arrays(d)
    m = P.shape[0]
    total = 0
    for I, J in _pair_index_blocks(m):
        mask = transversal_crossing_mask(P[I], Q[I], P[J], Q[J])
        mask &= ~_adjacent_mask(E, I, J)
        total += int(np.count_nonzero(mask))
    return total


def _candidate_blocks(lx, hx, block_pairs: int = 25_000):
    """Yield (I, J) int64 index arrays covering, exactly once, every pair
    of segments whose closed x-extents [lx, hx] overlap.

    After a stable argsort by lx, the partners of rank a are ranks a+1 up
    to the last rank whose lx is <= hx[a]; touching extents are included.
    A block holds the pairs of consecutive ranks, at most block_pairs of
    them unless a single rank has more.  The filters and the predicate
    take about 115 bytes a pair, so the default keeps a block near 3 MB,
    which bounds peak memory and runs faster than larger blocks.
    """
    m = lx.shape[0]
    order = np.argsort(lx, kind="stable")
    count = np.searchsorted(lx[order], hx[order], side="right") - np.arange(1, m + 1)
    start = np.concatenate(([0], np.cumsum(count)))
    a = 0
    while a < m:
        b = max(a + 1, int(np.searchsorted(start, start[a] + block_pairs, "right")) - 1)
        if start[b] > start[a]:
            reps = count[a:b]
            I = np.repeat(np.arange(a, b), reps)
            first = np.arange(a + 1, b + 1) - start[a:b]  # J minus the pair index
            J = np.arange(start[a], start[b]) + np.repeat(first, reps)
            yield order[I], order[J]
        a = b


def _crossing_blocks(P, Q, nodes):
    """Yield (I, J) index arrays of the segment pairs that cross
    transversally, skipping pairs whose node rows share a node."""
    lx, ly = np.minimum(P, Q).T.copy()
    hx, hy = np.maximum(P, Q).T.copy()
    for I, J in _candidate_blocks(lx, hx):
        keep = (ly[I] <= hy[J]) & (ly[J] <= hy[I])
        I, J = I[keep], J[keep]
        keep = ~_adjacent_mask(nodes, I, J)
        I, J = I[keep], J[keep]
        cross = transversal_crossing_mask(P[I], Q[I], P[J], Q[J])
        yield I[cross], J[cross]


def count_crossings_sweep(d: BoldDrawing) -> int:
    """Crossing counter on the x-interval engine; equals the brute-force count.

    Every crossing pair has overlapping closed x- and y-extents, so the
    candidate pairs of :func:`_candidate_blocks` that also overlap in y
    and share no node include all of them, and the same predicate as
    :func:`count_crossings_bruteforce` decides each one.  The engine is
    for transversal crossings only: :func:`collinear_overlap_mask` flags
    near-collinear pairs within EPS that can be x-disjoint, so
    :func:`check_proper` and :func:`crossing_pairs` keep the all-pairs
    blocks.
    """
    P, Q, E = _segment_arrays(d)
    return sum(int(I.size) for I, _J in _crossing_blocks(P, Q, E))


def crossing_pairs(d: BoldDrawing):
    """All crossing (i, j, point) triples plus collinear-overlap pairs.

    Returns (crossings, overlaps) where crossings is a list of
    (edge_i, edge_j, (x, y)) and overlaps a list of (edge_i, edge_j).
    """
    P, Q, E = _segment_arrays(d)
    m = P.shape[0]
    crossings: list[tuple[int, int, Point]] = []
    overlaps: list[tuple[int, int]] = []
    for I, J in _pair_index_blocks(m):
        nonadj = ~_adjacent_mask(E, I, J)
        cross = transversal_crossing_mask(P[I], Q[I], P[J], Q[J]) & nonadj
        if np.any(cross):
            ci, cj = I[cross], J[cross]
            pts = crossing_points_of(P[ci], Q[ci], P[cj], Q[cj])
            for a, b, pt in zip(ci, cj, pts):
                crossings.append((int(a), int(b), (float(pt[0]), float(pt[1]))))
        over = collinear_overlap_mask(P[I], Q[I], P[J], Q[J])
        for a, b in zip(I[over], J[over]):
            overlaps.append((int(a), int(b)))
    return crossings, overlaps


def edge_lengths(d: BoldDrawing):
    """Euclidean per-edge lengths and their sum L."""
    P, Q, _ = _segment_arrays(d)
    lengths = np.hypot(Q[:, 0] - P[:, 0], Q[:, 1] - P[:, 1])
    return lengths, float(lengths.sum())


def bounding_box(d: BoldDrawing):
    """Axis-aligned box around all disks and edge rectangles.

    Returns (xmin, ymin, xmax, ymax), or None for an empty graph.
    Positions are inflated by the disk radius; edge rectangles contribute
    their four corners (endpoints offset by width/2 perpendicular to the
    segment).
    """
    n = d.graph.node_count
    if n == 0:
        return None
    pos = d.layout.positions
    r = d.params.radius
    xmin = float(pos[:, 0].min() - r)
    xmax = float(pos[:, 0].max() + r)
    ymin = float(pos[:, 1].min() - r)
    ymax = float(pos[:, 1].max() + r)
    w = d.params.width
    if w > 0 and d.graph.m:
        P, Q, _ = _segment_arrays(d)
        delta = Q - P
        norm = np.hypot(delta[:, 0], delta[:, 1])
        ok = norm > 0
        if np.any(ok):
            perp = np.empty_like(delta[ok])
            perp[:, 0] = -delta[ok, 1] / norm[ok]
            perp[:, 1] = delta[ok, 0] / norm[ok]
            offset = 0.5 * w * perp
            corners = np.concatenate(
                [P[ok] + offset, P[ok] - offset, Q[ok] + offset, Q[ok] - offset]
            )
            xmin = min(xmin, float(corners[:, 0].min()))
            xmax = max(xmax, float(corners[:, 0].max()))
            ymin = min(ymin, float(corners[:, 1].min()))
            ymax = max(ymax, float(corners[:, 1].max()))
    return xmin, ymin, xmax, ymax


def bounding_area(d: BoldDrawing, fixed: float | None = None) -> float:
    """Drawing area A: bounding-box area, or a caller-supplied override."""
    if fixed is not None:
        if fixed <= 0:
            raise ValueError(f"fixed area must be > 0, got {fixed}")
        return float(fixed)
    box = bounding_box(d)
    if box is None:
        return 0.0
    xmin, ymin, xmax, ymax = box
    return (xmax - xmin) * (ymax - ymin)


def check_proper(d: BoldDrawing) -> PropernessReport:
    """Check the three proper-drawing conditions; violations are reported,
    never raised.

    Disk overlap uses center distance < 2r (tangency passes).  The
    three-edges-through-a-point condition is approximated by flagging two
    crossing points of distinct edge pairs closer than the edge width,
    which is the scale at which the inked rectangles actually coincide.
    Cost grows with the number of crossings.
    """
    pos = d.layout.positions
    n = d.graph.node_count
    r = d.params.radius
    w = d.params.width

    disk_overlaps: list[tuple[int, int]] = []
    if r > 0 and n >= 2:
        limit = (2.0 * r) ** 2
        for I, J in _pair_index_blocks(n):
            dx = pos[I, 0] - pos[J, 0]
            dy = pos[I, 1] - pos[J, 1]
            close = dx * dx + dy * dy < limit
            for a, b in zip(I[close], J[close]):
                disk_overlaps.append((int(a), int(b)))

    crossings, overlaps = crossing_pairs(d)

    concurrent: dict[tuple[int, ...], Point] = {}
    if w > 0 and len(crossings) >= 2:
        cells: dict[tuple[int, int], list[int]] = {}
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
                        concurrent.setdefault(
                            edges, (0.5 * (xa + xb), 0.5 * (ya + yb))
                        )

    concurrent_points = [(pt, edges) for edges, pt in sorted(concurrent.items())]
    verdict = not disk_overlaps and not concurrent_points and not overlaps
    return PropernessReport(
        disk_overlaps=disk_overlaps,
        concurrent_points=concurrent_points,
        collinear_overlaps=overlaps,
        verdict=verdict,
    )


def measure(
    d: BoldDrawing, area: float | None = None, counter: str = "sweep"
) -> DrawingMetrics:
    """Edge lengths, crossing count, and area for a drawing in one record.

    counter selects "sweep" (default) or "brute" crossing counting;
    area overrides the bounding-box area with a fixed value.
    """
    lengths, total = edge_lengths(d)
    if counter == "sweep":
        cr = count_crossings_sweep(d)
    elif counter == "brute":
        cr = count_crossings_bruteforce(d)
    else:
        raise ValueError(f"unknown crossing counter {counter!r}")
    return DrawingMetrics(
        total_edge_length=total,
        crossings=cr,
        area=bounding_area(d, fixed=area),
        edge_lengths=lengths,
    )
