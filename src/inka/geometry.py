"""Measured layout quantities: edge lengths, crossings, area, properness.

Every pair, run and band enumeration, here and in :mod:`inka.raster`,
runs on one block engine.  Run e is the index stretch first[e] ...
first[e] + size[e] - 1; :func:`_expand` lists runs as (e, k) arrays and
:func:`_spans` splits them, by their cumulative count, into blocks of
consecutive runs with at most _BLOCK_PAIRS entries, read at each call
(a bigger run is a block of its own; blocks with no entry are skipped);
:func:`_runs` is the two together.  Blocks come in run order, so no
output depends on the block size.  A crossing block keeps about 110
bytes a pair alive and a raster band about 140, so each stays near
3 MB; larger blocks run slower.

Crossings are counted two independent ways with the same orientation
expressions and sign test, :func:`_splits`.  The brute-force oracle,
:func:`count_crossings_bruteforce`, tests every non-adjacent edge pair:
row i of :func:`_pair_index_blocks` is the run i+1 ... m-1.
:func:`count_crossings_sweep` tests only the pairs whose closed
x-extents overlap, the candidate filter that opens the Bentley-Ottmann
sweep: over extents sorted by left end, rank a's run in
:func:`_rank_blocks` is ranks a+1 up to the last whose left end is at
most a's right end.  Its filters imply the box test and a shared
endpoint fails its sign test, so its kernel, :func:`_crossing_blocks`,
tests neither.  A disagreement between the two is the enumeration bug
the pairing catches.

Every pair query uses the x-extent filter only: stub crossings and the
crossing points of :func:`crossing_pairs` map the kernel's ranks back to
indices, as :func:`_candidate_blocks` does for disk overlaps on
[x - r, x + r] and collinear overlaps on x-extents, which the collinear
test requires to meet.  :func:`check_proper` bins crossing points into
cells of side w, scans two forward runs per crossing on gapped ranks,
and returns, as arrays, each edge set that two close crossings span and
the midpoint of its pair with the least scan key.  The scan is a stream
of engine blocks of close pairs, each cut to each edge set's least key
before the next is made, so memory never grows with the number of close
pairs.  While it runs it holds, per crossing, I, J and the point (32
bytes) and the scan's order, runs and coordinates (80 bytes; about 130
while it is set up), plus one block of close pairs and the codes kept so
far (16 bytes a kept pair up to 55,107 edges, 24 above); after the scan,
the report (48 bytes a row) and the kept codes, the keys freed before
the edge ids are decoded.

Predicates are a strict sign test against 0, exact under 2^k scaling:
IEEE arithmetic commutes with a power-of-two scale, so every answer is
the same for the drawing scaled by 2^k, its cells too (floor(x 2^k /
(w 2^k)) == floor(x / w)).  A pair "crosses" when the open segments
intersect transversally at an interior point; segments sharing an
endpoint (adjacent edges) never cross.  Collinear means four orientations
exactly 0 and closed x-extents that meet; such an overlap is flagged for
properness, not counted as a crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoldDrawing, DrawingMetrics, _pack, _positive, _unpack

# Entries per engine block; see the module docstring.
_BLOCK_PAIRS = 25_000

Point = tuple[float, float]


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point


@dataclass(frozen=True, eq=False)
class PropernessReport:
    """Violations of the three proper-drawing conditions.

    disk_overlaps: node pairs whose disks intersect (center distance < 2r).
    concurrent_points: (k, 2) float64 array of approximate >=3-edge
        coincidences, each the midpoint of the pair with the least scan
        key of two crossings of distinct edge pairs within one edge width.
    concurrent_edges: (k, 4) int64 array of each row's edge ids ascending,
        a 3-edge set padded with -1; rows sorted as the id tuples sort.
    collinear_overlaps: edge pairs overlapping along a positive-length
        collinear stretch (they "cross" infinitely often).
    """

    disk_overlaps: list[tuple[int, int]]
    concurrent_points: np.ndarray
    concurrent_edges: np.ndarray
    collinear_overlaps: list[tuple[int, int]]
    verdict: bool


def _orient(ax, ay, bx, by, cx, cy):
    # Sign of the cross product (b - a) x (c - a); works on scalars and arrays.
    return _side(bx - ax, by - ay, ax, ay, cx, cy)


def _side(ex, ey, x, y, cx, cy):
    # ex * (cy - y) - ey * (cx - x), the same floats, in its own two temporaries.
    o, t = cy - y, cx - x
    o *= ex
    t *= ey
    o -= t
    return o


def _splits(ex, ey, x, y, ax, ay, bx, by):
    """Row-wise: are a's and b's orientations about the line from (x, y)
    along (ex, ey) of strictly opposite signs?  False wherever one is NaN."""
    a, b = _side(ex, ey, x, y, ax, ay), _side(ex, ey, x, y, bx, by)
    return (np.minimum(a, b) < 0) & (np.maximum(a, b) > 0)


def transversal_crossing_mask(p1, q1, p2, q2):
    """Row-wise test: do the open segments (p1,q1) and (p2,q2) cross?

    Inputs are (k, 2) arrays of endpoints.  True requires strictly
    opposite orientations on both sides, so endpoint touching (exactly 0
    at a common endpoint), collinear overlap, and degenerate segments all
    test False.  A closed bounding-box check, necessary for a crossing, is
    part of the test, and the filters of :func:`_crossing_blocks` imply it.
    """
    p1x, p1y, q1x, q1y, p2x, p2y, q2x, q2y = (a[..., k] for a in (p1, q1, p2, q2) for k in (0, 1))
    bbox = (
        (np.maximum(p1x, q1x) >= np.minimum(p2x, q2x))
        & (np.maximum(p2x, q2x) >= np.minimum(p1x, q1x))
        & (np.maximum(p1y, q1y) >= np.minimum(p2y, q2y))
        & (np.maximum(p2y, q2y) >= np.minimum(p1y, q1y))
    )
    return (bbox & _splits(q1x - p1x, q1y - p1y, p1x, p1y, p2x, p2y, q2x, q2y)
            & _splits(q2x - p2x, q2y - p2y, p2x, p2y, p1x, p1y, q1x, q1y))


def collinear_overlap_mask(p1, q1, p2, q2):
    """Row-wise test: collinear segments (all four orientations exactly 0)
    overlapping over positive length, so their closed x-extents meet."""
    p1x, p1y, q1x, q1y, p2x, p2y, q2x, q2y = (a[..., k] for a in (p1, q1, p2, q2) for k in (0, 1))
    collinear = (
        (_orient(p1x, p1y, q1x, q1y, p2x, p2y) == 0)
        & (_orient(p1x, p1y, q1x, q1y, q2x, q2y) == 0)
        & (_orient(p2x, p2y, q2x, q2y, p1x, p1y) == 0)
        & (_orient(p2x, p2y, q2x, q2y, q1x, q1y) == 0)
    )
    nonzero = ((p1x != q1x) | (p1y != q1y)) & ((p2x != q2x) | (p2y != q2y))
    ox = np.minimum(np.maximum(p1x, q1x), np.maximum(p2x, q2x)) - np.maximum(
        np.minimum(p1x, q1x), np.minimum(p2x, q2x)
    )
    oy = np.minimum(np.maximum(p1y, q1y), np.maximum(p2y, q2y)) - np.maximum(
        np.minimum(p1y, q1y), np.minimum(p2y, q2y)
    )
    return collinear & nonzero & (ox >= 0) & ((ox > 0) | (oy > 0))


def crossing_points_of(p1, q1, p2, q2):
    """Interior crossing points for rows already known to cross transversally."""
    r = q1 - p1
    s = q2 - p2
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    d = p2 - p1
    t = (d[..., 0] * s[..., 1] - d[..., 1] * s[..., 0]) / denom
    return p1 + t[..., None] * r


def _segment_arrays(d: BoldDrawing):
    """Endpoint arrays P, Q (m, 2) and node-id array E (m, 2) for the edges."""
    E = d.graph.edges
    pos = d.layout.positions
    return pos[E[:, 0]], pos[E[:, 1]], E


def _adjacent_mask(E, I, J):
    a, b = E.T  # gathers from the two column views run faster than E[I, 0]
    a1, b1, a2, b2 = a[I], b[I], a[J], b[J]
    return (a1 == a2) | (a1 == b2) | (b1 == a2) | (b1 == b2)


def _expand(first, size):
    """Runs as (e, k) index arrays, e repeated alongside its run's k."""
    e = np.repeat(np.arange(size.size), size)
    return e, np.arange(e.size) + np.repeat(first - np.cumsum(size) + size, size)


def _spans(end):
    """Yield the block ranges [a, b) of runs, end[i] the count through run i."""
    a = 0
    while a < end.size:
        before = int(end[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(end, before + _BLOCK_PAIRS, "right")))
        if end[b - 1] > before:
            yield a, b
        a = b


def _runs(first, size):
    """Yield the (e, k) arrays of the runs block by block."""
    for a, b in _spans(np.cumsum(size)):
        e, k = _expand(first[a:b], size[a:b])
        e += a
        yield e, k


def _pair_index_blocks(m: int):
    """Yield (I, J) index arrays covering every i < j pair once, in order."""
    return _runs(np.arange(1, m + 1), np.arange(m - 1, -1, -1))


def count_crossings_bruteforce(d: BoldDrawing) -> int:
    """Number of non-adjacent edge pairs with a transversal interior crossing.

    O(m^2) pairwise oracle; vectorized in blocks so it stays usable for a
    few thousand edges.
    """
    P, Q, E = _segment_arrays(d)
    total = 0
    for I, J in _pair_index_blocks(P.shape[0]):
        mask = transversal_crossing_mask(P[I], Q[I], P[J], Q[J])
        mask &= ~_adjacent_mask(E, I, J)
        total += int(np.count_nonzero(mask))
    return total


def _rank_blocks(lx, hx):
    """Yield (I, J) int64 rank arrays, I < J, covering exactly once every
    pair of extents [lx, hx] that overlap (touching included), for lx
    sorted ascending, in engine blocks."""
    ranks = np.arange(1, lx.size + 1)
    return _runs(ranks, np.searchsorted(lx, hx, side="right") - ranks)


def _candidate_blocks(lx, hx):
    """Yield (I, J) int64 index arrays covering, exactly once, every pair
    of intervals whose closed extents [lx, hx] overlap: the ranks of
    :func:`_rank_blocks` after a stable argsort by lx, mapped back."""
    order = np.argsort(lx, kind="stable")
    for I, J in _rank_blocks(lx[order], hx[order]):
        yield order[I], order[J]


def _crossing_blocks(P, Q):
    """(order, blocks): the stable argsort by left x, and per engine block
    the rank pairs I, J that pass all but the last test and its mask hit;
    the segments order[I[hit]], order[J[hit]] cross transversally.

    Columns are permuted into rank order once.  The orientations are the
    predicate's (dx is the float q_x - p_x, q never p + dx): J's endpoints
    against line I, then I's against line J on the first stage's columns cut
    to the pairs left.  A shared endpoint's orientation is exactly 0 (dy[I]
    if it is I's q), so adjacent edges need no test."""
    order = np.argsort(np.minimum(P[:, 0], Q[:, 0]), kind="stable")
    px, py = P[order].T.copy()
    qx, qy = Q[order].T.copy()
    dx, dy = qx - px, qy - py
    lx, hx = np.minimum(px, qx), np.maximum(px, qx)
    ly, hy = np.minimum(py, qy), np.maximum(py, qy)

    def blocks():
        for I, J in _rank_blocks(lx, hx):
            # With the engine's x overlap, this y overlap is the predicate's box test.
            k = np.flatnonzero((ly[I] <= hy[J]) & (ly[J] <= hy[I]))
            I, J = I[k], J[k]
            x, y, jx, jy, ex, ey = px[I], py[I], px[J], py[J], dx[I], dy[I]
            k = np.flatnonzero(_splits(ex, ey, x, y, jx, jy, qx[J], qy[J]))
            I, J, x, y, jx, jy = I[k], J[k], x[k], y[k], jx[k], jy[k]
            yield I, J, _splits(dx[J], dy[J], jx, jy, x, y, qx[I], qy[I])

    return order, blocks()


def count_crossings_sweep(d: BoldDrawing) -> int:
    """Crossing counter on the x-interval engine; equals the brute-force count.

    Every crossing pair has overlapping closed x- and y-extents, so the
    engine's pairs that also overlap in y include all of them, and
    :func:`_crossing_blocks` decides each with the orientations and sign
    test of the brute-force predicate, counted on ranks.
    """
    P, Q, _ = _segment_arrays(d)
    return sum(int(np.count_nonzero(hit)) for _I, _J, hit in _crossing_blocks(P, Q)[1])


def _pair_keys(blocks, base: int):
    """The sorted int64 keys (min, max) of the pairs in (I, J) index
    blocks of indices below base, each block coded as it arrives."""
    keys = [np.empty(0, np.int64)]
    for I, J in blocks:
        key, = _pack((np.minimum(I, J), np.maximum(I, J)), base)
        keys.append(key)
    keys = np.concatenate(keys)
    keys.sort()
    return keys


def _ordered_pairs(blocks, base: int):
    """The pairs of (I, J) index blocks (each pair in one block, indices
    below base) as (i, j) tuples, i < j, sorted: one sort of pair keys."""
    I, J = _unpack([_pair_keys(blocks, base)], base, 2)
    return list(zip(I.tolist(), J.tolist()))


def _crossing_arrays(P, Q):
    """Crossing pairs as i < j index arrays in lexicographic order, and
    their (k, 2) crossing points, each computed along segment i.

    The points are filled _BLOCK_PAIRS rows at a time into one (k, 2)
    array (the arithmetic is element-wise, so the bytes are those of one
    whole-array call): beside I, J and the points, only the sorted pair
    keys while they are decoded, and one block's gathered endpoints, live.
    """
    order, blocks = _crossing_blocks(P, Q)
    I, J = _unpack([_pair_keys(((order[I[hit]], order[J[hit]]) for I, J, hit in blocks), len(P))],
                   len(P), 2)
    pts = np.empty((I.size, 2))
    for a in range(0, I.size, _BLOCK_PAIRS):
        i, j = I[a:a + _BLOCK_PAIRS], J[a:a + _BLOCK_PAIRS]
        pts[a:a + i.size] = crossing_points_of(P[i], Q[i], P[j], Q[j])
    return I, J, pts


def _collinear_overlap_pairs(P, Q):
    """Sorted (i, j), i < j, of the pairs :func:`collinear_overlap_mask`
    flags, adjacent ones included, from the x-engine pairs alone: the mask
    requires the closed x-extents to meet.  Its tests of J's p, then q,
    against line I (each orientation == 0) run first as filters."""
    px, py, qx, qy = np.column_stack((P, Q)).T.copy()

    def blocks():
        for I, J in _candidate_blocks(np.minimum(px, qx), np.maximum(px, qx)):
            for x, y in ((px, py), (qx, qy)):
                k = np.flatnonzero(_orient(px[I], py[I], qx[I], qy[I], x[J], y[J]) == 0)
                I, J = I[k], J[k]
            keep = collinear_overlap_mask(P[I], Q[I], P[J], Q[J])
            yield I[keep], J[keep]

    return _ordered_pairs(blocks(), len(P))


def crossing_pairs(d: BoldDrawing):
    """All crossing (i, j, point) triples plus collinear-overlap pairs.

    Returns (crossings, overlaps) where crossings is a list of
    (edge_i, edge_j, (x, y)) and overlaps a list of (edge_i, edge_j), both
    with i < j in lexicographic order.
    """
    P, Q, _ = _segment_arrays(d)
    I, J, pts = _crossing_arrays(P, Q)
    crossings = list(zip(I.tolist(), J.tolist(), map(tuple, pts.tolist())))
    return crossings, _collinear_overlap_pairs(P, Q)


def edge_lengths(d: BoldDrawing):
    """Euclidean per-edge lengths and their sum L."""
    P, Q, _ = _segment_arrays(d)
    lengths = np.hypot(Q[:, 0] - P[:, 0], Q[:, 1] - P[:, 1])
    return lengths, float(lengths.sum())


def _edge_rects(d: BoldDrawing):
    """The inked rectangle of each edge of nonzero length, none when w = 0,
    built once for :func:`bounding_box` and the raster.

    Returns its frame (x0, y0, ux, uy, length): the p end, the unit
    direction and the length; and its box (lx, ly, hx, hy) over its four
    corners, the endpoints moved w/2 across the edge, that is by -+(w/2) uy
    in x and +-(w/2) ux in y.
    """
    P, Q, _ = _segment_arrays(d)
    half = 0.5 * d.params.width
    if half == 0:
        P = Q = P[:0]
    dx, dy = Q[:, 0] - P[:, 0], Q[:, 1] - P[:, 1]
    length = np.hypot(dx, dy)
    drawn = length > 0
    P, Q, length = P[drawn], Q[drawn], length[drawn]
    ux, uy = dx[drawn] / length, dy[drawn] / length
    sx, sy = np.abs(uy) * half, np.abs(ux) * half
    box = (np.minimum(P[:, 0], Q[:, 0]) - sx, np.minimum(P[:, 1], Q[:, 1]) - sy,
           np.maximum(P[:, 0], Q[:, 0]) + sx, np.maximum(P[:, 1], Q[:, 1]) + sy)
    return (P[:, 0], P[:, 1], ux, uy, length), box


def _bounding_box(d: BoldDrawing, rect_box):
    """:func:`bounding_box` given the rectangles' box of :func:`_edge_rects`."""
    if d.graph.node_count == 0:
        return None
    pos = d.layout.positions
    r = d.params.radius
    xmin = float(pos[:, 0].min() - r)
    xmax = float(pos[:, 0].max() + r)
    ymin = float(pos[:, 1].min() - r)
    ymax = float(pos[:, 1].max() + r)
    lx, ly, hx, hy = rect_box
    if lx.size:
        xmin = min(xmin, float(lx.min()))
        xmax = max(xmax, float(hx.max()))
        ymin = min(ymin, float(ly.min()))
        ymax = max(ymax, float(hy.max()))
    return xmin, ymin, xmax, ymax


def bounding_box(d: BoldDrawing):
    """Axis-aligned box around all disks and edge rectangles.

    Returns (xmin, ymin, xmax, ymax), or None for an empty graph.
    Positions are inflated by the disk radius; edge rectangles contribute
    their four corners (endpoints offset by width/2 perpendicular to the
    segment).
    """
    return _bounding_box(d, _edge_rects(d)[1])


def bounding_area(d: BoldDrawing, fixed: float | None = None) -> float:
    """Drawing area A: bounding-box area, or a caller-supplied override."""
    if fixed is not None:
        return _positive(fixed, "fixed area")
    box = bounding_box(d)
    if box is None:
        return 0.0
    xmin, ymin, xmax, ymax = box
    return (xmax - xmin) * (ymax - ymin)


def _disk_overlap_pairs(pos, r: float):
    """Sorted (i, j), i < j, of the nodes whose disks overlap (center
    distance < 2r), from the engine on extents [x - r, x + r] widened by
    1e-9 of the coordinate scale, so rounding cannot drop a close pair."""
    x = pos[:, 0]
    reach = r + 1e-9 * (r + float(np.abs(x).max()))
    limit = (2.0 * r) ** 2

    def blocks():
        for I, J in _candidate_blocks(x - reach, x + reach):
            dx = pos[I, 0] - pos[J, 0]
            dy = pos[I, 1] - pos[J, 1]
            close = dx * dx + dy * dy < limit
            yield I[close], J[close]

    return _ordered_pairs(blocks(), len(pos))


def _gapped_ranks(v):
    """Ranks of v's distinct values plus the count of lower steps between
    them that are not exactly 1: consecutive iff the values differ by 1."""
    u, rank = np.unique(v, return_inverse=True)
    return rank + np.concatenate(([0], np.cumsum(np.diff(u) != 1)))[rank]


def _close_crossing_pairs(X, Y, w: float):
    """(seq, blocks): the N crossings in scan order (cells by their lowest
    crossing index, then A), and per engine block the crossings (A, B),
    A < B, closer than w whose cells (floor(x/w), floor(y/w)) touch, each
    pair once, with its scan key (scan[A] * 9 + slot) * N + B: scan[A] is
    A's place in seq and slot B's cell's place in A's 3x3 block (x offset
    major).  The keys order the pairs as a scan of each cell's 3x3 block
    meets them, whatever the order of blocks and runs; 9 N^2 fits int64
    up to about 1.0e9 crossings.

    Cells are keyed (gx, gy + 1) in base H = max(gy) + 3, on gapped ranks,
    so a key step of 1 or H is one cell.  In key order each crossing scans
    forward only, two runs of cell-order positions: the rest of its cell
    and the cell above, then the next column's three cells.
    """
    N = X.size
    gy = _gapped_ranks(np.floor(Y / w))
    H = int(gy.max()) + 3
    key, = _pack((_gapped_ranks(np.floor(X / w)), gy + 1), H)
    by_cell = np.argsort(key, kind="stable")
    key = key[by_cell]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    size = np.diff(start, append=N)
    # A cell-order position's scan place: its cell's offset in the scan plus its rank in the cell.
    cells = np.argsort(by_cell[start])
    shift = np.empty_like(start)
    shift[cells] = np.cumsum(size[cells]) - size[cells]
    place = np.arange(N) + np.repeat(shift - start, size)
    seq = np.empty(N, np.int64)
    seq[place] = by_cell
    # Each cell's run ends; rows of the needles ascend, so searchsorted is fast.
    # int32 runs: cell-order positions are below N, so below 2^31.
    ends = np.searchsorted(key, key[start] + [[2], [H - 1], [H + 2]]).astype(np.int32)
    own, right, end = np.repeat(ends, size, 1)
    first = np.stack((np.arange(1, N + 1, dtype=np.int32), right), 1).ravel()
    count = np.stack((own, end), 1).ravel() - first
    xc, yc = X[by_cell], Y[by_cell]

    def blocks():
        for e, k in _runs(first, count):
            e >>= 1  # two runs per cell-order position
            close = np.flatnonzero(np.square(xc[e] - xc[k]) + np.square(yc[e] - yc[k]) < w * w)
            e, k = e[close], k[close]
            swap = by_cell[k] < by_cell[e]
            e, k = np.where(swap, k, e), np.where(swap, e, k)
            A, B = by_cell[e], by_cell[k]
            # d = H dx + dy for B's cell offset (dx, dy) from A's: dx = (d + 1) // H,
            # and slot = 3 (dx + 1) + dy + 1 = 4 + d - (H - 3) dx.
            d = key[k] - key[e]
            yield A, B, (place[e] * 9 + 4 + d - (d + 1) // H * (H - 3)) * N + B

    return seq, blocks()


def _edge_set_codes(I, J, A, B, m: int):
    """The :func:`_pack` codes of the edge sets of the crossings A and B,
    as digits edge + 1 in base m + 1, a 3-edge set padded with 0, so the
    codes order the sets as Python orders their tuples."""
    # Three comparators merge the ascending pairs (I < J); distinct crossing
    # pairs share at most one edge, whose repeat is shifted out.
    a0, a1, b0, b1 = I[A] + 1, J[A] + 1, I[B] + 1, J[B] + 1
    m0, m1 = np.maximum(a0, b0), np.minimum(a1, b1)
    s0, s1, s2, s3 = np.minimum(a0, b0), np.minimum(m0, m1), np.maximum(m0, m1), np.maximum(a1, b1)
    tie01 = s0 == s1
    tie012 = tie01 | (s1 == s2)
    return _pack((s0, np.where(tie01, s2, s1), np.where(tie012, s3, s2),
                  np.where(tie012 | (s2 == s3), 0, s3)), m + 1)


def _least_key_of_each(codes, key):
    """The distinct code columns (compared first row first) in code order,
    then the least key of each, as a list of rows.  One code row takes
    numpy's default sort, faster than a stable one: the least key of a
    group of equal codes does not depend on their order."""
    order = np.argsort(codes[0]) if len(codes) == 1 else np.lexsort(codes[::-1])
    new = np.zeros(order.size, bool)
    new[:1] = True
    for c in codes:
        c = c[order]
        new[1:] |= c[1:] != c[:-1]
    del c  # freed before the keys are gathered
    at = np.flatnonzero(new)
    return [c[order[at]] for c in codes] + [np.minimum.reduceat(key[order], at)]


def _concurrent_points(I, J, pts, w: float, m: int):
    """The concurrent_points and concurrent_edges arrays of
    :class:`PropernessReport` for the crossings (I[k], J[k]) at pts[k],
    numbered in lexicographic order.

    Two crossings closer than w in touching cells of side w put their edge
    set on the list, at the midpoint of the pair with the least scan key
    of :func:`_close_crossing_pairs`.  Each block of pairs is cut, as it
    comes, to each edge set's :func:`_edge_set_codes` and least key; after
    the last block one sort keeps each set's least key across blocks.  The
    keys are decoded _BLOCK_PAIRS rows at a time into the midpoints, and
    once they are freed the set codes into the edge ids.  So one block of
    close pairs is held at a time, plus at most one pair per edge set and
    block, and at the end the report and the set codes.
    """
    seq, blocks = _close_crossing_pairs(pts[:, 0], pts[:, 1], w)
    kept = [np.vstack(_least_key_of_each(_edge_set_codes(I, J, A, B, m), key))
            for A, B, key in blocks]
    kept = np.concatenate(kept, axis=1) if kept else np.empty((2, 0), np.int64)  # no pair met
    *codes, key = _least_key_of_each(kept[:-1], kept[-1])
    del kept
    blocks = [slice(a, a + _BLOCK_PAIRS) for a in range(0, key.size, _BLOCK_PAIRS)]
    points = np.empty((key.size, 2))
    for rows in blocks:
        scan, B = np.divmod(key[rows], I.size)
        points[rows] = pts[seq[scan // 9]]
        points[rows] += pts[B]
    points *= 0.5
    del key, seq  # freed before the edges are made
    edges = np.empty((len(points), 4), np.int64)
    for rows in blocks:
        np.stack(_unpack([c[rows] for c in codes], m + 1, 4), axis=1, out=edges[rows])
    edges -= 1
    return points, edges


def check_proper(d: BoldDrawing) -> PropernessReport:
    """Check the three proper-drawing conditions; violations are reported,
    never raised.

    Disk overlap uses center distance < 2r (tangency passes).  The
    three-edges-through-a-point condition is approximated by flagging two
    crossing points of distinct edge pairs closer than the edge width,
    which is the scale at which the inked rectangles actually coincide;
    each such edge set is reported once, at the midpoint of the pair with
    the least scan key of :func:`_close_crossing_pairs`, which scans two
    forward runs per crossing on gapped ranks and yields the close pairs
    one engine block at a time; :func:`_concurrent_points` keeps only each
    block's least key of each edge set.  All outputs are sorted.
    """
    P, Q, _ = _segment_arrays(d)
    r, w = d.params.radius, d.params.width
    pos = d.layout.positions
    disks = _disk_overlap_pairs(pos, r) if r > 0 and len(pos) >= 2 else []
    overlaps = _collinear_overlap_pairs(P, Q)
    # The crossings last: no other stage runs beside them and the report.
    I, J, pts = _crossing_arrays(P, Q)
    none = np.empty((0, 2)), np.empty((0, 4), np.int64)
    points, edges = _concurrent_points(I, J, pts, w, len(P)) if w > 0 and I.size >= 2 else none
    verdict = not (disks or len(points) or overlaps)
    return PropernessReport(disks, points, edges, overlaps, verdict)


def measure(d: BoldDrawing, area: float | None = None) -> DrawingMetrics:
    """Edge lengths, sweep crossing count, and area for a drawing in one
    record; area overrides the bounding-box area with a fixed value."""
    lengths, total = edge_lengths(d)
    cr = count_crossings_sweep(d)
    return DrawingMetrics(
        total_edge_length=total,
        crossings=cr,
        area=bounding_area(d, fixed=area),
        edge_lengths=lengths,
    )
