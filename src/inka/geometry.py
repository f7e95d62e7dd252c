"""Measured layout quantities: edge lengths, crossings, area, properness.

Pairs, runs and bands come in blocks sized by _BLOCK_PAIRS, read at each
call, of three schemes: engine runs, and the kernel's table tiles and
the oracle's tiles, both below.  Engine runs serve the kernel's sparse
bands, the close-pair query and :mod:`inka.raster`.  Run e is the index
stretch first[e] ... first[e] + size[e] - 1; :func:`_expand` lists runs
as (e, k) arrays and :func:`_spans` splits them, by their cumulative
count, into blocks of consecutive runs with at most _BLOCK_PAIRS entries
(a bigger run is a block of its own; blocks with no entry are skipped);
:func:`_runs` is the two together.  Blocks come in a fixed order, so no
output depends on the block size.  A crossing block keeps about 110
bytes a pair alive and a raster band about 140, so each stays near 3 MB;
larger blocks run slower.

Crossings are counted two independent ways with the same orientation
expressions and sign test, :func:`_splits`.  The brute-force oracle,
:func:`count_crossings_bruteforce`, tests every non-adjacent edge pair
in dense tiles of about _BLOCK_PAIRS / 2 pairs, off the engine runs.
:func:`count_crossings_sweep` tests only the pairs whose closed
x-extents overlap, the candidate filter that opens the Bentley-Ottmann
sweep: over extents sorted by left end, rank a's run in
:func:`_rank_blocks` is ranks a+1 up to the last whose left end is at
most a's right end.  Its filters imply the box test and a shared
endpoint fails its sign test, so its kernel, :func:`_crossing_blocks`,
tests neither.  A disagreement between the two is the enumeration bug
the pairing catches.

The kernel answers that band one of two ways, chosen from the input
alone by _TABLE_GATE: as engine runs, each pair's orientations computed
as it is tested, or from a sign table.  The table is for a drawing with
at least 25,000 pairs xp in the band whose N distinct endpoints (keyed
by coordinate) and m edges make N m <= 2 xp and at most _TABLE_BYTES =
2^25 bytes: one int8 (o > 0) - (o < 0) per (point, edge line), o the
very :func:`_side` float the runs compute, so each orientation is
computed once, not once per pair that needs it (a node is the endpoint
of all its edges).  :func:`_table_tiles` reads a pair's four signs by
row lookups in dense tiles of the band and keeps the runs' filters (the
band, y-extents that meet), so both ways yield the same crossing pairs
and collinear candidates.  Dense bands, with N m near xp, ran at
0.2-0.6x the runs' CPU; at N m of 2.7 xp and more the table lost
(``BENCH_sign_table.json``).  A tile keeps about 10 bytes an entry alive,
beside the table.

Edges become endpoint arrays only in :func:`_segment_arrays`, and float
rows are gathered only by ``np.take``, never by ``a[rows]``, which gives
the same values at several times the cost per row.

That kernel is the only segment pair enumeration but the oracle's, and
its first stage also yields the collinear candidates, the pairs with
both orientations exactly 0, so :func:`_crossing_arrays` lists crossing
points and collinear overlaps in one pass, one stable argsort by left x
mapping kept rank pairs back (:func:`_hit_pairs`).  Every crossing
count, of the edges and of their stubs at any ratios, is one pass of
:func:`_crossing_counts`.  Points closer than a limit are found by one
query, :func:`_close_pairs`: it bins them into cells of side limit
numbered by :func:`_cell_ranks` and scans two forward runs per point.
:func:`check_proper` asks it for the nodes closer than 2r and the
crossings closer than w, and returns, as arrays, each edge set that two
close crossings span and the midpoint of its least close pair (A, B),
A < B, numbering crossings by their :func:`crossing_pairs` rows.  The
crossing scan is a stream of engine blocks of close pairs, each cut to
each edge set's least pair before the next is made, so memory grows with
the kept rows, one per block and edge set (75% of 138 M close pairs on
yeastppi random), held twice while they are concatenated.  Per crossing
it holds I, J, the point (32 bytes) and the scan's cell order,
coordinates, runs and running count (56 bytes; 96 at the peak while set
up), plus one block of close pairs and the kept codes (16 bytes a row up
to 55,107 edges, 24 above); after the scan, the report (48 bytes a row)
and the kept codes, the pair keys freed before the edge ids are decoded.

Predicates are a strict sign test against 0, exact under 2^k scaling:
IEEE arithmetic commutes with a power-of-two scale, so every answer is
the same for the drawing scaled by 2^k, its cells too (floor(x 2^k /
(w 2^k)) == floor(x / w)).  Endpoints whose span is below 1 are first
scaled by the power of two that brings it into [0.5, 1),
:func:`_unit_span`, in both kernel paths, the oracle, both row-wise
masks and the crossing parameters, so no orientation underflows: a
drawing near 2^-560 made products below the least subnormal, exactly 0,
and its crossings read as collinear.  A pair "crosses" when the open segments
intersect transversally at an interior point; segments sharing an
endpoint (adjacent edges) never cross.  Collinear means four orientations
exactly 0 and closed x- and y-extents that meet; such an overlap is
flagged for properness, not counted as a crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BoldDrawing, DrawingMetrics, _pack, _positive, _unpack

# Entries per engine block; see the module docstring.
_BLOCK_PAIRS = 25_000
# The sign-table gate (least x-overlapping pairs xp, greatest N m / xp) and
# the table's byte cap; see the module docstring.
_TABLE_GATE = (25_000, 2.0)
_TABLE_BYTES = 2**25


@dataclass(frozen=True, eq=False)
class PropernessReport:
    """Violations of the three proper-drawing conditions.

    disk_overlaps: node pairs whose disks intersect (center distance < 2r).
    concurrent_points: (k, 2) float64 array of approximate >=3-edge
        coincidences: two crossings of distinct edge pairs within one edge
        width, each row the midpoint of its edge set's least such pair of
        crossings (A, B), A < B, in crossing order.
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
    return _opposite(_side(ex, ey, x, y, ax, ay), _side(ex, ey, x, y, bx, by))


def _opposite(a, b):
    """Row-wise: are orientations a and b of strictly opposite signs?"""
    return (np.minimum(a, b) < 0) & (np.maximum(a, b) > 0)


def transversal_crossing_mask(p1, q1, p2, q2):
    """Row-wise test: do the open segments (p1,q1) and (p2,q2) cross?

    Inputs are (k, 2) arrays of endpoints.  True requires strictly
    opposite orientations on both sides, so endpoint touching (exactly 0
    at a common endpoint), collinear overlap, and degenerate segments all
    test False.  A closed bounding-box check, necessary for a crossing, is
    part of the test, and the filters of :func:`_crossing_blocks` imply it.
    The rows are tested at :func:`_unit_span`.
    """
    return _crosses(*(a[..., k] for a in _unit_span(p1, q1, p2, q2) for k in (0, 1)))


def _crosses(p1x, p1y, q1x, q1y, p2x, p2y, q2x, q2y):
    """:func:`transversal_crossing_mask` on the eight coordinate columns."""
    bbox = (
        (np.maximum(p1x, q1x) >= np.minimum(p2x, q2x))
        & (np.maximum(p2x, q2x) >= np.minimum(p1x, q1x))
        & (np.maximum(p1y, q1y) >= np.minimum(p2y, q2y))
        & (np.maximum(p2y, q2y) >= np.minimum(p1y, q1y))
    )
    return (bbox & _splits(q1x - p1x, q1y - p1y, p1x, p1y, p2x, p2y, q2x, q2y)
            & _splits(q2x - p2x, q2y - p2y, p2x, p2y, p1x, p1y, q1x, q1y))


def _unit_span(*ends):
    """The (..., 2) endpoint arrays ends, scaled together by the power of
    two that brings their span (the larger of the x and y extents) into
    [0.5, 1) when it is below 1, else as given.  A power-of-two scale is
    exact and commutes with every predicate, so it changes only the
    answers that underflowed: orientations of a drawing near 2^-560 are
    products below the least subnormal.  Coordinates within a span below
    1 of each other are below 2^53 times it, so none overflows."""
    if not ends[0].size:
        return ends
    span = 0.0
    for k in (0, 1):  # x alone most often shows a span of 1 or more
        cols = [e[..., k] for e in ends]
        # Python floats: an inf span, never an overflow warning
        span = max(span, max(float(c.max()) for c in cols) - min(float(c.min()) for c in cols))
        if span >= 1.0:
            return ends
    shift = -math.frexp(span)[1]
    return tuple(np.ldexp(e, shift) for e in ends) if shift else ends


def collinear_overlap_mask(p1, q1, p2, q2):
    """Row-wise test: collinear segments (all four orientations exactly 0)
    overlapping over positive length, so their closed x- and y-extents
    meet (y as well: parallel edges 1e-200 apart orient to exactly 0).
    The rows are tested at :func:`_unit_span`."""
    p1, q1, p2, q2 = _unit_span(p1, q1, p2, q2)
    p1x, p1y, q1x, q1y, p2x, p2y, q2x, q2y = (a[..., k] for a in (p1, q1, p2, q2) for k in (0, 1))
    e1x, e1y, e2x, e2y = q1x - p1x, q1y - p1y, q2x - p2x, q2y - p2y
    collinear = (
        (_side(e1x, e1y, p1x, p1y, p2x, p2y) == 0)
        & (_side(e1x, e1y, p1x, p1y, q2x, q2y) == 0)
        & (_side(e2x, e2y, p2x, p2y, p1x, p1y) == 0)
        & (_side(e2x, e2y, p2x, p2y, q1x, q1y) == 0)
    )
    nonzero = ((p1x != q1x) | (p1y != q1y)) & ((p2x != q2x) | (p2y != q2y))
    ox = np.minimum(np.maximum(p1x, q1x), np.maximum(p2x, q2x)) - np.maximum(
        np.minimum(p1x, q1x), np.minimum(p2x, q2x)
    )
    oy = np.minimum(np.maximum(p1y, q1y), np.maximum(p2y, q2y)) - np.maximum(
        np.minimum(p1y, q1y), np.minimum(p2y, q2y)
    )
    return collinear & nonzero & (ox >= 0) & (oy >= 0) & ((ox > 0) | (oy > 0))


def _crossing_params(p1, q1, p2, q2):
    """(t, u): the fractions along (p1, q1) and (p2, q2) where rows already
    known to cross transversally meet; swapping the segments swaps them.
    Callers pass rows at :func:`_unit_span`, so no product underflows."""
    r, s, d = q1 - p1, q2 - p2, p2 - p1
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    return ((d[..., 0] * s[..., 1] - d[..., 1] * s[..., 0]) / denom,
            (d[..., 0] * r[..., 1] - d[..., 1] * r[..., 0]) / denom)


def crossing_points_of(p1, q1, p2, q2):
    """Interior crossing points for rows already known to cross
    transversally, in the rows' units: the fraction along (p1, q1) is
    taken at :func:`_unit_span`."""
    return p1 + _crossing_params(*_unit_span(p1, q1, p2, q2))[0][..., None] * (q1 - p1)


def _segment_arrays(d: BoldDrawing):
    """Endpoint arrays P, Q (m, 2) and node-id array E (m, 2) for the edges."""
    P, Q = np.take(d.layout.positions, d.graph.edges.T, axis=0)
    return P, Q, d.graph.edges


def _ends(P, Q, I, J):
    """Rows I and J of P and Q in the order the row-wise predicates take."""
    return [np.take(A, K, axis=0) for K in (I, J) for A in (P, Q)]


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


def count_crossings_bruteforce(d: BoldDrawing) -> int:
    """Number of non-adjacent edge pairs with a transversal interior crossing.

    O(m^2) oracle off the engine runs, on the endpoints at
    :func:`_unit_span`: every pair is tested in triangular
    tiles of T = isqrt(_BLOCK_PAIRS / 2) segments, the predicate and a
    node-id adjacency test broadcast over (T, 1) against (1, T) columns.
    A (T, T) float stays below glibc's 128 KiB mmap threshold; larger ones
    were mapped and faulted in afresh, at 1.4-1.8x the CPU on mesh24.
    """
    P, Q, E = _segment_arrays(d)
    cols = (*np.column_stack(_unit_span(P, Q)).T.copy(), *E.T)  # px, py, qx, qy, a, b
    T, total = max(1, math.isqrt(_BLOCK_PAIRS // 2)), 0
    for s in range(0, len(P), T):
        *ends, a, b = (c[s:s + T, None] for c in cols)
        for t in range(s, len(P), T):
            *ends2, a2, b2 = (c[t:t + T] for c in cols)
            hit = _crosses(*ends, *ends2) & (a != a2) & (a != b2) & (b != a2) & (b != b2)
            total += int(np.count_nonzero(np.triu(hit, 1) if s == t else hit))
    return total


def _rank_blocks(lx, hx):
    """(end, blocks): for extents [lx, hx] with lx sorted ascending, the
    end of each rank's band, one past the last rank whose left end is at
    most its right end, and the engine blocks of (I, J) int64 rank arrays,
    I < J < end[I], covering exactly once every pair of extents that
    overlap (touching included)."""
    ranks = np.arange(1, lx.size + 1)
    end = np.searchsorted(lx, hx, side="right")
    return end, _runs(ranks, end - ranks)


def _crossing_blocks(P, Q, candidates=True):
    """(order, blocks): the stable argsort by left x, and per block the
    rank pairs I, J that pass all but the last test, its mask hit and the
    collinear candidates as edge pairs (CI, CJ), or None when not asked
    for; :func:`_hit_pairs` (order, I, J, hit) are the edge pairs that cross.

    The endpoints are taken at :func:`_unit_span`.  The band of x
    overlapping pairs is answered as engine runs or, past the gate of the
    module docstring, by :func:`_table_tiles`; both yield the same pairs
    and candidates.  In runs, the orientations are the predicate's
    (dx is the float q_x - p_x, q never p + dx): J's endpoints against
    line I, then I's against line J on the first stage's columns cut to
    the pairs left.  A shared endpoint's orientation is exactly 0 (dy[I]
    if it is I's q), so adjacent edges need no test.  The candidates' two
    first-stage orientations are exactly 0, the first two floats of
    :func:`collinear_overlap_mask`, so they hold every pair it flags."""
    P, Q = _unit_span(P, Q)
    order = np.argsort(np.minimum(P[:, 0], Q[:, 0]), kind="stable")
    px, py, qx, qy = np.take(np.column_stack((P, Q)), order, axis=0).T.copy()
    dx, dy = qx - px, qy - py
    lx, hx = np.minimum(px, qx), np.maximum(px, qx)
    ly, hy = np.minimum(py, qy), np.maximum(py, qy)
    m = px.size
    end, runs = _rank_blocks(lx, hx)
    xp = int(end.sum()) - m * (m + 1) // 2
    least, ratio = _TABLE_GATE
    # lx's distinct values are at most N, so most sparse drawings skip the unique
    if xp >= least and (np.count_nonzero(lx[1:] != lx[:-1]) + 1) * m <= ratio * xp:
        ends = np.stack((px, py, qx, qy), axis=1).reshape(2 * m, 2).view(np.complex128)
        points, point = np.unique(ends.ravel(), return_inverse=True)
        if points.size * m <= min(ratio * xp, _TABLE_BYTES):
            table = _sign_table(px, py, dx, dy, points.real.copy(), points.imag.copy())
            a, b = point[0::2], point[1::2]
            return order, _table_tiles(table, a, b, ly, hy, end, order, candidates)

    def blocks():
        for I, J in runs:
            # With the engine's x overlap, this y overlap is the predicate's box test.
            k = np.flatnonzero((ly[I] <= hy[J]) & (ly[J] <= hy[I]))
            I, J = I[k], J[k]
            x, y, jx, jy, ex, ey = px[I], py[I], px[J], py[J], dx[I], dy[I]
            a, b = _side(ex, ey, x, y, jx, jy), _side(ex, ey, x, y, qx[J], qy[J])
            C = _hit_pairs(order, I, J, (a == 0) & (b == 0)) if candidates else None
            k = np.flatnonzero(_opposite(a, b))
            del a, b  # freed before the cuts: a block's live set stays as it was
            I, J, x, y, jx, jy = I[k], J[k], x[k], y[k], jx[k], jy[k]
            yield I, J, _splits(dx[J], dy[J], jx, jy, x, y, qx[I], qy[I]), C

    return order, blocks()


def _sign_table(px, py, dx, dy, X, Y):
    """(N, m) int8: the sign of each point (X, Y) about each edge line,
    (o > 0) - (o < 0) of the predicate's own :func:`_side` float o,
    computed about _BLOCK_PAIRS entries at a time."""
    table = np.empty((X.size, px.size), np.int8)
    R = max(1, _BLOCK_PAIRS // max(1, px.size))
    for s in range(0, X.size, R):
        o = _side(dx, dy, px, py, X[s:s + R, None], Y[s:s + R, None])
        np.subtract((o > 0).view(np.int8), (o < 0).view(np.int8), out=table[s:s + R])
    return table


def _table_tiles(table, a, b, ly, hy, end, order, candidates):
    """Kernel blocks answered from the sign table: tiles of up to 128
    ranks I by 2 _BLOCK_PAIRS / 128 ranks J over the band I < J < end[I],
    as the column I, the row J, the (I, J) mask hit and the candidates
    (CI, CJ), edge pairs through order, or None.

    a and b number each rank's endpoints in the table's points, so
    table[aJ, I] is the sign of J's p about line I, a row lookup.  A pair
    crosses when both products table[aJ, I] table[bJ, I] and table[aI, J]
    table[bI, J] are -1, their sum -2: the run kernel's strict sign test
    on the same floats (points equal as floats orient alike; a 0.0 and a
    -0.0 can change only a zero's sign).  Its filters are the run
    kernel's: the band (J < end[I], which is lx[J] <= hx[I]) and y-extents
    that meet, compared as ranks of the y ends (np.unique's inverse: no
    numpy.ma import), exact as the floats are; the candidates are the
    pairs in them with both J signs 0."""
    m = table.shape[1]
    dtype = np.int16 if 2 * m < 2**15 else np.int32  # int16 compares run faster
    low, high = np.unique(np.hstack((ly, hy)), return_inverse=True)[1].astype(dtype).reshape(2, m)
    ranks, end, index = np.arange(m, dtype=dtype), end.astype(dtype), np.arange(m)
    entries = 2 * _BLOCK_PAIRS
    rows = max(1, min(128, math.isqrt(entries)))
    for i0 in range(0, m, rows):
        i1 = min(m, i0 + rows)
        e = end[i0:i1]
        width = max(1, entries // (i1 - i0))
        ai, bi, li, hi, ei = a[i0:i1], b[i0:i1], low[i0:i1, None], high[i0:i1, None], e[:, None]
        last = int(e.max())
        for c0 in range(i0 + 1, last, width):
            c1 = min(last, c0 + width)
            keep = (low[c0:c1] <= hi) & (li <= high[c0:c1])
            if c1 > e.min():
                keep &= ranks[c0:c1] < ei
            if c0 < i1:
                keep &= ranks[c0:c1] > ranks[i0:i1, None]
            I, J = index[i0:i1, None], index[None, c0:c1]
            sa, sb = table[a[c0:c1], i0:i1], table[b[c0:c1], i0:i1]
            C = _hit_pairs(order, I, J, ((sa | sb) == 0).T & keep) if candidates else None
            sa *= sb
            sum_ = table[ai, c0:c1]
            sum_ *= table[bi, c0:c1]
            sum_ += sa.T
            hit = sum_ == -2
            hit &= keep
            yield I, J, hit, C


def _hit_pairs(order, I, J, hit):
    """The edge pairs of a kernel block's rank pairs I, J where hit holds,
    order[I[hit]] and order[J[hit]]; a tile's I is a column and its J a row."""
    if hit.ndim == 1:
        return order[I[hit]], order[J[hit]]
    k = np.flatnonzero(hit)  # several times faster than nonzero or a broadcast I[hit]
    r = k // hit.shape[1]
    return order[I[r, 0]], order[J[0, k - r * hit.shape[1]]]


def count_crossings_sweep(d: BoldDrawing) -> int:
    """Crossing counter on the x-interval engine; equals the brute-force
    count.  Every crossing pair has overlapping closed x- and y-extents, and
    :func:`_crossing_blocks` decides each such pair with the predicate's
    orientations and sign test; :func:`_crossing_counts` at p = 1."""
    P, Q, _ = _segment_arrays(d)
    return _crossing_counts(P, Q, (1.0,))[0]


def _crossing_counts(P, Q, ratios):
    """The crossings of the edges P to Q at each retained fraction p in
    ratios, in their order, from one pass of :func:`_crossing_blocks`.

    At p = 1 every crossing counts, one count_nonzero per block with no
    pair taken out.  Below 1 a crossing counts when it lies, along both
    edges, strictly less than p/2 from the nearer end (a crossing at a tip
    only touches it).  Each end's fraction is :func:`_crossing_params` from
    that end, not 1 - t: on integer coordinates it is exact but for one
    rounding, so the counts keep under translation, 2^k scaling and edge
    reversal.  A crossing's need is the larger of its two fractions from
    the nearer end; each block sorts its needs among the p/2 below 1 with
    one searchsorted, side "right", so a need equal to p/2 does not count.
    The rows of :func:`_crossing_params` are taken at :func:`_unit_span`
    only when some ratio is below 1: the kernel scales its own by the same
    power of two."""
    half = np.sort([0.5 * p for p in ratios if p < 1.0])
    if half.size:
        P, Q = _unit_span(P, Q)
    # below[k]: the crossings with k of the half ratios at or under their need
    below, total = np.zeros(half.size + 1, np.int64), 0
    order, blocks = _crossing_blocks(P, Q, candidates=False)
    for I, J, hit, _C in blocks:
        total += int(np.count_nonzero(hit))
        if half.size:
            a1, b1, a2, b2 = _ends(P, Q, *_hit_pairs(order, I, J, hit))
            t, u = _crossing_params(a1, b1, a2, b2)
            t_far, u_far = _crossing_params(b1, a1, b2, a2)
            need = np.maximum(np.minimum(t, t_far), np.minimum(u, u_far))
            below += np.bincount(np.searchsorted(half, need, "right"), minlength=below.size)
    within = np.cumsum(below)  # within[k]: the crossings whose need is below half[k]
    return [total if p == 1.0 else int(within[np.searchsorted(half, 0.5 * p)]) for p in ratios]


def _sorted_pairs(blocks, base: int):
    """The pairs of (I, J) index blocks (each pair in one block, indices
    below base) as two int64 arrays (i, j), i < j, sorted: each block
    coded as it arrives into int64 keys (min, max), one sort, one decode."""
    keys = [np.empty(0, np.int64)]
    for I, J in blocks:
        key, = _pack((np.minimum(I, J), np.maximum(I, J)), base)
        keys.append(key)
    keys = np.concatenate(keys)
    keys.sort()
    return _unpack([keys], base, 2)


def _crossing_arrays(P, Q):
    """Crossing pairs as i < j index arrays in lexicographic order, their
    (k, 2) crossing points, each computed along segment i, and the (h, 2)
    int64 rows (i, j), i < j, sorted, of the collinear candidates that
    :func:`collinear_overlap_mask` flags, adjacent ones included.

    The points are filled _BLOCK_PAIRS rows at a time into one (k, 2)
    array (the arithmetic is element-wise, so the bytes are those of one
    whole-array call): beside I, J and the points, only the sorted pair
    keys while they are decoded, and one block's gathered endpoints, live.
    """
    order, blocks = _crossing_blocks(P, Q)
    overlaps = []

    def hits():
        for I, J, hit, (CI, CJ) in blocks:
            keep = collinear_overlap_mask(*_ends(P, Q, CI, CJ))
            overlaps.append((CI[keep], CJ[keep]))
            yield _hit_pairs(order, I, J, hit)

    I, J = _sorted_pairs(hits(), len(P))
    pts = np.empty((I.size, 2))
    for a in range(0, I.size, _BLOCK_PAIRS):
        i, j = I[a:a + _BLOCK_PAIRS], J[a:a + _BLOCK_PAIRS]
        pts[a:a + i.size] = crossing_points_of(*_ends(P, Q, i, j))
    return I, J, pts, np.stack(_sorted_pairs(overlaps, len(P)), axis=1)


def crossing_pairs(d: BoldDrawing):
    """All crossings and collinear overlaps of the edges as arrays, with no
    Python object per pair: (i, j, points, overlaps), the crossing edge
    pairs as int64 arrays i < j in lexicographic order, their (k, 2)
    crossing points, and the sorted (h, 2) int64 rows (i, j), i < j, of
    the collinearly overlapping edge pairs."""
    P, Q, _ = _segment_arrays(d)
    return _crossing_arrays(P, Q)


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
    drawn = np.flatnonzero(length > 0)
    P, Q, length = np.take(P, drawn, axis=0), np.take(Q, drawn, axis=0), length[drawn]
    ux, uy = dx[drawn] / length, dy[drawn] / length
    sx, sy = np.abs(uy) * half, np.abs(ux) * half
    box = (np.minimum(P[:, 0], Q[:, 0]) - sx, np.minimum(P[:, 1], Q[:, 1]) - sy,
           np.maximum(P[:, 0], Q[:, 0]) + sx, np.maximum(P[:, 1], Q[:, 1]) + sy)
    return (P[:, 0], P[:, 1], ux, uy, length), box


def _bounding_box(d: BoldDrawing, rect_box):
    """:func:`bounding_box` given the rectangles' box of :func:`_edge_rects`."""
    if d.graph.node_count == 0:
        return None
    r = d.params.radius
    xmin, ymin, xmax, ymax = d.layout.extent
    xmin, ymin, xmax, ymax = xmin - r, ymin - r, xmax + r, ymax + r
    lx, ly, hx, hy = rect_box
    if lx.size:
        xmin, ymin = min(xmin, float(lx.min())), min(ymin, float(ly.min()))
        xmax, ymax = max(xmax, float(hx.max())), max(ymax, float(hy.max()))
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


def _cell_ranks(v, limit: float):
    """Numbers for v's cells of side limit, floor(v / limit), that keep
    only their order and which of them touch: over v's distinct values
    ascending, a number steps by 0 or 1 where the floor does, else by 2.
    A quotient v / limit past 1.8e308 overflows, and every step to or from
    its infinite floor (inf, or nan between two) is a gap, as it should
    be: distinct values that far out are an ulp apart, far more than
    limit."""
    u, rank = np.unique(v, return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):  # inf floors, nan steps
        step = np.fmin(np.diff(np.floor(u / limit)), 2)
    return np.concatenate(([0], np.cumsum(step.astype(np.int64))))[rank]


def _close_pairs(X, Y, limit: float):
    """Yield, per engine block, the points (A, B), A < B, closer than
    limit, each pair once; all lie in touching cells of side limit.

    Cells are keyed (gx, gy + 1) in base H = max(gy) + 3 on
    :func:`_cell_ranks`, so a key step of 1 or H is one cell.  In key
    order each point scans forward only, two runs of cell-order
    positions: the rest of its cell and the cell above, then the next
    column's three cells.  Squared distances are compared in units of
    limit's power of two, so limit^2 does not underflow; points of
    touching cells are about 2 limit apart at most in x and in y, so their
    scaled squares stay far below overflow.
    """
    N = X.size
    gy = _cell_ranks(Y, limit)
    H = int(gy.max()) + 3
    key, = _pack((_cell_ranks(X, limit), gy + 1), H)
    by_cell = np.argsort(key, kind="stable")
    key = key[by_cell]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    size = np.diff(start, append=N)
    # Each cell's run ends; rows of the needles ascend, so searchsorted is fast.
    # int32 runs: cell-order positions are below N, so below 2^31.
    ends = np.searchsorted(key, key[start] + [[2], [H - 1], [H + 2]]).astype(np.int32)
    own, right, end = np.repeat(ends, size, 1)
    first = np.stack((np.arange(1, N + 1, dtype=np.int32), right), 1).ravel()
    count = np.stack((own, end), 1).ravel() - first
    xc, yc = X[by_cell], Y[by_cell]
    mant, s = math.frexp(limit)  # squares in units of 2^s do not underflow

    def blocks():
        for e, k in _runs(first, count):
            e >>= 1  # two runs per cell-order position
            dx, dy = np.ldexp(xc[e] - xc[k], -s), np.ldexp(yc[e] - yc[k], -s)
            close = np.flatnonzero(np.square(dx) + np.square(dy) < mant * mant)
            A, B = by_cell[e[close]], by_cell[k[close]]
            yield np.minimum(A, B), np.maximum(A, B)

    return blocks()


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
    :class:`PropernessReport` for the N crossings (I[k], J[k]) at pts[k],
    numbered in lexicographic order (N below _MAX_NODES: a pair key is one
    int64).  Each block of :func:`_close_pairs` is cut, as it
    comes, to each edge set's :func:`_edge_set_codes` and least :func:`_pack`
    key of its close pairs (A, B); after the last block one sort keeps each
    set's least key across blocks.  The keys are decoded _BLOCK_PAIRS rows
    at a time into the midpoints, and once they are freed the set codes
    into the edge ids.  So one block of close pairs is held at a time, plus
    at most one pair per edge set and block (twice while they are
    concatenated), and at the end the report and the set codes.
    """
    N = I.size
    kept = [np.vstack(_least_key_of_each(_edge_set_codes(I, J, A, B, m), *_pack((A, B), N)))
            for A, B in _close_pairs(pts[:, 0], pts[:, 1], w)]
    kept = np.concatenate(kept, axis=1) if kept else np.empty((2, 0), np.int64)  # no pair met
    *codes, key = _least_key_of_each(kept[:-1], kept[-1])
    del kept
    blocks = [slice(a, a + _BLOCK_PAIRS) for a in range(0, key.size, _BLOCK_PAIRS)]
    points = np.empty((key.size, 2))
    for rows in blocks:
        A, B = _unpack([key[rows]], N, 2)
        points[rows] = np.take(pts, A, axis=0) + np.take(pts, B, axis=0)
    points *= 0.5
    del key  # freed before the edges are made
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
    each such edge set is reported once, at the midpoint of its least
    close pair (A, B), A < B, numbering crossings by their rows in
    :func:`crossing_pairs`.  One query, :func:`_close_pairs`, yields the
    node pairs closer than 2r and the crossing pairs closer than w one
    engine block at a time; :func:`_concurrent_points` keeps only each
    block's least pair of each edge set.  Collinear overlaps come from
    the crossings' :func:`crossing_pairs` pass.  All outputs are sorted.
    """
    r, w = d.params.radius, d.params.width
    x, y = d.layout.positions.T
    disks = _sorted_pairs(_close_pairs(x, y, 2.0 * r) if r > 0 and x.size >= 2 else (), x.size)
    # The crossings last: no other stage runs beside them and the report.
    I, J, pts, overlaps = crossing_pairs(d)
    none = np.empty((0, 2)), np.empty((0, 4), np.int64)
    points, edges = _concurrent_points(I, J, pts, w, d.graph.m) if w > 0 and I.size >= 2 else none
    disks, overlaps = (list(map(tuple, a.tolist())) for a in (np.column_stack(disks), overlaps))
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
