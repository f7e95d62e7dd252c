"""Deterministic 2-D layout engines.

Four algorithms: uniform random placement, a circle, a spring embedder
(attraction d^2/k along edges, repulsion k^2/d between all node pairs,
geometric cooling), and a multilevel variant that coarsens by matching,
lays out the small coarse graph, then interpolates and locally refines
level by level.  Everything is a pure function of (graph, config): same
seed, same layout, bit for bit.

The spring embedder computes repulsion exactly at every size, as a
symmetric (n, n) force matrix times an (n, 3) block; each pair is built
once, in strips of at most 2^15 entries (one strip up to 181 nodes) that
stay in cache and keep every product on one BLAS thread, so a layout
depends only on its seed.  A strip's coordinate differences are two
rank-2 products of exact terms, the same floats under any BLAS kernel.
Attraction gathers the coordinate columns at contiguous endpoint
columns.  Coarsening matches nodes in id order, each to its first
unmatched neighbour by (-weight, id) from one lexsort.  Disconnected
graphs are laid out one component at a time and packed on a padded grid.

Every engine holds its layout to the one coordinate rule, so inka can draw
every layout it writes: :func:`model._squarable`, whose refusal names the
user's ideal edge length and the node count of the graph or component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError
from .model import Graph, Layout, _number, _pack, _positive, _shown, _squarable, _unpack

_ALGORITHMS = ("random", "circular", "force-directed", "multilevel")

# Golden-angle increment for deterministic, direction-diverse jitter.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Most entries of one repulsion strip (256 KiB of float64, so a strip
# stays in cache).
_REPULSION_BLOCK_ENTRIES = 2**15

# Multilevel coarsening stops at this many nodes, or at a level that
# keeps more than this share of its nodes (Walshaw, JGAA 7(3), 2003).
_COARSEN_THRESHOLD = 50
_COARSEN_STALL = 0.8


@dataclass(frozen=True)
class LayoutConfig:
    algorithm: str = "force-directed"
    seed: int = 0
    iterations: int = 500
    ideal_edge_length: float = 30.0
    cooling: float = 0.95

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; supported: "
                + ", ".join(_ALGORITHMS)
            )
        for name in ("seed", "iterations", "ideal_edge_length", "cooling"):
            _number(getattr(self, name), name, integer=name in ("seed", "iterations"))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 1 <= self.iterations <= 2**20:  # 2**63 steps would never end
            raise ValueError(f"iterations must be in 1..2**20, got {_shown(self.iterations)}")
        _positive(self.ideal_edge_length, "ideal_edge_length")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must be in (0, 1)")


def _box(what: str, k: float, n: int) -> str:
    """The name :func:`model._squarable` gives a refused box: the user's
    ideal edge length k and the node count n of the graph or component."""
    return f"ideal edge length {k} for {n} nodes: {what}"


def layout_random(g: Graph, seed: int, ideal_edge_length: float = 30.0) -> Layout:
    """Positions uniform in the square [0, sqrt(n) * ideal_edge_length]^2."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    side = math.sqrt(g.node_count) * ideal_edge_length
    _squarable(side, side, _box("random square", ideal_edge_length, g.node_count), LayoutError)
    return Layout(rng.uniform(0.0, side, size=(g.node_count, 2)))


def layout_circular(g: Graph, ideal_edge_length: float = 30.0) -> Layout:
    """Nodes in index order on a circle whose circumference gives
    neighboring nodes roughly one ideal edge length of spacing."""
    n = g.node_count
    radius = n * ideal_edge_length / (2.0 * math.pi)
    _squarable(2.0 * radius, 2.0 * radius, _box("circle box", ideal_edge_length, n), LayoutError)
    angles = 2.0 * math.pi * np.arange(n) / n
    return Layout(np.column_stack([radius * np.cos(angles), radius * np.sin(angles)]))


def _component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Each node's connected-component number, components numbered in
    order of their smallest node id, by hook and jump: every root hooks to
    the least root across its edges and every label jumps to its root,
    until no edge joins two roots."""
    label = np.arange(n)
    a, b = edges[:, 0], edges[:, 1]
    while (join := label[a] != label[b]).any():
        la, lb = label[a[join]], label[b[join]]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while (label[label] != label).any():
            label = label[label]
    return (np.cumsum(label == np.arange(n)) - 1)[label]


def _pack_components(n: int, comps, parts, pad: float) -> np.ndarray:
    """The (n, 2) positions with the nodes comps[i] of component i at their
    block parts[i], the blocks translated onto a padded grid."""
    lo = [pos.min(axis=0) for pos in parts]
    cell = np.max([pos.max(axis=0) - low for pos, low in zip(parts, lo)], axis=0) + pad
    cols = math.ceil(math.sqrt(len(parts)))
    out = np.empty((n, 2))
    for i, (nodes, pos, low) in enumerate(zip(comps, parts, lo)):
        out[nodes] = pos - low + np.array([i % cols, i // cols]) * cell
    return out


def _repulsion_buffers(n: int):
    """Scratch for :func:`_repulsion_exact` on n nodes: two flat float
    buffers of rows * n entries, rows = min(n, max(1, E // n)) for
    E = _REPULSION_BLOCK_ENTRIES, the size of its first and largest strip."""
    size = min(n, max(1, _REPULSION_BLOCK_ENTRIES // n)) * n
    return np.empty(size), np.empty(size)


def _repulsion_exact(pos: np.ndarray, weight: np.ndarray, k: float, *,
                     _buffers=None) -> np.ndarray:
    """All-pairs repulsion sum_j f_ij (p_i - p_j) with f_ij = k^2 w_i w_j /
    max(d_ij^2, 1e-8), as w_i (c_i (G @ w)_i - (G @ (w c))_i) with
    G = k^2 / d^2 on centred positions c; d^2 comes from exact coordinate
    differences, per axis the product [c, 1] @ [1; -c]: both terms of an
    entry are exact, so any BLAS kernel rounds it once, to c_i - c_j.  G is
    zero (d^2 set to inf) on the diagonal and on pairs closer than 1e-4: a
    huge G_ij would cancel badly in the subtraction, so such a pair pushes
    with f_ij on p_i - p_j directly (a coincident pair not at all).

    G is symmetric, so each pair is built once, in strips of rows [lo, hi)
    and columns [lo, n), the rows of :func:`_repulsion_buffers`.  A strip
    adds its rows' sums over columns >= lo, and the part right of its
    leading square adds the transposed sums to the rows >= hi.  A strip
    stays in cache, and its products are small enough that BLAS runs them
    on one thread, so the result does not depend on the BLAS thread count.
    The strips live in _buffers from :func:`_repulsion_buffers` when the
    caller reuses them across calls."""
    n = len(pos)
    c = pos - pos.sum(axis=0) / n  # pos.mean(axis=0), without its overhead
    u, v = np.ones((2, n, 2)), np.ones((2, 2, n))  # per axis, [c, 1] and [1; -c]
    u[:, :, 0] = c.T
    np.negative(c.T, out=v[:, 1])
    rhs = np.empty((n, 3))
    rhs[:, 0] = weight
    np.multiply(weight[:, None], c, out=rhs[:, 1:])
    s = np.zeros((n, 3))
    d2_flat, g_flat = _buffers or _repulsion_buffers(n)
    rows = len(d2_flat) // n
    kk = k * k
    close = []
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        size = (hi - lo) * (n - lo)
        d2 = d2_flat[:size].reshape(hi - lo, n - lo)
        g = g_flat[:size].reshape(hi - lo, n - lo)
        np.matmul(u[0, lo:hi], v[0, :, lo:], out=d2)
        d2 *= d2
        np.matmul(u[1, lo:hi], v[1, :, lo:], out=g)
        g *= g
        d2 += g
        d2_flat[: size : n - lo + 1] = np.inf  # pair (i, i): no force
        if d2.min() < 1e-8:
            a, b = np.nonzero(d2 < 1e-8)
            d2[a, b] = np.inf
            close.append((a + lo, b + lo, np.flatnonzero(b >= hi - lo)))
        np.divide(kk, d2, out=g)
        s[lo:hi] += g @ rhs[lo:]
        if hi < n:
            s[hi:] += g[:, hi - lo :].T @ rhs[lo:hi]
    out = weight[:, None] * (c * s[:, :1] - s[:, 1:])
    for a, b, right in close:
        # both directions of a pair in a leading square, one of the others
        push = np.take(pos, a, axis=0) - np.take(pos, b, axis=0)
        push *= (kk / 1e-8) * (weight[a] * weight[b])[:, None]
        np.add.at(out, a, push)
        np.subtract.at(out, b[right], np.take(push, right, axis=0))
    return out


def _spring_iterate(
    pos: np.ndarray,
    edges: np.ndarray,
    edge_weight: np.ndarray,
    node_weight: np.ndarray,
    k: float,
    iterations: int,
    t0: float,
    cooling: float,
    what: str,
    stop=None,
) -> np.ndarray | None:
    """Core spring-embedder loop; returns refined positions, or None at the
    first step after which stop(positions) holds, or LayoutError naming
    what if the run's reach does not square."""
    pos = pos.copy()
    n = len(pos)
    # A step moves a node at most t, so a run widens each axis of the start
    # span by at most twice the sum of the t (Fruchterman & Reingold's
    # cooling), and the widened span must square.
    reach = 2.0 * t0 * (1.0 - cooling**iterations) / (1.0 - cooling)
    _squarable(*(pos.max(axis=0) - pos.min(axis=0) + reach).tolist(), what, LayoutError)
    t = t0
    buffers = _repulsion_buffers(n)
    a, b = edges.T.copy()
    x, y = pos.T  # views: pos is only ever updated in place
    for it in range(iterations):
        disp = _repulsion_exact(pos, node_weight, k, _buffers=buffers)
        if len(a):
            dx, dy = x[a] - x[b], y[a] - y[b]
            d = np.hypot(dx, dy)
            d *= edge_weight
            d /= k
            for axis, pull in enumerate((dx, dy)):
                pull *= d
                disp[:, axis] += np.bincount(b, pull, n)
                disp[:, axis] -= np.bincount(a, pull, n)
        norm = np.hypot(disp[:, 0], disp[:, 1])
        np.maximum(norm, 1e-12, out=norm)
        step = np.minimum(norm, t)
        disp /= norm[:, None]
        disp *= step[:, None]
        pos += disp
        if not np.isfinite(pos).all():
            raise LayoutError(f"force blowup at iteration {it}")
        t *= cooling
        if stop is not None and stop(pos):
            return None
    return pos


def _layout_components(g: Graph, config: LayoutConfig, place) -> Layout:
    """Lay out each connected component with place(n_c, local_edges, seed),
    each with a seed spawned from config.seed, and pack them side by side."""
    n = g.node_count
    if n == 0:
        return Layout(np.empty((0, 2)))
    # Each spring level squares its k and the distances in its start square,
    # whose squared diagonal is 2 n_l k_l^2: node weights sum to the size of
    # the component, so at every level that is at most 2 n k^2 = side^2 * 2.
    k = config.ideal_edge_length
    side = math.sqrt(n) * k
    _squarable(side, side, _box("start square", k, n), LayoutError)
    label = _component_labels(n, g.edges)
    seeds = np.random.SeedSequence(config.seed).spawn(int(label.max()) + 1)
    edge_label = label[g.edges[:, 0]]
    local = np.empty(n, dtype=np.int64)
    comps, parts = [], []
    for c, seed in enumerate(seeds):
        nodes = np.flatnonzero(label == c)
        local[nodes] = np.arange(len(nodes))
        comps.append(nodes)
        parts.append(place(len(nodes), local[g.edges[edge_label == c]], seed))
    out = _pack_components(n, comps, parts, pad=k)
    # The padded grid can spread squarable components past a span that squares.
    _squarable(*np.ptp(out, axis=0).tolist(), _box("packed span", k, n), LayoutError)
    return Layout(out)


def _spring_from_random(n, edges, edge_weight, node_weight, config, seed):
    """Seeded uniform start, then the full spring schedule; the ideal edge
    length grows with the square root of the mean node weight."""
    k = config.ideal_edge_length * math.sqrt(float(node_weight.mean()))
    rng = np.random.Generator(np.random.PCG64(seed))
    side = math.sqrt(n) * k
    pos = rng.uniform(0.0, side, size=(n, 2))
    if n > 1:
        # the node weights sum to the component's node count at every level
        pos = _spring_iterate(
            pos, edges, edge_weight, np.sqrt(node_weight), k, config.iterations,
            t0=0.1 * side, cooling=config.cooling,
            what=_box("spring reach", config.ideal_edge_length, int(node_weight.sum())),
        )
    return pos


def layout_force_directed(g: Graph, config: LayoutConfig) -> Layout:
    """Spring embedder; components are laid out independently (each with
    a seed derived from config.seed) and packed side by side."""
    def place(n, e, seed):
        return _spring_from_random(n, e, np.ones(len(e)), np.ones(n), config, seed)

    return _layout_components(g, config, place)


def _coarsen(n, edges, edge_weight, node_weight):
    """One heavy-edge matching pass.  Returns the coarse graph
    (n2, edges2, edge_weight2, node_weight2) and the fine-to-coarse map.

    Nodes are visited in id order; an unmatched node takes its first
    unmatched neighbour in (-weight, id) order, the heaviest edge with
    ties to the lowest id, or itself if it has none."""
    src, nbr = np.concatenate([edges, edges[:, ::-1]]).T
    order = np.lexsort((nbr, -np.concatenate([edge_weight, edge_weight]), src))
    nbrs = nbr[order].tolist()
    starts = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    mate = [-1] * n
    for v in range(n):
        if mate[v] < 0:
            mate[v] = v
            for u in nbrs[starts[v] : starts[v + 1]]:
                if mate[u] < 0:
                    mate[v], mate[u] = u, v
                    break
    # Coarse ids number the matched pairs by their smaller fine index.
    leaders, cid = np.unique(np.minimum(np.arange(n), mate), return_inverse=True)
    nxt = len(leaders)
    node_weight2 = np.bincount(cid, node_weight, nxt)
    ends = np.sort(cid[edges], axis=1)
    cross = ends[:, 0] != ends[:, 1]
    keys, inv = np.unique(_pack(ends[cross].T, nxt)[0], return_inverse=True)
    edges2 = np.column_stack(_unpack([keys], nxt, 2))
    edge_weight2 = np.bincount(inv, edge_weight[cross], len(keys))
    return nxt, edges2, edge_weight2, node_weight2, cid


def _induced_coarse_length(cid, coarse_edges):
    """The function of fine positions that gives the total coarse-edge
    length when each coarse node sits at the mean of its fine members; the
    member counts, the bins of one bincount (x sums, then y sums) and the
    edges' endpoint columns are taken once."""
    counts = np.bincount(cid)
    bins = np.concatenate([cid, cid + len(counts)])
    a, b = coarse_edges.T.copy()

    def length(pos):
        centers = np.bincount(bins, pos.T.ravel()).reshape(2, -1)
        centers /= counts
        delta = np.take(centers, a, axis=1)
        delta -= np.take(centers, b, axis=1)
        return float(np.hypot(*delta).sum())

    return length


def _interpolate(pos, cid, k):
    """Fine positions from coarse ones, with a deterministic symmetric
    jitter so merged pairs separate: coarse node c of two members moves
    its lower fine index by +off and the higher by -off, off = k/4 in the
    golden-angle direction 2*pi*frac((c+1)*golden)."""
    sizes = np.bincount(cid)
    first = np.cumsum(sizes) - sizes
    pairs = np.flatnonzero(sizes == 2)
    order = np.argsort(cid, kind="stable")
    lo, hi = order[first[pairs]], order[first[pairs] + 1]
    theta = 2.0 * math.pi * ((pairs + 1) * _GOLDEN % 1.0)
    off = 0.25 * k * np.column_stack([np.cos(theta), np.sin(theta)])
    fine = np.take(pos, cid, axis=0)
    np.add.at(fine, lo, off)
    np.subtract.at(fine, hi, off)
    return fine


def _multilevel_positions(n, edges, config: LayoutConfig, seed) -> np.ndarray:
    """Multilevel layout of one connected component."""
    k = config.ideal_edge_length
    levels = []  # (fine graph, fine-to-coarse map) per level
    cur = (n, edges, np.ones(len(edges)), np.ones(n))
    while cur[0] > _COARSEN_THRESHOLD:
        n2, e2, ew2, nw2, cid = _coarsen(*cur)
        if n2 > _COARSEN_STALL * cur[0]:
            break
        levels.append((cur, cid))
        cur = (n2, e2, ew2, nw2)

    pos = _spring_from_random(*cur, config, seed)

    refine_iters = max(50, config.iterations // 5)
    for (nf, ef, ewf, nwf), cid in reversed(levels):
        fine = _interpolate(pos, cid, k)
        k_f = k * math.sqrt(float(nwf.mean()))
        length = _induced_coarse_length(cid, cur[1])
        bound = 1.05 * length(fine)
        # Guardrail: a refinement stops at the first step that stretches
        # the coarse structure by more than 5% and is reverted to the
        # interpolated positions; a level that never passes 5% runs every
        # step and is kept.  It reverts 3-4 of mesh24's 4 levels (at seeds
        # 1-5, at steps 7-43 of 50-60); without it mesh24 ink rises 25-31%
        # (seeds 1-3, 300 iterations, ink at r = w = 1).  A start of
        # 0.05 k_f reverts nothing and cuts mesh24 ink 150-157k -> 132-142k,
        # but raises cr on ba800 180-183k -> 218-221k and on yeastppi
        # 1.43-1.46M -> 1.83-1.86M.
        refined = _spring_iterate(
            fine, ef, ewf, np.sqrt(nwf), k_f, refine_iters,
            t0=0.6 * k_f, cooling=config.cooling,
            what=_box("spring reach", k, n),
            stop=(lambda p: length(p) > bound) if bound > 0 else None,
        )
        pos = fine if refined is None else refined
        cur = (nf, ef, ewf, nwf)
    return pos


def layout_multilevel(g: Graph, config: LayoutConfig) -> Layout:
    """Matching-based coarsening plus spring refinement; components of at
    most _COARSEN_THRESHOLD nodes get the plain spring embedder unchanged."""
    return _layout_components(
        g, config, lambda n, e, seed: _multilevel_positions(n, e, config, seed)
    )


def compute_layout(g: Graph, config: LayoutConfig) -> Layout:
    """Dispatch on config.algorithm."""
    if config.algorithm == "random":
        return layout_random(g, config.seed, config.ideal_edge_length)
    if config.algorithm == "circular":
        return layout_circular(g, config.ideal_edge_length)
    if config.algorithm == "force-directed":
        return layout_force_directed(g, config)
    return layout_multilevel(g, config)
