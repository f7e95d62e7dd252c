"""Deterministic 2-D layout engines.

Four algorithms: uniform random placement, a circle, a spring embedder
(attraction d^2/k along edges, repulsion k^2/d between all node pairs,
geometric cooling), and a multilevel variant that coarsens by matching,
lays out the small coarse graph, then interpolates and locally refines
level by level.  Everything is a pure function of (graph, config): same
seed, same layout, bit for bit.

The spring embedder computes repulsion exactly up to 2,000 nodes, as one
(n, n) force matrix times an (n, 3) block, and above that switches to a
bucket-grid approximation (interaction cutoff at twice the ideal edge
length).  Disconnected graphs are laid out one component at a time and
packed on a padded grid.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import LayoutError
from .model import Graph, Layout

_ALGORITHMS = ("random", "circular", "force-directed", "multilevel")

# Golden-angle increment for deterministic, direction-diverse jitter.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Largest component whose repulsion is computed exactly (O(n^2) memory).
_EXACT_REPULSION_MAX_NODES = 2000


@dataclass(frozen=True)
class LayoutConfig:
    algorithm: str = "force-directed"
    seed: int = 0
    iterations: int = 500
    ideal_edge_length: float = 30.0
    cooling: float = 0.95
    coarsen_threshold: int = 50

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; supported: "
                + ", ".join(_ALGORITHMS)
            )
        for name in ("seed", "iterations", "coarsen_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("ideal_edge_length", "cooling"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (math.isfinite(self.ideal_edge_length) and self.ideal_edge_length > 0):
            raise ValueError("ideal_edge_length must be finite and > 0")
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if self.coarsen_threshold < 2:
            raise ValueError("coarsen_threshold must be >= 2")


def layout_random(g: Graph, seed: int, ideal_edge_length: float = 30.0) -> Layout:
    """Positions uniform in the square [0, sqrt(n) * ideal_edge_length]^2."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    side = math.sqrt(g.node_count) * ideal_edge_length
    return Layout(rng.uniform(0.0, side, size=(g.node_count, 2)))


def layout_circular(g: Graph, ideal_edge_length: float = 30.0) -> Layout:
    """Nodes in index order on a circle whose circumference gives
    neighboring nodes roughly one ideal edge length of spacing."""
    n = g.node_count
    if n == 0:
        return Layout(np.empty((0, 2)))
    radius = n * ideal_edge_length / (2.0 * math.pi)
    angles = 2.0 * math.pi * np.arange(n) / n
    return Layout(np.column_stack([radius * np.cos(angles), radius * np.sin(angles)]))


def _components(g: Graph) -> list[np.ndarray]:
    """Connected components as sorted node-index arrays, ordered by their
    smallest node id."""
    adj = g.adjacency()
    seen = np.zeros(g.node_count, dtype=bool)
    comps = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        members = [start]
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    members.append(u)
                    queue.append(u)
        comps.append(np.array(sorted(members), dtype=np.int64))
    return comps


def _pack_components(parts: list[np.ndarray], pad: float) -> list[np.ndarray]:
    """Translate per-component position blocks onto a padded grid.

    parts[i] is the (n_i, 2) position array of component i; returns the
    translated arrays as a list in the same order.
    """
    lo = [pos.min(axis=0) for pos in parts]
    cell = np.max([pos.max(axis=0) - low for pos, low in zip(parts, lo)], axis=0) + pad
    cols = max(1, math.ceil(math.sqrt(len(parts))))
    return [
        pos - low + np.array([i % cols, i // cols]) * cell
        for i, (pos, low) in enumerate(zip(parts, lo))
    ]


def _repulsion_exact(pos: np.ndarray, weight: np.ndarray, k: float) -> np.ndarray:
    """All-pairs repulsion sum_j f_ij (p_i - p_j), f_ij = k^2 w_i w_j / d_ij^2,
    as w_i (c_i (G @ w)_i - (G @ (w c))_i) with G = k^2 / max(d^2, 1e-8) on
    centred positions c; d^2 comes from exact coordinate differences.  G is
    zero on coincident pairs (the diagonal too): they exert no force, and a
    clamped k^2/1e-8 there would cancel badly in the subtraction."""
    c = pos - pos.mean(axis=0)
    x, y = c[:, 0], c[:, 1]
    g = np.subtract.outer(x, x)
    g *= g
    dy = np.subtract.outer(y, y)
    dy *= dy
    g += dy
    coincident = g == 0.0
    np.maximum(g, 1e-8, out=g)
    np.divide(k * k, g, out=g)
    g[coincident] = 0.0
    s = g @ np.column_stack([weight, weight[:, None] * c])
    return weight[:, None] * (c * s[:, :1] - s[:, 1:])


def _repulsion_grid(pos: np.ndarray, weight: np.ndarray, k: float) -> np.ndarray:
    """Bucketed repulsion with a cutoff at 2k; nodes beyond the cutoff do
    not interact.  Deterministic: cells are visited in sorted order."""
    cell = 2.0 * k
    keys = np.floor(pos / cell).astype(np.int64)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (cx, cy) in enumerate(keys):
        buckets.setdefault((int(cx), int(cy)), []).append(i)
    disp = np.zeros_like(pos)
    k2 = k * k
    cutoff2 = cell * cell
    for (cx, cy) in sorted(buckets):
        mine = np.array(buckets[(cx, cy)], dtype=np.int64)
        nbr: list[int] = []
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                nbr.extend(buckets.get((cx + ox, cy + oy), ()))
        other = np.array(nbr, dtype=np.int64)
        diff = pos[mine, None, :] - pos[other][None, :, :]
        d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
        far = d2 > cutoff2
        np.maximum(d2, 1e-8, out=d2)
        f = k2 / d2 * (weight[mine, None] * weight[other][None, :])
        f[far] = 0.0
        f[mine[:, None] == other[None, :]] = 0.0
        disp[mine] = (diff * f[:, :, None]).sum(axis=1)
    return disp


def _spring_iterate(
    pos: np.ndarray,
    edges: np.ndarray,
    edge_weight: np.ndarray,
    node_weight: np.ndarray,
    k: float,
    iterations: int,
    t0: float,
    cooling: float,
) -> np.ndarray:
    """Core spring-embedder loop; returns refined positions."""
    pos = pos.copy()
    n = len(pos)
    exact = n <= _EXACT_REPULSION_MAX_NODES
    t = t0
    for it in range(iterations):
        if exact:
            disp = _repulsion_exact(pos, node_weight, k)
        else:
            disp = _repulsion_grid(pos, node_weight, k)
        if len(edges):
            delta = pos[edges[:, 0]] - pos[edges[:, 1]]
            d = np.hypot(delta[:, 0], delta[:, 1])
            np.maximum(d, 1e-9, out=d)
            pull = delta * (edge_weight * d / k)[:, None]
            for axis in (0, 1):
                disp[:, axis] += np.bincount(edges[:, 1], pull[:, axis], n)
                disp[:, axis] -= np.bincount(edges[:, 0], pull[:, axis], n)
        norm = np.hypot(disp[:, 0], disp[:, 1])
        np.maximum(norm, 1e-12, out=norm)
        step = np.minimum(norm, t)
        pos += disp / norm[:, None] * step[:, None]
        if not np.isfinite(pos).all():
            raise LayoutError(f"force blowup at iteration {it}")
        t *= cooling
    return pos


def _layout_components(g: Graph, config: LayoutConfig, place) -> Layout:
    """Lay out each connected component with place(n_c, local_edges, seed),
    each with a seed spawned from config.seed, and pack them side by side."""
    n = g.node_count
    if n == 0:
        return Layout(np.empty((0, 2)))
    comps = _components(g)
    seeds = np.random.SeedSequence(config.seed).spawn(len(comps))
    E = g.edge_array()
    parts = []
    for comp, seed in zip(comps, seeds):
        local = np.full(n, -1, dtype=np.int64)
        local[comp] = np.arange(len(comp))
        keep = np.isin(E[:, 0], comp) if len(E) else np.zeros(0, dtype=bool)
        ce = local[E[keep]] if len(E) else np.empty((0, 2), dtype=np.int64)
        parts.append(place(len(comp), ce, seed))
    out = np.empty((n, 2))
    for comp, pos in zip(comps, _pack_components(parts, pad=config.ideal_edge_length)):
        out[comp] = pos
    return Layout(out)


def _spring_from_random(n, edges, edge_weight, node_weight, config, seed):
    """Seeded uniform start, then the full spring schedule; the ideal edge
    length grows with the square root of the mean node weight."""
    k = config.ideal_edge_length * math.sqrt(float(node_weight.mean()))
    rng = np.random.Generator(np.random.PCG64(seed))
    side = math.sqrt(n) * k
    pos = rng.uniform(0.0, side, size=(n, 2))
    if n > 1:
        pos = _spring_iterate(
            pos, edges, edge_weight, np.sqrt(node_weight), k, config.iterations,
            t0=0.1 * side, cooling=config.cooling,
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
    (n2, edges2, edge_weight2, node_weight2) and the fine-to-coarse map."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (a, b), w in zip(edges, edge_weight):
        adj[a].append((int(b), float(w)))
        adj[b].append((int(a), float(w)))
    mate = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if mate[v] >= 0:
            continue
        best, best_w = -1, -1.0
        for u, w in adj[v]:
            if mate[u] < 0 and u != v and (w > best_w or (w == best_w and u < best)):
                best, best_w = u, w
        if best >= 0:
            mate[v] = best
            mate[best] = v
        else:
            mate[v] = v
    # Coarse ids number the matched pairs by their smaller fine index.
    leaders, cid = np.unique(np.minimum(np.arange(n), mate), return_inverse=True)
    nxt = len(leaders)
    node_weight2 = np.bincount(cid, node_weight, nxt)
    ends = np.sort(cid[edges], axis=1)
    cross = ends[:, 0] != ends[:, 1]
    keys, inv = np.unique(ends[cross, 0] * nxt + ends[cross, 1], return_inverse=True)
    edges2 = np.column_stack([keys // nxt, keys % nxt])
    edge_weight2 = np.bincount(inv, edge_weight[cross], len(keys))
    return nxt, edges2, edge_weight2, node_weight2, cid


def _induced_coarse_length(pos, cid, coarse_edges):
    """Total coarse-edge length when each coarse node sits at the mean of
    its fine members."""
    counts = np.bincount(cid)
    centers = np.column_stack(
        [np.bincount(cid, pos[:, 0]) / counts, np.bincount(cid, pos[:, 1]) / counts]
    )
    if not len(coarse_edges):
        return 0.0
    delta = centers[coarse_edges[:, 0]] - centers[coarse_edges[:, 1]]
    return float(np.hypot(delta[:, 0], delta[:, 1]).sum())


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
    fine = pos[cid]
    fine[lo] += off
    fine[hi] -= off
    return fine


def _multilevel_positions(n, edges, config: LayoutConfig, seed) -> np.ndarray:
    """Multilevel layout of one connected component."""
    k = config.ideal_edge_length
    levels = []
    cur = (n, edges, np.ones(len(edges)), np.ones(n))
    maps = []
    while cur[0] > config.coarsen_threshold:
        n2, e2, ew2, nw2, cid = _coarsen(*cur)
        if n2 >= cur[0]:
            break
        levels.append(cur)
        maps.append(cid)
        cur = (n2, e2, ew2, nw2)

    pos = _spring_from_random(*cur, config, seed)

    refine_iters = max(50, config.iterations // 5)
    for (nf, ef, ewf, nwf), cid in zip(reversed(levels), reversed(maps)):
        coarse_edges = cur[1]
        fine = _interpolate(pos, cid, k)
        k_f = k * math.sqrt(float(nwf.mean()))
        before = _induced_coarse_length(fine, cid, coarse_edges)
        refined = _spring_iterate(
            fine, ef, ewf, np.sqrt(nwf), k_f, refine_iters,
            t0=0.6 * k_f, cooling=config.cooling,
        )
        after = _induced_coarse_length(refined, cid, coarse_edges)
        # Guardrail: refinement may not stretch the coarse structure by
        # more than 5%; revert to the interpolated positions if it does.
        if before > 0 and after > 1.05 * before:
            pos = fine
        else:
            pos = refined
        cur = (nf, ef, ewf, nwf)
    return pos


def layout_multilevel(g: Graph, config: LayoutConfig) -> Layout:
    """Matching-based coarsening plus spring refinement; components of at
    most coarsen_threshold nodes get the plain spring embedder unchanged."""
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
    if config.algorithm == "multilevel":
        return layout_multilevel(g, config)
    raise ValueError(f"unknown algorithm {config.algorithm!r}")
