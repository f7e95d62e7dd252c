"""Core types: graphs, layouts, render parameters, and result records.

All types are immutable after construction and safe to share between
threads.  Coordinates are abstract drawing units, not pixels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphError

_INT64_MAX = 2**63 - 1
# Most nodes for which every edge key, a two-digit code of _pack, fits int64.
_MAX_NODES = math.isqrt(_INT64_MAX)


def _pack(cols, base: int) -> list[np.ndarray]:
    """The int64 codes of k digit columns, digits below base and most
    significant first, in as few codes as hold them (a pair below
    _MAX_NODES is one), digits spread evenly: compared first code first,
    the codes order the rows as Python orders their digit tuples.  Every
    index tuple inka sorts or groups is coded by this one rule."""
    k = len(cols)
    fit = max([p for p in range(2, k + 1) if int(base) ** p <= _INT64_MAX], default=1)
    per, codes = math.ceil(k / math.ceil(k / fit)), []
    for g in range(0, k, per):
        codes.append(np.asarray(cols[g], dtype=np.int64))
        for d in cols[g + 1:g + per]:
            codes[-1] = codes[-1] * base + d
    return codes


def _unpack(codes, base: int, k: int) -> list[np.ndarray]:
    """The k digit columns that :func:`_pack` packed into codes."""
    per, cols = math.ceil(k / len(codes)), []
    for g in reversed(range(0, k, per)):
        code = codes[g // per]
        for _ in range(min(per, k - g) - 1):
            code, digit = np.divmod(code, base)
            cols.append(digit)
        cols.append(code)
    return cols[::-1]


def _value_eq(self, other):
    """Equality of two records of one type, field by field with
    np.array_equal, so records that hold arrays compare by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
               for f in fields(self))


def _shown(value, show=str) -> str:
    """show(value) for a refusal message, or a short description where that
    raises: an int past Python's 4,300-digit limit has no string."""
    try:
        return show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _is_number(value, integer: bool = False) -> bool:
    """Whether value is a real number (an integer where integer is set), not a bool."""
    kind = type(value)
    if kind is int or kind is float:  # most inputs: the numbers.Real test costs 10x
        return kind is int or not integer
    return (not isinstance(value, (bool, np.bool_))
            and isinstance(value, numbers.Integral if integer else numbers.Real))


def _number(value, what: str, integer: bool = False, error=ValueError):
    """The one rule for a numeric input: value, as a float unless integer is
    set, when :func:`_is_number` holds; else error naming what and value."""
    if not _is_number(value, integer):
        raise error(f"{what} must be {'an integer' if integer else 'a number'}, "
                    f"got {_shown(value, repr)}")
    try:
        return value if integer else float(value)
    except OverflowError:  # an int past the floats, like 1e400, rounds to inf
        return math.inf if value > 0 else -math.inf


def _positive(value: float, what: str) -> float:
    """value as a float when it is a finite number > 0, else ValueError naming it."""
    if not (math.isfinite(number := _number(value, what)) and number > 0):
        raise ValueError(f"{what} must be finite and > 0, got {_shown(value)}")
    return number


def _nonnegative(value: float, what: str) -> float:
    """value as a float when it is a finite number >= 0, else ValueError naming it."""
    if not (math.isfinite(number := _number(value, what)) and number >= 0):
        raise ValueError(f"{what} must be finite and >= 0, got {_shown(value)}")
    return number


# The ink model's counts, by parameter name; every other factor is a length.
_COUNTS = frozenset(("n", "m", "cr", "cr_full", "cr_partial"))


def _ink_factors(**factors) -> None:
    """The number rule for the ink model's factors, each passed by its
    parameter name: a count (n, m, cr, cr_full, cr_partial) must be an
    integer, a length (r, w, L, r_prime, w_prime) a number, and each finite
    and >= 0; else ValueError naming the first that is not."""
    for name, value in factors.items():
        if name in _COUNTS:
            _number(value, name, integer=True)
        _nonnegative(value, name)


def _squarable(sx: float, sy: float, what: str, error=ValueError) -> None:
    """error naming what unless sx^2 + sy^2 is finite (in Python floats: no
    warning).  The one coordinate rule: a box that squares bounds every
    orientation, squared distance and area inka forms from its points."""
    if not math.isfinite(sx * sx + sy * sy):
        raise error(f"{what} {sx!r} x {sy!r} is too large to square")


def _node_count(n) -> int:
    """n as an int when it is an integer (not a bool) in 0.._MAX_NODES,
    else GraphError naming it."""
    if not (_is_number(n, integer=True) and 0 <= n <= _MAX_NODES):
        raise GraphError(f"node_count must be an integer in 0..{_MAX_NODES}, "
                         f"got {_shown(n, repr)}")
    return int(n)


def _fraction(value: float, what: str) -> float:
    """value as a float when it is a number in (0, 1] (so not nan), else
    ValueError naming it: the density ceiling gamma, a retained fraction."""
    if not 0.0 < (number := _number(value, what)) <= 1.0:
        raise ValueError(f"{what} must be in (0, 1], got {_shown(value)}")
    return number


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..node_count-1.

    ``node_count`` is an integer (not a bool) in 0.._MAX_NODES, and
    ``edges`` a read-only (m, 2) int64 array of canonical rows: integral
    (2.0 passes; 0.7 and a bool do not), 0 <= lo < hi < node_count, strictly
    ascending.  The constructor converts, checks and freezes it, naming
    the bad count or the first bad row in a GraphError; :func:`build_graph`
    builds a graph from raw input.
    """

    node_count: int
    edges: np.ndarray
    __eq__ = _value_eq

    def __post_init__(self):
        n = _node_count(self.node_count)
        rows = np.asarray(self.edges).reshape(-1, 2)
        if rows.dtype.kind not in "iuf":  # a bool is never a number
            raise GraphError(f"edge rows must hold integers, got {rows.dtype} values")
        with np.errstate(invalid="ignore"):  # nan and out-of-range floats; flagged below
            edges = rows.astype(np.int64)
        lo, hi = edges.T
        bad = (lo != rows[:, 0]) | (hi != rows[:, 1]) | (lo < 0) | (lo >= hi) | (hi >= n)
        # a row not above the one before it: lo falls, or lo ties and hi does not rise
        bad[1:] |= (lo[1:] < lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] <= hi[:-1]))
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphError(f"edge row {i}: {tuple(rows[i].tolist())} is not canonical for "
                             f"{n} nodes (integers, 0 <= lo < hi < n, strictly ascending)")
        object.__setattr__(self, "node_count", n)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return self.node_count

    @property
    def m(self) -> int:
        return len(self.edges)


def _simple_graph(node_count: int, a, b) -> Graph:
    """The graph on node_count nodes (a checked count) of the in-range int64 pairs
    (a[i], b[i]) less self-loops, deduplicated by one sort of their keys (lo, hi)."""
    keep = a != b
    keys, = _pack([np.minimum(a, b)[keep], np.maximum(a, b)[keep]], node_count)
    # a sort, not np.unique: its first call in a process imports numpy.ma (14 ms)
    keys.sort()
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))  # each key once
    return Graph(node_count, np.column_stack(_unpack([keys], node_count, 2)))


def build_graph(node_count: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a simple undirected graph: each pair is checked here, and
    :func:`_simple_graph`, which the file readers share, deduplicates them.

    Rejects non-pairs, endpoints that are not integers (2.0 passes; 1.7,
    True and "1" do not), self-loops and out-of-range endpoints with a
    GraphError that names the offending edge index.
    """
    node_count = _node_count(node_count)
    ends = []
    for idx, pair in enumerate(edge_list):
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise GraphError(f"edge {idx}: expected a pair, got {_shown(pair, repr)}") from None
        try:
            ints = int(a), int(b)
        except (TypeError, ValueError, OverflowError):  # None, "ab", nan, inf
            ints = None
        # 1.7 converts to an unequal int, and True and "1" are not numbers; 2.0 passes
        if ints != (a, b) or not (_is_number(a) and _is_number(b)):
            raise GraphError(f"edge {idx}: endpoints must be integers, got {_shown(pair, repr)}")
        a, b = ints
        if a == b:
            raise GraphError(f"edge {idx}: self-loop at node {_shown(a)}")
        if not (0 <= a < node_count) or not (0 <= b < node_count):
            raise GraphError(
                f"edge {idx}: endpoint out of range for {node_count} nodes: "
                f"({_shown(a)}, {_shown(b)})"
            )
        ends += ints  # flat: np.array of tuples is slow
    return _simple_graph(node_count, *np.array(ends, dtype=np.int64).reshape(-1, 2).T)


def graph_density(g: Graph) -> float:
    """Edges per node, m/n.  Undefined (error) for an empty node set."""
    if g.node_count == 0:
        raise GraphError("graph density m/n is undefined for node_count == 0")
    return g.m / g.node_count


@dataclass(frozen=True)
class Layout:
    """Node positions: an (n, 2) float array, one row per node."""

    positions: np.ndarray
    __eq__ = _value_eq

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
        if pos.size and not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos = pos.copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def extent(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) as Python floats, 0s for no node; made once."""
        pos = self.positions
        return (*pos.min(0).tolist(), *pos.max(0).tolist()) if len(pos) else (0.0,) * 4


@dataclass(frozen=True)
class RenderParams:
    """Disk radius, edge width, and the density ceiling gamma."""

    radius: float
    width: float
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("radius", "width"):
            _nonnegative(getattr(self, name), name)
        _fraction(self.gamma, "gamma")


@dataclass(frozen=True)
class BoldDrawing:
    """A graph, its layout, and the rendering parameters.

    The drawn figure is the union of one disk of radius ``params.radius``
    per node and one rectangle of width ``params.width`` per edge.  Its box,
    the layout's extent widened by max(2r, w), must pass :func:`_squarable`.
    """

    graph: Graph
    layout: Layout
    params: RenderParams

    def __post_init__(self):
        if len(self.layout) != self.graph.node_count:
            raise ValueError(
                f"layout has {len(self.layout)} positions for "
                f"{self.graph.node_count} nodes"
            )
        xmin, ymin, xmax, ymax = self.layout.extent
        grow = max(2.0 * self.params.radius, self.params.width)
        _squarable(xmax - xmin + grow, ymax - ymin + grow, "drawing box")


@dataclass(frozen=True)
class DrawingMetrics:
    """Measured layout quantities the ink formulas consume."""

    total_edge_length: float
    crossings: int
    area: float
    edge_lengths: np.ndarray = field(repr=False)
    __eq__ = _value_eq

    def __post_init__(self):
        lengths = np.array(self.edge_lengths, dtype=np.float64)
        lengths.setflags(write=False)
        object.__setattr__(self, "edge_lengths", lengths)


@dataclass(frozen=True)
class InkReport:
    """Ink totals for one drawing plus the density/feasibility verdict."""

    ink_nodes: float
    ink_edges: float
    overlap: float
    ink_total: float
    density: float
    feasible: bool
