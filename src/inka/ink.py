"""The analytic ink model: totals, feasibility, bounds, and deltas.

A bold drawing spends ink on node disks (n * pi * r^2 each), on edge
rectangles (width w along the segment, minus the 2r hidden under the two
end disks), and saves roughly w^2 wherever two rectangles cross.  Every
function here is closed-form arithmetic over the measured quantities
(L, cr, A); geometry supplies those, this module never touches
coordinates.  Every total, density and budget verdict comes from
``ink_report``.  Every public function first passes its counts and
lengths through ``model._ink_factors``, so a bad factor is a ValueError
naming it.  A drawing of zero area (an empty graph, or all nodes on
one point with r = w = 0) has density 0.0 and is feasible iff its ink
is at most 0.

Two deliberate dualities run through the module:

* Per-edge clamping.  An edge shorter than 2r contributes no rectangle
  ink in reality, but the aggregate formula w*(L - 2mr) happily goes
  negative for it.  When per-edge lengths are available the edge term is
  clamped at zero per edge; ``strict=True`` forces the unclamped
  aggregate everywhere, which is what the bench report uses so each row
  stays recomputable from its own columns.
* Cited vs. exact deltas.  ``radius_delta_ink`` returns the commonly
  cited n*pi*(r'^2 - r^2), which ignores the -2mw(r' - r) change in the
  hidden-under-disk edge term; ``radius_delta_ink_exact`` includes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError
from .model import (
    BoldDrawing, DrawingMetrics, InkReport, _fraction, _ink_factors, _nonnegative, _number,
    _positive,
)

# Relative slack for the feasibility comparison, so a drawing sitting
# exactly on the ink budget (e.g. at a bound endpoint) still passes.
FEAS_REL = 1e-9


class Interval(NamedTuple):
    lo: float
    hi: float


class MinInkRadius(NamedTuple):
    radius: float
    ink_min: float | None


class PlanarFormulas(NamedTuple):
    ink: float
    width_bound: float | None
    max_total_length: float | None


class EqualLengthBounds(NamedTuple):
    length_interval: Interval
    crossing_bound: float | None


class PartialEdgeFormulas(NamedTuple):
    ink_partial: float
    necessity_holds: bool | None
    crossing_interval: Interval | None


@dataclass(frozen=True)
class BoundsReport:
    """Feasible parameter ranges for one drawing; None marks a bound that
    does not apply (or an infeasible configuration for that parameter)."""

    r_interval: Interval | None
    w_interval: Interval | None
    l_interval: Interval | None
    cr_bound: float | None
    planar_l_max: float | None


@dataclass(frozen=True)
class ClarityReport:
    """Ink split into what aids reading and what hampers it.

    Disk and rectangle ink carry structure; overlap ink is where two
    crossing rectangles become ambiguous.  The three terms recompose the
    drawing's total ink.
    """

    clarity_nodes: float
    clarity_edges: float
    ambiguity_overlap: float

    @property
    def total(self) -> float:
        return self.clarity_nodes + self.clarity_edges - self.ambiguity_overlap


def _finite(what: str, values, **factors):
    """values, or a ValueError naming what and the factors unless all are
    finite."""
    if not all(map(math.isfinite, values)):
        named = ", ".join(f"{k}={v}" for k, v in factors.items())
        raise ValueError(f"{what} not finite at {named}")
    return values


def ink_components(
    n: int,
    m: int,
    r: float,
    w: float,
    L: float,
    cr: int,
    edge_lengths=None,
) -> tuple[float, float, float]:
    """(disk ink, rectangle ink, crossing overlap) for the given factors.

    With edge_lengths provided, each rectangle term w*(l_e - 2r) is
    clamped at 0; otherwise the aggregate w*(L - 2mr) is used as is.
    """
    _ink_factors(n=n, m=m, r=r, w=w, L=L, cr=cr)
    ink_nodes = n * math.pi * r * r
    if edge_lengths is not None:
        visible = np.maximum(np.asarray(edge_lengths, dtype=np.float64) - 2.0 * r, 0.0)
        ink_edges = w * float(visible.sum())
    else:
        ink_edges = w * (L - 2.0 * m * r)
    overlap = w * w * cr
    return ink_nodes, ink_edges, overlap


def ink_report(
    n: int, m: int, r: float, w: float, L: float, cr: int, A: float,
    gamma: float = 1.0, edge_lengths=None,
) -> InkReport:
    """The ink terms, their total, density, and the area-budget verdict;
    the one place the terms are summed and feasibility is decided."""
    _fraction(gamma, "gamma")
    ink_nodes, ink_edges, overlap = ink_components(n, m, r, w, L, cr, edge_lengths)
    total = ink_nodes + ink_edges - overlap
    if _nonnegative(A, "area") > 0:
        dens, feasible = density(total, A), check_area_constraint(total, A, gamma)
    else:
        dens, feasible = 0.0, total <= 0
    _finite("ink or its density is", (total, dens), r=r, w=w, L=L, cr=cr, A=A)
    return InkReport(ink_nodes, ink_edges, overlap, total, dens, feasible)


def ink_total(d: BoldDrawing, metrics: DrawingMetrics, strict: bool = False) -> InkReport:
    """Full ink report for a drawing from its measured quantities.

    strict=True uses the aggregate rectangle term even when per-edge
    lengths are present in metrics, so the total is exactly
    n*pi*r^2 + w*(L - 2mr) - w^2*cr.
    """
    g, p = d.graph, d.params
    return ink_report(
        g.node_count, g.m, p.radius, p.width, metrics.total_edge_length,
        metrics.crossings, metrics.area, p.gamma,
        edge_lengths=None if strict else metrics.edge_lengths,
    )


def density(ink: float, A: float) -> float:
    """Ink per unit of drawing area."""
    _number(ink, "ink")
    return ink / _positive(A, "area")


def check_area_constraint(ink: float, A: float, gamma: float = 1.0) -> bool:
    """Does the ink fit the area budget, ink <= gamma * A?

    Boundary cases count as feasible; a 1e-9 relative slack keeps
    drawings constructed to sit exactly on the budget from flapping.
    """
    _number(ink, "ink")
    return ink <= _fraction(gamma, "gamma") * _positive(A, "area") * (1.0 + FEAS_REL)


def radius_bounds(
    n: int, m: int, w: float, L: float, cr: int, gamma: float, A: float
) -> Interval:
    """Disk radii keeping ink within the area budget, as a closed interval.

    Solves n*pi*r^2 + w*(L - 2mr) - w^2*cr <= gamma*A for r.  The
    discriminant-like quantity B = gamma*A - wL + w^2*cr + m^2 w^2/(pi n)
    must be non-negative; otherwise no radius fits the budget.
    """
    if _number(n, "n", integer=True) <= 0:
        raise ValueError("radius bounds need n > 0")
    _ink_factors(n=n, m=m, w=w, L=L, cr=cr)
    budget = _fraction(gamma, "gamma") * _nonnegative(A, "area")
    pin = math.pi * n
    B = budget - w * L + w * w * cr + m * w * (m * w) / pin
    _finite("radius bounds' discriminant is", (B,), n=n, m=m, w=w, L=L, cr=cr, gamma=gamma, A=A)
    if B < 0:
        raise InfeasibleError(
            f"no radius satisfies the density ceiling (budget shortfall {B:.6g})"
        )
    half = math.sqrt(B / pin)
    center = w * m / pin
    return Interval(max(0.0, center - half), center + half)


def width_bounds(
    n: int, m: int, r: float, L: float, cr: int, gamma: float, A: float
) -> Interval:
    """Edge widths w >= 0 keeping 0 <= ink <= gamma*A, as an interval.

    Both constraints are quadratics in w and are solved directly.  The
    returned interval is the one containing w = 0 (for cr > 0 the full
    solution set of the budget constraint can be a union; widths beyond
    the first budget violation are not reported).  The upper end is
    infinity when nothing caps the width, e.g. m = 0.
    """
    if _number(n, "n", integer=True) <= 0:
        raise ValueError("width bounds need n > 0")
    _ink_factors(n=n, m=m, r=r, L=L, cr=cr)
    budget = _fraction(gamma, "gamma") * _nonnegative(A, "area")
    ink_disks = n * math.pi * r * r
    if ink_disks > budget:
        raise InfeasibleError(
            f"disk ink alone ({ink_disks:.6g}) exceeds the budget ({budget:.6g})"
        )
    b = L - 2.0 * m * r
    head = budget - ink_disks
    # Budget side: cr*w^2 - b*w + head >= 0; non-negativity side:
    # -cr*w^2 + b*w + disks >= 0.
    if cr > 0:
        discs = (b * b - 4.0 * cr * head, b * b + 4.0 * cr * ink_disks)
        caps = [(b + math.sqrt(discs[1])) / (2.0 * cr)]
        if discs[0] >= 0 and (first := (b - math.sqrt(discs[0])) / (2.0 * cr)) >= 0:
            caps.append(first)
    else:
        discs, caps = (), [head / b] if b > 0 else [ink_disks / -b] if b < 0 else []
    _finite("width bounds or their discriminants are", (*discs, *caps),
            n=n, m=m, r=r, L=L, cr=cr, gamma=gamma, A=A)
    return Interval(0.0, min(caps) if caps else math.inf)


def min_ink_radius(
    n: int, m: int, w: float, L: float | None = None, cr: int | None = None
) -> MinInkRadius:
    """Ink-minimizing radius r* = w*(m/n)/pi, plus the minimum ink itself
    when L and cr are supplied."""
    if _number(n, "n", integer=True) <= 0:
        raise ValueError("minimum-ink radius needs n > 0")
    _ink_factors(n=n, m=m, w=w, **{k: v for k, v in (("L", L), ("cr", cr)) if v is not None})
    r_star = w * (m / n) / math.pi
    ink_min = None
    if L is not None and cr is not None:
        ink_min = w * L - w * w * cr - m * w * (m * w) / (math.pi * n)
    _finite("minimum-ink radius or ink is", (r_star, ink_min or 0.0), n=n, m=m, w=w, L=L, cr=cr)
    return MinInkRadius(r_star, ink_min)


def scale_ink_delta(w: float, L: float, sigma: float) -> float:
    """Ink change when node positions spread so every length multiplies
    by sigma while r and w stay fixed: w*(sigma - 1)*L.

    sigma is the length multiplier.  Crossings do not move relative to
    the edges, so the overlap term cancels in the difference.
    """
    _ink_factors(w=w, L=L)
    _positive(sigma, "length multiplier")
    return _finite("scale ink delta is", (w * (sigma - 1.0) * L,), w=w, L=L, sigma=sigma)[0]


def zoom_ink(ink: float, zeta: float) -> float:
    """Ink after magnifying the whole drawing by area factor zeta
    (all lengths, r, and w multiply by sqrt(zeta)): zeta * ink.

    Feasibility is preserved: ink and gamma*A scale by the same factor.
    """
    _number(ink, "ink")
    _positive(zeta, "area magnification")
    return _finite("zoomed ink is", (zeta * ink,), ink=ink, zeta=zeta)[0]


def planar_formulas(
    n: int, m: int, r: float, w: float, L: float, gamma: float, A: float
) -> PlanarFormulas:
    """Crossing-free specializations: ink, the width cap, and the longest
    total edge length a maximal planar graph (m = 3n - 6) can afford.

    width_bound is None when L - 2mr <= 0 (width is not budget-limited
    through this inequality); max_total_length is None when w == 0.
    """
    ink = ink_report(n, m, r, w, L, 0, A, gamma).ink_total
    b = L - 2.0 * m * r
    width_bound = (gamma * A - n * math.pi * r * r) / b if b > 0 else None
    l_max = None
    if w > 0:
        l_max = (gamma * A - 12.0 * r * w - n * (math.pi * r * r - 6.0 * w * r)) / w
    _finite("planar width bound or total length cap is", (width_bound or 0.0, l_max or 0.0),
            n=n, m=m, r=r, w=w, L=L, gamma=gamma, A=A)
    return PlanarFormulas(ink, width_bound, l_max)


def equal_length_bounds(
    n: int,
    m: int,
    w: float,
    cr: int,
    gamma: float,
    A: float,
    length: float | None = None,
) -> EqualLengthBounds:
    """Bounds for drawings whose edges all share one length l (r = 0 case).

    The common length must satisfy
    w*cr/m <= l <= gamma*A/(w*m) + w*cr/m; conversely, given l the
    crossing count is capped at m*l/w (crossing_bound is None without l).
    """
    if _number(m, "m", integer=True) <= 0 or _number(w, "w") <= 0:
        raise ValueError("equal-length bounds need m > 0 and w > 0")
    _ink_factors(n=n, m=m, w=w, cr=cr)
    hi = _fraction(gamma, "gamma") * _nonnegative(A, "area") / (w * m) + w * cr / m
    if length is not None:
        _positive(length, "edge length")
    lo = w * cr / m
    cr_bound = m * length / w if length is not None else None
    _finite("equal-length bounds are", (hi, cr_bound or 0.0),
            n=n, m=m, w=w, cr=cr, gamma=gamma, A=A, length=length)
    return EqualLengthBounds(Interval(lo, hi), cr_bound)


def partial_edge_formulas(
    n: int,
    m: int,
    r: float,
    w: float,
    L: float,
    p: float,
    cr_full: int,
    cr_partial: int,
    gamma: float,
    A: float,
) -> PartialEdgeFormulas:
    """Stub-drawing ink and the conditions under which stubs save ink.

    Keeping fraction p of every edge gives
    ink = n*pi*r^2 + w*(p*L - 2mr) - w^2*cr_partial.  The stub drawing
    cannot use more ink than the full one when the crossings removed,
    cr_full - cr_partial, stay within (1 - p)*L/w.  The stub crossing
    count itself is bracketed by p*L/w - gamma*A/w^2 and p*L/w (the lower
    end only binds when positive, counts being non-negative anyway).
    Condition and bracket are None when w == 0, the bracket also when
    an end of it is not finite.
    """
    _ink_factors(n=n, m=m, r=r, w=w, L=L, cr_full=cr_full, cr_partial=cr_partial)
    _fraction(p, "retained fraction")
    ink_partial = ink_report(n, m, r, w, p * L, cr_partial, A, gamma).ink_total
    if w == 0:
        return PartialEdgeFormulas(ink_partial, None, None)
    necessity = (cr_full - cr_partial) <= (1.0 - p) * L / w
    # w divides twice only where w * w underflows to 0 (w below about 1e-162)
    budget = gamma * A / (w * w) if w * w else gamma * A / w / w
    interval = Interval(p * L / w - budget, p * L / w)
    if not all(map(math.isfinite, interval)):
        interval = None
    return PartialEdgeFormulas(ink_partial, necessity, interval)


def clarity_decomposition(
    d: BoldDrawing, metrics: DrawingMetrics, strict: bool = False
) -> ClarityReport:
    """Reinterpret the ink components as clarity vs. ambiguity.

    Same arithmetic as the ink report (same clamping mode), so the
    decomposition always recomposes to the drawing's total ink.
    """
    report = ink_total(d, metrics, strict)
    return ClarityReport(report.ink_nodes, report.ink_edges, report.overlap)


def width_delta_ink(
    w: float, w_prime: float, L: float, m: int, r: float, cr: int
) -> float:
    """Ink change from re-drawing the same layout with width w' instead
    of w: (w' - w) * [L - 2mr - (w + w')*cr].

    Zero whenever L - 2mr equals (w + w')*cr, not only at w == w'.
    """
    _ink_factors(w=w, w_prime=w_prime, L=L, m=m, r=r, cr=cr)
    delta = (w_prime - w) * (L - 2.0 * m * r - (w + w_prime) * cr)
    return _finite("width ink delta is", (delta,), w=w, w_prime=w_prime, L=L, m=m, r=r, cr=cr)[0]


def radius_delta_ink(n: int, r: float, r_prime: float) -> float:
    """Commonly cited ink change for a radius change: n*pi*(r'^2 - r^2).

    This counts only the disk term.  The full difference also loses
    2mw(r' - r) of rectangle ink to the larger disks; see
    radius_delta_ink_exact for the version including it.
    """
    _ink_factors(n=n, r=r, r_prime=r_prime)
    delta = n * math.pi * (r_prime * r_prime - r * r)
    return _finite("radius ink delta is", (delta,), n=n, r=r, r_prime=r_prime)[0]


def radius_delta_ink_exact(
    n: int, m: int, w: float, r: float, r_prime: float
) -> float:
    """Exact ink change for a radius change at fixed layout and width:
    n*pi*(r'^2 - r^2) - 2mw(r' - r)."""
    _ink_factors(n=n, m=m, w=w, r=r, r_prime=r_prime)
    delta = radius_delta_ink(n, r, r_prime) - 2.0 * m * w * (r_prime - r)
    return _finite("exact radius ink delta is", (delta,), n=n, m=m, w=w, r=r, r_prime=r_prime)[0]


def bounds_report(
    n: int,
    m: int,
    r: float,
    w: float,
    L: float,
    cr: int,
    gamma: float,
    A: float,
    equal_length: float | None = None,
) -> BoundsReport:
    """All applicable parameter bounds for one measured drawing.

    Individually infeasible, inapplicable or not finite bounds come back
    as None rather than aborting the report; l_interval and cr_bound, or
    planar_l_max, are None when any result of their formula is not finite.
    """
    _ink_factors(n=n, m=m, r=r, w=w, L=L, cr=cr)
    _fraction(gamma, "gamma"), _nonnegative(A, "area")
    if equal_length is not None:
        _positive(equal_length, "edge length")

    def bound(solve, *args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except ValueError:  # the inputs are checked: infeasible, or not finite
            return None

    r_iv = w_iv = None
    if n > 0:
        r_iv = bound(radius_bounds, n, m, w, L, cr, gamma, A)
        w_iv = bound(width_bounds, n, m, r, L, cr, gamma, A)
    eq = None
    if m > 0 and w > 0:
        eq = bound(equal_length_bounds, n, m, w, cr, gamma, A, length=equal_length)
    l_iv, cr_cap = eq or (None, None)
    planar = bound(planar_formulas, n, m, r, w, L, gamma, A)
    planar_l_max = planar and planar.max_total_length
    return BoundsReport(
        r_interval=r_iv,
        w_interval=w_iv,
        l_interval=l_iv,
        cr_bound=cr_cap,
        planar_l_max=planar_l_max,
    )
