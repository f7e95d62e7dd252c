import json
import math
import re

import numpy as np
import pytest

from conftest import bold
from inka import (
    BenchConfig,
    BenchGraph,
    InfeasibleError,
    LayoutConfig,
    RenderParams,
    bounds_report,
    check_area_constraint,
    clarity_decomposition,
    density,
    equal_length_bounds,
    ink_components,
    ink_report,
    ink_total,
    measure,
    min_ink_radius,
    partial_edge_formulas,
    planar_formulas,
    radius_bounds,
    radius_delta_ink,
    radius_delta_ink_exact,
    run_bench,
    scale_ink_delta,
    width_bounds,
    width_delta_ink,
    write_edge_list,
    write_layout_csv,
    zoom_ink,
)
from inka.cli import main


def direct_ink(n, m, r, w, L, cr):
    return n * math.pi * r * r + w * (L - 2.0 * m * r) - w * w * cr


def random_factor_tuple(rng):
    n = int(rng.integers(1, 50))
    m = int(rng.integers(0, 3 * n))
    r = float(rng.uniform(0.0, 2.0))
    w = float(rng.uniform(0.0, 2.0))
    L = float(rng.uniform(0.0, 500.0))
    cr = int(rng.integers(0, 100))
    gamma = float(rng.uniform(0.3, 1.0))
    A = float(rng.uniform(10.0, 2000.0))
    return n, m, r, w, L, cr, gamma, A


def test_ink_components_degenerate_factors():
    assert ink_components(5, 0, 0.0, 0.0, 0.0, 0) == (0.0, 0.0, 0.0)
    nodes, edges, overlap = ink_components(5, 2, 1.0, 0.0, 10.0, 3)
    assert nodes == pytest.approx(5 * math.pi)
    assert edges == 0.0
    assert overlap == 0.0
    nodes, edges, overlap = ink_components(5, 2, 0.0, 0.5, 10.0, 3)
    assert nodes == 0.0
    assert edges == pytest.approx(5.0)
    assert overlap == pytest.approx(0.75)


def test_ink_components_per_edge_clamping():
    # one edge of length 1 with r = 1: aggregate term goes negative,
    # per-edge clamping floors it at zero
    _, agg, _ = ink_components(2, 1, 1.0, 0.5, 1.0, 0)
    assert agg == pytest.approx(-0.5)
    _, clamped, _ = ink_components(2, 1, 1.0, 0.5, 1.0, 0, edge_lengths=[1.0])
    assert clamped == 0.0


def test_ink_total_matches_direct_formula(diagonal_drawing):
    metrics = measure(diagonal_drawing)
    report = ink_total(diagonal_drawing, metrics, strict=True)
    L = metrics.total_edge_length
    expected = direct_ink(4, 2, 1.0, 0.1, L, 1)
    assert report.ink_total == pytest.approx(expected)
    assert report.density == pytest.approx(expected / metrics.area)
    assert report.feasible


def test_ink_total_strict_vs_clamped_agree_on_long_edges(parallel_drawing):
    metrics = measure(parallel_drawing)
    loose = ink_total(parallel_drawing, metrics)
    strict = ink_total(parallel_drawing, metrics, strict=True)
    # every edge is longer than 2r here, so clamping never kicks in
    assert loose.ink_total == strict.ink_total


def test_ink_decreases_with_crossings():
    inks = [direct_ink(6, 4, 0.5, 0.4, 40.0, cr) for cr in range(5)]
    assert all(a > b for a, b in zip(inks, inks[1:]))


def test_check_area_constraint_boundary():
    assert check_area_constraint(100.0, 100.0, gamma=1.0)
    assert check_area_constraint(50.0, 100.0, gamma=0.5)
    assert not check_area_constraint(100.1, 100.0, gamma=1.0)
    with pytest.raises(ValueError):
        check_area_constraint(1.0, 0.0)


def test_density_guard():
    assert density(5.0, 50.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        density(5.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
def test_areas_must_be_finite_and_non_negative(bad):
    # n, m, r, w, L, cr, gamma of a small drawing; the area is the only bad input
    n, m, r, w, L, cr, gamma = 4, 2, 1.0, 0.1, 20.0, 1, 1.0
    message = "area must be finite and >= 0"
    for call in (
        lambda: ink_report(n, m, r, w, L, cr, bad),
        lambda: radius_bounds(n, m, w, L, cr, gamma, bad),
        lambda: width_bounds(n, m, r, L, cr, gamma, bad),
        lambda: equal_length_bounds(n, m, w, cr, gamma, bad),
        lambda: planar_formulas(n, m, r, w, L, gamma, bad),
        lambda: partial_edge_formulas(n, m, r, w, L, 0.5, cr, 0, gamma, bad),
        lambda: bounds_report(n, m, r, w, L, cr, gamma, bad),
        lambda: bounds_report(0, 0, r, w, 0.0, 0, gamma, bad),  # no bound applies
    ):
        with pytest.raises(ValueError, match=message):
            call()
    for call in (density, check_area_constraint):
        with pytest.raises(ValueError, match="area must be finite and > 0"):
            call(1.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, 1.5])
def test_gamma_must_be_in_unit_interval(bad):
    # n, m, r, w, L, cr, A of a small drawing; gamma is the only bad input
    n, m, r, w, L, cr, A = 4, 2, 1.0, 0.1, 20.0, 1, 10.0
    for call in (
        lambda: ink_report(n, m, r, w, L, cr, A, bad),
        lambda: ink_report(0, 0, r, w, 0.0, 0, 0.0, bad),  # zero area: gamma unused
        lambda: check_area_constraint(1.0, A, bad),
        lambda: radius_bounds(n, m, w, L, cr, bad, A),
        lambda: width_bounds(n, m, r, L, cr, bad, A),
        lambda: equal_length_bounds(n, m, w, cr, bad, A),
        lambda: planar_formulas(n, m, r, w, L, bad, A),
        lambda: partial_edge_formulas(n, m, r, w, L, 0.5, cr, 0, bad, A),
        lambda: bounds_report(n, m, r, w, L, cr, bad, A),
        lambda: bounds_report(0, 0, r, w, 0.0, 0, bad, A),  # no bound applies
        lambda: RenderParams(r, w, bad),
    ):
        with pytest.raises(ValueError, match=r"gamma must be in \(0, 1\]"):
            call()


def test_ink_that_is_not_finite_names_the_inputs():
    # a density over a subnormal area, and an overlap term that overflows
    for args in ((4, 2, 1.0, 1.0, 28.0, 1, 5e-324), (4, 2, 0.0, 1e200, 28.0, 1, 1.0),
                 (4, 2, 1e200, 1e200, 28.0, 1, 0.0)):
        n, m, r, w, L, cr, A = args
        with pytest.raises(ValueError, match=re.escape(
                f"ink or its density is not finite at r={r}, w={w}, L={L}, cr={cr}, A={A}")):
            ink_report(*args)


def test_bounds_at_extreme_widths_raise_nothing():
    # w * w underflows at w = 5e-324; where (m w)^2 overflows, at w = 1e200,
    # the bounds are not finite and name their inputs (the test below)
    r_iv = radius_bounds(4, 2, 5e-324, 28.0, 1, 1.0, 100.0)
    assert r_iv == (0.0, math.sqrt(100.0 / (4 * math.pi)))
    assert min_ink_radius(4, 2, 5e-324, 28.0, 1).ink_min == 28.0 * 5e-324
    # p L / w and gamma A / w^2 overflow, so the bracket is (inf - inf, inf)
    f = partial_edge_formulas(4, 2, 1.0, 5e-324, 28.0, 0.5, 1, 0, 1.0, 100.0)
    assert f.crossing_interval is None
    assert f.necessity_holds and math.isfinite(f.ink_partial)


@pytest.mark.parametrize("call, message", [
    # B = budget - w L + w^2 cr + (m w)^2 / (pi n) is inf - inf, or inf
    (lambda: radius_bounds(2, 1, 1e200, 1e200, 0, 1.0, 100.0),
     "radius bounds' discriminant is not finite at n=2, m=1, w=1e+200, L=1e+200, cr=0, "
     "gamma=1.0, A=100.0"),
    (lambda: radius_bounds(4, 2, 1e200, 28.0, 1, 1.0, 100.0),
     "radius bounds' discriminant is not finite at n=4, m=2, w=1e+200, L=28.0, cr=1, "
     "gamma=1.0, A=100.0"),
    # w L - w^2 cr - (m w)^2 / (pi n) is inf - inf, or -inf
    (lambda: min_ink_radius(2, 1, 1e308, 1e308, 10**300),
     f"minimum-ink radius or ink is not finite at n=2, m=1, w=1e+308, L=1e+308, "
     f"cr={10**300}"),
    (lambda: min_ink_radius(4, 2, 1e200, 28.0, 1),
     "minimum-ink radius or ink is not finite at n=4, m=2, w=1e+200, L=28.0, cr=1"),
    (lambda: min_ink_radius(2, 10**300, 1e300),
     f"minimum-ink radius or ink is not finite at n=2, m={10**300}, w=1e+300, L=None, "
     f"cr=None"),
    # b^2 overflows, so the first root of the budget side, near 1e-298,
    # was -inf and dropped, leaving w unbounded
    (lambda: width_bounds(2, 1, 0.0, 1e300, 10**300, 1.0, 100.0),
     f"width bounds or their discriminants are not finite at n=2, m=1, r=0.0, L=1e+300, "
     f"cr={10**300}, gamma=1.0, A=100.0"),
    # head / b overflows with no crossings
    (lambda: width_bounds(2, 1, 0.0, 5e-324, 0, 1.0, 100.0),
     "width bounds or their discriminants are not finite at n=2, m=1, r=0.0, L=5e-324, "
     "cr=0, gamma=1.0, A=100.0"),
    # (gamma A - n pi r^2) / b, gamma A / (w m) and m l / w overflow
    (lambda: planar_formulas(2, 1, 0.0, 1.0, 5e-324, 1.0, 100.0),
     "planar width bound or total length cap is not finite at n=2, m=1, r=0.0, w=1.0, "
     "L=5e-324, gamma=1.0, A=100.0"),
    (lambda: equal_length_bounds(2, 1, 5e-324, 0, 1.0, 100.0),
     "equal-length bounds are not finite at n=2, m=1, w=5e-324, cr=0, gamma=1.0, A=100.0, "
     "length=None"),
    (lambda: equal_length_bounds(2, 1, 1e-300, 0, 1.0, 100.0, length=1e300),
     "equal-length bounds are not finite at n=2, m=1, w=1e-300, cr=0, gamma=1.0, A=100.0, "
     "length=1e+300"),
    # the deltas: inf - inf, a product past 1.8e308, or the cited delta's inf
    (lambda: radius_delta_ink_exact(2, 1, 1e300, 0.0, 1e300),
     "radius ink delta is not finite at n=2, r=0.0, r_prime=1e+300"),
    (lambda: radius_delta_ink_exact(2, 1, 1e300, 0.0, 1e10),
     "exact radius ink delta is not finite at n=2, m=1, w=1e+300, r=0.0, r_prime=10000000000.0"),
    (lambda: radius_delta_ink(2, 0.0, 1e200),
     "radius ink delta is not finite at n=2, r=0.0, r_prime=1e+200"),
    (lambda: width_delta_ink(1e200, 1.1e200, 1.0, 1, 0.0, 10**10),
     "width ink delta is not finite at w=1e+200, w_prime=1.1e+200, L=1.0, m=1, r=0.0, "
     "cr=10000000000"),
    (lambda: scale_ink_delta(1e200, 1e200, 2.0),
     "scale ink delta is not finite at w=1e+200, L=1e+200, sigma=2.0"),
    (lambda: zoom_ink(1e300, 1e300), "zoomed ink is not finite at ink=1e+300, zeta=1e+300"),
])
def test_bounds_that_are_not_finite_name_the_inputs(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_bounds_report_leaves_out_a_bound_that_is_not_finite():
    # the width bound's discriminant overflows; the radius bound is finite
    got = bounds_report(2, 1, 0.0, 0.0, 1e300, 10**300, 1.0, 100.0)
    assert got.w_interval is None
    assert got.r_interval == radius_bounds(2, 1, 0.0, 1e300, 10**300, 1.0, 100.0)
    # gamma A / (w m) and the planar length cap overflow at w = 5e-324
    got = bounds_report(2, 1, 0.0, 5e-324, 1e-300, 0, 1.0, 100.0)
    assert got.l_interval is None and got.cr_bound is None and got.planar_l_max is None
    assert got.r_interval == radius_bounds(2, 1, 5e-324, 1e-300, 0, 1.0, 100.0)
    assert got.w_interval == width_bounds(2, 1, 0.0, 1e-300, 0, 1.0, 100.0)


def test_zero_area_keeps_working_in_the_bounds():
    # a zero area is the zero-area rule's, not a bad input
    got = bounds_report(4, 2, 0.0, 0.0, 20.0, 1, 1.0, 0.0)
    assert got.r_interval == (0.0, 0.0)
    assert got.w_interval == (0.0, 0.0)
    assert width_bounds(4, 2, 0.0, 20.0, 1, 1.0, 0.0) == (0.0, 0.0)


def test_radius_bounds_zero_width():
    # without edges the budget is n*pi*r^2 <= gamma*A
    lo, hi = radius_bounds(9, 0, 0.0, 0.0, 0, 1.0, 90.0)
    assert lo == 0.0
    assert hi == pytest.approx(math.sqrt(90.0 / (9 * math.pi)))


def test_radius_bounds_endpoints_hit_budget():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m, r, w, L, cr, gamma, A = random_factor_tuple(rng)
        try:
            lo, hi = radius_bounds(n, m, w, L, cr, gamma, A)
        except InfeasibleError:
            continue
        budget = gamma * A
        # hi always sits exactly on the budget; lo does too unless clamped at 0
        assert direct_ink(n, m, hi, w, L, cr) == pytest.approx(budget, rel=1e-9, abs=1e-6)
        if lo > 0:
            assert direct_ink(n, m, lo, w, L, cr) == pytest.approx(budget, rel=1e-9, abs=1e-6)


def test_radius_bounds_against_grid_search():
    rng = np.random.default_rng(11)
    step = 1e-4
    for _ in range(25):
        n, m, r, w, L, cr, gamma, A = random_factor_tuple(rng)
        vertex = w * m / (math.pi * n)
        grid = np.arange(0.0, 2.0 * vertex + 5.0, step)
        ink = n * math.pi * grid * grid + w * (L - 2.0 * m * grid) - w * w * cr
        feasible = ink <= gamma * A + 1e-9
        try:
            lo, hi = radius_bounds(n, m, w, L, cr, gamma, A)
        except InfeasibleError:
            assert not feasible.any()
            continue
        good = grid[feasible]
        assert good.size > 0
        assert good.min() >= lo - step
        assert good.max() <= min(hi, grid[-1]) + step
        inside = grid[(grid >= lo + step) & (grid <= hi - step)]
        assert feasible[np.isin(grid, inside)].all()


def test_radius_bounds_infeasible():
    # heavy edge ink, tiny budget
    with pytest.raises(InfeasibleError):
        radius_bounds(2, 1, 1.0, 100.0, 0, 0.1, 1.0)
    with pytest.raises(ValueError):
        radius_bounds(0, 0, 0.0, 0.0, 0, 1.0, 1.0)


def test_width_bounds_simple_cases():
    # m = 0: nothing depends on w
    assert width_bounds(4, 0, 1.0, 0.0, 0, 1.0, 100.0) == (0.0, math.inf)
    # r = 0, cr = 0: budget caps at gamma*A / L
    lo, hi = width_bounds(4, 2, 0.0, 20.0, 0, 1.0, 100.0)
    assert (lo, hi) == (0.0, pytest.approx(5.0))


def test_width_bounds_and_min_ink_radius_need_nodes():
    for n in (0, -1):
        with pytest.raises(ValueError, match="^width bounds need n > 0$"):
            width_bounds(n, 0, 1.0, 0.0, 0, 1.0, 100.0)
        with pytest.raises(ValueError, match="^minimum-ink radius needs n > 0$"):
            min_ink_radius(n, 0, 1.0)


def test_width_bounds_cap_where_disks_outgrow_the_edges():
    # no crossings and L < 2mr: the edge term w (L - 2mr) is negative, so
    # ink 2 pi - w stays >= 0 up to w = 2 pi
    assert width_bounds(2, 1, 1.0, 1.0, 0, 1.0, 100.0) == (0.0, 2.0 * math.pi)


def test_width_bounds_disks_exceed_budget():
    with pytest.raises(InfeasibleError):
        width_bounds(10, 5, 2.0, 50.0, 0, 0.5, 10.0)


def test_width_bounds_cap_sits_on_a_constraint():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, m, r, w, L, cr, gamma, A = random_factor_tuple(rng)
        try:
            lo, hi = width_bounds(n, m, r, L, cr, gamma, A)
        except InfeasibleError:
            assert n * math.pi * r * r > gamma * A
            continue
        assert lo == 0.0
        if math.isinf(hi):
            continue
        # the cap makes one of the two constraints active: ink == gamma*A
        # (budget) or ink == 0 (non-negativity)
        ink_hi = direct_ink(n, m, r, hi, L, cr)
        on_budget = abs(ink_hi - gamma * A) <= 1e-6 * max(1.0, gamma * A)
        on_floor = abs(ink_hi) <= 1e-6 * max(1.0, n * math.pi * r * r)
        assert on_budget or on_floor


def test_width_bounds_against_grid_search():
    rng = np.random.default_rng(17)
    step = 1e-4
    for _ in range(25):
        n, m, r, w, L, cr, gamma, A = random_factor_tuple(rng)
        try:
            lo, hi = width_bounds(n, m, r, L, cr, gamma, A)
        except InfeasibleError:
            continue
        span = 20.0 if math.isinf(hi) else hi * 1.5 + 1.0
        grid = np.arange(0.0, span, step)
        ink = (
            n * math.pi * r * r
            + grid * (L - 2.0 * m * r)
            - grid * grid * cr
        )
        feasible = (ink >= -1e-9) & (ink <= gamma * A + 1e-9)
        assert feasible[0]
        # the first break in feasibility from w = 0 matches the cap
        breaks = np.nonzero(~feasible)[0]
        if math.isinf(hi):
            assert breaks.size == 0
        else:
            assert breaks.size > 0
            transition = grid[breaks[0]]
            assert abs(transition - hi) <= 2 * step


def test_min_ink_radius_formula_and_grid():
    rng = np.random.default_rng(23)
    step = 1e-4
    for _ in range(20):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 3 * n))
        w = float(rng.uniform(0.01, 2.0))
        L = float(rng.uniform(1.0, 300.0))
        cr = int(rng.integers(0, 50))
        r_star, ink_min = min_ink_radius(n, m, w, L=L, cr=cr)
        assert r_star == pytest.approx(w * (m / n) / math.pi)
        assert ink_min == pytest.approx(direct_ink(n, m, r_star, w, L, cr), rel=1e-9, abs=1e-9)
        grid = np.arange(0.0, 2.0 * r_star + 1.0, step)
        ink = n * math.pi * grid * grid + w * (L - 2.0 * m * grid) - w * w * cr
        assert abs(grid[np.argmin(ink)] - r_star) <= 1e-3


def test_min_ink_radius_without_optional_terms():
    got = min_ink_radius(10, 20, 0.5)
    assert got.radius == pytest.approx(0.5 * 2.0 / math.pi)
    assert got.ink_min is None


def test_scale_ink_delta():
    assert scale_ink_delta(0.5, 100.0, 1.0) == 0.0
    assert scale_ink_delta(0.5, 100.0, 2.0) == pytest.approx(50.0)
    assert scale_ink_delta(0.5, 100.0, 0.5) == pytest.approx(-25.0)
    with pytest.raises(ValueError):
        scale_ink_delta(0.5, 100.0, 0.0)


def test_zoom_ink():
    assert zoom_ink(14.0, 4.0) == pytest.approx(56.0)
    assert zoom_ink(14.0, 0.25) == pytest.approx(3.5)
    with pytest.raises(ValueError):
        zoom_ink(14.0, -1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_closed_form_factors_must_be_finite_and_positive(bad):
    # the same rule as scale_layout and zoom_drawing
    with pytest.raises(ValueError, match="length multiplier must be finite and > 0"):
        scale_ink_delta(1.0, 10.0, bad)
    with pytest.raises(ValueError, match="area magnification must be finite and > 0"):
        zoom_ink(5.0, bad)


def test_planar_formulas_consistency():
    n, r, w, gamma, A = 30, 0.8, 0.3, 1.0, 5000.0
    m = 3 * n - 6
    L = 200.0
    got = planar_formulas(n, m, r, w, L, gamma, A)
    assert got.ink == pytest.approx(n * math.pi * r * r + w * (L - 2 * m * r))
    # the width bound saturates the budget
    assert got.width_bound is not None
    ink_at_bound = n * math.pi * r * r + got.width_bound * (L - 2 * m * r)
    assert ink_at_bound == pytest.approx(gamma * A)
    # the length cap saturates the budget for a maximal planar graph
    ink_at_lmax = n * math.pi * r * r + w * (got.max_total_length - 2 * m * r)
    assert ink_at_lmax == pytest.approx(gamma * A)


def test_planar_formulas_inapplicable_pieces():
    got = planar_formulas(4, 2, 2.0, 0.0, 1.0, 1.0, 100.0)
    assert got.width_bound is None  # L - 2mr < 0
    assert got.max_total_length is None  # w == 0


def test_equal_length_bounds_saturate():
    n, m, w, cr, gamma, A = 20, 10, 1.0, 6, 1.0, 400.0
    got = equal_length_bounds(n, m, w, cr, gamma, A)
    lo, hi = got.length_interval
    # at the lower end the r = 0 ink is exactly zero
    assert w * (m * lo) - w * w * cr == pytest.approx(0.0, abs=1e-9)
    # at the upper end it exactly meets the budget
    assert w * (m * hi) - w * w * cr == pytest.approx(gamma * A)
    assert got.crossing_bound is None


def test_equal_length_crossing_cap():
    got = equal_length_bounds(20, 10, 1.0, 0, 1.0, 400.0, length=5.0)
    assert got.crossing_bound == pytest.approx(50.0)
    with pytest.raises(ValueError):
        equal_length_bounds(20, 0, 1.0, 0, 1.0, 400.0)
    with pytest.raises(ValueError):
        equal_length_bounds(20, 10, 0.0, 0, 1.0, 400.0)
    for length in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="edge length must be finite and > 0"):
            equal_length_bounds(20, 10, 1.0, 0, 1.0, 400.0, length=length)


def test_partial_edge_formulas_full_fraction_is_identity():
    n, m, r, w, L = 6, 5, 0.5, 0.2, 60.0
    full = direct_ink(n, m, r, w, L, 4)
    got = partial_edge_formulas(n, m, r, w, L, 1.0, 4, 4, 1.0, 500.0)
    assert got.ink_partial == full
    assert got.necessity_holds
    lo, hi = got.crossing_interval
    assert hi == pytest.approx(L / w)
    assert hi - lo == pytest.approx(500.0 / (w * w))


def test_partial_edge_formulas_zero_width():
    got = partial_edge_formulas(6, 5, 0.5, 0.0, 60.0, 0.5, 4, 1, 1.0, 500.0)
    assert got.necessity_holds is None
    assert got.crossing_interval is None


def test_partial_edge_formulas_rejects_bad_fraction():
    for p in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError):
            partial_edge_formulas(6, 5, 0.5, 0.2, 60.0, p, 4, 1, 1.0, 500.0)


def test_clarity_recomposes_to_ink(diagonal_drawing):
    metrics = measure(diagonal_drawing)
    report = ink_total(diagonal_drawing, metrics)
    clarity = clarity_decomposition(diagonal_drawing, metrics)
    assert clarity.total == pytest.approx(report.ink_total)
    assert clarity.clarity_nodes == report.ink_nodes
    assert clarity.ambiguity_overlap == report.overlap


def test_width_delta_matches_direct_difference():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n, m, r, w, L, cr, _, _ = random_factor_tuple(rng)
        w2 = float(rng.uniform(0.0, 2.0))
        delta = width_delta_ink(w, w2, L, m, r, cr)
        direct = direct_ink(n, m, r, w2, L, cr) - direct_ink(n, m, r, w, L, cr)
        scale = max(1.0, abs(direct_ink(n, m, r, w, L, cr)))
        assert abs(delta - direct) <= 1e-12 * scale


def test_radius_delta_variants():
    n, m, w, r, r2 = 10, 30, 0.5, 1.0, 1.5
    cited = radius_delta_ink(n, r, r2)
    exact = radius_delta_ink_exact(n, m, w, r, r2)
    assert cited == pytest.approx(n * math.pi * (r2 * r2 - r * r))
    assert cited - exact == pytest.approx(2 * m * w * (r2 - r))
    # exact variant matches the direct difference at any L, cr
    L, cr = 321.0, 7
    direct = direct_ink(n, m, r2, w, L, cr) - direct_ink(n, m, r, w, L, cr)
    assert exact == pytest.approx(direct, rel=1e-12, abs=1e-9)


def test_bounds_report_collects_everything():
    got = bounds_report(10, 15, 0.5, 0.2, 80.0, 3, 1.0, 900.0, equal_length=6.0)
    assert got.r_interval is not None
    assert got.w_interval is not None
    assert got.l_interval is not None
    assert got.cr_bound == pytest.approx(15 * 6.0 / 0.2)
    assert got.planar_l_max is not None


def test_bounds_report_degrades_to_none():
    # budget too small for the disks alone: width bound gone, radius bound gone
    got = bounds_report(10, 15, 2.0, 1.0, 500.0, 3, 0.1, 10.0)
    assert got.r_interval is None
    assert got.w_interval is None


@pytest.mark.parametrize("equal_length", [None, 6.0])
@pytest.mark.parametrize("n, m, w, missing", [
    (0, 0, 0.2, {"r_interval", "w_interval", "l_interval"}),
    (0, 15, 0.2, {"r_interval", "w_interval"}),
    (10, 0, 0.2, {"l_interval"}),
    (10, 15, 0.0, {"l_interval", "planar_l_max"}),
    (0, 0, 0.0, {"r_interval", "w_interval", "l_interval", "planar_l_max"}),
    (10, 15, 0.2, set()),
])
def test_bounds_report_leaves_out_exactly_the_bounds_that_do_not_apply(n, m, w, missing,
                                                                       equal_length):
    # radius and width bounds need n > 0, the equal-length bounds m > 0 and
    # w > 0, the planar length cap w > 0; the budget fits every other bound
    L, cr = (80.0, 3) if m else (0.0, 0)
    got = bounds_report(n, m, 0.5, w, L, cr, 1.0, 900.0, equal_length=equal_length)
    if equal_length is None or "l_interval" in missing:
        missing = missing | {"cr_bound"}
    assert {field for field, v in vars(got).items() if v is None} == missing


@pytest.mark.parametrize(
    "points, edges",
    [([(3.0, 3.0), (3.0, 3.0)], [(0, 1)]), ([(1.0, 2.0)], [])],
    ids=["coincident-pair", "one-node"],
)
def test_zero_area_rule_agrees_across_paths(tmp_path, capsys, points, edges):
    # r = w = 0 on nodes that share one point: the bounding box is empty
    d = bold(points, edges, r=0.0, w=0.0)
    metrics = measure(d)
    assert metrics.area == 0.0
    report = ink_total(d, metrics)
    assert (report.ink_total, report.density, report.feasible) == (0.0, 0.0, True)

    write_edge_list(d.graph, tmp_path / "g.edges")
    write_layout_csv(d.layout, tmp_path / "g.csv")
    code = main(["analyze", "--graph", str(tmp_path / "g.edges"), "--layout",
                 str(tmp_path / "g.csv"), "--radius", "0", "--width", "0",
                 "--format", "json"])
    assert code == 0
    row = json.loads(capsys.readouterr().out)["report"]
    assert (row["A"], row["ink"], row["density"], row["feasible"]) == (0.0, 0.0, 0.0, True)

    if len(points) == 1:  # any layout of one node puts it on one point
        config = BenchConfig(
            graphs=(BenchGraph("one", str(tmp_path / "g.edges")),),
            layouts=(("circular", LayoutConfig(algorithm="circular")),),
            settings=((0.0, 0.0),),
        )
        (bench_row,) = run_bench(config, threads=1)
        assert (bench_row.A, bench_row.ink) == (0.0, 0.0)
        assert (bench_row.density, bench_row.feasible) == (0.0, True)


def test_zero_area_rule_on_the_ink_function():
    # positive ink on zero area is infeasible; no ink is feasible
    got = ink_report(1, 0, 1.0, 0.0, 0.0, 0, 0.0)
    assert got.ink_total == pytest.approx(math.pi)
    assert (got.density, got.feasible) == (0.0, False)
    got = ink_report(2, 1, 0.0, 1.0, 0.0, 0, 0.0)
    assert (got.ink_total, got.density, got.feasible) == (0.0, 0.0, True)
    # the empty graph keeps its report
    empty = bold(np.zeros((0, 2)), [])
    report = ink_total(empty, measure(empty))
    assert (report.ink_total, report.density, report.feasible) == (0.0, 0.0, True)
