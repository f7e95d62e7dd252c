"""Acceptance suite: ten end-to-end checks, one test each.

Every test prints a single [PASS]/[FAIL] line (visible with -s or -rA)
and asserts it.  Expected values are either closed-form (recomputed here
independently), measured by a second independent method (grid search,
pairwise enumeration, pixel counting), or pinned constants with explicit
tolerances.
"""

import ctypes
import itertools
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import bold, random_bold_drawing
from inka import (
    BoldDrawing,
    ParseError,
    ParseWarning,
    RasterConfig,
    RenderParams,
    check_area_constraint,
    count_crossings_bruteforce,
    count_crossings_sweep,
    edge_lengths,
    ink_components,
    ink_total,
    layout_random,
    load_bench_config,
    load_graph,
    measure,
    measure_stub_crossings,
    min_ink_radius,
    partial_edge_formulas,
    partial_edges,
    planar_formulas,
    radius_bounds,
    rasterize_ink,
    run_bench_to_files,
    scale_ink_delta,
    scale_layout,
    width_delta_ink,
    zoom_drawing,
    zoom_ink,
)

ROOT = Path(__file__).resolve().parents[1]
GRAPHS = ROOT / "data" / "graphs"
DATA = Path(__file__).parent / "data"
MALFORMED = DATA / "malformed"


def verdict(criterion: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def strict_ink(d: BoldDrawing) -> float:
    return ink_total(d, measure(d), strict=True).ink_total


def test_criterion_01_two_edge_square_drawings():
    t0 = time.perf_counter()
    cases = [
        ("parallel", [(0, 0), (0, 10), (10, 0), (10, 10)], 14.17, 0),
        ("diagonal", [(0, 0), (10, 10), (0, 10), (10, 0)], 14.98, 1),
        ("x-shape", [(0, 0), (8, 6), (0, 6), (8, 0)], 14.16, 1),
    ]
    results = []
    ok = True
    for name, pts, target, cr_target in cases:
        d = bold(pts, [(0, 1), (2, 3)], r=1.0, w=0.1)
        metrics = measure(d)
        ink = ink_total(d, metrics, strict=True).ink_total
        good = abs(ink - target) <= 0.02 and metrics.crossings == cr_target
        ok = ok and good
        results.append(f"{name} ink={ink:.4f} (target {target}+-0.02) cr={metrics.crossings}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    verdict(1, ok, "; ".join(results) + f"; elapsed={elapsed:.3f}s (<1s)")


def test_criterion_02_radius_cap_without_edges():
    hi = radius_bounds(4, 0, 0.0, 0.0, 0, 0.5, 100.0).hi
    reference = math.sqrt(0.5 * 100.0 / (4 * math.pi))
    ok = abs(hi - 1.995) <= 0.01 and abs(hi - reference) <= 1e-12
    verdict(2, ok, f"r_hi={hi:.6f} (target 1.995+-0.01, closed form {reference:.6f})")


def test_criterion_03_planar_length_budget():
    n, r, w, gamma, A = 100, 1.0, 1.0, 1.0, 1000.0
    got = planar_formulas(n, 3 * n - 6, r, w, 0.0, gamma, A).max_total_length
    reference = gamma * A - 12.0 + (6.0 - math.pi) * n
    ok = abs(got - 1273.84) <= 0.01 and abs(got - reference) <= 1e-9
    verdict(3, ok, f"L_max={got:.6f} (target 1273.84+-0.01, reference {reference:.6f})")


def test_criterion_04_crossing_counters_agree():
    rng = np.random.default_rng(2026)
    checked = mismatches = 0
    for _ in range(1000):
        d = random_bold_drawing(rng, n_max=40, m_max=200)
        checked += 1
        if count_crossings_sweep(d) != count_crossings_bruteforce(d):
            mismatches += 1
    names = ["can_144.mtx", "mesh24.graph", "ba800.edges", "yeastppi.edges"]
    for seed, name in enumerate(names):
        g = load_graph(GRAPHS / name)
        d = BoldDrawing(g, layout_random(g, seed=seed), RenderParams(1.0, 1.0))
        checked += 1
        if count_crossings_sweep(d) != count_crossings_bruteforce(d):
            mismatches += 1
    verdict(4, mismatches == 0,
            f"{checked} drawings (1000 random + {len(names)} benchmark), "
            f"{mismatches} mismatches")


def test_criterion_05_change_of_drawing_identities():
    rng = np.random.default_rng(515)
    worst_scale = worst_zoom = worst_width = 0.0
    feasibility_flips = 0

    sigmas = (0.5, 2.0, 3.0)
    for i in range(1000):
        d = random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=0.0)
        sigma = sigmas[i % 3]
        metrics = measure(d)
        before = ink_total(d, metrics, strict=True).ink_total
        d2 = BoldDrawing(d.graph, scale_layout(d.layout, sigma), d.params)
        after = ink_total(d2, measure(d2), strict=True).ink_total
        predicted = scale_ink_delta(d.params.width, metrics.total_edge_length, sigma)
        scale_norm = max(1.0, abs(before), abs(after))
        worst_scale = max(worst_scale, abs((after - before) - predicted) / scale_norm)

    zetas = (0.25, 4.0, 9.0)
    for i in range(1000):
        d = random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=0.0)
        zeta = zetas[i % 3]
        metrics = measure(d)
        report = ink_total(d, metrics, strict=True)
        d2 = zoom_drawing(d, zeta)
        m2 = measure(d2)
        report2 = ink_total(d2, m2, strict=True)
        predicted = zoom_ink(report.ink_total, zeta)
        norm = max(1.0, abs(predicted), abs(report2.ink_total))
        worst_zoom = max(worst_zoom, abs(report2.ink_total - predicted) / norm)
        before_ok = check_area_constraint(report.ink_total, metrics.area, d.params.gamma)
        after_ok = check_area_constraint(report2.ink_total, m2.area, d2.params.gamma)
        feasibility_flips += before_ok != after_ok

    factors = (0.5, 2.0)
    for i in range(1000):
        d = random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=0.0)
        metrics = measure(d)
        g, p = d.graph, d.params
        w2 = p.width * factors[i % 2]
        ink1 = sum(ink_components(g.n, g.m, p.radius, p.width,
                                  metrics.total_edge_length, metrics.crossings)[:2]) \
            - p.width**2 * metrics.crossings
        ink2 = sum(ink_components(g.n, g.m, p.radius, w2,
                                  metrics.total_edge_length, metrics.crossings)[:2]) \
            - w2**2 * metrics.crossings
        predicted = width_delta_ink(p.width, w2, metrics.total_edge_length,
                                    g.m, p.radius, metrics.crossings)
        norm = max(1.0, abs(ink1), abs(ink2))
        worst_width = max(worst_width, abs((ink2 - ink1) - predicted) / norm)

    ok = worst_scale <= 1e-9 and worst_zoom <= 1e-9 and worst_width <= 1e-12 \
        and feasibility_flips == 0
    verdict(5, ok,
            f"1000 drawings per identity; worst rel err: scale={worst_scale:.2e} "
            f"(<=1e-9), zoom={worst_zoom:.2e} (<=1e-9, {feasibility_flips} "
            f"feasibility flips), width={worst_width:.2e} (<=1e-12)")


def test_criterion_06_ink_minimizing_radius():
    rng = np.random.default_rng(66)
    step = 1e-4
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 100))
        m = int(rng.integers(0, 3 * n))
        w = float(rng.uniform(0.01, 2.0))
        L = float(rng.uniform(1.0, 400.0))
        cr = int(rng.integers(0, 60))
        predicted = min_ink_radius(n, m, w).radius
        grid = np.arange(0.0, 2.0 * predicted + 1.0, step)
        ink = n * math.pi * grid * grid + w * (L - 2.0 * m * grid) - w * w * cr
        found = float(grid[np.argmin(ink)])
        worst = max(worst, abs(found - predicted))
    verdict(6, worst <= 1e-3,
            f"100 tuples, grid step {step}; worst |argmin - w*(m/n)/pi| = "
            f"{worst:.2e} (<=1e-3)")


def test_criterion_07_raster_oracle():
    # crossing-free: the closed form should land within 2%
    worst_free = 0.0
    cfg = RasterConfig(resolution=2048, supersampling=2)
    cases = [(1, 1.0, 0.1), (2, 1.0, 0.5), (3, 1.0, 1.0), (4, 1.5, 0.3), (5, 1.2, 1.0)]
    for seed, r, w in cases:
        rng = np.random.default_rng(seed)
        xs = np.cumsum(rng.uniform(4.0, 6.0, size=12))
        ys = rng.uniform(-1.0, 1.0, size=12)
        d = bold(np.column_stack([xs, ys]), [(i, i + 1) for i in range(11)], r=r, w=w)
        metrics = measure(d)
        assert metrics.crossings == 0
        assert metrics.edge_lengths.min() > 2 * r
        ink = ink_total(d, metrics, strict=True).ink_total
        got = rasterize_ink(d, cfg)
        worst_free = max(worst_free, abs(got - ink) / ink)

    # crossing-heavy: gap explained by the rhombus overlap at each crossing
    theta = math.pi / 6
    w = 1.0
    half = 5.0
    pts = []
    edges = []
    k = 48
    for i in range(k):
        cx = 20.0 * (i % 8)
        cy = 20.0 * (i // 8)
        phi = 0.1 + i * (math.sqrt(5) - 1) / 2 * math.pi
        for ang in (phi, phi + theta):
            ux, uy = math.cos(ang), math.sin(ang)
            base = len(pts)
            pts.append((cx - half * ux, cy - half * uy))
            pts.append((cx + half * ux, cy + half * uy))
            edges.append((base, base + 1))
    d = bold(pts, edges, r=0.0, w=w)
    metrics = measure(d)
    assert metrics.crossings == k
    analytic = ink_total(d, metrics, strict=True).ink_total
    got = rasterize_ink(d, RasterConfig(resolution=2048, supersampling=4))
    correction = k * (w * w / math.sin(theta) - w * w)
    gap = analytic - got
    heavy_err = abs(gap - correction) / correction
    ok = worst_free <= 0.02 and heavy_err <= 0.10
    verdict(7, ok,
            f"crossing-free worst gap {worst_free:.4f} (<=0.02); "
            f"{k} crossings at 30deg: gap={gap:.3f} vs rhombus correction "
            f"{correction:.3f}, rel err {heavy_err:.4f} (<=0.10)")


def test_criterion_08_partial_edge_consistency():
    rng = np.random.default_rng(88)
    worst = 0.0
    necessity_violations = 0
    exact_failures = 0
    for _ in range(60):
        d = random_bold_drawing(rng, n_max=20, m_max=40, lattice_prob=0.0)
        g, params = d.graph, d.params
        metrics = measure(d)
        full_ink = ink_total(d, metrics, strict=True).ink_total
        for p in (0.1, 0.25, 0.5, 1.0):
            stubs = partial_edges(d, p)
            cr_stub = measure_stub_crossings(stubs)
            formulas = partial_edge_formulas(
                g.n, g.m, params.radius, params.width, metrics.total_edge_length,
                p, metrics.crossings, cr_stub, params.gamma, metrics.area,
            )
            nodes = g.n * math.pi * params.radius**2
            measured = (
                nodes
                + params.width * (stubs.total_length - 2 * g.m * params.radius)
                - params.width**2 * cr_stub
            )
            norm = max(1.0, abs(measured), abs(full_ink))
            worst = max(worst, abs(formulas.ink_partial - measured) / norm)
            if formulas.necessity_holds:
                if formulas.ink_partial > full_ink + 1e-9 * norm:
                    necessity_violations += 1
            if p == 1.0:
                if cr_stub != metrics.crossings or formulas.ink_partial != full_ink:
                    exact_failures += 1
    ok = worst <= 1e-9 and necessity_violations == 0 and exact_failures == 0
    verdict(8, ok,
            f"60 drawings x 4 ratios; worst formula-vs-measured rel err "
            f"{worst:.2e} (<=1e-9); {necessity_violations} necessity violations; "
            f"{exact_failures} p=1 exactness failures")


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """Criterion 09's one bench run: config, rows, summary, seconds, report."""
    config = load_bench_config(ROOT / "data" / "bench.json")
    report = tmp_path_factory.mktemp("bench") / "report.csv"
    t0 = time.perf_counter()
    rows, summary = run_bench_to_files(config, report)
    return config, rows, summary, time.perf_counter() - t0, report


def test_criterion_09_bench_harness(bench_run):
    config, rows, summary, elapsed, _report = bench_run
    expected_rows = len(config.graphs) * len(config.layouts) * len(config.settings)
    base = summary["base_least_ink"]
    small = summary["small_radius_change"]
    ok = (
        len(config.graphs) >= 4
        and len(config.layouts) >= 4
        and len(config.settings) >= 5
        and len(rows) == expected_rows
        and elapsed < 300.0
        and base["checked"] > 0
        and base["violations"] == []
        and small["checked"] >= 4
        and small["over_10_percent"] == []
    )
    verdict(9, ok,
            f"{len(rows)} rows ({len(config.graphs)}x{len(config.layouts)}x"
            f"{len(config.settings)}) in {elapsed:.1f}s (<300s); base-least-ink "
            f"{base['holds']}/{base['checked']}; radius-change max "
            f"{small['max_relative_change']:.4f} over {small['checked']} cells (<0.10)")


def report_differences(got: bytes, want: bytes) -> list[str]:
    """Each line where two CSV reports differ, named by its number and its
    graph, layout, r and w (from the pinned line where there is one)."""
    header = want.split(b"\n", 1)[0].decode().split(",")
    keys = [header.index(k) for k in ("graph_name", "layout_name", "r", "w")]
    differ = []
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True), fillvalue=b"")
    for i, (line, pin) in enumerate(pairs, start=1):
        if line != pin:
            cells = (pin or line).decode().rstrip("\n").split(",")
            differ.append(f"line {i} ({','.join(cells[k] for k in keys if k < len(cells))})")
    return differ


def openblas_core() -> str:
    """The kernel the OpenBLAS bundled with numpy runs in this process (a
    DYNAMIC_ARCH build picks it from the CPU, or from OPENBLAS_CORETYPE),
    or "unknown" where numpy bundles no scipy-openblas."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    lib = ctypes.CDLL(str(libs[0])) if libs else None
    corename = getattr(lib, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def test_bench_report_equals_pinned_file(bench_run):
    # tests/data/bench_report.csv is `inka bench --config data/bench.json`'s
    # report, written under the numpy version and OpenBLAS core in
    # bench_report.numpy (one a line); a spring layout's bytes depend on both
    pinned_numpy, pinned_core = (DATA / "bench_report.numpy").read_text().split()
    if np.__version__ != pinned_numpy:
        pytest.skip(f"bench report pinned under numpy {pinned_numpy}, running {np.__version__}")
    differ = report_differences(bench_run[-1].read_bytes(),
                                (DATA / "bench_report.csv").read_bytes())
    assert not differ, (f"bench report differs from the pinned file at {'; '.join(differ)} "
                        f"(OpenBLAS core {openblas_core()} here, {pinned_core} at the pin)")


def test_report_differences_name_the_rows():
    want = (DATA / "bench_report.csv").read_bytes()
    lines = want.splitlines(True)
    got = b"".join(lines[:2] + [lines[2].replace(b",", b",9", 1)] + lines[3:-1])
    assert report_differences(want, want) == []
    assert report_differences(got, want) == [
        "line 3 (can_144,random,1.0,1.0)", "line 81 (yeastppi,multilevel,20.0,2.0)"]


def test_criterion_10_parser_fidelity():
    can = load_graph(GRAPHS / "can_144.mtx")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParseWarning)
        yeast = load_graph(GRAPHS / "yeastppi.edges")
    sizes_ok = (can.n, can.m) == (144, 576) and (yeast.n, yeast.m) == (2361, 7182)

    corpus = sorted(MALFORMED.iterdir())
    structured = crashes = 0
    for path in corpus:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ParseWarning)
                load_graph(path)
        except ParseError:
            structured += 1
        except Exception:
            crashes += 1
    ok = sizes_ok and len(corpus) >= 20 and structured == len(corpus) and crashes == 0
    verdict(10, ok,
            f"can_144=({can.n},{can.m}) yeastppi=({yeast.n},{yeast.m}); "
            f"{structured}/{len(corpus)} malformed files -> ParseError, "
            f"{crashes} other exceptions")
