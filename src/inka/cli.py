"""Command-line interface.

Subcommands: analyze, bounds, layout, transform, partial, render,
raster, bench.  Every command is deterministic given its inputs and
seeds; file-parsing problems exit nonzero with a path:line message and no
partial output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import BenchAbort, load_bench_config, run_bench_to_files
from .errors import InkaError
from .formats import (
    ReportRow,
    _json,
    _plain,
    _table,
    emit_report,
    load_graph,
    read_layout_csv,
    write_layout_csv,
)
from .geometry import measure
from .ink import (
    bounds_report,
    clarity_decomposition,
    ink_report,
    ink_total,
    partial_edge_formulas,
    scale_ink_delta,
    zoom_ink,
)
from .layout import _ALGORITHMS, LayoutConfig, compute_layout
from .model import BoldDrawing, RenderParams, _positive
from .raster import RasterConfig, rasterize_ink, render_svg
from .transforms import measure_stub_crossings, partial_edges, scale_layout, zoom_drawing

_PARTIAL_COLUMNS = (
    "p", "stub_crossings", "ink_formula", "ink_measured", "necessity_holds",
    "cr_lo", "cr_hi",
)
_STUB_COLUMNS = ("parent", "px", "py", "qx", "qy")


def _area_value(text: str):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"area must be 'auto' or a number, got {text!r}"
        ) from None
    try:
        return _positive(value, "fixed area")
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _ratios_value(text: str) -> list[float]:
    try:
        ratios = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        ratios = []
    if not ratios:
        raise argparse.ArgumentTypeError(
            f"ratios must be one or more comma-separated numbers, got {text!r}"
        )
    return ratios


def _add_drawing_args(p: argparse.ArgumentParser, default_width: float = 1.0):
    p.add_argument("--graph", required=True, help="graph file (.mtx/.graph/.edges)")
    p.add_argument("--layout", required=True, help="layout CSV with header node,x,y")
    p.add_argument("--radius", type=float, default=1.0, help="disk radius r")
    p.add_argument("--width", type=float, default=default_width, help="edge width w")
    p.add_argument("--gamma", type=float, default=1.0, help="density ceiling in (0,1]")
    p.add_argument(
        "--area",
        type=_area_value,
        default=None,
        metavar="auto|VALUE",
        help="drawing area: 'auto' (bounding box, the default) or a fixed value",
    )


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")


def _load_drawing(args) -> BoldDrawing:
    g = load_graph(args.graph)
    layout = read_layout_csv(args.layout, node_count=g.node_count)
    params = RenderParams(radius=args.radius, width=args.width, gamma=args.gamma)
    return BoldDrawing(graph=g, layout=layout, params=params)


def _emit(text: str, out: str | None) -> int:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _key_values(payload, sep: str = "\n") -> str:
    return sep.join(f"{k}={v}" for k, v in _plain(payload).items())


def _write(payload, fmt: str, out: str | None = None) -> int:
    """Write a payload to out (default stdout): indented JSON, or one
    key=value line per entry."""
    return _emit(_json(payload) if fmt == "json" else _key_values(payload) + "\n", out)


def _bounds(d: BoldDrawing, metrics, equal_length=None):
    g, p = d.graph, d.params
    return bounds_report(
        g.node_count, g.m, p.radius, p.width, metrics.total_edge_length,
        metrics.crossings, p.gamma, metrics.area, equal_length=equal_length,
    )


def _partial_at(d: BoldDrawing, metrics, p: float):
    """Stubs at retained fraction p, their crossing count, and the
    partial-edge formulas for them."""
    stubs = partial_edges(d, p)
    cr_stub = measure_stub_crossings(stubs)
    g, prm = d.graph, d.params
    formulas = partial_edge_formulas(
        g.node_count, g.m, prm.radius, prm.width, metrics.total_edge_length, p,
        metrics.crossings, cr_stub, prm.gamma, metrics.area,
    )
    return stubs, cr_stub, formulas


def cmd_analyze(args) -> int:
    d = _load_drawing(args)
    metrics = measure(d, area=args.area)
    report = ink_total(d, metrics, strict=args.strict)
    row = ReportRow.of(
        Path(args.graph).stem, Path(args.layout).stem, d,
        metrics.total_edge_length, metrics.crossings, metrics.area, report,
    )
    bounds = _bounds(d, metrics)
    clarity = clarity_decomposition(d, metrics, strict=args.strict)
    if args.format == "json":
        payload = {"report": row, "bounds": bounds, "clarity": clarity}
        return _write(payload, "json", args.out)
    text = emit_report([row], format="csv")
    text += f"# bounds {_key_values(bounds, ' ')}\n"
    text += f"# clarity {_key_values(clarity, ' ')}\n"
    return _emit(text, args.out)


def cmd_bounds(args) -> int:
    d = _load_drawing(args)
    metrics = measure(d, area=args.area)
    payload = {
        "n": d.graph.node_count,
        "m": d.graph.m,
        "L": metrics.total_edge_length,
        "cr": metrics.crossings,
        "A": metrics.area,
        **_plain(_bounds(d, metrics, equal_length=args.length)),
    }
    return _write(payload, args.format, args.out)


def cmd_layout(args) -> int:
    g = load_graph(args.graph)
    config = LayoutConfig(
        algorithm=args.algorithm,
        seed=args.seed,
        iterations=args.iterations,
        ideal_edge_length=args.ideal_length,
        cooling=args.cooling,
    )
    layout = compute_layout(g, config)
    return _emit(write_layout_csv(layout), args.out)


def cmd_transform(args) -> int:
    d = _load_drawing(args)
    metrics = measure(d, area=args.area)
    base = ink_total(d, metrics, strict=True).ink_total
    if args.scale is not None:
        d2 = replace(d, layout=scale_layout(d.layout, args.scale))
        after = ink_total(d2, measure(d2, area=args.area), strict=True).ink_total
        payload = {
            "transform": "scale",
            "factor": args.scale,
            "ink_before": base,
            "ink_after": after,
            "predicted_delta": scale_ink_delta(
                d.params.width, metrics.total_edge_length, args.scale
            ),
            "measured_delta": after - base,
        }
        out_text = write_layout_csv(d2.layout)
    elif args.zoom is not None:
        d2 = zoom_drawing(d, args.zoom)
        after = ink_total(d2, measure(d2, area=args.area), strict=True).ink_total
        payload = {
            "transform": "zoom",
            "factor": args.zoom,
            "radius_after": d2.params.radius,
            "width_after": d2.params.width,
            "ink_before": base,
            "ink_after": after,
            "predicted_ink": zoom_ink(base, args.zoom),
            "measured_ink": after,
        }
        out_text = write_layout_csv(d2.layout)
    else:
        stubs, cr_stub, formulas = _partial_at(d, metrics, args.partial)
        payload = {
            "transform": "partial",
            "factor": args.partial,
            "stub_count": len(stubs.P),
            "stub_total_length": stubs.total_length,
            "crossings_full": metrics.crossings,
            "crossings_partial": cr_stub,
            "ink_full": base,
            "ink_partial": formulas.ink_partial,
            "necessity_holds": formulas.necessity_holds,
        }
        rows = zip(stubs.parent_edge.tolist(), stubs.P.tolist(), stubs.Q.tolist())
        out_text = _table(_STUB_COLUMNS, ([e, *p, *q] for e, p, q in rows), "csv")
    if args.out:
        Path(args.out).write_text(out_text)
    return _write(payload, args.format)


def cmd_partial(args) -> int:
    d = _load_drawing(args)
    metrics = measure(d, area=args.area)
    g, prm = d.graph, d.params
    rows = []
    for p in args.ratios:
        stubs, cr_stub, formulas = _partial_at(d, metrics, p)
        measured = ink_report(
            g.node_count, g.m, prm.radius, prm.width, stubs.total_length, cr_stub,
            metrics.area, prm.gamma,
        )
        lo, hi = formulas.crossing_interval or (None, None)
        rows.append((p, cr_stub, formulas.ink_partial, measured.ink_total,
                     formulas.necessity_holds, lo, hi))
    return _emit(_table(_PARTIAL_COLUMNS, rows, args.format), args.out)


def cmd_render(args) -> int:
    d = _load_drawing(args)
    return _emit(render_svg(d), args.out)


def cmd_raster(args) -> int:
    d = _load_drawing(args)
    metrics = measure(d, area=args.area)
    strict = ink_total(d, metrics, strict=True)
    clamped = ink_total(d, metrics, strict=False)
    cfg = RasterConfig(resolution=args.resolution, supersampling=args.supersample)
    measured = rasterize_ink(d, cfg)
    gap = measured - strict.ink_total
    payload = {
        "analytic_ink": strict.ink_total,
        "analytic_ink_clamped": clamped.ink_total,
        "raster_ink": measured,
        "signed_gap": gap,
        "relative_gap": gap / strict.ink_total if strict.ink_total else None,
        "resolution": args.resolution,
        "supersampling": args.supersample,
    }
    return _write(payload, args.format, args.out)


def cmd_bench(args) -> int:
    config = load_bench_config(args.config)
    if args.raster:
        config = replace(config, raster=True)
    try:
        rows, summary = run_bench_to_files(
            config, args.out, format=args.format, threads=args.threads
        )
    except BenchAbort as e:
        print(f"error: {e}", file=sys.stderr)
        flushed = (f"{len(e.rows)} rows flushed to {args.out}" if e.rows
                   else f"0 rows, so no report written to {args.out}")
        print(f"partial results: {flushed} (see {args.out}.MANIFEST)", file=sys.stderr)
        return 1
    return _write(summary, "json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inka",
        description="Ink accounting for bold node-link graph drawings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="ink report, bounds, and clarity for a drawing")
    _add_drawing_args(p)
    p.add_argument("--strict", action="store_true",
                   help="use the aggregate edge term without per-edge clamping")
    _add_output_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="feasible parameter ranges for a drawing")
    _add_drawing_args(p)
    p.add_argument("--length", type=float, default=None,
                   help="common edge length for the crossing bound")
    _add_output_args(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("layout", help="compute a deterministic layout")
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithm", choices=_ALGORITHMS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--ideal-length", type=float, default=30.0)
    p.add_argument("--cooling", type=float, default=0.95)
    p.add_argument("--out", help="layout CSV path (default: stdout)")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("transform", help="scale, zoom, or partial-edge a drawing")
    _add_drawing_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scale", type=float, help="length multiplier")
    group.add_argument("--zoom", type=float, help="area magnification")
    group.add_argument("--partial", type=float, help="retained edge fraction")
    _add_output_args(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("partial", help="partial-edge sweep over several ratios")
    _add_drawing_args(p)
    p.add_argument("--ratios", type=_ratios_value, default="0.1,0.25,0.5,1",
                   help="comma-separated retained fractions")
    _add_output_args(p)
    p.set_defaults(func=cmd_partial)

    p = sub.add_parser("render", help="export the drawing as SVG")
    _add_drawing_args(p)
    p.add_argument("--out", help="SVG path (default: stdout)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("raster", help="row-measured ink vs the analytic value")
    _add_drawing_args(p)
    p.add_argument("--resolution", type=int, default=2048,
                   help="rows along the longer side of the bounding box, "
                        "at least 64 (default 2048)")
    p.add_argument("--supersample", type=int, choices=(1, 2, 4), default=2,
                   help="multiply the rows by this factor (default 2)")
    _add_output_args(p)
    p.set_defaults(func=cmd_raster)

    p = sub.add_parser("bench", help="graphs x layouts x settings report")
    p.add_argument("--config", required=True, help="bench config JSON")
    p.add_argument("--out", default="bench_report.csv")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--raster", action="store_true",
                   help="add the raster_ink column (slow)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (0 = one per CPU; 1 = no pool, all in this "
                        "process; INKA_THREADS caps it); the report is the same at any count")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InkaError, OSError, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
