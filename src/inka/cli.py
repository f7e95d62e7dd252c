"""Command-line interface.

Subcommands: analyze, bounds, layout, transform, partial, render,
raster, bench.  Every command is deterministic given its inputs and
seeds; file-parsing problems exit nonzero with a path:line message and no
partial output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bench import BenchAbort, load_bench_config, run_bench_to_files
from .errors import InkaError
from .formats import (
    ReportRow,
    emit_report,
    load_graph,
    read_layout_csv,
    write_layout_csv,
)
from .geometry import measure
from .ink import (
    bounds_report,
    clarity_decomposition,
    ink_components,
    ink_total,
    partial_edge_formulas,
    scale_ink_delta,
    zoom_ink,
)
from .layout import LayoutConfig, compute_layout
from .model import BoldDrawing, RenderParams
from .raster import RasterConfig, rasterize_ink, render_svg
from .transforms import measure_stub_crossings, partial_edges, scale_layout, zoom_drawing

_ALGORITHM_CHOICES = ("random", "circular", "force-directed", "multilevel")


def _area_value(text: str):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"area must be 'auto' or a number, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"fixed area must be > 0, got {value}")
    return value


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


def _num(v):
    if v is None:
        return None
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else "-inf"
    return v


def _interval(iv):
    return None if iv is None else [_num(iv.lo), _num(iv.hi)]


def cmd_analyze(args) -> int:
    d = _load_drawing(args)
    metrics = measure(d, area=args.area)
    report = ink_total(d, metrics, strict=args.strict)
    clarity = clarity_decomposition(d, metrics, strict=args.strict)
    bounds = bounds_report(
        d.graph.node_count, d.graph.m, args.radius, args.width,
        metrics.total_edge_length, metrics.crossings, args.gamma, metrics.area,
    )
    row = ReportRow(
        graph_name=Path(args.graph).stem,
        layout_name=Path(args.layout).stem,
        n=d.graph.node_count,
        m=d.graph.m,
        r=args.radius,
        w=args.width,
        gamma=args.gamma,
        L=metrics.total_edge_length,
        cr=metrics.crossings,
        A=metrics.area,
        ink=report.ink_total,
        density=report.density,
        feasible=report.feasible,
        log10_ink=math.log10(report.ink_total) if report.ink_total > 0 else None,
    )
    bounds_dict = {
        "r_interval": _interval(bounds.r_interval),
        "w_interval": _interval(bounds.w_interval),
        "l_interval": _interval(bounds.l_interval),
        "cr_bound": _num(bounds.cr_bound),
        "planar_l_max": _num(bounds.planar_l_max),
    }
    clarity_dict = {
        "clarity_nodes": clarity.clarity_nodes,
        "clarity_edges": clarity.clarity_edges,
        "ambiguity_overlap": clarity.ambiguity_overlap,
    }
    if args.format == "json":
        payload = {
            "report": json.loads(emit_report([row], format="json"))[0],
            "bounds": bounds_dict,
            "clarity": clarity_dict,
        }
        return _emit(json.dumps(payload, indent=2) + "\n", args.out)
    text = emit_report([row], format="csv")
    text += "# bounds " + " ".join(f"{k}={v}" for k, v in bounds_dict.items()) + "\n"
    text += "# clarity " + " ".join(f"{k}={v}" for k, v in clarity_dict.items()) + "\n"
    return _emit(text, args.out)


def cmd_bounds(args) -> int:
    d = _load_drawing(args)
    metrics = measure(d, area=args.area)
    bounds = bounds_report(
        d.graph.node_count, d.graph.m, args.radius, args.width,
        metrics.total_edge_length, metrics.crossings, args.gamma, metrics.area,
        equal_length=args.length,
    )
    payload = {
        "n": d.graph.node_count,
        "m": d.graph.m,
        "L": metrics.total_edge_length,
        "cr": metrics.crossings,
        "A": metrics.area,
        "r_interval": _interval(bounds.r_interval),
        "w_interval": _interval(bounds.w_interval),
        "l_interval": _interval(bounds.l_interval),
        "cr_bound": _num(bounds.cr_bound),
        "planar_l_max": _num(bounds.planar_l_max),
    }
    if args.format == "json":
        return _emit(json.dumps(payload, indent=2) + "\n", args.out)
    text = "".join(f"{k}={v}\n" for k, v in payload.items())
    return _emit(text, args.out)


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
    base = ink_total(d, metrics, strict=True)
    g, params = d.graph, d.params
    payload: dict
    out_text = None
    if args.scale is not None:
        new_layout = scale_layout(d.layout, args.scale)
        d2 = BoldDrawing(g, new_layout, params)
        m2 = measure(d2, area=args.area)
        after = ink_total(d2, m2, strict=True)
        predicted = scale_ink_delta(params.width, metrics.total_edge_length, args.scale)
        payload = {
            "transform": "scale",
            "factor": args.scale,
            "ink_before": base.ink_total,
            "ink_after": after.ink_total,
            "predicted_delta": predicted,
            "measured_delta": after.ink_total - base.ink_total,
        }
        out_text = write_layout_csv(new_layout)
    elif args.zoom is not None:
        d2 = zoom_drawing(d, args.zoom)
        m2 = measure(d2, area=args.area)
        after = ink_total(d2, m2, strict=True)
        payload = {
            "transform": "zoom",
            "factor": args.zoom,
            "radius_after": d2.params.radius,
            "width_after": d2.params.width,
            "ink_before": base.ink_total,
            "ink_after": after.ink_total,
            "predicted_ink": zoom_ink(base.ink_total, args.zoom),
            "measured_ink": after.ink_total,
        }
        out_text = write_layout_csv(d2.layout)
    else:
        p = args.partial
        stubs = partial_edges(d, p)
        cr_stub = measure_stub_crossings(stubs)
        formulas = partial_edge_formulas(
            g.node_count, g.m, params.radius, params.width,
            metrics.total_edge_length, p, metrics.crossings, cr_stub,
            params.gamma, metrics.area,
        )
        payload = {
            "transform": "partial",
            "factor": p,
            "stub_count": len(stubs.segments),
            "stub_total_length": stubs.total_length,
            "crossings_full": metrics.crossings,
            "crossings_partial": cr_stub,
            "ink_full": base.ink_total,
            "ink_partial": formulas.ink_partial,
            "necessity_holds": formulas.necessity_holds,
        }
        lines = ["parent,px,py,qx,qy"]
        for seg, parent in zip(stubs.segments, stubs.parent_edge):
            lines.append(
                f"{int(parent)},{seg.p[0]!r},{seg.p[1]!r},{seg.q[0]!r},{seg.q[1]!r}"
            )
        out_text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(out_text)
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("".join(f"{k}={v}\n" for k, v in payload.items()))
    return 0


def cmd_partial(args) -> int:
    d = _load_drawing(args)
    metrics = measure(d, area=args.area)
    g, params = d.graph, d.params
    try:
        ratios = [float(tok) for tok in args.ratios.split(",") if tok.strip()]
    except ValueError:
        print(f"error: bad --ratios value {args.ratios!r}", file=sys.stderr)
        return 2
    records = []
    for p in ratios:
        stubs = partial_edges(d, p)
        cr_stub = measure_stub_crossings(stubs)
        formulas = partial_edge_formulas(
            g.node_count, g.m, params.radius, params.width,
            metrics.total_edge_length, p, metrics.crossings, cr_stub,
            params.gamma, metrics.area,
        )
        nodes, _edges, _overlap = ink_components(
            g.node_count, g.m, params.radius, params.width,
            metrics.total_edge_length, metrics.crossings,
        )
        measured_ink = (
            nodes
            + params.width * (stubs.total_length - 2 * g.m * params.radius)
            - params.width**2 * cr_stub
        )
        records.append(
            {
                "p": p,
                "stub_crossings": cr_stub,
                "ink_formula": formulas.ink_partial,
                "ink_measured": measured_ink,
                "necessity_holds": formulas.necessity_holds,
                "cr_lo": _num(formulas.crossing_interval.lo)
                if formulas.crossing_interval
                else None,
                "cr_hi": _num(formulas.crossing_interval.hi)
                if formulas.crossing_interval
                else None,
            }
        )
    if args.format == "json":
        return _emit(json.dumps(records, indent=2) + "\n", args.out)
    cols = ["p", "stub_crossings", "ink_formula", "ink_measured",
            "necessity_holds", "cr_lo", "cr_hi"]
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join("" if rec[c] is None else str(rec[c]) for c in cols))
    return _emit("\n".join(lines) + "\n", args.out)


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
    if args.format == "json":
        return _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return _emit("".join(f"{k}={v}\n" for k, v in payload.items()), args.out)


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
        print(
            f"partial results: {len(e.rows)} rows flushed to {args.out} "
            f"(see {args.out}.MANIFEST)",
            file=sys.stderr,
        )
        return 1
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


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
    p.add_argument("--algorithm", choices=_ALGORITHM_CHOICES, required=True)
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
    p.add_argument("--ratios", default="0.1,0.25,0.5,1",
                   help="comma-separated retained fractions")
    _add_output_args(p)
    p.set_defaults(func=cmd_partial)

    p = sub.add_parser("render", help="export the drawing as SVG")
    _add_drawing_args(p)
    p.add_argument("--out", help="SVG path (default: stdout)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("raster", help="pixel-measured ink vs the analytic value")
    _add_drawing_args(p)
    p.add_argument("--resolution", type=int, default=2048,
                   help="samples along the longer side of the bounding box, "
                        "at least 64 (default 2048)")
    p.add_argument("--supersample", type=int, choices=(1, 2, 4), default=2,
                   help="refine the grid by this factor in each direction "
                        "(default 2)")
    _add_output_args(p)
    p.set_defaults(func=cmd_raster)

    p = sub.add_parser("bench", help="graphs x layouts x settings report")
    p.add_argument("--config", required=True, help="bench config JSON")
    p.add_argument("--out", default="bench_report.csv")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--raster", action="store_true",
                   help="add the raster_ink column (slow)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (INKA_THREADS caps this; 0 = auto)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InkaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
