"""Benchmark harness: graphs x layouts x (r, w) settings -> report rows.

The config is a declarative JSON file listing graph files, layout
configurations, and render settings.  Every (graph, layout) pair is laid
out and measured once (edge lengths and crossings do not depend on r or
w); each setting then costs only closed-form arithmetic, plus an optional
rasterization.  Row ink uses the aggregate formula, never per-edge
clamping, so any row can be recomputed from its own n, m, r, w, L, cr
columns.

Graphs run in parallel (thread count capped by the INKA_THREADS
environment variable; 0 or unset means auto), but the output row order
follows the config order regardless of completion order.  If any graph
fails to parse, the whole run aborts; rows of graphs that did finish are
flushed alongside a MANIFEST naming them and the failure.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .errors import InkaError
from .formats import ReportRow, emit_report, load_graph
from .geometry import bounding_area, count_crossings_sweep, edge_lengths
from .ink import check_area_constraint, ink_components
from .layout import LayoutConfig, compute_layout
from .model import BoldDrawing, RenderParams
from .raster import RasterConfig, rasterize_ink

DEFAULT_SETTINGS = ((1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (20.0, 1.0), (20.0, 2.0))

BASE_SETTING = (1.0, 0.0)


@dataclass(frozen=True)
class BenchGraph:
    name: str
    path: str
    format: str | None = None


@dataclass(frozen=True)
class BenchConfig:
    graphs: tuple[BenchGraph, ...]
    layouts: tuple[tuple[str, LayoutConfig], ...]
    settings: tuple[tuple[float, float], ...] = DEFAULT_SETTINGS
    gamma: float = 1.0
    area: float | None = None
    raster: bool = False
    raster_config: RasterConfig = RasterConfig()

    def __post_init__(self):
        if not self.graphs:
            raise ValueError("bench config needs at least one graph")
        if not self.layouts:
            raise ValueError("bench config needs at least one layout")
        if not self.settings:
            raise ValueError("bench config needs at least one (r, w) setting")
        for r, w in self.settings:  # a bad r, w or gamma fails here, not mid-run
            RenderParams(r, w, self.gamma)
        if not isinstance(self.raster, bool):
            raise ValueError(f"raster must be true or false, got {self.raster!r}")


class BenchAbort(InkaError):
    """A graph failed during the bench run; carries whatever completed."""

    def __init__(self, graph_name: str, cause: Exception, rows: list[ReportRow]):
        super().__init__(f"bench aborted at graph {graph_name!r}: {cause}")
        self.graph_name = graph_name
        self.cause = cause
        self.rows = rows


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InkaError(f"{what} must be a number, got {value!r}")
    return float(value)


def _entries(data: dict, key: str, default, where) -> list:
    value = data.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise InkaError(f'{where}: "{key}" must be a list, got {value!r}')
    return value


def load_bench_config(path) -> BenchConfig:
    """Read a JSON bench config; graph paths resolve relative to it.  Any
    malformed entry raises InkaError naming the entry and the field."""
    p = Path(path)
    data = json.loads(p.read_text())
    if not isinstance(data, dict):
        raise InkaError(f"{p}: a bench config must be a JSON object")
    base = p.parent

    graphs = []
    for idx, entry in enumerate(_entries(data, "graphs", [], p)):
        path = entry.get("path") if isinstance(entry, dict) else None
        if not isinstance(path, str) or "name" not in entry:
            raise InkaError(f'{p}: graph entry {idx} needs a "name" and a "path" string')
        graphs.append(
            BenchGraph(
                name=entry["name"],
                path=str((base / path).resolve()),
                format=entry.get("format"),
            )
        )

    layouts = []
    for idx, entry in enumerate(_entries(data, "layouts", [], p)):
        if not isinstance(entry, dict):
            raise InkaError(f"{p}: layout entry {idx} must be a JSON object")
        cfg_kwargs = {
            k: entry[k]
            for k in ("algorithm", "seed", "iterations", "ideal_edge_length", "cooling")
            if k in entry
        }
        try:
            cfg = LayoutConfig(**cfg_kwargs)
        except ValueError as e:
            raise InkaError(f"{p}: layout entry {idx}: {e}") from None
        layouts.append((entry.get("name", cfg.algorithm), cfg))

    settings = []
    for idx, entry in enumerate(_entries(data, "settings", DEFAULT_SETTINGS, p)):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InkaError(f"{p}: setting {idx} must be an [r, w] pair, got {entry!r}")
        settings.append(tuple(_number(v, f"{p}: setting {idx}") for v in entry))
    area_raw = data.get("area", "auto")
    area = None if area_raw == "auto" else _number(area_raw, f'{p}: "area"')
    try:
        return BenchConfig(
            graphs=tuple(graphs),
            layouts=tuple(layouts),
            settings=tuple(settings),
            gamma=_number(data.get("gamma", 1.0), f'{p}: "gamma"'),
            area=area,
            raster=data.get("raster", False),
        )
    except ValueError as e:
        raise InkaError(f"{p}: {e}") from None


def worker_count(requested: int | None, jobs: int) -> int:
    """Effective thread count: the request (or auto), capped by
    INKA_THREADS when that is set to a positive value."""
    auto = os.cpu_count() or 1
    count = requested if requested and requested > 0 else auto
    env = os.environ.get("INKA_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise InkaError(f"INKA_THREADS must be an integer, got {env!r}") from None
        if cap > 0:
            count = min(count, cap)
    return max(1, min(count, jobs))


def _graph_rows(bg: BenchGraph, config: BenchConfig) -> list[ReportRow]:
    g = load_graph(bg.path, bg.format)
    rows: list[ReportRow] = []
    for layout_name, lcfg in config.layouts:
        layout = compute_layout(g, lcfg)
        probe = BoldDrawing(g, layout, RenderParams(0.0, 0.0, config.gamma))
        _, L = edge_lengths(probe)
        cr = count_crossings_sweep(probe)
        for r, w in config.settings:
            d = BoldDrawing(g, layout, RenderParams(r, w, config.gamma))
            A = bounding_area(d, fixed=config.area)
            nodes, edges, overlap = ink_components(g.node_count, g.m, r, w, L, cr)
            ink = nodes + edges - overlap
            if A > 0:
                dens = ink / A
                feasible = check_area_constraint(ink, A, config.gamma)
            else:
                dens = 0.0
                feasible = ink <= 0
            raster_ink = (
                rasterize_ink(d, config.raster_config) if config.raster else None
            )
            rows.append(
                ReportRow(
                    graph_name=bg.name,
                    layout_name=layout_name,
                    n=g.node_count,
                    m=g.m,
                    r=r,
                    w=w,
                    gamma=config.gamma,
                    L=L,
                    cr=cr,
                    A=A,
                    ink=ink,
                    density=dens,
                    feasible=feasible,
                    raster_ink=raster_ink,
                    log10_ink=math.log10(ink) if ink > 0 else None,
                )
            )
    return rows


def run_bench(config: BenchConfig, threads: int | None = None) -> list[ReportRow]:
    """All report rows, in config order.  Raises BenchAbort (carrying the
    rows of graphs that completed) if any graph fails."""
    workers = worker_count(threads, len(config.graphs))
    results: dict[int, list[ReportRow]] = {}
    failure: tuple[str, Exception] | None = None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_graph_rows, bg, config): (i, bg)
            for i, bg in enumerate(config.graphs)
        }
        for fut, (i, bg) in futures.items():
            try:
                results[i] = fut.result()
            except Exception as e:
                if failure is None:
                    failure = (bg.name, e)
    if failure is not None:
        completed: list[ReportRow] = []
        for i in range(len(config.graphs)):
            completed.extend(results.get(i, []))
        raise BenchAbort(failure[0], failure[1], completed)
    rows: list[ReportRow] = []
    for i in range(len(config.graphs)):
        rows.extend(results[i])
    return rows


def summarize(rows: list[ReportRow]) -> dict:
    """Qualitative checks over the finished rows.

    * base_least_ink: wherever the rectangle term w(L - 2mr) is at least
      the overlap term w^2*cr, the vertex-only base setting (r=1, w=0)
      must use the least ink of the cell's settings.  Checked per row,
      never assumed.
    * small_radius_change: relative ink change between the (1,1) and
      (2,1) settings for graphs of density m/n <= 5 with positive base
      ink.
    * least_ink_layout: per graph, the layout whose (1,1) row uses the
      least ink.
    """
    cells: dict[tuple[str, str], dict[tuple[float, float], ReportRow]] = {}
    for row in rows:
        cells.setdefault((row.graph_name, row.layout_name), {})[(row.r, row.w)] = row

    base_checked = 0
    base_violations: list[dict] = []
    changes: list[dict] = []
    for (gname, lname), by_setting in cells.items():
        base = by_setting.get(BASE_SETTING)
        if base is not None:
            for (r, w), row in by_setting.items():
                if (r, w) == BASE_SETTING:
                    continue
                if w * (row.L - 2 * row.m * r) >= w * w * row.cr:
                    base_checked += 1
                    if base.ink > row.ink * (1 + 1e-9):
                        base_violations.append(
                            {"graph": gname, "layout": lname, "setting": [r, w]}
                        )
        one = by_setting.get((1.0, 1.0))
        two = by_setting.get((2.0, 1.0))
        if one and two and one.n and one.m / one.n <= 5 and one.ink > 0:
            changes.append(
                {
                    "graph": gname,
                    "layout": lname,
                    "relative_change": abs(two.ink - one.ink) / one.ink,
                }
            )

    least: dict[str, tuple[str, float]] = {}
    for (gname, lname), by_setting in cells.items():
        row = by_setting.get((1.0, 1.0))
        if row is None:
            continue
        if gname not in least or row.ink < least[gname][1]:
            least[gname] = (lname, row.ink)

    return {
        "rows": len(rows),
        "cells": len(cells),
        "base_least_ink": {
            "checked": base_checked,
            "holds": base_checked - len(base_violations),
            "violations": base_violations,
        },
        "small_radius_change": {
            "checked": len(changes),
            "max_relative_change": max((c["relative_change"] for c in changes), default=None),
            "over_10_percent": [c for c in changes if c["relative_change"] >= 0.10],
        },
        "least_ink_layout": {g: lname for g, (lname, _ink) in sorted(least.items())},
    }


def run_bench_to_files(
    config: BenchConfig,
    out_path,
    format: str = "csv",
    threads: int | None = None,
) -> tuple[list[ReportRow], dict]:
    """Run the bench and write the report; on abort, flush partial rows
    and a MANIFEST of what completed, then re-raise."""
    out = Path(out_path)
    manifest = out.with_name(out.name + ".MANIFEST")
    try:
        rows = run_bench(config, threads=threads)
    except BenchAbort as e:
        lines = ["# completed rows (graph,layout,r,w)"]
        lines += [f"{r.graph_name},{r.layout_name},{r.r},{r.w}" for r in e.rows]
        lines.append(f"# aborted: {e.graph_name}: {e.cause}")
        manifest.write_text("\n".join(lines) + "\n")
        if e.rows:
            emit_report(e.rows, format=format, path=out)
        raise
    emit_report(rows, format=format, path=out)
    return rows, summarize(rows)
