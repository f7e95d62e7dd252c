"""Benchmark harness: graphs x layouts x (r, w) settings -> report rows.

The config is a declarative JSON file listing graph files, layout
configurations, and render settings.  Every (graph, layout) pair is laid
out and measured once (edge lengths and crossings do not depend on r or
w); each setting then costs only closed-form arithmetic, plus an optional
rasterization.  Row ink uses the aggregate formula, never per-edge
clamping, so any row can be recomputed from its own n, m, r, w, L, cr
columns.

Graphs are parsed once, in the caller.  With more than one worker, each
(graph, layout) cell is a task for a pool of worker processes, submitted
largest first; with one worker, the cells run in the calling thread, and
no pool, thread or child process is started.  The worker count is the
request (0 or None means one per CPU) capped by the INKA_THREADS
environment variable.  Rows follow the config order, so the report is
the same bytes at every worker count.  If any graph fails, the whole run
aborts, naming the first failing graph in config order; rows of graphs
whose cells all finished are flushed alongside a MANIFEST naming them and
the failure.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InkaError, ParseError
from .formats import _PARSERS, ReportRow, _read, emit_report, load_graph
from .geometry import bounding_area, count_crossings_sweep, edge_lengths
from .ink import ink_report
# perfbench/tracing.py (BENCH_IMPORTS) looks these two up on this module.
from .ink import check_area_constraint, ink_components
from .layout import LayoutConfig, compute_layout
from .model import BoldDrawing, Graph, RenderParams, _positive
from .raster import rasterize_ink

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

    def __post_init__(self):
        if not self.graphs:
            raise ValueError("bench config needs at least one graph")
        if not self.layouts:
            raise ValueError("bench config needs at least one layout")
        if not self.settings:
            raise ValueError("bench config needs at least one (r, w) setting")
        for r, w in self.settings:  # a bad r, w, gamma or area fails here, not mid-run
            RenderParams(r, w, self.gamma)
        if self.area is not None:
            _positive(self.area, "fixed area")
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
        raise ParseError(f"{what} must be a number, got {value!r}")
    return float(value)


def _entries(data: dict, key: str, default) -> list:
    value = data.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ParseError(f'"{key}" must be a list, got {value!r}')
    return value


def _known_keys(entry: dict, keys: tuple, where: str):
    for key in entry:
        if key not in keys:
            raise ParseError(f'{where}: unknown key "{key}" (expected {", ".join(keys)})')


_CONFIG_KEYS = ("graphs", "layouts", "settings", "gamma", "area", "raster")
_GRAPH_KEYS = ("name", "path", "format")
_LAYOUT_KEYS = ("name",) + tuple(f.name for f in fields(LayoutConfig))


def load_bench_config(path) -> BenchConfig:
    """Read a JSON bench config; graph paths resolve relative to it.  Any
    malformed entry, unknown key or repeated graph or layout name raises
    ParseError naming the file, the entry and the field."""
    return _read(path, _bench_config, Path(path).parent)


def _bench_config(text: str, base: Path) -> BenchConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{e.msg} (column {e.colno})", line=e.lineno) from None
    if not isinstance(data, dict):
        raise ParseError("a bench config must be a JSON object")
    _known_keys(data, _CONFIG_KEYS, "top level")

    graphs = []
    for idx, entry in enumerate(_entries(data, "graphs", [])):
        if isinstance(entry, dict):
            _known_keys(entry, _GRAPH_KEYS, f"graph entry {idx}")
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("path"), str)):
            raise ParseError(f'graph entry {idx} needs a "name" and a "path" string')
        fmt = entry.get("format")
        if fmt is not None and not (isinstance(fmt, str) and fmt in _PARSERS):
            raise ParseError(f'graph entry {idx}: "format" must be null or one of '
                             f"{', '.join(sorted(_PARSERS))}, got {fmt!r}")
        path = str((base / entry["path"]).resolve())
        graphs.append(BenchGraph(name=entry["name"], path=path, format=fmt))

    layouts = []
    for idx, entry in enumerate(_entries(data, "layouts", [])):
        if not isinstance(entry, dict):
            raise ParseError(f"layout entry {idx} must be a JSON object")
        _known_keys(entry, _LAYOUT_KEYS, f"layout entry {idx}")
        try:
            cfg = LayoutConfig(**{k: v for k, v in entry.items() if k != "name"})
        except ValueError as e:
            raise ParseError(f"layout entry {idx}: {e}") from None
        name = entry.get("name", cfg.algorithm)
        if not isinstance(name, str):
            raise ParseError(f'layout entry {idx}: "name" must be a string, got {name!r}')
        layouts.append((name, cfg))
    for kind, names in (("graph", [g.name for g in graphs]), ("layout", [n for n, _ in layouts])):
        for idx, name in enumerate(names):
            if name in names[:idx]:
                raise ParseError(f"{kind} entry {idx}: name {name!r} is already used by "
                                 f"{kind} entry {names.index(name)}")

    settings = []
    for idx, entry in enumerate(_entries(data, "settings", DEFAULT_SETTINGS)):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ParseError(f"setting {idx} must be an [r, w] pair, got {entry!r}")
        settings.append(tuple(_number(v, f"setting {idx}") for v in entry))
    area_raw = data.get("area", "auto")
    area = None if area_raw == "auto" else _number(area_raw, '"area"')
    try:
        return BenchConfig(
            graphs=tuple(graphs),
            layouts=tuple(layouts),
            settings=tuple(settings),
            gamma=_number(data.get("gamma", 1.0), '"gamma"'),
            area=area,
            raster=data.get("raster", False),
        )
    except ValueError as e:
        raise ParseError(str(e)) from None


def worker_count(requested: int | None, jobs: int) -> int:
    """Effective worker count: the request (None or 0 = auto), capped by
    INKA_THREADS when that is set to a positive value (0 = no cap).  A
    negative request or cap is an InkaError."""
    if requested is not None and requested < 0:
        raise InkaError(f"thread count must be >= 0 (0 = auto), got {requested}")
    count = requested or os.cpu_count() or 1
    env = os.environ.get("INKA_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise InkaError(f"INKA_THREADS must be an integer, got {env!r}") from None
        if cap < 0:
            raise InkaError(f"INKA_THREADS must be >= 0 (0 = no cap), got {env!r}")
        if cap > 0:
            count = min(count, cap)
    return max(1, min(count, jobs))


def _graph_rows(name: str, g: Graph, layouts: tuple[tuple[str, LayoutConfig], ...],
                config: BenchConfig) -> list[ReportRow]:
    """The rows of graph g under each of layouts, in their order: one call
    per graph in the calling thread, one per cell in a worker process."""
    rows: list[ReportRow] = []
    for layout_name, lcfg in layouts:
        layout = compute_layout(g, lcfg)
        probe = BoldDrawing(g, layout, RenderParams(0.0, 0.0, config.gamma))
        _, L = edge_lengths(probe)
        cr = count_crossings_sweep(probe)
        for r, w in config.settings:
            d = BoldDrawing(g, layout, RenderParams(r, w, config.gamma))
            A = bounding_area(d, fixed=config.area)
            report = ink_report(g.node_count, g.m, r, w, L, cr, A, config.gamma)
            raster_ink = rasterize_ink(d) if config.raster else None
            rows.append(ReportRow.of(name, layout_name, d, L, cr, A, report, raster_ink))
    return rows


def _cell_cost(g: Graph, lcfg: LayoutConfig) -> int:
    """A cell's relative cost: n^2 per spring iteration, n^2 otherwise."""
    n2 = g.node_count**2
    return n2 * lcfg.iterations if lcfg.algorithm in ("force-directed", "multilevel") else n2


def run_bench(config: BenchConfig, threads: int | None = None) -> list[ReportRow]:
    """All report rows, in config order.  Raises BenchAbort (carrying the
    rows of graphs whose cells all finished) if any graph fails.

    More than one worker means spawned worker processes, so a script that
    calls this needs the usual ``if __name__ == "__main__":`` guard."""
    graphs, causes = {}, {}
    for i, bg in enumerate(config.graphs):
        try:
            graphs[i] = load_graph(bg.path, bg.format)
        except Exception as e:
            causes[i] = e
    cells = [(i, j) for i in graphs for j in range(len(config.layouts))]
    workers = worker_count(threads, len(cells))
    results: dict[int, list[ReportRow]] = {}
    if workers == 1:
        for i, g in graphs.items():
            try:
                results[i] = _graph_rows(config.graphs[i].name, g, config.layouts, config)
            except Exception as e:
                causes[i] = e
    else:
        # Imported here, not at the top: the pool's modules would add 10-25 ms
        # and about 1 MB to every `import inka`.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Spawned, not forked: the caller may hold threads (BLAS's among them).
        spawn = multiprocessing.get_context("spawn")
        cells.sort(key=lambda c: _cell_cost(graphs[c[0]], config.layouts[c[1]][1]), reverse=True)
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            futures = {
                (i, j): pool.submit(_graph_rows, config.graphs[i].name, graphs[i],
                                    config.layouts[j:j + 1], config)
                for i, j in cells
            }
        # A lost worker (BrokenProcessPool) fails every cell it left unfinished.
        for (i, _), fut in sorted(futures.items()):
            if i not in causes:
                try:
                    results.setdefault(i, []).extend(fut.result())
                except Exception as e:
                    causes[i] = e
    rows = [row for i in sorted(results) if i not in causes for row in results[i]]
    if causes:
        first = min(causes)
        raise BenchAbort(config.graphs[first].name, causes[first], rows)
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
    least: dict[str, tuple[str, float]] = {}
    for (gname, lname), by_setting in cells.items():
        base = by_setting.get(BASE_SETTING)
        if base is not None:
            for (r, w), row in by_setting.items():
                if (r, w) == BASE_SETTING:
                    continue
                terms = ink_report(row.n, row.m, r, w, row.L, row.cr, row.A, row.gamma)
                if terms.ink_edges >= terms.overlap:
                    base_checked += 1
                    if base.ink > row.ink * (1 + 1e-9):
                        base_violations.append(
                            {"graph": gname, "layout": lname, "setting": [r, w]}
                        )
        one = by_setting.get((1.0, 1.0))
        two = by_setting.get((2.0, 1.0))
        if one and (gname not in least or one.ink < least[gname][1]):
            least[gname] = (lname, one.ink)
        if one and two and one.n and one.m / one.n <= 5 and one.ink > 0:
            changes.append(
                {
                    "graph": gname,
                    "layout": lname,
                    "relative_change": abs(two.ink - one.ink) / one.ink,
                }
            )

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
