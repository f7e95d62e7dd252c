"""Spans around the calls into inka's layers, recorded from outside the package.

A traced round swaps selected public functions of the ``inka`` modules for
thin wrappers, runs, and swaps the originals back.  The wrappers are
installed at the names the callers look them up through (``inka.bench``
imports its helpers by name, so those bindings are replaced too); no file
of the package changes, and untraced rounds run the original functions.

Each span records (name, start_ns, end_ns, parent, thread).  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children, which lie inside it
because spans of one thread nest.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, function) -> the layer metric its self time is added to.  The
# metric's layer is the module the function belongs to.
TRACED = {
    ("layout", "compute_layout"): "layout.dispatch_s",
    ("layout", "layout_random"): "layout.random_s",
    ("layout", "layout_circular"): "layout.circular_s",
    ("layout", "layout_force_directed"): "layout.force_directed_s",
    ("layout", "layout_multilevel"): "layout.multilevel_s",
    ("geometry", "measure"): "geometry.measure_s",
    ("geometry", "edge_lengths"): "geometry.edge_lengths_s",
    ("geometry", "count_crossings_sweep"): "geometry.count_crossings_sweep_s",
    ("geometry", "bounding_area"): "geometry.bounding_area_s",
    ("geometry", "check_proper"): "geometry.check_proper_s",
    ("transforms", "partial_edges"): "transforms.partial_edges_s",
    ("transforms", "measure_stub_crossings"): "transforms.measure_stub_crossings_s",
    ("transforms", "scale_layout"): "transforms.scale_zoom_s",
    ("transforms", "zoom_drawing"): "transforms.scale_zoom_s",
    ("raster", "rasterize_ink"): "raster.rasterize_ink_s",
    ("raster", "render_svg"): "raster.render_svg_s",
    ("formats", "load_graph"): "formats.load_graph_s",
    ("formats", "write_layout_csv"): "formats.layout_csv_s",
    ("formats", "parse_layout_csv"): "formats.layout_csv_s",
    ("formats", "emit_report"): "formats.emit_report_s",
    ("ink", "ink_components"): "ink.eval_s",
    ("ink", "ink_total"): "ink.eval_s",
    ("ink", "check_area_constraint"): "ink.eval_s",
    ("ink", "clarity_decomposition"): "ink.eval_s",
    ("ink", "bounds_report"): "ink.eval_s",
    ("ink", "scale_ink_delta"): "ink.eval_s",
    ("ink", "zoom_ink"): "ink.eval_s",
    ("ink", "partial_edge_formulas"): "ink.eval_s",
    ("bench", "run_bench"): "bench.run_bench_s",
    # The per-graph task the bench's thread pool runs; private, but it is
    # the unit of the bench's schedule, so its spans give busy time and
    # the straggler.
    ("bench", "_graph_rows"): "bench.task_overhead_s",
}

# Names inka.bench imported from other modules: their calls from the
# bench's worker threads go through these bindings.
BENCH_IMPORTS = (
    "load_graph", "compute_layout", "edge_lengths", "count_crossings_sweep",
    "bounding_area", "ink_components", "check_area_constraint", "emit_report",
    "rasterize_ink",
)


def _counts(name, args, result, add):
    """Work counters derived from a traced call's arguments and result."""
    if name == "compute_layout":
        g, cfg = args[0], args[1]
        add("layout.calls", 1)
        if cfg.algorithm in ("force-directed", "multilevel"):
            add("layout.node_iterations", g.node_count * cfg.iterations)
    elif name == "count_crossings_sweep":
        m = args[0].graph.m
        add("geometry.segments", m)
        add("geometry.segment_pairs", m * (m - 1) // 2)
        add("geometry.crossings_found", result)
    elif name == "check_proper":
        add("geometry.concurrent_points", len(result.concurrent_points))
        add("geometry.collinear_overlaps", len(result.collinear_overlaps))
    elif name == "partial_edges":
        add("transforms.stub_segments", len(result.segments))
    elif name == "measure_stub_crossings":
        add("transforms.stub_crossings_found", result)
    elif name == "rasterize_ink":
        add("raster.samples", raster_samples(*args))
    elif name == "render_svg":
        add("raster.svg_bytes", len(result.encode()))
    elif name == "load_graph":
        add("formats.input_bytes", Path(args[0]).stat().st_size)


def raster_samples(d, cfg=None):
    """Grid cells rasterize_ink evaluates, from the drawing's box and the
    config, by the same arithmetic the rasterizer uses to size its grid."""
    import math

    from inka.geometry import bounding_box
    from inka.raster import RasterConfig

    cfg = cfg or RasterConfig()
    xmin, ymin, xmax, ymax = bounding_box(d)
    px = max(xmax - xmin, ymax - ymin) / (cfg.resolution * cfg.supersampling)
    nx = max(1, math.ceil((xmax - xmin) / px - 1e-9))
    ny = max(1, math.ceil((ymax - ymin) / px - 1e-9))
    return nx * ny


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _add(self, key, k):
        with self._lock:
            self.counters[key] += k

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, threading.get_ident())
            _counts(name, args, result, tracer._add)
            return result

        return traced

    def install(self):
        wrapped = {}
        for mod_name, fn_name in TRACED:
            mod = importlib.import_module(f"inka.{mod_name}")
            fn = getattr(mod, fn_name)
            wrapped[fn] = self._wrap(fn_name, fn)
            self._saved.append((mod, fn_name, fn))
            setattr(mod, fn_name, wrapped[fn])
        bench = importlib.import_module("inka.bench")
        for fn_name in BENCH_IMPORTS:
            fn = getattr(bench, fn_name)
            if fn in wrapped:
                self._saved.append((bench, fn_name, fn))
                setattr(bench, fn_name, wrapped[fn])

    def uninstall(self):
        for mod, fn_name, fn in reversed(self._saved):
            setattr(mod, fn_name, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer metrics: self seconds per traced function group,
        busy seconds per layer, and the counters."""
        metric_of = {fn: key for (_mod, fn), key in TRACED.items()}
        child = [0] * len(self.spans)
        for _name, start, end, parent, _tid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        tasks = []
        for i, (name, start, end, _parent, _tid) in enumerate(self.spans):
            self_s = (end - start - child[i]) / 1e9
            key = metric_of[name]
            out[key] += self_s
            if not key.startswith("bench."):
                out[key.split(".")[0] + ".busy_s"] += self_s
            if key.startswith(("geometry.", "ink.")):
                out[key.split(".")[0] + ".calls"] += 1
            if name == "_graph_rows":
                tasks.append((end - start) / 1e9)
        for key, v in self.counters.items():
            out[key] += v
        per_round = {k: v / rounds for k, v in out.items()}
        pairs = per_round.get("geometry.segment_pairs", 0)
        per_round["geometry.crossing_density"] = (
            per_round.get("geometry.crossings_found", 0) / pairs if pairs else 0.0
        )
        per_round["bench.layer_busy_s"] = sum(tasks) / rounds
        per_round["bench.longest_graph_s"] = max(tasks, default=0.0)
        return per_round

    def dump(self, path: Path):
        """Write every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, tid in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "thread": tid}) + "\n")
