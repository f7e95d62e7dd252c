"""The three workloads: inputs made from a seed, one timed round, checks.

Every workload splits into items (bench cells or drawings).  A round runs
every item once, in a fixed order, through the same library calls the
``inka`` command line and ``inka bench`` make.  Library functions are
always looked up through their module (``geometry.measure``), so a traced
round reaches the wrappers that ``tracing`` installs there.

The checks run outside the timed section on the outputs of the first
round; later rounds must reproduce those outputs exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np

GRAPH_FILES = {"can_144": "can_144.mtx", "mesh24": "mesh24.graph", "ba800": "ba800.edges"}


def rel_close(a: float, b: float, *scale: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b), *(abs(s) for s in scale))


class Workload:
    """Base: subclasses fill ``items`` and implement the hooks.

    ``ROUND_S`` is the time of one round on the machine the benchmark was
    tuned on (2 vCPUs); a run of --seconds holds seconds // ROUND_S rounds,
    a count that depends on --seconds only, never on the machine's speed.
    """

    name = ""
    ROUND_S = 1.0

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.items: list = []

    def rounds(self, seconds: float) -> int:
        return max(2, int(seconds // self.ROUND_S))

    def load(self, inka) -> None:
        """The program calls that load this workload's inputs.  Timed for
        setup_s, in fresh interpreters, after `import inka`."""

    def generate(self, inka) -> None:
        """The benchmark's own input generation, after load; never timed."""

    def run(self, inka):
        """Run every item once through _time_items; returns its four lists."""
        raise NotImplementedError

    def check(self, inka, outputs) -> list[str | None]:
        """One failure reason (or None) per item, for the first round."""
        raise NotImplementedError

    def output_key(self, out):
        """The part of an item's output that later rounds must repeat."""
        return out


# The reference kernel: a fixed pure-Python loop of the benchmark's own,
# about 1 ms of CPU, that calls no inka code, so a change to the program
# never changes its time.  It is timed between items to sample the host's
# speed all through a run.  Of the kernels tried (this loop, numpy passes
# over a 2.4 MB and a 16 MB array, a vectorised segment test, and mixes),
# this one steadied the workloads' times as well as any and costs least.
_REF_LOOP = 10_000


def reference() -> float:
    """CPU seconds the reference kernel takes now."""
    t0 = time.process_time()
    s = 0
    for i in range(_REF_LOOP):
        s += i * i % 7
    return time.process_time() - t0


def _time_items(items, fn):
    """Run fn on each item; an exception fails that item only.

    Returns ([cpu_s], [output], [error], [reference_s]).  An item's CPU
    time is the process's, so it counts the bench's worker thread too.
    The reference kernel runs before the first item and after each one.
    """
    cpu, outputs, errors, refs = [], [], [], [reference()]
    for item in items:
        t0 = time.process_time()
        try:
            out, err = fn(item), None
        except Exception as e:  # the item failed; the round goes on
            out, err = None, f"{type(e).__name__}: {e}"
        cpu.append(time.process_time() - t0)
        outputs.append(out)
        errors.append(err)
        refs.append(reference())
    return cpu, outputs, errors, refs


# ---------------------------------------------------------------- bench

class BenchFixtures(Workload):
    """run_bench on the shipped fixtures, graphs x layouts x settings.

    The config is data/bench.json with its layout seeds drawn from the
    workload seed.  Two cuts keep a round near six seconds, so that a run
    holds several rounds: ba800 and yeastppi are left out (the multilevel
    layout of either alone takes about 9 s), and the force-directed and
    multilevel iterations drop from 300 to ITERATIONS.

    Each item is one run_bench call on one (graph, layout) cell with all
    its settings, on one thread.  A whole-config call on two threads
    spreads too much to measure on a 2-vCPU shared host, and its CPU time,
    which the benchmark reports, would not show a better thread schedule.
    """

    name = "bench-fixtures"
    ROUND_S = 6.0
    GRAPHS = ("can_144", "mesh24")
    ITERATIONS = 100
    THREADS = 1

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        shipped = json.loads((root / "data" / "bench.json").read_text())
        shipped["graphs"] = [
            dict(g, path=str(root / "data" / g["path"]))
            for g in shipped["graphs"] if g["name"] in self.GRAPHS
        ]
        for lay in shipped["layouts"]:
            if "seed" in lay:
                lay["seed"] = int(self.rng.integers(0, 2**32))
            if "iterations" in lay:
                lay["iterations"] = self.ITERATIONS
        self.config_path = work / "bench.json"
        self.config_path.write_text(json.dumps(shipped, indent=1))

    def load(self, inka):
        self.config = inka.bench.load_bench_config(self.config_path)

    def generate(self, inka):
        self.workers = inka.bench.worker_count(self.THREADS, 1)
        self.items = [(bg.name, lname) for bg in self.config.graphs
                      for lname, _ in self.config.layouts]
        self.cells = [
            dataclasses.replace(self.config, graphs=(bg,), layouts=(lay,))
            for bg in self.config.graphs for lay in self.config.layouts
        ]

    def _one(self, inka, cell):
        try:
            return inka.bench.run_bench(cell, threads=self.THREADS)
        except inka.bench.BenchAbort as e:
            raise RuntimeError(str(e)) from e

    def run(self, inka):
        return _time_items(self.cells, lambda cell: self._one(inka, cell))

    def check(self, inka, outputs):
        reasons: dict[tuple, str | None] = {}
        rows = []
        for cell, cell_rows in zip(self.items, outputs):
            reasons[cell] = None
            if cell_rows is None:
                continue
            rows.extend(cell_rows)
            if len(cell_rows) != len(self.config.settings):
                reasons[cell] = f"{len(cell_rows)} rows"
            for row in cell_rows:
                nodes = row.n * math.pi * row.r * row.r
                edges = row.w * (row.L - 2.0 * row.m * row.r)
                overlap = row.w * row.w * row.cr
                if not rel_close(row.ink, nodes + edges - overlap, nodes, edges,
                                 overlap, tol=1e-12):
                    reasons[cell] = f"ink {row.ink!r} does not recompute at r={row.r} w={row.w}"
        summary = inka.bench.summarize(rows)
        base, small = summary["base_least_ink"], summary["small_radius_change"]
        for v in base["violations"]:
            reasons[(v["graph"], v["layout"])] = f"base setting not least ink at {v['setting']}"
        for c in small["over_10_percent"]:
            reasons[(c["graph"], c["layout"])] = (
                f"radius change {c['relative_change']:.3f} >= 0.10")
        expected = len(self.items) * len(self.config.settings)
        if summary["rows"] != expected or base["checked"] == 0 or small["checked"] < 4:
            why = (f"{summary['rows']}/{expected} rows, base-least-ink checked "
                   f"{base['checked']}, radius-change checked {small['checked']}")
            reasons = {cell: r or why for cell, r in reasons.items()}
        return [reasons[cell] for cell in self.items]

    def output_key(self, out):
        return None if out is None else [tuple(vars(r).values()) for r in out]


# ---------------------------------------------------------------- crossings

class Crossings(Workload):
    """Crossing counting on the fixtures with seed-drawn positions; no layout.

    Families: uniform in a square (side sqrt(n) * 30, the random layout's
    box), uniform angles on a circle (circumference n * 30), and distinct
    points of an integer lattice of side ceil(2 sqrt(n)), which brings
    ties, vertical segments and collinear overlaps.  Each call is an item
    of its own, so every item stays short.  Stub crossings and
    check_proper run on chosen drawings only: check_proper's cost grows
    with the crossings it lists (mesh24 on the lattice lists 4.6 M
    concurrent points in about 47 s).
    """

    name = "crossings"
    ROUND_S = 5.0
    DRAWINGS = (
        ("uniform", "can_144"), ("uniform", "mesh24"), ("uniform", "ba800"),
        ("circle", "can_144"), ("circle", "mesh24"), ("circle", "ba800"),
        ("lattice", "can_144"), ("lattice", "mesh24"),
    )
    STUBS = (("uniform", "can_144"),)
    STUB_RATIOS = (0.5, 1.0)
    PROPER = (("uniform", "can_144"), ("lattice", "can_144"))
    # Radius 5 gives some dozens of overlapping disks on the uniform
    # drawings, so the disk-overlap check compares non-empty sets.
    PARAMS = {"uniform": (5.0, 1.0), "circle": (5.0, 1.0), "lattice": (0.25, 0.1)}
    BRUTE_MAX_M = 1633

    def _paths(self):
        return {name: str(self.root / "data" / "graphs" / f)
                for name, f in GRAPH_FILES.items()}

    def load(self, inka):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", inka.ParseWarning)
            self.graphs = {name: inka.formats.load_graph(path)
                           for name, path in self._paths().items()}

    def generate(self, inka):
        self.drawings = {}
        for family, gname in self.DRAWINGS:
            g = self.graphs[gname]
            n = g.node_count
            if family == "uniform":
                pos = self.rng.uniform(0.0, math.sqrt(n) * 30.0, size=(n, 2))
            elif family == "circle":
                theta = self.rng.uniform(0.0, 2.0 * math.pi, size=n)
                rad = n * 30.0 / (2.0 * math.pi)
                pos = np.column_stack([rad * np.cos(theta), rad * np.sin(theta)])
            else:
                side = math.ceil(2.0 * math.sqrt(n))
                cells = self.rng.choice(side * side, size=n, replace=False)
                pos = np.column_stack([cells % side, cells // side]).astype(np.float64)
            r, w = self.PARAMS[family]
            self.drawings[family, gname] = inka.BoldDrawing(
                g, inka.Layout(pos), inka.RenderParams(r, w))
        self.items = [("measure", key, None) for key in self.DRAWINGS]
        self.items += [("stubs", key, p) for key in self.STUBS for p in self.STUB_RATIOS]
        self.items += [("proper", key, None) for key in self.PROPER]

    def _one(self, inka, item):
        op, key, p = item
        d = self.drawings[key]
        if op == "measure":
            m = inka.geometry.measure(d)
            return m.crossings, m.total_edge_length, m.area
        if op == "stubs":
            return inka.transforms.measure_stub_crossings(
                inka.transforms.partial_edges(d, p))
        rep = inka.geometry.check_proper(d)
        return (sorted(rep.disk_overlaps), len(rep.concurrent_points),
                len(rep.collinear_overlaps))

    def run(self, inka):
        return _time_items(self.items, lambda item: self._one(inka, item))

    def check(self, inka, outputs):
        got = {(op, key, p): out for (op, key, p), out in zip(self.items, outputs)}
        reasons = []
        for (op, key, p), out in zip(self.items, outputs):
            d, why = self.drawings[key], None
            cr = (got[("measure", key, None)] or (None,))[0]
            if out is None:
                pass
            elif op == "measure" and d.graph.m <= self.BRUTE_MAX_M:
                brute = inka.geometry.count_crossings_bruteforce(d)
                if brute != cr:
                    why = f"sweep {cr} != brute force {brute}"
            elif op == "stubs" and p == 1.0 and out != cr:
                why = f"stub crossings at p=1 {out} != sweep {cr}"
            elif op == "stubs" and p < 1.0 and out > (got[("stubs", key, 1.0)] or 0):
                why = f"stub crossings at p={p} {out} > at p=1"
            elif op == "proper" and out[0] != _disk_overlaps(d):
                why = "disk overlaps differ from the numpy pair count"
            reasons.append(why and f"{op} {'/'.join(key)}: {why}")
        return reasons


def _disk_overlaps(d):
    """Node pairs i < j whose disks intersect, from one distance matrix."""
    pos = d.layout.positions
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    i, j = np.nonzero(np.triu(d2 < (2.0 * d.params.radius) ** 2, k=1))
    return sorted(zip(i.tolist(), j.tolist()))


# ---------------------------------------------------------------- small drawings

def _graph_texts(n: int, edges: list[tuple[int, int]], rng):
    """The same graph as edge-list, Matrix Market and Chaco text, with the
    edge order and orientation shuffled."""
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    pairs = [(b, a) if f else (a, b) for (a, b), f in
             zip((edges[i] for i in order), flip)]
    edge_list = "# nodes then edges\n" + "".join(f"{i} {i}\n" for i in range(n))
    edge_list += "".join(f"{a} {b}\n" for a, b in pairs)
    mtx = "%%MatrixMarket matrix coordinate pattern symmetric\n"
    mtx += f"{n} {n} {len(pairs)}\n" + "".join(f"{a + 1} {b + 1}\n" for a, b in pairs)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b + 1)
        adj[b].append(a + 1)
    chaco = f"{n} {len(pairs)}\n" + "".join(" ".join(map(str, nb)) + "\n" for nb in adj)
    return {".edges": edge_list, ".mtx": mtx, ".graph": chaco}


class SmallDrawings(Workload):
    """Many small drawings down the single-drawing command-line path.

    Graphs are connected (a random spanning tree plus random extra edges),
    so every node id appears in every format.  Layout CSV goes through
    text, as `inka layout` writes it and `inka analyze` reads it.

    The work of a round is fixed by the drawing's slot, not by the seed:
    slot i has a fixed size, density, radius and width (from even grids,
    paired by fixed strides), format (i mod 3) and layout algorithm
    (i mod 2).  The seed draws the edges, the layout seeds, the text order
    of the files and the transform factors.
    """

    name = "small-drawings"
    ROUND_S = 6.0
    COUNT = 200
    NODES = (20, 50)
    SUFFIXES = (".edges", ".mtx", ".graph")
    ALGORITHMS = ("random", "circular")
    RASTER = dict(resolution=64, supersampling=1)
    STUB_RATIO = 0.5

    @classmethod
    def _grid(cls, lo: float, hi: float, stride: int) -> np.ndarray:
        """COUNT evenly spaced values, visited in a fixed order coprime to COUNT."""
        return np.linspace(lo, hi, cls.COUNT)[(np.arange(cls.COUNT) * stride) % cls.COUNT]

    def generate(self, inka):
        self.raster_cfg = inka.RasterConfig(**self.RASTER)
        sizes = np.linspace(*self.NODES, self.COUNT).round()
        extra = self._grid(0.25, 0.75, 77)
        radius = self._grid(0.5, 3.0, 37)
        width = self._grid(0.1, 1.5, 53)
        for i in range(self.COUNT):
            n = int(sizes[i])
            parent = [int(self.rng.integers(0, v)) for v in range(1, n)]
            pairs = {(min(v, p), max(v, p)) for v, p in zip(range(1, n), parent)}
            target = n - 1 + round(extra[i] * n)
            while len(pairs) < target:
                a, b = (int(x) for x in self.rng.integers(0, n, size=2))
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
            edges = sorted(pairs)
            suffix = self.SUFFIXES[i % 3]
            path = self.work / f"g{i:04d}{suffix}"
            path.write_text(_graph_texts(n, edges, self.rng)[suffix])
            self.items.append(dict(
                path=str(path),
                graph=inka.build_graph(n, edges),
                layout=inka.LayoutConfig(algorithm=self.ALGORITHMS[i % 2],
                                         seed=int(self.rng.integers(0, 2**32))),
                params=inka.RenderParams(float(radius[i]), float(width[i])),
                sigma=float(self.rng.uniform(0.5, 3.0)),
                zeta=float(self.rng.uniform(0.25, 9.0)),
            ))

    def _one(self, inka, item):
        geometry, transforms, ink, formats = (
            inka.geometry, inka.transforms, inka.ink, inka.formats)
        g = formats.load_graph(item["path"])
        layout = inka.layout.compute_layout(g, item["layout"])
        csv_text = formats.write_layout_csv(layout)
        layout2 = formats.parse_layout_csv(csv_text, node_count=g.node_count)
        params = item["params"]
        d = inka.BoldDrawing(g, layout2, params)
        metrics = geometry.measure(d)
        strict = ink.ink_total(d, metrics, strict=True)
        clamped = ink.ink_total(d, metrics)
        clarity = ink.clarity_decomposition(d, metrics)
        bounds = ink.bounds_report(g.node_count, g.m, params.radius, params.width,
                                   metrics.total_edge_length, metrics.crossings,
                                   params.gamma, metrics.area)

        sigma, zeta = item["sigma"], item["zeta"]
        d_s = inka.BoldDrawing(g, transforms.scale_layout(layout2, sigma), params)
        scaled = ink.ink_total(d_s, geometry.measure(d_s), strict=True)
        scale_pred = ink.scale_ink_delta(params.width, metrics.total_edge_length, sigma)
        d_z = transforms.zoom_drawing(d, zeta)
        zoomed = ink.ink_total(d_z, geometry.measure(d_z), strict=True)
        zoom_pred = ink.zoom_ink(strict.ink_total, zeta)

        stubs = transforms.partial_edges(d, self.STUB_RATIO)
        cr_stub = transforms.measure_stub_crossings(stubs)
        partial = ink.partial_edge_formulas(
            g.node_count, g.m, params.radius, params.width, metrics.total_edge_length,
            self.STUB_RATIO, metrics.crossings, cr_stub, params.gamma, metrics.area)

        raster = inka.raster.rasterize_ink(d, self.raster_cfg)
        svg = inka.raster.render_svg(d)
        row = formats.ReportRow(
            graph_name=Path(item["path"]).stem, layout_name=item["layout"].algorithm,
            n=g.node_count, m=g.m, r=params.radius, w=params.width,
            gamma=params.gamma, L=metrics.total_edge_length, cr=metrics.crossings,
            A=metrics.area, ink=strict.ink_total, density=strict.density,
            feasible=strict.feasible, raster_ink=raster,
            log10_ink=math.log10(strict.ink_total) if strict.ink_total > 0 else None)
        report = formats.emit_report([row], format="csv")
        return dict(
            graph=g, layout=layout, layout2=layout2, d=d, metrics=metrics,
            key=(metrics.crossings, metrics.total_edge_length, metrics.area,
                 strict.ink_total, clamped.ink_total, clarity.total,
                 bounds.planar_l_max, scaled.ink_total, zoomed.ink_total,
                 cr_stub, partial.ink_partial, raster, len(svg), report),
            strict=strict.ink_total, clamped=clamped.ink_total, clarity=clarity.total,
            scaled=scaled.ink_total, scale_pred=scale_pred,
            zoomed=zoomed.ink_total, zoom_pred=zoom_pred, cr_stub=cr_stub,
            raster=raster)

    def run(self, inka):
        return _time_items(self.items, lambda item: self._one(inka, item))

    def check(self, inka, outputs):
        reasons = []
        for item, o in zip(self.items, outputs):
            if o is None:
                reasons.append(None)
                continue
            why = None
            g, d, metrics = o["graph"], o["d"], o["metrics"]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", inka.ParseWarning)
                round_trip = inka.formats.parse_edge_list(inka.formats.write_edge_list(g))
            brute = inka.geometry.count_crossings_bruteforce(d)
            if g != item["graph"]:
                why = "loaded graph differs from the generated one"
            elif round_trip != g:
                why = "write_edge_list does not parse back to the graph"
            elif o["layout"].positions.tobytes() != o["layout2"].positions.tobytes():
                why = "layout CSV does not round-trip bit-exactly"
            elif brute != metrics.crossings:
                why = f"sweep {metrics.crossings} != brute force {brute}"
            elif not rel_close(o["scaled"] - o["strict"], o["scale_pred"],
                               o["strict"], o["scaled"]):
                why = "scale_ink_delta does not match the measured change"
            elif not rel_close(o["zoomed"], o["zoom_pred"]):
                why = "zoom_ink does not match the measured ink"
            elif not rel_close(o["clarity"], o["clamped"], tol=1e-12):
                why = "clarity split does not recompose to the ink total"
            elif o["cr_stub"] > metrics.crossings:
                why = f"stub crossings {o['cr_stub']} > full crossings"
            elif not 0.0 < o["raster"] <= metrics.area:
                why = f"raster ink {o['raster']} outside (0, {metrics.area}]"
            reasons.append(why and f"{Path(item['path']).name}: {why}")
        return reasons

    def output_key(self, out):
        return None if out is None else out["key"]


WORKLOADS = {w.name: w for w in (BenchFixtures, Crossings, SmallDrawings)}
