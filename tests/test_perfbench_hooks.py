"""The benchmark's traced mode (``perfbench/run.py --trace 1``) swaps inka
functions for wrappers by module and name, with no default for a missing
name.  A rename or an import cleanup in inka.bench, inka.ink or
inka.transforms that breaks it fails here, and so does a change to the
properness report that the benchmark's reads of it cannot take."""

import sys
from pathlib import Path

import inka.bench
import inka.geometry
import inka.transforms
from conftest import bold
from inka import BenchConfig, BenchGraph, LayoutConfig, build_graph, write_edge_list

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    from perfbench.tracing import BENCH_IMPORTS, Tracer

    bound = {name: getattr(inka.bench, name) for name in BENCH_IMPORTS}
    partial_edges = inka.transforms.partial_edges
    tracer = Tracer()
    tracer.install()
    try:
        assert inka.transforms.partial_edges is not partial_edges
        d = bold([(0, 0), (10, 10), (0, 10), (10, 0)], [(0, 1), (2, 3)])
        inka.transforms.partial_edges(d, 0.5)
    finally:
        tracer.uninstall()
    assert inka.transforms.partial_edges is partial_edges
    assert {name: getattr(inka.bench, name) for name in BENCH_IMPORTS} == bound
    assert tracer.counters["transforms.stub_segments"] == 4


def test_traced_check_proper_counts_concurrent_points(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from perfbench.tracing import Tracer

    # three edges through (almost) one point, and two overlapping disks
    pts = [(-10, 0), (10, 0), (0, -10), (0, 10), (-10, -10), (10, 10), (-10, 0.5)]
    d = bold(pts, [(0, 1), (2, 3), (4, 5)], r=0.3, w=0.5)
    with Tracer() as tracer:
        report = inka.geometry.check_proper(d)
    rows = len(report.concurrent_edges)
    assert rows > 0
    assert tracer.counters["geometry.concurrent_points"] == rows
    # the crossings workload compares this with a list of int tuples
    assert sorted(report.disk_overlaps) == [(0, 6)]
    assert all(type(v) is int for pair in report.disk_overlaps for v in pair)


def test_traced_one_worker_bench_has_one_task_span_per_cell(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from perfbench.tracing import Tracer

    paths = []
    for name, edges in (("ring", [(0, 1), (1, 2), (2, 3), (3, 0)]), ("path", [(0, 1), (1, 2)])):
        paths.append(tmp_path / f"{name}.edges")
        write_edge_list(build_graph(4, edges), paths[-1])
    config = BenchConfig(
        graphs=tuple(BenchGraph(p.stem, str(p)) for p in paths),
        layouts=(("random", LayoutConfig(algorithm="random", seed=3)),
                 ("circular", LayoutConfig(algorithm="circular"))),
        settings=((1.0, 0.0), (1.0, 1.0)),
    )
    with Tracer() as tracer:
        rows = inka.bench.run_bench(config, threads=1)
    assert len(rows) == 2 * 2 * 2
    (bench,) = [i for i, span in enumerate(tracer.spans) if span[0] == "run_bench"]
    tasks = [span for span in tracer.spans if span[0] == "_graph_rows"]
    assert len(tasks) == 4 and all(span[3] == bench for span in tasks)
    seconds = [(end - start) / 1e9 for _name, start, end, _parent, _tid in tasks]
    layers = tracer.layer_metrics(rounds=1)
    assert layers["bench.layer_busy_s"] == sum(seconds)
    assert layers["bench.longest_graph_s"] == max(seconds)
