"""The benchmark's traced mode (``perfbench/run.py --trace 1``) swaps inka
functions for wrappers by module and name, with no default for a missing
name.  A rename or an import cleanup in inka.bench, inka.ink or
inka.transforms that breaks it fails here."""

import sys
from pathlib import Path

import inka.bench
import inka.transforms
from conftest import bold

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
