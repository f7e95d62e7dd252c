"""Microbenchmarks of the spring-layout kernels (pytest-benchmark).

They carry the ``perf`` marker, which the default options deselect, so
the ordinary suite never runs them.  Run them with

    PYTHONPATH=src python -m pytest -m perf tests/test_perf_kernels.py
"""

from pathlib import Path

import numpy as np
import pytest

from inka import load_graph
from inka.layout import _repulsion_exact, _spring_iterate

pytestmark = pytest.mark.perf

MESH24 = Path(__file__).resolve().parents[1] / "data" / "graphs" / "mesh24.graph"


def random_positions(n, k=30.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, np.sqrt(n) * k, size=(n, 2))


@pytest.mark.parametrize("n", [144, 576])
def test_repulsion_exact(benchmark, n):
    pos = random_positions(n)
    disp = benchmark(_repulsion_exact, pos, np.ones(n), 30.0)
    assert disp.shape == (n, 2)


def test_spring_iterate_one_step_mesh24(benchmark):
    g = load_graph(MESH24)
    n, edges = g.node_count, g.edge_array()
    pos = random_positions(n)
    out = benchmark(
        _spring_iterate, pos, edges, np.ones(len(edges)), np.ones(n), 30.0, 1,
        t0=0.1 * np.sqrt(n) * 30.0, cooling=0.95,
    )
    assert np.isfinite(out).all()
