from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from inka import BoldDrawing, Layout, RenderParams, build_graph


def block_size(entries, constant="inka.geometry._BLOCK_PAIRS"):
    """A context manager in which an engine's block size is entries.

    Engines read their block size constant at each call, so patching it
    is the one way to run them in other blocks; the default constant is
    every pair, run and band engine's, and the repulsion strips read
    "inka.layout._REPULSION_BLOCK_ENTRIES".  Lazy engine blocks must be
    consumed inside the block.  Unlike the monkeypatch fixture, this also
    works inside a Hypothesis test body.
    """
    return mock.patch(constant, entries)


# tokens a character mutation rarely makes: past int64, other digits, signs
_ODD_TOKENS = ["99999999999999999999", "-99999999999999999999", "-0", "+3", "1e3", "nan",
               "inf", "1_0", "\u0663", "0x1", "1.0", ""]


def mutated_text(rng, text):
    """text with 1 to 5 seeded edits: a character or an odd token inserted,
    or a character deleted."""
    chars = list(text)
    for _ in range(int(rng.integers(1, 6))):
        at = int(rng.integers(0, len(chars) + 1))
        op = int(rng.integers(4))
        if op == 0:
            chars.insert(at, str(rng.choice(list("0123456789 -+.e_x%#\n\t"))))
        elif op == 1:
            chars.insert(at, f" {rng.choice(_ODD_TOKENS)} ")
        elif chars:
            del chars[min(at, len(chars) - 1)]
    return "".join(chars)


def kernel_path(path):
    """A context manager in which the crossing kernel answers every band
    of x-overlapping pairs by engine runs ("runs") or from its sign table
    ("table"), whatever the drawing: it patches the kernel's gate
    constant, as block_size patches the block size."""
    gate = {"runs": (math.inf, 0.0), "table": (0, math.inf)}[path]
    return mock.patch("inka.geometry._TABLE_GATE", gate)


def bold(points, edges, r=1.0, w=0.1, gamma=1.0) -> BoldDrawing:
    g = build_graph(len(points), edges)
    pos = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return BoldDrawing(g, Layout(pos), RenderParams(r, w, gamma))


def random_bold_drawing(
    rng,
    n_max=30,
    m_max=60,
    lattice_prob=0.2,
    radius=None,
    width=None,
    span=100.0,
) -> BoldDrawing:
    """Random drawing for property sweeps.

    A slice of them land on a small integer lattice on purpose: that
    produces vertical segments, shared coordinates, collinear overlaps,
    and coincident nodes, which is where crossing counters disagree if
    they are going to.
    """
    n = int(rng.integers(2, n_max + 1))
    target = int(rng.integers(0, min(m_max, n * (n - 1) // 2) + 1))
    pairs = set()
    attempts = 0
    while len(pairs) < target and attempts < 20 * target + 50:
        a, b = (int(v) for v in rng.integers(n, size=2))
        attempts += 1
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    g = build_graph(n, sorted(pairs))
    if rng.random() < lattice_prob:
        pos = rng.integers(0, 12, size=(n, 2)).astype(np.float64)
    else:
        pos = rng.uniform(0.0, span, size=(n, 2))
    r = float(rng.uniform(0.2, 2.0)) if radius is None else radius
    w = float(rng.uniform(0.05, 1.0)) if width is None else width
    return BoldDrawing(g, Layout(pos), RenderParams(r, w))


@pytest.fixture
def parallel_drawing():
    # Square of side 10, the two vertical sides as edges: no crossing.
    return bold([(0, 0), (0, 10), (10, 0), (10, 10)], [(0, 1), (2, 3)])


@pytest.fixture
def diagonal_drawing():
    # Same square, both diagonals: one central crossing.
    return bold([(0, 0), (10, 10), (0, 10), (10, 0)], [(0, 1), (2, 3)])


@pytest.fixture
def xshape_drawing():
    # Two crossing edges of length exactly 10 (3-4-5 proportions), so the
    # total edge length matches the parallel case while cr = 1.
    return bold([(0, 0), (8, 6), (0, 6), (8, 0)], [(0, 1), (2, 3)])
