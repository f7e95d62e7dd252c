"""Graph file parsing and layout/report serialization.

Three input formats, all normalized to the same simple undirected Graph:
Matrix Market coordinate files (.mtx), Chaco/METIS adjacency files
(.graph), and plain edge lists (.edges/.txt).  Direction, weights, and
self-loops in the source are discarded; duplicate edges collapse.
Malformed input always raises ParseError carrying the 1-based line
number (and the path, when parsing came from a file), never a bare
exception from deep inside.

Every file is read by ``_read``.  A graph reader splits its lines once
(``_records``), converts each token column in one numpy call (``_column``),
checks the columns as array masks and raises the fault a line-by-line
reading would meet first; ``model._simple_graph``, which ``build_graph``
shares, builds the graph.  Every table (layouts, report rows, the CLI's
partial sweeps and stubs) is written by ``_table``, as CSV with a header
line or as a JSON array of objects with a fixed column order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from contextlib import suppress
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain, compress
from pathlib import Path

import numpy as np

from .errors import GraphError, ParseError, ParseWarning
from .model import (BoldDrawing, Graph, InkReport, Layout, _node_count, _simple_graph,
                    _squarable)

_MM_FIELDS = {"pattern", "real", "integer", "complex"}
_MM_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def _int_token(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line=line) from None


def _records(lines, comments: str, blank: bool = False):
    """The line numbers (from 1) and token lists, as two lists, of the lines not
    starting with a comment character; blank ones only where blank is set."""
    rows = list(map(str.split, lines))
    keep = [(tokens[0][0] not in comments) if tokens else blank for tokens in rows]
    return list(compress(range(1, len(rows) + 1), keep)), list(compress(rows, keep))


def _column(tokens, kind):
    """kind(token), kind int or float, of every token in one conversion, and the mask of those
    kind() rejects; where that fails (a rejected token, an int past int64), one token at a
    time, into objects with 0 where rejected."""
    try:
        return np.array(tokens, dtype=kind), np.zeros(len(tokens), dtype=bool)
    except (ValueError, OverflowError):
        read = [None] * len(tokens)
        for j, token in enumerate(tokens):
            with suppress(ValueError):
                read[j] = kind(token)
        return (np.array([0 if v is None else v for v in read], dtype=object),
                np.array([v is None for v in read], dtype=bool))


def _flag(faults: list, mask, fault) -> None:
    """Append fault(j), a (row, message) pair, to faults for the first True
    j of the boolean array mask, if it has one."""
    if np.count_nonzero(mask):  # not mask.any(), which costs 3x on short masks
        faults.append(fault(int(mask.argmax())))


def _cells(rows, faulty, message):
    """The faults list of the first row whose token count is faulty(counts),
    and the tokens before that row as one object array, with each one's row and place."""
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    faults = []
    _flag(faults, faulty(counts), lambda i: (i, message(counts[i])))
    counts = counts[:faults[0][0]] if faults else counts
    row = np.repeat(np.arange(len(counts)), counts)
    place = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
    tokens = np.array(list(chain.from_iterable(rows[:len(counts)])), dtype=object)
    return faults, tokens, row, place


def _raise_first(linenos, faults) -> None:
    """Raise the ParseError of the earliest (row, message) fault, if any;
    faults come in the order a row's checks run, the first of a row wins."""
    if faults:
        row, message = min(faults, key=lambda fault: fault[0])
        raise ParseError(message, line=linenos[row])


def parse_matrix_market(text: str) -> Graph:
    """Matrix Market coordinate file -> Graph.

    Pattern/real/integer/complex square matrices are accepted; values are
    ignored, diagonal entries are dropped, and general (non-symmetric)
    matrices are symmetrized by treating entries as unordered pairs.
    """
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if not header:
        raise ParseError("missing Matrix Market header", line=1)
    if header[0].lower() != "%%matrixmarket":
        raise ParseError("first line must start with %%MatrixMarket", line=1)
    if len(header) < 4:
        raise ParseError("header needs object, format, and field", line=1)
    obj, fmt = header[1].lower(), header[2].lower()
    field = header[3].lower()
    symmetry = header[4].lower() if len(header) > 4 else "general"
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r} (only matrix)", line=1)
    if fmt != "coordinate":
        raise ParseError(f"unsupported format {fmt!r} (only coordinate)", line=1)
    if field not in _MM_FIELDS:
        raise ParseError(f"unsupported field {field!r}", line=1)
    if symmetry not in _MM_SYMMETRIES:
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)
    width = 2 + {"pattern": 0, "real": 1, "integer": 1, "complex": 2}[field]

    # the first record is the size line, the rest are entries
    linenos, rows = _records(lines, "%")
    if not rows:
        raise ParseError("missing size line", line=len(lines))
    lineno, tokens = linenos[0], rows[0]
    if len(tokens) != 3:
        raise ParseError("size line must be 'rows cols nnz'", line=lineno)
    n = _int_token(tokens[0], lineno, "row count")
    cols = _int_token(tokens[1], lineno, "column count")
    nnz = _int_token(tokens[2], lineno, "entry count")
    if n != cols:
        raise ParseError(f"adjacency matrix must be square, got {n}x{cols}", line=lineno)
    if n < 0 or nnz < 0:
        raise ParseError("size values must be non-negative", line=lineno)
    try:
        _node_count(n)
    except GraphError as e:
        raise ParseError(str(e), line=lineno) from None

    faults, tokens, row, place = _cells(rows[1:nnz + 1], lambda c: c != width,
                                        lambda c: f"expected {width} tokens per entry, got {c}")
    if len(rows) > nnz + 1:
        faults.append((nnz, f"more than the declared {nnz} entries"))
    ids = tokens[place < 2]
    values, bad = _column(ids, int)
    _flag(faults, bad, lambda j: (j // 2, f"{('row', 'column')[j % 2]} index must be an "
                                          f"integer, got {ids[j]!r}"))
    _flag(faults, _column(tokens[place >= 2], float)[1], lambda j: (
        row[place >= 2][j], f"bad numeric value {tokens[place >= 2][j]!r}"))
    a, b = values.reshape(-1, 2).T
    _flag(faults, (a < 1) | (a > n) | (b < 1) | (b > n),
          lambda i: (i, f"index ({a[i]}, {b[i]}) outside {n}x{n}"))
    _raise_first(linenos[1:], faults)
    if len(a) != nnz:
        raise ParseError(f"declared {nnz} entries but found {len(a)}", line=len(lines))
    return _simple_graph(n, a - 1, b - 1)


def parse_chaco(text: str) -> Graph:
    """Chaco/METIS adjacency file -> Graph.

    Header: node and edge counts plus an optional format code (edge
    and/or vertex weights supported and discarded; vertex sizes are not
    supported).  Adjacency lines are 1-indexed, one per node; each
    undirected edge normally appears twice and is stored once.  A
    declared edge count that disagrees after deduplication is a warning,
    not an error.
    """
    linenos, rows = _records(text.splitlines(), "%#", blank=True)
    head = next((i for i, tokens in enumerate(rows) if tokens), None)
    if head is None:
        raise ParseError("missing header line", line=1)
    lineno, tokens = linenos[head], rows[head]
    if len(tokens) not in (2, 3, 4):
        raise ParseError("header must be 'n m [fmt [#vweights]]'", line=lineno)
    n = _int_token(tokens[0], lineno, "node count")
    m_declared = _int_token(tokens[1], lineno, "edge count")
    if n < 0 or m_declared < 0:
        raise ParseError("counts must be non-negative", line=lineno)
    fmt = _int_token(tokens[2], lineno, "format code") if len(tokens) > 2 else 0
    if fmt not in (0, 1, 10, 11):
        raise ParseError(f"unsupported format code {fmt}", line=lineno)
    vertex_weights, edge_weights = divmod(fmt, 10)
    nvw = (_int_token(tokens[3], lineno, "vertex weight count") if len(tokens) > 3
           else vertex_weights)
    if nvw and not vertex_weights:
        raise ParseError("vertex weight count given but format has none", line=lineno)
    if nvw < 0:
        raise ParseError(f"vertex weight count must be non-negative, got {nvw}", line=lineno)

    linenos, rows = linenos[head + 1:], rows[head + 1:]
    # a blank line is an isolated node, so only padding beyond the n
    # expected lines may be dropped
    while len(rows) > n and not rows[-1]:
        rows.pop()
    if len(rows) > n:
        raise ParseError(f"expected {n} adjacency lines, found more", line=linenos[n])
    if len(rows) < n:
        last = linenos[len(rows) - 1] if rows else lineno
        raise ParseError(f"expected {n} adjacency lines, found {len(rows)}", line=last)

    # each line is checked for its vertex weights, its edge weights, then each neighbour
    faults, tokens, row, place = _cells(
        rows, lambda c: c < nvw, lambda c: f"expected {nvw} vertex weights")
    # every kept row has >= nvw tokens, so min() changes nvw (maybe past int64) only on none
    kind = np.where(place < nvw, -1, (place - min(nvw, len(place))) % (1 + edge_weights))
    _flag(faults, _column(tokens[kind == -1], float)[1], lambda j: (
        j // nvw, f"bad vertex weight {tokens[kind == -1][j]!r}"))
    if edge_weights:  # a line ending in a neighbour (kind 0) lacks its weight
        _flag(faults, (kind == 0) & (np.diff(row, append=-1) != 0), lambda j: (
            row[j], "edge-weighted line has a neighbor without a weight"))
        _flag(faults, _column(tokens[kind == 1], float)[1], lambda j: (
            row[kind == 1][j], f"bad edge weight {tokens[kind == 1][j]!r}"))
    ids, node = tokens[kind == 0], row[kind == 0]
    values, bad = _column(ids, int)
    _flag(faults, bad | (values < 1) | (values > n), lambda j: (node[j], (
        f"neighbor id must be an integer, got {ids[j]!r}" if bad[j]
        else "node ids are 1-indexed; got 0" if values[j] == 0
        else f"neighbor id {values[j]} out of range 1..{n}")))
    _raise_first(linenos, faults)
    g = _simple_graph(n, node, values - 1)
    if g.m != m_declared:
        warnings.warn(f"header declares {m_declared} edges, found {g.m} after "
                      "deduplication", ParseWarning, stacklevel=2)
    return g


def parse_edge_list(text: str) -> Graph:
    """Whitespace-separated id pairs -> Graph.

    Lines starting with % or # are comments; an optional third numeric
    token (a weight) is discarded.  Ids may be any non-negative integers
    and are compacted to 0..n-1 in order of first appearance; self-loops
    register their node but contribute no edge.
    """
    linenos, rows = _records(text.splitlines(), "%#")
    faults, tokens, row, place = _cells(rows, lambda c: (c < 2) | (c > 3),
                                        lambda c: f"expected 'id id [weight]', got {c} tokens")
    ids = tokens[place < 2]
    values, bad = _column(ids, int)
    _flag(faults, bad, lambda j: (j // 2, f"node id must be an integer, got {ids[j]!r}"))
    _flag(faults, values < 0, lambda j: (j // 2, "node ids must be non-negative"))
    _flag(faults, _column(tokens[place == 2], float)[1], lambda j: (
        row[place == 2][j], f"bad weight {tokens[place == 2][j]!r}"))
    _raise_first(linenos, faults)
    # each distinct id ranked by where it first appears
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    return _simple_graph(len(first), *np.argsort(np.argsort(first))[inverse].reshape(-1, 2).T)


_SUFFIX_FORMAT = {".mtx": "matrix-market", ".graph": "chaco", ".edges": "edge-list", ".txt": "edge-list"}
_PARSERS = {
    "matrix-market": parse_matrix_market,
    "chaco": parse_chaco,
    "edge-list": parse_edge_list,
}


def load_graph(path, fmt: str | None = None) -> Graph:
    """Read and parse a graph file, inferring the format from the suffix
    unless fmt names one of matrix-market / chaco / edge-list.  ParseError
    from here always carries the path."""
    p = Path(path)
    if fmt is None:
        fmt = _SUFFIX_FORMAT.get(p.suffix.lower())
        if fmt is None:
            raise ParseError(
                f"cannot infer graph format from suffix {p.suffix!r}", path=str(p)
            )
    if fmt not in _PARSERS:
        raise ParseError(f"unknown graph format {fmt!r}", path=str(p))
    return _read(p, _PARSERS[fmt])


def _read(path, parse, *args):
    """parse(text, *args) of the file at path.  An unreadable file, or a
    ParseError or GraphError from parse, raises ParseError naming the path;
    a warning from parse is given again after it, naming the path."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read file: {e}", path=str(p)) from e
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ParseWarning)
            parsed = parse(text, *args)
    except ParseError as e:
        e.path = str(p)
        raise
    except GraphError as e:
        raise ParseError(str(e), path=str(p)) from e
    for w in caught:
        warnings.warn(f"{p}: {w.message}", w.category, stacklevel=3)
    return parsed


def _save(text: str, path=None) -> str:
    """text, written to the file at path first unless path is None."""
    if path is not None:
        Path(path).write_text(text)
    return text


def write_edge_list(g: Graph, path=None) -> str:
    """Serialize a graph as an edge list that parses back to the same
    graph: one 'i i' line per node (in id order) pins node identity and
    isolated nodes, then the sorted edges."""
    out = ["# nodes then edges; the parser drops self-loop lines"]
    out.extend(f"{i} {i}" for i in range(g.node_count))
    out.extend(f"{a} {b}" for a, b in g.edges.tolist())
    return _save("\n".join(out) + "\n", path)


def write_layout_csv(layout: Layout, path=None) -> str:
    """Layout -> CSV 'node,x,y' with lossless float formatting."""
    rows = ([i, *xy] for i, xy in enumerate(layout.positions.tolist()))
    return _save(_table(("node", "x", "y"), rows, "csv"), path)


def parse_layout_csv(text: str, node_count: int | None = None) -> Layout:
    """CSV 'node,x,y' -> Layout; every node 0..n-1 exactly once."""
    reader = csv.reader(io.StringIO(text))
    try:
        header, *table = reader
    except ValueError:
        raise ParseError("empty layout file", line=1) from None
    except csv.Error as e:  # a field past the csv size limit, a bare \r
        raise ParseError(str(e), line=reader.line_num) from None
    if [h.strip().lower() for h in header] != ["node", "x", "y"]:
        raise ParseError("layout header must be 'node,x,y'", line=1)
    rows: dict[int, tuple[float, float]] = {}
    for lineno, row in enumerate(table, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", line=lineno)
        node = _int_token(row[0].strip(), lineno, "node id")
        if node < 0:
            raise ParseError("node ids must be non-negative", line=lineno)
        if node in rows:
            raise ParseError(f"duplicate row for node {node}", line=lineno)
        try:
            x, y = float(row[1]), float(row[2])
        except ValueError:
            raise ParseError(f"bad coordinate in {row[1:]!r}", line=lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"non-finite coordinate for node {node}", line=lineno)
        rows[node] = (x, y)
    n = node_count if node_count is not None else (max(rows) + 1 if rows else 0)
    if node_count is not None and len(rows) != node_count:
        raise ParseError(f"expected {node_count} rows, found {len(rows)}")
    # The ids are distinct and >= 0, so the first sorted id that is not its
    # own index is the lowest missing id; with as many rows as nodes, an id
    # out of range leaves one missing below n.
    ids = sorted(rows)
    missing = next((i for i, node in enumerate(ids) if node != i), len(ids))
    if missing < n:
        raise ParseError(f"missing row for node {missing}")
    if rows:
        _squarable(*(max(c) - min(c) for c in zip(*rows.values())), "layout span", ParseError)
    return Layout(np.array([rows[i] for i in range(n)], dtype=np.float64).reshape(n, 2))


def read_layout_csv(path, node_count: int | None = None) -> Layout:
    return _read(path, parse_layout_csv, node_count)


# The Python type of each ReportRow field annotation that names a scalar.
_ROW_SCALARS = {"int": int, "float": float, "float | None": float, "bool": bool}


@dataclass(frozen=True)
class ReportRow:
    """One analyzed (graph, layout, setting) cell of a report."""

    graph_name: str
    layout_name: str
    n: int
    m: int
    r: float
    w: float
    gamma: float
    L: float
    cr: int
    A: float
    ink: float
    density: float
    feasible: bool
    raster_ink: float | None = None
    log10_ink: float | None = None

    def __post_init__(self):
        # numpy scalars become Python ones, which the CSV and JSON writers know
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type in _ROW_SCALARS and v is not None:
                object.__setattr__(self, f.name, _ROW_SCALARS[f.type](v))
        for name in ("r", "w", "gamma", "L", "A", "ink", "density"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"ReportRow.{name} must be finite, got {v}")

    @classmethod
    def of(cls, graph_name, layout_name, d: BoldDrawing, L, cr, A,
           report: InkReport, raster_ink=None) -> ReportRow:
        """The row of drawing d measured at (L, cr, A) with this ink report;
        log10_ink is None unless the ink is positive."""
        ink, p = report.ink_total, d.params
        return cls(
            graph_name, layout_name, d.graph.node_count, d.graph.m, p.radius,
            p.width, p.gamma, L, cr, A, ink, report.density, report.feasible,
            raster_ink, math.log10(ink) if ink > 0 else None,
        )


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else v


def _plain(v):
    """A payload as JSON-ready data: report dataclasses become dicts,
    intervals lists, and non-finite floats the strings "inf", "-inf", "nan"."""
    if isinstance(v, float):
        return v if math.isfinite(v) else str(v)  # "inf", "-inf" or "nan"
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if is_dataclass(v):
        return {f.name: _plain(getattr(v, f.name)) for f in fields(v)}
    return v


def _json(payload) -> str:
    """A payload as indented JSON text (values by _plain), one final newline."""
    return json.dumps(_plain(payload), indent=2) + "\n"


def _table(columns, rows, format: str) -> str:
    """Rows of values under fixed columns: CSV with a header line (cells by
    _csv_cell), or a JSON array of objects keyed by the columns."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)
        return buf.getvalue()
    if format == "json":
        return _json([dict(zip(columns, row)) for row in rows])
    raise ValueError(f"unknown report format {format!r} (csv or json)")


def emit_report(rows, format: str = "csv", path=None) -> str:
    """Serialize report rows to CSV (fixed column order) or JSON (array
    of objects with the same keys).  Floats keep full precision; None
    fields become empty CSV cells / JSON nulls."""
    table = [[getattr(row, name) for name in REPORT_COLUMNS] for row in rows]
    if not table:
        raise ValueError("no report rows to emit")
    return _save(_table(REPORT_COLUMNS, table, format), path)
