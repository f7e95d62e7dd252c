"""Graph file parsing and layout/report serialization.

Three input formats, all normalized to the same simple undirected Graph:
Matrix Market coordinate files (.mtx), Chaco/METIS adjacency files
(.graph), and plain edge lists (.edges/.txt).  Direction, weights, and
self-loops in the source are discarded; duplicate edges collapse.
Malformed input always raises ParseError carrying the 1-based line
number (and the path, when parsing came from a file), never a bare
exception from deep inside.

Every file is read by ``_read``, every graph line is tokenized by
``_records``, and every table (layouts, report rows, the CLI's partial
sweeps and stubs) is written by ``_table``, as CSV with a header line or
as a JSON array of objects with a fixed column order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ParseWarning
from .model import BoldDrawing, Graph, InkReport, Layout, build_graph

_MM_FIELDS = {"pattern", "real", "integer", "complex"}
_MM_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def _int_token(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line=line) from None


def _float_token(token: str, line: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line=line) from None


def _records(lines, comments: str):
    """(1-based line number, tokens) of each line whose first token does
    not start with one of the comment characters; a blank line has no tokens."""
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens or tokens[0][0] not in comments:
            yield lineno, tokens


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
    values_per_entry = {"pattern": 0, "real": 1, "integer": 1, "complex": 2}[field]

    # one pass: the first record is the size line, the rest are entries
    records = ((lineno, tokens) for lineno, tokens in _records(lines, "%") if tokens)
    lineno, tokens = next(records, (len(lines), None))
    if tokens is None:
        raise ParseError("missing size line", line=lineno)
    if len(tokens) != 3:
        raise ParseError("size line must be 'rows cols nnz'", line=lineno)
    rows = _int_token(tokens[0], lineno, "row count")
    cols = _int_token(tokens[1], lineno, "column count")
    nnz = _int_token(tokens[2], lineno, "entry count")
    if rows != cols:
        raise ParseError(
            f"adjacency matrix must be square, got {rows}x{cols}", line=lineno
        )
    if rows < 0 or nnz < 0:
        raise ParseError("size values must be non-negative", line=lineno)

    pairs: list[tuple[int, int]] = []
    seen = 0
    for lineno, tokens in records:
        if seen == nnz:
            raise ParseError(f"more than the declared {nnz} entries", line=lineno)
        if len(tokens) != 2 + values_per_entry:
            raise ParseError(
                f"expected {2 + values_per_entry} tokens per entry, got {len(tokens)}",
                line=lineno,
            )
        a = _int_token(tokens[0], lineno, "row index")
        b = _int_token(tokens[1], lineno, "column index")
        for v in tokens[2:]:
            _float_token(v, lineno, "numeric value")
        if not (1 <= a <= rows and 1 <= b <= cols):
            raise ParseError(f"index ({a}, {b}) outside {rows}x{cols}", line=lineno)
        seen += 1
        if a != b:
            pairs.append((a - 1, b - 1))
    if seen != nnz:
        raise ParseError(f"declared {nnz} entries but found {seen}", line=len(lines))
    return build_graph(rows, pairs)


def parse_chaco(text: str) -> Graph:
    """Chaco/METIS adjacency file -> Graph.

    Header: node and edge counts plus an optional format code (edge
    and/or vertex weights supported and discarded; vertex sizes are not
    supported).  Adjacency lines are 1-indexed, one per node; each
    undirected edge normally appears twice and is stored once.  A
    declared edge count that disagrees after deduplication is a warning,
    not an error.
    """
    entries = list(_records(text.splitlines(), "%#"))
    head_idx = next((i for i, (_, tokens) in enumerate(entries) if tokens), None)
    if head_idx is None:
        raise ParseError("missing header line", line=1)
    lineno, tokens = entries[head_idx]
    if len(tokens) not in (2, 3, 4):
        raise ParseError("header must be 'n m [fmt [#vweights]]'", line=lineno)
    n = _int_token(tokens[0], lineno, "node count")
    m_declared = _int_token(tokens[1], lineno, "edge count")
    if n < 0 or m_declared < 0:
        raise ParseError("counts must be non-negative", line=lineno)
    fmt = _int_token(tokens[2], lineno, "format code") if len(tokens) > 2 else 0
    edge_weights = fmt % 10 == 1
    vertex_weights = (fmt // 10) % 10 == 1
    if fmt not in (0, 1, 10, 11):
        raise ParseError(f"unsupported format code {fmt}", line=lineno)
    n_vweights = (
        _int_token(tokens[3], lineno, "vertex weight count")
        if len(tokens) > 3
        else (1 if vertex_weights else 0)
    )
    if n_vweights and not vertex_weights:
        raise ParseError("vertex weight count given but format has none", line=lineno)

    adj_lines = entries[head_idx + 1 :]
    # a blank line is an isolated node, so only padding beyond the n
    # expected lines may be dropped
    while len(adj_lines) > n and not adj_lines[-1][1]:
        adj_lines.pop()
    if len(adj_lines) > n:
        raise ParseError(
            f"expected {n} adjacency lines, found more", line=adj_lines[n][0]
        )
    if len(adj_lines) < n:
        last = adj_lines[-1][0] if adj_lines else lineno
        raise ParseError(
            f"expected {n} adjacency lines, found {len(adj_lines)}", line=last
        )

    pairs: list[tuple[int, int]] = []
    for node, (lineno, tokens) in enumerate(adj_lines):
        if len(tokens) < n_vweights:
            raise ParseError(
                f"expected {n_vweights} vertex weights", line=lineno
            )
        for v in tokens[:n_vweights]:
            _float_token(v, lineno, "vertex weight")
        rest = tokens[n_vweights:]
        if edge_weights:
            if len(rest) % 2:
                raise ParseError(
                    "edge-weighted line has a neighbor without a weight", line=lineno
                )
            neighbors = rest[0::2]
            for v in rest[1::2]:
                _float_token(v, lineno, "edge weight")
        else:
            neighbors = rest
        for tok in neighbors:
            nb = _int_token(tok, lineno, "neighbor id")
            if nb == 0:
                raise ParseError("node ids are 1-indexed; got 0", line=lineno)
            if not 1 <= nb <= n:
                raise ParseError(f"neighbor id {nb} out of range 1..{n}", line=lineno)
            if nb - 1 != node:
                pairs.append((node, nb - 1))
    g = build_graph(n, pairs)
    if g.m != m_declared:
        warnings.warn(
            f"header declares {m_declared} edges, found {g.m} after deduplication",
            ParseWarning,
            stacklevel=2,
        )
    return g


def parse_edge_list(text: str) -> Graph:
    """Whitespace-separated id pairs -> Graph.

    Lines starting with % or # are comments; an optional third numeric
    token (a weight) is discarded.  Ids may be any non-negative integers
    and are compacted to 0..n-1 in order of first appearance; self-loops
    register their node but contribute no edge.
    """
    order: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, tokens in _records(text.splitlines(), "%#"):
        if not tokens:
            continue
        if len(tokens) not in (2, 3):
            raise ParseError(
                f"expected 'id id [weight]', got {len(tokens)} tokens", line=lineno
            )
        a = _int_token(tokens[0], lineno, "node id")
        b = _int_token(tokens[1], lineno, "node id")
        if a < 0 or b < 0:
            raise ParseError("node ids must be non-negative", line=lineno)
        if len(tokens) == 3:
            _float_token(tokens[2], lineno, "weight")
        for v in (a, b):
            if v not in order:
                order[v] = len(order)
        if a != b:
            pairs.append((order[a], order[b]))
    return build_graph(len(order), pairs)


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
    """parse(text, *args) of the file at path.  A file that cannot be read
    or decoded, or a ParseError from parse, raises ParseError naming the path."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read file: {e}", path=str(p)) from e
    try:
        return parse(text, *args)
    except ParseError as e:
        e.path = str(p)
        raise


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
        header = next(reader)
    except StopIteration:
        raise ParseError("empty layout file", line=1) from None
    if [h.strip().lower() for h in header] != ["node", "x", "y"]:
        raise ParseError("layout header must be 'node,x,y'", line=1)
    rows: dict[int, tuple[float, float]] = {}
    for lineno, row in enumerate(reader, start=2):
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
    # A finite squared span bounds every orientation the predicates form.
    span = [max(c) - min(c) for c in zip(*rows.values())]
    if not math.isfinite(sum(v * v for v in span)):
        raise ParseError(f"layout span {span[0]!r} x {span[1]!r} is too large to square")
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
