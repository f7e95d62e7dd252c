"""Reference graph readers that read one token at a time.

The readers in ``inka.formats`` convert and check whole columns of tokens
as numpy arrays.  These loops are the line-by-line readings they must
agree with: the same graph, or the same ParseError at the same line with
the same message, and the same ParseWarning.  The tests compare the two
on mutated files.
"""

from __future__ import annotations

import warnings

from inka import ParseError, ParseWarning, build_graph
from inka.model import _MAX_NODES

_MM_FIELDS = {"pattern": 0, "real": 1, "integer": 1, "complex": 2}
_MM_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}


def _int_token(token, line, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line=line) from None


def _float_token(token, line, what):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", line=line) from None


def _records(lines, comments):
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens or tokens[0][0] not in comments:
            yield lineno, tokens


def parse_matrix_market(text):
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if not header:
        raise ParseError("missing Matrix Market header", line=1)
    if header[0].lower() != "%%matrixmarket":
        raise ParseError("first line must start with %%MatrixMarket", line=1)
    if len(header) < 4:
        raise ParseError("header needs object, format, and field", line=1)
    obj, fmt, field = (h.lower() for h in header[1:4])
    symmetry = header[4].lower() if len(header) > 4 else "general"
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r} (only matrix)", line=1)
    if fmt != "coordinate":
        raise ParseError(f"unsupported format {fmt!r} (only coordinate)", line=1)
    if field not in _MM_FIELDS:
        raise ParseError(f"unsupported field {field!r}", line=1)
    if symmetry not in _MM_SYMMETRIES:
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)
    width = 2 + _MM_FIELDS[field]

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
        raise ParseError(f"adjacency matrix must be square, got {rows}x{cols}", line=lineno)
    if rows < 0 or nnz < 0:
        raise ParseError("size values must be non-negative", line=lineno)
    if rows > _MAX_NODES:
        raise ParseError(f"node_count must be an integer in 0..{_MAX_NODES}, got {rows}",
                         line=lineno)

    pairs, seen = [], 0
    for lineno, tokens in records:
        if seen == nnz:
            raise ParseError(f"more than the declared {nnz} entries", line=lineno)
        if len(tokens) != width:
            raise ParseError(f"expected {width} tokens per entry, got {len(tokens)}",
                             line=lineno)
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


def parse_chaco(text):
    entries = list(_records(text.splitlines(), "%#"))
    head = next((i for i, (_, tokens) in enumerate(entries) if tokens), None)
    if head is None:
        raise ParseError("missing header line", line=1)
    lineno, tokens = entries[head]
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

    adj_lines = entries[head + 1:]
    while len(adj_lines) > n and not adj_lines[-1][1]:
        adj_lines.pop()
    if len(adj_lines) > n:
        raise ParseError(f"expected {n} adjacency lines, found more", line=adj_lines[n][0])
    if len(adj_lines) < n:
        last = adj_lines[-1][0] if adj_lines else lineno
        raise ParseError(f"expected {n} adjacency lines, found {len(adj_lines)}", line=last)

    pairs = []
    for node, (lineno, tokens) in enumerate(adj_lines):
        if len(tokens) < nvw:
            raise ParseError(f"expected {nvw} vertex weights", line=lineno)
        for v in tokens[:nvw]:
            _float_token(v, lineno, "vertex weight")
        rest = tokens[nvw:]
        if edge_weights:
            if len(rest) % 2:
                raise ParseError("edge-weighted line has a neighbor without a weight",
                                 line=lineno)
            for v in rest[1::2]:
                _float_token(v, lineno, "edge weight")
        for tok in rest[::1 + edge_weights]:
            nb = _int_token(tok, lineno, "neighbor id")
            if nb == 0:
                raise ParseError("node ids are 1-indexed; got 0", line=lineno)
            if not 1 <= nb <= n:
                raise ParseError(f"neighbor id {nb} out of range 1..{n}", line=lineno)
            if nb - 1 != node:
                pairs.append((node, nb - 1))
    g = build_graph(n, pairs)
    if g.m != m_declared:
        warnings.warn(f"header declares {m_declared} edges, found {g.m} after "
                      "deduplication", ParseWarning, stacklevel=2)
    return g


def parse_edge_list(text):
    order, pairs = {}, []
    for lineno, tokens in _records(text.splitlines(), "%#"):
        if not tokens:
            continue
        if len(tokens) not in (2, 3):
            raise ParseError(f"expected 'id id [weight]', got {len(tokens)} tokens",
                             line=lineno)
        a = _int_token(tokens[0], lineno, "node id")
        b = _int_token(tokens[1], lineno, "node id")
        if a < 0 or b < 0:
            raise ParseError("node ids must be non-negative", line=lineno)
        if len(tokens) == 3:
            _float_token(tokens[2], lineno, "weight")
        for v in (a, b):
            order.setdefault(v, len(order))
        if a != b:
            pairs.append((order[a], order[b]))
    return build_graph(len(order), pairs)
