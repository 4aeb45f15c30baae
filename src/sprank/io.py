"""Text/JSON pattern formats and DOT export.

The text format (``.spm``) is a header line "n m" followed by n rows of m
tokens.  Every token is a single ``*`` (a star), ``0`` or ``.`` (a zero);
tokens are separated by any whitespace that ``str.split`` accepts (spaces,
tabs, ...), and a line may end in LF or CRLF.  Lines starting with ``#``
are comments; they still count in the line numbers of a ``ParseError``,
whose column is the index of the offending token in its row.  All
serialized indices are 1-based to match the row/column labels used in
documentation.
"""

from __future__ import annotations

import json
import reprlib

from .errors import NotSubsetError, ParseError, ShapeError
from .pattern import (
    BipartiteGraph,
    Matching,
    SparsityPattern,
    _check_positive_shape,
    pattern_from_stars,
)

# str.translate table deleting the three cell characters.
_DROP_CELLS = str.maketrans("", "", "*0.")

# A JSON header states n and m outright, so a few bytes could claim a grid
# whose rows and columns alone fill memory.  Each star covers one row and one
# column, so a pattern with no empty row or column has n + m <= 2 * stars;
# a header may claim at most this many rows and columns beyond that.
MAX_EMPTY_LINES = 1024

_PALETTE = ["red", "green", "blue", "orange", "purple", "brown", "cyan", "magenta"]


def _is_int(x) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(x, int) and not isinstance(x, bool)


def parse_text(src: str) -> SparsityPattern:
    """Parse the .spm text format."""
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(src.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped))
    if not rows:
        raise ParseError("empty document")
    header_line, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'n m'", line=header_line)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must contain two integers", line=header_line)
    _check_positive_shape(n, m)
    if len(rows) - 1 < n:
        raise ParseError(f"missing row: expected {n} rows, found {len(rows) - 1}")
    if len(rows) - 1 > n:
        raise ParseError(f"too many rows: expected {n}, found {len(rows) - 1}")
    stars = []
    for r, (lineno, line) in enumerate(rows[1:], start=1):
        tokens = line.split()
        if len(tokens) != m:
            raise ParseError(
                f"expected {m} entries, found {len(tokens)}", line=lineno
            )
        # m tokens joined into m characters, none outside "*0.", means
        # every token is exactly one of "*", "0" and ".".
        cells = "".join(tokens)
        if len(cells) != m or cells.translate(_DROP_CELLS):
            for c, tok in enumerate(tokens, start=1):
                if tok not in ("*", "0", "."):
                    raise ParseError(
                        f"unexpected token {tok!r}", line=lineno, column=c
                    )
        c = cells.find("*")
        while c >= 0:
            stars.append((r, c + 1))
            c = cells.find("*", c + 1)
    return pattern_from_stars(n, m, stars)


def serialize_text(p: SparsityPattern) -> str:
    cols_of: list[list[int]] = [[] for _ in range(p.n)]
    for (i, j) in p.stars:
        cols_of[i].append(j)
    lines = [f"{p.n} {p.m}"]
    for cols in cols_of:
        row = ["0"] * p.m
        for j in cols:
            row[j] = "*"
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def parse_json(src: str) -> SparsityPattern:
    """Parse {"n": ..., "m": ..., "stars": [[row, col], ...]} (1-based).

    A header with n + m above 2 * len(stars) + MAX_EMPTY_LINES raises
    ShapeError before anything the size of the grid is built.
    """
    try:
        doc = json.loads(src)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno)
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    except ValueError:
        # The other ValueError of json.loads: an integer past Python's digit limit.
        raise ParseError("invalid JSON: an integer has too many digits") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in ("n", "m", "stars"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    n, m, stars = doc["n"], doc["m"], doc["stars"]
    if not _is_int(n) or not _is_int(m):
        raise ParseError("'n' and 'm' must be integers")
    if not isinstance(stars, list):
        raise ParseError("'stars' must be an array of [row, col] pairs")
    coords = []
    for entry in stars:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(_is_int(x) for x in entry)
        ):
            raise ParseError(f"bad star entry {reprlib.repr(entry)}")
        coords.append((entry[0], entry[1]))
    if n + m > 2 * len(coords) + MAX_EMPTY_LINES:
        raise ShapeError(
            f"header claims {n} x {m} for {len(coords)} stars: n + m may exceed "
            f"twice the star count by at most {MAX_EMPTY_LINES}"
        )
    return pattern_from_stars(n, m, coords)


def serialize_json(p: SparsityPattern) -> str:
    doc = {
        "n": p.n,
        "m": p.m,
        "stars": [[i + 1, j + 1] for (i, j) in p.sorted_stars],
    }
    return json.dumps(doc, separators=(", ", ": ")) + "\n"


def export_dot(g: BipartiteGraph, matchings: list[Matching] | None = None) -> str:
    """Undirected DOT text with deterministic ordering.

    Left nodes are a1..an, right nodes b1..bm.  If matchings are given,
    each one's edges are colored from a fixed palette cycle; edges of g
    outside every matching stay black.
    """
    color_of: dict[tuple[int, int], str] = {}
    if matchings:
        for idx, matching in enumerate(matchings):
            extra = matching.edges - g.edges
            if extra:
                raise NotSubsetError(
                    f"matching edges {sorted(extra)} are not edges of the graph"
                )
            for e in matching.sorted_edges:
                color_of[e] = _PALETTE[idx % len(_PALETTE)]
    lines = ["graph pattern {"]
    for i in range(g.n_left):
        lines.append(f'  a{i + 1} [shape=circle];')
    for j in range(g.n_right):
        lines.append(f'  b{j + 1} [shape=square];')
    for (i, j) in g.sorted_edges:
        attrs = f' [color={color_of[(i, j)]}]' if (i, j) in color_of else ""
        lines.append(f"  a{i + 1} -- b{j + 1}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_pattern(path: str) -> SparsityPattern:
    """Load a pattern file, dispatching on a .json suffix."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            src = fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.start is the
        # byte offset in the file.
        raise ParseError(
            f"not valid UTF-8: byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        ) from None
    if path.endswith(".json"):
        return parse_json(src)
    return parse_text(src)
