"""Text/JSON pattern formats and DOT export.

The text format (``.spm``) is a header line "n m" followed by n rows of m
tokens.  Every token is a single ``*`` (a star), ``0`` or ``.`` (a zero);
tokens are separated by any character that ``str.isspace`` accepts (the
ones ``str.split`` splits on), and lines end where ``str.splitlines``
ends them (LF, CRLF, ...); a wrong row count names the first line break
other than LF, CR or CRLF.  An ASCII row is checked as bytes; any other
row is split into tokens once.  Lines starting with ``#`` are comments;
they still count in the line numbers of a ``ParseError``, whose column is
the index of the offending token in its row.  All serialized indices are
1-based to match the row/column labels used in documentation.
"""

from __future__ import annotations

import json
import reprlib

from .errors import NotSubsetError, ParseError, ShapeError
from .pattern import (
    BipartiteGraph,
    Matching,
    SparsityPattern,
    _check_pattern_shape,
    _check_positive_shape,
    _checked,
    pattern_from_stars,
)

# The 29 code points that str.isspace() accepts, which are the ones
# str.split() and str.strip() split on.  Written out: finding them by a scan
# of every code point would add about 0.1 s to each start-up.
_SPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
          "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")

# For an ASCII row, as bytes: the separators to delete, and a table that
# maps each cell character to "x".  For a row that is split, the tokens
# that are cells.
_SPACE_BYTES = _SPACE.encode("ascii", "ignore")
_MARK_CELLS = bytes.maketrans(b"*0.", b"xxx")
_CELLS = frozenset("*0.")

# The line breaks of str.splitlines besides LF, CR and CRLF: VT, FF, the
# three separators FS, GS and RS, NEL, and U+2028 and U+2029.
_ODD_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

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
    """Parse the .spm text format.

    An ASCII row is checked by three ``bytes.translate`` passes and any
    other row by one ``str.split``; only a malformed row is looked at token
    by token, to name its fault.
    """
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
    if len(rows) - 1 != n:
        _raise_row_count(src, n, len(rows) - 1)
    stars = []
    for r, (lineno, line) in enumerate(rows[1:]):
        cells = _row_cells(line, m, lineno)
        c = cells.find(b"*")
        while c >= 0:
            stars.append((r, c))
            c = cells.find(b"*", c + 1)
    # Each star is in range and found once, so pattern_from_stars would
    # only copy them.
    _check_pattern_shape(n, m)
    return _checked(SparsityPattern, n=n, m=m, stars=frozenset(stars))


def _row_cells(line: str, m: int, lineno: int) -> bytes:
    """The m cells of one stripped row, as bytes, or the ParseError naming its fault."""
    if line.isascii():
        # cells holds the row's non-space bytes.  If there are m of them,
        # all are cells ("*", "0" or "."), and no two cells touch in the
        # line, then every token is exactly one cell, so the m tokens are
        # the m bytes of cells, in order.  A row of m one-cell tokens
        # passes all three tests, so a row that fails one has a wrong
        # token count or a bad token, and the split below raises.
        row = line.encode()
        cells = row.translate(None, _SPACE_BYTES)
        if (
            len(cells) == m
            and not cells.translate(None, b"*0.")
            and b"xx" not in row.translate(_MARK_CELLS)
        ):
            return cells
    tokens = line.split()
    if len(tokens) != m:
        raise ParseError(f"expected {m} entries, found {len(tokens)}", line=lineno)
    if not _CELLS.issuperset(tokens):
        c, tok = next((c, tok) for c, tok in enumerate(tokens, start=1) if tok not in _CELLS)
        raise ParseError(f"unexpected token {tok!r}", line=lineno, column=c)
    return "".join(tokens).encode()


def _raise_row_count(src: str, n: int, found: int):
    """Raise the ParseError for a document with ``found`` rows, not ``n``.

    A line break other than LF, CR or CRLF splits a row in two without
    showing it, so the error names the first one and its line.
    """
    if found < n:
        reason = f"missing row: expected {n} rows, found {found}"
    else:
        reason = f"too many rows: expected {n}, found {found}"
    for lineno, line in enumerate(src.splitlines(keepends=True), start=1):
        if line[-1] in _ODD_BREAKS:
            raise ParseError(
                f"{reason}; line break U+{ord(line[-1]):04X} (not LF, CR or CRLF)",
                line=lineno,
            )
    raise ParseError(reason)


def serialize_text(p: SparsityPattern) -> str:
    """Write the .spm text format: "0 " cells, with each star stamped in place."""
    n, m = p.n, p.m
    cells = bytearray(b"0 ") * (n * m)
    for i, j in p.stars:
        cells[2 * (i * m + j)] = 42  # ord("*")
    # The separator after each row's last cell is its line end.
    cells[2 * m - 1::2 * m] = b"\n" * n
    cells[:0] = f"{n} {m}\n".encode()
    return cells.decode()


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
    for entry in stars:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(_is_int(x) for x in entry)
        ):
            raise ParseError(f"bad star entry {reprlib.repr(entry)}")
    if n + m > 2 * len(stars) + MAX_EMPTY_LINES:
        raise ShapeError(
            f"header claims {n} x {m} for {len(stars)} stars: n + m may exceed "
            f"twice the star count by at most {MAX_EMPTY_LINES}"
        )
    return pattern_from_stars(n, m, stars)


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
    suffix: dict[tuple[int, int], str] = {}
    for idx, matching in enumerate(matchings or ()):
        extra = matching.edges - g.edges
        if extra:
            named = ", ".join(f"(a{i + 1}, b{j + 1})" for i, j in sorted(extra))
            raise NotSubsetError(f"matching edges {named} are not edges of the graph")
        # An edge in several matchings takes the last one's colour.
        suffix.update(dict.fromkeys(matching.edges, f" [color={_PALETTE[idx % len(_PALETTE)]}]"))
    lines = [
        "graph pattern {",
        *[f"  a{i} [shape=circle];" for i in range(1, g.n_left + 1)],
        *[f"  b{j} [shape=square];" for j in range(1, g.n_right + 1)],
        *[f"  a{i + 1} -- b{j + 1}{suffix.get((i, j), '')};" for i, j in g.sorted_edges],
        "}",
    ]
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
