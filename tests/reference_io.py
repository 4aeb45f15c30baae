"""Reference ``.spm`` parser and serializer, and DOT export, for the tests.

These are the plain per-token and per-cell loops that ``sprank.io`` once
used.  The library now checks each ASCII row with three ``bytes.translate``
passes, splits any other row into tokens once, and writes a pattern into
one byte buffer; the tests require it to give the same pattern, the same
``ParseError`` and the same bytes as these loops.  A wrong row count names
the first line break other than LF, CR or CRLF, found here by a scan of
every character.  ``export_dot`` is the library's earlier DOT writer, which
sorts every matching and looks each edge up twice; only its error message,
which names 0-based pairs, differs from the library's.
"""

from sprank.errors import NotSubsetError, ParseError, ShapeError
from sprank.pattern import BipartiteGraph, Matching, SparsityPattern, pattern_from_stars

_PALETTE = ["red", "green", "blue", "orange", "purple", "brown", "cyan", "magenta"]


def parse_text(src: str) -> SparsityPattern:
    """Parse the .spm text format, one token at a time."""
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
    if n < 1 or m < 1:
        raise ShapeError(f"pattern dimensions must be positive, got ({n}, {m})")
    if len(rows) - 1 < n:
        _row_count_error(src, f"missing row: expected {n} rows, found {len(rows) - 1}")
    if len(rows) - 1 > n:
        _row_count_error(src, f"too many rows: expected {n}, found {len(rows) - 1}")
    stars = []
    for r, (lineno, line) in enumerate(rows[1:], start=1):
        tokens = line.split()
        if len(tokens) != m:
            raise ParseError(
                f"expected {m} entries, found {len(tokens)}", line=lineno
            )
        for c, tok in enumerate(tokens, start=1):
            if tok == "*":
                stars.append((r, c))
            elif tok in ("0", "."):
                continue
            else:
                raise ParseError(f"unexpected token {tok!r}", line=lineno, column=c)
    return pattern_from_stars(n, m, stars)


def _row_count_error(src: str, reason: str):
    """Raise ``reason``, naming the first line break other than LF, CR or CRLF."""
    for k, ch in enumerate(src):
        if ch in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
            raise ParseError(
                f"{reason}; line break U+{ord(ch):04X} (not LF, CR or CRLF)",
                line=len(src[:k + 1].splitlines()),
            )
    raise ParseError(reason)


def serialize_text(p: SparsityPattern) -> str:
    """Write the .spm text format, one star lookup per cell."""
    lines = [f"{p.n} {p.m}"]
    stars = p.stars
    for i in range(p.n):
        lines.append(" ".join("*" if (i, j) in stars else "0" for j in range(p.m)))
    return "\n".join(lines) + "\n"


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
