import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import sprank as sp
from sprank import io as io_mod
from sprank.errors import NotSubsetError, OutOfRangeError, ParseError, ShapeError, SprankError

import reference_io
from conftest import FIG3_STARS, differential, small_graphs

FIG3_TEXT = """\
4 5
* * 0 0 0
* * 0 * 0
0 * * * 0
0 0 0 * *
"""


class TestTextFormat:
    def test_parse_fig3(self):
        p = io_mod.parse_text(FIG3_TEXT)
        assert p == sp.pattern_from_stars(4, 5, FIG3_STARS)

    def test_parse_single_star(self):
        p = io_mod.parse_text("1 1\n*\n")
        assert p.sorted_stars == [(0, 0)]

    def test_missing_row(self):
        with pytest.raises(ParseError, match="row"):
            io_mod.parse_text("2 2\n* *\n")

    def test_dot_is_zero_alias(self):
        p = io_mod.parse_text("1 2\n. *\n")
        assert p.sorted_stars == [(0, 1)]

    def test_comments_ignored(self):
        p = io_mod.parse_text("# header comment\n1 1\n# row comment\n*\n")
        assert p.dim() == 1

    def test_bad_token(self):
        with pytest.raises(ParseError, match="token"):
            io_mod.parse_text("1 1\nx\n")

    def test_round_trip(self):
        p = io_mod.parse_text(FIG3_TEXT)
        assert io_mod.parse_text(io_mod.serialize_text(p)) == p
        assert io_mod.serialize_text(p) == FIG3_TEXT


def _error(src):
    with pytest.raises(ParseError) as info:
        io_mod.parse_text(src)
    exc = info.value
    return exc.reason, exc.line, exc.column


class TestTextContract:
    """Each malformed document pins the reason, the line and the column."""

    @pytest.mark.parametrize(
        "src, token",
        [("1 3\n* ** 0\n", "**"), ("1 3\n. 0* *\n", "0*"), ("1 3\n0 *0 *\n", "*0")],
    )
    def test_multi_cell_token_at_column_2(self, src, token):
        assert _error(src) == (f"unexpected token {token!r}", 2, 2)

    def test_first_bad_token_is_reported(self):
        assert _error("1 4\n* x ** y\n") == ("unexpected token 'x'", 2, 2)

    def test_comment_lines_count(self):
        src = "# made by hand\n2 2\n* 0\n# second row\n0 x\n"
        assert _error(src) == ("unexpected token 'x'", 5, 2)

    @pytest.mark.parametrize(
        "src",
        [
            "2 3\n*\t0\t.\n0\t*\t0\n",
            "2 3\r\n* 0 .\r\n0 * 0\r\n",
            "2 3\n \t* \t 0  .\t\n0\t\t* \u00a00\r\n",
            "2 3\n*\x1f0\u3000.\n0\u2009*\u202f0\n",
        ],
    )
    def test_whitespace_separators(self, src):
        assert io_mod.parse_text(src) == sp.pattern_from_stars(2, 3, [(1, 1), (2, 2)])

    def test_only_comments_is_empty(self):
        assert _error("# made by hand\n\n  # nothing else\n") == ("empty document", None, None)

    def test_too_many_rows(self):
        assert _error("1 1\n*\n0\n") == ("too many rows: expected 1, found 2", None, None)

    @pytest.mark.parametrize(
        "src, code",
        [("1 2\n*\u20280\n", "2028"), ("1 2\n*\x1c0\n", "001C"), ("1 2\n*\x0c0\n", "000C")],
        ids=["line-separator", "file-separator", "form-feed"],
    )
    def test_odd_line_break_is_named(self, src, code):
        # str.splitlines ends a line at each of these, so the row splits in
        # two; the error names the break and the line it ends.
        reason = f"too many rows: expected 1, found 2; line break U+{code} (not LF, CR or CRLF)"
        assert _error(src) == (reason, 2, None)
        assert _outcome(reference_io.parse_text, src) == (ParseError, reason, 2, None)

    @pytest.mark.parametrize(
        "src",
        ["# c\r\n2 2\r\n* 0\x0b0 *\r\n", "2 2\n* 0\u2029\n", "1 1\n*\r\x850\n"],
        ids=["split-row-accepted", "missing-row", "after-cr"],
    )
    def test_odd_line_break_matches_reference(self, src):
        assert _outcome(io_mod.parse_text, src) == _outcome(reference_io.parse_text, src)

    def test_three_part_header(self):
        assert _error("# c\n1 1 1\n*\n") == ("header must be 'n m'", 2, None)

    def test_non_integer_header(self):
        assert _error("1 m\n*\n") == ("header must contain two integers", 1, None)

    @pytest.mark.parametrize("row", ["* 0", "* 0 0 .", "*0 0"])
    def test_wrong_entry_count(self, row):
        found = len(row.split())
        assert _error(f"1 3\n{row}\n") == (f"expected 3 entries, found {found}", 2, None)

    def test_space_table_is_what_split_splits_on(self):
        space = "".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace())
        assert io_mod._SPACE == space

    def test_parse_peak_below_8_bytes_per_cell(self):
        # One 200,000-cell row of zeros.  A list of one token per cell
        # alone takes 8 bytes a cell; the row's bytes and the translate
        # passes take about 7.
        m = 200_000
        assert _parse_peak(" ", m) < 8 * m

    def test_non_ascii_parse_peak_below_13_bytes_per_cell(self):
        # The same row separated by U+00A0 is split once: the token list
        # takes 8 bytes a cell, the row's copy 2 and its joined cells 2,
        # about 12.1 in all.
        m = 200_000
        assert _parse_peak("\u00a0", m) < 13 * m

    @pytest.mark.parametrize("text", [FIG3_TEXT, "2 3\n* 0 .\n0 * 0\n", "1 4\n. * 0 *\n"])
    def test_ideographic_space_document(self, text):
        # Every separator, the header's included, is U+3000, so every row
        # takes the split route.
        src = text.replace(" ", "\u3000")
        assert not any(line.isascii() for line in src.splitlines())
        assert io_mod.parse_text(src) == io_mod.parse_text(text)
        assert _outcome(io_mod.parse_text, src) == _outcome(reference_io.parse_text, src)


def _parse_peak(separator: str, m: int) -> int:
    """The tracemalloc peak of parsing one row of m zeros joined by ``separator``."""
    src = f"1 {m}\n" + separator.join(["0"] * m) + "\n"
    tracemalloc.start()
    try:
        p = io_mod.parse_text(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (p.n, p.m, p.dim()) == (1, m, 0)
    return peak


_GOOD_TOKENS = st.sampled_from(["*", "0", "."])
_BAD_TOKENS = st.one_of(
    st.sampled_from(
        ["**", "0*", "*0", "..", "x", "1", "o", "\u2217", "\u200b", "\ufeff", "*\u200b"]
    ),
    st.text(alphabet="*0.x1#", min_size=1, max_size=3),
)
_SEPARATORS = st.sampled_from(
    [" ", " ", "  ", "\t", " \t ", "\u00a0", "\x1f", "\u3000", "\u2009", "\u202f"]
)


@st.composite
def spm_documents(draw):
    """.spm text with mixed separators, comments and blank lines.

    About half are well formed; the rest carry one kind of defect: a bad
    header, a wrong row count, a row of the wrong width, bad tokens, or two
    cells with no separator between them.
    m runs from n - 1 to n + 2, so some headers have m < n.
    """
    n = draw(st.integers(1, 4))
    m = max(1, n + draw(st.integers(-1, 2)))
    defect = draw(st.sampled_from([None] * 5 + ["header", "rows", "width", "token", "join"]))
    header = f"{n} {m}"
    if defect == "header":
        header = draw(
            st.sampled_from([f"{n} {m} 1", f"{n}", f"{n} m", f"{n}.0 {m}", f"-{n} {m}", f"{n} 0"])
        )
    row_count = n + (draw(st.sampled_from([-1, 1])) if defect == "rows" else 0)
    rows = [[draw(_GOOD_TOKENS) for _ in range(max(m, 0))] for _ in range(max(row_count, 0))]
    if defect == "width" and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(_GOOD_TOKENS))
    if defect == "token" and rows and m > 0:
        for _ in range(draw(st.integers(1, 2))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, m - 1))] = draw(_BAD_TOKENS)
    if defect == "join" and rows and m > 1:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        k = draw(st.integers(0, m - 2))
        row[k:k + 2] = [row[k] + row[k + 1]]
    lines = [header]
    for row in rows:
        lines.append("".join(draw(_SEPARATORS) + tok for tok in row))
    extras = draw(st.lists(st.sampled_from(["", "  ", "# note", "  # * 0", "\t"]), max_size=3))
    for extra in extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(parse, src):
    try:
        return parse(src)
    except ParseError as exc:
        return (type(exc), exc.reason, exc.line, exc.column)
    except SprankError as exc:
        return (type(exc), str(exc))


class TestTextDifferential:
    """The str-method tokenizer against the per-token reference loop."""

    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(spm_documents())
    def test_parse_matches_reference(self, src):
        assert _outcome(io_mod.parse_text, src) == _outcome(reference_io.parse_text, src)

    @pytest.mark.parametrize(
        "n, m, stars",
        [
            (1, 1, []),
            (1, 1, [(1, 1)]),
            (3, 4, []),
            (3, 4, [(2, 1), (2, 2), (2, 3), (2, 4)]),
            (2, 5, [(1, 5), (2, 5)]),
            (3, 3, [(1, 1), (1, 2), (1, 3), (3, 3)]),
        ],
    )
    def test_serialize_matches_reference(self, n, m, stars):
        p = sp.pattern_from_stars(n, m, stars)
        text = io_mod.serialize_text(p)
        assert text == reference_io.serialize_text(p)
        assert io_mod.parse_text(text) == p

    @differential
    @given(small_graphs())
    def test_serialize_random_patterns(self, g):
        p = sp.from_bipartite(g)
        text = io_mod.serialize_text(p)
        assert text == reference_io.serialize_text(p)
        assert io_mod.parse_text(text) == p

    def test_serialize_peak_below_8_bytes_per_cell(self):
        # One 10**6-cell row with three stars.  The "0 " buffer and the
        # decoded text take 2 bytes a cell each; a list of one string per
        # cell, or a second copy of the text, would pass 8.
        m = 10**6
        p = sp.pattern_from_stars(1, m, [(1, 1), (1, m // 2), (1, m)])
        tracemalloc.start()
        try:
            text = io_mod.serialize_text(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.startswith(f"1 {m}\n* 0 ") and text.count("*") == 3 and text.endswith(" *\n")
        assert peak < 8 * m


# Documents on which json.loads raises RecursionError or ValueError rather
# than JSONDecodeError, with the reason parse_json gives for each.
HOSTILE_JSON = pytest.mark.parametrize(
    "doc, reason",
    [
        ("[" * 100_000, "arrays or objects nested too deeply"),
        ('{"n": ' + "9" * 5000 + ', "m": 1, "stars": []}', "an integer has too many digits"),
        ('{"n": 1, "m": 1, "stars": [[1, ' + "9" * 5000 + "]]}", "an integer has too many digits"),
    ],
    ids=["nested", "long-n", "long-star"],
)

# Malformed star entries whose repr runs to kilobytes: a list of 200,000
# ones, and an entry nested just under the recursion limit.
_DEEP = sys.getrecursionlimit() - 200
LONG_BAD_STAR = pytest.mark.parametrize(
    "doc",
    [
        '{"n": 1, "m": 1, "stars": [[' + "1, " * 199_999 + "1]]}",
        '{"n": 1, "m": 1, "stars": [' + "[" * _DEEP + "1" + "]" * _DEEP + "]}",
    ],
    ids=["long", "deep"],
)


class TestJsonFormat:
    def test_parse_fig7(self):
        p = io_mod.parse_json('{"n":2,"m":3,"stars":[[1,1],[1,2],[2,1],[2,2]]}')
        assert p == sp.pattern_from_stars(2, 3, [(1, 1), (1, 2), (2, 1), (2, 2)])

    def test_empty_star_list(self):
        p = io_mod.parse_json('{"n":1,"m":1,"stars":[]}')
        assert p.dim() == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            io_mod.parse_json('{"n":2,"m":3,"stars":[[3,1]]}')

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            io_mod.parse_json("{not json")

    @HOSTILE_JSON
    def test_hostile_json_is_parse_error(self, doc, reason):
        with pytest.raises(SprankError, match=reason):
            io_mod.parse_json(doc)

    @LONG_BAD_STAR
    def test_bad_star_entry_is_shown_short(self, doc):
        with pytest.raises(ParseError, match="^bad star entry ") as exc:
            io_mod.parse_json(doc)
        assert len(str(exc.value)) < 100

    def test_missing_field(self):
        with pytest.raises(ParseError, match="stars"):
            io_mod.parse_json('{"n":1,"m":1}')

    @pytest.mark.parametrize(
        "doc, reason",
        [
            ("[]", "^top-level value must be an object$"),
            ('{"n":1,"m":1,"stars":{}}', "^'stars' must be an array"),
        ],
        ids=["array", "stars-object"],
    )
    def test_wrong_container_type(self, doc, reason):
        with pytest.raises(ParseError, match=reason):
            io_mod.parse_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n":true,"m":2,"stars":[[1,1]]}',
            '{"n":1,"m":false,"stars":[]}',
            '{"n":1,"m":2,"stars":[[true,1]]}',
        ],
    )
    def test_booleans_are_not_integers(self, doc):
        with pytest.raises(ParseError):
            io_mod.parse_json(doc)

    def test_round_trip(self):
        p = io_mod.parse_text(FIG3_TEXT)
        assert io_mod.parse_json(io_mod.serialize_json(p)) == p

    def test_header_claims_at_most_the_slack_in_empty_lines(self):
        # n + m may reach 2 * stars + MAX_EMPTY_LINES, and no further.
        slack = io_mod.MAX_EMPTY_LINES
        assert io_mod.parse_json(f'{{"n": 1, "m": {slack - 1}, "stars": []}}').m == slack - 1
        doc = f'{{"n": 2, "m": {slack + 2}, "stars": [[1, 1], [2, 2]]}}'
        assert io_mod.parse_json(doc).m == slack + 2
        with pytest.raises(ShapeError, match=f"header claims 1 x {slack} for 0 stars"):
            io_mod.parse_json(f'{{"n": 1, "m": {slack}, "stars": []}}')

    def test_duplicate_star_warns_and_collapses(self):
        with pytest.warns(UserWarning, match=r"^duplicate star \(1, 2\) collapsed$"):
            p = io_mod.parse_json('{"n": 1, "m": 2, "stars": [[1, 2], [1, 1], [1, 2]]}')
        assert p == sp.pattern_from_stars(1, 2, [(1, 1), (1, 2)])

    def test_parse_peak_below_24_bytes_per_input_byte(self):
        # 20,000 rows of 3 stars, 0.89 MB of JSON.  The decoded stars are
        # handed to the pattern as they are, with no copy of their own: a
        # peak of about 21.7 bytes per input byte, against 26 with one.
        n = 20_000
        stars = [[i + 1, (i + d) % n + 1] for i in range(n) for d in (0, 7, 13)]
        src = json.dumps({"n": n, "m": n, "stars": stars})
        del stars
        tracemalloc.start()
        try:
            p = io_mod.parse_json(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (p.n, p.m, p.dim()) == (n, n, 3 * n)
        assert peak < 24 * len(src)


class TestDotExport:
    def test_fig7_with_matchings(self, fig7_graph):
        matchings = [
            sp.Matching(frozenset({(0, 0), (1, 1)})),
            sp.Matching(frozenset({(0, 1), (1, 0)})),
        ]
        dot = io_mod.export_dot(fig7_graph, matchings)
        assert dot.count("--") == 4
        assert "color=red" in dot and "color=green" in dot

    def test_empty_graph_nodes_only(self):
        g = sp.BipartiteGraph(2, 2, frozenset())
        dot = io_mod.export_dot(g)
        assert "a1" in dot and "b2" in dot and "--" not in dot

    def test_non_subset_matching(self, fig7_graph):
        # The pairs are named 1-based, as every error message names them.
        bad = sp.Matching(frozenset({(0, 2)}))
        with pytest.raises(NotSubsetError) as err:
            io_mod.export_dot(fig7_graph, [bad])
        assert str(err.value) == "matching edges (a1, b3) are not edges of the graph"

    def test_deterministic(self, fig3_graph):
        assert io_mod.export_dot(fig3_graph) == io_mod.export_dot(fig3_graph)

    def test_overlapping_partial_and_wrapping_match_reference(self, fig3_graph):
        # Ten matchings of Fig 3, so the palette wraps; most are partial,
        # and (0, 0), (1, 1), (2, 2) and (3, 4) each lie in several.
        pairs = [
            [(0, 0), (1, 1), (2, 2), (3, 4)], [(0, 0)], [(1, 1), (2, 3)], [],
            [(0, 1), (1, 0), (3, 4)], [(2, 2)], [(1, 3), (3, 4)], [(0, 0), (2, 1)],
            [(1, 1)], [(0, 1), (3, 4)],
        ]
        matchings = [sp.Matching(frozenset(m)) for m in pairs]
        dot = io_mod.export_dot(fig3_graph, matchings)
        assert dot == reference_io.export_dot(fig3_graph, matchings)
        # The last matching through an edge gives its colour.
        assert "  a1 -- b1 [color=magenta];" in dot and "  a4 -- b5 [color=green];" in dot

    def test_none_and_no_matchings_match_reference(self, fig3_graph):
        dots = {f(fig3_graph, ms) for f in (io_mod.export_dot, reference_io.export_dot) for ms in (None, [])}
        assert dots == {io_mod.export_dot(fig3_graph)} and "color" not in dots.pop()

    @differential
    @given(st.data())
    def test_matches_reference(self, data):
        g = data.draw(small_graphs())
        matchings = data.draw(st.one_of(st.none(), st.lists(_matchings_of(g), max_size=10)))
        assert io_mod.export_dot(g, matchings) == reference_io.export_dot(g, matchings)


def _matchings_of(g):
    """Matchings of g, often partial: a greedy pass over drawn edges of g."""
    if not g.edges:
        return st.just(sp.Matching(frozenset()))

    def greedy(edges):
        rows, cols, kept = set(), set(), set()
        for i, j in edges:
            if i not in rows and j not in cols:
                rows.add(i)
                cols.add(j)
                kept.add((i, j))
        return sp.Matching(frozenset(kept))

    return st.lists(st.sampled_from(sorted(g.edges)), unique=True).map(greedy)
