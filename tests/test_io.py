import sys

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
        ],
    )
    def test_whitespace_separators(self, src):
        assert io_mod.parse_text(src) == sp.pattern_from_stars(2, 3, [(1, 1), (2, 2)])

    def test_too_many_rows(self):
        assert _error("1 1\n*\n0\n") == ("too many rows: expected 1, found 2", None, None)

    def test_three_part_header(self):
        assert _error("# c\n1 1 1\n*\n") == ("header must be 'n m'", 2, None)

    def test_non_integer_header(self):
        assert _error("1 m\n*\n") == ("header must contain two integers", 1, None)

    @pytest.mark.parametrize("row", ["* 0", "* 0 0 .", "*0 0"])
    def test_wrong_entry_count(self, row):
        found = len(row.split())
        assert _error(f"1 3\n{row}\n") == (f"expected 3 entries, found {found}", 2, None)


_GOOD_TOKENS = st.sampled_from(["*", "0", "."])
_BAD_TOKENS = st.one_of(
    st.sampled_from(["**", "0*", "*0", "..", "x", "1", "o", "\u2217"]),
    st.text(alphabet="*0.x1#", min_size=1, max_size=3),
)
_SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", " \t ", "\u00a0"])


@st.composite
def spm_documents(draw):
    """.spm text with mixed separators, comments and blank lines.

    About half are well formed; the rest carry one kind of defect: a bad
    header, a wrong row count, a row of the wrong width, or bad tokens.
    """
    n = draw(st.integers(1, 4))
    m = n + draw(st.integers(0, 2))
    defect = draw(st.sampled_from([None] * 4 + ["header", "rows", "width", "token"]))
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
        bad = sp.Matching(frozenset({(0, 2)}))
        with pytest.raises(NotSubsetError):
            io_mod.export_dot(fig7_graph, [bad])

    def test_deterministic(self, fig3_graph):
        assert io_mod.export_dot(fig3_graph) == io_mod.export_dot(fig3_graph)
