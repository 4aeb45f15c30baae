import pytest

import sprank as sp
from sprank import io as io_mod
from sprank.errors import NotSubsetError, OutOfRangeError, ParseError

from conftest import FIG3_STARS

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
