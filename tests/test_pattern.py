import copy
import pickle

import pytest
from hypothesis import given, strategies as st

import sprank as sp
from sprank import oracle
from sprank import pattern as pattern_mod
from sprank.errors import InvalidKError, NotDisjointError, OutOfRangeError, ShapeError

from conftest import FIG3_STARS


def fig3_pattern():
    return sp.pattern_from_stars(4, 5, FIG3_STARS)


class TestPatternConstruction:
    def test_fig3_pattern_has_ten_stars(self):
        assert fig3_pattern().dim() == 10

    def test_smallest_pattern(self):
        p = sp.pattern_from_stars(1, 1, [(1, 1)])
        assert p.sorted_stars == [(0, 0)]

    def test_out_of_range_column(self):
        with pytest.raises(OutOfRangeError):
            sp.pattern_from_stars(2, 3, [(1, 4)])

    def test_wide_requirement(self):
        with pytest.raises(ShapeError, match="[Tt]ranspose"):
            sp.pattern_from_stars(3, 2, [(1, 1)])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ShapeError):
            sp.SparsityPattern(0, 1, frozenset())

    def test_duplicates_collapse_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            p = sp.pattern_from_stars(2, 2, [(1, 1), (1, 1)])
        assert p.dim() == 1


class TestBijection:
    def test_fig3_edges(self):
        g = sp.to_bipartite(fig3_pattern())
        expected = {(0, 0), (0, 1), (1, 0), (1, 1), (1, 3),
                    (2, 1), (2, 2), (2, 3), (3, 3), (3, 4)}
        assert g.edges == expected

    def test_round_trip(self):
        p = fig3_pattern()
        assert sp.from_bipartite(sp.to_bipartite(p)) == p

    def test_empty_pattern_gives_no_edges(self):
        p = sp.SparsityPattern(2, 3, frozenset())
        assert sp.to_bipartite(p).edges == frozenset()

    def test_full_pattern_gives_complete_graph(self):
        p = sp.pattern_from_stars(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        assert sp.to_bipartite(p).edges == sp.complete_graph(2, 2).edges

    def test_from_bipartite_rejects_tall(self):
        g = sp.BipartiteGraph(3, 2, frozenset())
        with pytest.raises(ShapeError):
            sp.from_bipartite(g)


class TestDegrees:
    def test_fig3_degrees(self):
        g = sp.to_bipartite(fig3_pattern())
        assert sp.degree(g, "left", 0) == 2
        assert sp.degree(g, "right", 3) == 3

    def test_no_edge_graph(self):
        g = sp.BipartiteGraph(2, 3, frozenset())
        assert sp.degree(g, "left", 1) == 0
        assert sp.degree(g, "right", 2) == 0

    def test_out_of_range_node(self):
        g = sp.BipartiteGraph(2, 3, frozenset())
        with pytest.raises(OutOfRangeError):
            sp.degree(g, "left", 2)

    def test_degree_sums_match_edge_count(self, fig3_graph):
        assert sum(fig3_graph.left_degrees()) == len(fig3_graph.edges)
        assert sum(fig3_graph.right_degrees()) == len(fig3_graph.edges)


class TestRowLayout:
    EDGES = frozenset({(2, 3), (0, 1), (2, 0), (1, 2), (0, 0)})

    def test_layout_changes_no_identity(self):
        # The layout is a cache: building it changes nothing a caller can
        # compare, hash, print, copy or pickle.
        g = sp.BipartiteGraph(3, 4, self.EDGES)

        def seen():
            return g, hash(g), repr(g), copy.copy(g), copy.deepcopy(g), pickle.dumps(g)

        before = seen()
        assert "_layout" not in vars(g)
        layout = g._layout
        assert g._layout is layout  # built once
        assert seen() == before
        for clone in (copy.copy(g), pickle.loads(pickle.dumps(g))):
            assert clone == g and "_layout" not in vars(clone)
            assert clone._layout == layout

    def test_same_layout_by_every_route(self):
        stars = [(i + 1, j + 1) for (i, j) in self.EDGES]
        routes = [
            sp.BipartiteGraph(3, 4, self.EDGES),
            sp.to_bipartite(sp.pattern_from_stars(3, 4, stars)),
            pattern_mod._checked(sp.BipartiteGraph, n_left=3, n_right=4, edges=self.EDGES),
        ]
        for g in routes:
            assert g._layout == (((0, 1), (2,), (0, 3)), (0, 2, 3, 5))
            assert g.sorted_edges == sorted(self.EDGES)
            assert g.left_degrees() == [2, 1, 2]

    def test_layout_is_immutable(self):
        g = sp.BipartiteGraph(3, 4, self.EDGES)
        cols, offsets = g._layout
        assert isinstance(g._layout, tuple)
        assert type(cols) is tuple and type(offsets) is tuple
        assert all(type(row) is tuple for row in cols)
        # What the graph hands out is a fresh list each time.
        g.sorted_edges.append((1, 1))
        g.left_degrees().append(9)
        assert g.sorted_edges == sorted(self.EDGES) and g.left_degrees() == [2, 1, 2]

    def test_empty_rows(self):
        g = sp.BipartiteGraph(3, 2, frozenset({(1, 1)}))
        assert g._layout == (((), (1,), ()), (0, 0, 1, 1))
        assert [sp.degree(g, "left", i) for i in range(3)] == [0, 1, 0]


class TestUnionOfKMatchings:
    def test_fig2_is_union_of_three(self, fig2_graph):
        assert sp.is_union_of_k_matchings(fig2_graph, 3)

    def test_fig3_not_union_of_two(self, fig3_graph):
        assert not sp.is_union_of_k_matchings(fig3_graph, 2)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 3)])
    def test_complete_graph_is_union_of_m(self, n, m):
        assert sp.is_union_of_k_matchings(sp.complete_graph(n, m), m)

    def test_invalid_k(self, fig3_graph):
        with pytest.raises(InvalidKError):
            sp.is_union_of_k_matchings(fig3_graph, 0)
        with pytest.raises(InvalidKError):
            sp.is_union_of_k_matchings(fig3_graph, 6)

    def test_true_implies_edge_count(self, fig2_graph):
        assert len(fig2_graph.edges) == 3 * fig2_graph.n_left


class TestComplement:
    def test_fig7_complement(self, fig7_graph):
        comp = sp.complement(fig7_graph)
        assert comp.edges == {(0, 2), (1, 2)}

    def test_complete_complement_is_empty(self):
        assert sp.complement(sp.complete_graph(2, 3)).edges == frozenset()

    def test_empty_complement_is_complete(self):
        g = sp.BipartiteGraph(3, 3, frozenset())
        assert sp.complement(g).edges == sp.complete_graph(3, 3).edges

    def test_involution_and_size(self, fig3_graph):
        comp = sp.complement(fig3_graph)
        assert sp.complement(comp) == fig3_graph
        assert len(fig3_graph.edges) + len(comp.edges) == 4 * 5


class TestDenseSizeCap:
    # Lowering the cap below Fig 7's 2 x 3 = 6 cells shows each per-cell
    # builder checks it without allocating anything large.
    @pytest.mark.parametrize(
        "build",
        [
            sp.complement,
            lambda g: sp.build_augmentation_network(g, 0),
            lambda g: sp.fair_b_matching(g, 2),  # n * (k+1) = 6 pairs
            lambda g: sp.increment_matchings(g, 2),
            lambda g: oracle.brute_min_augmentation(g, 1),
            oracle.brute_rank,
        ],
        ids=["complement", "augmentation_network", "fair_b_matching",
             "increment_matchings", "brute_min_augmentation", "brute_rank"],
    )
    def test_over_cap_rejected(self, build, fig7_graph, monkeypatch):
        monkeypatch.setattr(pattern_mod, "MAX_DENSE_CELLS", 5)
        with pytest.raises(ShapeError):
            build(fig7_graph)

    def test_at_cap_allowed(self, fig7_graph, monkeypatch):
        monkeypatch.setattr(pattern_mod, "MAX_DENSE_CELLS", 6)
        assert sp.complement(fig7_graph).edges == {(0, 2), (1, 2)}


class TestUnionDisjoint:
    def test_fig7_union_complement_is_complete(self, fig7_graph):
        joined = sp.union_disjoint(fig7_graph, sp.complement(fig7_graph))
        assert joined.edges == sp.complete_graph(2, 3).edges

    def test_union_with_empty(self, fig3_graph):
        empty = sp.BipartiteGraph(4, 5, frozenset())
        assert sp.union_disjoint(fig3_graph, empty) == fig3_graph

    def test_self_union_rejected(self, fig7_graph):
        with pytest.raises(NotDisjointError):
            sp.union_disjoint(fig7_graph, fig7_graph)


class TestPartialOrder:
    def test_reflexive(self):
        p = fig3_pattern()
        assert sp.precedes(p, p) is sp.Ordering.EQUAL

    def test_strict(self):
        p = fig3_pattern()
        smaller = sp.SparsityPattern(4, 5, p.stars - {(0, 0)})
        assert sp.precedes(smaller, p) is sp.Ordering.STRICT
        assert sp.precedes(p, smaller) is sp.Ordering.REVERSE_STRICT

    def test_incomparable(self):
        a = sp.pattern_from_stars(1, 2, [(1, 1)])
        b = sp.pattern_from_stars(1, 2, [(1, 2)])
        assert sp.precedes(a, b) is sp.Ordering.INCOMPARABLE

    def test_shape_mismatch(self):
        a = sp.pattern_from_stars(1, 2, [(1, 1)])
        b = sp.pattern_from_stars(2, 2, [(1, 1)])
        with pytest.raises(ShapeError):
            sp.precedes(a, b)


coords = st.frozensets(
    st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=12
)


@given(coords, coords, coords)
def test_precedes_is_a_partial_order(s1, s2, s3):
    p1 = sp.SparsityPattern(3, 4, s1)
    p2 = sp.SparsityPattern(3, 4, s2)
    p3 = sp.SparsityPattern(3, 4, s3)
    # antisymmetric
    if (
        sp.precedes(p1, p2) in (sp.Ordering.STRICT, sp.Ordering.EQUAL)
        and sp.precedes(p2, p1) in (sp.Ordering.STRICT, sp.Ordering.EQUAL)
    ):
        assert p1 == p2
    # transitive
    if (
        sp.precedes(p1, p2) in (sp.Ordering.STRICT, sp.Ordering.EQUAL)
        and sp.precedes(p2, p3) in (sp.Ordering.STRICT, sp.Ordering.EQUAL)
    ):
        assert sp.precedes(p1, p3) in (sp.Ordering.STRICT, sp.Ordering.EQUAL)


@given(coords)
def test_complement_involution(stars):
    g = sp.BipartiteGraph(3, 4, stars)
    assert sp.complement(sp.complement(g)) == g
    assert len(g.edges) + len(sp.complement(g).edges) == 12


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: sp.SparsityPattern(2, 3, frozenset({(0, 3)})),
            OutOfRangeError,
            "star (1, 4) outside the 2x3 grid",
        ),
        (
            lambda: sp.BipartiteGraph(0, 2, frozenset()),
            ShapeError,
            "node counts must be positive, got (0, 2)",
        ),
        (
            lambda: sp.BipartiteGraph(2, 2, frozenset({(2, 0)})),
            OutOfRangeError,
            "edge (a3, b1) outside graph with 2 left and 2 right nodes",
        ),
        (
            lambda: sp.Matching(frozenset({(0, 0), (1, 0)})),
            ValueError,
            "matching edges must have pairwise-distinct endpoints",
        ),
        (
            lambda: sp.degree(sp.complete_graph(2, 3), "right", 3),
            OutOfRangeError,
            "right node b4 out of range",
        ),
        (
            lambda: sp.degree(sp.complete_graph(2, 3), "up", 0),
            ValueError,
            "side must be 'left' or 'right', got 'up'",
        ),
        (
            lambda: sp.union_disjoint(sp.complete_graph(2, 2), sp.BipartiteGraph(2, 3, frozenset())),
            ShapeError,
            "node sets differ: (2, 2) vs (2, 3)",
        ),
    ],
    ids=[
        "star-out-of-range",
        "zero-nodes",
        "edge-out-of-range",
        "repeated-endpoint",
        "right-node-out-of-range",
        "unknown-side",
        "union-of-shapes",
    ],
)
def test_input_guards(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert exc.type is error and str(exc.value) == message
