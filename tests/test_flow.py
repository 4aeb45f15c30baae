from collections import Counter
import itertools
import random
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

import sprank as sp
from sprank import flow as flow_engine
from sprank.errors import NotMaximalError, VerificationError
from sprank.flow import Arc, FlowNetwork, _BMatching

from conftest import (
    count_calls,
    differential,
    hub_graphs,
    planted_hub,
    random_graph,
    random_union_of_matchings,
    shifted_union,
    small_graphs,
    weak_gap_graph,
)
from reference_bmatching import DijkstraOnlyBMatching, SearchOnlyBMatching
from reference_flow import flow_subgraph, min_cost_max_flow, residual_cut


class TestResilienceNetwork:
    def test_fig4_network_shape(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 2)
        source_arcs = [a for a in net.arcs if a.tail == net.source]
        sink_arcs = [a for a in net.arcs if a.head == net.sink]
        middle = [a for a in net.arcs if a.tail != net.source and a.head != net.sink]
        assert len(source_arcs) == 4 and all(a.capacity == 2 for a in source_arcs)
        assert len(sink_arcs) == 5 and all(a.capacity == 2 for a in sink_arcs)
        assert len(middle) == 10 and all(a.capacity == 1 for a in middle)

    def test_ell_zero_forces_zero_flow(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 0)
        assert sp.max_flow(net).value == 0

    def test_no_edge_graph_has_no_path(self):
        g = sp.BipartiteGraph(2, 3, frozenset())
        net = sp.build_resilience_network(g, 1)
        assert sp.max_flow(net).value == 0


class TestAugmentationNetwork:
    def test_fig8_sink_capacities(self):
        # Union of two disjoint left-perfect matchings on G(4,5).
        g = sp.BipartiteGraph(
            4, 5,
            frozenset({(0, 0), (1, 1), (2, 2), (3, 3),
                       (0, 1), (1, 0), (2, 3), (3, 4)}),
        )
        net = sp.build_augmentation_network(g, 3)
        sink_caps = {a.tail: a.capacity for a in net.arcs if a.head == net.sink}
        right_degs = g.right_degrees()
        for j in range(5):
            assert sink_caps[2 + 4 + j] == 4 - right_degs[j]

    def test_complete_graph_has_no_middle_arcs(self):
        g = sp.complete_graph(2, 3)
        net = sp.build_augmentation_network(g, 1)
        assert not [a for a in net.arcs if a.tail != net.source and a.head != net.sink]
        assert sp.max_flow(net).value == 0

    def test_saturated_columns_give_zero_flow(self):
        g = sp.complete_graph(3, 3)
        net = sp.build_augmentation_network(g, 1)  # all degrees 3 >= k+1
        assert sp.max_flow(net).value == 0


class TestMaxFlow:
    def test_fig4_ell2_saturates(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 2)
        assert sp.max_flow(net).value == 8

    def test_fig4_ell3_falls_short(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 3)
        assert sp.max_flow(net).value < 12

    def test_zero_capacity_network(self):
        net = FlowNetwork(3, 0, 1, (Arc(0, 2, 0), Arc(2, 1, 0)))
        assert sp.max_flow(net).value == 0

    def test_deterministic(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 2)
        f1 = sp.max_flow(net)
        f2 = sp.max_flow(net)
        assert f1.arc_values == f2.arc_values

    def test_value_never_exceeds_n_ell(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))
            ell = rng.randint(0, 4)
            net = sp.build_resilience_network(g, ell)
            assert sp.max_flow(net).value <= g.n_left * ell


class TestMinCut:
    def test_cut_matches_flow_value(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 2)
        f = sp.max_flow(net)
        assert sp.min_cut(net, f).capacity == f.value == 8

    def test_zero_capacity_cut(self):
        net = FlowNetwork(3, 0, 1, (Arc(0, 2, 0), Arc(2, 1, 0)))
        cut = sp.min_cut(net, sp.max_flow(net))
        assert cut.source_side == {0} and cut.capacity == 0

    def test_augmentation_cut_is_n(self):
        g = sp.BipartiteGraph(
            3, 4, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 3)})
        )
        assert sp.is_union_of_k_matchings(g, 2)
        net = sp.build_augmentation_network(g, 2)
        f = sp.max_flow(net)
        assert sp.min_cut(net, f).capacity == f.value == 3

    def test_rejects_non_maximal_flow(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 1)
        zero = sp.Flow(net, (0,) * len(net.arcs), 0)
        with pytest.raises(NotMaximalError):
            sp.min_cut(net, zero)

    def test_lemma2_on_random_networks(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))
            net = sp.build_resilience_network(g, rng.randint(0, 3))
            f = sp.max_flow(net)
            assert sp.min_cut(net, f).capacity == f.value


class TestMinCostMaxFlow:
    def test_all_zero_costs(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 2)
        f = min_cost_max_flow(net)
        assert f.value == 8 and f.cost() == 0

    def test_prefers_cheap_route(self):
        # Two parallel unit routes, costs 0 and 1; a unit bottleneck into
        # the sink forces a choice and optimality forces the cost-0 route.
        capped = FlowNetwork(
            5, 0, 1,
            (Arc(0, 2, 1, cost=0), Arc(0, 3, 1, cost=1),
             Arc(2, 4, 1, cost=0), Arc(3, 4, 1, cost=0),
             Arc(4, 1, 1, cost=0)),
        )
        f = min_cost_max_flow(capped)
        assert f.value == 1 and f.cost() == 0

    def test_matches_max_flow_value_and_beats_enumeration(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_graph(rng, 2, 3)
            net = sp.build_resilience_network(g, 1)
            costed = FlowNetwork(
                net.node_count, net.source, net.sink,
                tuple(
                    Arc(a.tail, a.head, a.capacity, cost=rng.randint(0, 2))
                    for a in net.arcs
                ),
            )
            best = min_cost_max_flow(costed)
            assert best.value == sp.max_flow(net).value
            # Exhaustively enumerate integral flows of maximum value.
            caps = [a.capacity for a in costed.arcs]
            for values in itertools.product(*(range(c + 1) for c in caps)):
                try:
                    f = sp.Flow(costed, values, best.value)
                except ValueError:
                    continue
                assert f.cost() >= best.cost()


class TestFairFlowCertificate:
    # Fig 3 at b = 3 ends with potentials rows (0, 1, 1, 0), every column 1
    # and t at 1, after one unit raise off the first fill's cut, rows {0, 3}
    # and no column.
    def solved(self, g, b):
        h = _BMatching(g)
        while h.fill(b):
            h.raise_potentials(b)
        return h

    def test_fig3_certified(self, fig3_graph):
        h = self.solved(fig3_graph, 3)
        assert h.pi_t == 1
        assert h.certify(3) == 2

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda h: h.pi_row.__setitem__(0, h.pi_row[0] + 1),  # (0, 2) of H gets reduced cost 1
            lambda h: setattr(h, "pi_t", 0),  # used columns sit above t
            lambda h: h.pi_col.__setitem__(4, 0),  # column 4 has room but sits below t
            # Row 0 at -1: columns 3 and 4, outside g(0) and H(0), sit in
            # class 1, above pi_row + 1; every other condition still holds.
            lambda h: h.pi_row.__setitem__(0, -1),
        ],
        ids=["row", "sink", "column", "complement"],
    )
    def test_tampered_potential_rejected(self, fig3_graph, tamper):
        h = self.solved(fig3_graph, 3)
        tamper(h)
        with pytest.raises(VerificationError):
            h.certify(3)

    def test_costlier_b_matching_rejected(self, fig7_graph):
        # At b = 2, H is g itself at zero potentials; trading (0, 1) for the
        # non-edge (0, 2) keeps every degree legal but costs one more.
        h = self.solved(fig7_graph, 2)
        assert h.pi_row is None
        assert h.certify(2) == 0
        h.row_cols[0] = {0, 2}
        with pytest.raises(VerificationError, match="reduced cost"):
            h.certify(2)

    def forge_raise(self, monkeypatch, lift_t):
        """Replace the raise by one that lifts t alone by ``lift_t``; returns the raise count."""
        raises = [0]

        def forged(self, b):
            raises[0] += 1
            if raises[0] > 50:
                pytest.fail("min_cost_b_matching kept raising after fills that added nothing")
            self._build_potentials()
            self.pi_t += lift_t

        monkeypatch.setattr(_BMatching, "raise_potentials", forged)
        return raises

    def test_raise_that_frees_no_path_is_refused(self, monkeypatch, fig3_graph):
        # A forged raise that lifts only pi(t) brings no path to reduced
        # cost 0, so no fill after it adds a unit, and t climbs past n, the
        # most an augmenting path costs.  The solve must refuse at raise
        # n + 1; the forgery gives up after 50 raises, so a solve that
        # keeps raising fails here instead of hanging.
        raises = self.forge_raise(monkeypatch, 1)
        with pytest.raises(VerificationError, match="raise 5 at level 3 put t at 5"):
            flow_engine.min_cost_b_matching(fig3_graph, 3)
        assert raises[0] == fig3_graph.n_left + 1 == 5

    def test_raise_that_leaves_t_is_refused(self, monkeypatch, fig3_graph):
        # Each raise lifts t by exactly one, so a raise that leaves t where
        # it is ends the solve at once.
        raises = self.forge_raise(monkeypatch, 0)
        with pytest.raises(VerificationError, match="raise 1 at level 3 put t at 0"):
            flow_engine.min_cost_b_matching(fig3_graph, 3)
        assert raises[0] == 1

    def test_raise_after_no_fill_is_refused(self, fig7_graph):
        # With no fill every row is short and reaches a column with room
        # over its own edge: t lies at reduced cost 0, so the raise refuses.
        with pytest.raises(VerificationError, match="reduced cost 0 remains at level 1"):
            _BMatching(fig7_graph).raise_potentials(1)

    def test_short_row_rejected(self, fig7_graph):
        h = self.solved(fig7_graph, 2)
        h.row_cols[1].discard(0)
        with pytest.raises(VerificationError, match="not maximum"):
            h.certify(2)

    def test_overfull_column_rejected(self, fig7_graph):
        # Both rows on column 0 at b = 1: every pair passes, but the column
        # exceeds its capacity.
        h = _BMatching(fig7_graph)
        h.row_cols = [{0}, {0}]
        with pytest.raises(VerificationError, match="column 0"):
            h.certify(1)


class TestFirstRaise:
    # Every raise lifts the nodes outside the last fill's cut, and t, by
    # one.  Where the reference's one Dijkstra raise puts t k steps up, the
    # engine takes k unit raises, with fills between them that add nothing,
    # and must reach the same potentials.
    def test_every_raise_matches_the_dijkstra(self):
        # Lockstep on random and dense square graphs, n <= 9, m <= 11, at
        # every level b from 1 to m: the same H after every fill, the
        # reference's potentials before every fill that adds a unit, and
        # the same certified cost.
        rng = random.Random(29)
        steps = Counter()  # unit raises per reference raise -> how often
        for trial in range(200):
            n = rng.randint(1, 9)
            if trial % 4:
                g = random_graph(rng, n, rng.randint(n, 11), rng.choice((0.2, 0.5, 0.8)))
            else:
                g = random_graph(rng, n, n, 0.9)
            for b in range(1, g.n_right + 1):
                h, ref = _BMatching(g), DijkstraOnlyBMatching(g)
                short = h.fill(b)
                assert ref.fill(b) == short
                assert h.row_cols == ref.row_cols
                while short:
                    assert ref.raise_potentials(b)
                    raises = 0
                    while True:
                        h.raise_potentials(b)
                        raises += 1
                        assert raises <= n
                        potentials = (h.pi_row, h.pi_col, h.pi_t)
                        value = sum(map(len, h.row_cols))
                        short = h.fill(b)
                        if sum(map(len, h.row_cols)) > value:
                            break
                        assert h.row_cols == ref.row_cols
                    assert potentials == (ref.pi_row, ref.pi_col, ref.pi_t)
                    assert ref.fill(b) == short
                    assert h.row_cols == ref.row_cols
                    steps[raises] += 1
                cost = h.certify(b)
                assert ref.certify(b) == cost == flow_engine.min_cost_b_matching(g, b)[1]
        assert steps[2] > 0, steps

    @pytest.mark.parametrize("seed", range(4))
    def test_plan_solves_raise_once(self, monkeypatch, seed):
        # A union of ell matchings plus noise, as the plan benchmark draws
        # it, lifted to targets ell and ell + 2: each solve needs one raise.
        rng = random.Random(seed)
        n = rng.choice((20, 30, 40))
        m, ell = n + rng.randint(2, n // 4 + 2), rng.choice((1, 2))
        union = random_union_of_matchings(rng, n, m, ell)
        noise = set(rng.sample(sorted(set(itertools.product(range(n), range(m))) - union.edges), n // 2))
        g = sp.BipartiteGraph(n, m, union.edges | noise)
        raises = count_calls(monkeypatch, _BMatching, "raise_potentials")
        for k in (ell, ell + 2):
            sp.fair_b_matching(g, k)
        assert raises[0] == 2

    # Both rows of a 2 x 3 graph have column 0 alone: at level 1 row 1
    # falls short and its failed search records the cut rows {0, 1},
    # column {0}, and column 1 has room outside H(1).
    FORGED_CUTS = {
        "column-with-room": ({0, 1}, {0, 1}),
        "short-row-outside": ({0}, {0}),
        "g-column-outside": ({0, 1}, set()),
        "h-row-outside": ({1}, {0}),
    }

    @pytest.mark.parametrize("forge", FORGED_CUTS)
    def test_forged_cut_is_refused(self, forge):
        h = _BMatching(sp.BipartiteGraph(2, 3, frozenset({(0, 0), (1, 0)})))
        assert h.fill(1) == 1
        assert h.cut == ({0, 1}, {0})
        h.cut = self.FORGED_CUTS[forge]
        with pytest.raises(VerificationError, match="reduced cost 0 remains at level 1"):
            h.raise_potentials(1)

    def test_cut_raise_on_the_true_cut(self):
        h = _BMatching(sp.BipartiteGraph(2, 3, frozenset({(0, 0), (1, 0)})))
        assert h.fill(1) == 1
        h.raise_potentials(1)
        assert (h.pi_row, h.pi_col, h.pi_t) == ([0, 0], [0, 1, 1], 1)

    # * 0 * / 0 * 0 / * 0 * at b = 2: g gives row 1 only column 1, which it
    # holds, so the first fill leaves row 1 short and the reference's
    # Dijkstra puts t two steps up.
    CROSS = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)}))

    def test_two_unit_raises_reach_the_dijkstra(self):
        h, ref = _BMatching(self.CROSS), DijkstraOnlyBMatching(self.CROSS)
        assert h.fill(2) == ref.fill(2) == 1
        assert ref.raise_potentials(2) and ref.pi_t == 2
        h.raise_potentials(2)
        assert h.fill(2) == 1  # t still one step up: the fill adds nothing
        assert h.row_cols == ref.row_cols
        h.raise_potentials(2)
        potentials = ([1, 0, 1], [1, 2, 1], 2)
        assert (h.pi_row, h.pi_col, h.pi_t) == (ref.pi_row, ref.pi_col, ref.pi_t) == potentials
        assert h.fill(2) == ref.fill(2) == 0
        pairs = {(0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 2)}
        assert {(i, j) for i, held in enumerate(h.row_cols) for j in held} == pairs
        assert h.row_cols == ref.row_cols
        assert h.certify(2) == 2
        assert flow_engine.min_cost_b_matching(self.CROSS, 2) == (frozenset(pairs), 2)

    def test_cut_without_a_class_column_is_refused(self):
        # After the first raise and the fill that adds nothing, row 1 at
        # potential 0 reaches column 0 of class 1 over (1, 0), outside g,
        # at reduced cost 0.  A cut without column 0 breaks only the class
        # condition: every other one still holds.
        h = _BMatching(self.CROSS)
        h.fill(2)
        h.raise_potentials(2)
        h.fill(2)
        assert h.cut == ({0, 1, 2}, {0, 2})
        h.cut = ({0, 1, 2}, {2})
        with pytest.raises(VerificationError, match="reduced cost 0 remains at level 2"):
            h.raise_potentials(2)


class TestFirstFill:
    @differential
    @given(small_graphs())
    def test_first_fill_is_maximum_b_matching_of_g(self, g):
        # The sweep's levels and the fair b-matching's warm start both rest
        # on this: at zero potentials, fill(b) finds a maximum b-matching of g.
        for b in range(1, g.n_right + 1):
            h = _BMatching(g)
            h.fill(b)
            held = {(i, j) for i, cols in enumerate(h.row_cols) for j in cols}
            assert held == {(i, j) for j, rows in enumerate(h.col_rows) for i in rows}
            assert held <= g.edges
            assert all(len(rows) <= b for rows in h.col_rows)
            assert len(held) == sp.max_flow(sp.build_resilience_network(g, b)).value


class TestRecordedCut:
    @differential
    @given(hub_graphs(), st.data())
    def test_fill_records_the_residual_cut(self, g, data):
        # The rows and columns a fill's failed searches reached are those
        # the short rows reach once it ends, at every level up to d_min + 1
        # and after each repair of g less a subset.
        h = _BMatching(g)
        for b in range(1, min(g.left_degrees()) + 2):
            h.fill(b)
            assert h.cut == residual_cut(h, b)
        h = _BMatching(g)
        if h.fill(1):
            return
        match = [next(iter(held)) for held in h.row_cols]
        subsets = st.sets(st.sampled_from(g.sorted_edges), min_size=1, max_size=3)
        for removed in data.draw(st.lists(subsets, max_size=8)):
            removed = tuple(sorted(removed))
            h.repair(match, removed)
            assert h.cut == residual_cut(h, 1, removed)

    FORGES = {
        "drop-row": lambda h, b, rows, cols, saturated: (rows - {min(rows)}, cols),
        "drop-column": lambda h, b, rows, cols, saturated: (rows, cols - {min(cols)}),
        "add-room": lambda h, b, rows, cols, saturated: (
            rows, cols | {min(j for j, held in enumerate(h.col_rows) if len(held) < b)}
        ),
        "saturated-cut": lambda h, b, rows, cols, saturated: saturated,
    }

    @pytest.mark.parametrize(
        "graph, b, forge",
        [
            pytest.param(graph, b, forge, id=f"{graph}-{forge}")
            for graph, b, forges in [
                # Fig 3's cut at level 3 is rows {0, 3} and no column, so
                # only the weak gap's, which holds column 3, can lose one.
                ("fig3", 3, ["drop-row", "add-room", "saturated-cut"]),
                ("weak-gap", 2, list(FORGES)),
            ]
            for forge in forges
        ],
    )
    def test_forged_cut_is_refused(self, fig3_graph, graph, b, forge):
        # Fill every level up to b, the first that falls short, and forge
        # the cut that fill recorded.
        g = fig3_graph if graph == "fig3" else weak_gap_graph()
        h = _BMatching(g)
        for level in range(1, b):
            assert not h.fill(level)
        saturated = h.cut
        assert h.fill(b)
        h.verify_min_cut(b, short=True)
        h.cut = self.FORGES[forge](h, b, *h.cut, saturated)
        with pytest.raises(VerificationError, match=f"min-cut .* at level {b}"):
            h.verify_min_cut(b, short=True)

    def test_saturated_level_said_short_is_refused(self, fig3_graph):
        # Fig 3 saturates level 1: its empty cut meets the flow of 4, but
        # a level said to fall short must not carry n * b.
        h = _BMatching(fig3_graph)
        assert not h.fill(1)
        with pytest.raises(VerificationError, match="flow 4 saturates level 1 said to fall short"):
            h.verify_min_cut(1, short=True)

    def test_cut_before_any_fill_is_refused(self, fig3_graph):
        # Before any fill the cut is {s} alone, which no flow of 0 meets.
        with pytest.raises(VerificationError, match="max-flow 0 != min-cut 4 at level 1"):
            _BMatching(fig3_graph).verify_min_cut(1, short=True)


class TestDirectStep:
    # A row that can take a column of its own reach, or after a raise a
    # column of room, takes the first one without a search; that column is
    # the search's own first pick, so every result must equal the
    # search-only reference's.
    @staticmethod
    def solve(g):
        results = [flow_engine.resilience_sweep(g), flow_engine.matching_number(g)]
        # b above the smallest row degree makes the fills after a raise run.
        for b in range(1, min(3, g.n_right) + 1):
            results.append(flow_engine.min_cost_b_matching(g, b))
        return results

    @staticmethod
    def repairs(engine, g, match):
        h = engine(g)
        subsets = itertools.chain(
            *(itertools.combinations(g.sorted_edges[:10], size) for size in (1, 2))
        )
        return [(h.repair(match, removed), h.row_cols) for removed in subsets]

    @differential
    @given(hub_graphs())
    def test_matches_search_only_reference(self, g):
        results = self.solve(g)
        with patch.object(flow_engine, "_BMatching", SearchOnlyBMatching):
            assert self.solve(g) == results
        h = _BMatching(g)
        if not h.fill(1):
            match = [next(iter(held)) for held in h.row_cols]
            assert self.repairs(_BMatching, g, match) == self.repairs(
                SearchOnlyBMatching, g, match
            )

    def test_sweep_searches_only_where_the_direct_step_fails(self):
        # 50 rows at ell* = 20, 22 of them on one hub column: the sweep
        # augments 1,050 times, and a search for every one of them ran
        # before the direct step.
        g = planted_hub(random.Random(0), 50, 60, 20)
        searched = []
        search = _BMatching._search

        def spy(self, r, *args):
            searched.append(r)
            return search(self, r, *args)

        with patch.object(_BMatching, "_search", spy):
            sweep = flow_engine.resilience_sweep(g)
        assert sweep.ell_star == 20
        assert len(searched) <= 150

    def test_fill_scans_each_rows_reach_once(self):
        # K(4, 8) at b = 6: each row takes its 6 columns in one pass over
        # its reach.  A scan from the start for every unit iterates 24 times.
        scans = []

        class Counted(list):
            def __iter__(self):
                scans.append(1)
                return super().__iter__()

        h = _BMatching(sp.complete_graph(4, 8))
        h.reach = [Counted(cols) for cols in h.reach]
        assert h.fill(6) == 0
        assert len(scans) == 4

    @staticmethod
    def post_raise_searches(g, b):
        """min_cost_b_matching(g, b) and (pi(t), pi(r) + 1 == pi(t)) per search after a raise."""
        searched = []
        search = _BMatching._search

        def spy(self, r, b):
            if self.pi_row is not None:
                searched.append((self.pi_t, self.pi_row[r] + 1 == self.pi_t))
            return search(self, r, b)

        with patch.object(_BMatching, "_search", spy):
            return flow_engine.min_cost_b_matching(g, b), searched

    @pytest.mark.parametrize(
        "edges, n, b, expected",
        [
            # K(2,2) on rows 0 and 2, row 1 empty: at b = 2 row 1 reaches t
            # only through a row of the block, at cost 2.
            ({(0, 0), (0, 2), (2, 0), (2, 2)}, 3, 2, [(1, True), (2, False)]),
            (
                {(0, 0), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (2, 2), (3, 3)},
                4, 3, [(1, True), (2, False)],
            ),
            # At pi(t) = 1 the one column with room is row 2's own in H.
            ({(0, 2), (1, 2)}, 3, 2, [(1, True)]),
            # Row 2 holds both columns of room, so its search ends through
            # row 0 at column 2 and fills it: row 3's direct picks must then
            # skip column 2 and take column 3.
            ({(0, 3), (3, 0), (3, 1)}, 4, 3, [(1, True)]),
            # The empty 5 x 5 pattern: row 4's search reaches row 1, whose
            # scan of class pi(t) passes the full column 3, outside g(1) and
            # H(1), before it stops at column 4, which has room.
            (set(), 5, 3, [(1, True), (1, True)]),
        ],
        ids=["pi_t-2", "pi_t-2-b3", "room-held", "search-fills-room", "scan-passes-full"],
    )
    def test_post_raise_fallback_matches_reference(self, edges, n, b, expected):
        # Where the direct step after a raise cannot serve the row, the
        # search runs as before and must still match the reference.
        g = sp.BipartiteGraph(n, n, frozenset(edges))
        result, searched = self.post_raise_searches(g, b)
        assert searched == expected
        with patch.object(flow_engine, "_BMatching", SearchOnlyBMatching):
            assert flow_engine.min_cost_b_matching(g, b) == result

    def test_post_raise_fills_take_room_without_a_search(self):
        # A union of 3 matchings on 60 x 80 lifted to b = 5: after the one
        # raise every row is short by 2 with pi(t) = 1, and each of its 120
        # augmentations takes a column of room directly.
        g = shifted_union(random.Random(0), 60, 80, 3)
        (edges, cost), searched = self.post_raise_searches(g, 5)
        assert cost == 2 * 60 and edges >= g.edges
        assert searched == []


class TestInducedSubgraph:
    def test_fig6_saturated_flow_subgraph(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 2)
        f = sp.max_flow(net)
        sub = flow_subgraph(fig3_graph, f)
        assert len(sub.edges) == 8
        assert sub.edges <= fig3_graph.edges
        assert sp.is_union_of_k_matchings(sub, 2)

    def test_ell1_flow_gives_matching(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 1)
        sub = flow_subgraph(fig3_graph, sp.max_flow(net))
        assert len(sub.edges) == 4
        sp.Matching(sub.edges)  # validates distinct endpoints

    def test_zero_flow_gives_empty_subgraph(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 0)
        sub = flow_subgraph(fig3_graph, sp.max_flow(net))
        assert sub.edges == frozenset()


class TestFlowInvariants:
    def test_integrality_and_balance_on_random_networks(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 4))
            net = sp.build_resilience_network(g, rng.randint(1, 3))
            f = sp.max_flow(net)  # Flow.__post_init__ checks the invariants
            assert all(isinstance(v, int) for v in f.arc_values)

    def test_network_validation(self):
        with pytest.raises(ValueError):
            FlowNetwork(3, 0, 1, (Arc(2, 0, 1),))  # arc into the source
        with pytest.raises(ValueError):
            FlowNetwork(3, 0, 1, (Arc(1, 2, 1),))  # arc out of the sink
        with pytest.raises(ValueError):
            FlowNetwork(3, 0, 1, (Arc(0, 2, 1), Arc(0, 2, 1)))  # parallel
        with pytest.raises(ValueError):
            Arc(0, 1, -1)
