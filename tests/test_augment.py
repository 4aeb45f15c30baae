import random
import time

import pytest
from hypothesis import example, given, strategies as st

import sprank as sp
from sprank import flow as flow_engine
from sprank import oracle
from sprank.errors import (
    InvalidKError,
    PreconditionFailedError,
    ShapeError,
    SprankError,
    VerificationError,
)
from sprank.flow import Arc, FlowNetwork

from conftest import (
    FIG3_STARS,
    FORGED_PLANS,
    count_calls,
    differential,
    forge_certify,
    hub_graphs,
    planted_hubs,
    random_graph,
    random_union_of_matchings,
    shifted_union,
    small_graphs,
    weak_gap_graph,
)
import reference_augment
from reference_flow import flow_subgraph, min_cost_max_flow


class TestFairBMatching:
    def test_fig7_target_two(self, fig7_graph):
        bm = sp.fair_b_matching(fig7_graph, 2)
        assert bm.edges == sp.complete_graph(2, 3).edges
        assert len(bm.edges & fig7_graph.edges) == 4

    def test_already_a_union_needs_nothing(self):
        g = sp.BipartiteGraph(
            3, 4, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 3)})
        )
        bm = sp.fair_b_matching(g, 1)
        assert len(bm.edges & g.edges) == 2 * 3

    def test_empty_graph(self):
        g = sp.BipartiteGraph(2, 2, frozenset())
        bm = sp.fair_b_matching(g, 1)
        assert len(bm.edges) == 4 and not (bm.edges & g.edges)

    def test_invalid_k(self, fig7_graph):
        with pytest.raises(InvalidKError):
            sp.fair_b_matching(fig7_graph, 3)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda g: sp.fair_b_matching(g, 1),
            lambda g: sp.min_edges_for_target(g, 1),
            lambda g: sp.best_within_budget(g, 1),
        ],
        ids=["fair_b_matching", "min_edges_for_target", "best_within_budget"],
    )
    def test_fewer_columns_than_rows(self, solve):
        # 3 x 2 with d_min = 1: the bound strong <= d_min - 1 sends target 1
        # straight to the fair b-matching, which blames the shape, not itself.
        g = sp.BipartiteGraph(3, 2, frozenset({(0, 0), (1, 1), (2, 0)}))
        with pytest.raises(ShapeError):
            solve(g)

    def test_result_is_union_of_matchings(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))
            if g.n_right < g.n_left:
                continue
            k = rng.randint(0, g.n_right - 1)
            bm = sp.fair_b_matching(g, k)
            got = sp.BipartiteGraph(g.n_left, g.n_right, bm.edges)
            assert sp.is_union_of_k_matchings(got, k + 1)


class TestCertificateGuardsEveryPlan:
    # The 4 x 4 weak gap has strong resilience 0 and d_min = 2, so target 2
    # takes the bound path (d_min - 1 < 2, no sweep) and target 1 the sweep.
    @FORGED_PLANS
    @pytest.mark.parametrize(
        "entry, sweeps",
        [
            (lambda g: sp.fair_b_matching(g, 1), 0),
            (lambda g: sp.min_edges_for_target(g, 2), 0),
            (lambda g: sp.min_edges_for_target(g, 1), 1),
            (lambda g: sp.best_within_budget(g, 100), 1),
        ],
        ids=["fair_b_matching", "target-bound", "target-sweep", "best_within_budget"],
    )
    def test_corrupt_plan_is_refused(self, monkeypatch, corrupt, message, entry, sweeps):
        forge_certify(monkeypatch, corrupt)
        swept = count_calls(monkeypatch, flow_engine, "resilience_sweep")
        with pytest.raises(VerificationError, match=message):
            entry(weak_gap_graph())
        assert swept[0] == sweeps


def dense_fair_network(g, b):
    """The fair b-matching of K(n, m) as an explicit 0/1-cost network."""
    n, m = g.n_left, g.n_right
    arcs = [Arc(0, 2 + i, b) for i in range(n)]
    arcs += [
        Arc(2 + i, 2 + n + j, 1, cost=0 if (i, j) in g.edges else 1)
        for i in range(n)
        for j in range(m)
    ]
    arcs += [Arc(2 + n + j, 1, b) for j in range(m)]
    return FlowNetwork(2 + n + m, 0, 1, tuple(arcs))


class TestFairBMatchingDifferential:
    @differential
    @given(small_graphs())
    # At b = 2 the second fill's failed search from row 2 closes columns 0
    # and 1; the last fill must reach them again, since the raise between
    # changed which arcs have reduced cost 0.
    @example(sp.BipartiteGraph(3, 3, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})))
    def test_matches_oracle_and_dense_min_cost_flow(self, g):
        n, m = g.n_left, g.n_right
        for k in range(m):
            bm = sp.fair_b_matching(g, k)
            added = len(bm.edges - g.edges)
            assert added == oracle.brute_min_augmentation(g, k)
            f = min_cost_max_flow(dense_fair_network(g, k + 1))
            assert (f.value, f.cost()) == ((k + 1) * n, added)
            assert sp.is_union_of_k_matchings(sp.BipartiteGraph(n, m, bm.edges), k + 1)


class TestMinEdgesForTarget:
    def test_fig7_target_two(self, fig7_graph):
        plan = sp.min_edges_for_target(fig7_graph, 2)
        assert plan.delta_star == 2
        assert plan.added_edges == ((0, 2), (1, 2))
        assert plan.result_graph.edges == sp.complete_graph(2, 3).edges
        assert sp.strong_resilience(plan.result_graph).strong_resilience == 2

    def test_fig4_target_one_is_free(self, fig3_graph):
        plan = sp.min_edges_for_target(fig3_graph, 1)
        assert plan.delta_star == 0 and plan.result_graph == fig3_graph

    def test_empty_graph_target_zero(self):
        g = sp.BipartiteGraph(2, 2, frozenset())
        plan = sp.min_edges_for_target(g, 0)
        assert plan.delta_star == 2
        sp.Matching(frozenset(plan.added_edges))  # a perfect matching

    def test_theorem4_exactness(self):
        # When the target exceeds the current resilience, the augmented
        # graph reaches it exactly, not merely at-least.
        rng = random.Random(29)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 3), rng.randint(2, 4))
            if g.n_right < g.n_left:
                continue
            current = sp.strong_resilience(g).strong_resilience
            k = rng.randint(0, g.n_right - 1)
            plan = sp.min_edges_for_target(g, k)
            achieved = sp.strong_resilience(plan.result_graph).strong_resilience
            if current < k:
                assert achieved == k
            else:
                assert plan.delta_star == 0

    def test_delta_zero_iff_already_resilient(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 4))
            if g.n_right < g.n_left:
                continue
            srs = sp.strong_resilience(g).strong_resilience
            for k in range(g.n_right):
                assert (sp.delta_star(g, k) == 0) == (srs >= k)

    @staticmethod
    def outcome(plan, g, k):
        """The plan for (g, k), or the type of the error it raises."""
        try:
            return plan(g, k)
        except SprankError as exc:
            return type(exc)

    @differential
    @given(st.one_of(small_graphs(), hub_graphs(), planted_hubs()))
    def test_matches_sweep_first_reference(self, g):
        # The bound strong <= d_min - 1 skips the sweep, never the answer:
        # every target, out of range too, on g and on its transpose, whose
        # m < n must still raise ShapeError.
        n, m = g.n_left, g.n_right
        transpose = sp.BipartiteGraph(m, n, frozenset((j, i) for (i, j) in g.edges))
        for h in (g, transpose):
            for k in range(-1, h.n_right + 1):
                expected = self.outcome(reference_augment.min_edges_for_target, h, k)
                assert self.outcome(sp.min_edges_for_target, h, k) == expected

    @pytest.mark.parametrize(
        "g, k, sweeps",
        [
            # Fig 3: d_min = 2, ell* = 2.
            (sp.to_bipartite(sp.pattern_from_stars(4, 5, FIG3_STARS)), 1, 1),
            (sp.to_bipartite(sp.pattern_from_stars(4, 5, FIG3_STARS)), 2, 0),
            (sp.to_bipartite(sp.pattern_from_stars(4, 5, FIG3_STARS)), 4, 0),
            (sp.complete_graph(6, 6), 0, 1),
            (sp.complete_graph(6, 6), 5, 1),
            # Row 1 has no edge: d_min = 0.
            (sp.BipartiteGraph(2, 2, frozenset({(0, 0), (0, 1)})), 0, 0),
        ],
        ids=["fig3-1", "fig3-2", "fig3-4", "complete-6x6-0", "complete-6x6-5", "deficient-0"],
    )
    def test_sweep_runs_only_where_the_bound_does_not_settle(self, monkeypatch, g, k, sweeps):
        # d_min - 1 < k* proves g short of k*, so the fair b-matching is the
        # only solve; otherwise one checked sweep decides.
        swept = count_calls(monkeypatch, flow_engine, "resilience_sweep")
        plan = sp.min_edges_for_target(g, k)
        assert swept == [sweeps]
        assert (plan.delta_star > 0) == (min(g.left_degrees()) <= k)


class TestBestWithinBudget:
    def test_fig7_budget_two(self, fig7_graph):
        plan = sp.best_within_budget(fig7_graph, 2)
        assert plan.achieved_resilience == 2

    def test_fig7_budget_one(self, fig7_graph):
        plan = sp.best_within_budget(fig7_graph, 1)
        assert plan.achieved_resilience == 1 and plan.delta_star == 0

    def test_zero_budget_keeps_current(self):
        rng = random.Random(43)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 4))
            if g.n_right < g.n_left:
                continue
            plan = sp.best_within_budget(g, 0)
            assert plan.achieved_resilience == sp.strong_resilience(g).strong_resilience

    def test_monotone_in_budget(self, fig7_graph):
        values = [
            sp.best_within_budget(fig7_graph, p).achieved_resilience
            for p in range(4)
        ]
        assert values == sorted(values)

    def test_exact_spend_pads(self, fig7_graph):
        plan = sp.best_within_budget(fig7_graph, 2, exact_spend=True)
        assert plan.delta_star == 2
        free = sp.best_within_budget(fig7_graph, 1, exact_spend=True)
        assert free.delta_star == 1  # padded beyond the 0 needed

    def test_exact_spend_pads_200x200_diagonal(self):
        # p = 4n - 1 buys target 3 at delta* = 3n and pads with n - 1
        # spares; the padding once tested each complement edge against
        # the plan's tuple, quadratic in n.
        n = 200
        g = sp.BipartiteGraph(n, n, frozenset((i, i) for i in range(n)))
        p = 4 * n - 1
        best = sp.best_within_budget(g, p)
        spare = [
            e for e in sorted(sp.complement(g).edges) if e not in best.added_edges
        ][: p - best.delta_star]
        added = tuple(sorted(best.added_edges + tuple(spare)))
        padded = sp.best_within_budget(g, p, exact_spend=True)
        assert padded.added_edges == added and padded.delta_star == p
        assert padded.achieved_resilience == best.achieved_resilience == 3
        assert padded.result_graph.edges == g.edges | set(added)
        assert padded.b_matching == best.b_matching


class TestIncrementMatchings:
    def test_union_of_two_on_4x5(self):
        g = sp.BipartiteGraph(
            4, 5,
            frozenset({(0, 0), (1, 1), (2, 2), (3, 3),
                       (0, 1), (1, 0), (2, 3), (3, 4)}),
        )
        result, added = sp.increment_matchings(g, 2)
        assert len(added) == 4
        assert sp.is_union_of_k_matchings(result, 3)
        assert not (set(added) & g.edges)

    def test_single_matching_square(self):
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
        result, added = sp.increment_matchings(g, 1)
        assert len(added) == 3
        assert sp.is_union_of_k_matchings(result, 2)

    def test_two_matchings_of_k23(self, fig7_graph):
        result, added = sp.increment_matchings(fig7_graph, 2)
        assert sorted(added) == [(0, 2), (1, 2)]
        assert result.edges == sp.complete_graph(2, 3).edges

    def test_precondition_failure(self, fig3_graph):
        with pytest.raises(PreconditionFailedError):
            sp.increment_matchings(fig3_graph, 2)

    def test_invalid_k(self, fig7_graph):
        with pytest.raises(InvalidKError):
            sp.increment_matchings(fig7_graph, 3)

    def test_proposition2_flow_value(self):
        rng = random.Random(53)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rng.randint(n, 5)
            k = rng.randint(1, min(3, m - 1)) if m > 1 else None
            if k is None:
                continue
            g = random_union_of_matchings(rng, n, m, k)
            net = sp.build_augmentation_network(g, k)
            assert sp.max_flow(net).value == n

    def test_500x500_union_of_three(self):
        g = shifted_union(random.Random(71), 500, 500, 3)
        start = time.perf_counter()
        result, added = sp.increment_matchings(g, 3)
        assert time.perf_counter() - start < 5.0
        assert len(added) == 500 and not (set(added) & g.edges)
        assert sp.is_union_of_k_matchings(result, 4)


class TestBoostBy:
    def test_matching_to_complete_3x3(self):
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
        result, added = sp.boost_by(g, 1, 2)
        assert result.edges == sp.complete_graph(3, 3).edges
        assert len(added) == 6

    def test_fill_to_complete_4x5(self):
        rng = random.Random(61)
        g = random_union_of_matchings(rng, 4, 5, 2)
        result, added = sp.boost_by(g, 2, 3)
        assert result.edges == sp.complete_graph(4, 5).edges
        assert len(added) == 3 * 4
        assert sp.is_union_of_k_matchings(result, 5)

    def test_ell_too_large(self, fig7_graph):
        with pytest.raises(InvalidKError):
            sp.boost_by(fig7_graph, 2, 2)

    def test_forged_cost_is_refused(self, monkeypatch):
        # The solve's true pairs, with one pair more said to lie outside g
        # than the lift from 1 to 3 matchings of the 3x3 diagonal adds.
        solve = flow_engine.min_cost_b_matching

        def forged(g, b):
            edges, cost = solve(g, b)
            return edges, cost + 1

        monkeypatch.setattr(flow_engine, "min_cost_b_matching", forged)
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
        with pytest.raises(VerificationError, match="must add exactly 6 edges, not 7"):
            sp.boost_by(g, 1, 2)

    def test_every_ell_matches_reference_lifts(self):
        # The reference lifts one step at a time: a max flow of value n on
        # the augmentation network, whose flow subgraph joins the union.
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = rng.randint(max(n, 2), 8)
            k = rng.randint(1, m - 1)
            g = shifted_union(rng, n, m, k)
            current = g
            for ell in range(1, m - k + 1):
                f = sp.max_flow(sp.build_augmentation_network(current, k + ell - 1))
                assert f.value == n
                current = sp.union_disjoint(current, flow_subgraph(current, f))
                assert sp.is_union_of_k_matchings(current, k + ell)
                result, added = sp.boost_by(g, k, ell)
                assert len(added) == ell * n and not (set(added) & g.edges)
                assert result.edges == g.edges | set(added)
                assert sp.is_union_of_k_matchings(result, k + ell)


class TestComplementMatchingStructure:
    def test_k33_minus_matching(self):
        g = sp.BipartiteGraph(
            3, 3, sp.complete_graph(3, 3).edges - {(0, 0), (1, 1), (2, 2)}
        )
        assert sp.complement_matching_structure(g) == 1

    def test_single_matching_4x4(self):
        g = sp.BipartiteGraph(4, 4, frozenset({(0, 0), (1, 1), (2, 2), (3, 3)}))
        assert sp.complement_matching_structure(g) == 3
        comp = sp.complement(g)
        assert len(sp.extract_disjoint_matchings(comp, 3)) == 3

    def test_complete_graph(self):
        assert sp.complement_matching_structure(sp.complete_graph(3, 3)) == 0

    def test_rejects_non_square(self, fig7_graph):
        with pytest.raises(PreconditionFailedError, match=r"must be square \(n_left == n_right\)"):
            sp.complement_matching_structure(fig7_graph)

    @pytest.mark.parametrize(
        "edges",
        [{(0, 0), (1, 1), (1, 0)}, {(0, 0), (1, 0)}, {(1, 1)}],
        ids=["uneven-rows", "shared-column", "empty-row"],
    )
    def test_rejects_non_union(self, edges):
        g = sp.BipartiteGraph(2, 2, frozenset(edges))
        with pytest.raises(PreconditionFailedError, match="not a union of disjoint perfect"):
            sp.complement_matching_structure(g)

    def test_diagonal_past_the_dense_cap(self):
        # The complement of the 1100 x 1100 diagonal has 1,208,900 cells,
        # past the dense-size cap, and is never built.
        g = sp.BipartiteGraph(1100, 1100, frozenset((i, i) for i in range(1100)))
        assert sp.complement_matching_structure(g) == 1099


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: sp.best_within_budget(sp.complete_graph(2, 2), -1),
            ValueError,
            "budget must be nonnegative",
        ),
    ],
    ids=["negative-budget"],
)
def test_input_guards(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert exc.type is error and str(exc.value) == message


class TestOracleAgreement:
    def test_delta_star_matches_brute_force(self):
        rng = random.Random(71)
        budget = oracle.OracleBudget(max_subsets=200_000)
        for _ in range(12):
            g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 4))
            if g.n_right < g.n_left:
                continue
            for k in range(min(3, g.n_right)):
                assert sp.delta_star(g, k) == oracle.brute_min_augmentation(g, k, budget)

    @differential
    @given(small_graphs())
    def test_delta_star_nondecreasing_in_k(self, g):
        # best_within_budget stops at the first unaffordable target on this.
        deltas = [sp.delta_star(g, k) for k in range(g.n_right)]
        assert deltas == sorted(deltas)

    @differential
    @given(small_graphs())
    def test_best_within_budget_matches_brute_force(self, g):
        brute = [oracle.brute_min_augmentation(g, k) for k in range(g.n_right)]
        for p in range(g.n_left * g.n_right + 1):
            expected = max((k for k, d in enumerate(brute) if d <= p), default=-1)
            assert sp.best_within_budget(g, p).achieved_resilience == expected
