import math
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import sprank as sp
from sprank import flow as flow_engine
from sprank import oracle
from sprank import resilience as resilience_mod
from sprank.errors import (
    BudgetExceededError,
    NotDecomposableError,
    ShapeError,
    VerificationError,
)

from conftest import (
    FIG3_STARS,
    FORGED_WITNESSES,
    count_calls,
    differential,
    forge_sweep,
    hub_graphs,
    planted_hubs,
    random_graph,
    random_union_of_matchings,
    shifted_union,
    small_graphs,
    weak_gap_graph,
)
from reference_flow import flow_subgraph
import reference_konig
import reference_weak_library


def _outcome(solve):
    """("value", v) for an answer, ("lower_bound", b) for a budget run out."""
    try:
        return ("value", solve())
    except BudgetExceededError as exc:
        return ("lower_bound", exc.lower_bound)


class TestStructuralRank:
    def test_fig3(self, fig3_graph):
        assert sp.structural_rank(fig3_graph) == 4

    def test_fig2(self, fig2_graph):
        assert sp.structural_rank(fig2_graph) == 4

    def test_no_edges(self):
        assert sp.structural_rank(sp.BipartiteGraph(3, 3, frozenset())) == 0


class TestStrongResilience:
    def test_fig4_graph(self, fig3_graph):
        r = sp.strong_resilience(fig3_graph)
        assert r.strong_resilience == 1 and r.ell_star == 2

    def test_fig7_graph(self, fig7_graph):
        r = sp.strong_resilience(fig7_graph)
        assert r.ell_star == 2 and r.strong_resilience == 1

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 4)])
    def test_complete_graph(self, n, m):
        assert sp.strong_resilience(sp.complete_graph(n, m)).strong_resilience == m - 1

    def test_fig2_graph(self, fig2_graph):
        # All left degrees 3, right degrees <= 3: union of 3 matchings.
        r = sp.strong_resilience(fig2_graph)
        assert r.strong_resilience == 2
        assert oracle.brute_strong_resilience(fig2_graph) == 2

    def test_rank_deficient(self):
        g = sp.BipartiteGraph(2, 2, frozenset({(0, 0), (1, 0)}))
        r = sp.strong_resilience(g)
        assert r.strong_resilience == -1 and r.ell_star == 0
        assert r.structural_rank == 1
        assert not r.matchings

    def test_isolated_left_node(self):
        g = sp.BipartiteGraph(2, 3, frozenset({(0, 0), (0, 1)}))
        assert sp.strong_resilience(g).strong_resilience == -1

    @pytest.mark.parametrize(
        "solve", [sp.strong_resilience, sp.weak_resilience], ids=["strong", "weak"]
    )
    def test_shape_rejected(self, solve):
        g = sp.BipartiteGraph(3, 2, frozenset())
        with pytest.raises(ShapeError):
            solve(g)

    @pytest.mark.parametrize(
        "solve",
        [
            sp.strong_resilience,
            lambda g: sp.min_edges_for_target(g, 1),
            lambda g: sp.best_within_budget(g, 0),
        ],
        ids=["strong_resilience", "min_edges_for_target", "best_within_budget"],
    )
    @FORGED_WITNESSES
    def test_forged_witness_is_caught(self, fig3_graph, monkeypatch, solve, forge, message):
        # Strong resilience and augmentation read ell* from the same checked
        # sweep as weak resilience, so a forged witness stops them too.  Fig 3
        # has d_min = 2, so at target 1 the bound strong <= d_min - 1 does not
        # settle the plan and the sweep is read.
        forge_sweep(monkeypatch, forge)
        with pytest.raises(VerificationError, match=message):
            solve(fig3_graph)

    def test_levels_said_saturated_past_m_are_refused(self, fig3_graph, monkeypatch):
        # Fig 3 has m = 5 columns.  A sweep told that every level up to 6
        # saturates lists 10 pairs for ell* = 6, refused by the degree test:
        # no row can hold 6 distinct columns of 5.
        forge_sweep(monkeypatch, lambda h, b, short: 0 if b <= 6 else short)
        with pytest.raises(VerificationError, match="witness is not 6 disjoint"):
            flow_engine.resilience_sweep(fig3_graph)

    def test_wide_decomposition_allocates_per_edge(self):
        # 1 x 2000, every cell a star: ell* = 2000.  The colouring keeps a
        # column's slots only for the colours it holds, not m * ell* of them.
        g = sp.complete_graph(1, 2000)
        tracemalloc.start()
        try:
            r = sp.strong_resilience(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.ell_star == len(r.matchings) == 2000
        assert peak < 8 * 1024 * 1024

    @pytest.mark.parametrize(
        "g", [sp.complete_graph(3, 4), weak_gap_graph()], ids=["complete-3x4", "weak-gap"]
    )
    def test_witness_checked_once(self, monkeypatch, g):
        # The one sweep checks its witness; the colouring that follows trusts it.
        swept = count_calls(monkeypatch, flow_engine, "resilience_sweep")
        checked = count_calls(monkeypatch, flow_engine, "_k_matchings")
        coloured = count_calls(monkeypatch, resilience_mod, "_colour_matchings")
        r = sp.strong_resilience(g)
        assert len(r.matchings) == r.ell_star > 0
        assert swept == checked == coloured == [1]

    @differential
    @given(small_graphs())
    def test_sweep_matches_oracle(self, g):
        r = sp.strong_resilience(g)
        assert sp.structural_rank(g) == r.structural_rank == oracle.brute_rank(g)
        assert r.strong_resilience == oracle.brute_strong_resilience(g)

    @differential
    @given(small_graphs())
    def test_sweep_matches_generic_max_flow(self, g):
        r = sp.strong_resilience(g)
        n, ell = g.n_left, r.ell_star
        assert sp.max_flow(sp.build_resilience_network(g, 1)).value == r.structural_rank
        assert sp.max_flow(sp.build_resilience_network(g, ell)).value == n * ell
        assert sp.max_flow(sp.build_resilience_network(g, ell + 1)).value < n * (ell + 1)

    @differential
    @given(small_graphs())
    def test_sweep_witness_is_union_inside_g(self, g):
        r = sp.strong_resilience(g)
        assert r.witness_subgraph.edges <= g.edges
        if r.ell_star:
            assert sp.is_union_of_k_matchings(r.witness_subgraph, r.ell_star)
        else:
            assert not r.witness_subgraph.edges

    def test_sweep_cut_check_rejects_unfinished_flow(self, fig3_graph):
        level = flow_engine._BMatching(fig3_graph)
        level.fill(1)
        with pytest.raises(VerificationError):
            level.verify_min_cut(2, short=True)

    def test_report_witness_invariants(self, fig3_graph):
        r = sp.strong_resilience(fig3_graph)
        assert sp.is_union_of_k_matchings(r.witness_subgraph, r.ell_star)
        seen = set()
        for m in r.matchings:
            assert m.is_left_perfect(fig3_graph.n_left)
            assert m.edges <= fig3_graph.edges
            assert not (m.edges & seen)
            seen |= m.edges

    def test_monotone_feasibility(self):
        # Saturation at ell implies saturation at every smaller ell.
        rng = random.Random(3)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))
            if g.n_right < g.n_left:
                continue
            r = sp.strong_resilience(g)
            for ell in range(r.ell_star + 1):
                net = sp.build_resilience_network(g, ell)
                assert sp.max_flow(net).value == g.n_left * ell

    def test_degree_cap(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))
            if g.n_right < g.n_left or not g.edges:
                continue
            r = sp.strong_resilience(g)
            assert r.ell_star <= min(g.left_degrees())

    def test_edge_bound(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))
            if g.n_right < g.n_left:
                continue
            k = sp.strong_resilience(g).strong_resilience
            if k >= 0:
                assert len(g.edges) >= (k + 1) * g.n_left

    def test_monotone_under_edge_addition(self):
        rng = random.Random(41)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))
            if g.n_right < g.n_left:
                continue
            missing = sorted(sp.complement(g).edges)
            if not missing:
                continue
            extra = rng.choice(missing)
            bigger = sp.BipartiteGraph(g.n_left, g.n_right, g.edges | {extra})
            assert (
                sp.strong_resilience(bigger).strong_resilience
                >= sp.strong_resilience(g).strong_resilience
            )


class TestExtractDisjointMatchings:
    def test_fig6_subgraph(self, fig3_graph):
        net = sp.build_resilience_network(fig3_graph, 2)
        sub = flow_subgraph(fig3_graph, sp.max_flow(net))
        matchings = sp.extract_disjoint_matchings(sub, 2)
        assert len(matchings) == 2
        assert matchings[0].edges | matchings[1].edges == sub.edges
        assert not (matchings[0].edges & matchings[1].edges)

    def test_single_matching(self):
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
        [m] = sp.extract_disjoint_matchings(g, 1)
        assert m.edges == g.edges

    def test_complete_3x3_partitions(self):
        matchings = sp.extract_disjoint_matchings(sp.complete_graph(3, 3), 3)
        union = frozenset().union(*(m.edges for m in matchings))
        assert len(matchings) == 3
        assert union == sp.complete_graph(3, 3).edges
        assert sum(len(m.edges) for m in matchings) == 9

    def test_not_decomposable(self, fig3_graph):
        with pytest.raises(NotDecomposableError):
            sp.extract_disjoint_matchings(fig3_graph, 2)

    def test_colouring_refuses_a_class_with_a_row_left_out(self):
        # Row 1 has one edge, so at ell = 2 its colour-1 slot stays empty.
        # The ell slots of each row still hold distinct columns, so only
        # the class check, not the partition check, can refuse the colouring.
        h = sp.BipartiteGraph(2, 3, frozenset({(0, 0), (0, 1), (1, 2)}))
        message = "colour class 1 is not a left-perfect matching of h"
        with pytest.raises(VerificationError, match=message):
            resilience_mod._colour_matchings(h, 2)

    def test_colouring_refuses_classes_that_share_an_edge(self):
        # Forged slots that give both colours row 0's edge to column 0:
        # each class is a left-perfect matching of h, so only the partition
        # check can refuse them.
        h = sp.BipartiteGraph(1, 2, frozenset({(0, 0), (0, 1)}))
        with pytest.raises(VerificationError, match="the colour classes of h share an edge"):
            resilience_mod._colour_classes(h, [[0, 0]], 2)

    def test_random_unions_round_trip(self):
        rng = random.Random(59)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = rng.randint(n, 6)
            k = rng.randint(1, min(3, m))
            g = random_union_of_matchings(rng, n, m, k)
            matchings = sp.extract_disjoint_matchings(g, k)
            union = frozenset().union(*(mm.edges for mm in matchings))
            assert union == g.edges
            assert sum(len(mm.edges) for mm in matchings) == k * n


    def test_konig_colouring_at_large_ell(self):
        # Shifted copies of one column order: 20 disjoint left-perfect matchings.
        rng = random.Random(71)
        n, m, ell = 50, 60, 20
        order = rng.sample(range(m), m)
        shifts = rng.sample(range(m), ell)
        g = sp.BipartiteGraph(
            n, m, frozenset((i, order[(i + s) % m]) for i in range(n) for s in shifts)
        )
        matchings = sp.extract_disjoint_matchings(g, ell)
        assert len(matchings) == ell
        seen = set()
        for mm in matchings:
            assert mm.is_left_perfect(n)
            assert not (mm.edges & seen)
            seen |= mm.edges
        assert seen == g.edges

    def test_in_place_recolouring_matches_two_pass_reference(self):
        # Shifted unions and the sweep's own witnesses, up to ell = 20.
        rng = random.Random(83)
        unions = []
        for _ in range(40):
            n = rng.randint(1, 40)
            m = rng.randint(n, n + 10)
            k = rng.randint(1, min(20, m))
            unions.append((shifted_union(rng, n, m, k), k))
        for _ in range(40):
            n = rng.randint(1, 25)
            g = random_graph(rng, n, rng.randint(n, n + 5), rng.uniform(0.3, 0.95))
            sweep = flow_engine.resilience_sweep(g)
            if 0 < sweep.ell_star <= 20:
                unions.append((sweep.witness, sweep.ell_star))
        assert max(k for _, k in unions) == 20
        for h, k in unions:
            expected = reference_konig.extract_disjoint_matchings(h, k)
            assert sp.extract_disjoint_matchings(h, k) == expected


def _repair_row_doubled(h, match, removed):
    # Row 3 takes every column of g(3) not removed: on the weak gap's
    # first repair, of g less (0, 0), it holds both 2 and 3.
    short = flow_engine._BMatching.fill(h, 1)
    h.row_cols[3] |= {j for j in h.adj[3] if (3, j) not in removed}
    return short


def _repair_row_doubled_row_empty(h, match, removed):
    # The weak gap's first repair, of g less (0, 0), ends with rows 2 and
    # 3 on columns 3 and 2; row 3 takes column 3 as well and row 2 holds
    # none: n pairs of g on n distinct columns.  Later repairs are left
    # true, so only a wrong pool could change the answer.
    short = flow_engine._BMatching.fill(h, 1)
    if removed == ((0, 0),):
        h.row_cols[3] |= h.row_cols[2]
        h.row_cols[2] = set()
    return short


def _repair_column_shared(h, match, removed):
    # The weak gap's first repair, of g less (0, 0), ends with row 0 on
    # column 1 and row 2 on column 3; row 2 moves to column 1, and (2, 1)
    # is an edge of g: one pair of g per row, two at column 1.  Later
    # repairs are left true.
    short = flow_engine._BMatching.fill(h, 1)
    if removed == ((0, 0),):
        h.row_cols[2] = set(h.row_cols[0])
    return short


def _repair_pair_outside_g(h, match, removed):
    # The weak gap's first repair, of g less (0, 0), ends with rows 2 and
    # 3 on columns 3 and 2; they trade them, and (2, 2) is no edge of g.
    short = flow_engine._BMatching.fill(h, 1)
    h.row_cols[2], h.row_cols[3] = h.row_cols[3], h.row_cols[2]
    return short


class TestWeakResilience:
    def test_fig4_graph(self, fig3_graph):
        assert sp.weak_resilience(fig3_graph) == 1

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3)])
    def test_complete_graph(self, n, m):
        assert sp.weak_resilience(sp.complete_graph(n, m)) == m - 1

    def test_isolated_left_node(self):
        g = sp.BipartiteGraph(2, 3, frozenset({(0, 0)}))
        assert sp.weak_resilience(g) == -1

    def test_budget_exceeded_carries_lower_bound(self, fig3_graph):
        with pytest.raises(BudgetExceededError) as exc:
            sp.weak_resilience(fig3_graph, budget=5)
        assert exc.value.lower_bound == 0

    def test_sandwich_with_strong(self):
        rng = random.Random(67)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 4))
            if g.n_right < g.n_left:
                continue
            assert sp.weak_resilience(g) >= sp.strong_resilience(g).strong_resilience

    @differential
    @given(small_graphs())
    def test_budget_contract_matches_oracle(self, g):
        # One unit per enumerated subset, hit or miss, in the oracle's
        # order: both routes answer or run out at the same budgets, with
        # the same certified lower bound.  B0 tests every subset up to the
        # answer w, plus the first of size w + 1.
        w = oracle.brute_weak_resilience(g)
        b0 = sum(math.comb(len(g.edges), s) for s in range(w + 1))
        for budget in sorted({1, len(g.edges), b0, b0 + 1} - {0}):
            outcomes = []
            for solve in (
                lambda: sp.weak_resilience(g, budget),
                lambda: oracle.brute_weak_resilience(
                    g, oracle.OracleBudget(max_subsets=budget)
                ),
            ):
                try:
                    outcomes.append(("value", solve()))
                except BudgetExceededError as exc:
                    outcomes.append(("lower_bound", exc.lower_bound))
            assert outcomes[0] == outcomes[1], (budget, outcomes)

    @staticmethod
    def forge_repair(monkeypatch, forge):
        """Make every repair run ``forge(h, match, removed)`` in place of its fill."""
        repair = flow_engine._BMatching.repair

        def forged(self, match, removed):
            self.fill = lambda b: forge(self, match, removed)
            return repair(self, match, removed)

        monkeypatch.setattr(flow_engine._BMatching, "repair", forged)

    def test_forged_repair_failure_is_caught(self, monkeypatch):
        # In the weak-gap graph the bounds miss (ell* = 1 < d_min = 2), so
        # subsets are enumerated, and removing one edge keeps a left-perfect
        # matching: the min cut of g less the first subset that hits the
        # pool contradicts a fill that reports a row short.
        def failed(h, match, removed):
            return flow_engine._BMatching.fill(h, 1) or 1

        self.forge_repair(monkeypatch, failed)
        with pytest.raises(VerificationError, match="saturates level 1 said to fall short"):
            sp.weak_resilience(weak_gap_graph())

    def test_forged_narrowing_is_caught(self, monkeypatch):
        # A fill that drops (1, 0) from reach as well as the subset fails
        # wrongly on the first subset it sees, {(0, 0)}: column 0 loses its
        # last edge.  The deciding min cut sums the cut that fill closed
        # over g less the true subset, from g's own adjacency, where the
        # pair (1, 0) leaves the cut and lifts its capacity above the flow.
        def narrowed(h, match, removed):
            h.reach[1] = [j for j in h.reach[1] if j != 0]
            return flow_engine._BMatching.fill(h, 1)

        self.forge_repair(monkeypatch, narrowed)
        with pytest.raises(VerificationError, match="max-flow 3 != min-cut 4 at level 1"):
            sp.weak_resilience(weak_gap_graph())

    def test_forged_repaired_matching_is_caught(self, monkeypatch):
        # A fill that reports success but leaves H = M, removed pair and
        # all, would pass every later subset that misses M's pairs; the
        # repair must refuse it before it joins the pool.
        def kept(h, match, removed):
            h.row_cols = [{j} for j in match]
            return 0

        self.forge_repair(monkeypatch, kept)
        with pytest.raises(VerificationError, match="left no left-perfect matching"):
            sp.weak_resilience(weak_gap_graph())

    @pytest.mark.parametrize(
        "forge",
        [
            _repair_row_doubled,
            _repair_row_doubled_row_empty,
            _repair_column_shared,
            _repair_pair_outside_g,
        ],
        ids=["row-doubled", "row-doubled-row-empty", "column-shared", "pair-outside-g"],
    )
    def test_forged_repair_shape_is_caught(self, monkeypatch, forge):
        # Each forgery keeps the removed pair out, so only the repair's
        # own degree test or its edges-of-g check can refuse it.  The two
        # of exactly n pairs of g pass any test of the pair count alone.
        self.forge_repair(monkeypatch, forge)
        with pytest.raises(VerificationError, match="left no left-perfect matching"):
            sp.weak_resilience(weak_gap_graph())

    @FORGED_WITNESSES
    def test_forged_witness_is_caught(self, fig3_graph, monkeypatch, forge, message):
        # The lower bound strong <= weak rests on the sweep's witness alone,
        # so a witness that is not ell* disjoint matchings of g is refused.
        forge_sweep(monkeypatch, forge)
        with pytest.raises(VerificationError, match=message):
            sp.weak_resilience(fig3_graph)

    def test_budget_spent_below_ell_star_extracts_nothing(self, fig3_graph, monkeypatch):
        # Fig 3 has 10 edges and ell* = 2: a budget of 10 covers size 1
        # and none of size 2, so the witness is never split into matchings.
        extracted = count_calls(monkeypatch, resilience_mod, "_colour_matchings")
        with pytest.raises(BudgetExceededError) as exc:
            sp.weak_resilience(fig3_graph, budget=10)
        assert exc.value.lower_bound == 1
        assert extracted == [0]

    @pytest.mark.parametrize(
        "g, weak, enumerates",
        [
            (sp.complete_graph(6, 6), 5, False),
            (sp.to_bipartite(sp.pattern_from_stars(4, 5, FIG3_STARS)), 1, False),
            (weak_gap_graph(), 1, True),
        ],
        ids=["complete-6x6", "fig3", "weak-gap"],
    )
    def test_bounds_meet_without_enumeration(self, monkeypatch, g, weak, enumerates):
        # Where ell* = d_min the answer is ell* - 1 with no repair and no
        # min cut of a reduced graph; where the bounds miss, the one subset
        # whose repair fails has its min cut checked in g less that subset.
        calls = {"repair": 0, "reduced_cut": 0}
        repair, verify = flow_engine._BMatching.repair, flow_engine._BMatching.verify_min_cut

        def counted_repair(self, match, removed):
            calls["repair"] += 1
            return repair(self, match, removed)

        def counted_verify(self, b, short, removed=()):
            calls["reduced_cut"] += bool(removed)
            return verify(self, b, short, removed)

        monkeypatch.setattr(flow_engine._BMatching, "repair", counted_repair)
        monkeypatch.setattr(flow_engine._BMatching, "verify_min_cut", counted_verify)
        assert sp.weak_resilience(g) == weak
        assert (calls["repair"] > 0) == enumerates, calls
        assert calls["reduced_cut"] == (1 if enumerates else 0), calls

    def test_deciding_subset_is_proven_on_the_weak_engine(self, monkeypatch):
        # One engine for the sweep and one for the repairs; the failed
        # repair's own min cut proves the deciding subset, with no third
        # engine to solve g less it again.
        built = count_calls(monkeypatch, flow_engine._BMatching, "__init__")
        assert sp.weak_resilience(weak_gap_graph()) == 1
        assert built == [2]

    def test_enumeration_checks_witness_once(self, monkeypatch):
        # The weak gap enumerates from the witness of its one sweep, which
        # the sweep checked.  The degree predicate that checks the witness
        # also checks each repaired matching, so its calls are told apart
        # by whether a sweep is running.
        swept = count_calls(monkeypatch, flow_engine, "resilience_sweep")
        coloured = count_calls(monkeypatch, resilience_mod, "_colour_matchings")
        sweep, k_matchings, repair = (
            flow_engine.resilience_sweep, flow_engine._k_matchings, flow_engine._BMatching.repair
        )
        sweeping, checks, repaired = [False], [], []

        def in_sweep(g):
            sweeping[0] = True
            try:
                return sweep(g)
            finally:
                sweeping[0] = False

        def checked(pairs, g, k):
            checks.append(sweeping[0])
            return k_matchings(pairs, g, k)

        def counted_repair(self, match, removed):
            pairs = repair(self, match, removed)
            repaired.append(pairs is not None)
            return pairs

        monkeypatch.setattr(flow_engine, "resilience_sweep", in_sweep)
        monkeypatch.setattr(flow_engine, "_k_matchings", checked)
        monkeypatch.setattr(flow_engine._BMatching, "repair", counted_repair)
        assert sp.weak_resilience(weak_gap_graph()) == 1
        assert swept == coloured == [1]
        assert checks.count(True) == 1
        assert checks.count(False) == repaired.count(True) > 0

    @differential
    @given(st.one_of(small_graphs(), hub_graphs(), planted_hubs()))
    def test_bounds_match_enumeration_reference(self, g):
        # The bulk charge below ell*, the lexicographic-rank return and the
        # enumeration from ell* answer or run out exactly where the
        # enumeration from size 1 and the oracle do.  S(k) charges every
        # subset up to size k; B0 is the oracle's full cost, every subset
        # up to the answer w plus the first of size w + 1.
        size = len(g.edges)

        def charge(k):
            return sum(math.comb(size, s) for s in range(1, k + 1))

        ell = flow_engine.resilience_sweep(g).ell_star
        w = oracle.brute_weak_resilience(g)
        b0 = sum(math.comb(size, s) for s in range(w + 1))
        budgets = {0, 1, size, charge(ell - 1), charge(ell - 1) + 1, charge(ell), charge(ell) + 1}
        degrees = g.left_degrees()
        if ell in degrees:
            # The first row of degree ell*: its edges start at index p, so
            # C(size, ell) - C(size - p, ell) subsets of size ell* precede them.
            p = sum(degrees[: degrees.index(ell)])
            rank = math.comb(size, ell) - math.comb(size - p, ell)
            budgets |= {charge(ell - 1) + rank, charge(ell - 1) + rank + 1}
        for budget in sorted(budgets | {b0, b0 + 1}):
            solvers = [
                lambda: sp.weak_resilience(g, budget),
                lambda: reference_weak_library.weak_resilience(g, budget),
            ]
            if budget > 0:  # the oracle takes positive caps only
                capped = oracle.OracleBudget(max_subsets=budget)
                solvers.append(lambda: oracle.brute_weak_resilience(g, capped))
            outcomes = [_outcome(solve) for solve in solvers]
            assert len(set(outcomes)) == 1, (budget, outcomes)

    def test_first_row_of_least_degree_ranks_least(self, monkeypatch):
        # Rows 2 and 4 both have d_min = ell* = 2 edges.  Row 2's, at indices
        # 4 and 5 of 13, rank 42 in size 2, row 4's 77: 13 + 42 + 1 units
        # answer with no subset tested, one fewer runs out.
        rows = ["0 * * * *", "* 0 0 * 0", "* * * * *", "0 * 0 0 *"]
        g = sp.BipartiteGraph(4, 5, frozenset(
            (i, j) for i, row in enumerate(rows) for j, c in enumerate(row.split()) if c == "*"
        ))
        extracted = count_calls(monkeypatch, resilience_mod, "_colour_matchings")
        assert sp.weak_resilience(g, budget=56) == 1
        assert extracted == [0]
        with pytest.raises(BudgetExceededError) as exc:
            sp.weak_resilience(g, budget=55)
        assert exc.value.lower_bound == 1

    def test_lex_rank_is_the_combinations_index(self):
        for n in range(9):
            for k in range(n + 1):
                for index, subset in enumerate(combinations(range(n), k)):
                    assert resilience_mod._lex_rank(subset, n) == index, (n, subset)

    def test_pool_saves_the_searches_on_complete_6x6(self, monkeypatch):
        # Every subset of the 36 edges that misses a matching already found
        # passes without a search.  A search per subset would cost the
        # oracle 443,705; the pool leaves 97.  The library, where the
        # bounds meet, repairs nothing (test_bounds_meet_without_enumeration).
        # The spy wraps the one matching search the weak oracle calls, so
        # a count of 0 means the spy missed it, not that the pool did well.
        calls = {"repair": 0, "search": 0}
        repair, search = flow_engine._BMatching.repair, oracle._matchings

        def counted_repair(self, match, removed):
            calls["repair"] += 1
            return repair(self, match, removed)

        def counted_search(g, max_nodes, banned=()):
            calls["search"] += 1
            return search(g, max_nodes, banned)

        monkeypatch.setattr(flow_engine._BMatching, "repair", counted_repair)
        monkeypatch.setattr(oracle, "_matchings", counted_search)
        g = sp.complete_graph(6, 6)
        assert sp.weak_resilience(g) == oracle.brute_weak_resilience(g) == 5
        assert calls["repair"] <= 200 and 0 < calls["search"] <= 200, calls

    def test_complete_6x6(self):
        start = time.perf_counter()
        assert sp.weak_resilience(sp.complete_graph(6, 6)) == 5
        assert time.perf_counter() - start < 10.0

    def test_zero_budget(self):
        # A one-row graph must test its first subset, which a zero budget
        # does not allow; a rank-deficient graph tests none.
        with pytest.raises(BudgetExceededError) as exc:
            sp.weak_resilience(sp.complete_graph(1, 3), budget=0)
        assert exc.value.lower_bound == 0
        deficient = sp.BipartiteGraph(2, 3, frozenset({(0, 0), (1, 0)}))
        assert sp.weak_resilience(deficient, budget=0) == -1
