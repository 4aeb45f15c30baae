import random
import time

import pytest

import sprank as sp
from sprank import oracle
from sprank.errors import BudgetExceededError, InvalidKError, VerificationError

from conftest import random_graph


class TestBruteRank:
    def test_fig3(self, fig3_graph):
        assert oracle.brute_rank(fig3_graph) == 4

    def test_identity_pattern(self):
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
        assert oracle.brute_rank(g) == 3

    def test_single_row_of_stars(self):
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (0, 1), (0, 2)}))
        assert oracle.brute_rank(g) == 1

    def test_matches_flow_rank(self):
        rng = random.Random(83)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 5))
            assert oracle.brute_rank(g) == sp.structural_rank(g)

    @pytest.mark.parametrize(
        "g, rank",
        [
            (sp.complete_graph(9, 9), 9),
            (sp.BipartiteGraph(30, 30, frozenset((i, i) for i in range(30))), 30),
        ],
        ids=["complete_9x9", "diagonal_30x30"],
    )
    def test_search_budget_exceeded(self, g, rank):
        # Both branches at every row make the search exponential; the node
        # budget stops it, and the first leaf already certifies the rank.
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            oracle.brute_rank(g)
        assert time.perf_counter() - start < 1.0
        assert info.value.lower_bound == rank

    def test_search_budget_counts_nodes(self, fig3_graph):
        # Fig 3's search tree has more than 10 nodes and fewer than 1000.
        with pytest.raises(BudgetExceededError):
            oracle.brute_rank(fig3_graph, b=oracle.OracleBudget(max_matchings=10))
        assert oracle.brute_rank(fig3_graph, b=oracle.OracleBudget(max_matchings=1000)) == 4

    def test_numeric_disagreement_raises(self, fig3_graph, monkeypatch):
        monkeypatch.setattr(oracle, "_numeric_rank", lambda a: 0)
        with pytest.raises(VerificationError):
            oracle.brute_rank(fig3_graph)


class TestBruteWeakResilience:
    def test_k22(self):
        assert oracle.brute_weak_resilience(sp.complete_graph(2, 2)) == 1

    def test_single_matching(self):
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
        assert oracle.brute_weak_resilience(g) == 0

    def test_no_matching(self):
        g = sp.BipartiteGraph(2, 2, frozenset({(0, 0), (1, 0)}))
        assert oracle.brute_weak_resilience(g) == -1

    def test_budget(self, fig3_graph):
        with pytest.raises(BudgetExceededError):
            oracle.brute_weak_resilience(
                fig3_graph, oracle.OracleBudget(max_subsets=3)
            )


class TestBruteStrongResilience:
    def test_fig4(self, fig3_graph):
        assert oracle.brute_strong_resilience(fig3_graph) == 1

    def test_k23(self):
        assert oracle.brute_strong_resilience(sp.complete_graph(2, 3)) == 2

    def test_no_matching(self):
        g = sp.BipartiteGraph(2, 2, frozenset({(0, 0), (1, 0)}))
        assert oracle.brute_strong_resilience(g) == -1

    def test_rows_beyond_recursion_limit(self):
        # One search frame per row would exceed Python's default recursion
        # limit of 1000.
        g = sp.BipartiteGraph(1100, 1100, frozenset((i, i) for i in range(1100)))
        assert oracle.brute_strong_resilience(g) == 0

    def test_complete_row_beyond_recursion_limit(self):
        # 1100 single-edge matchings, all disjoint: one search frame per
        # chosen matching would exceed Python's default recursion limit.
        g = sp.complete_graph(1, 1100)
        assert oracle.brute_strong_resilience(g) == 1099
        assert oracle.has_disjoint_matchings(g, 1050)

    def test_complete_6x6_stops_at_min_degree(self):
        # Of 720 matchings, six disjoint ones end the search: no row has a
        # seventh edge for a seventh matching.
        start = time.perf_counter()
        assert oracle.brute_strong_resilience(sp.complete_graph(6, 6)) == 5
        assert time.perf_counter() - start < 1.0

    def test_family_search_budget_carries_lower_bound(self):
        # Six rows on three shared hub columns plus two private columns
        # each: ell* is 4 but every row has degree 5, so the search must
        # rule out five disjoint matchings among 3,040.
        hub = sp.BipartiteGraph(
            6, 15, frozenset((i, j) for i in range(6) for j in (0, 1, 2, 3 + 2 * i, 4 + 2 * i))
        )
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            oracle.brute_strong_resilience(hub)
        with pytest.raises(BudgetExceededError):
            oracle.has_disjoint_matchings(hub, 5, cap=10**4)
        assert not oracle.has_disjoint_matchings(hub, 6)  # above the row degree
        assert time.perf_counter() - start < 1.0
        assert 0 <= info.value.lower_bound <= sp.strong_resilience(hub).strong_resilience

    def test_weak_dominates_strong(self):
        rng = random.Random(89)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 4))
            assert oracle.brute_weak_resilience(g) >= oracle.brute_strong_resilience(g)

    def test_negative_exactly_when_rank_deficient(self):
        rng = random.Random(97)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 4))
            deficient = oracle.brute_rank(g) < g.n_left
            assert (oracle.brute_strong_resilience(g) == -1) == deficient
            assert (oracle.brute_weak_resilience(g) == -1) == deficient


class TestBruteMinAugmentation:
    def test_fig7(self, fig7_graph):
        assert oracle.brute_min_augmentation(fig7_graph, 2) == 2

    def test_already_resilient(self, fig3_graph):
        assert oracle.brute_min_augmentation(fig3_graph, 1) == 0

    def test_empty_2x2(self):
        g = sp.BipartiteGraph(2, 2, frozenset())
        assert oracle.brute_min_augmentation(g, 1) == 4

    @pytest.mark.parametrize("k_star", [-1, 1])
    def test_target_out_of_range(self, k_star):
        # A 1x1 graph has at most one matching, so only k* = 0 is reachable.
        g = sp.BipartiteGraph(1, 1, frozenset())
        with pytest.raises(InvalidKError):
            oracle.brute_min_augmentation(g, k_star)


class TestWitnessSearch:
    def test_trivial_sizes_have_no_gap(self):
        assert oracle.find_weak_gt_strong_witness(1, 1) is None
        for m in (1, 2, 3):
            assert oracle.find_weak_gt_strong_witness(1, m) is None

    def test_4x4_witness_exists(self):
        g = oracle.find_weak_gt_strong_witness(4, 4)
        assert g is not None
        assert oracle.brute_weak_resilience(g) > oracle.brute_strong_resilience(g)
