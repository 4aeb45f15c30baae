import math
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

import sprank as sp
from sprank import oracle
from sprank.errors import BudgetExceededError, InvalidKError

import reference_oracle
import reference_rank
import reference_weak
from conftest import (
    differential,
    planted_hub,
    pruning_proof_block,
    random_graph,
    small_graphs,
    upper_triangle,
)


def _row_loop_rank_mod_p(matrix, p):
    """Rank over GF(p) by the textbook row loop on Python ints."""
    a = [[int(x) % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for r in range(len(a)):
            if r != rank:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def _packed_rank(matrix):
    """``oracle._rank_mod_p`` on the rows of a dense matrix, as residues."""
    p = oracle._PRIME
    rows = [[(j, x % p) for j, x in enumerate(row) if x % p] for row in matrix.tolist()]
    return oracle._rank_mod_p(rows)


class TestBruteRank:
    def test_fig3(self, fig3_graph):
        assert oracle.brute_rank(fig3_graph) == 4

    def test_identity_pattern(self):
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
        assert oracle.brute_rank(g) == 3

    def test_single_row_of_stars(self):
        g = sp.BipartiteGraph(3, 3, frozenset({(0, 0), (0, 1), (0, 2)}))
        assert oracle.brute_rank(g) == 1

    def test_residues_are_the_randrange_draws(self, monkeypatch):
        # brute_rank draws 31 bits at a time itself; the residues it hands
        # the elimination must be the ones randrange(1, p) draws, in
        # g.edges order, so the seed keeps its realization.
        p = oracle._PRIME
        rank_mod_p, seen = oracle._rank_mod_p, []

        def captured(rows):
            seen.append([list(row) for row in rows])
            return rank_mod_p(rows)

        def expected(g, rng):
            rows = [[] for _ in range(g.n_left)]
            for (i, j) in g.edges:
                rows[i].append((j, rng.randrange(1, p)))
            return rows

        class Scripted(random.Random):
            # Opens with the two 31-bit values that randrange(1, p) rejects.
            def seed(self, *args, **kwargs):
                self.script = [p - 1, p]
                super().seed(*args, **kwargs)

            def getrandbits(self, k):
                return self.script.pop(0) if self.script else super().getrandbits(k)

        monkeypatch.setattr(oracle, "_rank_mod_p", captured)
        shapes = random.Random(41)
        for s in range(12):
            g = random_graph(shapes, shapes.randint(1, 8), shapes.randint(1, 9))
            for make in (random.Random, Scripted):
                oracle.brute_rank(g, make(s))
                assert seen.pop() == expected(g, make(s)), (s, make)
            oracle.brute_rank(g)
            assert seen.pop() == expected(g, random.Random(20240817)), s

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
    def test_search_stops_at_perfect_matching(self, g, rank):
        # Full rank on a dense and on a diagonal pattern, one elimination each.
        start = time.perf_counter()
        assert oracle.brute_rank(g) == rank
        assert time.perf_counter() - start < 1.0

    def test_planted_deficiency_990(self):
        # Three rows on two columns plant the deficiency below 978
        # diagonal rows and K(9,9); one elimination finds it, with no budget.
        g = pruning_proof_block(990)
        start = time.perf_counter()
        assert oracle.brute_rank(g) == 989 == sp.structural_rank(g)
        assert time.perf_counter() - start < 1.0

    def test_rank_mod_p_matches_row_loop(self):
        # Small entries give singular minors; full residues push every
        # slot towards the fold's bound; a row planted as c * (row 0) mod p
        # is dependent only over GF(p).
        p = oracle._PRIME
        rng = np.random.default_rng(101)
        for t in range(2000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 9))
            mask = rng.random((n, m)) < rng.random()
            values = rng.integers(1, p, (n, m)) if t % 2 else rng.integers(-2, 3, (n, m))
            a = mask * values
            if t % 3 == 0 and n > 1:
                a[-1] = int(rng.integers(1, p)) * a[0] % p
            assert _packed_rank(a) == _row_loop_rank_mod_p(a.tolist(), p) == reference_rank.rank_mod_p(a)

    def test_rank_mod_p_matches_row_loop_tall_and_wide(self):
        # Tall, wide and square shapes up to 12 x 14: rows meet in many
        # buckets, and a row can skip several columns at once.  Planted
        # rows c * (row 0) + d * (row 1) mod p are dependent only over
        # GF(p), so their slots fold to p or 2p, which must read as zero.
        p = oracle._PRIME
        rng = np.random.default_rng(211)
        for t in range(600):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(1, 15))
            mask = rng.random((n, m)) < rng.random()
            values = rng.integers(1, p, (n, m)) if t % 2 else rng.integers(-2, 3, (n, m))
            a = mask * values
            if t % 3 == 0 and n > 2:
                c, d = (int(x) for x in rng.integers(1, p, 2))
                a[-1] = (c * a[0] % p + d * a[1] % p) % p
            assert _packed_rank(a) == _row_loop_rank_mod_p(a.tolist(), p) == reference_rank.rank_mod_p(a)

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 7), (12, 9), (40, 40)])
    def test_rank_mod_p_near_2_62(self, n, m):
        # Every entry p - 1: each update adds (p - f) times a pivot slot
        # near 2**31 to a slot that can be near 2**32, close to the
        # 2**62 + 2**33 the fold's bound allows.
        p = oracle._PRIME
        block = np.full((n, m), p - 1, dtype=np.int64)
        assert _packed_rank(block) == 1
        # p - 2 on the diagonal: -(J + I) mod p, of full rank.
        np.fill_diagonal(block, p - 2)
        assert _packed_rank(block) == _row_loop_rank_mod_p(block.tolist(), p) == min(n, m)
        assert reference_rank.rank_mod_p(block) == min(n, m)

    def test_long_update_chain_on_one_row(self):
        # The same -(J + I) block at 200 x 200: the last row takes 199
        # updates in a row, each folded once, so a slot that crept past the
        # bound would carry into its neighbour and change the rank.
        p, n = oracle._PRIME, 200
        block = np.full((n, n), p - 1, dtype=np.int64)
        np.fill_diagonal(block, p - 2)
        assert _packed_rank(block) == reference_rank.rank_mod_p(block) == n
        block[-1] = (3 * block[0] + 5 * block[1]) % p
        assert _packed_rank(block) == reference_rank.rank_mod_p(block) == n - 1

    def test_wide_row_packs_in_one_pass(self):
        # A 1 x 10**6 row with 1,000 stars: packing by one |= per star
        # copies the whole 8 MB int per star.
        rng = random.Random(1)
        row = [(j, rng.randrange(1, oracle._PRIME)) for j in sorted(rng.sample(range(10**6), 1000))]
        start = time.perf_counter()
        assert oracle._rank_mod_p([row]) == 1
        assert time.perf_counter() - start < 1.0

    def test_wide_row_packs_within_two_copies(self):
        # The same 1 x 10**6 row: the 8 MB packed int and, while it is
        # built, one byte string of it; a third 8 MB copy is too many.
        rng = random.Random(1)
        row = [(j, rng.randrange(1, oracle._PRIME)) for j in sorted(rng.sample(range(10**6), 1000))]
        tracemalloc.start()
        try:
            lead, packed = oracle._pack(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * sys.getsizeof(packed)
        slots = memoryview(packed.to_bytes(8 * (row[-1][0] - lead + 1), sys.byteorder)).cast("Q")
        assert [(lead + k, v) for k, v in enumerate(slots) if v] == row

    def test_deficient_all_star_300(self):
        # Rows 1-2 hold only column 1 and the other 298 every other column:
        # rank 299, with all 298 dense rows in one bucket at every pivot.
        n = 300
        edges = {(0, 0), (1, 0)} | {(i, j) for i in range(2, n) for j in range(1, n)}
        g = sp.BipartiteGraph(n, n, frozenset(edges))
        start = time.perf_counter()
        rank = oracle.brute_rank(g)
        assert time.perf_counter() - start < 1.0
        assert rank == n - 1 == sp.structural_rank(g)

    def test_random_sparse_300(self):
        rng = random.Random(300)
        n = 300
        g = sp.BipartiteGraph(
            n, n, frozenset((i, rng.randrange(n)) for i in range(n) for _ in range(5))
        )
        assert oracle.brute_rank(g) == sp.structural_rank(g)

    def test_no_stars(self):
        assert oracle.brute_rank(sp.BipartiteGraph(3, 4, frozenset())) == 0

    def test_realizations_match_per_star_draws(self, fig3_graph, monkeypatch):
        # One realization: a residue rng.randrange(1, p) at each star and
        # nowhere else, drawn in g.edges order.
        seen = []
        monkeypatch.setattr(oracle, "_rank_mod_p", lambda rows: seen.append(rows) or 4)
        assert oracle.brute_rank(fig3_graph, rng=random.Random(7)) == 4
        assert len(seen) == 1
        rows, edges = seen[0], list(fig3_graph.edges)
        draws = random.Random(7)
        expected = [[] for _ in range(fig3_graph.n_left)]
        for (i, j) in edges:
            expected[i].append((j, draws.randrange(1, oracle._PRIME)))
        assert rows == expected


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

    def test_precheck_budget_certifies_nothing(self):
        # g itself runs out of nodes before it passes, so no bound above
        # -1 is certified; -1 is in fact the answer.
        g = pruning_proof_block(12)
        with pytest.raises(BudgetExceededError) as info:
            oracle.brute_weak_resilience(g)
        assert info.value.lower_bound == -1 == sp.weak_resilience(g)

    def test_subset_search_is_node_capped(self):
        # Without (0, 0) the triangle has no left-perfect matching, but
        # only an exponential tree of dead ends shows it.
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            oracle.brute_weak_resilience(upper_triangle(24))
        assert time.perf_counter() - start < 2.0
        assert info.value.lower_bound == 0


    @differential
    @given(small_graphs())
    def test_pool_matches_reference(self, g):
        # The pooled oracle, the library and the pool-free reference answer
        # or run out at the same budgets, with the same lower bound.  B0
        # tests every subset up to the answer w, plus the first of size w + 1.
        w = reference_weak.brute_weak_resilience(g)
        b0 = sum(math.comb(len(g.edges), s) for s in range(w + 1))
        for budget in sorted({1, len(g.edges), b0, b0 + 1} - {0}):
            capped = oracle.OracleBudget(max_subsets=budget)
            outcomes = []
            for solve in (
                lambda: oracle.brute_weak_resilience(g, capped),
                lambda: sp.weak_resilience(g, budget),
                lambda: reference_weak.brute_weak_resilience(g, capped),
            ):
                try:
                    outcomes.append(("value", solve()))
                except BudgetExceededError as exc:
                    outcomes.append(("lower_bound", exc.lower_bound))
            assert outcomes[0] == outcomes[1] == outcomes[2], (budget, outcomes)


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

    def test_masks_grow_with_edges_not_cells(self):
        # A 1000 x 1000 diagonal with eight 2 x 2 blocks: 256 matchings of
        # 1,016 edges.  Masks over the 10**6 cells would hold 256 x 125 KB.
        n = 1000
        edges = {(i, i) for i in range(n - 16)}
        edges |= {(r + a, r + b) for r in range(n - 16, n, 2) for a in (0, 1) for b in (0, 1)}
        g = sp.BipartiteGraph(n, n, frozenset(edges))
        tracemalloc.start()
        try:
            assert oracle.brute_strong_resilience(g) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_matching_enumeration_is_node_capped(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            oracle.brute_strong_resilience(upper_triangle(24))
        assert time.perf_counter() - start < 2.0

    def test_enumeration_cap_counts_every_matching(self):
        # K(2,2): the root, then each row's choice on both branches; the
        # two matchings are the last nodes of their branches.
        g = sp.complete_graph(2, 2)
        assert len(oracle.enumerate_left_perfect_matchings(g, cap=5)) == 2
        with pytest.raises(BudgetExceededError):
            oracle.enumerate_left_perfect_matchings(g, cap=4)

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

    def test_default_cap_stops_family_search(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            oracle.has_disjoint_matchings(upper_triangle(24), 1)
        assert time.perf_counter() - start < 2.0

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


def _frozen_reference_graphs():
    """Seeded random graphs up to 6 x 8, the complete 6 x 6 and planted hubs."""
    rng = random.Random(2107)
    graphs = []
    for _ in range(40):
        n = rng.randint(1, 6)
        graphs.append(random_graph(rng, n, rng.randint(n, 8), rng.uniform(0.3, 0.8)))
    graphs.append(sp.complete_graph(6, 6))
    graphs += [planted_hub(random.Random(seed), 6, 8, ell) for seed, ell in ((1, 1), (2, 2), (3, 2))]
    return graphs


def _outcome(solve, g, budget):
    try:
        return ("value", solve(g, budget))
    except BudgetExceededError as exc:
        return ("budget", str(exc), exc.lower_bound)


class TestFrozenReference:
    # The bitmask oracle against its frozenset form, kept verbatim in
    # reference_oracle: the same value, or the same budget error with the
    # same lower bound, at budgets that run out at every stage.
    GRAPHS = _frozen_reference_graphs()

    def test_strong_matches_reference(self):
        seen = set()
        for g in self.GRAPHS:
            for cap in (1, 2, 5, 20, 100, 1000, 10**4, 10**5):
                budget = oracle.OracleBudget(max_matchings=cap)
                got = _outcome(oracle.brute_strong_resilience, g, budget)
                assert got == _outcome(reference_oracle.brute_strong_resilience, g, budget), (g, cap)
                seen.add(got[0] if got[0] == "value" else got[1].split()[0])
        # Values, and budget errors from both the enumeration and the family search.
        assert seen == {"value", "matching", "disjoint-family"}

    def test_weak_matches_reference(self):
        seen = set()
        for g in self.GRAPHS:
            for subsets, nodes in [(s, 10**5) for s in (1, 2, 7, 50, 400, 3000)] + [
                (3000, t) for t in (1, 2, 5, 20, 100)
            ]:
                budget = oracle.OracleBudget(max_subsets=subsets, max_matchings=nodes)
                got = _outcome(oracle.brute_weak_resilience, g, budget)
                assert got == _outcome(reference_oracle.brute_weak_resilience, g, budget), (g, budget)
                seen.add(got[0] if got[0] == "value" else got[1].split()[0])
        # Values, and budget errors from both the subsets and a matching search.
        assert seen == {"value", "subset", "matching"}


class _Meter:
    """A node cap that never runs out and logs each node count checked against it."""

    def __init__(self, log: list):
        self.log = log

    def __lt__(self, nodes):  # nodes > cap, or cap < nodes; any other test is a TypeError
        self.log.append(nodes)
        return False


def _drained(search) -> tuple[int, tuple[str, object] | None]:
    """How many matchings a search yields before it ends, and its budget error, if any."""
    count = 0
    try:
        for _ in search:
            count += 1
    except BudgetExceededError as exc:
        return count, (str(exc), exc.lower_bound)
    return count, None


class TestMatchingKernel:
    # The mask kernel in lockstep with the column-tuple search it replaced,
    # kept verbatim in reference_oracle: a metered cap logs every node each
    # search charges between the matchings it yields, and the two logs must
    # be equal.  Then at every cap up to the node total both searches must
    # yield as many matchings and raise the same budget error.
    GRAPHS = _frozen_reference_graphs()

    @staticmethod
    def _searches(g, banned_edges=frozenset()):
        """The kernel on g banning ``banned_edges``, and the reference on g less them.

        Each is a function of the cap, yielding what its search yields.
        """
        banned = {k for k, e in enumerate(g.sorted_edges) if e in banned_edges}
        adj = reference_oracle._adjacency(
            sp.BipartiteGraph(g.n_left, g.n_right, g.edges - banned_edges)
        )
        return (
            lambda cap: oracle._matchings(g, cap, banned),
            lambda cap: reference_oracle._left_perfect_matchings(adj, cap),
        )

    @staticmethod
    def _log(g, kernel, reference) -> tuple[list, list]:
        """Each search's log: its node charges and, as sets of edges, its matchings."""
        edges = g.sorted_edges
        logs: tuple[list, list] = ([], [])
        for mask in kernel(_Meter(logs[0])):
            logs[0].append({e for k, e in enumerate(edges) if mask >> k & 1})
        for cols in reference(_Meter(logs[1])):
            logs[1].append(set(enumerate(cols)))
        return logs

    def test_same_matchings_and_node_charges(self):
        totals = set()
        for g in self.GRAPHS:
            kernel, reference = self._searches(g)
            got, log = self._log(g, kernel, reference)
            assert got == log, g
            total = max((x for x in log if isinstance(x, int)), default=1)
            for cap in range(1, total + 1):
                outcome = _drained(reference(cap))
                assert _drained(kernel(cap)) == outcome, (g, cap)
                assert outcome[1] == (
                    None if cap == total else (f"matching search exceeded {cap} nodes", None)
                )
            matchings = [x for x in log if isinstance(x, set)]
            assert matchings == [set(m) for m in oracle.enumerate_left_perfect_matchings(g)]
            totals.add((len(matchings), total))
        # K(6,6): 6! matchings, and 1 + 6 + 30 + 120 + 360 + 720 + 720 nodes.
        assert (720, 1957) in totals
        assert any(count == 0 and total > 1 for count, total in totals)

    def test_search_set_up_builds_no_table_per_edge(self):
        # K(200, 200): 40,000 edges.  A cap of 201 nodes ends the search
        # right after its first matching, so the peak is the set-up: g's
        # row layout, a flag per column and the masks of one descent.
        # Measured at 0.4 MB (Python 3.11); a table of one column bit and
        # one edge bit per edge took 107 MB.
        g = sp.complete_graph(200, 200)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                oracle.brute_strong_resilience(g, oracle.OracleBudget(max_matchings=201))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024

    def test_banned_edges_as_if_removed(self):
        rng = random.Random(3011)
        for g in self.GRAPHS:
            edges = g.sorted_edges
            for size in (1, 2, 3, len(edges) // 2, len(edges)):
                banned = frozenset(rng.sample(edges, min(size, len(edges))))
                got, log = self._log(g, *self._searches(g, banned))
                assert got == log, (g, banned)


class TestBruteMinAugmentation:
    def test_fig7(self, fig7_graph):
        assert oracle.brute_min_augmentation(fig7_graph, 2) == 2

    def test_already_resilient(self, fig3_graph):
        assert oracle.brute_min_augmentation(fig3_graph, 1) == 0

    def test_empty_2x2(self):
        g = sp.BipartiteGraph(2, 2, frozenset())
        assert oracle.brute_min_augmentation(g, 1) == 4

    def test_budget_error_bounds_delta_star(self):
        # The hub graph of the family-search test: k* = 4 asks for five
        # disjoint matchings, and the search on the graph itself (d = 0)
        # runs out of budget, so only delta* >= 0 is certified.
        hub = sp.BipartiteGraph(
            6, 15, frozenset((i, j) for i in range(6) for j in (0, 1, 2, 3 + 2 * i, 4 + 2 * i))
        )
        with pytest.raises(BudgetExceededError) as info:
            oracle.brute_min_augmentation(hub, 4)
        assert info.value.lower_bound == 0
        assert "delta* >= 0" in str(info.value)

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
