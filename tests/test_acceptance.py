"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import io
import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import sprank as sp
from sprank import flow as flow_engine
from sprank import oracle
from sprank.cli import run as cli_run

from conftest import (
    FIG2_ROWS,
    FIG3_STARS,
    FIG7_STARS,
    random_graph,
    random_union_of_matchings,
    weak_gap_graph,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc}")


def fig3_graph():
    return sp.to_bipartite(sp.pattern_from_stars(4, 5, FIG3_STARS))


def fig7_graph():
    return sp.to_bipartite(sp.pattern_from_stars(2, 3, FIG7_STARS))


def fig2_graph():
    stars = [(r + 1, c) for r, cols in enumerate(FIG2_ROWS) for c in cols]
    return sp.to_bipartite(sp.pattern_from_stars(4, 6, stars))


def all_graphs(n, m):
    cells = [(i, j) for i in range(n) for j in range(m)]
    for count in range(len(cells) + 1):
        for chosen in itertools.combinations(cells, count):
            yield sp.BipartiteGraph(n, m, frozenset(chosen))


def test_criterion_1_fig3_resilience():
    with criterion(1, "G(4,5) rank 4, strongly 1-resilient, witness valid, < 10 ms"):
        g = fig3_graph()
        sp.strong_resilience(g)  # warm-up
        start = time.perf_counter()
        rank = sp.structural_rank(g)
        report = sp.strong_resilience(g)
        elapsed = time.perf_counter() - start
        assert rank == 4
        assert report.strong_resilience == 1 and report.ell_star == 2
        assert len(report.matchings) == 2
        seen = set()
        for m in report.matchings:
            assert m.is_left_perfect(4)
            assert m.edges <= g.edges
            assert not (m.edges & seen)
            seen |= m.edges
        assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"


def test_criterion_2_fig7_augmentation():
    with criterion(2, "G(2,3) target-2 plan adds exactly the two complement edges"):
        g = fig7_graph()
        assert sp.strong_resilience(g).strong_resilience == 1
        comp = sp.complement(g)
        assert sp.structural_rank(comp) == 1 < 2
        plan = sp.min_edges_for_target(g, 2)
        assert plan.delta_star == 2
        assert set(plan.added_edges) == comp.edges == {(0, 2), (1, 2)}
        assert plan.result_graph.edges == sp.complete_graph(2, 3).edges
        assert sp.strong_resilience(plan.result_graph).strong_resilience == 2


def test_criterion_3_fig2_attack_narrative():
    with criterion(3, "G(4,6) degree check, column attack, final rank loss"):
        g = fig2_graph()
        assert sp.is_union_of_k_matchings(g, 3)
        assert sp.strong_resilience(g).strong_resilience == 2
        assert oracle.brute_strong_resilience(g) == 2
        # Disable columns 1 and 6 (all incident edges): still full rank.
        surviving = frozenset((i, j) for (i, j) in g.edges if j not in (0, 5))
        attacked = sp.BipartiteGraph(4, 6, surviving)
        assert sp.structural_rank(attacked) == 4
        # Severing row 3 / column 3 on top of that: the all-ones network
        # matrix itself (not the pattern) loses rank, as in the attack story.
        matrix = np.zeros((4, 6))
        for (i, j) in surviving - {(2, 2)}:
            matrix[i, j] = 1.0
        assert np.linalg.matrix_rank(matrix) < 4


def test_criterion_4_corollary_1_bounds():
    with criterion(4, "complete graphs reach m-1; k-resilient graphs need (k+1)n edges"):
        pairs = [(n, m) for n in range(1, 4) for m in range(n, 5)]
        for (n, m) in pairs:
            assert sp.strong_resilience(sp.complete_graph(n, m)).strong_resilience == m - 1
        for (n, m) in pairs:
            for g in all_graphs(n, m):
                if len(g.edges) > 9:
                    continue
                k = sp.strong_resilience(g).strong_resilience
                if k >= 0:
                    assert len(g.edges) >= (k + 1) * n


def test_criterion_5_theorem_1_round_trip():
    with criterion(5, "200 random unions decompose back into k matchings, < 5 s"):
        rng = random.Random(20240817)
        start = time.perf_counter()
        for _ in range(200):
            n = rng.randint(1, 5)
            m = rng.randint(n, 6)
            k = rng.randint(1, min(3, m))
            g = random_union_of_matchings(rng, n, m, k)
            assert sp.is_union_of_k_matchings(g, k)
            matchings = sp.extract_disjoint_matchings(g, k)
            assert len(matchings) == k
            union = set()
            for matching in matchings:
                assert matching.is_left_perfect(n)
                assert not (matching.edges & union)
                union |= matching.edges
            assert union == g.edges
        assert time.perf_counter() - start < 5.0


def test_criterion_6_propositions_1_2():
    with criterion(6, "100 complement flows have value n and lift k to k+1"):
        rng = random.Random(424242)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = rng.randint(max(n, 2), 5)
            k = rng.randint(1, min(3, m - 1))
            g = random_union_of_matchings(rng, n, m, k)
            net = sp.build_augmentation_network(g, k)
            assert sp.max_flow(net).value == n
            result, added = sp.increment_matchings(g, k)
            assert len(added) == n
            assert not (set(added) & g.edges)
            assert sp.is_union_of_k_matchings(result, k + 1)


def _agreement_instances():
    for n in range(1, 4):
        for m in range(n, 4):
            yield from all_graphs(n, m)
    rng = random.Random(777)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(n, 5)
        yield random_graph(rng, n, m)


def test_criterion_7_and_8_oracle_equivalence_and_gap():
    budget = oracle.OracleBudget(max_subsets=500_000)
    start = time.perf_counter()
    with criterion(7, "flow results match the brute-force oracle, < 60 s"):
        for g in _agreement_instances():
            strong_flow = sp.strong_resilience(g).strong_resilience
            assert strong_flow == oracle.brute_strong_resilience(g, budget)
            weak_flow = sp.weak_resilience(g, budget=budget.max_subsets)
            assert weak_flow == oracle.brute_weak_resilience(g, budget)
            assert weak_flow >= strong_flow  # sandwich, re-used by criterion 8
            for k in range(g.n_right):
                assert sp.delta_star(g, k) == oracle.brute_min_augmentation(g, k, budget)
        assert time.perf_counter() - start < 60.0
    with criterion(8, "a 4x4 graph separates weak from strong resilience"):
        witness = oracle.find_weak_gt_strong_witness(4, 4, budget)
        assert witness is not None
        assert oracle.brute_weak_resilience(witness, budget) == 1
        assert oracle.brute_strong_resilience(witness, budget) == 0
        assert sp.weak_resilience(witness) == 1
        assert sp.strong_resilience(witness).strong_resilience == 0


def test_criterion_9_min_cut_hook(monkeypatch):
    with criterion(9, "max-flow = min-cut checked on every solver call"):
        checked = []

        def spy(name, check):
            def wrapper(*args, **kwargs):
                checked.append(name)
                return check(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            flow_engine, "_verify_min_cut", spy("network", flow_engine._verify_min_cut)
        )
        monkeypatch.setattr(
            flow_engine._BMatching,
            "verify_min_cut",
            spy("sweep", flow_engine._BMatching.verify_min_cut),
        )
        # The fair b-matching's dual certificate proves the cut {s} tight.
        monkeypatch.setattr(
            flow_engine._BMatching, "certify", spy("dual", flow_engine._BMatching.certify)
        )
        g = fig3_graph()
        net = sp.build_resilience_network(g, 2)
        union = random_union_of_matchings(random.Random(9), 4, 5, 2)
        # Weak resilience checks the min cut of the sweep's failed level.
        # On Fig 3 the bounds meet (ell* = d_min = 2) and settle it; where
        # they miss, the one subset whose repair fails has the min cut of
        # its fill checked too.  A lift is one certified solve, whatever ell is.
        for solve, kinds in [
            (sp.structural_rank, ["sweep"]),
            (sp.strong_resilience, ["sweep"]),
            (lambda _: sp.max_flow(net), ["network"]),
            (lambda g: sp.fair_b_matching(g, 2), ["dual"]),
            (lambda _: sp.increment_matchings(union, 2), ["dual"]),
            (lambda _: sp.boost_by(union, 2, 3), ["dual"]),
            (sp.weak_resilience, ["sweep"]),
            (lambda _: sp.weak_resilience(weak_gap_graph()), ["sweep", "sweep"]),
        ]:
            checked.clear()
            solve(g)
            assert checked == kinds


CLI_COMMANDS = [
    ["rank", "{fig3}"],
    ["resilience", "{fig3}"],
    ["resilience", "{fig3}", "--weak"],
    ["resilience", "{fig3}", "--json"],
    ["decompose", "{fig3}", "--json"],
    ["augment", "{fig7}", "--target", "2"],
    ["augment", "{fig7}", "--budget", "2", "--json"],
    ["verify", "{fig7}"],
]


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every CLI command is byte-identical across runs"):
        fig3 = tmp_path / "fig3.spm"
        fig3.write_text("4 5\n* * 0 0 0\n* * 0 * 0\n0 * * * 0\n0 0 0 * *\n")
        fig7 = tmp_path / "fig7.spm"
        fig7.write_text("2 3\n* * 0\n* * 0\n")
        for template in CLI_COMMANDS:
            argv = [a.format(fig3=fig3, fig7=fig7) for a in template]
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                code = cli_run(argv, out=buf)
                outputs.append((code, buf.getvalue().encode()))
            assert outputs[0] == outputs[1], f"nondeterministic: {argv}"
        # File outputs as well.
        for name in ("one", "two"):
            cli_run(["decompose", str(fig3), "--dot", str(tmp_path / f"{name}.dot")],
                    out=io.StringIO())
            cli_run(["augment", str(fig7), "--target", "2",
                     "--out", str(tmp_path / f"{name}.spm")], out=io.StringIO())
        assert (tmp_path / "one.dot").read_bytes() == (tmp_path / "two.dot").read_bytes()
        assert (tmp_path / "one.spm").read_bytes() == (tmp_path / "two.spm").read_bytes()
