"""Structural rank and the exact degree of strong resilience.

The degree of strong resilience of a graph is one less than the largest ell
for which the resilience network admits a saturated flow of value n*ell.
One ascending sweep of the flow engine finds that ell together with a
saturated flow, whose subgraph splits into ell disjoint left-perfect
matchings by Koenig's edge-colouring theorem.  Weak resilience has no known
efficient characterization and is computed here by direct subset
enumeration under a work budget: one solve of g gives a left-perfect
matching M, and a pool keeps M and every matching found since.  A removal
subset that misses a pooled matching passes without a solve; one that hits
them all is checked by repairing M in the reduced graph rather than by
solving it again, and the repaired matching joins the pool.  Only the
subset that decides the answer, the first whose repair fails, gets a
certified solve of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import flow as flow_engine
from .errors import (
    BudgetExceededError,
    NotDecomposableError,
    ShapeError,
    VerificationError,
)
from .pattern import BipartiteGraph, Matching, MatchingPool, is_union_of_k_matchings

DEFAULT_WEAK_BUDGET = 10**6


@dataclass(frozen=True)
class ResilienceReport:
    """Answer to "how resilient is this pattern", with a matching witness."""

    structural_rank: int
    strong_resilience: int
    ell_star: int
    matchings: tuple[Matching, ...]
    witness_subgraph: BipartiteGraph

    def __post_init__(self):
        union = frozenset().union(*(m.edges for m in self.matchings))
        if (
            self.strong_resilience != self.ell_star - 1
            or len(self.matchings) != self.ell_star
            or union != self.witness_subgraph.edges
            or sum(len(m.edges) for m in self.matchings) != len(union)
        ):
            raise VerificationError(
                "resilience report is inconsistent: ell*, resilience, matchings "
                "and witness disagree"
            )


def structural_rank(g: BipartiteGraph) -> int:
    """Maximum matching size, i.e. the structural rank of the pattern."""
    return flow_engine.matching_number(g)


def _sweep(g: BipartiteGraph) -> flow_engine.ResilienceSweep:
    if g.n_right < g.n_left:
        raise ShapeError(
            f"graph has {g.n_left} left but only {g.n_right} right nodes"
        )
    return flow_engine.resilience_sweep(g)


def _strong_resilience_value(g: BipartiteGraph) -> int:
    """The degree of strong resilience alone, without decomposing the witness."""
    return _sweep(g).ell_star - 1


def strong_resilience(g: BipartiteGraph) -> ResilienceReport:
    """Exact degree of strong resilience with a decomposition witness."""
    sweep = _sweep(g)
    matchings = (
        extract_disjoint_matchings(sweep.witness, sweep.ell_star) if sweep.ell_star else []
    )
    return ResilienceReport(
        sweep.rank, sweep.ell_star - 1, sweep.ell_star, tuple(matchings), sweep.witness
    )


def extract_disjoint_matchings(h: BipartiteGraph, ell: int) -> list[Matching]:
    """Split a union of ell disjoint left-perfect matchings into its parts.

    Every left degree is ell and no right degree exceeds ell, so by
    Koenig's line-colouring theorem h has a proper ell-edge-colouring; each
    colour class is then a left-perfect matching.  Edges are coloured in
    sorted order.  An edge (u, v) takes the smallest colour a free at u;
    if a is taken at v, the a/b path from v, with b the smallest colour
    free at v, has its two colours swapped first.  In a bipartite graph
    that path never reaches u.  Each node on the path holds exactly the
    path's a- and b-edges, in slots a and b (an end node holds one of
    them and -1), so the swap is done in one walk, swapping the two slots
    at each node as the walk leaves it.
    """
    if not is_union_of_k_matchings(h, ell):
        raise NotDecomposableError(
            f"graph is not a union of {ell} disjoint left-perfect matchings"
        )
    # at_row[i][c] / at_col[j][c]: the other end of the colour-c edge, or -1.
    at_row = [[-1] * ell for _ in range(h.n_left)]
    at_col = [[-1] * ell for _ in range(h.n_right)]
    for (u, v) in h.sorted_edges:
        a = at_row[u].index(-1)
        if at_col[v][a] >= 0:
            b = at_col[v].index(-1)
            # Walk the a/b path from v, leaving each node along colour c
            # and swapping its two slots; a + b - c is the other colour.
            node, c, here, there = v, a, at_col, at_row
            while node >= 0:
                slots = here[node]
                nxt = slots[c]
                slots[a], slots[b] = slots[b], slots[a]
                node, c, here, there = nxt, a + b - c, there, here
        at_row[u][a] = v
        at_col[v][a] = u
    matchings = []
    for c in range(ell):
        edges = frozenset((i, at_row[i][c]) for i in range(h.n_left))
        if len({j for (_, j) in edges}) != h.n_left or not edges <= h.edges:
            raise VerificationError(f"colour class {c} is not a left-perfect matching of h")
        matchings.append(Matching(edges))
    return matchings


def weak_resilience(g: BipartiteGraph, budget: int = DEFAULT_WEAK_BUDGET) -> int:
    """Exact weak resilience by enumerating removal subsets.

    Largest k such that removing ANY k edges leaves a left-perfect matching;
    -1 if the graph has none to begin with.  Subsets S are tested in
    increasing size, edges in sorted order, one budget unit each; once
    ``budget`` tests are spent, BudgetExceededError carries the certified
    lower bound.  g is solved once, for a left-perfect matching M, which
    starts a pool of the matchings found so far.  An S that misses any
    pooled matching passes at once; otherwise M less S is repaired in
    g - S, and the repaired matching, checked against g and S, joins the
    pool as the witness that S passes.  The first S whose repair fails
    decides the answer, and is confirmed by one certified
    ``structural_rank`` of g - S.
    """
    n = g.n_left
    h = flow_engine._BMatching(g)
    short = h.fill(1)
    h.verify_min_cut(1, short=bool(short))
    if short:
        return -1
    match = [next(iter(held)) for held in h.row_cols]
    pool = MatchingPool()
    pool.add(enumerate(match))
    edges = g.sorted_edges
    remaining = budget
    verified = 0
    for size in range(1, len(edges) + 1):
        for removed in combinations(edges, size):
            if remaining <= 0:
                raise BudgetExceededError(
                    f"weak resilience budget exhausted; >= {verified} certified",
                    lower_bound=verified,
                )
            remaining -= 1
            if pool.spares(removed):
                continue
            if h.repair(match, removed):
                pool.add(_repaired_matching(g, h.row_cols, removed))
                continue
            reduced = BipartiteGraph(n, g.n_right, g.edges - set(removed))
            if structural_rank(reduced) == n:
                raise VerificationError(
                    f"repair failed after removing {removed}, yet a left-perfect "
                    "matching remains"
                )
            return size - 1
        verified = size
    # Unreachable for nonempty graphs: removing all edges kills the matching.
    return len(edges) - 1


def _repaired_matching(
    g: BipartiteGraph, row_cols: list[set[int]], removed
) -> list[tuple[int, int]]:
    """The pairs of a repaired H, checked to be a left-perfect matching of g - removed.

    A wrong matching in the pool would pass every later subset that misses
    it, so each one is checked before it joins: one column per row, n
    distinct columns, every pair an edge of g, and none removed.
    """
    pairs = [(i, j) for i, held in enumerate(row_cols) for j in held]
    rows, cols = {i for (i, _) in pairs}, {j for (_, j) in pairs}
    if (
        not len(pairs) == len(rows) == len(cols) == g.n_left
        or not g.edges.issuperset(pairs)
        or not set(removed).isdisjoint(pairs)
    ):
        raise VerificationError(
            f"repair after removing {removed} left no left-perfect matching of the "
            "reduced graph"
        )
    return pairs
