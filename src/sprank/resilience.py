"""Structural rank and the exact degree of strong resilience.

The degree of strong resilience of a graph is one less than the largest ell
for which the resilience network admits a saturated flow of value n*ell.
One ascending sweep of the flow engine, run once per request, finds that ell
and a saturated flow, checked by the sweep to be ell disjoint left-perfect
matchings of g, which Koenig's edge-colouring theorem splits apart; the
colouring checks its classes, and nothing checks them again.  Weak
resilience has no known efficient algorithm.  Removal subsets are charged to
a work budget by size, then in lexicographic order of the sorted edges.  The
answer is ell* - 1 once the budget left past the sizes below ell* exceeds
the least rank of the certified failing subsets of size ell*; otherwise
subsets are enumerated from ell*.  A pool keeps the witness's ell* matchings
and every matching found since.  Only a subset S that hits every pooled
matching is checked, by repairing a matching in g - S with one level-1 fill
on the weak engine, which checks it; the repaired matching joins the pool,
and the first failed repair decides, proven by that engine's min cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, pairwise
from math import comb

from . import flow as flow_engine
from .errors import BudgetExceededError, NotDecomposableError, VerificationError
from .pattern import BipartiteGraph, Matching, MatchingPool, _checked
from .pattern import is_union_of_k_matchings

DEFAULT_WEAK_BUDGET = 10**6


@dataclass(frozen=True)
class ResilienceReport:
    """Rank, strong resilience and the witness's matchings, checked once by their colouring."""

    structural_rank: int
    strong_resilience: int
    ell_star: int
    matchings: tuple[Matching, ...]
    witness_subgraph: BipartiteGraph


def structural_rank(g: BipartiteGraph) -> int:
    """Maximum matching size, i.e. the structural rank of the pattern."""
    return flow_engine.matching_number(g)


def strong_resilience(g: BipartiteGraph) -> ResilienceReport:
    """Exact degree of strong resilience with a decomposition witness."""
    sweep = flow_engine.resilience_sweep(g)
    ell = sweep.ell_star
    matchings = tuple(_colour_matchings(sweep.witness, ell))
    return ResilienceReport(sweep.rank, ell - 1, ell, matchings, sweep.witness)


def extract_disjoint_matchings(h: BipartiteGraph, ell: int) -> list[Matching]:
    """Split a union of ell disjoint left-perfect matchings into its parts.

    Every left degree is ell and no right degree exceeds ell, so by
    Koenig's line-colouring theorem h has a proper ell-edge-colouring; each
    colour class is then a left-perfect matching.  Edges are coloured in
    sorted order.  An edge (u, v) takes the smallest colour a free at u;
    if a is taken at v, the a/b path from v, with b the smallest colour
    free at v, has its two colours swapped first.  In a bipartite graph
    that path never reaches u.  Each node on the path holds exactly the
    path's a- and b-edges, in slots a and b (an end node holds only one),
    so the swap is done in one walk, swapping the two slots at each node
    as the walk leaves it.
    """
    if not is_union_of_k_matchings(h, ell):
        raise NotDecomposableError(
            f"graph is not a union of {ell} disjoint left-perfect matchings"
        )
    return _colour_matchings(h, ell)


def _colour_matchings(h: BipartiteGraph, ell: int) -> list[Matching]:
    """The colouring of ``extract_disjoint_matchings``, for h of n * ell edges.

    The decomposition's one check: each class holds one column per row, n
    distinct columns and only pairs of h, and each row's ell slots hold
    distinct columns, so the classes partition h.
    """
    # at_row[i][c] is the column of row i's colour-c edge, -1 if none, and
    # at_col[j].get(c, -1) its row.  A column keys only the colours it has
    # held, so all columns together keep at most 2|h| slots, not m * ell.
    at_row = [[-1] * ell for _ in range(h.n_left)]
    at_col = [{} for _ in range(h.n_right)]
    for (u, v) in h.sorted_edges:
        a = at_row[u].index(-1)
        col = at_col[v]
        if col.get(a, -1) >= 0:
            b = 0
            while col.get(b, -1) >= 0:
                b += 1
            # Walk the a/b path from v, swapping the two slots of each node
            # as it leaves: columns along a, rows along b.
            j = v
            while j >= 0:
                col = at_col[j]
                i = col.get(a, -1)
                col[a], col[b] = col.get(b, -1), i
                if i < 0:
                    break
                row = at_row[i]
                j, row[a], row[b] = row[b], row[b], row[a]
        at_row[u][a] = v
        at_col[v][a] = u
    matchings = []
    for c in range(ell):
        edges = frozenset((i, at_row[i][c]) for i in range(h.n_left))
        if len({j for (_, j) in edges}) != h.n_left or not edges <= h.edges:
            raise VerificationError(f"colour class {c} is not a left-perfect matching of h")
        matchings.append(_checked(Matching, edges=edges))
    if any(len(set(cols)) != ell for cols in at_row):
        raise VerificationError("the colour classes of h share an edge")
    return matchings


def weak_resilience(g: BipartiteGraph, budget: int = DEFAULT_WEAK_BUDGET) -> int:
    """Exact weak resilience: certified bounds first, then removal subsets.

    Largest k such that removing ANY k edges leaves a left-perfect matching;
    -1 if the graph has none to begin with, ShapeError if it has fewer
    columns than rows.  No efficient algorithm is known for it, but two
    bounds settle most graphs.  Strong <= weak: the ell* disjoint matchings
    of the checked witness keep one whole under any ell* - 1 removals.
    Weak <= d_min - 1: removing the d_min edges of a row of least degree
    leaves that row unmatched.

    The budget counts subsets S in increasing size, edges in sorted order,
    one unit each, whether S is tested or proven in bulk: every size below
    ell* passes, so it is charged in full without enumerating it.  Once
    ``budget`` units are spent, BudgetExceededError carries the certified
    lower bound, the largest size whose subsets all passed, exactly where
    a test of every subset would have run out.  A budget left above the
    least lexicographic rank of the certified failing subsets of size ell*
    (the first row of degree ell*, if any) answers ell* - 1, as that test
    would.  Otherwise subsets are enumerated from size ell*.  A pool starts
    with the witness's ell* matchings, and an S that misses one passes at
    once; otherwise a matching of g less S is repaired in g - S by one
    level-1 fill and, checked there against g and S, joins the pool as the
    witness that S passes.  The first S whose repair fails decides the
    answer, proven there by that fill's min cut in g - S.
    """
    return _weak_resilience(g, flow_engine.resilience_sweep(g), budget)


def _weak_resilience(g: BipartiteGraph, sweep: flow_engine.ResilienceSweep, budget: int) -> int:
    """Weak resilience of g from ``sweep``, g's checked sweep."""
    ell = sweep.ell_star
    if not ell:
        return -1
    e = len(g.edges)
    remaining = budget
    for size in range(1, ell):
        remaining -= comb(e, size)
        if remaining < 0:
            raise _exhausted(size - 1)
    # The certified failing subsets of size ell, as indices into g's sorted
    # edges: the rows of degree ell, each the run of edges from its offset
    # in g's row layout.  They exist only where ell = d_min, and the first
    # ranks least, so only it is ranked.  A test of every subset in order
    # stops at the least-ranked candidate or earlier, so a budget left
    # above its rank answers ell - 1.
    first = next((range(p, q) for p, q in pairwise(g._layout.offsets) if q - p == ell), None)
    if first and remaining > _lex_rank(first, e):
        return ell - 1
    if remaining <= 0:
        # What the first subset below would raise, before the witness is
        # split into matchings that no subset would use.
        raise _exhausted(ell - 1)
    pool = MatchingPool()
    matchings = _colour_matchings(sweep.witness, ell)
    for m in matchings:
        pool.add(m.edges)
    match = [j for (_, j) in matchings[0].sorted_edges]
    h = flow_engine._BMatching(g)
    edges = g.sorted_edges
    for size in range(ell, e + 1):
        for removed in combinations(edges, size):
            if remaining <= 0:
                raise _exhausted(size - 1)
            remaining -= 1
            if pool.spares(removed):
                continue
            pairs = h.repair(match, removed)
            if pairs is None:
                return size - 1
            pool.add(pairs)
    # Unreachable for nonempty graphs: removing all edges kills the matching.
    return e - 1


def _lex_rank(indices, n: int) -> int:
    """Index of ascending ``indices`` in ``combinations(range(n), len(indices))``.

    Combinatorial number system: the subsets after it are, for each t, the
    C(n - 1 - c_t, k - t) that agree with it before t and then lie above c_t.
    """
    k = len(indices)
    return comb(n, k) - 1 - sum(comb(n - 1 - c, k - t) for t, c in enumerate(indices))


def _exhausted(verified: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"weak resilience budget exhausted; >= {verified} certified",
        lower_bound=verified,
    )

