"""Reference resilience oracles for the tests: matchings as frozensets.

``sprank.oracle`` once held these four functions verbatim.  The library
now keeps each matching, and each edge's set of pooled matchings, as one
int bitmask; the tests require it to return the same value, or raise the
same ``BudgetExceededError``, as these.
"""

from itertools import combinations

from sprank.errors import BudgetExceededError
from sprank.oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    _adjacency,
    _left_perfect_matchings,
    enumerate_left_perfect_matchings,
)
from sprank.pattern import BipartiteGraph, MatchingPool


def _first_left_perfect_matching(
    adj: list[list[int]], max_nodes: int, certified: int
) -> tuple[int, ...] | None:
    """The first left-perfect matching of ``adj``, or None, within ``max_nodes`` search nodes.

    Running out raises BudgetExceededError with ``certified``, the weak
    resilience proven so far, as its lower bound.
    """
    try:
        return next(_left_perfect_matchings(adj, max_nodes), None)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{exc}; weak resilience >= {certified}", lower_bound=certified
        ) from None


def brute_weak_resilience(
    g: BipartiteGraph, b: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact weak resilience by testing every removal subset.

    g's sorted adjacency is built once, and so is a pool of the
    left-perfect matchings found so far, starting with the one that shows
    g has any.  A subset that misses a pooled matching passes at once.
    Any other subset drops its edges from the rows they touch, and a
    backtracking search of at most ``b.max_matchings`` nodes tests what is
    left for a left-perfect matching; the one it finds joins the pool.
    Subsets come in increasing size, edges in sorted order, one unit of
    ``b.max_subsets`` each.  Running out of either budget raises
    BudgetExceededError with the certified lower bound: -1 while g itself
    is untested.
    """
    adj = _adjacency(g)
    found = _first_left_perfect_matching(adj, b.max_matchings, -1)
    if found is None:
        return -1
    pool = MatchingPool()
    pool.add(enumerate(found))
    edges = g.sorted_edges
    remaining = b.max_subsets
    verified = 0
    for size in range(1, len(edges) + 1):
        for removed in combinations(edges, size):
            if remaining <= 0:
                raise BudgetExceededError(
                    f"subset budget exhausted; >= {verified} certified",
                    lower_bound=verified,
                )
            remaining -= 1
            if pool.spares(removed):
                continue
            reduced = adj.copy()
            for (i, j) in removed:
                reduced[i] = [c for c in reduced[i] if c != j]
            found = _first_left_perfect_matching(reduced, b.max_matchings, verified)
            if found is None:
                return size - 1
            pool.add(enumerate(found))
        verified = size
    return len(edges) - 1


def _disjoint_family(
    matchings: list[frozenset[tuple[int, int]]], stop: int, max_tests: int
) -> int:
    """Size of a largest pairwise-disjoint subfamily, or ``stop`` once one that large is found.

    Depth-first over the matchings in list order, with its own stack
    instead of recursion.  A level is left as soon as the matchings after
    it cannot beat the best family found so far.  Every disjointness test
    is charged to ``max_tests``; running out raises
    BudgetExceededError with the best family minus one, a certified lower
    bound on strong resilience.
    """
    total = len(matchings)
    union: set[tuple[int, int]] = set()  # the edges of the chosen matchings
    chosen: list[int] = []
    start = best = tests = 0  # start: the next matching to try at this level
    while True:
        if len(chosen) > best:
            best = len(chosen)
            if best >= stop:
                return best
        if len(chosen) + total - start > best:
            tests += 1
            if tests > max_tests:
                raise BudgetExceededError(
                    f"disjoint-family search exceeded {max_tests} tests; "
                    f"strong resilience >= {best - 1}",
                    lower_bound=best - 1,
                )
            if union.isdisjoint(matchings[start]):
                chosen.append(start)
                union |= matchings[start]
            start += 1
            continue
        if not chosen:
            return best
        last = chosen.pop()
        union -= matchings[last]
        start = last + 1


def brute_strong_resilience(
    g: BipartiteGraph, b: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact strong resilience: max disjoint family of left-perfect matchings, minus one.

    Each matching takes its own edge at every row, so no family outgrows
    the smallest row degree, and the search stops once it reaches it.  The
    enumeration and the family search may each spend ``b.max_matchings``
    units; BudgetExceededError's ``lower_bound`` is None if the enumeration
    runs out, and the best family minus one if the family search does.
    """
    matchings = enumerate_left_perfect_matchings(g, cap=b.max_matchings)
    if not matchings:
        return -1
    return _disjoint_family(matchings, min(g.left_degrees()), b.max_matchings) - 1
