"""Reference library weak resilience for the tests: enumeration from size 1.

This is ``sprank.resilience.weak_resilience`` as it was before the
certified bounds strong <= weak <= d_min - 1: g is solved once for a
left-perfect matching M, and every removal subset is enumerated from size
1, one budget unit each, with a pool of the matchings found so far.  The
library now charges the sizes below ell* in bulk and returns without
enumerating once the budget passes the lexicographic rank of a certified
failing subset; the tests require it to give the same value, or the same
``BudgetExceededError.lower_bound``, as this loop at every budget.
"""

from itertools import combinations

from sprank import flow as flow_engine
from sprank.errors import BudgetExceededError, VerificationError
from sprank.pattern import BipartiteGraph, MatchingPool
from sprank.resilience import structural_rank


def weak_resilience(g: BipartiteGraph, budget: int) -> int:
    """Exact weak resilience, testing every removal subset in increasing size."""
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
            pairs = h.repair(match, removed)
            if pairs is not None:
                pool.add(pairs)
                continue
            reduced = BipartiteGraph(n, g.n_right, g.edges - set(removed))
            if structural_rank(reduced) == n:
                raise VerificationError(
                    f"repair failed after removing {removed}, yet a left-perfect "
                    "matching remains"
                )
            return size - 1
        verified = size
    return len(edges) - 1
