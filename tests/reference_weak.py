"""Reference weak resilience for the tests: one matching search per subset.

This is the plain enumeration that ``sprank.oracle.brute_weak_resilience``
once was.  The oracle now keeps a pool of the matchings it has found and
skips every subset that misses one; the tests require it to give the same
value, or the same ``BudgetExceededError.lower_bound``, as this loop.
"""

from itertools import combinations

from sprank.errors import BudgetExceededError
from sprank.oracle import DEFAULT_BUDGET, OracleBudget
from sprank.pattern import BipartiteGraph

from reference_oracle import _adjacency, _left_perfect_matchings


def _has_left_perfect_matching(adj: list[list[int]], max_nodes: int, certified: int) -> bool:
    try:
        return next(_left_perfect_matchings(adj, max_nodes), None) is not None
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{exc}; weak resilience >= {certified}", lower_bound=certified
        ) from None


def brute_weak_resilience(g: BipartiteGraph, b: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact weak resilience, searching g less each removal subset afresh."""
    adj = _adjacency(g)
    if not _has_left_perfect_matching(adj, b.max_matchings, -1):
        return -1
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
            reduced = adj.copy()
            for (i, j) in removed:
                reduced[i] = [c for c in reduced[i] if c != j]
            if not _has_left_perfect_matching(reduced, b.max_matchings, verified):
                return size - 1
        verified = size
    return len(edges) - 1
