"""Reference resilience oracles for the tests: matchings as frozensets.

``sprank.oracle`` once held these functions verbatim.  The library now
keeps each matching, and each edge's set of pooled matchings, as one int
bitmask; the tests require it to return the same value, or raise the
same ``BudgetExceededError``, as these.  ``_left_perfect_matchings`` is
the matching search the library ran before its search yielded edge
masks and skipped a banned edge mask: the frozen reference its kernel
must match in order and in node charges.
"""

from itertools import combinations

from sprank.errors import BudgetExceededError
from sprank.oracle import DEFAULT_BUDGET, OracleBudget
from sprank.pattern import BipartiteGraph, MatchingPool


def _adjacency(g: BipartiteGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n_left)]
    for (i, j) in sorted(g.edges):
        adj[i].append(j)
    return adj


def _left_perfect_matchings(adj: list[list[int]], max_nodes: int):
    """Yield every left-perfect matching of ``adj`` as its columns, one per row in index order.

    Rows choose their columns in turn, each from its adjacency list in
    order, so sorted lists give the matchings in lexicographic order.
    Every search node, each matching included, is charged to ``max_nodes``.
    The search keeps its own stack instead of recursing,
    so no row count reaches Python's recursion limit.
    """
    n = len(adj)
    used: set[int] = set()
    taken: list[int] = []  # the column of each decided row
    choices = [iter(adj[0])]  # the columns left to try at each open row
    nodes = 1
    while choices:
        j = next(choices[-1], None)
        if j is None:
            choices.pop()
            if taken:
                used.discard(taken.pop())
            continue
        if j in used:
            continue
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceededError(f"matching search exceeded {max_nodes} nodes")
        taken.append(j)
        if len(taken) == n:
            yield tuple(taken)
            taken.pop()
            continue
        used.add(j)
        choices.append(iter(adj[len(taken)]))


def enumerate_left_perfect_matchings(
    g: BipartiteGraph, cap: int = DEFAULT_BUDGET.max_matchings
) -> list[frozenset[tuple[int, int]]]:
    """All left-perfect matchings, rows matched in index order.

    The search may visit at most ``cap`` nodes, each matching included;
    running out raises BudgetExceededError with ``lower_bound`` None.
    """
    return [frozenset(enumerate(cols)) for cols in _left_perfect_matchings(_adjacency(g), cap)]


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
