"""Brute-force ground truth for rank, resilience, and augmentation.

Everything in this module works straight from the definitions: rank as
the rank of a matrix that fits the pattern, matchings by backtracking,
resilience by subset enumeration, augmentation by trying complement subsets
in increasing size.  It is deliberately independent of the flow-based
algorithms so the two routes can check each other.

The rank spends no budget: it is that of one seeded random realization,
eliminated exactly over GF(p), which never exceeds the structural rank r
and falls short only with probability at most r/(p - 1).  The disjoint-family
search is branch-and-bound: it skips a choice that cannot beat the best
family found so far, and stops as soon as one reaches its upper bound.
Every backtracking search charges its nodes to ``OracleBudget.max_matchings``
(a matching search charges every partial and complete matching it visits,
the family search every disjointness test).  Subset enumerations charge one
unit per subset to ``max_subsets``; the weak-resilience enumeration
searches only a subset that hits every matching it has found so far.
Budgets count work, never wall-clock, so budget failures are deterministic.
Only the rank needs numpy, and it imports numpy where it runs, so importing
the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, InvalidKError, VerificationError
from .pattern import BipartiteGraph, MatchingPool, check_dense_size, complement


@dataclass(frozen=True)
class OracleBudget:
    """Work caps for the exhaustive searches."""

    max_subsets: int = 10**6
    max_matchings: int = 10**5

    def __post_init__(self):
        if self.max_subsets <= 0 or self.max_matchings <= 0:
            raise ValueError("budget values must be positive")


DEFAULT_BUDGET = OracleBudget()

# The largest prime below 2**31, so a product of two residues fits int64.
_PRIME = 2**31 - 1


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


def _rank_mod_p(matrix: np.ndarray) -> int:
    """Rank over GF(p) by fraction-free Gaussian elimination in int64.

    Every entry is kept as a residue in [0, p), p = ``_PRIME``, so no
    product of two reaches 2**62.  In each column the first row with a
    nonzero entry a there is the pivot.  Every other row holding an entry f
    in that column becomes a * row - f * pivot row, mod p, from that column
    on, which zeroes its entry and scales the row by a != 0 without an
    inverse.  The pivot row then retires: it is zeroed, so no later column
    picks or updates it again, and no row is ever swapped.  The rank is
    the number of pivots.
    """
    import numpy as np

    p = _PRIME
    a = np.asarray(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        live = np.flatnonzero(a[:, col])
        if not live.size:
            continue
        pivot, rest = live[0], live[1:]
        if rest.size:
            head = a[pivot, col:]
            a[rest, col:] = (head[0] * a[rest, col:] - a[rest, col, None] * head) % p
        a[pivot] = 0
        rank += 1
    return rank


def brute_rank(g: BipartiteGraph, rng: np.random.Generator | None = None) -> int:
    """Structural rank as the exact rank over GF(p) of one random realization.

    Each star gets a residue drawn uniformly from [1, p), in ``g.edges``
    order, with p = 2**31 - 1.  The result never exceeds the structural
    rank r; it falls short only when a nonzero polynomial of degree r in
    the draws vanishes, which happens with probability at most r/(p - 1)
    (Schwartz-Zippel).  The default seed makes the answer deterministic.
    """
    import numpy as np

    check_dense_size(g.n_left, g.n_right)
    rng = rng if rng is not None else np.random.default_rng(20240817)
    a = np.zeros((g.n_left, g.n_right), dtype=np.int64)
    stars = tuple(np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T)
    a[stars] = rng.integers(1, _PRIME, len(g.edges), dtype=np.int64)
    return _rank_mod_p(a)


def enumerate_left_perfect_matchings(
    g: BipartiteGraph, cap: int = DEFAULT_BUDGET.max_matchings
) -> list[frozenset[tuple[int, int]]]:
    """All left-perfect matchings, rows matched in index order.

    The search may visit at most ``cap`` nodes, each matching included;
    running out raises BudgetExceededError with ``lower_bound`` None.
    """
    return [frozenset(enumerate(cols)) for cols in _left_perfect_matchings(_adjacency(g), cap)]


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


def has_disjoint_matchings(
    g: BipartiteGraph, k: int, cap: int = DEFAULT_BUDGET.max_matchings
) -> bool:
    """Early-exit test for k pairwise-disjoint left-perfect matchings.

    ``cap`` bounds both the matching-search nodes and the disjointness tests.
    The matching search's BudgetExceededError carries ``lower_bound`` None.
    """
    if k <= 0:
        return True
    if min(g.left_degrees()) < k:
        return False
    matchings = enumerate_left_perfect_matchings(g, cap=cap)
    return _disjoint_family(matchings, k, cap) >= k


def brute_min_augmentation(
    g: BipartiteGraph, k_star: int, b: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Smallest complement subset whose addition gives strong resilience >= k*."""
    if not 0 <= k_star <= g.n_right - 1:
        raise InvalidKError(
            f"target resilience {k_star} outside [0, {g.n_right - 1}]"
        )
    comp = complement(g).sorted_edges
    # Every row needs degree >= k*+1 in the augmented graph, which bounds
    # the answer below without any enumeration.
    left_degs = g.left_degrees()
    min_d = sum(max(0, (k_star + 1) - d) for d in left_degs)
    remaining = b.max_subsets
    for d in range(min_d, len(comp) + 1):
        for extra in combinations(comp, d):
            if remaining <= 0:
                raise BudgetExceededError(
                    f"subset budget exhausted before size {d}", lower_bound=d
                )
            remaining -= 1
            candidate = BipartiteGraph(g.n_left, g.n_right, g.edges | set(extra))
            try:
                found = has_disjoint_matchings(candidate, k_star + 1, cap=b.max_matchings)
            except BudgetExceededError:
                # Every smaller size was refuted, so only delta* >= d is certified.
                raise BudgetExceededError(
                    f"matching search on a size-{d} candidate exceeded the budget; "
                    f"delta* >= {d}",
                    lower_bound=d,
                ) from None
            if found:
                return d
    raise VerificationError(
        f"even the complete graph has no {k_star + 1} disjoint left-perfect matchings"
    )


def find_weak_gt_strong_witness(
    n: int, m: int, b: OracleBudget = DEFAULT_BUDGET
) -> BipartiteGraph | None:
    """Search for a graph whose weak resilience exceeds its strong resilience.

    Scans graphs in increasing edge count, so the first hit is minimal.
    Returns None when the whole space is exhausted without a gap.
    """
    all_edges = [(i, j) for i in range(n) for j in range(m)]
    remaining = b.max_subsets
    # A gap needs weak resilience >= 1, hence every row degree >= 2.
    for count in range(2 * n, len(all_edges) + 1):
        for chosen in combinations(all_edges, count):
            if remaining <= 0:
                raise BudgetExceededError("graph enumeration budget exhausted")
            remaining -= 1
            g = BipartiteGraph(n, m, frozenset(chosen))
            if min(g.left_degrees()) < 2:
                continue
            strong = brute_strong_resilience(g, b)
            if strong < 0:
                continue
            weak = brute_weak_resilience(g, b)
            if weak > strong:
                return g
    return None
