"""Brute-force ground truth for rank, resilience, and augmentation.

Everything in this module works straight from the definitions: rank as
the rank of a matrix that fits the pattern, matchings by backtracking,
resilience by subset enumeration, augmentation by trying complement subsets
in increasing size.  It is deliberately independent of the flow-based
algorithms so the two routes can check each other.

The rank spends no budget: it is that of one seeded random realization,
eliminated exactly over GF(p), which never exceeds the structural rank r
and falls short only with probability at most r/(p - 1).  Every matching
comes from one search, ``_matchings``, over g's row layout in lexicographic
order, as a mask with bit k for the k-th sorted edge; it skips ``banned``
edge indices at no charge, as if removed.  The disjoint-family search is
branch-and-bound: it skips a choice that cannot beat the best family found
so far, and stops as soon as one reaches its upper bound.  Every
backtracking search charges its nodes to ``OracleBudget.max_matchings``
(the matching search every partial and complete matching it visits, the
family search every disjointness test).  Subset enumerations charge one
unit per subset to ``max_subsets``; the weak-resilience enumeration
searches only a subset that hits every matching it has found so far.
Budgets count work, never wall-clock, so budget failures are deterministic.
The module is pure Python: matchings and their pools are int bitmasks, and
the realization's rows are Python integers too, one 64-bit slot per column.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import BudgetExceededError, InvalidKError, VerificationError
from .pattern import BipartiteGraph, check_dense_size, complement


@dataclass(frozen=True)
class OracleBudget:
    """Work caps for the exhaustive searches."""

    max_subsets: int = 10**6
    max_matchings: int = 10**5

    def __post_init__(self):
        if self.max_subsets <= 0 or self.max_matchings <= 0:
            raise ValueError("budget values must be positive")


DEFAULT_BUDGET = OracleBudget()

# The Mersenne prime 2**31 - 1.  As 2**31 = 1 mod p, a value reduces mod p
# by adding its bits from bit 31 up to its low 31 bits.
_PRIME = 2**31 - 1
# One column's 64-bit slot in a packed row, and the masks that pick, in
# every slot at once, its low 31 bits and the 33 bits above them.
_SLOT = 2**64 - 1
_LOW = (2**31 - 1).to_bytes(8, "little")
_HIGH = (2**33 - 1).to_bytes(8, "little")


def _matchings(g: BipartiteGraph, max_nodes: int, banned=()):
    """Yield every left-perfect matching of g as its edge mask, bit k for the k-th sorted edge.

    Rows choose an edge in turn along g's row layout, edge k of row i at
    position k - offsets[i], so the matchings come in lexicographic order.
    The root and every edge taken, each completed matching included, cost
    one node of ``max_nodes``.  An edge whose column is taken, or whose
    index is in ``banned``, is skipped at no charge: banning edges costs
    what a search of g less them would.  Taken columns are flags in one
    list, and a mask grows one bit per row as the search descends, so no
    table per edge is built.  The search keeps its own stack instead of
    recursing, so no row count reaches Python's recursion limit.
    """
    rows, offsets = g._layout
    last = len(rows) - 1
    taken = [False] * g.n_right
    mask = 0  # the edge bits of the decided rows
    stack = []  # each decided row's choices left, column and edge index
    choices = enumerate(rows[0])
    nodes = 1
    while True:
        for k, j in choices:
            if taken[j] or k in banned:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError(f"matching search exceeded {max_nodes} nodes")
            if len(stack) == last:
                yield mask | 1 << k
                continue
            stack.append((choices, j, k))
            taken[j] = True
            mask |= 1 << k
            choices = enumerate(rows[len(stack)], offsets[len(stack)])
            break
        else:
            if not stack:
                return
            choices, j, k = stack.pop()
            taken[j] = False
            mask ^= 1 << k


def _pack(row: list[tuple[int, int]]) -> tuple[int, int]:
    """A row's leading column, and the row packed into one int from there.

    ``row`` holds (column, residue) pairs with distinct columns and
    residues in [1, p).  Slot k, bits 64k to 64k + 63, holds the residue in
    column lead + k, or 0.  The slots are written into one bytearray, which
    bytes replace before the int is read (``int.from_bytes`` copies a
    bytearray), so at most two copies of the row live at once.
    """
    lead = min(row)[0]
    buf = bytearray(8 * (max(row)[0] - lead + 1))
    with memoryview(buf).cast("Q") as slots:
        for j, v in row:
            slots[j - lead] = v
    buf = bytes(buf)
    return lead, int.from_bytes(buf, sys.byteorder)


def _rank_mod_p(rows: list[list[tuple[int, int]]]) -> int:
    """Rank over GF(p), p = ``_PRIME``, of the matrix with the given rows.

    Each row lists (column, residue) pairs, as ``_pack`` takes them.  Rows
    are packed once and kept in buckets by their leading column, so slot 0
    of a row is its leading entry.  Columns are taken in increasing order.
    The first row in a column's bucket is the pivot: it is scaled by the
    inverse of its leading entry, and every other row x there, with leading
    entry f, becomes x + (p - f) * pivot, folded.  That zeroes x's slot 0
    mod p, so x drops the slot and moves to the bucket of its first slot
    that is nonzero mod p, or dies.  A row whose new slot 0 is nonzero
    skips the scan for its lowest set bit, so a sparse row costs only its
    own length.  The pivot retires, rows in other buckets are not touched,
    and the rank is the number of pivots.
    """
    # The fold, (y & low) + ((y >> 31) & high), maps every slot
    # s = 2**31 h + l, l < 2**31, to l + h, which is s mod p.  No slot
    # overflows its 64 bits:
    # - Packed residues are below p, and every stored row keeps its slots
    #   below 2**33.
    # - The pivot's slots times the inverse (below 2**31) stay below 2**64.
    #   One fold leaves them below 2**31 + 2**33, and a second at most
    #   2**31 + 2: there h <= 4, and h = 4 leaves l <= 2**31 - 2.
    # - An update adds at most (p - 1)(2**31 + 2) < 2**62 to a slot below
    #   2**33, so no slot carries into the next.  The fold then leaves
    #   l + h < 2**31 + (2**31 + 4) = 2**32 + 4, below 2**33 again.
    # Below 2**32 + 4 the multiples of p are 0, p and 2p, and % p reads all
    # three as zero.
    p = _PRIME
    buckets: dict[int, list[int]] = {}
    width = 0
    for row in rows:
        if row:
            lead, x = _pack(row)
            buckets.setdefault(lead, []).append(x)
            width = max(width, x.bit_length())
    low = high = 0  # the fold's masks, built for the first update
    columns = list(buckets)
    heapify(columns)
    rank = 0
    while columns:
        col = heappop(columns)
        pivot, *rest = buckets.pop(col)
        rank += 1
        if not rest:
            continue
        if not low:
            slots = -(-width // 64)
            low = int.from_bytes(_LOW * slots, "little")
            high = int.from_bytes(_HIGH * slots, "little")
        y = pivot * pow(pivot & _SLOT, -1, p)
        y = (y & low) + ((y >> 31) & high)
        pivot = (y & low) + ((y >> 31) & high)
        for x in rest:
            y = x + (p - (x & _SLOT) % p) * pivot
            y = ((y & low) + ((y >> 31) & high)) >> 64
            lead = col + 1
            while y:
                if (y & _SLOT) % p:
                    if lead in buckets:
                        buckets[lead].append(y)
                    else:
                        buckets[lead] = [y]
                        heappush(columns, lead)
                    break
                # Skip to the lowest nonzero slot, or past slot 0 when that
                # holds p or 2p.
                skip = ((y & -y).bit_length() - 1) // 64 or 1
                y >>= 64 * skip
                lead += skip
    return rank


def brute_rank(g: BipartiteGraph, rng: random.Random | None = None) -> int:
    """Structural rank as the exact rank over GF(p) of one random realization.

    Each star gets the residue that ``rng.randrange(1, p)`` would draw,
    drawn in ``g.edges`` order, with p = 2**31 - 1.  The result never
    exceeds the structural rank r; it falls short only when a nonzero
    polynomial of degree r in the draws vanishes, which happens with
    probability at most r/(p - 1) (Schwartz-Zippel).  The default seed makes the answer deterministic.
    """
    # Fill-in can grow the packed rows to n x m slots.
    check_dense_size(g.n_left, g.n_right)
    bits = (rng if rng is not None else random.Random(20240817)).getrandbits
    rows: list[list[tuple[int, int]]] = [[] for _ in range(g.n_left)]
    for (i, j) in g.edges:
        # randrange(1, p)'s own draw: 31 random bits, redrawn until below p - 1.
        r = bits(31)
        while r >= _PRIME - 1:
            r = bits(31)
        rows[i].append((j, r + 1))
    return _rank_mod_p(rows)


def enumerate_left_perfect_matchings(
    g: BipartiteGraph, cap: int = DEFAULT_BUDGET.max_matchings
) -> list[frozenset[tuple[int, int]]]:
    """All left-perfect matchings, rows matched in index order.

    The search may visit at most ``cap`` nodes, each matching included;
    running out raises BudgetExceededError with ``lower_bound`` None.
    """
    edges, masks = g.sorted_edges, _matchings(g, cap)
    return [frozenset(e for k, e in enumerate(edges) if mask >> k & 1) for mask in masks]


def brute_weak_resilience(
    g: BipartiteGraph, b: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Exact weak resilience by testing every removal subset.

    A pool keeps the left-perfect matchings found so far: pooled matching
    t is bit t, and ``through[k]`` has the bits of those through sorted
    edge k.  A subset whose masks OR to less than the pool misses a pooled
    matching and passes at once.  A search of g of at most
    ``b.max_matchings`` nodes that bans any other subset's edges tests g
    less them for a left-perfect matching, which joins the pool.
    Subsets come in increasing size, edges in sorted order, one unit of
    ``b.max_subsets`` each but the empty one, g itself.  Running out of
    either budget raises BudgetExceededError with the certified lower
    bound: -1 while g itself is untested.
    """
    n_edges = len(g.edges)
    through = [0] * n_edges
    pool = 0
    remaining = b.max_subsets + 1  # the empty subset, g itself, is free
    verified = -1
    for size in range(n_edges + 1):
        for removed in combinations(range(n_edges), size):
            if remaining <= 0:
                raise BudgetExceededError(
                    f"subset budget exhausted; >= {verified} certified",
                    lower_bound=verified,
                )
            remaining -= 1
            hit = 0
            for k in removed:
                hit |= through[k]
            if hit != pool:
                continue
            try:
                found = next(_matchings(g, b.max_matchings, removed), None)
            except BudgetExceededError as exc:
                raise BudgetExceededError(
                    f"{exc}; weak resilience >= {verified}", lower_bound=verified
                ) from None
            if found is None:
                return size - 1
            bit = pool + 1  # the lowest bit not yet in use
            while found:
                low = found & -found
                through[low.bit_length() - 1] |= bit
                found ^= low
            pool |= bit
        verified = size
    return n_edges - 1


def _disjoint_family(matchings: list[int], stop: int, max_tests: int) -> int:
    """Size of a largest pairwise-disjoint subfamily, or ``stop`` once one that large is found.

    Depth-first over the matchings in list order, with its own stack
    instead of recursion.  A level is left as soon as the matchings after
    it cannot beat the best family found so far.  Every disjointness test
    is charged to ``max_tests``; running out raises
    BudgetExceededError with the best family minus one, a certified lower
    bound on strong resilience.
    """
    total = len(matchings)
    union = 0  # the edges of the chosen matchings
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
            if not union & matchings[start]:
                chosen.append(start)
                union |= matchings[start]
            start += 1
            continue
        if not chosen:
            return best
        last = chosen.pop()
        union ^= matchings[last]
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
    matchings = list(_matchings(g, b.max_matchings))
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
    return _disjoint_family(list(_matchings(g, cap)), k, cap) >= k


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
    min_d = sum(max(0, (k_star + 1) - d) for d in g.left_degrees())
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
