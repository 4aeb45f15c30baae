"""Sparsity patterns, bipartite graphs, and degree-based structural predicates.

A sparsity pattern is a 0/* matrix template: *-entries hold arbitrary real
values, 0-entries are identically zero.  Each pattern corresponds one-to-one
to a bipartite graph whose left nodes are rows and right nodes are columns,
with an edge wherever the pattern has a star.

Coordinates are 0-based everywhere inside the library.  The 1-based
convention of the file formats and error messages lives in :mod:`sprank.io`.
"""

from __future__ import annotations

import enum
import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .errors import InvalidKError, NotDisjointError, OutOfRangeError, ShapeError

# Largest n * m for which anything is built cell by cell (the complement, the
# augmentation networks, the oracle's dense matrices), and the most pairs a
# fair b-matching may return (n * b).  A pattern file only has to name n and
# m, so without a cap a few bytes could demand ~n * m memory.
MAX_DENSE_CELLS = 10**6


@dataclass(frozen=True)
class SparsityPattern:
    """A 0/* matrix template with n rows, m columns (m >= n), stars 0-based."""

    n: int
    m: int
    stars: frozenset[tuple[int, int]]

    def __post_init__(self):
        _check_pattern_shape(self.n, self.m)
        object.__setattr__(self, "stars", frozenset(self.stars))
        for (i, j) in self.stars:
            if not (0 <= i < self.n and 0 <= j < self.m):
                raise OutOfRangeError(
                    f"star ({i + 1}, {j + 1}) outside the {self.n}x{self.m} grid"
                )

    @property
    def sorted_stars(self) -> list[tuple[int, int]]:
        """Stars in canonical row-major order."""
        return sorted(self.stars)

    def dim(self) -> int:
        return len(self.stars)


def _check_positive_shape(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ShapeError(f"pattern dimensions must be positive, got ({n}, {m})")


def _check_pattern_shape(n: int, m: int) -> None:
    _check_positive_shape(n, m)
    if m < n:
        raise ShapeError(
            f"m = {m} < n = {n}; patterns assume at least as many "
            "columns as rows (transpose the input if rows exceed columns)"
        )


def _checked(cls, **fields):
    """An instance of the frozen dataclass cls from fields the caller has validated."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


# A graph's row layout: cols[i] holds row i's columns, ascending, and edge k
# of row i, the k-th of the sorted edges, is cols[i][k - offsets[i]].
# offsets has n_left + 1 entries, the last |E|.
_RowLayout = namedtuple("_RowLayout", "cols offsets")


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with left nodes 0..n_left-1 and right nodes 0..n_right-1.

    ``_layout``, built on first use and kept, is its one row layout.  The flow
    engine, weak resilience, the oracle, the left degrees and ``sorted_edges``
    (so the colouring and the DOT export) read it.  It holds only tuples;
    equality, hashing, ``repr``, copies and pickles ignore it.
    """

    n_left: int
    n_right: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_left < 1 or self.n_right < 1:
            raise ShapeError(
                f"node counts must be positive, got ({self.n_left}, {self.n_right})"
            )
        object.__setattr__(self, "edges", frozenset(self.edges))
        for (i, j) in self.edges:
            if not (0 <= i < self.n_left and 0 <= j < self.n_right):
                raise OutOfRangeError(
                    f"edge (a{i + 1}, b{j + 1}) outside graph with "
                    f"{self.n_left} left and {self.n_right} right nodes"
                )

    @cached_property
    def _layout(self) -> _RowLayout:
        rows = [[] for _ in range(self.n_left)]
        for (i, j) in self.edges:
            rows[i].append(j)
        for cols in rows:
            cols.sort()
        rows = tuple(map(tuple, rows))
        return _RowLayout(rows, tuple(accumulate(map(len, rows), initial=0)))

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_layout"}

    @property
    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, cols in enumerate(self._layout.cols) for j in cols]

    def left_degrees(self) -> list[int]:
        return list(map(len, self._layout.cols))

    def right_degrees(self) -> list[int]:
        degs = [0] * self.n_right
        for (_, j) in self.edges:
            degs[j] += 1
        return degs


@dataclass(frozen=True)
class Matching:
    """An edge set with pairwise-distinct left and right endpoints."""

    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        lefts = [i for (i, _) in self.edges]
        rights = [j for (_, j) in self.edges]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("matching edges must have pairwise-distinct endpoints")

    def is_left_perfect(self, n_left: int) -> bool:
        return len(self.edges) == n_left

    @property
    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


class MatchingPool:
    """Left-perfect matchings of one graph, for testing removal subsets.

    A subset S that misses any pooled matching leaves it whole in g - S,
    so g - S keeps a left-perfect matching without a search.  Each edge
    maps to a bit mask of the pooled matchings through it; S misses one
    exactly when the masks of its edges do not cover the pool.
    """

    def __init__(self):
        self._through: dict[tuple[int, int], int] = {}
        self._all = 0

    def add(self, pairs) -> None:
        bit = self._all + 1  # the lowest bit not yet in use
        through = self._through
        for e in pairs:
            through[e] = through.get(e, 0) | bit
        self._all |= bit

    def spares(self, removed) -> bool:
        """Whether some pooled matching avoids every edge of ``removed``."""
        hit, through = 0, self._through
        for e in removed:
            hit |= through.get(e, 0)
        return hit != self._all


class Ordering(enum.Enum):
    """Outcome of comparing two patterns under star-set inclusion."""

    STRICT = "strict"
    EQUAL = "equal"
    REVERSE_STRICT = "reverse-strict"
    INCOMPARABLE = "incomparable"


def pattern_from_stars(n: int, m: int, stars) -> SparsityPattern:
    """Build a validated pattern from 1-based (row, col) coordinates.

    Duplicate coordinates are collapsed with a warning; coordinates outside
    the grid raise OutOfRangeError; m < n raises ShapeError.  Each star is
    range-checked here once, in input order, and not again by the pattern.
    """
    coords = []
    for (r, c) in stars:
        if not (1 <= r <= n and 1 <= c <= m):
            _warn_duplicates(coords)
            raise OutOfRangeError(f"star ({r}, {c}) outside the {n}x{m} grid")
        coords.append((r - 1, c - 1))
    unique = frozenset(coords)
    if len(unique) != len(coords):
        _warn_duplicates(coords)
    _check_pattern_shape(n, m)
    return _checked(SparsityPattern, n=n, m=m, stars=unique)


def _warn_duplicates(coords) -> None:
    seen = set()
    for (i, j) in coords:
        if (i, j) in seen:
            warnings.warn(f"duplicate star ({i + 1}, {j + 1}) collapsed", stacklevel=3)
        seen.add((i, j))


def to_bipartite(p: SparsityPattern) -> BipartiteGraph:
    """Reinterpret stars as edges: row i -- column j for each star (i, j).

    The pattern's stars are already in range, so they are not checked again.
    """
    return _checked(BipartiteGraph, n_left=p.n, n_right=p.m, edges=p.stars)


def from_bipartite(g: BipartiteGraph) -> SparsityPattern:
    """Inverse of :func:`to_bipartite`; requires n_right >= n_left.

    The graph's edges are already in range, so they are not checked again.
    """
    if g.n_right < g.n_left:
        raise ShapeError(
            f"graph has {g.n_left} left but only {g.n_right} right nodes; "
            "no valid pattern (m >= n required)"
        )
    return _checked(SparsityPattern, n=g.n_left, m=g.n_right, stars=g.edges)


def degree(g: BipartiteGraph, side: str, index: int) -> int:
    """Number of edges incident to a node; side is 'left' or 'right'."""
    if side == "left":
        if not 0 <= index < g.n_left:
            raise OutOfRangeError(f"left node a{index + 1} out of range")
        return len(g._layout.cols[index])
    if side == "right":
        if not 0 <= index < g.n_right:
            raise OutOfRangeError(f"right node b{index + 1} out of range")
        return sum(1 for (_, j) in g.edges if j == index)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def is_union_of_k_matchings(g: BipartiteGraph, k: int) -> bool:
    """True iff g is a union of k disjoint left-perfect matchings.

    Equivalent degree test, counted in one pass over the edges: every left
    degree equals k and every right degree is at most k.
    """
    if not 1 <= k <= g.n_right:
        raise InvalidKError(f"k = {k} outside [1, {g.n_right}]")
    left, right = [0] * g.n_left, [0] * g.n_right
    for (i, j) in g.edges:
        left[i] += 1
        right[j] += 1
    return all(d == k for d in left) and all(d <= k for d in right)


def check_dense_size(n: int, m: int) -> None:
    """Raise ShapeError unless an n x m grid may be built cell by cell."""
    if n * m > MAX_DENSE_CELLS:
        raise ShapeError(
            f"{n} x {m} = {n * m} cells exceeds the dense-size cap of "
            f"{MAX_DENSE_CELLS} cells"
        )


def complement(g: BipartiteGraph) -> BipartiteGraph:
    """Complement within the complete bipartite graph on the same node sets."""
    check_dense_size(g.n_left, g.n_right)
    missing = {
        (i, j)
        for i in range(g.n_left)
        for j in range(g.n_right)
        if (i, j) not in g.edges
    }
    return BipartiteGraph(g.n_left, g.n_right, frozenset(missing))


def union_disjoint(g1: BipartiteGraph, g2: BipartiteGraph) -> BipartiteGraph:
    """Union of two edge-disjoint graphs on identical node sets."""
    if (g1.n_left, g1.n_right) != (g2.n_left, g2.n_right):
        raise ShapeError(
            f"node sets differ: ({g1.n_left}, {g1.n_right}) vs "
            f"({g2.n_left}, {g2.n_right})"
        )
    shared = g1.edges & g2.edges
    if shared:
        raise NotDisjointError(shared)
    return BipartiteGraph(g1.n_left, g1.n_right, g1.edges | g2.edges)


def complete_graph(n_left: int, n_right: int) -> BipartiteGraph:
    """The complete bipartite graph K(n_left, n_right)."""
    return BipartiteGraph(
        n_left,
        n_right,
        frozenset((i, j) for i in range(n_left) for j in range(n_right)),
    )


def precedes(p1: SparsityPattern, p2: SparsityPattern) -> Ordering:
    """Classify p1 vs p2 under star-set inclusion (same dimensions only)."""
    if (p1.n, p1.m) != (p2.n, p2.m):
        raise ShapeError(
            f"cannot compare patterns of shapes ({p1.n}, {p1.m}) and ({p2.n}, {p2.m})"
        )
    if p1.stars == p2.stars:
        return Ordering.EQUAL
    if p1.stars < p2.stars:
        return Ordering.STRICT
    if p1.stars > p2.stars:
        return Ordering.REVERSE_STRICT
    return Ordering.INCOMPARABLE
