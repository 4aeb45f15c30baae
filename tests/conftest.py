import random

import pytest
from hypothesis import settings, strategies as st

import sprank as sp
from sprank import flow as flow_engine


FIG3_STARS = [
    (1, 1), (1, 2),
    (2, 1), (2, 2), (2, 4),
    (3, 2), (3, 3), (3, 4),
    (4, 4), (4, 5),
]

FIG7_STARS = [(1, 1), (1, 2), (2, 1), (2, 2)]

FIG2_ROWS = [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {4, 5, 6}]

# The 4x4 that acceptance criterion 8 finds: weak resilience 1 > strong 0.
# ell* = 1 < d_min = 2, so the bounds strong <= weak <= d_min - 1 miss and
# weak resilience must enumerate removal subsets.
WEAK_GAP_EDGES = [
    (0, 0), (0, 1), (0, 2), (1, 0), (1, 3), (2, 1), (2, 3), (3, 2), (3, 3),
]


@pytest.fixture
def fig3_graph():
    return sp.to_bipartite(sp.pattern_from_stars(4, 5, FIG3_STARS))


@pytest.fixture
def fig7_graph():
    return sp.to_bipartite(sp.pattern_from_stars(2, 3, FIG7_STARS))


@pytest.fixture
def fig2_graph():
    stars = [(r + 1, c) for r, cols in enumerate(FIG2_ROWS) for c in cols]
    return sp.to_bipartite(sp.pattern_from_stars(4, 6, stars))


def weak_gap_graph() -> sp.BipartiteGraph:
    return sp.BipartiteGraph(4, 4, frozenset(WEAK_GAP_EDGES))


def random_graph(rng: random.Random, n: int, m: int, p: float = 0.5) -> sp.BipartiteGraph:
    edges = frozenset(
        (i, j) for i in range(n) for j in range(m) if rng.random() < p
    )
    return sp.BipartiteGraph(n, m, edges)


def upper_triangle(n: int) -> sp.BipartiteGraph:
    """Row i holds columns i..n-1: one left-perfect matching, and a tree of
    dead ends that grows exponentially with n."""
    return sp.BipartiteGraph(n, n, frozenset((i, j) for i in range(n) for j in range(i, n)))


def pruning_proof_block(n: int) -> sp.BipartiteGraph:
    """Rank n - 1 with a matching-search tree that no bound can prune.

    A diagonal on the first n - 12 rows, then K(9,9), then the last three
    rows on two shared columns.  Once the first leaf has matched n - 1
    rows, the bound cuts a branch as soon as a row is left unmatched; only
    the last row must be, so the search still walks all 9! matchings of
    K(9,9).
    """
    d = n - 12
    edges = {(i, i) for i in range(d)}
    edges |= {(d + i, d + j) for i in range(9) for j in range(9)}
    edges |= {(d + 9 + i, d + 9 + j) for i in range(3) for j in range(2)}
    return sp.BipartiteGraph(n, n, frozenset(edges))


def random_union_of_matchings(
    rng: random.Random, n: int, m: int, k: int
) -> sp.BipartiteGraph:
    """A union of k disjoint left-perfect matchings, by rejection sampling."""
    while True:
        edges: set = set()
        ok = True
        for _ in range(k):
            cols = rng.sample(range(m), n)
            matching = {(i, cols[i]) for i in range(n)}
            if matching & edges:
                ok = False
                break
            edges |= matching
        if ok:
            return sp.BipartiteGraph(n, m, frozenset(edges))


def shifted_union(rng: random.Random, n: int, m: int, k: int) -> sp.BipartiteGraph:
    """A union of k disjoint left-perfect matchings, built directly.

    Under a random row order and column permutation, row i takes the
    columns i + s (mod m) for k distinct shifts s: distinct shifts keep the
    matchings disjoint, and each column meets each shift at most once.
    """
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(m), m)
    shifts = rng.sample(range(m), k)
    edges = frozenset((rows[i], cols[(i + s) % m]) for i in range(n) for s in shifts)
    return sp.BipartiteGraph(n, m, edges)


def planted_hub(rng: random.Random, n: int, m: int, ell: int) -> sp.BipartiteGraph:
    """ell* = ell exactly: ell disjoint left-perfect matchings and one hub column.

    Under a random row order and column order, row i takes the columns
    i + t (mod m) for t < ell, and one column more.  The first r = ell + 2
    rows all take the same hub column, which none of them has yet, so at
    level ell + 1 they can route at most r * ell + ell + 1 < r * (ell + 1)
    units.  Every other row takes a random column of its own.
    """
    r = ell + 2
    perm = rng.sample(range(m), m)
    rows = rng.sample(range(n), n)
    edges = {(rows[i], perm[(i + t) % m]) for i in range(n) for t in range(ell)}
    hub = perm[r + ell - 1]
    for i in range(n):
        own = {perm[(i + t) % m] for t in range(ell)}
        extra = hub if i < r else rng.choice([j for j in range(m) if j not in own])
        edges.add((rows[i], extra))
    return sp.BipartiteGraph(n, m, frozenset(edges))


@st.composite
def hub_graphs(draw):
    """Graphs with n <= 7 and m <= 9 columns in which a set of rows share hub columns."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(n, 9))
    cells = [(i, j) for i in range(n) for j in range(m)]
    edges = draw(st.sets(st.sampled_from(cells), max_size=3 * n))
    hubs = draw(st.sets(st.integers(0, m - 1), max_size=2))
    rows = draw(st.sets(st.integers(0, n - 1)))
    return sp.BipartiteGraph(n, m, frozenset(edges | {(i, j) for i in rows for j in hubs}))


@st.composite
def planted_hubs(draw):
    """planted_hub shapes with n <= 6.

    Every row has degree ell + 1, and with n >= ell + 2 rows ell* = ell, so
    the bounds miss; fewer rows can all share the hub, and then they meet.
    """
    ell = draw(st.integers(1, 2))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(max(n, 2 * ell + 2), 8))
    return planted_hub(random.Random(draw(st.integers(0, 2**16))), n, m, ell)


@st.composite
def small_graphs(draw):
    """Graphs with n <= 4 and m <= 5 columns, square (n = m) about half the time."""
    n = draw(st.integers(1, 4))
    m = draw(st.one_of(st.just(n), st.integers(n, 5)))
    cells = [(i, j) for i in range(n) for j in range(m)]
    edges = draw(st.sets(st.sampled_from(cells)))
    return sp.BipartiteGraph(n, m, frozenset(edges))


differential = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _witness_pair_outside_g(h, b, short):
    if b == 2:
        # Row 0 trades its last column for the first column outside g(0).
        held = h.row_cols[0]
        held.remove(max(held))
        held.add(min(j for j in range(h.g.n_right) if j not in h.adj[0]))
    return short


def _witness_row_short(h, b, short):
    if b == 2:
        h.row_cols[0].remove(min(h.row_cols[0]))
    return short


def _witness_column_over(h, b, short):
    if b == 2:
        # A row trades a held column for a full column of g(i): every row
        # keeps b pairs of g, but that column now has b + 1 rows.
        i, j = next(
            (i, j)
            for i, held in enumerate(h.row_cols)
            for j in h.adj[i]
            if j not in held and len(h.col_rows[j]) == b
        )
        h.row_cols[i].remove(min(h.row_cols[i]))
        h.row_cols[i].add(j)
    return short


def _level_1_said_short(h, b, short):
    return 1 if b == 1 else short


def _level_3_said_saturated(h, b, short):
    return 0 if b == 3 else short


WITNESS_REFUSED = "the sweep's witness is not"

# Forgeries of the sweep's H on Fig 3, which saturates levels 1 and 2 and
# falls short at 3, each with the message of the check that refuses it.
# The witness listed at level 2 holds a pair outside g, has a column over
# ell* = 2 or a row one short, or level 3 is reported saturated while a
# row is short: the witness check refuses each.  Level 1 reported short
# puts Fig 3's saturated flow under ell* = 0: its min cut refuses that.
FORGED_WITNESSES = pytest.mark.parametrize(
    "forge, message",
    [
        (_witness_pair_outside_g, WITNESS_REFUSED),
        (_witness_column_over, WITNESS_REFUSED),
        (_witness_row_short, WITNESS_REFUSED),
        (_level_1_said_short, "flow 4 saturates level 1 said to fall short"),
        (_level_3_said_saturated, WITNESS_REFUSED),
    ],
    ids=[
        "edge-outside-g",
        "not-2-matchings",
        "row-missing",
        "witness-under-ell-0",
        "short-level-saturated",
    ],
)


def forge_sweep(monkeypatch, forge):
    """Make every fill tell its caller ``forge(h, b, short)``, after the forgery has changed H.

    The next fill starts from the true H again, so of the sweep only the
    witness it lists between the two fills is forged, and the min cut it
    checks is the true one.
    """
    fill = flow_engine._BMatching.fill

    def forged(self, b):
        self.row_cols = getattr(self, "true_row_cols", self.row_cols)
        short = fill(self, b)
        self.true_row_cols = [set(held) for held in self.row_cols]
        return forge(self, b, short)

    monkeypatch.setattr(flow_engine._BMatching, "fill", forged)


def _row_over(h, b):
    h.row_cols[0].add(min(set(range(b + 1)) - h.row_cols[0]))


def _row_under(h, b):
    h.row_cols[0].remove(min(h.row_cols[0]))


def _column_over(h, b):
    # A row trades a held pair outside g for a full column outside g of the
    # same potential: its own reduced costs are unchanged, but that column
    # now has b + 1 rows.
    for i, held in enumerate(h.row_cols):
        for j in sorted(held - h.in_g[i]):
            for full in range(h.g.n_right):
                if (
                    full not in held
                    and full not in h.in_g[i]
                    and h.pi_col[full] == h.pi_col[j]
                    and len(h.col_rows[full]) == b
                ):
                    held.remove(j)
                    held.add(full)
                    return
    raise AssertionError("no pair can be moved onto a full column")


# Corruptions of a fair b-matching's H for forge_certify, each with the
# message of the one certificate condition it breaks.
FORGED_PLANS = pytest.mark.parametrize(
    "corrupt, message",
    [
        (_row_over, r"row 0 has degree \d+, not \d+"),
        (_row_under, r"row 0 has degree \d+, not \d+"),
        (_column_over, r"column \d+ at degree \d+"),
    ],
    ids=["row-over", "row-under", "column-over"],
)


def forge_certify(monkeypatch, corrupt):
    """Make every certificate check H after ``corrupt(h, b)`` has changed it."""
    certify = flow_engine._BMatching.certify

    def forged(self, b):
        corrupt(self, b)
        return certify(self, b)

    monkeypatch.setattr(flow_engine._BMatching, "certify", forged)


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name``; returns a one-item list that holds the count."""
    count, fn = [0], getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count
