"""Integer-capacity flow networks and the two resilience constructions.

The paper's two networks share one node layout: 0 = s, 1 = t, 2 + i =
row i and 2 + n + j = column j.

* :func:`build_resilience_network` routes flow s -> rows -> columns -> t
  through the pattern's own edges, with source/sink capacity ``ell``.  A
  saturated flow (value n*ell) certifies ell disjoint left-perfect matchings.
* :func:`build_augmentation_network` routes flow through the *complement*
  edges, with sink capacities (k+1) - deg(column); a flow of value n picks
  n complement edges that lift a union of k matchings to k+1.

:func:`max_flow`, the one network solver, is deterministic: nodes and arcs
are scanned in ascending index order, so repeated runs on the same network
produce identical flows.  It checks max-flow = min-cut before it returns
and raises :class:`~sprank.errors.VerificationError` if the two differ.

No library solve builds either network: they are the paper's constructions
and the reference the tests check the engine below against.  Structural
rank, strong resilience, weak resilience and augmentation share one
b-matching engine: the flow of s -> rows -> columns -> t
with capacity b on every source and sink arc, kept as a b-matching H and
grown by shortest augmenting paths (Hopcroft & Karp 1973) over the arcs of
zero reduced cost.  At zero potentials those arcs are g's own edges, so
the flow is the flow of the resilience network at level b:

* :func:`matching_number` fills level 1 and checks its min cut;
* :func:`resilience_sweep` raises the level one step at a time.  Raising
  the level only raises the source and sink capacities, so the flow at
  ell stays feasible at ell+1 and is extended from the rows below it.
  It checks the first short level's min cut and the witness itself;
* :func:`min_cost_b_matching` solves the 0/1-cost fair b-matching on the
  implicit complete graph by the primal-dual method: fills over the arcs
  of zero reduced cost, starting from the maximum b-matching of g itself,
  alternate with one unit raise of the potentials each, and the final
  dual potentials certify the result; lifting a union of k matchings by
  ell is the same solve at b = k+ell.  Each raise lifts every node
  outside the last fill's cut, and t, by one, so at most n raises run.
  The complement of g is never listed: a pair outside g costs 1, so its
  column matters only through its potential, and the columns are grouped
  into potential classes.  The raises, the fills and the certificate each
  treat a class as a whole, skipping only the row's own columns in g and
  H, so a raise costs about |E| + n*b + m rather than n*m.  Each fill
  first gives a short row, in one pass, the columns a search from it
  would pick first, and searches only for the units still missing;
* weak resilience starts from the sweep and, where its bounds do not
  settle it, repairs per removal subset S one of the witness's matchings
  by a level-1 fill of g - S (:meth:`_BMatching.repair`), which checks
  its matching, or proves by the min cut of g - S that it falls short.

Within one fill, the rows and columns a failed search reached stay
closed: no arc of zero reduced cost leaves them and no column among them
has room.  Later searches of that fill skip them, so a level where many
rows fall short costs about one pass over g rather than one per short row.
Before any raise, s and the closed rows and columns are the source side
of the level's minimum cut, which :meth:`_BMatching.verify_min_cut` checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

from .errors import NotMaximalError, VerificationError
from .pattern import BipartiteGraph, _check_pattern_shape, _checked, check_dense_size
from .pattern import is_union_of_k_matchings


@dataclass(frozen=True)
class Arc:
    """A directed arc with integer capacity and cost."""

    tail: int
    head: int
    capacity: int
    cost: int = 0

    def __post_init__(self):
        if self.capacity < 0 or self.cost < 0:
            raise ValueError("capacities and costs must be nonnegative integers")


@dataclass(frozen=True)
class FlowNetwork:
    """A directed network with distinguished source and sink nodes."""

    node_count: int
    source: int
    sink: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        seen = set()
        for a in self.arcs:
            if not (0 <= a.tail < self.node_count and 0 <= a.head < self.node_count):
                raise ValueError(f"arc ({a.tail}, {a.head}) out of range")
            if a.head == self.source:
                raise ValueError("source must have no incoming arcs")
            if a.tail == self.sink:
                raise ValueError("sink must have no outgoing arcs")
            if (a.tail, a.head) in seen:
                raise ValueError(f"duplicate arc ({a.tail}, {a.head})")
            seen.add((a.tail, a.head))


@dataclass(frozen=True)
class Flow:
    """An integral flow assignment on a network."""

    network: FlowNetwork
    arc_values: tuple[int, ...]
    value: int

    def __post_init__(self):
        net = self.network
        if len(self.arc_values) != len(net.arcs):
            raise ValueError("one flow value per arc required")
        balance = [0] * net.node_count
        for a, v in zip(net.arcs, self.arc_values):
            if not 0 <= v <= a.capacity:
                raise ValueError(f"flow {v} violates capacity {a.capacity}")
            balance[a.tail] -= v
            balance[a.head] += v
        for node in range(net.node_count):
            if node in (net.source, net.sink):
                continue
            if balance[node] != 0:
                raise ValueError(f"flow unbalanced at node {node}")
        if -balance[net.source] != self.value or balance[net.sink] != self.value:
            raise ValueError("flow value must equal source outflow and sink inflow")

    def cost(self) -> int:
        return sum(a.cost * v for a, v in zip(self.network.arcs, self.arc_values))


@dataclass(frozen=True)
class Cut:
    """An s-t cut given by its source-side node set."""

    source_side: frozenset[int]
    capacity: int


def build_resilience_network(g: BipartiteGraph, ell: int) -> FlowNetwork:
    """Directed network whose saturated flows certify ell disjoint matchings.

    Node layout: 0 = s, 1 = t, 2..2+n-1 = left nodes, then right nodes.
    Source and sink arcs have capacity ell; each pattern edge becomes a
    unit-capacity middle arc.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    n, m = g.n_left, g.n_right
    left = lambda i: 2 + i
    right = lambda j: 2 + n + j
    arcs = []
    for i in range(n):
        arcs.append(Arc(0, left(i), ell))
    for (i, j) in g.sorted_edges:
        arcs.append(Arc(left(i), right(j), 1))
    for j in range(m):
        arcs.append(Arc(right(j), 1, ell))
    return FlowNetwork(2 + n + m, 0, 1, tuple(arcs))


def build_augmentation_network(g: BipartiteGraph, k: int) -> FlowNetwork:
    """Directed network over the complement of g for the k -> k+1 step.

    Unit arcs s -> row and row -> column for every non-edge; sink arcs
    column -> t with capacity max(0, (k+1) - deg(column)).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    check_dense_size(g.n_left, g.n_right)
    n, m = g.n_left, g.n_right
    left = lambda i: 2 + i
    right = lambda j: 2 + n + j
    right_deg = g.right_degrees()
    arcs = []
    for i in range(n):
        arcs.append(Arc(0, left(i), 1))
    for i in range(n):
        for j in range(m):
            if (i, j) not in g.edges:
                arcs.append(Arc(left(i), right(j), 1))
    for j in range(m):
        cap = max(0, (k + 1) - right_deg[j])
        arcs.append(Arc(right(j), 1, cap))
    return FlowNetwork(2 + n + m, 0, 1, tuple(arcs))


def _residual_adjacency(net: FlowNetwork):
    """adj[node] -> list of (neighbor, arc index, forward?) in scan order."""
    adj = [[] for _ in range(net.node_count)]
    for idx, a in enumerate(net.arcs):
        adj[a.tail].append((a.head, idx, True))
        adj[a.head].append((a.tail, idx, False))
    for entries in adj:
        entries.sort(key=lambda e: (e[0], not e[2], e[1]))
    return adj


def max_flow(net: FlowNetwork) -> Flow:
    """Integral maximum flow via shortest augmenting paths (Edmonds-Karp)."""
    adj = _residual_adjacency(net)
    values = [0] * len(net.arcs)
    total = 0
    while True:
        # BFS for a shortest residual s-t path, smallest-index tie-break.
        prev = [None] * net.node_count
        prev[net.source] = (net.source, -1, True)
        queue = deque([net.source])
        while queue:
            u = queue.popleft()
            if u == net.sink:
                break
            for (v, idx, fwd) in adj[u]:
                if prev[v] is not None:
                    continue
                residual = net.arcs[idx].capacity - values[idx] if fwd else values[idx]
                if residual > 0:
                    prev[v] = (u, idx, fwd)
                    queue.append(v)
        if prev[net.sink] is None:
            break
        # Bottleneck and augmentation.
        path = []
        v = net.sink
        while v != net.source:
            u, idx, fwd = prev[v]
            path.append((idx, fwd))
            v = u
        bottleneck = min(
            net.arcs[idx].capacity - values[idx] if fwd else values[idx]
            for (idx, fwd) in path
        )
        for (idx, fwd) in path:
            values[idx] += bottleneck if fwd else -bottleneck
        total += bottleneck
    flow = Flow(net, tuple(values), total)
    _verify_min_cut(net, adj, flow)
    return flow


def min_cut(net: FlowNetwork, f: Flow) -> Cut:
    """Source side of a minimum cut: residual-reachable nodes from s."""
    return _min_cut(net, _residual_adjacency(net), f.arc_values)


def _min_cut(net: FlowNetwork, adj, values) -> Cut:
    reachable = {net.source}
    queue = deque([net.source])
    while queue:
        u = queue.popleft()
        for (v, idx, fwd) in adj[u]:
            if v in reachable:
                continue
            residual = net.arcs[idx].capacity - values[idx] if fwd else values[idx]
            if residual > 0:
                reachable.add(v)
                queue.append(v)
    if net.sink in reachable:
        raise NotMaximalError("a residual augmenting path exists; flow is not maximum")
    capacity = sum(
        a.capacity
        for a in net.arcs
        if a.tail in reachable and a.head not in reachable
    )
    return Cut(frozenset(reachable), capacity)


def _verify_min_cut(net: FlowNetwork, adj, flow: Flow) -> None:
    """Check max-flow = min-cut on the residual adjacency the solver built."""
    cut = _min_cut(net, adj, flow.arc_values)
    if cut.capacity != flow.value:
        raise VerificationError(f"max-flow {flow.value} != min-cut {cut.capacity}")


def _classes(pi_col: list[int]) -> dict[int, list[int]]:
    """Column potential -> the columns at that potential, ascending."""
    classes = {}
    for j, q in enumerate(pi_col):
        classes.setdefault(q, []).append(j)
    return classes


class _BMatching:
    """A b-matching H of K(n, m): the flow of s -> rows -> columns -> t.

    Each call names b, the capacity of every source and sink arc; the unit
    arc of a pair (i, j) costs 0 if g has the edge and 1 if not.
    ``row_cols[i]`` and ``col_rows[j]`` hold H's pairs at row i and column
    j.  Potentials for the rows, the columns and t (s stays at 0) keep
    every residual arc at reduced cost c(u, v) + pi(u) - pi(v) >= 0.

    The complement of g is never listed.  A pair outside g costs 1, so all
    a search needs to know of such a column is its potential: ``classes``
    maps each column potential to its columns, ascending.  Row u reaches at
    reduced cost 0 the columns of ``reach[u]``, which is only g's
    adjacency at u's potential, and then the columns of class pi(u) + 1
    outside g(u).  Every search scans them in that order, g first and the
    class ascending, and takes a column with room where the scan meets it.
    That scan order and that one stop rule are the contract that fixes
    which b-matching comes out.  :meth:`fill` gives each short row, in one
    pass in the same order, the columns its search would stop at first,
    and :meth:`_search` runs only for the units the pass leaves.

    ``adj`` is g's row layout, read and never copied.  Before the first
    raise every potential is 0, ``reach`` is ``adj``, no pair outside g has
    reduced cost 0, and H is the flow of ``build_resilience_network(g, b)``.
    Rank and the sweep never raise, so the potentials, the classes and g's
    column sets are built on first use; ``pi_row`` is None until then.
    ``repair`` never raises either; it narrows ``reach`` to a subgraph of g.
    :meth:`_search` reads the last fill's ``cut``, empty until the first
    fill; each :meth:`raise_potentials` is a unit raise off that cut, and
    a solve runs at most n of them.
    """

    def __init__(self, g: BipartiteGraph):
        self.g = g
        self.adj = self.reach = g._layout.cols
        self.row_cols = [set() for _ in range(g.n_left)]
        self.col_rows = [set() for _ in range(g.n_right)]
        self.cut = (set(), set())
        self.pi_row = self.pi_col = self.in_g = self.classes = None

    def _build_potentials(self) -> None:
        """Zero potentials and g's column set per row, unless already built."""
        if self.pi_row is None:
            self.in_g = [set(cols) for cols in self.adj]
            self.pi_row = [0] * self.g.n_left
            self.pi_col = [0] * self.g.n_right
            self.pi_t = 0
            self.classes = {0: list(range(self.g.n_right))}

    def _search(self, r: int, b: int) -> bool:
        """A breadth-first search for an augmenting path from row r; False if none.

        :meth:`fill` calls it only once row r's own pass has taken every
        column it could, so the root's first scan finds nothing to take.
        The search skips the columns of the fill's ``cut``, which earlier
        failed searches of the same fill reached, and a failure adds the
        columns it reached, and the rows, to that cut.  A failed search
        reaches a set that no residual arc of zero reduced cost leaves and
        in which no column has room.  A later augmenting path avoids that
        set and flips arcs outside it only, so the set stays closed until b
        or the potentials change, and skipping it keeps the order in which
        every other node is found.

        Once the potentials exist, row u goes on to its class c = pi(u) + 1:
        the columns of ``classes[c]`` outside the cut, ascending, narrowed
        in ``unvisited`` so each is visited once per search; row u skips
        only those of g(u) and H(u).  As in ``reach[u]``, the first column
        with room ends the search.  Only class pi(t) has such columns, and
        the narrowing never drops one: reaching it ends the search, and
        the cut holds none.
        """
        reach, row_cols, col_rows = self.reach, self.row_cols, self.col_rows
        pi_row, pi_col, in_g = self.pi_row, self.pi_col, self.in_g
        rows, closed = self.cut
        via = {}  # column -> the row that reached it over a pair outside H
        parent = {r: -1}  # row -> the column that reached it over a pair of H
        unvisited = {}  # class -> its columns this search has not reached
        queue = deque([r])
        while queue:
            u = queue.popleft()
            held = row_cols[u]
            for j in reach[u]:
                if j in held or j in via or j in closed:
                    continue
                via[j] = u
                if len(col_rows[j]) < b:
                    break
                for w in col_rows[j]:
                    # Back over the pair (w, j) of H only at reduced cost 0,
                    # which every pair has at zero potentials.
                    if w not in parent and (
                        pi_row is None or pi_col[j] - pi_row[w] == (j not in in_g[w])
                    ):
                        parent[w] = j
                        queue.append(w)
            else:
                if pi_row is None:
                    continue
                mine, c = in_g[u], pi_row[u] + 1
                kept = []
                for j in unvisited.get(c, self.classes.get(c, ())):
                    if j in via or j in closed:
                        continue
                    if j in held or j in mine:
                        kept.append(j)
                        continue
                    via[j] = u
                    if len(col_rows[j]) < b:
                        break
                    for w in col_rows[j]:
                        if w not in parent and pi_col[j] - pi_row[w] == (j not in in_g[w]):
                            parent[w] = j
                            queue.append(w)
                else:
                    unvisited[c] = kept
                    continue
            # Column j has room: flip the path, each row taking its new
            # column and dropping the column it was reached through.
            while j >= 0:
                u = via[j]
                row_cols[u].add(j)
                col_rows[j].add(u)
                j = parent[u]
                if j >= 0:
                    row_cols[u].discard(j)
                    col_rows[j].discard(u)
            return True
        closed.update(via)
        rows.update(parent)
        return False

    def fill(self, b: int) -> int:
        """Augment every row up to degree b, in row order; the number of rows left short.

        This is a max flow over the arcs of zero reduced cost.  A column
        never rises above t, and one below t is full (its sink arc has a
        negative reduced cost), so a column with room sits at pi(t) and
        reaches t at reduced cost 0.  On a fresh engine it is the maximum
        b-matching of g.  The columns that failed searches close stay
        skipped for the rest of this call only, since a raise changes which
        arcs have reduced cost 0.  ``cut`` starts empty and gathers the
        rows and columns of this call's failed searches: with no raise
        since, the min cut :meth:`verify_min_cut` checks.

        Each short row i first takes, in one pass, the columns its search
        would stop at first, and searches only for the units still missing:
        those of ``reach[i]``, then, where pi(i) + 1 is pi(t), those of
        ``room`` outside g(i), each if i does not hold it and it has room.
        ``room`` lists class pi(t)'s columns with room when the fill starts,
        ascending (none before the first raise), less the full ones the
        pass drops from its front.  After a raise, a short row, a source of
        every raise, is still at potential 0, below t, so ``reach[i]`` holds
        only full columns.  Within one fill no column's degree falls and
        H(i) only grows, so a skipped column stays ineligible, ``room``
        holds every column that later has room, and a successful search
        makes none eligible again: the pass picks what a search per unit would.
        """
        reach, row_cols, col_rows, pi_row = self.reach, self.row_cols, self.col_rows, self.pi_row
        self.cut = (set(), set())
        room = ()
        if pi_row is not None:
            room = deque(j for j in self.classes.get(self.pi_t, ()) if len(col_rows[j]) < b)
        short = 0
        for i in range(self.g.n_left):
            held = row_cols[i]
            if len(held) >= b:
                continue
            cols = reach[i]
            if room and pi_row[i] + 1 == self.pi_t:
                while room and len(col_rows[room[0]]) == b:
                    room.popleft()
                cols = chain(cols, (j for j in room if j not in self.in_g[i]))
            for j in cols:
                if j not in held and len(col_rows[j]) < b:
                    held.add(j)
                    col_rows[j].add(i)
                    if len(held) == b:
                        break
            while len(held) < b:
                if not self._search(i, b):
                    short += 1
                    break
        return short

    def repair(self, match: list[int], removed) -> list[tuple[int, int]] | None:
        """A left-perfect matching of g minus ``removed``, as pairs; None if it has none.

        ``match[i]`` is row i's column in a left-perfect matching M of g,
        and ``removed`` is a combination of g's sorted edges.  H is reset to
        M less the removed pairs and ``reach`` to g's adjacency less them;
        then ``fill(1)`` re-augments the rows that lost their column, in
        ascending order.  H ends as a maximum flow of g minus ``removed``,
        so a failure is proven by ``verify_min_cut(1, True, removed)``; a
        wrong matching in the pool would pass every later subset that
        misses it, so a success is checked: one column per row, n distinct
        columns, every pair an edge of g, and none removed.
        """
        reach = self.reach = list(self.adj)
        self.row_cols = row_cols = [{j} for j in match]
        self.col_rows = col_rows = [set() for _ in range(self.g.n_right)]
        for i, j in enumerate(match):
            col_rows[j].add(i)
        for (i, j) in removed:
            reach[i] = [c for c in reach[i] if c != j]
            if match[i] == j:
                row_cols[i] = set()
                col_rows[j] = set()
        if self.fill(1):
            self.verify_min_cut(1, short=True, removed=removed)
            return None
        pairs = [(i, j) for i, held in enumerate(self.row_cols) for j in held]
        rows, cols = {i for (i, _) in pairs}, {j for (_, j) in pairs}
        if (
            not len(pairs) == len(rows) == len(cols) == self.g.n_left
            or not self.g.edges.issuperset(pairs)
            or not set(removed).isdisjoint(pairs)
        ):
            raise VerificationError(
                f"repair after removing {removed} left no left-perfect matching of the "
                "reduced graph"
            )
        return pairs

    def verify_min_cut(self, b: int, short: bool, removed=()) -> None:
        """Check max-flow = min-cut in ``build_resilience_network`` of g less ``removed`` at b.

        The source side is s and the last fill's ``cut``.  Its capacity is
        summed from ``adj`` less ``removed``, not from ``reach``, which a
        wrong ``repair`` could narrow too far.  No flow exceeds any cut, so
        one whose capacity equals H's value proves both optimal, wherever
        it came from: a search that missed a path, or a stale or forged
        cut, leaves them apart.  Valid only before a raise, while H is a
        flow of that network.  With ``short`` the flow must also fall below
        n * b: level b is infeasible.
        """
        n, adj, (rows, cols) = self.g.n_left, self.adj, self.cut
        removed = set(removed)
        capacity = b * (n - len(rows) + len(cols))
        capacity += sum(1 for i in rows for j in adj[i] if j not in cols and (i, j) not in removed)
        value = sum(len(held) for held in self.row_cols)
        if capacity != value:
            raise VerificationError(f"max-flow {value} != min-cut {capacity} at level {b}")
        if short and value >= n * b:
            raise VerificationError(f"flow {value} saturates level {b} said to fall short")

    def raise_potentials(self, b: int) -> None:
        """Lift every row and column outside the last fill's ``cut``, and t, by one.

        The cut holds what the fill's failed searches reached from the short
        rows over arcs of zero reduced cost, so every arc that leaves it has
        reduced cost 1 or more: lifting the far side by one keeps every
        reduced cost >= 0, and every path from a short row to t, which must
        leave the cut, gets one cheaper.  With 0/1 costs, dist(t) such unit
        raises, the fills between them adding nothing, give the potentials
        of one Dijkstra raise by min(dist, dist(t)): the dual step of Kuhn's
        Hungarian method.  ``classes`` and ``reach`` are then rebuilt from
        the new potentials.

        The cut must first show t out of reach at reduced cost 0, or the
        raise refuses: it holds every short row and no column with room,
        and no arc of reduced cost 0 leaves it, neither a pair (x, j) of g
        outside H with pi(j) = pi(x), a pair outside g and H with
        pi(j) = pi(x) + 1, nor a pair of H backward.  On such a cut each
        column of class pi(x) + 1 outside it lies in g(x) or H(x), so that
        check scans, per cut row, only as many columns as g(x) and H(x)
        hold, and at zero potentials class 1 is empty.
        """
        self._build_potentials()
        rows, cols = self.cut
        adj, row_cols, col_rows, in_g = self.adj, self.row_cols, self.col_rows, self.in_g
        pi_row, pi_col = self.pi_row, self.pi_col
        needed = {pi_row[x] + 1 for x in rows}
        outside = {c: [j for j in self.classes.get(c, ()) if j not in cols] for c in needed}
        if (
            any(len(held) < b and i not in rows for i, held in enumerate(row_cols))
            or any(len(col_rows[j]) < b for j in cols)
            or any(
                j not in cols and pi_col[j] == pi_row[x] and j not in row_cols[x]
                for x in rows
                for j in adj[x]
            )
            or any(
                j not in row_cols[x] and j not in in_g[x] for x in rows for j in outside[pi_row[x] + 1]
            )
            or any(
                w not in rows and pi_col[j] - pi_row[w] == (j not in in_g[w])
                for j in cols
                for w in col_rows[j]
            )
        ):
            raise VerificationError(
                f"a path of reduced cost 0 remains at level {b}; the fill was not maximum"
            )
        self.pi_row = pi_row = [p + (i not in rows) for i, p in enumerate(pi_row)]
        self.pi_col = pi_col = [q + (j not in cols) for j, q in enumerate(pi_col)]
        self.pi_t += 1
        self.classes = _classes(pi_col)
        self.reach = [[j for j in row if pi_col[j] == p] for row, p in zip(adj, pi_row)]

    def certify(self, b: int) -> int:
        """Prove H a minimum-cost maximum flow by its potentials; return its cost.

        Every row at degree b saturates the cut {s}, so the flow is maximum,
        and no residual arc leaves s.  It is of minimum cost if no residual
        arc has a negative reduced cost: a pair outside H (forward) needs
        c + pi(i) - pi(j) >= 0 and a pair of H (backward) <= 0; a column
        below degree b (forward to t) needs pi(j) >= pi(t) and a column
        above degree 0 (backward from t) pi(j) <= pi(t).  Row i checks its
        pairs in H and g one by one.  Any other column costs 1 and needs
        pi(j) <= pi(i) + 1, so row i walks only the classes above that,
        each until its first column outside g(i) and H(i).  H is read from
        the rows alone and the classes from ``pi_col``.  Raises
        VerificationError if any condition fails, naming the row's smallest
        offending pair.
        """
        self._build_potentials()
        adj, in_g, pi_row, pi_col, pi_t = self.adj, self.in_g, self.pi_row, self.pi_col, self.pi_t
        high = sorted(_classes(pi_col).items(), reverse=True)
        col_deg = [0] * self.g.n_right
        cost = 0
        for i, held in enumerate(self.row_cols):
            if len(held) != b:
                raise VerificationError(
                    f"row {i} has degree {len(held)}, not {b}: the flow is not maximum"
                )
            mine, p = in_g[i], pi_row[i]
            bad = [j for j in held if (j not in mine) + p - pi_col[j] > 0]
            bad += [j for j in adj[i] if j not in held and p - pi_col[j] < 0]
            for q, cols in high:
                if q <= p + 1:
                    break
                for j in cols:
                    if j not in mine and j not in held:
                        bad.append(j)
                        break
            if bad:
                j = min(bad)
                raise VerificationError(
                    f"pair ({i}, {j}) has reduced cost {(j not in mine) + p - pi_col[j]}: "
                    "the flow is not of minimum cost"
                )
            for j in held:
                col_deg[j] += 1
                cost += j not in mine
        for j, (deg, q) in enumerate(zip(col_deg, pi_col)):
            if deg > b or (deg < b and q < pi_t) or (deg > 0 and q > pi_t):
                raise VerificationError(
                    f"column {j} at degree {deg} breaks complementary slackness "
                    f"(potential {q}, sink {pi_t}, capacity {b})"
                )
        return cost


@dataclass(frozen=True)
class ResilienceSweep:
    """What one ascending sweep over the resilience levels finds.

    ``witness`` is the saturated flow at level ``ell_star`` as a subgraph of
    g, checked to be ell* disjoint left-perfect matchings (none if ell* = 0).
    """

    rank: int
    ell_star: int
    witness: BipartiteGraph


def matching_number(g: BipartiteGraph) -> int:
    """Maximum matching size: the level-1 flow, by Kuhn's algorithm."""
    h = _BMatching(g)
    short = h.fill(1)
    h.verify_min_cut(1, short=False)
    return g.n_left - short


def resilience_sweep(g: BipartiteGraph) -> ResilienceSweep:
    """Rank, ell* and a checked witness from one warm-started ascending sweep.

    Level 1 gives the rank.  With full rank each further level augments
    every row once more, until a row falls short; no level above the
    minimum left degree saturates, so the sweep ends there at the latest.
    H's rows at each saturated level are copied before the next probe,
    because a failed probe changes H; the witness's pairs are listed once,
    from the last copy.  The failed level ends as a maximum flow, and its
    min cut is checked; the witness must be n * ell* pairs of g that form
    ell* disjoint left-perfect matchings.  ShapeError if g has fewer
    columns than rows.
    """
    _check_pattern_shape(g.n_left, g.n_right)
    n = g.n_left
    h = _BMatching(g)
    short = h.fill(1)
    rank = n - short
    ell, held = 0, []
    while not short:
        ell += 1
        held = [*map(tuple, h.row_cols)]
        short = h.fill(ell + 1)
    h.verify_min_cut(ell + 1, short=True)
    edges = frozenset((i, j) for i, cols in enumerate(held) for j in cols)
    # Checked to be pairs of g, so in range, just below.
    witness = _checked(BipartiteGraph, n_left=n, n_right=g.n_right, edges=edges)
    if (
        not edges <= g.edges
        # n * ell* pairs: none at all when ell* = 0.
        or len(edges) != n * ell
        or (ell and not is_union_of_k_matchings(witness, ell))
    ):
        raise VerificationError(
            f"the sweep's witness is not {ell} disjoint left-perfect matchings of g"
        )
    return ResilienceSweep(rank, ell, witness)


def min_cost_b_matching(
    g: BipartiteGraph, b: int
) -> tuple[frozenset[tuple[int, int]], int]:
    """A b-matching of K(n, m) with every row at degree b and fewest pairs outside g.

    Returns the pairs and how many lie outside g.  Fills over the arcs of
    zero reduced cost alternate with one unit raise of the potentials each,
    off the fill's cut, until no row is short; the first fill, at zero
    potentials, is the maximum b-matching of g, so only the rows it leaves
    short cost a raise.  A fill after a raise adds a unit only once t is
    at reduced cost 0, so some add none.  Each raise lifts t by one, and
    t ends at the cost of the last augmenting path, at most n: a simple
    path takes at most one pair of cost 1 per row.  So the r-th raise must
    put t at r, with r <= n, or the solve raises VerificationError; at
    most n raises run.  The final potentials certify the result.  The
    complement of g is never listed, so the n*b pairs returned, not the
    n*m cells, are held to the dense-size cap.
    """
    check_dense_size(g.n_left, b)
    h = _BMatching(g)
    raises = 0
    while h.fill(b):
        raises += 1
        h.raise_potentials(b)
        if h.pi_t != raises or raises > g.n_left:
            raise VerificationError(
                f"raise {raises} at level {b} put t at {h.pi_t}; "
                f"t rises by one a raise, at most n = {g.n_left} times"
            )
    cost = h.certify(b)
    return frozenset((i, j) for i, held in enumerate(h.row_cols) for j in held), cost
