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
  ell stays feasible at ell+1 and is extended from the rows below it;
* :func:`min_cost_b_matching` solves the 0/1-cost fair b-matching on the
  implicit complete graph by the primal-dual method: fills over the arcs
  of zero reduced cost, starting from the maximum b-matching of g itself,
  alternate with one Dijkstra each, and the final dual potentials certify
  the result; lifting a union of k matchings by ell is the same solve at
  b = k+ell.  The complement of g is never listed: a pair outside g costs
  1, so its column matters only through its potential, and the columns
  are grouped into potential classes.  The Dijkstra, the fills and the
  certificate each treat a class as a whole, skipping only the row's own
  columns in g and H, so a solve costs about (|E| + n*b) per class rather
  than n*m.  Each fill first gives a short row, in one pass, the
  columns a search from it would pick first, and searches only for the
  units still missing;
* weak resilience starts from the sweep and, where its bounds do not
  settle it, repairs per removal subset S one of the witness's matchings
  by a level-1 fill of g - S (:meth:`_BMatching.repair`); the min cut of
  g - S proves the first repair that falls short.

Within one fill, the columns a failed search reached stay closed, and
later searches of that fill skip them, so a level where many rows fall
short costs about one pass over g rather than one per short row.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
import heapq
from itertools import islice

from .errors import NotMaximalError, VerificationError
from .pattern import BipartiteGraph, _checked, check_dense_size


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
    class ascending, and that scan order is the contract that fixes which
    b-matching comes out.  :meth:`fill` gives each short row, in one pass,
    the columns of its own ``reach`` with room before the first raise, or
    after it, while the row's class is that of t, the columns of ``room``:
    those are the search's own first picks, so the contract holds, and
    :meth:`_search` runs only for the units the pass leaves.

    Before the first raise every potential is 0, ``reach`` is g's own
    adjacency, no pair outside g has reduced cost 0, and H is the flow of
    ``build_resilience_network(g, b)``.  Rank and the sweep never raise,
    so the potentials, the classes and g's column sets are built on first
    use; ``pi_row`` is None until then.  ``repair`` never raises either; it
    narrows ``reach`` to a subgraph of g.
    """

    def __init__(self, g: BipartiteGraph):
        self.g = g
        self.adj = [[] for _ in range(g.n_left)]
        for (i, j) in g.sorted_edges:
            self.adj[i].append(j)
        self.reach = self.adj
        self.row_cols = [set() for _ in range(g.n_left)]
        self.col_rows = [set() for _ in range(g.n_right)]
        self.pi_row = self.pi_col = self.in_g = self.classes = None

    def _build_potentials(self) -> None:
        """Zero potentials and g's column set per row, unless already built."""
        if self.pi_row is None:
            self.in_g = [set(cols) for cols in self.adj]
            self.pi_row = [0] * self.g.n_left
            self.pi_col = [0] * self.g.n_right
            self.pi_t = 0
            self.classes = {0: list(range(self.g.n_right))}

    def _search(self, r: int, b: int, closed: set, room, free) -> bool:
        """A breadth-first search for an augmenting path from row r; False if none.

        :meth:`fill` calls it only once row r's own pass has taken every
        column it could, so the root's first scan finds nothing to take.
        ``closed`` holds the columns that earlier failed searches of the
        same fill reached, and a failure adds the columns it reached.  A
        failed search reaches a set that no residual arc of zero reduced
        cost leaves and in which no column has room.  A later augmenting
        path avoids that set and flips arcs outside it only, so the set
        stays closed until b or the potentials change, and skipping it
        keeps the order in which every other node is found.

        After a raise, ``room`` and ``free`` are given and row u goes on to
        its class c = pi(u) + 1.  A column with room sits at pi(t), so if c
        is pi(t), the first column of ``room`` outside g(u) and H(u) is
        where an ascending scan of the class would stop.  Otherwise the
        search visits the class's columns outside g(u) and H(u) that it has
        not reached yet, ascending: ``free[c]``, narrowed per search in
        ``unvisited``, so each column is visited once per search and row u
        skips only the columns of g(u) and H(u).  A failure drops the
        columns it closed from ``free``.
        """
        reach, row_cols, col_rows = self.reach, self.row_cols, self.col_rows
        pi_row, pi_col, in_g = self.pi_row, self.pi_col, self.in_g
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
                if free is None:
                    continue
                mine, c = in_g[u], pi_row[u] + 1
                j = -1
                if c == self.pi_t:
                    for k in room:
                        if k not in held and k not in mine:
                            j = k
                            break
                if j < 0:
                    kept = []
                    for j in unvisited.get(c, free.get(c, ())):
                        if j in via or j in closed:
                            continue
                        if j in held or j in mine:
                            kept.append(j)
                            continue
                        via[j] = u
                        for w in col_rows[j]:
                            if w not in parent and pi_col[j] - pi_row[w] == (j not in in_g[w]):
                                parent[w] = j
                                queue.append(w)
                    unvisited[c] = kept
                    continue
                via[j] = u
            # Column j has room: flip the path, each row taking its new
            # column and dropping the column it was reached through.
            if room is not None and len(col_rows[j]) == b - 1:
                del room[bisect_left(room, j)]
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
        for c in unvisited:
            free[c] = [j for j in free.get(c, ()) if j not in closed]
        return False

    def fill(self, b: int) -> int:
        """Augment every row up to degree b, in row order; the number of rows left short.

        This is a max flow over the arcs of zero reduced cost.  A column
        never rises above t, and one below t is full (its sink arc has a
        negative reduced cost), so a column with room sits at pi(t) and
        reaches t at reduced cost 0.  On a fresh engine it is the maximum
        b-matching of g.  The columns that failed searches close stay
        skipped for the rest of this call only, since a raise changes which
        arcs have reduced cost 0.  ``room`` lists the columns of class
        pi(t) with room, ascending, and drops each as it fills.

        Each short row i first takes, in one pass, the columns the search
        would pick first from i.  Before the first raise these are the
        columns of ``reach[i]`` it does not hold and that have room.  After
        a raise, a short row has been a source of every Dijkstra and is
        still at potential 0, below t, so ``reach[i]`` holds only full
        columns; where pi(i) + 1 is pi(t) the search then stops at the
        columns of ``room`` outside g(i) and H(i), ascending.  Only the
        units still missing cost a search.  Within one fill no column's
        degree falls and H(i) only grows, so a column the pass skipped
        stays ineligible and a successful search makes none eligible again:
        the pass picks what a search per unit would.
        """
        reach, row_cols, col_rows = self.reach, self.row_cols, self.col_rows
        closed = set()
        room = free = None
        if self.pi_row is not None:
            free = dict(self.classes)
            room = [j for j in free.get(self.pi_t, ()) if len(col_rows[j]) < b]
        short = 0
        for i in range(self.g.n_left):
            held = row_cols[i]
            if len(held) >= b:
                continue
            if room is None:
                for j in reach[i]:
                    if j not in held and len(col_rows[j]) < b:
                        held.add(j)
                        col_rows[j].add(i)
                        if len(held) == b:
                            break
            elif self.pi_row[i] + 1 == self.pi_t:
                mine = self.in_g[i]
                outside = (j for j in room if j not in held and j not in mine)
                for j in list(islice(outside, b - len(held))):
                    held.add(j)
                    col_rows[j].add(i)
                    if len(col_rows[j]) == b:
                        room.remove(j)
            while len(held) < b:
                if not self._search(i, b, closed, room, free):
                    short += 1
                    break
        return short

    def repair(self, match: list[int], removed) -> bool:
        """Whether g minus ``removed`` keeps a left-perfect matching: one level-1 fill of it.

        ``match[i]`` is row i's column in a left-perfect matching M of g,
        and ``removed`` is a combination of g's sorted edges.  H is reset to
        M less the removed pairs and ``reach`` to g's adjacency less them;
        then ``fill(1)`` re-augments the rows that lost their column, in
        ascending order.  H ends as a maximum flow of g minus ``removed``,
        so a failure is proven by ``verify_min_cut(1, True, removed)``.
        """
        reach = self.reach = self.adj[:]
        self.row_cols = row_cols = [{j} for j in match]
        self.col_rows = col_rows = [set() for _ in range(self.g.n_right)]
        for i, j in enumerate(match):
            col_rows[j].add(i)
        for (i, j) in removed:
            reach[i] = [c for c in reach[i] if c != j]
            if match[i] == j:
                row_cols[i] = set()
                col_rows[j] = set()
        return not self.fill(1)

    def verify_min_cut(self, b: int, short: bool, removed=()) -> None:
        """Check max-flow = min-cut in ``build_resilience_network`` of g less ``removed`` at b.

        Valid before any raise, while H is a flow of that network.  The
        source side is s plus the rows and columns s reaches in the
        residual graph; its capacity is summed from ``adj`` less ``removed``,
        not from ``reach``, which a wrong ``repair`` could narrow too far.
        With ``short`` the flow must also fall below n * b: level b is infeasible.
        """
        n, row_cols, col_rows = self.g.n_left, self.row_cols, self.col_rows
        adj = self.adj
        if removed:
            adj = adj[:]
            for (i, j) in removed:
                adj[i] = [c for c in adj[i] if c != j]
        rows = {i for i in range(n) if len(row_cols[i]) < b}
        cols = set()
        queue = deque(rows)
        while queue:
            u = queue.popleft()
            for j in adj[u]:
                if j in row_cols[u] or j in cols:
                    continue
                if len(col_rows[j]) < b:
                    raise VerificationError(
                        f"an augmenting path remains at level {b}; flow is not maximum"
                    )
                cols.add(j)
                for w in col_rows[j]:
                    if w not in rows:
                        rows.add(w)
                        queue.append(w)
        capacity = b * (n - len(rows) + len(cols))
        capacity += sum(1 for i in rows for j in adj[i] if j not in cols)
        value = sum(len(held) for held in row_cols)
        if capacity != value:
            raise VerificationError(f"max-flow {value} != min-cut {capacity} at level {b}")
        if short and value >= n * b:
            raise VerificationError(f"flow {value} saturates level {b} said to fall short")

    def raise_potentials(self, b: int) -> bool:
        """One Dijkstra from the short rows in reduced costs; False if t is out of reach.

        Each potential rises by min(dist, dist(t)), which keeps every
        reduced cost >= 0 and brings a shortest path to t to reduced cost 0.
        Arcs out of t are left out: what they reach lies at least dist(t)
        away, and the update never adds more than dist(t).

        A popped row x relaxes its columns in g one by one and each class q
        up to pi(x) + 1 as a whole, by one heap entry at distance
        d(x) + pi(x) + 1 - q.  When that entry pops, it settles the class's
        unsettled columns outside g(x) and H(x) at that distance; the ones
        it skips are charged to x's degree and b.  That is
        O((|E| + n*b)*P + m) heap work for P classes, and the distances
        are those of the dense scan.  ``reach`` and ``classes`` are then
        rebuilt from the new potentials.
        """
        self._build_potentials()
        n, m = self.g.n_left, self.g.n_right
        adj, row_cols, col_rows, in_g = self.adj, self.row_cols, self.col_rows, self.in_g
        pi_row, pi_col, pi_t = self.pi_row, self.pi_col, self.pi_t
        inf = float("inf")
        d_row = [0 if len(held) < b else inf for held in row_cols]
        d_col = [inf] * m
        d_t = inf
        settled = [False] * m
        unsettled = dict(self.classes)  # class -> columns not yet settled, ascending
        # (dist, 0, row), (dist, 1, column), (dist, 2, 0) for t, (dist, 3, (class, row))
        heap = [(0, 0, i) for i in range(n) if d_row[i] == 0]
        while heap:
            d, side, x = heapq.heappop(heap)
            if side == 2:
                break
            if side == 0:
                if d > d_row[x]:
                    continue
                held, base = row_cols[x], d + pi_row[x]
                for j in adj[x]:
                    if j not in held:
                        nd = base - pi_col[j]
                        if nd < d_col[j]:
                            d_col[j] = nd
                            heapq.heappush(heap, (nd, 1, j))
                for q, cols in unsettled.items():
                    nd = base + 1 - q
                    # A class above pi(x) + 1 holds only columns of H(x).
                    if cols and d <= nd < d_t:
                        heapq.heappush(heap, (nd, 3, (q, x)))
                continue
            if side == 1:
                if settled[x] or d > d_col[x]:
                    continue
                batch = (x,)
            else:
                q, r = x
                held, mine, kept, batch = row_cols[r], in_g[r], [], []
                for j in unsettled[q]:
                    if not settled[j]:
                        (kept if j in held or j in mine else batch).append(j)
                unsettled[q] = kept
            for j in batch:
                settled[j] = True
                d_col[j] = d
                rows, base = col_rows[j], d + pi_col[j]
                if len(rows) < b and base - pi_t < d_t:
                    d_t = base - pi_t
                    heapq.heappush(heap, (d_t, 2, 0))
                for w in rows:
                    nd = base - (j not in in_g[w]) - pi_row[w]
                    if nd < d_row[w]:
                        d_row[w] = nd
                        heapq.heappush(heap, (nd, 0, w))
        if d_t == inf:
            return False
        if d_t == 0:
            # The fill before this raise was a max flow over these very arcs.
            raise VerificationError(
                f"a path of reduced cost 0 remains at level {b}; the fill was not maximum"
            )
        self.pi_row = pi_row = [p + min(d, d_t) for p, d in zip(pi_row, d_row)]
        self.pi_col = pi_col = [p + min(d, d_t) for p, d in zip(pi_col, d_col)]
        self.pi_t = pi_t + d_t
        self.classes = _classes(pi_col)
        self.reach = [[j for j in adj[u] if pi_col[j] == pi_row[u]] for u in range(n)]
        return True

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
    g: a union of ell* disjoint left-perfect matchings (empty if ell* = 0).
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
    """Rank, ell* and a witness from one warm-started ascending sweep.

    Level 1 gives the rank.  With full rank each further level augments
    every row once more, until a row falls short; no level above the
    minimum left degree saturates, so the sweep ends there at the latest.
    The pairs H holds at each saturated level are listed as the witness
    before the next probe, because a failed probe changes H.  The failed
    level ends as a maximum flow, and its min cut is checked.
    """
    n = g.n_left
    h = _BMatching(g)
    short = h.fill(1)
    rank = n - short
    ell, witness = 0, []
    while not short:
        ell += 1
        witness = [(i, j) for i in range(n) for j in h.row_cols[i]]
        short = h.fill(ell + 1)
    h.verify_min_cut(ell + 1, short=True)
    # Pairs of g, so in range: not checked here, but by _sweep as a whole.
    witness = _checked(BipartiteGraph, n_left=n, n_right=g.n_right, edges=frozenset(witness))
    return ResilienceSweep(rank, ell, witness)


def min_cost_b_matching(
    g: BipartiteGraph, b: int
) -> tuple[frozenset[tuple[int, int]], int]:
    """A b-matching of K(n, m) with every row at degree b and fewest pairs outside g.

    Returns the pairs and how many lie outside g.  Phases of max flow over
    the zero-reduced-cost arcs alternate with one Dijkstra each until no
    row is short; the first phase, at zero potentials, is the maximum
    b-matching of g, so only the rows it leaves short cost a Dijkstra.
    The final potentials certify the result.  The complement of g is
    never listed, so the n*b pairs returned, not the n*m cells, are held
    to the dense-size cap.
    """
    check_dense_size(g.n_left, b)
    h = _BMatching(g)
    while h.fill(b) and h.raise_potentials(b):
        pass
    cost = h.certify(b)
    return frozenset((i, j) for i, held in enumerate(h.row_cols) for j in held), cost
