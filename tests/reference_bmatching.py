"""Reference fill and raise for the tests.

:class:`SearchOnlyBMatching` is ``sprank.flow._BMatching.fill`` as it was
before the direct picks: every unit a short row needs runs the
breadth-first search, even when the row's own ``reach`` has a column with
room, or, after a raise, when its class is that of t and ``room`` has a
column outside g(r) and H(r).  Its search also keeps the shortcut the
engine's search no longer has: ``room`` is the list of class pi(t)'s
columns with room, edited as they fill, and a row whose class is that of
t jumps to the first of them outside g(r) and H(r).  The engine's search
scans the class instead and stops at the first column with room it meets,
so the shortcut is the reference for that stop.  The engine's fill takes
the same columns in one pass per row, as the search's own first picks; the
tests require the engine and :class:`SearchOnlyBMatching` to produce the
same b-matchings, sweeps, costs and repairs.

:class:`DijkstraOnlyBMatching` is the reference the engine's unit raises are
held to: every raise runs one Dijkstra from the short rows and lifts each
potential by min(dist, dist(t)), as ``sprank.flow._BMatching`` did before
its raises became unit raises off the fill's cut.  Where the Dijkstra puts
t k steps up, the engine takes k unit raises, with fills between them that
add nothing; the tests require it to reach the same potentials before the
fill that adds a unit, and to hold the same b-matching after every fill.
"""

from bisect import bisect_left
from collections import deque
import heapq

from sprank.errors import VerificationError
from sprank.flow import _BMatching, _classes


class SearchOnlyBMatching(_BMatching):
    """The engine with every augmentation done by the search."""

    def fill(self, b: int) -> int:
        """Augment every row up to degree b, in row order, one search per unit."""
        closed = set()
        self.cut = (set(), closed)
        room = free = None
        if self.pi_row is not None:
            free = dict(self.classes)
            room = [j for j in free.get(self.pi_t, ()) if len(self.col_rows[j]) < b]
        short = 0
        for i in range(self.g.n_left):
            while len(self.row_cols[i]) < b:
                if not self._push(i, b, closed, room, free):
                    short += 1
                    break
        return short

    def _push(self, r: int, b: int, closed: set, room, free) -> bool:
        """Push one unit s -> r -> ... -> t over arcs of zero reduced cost; False if none.

        ``closed`` holds the columns of the fill's cut, which
        :meth:`sprank.flow._BMatching._search` skips too.  ``room`` and
        ``free`` are this class's own, both None before the first raise:
        ``room`` lists class pi(t)'s columns with room, edited as they
        fill, for the shortcut the module docstring names, and ``free``
        maps each potential to its columns that no failed search of the
        fill has closed.
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
        self.cut[0].update(parent)
        for c in unvisited:
            free[c] = [j for j in free.get(c, ()) if j not in closed]
        return False


class DijkstraOnlyBMatching(_BMatching):
    """The engine with every raise done by the Dijkstra."""

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
