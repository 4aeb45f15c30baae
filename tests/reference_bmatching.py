"""Reference fill for the tests: a search for every augmenting path.

This is ``sprank.flow._BMatching.fill`` as it was before the direct picks:
every unit a short row needs runs the breadth-first search, even when the
row's own ``reach`` has a column with room, or, after a raise, when its
class is that of t and ``room`` has a column outside g(r) and H(r).  The
engine's fill takes those columns in one pass per row, as the search's own
first picks; the tests require the engine and :class:`SearchOnlyBMatching`
to produce the same b-matchings, sweeps, costs and repairs.
"""

from bisect import bisect_left
from collections import deque

from sprank.flow import _BMatching


class SearchOnlyBMatching(_BMatching):
    """The engine with every augmentation done by the search."""

    def fill(self, b: int) -> int:
        """Augment every row up to degree b, in row order, one search per unit."""
        closed = set()
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

        ``closed``, ``room`` and ``free`` mean what they mean to
        :meth:`sprank.flow._BMatching._search`.
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
