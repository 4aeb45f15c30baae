"""Reference flow routines for the tests.

The library solves its one min-cost problem, the fair b-matching, with the
primal-dual engine in ``sprank.flow``.  This generic successive-shortest-path
solver on an explicit ``FlowNetwork`` is what the tests compare it against.
The engine's min cut at a level is the one its fill's failed searches
closed; :func:`residual_cut` walks the residual graph again for the tests
to compare that cut against.
"""

from collections import deque
import heapq

from sprank.flow import Flow, FlowNetwork, _BMatching, _residual_adjacency, _verify_min_cut
from sprank.pattern import BipartiteGraph


def residual_cut(h: _BMatching, b: int, removed=()) -> tuple[set, set]:
    """The rows and columns the short rows of h reach in its residual graph at level b.

    A breadth-first walk over g less ``removed`` at zero potentials: from a
    row over its pairs outside H, and from a column back over its pairs of
    H to their rows.  A column with room is taken like any other, so a
    flow that is not maximum gives a set that no min cut equals.
    """
    removed = set(removed)
    rows = {i for i, held in enumerate(h.row_cols) if len(held) < b}
    cols = set()
    queue = deque(rows)
    while queue:
        u = queue.popleft()
        for j in h.adj[u]:
            if j in h.row_cols[u] or j in cols or (u, j) in removed:
                continue
            cols.add(j)
            for w in h.col_rows[j]:
                if w not in rows:
                    rows.add(w)
                    queue.append(w)
    return rows, cols


def flow_subgraph(g: BipartiteGraph, f: Flow) -> BipartiteGraph:
    """The row -> column arcs that carry flow, as a graph on g's node sets.

    Reads the node layout of the resilience and augmentation networks:
    0 = s, 1 = t, 2 + i = row i and 2 + n + j = column j.
    """
    net, n = f.network, g.n_left
    edges = frozenset(
        (a.tail - 2, a.head - 2 - n)
        for a, v in zip(net.arcs, f.arc_values)
        if v > 0 and a.tail != net.source and a.head != net.sink
    )
    return BipartiteGraph(n, g.n_right, edges)


def min_cost_max_flow(net: FlowNetwork) -> Flow:
    """Minimum-cost maximum flow via successive shortest paths.

    Costs must be nonnegative (true for all networks built here), so
    Dijkstra with potentials suffices; no negative-cycle handling.
    """
    adj = _residual_adjacency(net)
    values = [0] * len(net.arcs)
    potential = [0] * net.node_count
    total = 0
    inf = float("inf")
    while True:
        dist = [inf] * net.node_count
        prev = [None] * net.node_count
        dist[net.source] = 0
        heap = [(0, net.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for (v, idx, fwd) in adj[u]:
                arc = net.arcs[idx]
                residual = arc.capacity - values[idx] if fwd else values[idx]
                if residual <= 0:
                    continue
                cost = arc.cost if fwd else -arc.cost
                nd = d + cost + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = (u, idx, fwd)
                    heapq.heappush(heap, (nd, v))
        if dist[net.sink] == inf:
            break
        for node in range(net.node_count):
            if dist[node] < inf:
                potential[node] += dist[node]
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
