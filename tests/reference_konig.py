"""Reference Koenig decomposition for the tests: the two-pass path recolouring.

This is ``sprank.resilience.extract_disjoint_matchings`` as it was before
the a/b path was recoloured in one walk: the walk lists the path's edges,
then one pass clears their colours and a second sets the swapped ones.
The library now swaps the two colour slots at each node as it walks; the
tests require both to split every union into the same matchings.
"""

from sprank.errors import NotDecomposableError, VerificationError
from sprank.pattern import BipartiteGraph, Matching, is_union_of_k_matchings


def extract_disjoint_matchings(h: BipartiteGraph, ell: int) -> list[Matching]:
    """Split a union of ell disjoint left-perfect matchings into its parts.

    Every left degree is ell and no right degree exceeds ell, so by
    Koenig's line-colouring theorem h has a proper ell-edge-colouring; each
    colour class is then a left-perfect matching.  Edges are coloured in
    sorted order.  An edge (u, v) takes the smallest colour a free at u;
    if a is taken at v, the a/b path from v, with b the smallest colour
    free at v, has its two colours swapped first.  In a bipartite graph
    that path never reaches u.
    """
    if not is_union_of_k_matchings(h, ell):
        raise NotDecomposableError(
            f"graph is not a union of {ell} disjoint left-perfect matchings"
        )
    # at_row[i][c] / at_col[j][c]: the other end of the colour-c edge, or -1.
    at_row = [[-1] * ell for _ in range(h.n_left)]
    at_col = [[-1] * ell for _ in range(h.n_right)]
    for (u, v) in h.sorted_edges:
        a = at_row[u].index(-1)
        if at_col[v][a] >= 0:
            b = at_col[v].index(-1)
            # Walk the a/b path from v; a + b - c is the other of the two colours.
            path = []
            node, on_col, c = v, True, a
            while True:
                nxt = at_col[node][c] if on_col else at_row[node][c]
                if nxt < 0:
                    break
                path.append(((nxt, node) if on_col else (node, nxt), c))
                node, on_col, c = nxt, not on_col, a + b - c
            for (i, j), c in path:
                at_row[i][c] = at_col[j][c] = -1
            for (i, j), c in path:
                at_row[i][a + b - c] = j
                at_col[j][a + b - c] = i
        at_row[u][a] = v
        at_col[v][a] = u
    matchings = []
    for c in range(ell):
        edges = frozenset((i, at_row[i][c]) for i in range(h.n_left))
        if len({j for (_, j) in edges}) != h.n_left or not edges <= h.edges:
            raise VerificationError(f"colour class {c} is not a left-perfect matching of h")
        matchings.append(Matching(edges))
    return matchings
