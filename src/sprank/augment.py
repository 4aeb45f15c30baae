"""Minimum-cost edge additions to reach or maximize strong resilience.

The target problem reduces to a fair b-matching on the complete bipartite
graph: pick a maximum-cardinality edge set with every node used at most
k*+1 times, preferring edges the graph already has.  With two priority
classes and constant node capacities this is exactly a 0/1-cost
min-cost max-flow.  :func:`sprank.flow.min_cost_b_matching` solves it by
the primal-dual method without building the n*m-arc network:

* phase 0, at zero potentials, is the maximum (k*+1)-matching of g itself,
  a warm start that uses only edges g already has;
* while a row is short, one unit raise of the potentials off the last
  phase's min cut lets the next phase augment over the pairs whose
  reduced cost is now 0 (a new edge is a pair one potential step up);
  at most n raises run;
* the final potentials are a dual certificate, the plan's one check: rows
  at degree k*+1, columns at most k*+1 and no negative residual reduced
  cost prove the flow maximum and cheapest, else VerificationError.

A target k* above g's strong resilience costs that solve alone where the
certified bound strong <= d_min - 1 shows it, d_min - 1 < k*; only
otherwise does the checked sweep first tell whether g already reaches k*.

Lifting a union of k disjoint left-perfect matchings to k+ell
(Proposition 2, :func:`boost_by` and :func:`increment_matchings`) is the
same solve at b = k+ell, whose certified cost must be exactly ell*n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import flow as flow_engine
from .errors import InvalidKError, PreconditionFailedError, VerificationError
from .pattern import BipartiteGraph, _check_pattern_shape, _checked, check_dense_size
from .pattern import is_union_of_k_matchings


@dataclass(frozen=True)
class BMatching:
    """Edge set of K(n,m), every node in at most ``budget`` edges, as certified."""

    edges: frozenset[tuple[int, int]]
    budget: int


@dataclass(frozen=True)
class AugmentationPlan:
    """Edges to add, their count, and the strong resilience they buy, as certified."""

    added_edges: tuple[tuple[int, int], ...]
    delta_star: int
    achieved_resilience: int
    result_graph: BipartiteGraph
    b_matching: BMatching | None


def fair_b_matching(g: BipartiteGraph, k_star: int) -> BMatching:
    """A maximum b-matching of K(n,m) with budget k*+1 maximizing overlap with g.

    The dual certificate, the plan's one check, proves every row at degree
    k*+1, every column at most k*+1, and the cost (the pairs outside g) least.
    A graph with fewer columns than rows has no such b-matching: ShapeError.
    """
    if not 0 <= k_star <= g.n_right - 1:
        raise InvalidKError(
            f"target resilience {k_star} outside [0, {g.n_right - 1}]"
        )
    _check_pattern_shape(g.n_left, g.n_right)
    edges, _ = flow_engine.min_cost_b_matching(g, k_star + 1)
    return BMatching(edges, k_star + 1)


def min_edges_for_target(g: BipartiteGraph, k_star: int) -> AugmentationPlan:
    """Fewest complement edges whose addition makes g strongly k*-resilient.

    Strong resilience is at most d_min - 1, d_min the least row degree:
    removing a row's edges leaves it unmatched.  So where d_min - 1 < k*,
    g falls short of k* without a solve, and the fair b-matching, whose
    dual certificate proves delta*, is the only solve.  Otherwise the
    checked sweep decides whether g already reaches k*.
    """
    if not 0 <= k_star <= g.n_right - 1:
        raise InvalidKError(
            f"target resilience {k_star} outside [0, {g.n_right - 1}]"
        )
    current = min(g.left_degrees()) - 1
    if current >= k_star:
        # The bound settles nothing here.
        current = flow_engine.resilience_sweep(g).ell_star - 1
    return _plan(g, k_star, current)


def _plan(g: BipartiteGraph, k_star: int, current: int) -> AugmentationPlan:
    """The plan for target k* given g's current strong resilience."""
    if current >= k_star:
        return AugmentationPlan((), 0, current, g, None)
    bm = fair_b_matching(g, k_star)
    added = tuple(sorted(bm.edges - g.edges))
    return AugmentationPlan(added, len(added), k_star, _on_nodes_of(g, g.edges | bm.edges), bm)


def _on_nodes_of(g: BipartiteGraph, edges: frozenset) -> BipartiteGraph:
    """A graph on g's nodes; ``edges`` are pairs of K(n, m), so not range-checked again."""
    return _checked(BipartiteGraph, n_left=g.n_left, n_right=g.n_right, edges=edges)


def delta_star(g: BipartiteGraph, k_star: int) -> int:
    """Minimum number of added edges for strong k*-resilience."""
    return min_edges_for_target(g, k_star).delta_star


def best_within_budget(
    g: BipartiteGraph, p: int, exact_spend: bool = False
) -> AugmentationPlan:
    """Best strong resilience reachable by adding at most p edges.

    A strongly (k+1)-resilient graph is strongly k-resilient, so delta*
    never decreases in k: from the empty plan at the current resilience
    (-1 if g is rank-deficient), targets are tried upward until one costs
    more than p.  With ``exact_spend`` the plan is padded with the
    lexicographically-smallest unused complement edges to spend exactly p.
    """
    if p < 0:
        raise ValueError("budget must be nonnegative")
    current = flow_engine.resilience_sweep(g).ell_star - 1
    best = _plan(g, current, current)
    for k in range(current + 1, g.n_right):
        plan = _plan(g, k, current)
        if plan.delta_star > p:
            break
        best = plan
    if exact_spend and best.delta_star < p:
        # The cells in row-major order are the complement's sorted order.
        check_dense_size(g.n_left, g.n_right)
        taken = best.result_graph.edges
        cells = ((i, j) for i in range(g.n_left) for j in range(g.n_right))
        spare = islice((e for e in cells if e not in taken), p - best.delta_star)
        added = tuple(sorted(best.added_edges + tuple(spare)))
        result = _on_nodes_of(g, g.edges | set(added))
        return AugmentationPlan(
            added, len(added), best.achieved_resilience, result, best.b_matching
        )
    return best


def increment_matchings(
    g: BipartiteGraph, k: int
) -> tuple[BipartiteGraph, list[tuple[int, int]]]:
    """Add n complement edges lifting a union of k matchings to k+1 (Proposition 2)."""
    return boost_by(g, k, 1)


def boost_by(
    g: BipartiteGraph, k: int, ell: int
) -> tuple[BipartiteGraph, list[tuple[int, int]]]:
    """Add ell*n complement edges lifting a union of k matchings to k+ell.

    One fair b-matching at b = k+ell: each row already holds its k edges
    of g, so the certified cost is at least ell*n, and Proposition 2
    applied ell times reaches it.  Cost ell*n forces the b-matching to
    contain g.
    """
    if not 1 <= ell <= g.n_right - k:
        raise InvalidKError(
            f"ell = {ell} outside [1, {g.n_right - k}] for k = {k}"
        )
    if not is_union_of_k_matchings(g, k):
        raise PreconditionFailedError(
            f"graph is not a union of {k} disjoint left-perfect matchings"
        )
    edges, cost = flow_engine.min_cost_b_matching(g, k + ell)
    if cost != ell * g.n_left:
        raise VerificationError(
            f"lifting by {ell} must add exactly {ell * g.n_left} edges, not {cost}"
        )
    return _on_nodes_of(g, edges), sorted(edges - g.edges)


def complement_matching_structure(g: BipartiteGraph) -> int:
    """n - k, for g a square union of k disjoint perfect matchings: its complement's count.

    Rows of degree k and columns of at most k hold nk edges only if every
    column has k, so the complement is (n - k)-regular (Koenig); never built.
    """
    if g.n_left != g.n_right:
        raise PreconditionFailedError("graph must be square (n_left == n_right)")
    degs = g.left_degrees()
    k = degs[0]
    if any(d != k for d in degs) or (k > 0 and not is_union_of_k_matchings(g, k)):
        raise PreconditionFailedError(
            "graph is not a union of disjoint perfect matchings"
        )
    return g.n_left - k
