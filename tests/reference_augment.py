"""Reference target augmentation for the tests: the sweep first, every time.

This is ``sprank.augment.min_edges_for_target`` as it was before the bound
strong <= d_min - 1 settled the plan: every request runs the checked sweep
to learn g's current strong resilience, and only then the fair b-matching.
The library now skips the sweep where d_min - 1 < k*; the tests require it
to give the same plan, or the same exception type, as this function.
"""

from sprank.augment import _plan
from sprank.errors import InvalidKError
from sprank.flow import resilience_sweep
from sprank.pattern import BipartiteGraph


def min_edges_for_target(g: BipartiteGraph, k_star: int):
    """Fewest complement edges whose addition makes g strongly k*-resilient."""
    if not 0 <= k_star <= g.n_right - 1:
        raise InvalidKError(
            f"target resilience {k_star} outside [0, {g.n_right - 1}]"
        )
    return _plan(g, k_star, resilience_sweep(g).ell_star - 1)
