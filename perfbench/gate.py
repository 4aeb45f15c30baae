"""Correctness gate: checks each request's output without trusting the code that made it.

Runs after the timed loop.  Rank and matching counts are re-derived with
this module's own Dinic max flow; decompositions are checked edge by edge;
the infeasibility of ell* + 1 is certified by recomputing, from the graph,
the capacity of the cut sprank returns; small instances go to the
brute-force oracle, which shares no code with the flow solvers.
"""

from __future__ import annotations

import json
import re
from collections import deque
from math import comb
from pathlib import Path

from corpus import PLAN_ORACLE_MAX_CELLS, Pattern, Request, read_spm


def max_flow_value(p: Pattern, cap: int) -> int:
    """Max flow of s -> rows (capacity cap) -> columns (unit edges) -> t (capacity cap).

    Dinic's algorithm with an iterative blocking-flow search.  A value of
    n * cap means the pattern holds cap disjoint left-perfect matchings;
    with cap = 1 the value is the structural rank.
    """
    n, m = p.n, p.m
    s, t = n + m, n + m + 1
    head: list[list[int]] = [[] for _ in range(n + m + 2)]
    to: list[int] = []
    res: list[int] = []

    def add(u: int, v: int, c: int) -> None:
        head[u].append(len(to))
        to.append(v)
        res.append(c)
        head[v].append(len(to))
        to.append(u)
        res.append(0)

    for i in range(n):
        add(s, i, cap)
    for (i, j) in sorted(p.edges):
        add(i, n + j, 1)
    for j in range(m):
        add(n + j, t, cap)

    total = 0
    while True:
        level = [-1] * (n + m + 2)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in head[u]:
                if res[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[t] < 0:
            return total
        nxt = [0] * (n + m + 2)
        while True:
            stack, path = [s], []
            while stack and stack[-1] != t:
                u = stack[-1]
                while nxt[u] < len(head[u]):
                    e = head[u][nxt[u]]
                    if res[e] > 0 and level[to[e]] == level[u] + 1:
                        break
                    nxt[u] += 1
                if nxt[u] < len(head[u]):
                    e = head[u][nxt[u]]
                    stack.append(to[e])
                    path.append(e)
                else:
                    stack.pop()
                    if path:
                        path.pop()
                        nxt[stack[-1]] += 1
            if not stack:
                break
            push = min(res[e] for e in path)
            for e in path:
                res[e] -= push
                res[e ^ 1] += push
            total += push


def _cut_certifies_infeasible(p: Pattern, ell: int) -> bool:
    """True if sprank's min cut at level ell has capacity < n * ell, recomputed here.

    Any s-t cut below n * ell proves that no flow saturates the source, so
    the pattern has no ell disjoint left-perfect matchings.  Only the cut
    comes from sprank; its capacity is summed from the pattern itself,
    using the node layout of ``build_resilience_network`` (0 = s, 1 = t,
    2 + i = row i, 2 + n + j = column j).
    """
    from sprank import flow
    from sprank.pattern import BipartiteGraph

    net = flow.build_resilience_network(BipartiteGraph(p.n, p.m, p.edges), ell)
    side = flow.min_cut(net, flow.max_flow(net)).source_side
    if 0 not in side or 1 in side:
        return False
    n = p.n
    capacity = sum(ell for i in range(n) if 2 + i not in side)
    capacity += sum(1 for (i, j) in p.edges if 2 + i in side and 2 + n + j not in side)
    capacity += sum(ell for j in range(p.m) if 2 + n + j in side)
    return capacity < n * ell


def _matching_problems(p: Pattern, matchings: list) -> list[str]:
    problems = []
    seen: set[tuple[int, int]] = set()
    for idx, raw in enumerate(matchings):
        edges = [(i - 1, j - 1) for (i, j) in raw]
        rows = sorted(i for (i, _) in edges)
        cols = {j for (_, j) in edges}
        if rows != list(range(p.n)) or len(cols) != p.n:
            problems.append(f"matching {idx + 1} is not left-perfect")
        if not set(edges) <= p.edges:
            problems.append(f"matching {idx + 1} leaves the pattern")
        if seen & set(edges):
            problems.append(f"matching {idx + 1} overlaps an earlier one")
        seen |= set(edges)
    return problems


_PLAN_LINE = re.compile(r"delta_star: (-?\d+), achieved_resilience: (-?\d+)\n(?:added: (.*)\n)?\Z")
_PAIR = re.compile(r"\((\d+),(\d+)\)")
_VERIFY_OK = (
    "PASS: rank flow vs oracle\n"
    "PASS: strong resilience flow vs oracle\n"
    "PASS: weak resilience enumeration vs oracle\n"
    "PASS: weak >= strong sandwich\n"
    "all checks passed\n"
)


class Gate:
    """Checks requests one at a time and then across requests on one pattern."""

    def __init__(self):
        self._patterns: dict[str, Pattern] = {}
        self._group: dict[str, dict[str, dict]] = {}

    def pattern(self, path: str) -> Pattern:
        if path not in self._patterns:
            self._patterns[path] = read_spm(Path(path))
        return self._patterns[path]

    def check(self, req: Request, rc: int, out: str, err: str) -> list[str]:
        """Problems with one request's exit code and output; empty if it is correct."""
        if rc not in req.expect:
            return [f"exit {rc} not in {sorted(req.expect)}: {err.strip()[:200]}"]
        try:
            return getattr(self, "_" + req.command)(req, rc, out, err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output ({type(exc).__name__}: {exc})"]

    def cross_check(self) -> dict[str, list[str]]:
        """Problems between requests on one pattern, keyed by pattern path."""
        problems: dict[str, list[str]] = {}
        for path, seen in self._group.items():
            got = []
            if "rank" in seen and "resilience" in seen and seen["rank"]["rank"] != seen["resilience"]["rank"]:
                got.append("rank differs from resilience --json")
            if "resilience" in seen and "decompose" in seen and (
                seen["resilience"]["ell_star"] != seen["decompose"]["ell_star"]
            ):
                got.append("resilience and decompose disagree on ell*")
            if got:
                problems[path] = got
        return problems

    # ------------------------------------------------------------ analyze

    def _rank(self, req, rc, out, err):
        p = self.pattern(req.pattern)
        doc = json.loads(out)
        rank = max_flow_value(p, 1)
        self._group.setdefault(req.info.get("group", req.pattern), {})["rank"] = doc
        problems = []
        if doc["rank"] != rank:
            problems.append(f"rank {doc['rank']} != {rank}")
        if doc["full_rank"] != (rank == p.n) or rc != (0 if rank == p.n else 3):
            problems.append("full_rank flag or exit code is wrong")
        return problems

    def _resilience(self, req, rc, out, err):
        if "--weak" in req.argv:
            return self._weak(req, rc, out, err)
        p = self.pattern(req.pattern)
        doc = json.loads(out)
        self._group.setdefault(req.info["group"], {})["resilience"] = doc
        rank = max_flow_value(p, 1)
        problems = []
        if doc["rank"] != rank:
            problems.append(f"rank {doc['rank']} != {rank}")
        if doc["strong_resilience"] != doc["ell_star"] - 1:
            problems.append("strong_resilience != ell_star - 1")
        if (rank < p.n) != (doc["ell_star"] == 0) or rc != (3 if rank < p.n else 0):
            problems.append("deficiency, ell_star and exit code disagree")
        return problems

    def _decompose(self, req, rc, out, err):
        p = self.pattern(req.pattern)
        doc = json.loads(out)
        self._group.setdefault(req.info["group"], {})["decompose"] = doc
        ell = doc["ell_star"]
        problems = _matching_problems(p, doc["matchings"])
        if len(doc["matchings"]) != ell or doc["strong_resilience"] != ell - 1:
            problems.append("matching count, ell_star and strong_resilience disagree")
        if ell == 0 and max_flow_value(p, 1) == p.n:
            problems.append("ell_star 0 on a full-rank pattern")
        if ell > 0 and not _cut_certifies_infeasible(p, ell + 1):
            problems.append(f"no cut certifies that ell* + 1 = {ell + 1} is infeasible")
        # The DOT file draws the witness, i.e. exactly the matching edges, coloured.
        dot = Path(req.info["dot"]).read_text(encoding="utf-8").splitlines()
        edge_lines = [ln for ln in dot if " -- " in ln]
        if len(edge_lines) != p.n * ell or not all("[color=" in ln for ln in edge_lines):
            problems.append("DOT edges or colours do not match the decomposition")
        return problems

    # ------------------------------------------------------------ plan

    def _augment(self, req, rc, out, err):
        p = self.pattern(req.pattern)
        match = _PLAN_LINE.match(out)
        if not match:
            return [f"unexpected augment output {out[:120]!r}"]
        delta, achieved = int(match[1]), int(match[2])
        added = {(int(i) - 1, int(j) - 1) for (i, j) in _PAIR.findall(match[3] or "")}
        problems = []
        if len(added) != delta or added & p.edges:
            problems.append("added edges are not delta_star new edges")
        grown = Pattern(p.n, p.m, p.edges | added)
        small = p.n * p.m <= PLAN_ORACLE_MAX_CELLS
        if "target" in req.info:
            k = req.info["target"]
            written = read_spm(Path(req.info["out"]))
            if written != grown:
                problems.append("--out file is not the input plus the added edges")
            if achieved != k or max_flow_value(grown, k + 1) != p.n * (k + 1):
                problems.append(f"augmented pattern lacks {k + 1} disjoint matchings")
            row_deficit = sum(max(0, k + 1 - d) for d in _row_degrees(p))
            if delta < row_deficit:
                problems.append(f"delta_star {delta} below the row-degree bound {row_deficit}")
            if small and delta != _oracle_min_augmentation(p, k):
                problems.append("delta_star differs from brute_min_augmentation")
        else:
            budget = req.info["budget"]
            if delta > budget:
                problems.append(f"plan spends {delta} > budget {budget}")
            if achieved >= 0 and max_flow_value(grown, achieved + 1) != p.n * (achieved + 1):
                problems.append(f"augmented pattern lacks {achieved + 1} disjoint matchings")
            if small:
                best = max(
                    (k for k in range(p.m) if _oracle_min_augmentation(p, k) <= budget),
                    default=-1,
                )
                if achieved != best:
                    problems.append(f"achieved {achieved} but the oracle reaches {best}")
        return problems

    # ------------------------------------------------------------ certify

    def _verify(self, req, rc, out, err):
        return [] if out == _VERIFY_OK else [f"verify reported {out!r}"]

    def _weak(self, req, rc, out, err):
        p = self.pattern(req.pattern)
        truth = _oracle_weak(p)
        if "budget" in req.info:
            budget = req.info["budget"]
            tests_needed = sum(comb(len(p.edges), s) for s in range(1, truth + 1)) + 1
            if out or "budget exceeded" not in err or tests_needed <= budget:
                return [f"budget {budget} should not be exceeded (needs {tests_needed})"]
            return []
        value = json.loads(out)["weak_resilience"] if "--json" in req.argv else int(
            out.removeprefix("weak_resilience: ")
        )
        if value != truth or rc != (0 if truth >= 0 else 3):
            return [f"weak resilience {value} (exit {rc}) != oracle {truth}"]
        return []


def _row_degrees(p: Pattern) -> list[int]:
    degs = [0] * p.n
    for (i, _) in p.edges:
        degs[i] += 1
    return degs


def _graph(p: Pattern):
    from sprank.pattern import BipartiteGraph

    return BipartiteGraph(p.n, p.m, p.edges)


def _oracle_min_augmentation(p: Pattern, k: int) -> int:
    from sprank import oracle

    return oracle.brute_min_augmentation(_graph(p), k)


def _oracle_weak(p: Pattern) -> int:
    from sprank import oracle

    return oracle.brute_weak_resilience(_graph(p))
