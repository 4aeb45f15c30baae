"""Seeded request corpora for the three benchmark workloads.

Every corpus is a fixed schedule of pattern shapes; the seed only chooses
the edges.  So two seeds give different inputs with the same mix of sizes,
densities and subcommands, and one seed always gives the same files.

Patterns are written in the ``.spm`` text format by this module's own
writer; nothing here calls sprank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Request:
    """One CLI call, the exit codes it may return, and what the gate needs."""

    argv: tuple[str, ...]
    expect: frozenset[int]
    pattern: str
    info: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Pattern:
    n: int
    m: int
    edges: frozenset[tuple[int, int]]


def write_spm(path: Path, p: Pattern) -> None:
    rows = [["0"] * p.m for _ in range(p.n)]
    for (i, j) in p.edges:
        rows[i][j] = "*"
    text = f"{p.n} {p.m}\n" + "".join(" ".join(r) + "\n" for r in rows)
    path.write_text(text, encoding="utf-8")


def read_spm(path: Path) -> Pattern:
    lines = path.read_text(encoding="utf-8").split("\n")
    n, m = (int(x) for x in lines[0].split())
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j, tok in enumerate(lines[1 + i].split())
        if tok == "*"
    )
    return Pattern(n, m, edges)


def left_regular(rng: random.Random, n: int, m: int, d: int) -> Pattern:
    """Every row gets d distinct random columns."""
    return Pattern(n, m, frozenset((i, j) for i in range(n) for j in rng.sample(range(m), d)))


def full_rank(rng: random.Random, n: int, m: int, d: int) -> Pattern:
    """A random left-perfect matching plus d - 1 more random columns per row.

    The planted matching keeps the pattern full rank, so the share of
    requests that stop early at a deficient rank does not depend on the seed.
    """
    cols = rng.sample(range(m), n)
    edges = set()
    for i in range(n):
        others = [j for j in rng.sample(range(m), d) if j != cols[i]][: d - 1]
        edges |= {(i, cols[i]), *((i, j) for j in others)}
    return Pattern(n, m, frozenset(edges))


def planted(rng: random.Random, n: int, m: int, ell: int, extra: int) -> Pattern:
    """A pattern with ell* = ell exactly and every row of degree ell + extra.

    ell disjoint random left-perfect matchings certify ell.  Every row gets
    ``extra`` more columns: random ones, except that r = extra * (ell + 1) + 1
    rows all take the same ``extra`` hub columns.  Those r rows can route at
    most r * ell + extra * (ell + 1) < r * (ell + 1) units at level ell + 1,
    so ell + 1 is infeasible, although the minimum row degree lets the
    bisection probe up to ell + extra.  Fixing ell* keeps the cost of a
    shape from depending on the seed.
    """
    r = extra * (ell + 1) + 1
    if r > n or r + ell - 1 + extra > m:
        raise ValueError(f"shape ({n}, {m}, {ell}, {extra}) too small for the hub rows")
    perm = rng.sample(range(m), m)
    rows = rng.sample(range(n), n)
    edges = {(rows[i], perm[(i + t) % m]) for i in range(n) for t in range(ell)}
    hubs = perm[r + ell - 1 : r + ell - 1 + extra]
    for i in range(n):
        if i < r:
            edges |= {(rows[i], j) for j in hubs}
        else:
            own = {perm[(i + t) % m] for t in range(ell)}
            edges |= {(rows[i], j) for j in rng.sample([j for j in range(m) if j not in own], extra)}
    return Pattern(n, m, frozenset(edges))


def hall_violator(rng: random.Random, n: int, m: int, d: int) -> Pattern:
    """A left-regular pattern whose first three rows share two columns, so rank < n."""
    base = left_regular(rng, n, m, d)
    cols = rng.sample(range(m), 2)
    edges = {(i, j) for (i, j) in base.edges if i >= 3}
    edges |= {(i, j) for i in range(3) for j in cols}
    return Pattern(n, m, frozenset(edges))


def union_of_matchings(
    rng: random.Random, n: int, m: int, ell: int, noise: int
) -> Pattern:
    """ell disjoint left-perfect matchings, plus ``noise`` extra edges on rows 1..n-1.

    Row 0 keeps degree exactly ell, so the strong resilience is exactly
    ell - 1: the union certifies ell matchings and row 0 forbids ell + 1.
    Row i of matching t takes column perm[(i + t) mod m], which keeps the
    matchings disjoint.
    """
    perm = rng.sample(range(m), m)
    rows = rng.sample(range(n), n)
    edges = {(rows[i], perm[(i + t) % m]) for i in range(n) for t in range(ell)}
    pinned = rows[0]
    free = [(i, j) for i in range(n) for j in range(m) if i != pinned and (i, j) not in edges]
    edges |= set(rng.sample(free, min(noise, len(free))))
    return Pattern(n, m, frozenset(edges))


def schedule(name: str, fixed: list[tuple], draw, count: int) -> tuple[tuple, ...]:
    """``fixed`` shapes plus ``count`` drawn by ``draw(rng)``, in a shuffled order.

    The draws come from an RNG seeded with the workload name, not with the
    run's seed: every seed gets the same shapes, and their many distinct
    sizes give a smooth spread of request costs, so the median and the 90th
    percentile do not jump from one cost level to another between seeds.
    """
    rng = random.Random(f"{name}-shapes")
    shapes = list(fixed) + [draw(rng) for _ in range(count)]
    rng.shuffle(shapes)
    return tuple(shapes)


# ---------------------------------------------------------------- analyze
#
# ("planted", n, m, ell, extra): full rank with ell* = ell exactly and room
# for the bisection to probe up to ell + extra; n = m makes a square case.
# ("deficient", n, m, d) breaks Hall's condition (exit 3).  The fixed shapes
# reach ell* = 20 and n = 200; the drawn ones are n = 50 with ell* up to 6
# and n = 100 with ell* up to 2, so one pass fits in a run.
def _analyze_draw(r: random.Random, n: int) -> tuple:
    return ("planted", n, n + r.randint(n // 10, n // 4), r.randint(1, 6 if n == 50 else 2), r.randint(1, 2))


ANALYZE_SHAPES = schedule(
    "analyze",
    [
        ("planted", 50, 60, 20, 1),
        ("planted", 50, 60, 11, 1),
        ("planted", 200, 220, 1, 1),
        ("planted", 50, 50, 5, 1),
        ("planted", 60, 60, 3, 1),
        ("planted", 100, 100, 2, 1),
        ("deficient", 50, 60, 4),
        ("deficient", 100, 120, 3),
        ("deficient", 200, 220, 2),
    ],
    lambda r: _analyze_draw(r, r.choice((50, 50, 50, 100, 100))),
    52,
)
# Large sparse inputs for `rank` only: about 2 MB of text each, so parsing
# is a visible share of the request.
ANALYZE_BIG_RANK = ((1000, 1000, 3), (1000, 1050, 2))
ANALYZE_RANK_EVERY = 3  # `rank` on every 3rd pattern (and every deficient one)


def analyze(rng: random.Random, d: Path, shapes=ANALYZE_SHAPES, big=ANALYZE_BIG_RANK) -> list[Request]:
    reqs: list[Request] = []
    either = frozenset({0, 3})
    big_after = {(k + 1) * len(shapes) // (len(big) + 1): b for k, b in enumerate(big)}
    for idx, (kind, *shape) in enumerate(shapes):
        f = d / f"a{idx:03d}.spm"
        write_spm(f, hall_violator(rng, *shape) if kind == "deficient" else planted(rng, *shape))
        group = {"group": str(f)}
        if idx % ANALYZE_RANK_EVERY == 0 or kind == "deficient":
            reqs.append(Request(("rank", str(f), "--json"), either, str(f), group))
        reqs.append(Request(("resilience", str(f), "--json"), either, str(f), group))
        dot = d / f"a{idx:03d}.dot"
        reqs.append(
            Request(("decompose", str(f), "--json", "--dot", str(dot)), either, str(f),
                    {**group, "dot": str(dot)})
        )
        if idx in big_after:
            n, m, deg = big_after[idx]
            f = d / f"big{idx:03d}.spm"
            write_spm(f, full_rank(rng, n, m, deg))
            reqs.append(Request(("rank", str(f), "--json"), either, str(f)))
    return reqs


# ---------------------------------------------------------------- plan
#
# ("target", n, m, ell, noise): a union of ell matchings, so the current
# strong resilience is ell - 1; the targets are ell (current + 1) and
# ell + 2 (current + 3).  ("budget", n, m, ell, noise, p) runs `augment
# --budget p`.  Shapes with n * m <= PLAN_ORACLE_MAX_CELLS are also checked
# against the brute-force oracle.
PLAN_ORACLE_MAX_CELLS = 20


def _plan_draw(r: random.Random) -> tuple:
    if r.random() < 0.15:
        n = r.randint(10, 14)
        return ("budget", n, n + r.randint(1, 4), r.choice((1, 2)), n // 2, r.randint(n // 2, 2 * n))
    n = r.choice((20, 20, 25, 30, 30, 35, 40, 40, 45, 50))
    return ("target", n, n + r.randint(2, n // 4 + 2), r.choice((1, 1, 2)), n // 2)


PLAN_SHAPES = schedule(
    "plan",
    [
        ("target", 80, 90, 1, 40),
        ("target", 60, 68, 1, 30),
        ("budget", 16, 18, 1, 8, 16),
        *[("target", 3, 4, 1, 1), ("target", 3, 5, 2, 1), ("target", 4, 5, 1, 2)] * 2,
        *[("budget", 3, 4, 1, 1, 3), ("budget", 4, 5, 1, 1, 5)] * 2,
    ],
    _plan_draw,
    84,
)


def plan(rng: random.Random, d: Path, shapes=PLAN_SHAPES) -> list[Request]:
    reqs: list[Request] = []
    ok = frozenset({0})
    for idx, (kind, n, m, ell, noise, *budget) in enumerate(shapes):
        f = d / f"p{idx:03d}.spm"
        write_spm(f, union_of_matchings(rng, n, m, ell, noise))
        if kind == "budget":
            p = budget[0]
            reqs.append(Request(("augment", str(f), "--budget", str(p)), ok, str(f), {"budget": p}))
            continue
        for k in (ell, ell + 2):
            if k > m - 1:
                continue
            out = d / f"p{idx:03d}_k{k}.spm"
            reqs.append(
                Request(("augment", str(f), "--target", str(k), "--out", str(out)), ok, str(f),
                        {"target": k, "out": str(out)})
            )
    return reqs


# ---------------------------------------------------------------- certify
#
# (n, m, ell, noise): a union of ell matchings plus noise edges.  Input
# property: n <= 5, m <= 7, at most CERTIFY_MAX_EDGES edges, and one row of
# degree ell <= 3.  That row caps weak resilience at 2, so each subset
# enumeration tests at most C(18,1) + C(18,2) + C(18,3) = 987 subsets and
# no single request dominates the run.
CERTIFY_MAX_EDGES = 18
CERTIFY_BUDGET_EVERY = 8  # one `--weak --budget N` request after every 8th pattern
CERTIFY_DEFICIENT_EVERY = 9  # every 9th pattern is rank-deficient instead


def _certify_draw(r: random.Random) -> tuple:
    n = r.choice((3, 4, 5, 5))
    m = r.randint(n, 7)
    ell = r.randint(1, 3)
    return (n, m, ell, r.randint(0, CERTIFY_MAX_EDGES - n * ell))


CERTIFY_SHAPES = schedule("certify", [], _certify_draw, 432)


def certify(rng: random.Random, d: Path, shapes=CERTIFY_SHAPES) -> list[Request]:
    reqs: list[Request] = []
    for idx, (n, m, ell, noise) in enumerate(shapes):
        p = union_of_matchings(rng, n, m, ell, noise)
        if idx % CERTIFY_DEFICIENT_EVERY == 4:
            # Rows 0-2 share two columns: rank-deficient, resilience -1.
            p = hall_violator(rng, n, m, 1)
        f = d / f"c{idx:03d}.spm"
        write_spm(f, p)
        reqs.append(Request(("verify", str(f)), frozenset({0}), str(f)))
        if idx % 2:
            weak = ("resilience", str(f), "--weak") + (("--json",) if idx % 4 == 1 else ())
            reqs.append(Request(weak, frozenset({0, 3}), str(f)))
        if idx % CERTIFY_BUDGET_EVERY == CERTIFY_BUDGET_EVERY - 1:
            # Two disjoint matchings give weak resilience >= 1, so every
            # single-edge removal is tested: budget |E| is always exceeded.
            q = union_of_matchings(rng, n, m, 2, min(noise, CERTIFY_MAX_EDGES - 2 * n))
            g = d / f"w{idx:03d}.spm"
            write_spm(g, q)
            reqs.append(
                Request(("resilience", str(g), "--weak", "--budget", str(len(q.edges))),
                        frozenset({4}), str(g), {"budget": len(q.edges)})
            )
    return reqs


WORKLOADS = {"analyze": analyze, "plan": plan, "certify": certify}


def build(workload: str, seed: int, directory: Path, **shapes) -> list[Request]:
    """Write the workload's pattern files under ``directory`` and return its requests."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, directory, **shapes)
