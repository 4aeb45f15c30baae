import functools
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import sprank
from sprank import cli
from sprank import flow as flow_engine
from sprank import pattern as pattern_mod
from sprank import resilience as resilience_mod
from sprank.cli import run
from sprank.io import serialize_json, serialize_text

from conftest import (
    FORGED_PLANS,
    FORGED_WITNESSES,
    count_calls,
    forge_certify,
    forge_sweep,
    pruning_proof_block,
    upper_triangle,
    weak_gap_graph,
)
from test_io import FIG3_TEXT, HOSTILE_JSON, LONG_BAD_STAR

FIG7_TEXT = "2 3\n* * 0\n* * 0\n"
DEFICIENT_TEXT = "2 2\n* 0\n* 0\n"
EMPTY_TEXT = "2 2\n0 0\n0 0\n"
K66_TEXT = "6 6\n" + "* * * * * *\n" * 6
K77_TEXT = "7 7\n" + "* * * * * * *\n" * 7
GAP4_TEXT = "4 4\n* * * 0\n* 0 0 *\n0 * 0 *\n0 0 * *\n"
P36_TEXT = "3 6\n* * * * 0 0\n0 * * * * 0\n* 0 * 0 * *\n"
DEF23_TEXT = "2 3\n* 0 0\n0 0 0\n"
ROW2_TEXT = "3 4\n0 * * *\n* 0 0 *\n* * * *\n"
ALL_PASSED = (
    "PASS: rank flow vs oracle\n"
    "PASS: strong resilience flow vs oracle\n"
    "PASS: weak resilience enumeration vs oracle\n"
    "PASS: weak >= strong sandwich\n"
    "all checks passed\n"
)


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.spm"
    path.write_text(FIG3_TEXT)
    return str(path)


@pytest.fixture
def fig7_file(tmp_path):
    path = tmp_path / "fig7.spm"
    path.write_text(FIG7_TEXT)
    return str(path)


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def python(*args, timeout=60, **env):
    """Run ``python *args`` with sprank importable, under -O when these tests are."""
    env = dict(os.environ, PYTHONPATH=str(Path(sprank.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestRank:
    def test_full_rank(self, fig3_file):
        code, out = invoke(["rank", fig3_file])
        assert code == 0 and "rank: 4 (full)" in out

    def test_deficient(self, tmp_path):
        path = tmp_path / "empty.spm"
        path.write_text(EMPTY_TEXT)
        code, out = invoke(["rank", str(path)])
        assert code == 3 and "rank: 0 (deficient)" in out

    def test_json(self, fig3_file):
        code, out = invoke(["rank", fig3_file, "--json"])
        assert code == 0
        assert json.loads(out) == {"rank": 4, "full_rank": True}


class TestResilience:
    def test_strong(self, fig3_file):
        code, out = invoke(["resilience", fig3_file])
        assert code == 0
        assert "strong_resilience: 1, ell_star: 2" in out

    def test_weak(self, fig3_file):
        code, out = invoke(["resilience", fig3_file, "--weak"])
        assert code == 0 and "weak_resilience: 1" in out

    def test_json_fields(self, fig3_file):
        code, out = invoke(["resilience", fig3_file, "--json"])
        doc = json.loads(out)
        assert doc == {"rank": 4, "strong_resilience": 1, "ell_star": 2}

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_strong_reads_one_sweep_and_extracts_nothing(self, fig3_file, monkeypatch, flags):
        swept = count_calls(monkeypatch, flow_engine, "resilience_sweep")
        extracted = count_calls(monkeypatch, resilience_mod, "_colour_matchings")
        code, _ = invoke(["resilience", fig3_file, *flags])
        assert code == 0
        assert swept == [1] and extracted == [0]

    def test_weak_budget_exceeded(self, fig3_file):
        code, _ = invoke(["resilience", fig3_file, "--weak", "--budget", "2"])
        assert code == 4


class TestDecompose:
    def test_lists_matchings(self, fig3_file):
        code, out = invoke(["decompose", fig3_file])
        assert code == 0
        assert "ell_star: 2" in out
        assert out.count("matching") == 2

    def test_writes_dot(self, fig3_file, tmp_path):
        dot_path = tmp_path / "out.dot"
        code, _ = invoke(["decompose", fig3_file, "--dot", str(dot_path)])
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("graph pattern {")
        assert "color=" in text

    def test_json(self, fig3_file):
        code, out = invoke(["decompose", fig3_file, "--json"])
        doc = json.loads(out)
        assert doc["ell_star"] == 2 and len(doc["matchings"]) == 2

    @pytest.mark.parametrize("target", ["dir", "missing/out.dot"], ids=["directory", "missing-parent"])
    def test_unwritable_dot_prints_nothing(self, fig3_file, tmp_path, capsys, target):
        (tmp_path / "dir").mkdir()
        code, out = invoke(["decompose", fig3_file, "--dot", str(tmp_path / target)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("sprank: ")


class TestAugment:
    def test_target(self, fig7_file):
        code, out = invoke(["augment", fig7_file, "--target", "2"])
        assert code == 0
        assert "delta_star: 2" in out
        assert "added: (1,3) (2,3)" in out

    def test_target_two_unit_raises(self, tmp_path):
        # Row 1 holds its one edge, so the fair 2-matching takes two unit
        # raises, with a fill between them that adds nothing.
        path = tmp_path / "cross.spm"
        path.write_text("3 3\n* 0 *\n0 * 0\n* 0 *\n")
        code, out = invoke(["augment", str(path), "--target", "1"])
        assert (code, out) == (0, "delta_star: 2, achieved_resilience: 1\nadded: (1,2) (2,1)\n")

    def test_budget(self, fig7_file):
        code, out = invoke(["augment", fig7_file, "--budget", "1"])
        assert code == 0 and "achieved_resilience: 1" in out

    def test_out_file(self, fig7_file, tmp_path):
        out_path = tmp_path / "augmented.spm"
        code, _ = invoke(["augment", fig7_file, "--target", "2", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text() == "2 3\n* * *\n* * *\n"

    def test_json(self, fig7_file):
        code, out = invoke(["augment", fig7_file, "--target", "2", "--json"])
        doc = json.loads(out)
        assert doc["delta_star"] == 2
        assert doc["added_edges"] == [[1, 3], [2, 3]]

    def test_requires_target_or_budget(self, fig7_file):
        code, _ = invoke(["augment", fig7_file])
        assert code == 2

    @pytest.mark.parametrize("target", ["dir", "missing/out.spm"], ids=["directory", "missing-parent"])
    def test_unwritable_out_prints_nothing(self, fig7_file, tmp_path, capsys, target):
        (tmp_path / "dir").mkdir()
        code, out = invoke(["augment", fig7_file, "--target", "2", "--out", str(tmp_path / target)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("sprank: ")


class TestModuleEntryPoint:
    def test_import_does_not_load_numpy(self):
        # The runtime is pure Python; numpy is a test dependency only.
        proc = python("-c", "import sys, sprank.cli; print('numpy' in sys.modules)")
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank"],
            ["resilience", "--weak"],
            ["decompose", "--json"],
            ["augment", "--target", "2"],
            ["verify"],
        ],
        ids=["rank", "resilience", "decompose", "augment", "verify"],
    )
    def test_subcommand_does_not_load_numpy(self, fig3_file, argv):
        # Every subcommand runs on pure Python, verify's GF(p) rank included.
        argv = [argv[0], fig3_file, *argv[1:]]
        code = (
            "import io, sys\n"
            "from sprank.cli import run\n"
            f"code = run({argv!r}, out=io.StringIO())\n"
            "print(code, 'numpy' in sys.modules)\n"
        )
        proc = python("-c", code)
        assert (proc.returncode, proc.stdout) == (0, f"{invoke(argv)[0]} False\n")

    def test_python_m_matches_run(self, fig3_file):
        proc = python("-m", "sprank.cli", "rank", fig3_file)
        assert (proc.returncode, proc.stdout) == invoke(["rank", fig3_file])


class TestVerify:
    def test_cross_checks_pass(self, fig7_file):
        code, out = invoke(["verify", fig7_file])
        assert code == 0
        assert "all checks passed" in out
        assert out.count("PASS") == 4

    def test_one_sweep_serves_every_check(self, fig3_file, monkeypatch):
        # Rank, strong resilience and the weak bounds all read the same
        # checked sweep; on Fig 3 the bounds meet, so nothing is extracted.
        swept = count_calls(monkeypatch, flow_engine, "resilience_sweep")
        extracted = count_calls(monkeypatch, resilience_mod, "_colour_matchings")
        code, out = invoke(["verify", fig3_file])
        assert code == 0 and "all checks passed" in out
        assert swept == [1] and extracted == [0]

    def test_complete_6x6_ends_in_budget_error(self, tmp_path):
        # The oracle's disjoint-family search stops at six matchings; the
        # 1000 subset tests then run out in weak resilience.
        path = tmp_path / "k66.spm"
        path.write_text("6 6\n" + "* * * * * *\n" * 6)
        proc = python(
            "-m", "sprank.cli", "verify", str(path), timeout=30, SPRANK_ORACLE_BUDGET="1000"
        )
        assert proc.returncode == 4, proc.stderr

    def test_triangle_dead_ends_end_in_budget_error(self, tmp_path):
        # One matching under an exponential tree of dead ends: the oracle's
        # matching enumeration must run out of nodes, not hang.
        path = tmp_path / "tri24.json"
        path.write_text(serialize_json(sprank.from_bipartite(upper_triangle(24))))
        proc = python("-m", "sprank.cli", "verify", str(path), timeout=30)
        assert proc.returncode == 4, proc.stderr
        assert "budget exceeded" in proc.stderr

    def test_dense_400_runs_out_of_nodes_not_memory(self, tmp_path):
        # 320 kB of .spm: 400 x 400, every cell a star but row 0's last
        # 399.  Under a 1.5 GiB address-space cap, set in the child only,
        # the oracle's matching search must run out of nodes and exit 4
        # with one line.  A table of one column bit and one edge bit per
        # edge asked for about 1.6 GB before the first node and ended in a
        # MemoryError traceback.  Measured at 4.2 s and 0.8 GB max RSS
        # (2-core host, Python 3.11); the masks the node budget lets the
        # search keep are most of that.
        path = tmp_path / "dense400.spm"
        path.write_text("400 400\n*" + " 0" * 399 + "\n" + ("*" + " *" * 399 + "\n") * 399)
        assert path.stat().st_size == 320_008
        cap = 3 * 2**29
        code = (
            f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "from sprank.cli import main; sys.argv[0] = 'sprank'; main()"
        )
        proc = python("-c", code, "verify", str(path), timeout=120)
        assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr[-2000:]
        assert proc.stderr.count("\n") == 1, proc.stderr[-2000:]
        assert proc.stderr.startswith("sprank: budget exceeded: matching search exceeded")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv", [["resilience"], ["resilience", "--weak"], ["verify"]], ids=["strong", "weak", "verify"]
)
def test_only_g_gets_a_row_layout(fig3_file, fig3_graph, monkeypatch, argv):
    # The sweep checks its witness by degrees, and none of these requests
    # colours it (on Fig 3 the bounds settle weak resilience), so the one
    # row layout built is g's.
    built = []
    layout = sprank.BipartiteGraph._layout.func

    def spy(graph):
        built.append(graph)
        return layout(graph)

    counted = functools.cached_property(spy)
    counted.__set_name__(sprank.BipartiteGraph, "_layout")
    monkeypatch.setattr(sprank.BipartiteGraph, "_layout", counted)
    assert invoke([argv[0], fig3_file, *argv[1:]])[0] == 0
    assert built == [fig3_graph]


class TestPinnedRuns:
    # Whole runs, pinned to their exit code, stdout and stderr.  The tests
    # also run under python -O, which strips assert statements, so these
    # show that every check on their paths raises.
    @pytest.mark.parametrize(
        "text, args, code, out, err",
        [
            (FIG7_TEXT, ["verify"], 0, ALL_PASSED, ""),
            # Both weak-resilience enumerations pass every subset of the
            # complete 6 x 6 that misses a matching they have already found.
            (K66_TEXT, ["verify"], 0, ALL_PASSED, ""),
            # The complete 7 x 7: ell* = d_min = 7, so weak resilience is 6
            # once the budget, C(49, 1) + ... + C(49, 7) subsets, reaches a
            # row's edges; the default budget of 10^6 runs out in size 5.
            (K77_TEXT, ["resilience", "--weak", "--budget", "102022809"], 0,
             "weak_resilience: 6\n", ""),
            (K77_TEXT, ["resilience", "--weak"], 4, "",
             "sprank: budget exceeded: weak resilience budget exhausted; >= 4 certified\n"),
            # The weak gap, ell* = 1 < d_min = 2: verify's weak check
            # enumerates from the checked sweep of its strong check, and the
            # deciding subset is proven by the min cut of its repair's fill.
            (GAP4_TEXT, ["verify"], 0, ALL_PASSED, ""),
            (GAP4_TEXT, ["resilience", "--weak"], 0, "weak_resilience: 1\n", ""),
            (GAP4_TEXT, ["resilience", "--weak", "--json"], 0, '{"weak_resilience": 1}\n', ""),
            (DEF23_TEXT, ["resilience", "--weak", "--json"], 3, '{"weak_resilience": -1}\n', ""),
            # Fig 3's 10 edges cover size 1 but no subset of size ell* = 2.
            (FIG3_TEXT, ["resilience", "--weak", "--budget", "10"], 4, "",
             "sprank: budget exceeded: weak resilience budget exhausted; >= 1 certified\n"),
            # ell* = d_min = 2 and |E| = 9, with row 2's edges at indices 3
            # and 4: after the 9 subsets of size 1, they rank 21 in size 2,
            # so a budget of 30 runs out and 31 reaches them.
            (ROW2_TEXT, ["resilience", "--weak", "--budget", "30"], 4, "",
             "sprank: budget exceeded: weak resilience budget exhausted; >= 1 certified\n"),
            (ROW2_TEXT, ["resilience", "--weak", "--budget", "31"], 0,
             "weak_resilience: 1\n", ""),
            # Fig 3 has d_min = 2: at target 1 the checked sweep finds it
            # met; at target 2 the bound proves it short without a sweep.
            (FIG3_TEXT, ["augment", "--target", "1"], 0,
             "delta_star: 0, achieved_resilience: 1\n", ""),
            (FIG3_TEXT, ["augment", "--target", "2"], 0,
             "delta_star: 2, achieved_resilience: 2\nadded: (1,3) (4,1)\n", ""),
            # Fills that take columns both from each row's own reach and,
            # after a raise, from the columns with room.
            (P36_TEXT, ["augment", "--target", "4"], 0,
             "delta_star: 3, achieved_resilience: 4\nadded: (1,5) (2,1) (3,2)\n", ""),
            (P36_TEXT, ["augment", "--target", "5"], 0,
             "delta_star: 6, achieved_resilience: 5\n"
             "added: (1,5) (1,6) (2,1) (2,6) (3,2) (3,4)\n", ""),
            (FIG7_TEXT, ["augment", "--target", "2"], 0,
             "delta_star: 2, achieved_resilience: 2\nadded: (1,3) (2,3)\n", ""),
            # augment --budget plans each target upward from the current
            # resilience until one costs more than the budget.
            (FIG7_TEXT, ["augment", "--budget", "1"], 0,
             "delta_star: 0, achieved_resilience: 1\n", ""),
            (FIG7_TEXT, ["augment", "--budget", "2"], 0,
             "delta_star: 2, achieved_resilience: 2\nadded: (1,3) (2,3)\n", ""),
            # Rank deficient: a budget of 0 restores nothing, 1 the rank.
            (DEF23_TEXT, ["augment", "--budget", "0"], 3,
             "delta_star: 0, achieved_resilience: -1\n", ""),
            (DEF23_TEXT, ["augment", "--budget", "1"], 0,
             "delta_star: 1, achieved_resilience: 0\nadded: (2,2)\n", ""),
            (FIG7_TEXT, ["augment", "--target", "abc"], 2, "",
             "sprank: argument --target: expected a nonnegative integer, got 'abc'\n"),
        ],
        ids=[
            "fig7-verify", "k66-verify", "k77-weak-budget", "k77-weak",
            "gap4-verify", "gap4-weak", "gap4-weak-json", "def23-weak-json",
            "fig3-weak-budget", "row2-weak-budget-30", "row2-weak-budget-31",
            "fig3-target-1", "fig3-target-2", "p36-target-4", "p36-target-5",
            "fig7-target-2", "fig7-budget-1", "fig7-budget-2", "def23-budget-0",
            "def23-budget-1", "fig7-target-abc",
        ],
    )
    def test_run(self, tmp_path, capsys, text, args, code, out, err):
        path = tmp_path / "pattern.spm"
        path.write_text(text)
        assert invoke([args[0], str(path), *args[1:]]) == (code, out)
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "name, text, budget, err",
        [
            # 1000 subsets: the library's enumeration, which runs before
            # the oracle's, runs out in size 3 of K(6,6)'s 36 edges.
            ("k66.spm", K66_TEXT, "1000",
             "sprank: budget exceeded: weak resilience budget exhausted; >= 2 certified\n"),
            # The rank passes; the matching enumeration behind
            # brute_strong_resilience walks K(9,9) into the three rows'
            # dead end and runs out of its 10^5 nodes.
            ("b990.json", serialize_json(sprank.from_bipartite(pruning_proof_block(990))), None,
             "sprank: budget exceeded: matching search exceeded 100000 nodes\n"),
        ],
        ids=["k66-verify-budget-1000", "b990-verify"],
    )
    def test_verify_budget_run(self, tmp_path, capsys, monkeypatch, name, text, budget, err):
        if budget is None:
            monkeypatch.delenv("SPRANK_ORACLE_BUDGET", raising=False)
        else:
            monkeypatch.setenv("SPRANK_ORACLE_BUDGET", budget)
        path = tmp_path / name
        path.write_text(text)
        assert invoke(["verify", str(path)]) == (4, "")
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "name, text, args, first, lines",
        [
            # A sparse 1500 x 1500 diagonal, over the n*m dense-size cap:
            # the plan and its certificate run on the implicit complement.
            ("d1500.json",
             json.dumps({"n": 1500, "m": 1500, "stars": [[i, i] for i in range(1, 1501)]}),
             ["augment", "--target", "2"], "delta_star: 3000, achieved_resilience: 2", 2),
            # 1 x 3000, every cell a star: one line per matching, after the
            # Koenig colouring, the decomposition's one check, has split
            # the wide witness.
            ("star3000.spm", "1 3000\n" + " ".join(["*"] * 3000) + "\n",
             ["decompose"], "ell_star: 3000", 3001),
        ],
        ids=["d1500", "star3000"],
    )
    def test_wide_run(self, tmp_path, name, text, args, first, lines):
        path = tmp_path / name
        path.write_text(text)
        code, out = invoke([args[0], str(path), *args[1:]])
        assert (code, out.splitlines()[0], len(out.splitlines())) == (0, first, lines)


# Every subcommand and flag in valid use, --opt=value forms and
# abbreviations, "--", usage errors of each kind, help at both levels, and
# argv that no subcommand names.  {f} is Fig 3, {x} a missing file, {o} a
# file to write.
DISPATCH_ARGVS = [
    ["rank", "{f}"], ["rank", "--json", "{f}"], ["rank", "{f}", "--js"],
    ["resilience", "{f}"], ["resilience", "{f}", "--json"],
    ["resilience", "{f}", "--weak"], ["resilience", "{f}", "--weak", "--json"],
    ["resilience", "{f}", "--weak", "--budget", "3"], ["resilience", "{f}", "--weak", "--budget=30"],
    ["resilience", "{f}", "--wea"], ["resilience", "{f}", "--wea", "--bud", "3"],
    ["resilience", "{f}", "--budget", "3"], ["resilience", "{f}", "--weak", "--budget", "x"],
    ["decompose", "{f}"], ["decompose", "{f}", "--json"], ["decompose", "{f}", "--dot", "{o}"],
    ["decompose", "{f}", "--dot={o}", "--json"],
    ["augment", "{f}", "--target", "2"], ["augment", "{f}", "--target=2", "--json"],
    ["augment", "{f}", "--tar", "1", "--out", "{o}"], ["augment", "{f}", "--budget", "2", "--out={o}"],
    ["augment", "{f}", "--target", "1", "--budget", "2"], ["augment", "{f}"],
    ["augment", "{f}", "--target", "abc"], ["augment", "{f}", "--budget", "-1"],
    ["augment", "{f}", "--target", "1.5"], ["augment", "{f}", "--target", "9"],
    ["verify", "{f}"], ["verify", "--", "{f}"], ["rank", "{f}", "--"], ["rank", "--", "--json"],
    ["rank", "{x}"], ["verify", "{x}"], ["rank"], ["verify"],
    ["rank", "{f}", "{f}"], ["verify", "{f}", "extra"], ["rank", "{f}", "--bogus"],
    ["--help"], ["-h"], ["--he"], ["-h", "rank"], ["rank", "--help"], ["augment", "-h"],
    ["verify", "{f}", "--help"], ["decompose", "--he"],
    ["bogus", "{f}"], ["ran", "{f}"], ["res", "{f}", "--weak"], ["--", "rank", "{f}"], ["--json"], [],
]


def _dispatch_outcome(argv, capsys):
    """Exit code or SystemExit code, run's stdout, and what reached sys.stdout and stderr."""
    out = io.StringIO()
    try:
        result = ("code", run(argv, out=out))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, out.getvalue(), captured.out, captured.err


class TestDispatch:
    def test_every_subcommand_has_a_direct_route(self):
        assert set(cli._PARSER._commands) == {"rank", "resilience", "decompose", "augment", "verify"}

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_matches_top_level_parser(self, tmp_path, capsys, monkeypatch, argv):
        # The reference runner sends every argv through _PARSER.parse_args,
        # as run did before a named subcommand went to its own parser.
        (tmp_path / "fig3.spm").write_text(FIG3_TEXT)
        paths = {"f": tmp_path / "fig3.spm", "x": tmp_path / "missing.spm", "o": tmp_path / "out"}
        concrete = [a.format(**paths) for a in argv]
        direct = _dispatch_outcome(concrete, capsys)
        with monkeypatch.context() as patched:
            patched.setattr(cli._PARSER, "_commands", {})
            reference = _dispatch_outcome(concrete, capsys)
        assert direct == reference


class TestErrorPaths:
    @pytest.mark.parametrize("command", ["resilience", "verify", "decompose"])
    @FORGED_WITNESSES
    def test_forged_witness_exits_1(self, fig3_file, monkeypatch, capsys, command, forge, message):
        forge_sweep(monkeypatch, forge)
        assert invoke([command, fig3_file]) == (1, "")
        assert message in capsys.readouterr().err

    @FORGED_PLANS
    @pytest.mark.parametrize(
        "flags", [["--target", "2"], ["--target", "1"], ["--budget", "100"]],
        ids=["target-bound", "target-sweep", "budget"],
    )
    def test_forged_plan_exits_1(self, tmp_path, monkeypatch, capsys, corrupt, message, flags):
        path = tmp_path / "gap4.spm"
        path.write_text(serialize_text(sprank.from_bipartite(weak_gap_graph())))
        forge_certify(monkeypatch, corrupt)
        assert invoke(["augment", str(path), *flags]) == (1, "")
        assert re.search(message, capsys.readouterr().err)

    def test_missing_file(self):
        code, _ = invoke(["rank", "/nonexistent/input.spm"])
        assert code == 1

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.spm"
        path.write_text("2 2\n* *\n")
        code, _ = invoke(["rank", str(path)])
        assert code == 1

    @pytest.mark.parametrize(
        "name, data, offset",
        [
            ("bad.spm", b"1 2\n* \xff\n", 6),
            ("bad.json", b'{"n": 1, "m": 1, "stars": [[1, 1]]}\xff', 35),
        ],
    )
    def test_invalid_utf8_is_input_error(self, tmp_path, name, data, offset):
        path = tmp_path / name
        path.write_bytes(data)
        proc = python("-m", "sprank.cli", "rank", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"sprank: not valid UTF-8: byte 0xff at offset {offset}\n"
        assert "Traceback" not in proc.stderr

    @HOSTILE_JSON
    def test_hostile_json_is_input_error(self, tmp_path, doc, reason):
        path = tmp_path / "hostile.json"
        path.write_text(doc)
        proc = python("-m", "sprank.cli", "rank", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"sprank: invalid JSON: {reason}\n"

    @LONG_BAD_STAR
    def test_bad_star_entry_is_one_short_line(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        proc = python("-m", "sprank.cli", "rank", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("sprank: bad star entry ")
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 200

    def test_unknown_flag(self, fig3_file):
        code, _ = invoke(["rank", fig3_file, "--bogus"])
        assert code == 2

    def test_bad_oracle_budget_is_usage_error(self, fig7_file, monkeypatch):
        for raw in ("abc", "0"):
            monkeypatch.setenv("SPRANK_ORACLE_BUDGET", raw)
            code, _ = invoke(["verify", fig7_file])
            assert code == 2

    def test_negative_augment_budget_is_usage_error(self, fig7_file):
        for flag in ("--budget", "--target"):
            assert invoke(["augment", fig7_file, flag, "-1"]) == (2, "")
        # A target of m or more depends on the file, so it is an input error.
        assert invoke(["augment", fig7_file, "--target", "3"]) == (1, "")

    def test_negative_weak_budget_is_usage_error(self, fig3_file):
        code, _ = invoke(["resilience", fig3_file, "--weak", "--budget", "-5"])
        assert code == 2

    def test_budget_without_weak_is_usage_error(self, fig7_file, capsys):
        code, out = invoke(["resilience", fig7_file, "--budget", "1"])
        assert (code, out) == (2, "")
        assert "--budget needs --weak" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, shape",
        [
            ("neg.spm", "-1 3\n", "(-1, 3)"),
            ("neg.json", '{"n": -1, "m": 3, "stars": []}', "(-1, 3)"),
            ("zero.spm", "2 0\n* *\n* *\n", "(2, 0)"),
            ("zero.json", '{"n": 2, "m": 0, "stars": []}', "(2, 0)"),
        ],
    )
    def test_nonpositive_header_is_input_error(self, tmp_path, capsys, name, text, shape):
        # Both formats reject the header itself, before any row is counted.
        path = tmp_path / name
        path.write_text(text)
        code, out = invoke(["rank", str(path)])
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err == f"sprank: pattern dimensions must be positive, got {shape}\n"

    def test_dense_size_cap_is_input_error(self, tmp_path, monkeypatch, capsys):
        # A few bytes of JSON naming a 10^5 x 10^5 grid; the JSON header rule
        # must stop augment before the fair b-matching solver does any
        # per-cell work.  The engine itself also serves the rank sweep, so
        # only its per-cell steps are barred.
        def no_cells(*args, **kwargs):
            raise AssertionError("fair b-matching solved past the size cap")

        def no_arcs(*args, **kwargs):
            raise AssertionError("dense network built past the size cap")

        monkeypatch.setattr(flow_engine._BMatching, "raise_potentials", no_cells)
        monkeypatch.setattr(flow_engine._BMatching, "certify", no_cells)
        monkeypatch.setattr(flow_engine, "Arc", no_arcs)
        path = tmp_path / "huge.json"
        path.write_text('{"n": 100000, "m": 100000, "stars": []}')
        code, _ = invoke(["augment", str(path), "--target", "0"])
        assert code == 1
        assert "header claims 100000 x 100000 for 0 stars" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": 1, "m": 1000000, "stars": []}',
            '{"n": 100000, "m": 100000, "stars": []}',
        ],
        ids=["1x1e6", "1e5x1e5"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["rank"], ["resilience"], ["decompose"], ["augment", "--target", "0"]],
        ids=lambda argv: argv[0],
    )
    def test_json_header_cannot_claim_a_huge_grid(self, tmp_path, capsys, doc, argv):
        # A few bytes of header, no stars: rejected before anything per row
        # or per column is built.
        path = tmp_path / "header.json"
        path.write_text(doc)
        tracemalloc.start()
        try:
            code, _ = invoke([argv[0], str(path), *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "header claims" in capsys.readouterr().err
        assert peak < 256 * 1024

    def test_augment_caps_pairs_not_cells(self, tmp_path, monkeypatch, capsys):
        # The fair b-matching returns n * (K+1) pairs, and only those are
        # held to the cap: 4 x 6 has 24 cells, over a cap of 12.
        monkeypatch.setattr(pattern_mod, "MAX_DENSE_CELLS", 12)
        path = tmp_path / "d4x6.json"
        path.write_text(json.dumps({"n": 4, "m": 6, "stars": [[i, i] for i in range(1, 5)]}))
        code, out = invoke(["augment", str(path), "--target", "2"])
        assert (code, out.splitlines()[0]) == (0, "delta_star: 8, achieved_resilience: 2")
        code, out = invoke(["augment", str(path), "--target", "3"])
        assert (code, out) == (1, "")
        assert "4 x 4 = 16 cells exceeds the dense-size cap" in capsys.readouterr().err

    def test_augment_large_sparse_json(self, tmp_path):
        # 3000 x 3000, the diagonal plus 2 random columns per row: 9e6 cells,
        # 9 times the dense-size cap, planned on the implicit complement.
        # Measured at 0.19 s and a 5.7 MB tracemalloc peak (2-core host,
        # Python 3.11); a dense n*m search takes about 5 s and 49 MB.
        rng = random.Random(3000)
        n = 3000
        stars = {(i, i) for i in range(1, n + 1)}
        stars |= {(i, rng.randint(1, n)) for i in range(1, n + 1) for _ in range(2)}
        path = tmp_path / "s3000.json"
        path.write_text(json.dumps({"n": n, "m": n, "stars": sorted(stars)}))
        argv = ["augment", str(path), "--target", "2"]
        start = time.perf_counter()
        code, out = invoke(argv)
        assert time.perf_counter() - start < 2.0
        assert (code, out.splitlines()[0]) == (0, "delta_star: 1668, achieved_resilience: 2")
        tracemalloc.start()
        try:
            assert invoke(argv) == (code, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024

    def test_augment_out_over_cap_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # The written pattern has n * m tokens, so --out is under the cap
        # even when the plan itself needs no dense work (target 0 is met).
        monkeypatch.setattr(pattern_mod, "MAX_DENSE_CELLS", 5)
        path = tmp_path / "d3.spm"
        path.write_text("3 3\n* 0 0\n0 * 0\n0 0 *\n")
        out = tmp_path / "f"
        code, _ = invoke(["augment", str(path), "--target", "0", "--out", str(out)])
        assert code == 1
        assert "dense-size cap" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_deep_diagonal_passes(self, tmp_path):
        # 990 rows: every oracle search must keep its own stack, not run
        # into Python's recursion limit.
        stars = [[i, i] for i in range(1, 991)]
        path = tmp_path / "d990.json"
        path.write_text(json.dumps({"n": 990, "m": 990, "stars": stars}))
        start = time.perf_counter()
        code, out = invoke(["verify", str(path)])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out.endswith("all checks passed\n")

    def test_verify_deep_block_is_budget_error(self, tmp_path, capsys):
        # The oracle's rank is one elimination, so it passes; the matching
        # enumeration behind brute_strong_resilience walks all 9! matchings
        # of K(9,9) into the dead end of the last three rows, and must run
        # out of nodes, not into Python's recursion limit.
        path = tmp_path / "b990.json"
        path.write_text(serialize_json(sprank.from_bipartite(pruning_proof_block(990))))
        code, _ = invoke(["verify", str(path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "budget exceeded: matching search exceeded" in err
        assert "rank >=" not in err

    def test_deficient_pattern_exit(self, tmp_path):
        path = tmp_path / "deficient.spm"
        path.write_text(DEFICIENT_TEXT)
        code, _ = invoke(["resilience", str(path)])
        assert code == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "{f3}"],
            ["resilience", "{f3}"],
            ["resilience", "{f3}", "--weak"],
            ["resilience", "{f3}", "--json"],
            ["decompose", "{f3}"],
            ["decompose", "{f3}", "--json"],
            ["augment", "{f7}", "--target", "2"],
            ["augment", "{f7}", "--budget", "2", "--json"],
            ["verify", "{f7}"],
        ],
    )
    def test_repeated_runs_identical(self, argv, fig3_file, fig7_file):
        concrete = [a.format(f3=fig3_file, f7=fig7_file) for a in argv]
        first = invoke(concrete)
        second = invoke(concrete)
        assert first == second

    def test_dot_output_byte_identical(self, fig3_file, tmp_path):
        paths = [tmp_path / "a.dot", tmp_path / "b.dot"]
        for p in paths:
            invoke(["decompose", fig3_file, "--dot", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()
