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
        # Only the oracle's rank, run by verify, needs numpy.
        env = dict(os.environ, PYTHONPATH=str(Path(sprank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sprank.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_python_m_matches_run(self, fig3_file):
        env = dict(os.environ, PYTHONPATH=str(Path(sprank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sprank.cli", "rank", fig3_file],
            capture_output=True, text=True, env=env, timeout=60,
        )
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
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(sprank.__file__).parents[1]),
            SPRANK_ORACLE_BUDGET="1000",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "sprank.cli", "verify", str(path)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 4, proc.stderr

    def test_triangle_dead_ends_end_in_budget_error(self, tmp_path):
        # One matching under an exponential tree of dead ends: the oracle's
        # matching enumeration must run out of nodes, not hang.
        path = tmp_path / "tri24.json"
        path.write_text(serialize_json(sprank.from_bipartite(upper_triangle(24))))
        env = dict(os.environ, PYTHONPATH=str(Path(sprank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sprank.cli", "verify", str(path)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 4, proc.stderr
        assert "budget exceeded" in proc.stderr


class TestErrorPaths:
    @pytest.mark.parametrize("command", ["resilience", "verify", "decompose"])
    @FORGED_WITNESSES
    def test_forged_witness_exits_1(
        self, fig3_file, monkeypatch, command, n_left, edges, ell_star
    ):
        forge_sweep(monkeypatch, n_left, edges, ell_star)
        code, _ = invoke([command, fig3_file])
        assert code == 1

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
        env = dict(os.environ, PYTHONPATH=str(Path(sprank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sprank.cli", "rank", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"sprank: not valid UTF-8: byte 0xff at offset {offset}\n"
        assert "Traceback" not in proc.stderr

    @HOSTILE_JSON
    def test_hostile_json_is_input_error(self, tmp_path, doc, reason):
        path = tmp_path / "hostile.json"
        path.write_text(doc)
        env = dict(os.environ, PYTHONPATH=str(Path(sprank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sprank.cli", "rank", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"sprank: invalid JSON: {reason}\n"

    @LONG_BAD_STAR
    def test_bad_star_entry_is_one_short_line(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        env = dict(os.environ, PYTHONPATH=str(Path(sprank.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sprank.cli", "rank", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
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
