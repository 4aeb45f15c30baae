"""Smoke test of the benchmark on tiny corpora.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json

import pytest

import corpus
import run
import spans
from gate import Gate

TINY = {
    "analyze": {
        "shapes": (("planted", 6, 8, 2, 1), ("deficient", 6, 8, 2), ("planted", 5, 5, 1, 1), ("planted", 6, 7, 2, 1)),
        "big": ((30, 32, 2),),
    },
    "plan": {
        "shapes": (
            ("target", 3, 4, 1, 1),
            ("target", 6, 8, 1, 3),
            ("target", 4, 5, 2, 1),
            ("budget", 3, 4, 1, 1, 3),
        ),
    },
    "certify": {"shapes": ((3, 4, 2, 2), (4, 5, 1, 3)) * 4},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics(workload, tmp_path):
    result, record, _ = run.measure(workload, 7, 0, False, tmp_path, **TINY[workload])
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and record["failed_ratio"] == 0
    assert result["attempted"] == record["samples"] >= run.MIN_SAMPLES
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_layer_metrics_and_unwrapping(workload, tmp_path):
    run.load_cli()
    before = spans.function_bindings()
    result, _, _ = run.measure(workload, 7, 0, True, tmp_path, **TINY[workload])
    after = spans.function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["cli.run.calls"]["value"] == result["attempted"] // 2


def test_same_seed_same_digest(tmp_path):
    first = run.measure("analyze", 3, 0, False, tmp_path / "a", **TINY["analyze"])[1]
    again = run.measure("analyze", 3, 0, False, tmp_path / "b", **TINY["analyze"])[1]
    other = run.measure("analyze", 4, 0, False, tmp_path / "c", **TINY["analyze"])[1]
    assert first["output_sha256"] == again["output_sha256"] != other["output_sha256"]


def test_gate_catches_an_understated_ell_star(tmp_path):
    cli, _ = run.load_cli()
    reqs = corpus.build("analyze", 1, tmp_path, shapes=(("planted", 6, 8, 2, 1),), big=())
    dec = next(r for r in reqs if r.command == "decompose")
    out = io.StringIO()
    rc = cli.run(list(dec.argv), out=out)
    assert Gate().check(dec, rc, out.getvalue(), "") == []
    doc = json.loads(out.getvalue())
    assert doc["ell_star"] >= 2
    doc["ell_star"] -= 1
    doc["strong_resilience"] -= 1
    doc["matchings"].pop()
    problems = Gate().check(dec, rc, json.dumps(doc), "")
    assert any("infeasible" in p for p in problems)
