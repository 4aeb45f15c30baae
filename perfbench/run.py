"""sprank benchmark: the real CLI, driven in-process over a seeded corpus.

    python3 perfbench/run.py --workload {analyze,plan,certify} --seed N --seconds S --trace {0,1}

Closed loop, one client, one thread: each request is ``sprank.cli.run(argv,
out=StringIO())`` and the next starts when it returns.  Library defaults
are used exactly as a CLI user gets them.

``--trace 0`` makes as many whole passes over the corpus as fit in
``--seconds`` (at least one; every corpus has at least 100 requests) and
reports the end-to-end metrics.  ``--trace 1`` makes one untraced and one
traced pass over the same requests and reports per-layer metrics from the
spans, plus the tracing overhead (traced minus untraced time in
``cli.run``).

Every request's output is checked by ``gate.py`` after the loop, and any
repeat of a request must reproduce its first output byte for byte.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The layer -> end-to-end mapping and the reasons for each workload are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from io import StringIO
from pathlib import Path
from time import perf_counter

import corpus
from gate import Gate, max_flow_value
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_SAMPLES = 100
SUBCOMMANDS = ("rank", "resilience", "decompose", "augment", "verify")
# (function, metrics) per layer; "calls"/"self_s"/"total_s" come from spans.
LAYER_FUNCTIONS = (
    ("flow.max_flow", ("calls", "self_s")),
    ("flow.min_cost_max_flow", ("calls", "self_s")),
    ("flow.build_resilience_network", ("calls", "self_s")),
    ("resilience.structural_rank", ("calls", "self_s", "total_s")),
    ("resilience.strong_resilience", ("calls", "self_s", "total_s")),
    ("resilience.extract_disjoint_matchings", ("calls", "self_s", "total_s")),
    ("resilience.weak_resilience", ("calls", "self_s", "total_s")),
    ("augment.min_edges_for_target", ("calls", "self_s", "total_s")),
    ("augment.fair_b_matching", ("calls", "self_s", "total_s")),
    ("augment.best_within_budget", ("calls", "self_s", "total_s")),
    ("io.load_pattern", ("calls", "self_s")),
    ("io.parse_text", ("calls", "self_s")),
    ("io.serialize_text", ("calls", "self_s")),
    ("io.export_dot", ("calls", "self_s")),
    ("pattern.to_bipartite", ("calls", "self_s")),
    ("pattern.is_union_of_k_matchings", ("calls", "self_s")),
    ("cli.run", ("calls", "self_s")),
    ("oracle.brute_rank", ("calls", "self_s")),
    ("oracle.brute_strong_resilience", ("calls", "self_s")),
    ("oracle.brute_weak_resilience", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}
# The modules of src/sprank when the benchmark was defined; the metric names
# stay fixed, and loc.total also counts any module added later.
LOC_MODULES = ("__init__", "augment", "cli", "errors", "flow", "io", "oracle", "pattern", "resilience")

# The speed of a shared host drifts by up to 3x within seconds, which would
# swamp any change to sprank.  So every timed interval is calibrated: it is
# scaled by CALIBRATION_S over the median time of a fixed pure-Python flow
# solve (the gate's Dinic on a fixed pattern) measured just around it.  A
# calibrated second is a second on a host where that solve takes 1 ms.
# The raw wall times are printed beside the calibrated ones.
CALIBRATION_PATTERN = corpus.left_regular(random.Random(0), 30, 36, 4)
CALIBRATION_S = 1e-3
CALIBRATION_WINDOW = 5  # probes each side of a request


def probe() -> float:
    """Seconds taken by the fixed calibration solve (benchmark code only, so src/ cannot move it)."""
    start = perf_counter()
    max_flow_value(CALIBRATION_PATTERN, 3)
    return perf_counter() - start


def calibrated(raw: list[float], probes: list[float]) -> list[float]:
    """Scale each raw time by the median of the 2 * CALIBRATION_WINDOW probes around it.

    raw[k] was timed between probes[k + CALIBRATION_WINDOW - 1] and
    probes[k + CALIBRATION_WINDOW].
    """
    w = CALIBRATION_WINDOW
    return [dt * CALIBRATION_S / statistics.median(probes[k:k + 2 * w]) for k, dt in enumerate(raw)]


def load_cli():
    """Import sprank from this checkout's src/ and return (sprank.cli, import seconds)."""
    init = SRC / "sprank" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} is missing; run from the root of a sprank checkout")
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import sprank.cli

    import_s = perf_counter() - start
    if Path(sprank.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported sprank from {sprank.__file__}, not {init}")
    return sprank.cli, import_s


def _digest(req: corpus.Request, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for key in ("dot", "out"):
        if key in req.info:
            h.update(Path(req.info[key]).read_bytes())
    return h.hexdigest()


def drive(cli, reqs, stop):
    """Closed loop over ``reqs`` (cycling) until ``stop(done, elapsed)``.

    Returns the executions as (index, calibrated seconds in cli.run,
    digest), the raw seconds of each, and the first output of each request
    index as (exit code or None, stdout, stderr, digest).  A calibration
    probe runs before the loop and after every request, outside the timing.
    """
    done: list[tuple[int, str]] = []
    raw: list[float] = []
    probes = [probe() for _ in range(CALIBRATION_WINDOW)]
    first: dict[int, tuple] = {}
    real_stderr = sys.stderr
    began = perf_counter()
    while not stop(len(done), perf_counter() - began):
        j = len(done) % len(reqs)
        req = reqs[j]
        out, err = StringIO(), StringIO()
        sys.stderr = err
        start = perf_counter()
        try:
            rc = cli.run(list(req.argv), out=out)
        except Exception:  # a traceback is a failed request, not a failed benchmark
            rc = None
            err.write(traceback.format_exc())
        finally:
            elapsed = perf_counter() - start
            sys.stderr = real_stderr
        probes.append(probe())
        digest = _digest(req, out.getvalue())
        first.setdefault(j, (rc, out.getvalue(), err.getvalue(), digest))
        done.append((j, digest))
        raw.append(elapsed)
    probes += [probe() for _ in range(CALIBRATION_WINDOW - 1)]
    return [(j, dt, d) for (j, d), dt in zip(done, calibrated(raw, probes))], raw, first


def whole_passes(count: int, seconds: float):
    """Stop rule: whole passes over the corpus, as many as fit in ``seconds``.

    At least one pass and MIN_SAMPLES requests, so p90 has ten samples beyond it.

    Whole passes give every request the same weight in the percentiles on
    every seed, which a pass cut off by the clock would not.
    """

    def stop(done: int, elapsed: float) -> bool:
        passes = done // count
        if done % count or done < MIN_SAMPLES:
            return False
        return elapsed * (passes + 1) / passes > seconds

    return stop


def judge(reqs, runs, first) -> tuple[int, list[str]]:
    """Gate the first output of every request; count failed executions."""
    gate = Gate()
    problems: dict[int, list[str]] = {}
    for j, (rc, out, err, _) in sorted(first.items()):
        found = [f"raised\n{err}"] if rc is None else gate.check(reqs[j], rc, out, err)
        if found:
            problems[j] = found
    for path, found in gate.cross_check().items():
        for j in first:
            if reqs[j].info.get("group") == path:
                problems.setdefault(j, []).extend(found)
    failed = 0
    for j, _, digest in runs:
        if digest != first[j][3]:
            problems.setdefault(j, []).append("output differs from its first run")
        failed += j in problems
    notes = [f"{' '.join(reqs[j].argv[:1] + reqs[j].argv[2:])}: {'; '.join(p)}" for j, p in sorted(problems.items())]
    return failed, notes


def corpus_digest(first, count: int) -> str:
    h = hashlib.sha256()
    for j in range(count):
        h.update(first[j][3].encode())
    return h.hexdigest()


def loc_metrics() -> dict[str, int]:
    """Non-blank, non-comment source lines of each module in LOC_MODULES, and of all of src/sprank."""
    counts = {}
    for path in sorted((SRC / "sprank").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        counts[path.stem] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return {**{f"loc.{mod}": counts.get(mod, 0) for mod in LOC_MODULES}, "loc.total": sum(counts.values())}


def layer_metrics(tracer: Tracer, untraced, traced, reqs) -> dict[str, tuple[float, str]]:
    stats = tracer.summary()
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "c0": 0, "c1": 0, "c2": 0}
    get = lambda name: stats.get(name, zero)
    metrics: dict[str, tuple[float, str]] = {}
    for name, fields in LAYER_FUNCTIONS:
        for f in fields:
            metrics[f"{name}.{f}"] = (get(name)[f], UNITS[f])
    mf, mcf = get("flow.max_flow"), get("flow.min_cost_max_flow")
    metrics["flow.max_flow.arcs"] = (mf["c0"], "count")
    metrics["flow.max_flow.flow_units"] = (mf["c1"], "count")
    metrics["flow.max_flow.saturated_ratio"] = (mf["c2"] / mf["calls"] if mf["calls"] else 0.0, "ratio")
    metrics["flow.min_cost_max_flow.arcs"] = (mcf["c0"], "count")
    metrics["flow.min_cost_max_flow.flow_units"] = (mcf["c1"], "count")
    metrics["io.load_pattern.bytes"] = (get("io.load_pattern")["c0"], "B")
    sr, bwb = get("resilience.strong_resilience"), get("augment.best_within_budget")
    solves = tracer.descendants("resilience.strong_resilience", "flow.max_flow")
    tried = tracer.descendants("augment.best_within_budget", "augment.min_edges_for_target")
    metrics["resilience.strong_resilience.max_flow_calls"] = (solves / sr["calls"] if sr["calls"] else 0.0, "count/call")
    metrics["augment.best_within_budget.targets_tried"] = (tried / bwb["calls"] if bwb["calls"] else 0.0, "count/call")
    for sub in SUBCOMMANDS:
        times = [dt for j, dt, _ in untraced if reqs[j].command == sub]
        metrics[f"cli.{sub}.p50_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
    for layer in LAYERS:
        own = sum(s["self_s"] for name, s in stats.items() if name.startswith(layer + "."))
        metrics[f"layer.{layer}.self_s"] = (own, "s")
    for name, lines in loc_metrics().items():
        metrics[name] = (lines, "lines")
    base = sum(dt for _, dt, _ in untraced)
    over = sum(dt for _, dt, _ in traced) - base
    metrics["trace.overhead_s"] = (over, "s")
    metrics["trace.overhead_ratio"] = (over / base, "ratio")
    metrics["trace.spans"] = (len(tracer), "count")
    return metrics


def latency_metrics(lat: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "requests_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, **shapes):
    """One benchmark run; returns (result object, run record, summary lines)."""
    probes = [probe() for _ in range(CALIBRATION_WINDOW)]
    cli, import_s = load_cli()
    probes.append(probe())
    gen = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        reqs = corpus.build(workload, seed, workdir, **shapes)
        gen.append(perf_counter() - start)
        probes.append(probe())
    setup_raw = import_s + statistics.median(gen)
    setup_s = setup_raw * CALIBRATION_S / statistics.median(probes)

    if trace:
        one_pass = lambda done, _: done >= len(reqs)
        runs, raw, first = drive(cli, reqs, one_pass)
        tracer = Tracer()
        with tracer.installed():
            traced, _, _ = drive(cli, reqs, one_pass)
        failed, notes = judge(reqs, runs + traced, first)
        metrics = layer_metrics(tracer, runs, traced, reqs)
        attempted = len(runs) + len(traced)
    else:
        runs, raw, first = drive(cli, reqs, whole_passes(len(reqs), seconds))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, notes = judge(reqs, runs, first)
        metrics = {
            **latency_metrics([dt for _, dt, _ in runs]),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        attempted = len(runs)

    import numpy

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "corpus_requests": len(reqs),
        "samples": len(raw),
        "passes": round(len(raw) / len(reqs), 3),
        "failed_ratio": failed / attempted,
        "output_sha256": corpus_digest(first, len(reqs)),
        "uncalibrated": {
            **{name: value for name, (value, _) in latency_metrics(raw).items()},
            "setup_s": setup_raw,
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "failures": notes[:10],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    lines = [f"{workload} seed={seed}: {len(raw)} samples, {record['passes']} passes, failed_ratio={record['failed_ratio']}"]
    lines += [f"  {name:<48} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"  uncalibrated {name:<35} {value:>14.6g}" for name, value in record["uncalibrated"].items()]
    return result, record, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        result, record, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
