"""Smoke test of the wall-clock benchmark (``pytest benchmarks -k smoke``).

Runs every workload at 1/50 scale, untraced and traced, and asserts
that every metric ``BENCHMARK.json`` names is printed with its unit for
every workload, that nothing failed, and that the runner wrote only
under ``--out``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

sys.path.insert(0, str(HERE))
import catalog  # noqa: E402
import compare  # noqa: E402


def tree_snapshot() -> "set[str]":
    return {
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*")
        if "__pycache__" not in path.parts and ".git" not in path.parts
        and ".pytest_cache" not in path.parts
    }


def test_smoke_all_workloads_print_every_metric(tmp_path):
    before = tree_snapshot()
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--traced",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert tree_snapshot() == before, "the benchmark wrote into the repo tree"

    # One section per (workload, untraced|traced) run, in order.
    sections = done.stdout.split("\n\n")
    for name in catalog.WORKLOAD_NAMES:
        untraced, traced = (
            s for s in sections if s.lstrip().startswith(f"{name}:")
        )
        assert " 0 failed" in untraced and " 0 failed" in traced
        for metric in catalog.END_TO_END:
            assert f"{metric.name} " in untraced, (name, metric.name)
        for metric in catalog.CONDITIONAL:
            applies = (
                metric.name not in catalog.DURABLE_ONLY
                or name == "durable_ingest"
            )
            assert (f"  {metric.name} " in untraced) == applies
        for metric in catalog.PER_LAYER:
            line = next(
                l for l in traced.splitlines()
                if l.split() and l.split()[0] == metric.name
            )
            assert line.split()[-1] == metric.unit, line
        assert (out / f"spans-{name}.jsonl").stat().st_size > 0

    results = json.loads((out / "results.json").read_text())
    assert set(results["env"]) == {
        "git_sha", "seed", "cpu_count", "python", "numpy"
    }
    for name in catalog.WORKLOAD_NAMES:
        (run,) = results["runs"][name]
        assert run["fail_ratio"] == 0
        assert all(run[m.name] > 0 for m in catalog.END_TO_END)
        assert set(results["traced"][name]) == {
            m.name for m in catalog.PER_LAYER
        }
    # The same runs compared with themselves are within every bound.
    lines, regressed = compare.compare(results["runs"], results["runs"])
    assert not regressed and len(lines) == 1 + len(catalog.WORKLOAD_NAMES)


def test_compare_verdicts():
    rows = catalog.Metric("rows_per_s", "rows/s", "higher", 0.10)
    assert compare.verdict(rows, [100.0] * 3, [95.0] * 3) == "ok"
    assert compare.verdict(rows, [100.0] * 3, [85.0] * 3) == "regressed"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(rows, noisy, [90.0, 100.0, 110.0]) == "unresolved"
    assert compare.verdict(rows, noisy, [150.0, 160.0]) == "ok"
    latency = catalog.Metric("op_p50_ms", "ms", "lower", 0.10)
    assert compare.verdict(latency, [10.0, 10.1], [10.9, 11.0]) == "ok"
    assert compare.verdict(latency, [10.0, 10.1], [11.3, 11.4]) == "regressed"
    fail_ratio = catalog.CONDITIONAL[0]
    assert compare.verdict(fail_ratio, [0.0], [0.0]) == "ok"
    assert compare.verdict(fail_ratio, [0.0] * 3, [0.0, 0.0, 0.01]) == "regressed"
