#!/usr/bin/env python3
"""The repo's wall-clock benchmark.

Two ways to run it, from the root of a checkout:

``python3 benchmarks/e2e/run.py``
    every workload, each in a fresh interpreter, end-to-end metrics
    printed by name with unit and sample count.  ``--traced`` repeats
    each workload with the span recorder on and prints the per-layer
    metrics; ``--smoke`` runs at 1/50 scale; ``--repeat N`` makes N
    untraced runs per workload for ``compare.py``.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload (what ``BENCHMARK.json`` declares).  The
    last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Everything is written under ``--out`` (default: a fresh directory under
``.bench_e2e/`` in the checkout, which ``.gitignore`` names).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# numpy's BLAS starts one thread per core, and on a small shared box its
# spinning helper thread doubles an op's CPU time and makes some ops
# bimodal (the star regression: 110 or 300 ms).  One BLAS thread, set
# before numpy is first imported; an explicit setting wins.
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import catalog  # noqa: E402  (pure data; needs neither numpy nor repro)


def _require_program() -> None:
    """The benchmark measures the checkout it sits in; without the
    program's sources there is nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"benchmarks/e2e: no program to measure ({SRC}/repro is missing)\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def environment(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def check_public_names_only() -> None:
    """The benchmark measures from outside: it may import no
    underscore-prefixed name of ``repro``."""
    pattern = re.compile(
        r"^\s*(from\s+repro[\w.]*\s+import\s+.*\b_\w+|"
        r"import\s+repro[\w.]*\._\w+|from\s+repro[\w.]*\._\w+)",
        re.MULTILINE,
    )
    for path in sorted(HERE.glob("*.py")):
        found = pattern.search(path.read_text())
        if found:
            raise SystemExit(
                f"self-check: {path.name} imports a private repro name: "
                f"{found.group(0).strip()}"
            )


# ------------------------------------------------------------ one workload
def sql_layer_metrics(trace) -> "dict[str, float]":
    """Per-layer metrics read off the statements the traced ops ran."""
    records = [r for r in trace.statements if r.op_id is not None]
    layers: "dict[str, float]" = {}
    if not records:
        return layers
    chars = sum(r.chars for r in records)
    layers["sql.lexer.us_per_kchar"] = (
        1e6 * sum(r.tokenize_s for r in records) / (chars / 1e3)
    )
    layers["sql.parser.ms_per_stmt"] = (
        1e3 * sum(r.parse_s for r in records) / len(records)
    )
    planned = [r.plan_s for r in records if r.plan_s is not None]
    if planned:
        layers["sql.planner.ms_per_stmt"] = 1e3 * sum(planned) / len(planned)
    metrics = [r.metrics for r in records if r.metrics is not None]
    stage_total = 0.0
    for stage in ("scan", "accumulate", "merge", "finalize", "project"):
        seconds = sum(getattr(m, f"{stage}_seconds") for m in metrics)
        layers[f"sql.executor.{stage}_s"] = seconds
        stage_total += seconds
    for counter in (
        "rows_scanned", "rows_processed", "fallbacks", "task_retries",
        "task_timeouts", "scans_saved", "statements_batched",
        "factorized_joins", "rows_join_avoided",
    ):
        layers[f"sql.executor.{counter}"] = float(
            sum(getattr(m, counter) for m in metrics)
        )
    layers["engine.parallel_tasks"] = float(
        sum(m.parallel_tasks for m in metrics)
    )
    hits = sum(m.block_cache_hits for m in metrics)
    misses = sum(m.block_cache_misses for m in metrics)
    if hits + misses:
        layers["storage.block_cache_hit_ratio"] = hits / (hits + misses)
    layers["storage.cache_evictions"] = float(
        sum(m.cache_evictions for m in metrics)
    )
    # Every workload runs one engine thread, so the stage seconds (summed
    # task time) compare with the statements' wall clock.  The front end
    # is counted once: execute() parses and plans the text too.
    wall = sum(r.execute_s for r in records)
    front = sum(r.parse_s + (r.plan_s or 0.0) for r in records)
    layers["sql.executor.unattributed_share"] = max(
        0.0, 1.0 - (front + stage_total) / wall
    )
    moments = [r.metrics for r in records if r.op == "builtin_moments"]
    rows = sum(m.rows_processed for m in moments)
    if rows:
        layers["functions.moments_us_per_row"] = (
            1e6 * sum(m.accumulate_seconds for m in moments) / rows
        )
    return layers


def per_layer(workload, phase, trace, record: dict, probed: dict) -> dict:
    """Every per-layer metric of a traced run (0 where the workload does
    not exercise the layer)."""
    import harness

    layers = {metric.name: 0.0 for metric in catalog.PER_LAYER}
    layers.update(record["conditional"])
    layers.update(sql_layer_metrics(trace))
    for counter in ("fallbacks", "task_retries", "task_timeouts"):
        if layers[f"sql.executor.{counter}"]:
            raise harness.SelfCheckFailed(
                f"{counter} = {layers[f'sql.executor.{counter}']:g} "
                "during the timed phase"
            )
    for name, stats in record["ops"].items():
        if name in catalog.ROUTES:
            layers[f"sql.executor.route.{name}.p50_ms"] = stats["p50_ms"]
    for kind, key in (
        ("bulk", "storage.bulk_load_rows_per_s"),
        ("insert", "storage.insert_many_rows_per_s"),
    ):
        seconds, rows = workload.load_stats.get(kind, (0.0, 0.0))
        if seconds:
            layers[key] = rows / seconds
    layers.update(workload.layer_metrics(phase, trace))
    layers.update(probed)
    unknown = set(layers) - {m.name for m in catalog.PER_LAYER}
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return layers


def run_one(args: argparse.Namespace) -> dict:
    import harness
    import probes
    from spans import SpanRecorder
    from wl_adhoc_cold import AdhocCold
    from wl_durable_ingest import DurableIngest
    from wl_model_build import ModelBuild
    from wl_score_scan import ScoreScan
    from wl_serve_points import ServePoints

    classes = {
        cls.name: cls
        for cls in (ModelBuild, ScoreScan, AdhocCold, ServePoints, DurableIngest)
    }
    check_public_names_only()
    if not args.smoke and (os.cpu_count() or 1) < 2:
        raise SystemExit("self-check: the benchmark needs at least 2 cores")

    out = Path(args.out)
    scratch = out / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = classes[args.workload](
        args.seed, scratch, args.seconds, args.smoke
    )
    tail_pct = workload.tail_pct
    record: dict = {
        "workload": args.workload,
        "traced": bool(args.trace),
        "env": environment(args.seed),
    }
    try:
        workload.generate()
        # The layer probes come first, in the state every process starts
        # in, so they read the same whichever workload follows.
        probed = probes.run_all(scratch) if args.trace else {}
        workload.measure_setup(1 if args.smoke else workload.setup_repeats)
        cycles = workload.cycles
        recorder = trace = reference = None
        if args.trace:
            # Cycle 1 first runs untraced on the same state, so the cost
            # of tracing is measured within this one process.
            reference = workload.timed(1)
            workload.reset()
            recorder = SpanRecorder()
            trace = harness.SqlTrace(workload.db, recorder)
        phase = workload.timed(cycles, recorder, trace)
        samples = phase.samples
        setup_s = workload.setup_seconds()
        failed = [s for s in samples if not s.ok]
        for sample in failed[:5]:
            sys.stderr.write(f"failed op {sample.op}: {sample.error}\n")
        if not args.smoke:
            if phase.wall_seconds < 0.6 * args.seconds:
                raise harness.SelfCheckFailed(
                    f"timed phase took {phase.wall_seconds:.1f}s of the "
                    f"{args.seconds:g}s asked for"
                )
            harness.check_percentile_ranks(samples, tail_pct)
        workload.self_check(phase, trace)
        conditional = {
            "fail_ratio": len(failed) / len(samples),
            **workload.after_timed(recorder),
        }
        # Last, so that peak_rss_mb covers the recovery too.
        end_to_end = harness.end_to_end(phase, setup_s, tail_pct)
        record.update(
            attempted=len(samples),
            failed=len(failed),
            timed_wall_s=phase.wall_seconds,
            cycle_wall_s=[cycle.wall_seconds for cycle in phase.cycles],
            cycle_cpu_s=[cycle.cpu_seconds for cycle in phase.cycles],
            tail_pct=tail_pct,
            ops=harness.op_table(samples),
            end_to_end=end_to_end,
            conditional=conditional,
        )
        if args.trace:
            record["per_layer"] = {
                **per_layer(workload, phase, trace, record, probed),
                "trace.overhead_share": phase.cycles[0].wall_seconds
                / reference.wall_seconds - 1.0,
            }
            record["self_seconds"] = recorder.self_seconds()
            recorder.write(out / f"spans-{args.workload}.jsonl")
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    (out / f"{args.workload}.{'traced' if args.trace else 'untraced'}.json"
     ).write_text(json.dumps(record, indent=1))
    return record


def driver_line(record: dict) -> str:
    """The one-line result the benchmark contract asks for."""
    values = record["per_layer"] if record["traced"] else record["end_to_end"]
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": value, "unit": catalog.UNITS[name]}
                for name, value in values.items()
            },
        }
    )


# ------------------------------------------------------------ all workloads
def print_workload(name: str, record: dict) -> None:
    ops = record["attempted"]
    print(f"\n{name}: {ops} ops, {record['failed']} failed, "
          f"timed {record['timed_wall_s']:.2f} s")
    if not record["traced"]:
        notes = {
            "setup_s": "median of the set-ups made",
            "op_tail_ms": f"p{record['tail_pct']:g}, n={ops}",
        }
        shown = {**record["end_to_end"], **record["conditional"]}
        for metric, value in shown.items():
            note = notes.get(metric, f"n={ops}")
            print(f"  {metric:<22}{value:>16.6g} {catalog.UNITS[metric]:<7}"
                  f"({note})")
        return
    for metric, value in record["per_layer"].items():
        print(f"  {metric:<52}{value:>16.6g} {catalog.UNITS[metric]}")


def child(args: argparse.Namespace, workload: str, trace: int, out: Path) -> dict:
    """One workload run in a fresh interpreter, so peak RSS and caches
    do not leak from one run into the next."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace={trace}) exited with "
                         f"{done.returncode}")
    suffix = "traced" if trace else "untraced"
    return json.loads((out / f"{workload}.{suffix}.json").read_text())


def run_all(args: argparse.Namespace) -> int:
    out = Path(args.out)
    names = args.workloads or list(catalog.WORKLOAD_NAMES)
    results: dict = {"env": environment(args.seed), "runs": {}, "traced": {}}
    started = time.perf_counter()
    failed = 0
    for name in names:
        runs = []
        for _ in range(args.repeat):
            record = child(args, name, 0, out)
            print_workload(name, record)
            failed += record["failed"]
            runs.append({**record["end_to_end"], **record["conditional"]})
        results["runs"][name] = runs
        if args.traced:
            record = child(args, name, 1, out)
            print_workload(name, record)
            failed += record["failed"]
            results["traced"][name] = record["per_layer"]
    (out / "results.json").write_text(json.dumps(results, indent=1))
    print(f"\nall workloads: {time.perf_counter() - started:.1f} s; "
          f"results in {out}")
    return 1 if failed else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="also make a traced run of each workload")
    parser.add_argument("--smoke", action="store_true",
                        help="1/50 scale, one cycle, no self-checks on size")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload")
    parser.add_argument("--out", help="directory for every file written")
    parser.add_argument("workloads", nargs="*",
                        help="workloads to run (default: all five)")
    args = parser.parse_args(argv)

    _require_program()
    import harness

    if args.seconds is None:
        args.seconds = float(catalog.RUN_SECONDS)
    known = set(catalog.WORKLOAD_NAMES)
    for name in [args.workload, *args.workloads]:
        if name is not None and name not in known:
            parser.error(f"unknown workload {name!r}; known: {sorted(known)}")
    if args.out is None:
        base = Path.cwd() / ".bench_e2e"
        base.mkdir(exist_ok=True)
        args.out = tempfile.mkdtemp(prefix="run-", dir=base)
        keep_out = args.workload is None
    else:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        keep_out = True
    try:
        if args.workload is None:
            return run_all(args)
        try:
            record = run_one(args)
        except harness.SelfCheckFailed as exc:
            raise SystemExit(f"self-check failed: {exc}")
        print_workload(args.workload, record)
        print(driver_line(record))
        return 0
    finally:
        if not keep_out:
            shutil.rmtree(args.out, ignore_errors=True)
            try:
                Path(args.out).parent.rmdir()  # .bench_e2e/, when empty
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
