#!/usr/bin/env python3
"""What one warm ``SELECT nlq_tri(8, x1..x8) FROM x`` pays, by part.

Prints the rows of the "What a warm statement pays" table in
``docs/vectorized_execution.md``: the statement at the benchmark's
``model_build`` scale (n = 40,000, d = 8, 16 AMPs, one engine thread,
warm block cache), split by wrapping the named functions with
``perf_counter`` pairs, beside a bare-numpy floor over the same 16
lane-major blocks.  The wrappers look functions up by name, so the same
file runs against any commit since the lane-major blocks::

    PYTHONPATH=<checkout>/src python3 benchmarks/warm_statement.py

Not a test and not part of ``benchmarks/e2e``: the numbers that gate a
change come from there (see ``.claude/skills/verify/SKILL.md`` for the
A/B recipe); this only says where inside the statement the time sits.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")

import numpy as np  # noqa: E402

from repro.core.nlq_udf import register_nlq_udfs  # noqa: E402
from repro.dbms.database import Database  # noqa: E402
from repro.dbms.schema import dataset_schema, dimension_names  # noqa: E402

N, D, AMPS, CALLS = 40_000, 8, 16, 300

#: part -> (module, dotted name) candidates; the first that exists is
#: wrapped (names moved between commits)
PARTS = {
    "parse": [("repro.dbms.database", "parse_statements")],
    "bind": [("repro.dbms.sql.executor", "Executor._prepare_statement")],
    "argument copy": [
        ("repro.dbms.expressions", "ArgumentBlockPlan.__call__"),
        ("repro.dbms.expressions", "lane_block"),
    ],
    "NULL scan": [
        ("repro.dbms.blocks", "may_hold_null"),
        ("repro.dbms.sql.executor", "drop_null_rows"),
    ],
    "kernel": [("repro.core.nlq_udf", "_NlqUdfBase._update_block")],
    "finalize": [("repro.dbms.sql.executor", "Executor._finalize_aggregate")],
    "tasks": [("repro.dbms.sql.executor", "_scan_partition")],
    "statement": [("repro.dbms.database", "Database.execute")],
}


def _wrap(spent: "dict[str, float]", part: str) -> None:
    for module_name, dotted in PARTS[part]:
        owner = importlib.import_module(module_name)
        *path, name = dotted.split(".")
        for attribute in path:
            owner = getattr(owner, attribute, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            continue

        def timed(*args, __original=original, **kwargs):
            started = time.perf_counter()
            try:
                return __original(*args, **kwargs)
            finally:
                spent[part] += time.perf_counter() - started

        setattr(owner, name, timed)
        return
    raise SystemExit(f"no function to wrap for {part!r}")


def main() -> None:
    rng = np.random.default_rng(7)
    db = Database(amps=AMPS, executor_workers=1)
    db.create_table("x", dataset_schema(D))
    columns = {"i": np.arange(1, N + 1)}
    for name in dimension_names(D):
        columns[name] = rng.normal(50.0, 10.0, size=N)
    db.load_columns("x", columns)
    register_nlq_udfs(db)
    sql = f"SELECT nlq_tri({D}, {', '.join(dimension_names(D))}) FROM x"
    for _ in range(20):
        db.execute(sql)

    spent = dict.fromkeys(PARTS, 0.0)
    for part in PARTS:
        _wrap(spent, part)
    samples = []
    for _ in range(CALLS):
        before = dict(spent)
        db.execute(sql)
        samples.append({part: spent[part] - before[part] for part in spent})
    median = {
        part: 1e3 * statistics.median(sample[part] for sample in samples)
        for part in PARTS
    }
    in_tasks = median["argument copy"] + median["NULL scan"] + median["kernel"]
    median["task shell"] = median["tasks"] - in_tasks
    median["rest (dispatch, merge, cost charges)"] = median["statement"] - (
        median["parse"] + median["bind"] + median["tasks"] + median["finalize"]
    )
    for part in (
        "parse", "bind", "task shell", "argument copy", "NULL scan", "kernel",
        "finalize", "rest (dispatch, merge, cost charges)", "statement",
    ):
        print(f"{part:38s} {median[part]:7.3f} ms")

    positions = list(range(1, D + 1))
    blocks = [
        p.numeric_matrix(positions) for p in db.table("x").partitions if p.row_count
    ]
    floor = []
    for _ in range(CALLS):
        started = time.perf_counter()
        L, Q = np.zeros(D), np.zeros((D, D))
        for X in blocks:
            L += X.sum(axis=0)
            Q += X.T @ X
            X.min(axis=0), X.max(axis=0)
        floor.append(time.perf_counter() - started)
    print(f"{'numpy floor (16 blocks, same sums)':38s} "
          f"{1e3 * statistics.median(floor):7.3f} ms")


if __name__ == "__main__":
    main()
