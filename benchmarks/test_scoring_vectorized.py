"""Vectorized single-scan scoring: row path vs. block-wise path.

Real wall clock — not the cost model.
The block-wise SELECT path exists to make scoring-UDF scans faster by
dispatching ``compute_batch`` numpy kernels over partition blocks, so
the claims here are:

1. the vectorized path returns **bit-identical** rows to the row path
   for every scoring route (asserted always, any machine), and it
   actually runs vectorized — every per-partition task span must report
   ``strategy: vectorized-scan`` (a silent fallback fails the smoke
   test, and therefore CI);
2. at n = 100k, d = 8 the ``linearregscore`` scan is >= 3x faster
   block-wise than row-wise (the acceptance criterion).

Both tests write ``BENCH_scoring.json`` at the repo root (the smoke run
at tiny scale, so CI always uploads an artifact; a full run overwrites
it with the real sweep).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.core.scoring.udfs import register_scoring_udfs
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema, dimension_names

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scoring.json"


def _build_db(n: int, d: int, amps: int = 16, workers: int = 4) -> Database:
    db = Database(amps=amps, executor_workers=workers)
    rng = np.random.default_rng(7)
    db.create_table("x", dataset_schema(d))
    columns: dict[str, np.ndarray] = {"i": np.arange(1, n + 1)}
    for name in dimension_names(d):
        columns[name] = rng.normal(25.0, 8.0, n)
    db.load_columns("x", columns)
    register_scoring_udfs(db)
    return db


def _scoring_statements(d: int, rng: np.random.Generator) -> dict[str, str]:
    """One inline-literal statement per scoring route (single table,
    block-compilable — the shape ``db.execute`` runs vectorized)."""
    gen = ScoringSqlGenerator("x", list(dimension_names(d)))
    k = 3
    return {
        "linearregscore": gen.regression_inline_sql(
            0.5, rng.normal(0.0, 1.0, d).tolist()
        ),
        "fascore": gen.pca_inline_sql(
            rng.normal(25.0, 1.0, d).tolist(),
            rng.normal(0.0, 1.0, (2, d)).tolist(),
        ),
        "clusterscore": gen.clustering_inline_sql(
            rng.normal(25.0, 8.0, (k, d)).tolist()
        ),
        "classifyscore": gen.naive_bayes_inline_sql(
            rng.normal(25.0, 8.0, (2, d)).tolist(),
            np.abs(rng.normal(1.0, 0.2, (2, d))).tolist(),
            rng.normal(0.0, 1.0, 2).tolist(),
        ),
    }


def _assert_fully_vectorized(db: Database, sql: str) -> None:
    """Fail loudly if the statement silently fell back to the row path."""
    result = db.execute("EXPLAIN ANALYZE " + sql)
    tasks = result.plan.trace.find("task")
    assert tasks, "expected per-partition task spans"
    strategies = {task.attributes["strategy"] for task in tasks}
    assert strategies == {"vectorized-scan"}, (
        f"vectorized path silently fell back: task strategies {strategies}"
    )


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(db: Database, sql: str, repeats: int) -> tuple[float, float]:
    """(row_seconds, vector_seconds), best of *repeats*, warmed caches."""
    db.vectorized_select = False
    db.execute(sql)  # warm-up
    row_seconds = _best_of(repeats, lambda: db.execute(sql))
    db.vectorized_select = True
    db.execute(sql)  # warm-up (also populates the block cache)
    vector_seconds = _best_of(repeats, lambda: db.execute(sql))
    return row_seconds, vector_seconds


def _run_sweep(
    cases: list[tuple[int, int]], repeats: int
) -> list[dict[str, float | int | str]]:
    records: list[dict[str, float | int | str]] = []
    for n, d in cases:
        db = _build_db(n, d)
        statements = _scoring_statements(d, np.random.default_rng(11))
        for udf, sql in statements.items():
            db.vectorized_select = False
            row_result = db.execute(sql)
            db.vectorized_select = True
            vector_result = db.execute(sql)
            assert vector_result.rows == row_result.rows, (
                f"{udf} parity failed at n={n}, d={d}"
            )
            _assert_fully_vectorized(db, sql)
            row_seconds, vector_seconds = _measure(db, sql, repeats)
            records.append(
                {
                    "udf": udf,
                    "n": n,
                    "d": d,
                    "row_seconds": row_seconds,
                    "vector_seconds": vector_seconds,
                    "speedup": row_seconds / vector_seconds,
                    "strategy": "vectorized-scan",
                }
            )
        db.close()
    return records


def _write_json(records: list[dict[str, float | int | str]]) -> None:
    BENCH_JSON.write_text(json.dumps(records, indent=2) + "\n")


def test_scoring_vectorized_smoke(benchmark):
    """Tiny always-on check: parity + no silent fallback, wall-clocked."""
    n, d = 5_000, 4
    db = _build_db(n, d, amps=8, workers=2)
    sql = _scoring_statements(d, np.random.default_rng(11))["linearregscore"]

    db.vectorized_select = False
    row_result = db.execute(sql)
    db.vectorized_select = True
    vector_result = benchmark(db.execute, sql)

    assert vector_result.rows == row_result.rows
    assert len(vector_result) == n
    _assert_fully_vectorized(db, sql)
    records = _run_sweep([(n, d)], repeats=1)
    _write_json(records)
    db.close()


def test_scoring_vectorized_speedup_100k_d8():
    """The acceptance benchmark: >=3x for linearregscore at n=100k, d=8."""
    records = _run_sweep([(10_000, 8), (100_000, 8)], repeats=3)
    _write_json(records)

    for record in records:
        print(
            f"\n{record['udf']:>14} n={record['n']:>7} d={record['d']} "
            f"row={record['row_seconds'] * 1e3:8.1f} ms "
            f"vector={record['vector_seconds'] * 1e3:8.1f} ms "
            f"speedup={record['speedup']:.2f}x"
        )

    (acceptance,) = [
        r
        for r in records
        if r["udf"] == "linearregscore" and r["n"] == 100_000
    ]
    assert acceptance["speedup"] >= 3.0, (
        f"expected >=3x speedup for linearregscore at n=100k d=8, "
        f"got {acceptance['speedup']:.2f}x"
    )
