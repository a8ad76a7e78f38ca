"""The partition-scan operator's contract, tested once instead of per site.

Every partition fan-out the executor makes goes through one operator
(``Executor._scan_partitions``, see ``docs/parallel_engine.md``).  Its
six callers are driven here through the public API over the matrix
workers {1, 4} × blocks {cold, warm}; a ``cold`` cell empties every
block cache before the run it checks, so each task builds its block,
and a ``warm`` cell primes the caches with one run first, so each task
reads a cached, read-only block:

* rows are bit-identical to ``workers=1`` and the work counters do not
  depend on how the tasks ran or where the blocks come from;
* a warm run builds no block: it hits the cache once for every block
  the cold run built, and its rows are the cold run's;
* under ``EXPLAIN ANALYZE`` the task spans reconcile *exactly* with the
  ``QueryMetrics`` stage seconds and carry one uniform set of
  attributes;
* a ``block.materialize`` fault degrades every vector caller to the row
  path exactly once (``CHAOS_SEED`` picks the failing partition,
  ``CHAOS_WORKERS`` the pool size — the CI chaos job runs three seeds);
* vector and row paths agree on GROUP BY keys (one NULL group, key
  types from the key *expression*);
* what a block cache remembers about a block's NULLs changes no byte
  of an aggregate UDF's answer, cold or warm.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.core.nlq_udf import register_nlq_udfs
from repro.dbms.database import Database
from repro.dbms.faults import FaultPlan
from repro.dbms.schema import Column, TableSchema
from repro.dbms.types import SqlType

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
CHAOS_WORKERS = int(os.environ.get("CHAOS_WORKERS", "4"))

AMPS = 4
N_ROWS, N_DIM = 240, 12

#: caller -> (statements, reads rows, reads blocks); one statement runs
#: through ``execute``, several through ``execute_batch``
CALLERS = {
    "row-aggregate": (
        ["SELECT sum(x), count(*) FROM t WHERE y > 0"], True, False),
    "vector-aggregate": (
        ["SELECT sum(x), avg(y), count(*) FROM t"], False, True),
    "grouped-vector-aggregate": (
        ["SELECT g, sum(x), count(*) FROM t GROUP BY g"], False, True),
    "mixed-batch": (
        [
            "SELECT sum(x), count(*) FROM t",
            "SELECT max(y) FROM t WHERE x > 50",
            "SELECT k % 3, sum(y) FROM t GROUP BY k % 3",
        ],
        True,
        True,
    ),
    "block-projection": (
        ["SELECT k, x * 2.0 + y FROM t WHERE y > 0"], False, True),
    "star-factorized": (
        [
            "SELECT sum(t.x), sum(d.w), count(*) "
            "FROM t JOIN d ON t.fk = d.dk"
        ],
        True,
        False,
    ),
}
VECTOR_CALLERS = [name for name, spec in CALLERS.items() if spec[2]]
WORKERS = (1, 4)
MATRIX = [(1, "cold"), (4, "cold"), (1, "warm"), (4, "warm")]
COUNTERS = ("parallel_tasks", "partitions_processed", "rows_processed")


def _build_db(seed: int = 0, **options) -> Database:
    """``t(k, fk, g, x, y)`` → ``d(dk, w)``, plus ``nk``.  ``g`` is a
    nullable FLOAT holding integral values, so it exercises the NULL
    group and the float-typed key at once."""
    rng = np.random.default_rng(seed)
    db = Database(amps=AMPS, **options)
    register_nlq_udfs(db)
    db.create_table(
        "t",
        TableSchema.build(
            [
                Column("k", SqlType.INTEGER, nullable=False),
                Column("fk", SqlType.INTEGER),
                ("g", SqlType.FLOAT),
                ("x", SqlType.FLOAT),
                ("y", SqlType.FLOAT),
            ],
            primary_key="k",
        ),
    )
    db.create_table(
        "d",
        TableSchema.build(
            [Column("dk", SqlType.INTEGER, nullable=False), ("w", SqlType.FLOAT)],
            primary_key="dk",
        ),
    )
    db.load_columns(
        "d", {"dk": np.arange(1, N_DIM + 1), "w": rng.normal(3.0, 1.0, N_DIM)}
    )
    # The six rows of the NULL-group bug report.
    db.execute("CREATE TABLE nk (i INTEGER PRIMARY KEY, g FLOAT, x FLOAT)")
    db.execute(
        "INSERT INTO nk VALUES (1, 1.0, 1.0), (2, NULL, 2.0), (3, NULL, 3.0), "
        "(4, 1.0, 4.0), (5, NULL, 5.0), (6, 2.0, 1.0)"
    )
    x = rng.normal(50.0, 10.0, N_ROWS)
    y = rng.normal(0.5, 1.0, N_ROWS)
    db.table("t").insert_many(
        [
            (
                k + 1,
                int(rng.integers(1, N_DIM + 1)),
                None if k % 5 == 0 else float(k % 3),
                float(x[k]),
                float(y[k]),
            )
            for k in range(N_ROWS)
        ]
    )
    return db


def _run(db: Database, statements: list[str]):
    """``(rows per statement, metrics)`` through the public API."""
    if len(statements) == 1:
        result = db.execute(statements[0])
        return [result.rows], result.metrics
    results = db.execute_batch(statements)
    assert db._executor.last_batch_decision.consolidated
    return [result.rows for result in results], results[0].metrics


def _analyze(db: Database, statements: list[str]):
    """The ``EXPLAIN ANALYZE`` plan (trace + metrics attached)."""
    if len(statements) == 1:
        return db.explain_plan(statements[0], analyze=True)
    return db.explain_batch(statements, analyze=True)


def _settle(db: Database, blocks: str, run) -> None:
    """Put ``db``'s block caches in the state of one matrix cell before
    ``run()`` is checked: empty (``cold``) or primed by ``run`` (``warm``)."""
    if blocks == "cold":
        for name in ("t", "d", "nk"):
            for partition in db.table(name).partitions:
                partition._invalidate_cache()
    else:
        run()


@pytest.fixture(scope="module")
def databases():
    dbs = {key: _build_db(executor_workers=key[0]) for key in MATRIX}
    yield dbs
    for db in dbs.values():
        db.close()


# ------------------------------------------------------- results and counters
@pytest.mark.parametrize("caller", CALLERS)
def test_rows_and_counters_independent_of_workers_and_executor(
    databases, caller
):
    statements, _, _ = CALLERS[caller]
    reference_db = databases[MATRIX[0]]
    _settle(reference_db, MATRIX[0][1], lambda: _run(reference_db, statements))
    reference_rows, reference = _run(reference_db, statements)
    assert reference.parallel_tasks > 0
    for key in MATRIX[1:]:
        db = databases[key]
        _settle(db, key[1], lambda: _run(db, statements))
        rows, metrics = _run(db, statements)
        assert repr(rows) == repr(reference_rows), key
        for counter in COUNTERS:
            assert getattr(metrics, counter) == getattr(reference, counter), (
                key,
                counter,
            )
        assert (
            metrics.block_cache_hits + metrics.block_cache_misses
            == reference.block_cache_hits + reference.block_cache_misses
        ), key
        # A cold cell builds every block it reads; a warm one builds none.
        if key[1] == "cold":
            assert metrics.block_cache_hits == 0, key
        else:
            assert metrics.block_cache_misses == 0, key
        assert metrics.fallbacks == 0


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("caller", VECTOR_CALLERS)
def test_warm_run_reads_only_cached_blocks(databases, caller, workers):
    statements, _, _ = CALLERS[caller]
    reference_rows, _ = _run(databases[MATRIX[0]], statements)
    with _build_db(executor_workers=workers) as db:
        cold_rows, cold = _run(db, statements)
        assert cold.block_cache_misses > 0
        warm_rows, warm = _run(db, statements)
        # The warm run builds nothing: every block the cold run built
        # is served from the cache.
        assert warm.block_cache_misses == 0
        assert warm.block_cache_hits == cold.block_cache_misses
        assert warm.fallbacks == 0
    assert repr(cold_rows) == repr(warm_rows) == repr(reference_rows)


# ------------------------------------------------------------ trace contract
@pytest.mark.parametrize("workers,blocks", MATRIX)
@pytest.mark.parametrize("caller", CALLERS)
def test_task_spans_reconcile_and_carry_uniform_attributes(
    databases, caller, workers, blocks
):
    statements, reads_rows, reads_blocks = CALLERS[caller]
    db = databases[(workers, blocks)]
    _settle(db, blocks, lambda: _run(db, statements))
    plan = _analyze(db, statements)
    trace, metrics = plan.trace, plan.metrics
    # The same floats, summed in the same order — not approximately.
    assert trace.total_seconds("scan") == metrics.scan_seconds
    assert trace.total_seconds("accumulate") == metrics.accumulate_seconds
    tasks = trace.find("task")
    # The block projection's operator span is itself named ``project``,
    # so its stage is summed over the task children only.
    assert metrics.project_seconds == sum(
        child.seconds
        for task in tasks
        for child in task.children
        if child.name == "project"
    )
    assert len(tasks) == metrics.parallel_tasks > 0
    assert sum(task.attributes["rows"] for task in tasks) == metrics.rows_processed
    for task in tasks:
        assert 0 <= task.attributes["partition"] < AMPS
        assert ("cached_block" in task.attributes) == reads_blocks
        if reads_blocks:
            assert task.attributes["cached_block"] == (blocks == "warm")
        (scan,) = [child for child in task.children if child.name == "scan"]
        assert ("lanes_read" in scan.attributes) == reads_rows
        (fold,) = [
            child
            for child in task.children
            if child.name in ("accumulate", "project")
        ]
        assert fold.name == (
            "project" if caller == "block-projection" else "accumulate"
        )


# --------------------------------------------------------------- degradation
def _close(left, right) -> bool:
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(_close, left, right))
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-9)
    return left == right and type(left) is type(right)


@pytest.mark.parametrize("caller", VECTOR_CALLERS)
def test_block_fault_degrades_each_vector_caller_once(caller):
    statements, _, _ = CALLERS[caller]
    operator = "project" if caller == "block-projection" else "aggregate"
    with _build_db(
        seed=CHAOS_SEED,
        executor_workers=CHAOS_WORKERS,
        task_retries=1,
    ) as db:
        clean_rows, clean = _run(db, statements)
        assert clean.fallbacks == 0
        db.faults = FaultPlan(seed=CHAOS_SEED).fail(
            "block.materialize",
            error=RuntimeError("kernel bug"),
            partition=CHAOS_SEED % AMPS,
        )
        rows, metrics = _run(db, statements)
        # The row path's answer: same groups, sums to rounding.
        assert _close(rows, clean_rows)
        assert metrics.fallbacks == 1
        assert "kernel bug" in metrics.fallback_reason
        # The failing partition's one retry survives the rollback ...
        assert metrics.task_retries == 1
        # ... and nothing else of the failed attempt does.
        assert metrics.block_cache_hits + metrics.block_cache_misses == 0
        # (The reference row projection is one serial scan, no tasks.)
        assert metrics.parallel_tasks == (
            0 if operator == "project" else clean.parallel_tasks
        )

        plan = _analyze(db, statements)
        failed = [
            span
            for span in plan.trace.find(operator)
            if span.attributes.get("failed")
        ]
        assert len(failed) == 1
        assert "kernel bug" in failed[0].attributes["error"]
        (retry,) = [
            span
            for span in plan.trace.find(operator)
            if "fallback" in span.attributes.get("strategy", "")
        ]
        assert "kernel bug" in retry.attributes["fallback_reason"]
        assert plan.trace.total_seconds("scan") == plan.metrics.scan_seconds
        assert plan.metrics.fallbacks == 1


# ------------------------------------------------------- NULL / typed group keys
@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize("workers,blocks", MATRIX)
class TestGroupKeysMatchRowPath:
    """``GROUP BY`` on a nullable numeric column: the vector path used to
    make one ``nan`` group per NULL row and to return FLOAT keys as
    ``int``.  The row path (the same statement plus an always-true
    WHERE) is the reference, for values *and* key types."""

    @pytest.fixture
    def db(self, databases, workers, blocks):
        return databases[(workers, blocks)]

    def _rows(self, db, sql, batch, blocks):
        def run():
            if not batch:
                return db.execute(sql).rows
            return db.execute_batch([sql, "SELECT count(*) FROM nk"])[0].rows

        _settle(db, blocks, run)
        return run()

    @pytest.mark.parametrize(
        "tail",
        [
            "GROUP BY g",
            "GROUP BY g HAVING g IS NULL",
            "GROUP BY g HAVING g IS NOT NULL ORDER BY g DESC",
            "GROUP BY g ORDER BY g",
            "GROUP BY g ORDER BY sum(x) DESC",
        ],
    )
    def test_null_group_and_float_keys(self, db, batch, blocks, tail):
        vector = self._rows(
            db, f"SELECT g, sum(x), count(*) FROM nk {tail}", batch, blocks
        )
        row = self._rows(
            db,
            f"SELECT g, sum(x), count(*) FROM nk WHERE x > 0 {tail}",
            batch,
            blocks,
        )
        assert repr(vector) == repr(row)
        if "HAVING" not in tail:
            assert sorted(vector, key=repr) == [
                (1.0, 5.0, 2),
                (2.0, 1.0, 1),
                (None, 10.0, 3),
            ]
            assert all(
                key is None or type(key) is float for key, _, _ in vector
            )

    def test_integer_expression_keys_stay_int(self, db, batch, blocks):
        vector = self._rows(
            db, "SELECT i % 4, count(*) FROM nk GROUP BY i % 4", batch, blocks
        )
        row = self._rows(
            db,
            "SELECT i % 4, count(*) FROM nk WHERE x > 0 GROUP BY i % 4",
            batch,
            blocks,
        )
        assert repr(vector) == repr(row)
        assert {type(key) for key, _ in vector} == {int}


# ------------------------------------------------------ NULL facts and answers
#: statement -> NULL scans of a warm repeat, whose block cache keeps
#: what the cold run learned
UDF_STATEMENTS = {
    # NULL-free block, bare columns: asked once, then never
    "SELECT nlq_tri(2, x, y) FROM t": 0,
    "SELECT nlq_tri(3, 1.0, x, y), nlq_diag(1, y) FROM t": 0,
    # sub-blocks of a NULL-free block inherit the answer
    "SELECT k % 3, nlq_diag(2, x, y) FROM t GROUP BY k % 3": 0,
    # g holds NULLs: every fold takes the exact path, every run
    "SELECT nlq_tri(2, g, x) FROM t": AMPS,
    # g is the key and the aggregate needs no g: the (g, x, y) block
    # still fails the pre-test, so each group's fold scans (3 keys + NULL)
    "SELECT g, nlq_diag(2, x, y) FROM t GROUP BY g": 4 * AMPS,
    # a computed lane can make a NULL of its own: never skipped
    "SELECT nlq_diag(2, x / y, y) FROM t": AMPS,
}


@pytest.mark.parametrize("sql", UDF_STATEMENTS)
def test_null_facts_change_no_byte_on_any_executor(databases, sql):
    reference_db = databases[MATRIX[0]]
    reference = reference_db.execute(sql)
    for key in MATRIX:
        db = databases[key]
        _settle(db, key[1], lambda: db.execute(sql))
        cold = db.execute(sql)
        warm = db.execute(sql)
        assert repr(cold.rows) == repr(warm.rows) == repr(reference.rows), key
        assert warm.metrics.null_scans == UDF_STATEMENTS[sql], key
        assert warm.metrics.fallbacks == 0
    # The row path drops the same rows (payload field 2 is n).
    tail = sql.index(" GROUP BY") if " GROUP BY" in sql else len(sql)
    row = reference_db.execute(sql[:tail] + " WHERE k > 0" + sql[tail:])

    def keys_and_counts(rows):
        return sorted(
            repr([v.split(";")[2] if isinstance(v, str) else v for v in r])
            for r in rows
        )

    assert keys_and_counts(row.rows) == keys_and_counts(reference.rows)
