"""Reused block partials against a fresh database.

A cached partition block remembers the partial a grand
``summary_cacheable`` UDF call folded over it, and a repeat takes a copy
instead of folding again.  The property drives one database through a
random interleaving of statements and every mutation kind — appends,
bulk loads, UPDATE, DELETE, truncate, DROP + CREATE and re-registering
an aggregate UDF name — and checks each answer byte for byte against a
fresh database that replays the same mutations and folds every block.
``partials_reused`` must count exactly the non-empty partitions that
no mutation touched since the same call last ran over them, and whose
block holds no NULL.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nlq_udf import NlqListUdf, register_nlq_udfs
from repro.core.summary import MatrixType
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema

AMPS = 4
#: (UDF name, argument columns); ``nlq_any`` is the name the property
#: re-registers
STATEMENTS = [
    ("nlq_tri", ("x1", "x2", "x3")),
    ("nlq_diag", ("x3", "x1")),
    ("nlq_any", ("x2", "x3")),
]


def _sql(name: str, columns: "tuple[str, ...]") -> str:
    return f"SELECT {name}({len(columns)}, {', '.join(columns)}) FROM x"


OPERATIONS = st.one_of(
    st.tuples(st.just("query"), st.integers(0, len(STATEMENTS) - 1)),
    st.tuples(st.just("insert"), st.integers(1, 30), st.booleans()),
    st.tuples(st.just("load"), st.integers(1, 60)),
    st.tuples(st.just("update"), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.integers(0, 3)),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("recreate")),
    st.tuples(st.just("reregister"), st.sampled_from(list(MatrixType))),
)


def _reregister(db: Database, matrix_type: MatrixType) -> None:
    """Register a new ``nlq_any`` in place of the old one (the catalog
    has no public way to drop a UDF name)."""
    db.catalog._aggregate_udfs.pop("nlq_any", None)
    db.register_udf(NlqListUdf("nlq_any", matrix_type))


def _database(workers: int) -> Database:
    db = Database(amps=AMPS, executor_workers=workers)
    db.create_table("x", dataset_schema(3))
    register_nlq_udfs(db)
    _reregister(db, MatrixType.TRIANGULAR)
    return db


def _apply(db: Database, step: int, operation: tuple) -> None:
    """Run one mutation; step *step* owns keys ``step * 1000 + r``."""
    kind = operation[0]
    rng = np.random.default_rng(step)
    if kind == "insert":
        _, count, with_null = operation
        X = rng.normal(size=(count, 3)).tolist()
        if with_null:
            X[0][0] = None
        db.insert_rows(
            "x", [(step * 1000 + r, *X[r]) for r in range(count)]
        )
    elif kind == "load":
        count = operation[1]
        columns = {"i": step * 1000 + np.arange(count)}
        for name in ("x1", "x2", "x3"):
            columns[name] = rng.normal(size=count)
        db.load_columns("x", columns)
    elif kind == "update":
        db.execute(f"UPDATE x SET x1 = x1 * 2.0 WHERE i % 4 = {operation[1]}")
    elif kind == "delete":
        db.execute(f"DELETE FROM x WHERE i % 4 = {operation[1]}")
    elif kind == "truncate":
        db.table("x").truncate()
    elif kind == "recreate":
        db.execute("DROP TABLE x")
        db.create_table("x", dataset_schema(3))
    elif kind == "reregister":
        _reregister(db, operation[1])


def _fresh_answer(log: "list[tuple[int, tuple]]", sql: str, workers: int):
    """*sql* on a fresh database that replays the mutations of *log*."""
    with _database(workers) as fresh:
        for step, operation in log:
            _apply(fresh, step, operation)
        result = fresh.execute(sql)
        assert result.metrics.partials_reused == 0
        return repr(result.rows)


def _expected_reuse(db: Database, columns, last_run) -> int:
    """Non-empty partitions unchanged since *last_run* (the partitions
    and row counts the same call saw) whose block of *columns* holds no
    NULL."""
    if last_run is None:
        return 0
    table = db.table("x")
    positions = [table.schema.position_of(name) for name in columns]
    return sum(
        1
        for partition, (seen, rows) in zip(table.partitions, last_run)
        if partition is seen
        and partition.row_count == rows
        and rows
        and not np.isnan(partition.block(positions)).any()
    )


@pytest.mark.parametrize("workers", [1, 4])
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations=st.lists(OPERATIONS, min_size=1, max_size=12))
def test_reused_partials_match_a_fresh_database(workers, operations):
    log: list[tuple[int, tuple]] = []
    #: per statement: (its UDF object, [(partition, rows)]) at its last run
    last_runs: dict[int, tuple] = {}

    def query(db: Database, index: int) -> None:
        name, columns = STATEMENTS[index]
        sql = _sql(name, columns)
        udf = db.catalog.aggregate_udf(name)
        last = last_runs.get(index)
        expected = _expected_reuse(
            db, columns, last[1] if last and last[0] is udf else None
        )
        result = db.execute(sql)
        assert result.metrics.partials_reused == expected
        assert repr(result.rows) == _fresh_answer(log, sql, workers)
        last_runs[index] = (
            udf,
            [(p, p.row_count) for p in db.table("x").partitions],
        )

    with _database(workers) as db:
        _apply(db, 0, ("load", 40))
        log.append((0, ("load", 40)))
        for step, operation in enumerate(operations, start=1):
            if operation[0] == "query":
                query(db, operation[1])
            else:
                _apply(db, step, operation)
                log.append((step, operation))
        for index in range(len(STATEMENTS)):
            query(db, index)
            query(db, index)  # a warm repeat
