"""Shared-scan batch execution: rewrite decisions, parity, metrics.

:meth:`Database.execute_batch` runs N single-table aggregate statements
over ONE partition-parallel scan when the rewrite pass
(:mod:`repro.dbms.sql.rewrite`) proves they share it.  The contract
under test: **each statement's result is bit-identical to executing it
serially**, at any worker count, with the scan charged (and counted)
once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.nlq_udf import nlq_call_sql, register_nlq_udfs
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema, dimension_names
from repro.dbms.sql.parser import parse_statement
from repro.dbms.sql.rewrite import plan_batch
from repro.errors import SqlSyntaxError

N_ROWS, D = 120, 3
DIMS = dimension_names(D)

#: single-table aggregate statements over x — every pair batchable
POOL = [
    "SELECT count(*) FROM x",
    "SELECT sum(x1), avg(x2) FROM x",
    nlq_call_sql("x", DIMS),
    nlq_call_sql("x", ["x1", "x2"]),
    "SELECT sum(x1 + x2), count(*) FROM x GROUP BY i MOD 3 ORDER BY 1",
    "SELECT sum(x1) FROM x WHERE x2 > 50.0",
    "SELECT min(x3), max(x1) FROM x",
    "SELECT avg(x3) FROM x WHERE x1 > 50.0 GROUP BY i MOD 2 ORDER BY 1",
]


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(23)
    X = rng.normal(50.0, 10.0, size=(N_ROWS, D))
    columns = {"i": np.arange(1, N_ROWS + 1)}
    for index, name in enumerate(DIMS):
        columns[name] = X[:, index]
    return columns


def _fresh_db(dataset, workers: int = 4) -> Database:
    db = Database(amps=4, executor_workers=workers)
    db.create_table("x", dataset_schema(D))
    db.load_columns("x", dataset)
    register_nlq_udfs(db)
    return db


# ------------------------------------------------------------------ parity
@given(
    picks=st.lists(
        st.integers(min_value=0, max_value=len(POOL) - 1),
        min_size=2,
        max_size=5,
    ),
    workers=st.sampled_from([1, 2, 4]),
)
@example(picks=[2, 2, 2, 3], workers=4)  # build_all_models' shape
@example(picks=[0, 1, 4, 5], workers=1)  # mixed grand/grouped/filtered
@example(picks=[5, 7], workers=2)        # WHERE-only batch
@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_batch_matches_serial_bit_for_bit(dataset, picks, workers):
    """execute_batch([s1..sN]) == [execute(s1)..execute(sN)] — the
    whole contract, for any statement mix at any worker count."""
    batch = [POOL[index] for index in picks]
    with _fresh_db(dataset, workers=workers) as db:
        batched = [result.rows for result in db.execute_batch(batch)]
        serial = [db.execute(sql).rows for sql in batch]
    assert batched == serial


def test_batch_identical_across_worker_counts(dataset):
    batch = [nlq_call_sql("x", DIMS), "SELECT sum(x1), count(*) FROM x"]
    reference = None
    for workers in (1, 2, 4):
        with _fresh_db(dataset, workers=workers) as db:
            rows = [result.rows for result in db.execute_batch(batch)]
        if reference is None:
            reference = rows
        assert rows == reference


# ------------------------------------------------------------ decisions
def test_consolidated_decision_and_duplicate_elimination(dataset):
    with _fresh_db(dataset) as db:
        same = nlq_call_sql("x", DIMS)
        db.execute_batch([same, same, same, nlq_call_sql("x", ["x1"])])
        decision = db._executor.last_batch_decision
    assert decision.consolidated
    assert decision.table == "x"
    assert decision.distinct == [0, 3]
    assert decision.assignment == [0, 0, 0, 1]
    assert any("scan consolidation" in note for note in decision.notes)
    assert any("duplicate" in note for note in decision.notes)


def test_refusal_on_mixed_tables_falls_back_to_serial(dataset):
    with _fresh_db(dataset) as db:
        db.execute("CREATE TABLE other (i INTEGER PRIMARY KEY, v FLOAT)")
        db.execute("INSERT INTO other VALUES (1, 2.5)")
        batch = ["SELECT count(*) FROM x", "SELECT sum(v) FROM other"]
        results = db.execute_batch(batch)
        decision = db._executor.last_batch_decision
        serial = [db.execute(sql).rows for sql in batch]
    assert not decision.consolidated
    assert "table" in decision.reason
    assert [result.rows for result in results] == serial


def test_refusal_on_single_statement_and_non_aggregate(dataset):
    with _fresh_db(dataset) as db:
        db.execute_batch(["SELECT count(*) FROM x"])
        single = db._executor.last_batch_decision
        batch = ["SELECT i, x1 FROM x ORDER BY i", "SELECT count(*) FROM x"]
        results = db.execute_batch(batch)
        projection = db._executor.last_batch_decision
        serial = [db.execute(sql).rows for sql in batch]
        assert [result.rows for result in results] == serial
    assert not single.consolidated
    assert not projection.consolidated


def test_non_select_statement_is_rejected(dataset):
    with _fresh_db(dataset) as db:
        with pytest.raises(ValueError, match="SELECT"):
            db.execute_batch(
                ["SELECT count(*) FROM x", "DROP TABLE x"]
            )
        with pytest.raises(SqlSyntaxError):
            db.execute_batch(["SELECT count(*) FROM"])


def test_plan_batch_where_notes(dataset):
    with _fresh_db(dataset) as db:
        shared = plan_batch(db.catalog, [
            parse_statement("SELECT sum(x1) FROM x WHERE x2 > 50.0"),
            parse_statement("SELECT count(*) FROM x WHERE x2 > 50.0"),
        ])
        mixed = plan_batch(db.catalog, [
            parse_statement("SELECT sum(x1) FROM x WHERE x2 > 50.0"),
            parse_statement("SELECT count(*) FROM x"),
        ])
    assert shared.consolidated
    assert any("predicate pushed" in note for note in shared.notes)
    assert mixed.consolidated
    assert any("late filters" in note for note in mixed.notes)


# -------------------------------------------------------------- metrics
def test_batch_metrics_count_one_scan(dataset):
    batch = [
        nlq_call_sql("x", DIMS),
        nlq_call_sql("x", DIMS),
        "SELECT sum(x1), count(*) FROM x",
        "SELECT avg(x2) FROM x GROUP BY i MOD 3 ORDER BY 1",
    ]
    with _fresh_db(dataset) as db:
        partitions = sum(
            1 for p in db.table("x").partitions if p.row_count
        )
        results = db.execute_batch(batch)
    metrics = results[0].metrics
    assert metrics.statements_batched == 4
    # 3 distinct accumulator passes rode 1 physical scan: 3 saved.
    assert metrics.scans_saved == 3
    # Physical rows are read once, not once per statement.
    assert metrics.rows_processed == N_ROWS
    assert metrics.rows_scanned == N_ROWS
    assert metrics.parallel_tasks == partitions
    assert metrics.fallbacks == 0
    assert all(result.metrics is metrics for result in results)


def test_serial_execution_reports_no_batching(dataset):
    with _fresh_db(dataset) as db:
        result = db.execute("SELECT count(*) FROM x")
    assert result.metrics.statements_batched == 0
    assert result.metrics.scans_saved == 0


def test_batch_charges_one_scan(dataset):
    """Simulated cost: N-statement batch pays for one scan of x plus
    per-statement aggregate work — strictly cheaper than N scans."""
    batch = ["SELECT sum(x1) FROM x", "SELECT sum(x2) FROM x",
             "SELECT sum(x3) FROM x"]
    with _fresh_db(dataset) as db:
        serial = sum(db.execute(sql).simulated_seconds for sql in batch)
        db.reset_clock()
        results = db.execute_batch(batch)
    batched = results[0].simulated_seconds
    assert all(
        result.simulated_seconds == batched for result in results
    )
    assert batched < serial


# -------------------------------------------------------- explain_batch
def test_explain_batch_shows_one_scan(dataset):
    batch = [
        nlq_call_sql("x", DIMS),
        "SELECT sum(x1), count(*) FROM x",
        "SELECT avg(x2) FROM x GROUP BY i MOD 3 ORDER BY 1",
    ]
    with _fresh_db(dataset) as db:
        plan = db.explain_batch(batch)
    assert plan.root.operator == "batch"
    assert len(plan.scans) == 1
    shared = plan.find("shared-scan")
    assert len(shared) == 2
    assert all(node.estimated_seconds == 0.0 for node in shared)
    text = "\n".join(plan.render())
    assert "scan consolidation" in text
    assert "shared-scan" in text


def test_explain_batch_refused_shows_per_statement_scans(dataset):
    with _fresh_db(dataset) as db:
        db.execute("CREATE TABLE other (i INTEGER PRIMARY KEY, v FLOAT)")
        plan = db.explain_batch(
            ["SELECT count(*) FROM x", "SELECT sum(v) FROM other"]
        )
    assert len(plan.scans) == 2
    assert not plan.find("shared-scan")


def test_explain_analyze_batch_attaches_trace(dataset):
    batch = [nlq_call_sql("x", DIMS), "SELECT count(*) FROM x"]
    with _fresh_db(dataset) as db:
        plan = db.explain_batch(batch, analyze=True)
    assert plan.analyze
    assert plan.trace is not None
    assert plan.metrics is not None
    assert plan.metrics.statements_batched == 2


# ------------------------------------------------- reused-partial riders
def test_warm_statement_reuses_its_partials_in_the_shared_scan(dataset):
    sql = nlq_call_sql("x", DIMS)
    with _fresh_db(dataset) as db:
        warm = db.execute(sql).rows  # the blocks remember the partials
        results = db.execute_batch([sql, "SELECT count(*) FROM x"])
        metrics = results[0].metrics
        serial_count = db.execute("SELECT count(*) FROM x").rows
        partitions = db.table("x").non_empty_partition_count
    assert results[0].rows == warm
    assert results[1].rows == serial_count
    # The nlq statement took one remembered partial per partition, and
    # both statements still shared the one scan.
    assert metrics.partials_reused == partitions
    assert metrics.scans_saved == 1
