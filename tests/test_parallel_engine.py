"""The parallel partition-execution engine and its invariants.

Covers the PartitionEngine itself (deterministic result order, error
propagation), the repo's stated aggregation invariants — ``merge(split)
== whole`` for every registered aggregate UDF and builtin, parallel
execution bit-identical to serial — DISTINCT partial-state merging, and
the wall-clock QueryMetrics record.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.nlq_udf import (
    NLQ_UDF_NAMES,
    compute_nlq_udf_groups,
    register_nlq_udfs,
)
from repro.core.packing import unpack_summary
from repro.core.summary import MatrixType
from repro.dbms.database import Database
from repro.dbms.engine import PartitionEngine
from repro.dbms.functions import AGGREGATE_BUILTINS
from repro.dbms.metrics import QueryMetrics
from repro.dbms.schema import dataset_schema, dimension_names
from repro.errors import PartitionExecutionError


# ---------------------------------------------------------------- the engine
class TestPartitionEngine:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            PartitionEngine(0)

    def test_serial_runs_inline(self):
        thread_names = []
        engine = PartitionEngine(1)
        results = engine.map(
            [lambda i=i: (thread_names.append(threading.current_thread().name), i)[1]
             for i in range(5)]
        )
        assert results == [0, 1, 2, 3, 4]
        assert all(name == threading.main_thread().name for name in thread_names)

    def test_parallel_results_in_submission_order(self):
        engine = PartitionEngine(4)

        def make(index: int, delay: float):
            def task():
                time.sleep(delay)
                return index
            return task

        # Later tasks finish first; results must still come back ordered.
        tasks = [make(i, delay=(8 - i) * 0.005) for i in range(8)]
        assert engine.map(tasks) == list(range(8))

    def test_parallel_uses_worker_threads(self):
        engine = PartitionEngine(4)
        names = engine.map(
            [lambda: threading.current_thread().name for _ in range(8)]
        )
        assert all(name.startswith("repro-amp") for name in names)

    def test_task_errors_propagate_serial(self):
        # Serial execution re-raises the task's error as-is (seed
        # behaviour — typed SQL errors pass through untouched).
        engine = PartitionEngine(1)

        def boom():
            raise RuntimeError("partition exploded")

        with pytest.raises(RuntimeError, match="partition exploded"):
            engine.map([lambda: 1, boom, lambda: 3])

    def test_task_errors_aggregate_in_parallel(self):
        # Parallel execution wraps failures in PartitionExecutionError
        # with per-partition attribution; the deterministic first error
        # (lowest failing partition) is both first_error and __cause__.
        engine = PartitionEngine(4)

        def boom():
            raise RuntimeError("partition exploded")

        with pytest.raises(PartitionExecutionError) as excinfo:
            engine.map([lambda: 1, boom, lambda: 3])
        error = excinfo.value
        assert error.partitions == [1]
        assert isinstance(error.first_error, RuntimeError)
        assert str(error.first_error) == "partition exploded"
        assert error.__cause__ is error.first_error
        engine.close()


# ------------------------------------------------- merge(split) == whole
def _accumulate_all(aggregate, rows):
    state = aggregate.initialize()
    for args in rows:
        state = aggregate.accumulate(state, args)
    return state


def _split_merge_finalize(aggregate, rows, partition_count):
    """Round-robin rows over partitions, accumulate partials, merge in
    partition order, finalize."""
    partials = []
    for p in range(partition_count):
        partials.append(_accumulate_all(aggregate, rows[p::partition_count]))
    merged = partials[0]
    for partial in partials[1:]:
        merged = aggregate.merge(merged, partial)
    return aggregate.finalize(merged)


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _close(left, right):
    if left is None or right is None:
        return left == right
    # rel=1e-7, not 1e-9: variance-style aggregates over large near-equal
    # values (e.g. three floats around 4.2e5) lose ~1e-9 relative digits
    # to catastrophic cancellation depending on the split, which is float
    # associativity, not a merge bug — real merge bugs are off by orders
    # of magnitude.
    return left == pytest.approx(right, rel=1e-7, abs=1e-9)


def _assert_merge_split_invariant(name, values):
    factory = AGGREGATE_BUILTINS[name]
    two_arg = factory().arity == 2
    if two_arg:
        rows = [(v, float(i % 7) - 3.0) for i, v in enumerate(values)]
    else:
        rows = [(v,) for v in values]
    whole = factory()
    expected = whole.finalize(_accumulate_all(whole, rows))
    for partition_count in (1, 2, 20):
        aggregate = factory()
        got = _split_merge_finalize(aggregate, rows, partition_count)
        assert _close(got, expected), (name, partition_count)


class TestMergeSplitInvariant:
    """merge over any 1/2/20-way split must equal whole-data aggregation."""

    @pytest.mark.parametrize("name", sorted(AGGREGATE_BUILTINS))
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(finite_floats, min_size=1, max_size=60))
    def test_builtin_aggregates(self, name, values):
        _assert_merge_split_invariant(name, values)

    @pytest.mark.parametrize(
        "values",
        [
            # the draw the ROADMAP quotes (hypothesis prints 2 decimals);
            # as written it passes
            [682784.09, 682803.08, 682840.08],
            # a neighbour that is red as written: 2-way split differs
            # from the whole at 3e-7 relative
            pytest.param(
                [682803.77, 682796.04, 682819.21],
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP open item 'stable moments': "
                    "_MomentsState keeps raw power sums, so corr cancels "
                    "catastrophically at a 6.8e5 offset; needs Welford "
                    "updates with the Chan parallel merge",
                ),
            ),
        ],
    )
    def test_corr_known_red_draw(self, values):
        _assert_merge_split_invariant("corr", values)

    @pytest.mark.parametrize("udf_name", sorted(NLQ_UDF_NAMES.values()))
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 80),
        d=st.integers(1, 6),
    )
    def test_every_registered_aggregate_udf(self, udf_name, seed, n, d):
        udfs = register_nlq_udfs(Database(amps=4))
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 10.0, size=(n, d))
        if udf_name.startswith("nlq_str"):
            rows = [(",".join(repr(float(v)) for v in x),) for x in X]
        else:
            rows = [(d, *map(float, x)) for x in X]

        whole_udf = udfs[udf_name]
        expected = unpack_summary(
            whole_udf.finalize(_accumulate_all(whole_udf, rows))
        )
        for partition_count in (1, 2, 20):
            payload = _split_merge_finalize(udfs[udf_name], rows, partition_count)
            got = unpack_summary(payload)
            assert got.n == expected.n
            assert np.allclose(got.L, expected.L, rtol=1e-9, atol=1e-9)
            assert np.allclose(got.Q, expected.Q, rtol=1e-9, atol=1e-9)
            assert np.array_equal(got.mins, expected.mins)
            assert np.array_equal(got.maxs, expected.maxs)


# -------------------------------------------- parallel == serial, bitwise
def _loaded_nlq_db(n: int = 400, d: int = 4, amps: int = 20) -> Database:
    db = Database(amps=amps)
    rng = np.random.default_rng(11)
    db.create_table("x", dataset_schema(d))
    columns = {"i": np.arange(1, n + 1)}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = rng.normal(25.0, 8.0, n)
    db.load_columns("x", columns)
    register_nlq_udfs(db)
    return db


def _payload(db: Database, sql: str):
    return db.execute(sql).scalar()


class TestParallelSerialBitIdentity:
    """executor_workers > 1 must not change a single output bit."""

    @pytest.mark.parametrize(
        "sql",
        [
            # vector path, grand aggregate (the paper's one-scan nLQ)
            "SELECT nlq_tri(4, x1, x2, x3, x4) FROM x",
            "SELECT nlq_full(4, x1, x2, x3, x4) FROM x",
            # row path: string-packed variant has no block support
            "SELECT nlq_str_tri(x1 || ',' || x2 || ',' || x3 || ',' || x4) FROM x",
            # row path: WHERE disables the vector fast path
            "SELECT nlq_diag(4, x1, x2, x3, x4) FROM x WHERE i > 37",
        ],
    )
    def test_nlq_payloads_bit_identical(self, sql):
        db = _loaded_nlq_db()
        db.executor_workers = 1
        serial = _payload(db, sql)
        db.executor_workers = 4
        parallel = _payload(db, sql)
        assert isinstance(serial, str)
        assert parallel == serial  # exact packed-string equality

    def test_groupby_submodels_bit_identical(self):
        db = _loaded_nlq_db()
        sql = (
            "SELECT i MOD 5 AS grp, nlq_diag(4, x1, x2, x3, x4) FROM x "
            "GROUP BY i MOD 5 ORDER BY grp"
        )
        db.executor_workers = 1
        serial = db.execute(sql).rows
        db.executor_workers = 4
        parallel = db.execute(sql).rows
        assert parallel == serial

    def test_groupby_submodels_decode_identically(self):
        db = _loaded_nlq_db()
        db.executor_workers = 1
        serial = compute_nlq_udf_groups(
            db, "x", dimension_names(4), "i MOD 3", MatrixType.DIAGONAL
        )
        db.executor_workers = 4
        parallel = compute_nlq_udf_groups(
            db, "x", dimension_names(4), "i MOD 3", MatrixType.DIAGONAL
        )
        assert set(serial) == set(parallel)
        for key, stats in serial.items():
            assert np.array_equal(stats.Q, parallel[key].Q)
            assert np.array_equal(stats.L, parallel[key].L)

    def test_builtin_aggregates_bit_identical(self):
        db = _loaded_nlq_db()
        sql = (
            "SELECT sum(x1), avg(x2), min(x3), max(x4), count(*), "
            "var_pop(x1), corr(x1, x2) FROM x"
        )
        db.executor_workers = 1
        serial = db.execute(sql).rows
        db.executor_workers = 4
        parallel = db.execute(sql).rows
        assert parallel == serial

    def test_group_key_order_matches_serial(self):
        """No ORDER BY: group keys appear in scan-first-appearance
        order, which must survive parallel execution."""
        db = _loaded_nlq_db()
        sql = "SELECT i MOD 7, count(*) FROM x GROUP BY i MOD 7"
        db.executor_workers = 1
        serial = db.execute(sql).rows
        db.executor_workers = 4
        parallel = db.execute(sql).rows
        assert parallel == serial


# ------------------------------------------------------ DISTINCT merging
class TestDistinctMerge:
    """DISTINCT aggregates now merge partial states across partitions."""

    @pytest.fixture
    def dup_db(self) -> Database:
        db = Database(amps=8)
        db.execute(
            "CREATE TABLE s (id VARCHAR PRIMARY KEY, grp INTEGER, v FLOAT)"
        )
        # String PKs hash-route rows, spreading duplicate v values
        # across many partitions.
        rows = [
            (f"row-{i}", i % 3, float(i % 5)) for i in range(60)
        ]
        db.insert_rows("s", rows)
        return db

    @pytest.mark.parametrize("workers", [1, 4])
    def test_count_distinct(self, dup_db, workers):
        dup_db.executor_workers = workers
        assert dup_db.execute("SELECT count(DISTINCT v) FROM s").scalar() == 5

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sum_and_avg_distinct(self, dup_db, workers):
        dup_db.executor_workers = workers
        row = dup_db.execute(
            "SELECT sum(DISTINCT v), avg(DISTINCT v) FROM s"
        ).first()
        assert row == (10.0, 2.0)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_distinct_with_group_by(self, dup_db, workers):
        dup_db.executor_workers = workers
        result = dup_db.execute(
            "SELECT grp, count(DISTINCT v), count(*) FROM s "
            "GROUP BY grp ORDER BY grp"
        )
        assert result.rows == [(0, 5, 20), (1, 5, 20), (2, 5, 20)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_distinct_mixed_with_plain_aggregates(self, dup_db, workers):
        dup_db.executor_workers = workers
        row = dup_db.execute(
            "SELECT count(DISTINCT v), sum(v), count(*) FROM s"
        ).first()
        assert row == (5, sum(float(i % 5) for i in range(60)), 60)

    def test_distinct_parallel_matches_serial(self, dup_db):
        sql = "SELECT grp, sum(DISTINCT v) FROM s GROUP BY grp ORDER BY grp"
        dup_db.executor_workers = 1
        serial = dup_db.execute(sql).rows
        dup_db.executor_workers = 4
        assert dup_db.execute(sql).rows == serial


# -------------------------------------------------------------- metrics
class TestQueryMetrics:
    def test_attached_to_every_result(self, db):
        db.execute("CREATE TABLE t (v FLOAT)")
        result = db.execute("SELECT * FROM t")
        assert isinstance(result.metrics, QueryMetrics)
        assert result.metrics.workers == 1
        assert result.metrics.total_seconds >= 0.0

    def test_aggregate_stages_populated(self):
        db = _loaded_nlq_db(n=300)
        result = db.execute("SELECT nlq_tri(4, x1, x2, x3, x4) FROM x")
        metrics = result.metrics
        assert metrics.rows_processed == 300
        assert metrics.partitions_processed == 20
        assert metrics.parallel_tasks == 20
        assert metrics.groups == 1
        assert metrics.total_seconds > 0.0
        assert set(metrics.stage_seconds) == {
            "scan", "accumulate", "merge", "finalize",
        }
        assert all(value >= 0.0 for value in metrics.stage_seconds.values())

    def test_where_clause_counts_folded_rows_only(self):
        db = _loaded_nlq_db(n=200)
        result = db.execute("SELECT count(*) FROM x WHERE i <= 50")
        assert result.scalar() == 50
        assert result.metrics.rows_processed == 50

    def test_groupby_group_count(self):
        db = _loaded_nlq_db(n=100)
        result = db.execute("SELECT i MOD 4, count(*) FROM x GROUP BY i MOD 4")
        assert result.metrics.groups == 4

    def test_worker_count_recorded(self):
        db = _loaded_nlq_db(n=100)
        db.executor_workers = 3
        result = db.execute("SELECT sum(x1) FROM x")
        assert result.metrics.workers == 3

    def test_as_dict_round_trip(self):
        db = _loaded_nlq_db(n=50)
        metrics = db.execute("SELECT sum(x1) FROM x").metrics
        payload = metrics.as_dict()
        assert payload["rows_processed"] == 50
        assert payload["workers"] == 1
