"""Block-wise (vectorized) SELECT execution.

The invariant everything here guards: the vectorized path is a pure
wall-clock optimization — for every query it accepts it must return
**exactly** the row path's rows, in the row path's order, with the row
path's Python types (floats stay floats bit for bit, argmin/argmax
subscripts stay ints, NULLs stay None).  Hypothesis drives the parity
checks over NULL-riddled data for all six scoring UDFs and for WHERE
predicates with three-valued logic; further tests pin the plan-shape
("scoring is one scan"), the EXPLAIN strategy notes, the per-task
ANALYZE spans, the block-cache metrics and LRU cap, the persistent
engine pool, and the batched ``insert_many`` routing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.core.scoring.udfs import register_scoring_udfs
from repro.dbms.database import Database
from repro.dbms.engine import PartitionEngine
from repro.dbms.schema import TableSchema
from repro.dbms.storage import BLOCK_CACHE_CAPACITY, Partition, Table
from repro.dbms.types import SqlType
from repro.errors import ConstraintViolation

# ------------------------------------------------------------------ helpers
_finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
_cell = st.one_of(st.none(), _finite)


def _rows(d: int, max_rows: int = 40):
    return st.lists(
        st.tuples(*[_cell] * d), min_size=0, max_size=max_rows
    )


def _params(d: int):
    return st.lists(_finite, min_size=d, max_size=d)


def make_db(rows, d: int, workers: int = 2) -> Database:
    db = Database(amps=4, executor_workers=workers)
    register_scoring_udfs(db)
    cols = ", ".join(f"x{a + 1} FLOAT" for a in range(d))
    db.execute(f"CREATE TABLE x (i INTEGER PRIMARY KEY, {cols})")
    db.insert_rows("x", [(index, *row) for index, row in enumerate(rows)])
    return db


def both_paths(db: Database, sql: str):
    """(row-path result, vector-path result) for the same statement."""
    db.vectorized_select = False
    row = db.execute(sql)
    db.vectorized_select = True
    vector = db.execute(sql)
    return row, vector


def assert_parity(db: Database, sql: str, expect_vectorized: bool = True):
    row, vector = both_paths(db, sql)
    assert row.columns == vector.columns
    assert row.rows == vector.rows  # same rows, same order, same types
    if expect_vectorized:
        assert "strategy: vectorized-scan" in db.explain(sql)
    return row, vector


GEN3 = ScoringSqlGenerator("x", ["x1", "x2", "x3"])


# ------------------------------------------------- scoring UDF parity (all 6)
class TestScoringUdfParity:
    @given(rows=_rows(3), intercept=_finite, coefficients=_params(3))
    @settings(max_examples=30, deadline=None)
    def test_linearregscore(self, rows, intercept, coefficients):
        db = make_db(rows, 3)
        sql = GEN3.regression_inline_sql(intercept, coefficients)
        assert_parity(db, sql)

    @given(rows=_rows(3), mu=_params(3), components=st.lists(_params(3), min_size=1, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_fascore(self, rows, mu, components):
        db = make_db(rows, 3)
        sql = GEN3.pca_inline_sql(mu, components)
        assert_parity(db, sql)

    @given(rows=_rows(3), centroids=st.lists(_params(3), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_kmeansdistance_and_clusterscore(self, rows, centroids):
        db = make_db(rows, 3)
        sql = GEN3.clustering_inline_sql(centroids)
        _, vector = assert_parity(db, sql)
        for _, j in vector.rows:
            assert j is None or isinstance(j, int)

    @given(
        rows=_rows(3),
        means=st.lists(_params(3), min_size=2, max_size=2),
        inverse_variances=st.lists(_params(3), min_size=2, max_size=2),
        biases=_params(2),
    )
    @settings(max_examples=30, deadline=None)
    def test_nbscore_and_classifyscore(
        self, rows, means, inverse_variances, biases
    ):
        db = make_db(rows, 3)
        sql = GEN3.naive_bayes_inline_sql(means, inverse_variances, biases)
        _, vector = assert_parity(db, sql)
        for _, idx in vector.rows:
            assert idx is None or isinstance(idx, int)

    @given(rows=_rows(2))
    @settings(max_examples=20, deadline=None)
    def test_bare_nbscore_floats(self, rows):
        db = make_db(rows, 2)
        sql = (
            "SELECT t.i, nbscore(t.x1, t.x2, 0.5, -0.25, 2.0, 0.125, 1.5) "
            "AS s FROM x t"
        )
        assert_parity(db, sql)


# --------------------------------------------------- WHERE predicates / NULLs
PREDICATES = [
    "t.x1 > 0",
    "t.x1 > 0 AND t.x2 <= 1.5",
    "t.x1 > 0 OR t.x2 > 0",
    "NOT (t.x1 = t.x2)",
    "t.x1 IS NULL",
    "t.x1 IS NOT NULL AND t.x2 IS NOT NULL",
    "t.x1 + t.x2 > t.x3",
    "NOT (t.x1 IS NULL) OR t.x2 <> 0",
    "t.x1 * 2.0 >= t.x2 - 1.0",
]


class TestWherePredicateParity:
    @pytest.mark.parametrize("predicate", PREDICATES)
    @given(rows=_rows(3))
    @settings(max_examples=15, deadline=None)
    def test_three_valued_logic_parity(self, predicate, rows):
        db = make_db(rows, 3)
        sql = f"SELECT t.i, t.x1 FROM x t WHERE {predicate}"
        assert_parity(db, sql)

    @given(rows=_rows(3), intercept=_finite, coefficients=_params(3))
    @settings(max_examples=20, deadline=None)
    def test_filtered_scoring(self, rows, intercept, coefficients):
        db = make_db(rows, 3)
        sql = (
            GEN3.regression_inline_sql(intercept, coefficients)
            + " WHERE t.x2 IS NOT NULL AND t.x1 > 0"
        )
        assert_parity(db, sql)

    def test_filter_before_project(self):
        # sqrt of filtered-out negatives must not raise: the block path,
        # like the row path, filters first and projects after.
        db = make_db([(4.0, 1.0, 1.0), (-9.0, 1.0, 1.0)], 3)
        sql = "SELECT t.i, sqrt(t.x1) AS r FROM x t WHERE t.x1 >= 0"
        row, vector = assert_parity(db, sql)
        assert vector.rows == [(0, 2.0)]


# ----------------------------------------------------- plan shape and EXPLAIN
class TestPlanAndExplain:
    def setup_method(self):
        rows = [(float(i), float(i) * 0.5, 1.0 - i) for i in range(50)]
        self.db = make_db(rows, 3)
        self.sql = GEN3.regression_inline_sql(0.5, [1.0, -2.0, 0.25])

    def test_scoring_is_exactly_one_scan(self):
        plan = self.db.explain_plan(self.sql)
        assert len(plan.scans) == 1

    def test_project_note_reports_vectorized_scan(self):
        plan = self.db.explain_plan(self.sql)
        (project,) = plan.find("project")
        notes = "\n".join(project.notes)
        assert "strategy: vectorized-scan" in notes
        assert "batched UDFs: linearregscore" in notes

    def test_toggle_off_reports_row_scan(self):
        self.db.vectorized_select = False
        plan = self.db.explain_plan(self.sql)
        (project,) = plan.find("project")
        assert any(
            "strategy: row-scan (vectorized SELECT disabled)" in note
            for note in project.notes
        )
        self.db.vectorized_select = True

    def test_fallback_reason_for_integer_arithmetic(self):
        plan = self.db.explain_plan("SELECT t.i + 1 FROM x t")
        (project,) = plan.find("project")
        assert any("strategy: row-scan" in note for note in project.notes)
        assert any("yields integers" in note for note in project.notes)

    def test_fallback_reason_for_plain_projection(self):
        plan = self.db.explain_plan("SELECT t.i, t.x1 FROM x t")
        (project,) = plan.find("project")
        assert any(
            "nothing to vectorize" in note for note in project.notes
        )

    def test_analyze_task_spans_carry_strategy(self):
        result = self.db.execute("EXPLAIN ANALYZE " + self.sql)
        tasks = result.plan.trace.find("task")
        assert tasks, "expected per-partition task spans"
        assert all(
            task.attributes["strategy"] == "vectorized-scan"
            for task in tasks
        )
        assert len(tasks) == result.metrics.partitions_processed
        assert sum(task.attributes["rows"] for task in tasks) == 50

    def test_analyze_reconciles_with_metrics(self):
        result = self.db.execute("EXPLAIN ANALYZE " + self.sql)
        metrics = result.metrics
        trace = result.plan.trace
        assert trace.total_seconds("scan") == metrics.scan_seconds
        assert metrics.accumulate_seconds == 0.0
        assert metrics.merge_seconds == 0.0
        per_task_project = sum(
            child.seconds
            for task in trace.find("task")
            for child in task.children
            if child.name == "project"
        )
        assert per_task_project == metrics.project_seconds

    def test_results_identical_under_explain_analyze(self):
        direct = self.db.execute(self.sql)
        self.db.execute("EXPLAIN ANALYZE " + self.sql)
        again = self.db.execute(self.sql)
        assert direct.rows == again.rows


# ---------------------------------------------------------- ORDER BY handling
class TestOrderByGate:
    def setup_method(self):
        rows = [(float(i % 7), float(i), -float(i)) for i in range(30)]
        self.db = make_db(rows, 3)

    def test_order_by_output_alias_stays_vectorized(self):
        sql = (
            GEN3.regression_inline_sql(0.0, [1.0, 1.0, 1.0])
            + " ORDER BY yhat DESC LIMIT 5"
        )
        assert_parity(self.db, sql)

    def test_order_by_output_position_stays_vectorized(self):
        sql = (
            GEN3.regression_inline_sql(0.0, [1.0, 1.0, 1.0])
            + " ORDER BY 2, 1 DESC"
        )
        assert_parity(self.db, sql)

    def test_order_by_source_column_falls_back(self):
        # x2 is not in the select list: sorting needs pre-projection
        # rows, which the block path never materializes.
        sql = "SELECT t.i, t.x1 * 2.0 AS twice FROM x t ORDER BY t.x2"
        row, vector = both_paths(self.db, sql)
        assert row.rows == vector.rows
        text = self.db.explain(sql)
        assert "strategy: row-scan" in text
        assert "ORDER BY" in text


# ------------------------------------------------------- block-cache metrics
class TestBlockCache:
    def test_hit_and_miss_counts_in_metrics(self):
        rows = [(float(i), float(i), float(i)) for i in range(40)]
        db = make_db(rows, 3)
        sql = GEN3.regression_inline_sql(0.0, [1.0, 1.0, 1.0])
        first = db.execute(sql)
        assert first.metrics.block_cache_misses > 0
        assert first.metrics.block_cache_hits == 0
        second = db.execute(sql)
        assert second.metrics.block_cache_hits > 0
        assert second.metrics.block_cache_misses == 0

    def test_lru_capacity_cap(self):
        partition = Partition(12)
        for row in ([float(v)] * 12 for v in range(5)):
            partition.append(row)
        stats = [
            partition.numeric_matrix_with_cache_stats(
                [start, (start + 1) % 12]
            )[1]
            for start in range(12)
        ]
        assert len(partition._block_cache) == BLOCK_CACHE_CAPACITY
        assert not any(s.hit for s in stats)
        assert [s.evictions for s in stats] == (
            [0] * BLOCK_CACHE_CAPACITY + [1] * (12 - BLOCK_CACHE_CAPACITY)
        )

    def test_lru_keeps_recently_used(self):
        partition = Partition(12)
        partition.append([float(v) for v in range(12)])
        partition.numeric_matrix([0])
        for position in range(1, BLOCK_CACHE_CAPACITY):
            partition.numeric_matrix([position])
        # refresh [0] to most-recent
        assert partition.numeric_matrix_with_cache_stats([0])[1].hit
        partition.numeric_matrix([BLOCK_CACHE_CAPACITY])  # evicts [1]
        assert partition.has_cached_block([0])
        assert not partition.has_cached_block([1])

    def test_mutation_clears_cache(self):
        partition = Partition(2)
        partition.append([1.0, 2.0])
        partition.numeric_matrix([0, 1])
        assert partition.has_cached_block([0, 1])
        partition.append([3.0, 4.0])
        assert not partition.has_cached_block([0, 1])


# ------------------------------------------------------ persistent engine pool
class TestPersistentPool:
    def test_engine_reuses_one_pool_across_maps(self):
        engine = PartitionEngine(workers=3)
        for _ in range(5):
            assert engine.map([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]
        assert engine.pools_created == 1
        engine.close()

    def test_no_new_pool_per_query(self):
        rows = [(float(i), float(i), float(i)) for i in range(40)]
        db = make_db(rows, 3, workers=3)
        sql = GEN3.regression_inline_sql(0.0, [1.0, 1.0, 1.0])
        for _ in range(4):
            db.execute(sql)
        db.execute("SELECT sum(t.x1) FROM x t")  # aggregate path too
        assert db._executor.engine.pools_created == 1
        db.close()

    def test_close_is_idempotent_and_recreates_lazily(self):
        engine = PartitionEngine(workers=2)
        engine.map([lambda: 1, lambda: 2])
        engine.close()
        engine.close()
        assert engine.map([lambda: 3, lambda: 4]) == [3, 4]
        assert engine.pools_created == 2
        engine.close()

    def test_serial_engine_never_creates_a_pool(self):
        engine = PartitionEngine(workers=1)
        engine.map([lambda: 1, lambda: 2])
        assert engine.pools_created == 0

    def test_database_context_manager_closes(self):
        rows = [(float(i), float(i), float(i)) for i in range(10)]
        with make_db(rows, 3, workers=2) as db:
            db.execute("SELECT sum(t.x1) FROM x t")
            engine = db._executor.engine
            assert engine.pools_created == 1
        assert engine._pool is None

    def test_worker_swap_closes_old_pool(self):
        db = Database(amps=4, executor_workers=3)
        db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT)")
        db.insert_rows("t", [(i, float(i)) for i in range(20)])
        db.execute("SELECT sum(s.v) FROM t s")
        old = db._executor.engine
        db.executor_workers = 2
        assert old._pool is None
        db.close()


# ------------------------------------------------------ batched insert_many
def _layout(table: Table) -> list[list[tuple]]:
    return [list(partition.rows()) for partition in table.partitions]


class TestInsertManyBatching:
    def _schema(self, pk: bool = True) -> TableSchema:
        return TableSchema.build(
            [("k", SqlType.INTEGER), ("v", SqlType.FLOAT)],
            primary_key="k" if pk else None,
        )

    def test_layout_matches_per_row_inserts(self):
        rows = [(i, float(i)) for i in range(100)]
        one_by_one = Table("t", self._schema(), partitions=5)
        for row in rows:
            one_by_one.insert(row)
        batched = Table("t", self._schema(), partitions=5)
        assert batched.insert_many(rows) == 100
        assert _layout(one_by_one) == _layout(batched)

    def test_round_robin_layout_matches_per_row_inserts(self):
        rows = [(i, float(i)) for i in range(50)]
        one_by_one = Table("t", self._schema(pk=False), partitions=4)
        for row in rows:
            one_by_one.insert(row)
        batched = Table("t", self._schema(pk=False), partitions=4)
        batched.insert_many(rows)
        assert _layout(one_by_one) == _layout(batched)

    def test_duplicate_pk_mid_batch_keeps_validated_prefix(self):
        table = Table("t", self._schema(), partitions=3)
        rows = [(0, 0.0), (1, 1.0), (2, 2.0), (1, 99.0), (3, 3.0)]
        with pytest.raises(ConstraintViolation):
            table.insert_many(rows)
        assert table.row_count == 3  # same prefix a per-row loop leaves
        assert sorted(row[0] for p in table.partitions for row in p.rows()) \
            == [0, 1, 2]

    def test_one_cache_clear_per_batch(self):
        table = Table("t", self._schema(), partitions=1)
        table.insert_many([(i, float(i)) for i in range(10)])
        partition = table.partitions[0]
        block = partition.numeric_matrix([1])
        table.insert_many([(100 + i, float(i)) for i in range(10)])
        assert not partition.has_cached_block([1])
        assert partition.row_count == 20
        assert block.shape == (10, 1)  # old block unaffected

    def test_query_parity_after_batched_insert(self):
        db = make_db([], 3)
        db.insert_rows(
            "x", [(i + 1000, float(i), float(-i), 0.5) for i in range(60)]
        )
        sql = GEN3.regression_inline_sql(1.0, [0.5, 0.5, 2.0])
        assert_parity(db, sql)
