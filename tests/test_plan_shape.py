"""Plan-shape regression tests: the paper's 'one scan' claims, asserted.

Ordonez's central performance argument (Sections 3.4–3.5) is that UDF
model building and scoring each take exactly *one* scan of X.  Until
now the suite could only check that indirectly, through simulated
timings.  EXPLAIN exposes the operator tree, so these tests pin the
claims structurally: if a future change sneaks in a spool, an extra
scan, or a subquery, these fail even when the numbers still look
plausible.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    PlanShape,
    batch_plan_shape,
    plan_shape,
    plan_shape_gate,
    scaled_dataset,
)
from repro.core.nlq_udf import nlq_call_sql
from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.dbms.schema import dimension_names


def data_table_scans(plan) -> list:
    """Scans of the data set X itself (model tables are tiny and don't
    count against the paper's one-scan claim)."""
    return [node for node in plan.scans if node.detail.startswith("table x ")]


@pytest.fixture
def dims():
    return dimension_names(4)


class TestModelBuildSingleScan:
    def test_nlq_build_is_exactly_one_scan(self, loaded_db, dims):
        db, _, _ = loaded_db
        plan = db.explain_plan(nlq_call_sql("x", dims))
        assert len(plan.scans) == 1
        assert len(plan.find("subquery")) == 0
        assert len(plan.find("aggregate")) == 1
        (aggregate,) = plan.find("aggregate")
        assert any("single-scan" in note for note in aggregate.notes)

    def test_group_by_sub_models_still_one_scan(self, loaded_db, dims):
        # Section 3.4: per-group (n, L, Q) sub-models come from the SAME
        # single scan — GROUP BY adds hashing, not passes over X.
        db, _, _ = loaded_db
        sql = nlq_call_sql("x", dims, group_by="i MOD 4")
        plan = db.explain_plan(sql)
        assert len(plan.scans) == 1
        assert len(plan.find("aggregate")) == 1
        assert len(plan.find("sort")) == 1  # ORDER BY grp, not a rescan

    def test_long_sql_route_is_also_one_scan_but_wider(self, loaded_db, dims):
        # The rival SQL route (1 + d + d² sum() terms) is one scan too —
        # its cost difference is per-term evaluation, not plan shape.
        from repro.core.sqlgen import NlqSqlGenerator

        db, _, _ = loaded_db
        sql = NlqSqlGenerator("x", dims).long_query_sql()
        plan = db.explain_plan(sql)
        assert len(plan.scans) == 1
        (aggregate,) = plan.find("aggregate")
        assert "[sum" in aggregate.detail


class TestScoringSingleScan:
    @pytest.fixture
    def scoring_db(self, loaded_db):
        db, _, _ = loaded_db
        db.execute(
            "CREATE TABLE beta (b0 FLOAT, b1 FLOAT, b2 FLOAT, "
            "b3 FLOAT, b4 FLOAT);"
            "INSERT INTO beta VALUES (1.0, 0.1, 0.2, 0.3, 0.4)"
        )
        return db

    def test_scoring_udf_is_one_scan_of_x(self, scoring_db, dims):
        sql = ScoringSqlGenerator("x", dims).regression_udf_sql("beta")
        plan = scoring_db.explain_plan(sql)
        assert len(data_table_scans(plan)) == 1
        assert len(plan.find("subquery")) == 0
        # One cross join against the one-row BETA table is the whole
        # price of bringing the model to the data.
        joins = [n for n in plan.nodes() if n.operator == "cross join"]
        assert len(joins) == 1

    def test_scoring_expression_route_same_shape(self, scoring_db, dims):
        sql = ScoringSqlGenerator("x", dims).regression_expression_sql("beta")
        plan = scoring_db.explain_plan(sql)
        assert len(data_table_scans(plan)) == 1
        assert len(plan.find("subquery")) == 0


class TestMultiScanContrast:
    def test_self_join_is_two_scans(self, loaded_db):
        # Sanity check that the scan counter can fail: a self-join
        # genuinely reads X twice.
        db, _, _ = loaded_db
        plan = db.explain_plan(
            "SELECT sum(a.x1 * b.x2) FROM x a JOIN x b ON a.i = b.i"
        )
        assert len(plan.scans) == 2
        assert len(data_table_scans(plan)) == 2

    def test_derived_table_adds_a_spool(self, loaded_db):
        db, _, _ = loaded_db
        plan = db.explain_plan(
            "SELECT sum(q.v) FROM (SELECT t.x1 AS v FROM x t) q"
        )
        assert len(plan.find("subquery")) == 1


class TestBenchHarnessPlanShape:
    def test_plan_shape_helper(self):
        data = scaled_dataset(1000, d=4, physical_rows=64)
        shape = plan_shape(
            data, nlq_call_sql(data.table, data.dimensions)
        )
        assert isinstance(shape, PlanShape)
        assert shape.single_scan
        assert shape.scans == 1
        assert shape.aggregates == 1
        assert shape.joins == 0
        assert shape.subqueries == 0

    def test_plan_shape_charges_no_simulated_time(self):
        data = scaled_dataset(1000, d=2, physical_rows=64)
        before = data.db.simulated_time
        plan_shape(data, nlq_call_sql(data.table, data.dimensions))
        assert data.db.simulated_time == before

    def test_multimodel_batch_is_one_cheaper_scan(self):
        """``build_all_models``' four summary statements — three
        identical base summaries and regression's augmented one — ride
        one scan, pass the plan-shape gate against a single statement,
        answer exactly as serially, and cost at most 1/1.9 of the serial
        simulated seconds (the duplicates are folded, the scan paid
        once)."""
        data = scaled_dataset(2000, d=4, with_y=True, physical_rows=64)
        dims = data.dimensions
        statements = [nlq_call_sql(data.table, dims)] * 3 + [
            nlq_call_sql(data.table, ["1.0", *dims, "y"])
        ]
        batch = batch_plan_shape(data, statements)
        assert batch.single_scan
        assert plan_shape_gate(plan_shape(data, statements[0]), batch) is None
        serial = [data.db.execute(sql) for sql in statements]
        batched = data.db.execute_batch(statements)
        assert [r.rows for r in batched] == [r.rows for r in serial]
        assert batched[0].metrics.statements_batched == 4
        assert batched[0].metrics.scans_saved == 3
        serial_seconds = sum(r.simulated_seconds for r in serial)
        assert serial_seconds >= 1.9 * batched[0].simulated_seconds
