"""EXPLAIN [ANALYZE]: parsing, plan trees, span tracing, reconciliation.

The contract under test (docs/observability.md):

* plain ``EXPLAIN`` is purely analytical — renders the optimized plan
  with cost estimates, executes nothing, charges nothing;
* ``EXPLAIN ANALYZE`` executes the optimized statement under span
  tracing and the per-operator span sums reconcile with the
  ``QueryMetrics`` stage totals *exactly* (same floats, same summation
  order), at any worker count;
* when EXPLAIN is not requested, the null tracer allocates no span
  objects on the hot path.
"""

from __future__ import annotations

import pytest

from repro.dbms.database import Database
from repro.dbms.metrics import QueryMetrics, StageTimer
from repro.dbms.sql import ast
from repro.dbms.sql.parser import parse_statement
from repro.dbms.sql.plan import Plan, PlanNode
from repro.dbms.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.errors import PlanningError, SqlSyntaxError


NLQ_SQL = "SELECT nlq_tri(4, t.x1, t.x2, t.x3, t.x4) FROM x t"


# ------------------------------------------------------------------ parsing
class TestParsing:
    def test_explain_select(self):
        statement = parse_statement("EXPLAIN SELECT 1")
        assert isinstance(statement, ast.Explain)
        assert not statement.analyze
        assert isinstance(statement.statement, ast.Select)

    def test_explain_analyze_select(self):
        statement = parse_statement("EXPLAIN ANALYZE SELECT 1")
        assert isinstance(statement, ast.Explain)
        assert statement.analyze

    def test_nested_explain_rejected(self):
        with pytest.raises(SqlSyntaxError, match="cannot nest EXPLAIN"):
            parse_statement("EXPLAIN EXPLAIN SELECT 1")

    def test_explain_non_select_parses_but_does_not_execute(self, db):
        statement = parse_statement("EXPLAIN DROP TABLE x")
        assert isinstance(statement.statement, ast.DropTable)
        with pytest.raises(PlanningError):
            db.execute("EXPLAIN DROP TABLE nothing")


# ------------------------------------------------------------ plain EXPLAIN
class TestExplainPlain:
    def test_returns_plan_rows_and_structured_plan(self, loaded_db):
        db, _, _ = loaded_db
        result = db.execute("EXPLAIN " + NLQ_SQL)
        assert result.columns == ["plan"]
        assert result.rows[0][0] == "EXPLAIN"
        assert isinstance(result.plan, Plan)
        assert not result.plan.analyze
        assert result.plan.trace is None

    def test_charges_nothing_and_executes_nothing(self, loaded_db):
        db, _, _ = loaded_db
        before = db.simulated_time
        result = db.execute("EXPLAIN " + NLQ_SQL)
        assert db.simulated_time == before
        assert result.metrics.rows_processed == 0

    def test_plan_tree_shape(self, loaded_db):
        db, _, _ = loaded_db
        plan = db.explain_plan(NLQ_SQL)
        assert [node.operator for node in plan.nodes()] == [
            "project",
            "aggregate",
            "scan",
        ]
        assert plan.estimated_seconds > 0
        assert all(
            isinstance(node, PlanNode) and node.estimated_seconds >= 0
            for node in plan.nodes()
        )

    def test_partition_fanout_note(self, loaded_db):
        db, _, _ = loaded_db
        (aggregate,) = db.explain_plan(NLQ_SQL).find("aggregate")
        assert any("fan-out" in note for note in aggregate.notes)
        assert any("single-scan" in note for note in aggregate.notes)

    def test_estimate_sums_over_operators(self, loaded_db):
        db, _, _ = loaded_db
        plan = db.explain_plan(NLQ_SQL)
        assert plan.estimated_seconds == sum(
            node.estimated_seconds for node in plan.nodes()
        )

    def test_optimizer_decisions_in_notes(self, loaded_db):
        db, _, _ = loaded_db
        db.execute(
            "CREATE TABLE beta (j INTEGER PRIMARY KEY, b FLOAT);"
            "INSERT INTO beta VALUES (0, 1.5)"
        )
        plan = db.explain_plan(
            "SELECT t.i FROM x t CROSS JOIN beta b"
        )
        assert any("join eliminated: b" in note for note in plan.root.notes)
        # The eliminated join is gone from the operator tree itself.
        assert len(plan.scans) == 1

    def test_explain_text_api_unchanged(self, loaded_db):
        db, _, _ = loaded_db
        text = db.explain("SELECT sum(t.x1) FROM x t WHERE t.x2 > 0")
        assert "EXPLAIN" in text
        assert "aggregate: [sum]" in text
        assert "filter:" in text
        assert "estimated simulated seconds" in text


# --------------------------------------------------------- EXPLAIN ANALYZE
def assert_reconciles(result) -> None:
    """Span sums must equal stage totals exactly — not approximately."""
    metrics = result.metrics
    trace = result.plan.trace
    assert trace is not None
    assert trace.total_seconds("scan") == metrics.scan_seconds
    assert trace.total_seconds("accumulate") == metrics.accumulate_seconds
    assert trace.total_seconds("merge") == metrics.merge_seconds
    assert trace.total_seconds("finalize") == metrics.finalize_seconds


class TestExplainAnalyze:
    def test_executes_and_charges(self, loaded_db):
        db, _, _ = loaded_db
        before = db.simulated_time
        result = db.execute("EXPLAIN ANALYZE " + NLQ_SQL)
        assert db.simulated_time > before
        assert result.metrics.rows_processed == 200
        assert result.rows[0][0] == "EXPLAIN ANALYZE"
        assert any("(actual" in row[0] for row in result.rows)

    def test_reconciles_vectorized_aggregate(self, loaded_db):
        db, _, _ = loaded_db
        assert_reconciles(db.execute("EXPLAIN ANALYZE " + NLQ_SQL))

    def test_reconciles_row_partitioned_aggregate(self, loaded_db):
        # A WHERE clause disables the vector path -> partitioned row path.
        db, _, _ = loaded_db
        result = db.execute(
            "EXPLAIN ANALYZE SELECT sum(t.x1) FROM x t WHERE t.x2 > 0"
        )
        assert_reconciles(result)
        (aggregate,) = result.plan.find("aggregate")
        assert aggregate.span.attributes["strategy"] == "row-partitioned"

    def test_reconciles_group_by(self, loaded_db):
        db, _, _ = loaded_db
        assert_reconciles(
            db.execute(
                "EXPLAIN ANALYZE SELECT i MOD 4, sum(x1) FROM x "
                "GROUP BY i MOD 4"
            )
        )

    def test_reconciles_serial_aggregate_over_join(self, loaded_db):
        # This PK self-join is factorizable; force the materializing
        # route — the serial join path is what this test pins down
        # (the factorized route has its own reconciliation test in
        # tests/test_factorized.py).
        db, _, _ = loaded_db
        db.factorized_joins_enabled = False
        try:
            result = db.execute(
                "EXPLAIN ANALYZE SELECT sum(a.x1 * b.x2) FROM x a "
                "JOIN x b ON a.i = b.i"
            )
        finally:
            db.factorized_joins_enabled = True
        assert_reconciles(result)
        (aggregate,) = result.plan.find("aggregate")
        assert aggregate.span.attributes["strategy"] == "row-serial"

    def test_reconciles_projection(self, loaded_db):
        db, _, _ = loaded_db
        assert_reconciles(
            db.execute("EXPLAIN ANALYZE SELECT t.i, t.x1 FROM x t")
        )

    def test_reconciles_with_three_workers(self, loaded_db):
        db, _, _ = loaded_db
        db.executor_workers = 3
        try:
            result = db.execute("EXPLAIN ANALYZE " + NLQ_SQL)
        finally:
            db.executor_workers = 1
        assert result.metrics.workers == 3
        assert_reconciles(result)

    def test_task_spans_carry_partition_details(self, loaded_db):
        db, _, _ = loaded_db
        result = db.execute("EXPLAIN ANALYZE " + NLQ_SQL)
        tasks = result.plan.trace.find("task")
        assert len(tasks) == result.metrics.partitions_processed
        assert [task.attributes["partition"] for task in tasks] == sorted(
            task.attributes["partition"] for task in tasks
        )
        assert sum(task.attributes["rows"] for task in tasks) == 200
        for task in tasks:
            assert {child.name for child in task.children} == {
                "scan",
                "accumulate",
            }

    def test_block_cache_visible_across_runs(self, loaded_db):
        db, _, _ = loaded_db
        first = db.execute("EXPLAIN ANALYZE " + NLQ_SQL)
        second = db.execute("EXPLAIN ANALYZE " + NLQ_SQL)
        assert all(
            not task.attributes["cached_block"]
            for task in first.plan.trace.find("task")
        )
        assert all(
            task.attributes["cached_block"]
            for task in second.plan.trace.find("task")
        )

    def test_analyze_matches_plain_execution_results(self, loaded_db):
        db, _, _ = loaded_db
        direct = db.execute(NLQ_SQL).scalar()
        db.execute("EXPLAIN ANALYZE " + NLQ_SQL)
        again = db.execute(NLQ_SQL).scalar()
        assert direct == again

    def test_db_explain_analyze_text(self, loaded_db):
        db, _, _ = loaded_db
        text = db.explain(NLQ_SQL, analyze=True)
        assert text.startswith("EXPLAIN ANALYZE")
        assert "actual wall-clock seconds" in text


# ------------------------------------------------------- null-tracer hot path
class TestNullTracerOverhead:
    def test_executor_defaults_to_null_tracer(self, loaded_db):
        db, _, _ = loaded_db
        assert db._executor.tracer is NULL_TRACER
        db.execute(NLQ_SQL)
        assert db._executor.tracer is NULL_TRACER

    def test_null_tracer_restored_after_analyze(self, loaded_db):
        db, _, _ = loaded_db
        db.execute("EXPLAIN ANALYZE " + NLQ_SQL)
        assert db._executor.tracer is NULL_TRACER

    def test_null_span_context_is_shared(self):
        tracer = NullTracer()
        assert tracer.span("scan") is tracer.span("merge")
        assert tracer.span("x") is NULL_TRACER.span("y")
        with tracer.span("anything") as span:
            assert span is None

    def test_no_span_objects_allocated_without_explain(
        self, loaded_db, monkeypatch
    ):
        db, _, _ = loaded_db
        allocations = 0
        original = Span.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal allocations
            allocations += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting_init)
        db.execute(NLQ_SQL)
        db.execute("SELECT t.i, t.x1 FROM x t WHERE t.x2 > 0")
        db.execute("SELECT i MOD 4, sum(x1) FROM x GROUP BY i MOD 4")
        assert allocations == 0


# -------------------------------------------------------------- span objects
class TestSpan:
    def test_walk_and_find(self):
        root = Span("a", children=[Span("b", children=[Span("c")]), Span("c")])
        assert [span.name for span in root.walk()] == ["a", "b", "c", "c"]
        assert len(root.find("c")) == 2

    def test_total_seconds_sums_in_tree_order(self):
        root = Span(
            "root",
            children=[Span("scan", seconds=0.1), Span("scan", seconds=0.2)],
        )
        assert root.total_seconds("scan") == 0.1 + 0.2

    def test_render(self):
        root = Span("scan", seconds=0.00125, attributes={"rows": 7})
        (line,) = root.render()
        assert line == "scan: 1.250 ms rows=7"

    def test_tracer_nests_spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                inner.attributes["rows"] = 1
        (outer,) = tracer.root.children
        assert outer.name == "outer"
        assert [child.name for child in outer.children] == ["inner"]
        assert outer.seconds > 0

    def test_tracer_attach_preserves_order(self):
        tracer = Tracer()
        spans = [Span("task"), Span("task")]
        with tracer.span("aggregate"):
            tracer.attach(spans)
        (aggregate,) = tracer.root.children
        assert aggregate.children == spans


# ------------------------------------------------------------- QueryMetrics
class TestQueryMetrics:
    def test_to_dict_from_dict_round_trip(self):
        metrics = QueryMetrics(
            workers=3,
            total_seconds=0.5,
            scan_seconds=0.1,
            accumulate_seconds=0.2,
            merge_seconds=0.05,
            finalize_seconds=0.01,
            rows_processed=100,
            partitions_processed=4,
            parallel_tasks=4,
            groups=2,
        )
        assert QueryMetrics.from_dict(metrics.to_dict()) == metrics

    def test_as_dict_alias(self):
        metrics = QueryMetrics(workers=2)
        assert metrics.as_dict() == metrics.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown QueryMetrics fields"):
            QueryMetrics.from_dict({"workers": 1, "bogus": 2})

    def test_from_dict_defaults_missing_keys(self):
        metrics = QueryMetrics.from_dict({"workers": 5})
        assert metrics.workers == 5
        assert metrics.total_seconds == 0.0

    def test_repr_is_readable(self):
        text = repr(QueryMetrics(workers=2, rows_processed=10))
        assert text.startswith("QueryMetrics(workers=2")
        assert "rows=10" in text
        assert "scan=" in text and "merge=" in text

    def test_stage_timer_syncs_identical_float_to_span(self):
        metrics = QueryMetrics()
        span = Span("merge")
        with StageTimer(metrics, "merge", span):
            pass
        assert span.seconds == metrics.merge_seconds
        assert span.seconds > 0
