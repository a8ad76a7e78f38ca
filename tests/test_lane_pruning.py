"""Row scans read only the lanes a statement references.

The parity of every statement in the executor, join, UPDATE and fuzz
suites is checked by the ``_row_scan_pruning_parity`` fixture in
``conftest.py``; this file pins the analysis itself — which clauses
count as references — the ``PRUNED`` sentinel's refusal to be read,
and the ``lanes_read=k/width`` annotation under EXPLAIN ANALYZE.
"""

from __future__ import annotations

import operator

import pytest

from repro.dbms.database import Database
from repro.dbms.expressions import compile_row_expression
from repro.dbms.lanes import PRUNED
from repro.dbms.sql.executor import _base_scan
from repro.dbms.sql.parser import parse_statement
from repro.errors import ExecutionError


@pytest.fixture
def db():
    db = Database(amps=3)
    db.vectorized_select = False  # every SELECT below is a row scan
    db.execute(
        "CREATE TABLE t (i INTEGER PRIMARY KEY, a FLOAT, b FLOAT, c VARCHAR, "
        "d FLOAT)"
    )
    db.insert_rows(
        "t",
        [
            (i, float(i), None if i % 4 == 0 else float(10 - i), f"s{i % 3}", 0.5)
            for i in range(1, 13)
        ],
    )
    db.execute("CREATE TABLE u (k INTEGER PRIMARY KEY, label VARCHAR, w FLOAT)")
    db.insert_rows("u", [(k, f"u{k}", float(k) * 2) for k in range(1, 5)])
    yield db
    db.close()


def _lanes(db, sql, table="t", binding=None):
    """Names of the *table* columns a row scan of *sql* reads."""
    select = parse_statement(sql)
    relation = _base_scan(db.table(table), binding or table, select)
    names = db.table(table).schema.column_names
    if relation.lanes is None:
        return list(names)
    return [names[position] for position in relation.lanes]


class TestWhichClausesCount:
    def test_items_where_group_having_order(self, db):
        assert _lanes(db, "SELECT a FROM t") == ["a"]
        assert _lanes(db, "SELECT a FROM t WHERE b > 1") == ["a", "b"]
        assert _lanes(db, "SELECT a FROM t ORDER BY d") == ["a", "d"]
        assert _lanes(
            db, "SELECT c, sum(a) FROM t GROUP BY c HAVING max(b) > 1 ORDER BY min(d)"
        ) == ["a", "b", "c", "d"]
        assert _lanes(db, "SELECT count(*) FROM t") == []

    def test_star_reads_everything(self, db):
        assert len(_lanes(db, "SELECT * FROM t")) == 5
        assert len(_lanes(db, "SELECT t.* FROM t")) == 5

    def test_join_conditions_and_qualified_stars(self, db):
        sql = "SELECT u.*, x.a FROM t x JOIN u ON x.i = u.k WHERE x.b > 2"
        assert _lanes(db, sql, "t", "x") == ["i", "a", "b"]
        assert len(_lanes(db, sql, "u", "u")) == 3
        # An unqualified name counts for every source that has it.
        assert _lanes(db, "SELECT w FROM t, u WHERE i = k", "u") == ["k", "w"]


class TestPinnedStatements:
    def test_select_star(self, db):
        rows = db.execute("SELECT * FROM t WHERE i = 4").rows
        assert rows == [(4, 4.0, None, "s1", 0.5)]

    def test_order_by_unselected_column(self, db):
        rows = db.execute("SELECT i FROM t WHERE a < 5 ORDER BY b").rows
        assert rows == [(3,), (2,), (1,), (4,)]  # NULL b sorts last

    def test_having_on_unselected_aggregate(self, db):
        rows = db.execute(
            "SELECT c, count(*) FROM t GROUP BY c HAVING sum(b) > 10 ORDER BY c"
        ).rows
        assert rows == [("s0", 4), ("s1", 4), ("s2", 4)]

    def test_join_condition_across_both_sides(self, db):
        rows = db.execute(
            "SELECT t.c, u.label FROM t LEFT JOIN u ON t.i = u.k AND u.w > t.a "
            "WHERE t.i < 4 ORDER BY t.i"
        ).rows
        assert rows == [("s1", "u1"), ("s2", "u2"), ("s0", "u3")]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE copy (i INTEGER PRIMARY KEY, total FLOAT)")
        db.execute("INSERT INTO copy SELECT i, a + d FROM t WHERE b IS NOT NULL")
        assert db.table("copy").row_count == 9
        assert db.execute("SELECT total FROM copy WHERE i = 1").rows == [(1.5,)]

    def test_batch_row_statements_share_the_union_of_lanes(self, db):
        statements = [
            "SELECT count(DISTINCT a) FROM t",
            "SELECT min(c), sum(d) FROM t",
        ]
        batch = db.execute_batch(statements)
        assert [r.rows for r in batch] == [
            db.execute(sql).rows for sql in statements
        ]


class TestPrunedRefusesToBeRead:
    @pytest.mark.parametrize(
        "read",
        [
            lambda: PRUNED + 1,
            lambda: 1.0 * PRUNED,
            lambda: PRUNED < 1,
            lambda: PRUNED == PRUNED,
            lambda: bool(PRUNED),
            lambda: hash(PRUNED),
            lambda: float(PRUNED),
            lambda: str(PRUNED),
            lambda: sorted([PRUNED, PRUNED]),
            lambda: operator.neg(PRUNED),
        ],
    )
    def test_every_use_raises(self, read):
        with pytest.raises((TypeError, ExecutionError)):
            read()
        assert repr(PRUNED) == "PRUNED"

    def test_a_missed_reference_raises_in_the_evaluator(self, db):
        row = next(db.table("t").partitions[0].rows([0]))
        assert row[1] is PRUNED
        for text in ("a + 1", "a > 1", "a = 1", "-a", "a IN (1, 2)"):
            expression = parse_statement(f"SELECT {text} FROM t").items[0].expression
            fn = compile_row_expression(
                expression, lambda ref: 1, lambda name: None
            )
            with pytest.raises((ExecutionError, TypeError)):
                fn(row)


class TestLanesReadAnnotation:
    def test_projection_row_scan(self, db):
        plan = db.execute("EXPLAIN ANALYZE SELECT a FROM t WHERE b > 4 ORDER BY i")
        scan = plan.plan.trace.find("scan")[0]
        assert scan.attributes["lanes_read"] == "3/5"
        assert any("lanes_read=3/5" in line for (line,) in plan.rows)

    def test_partitioned_aggregate_row_scan(self, db):
        plan = db.execute("EXPLAIN ANALYZE SELECT sum(a) FROM t WHERE b > 4")
        scans = plan.plan.trace.find("scan")
        assert scans and all(
            span.attributes["lanes_read"] == "2/5" for span in scans
        )
        metrics = plan.metrics
        assert plan.plan.trace.total_seconds("scan") == metrics.scan_seconds

    def test_vector_path_scans_carry_no_annotation(self, db):
        plan = db.execute("EXPLAIN ANALYZE SELECT sum(a) FROM t")
        assert all(
            "lanes_read" not in span.attributes
            for span in plan.plan.trace.find("scan")
        )
