"""The statement cache: ``Database.execute`` / ``execute_batch`` parse a
SELECT-only text once.

What must hold: a hit returns what the miss returned; nothing bound is
cached, so the same text gives the right *new* answer after the catalog
or a toggle changed under it; DML, DDL and failing texts never enter;
the cache is bounded; executions never write to the shared AST; eight
threads can share one database; and a durable database logs exactly
what it logged before the cache existed.
"""

from __future__ import annotations

import copy
import sys
import threading

import numpy as np
import pytest

import repro.dbms.database as database_module
from repro.core.nlq_udf import register_nlq_udfs
from repro.dbms import open_durable
from repro.dbms.database import STATEMENT_CACHE_CAPACITY, Database
from repro.dbms.schema import dataset_schema, dimension_names
from repro.dbms.sql.parser import parse_statements
from repro.dbms.udf import ScalarUdf
from repro.errors import DatabaseError, SqlSyntaxError


def _load(db: Database, d: int, n: int = 120, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.normal(10.0, 3.0, size=(n, d))
    db.create_table("x", dataset_schema(d))
    columns = {"i": np.arange(1, n + 1)}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = X[:, index]
    db.load_columns("x", columns)
    return X


@pytest.fixture
def db():
    with Database(amps=4) as database:
        _load(database, 3)
        register_nlq_udfs(database)
        yield database


@pytest.fixture
def parses(monkeypatch):
    """Texts the database handed to the parser, in order."""
    seen: list[str] = []

    def counting(sql):
        seen.append(sql)
        return parse_statements(sql)

    monkeypatch.setattr(database_module, "parse_statements", counting)
    return seen


NLQ = "SELECT nlq_tri(3, x1, x2, x3) FROM x"


class TestHits:
    def test_second_run_hits_and_equals_the_first(self, db, parses):
        first = db.execute(NLQ)
        second = db.execute(NLQ)
        assert parses == [NLQ]
        assert first.metrics.statement_cache_hits == 0
        assert second.metrics.statement_cache_hits == 1
        assert second.rows == first.rows and second.columns == first.columns
        # the clock's running total rounds differently, nothing more
        assert second.simulated_seconds == pytest.approx(
            first.simulated_seconds, rel=1e-12
        )

    def test_the_text_is_the_key(self, db, parses):
        db.execute(NLQ)
        assert db.execute(NLQ + " ").metrics.statement_cache_hits == 0
        assert db.execute(NLQ.lower()).metrics.statement_cache_hits == 0
        assert len(parses) == 3

    def test_script_of_selects_is_one_entry(self, db, parses):
        script = "SELECT count(*) FROM x; SELECT sum(x1) FROM x"
        first = db.execute(script)
        second = db.execute(script)
        assert parses == [script]
        assert second.rows == first.rows
        assert second.metrics.statement_cache_hits == 1

    def test_explain_analyze_shows_both_counters(self, db):
        text = "EXPLAIN ANALYZE " + NLQ
        cold = db.execute(text).column("plan")[-1]
        warm = db.execute(text).column("plan")[-1]
        assert cold == "statement cache hits: 0, null scans: 4"
        assert warm == "statement cache hits: 1, null scans: 0"

    def test_uncached_entry_points_still_parse(self, db, monkeypatch):
        """``explain``/``explain_plan``/``explain_batch`` and the parser
        functions are pure: the benchmark times the parser through
        them."""
        db.execute(NLQ)
        calls = []
        import repro.dbms.sql.parser as parser_module

        original = parser_module.parse_statements
        monkeypatch.setattr(
            parser_module,
            "parse_statements",
            lambda sql: calls.append(sql) or original(sql),
        )
        db.explain_plan(NLQ)
        db.explain_batch([NLQ, "SELECT count(*) FROM x"])
        assert calls == [NLQ, NLQ, "SELECT count(*) FROM x"]


class TestNothingBoundIsCached:
    def test_drop_and_create_at_another_width(self, db):
        sql = "SELECT nlq_diag(2, x1, x2) FROM x"
        before = db.execute(sql).scalar()
        assert db.execute(sql).scalar() == before
        db.drop_table("x")
        wide = _load(db, 5, n=64, seed=11)
        after = db.execute(sql)
        assert after.metrics.statement_cache_hits == 1
        with Database(amps=4) as fresh:
            _load(fresh, 5, n=64, seed=11)
            register_nlq_udfs(fresh)
            assert after.scalar() == fresh.execute(sql).scalar()
        assert after.scalar() != before
        assert after.scalar().startswith("2;0;64.0;")
        assert wide.shape == (64, 5)

    def test_reregistered_udf_under_the_same_name(self, db):
        class Scale(ScalarUdf):
            def __init__(self, factor):
                super().__init__("scale")
                self.factor = factor

            def compute(self, value):
                return None if value is None else value * self.factor

        sql = "SELECT scale(x1) FROM x ORDER BY i LIMIT 3"
        db.register_udf(Scale(2.0))
        doubled = db.execute(sql).rows
        # The catalog has no unregister; a session that replaces a UDF
        # (a retrained scorer) drops the old binding like this.
        del db.catalog._scalar_udfs["scale"]
        db.register_udf(Scale(-1.0))
        negated = db.execute(sql)
        assert negated.metrics.statement_cache_hits == 1
        assert [row[0] for row in negated.rows] == [
            -value / 2.0 for (value,) in doubled
        ]

    def test_vectorized_select_toggle(self, db):
        sql = "SELECT i, x1 * 2.0 FROM x WHERE x2 > 10 ORDER BY i"
        block = db.execute(sql)
        assert block.metrics.parallel_tasks > 0  # block-wise projection
        db.vectorized_select = False
        row = db.execute(sql)
        assert row.metrics.statement_cache_hits == 1
        assert row.metrics.parallel_tasks == 0  # reference row path
        assert row.rows == block.rows

    def test_view_redefinition(self, db):
        db.execute("CREATE VIEW v AS SELECT x1 AS a FROM x WHERE i <= 10")
        sql = "SELECT count(*) FROM v"
        assert db.execute(sql).scalar() == 10
        db.execute("CREATE OR REPLACE VIEW v AS SELECT x1 AS a FROM x WHERE i <= 7")
        again = db.execute(sql)
        assert again.metrics.statement_cache_hits == 1
        assert again.scalar() == 7


class TestWhatNeverEnters:
    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO x VALUES (1000, 1.0, 2.0, 3.0)",
            "UPDATE x SET x1 = x1 + 1 WHERE i = 1",
            "DELETE FROM x WHERE i = 2",
            "CREATE TABLE t2 (a INTEGER PRIMARY KEY)",
            "CREATE VIEW v2 AS SELECT x1 FROM x",
            "INSERT INTO x SELECT i + 5000, x1, x2, x3 FROM x WHERE i = 3",
            "SELECT count(*) FROM x; DELETE FROM x WHERE i = 4",
        ],
    )
    def test_dml_and_ddl(self, db, sql):
        size = len(db._statements)
        result = db.execute(sql)
        assert result.metrics.statement_cache_hits == 0
        assert len(db._statements) == size and sql not in db._statements

    def test_failing_texts(self, db, parses):
        failing = [
            "SELEC 1",  # does not parse
            "SELECT nope FROM x",  # does not bind
            "SELECT sum(x1) FROM missing",  # no such table
            "SELECT x1 / 0 FROM x",  # raises while running
            "",  # empty script
        ]
        for sql in failing:
            for _ in range(2):
                with pytest.raises((DatabaseError, ValueError)):
                    db.execute(sql)
            assert sql not in db._statements
        assert len(db._statements) == 0
        assert parses == [sql for sql in failing for _ in range(2)]

    def test_a_text_that_failed_may_enter_once_it_runs(self, db):
        sql = "SELECT count(*) FROM later"
        with pytest.raises(DatabaseError):
            db.execute(sql)
        assert sql not in db._statements
        db.execute("CREATE TABLE later (a INTEGER PRIMARY KEY)")
        assert db.execute(sql).scalar() == 0
        assert sql in db._statements


class TestBounded:
    def test_capacity_holds_and_lru_goes_first(self, db, parses):
        keep = "SELECT count(*) FROM x WHERE i > 0"
        db.execute(keep)
        for k in range(STATEMENT_CACHE_CAPACITY + 40):
            db.execute(f"SELECT count(*) FROM x WHERE i > {k + 1}")
            if k % 16 == 0:
                db.execute(keep)  # stays recent
            assert len(db._statements) <= STATEMENT_CACHE_CAPACITY
        assert len(db._statements) == STATEMENT_CACHE_CAPACITY
        assert keep in db._statements
        assert "SELECT count(*) FROM x WHERE i > 1" not in db._statements
        assert parses.count(keep) == 1

    def test_each_database_has_its_own(self, db):
        db.execute(NLQ)
        with Database(amps=2) as other:
            assert len(other._statements) == 0


def _holds_no_list(node) -> bool:
    """No AST field anywhere under *node* is a list (tuples cannot be
    appended to; a list field could be)."""
    if isinstance(node, list):
        return False
    if isinstance(node, tuple):
        return all(_holds_no_list(item) for item in node)
    if hasattr(node, "__dataclass_fields__"):
        return all(
            _holds_no_list(getattr(node, name))
            for name in node.__dataclass_fields__
        )
    return True


class TestSharedAstIsNeverWritten:
    TEXTS = [
        NLQ,
        "SELECT i % 4 AS g, nlq_diag(3, x1, x2, x3), count(*) FROM x "
        "GROUP BY i % 4 HAVING count(*) > 1 ORDER BY g DESC LIMIT 3",
        "SELECT a.i, b.x1 + a.x2 FROM x a JOIN x b ON a.i = b.i "
        "WHERE a.x1 > 9 AND b.i IN (1, 2, 3, 50) ORDER BY 1",
        "SELECT CASE WHEN x1 > 10 THEN 1 ELSE 0 END AS hi, sum(x2) FROM x "
        "WHERE x3 IS NOT NULL GROUP BY CASE WHEN x1 > 10 THEN 1 ELSE 0 END",
        "SELECT s.m FROM (SELECT max(x1) AS m FROM x) s",
        "SELECT count(DISTINCT i % 3), -max(x1) FROM x",
        "EXPLAIN ANALYZE SELECT sum(x1) FROM x WHERE x2 > 0",
    ]

    @pytest.mark.parametrize("sql", TEXTS)
    def test_ast_deep_equal_after_100_executions(self, db, sql):
        first = db.execute(sql)
        cached = db._statements.get(sql)
        assert cached is not None and _holds_no_list(cached)
        snapshot = copy.deepcopy(cached)
        for round_ in range(100):
            if round_ == 50:
                db.executor_workers = 3
            result = db.execute(sql)
            assert result.metrics.statement_cache_hits == 1
        assert db._statements.get(sql) is cached
        assert cached == snapshot == tuple(parse_statements(sql))
        if not sql.startswith("EXPLAIN"):
            assert result.rows == first.rows

    def test_batch_and_single_share_entries(self, db, parses):
        batch = [
            "SELECT nlq_diag(3, x1, x2, x3) FROM x",
            "SELECT sum(x1), count(*) FROM x",
            "SELECT nlq_diag(3, x1, x2, x3) FROM x",
        ]
        first = db.execute_batch(batch)
        assert db._executor.last_batch_decision.consolidated
        assert first[0].metrics.statement_cache_hits == 0
        second = db.execute_batch(batch)
        assert second[0].metrics.statement_cache_hits == 3
        assert [r.rows for r in second] == [r.rows for r in first]
        assert db.execute(batch[1]).metrics.statement_cache_hits == 1
        assert parses == batch[:2]


class TestRefusedBatch:
    REFUSED = [
        "SELECT sum(x1) FROM x",
        "SELECT count(*) FROM y",  # another table: the rewrite refuses
        "SELECT sum(x1) FROM x",
    ]

    def test_parses_each_distinct_text_once(self, db, parses):
        db.execute("CREATE TABLE y (a INTEGER PRIMARY KEY)")
        parses.clear()
        results = db.execute_batch(self.REFUSED)
        assert not db._executor.last_batch_decision.consolidated
        assert parses == self.REFUSED[:2]
        assert results[0].rows == results[2].rows == db.execute(self.REFUSED[0]).rows
        assert results[1].scalar() == 0
        parses.clear()
        again = db.execute_batch(self.REFUSED)
        assert parses == []
        assert [r.metrics.statement_cache_hits for r in again] == [1, 1, 1]

    def test_rejections_are_unchanged(self, db):
        with pytest.raises(ValueError, match="statement 2 is Insert"):
            db.execute_batch(
                ["SELECT 1 FROM x", "INSERT INTO x VALUES (9, 1.0, 1.0, 1.0)"]
            )
        with pytest.raises(SqlSyntaxError, match="exactly one statement, found 2"):
            db.execute_batch(["SELECT 1 FROM x; SELECT 2 FROM x"])
        with pytest.raises(ValueError, match="empty statement batch"):
            db.execute_batch([])
        assert db.table("x").row_count == 120


class TestEightThreads:
    def test_one_database_shared(self, db):
        texts = [f"SELECT sum(x1 + {k}), count(*) FROM x" for k in range(12)]
        expected = {sql: db.execute(sql).rows for sql in texts}
        db._statements = type(db._statements)()  # start cold again
        errors: list[BaseException] = []
        start = threading.Barrier(8)

        def client(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                start.wait(timeout=30)
                for _ in range(150):
                    sql = texts[int(rng.integers(len(texts)))]
                    assert db.execute(sql).rows == expected[sql]
                    assert len(db._statements) <= STATEMENT_CACHE_CAPACITY
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(s,)) for s in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(db._statements._entries) == sorted(texts)
        for sql in texts:
            assert db._statements.get(sql) == tuple(parse_statements(sql))


class TestDurableLogIsUnchanged:
    #: every text runs twice: the second run of a SELECT is a cache hit
    SCRIPT = [
        "CREATE TABLE ev (id INTEGER PRIMARY KEY, a FLOAT, tag VARCHAR)",
        "INSERT INTO ev VALUES (1, 1.5, 'a'), (2, NULL, 'b'), (3, 3.25, 'c')",
        "SELECT sum(a), count(*) FROM ev",
        "INSERT INTO ev VALUES (4, 4.0, 'd')",
        "SELECT sum(a), count(*) FROM ev",
        "UPDATE ev SET a = a + 1 WHERE id < 3",
        "SELECT sum(a), count(*) FROM ev; DELETE FROM ev WHERE id = 3; "
        "SELECT count(*) FROM ev",
        "SELECT sum(a), count(*) FROM ev",
    ]

    def test_wal_records_and_bytes(self, tmp_path):
        db = open_durable(tmp_path / "d", fsync_mode="off", amps=4)
        try:
            failed = 0
            for sql in self.SCRIPT:
                for _ in range(2):
                    try:
                        last = db.execute(sql)
                    except DatabaseError:
                        failed += 1
            # Read off the parent commit (no statement cache) for this
            # very script: three repeats fail, seven records are logged.
            assert failed == 3
            assert last.rows == [(7.5, 3)]
            assert last.metrics.statement_cache_hits == 1
            assert db.durability.wal_records == 7
            assert db.durability.wal_bytes == 1273
        finally:
            db.close()
        reopened = open_durable(tmp_path / "d", amps=4)
        try:
            assert reopened.execute(self.SCRIPT[-1]).rows == [(7.5, 3)]
        finally:
            reopened.close()
