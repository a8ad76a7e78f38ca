"""Aggregation execution: grand totals, GROUP BY, HAVING, DISTINCT, and
row-path vs vector-path equivalence."""

import numpy as np
import pytest

from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema
from repro.errors import PlanningError, TypeMismatchError


@pytest.fixture
def sales(db: Database) -> Database:
    db.execute(
        "CREATE TABLE sales (id INTEGER PRIMARY KEY, region VARCHAR, "
        "amount FLOAT, qty INTEGER)"
    )
    db.execute(
        "INSERT INTO sales VALUES "
        "(1, 'east', 10.0, 1), (2, 'east', 20.0, 2), (3, 'west', 30.0, 3), "
        "(4, 'west', 5.0, 1), (5, 'north', NULL, 2)"
    )
    return db


class TestGrandAggregates:
    def test_sum_count_avg(self, sales):
        result = sales.execute(
            "SELECT sum(amount), count(amount), count(*), avg(amount) FROM sales"
        )
        assert result.rows == [(65.0, 4, 5, 16.25)]

    def test_min_max(self, sales):
        assert sales.execute("SELECT min(amount), max(amount) FROM sales").rows \
            == [(5.0, 30.0)]

    def test_empty_table_yields_one_row(self, db):
        db.execute("CREATE TABLE t (v FLOAT)")
        result = db.execute("SELECT sum(v), count(*), min(v) FROM t")
        assert result.rows == [(None, 0, None)]

    def test_aggregate_with_where(self, sales):
        result = sales.execute("SELECT sum(amount) FROM sales WHERE qty > 1")
        assert result.scalar() == 50.0

    @pytest.mark.parametrize(
        "name",
        ["sum", "avg", "var_pop", "var_samp", "stddev_pop", "stddev_samp",
         "corr", "regr_slope", "regr_intercept"],
    )
    @pytest.mark.parametrize(
        "tail", ["", " WHERE i > 0", " GROUP BY i", " WHERE i > 1 GROUP BY i"]
    )
    def test_sum_and_avg_of_text_raise(self, db, name, tail):
        # Unchecked, sum concatenated ('1.5' + '2'), avg raised a bare
        # TypeError from float + str, and the moment aggregates parsed
        # the text (var_pop gave 0.0625, corr(s, s) 1.0).
        db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, s VARCHAR)")
        db.execute("INSERT INTO t VALUES (1, '1.5'), (2, '2')")
        two = name in ("corr", "regr_slope", "regr_intercept")
        arguments = "s, s" if two else "s"
        with pytest.raises(TypeMismatchError, match=f"{name} needs numeric"):
            db.execute(f"SELECT {name}({arguments}) FROM t{tail}")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT corr(amount) FROM sales",
            "SELECT corr(amount) FROM sales WHERE qty > 1",
            "SELECT var_pop(amount, qty) FROM sales",
            "SELECT count(id, qty) FROM sales",
            "SELECT sum(amount, qty) FROM sales",
            "SELECT region, sum(amount, qty) FROM sales GROUP BY region",
        ],
    )
    def test_builtin_arity_is_checked_at_bind_time(self, sales, sql):
        # Unchecked, corr(a) raised a bare IndexError and the one-argument
        # aggregates ignored their extra arguments.
        with pytest.raises(PlanningError, match="expects .* arguments, got"):
            sales.execute(sql)

    def test_sum_and_avg_of_a_text_free_column_still_add(self, sales):
        assert sales.execute(
            "SELECT sum(qty), avg(qty), sum(DISTINCT qty) FROM sales"
        ).rows == [(9, 1.8, 6)]

    def test_expression_inside_aggregate(self, sales):
        result = sales.execute("SELECT sum(amount * qty) FROM sales")
        assert result.scalar() == 10.0 + 40.0 + 90.0 + 5.0

    def test_expression_over_aggregates(self, sales):
        result = sales.execute(
            "SELECT sum(amount) / count(amount), max(amount) - min(amount) FROM sales"
        )
        assert result.rows == [(16.25, 25.0)]

    def test_nested_aggregate_rejected(self, sales):
        with pytest.raises(PlanningError, match="nested"):
            sales.execute("SELECT sum(max(amount)) FROM sales")

    def test_distinct_count(self, sales):
        assert sales.execute("SELECT count(DISTINCT region) FROM sales").scalar() == 3

    def test_distinct_sum(self, sales):
        sales.execute("INSERT INTO sales VALUES (6, 'east', 10.0, 9)")
        assert sales.execute("SELECT sum(DISTINCT amount) FROM sales").scalar() == 65.0

    def test_corr_aggregate_in_sql(self, sales):
        measured = sales.execute("SELECT corr(amount, qty) FROM sales").scalar()
        amounts = [10.0, 20.0, 30.0, 5.0]
        qtys = [1, 2, 3, 1]
        assert measured == pytest.approx(np.corrcoef(amounts, qtys)[0, 1])


class TestGroupBy:
    def test_group_by_column(self, sales):
        result = sales.execute(
            "SELECT region, sum(amount), count(*) FROM sales "
            "GROUP BY region ORDER BY region"
        )
        assert result.rows == [
            ("east", 30.0, 2), ("north", None, 1), ("west", 35.0, 2),
        ]

    def test_group_by_expression(self, sales):
        result = sales.execute(
            "SELECT qty MOD 2, count(*) FROM sales GROUP BY qty MOD 2 ORDER BY 1"
        )
        assert result.rows == [(0, 2), (1, 3)]

    def test_group_key_reused_in_expression(self, sales):
        result = sales.execute(
            "SELECT region, region, sum(qty) FROM sales "
            "GROUP BY region ORDER BY region LIMIT 1"
        )
        assert result.rows == [("east", "east", 3)]

    def test_having(self, sales):
        result = sales.execute(
            "SELECT region, sum(amount) AS total FROM sales GROUP BY region "
            "HAVING sum(amount) > 30 ORDER BY region"
        )
        assert result.rows == [("west", 35.0)]

    def test_having_without_group_rejected(self, sales):
        with pytest.raises(PlanningError, match="HAVING"):
            sales.execute("SELECT id FROM sales HAVING id > 1")

    def test_ungrouped_column_rejected(self, sales):
        with pytest.raises(PlanningError, match="GROUP BY"):
            sales.execute("SELECT id, sum(amount) FROM sales GROUP BY region")

    def test_group_by_without_aggregates(self, sales):
        result = sales.execute(
            "SELECT region FROM sales GROUP BY region ORDER BY region"
        )
        assert result.column("region") == ["east", "north", "west"]

    def test_group_by_multiple_keys(self, sales):
        result = sales.execute(
            "SELECT region, qty MOD 2, count(*) FROM sales "
            "GROUP BY region, qty MOD 2 ORDER BY region, 2"
        )
        assert ("east", 0, 1) in result.rows and ("east", 1, 1) in result.rows

    def test_group_by_null_key(self, sales):
        sales.execute("INSERT INTO sales VALUES (7, NULL, 1.0, 1)")
        result = sales.execute(
            "SELECT region, count(*) FROM sales GROUP BY region"
        )
        keys = [row[0] for row in result.rows]
        assert None in keys


class TestOrderByWithAggregates:
    def test_order_by_selected_aggregate_alias(self, sales):
        result = sales.execute(
            "SELECT region, sum(amount) AS total FROM sales "
            "GROUP BY region ORDER BY total DESC"
        )
        totals = [row[1] for row in result.rows if row[1] is not None]
        assert totals == sorted(totals, reverse=True)

    def test_order_by_unselected_aggregate(self, sales):
        """ORDER BY an aggregate expression that is not in the select
        list — resolved through the aggregation rewrite."""
        result = sales.execute(
            "SELECT region FROM sales GROUP BY region ORDER BY count(*) DESC, region"
        )
        assert result.column("region")[0] in ("east", "west")

    def test_order_by_aggregate_expression(self, sales):
        result = sales.execute(
            "SELECT region, sum(qty) FROM sales GROUP BY region "
            "ORDER BY sum(qty) * -1"
        )
        quantities = [row[1] for row in result.rows]
        assert quantities == sorted(quantities, reverse=True)

    def test_order_by_invalid_column_in_aggregate_query(self, sales):
        with pytest.raises(PlanningError):
            sales.execute(
                "SELECT region, sum(qty) FROM sales GROUP BY region "
                "ORDER BY amount"
            )

    def test_limit_after_aggregate_order(self, sales):
        result = sales.execute(
            "SELECT region, sum(qty) FROM sales GROUP BY region "
            "ORDER BY 2 DESC LIMIT 1"
        )
        assert len(result.rows) == 1
        assert result.rows[0][0] == "west"


class TestVectorRowEquivalence:
    """The vectorized aggregation fast path must match per-row results."""

    def _make(self, amps: int) -> Database:
        database = Database(amps=amps)
        rng = np.random.default_rng(3)
        n = 300
        database.create_table("x", dataset_schema(3))
        database.load_columns(
            "x",
            {
                "i": np.arange(1, n + 1),
                "x1": rng.normal(10, 3, n),
                "x2": rng.uniform(-1, 1, n),
                "x3": rng.normal(0, 1, n),
            },
        )
        return database

    def test_grand_totals_match(self):
        # The vector path triggers on the plain scan; adding a WHERE
        # clause forces the row path. Both must agree.
        database = self._make(amps=4)
        sql_fast = "SELECT sum(x1), sum(x1 * x2), min(x3), max(x3), count(*) FROM x"
        sql_slow = sql_fast + " WHERE 1 = 1"
        fast = database.execute(sql_fast).rows[0]
        slow = database.execute(sql_slow).rows[0]
        assert fast[:4] == pytest.approx(slow[:4])
        assert fast[4] == slow[4]

    def test_group_totals_match(self):
        database = self._make(amps=4)
        fast = database.execute(
            "SELECT i MOD 5, sum(x1), count(*) FROM x GROUP BY i MOD 5 ORDER BY 1"
        ).rows
        slow = database.execute(
            "SELECT i MOD 5, sum(x1), count(*) FROM x WHERE 1 = 1 "
            "GROUP BY i MOD 5 ORDER BY 1"
        ).rows
        for fast_row, slow_row in zip(fast, slow):
            assert fast_row[0] == slow_row[0]
            assert fast_row[1] == pytest.approx(slow_row[1])
            assert fast_row[2] == slow_row[2]

    def test_single_amp_matches_many(self):
        one = self._make(amps=1)
        many = self._make(amps=7)
        sql = "SELECT sum(x1 * x3), var_pop(x2) FROM x"
        row_one = one.execute(sql).rows[0]
        row_many = many.execute(sql).rows[0]
        assert row_one == pytest.approx(row_many)
