"""UPDATE statement semantics."""

import pytest

from repro.dbms.database import Database
from repro.dbms.sql import ast
from repro.dbms.sql.parser import parse_statement
from repro.errors import ConstraintViolation, PlanningError, SqlSyntaxError


@pytest.fixture
def accounts(db: Database) -> Database:
    db.execute(
        "CREATE TABLE accounts (i INTEGER PRIMARY KEY, balance FLOAT, "
        "status VARCHAR)"
    )
    db.execute(
        "INSERT INTO accounts VALUES "
        "(1, 100.0, 'open'), (2, -50.0, 'open'), (3, 0.0, 'closed')"
    )
    return db


class TestParsing:
    def test_basic(self):
        statement = parse_statement("UPDATE t SET a = 1 WHERE b > 2")
        assert isinstance(statement, ast.Update)
        assert statement.assignments[0][0] == "a"
        assert statement.where is not None

    def test_multiple_assignments(self):
        statement = parse_statement("UPDATE t SET a = 1, b = a + 1")
        assert len(statement.assignments) == 2

    def test_missing_set_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("UPDATE t a = 1")

    def test_missing_equals_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("UPDATE t SET a 1")


class TestExecution:
    def test_update_all_rows(self, accounts):
        accounts.execute("UPDATE accounts SET balance = balance * 2")
        assert sorted(
            accounts.execute("SELECT balance FROM accounts").column("balance")
        ) == [-100.0, 0.0, 200.0]

    def test_update_of_an_empty_table(self, accounts):
        # It raised IndexError: an empty table transposed to no columns.
        accounts.execute("DELETE FROM accounts")
        accounts.execute("UPDATE accounts SET balance = 0.0 WHERE i > 1")
        assert accounts.execute("SELECT count(*) FROM accounts").scalar() == 0

    def test_update_with_where(self, accounts):
        accounts.execute(
            "UPDATE accounts SET status = 'frozen' WHERE balance < 0"
        )
        result = accounts.execute(
            "SELECT i FROM accounts WHERE status = 'frozen'"
        )
        assert result.column("i") == [2]

    def test_assignments_see_old_values(self, accounts):
        """SET a = b, b = a must swap, not cascade."""
        accounts.execute("CREATE TABLE p (i INTEGER PRIMARY KEY, a FLOAT, b FLOAT)")
        accounts.execute("INSERT INTO p VALUES (1, 1.0, 2.0)")
        accounts.execute("UPDATE p SET a = b, b = a")
        assert accounts.execute("SELECT a, b FROM p").rows == [(2.0, 1.0)]

    def test_update_with_scalar_udf(self, accounts):
        from repro.dbms.udf import scalar_udf

        accounts.register_udf(
            scalar_udf("clampzero", lambda v: max(v, 0.0), arity=1)
        )
        accounts.execute("UPDATE accounts SET balance = clampzero(balance)")
        assert min(
            accounts.execute("SELECT balance FROM accounts").column("balance")
        ) == 0.0

    def test_null_predicate_leaves_row(self, accounts):
        accounts.execute("INSERT INTO accounts VALUES (4, NULL, 'open')")
        accounts.execute("UPDATE accounts SET status = 'x' WHERE balance > 0")
        status = accounts.execute(
            "SELECT status FROM accounts WHERE i = 4"
        ).scalar()
        assert status == "open"

    def test_unknown_column_rejected(self, accounts):
        with pytest.raises(PlanningError):
            accounts.execute("UPDATE accounts SET nope = 1")

    def test_type_coercion_on_update(self, accounts):
        accounts.execute("UPDATE accounts SET balance = 7 WHERE i = 1")
        value = accounts.execute(
            "SELECT balance FROM accounts WHERE i = 1"
        ).scalar()
        assert value == 7.0 and isinstance(value, float)

    def test_pk_update_collision_rejected(self, accounts):
        with pytest.raises(ConstraintViolation):
            accounts.execute("UPDATE accounts SET i = 1 WHERE i = 2")

    def test_update_charges_time(self, accounts):
        accounts.reset_clock()
        accounts.execute("UPDATE accounts SET balance = 0.0")
        assert accounts.simulated_time > 0

    def test_paper_workflow_reassign_clusters(self, accounts):
        """The incremental K-means pattern the paper cites: store the
        nearest-centroid subscript back into the data table."""
        accounts.execute(
            "UPDATE accounts SET status = CASE WHEN balance >= 0 "
            "THEN 'cluster1' ELSE 'cluster2' END"
        )
        counts = accounts.execute(
            "SELECT status, count(*) FROM accounts GROUP BY status ORDER BY status"
        )
        assert counts.rows == [("cluster1", 2), ("cluster2", 1)]
