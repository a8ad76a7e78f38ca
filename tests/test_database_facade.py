"""The Database facade: loading, clock control, misc surface."""

import inspect
import tempfile

import numpy as np
import pytest

from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema
from repro.errors import CatalogError, SchemaError


class TestLoading:
    def test_load_columns_charges_insert_cost(self, db: Database):
        db.create_table("x", dataset_schema(2))
        before = db.simulated_time
        db.load_columns(
            "x", {"i": np.arange(5), "x1": np.zeros(5), "x2": np.ones(5)}
        )
        assert db.simulated_time > before

    def test_load_columns_unknown_table(self, db: Database):
        with pytest.raises(CatalogError):
            db.load_columns("ghost", {"i": np.arange(3)})

    def test_load_columns_schema_mismatch(self, db: Database):
        db.create_table("x", dataset_schema(2))
        with pytest.raises(SchemaError):
            db.load_columns("x", {"i": np.arange(3)})

    def test_insert_rows_returns_count(self, db: Database):
        db.create_table("x", dataset_schema(1))
        assert db.insert_rows("x", [(1, 0.5), (2, 1.5)]) == 2


class TestClock:
    def test_simulated_time_accumulates_across_statements(self, db: Database):
        db.execute("CREATE TABLE t (v FLOAT)")
        first = db.simulated_time
        db.execute("SELECT count(*) FROM t")
        assert db.simulated_time > first

    def test_reset_clock(self, db: Database):
        db.execute("CREATE TABLE t (v FLOAT)")
        db.reset_clock()
        assert db.simulated_time == 0.0

    def test_query_result_seconds_are_per_call(self, db: Database):
        db.execute("CREATE TABLE t (v FLOAT)")
        db.execute("INSERT INTO t VALUES (1.0)")
        first = db.execute("SELECT sum(v) FROM t")
        second = db.execute("SELECT sum(v) FROM t")
        # Deterministic: the same statement always costs the same (to
        # the last ulp of the running clock's float subtraction).
        assert first.simulated_seconds == pytest.approx(
            second.simulated_seconds, rel=1e-12
        )


class TestConstruction:
    def test_amps_propagate_to_cost_and_partitions(self):
        db = Database(amps=7)
        assert db.cost.params.amps == 7
        db.create_table("t", dataset_schema(1))
        assert db.table("t").partition_count == 7

    def test_custom_cost_parameters(self):
        from repro.dbms.cost import CostParameters

        params = CostParameters(scan_row=1.0)
        db = Database(amps=2, cost_parameters=params)
        assert db.cost.params.scan_row == 1.0
        assert db.cost.params.amps == 2  # amps arg wins

    def test_constructor_options_are_pinned(self):
        # A new knob has to be added here, in plain view.
        assert list(inspect.signature(Database).parameters) == [
            "amps",
            "cost_parameters",
            "executor_workers",
            "vectorized_select",
            "faults",
            "task_timeout_seconds",
            "task_retries",
        ]

    def test_a_plain_database_creates_no_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with Database(amps=2) as db:
            db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, x FLOAT, y FLOAT)")
            db.insert_rows("t", [(i, float(i), -float(i)) for i in range(50)])
            # More column selections than a partition caches.
            evictions = sum(
                db.execute(f"SELECT sum({a}), sum({b} * 2.0) FROM t")
                .metrics.cache_evictions
                for a in ("x", "y", "i")
                for b in ("x", "y", "i")
            )
            assert evictions > 0
        assert list(tmp_path.iterdir()) == []

    def test_drop_table_facade(self, db: Database):
        db.create_table("t", dataset_schema(1))
        db.drop_table("t")
        assert not db.catalog.has_table("t")
        db.drop_table("t", if_exists=True)
