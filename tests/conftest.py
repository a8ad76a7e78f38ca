"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.nlq_udf import register_nlq_udfs
from repro.core.scoring.udfs import register_scoring_udfs
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema, dimension_names

# Tier-1 is the same on every run: hypothesis derives each test's
# examples from the test itself, not from a random seed or a local
# example database.  Random exploration is the non-blocking
# ``hypothesis-explore`` CI job (HYPOTHESIS_PROFILE=explore).
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def db() -> Database:
    """A small-parallelism database (4 AMPs keeps partitions non-trivial
    without hiding per-partition bugs behind a single chunk)."""
    return Database(amps=4)


@pytest.fixture
def loaded_db(db: Database) -> tuple[Database, np.ndarray, np.ndarray]:
    """A database with table ``x(i, x1..x4, y)`` holding 200 seeded rows.

    Returns (db, X matrix, y vector); the nLQ and scoring UDFs are
    registered.
    """
    rng = np.random.default_rng(7)
    n, d = 200, 4
    X = rng.normal(50.0, 10.0, size=(n, d))
    y = 2.0 + X @ np.asarray([1.0, -2.0, 0.5, 3.0]) + rng.normal(0, 0.1, n)
    db.create_table("x", dataset_schema(d, with_y=True))
    columns = {"i": np.arange(1, n + 1), "y": y}
    for index, name in enumerate(dimension_names(d)):
        columns[name] = X[:, index]
    db.load_columns("x", columns)
    register_nlq_udfs(db)
    register_scoring_udfs(db)
    return db, X, y


# Every SELECT these modules issue is run twice — with the row scan
# reading only the lanes the statement references, and against
# full-width rows — and must return identical rows.
_PRUNING_PARITY_MODULES = {
    "test_executor_select",
    "test_executor_aggregate",
    "test_left_join",
    "test_update",
    "test_sql_fuzz",
}


@pytest.fixture(autouse=True)
def _row_scan_pruning_parity(request, monkeypatch):
    if request.module.__name__.rpartition(".")[2] not in _PRUNING_PARITY_MODULES:
        return
    from repro.dbms.sql import executor

    pruned_execute = Database.execute

    def execute(self, sql, *args, **kwargs):
        result = pruned_execute(self, sql, *args, **kwargs)
        if sql.lstrip().upper().startswith("SELECT"):
            with monkeypatch.context() as patch:
                patch.setattr(
                    executor, "_referenced_lanes", lambda select, columns: None
                )
                full_width = pruned_execute(self, sql, *args, **kwargs)
            assert repr(result.rows) == repr(full_width.rows), sql
        return result

    monkeypatch.setattr(Database, "execute", execute)
