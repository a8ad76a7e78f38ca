"""Layer probes: small fixed measurements of single public functions.

The probes run once, in their own phase of a traced run, on data of
their own (fixed seed, fixed size), so a layer's cost can be read apart
from the workload that happens to exercise it.  Every probe calls only
public names of ``repro``.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from repro import Database
from repro.core.models.correlation import CorrelationModel
from repro.core.models.kmeans import KMeansModel
from repro.core.models.pca import PCAModel
from repro.core.models.regression import LinearRegressionModel
from repro.core.nlq_udf import NlqListUdf
from repro.core.scoring.udfs import (
    ClassifyScoreUdf,
    ClusterScoreUdf,
    FaScoreUdf,
    KMeansDistanceUdf,
    LinearRegScoreUdf,
    NaiveBayesScoreUdf,
)
from repro.core.summary import AugmentedSummary, MatrixType, SummaryStatistics
from repro.dbms import open_durable
from repro.dbms.engine import PartitionEngine
from repro.dbms.metrics import DurabilityMetrics
from repro.dbms.persistence import restore_database_into, save_database
from repro.dbms.schema import dataset_schema
from repro.dbms.wal import WriteAheadLog, encode_record

PROBE_ROWS = 20_000
D = 8


def best_seconds(call: Callable[[], object], repeats: int = 5) -> float:
    """Median seconds of *call* over *repeats* runs."""
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - t0)
    return median(seconds)


def _table(db: Database, X: np.ndarray) -> None:
    db.create_table("p", dataset_schema(X.shape[1]))
    columns = {"i": np.arange(1, len(X) + 1)}
    for a in range(X.shape[1]):
        columns[f"x{a + 1}"] = X[:, a]
    db.load_columns("p", columns)


def probe_storage(X: np.ndarray) -> "dict[str, float]":
    """List → float-block materialization on never-seen column sets."""
    with Database(amps=16) as db:
        _table(db, X)
        table = db.table("p")
        column_sets = [[f"x{a + 1}", f"x{a + 2}", f"x{a + 3}"] for a in range(5)]
        seconds = []
        for columns in column_sets:
            t0 = time.perf_counter()
            table.numeric_matrix(columns)
            seconds.append(time.perf_counter() - t0)
    return {
        "storage.materialize_ms_per_mrow": 1e3 * median(seconds)
        / (len(X) / 1e6)
    }


def probe_engine() -> "dict[str, float]":
    """Dispatch cost of a no-op task on a two-thread engine."""
    engine = PartitionEngine(2)
    tasks = [lambda: None] * 16
    try:
        engine.map(tasks)
        seconds = best_seconds(lambda: engine.map(tasks), repeats=50)
    finally:
        engine.close()
    return {"engine.task_overhead_us": 1e6 * seconds / len(tasks)}


def probe_nlq(X: np.ndarray) -> "dict[str, float]":
    udf = NlqListUdf("nlq_tri", MatrixType.TRIANGULAR)
    block = np.column_stack([np.full(len(X), float(X.shape[1])), X])

    def accumulate():
        return udf.accumulate_block(udf.initialize(), block)

    total, partial = accumulate(), accumulate()
    return {
        "core.nlq_udf.accumulate_ns_per_row": 1e9 * best_seconds(accumulate)
        / len(X),
        "core.nlq_udf.merge_us": 1e6
        * best_seconds(lambda: udf.merge(total, partial), repeats=50),
    }


def probe_models(X: np.ndarray, y: np.ndarray) -> "dict[str, float]":
    stats = SummaryStatistics.from_matrix(X)
    augmented = AugmentedSummary.from_xy(X, y)

    def build():
        CorrelationModel.from_summary(stats)
        PCAModel.from_summary(stats, 3)
        LinearRegressionModel.from_summary(augmented)

    return {"core.models.from_summary_ms": 1e3 * best_seconds(build) / 3}


def probe_scoring(X: np.ndarray) -> "dict[str, float]":
    rows, d = X.shape
    k = 4
    per_udf = {
        LinearRegScoreUdf(): np.column_stack([X, np.ones((rows, d + 1))]),
        FaScoreUdf(): np.column_stack([X, np.ones((rows, 2 * d))]),
        KMeansDistanceUdf(): np.column_stack([X, np.ones((rows, d))]),
        ClusterScoreUdf(): X[:, :k].copy(),
        ClassifyScoreUdf(): X[:, :k].copy(),
        NaiveBayesScoreUdf(): np.column_stack([X, np.ones((rows, 2 * d + 1))]),
    }
    return {
        f"core.scoring.compute_batch_ns_per_row.{udf.name}": 1e9
        * best_seconds(lambda: udf.compute_batch(args))
        / rows
        for udf, args in per_udf.items()
    }


def probe_serving(X: np.ndarray) -> "dict[str, float]":
    model = KMeansModel.fit_matrix(X, 4, seed=1)
    with Database(amps=16) as db:
        _table(db, X)
        server = db.serve()
        register = best_seconds(
            lambda: server.registry.register("probe", model), repeats=3
        )
        lookup = best_seconds(lambda: server.registry.get("probe"), repeats=20)

        def pin():
            with server.session() as session:
                session.snapshot("p")

        pin_seconds = best_seconds(pin, repeats=20)
    return {
        "serving.registry.register_ms": 1e3 * register,
        "serving.registry.lookup_us": 1e6 * lookup,
        "serving.snapshot.pin_us": 1e6 * pin_seconds,
    }


def probe_wal(scratch: Path) -> "dict[str, float]":
    rows = [[j, float(j), float(j) / 3.0, -float(j), f"t{j % 97}"]
            for j in range(500)]
    ops = [{"op": "insert", "name": "ev", "rows": rows}]
    encode = best_seconds(lambda: encode_record(1, ops), repeats=20)
    log = WriteAheadLog(scratch / "probe-wal.log", DurabilityMetrics())
    try:
        append = best_seconds(lambda: log.append(ops), repeats=20)

        def append_and_sync():
            log.append(ops)
            log.sync()

        fsync = best_seconds(append_and_sync, repeats=10) - append
    finally:
        log.close()
    # Replay: a directory whose WAL holds `records` committed batches.
    home = scratch / "probe-replay"
    records = 40
    db = open_durable(home, amps=8)
    db.execute(
        "CREATE TABLE ev (id INTEGER PRIMARY KEY, a FLOAT, b FLOAT, "
        "c FLOAT, tag VARCHAR)"
    )
    for batch in range(records):
        db.insert_rows(
            "ev", [(batch * 500 + r[0], *r[1:]) for r in rows]
        )
    db.close()
    t0 = time.perf_counter()
    recovered = open_durable(home, amps=8)
    replay = time.perf_counter() - t0
    replayed = recovered.durability.recovery_replayed_records
    recovered.close()
    return {
        "wal.encode_us_per_record": 1e6 * encode,
        "wal.append_us_per_record": 1e6 * append,
        "wal.fsync_ms": 1e3 * max(fsync, 0.0),
        "wal.replay_ms_per_record": 1e3 * replay / replayed,
    }


def probe_persistence(X: np.ndarray, scratch: Path) -> "dict[str, float]":
    home = scratch / "probe-save"
    with Database(amps=16) as db:
        _table(db, X)
        save_database(db, home)
    with Database(amps=16) as empty:
        t0 = time.perf_counter()
        restore_database_into(empty, home)
        restore = time.perf_counter() - t0
    return {
        "persistence.restore_ms_per_mrow": 1e3 * restore / (len(X) / 1e6)
    }


def run_all(scratch: Path) -> "dict[str, float]":
    rng = np.random.default_rng(20070612)
    X = rng.normal(50.0, 15.0, size=(PROBE_ROWS, D))
    y = X @ rng.normal(size=D) + rng.normal(size=PROBE_ROWS)
    metrics: "dict[str, float]" = {}
    metrics.update(probe_storage(X))
    metrics.update(probe_engine())
    metrics.update(probe_nlq(X))
    metrics.update(probe_models(X, y))
    metrics.update(probe_scoring(X))
    metrics.update(probe_serving(X))
    metrics.update(probe_wal(scratch))
    metrics.update(probe_persistence(X, scratch))
    return metrics
