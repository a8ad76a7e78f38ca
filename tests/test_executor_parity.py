"""Executor parity: serial, thread-pool and spilled-block answers match.

Every partial is produced by the same deterministic per-partition fold
over the same stored values, and partials merge strictly in partition
order, so three executions must agree **bit for bit** — not
approximately — on every workload class the paper's pipeline
exercises: row-path and vectorized aggregation, vectorized scoring
projections, fused clustering iterations, and factorized fact-table
folds.  The three are the serial engine, a thread pool, and a thread
pool whose block cache has a one-byte budget, so every float block is
evicted to a spill file and the next scan reads it back as a read-only
mmap (each spilled workload runs twice: once building the blocks, once
reading them back).

A chaos regime over spilled blocks then replays the fault-injection
contract while the blocks come back from disk: typed errors with
partition attribution, bounded retries healing flaky tasks, timeouts
draining every task, and full reusability afterwards.
"""

import time

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.models.kmeans import KMeansModel
from repro.core.nlq_udf import compute_nlq_udf, register_nlq_udfs
from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.core.scoring.udfs import register_scoring_udfs
from repro.dbms.database import Database
from repro.dbms.faults import FaultPlan, FaultSpec
from repro.dbms.schema import (
    Column,
    TableSchema,
    dataset_schema,
    dimension_names,
)
from repro.dbms.types import SqlType
from repro.errors import PartitionExecutionError, ReproError

D = 2
N_ROWS = 96
KINDS = ("serial", "thread", "spill")
#: a block-cache byte budget below any block: every build spills
SPILL_BUDGET = 1

_SETTINGS = dict(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_GEN = ScoringSqlGenerator("x", ["x1", "x2"])

AGG_ROW = (
    "SELECT i MOD 3, sum(x1), sum(y), count(*) FROM x "
    "WHERE i >= 1 GROUP BY i MOD 3 ORDER BY 1"
)
AGG_VECTOR = "SELECT sum(x1), sum(x2), count(*) FROM x"
SCORING = _GEN.regression_inline_sql(2.0, [1.0, -2.0])


def _columns(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(50.0, 10.0, size=(N_ROWS, D))
    y = 2.0 + X @ np.asarray([1.0, -2.0]) + rng.normal(0, 0.1, N_ROWS)
    columns = {"i": np.arange(1, N_ROWS + 1), "y": y}
    for index, name in enumerate(dimension_names(D)):
        columns[name] = X[:, index]
    return columns


def _options(kind, workers):
    """serial = one worker (inline); thread = a pool; spill = a pool
    over blocks that live in spill files."""
    options = {"amps": 4, "executor_workers": 1 if kind == "serial" else workers}
    if kind == "spill":
        options["block_cache_bytes"] = SPILL_BUDGET
    return options


def _db(columns, kind, workers=4):
    db = Database(**_options(kind, workers))
    db.create_table("x", dataset_schema(D, with_y=True))
    db.load_columns("x", columns)
    register_nlq_udfs(db)
    register_scoring_udfs(db)
    return db


def _each_kind(columns, workers, run):
    """Run *run* under every kind and return the results; the spilled
    run repeats and must match its own first pass."""
    out = {}
    for kind in KINDS:
        with _db(columns, kind, workers) as db:
            out[kind] = run(db)
            if kind == "spill":
                assert repr(run(db)) == repr(out[kind])
    return out


# ----------------------------------------------------------- bit parity
class TestExecutorParity:
    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_row_path_aggregate(self, seed, workers):
        results = _each_kind(
            _columns(seed), workers, lambda db: db.execute(AGG_ROW).rows
        )
        assert results["thread"] == results["serial"]
        assert results["spill"] == results["serial"]

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_vectorized_aggregate(self, seed, workers):
        def run(db):
            result = db.execute(AGG_VECTOR)
            assert result.metrics.fallbacks == 0
            return result.rows

        results = _each_kind(_columns(seed), workers, run)
        assert results["thread"] == results["serial"]
        assert results["spill"] == results["serial"]

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_vectorized_scoring(self, seed, workers):
        results = _each_kind(
            _columns(seed), workers, lambda db: db.execute(SCORING).rows
        )
        assert results["thread"] == results["serial"]
        assert results["spill"] == results["serial"]

    @given(seed=st.integers(0, 2**16), workers=st.sampled_from([2, 4]))
    @settings(**_SETTINGS)
    def test_fused_clustering(self, seed, workers):
        def fit(db):
            model = KMeansModel.fit_dbms(
                db, "x", dimension_names(D), 3, seed=0
            )
            return model.centroids, model.radii, model.weights

        results = _each_kind(_columns(seed), workers, fit)
        for kind in ("thread", "spill"):
            for got, want in zip(results[kind], results["serial"]):
                assert np.array_equal(got, want)

    @given(
        seed=st.integers(0, 2**16),
        workers=st.sampled_from([2, 4]),
        null_fk_every=st.sampled_from([0, 7]),
    )
    @settings(**_SETTINGS)
    def test_factorized_star_fold(self, seed, workers, null_fk_every):
        def build(kind):
            rng = np.random.default_rng(seed)
            n_fact, n_dim = 120, 8
            db = Database(**_options(kind, workers))
            db.create_table(
                "stores",
                TableSchema.build(
                    [
                        Column("sid", SqlType.INTEGER, nullable=False),
                        ("sx", SqlType.FLOAT),
                        ("sy", SqlType.FLOAT),
                    ],
                    primary_key="sid",
                ),
            )
            db.create_table(
                "sales",
                TableSchema.build(
                    [
                        Column("oid", SqlType.INTEGER, nullable=False),
                        Column("sid", SqlType.INTEGER),
                        ("amount", SqlType.FLOAT),
                    ],
                    primary_key="oid",
                ),
            )
            db.load_columns(
                "stores",
                {
                    "sid": np.arange(1, n_dim + 1),
                    "sx": rng.normal(0, 5, n_dim),
                    "sy": rng.normal(10, 2, n_dim),
                },
            )
            sid = rng.integers(1, n_dim + 1, n_fact).astype(object)
            for i in range(n_fact):
                if null_fk_every and i % null_fk_every == 0:
                    sid[i] = None
            db.table("sales").insert_many(
                [
                    (i + 1, sid[i], float(rng.normal(100, 20)))
                    for i in range(n_fact)
                ]
            )
            register_nlq_udfs(db)
            return db

        results = {}
        for kind in KINDS:
            with build(kind) as db:
                stats = compute_nlq_udf(
                    db,
                    "sales JOIN stores ON sales.sid = stores.sid",
                    ["sales.amount", "stores.sx", "stores.sy"],
                )
                assert db.last_factorize_decision.factorized
                results[kind] = (stats.n, stats.L, stats.Q)
        for kind in ("thread", "spill"):
            assert results[kind][0] == results["serial"][0]
            assert np.array_equal(results[kind][1], results["serial"][1])
            assert np.array_equal(results[kind][2], results["serial"][2])


# ------------------------------------------------ chaos over spilled blocks
_CHAOS_SITES = [
    "partition.scan",
    "block.materialize",
    "udf.compute_batch",
    "engine.task",
]


def _chaos_specs():
    return st.lists(
        st.builds(
            FaultSpec,
            site=st.sampled_from(_CHAOS_SITES),
            kind=st.sampled_from(["error", "delay", "flaky"]),
            delay_seconds=st.sampled_from([0.0, 0.01, 0.25]),
            times=st.sampled_from([None, 1, 2]),
            partition=st.sampled_from([None, 0, 1, 3]),
        ),
        min_size=1,
        max_size=2,
    )


class TestSpilledChaos:
    @given(
        specs=_chaos_specs(),
        retries=st.sampled_from([0, 2]),
        timeout=st.sampled_from([None, 0.1]),
    )
    # Pinned regimes: fatal task error, flaky healed by retries,
    # degradation (block path dies), and delay-past-timeout.
    @example(
        specs=[FaultSpec("engine.task", partition=1)],
        retries=0,
        timeout=None,
    )
    @example(
        specs=[FaultSpec("engine.task", kind="flaky", times=1)],
        retries=2,
        timeout=None,
    )
    @example(
        specs=[FaultSpec("block.materialize")], retries=0, timeout=None
    )
    @example(
        specs=[FaultSpec("engine.task", kind="delay", delay_seconds=0.25)],
        retries=0,
        timeout=0.1,
    )
    @settings(**_SETTINGS)
    def test_spilled_query_chaos(self, specs, retries, timeout):
        columns = _columns(77)
        with _db(columns, "thread") as db:
            vectorized = db.execute(AGG_VECTOR).rows
            db.vectorized_select = False
            db.faults = FaultPlan().fail("block.materialize")
            row = db.execute(AGG_VECTOR).rows
        db = _db(columns, "spill")
        try:
            # Build and spill every block, so the faulted run reads
            # them back from disk.
            assert db.execute(AGG_VECTOR).metrics.blocks_spilled > 0
            db.faults = FaultPlan(specs, seed=7)
            db.task_retries = retries
            db.task_timeout_seconds = timeout
            try:
                result = db.execute(AGG_VECTOR)
            except ReproError as error:
                if isinstance(error, PartitionExecutionError):
                    assert error.partitions
                    assert error.first_error is not None
            else:
                assert result.rows == vectorized or result.rows == row
            engine = db._executor.engine
            deadline = time.perf_counter() + 10.0
            while engine.active_tasks and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert engine.active_tasks == 0
            # Reusable after any outcome, still serving spilled blocks.
            db.faults = None
            db.task_timeout_seconds = None
            again = db.execute(AGG_VECTOR)
            assert again.rows == vectorized
            assert again.metrics.block_cache_misses == 0
        finally:
            db.close()
