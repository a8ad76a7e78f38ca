"""One-scan fused clustering iterations and reused block partials.

Two properties hold this PR together:

* **Fused parity** — a fused ``kmeansiter`` iteration (assignment and
  per-cluster (N, L, Q) accumulation inside one scan) is **bit-identical**
  to the GROUP BY reference ``miner.kmeans(method="udf")`` at any
  worker count, because the fused kernel replays the scoring and GROUP
  BY arithmetic exactly.
* **Reused partials** — a cached partition block remembers the (n, L,
  Q) partial a summary UDF folded over it, so a warm repeat reuses one
  partial per non-empty partition; any mutation drops the blocks it
  stales, and with them their partials.  The fold unit stays the
  partition block, so answers are bitwise those of folding again, and
  these tests try to provoke a stale one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fused import (
    fused_call_sql,
    register_fused_udfs,
    unpack_fused_payload,
)
from repro.core.models.correlation import CorrelationModel
from repro.core.models.em_mixture import GaussianMixtureModel
from repro.core.models.kmeans import KMeansModel, _plus_plus_init
from repro.core.nlq_udf import compute_nlq_udf, nlq_call_sql, register_nlq_udfs
from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.database import Database
from repro.dbms.schema import dataset_schema, dimension_names
from repro.twm.miner import WarehouseMiner

D = 3
DIMS = dimension_names(D)

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _dataset(seed: int, n: int = 120) -> np.ndarray:
    """Clustered data so K-means iterations do real reassignment work."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 30.0, size=(4, D))
    return centers[rng.integers(0, 4, n)] + rng.normal(0.0, 3.0, (n, D))


def _make_db(X: np.ndarray, workers: int = 4) -> Database:
    db = Database(amps=4, executor_workers=workers)
    db.create_table("x", dataset_schema(D))
    columns = {"i": np.arange(1, X.shape[0] + 1)}
    for index, name in enumerate(DIMS):
        columns[name] = X[:, index]
    db.load_columns("x", columns)
    return db


# --------------------------------------------------------- K-means parity
class TestFusedKMeansParity:
    @pytest.mark.parametrize("workers", [1, 4])
    @given(seed=st.integers(0, 2**20), k=st.sampled_from([1, 2, 3, 5]))
    @settings(**_SETTINGS)
    def test_fused_matches_groupby_udf_bitwise(self, workers, seed, k):
        X = _dataset(seed)
        db = _make_db(X, workers=workers)
        try:
            miner = WarehouseMiner(db)
            fused = KMeansModel.fit_dbms(db, "x", DIMS, k, seed=seed)
            grouped = miner.kmeans("x", k, DIMS, seed=seed, method="udf")
            assert np.array_equal(fused.centroids, grouped.centroids)
            assert np.array_equal(fused.radii, grouped.radii)
            assert np.array_equal(fused.weights, grouped.weights)
            assert fused.iterations == grouped.iterations
            assert fused.inertia == grouped.inertia
        finally:
            db.close()

    def test_worker_count_invariant(self):
        """Partials merge in partition order, so the executor's worker
        count can never change a single bit of the model."""
        fits = []
        X = _dataset(7)
        for workers in (1, 4):
            db = _make_db(X, workers=workers)
            try:
                fits.append(KMeansModel.fit_dbms(db, "x", DIMS, 3, seed=7))
            finally:
                db.close()
        one, four = fits
        assert np.array_equal(one.centroids, four.centroids)
        assert np.array_equal(one.radii, four.radii)
        assert np.array_equal(one.weights, four.weights)

    @pytest.mark.parametrize("fit", [
        lambda db: KMeansModel.fit_dbms(db, "x", DIMS, 3, seed=3),
        lambda db: WarehouseMiner(db).kmeans("x", 3, seed=3),
    ], ids=["fit_dbms", "miner_default"])
    def test_single_fused_scan_per_iteration(self, fit):
        """The fused fit — also the miner's default — issues exactly one
        SELECT per iteration: the materialized assignment pass is gone."""
        X = _dataset(3)
        db = _make_db(X)
        try:
            statements = []
            original = db.execute

            def counting_execute(sql):
                statements.append(sql)
                return original(sql)

            db.execute = counting_execute
            model = fit(db)
            assert len(statements) == model.iterations
            assert all("kmeansiter" in sql for sql in statements)
        finally:
            db.close()

    def test_fused_payload_decodes_per_cluster_summaries(self):
        X = _dataset(4, n=60)
        db = _make_db(X)
        try:
            udf = register_fused_udfs(db)["kmeansiter"]
            centroids = X[:2].copy()
            udf.set_centroids(centroids)
            payload = db.execute(
                fused_call_sql("kmeansiter", "x", DIMS)
            ).scalar()
            groups, extra = unpack_fused_payload(payload)
            assert extra is None
            assert sum(stats.n for stats in groups.values()) == 60
            # The per-cluster summaries replay a plain assignment.
            labels = np.argmin(
                ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2),
                axis=1,
            ) + 1
            for j, stats in groups.items():
                assert stats.n == int((labels == j).sum())
        finally:
            db.close()


# ------------------------------------------------------------ EM parity
class TestFusedEm:
    def test_worker_count_deterministic(self):
        fits = []
        X = _dataset(11, n=90)
        for workers in (1, 4):
            db = _make_db(X, workers=workers)
            try:
                fits.append(
                    GaussianMixtureModel.fit_dbms(
                        db, "x", DIMS, 2, max_iterations=15, seed=3
                    )
                )
            finally:
                db.close()
        one, four = fits
        assert np.array_equal(one.means, four.means)
        assert np.array_equal(one.variances, four.variances)
        assert np.array_equal(one.weights, four.weights)
        assert one.log_likelihood == four.log_likelihood

    def test_matches_in_memory_fit(self):
        X = _dataset(12, n=90)
        db = _make_db(X)
        try:
            fused = GaussianMixtureModel.fit_dbms(
                db, "x", DIMS, 2, max_iterations=15, seed=3
            )
        finally:
            db.close()
        reference = GaussianMixtureModel.fit_matrix(
            X, 2, max_iterations=15, seed=3
        )
        assert fused.iterations == reference.iterations
        assert np.allclose(fused.means, reference.means)
        assert np.allclose(fused.variances, reference.variances)
        assert np.allclose(fused.weights, reference.weights)


# --------------------------------------------- k-means++ seeding regression
class TestSeedingRegression:
    """Pinned regression: k-means++ seeding must sample the *whole*
    dataset.  The old incremental fit seeded from only the first block,
    so partition-ordered data could never seed a late-arriving cluster.
    """

    def test_plus_plus_init_spans_the_dataset(self):
        near = np.zeros((256, 2))
        far = np.full((256, 2), 100.0)
        X = np.vstack([near, far])
        centroids = _plus_plus_init(X, 2, np.random.default_rng(0))
        # With D² weighting the second centroid *must* come from the
        # opposite cluster — unless sampling only saw the prefix.
        assert centroids[:, 0].min() < 50.0 < centroids[:, 0].max()

    def test_fit_incremental_seeds_past_the_first_block(self):
        rng = np.random.default_rng(0)
        near = rng.normal(0.0, 0.5, size=(256, 2))
        far = rng.normal(100.0, 0.5, size=(256, 2))
        X = np.vstack([near, far])
        model = KMeansModel.fit_incremental(X, 2, block_rows=256, seed=0)
        firsts = np.sort(model.centroids[:, 0])
        assert abs(firsts[0]) < 5.0
        assert abs(firsts[1] - 100.0) < 5.0
        assert np.all(model.weights > 0.25)


# ------------------------------------------------------ reused partials
def _partials(db: Database) -> int:
    return db._executor.last_metrics.partials_reused


class TestBlockPartials:
    @pytest.mark.parametrize("matrix_type", list(MatrixType))
    def test_warm_repeat_reuses_every_partition_bitwise(self, matrix_type):
        X = _dataset(5, n=100)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            cold = compute_nlq_udf(db, "x", DIMS, matrix_type)
            assert _partials(db) == 0
            warm = compute_nlq_udf(db, "x", DIMS, matrix_type)
            metrics = db._executor.last_metrics
            assert metrics.partials_reused == 4  # one per partition
            assert metrics.rows_scanned == 100  # the blocks are still read
            assert warm.n == cold.n
            assert np.array_equal(warm.L, cold.L)
            assert np.array_equal(warm.Q, cold.Q)
        finally:
            db.close()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_warm_model_build_identical(self, workers):
        """The second model build over the same columns reuses every
        partition's partial and produces the identical model."""
        X = _dataset(8, n=100)
        db = _make_db(X, workers=workers)
        try:
            register_nlq_udfs(db)
            cold = CorrelationModel.from_summary(
                compute_nlq_udf(db, "x", DIMS), list(DIMS)
            )
            warm = CorrelationModel.from_summary(
                compute_nlq_udf(db, "x", DIMS), list(DIMS)
            )
            assert _partials(db) == 4
            assert np.array_equal(warm.rho, cold.rho)
            assert warm.n == cold.n
        finally:
            db.close()

    def test_insert_refolds_exactly_the_touched_partitions(self):
        X = _dataset(6, n=100)
        appended = [(101, 1.0, 2.0, 3.0), (102, 4.0, 5.0, 6.0)]
        db, twin = _make_db(X), _make_db(X)
        try:
            register_nlq_udfs(db)
            register_nlq_udfs(twin)
            compute_nlq_udf(db, "x", DIMS)
            before = [p.row_count for p in db.table("x").partitions]
            db.insert_rows("x", appended)
            twin.insert_rows("x", appended)
            touched = sum(
                p.row_count != rows
                for p, rows in zip(db.table("x").partitions, before)
            )
            warm = compute_nlq_udf(db, "x", DIMS)
            assert _partials(db) == 4 - touched
            assert db._executor.last_metrics.rows_scanned == 102
            cold = compute_nlq_udf(twin, "x", DIMS)
            assert warm.n == cold.n == 102
            assert np.array_equal(warm.L, cold.L)
            assert np.array_equal(warm.Q, cold.Q)
            compute_nlq_udf(db, "x", DIMS)
            assert _partials(db) == 4
        finally:
            db.close()
            twin.close()

    def test_destructive_mutation_reuses_nothing(self):
        X = _dataset(9, n=100)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            compute_nlq_udf(db, "x", DIMS)
            db.execute("DELETE FROM x WHERE i <= 50")
            rebuilt = compute_nlq_udf(db, "x", DIMS)
            assert _partials(db) == 0
            assert rebuilt.n == 50
            assert rebuilt.allclose(SummaryStatistics.from_matrix(X[50:]))
        finally:
            db.close()

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT nlq_tri(3, x1 * 2.0, x2, x3) FROM x",  # computed lane
            "SELECT nlq_tri(3, x1, x2, NULL) FROM x",  # NULL literal
            "SELECT i % 3, nlq_tri(3, x1, x2, x3) FROM x GROUP BY i % 3",
            "SELECT sum(x1), var_pop(x2) FROM x",  # builtins
        ],
    )
    def test_other_folds_run_every_time(self, sql):
        X = _dataset(13, n=40)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            first = db.execute(sql).rows
            again = db.execute(sql)
            assert again.metrics.partials_reused == 0
            assert again.metrics.block_cache_hits == 4
            assert repr(again.rows) == repr(first)
        finally:
            db.close()

    def test_blocks_with_nulls_fold_every_time(self):
        """A block that fails the NULL pre-test keeps dropping its NULL
        rows per fold, so every warm fold still counts its NULL scan."""
        X = _dataset(16, n=40)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            db.insert_rows("x", [(41, None, 1.0, 2.0)])
            compute_nlq_udf(db, "x", DIMS)
            compute_nlq_udf(db, "x", DIMS)
            metrics = db._executor.last_metrics
            assert metrics.partials_reused == 3
            assert metrics.null_scans == 1
        finally:
            db.close()


# ------------------------------------------------------ EXPLAIN rendering
class TestExplainRendering:
    def test_fused_iteration_note_and_span(self):
        X = _dataset(14, n=60)
        db = _make_db(X)
        try:
            udf = register_fused_udfs(db)["kmeansiter"]
            udf.set_centroids(X[:2].copy())
            sql = fused_call_sql("kmeansiter", "x", DIMS)
            assert "fused clustering iteration" in db.explain(sql)
            result = db.execute("EXPLAIN ANALYZE " + sql)
            assert result.plan.trace.find("fused-iteration")
            assert any(
                "fused clustering iteration" in note
                for node in result.plan.find("aggregate")
                for note in node.notes
            )
        finally:
            db.close()

    def test_analyze_reports_reused_partials(self):
        X = _dataset(15, n=60)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            sql = nlq_call_sql("x", DIMS)
            cold = db.execute("EXPLAIN ANALYZE " + sql)
            warm = db.execute("EXPLAIN ANALYZE " + sql)
            assert cold.metrics.partials_reused == 0
            assert warm.metrics.partials_reused == 4
            assert warm.metrics.rows_scanned == 60
        finally:
            db.close()
