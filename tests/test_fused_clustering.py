"""One-scan fused clustering iterations and the summary-matrix cache.

Two properties hold this PR together:

* **Fused parity** — a fused ``kmeansiter`` iteration (assignment and
  per-cluster (N, L, Q) accumulation inside one scan) is **bit-identical**
  to the GROUP BY reference ``miner.kmeans(method="udf")`` at any
  worker count, because the fused kernel replays the scoring and GROUP
  BY arithmetic exactly.
* **Cache freshness** — the Database-level summary cache may serve a
  statement with zero rows scanned only when the table's version
  counters prove the entry current; appends trigger an incremental
  watermark refresh of exactly the suffix, destructive mutations force
  a full rebuild.  A stale *answer* is impossible by construction, and
  these tests try to provoke one.
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


# -------------------------------------------------------- summary cache
class TestSummaryCache:
    @pytest.mark.parametrize("matrix_type", list(MatrixType))
    def test_fresh_hit_serves_zero_rows_bitwise(self, matrix_type):
        X = _dataset(5, n=100)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            db.summary_cache_enabled = True
            cold = compute_nlq_udf(db, "x", DIMS, matrix_type)
            metrics = db._executor.last_metrics
            assert metrics.summary_cache_misses == 1
            assert metrics.rows_scanned == 100
            warm = compute_nlq_udf(db, "x", DIMS, matrix_type)
            metrics = db._executor.last_metrics
            assert metrics.summary_cache_hits == 1
            assert metrics.summary_cache_misses == 0
            assert metrics.scans_saved == 1
            assert metrics.rows_scanned == 0
            assert warm.n == cold.n
            assert np.array_equal(warm.L, cold.L)
            assert np.array_equal(warm.Q, cold.Q)
        finally:
            db.close()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_cache_hit_model_build_identical(self, workers):
        """Acceptance: the second model build over the same columns
        scans zero rows and produces the identical model."""
        X = _dataset(8, n=100)
        db = _make_db(X, workers=workers)
        try:
            register_nlq_udfs(db)
            db.summary_cache_enabled = True
            cold = CorrelationModel.from_summary(
                compute_nlq_udf(db, "x", DIMS), list(DIMS)
            )
            warm = CorrelationModel.from_summary(
                compute_nlq_udf(db, "x", DIMS), list(DIMS)
            )
            assert db._executor.last_metrics.rows_scanned == 0
            assert np.array_equal(warm.rho, cold.rho)
            assert warm.n == cold.n
        finally:
            db.close()

    def test_insert_refreshes_exactly_the_appended_suffix(self):
        X = _dataset(6, n=100)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            db.summary_cache_enabled = True
            compute_nlq_udf(db, "x", DIMS)
            appended = [(101, 1.0, 2.0, 3.0), (102, 4.0, 5.0, 6.0)]
            db.insert_rows("x", appended)
            stale = compute_nlq_udf(db, "x", DIMS)
            metrics = db._executor.last_metrics
            assert metrics.summary_cache_hits == 1
            assert metrics.rows_scanned == 2  # the suffix, not the table
            assert stale.n == 102
            reference = SummaryStatistics.from_matrix(
                np.vstack([X, np.asarray(appended)[:, 1:]])
            )
            assert stale.allclose(reference)
            # A second call is a fresh hit again: zero rows.
            compute_nlq_udf(db, "x", DIMS)
            assert db._executor.last_metrics.rows_scanned == 0
        finally:
            db.close()

    def test_destructive_mutation_forces_rebuild(self):
        X = _dataset(9, n=100)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            db.summary_cache_enabled = True
            compute_nlq_udf(db, "x", DIMS)
            db.execute("DELETE FROM x WHERE i <= 50")
            rebuilt = compute_nlq_udf(db, "x", DIMS)
            metrics = db._executor.last_metrics
            assert metrics.summary_cache_misses == 1
            assert metrics.summary_cache_hits == 0
            assert rebuilt.n == 50
            assert rebuilt.allclose(SummaryStatistics.from_matrix(X[50:]))
        finally:
            db.close()

    def test_disabling_falls_back_to_the_scan(self):
        X = _dataset(10, n=100)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            db.summary_cache_enabled = True
            cached = compute_nlq_udf(db, "x", DIMS)
            db.summary_cache_enabled = False
            scanned = compute_nlq_udf(db, "x", DIMS)
            metrics = db._executor.last_metrics
            assert metrics.summary_cache_hits == 0
            assert metrics.rows_scanned == 100
            assert scanned.allclose(cached)
        finally:
            db.close()

    def test_cache_is_off_by_default(self):
        X = _dataset(13, n=40)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            assert not db.summary_cache_enabled
            compute_nlq_udf(db, "x", DIMS)
            metrics = db._executor.last_metrics
            assert metrics.summary_cache_hits == 0
            assert metrics.summary_cache_misses == 0
            assert metrics.rows_scanned == 40
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

    def test_summary_cache_notes_track_freshness(self):
        X = _dataset(15, n=60)
        db = _make_db(X)
        try:
            register_nlq_udfs(db)
            db.summary_cache_enabled = True
            sql = nlq_call_sql("x", DIMS)
            assert "summary-cache miss" in db.explain(sql)
            compute_nlq_udf(db, "x", DIMS)  # warms the cache
            result = db.execute("EXPLAIN ANALYZE " + sql)
            rendered = "\n".join(row[0] for row in result.rows)
            assert "summary-cache hit" in rendered
            assert result.metrics.rows_scanned == 0
            db.insert_rows("x", [(61, 1.0, 2.0, 3.0)])
            assert "summary-cache hit (stale)" in db.explain(sql)
        finally:
            db.close()
