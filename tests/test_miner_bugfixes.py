"""Regression tests for mining-path bugs.

1. K-means seeding materialized the whole table client-side with
   ``numeric_matrix`` — a single NULL row became NaN and poisoned every
   centroid.  Seeding now draws a bounded, NULL-filtered reservoir
   sample through the partition engine (:mod:`repro.dbms.sampling`),
   deterministic for a fixed seed at any worker count.
2. ``DROP TABLE`` left the table's entries in the summary-matrix
   cache of the time; recreating the table then served stale
   summaries.  Reused partials live with a table's cached blocks, so a
   recreated table starts with none.
3. ``naive_bayes``/``lda`` crashed with a bare ``TypeError`` on
   ``int(key)`` when the label column held NULLs (grouped under
   None/NaN) or non-integral floats.  NULL-label groups are skipped and
   non-integral labels raise a clear :class:`ModelError`.
4. EM initialized from a matrix holding the NULL rows as NaN: the fused
   fit collapsed a component and the matrix fit went all-NaN.  Both fit
   the complete rows only.
5. ``kmeans(method="sql")`` divided the weights by every group's rows,
   the NULL-key group's included.  Only clusters 1..k count now.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.models.kmeans import KMeansModel
from repro.core.nlq_udf import NlqListUdf, nlq_call_sql, register_nlq_udfs
from repro.core.summary import MatrixType
from repro.dbms.database import Database
from repro.dbms.sampling import reservoir_sample
from repro.dbms.schema import dataset_schema, dimension_names
from repro.errors import ModelError
from repro.twm.miner import WarehouseMiner

D = 2
DIMS = dimension_names(D)


def _clustering_db(
    workers: int | None = None, null_rows: int = 0, register: bool = True
) -> Database:
    """x(i, x1, x2) with 60 seeded rows, the last *null_rows* of which
    have a NULL in x1."""
    kwargs = {} if workers is None else {"executor_workers": workers}
    db = Database(amps=4, **kwargs)
    rng = np.random.default_rng(11)
    n = 60
    X = rng.normal(10.0, 3.0, size=(n, D))
    columns = {"i": np.arange(1, n + 1)}
    for index, name in enumerate(DIMS):
        columns[name] = X[:, index]
    if null_rows:
        x1 = columns["x1"].astype(object)
        x1[-null_rows:] = None
        columns["x1"] = x1
    db.create_table("x", dataset_schema(D))
    db.load_columns("x", columns)
    if register:
        register_nlq_udfs(db)
    return db


# ------------------------------------------------------- k-means seeding
def test_kmeans_survives_null_rows():
    """A NULL row must not poison the seeds: pre-fix, numeric_matrix
    turned it into a NaN row and every centroid went NaN."""
    with _clustering_db(null_rows=3) as db:
        model = KMeansModel.fit_dbms(db, "x", DIMS, k=3, seed=5)
    assert np.isfinite(model.centroids).all()
    assert np.isfinite(model.radii).all()
    assert model.weights.sum() == pytest.approx(1.0)


def test_miner_kmeans_survives_null_rows():
    with _clustering_db(null_rows=2, register=False) as db:
        miner = WarehouseMiner(db)  # the miner registers the UDFs itself
        model = miner.kmeans("x", k=2, seed=1)
    assert np.isfinite(model.centroids).all()


def test_seeding_deterministic_across_worker_counts():
    fits = []
    for workers in (1, 2, 4):
        with _clustering_db(workers=workers, null_rows=2) as db:
            fits.append(KMeansModel.fit_dbms(db, "x", DIMS, k=3, seed=7))
    for model in fits[1:]:
        assert np.array_equal(model.centroids, fits[0].centroids)
        assert np.array_equal(model.radii, fits[0].radii)
        assert np.array_equal(model.weights, fits[0].weights)


def test_reservoir_sample_filters_nulls_and_bounds():
    with _clustering_db(null_rows=5) as db:
        sample = reservoir_sample(db, "x", DIMS, cap=16, seed=3)
        again = reservoir_sample(db, "x", DIMS, cap=16, seed=3)
        other_seed = reservoir_sample(db, "x", DIMS, cap=16, seed=4)
        full = reservoir_sample(db, "x", DIMS, cap=10_000, seed=0)
    assert sample.shape[1] == D
    assert sample.shape[0] <= 16
    assert np.isfinite(sample).all()
    assert np.array_equal(sample, again)  # pure function of (data, seed)
    assert not np.array_equal(sample, other_seed)
    # A cap beyond the table returns exactly the complete rows.
    assert full.shape[0] == 60 - 5
    assert np.isfinite(full).all()


def test_reservoir_sample_rejects_bad_cap():
    with _clustering_db() as db:
        with pytest.raises(ValueError, match="cap"):
            reservoir_sample(db, "x", DIMS, cap=0)


def test_kmeans_needs_k_complete_rows():
    """All-NULL data leaves no complete rows; the error names that."""
    with _clustering_db(null_rows=60) as db:
        with pytest.raises(ModelError, match="complete rows"):
            KMeansModel.fit_dbms(db, "x", DIMS, k=2, seed=0)


# -------------------------------------------------- DROP TABLE eviction
def test_recreated_table_is_not_served_stale_summaries():
    """The actual corruption the bug caused: drop x, recreate it with
    different data, and the cached summary of the *old* x answered."""
    from repro.core.packing import unpack_summary

    def load(db: Database, scale: float) -> None:
        rng = np.random.default_rng(2)
        n = 40
        columns = {"i": np.arange(1, n + 1)}
        for index, name in enumerate(DIMS):
            columns[name] = rng.normal(scale, 1.0, n)
        db.create_table("x", dataset_schema(D))
        db.load_columns("x", columns)

    with Database(amps=4) as db:
        load(db, scale=5.0)
        register_nlq_udfs(db)
        sql = nlq_call_sql("x", DIMS)
        db.execute(sql)
        warm = db.execute(sql)
        first = unpack_summary(warm.scalar())
        db.execute("DROP TABLE x")
        load(db, scale=50.0)
        again = db.execute(sql)
        second = unpack_summary(again.scalar())
    assert warm.metrics.partials_reused == 4
    assert again.metrics.partials_reused == 0
    assert not np.allclose(first.L, second.L)
    assert second.mean() == pytest.approx(np.full(D, 50.0), abs=1.0)


def test_drop_table_api_forgets_the_partials(loaded_db):
    """Another aggregate object over the same lanes, and a table
    recreated through the API, reuse no partial the first one left."""
    db, _, _ = loaded_db
    sql = nlq_call_sql("x", dimension_names(4))
    db.execute(sql)
    assert db.execute(sql).metrics.partials_reused > 0
    db.register_udf(NlqListUdf("nlq_twin", MatrixType.TRIANGULAR))
    twin = sql.replace("nlq_tri(", "nlq_twin(")
    assert db.execute(twin).metrics.partials_reused == 0
    assert db.execute(twin).rows == db.execute(sql).rows
    schema = db.table("x").schema
    rows = db.table("x").rows()
    db.drop_table("x")
    db.create_table("x", schema)
    db.insert_rows("x", rows)
    assert db.execute(sql).metrics.partials_reused == 0
    assert db.execute(sql).metrics.partials_reused > 0


# ------------------------------------------------- NULL / float labels
def _labelled_db(labels) -> Database:
    db = Database(amps=4)
    db.execute(
        "CREATE TABLE t (i INTEGER PRIMARY KEY, a FLOAT, b FLOAT, "
        "label FLOAT)"
    )
    rng = np.random.default_rng(9)
    for i, label in enumerate(labels, start=1):
        a, b = (float(v) for v in rng.normal(0.0, 1.0, 2))
        lit = "NULL" if label is None else repr(float(label))
        db.execute(f"INSERT INTO t VALUES ({i}, {a!r}, {b!r}, {lit})")
    return db


_LABELS_WITH_NULLS = [0, 0, 0, 1, 1, 1, None, None]


@pytest.mark.parametrize("method", ["naive_bayes", "lda"])
def test_null_labels_are_skipped(method):
    """Unlabelled rows must be ignored, not crash the GROUP BY fold.
    Pre-fix this died with ``int(None)``/``int(nan)`` TypeErrors."""
    with _labelled_db(_LABELS_WITH_NULLS) as db:
        miner = WarehouseMiner(db)
        model = getattr(miner, method)("t")
    assert model.classes == [0, 1]


@pytest.mark.parametrize("method", ["naive_bayes", "lda"])
def test_non_integral_label_raises_model_error(method):
    with _labelled_db([0, 0, 1, 1, 2.5, 2.5]) as db:
        miner = WarehouseMiner(db)
        with pytest.raises(ModelError, match="non-integral value 2.5"):
            getattr(miner, method)("t")


@pytest.mark.parametrize("method", ["naive_bayes", "lda"])
def test_all_null_labels_raise_model_error(method):
    """Skipping every group leaves nothing to model — a clear error,
    not an empty classifier."""
    with _labelled_db([None] * 6) as db:
        miner = WarehouseMiner(db)
        with pytest.raises(ModelError):
            getattr(miner, method)("t")


def test_integral_float_labels_accepted():
    """1.0 and 2.0 are legitimate integer classes stored as FLOAT."""
    with _labelled_db([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]) as db:
        miner = WarehouseMiner(db)
        model = miner.naive_bayes("t")
    assert model.classes == [1, 2]
    assert all(isinstance(c, int) for c in model.classes)


def test_nan_distance_poisoning_is_fixed_end_to_end():
    """The original symptom: with NULLs present, every centroid ended
    NaN because one NaN distance made every assignment NaN."""
    with _clustering_db(null_rows=4, register=False) as db:
        model = WarehouseMiner(db).kmeans("x", k=2, seed=0, method="udf")
    assert not any(math.isnan(v) for v in model.centroids.ravel())


# ------------------------------------------- clustering over NULL features
def _mixture_db(null_rows: int) -> Database:
    """x(i, x1, x2): 200 complete rows in two clusters of 80 and 120,
    then *null_rows* rows whose x1 is NULL."""
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (80, D)), rng.normal(8, 1, (120, D))])
    rows = [(i + 1, float(a), float(b)) for i, (a, b) in enumerate(X)]
    rows += [(201 + j, None, float(j)) for j in range(null_rows)]
    db = Database(amps=4)
    db.create_table("x", dataset_schema(D))
    db.insert_rows("x", rows)
    return db


#: EM over the complete rows only.  The fused scan may fold a partition
#: holding NULL rows in another order than the NULL-free one, so the
#: two fits agree to summation error: about n·ε relative per sum.
EM_RTOL = 205 * np.finfo(float).eps


@pytest.mark.parametrize("method", ["fused", "matrix"])
def test_em_fits_the_complete_rows_of_a_table_with_nulls(method):
    """Pre-fix the init read the NULL rows as NaN into the global
    variance: ``fit_dbms`` raised "a mixture component collapsed to
    zero weight" and the matrix fit returned all-NaN parameters."""
    fits = []
    for null_rows in (5, 0):
        with _mixture_db(null_rows) as db:
            fits.append(WarehouseMiner(db).gaussian_mixture(
                "x", 2, dimensions=DIMS, method=method, max_iterations=5
            ))
    with_nulls, complete = fits
    assert with_nulls.iterations == complete.iterations
    for name in ("means", "variances", "weights"):
        np.testing.assert_allclose(
            getattr(with_nulls, name), getattr(complete, name),
            rtol=EM_RTOL, atol=0.0,
        )
    assert with_nulls.log_likelihood == pytest.approx(
        complete.log_likelihood, rel=EM_RTOL, abs=0.0
    )


def test_sql_kmeans_weights_ignore_the_null_key_group():
    """The CASE assignment puts the NULL-feature rows in a NULL-key
    group; pre-fix its rows counted in every weight's denominator, so
    the weights summed to 200/205."""
    with _mixture_db(5) as db:
        miner = WarehouseMiner(db)
        via_sql = miner.kmeans("x", 2, dimensions=DIMS, method="sql")
        via_udf = miner.kmeans("x", 2, dimensions=DIMS, method="udf")
    assert via_sql.weights.sum() == 1.0
    assert np.array_equal(via_sql.weights, via_udf.weights)
    assert np.array_equal(via_sql.centroids, via_udf.centroids)
