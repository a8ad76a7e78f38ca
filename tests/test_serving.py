"""The serving layer: registry, sessions, micro-batching, shutdown.

Covers the three serving subsystems plus their interaction with the
database lifecycle:

* :class:`~repro.serving.registry.ModelRegistry` — catalog-resident
  persistence (register → get → promote → list), version stamping, and
  survival across registry instances (the tables ARE the storage);
* :class:`~repro.serving.server.ServingSession` — snapshot-consistent
  reads, pinned model bindings, summary reads served from the summary
  cache at the pinned version;
* :class:`~repro.serving.batcher.MicroBatchScorer` — coalescing,
  per-request isolation, typed overload/closed errors, the
  ``serving.enqueue`` / ``serving.flush`` fault sites;
* the ``Database.close`` regression: closing with in-flight requests
  drains the queue and rejects new work typed, instead of deadlocking
  or dropping queued requests.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import WarehouseMiner
from repro.core.models.em_mixture import GaussianMixtureModel
from repro.core.models.kmeans import KMeansModel
from repro.core.models.lda import LdaModel
from repro.core.models.naive_bayes import NaiveBayesModel
from repro.core.models.regression import LinearRegressionModel
from repro.core.scoring.scorer import ModelScorer
from repro.core.summary import AugmentedSummary, SummaryStatistics
from repro.dbms.database import Database
from repro.dbms.faults import FaultPlan, FaultSpec
from repro.dbms.schema import dataset_schema, dimension_names
from repro.errors import (
    FaultInjected,
    RegistryError,
    ServingClosedError,
    ServingOverloadedError,
    SnapshotInvalidatedError,
)
from repro.serving import MicroBatchScorer, ModelRegistry, ServingMetrics
from repro.serving.registry import REGISTRY_TABLE, component_table

D = 3
RNG = np.random.default_rng(11)
X_DATA = RNG.normal(size=(120, D))
Y_DATA = X_DATA @ np.array([1.5, -2.0, 0.5]) + 3.0 + RNG.normal(0, 0.1, 120)
LABELS = (X_DATA[:, 0] > 0).astype(int)
D2_MEANS = np.array([[0.0, 1.0], [2.5, -1.5]])
D2_VARIANCES = np.array([[1.0, 0.5], [2.0, 0.25]])


@pytest.fixture
def models():
    return {
        "reg": LinearRegressionModel.from_summary(
            AugmentedSummary.from_xy(X_DATA, Y_DATA)
        ),
        "km": KMeansModel.fit_matrix(X_DATA, 3, seed=1),
        "gmm": GaussianMixtureModel.fit_matrix(X_DATA, 2, seed=1),
        "nb": NaiveBayesModel.fit_matrix(X_DATA, LABELS),
        "lda": LdaModel.fit_matrix(X_DATA, LABELS),
    }


KINDS = ["reg", "km", "gmm", "nb", "lda"]


@pytest.fixture
def server(db):
    server = db.serve(max_wait_ms=1.0)
    yield server
    server.close()


def _explained_sql(monkeypatch, server, name: str, columns) -> str:
    """The single-scan statement ``explain_score`` hands to EXPLAIN."""
    seen = []
    explain = server.db.explain
    monkeypatch.setattr(
        server.db, "explain", lambda sql: (seen.append(sql), explain(sql))[1]
    )
    server.explain_score(name, table="pts", columns=columns)
    monkeypatch.undo()
    (sql,) = seen
    return sql


def _load_points(db: Database, n: int = 60) -> None:
    db.create_table("pts", dataset_schema(D))
    columns = {"i": np.arange(1, n + 1)}
    for index, name in enumerate(dimension_names(D)):
        columns[name] = X_DATA[:n, index]
    db.load_columns("pts", columns)


# --------------------------------------------------------------- registry
class TestRegistry:
    def test_register_persists_catalog_tables(self, db, server, models):
        version = server.registry.register("churn", models["km"])
        assert version.version == 1 and version.promoted
        assert db.catalog.has_table(REGISTRY_TABLE)
        for part in ("c", "r", "w"):
            assert db.catalog.has_table(component_table("churn", 1, part))

    def test_versions_auto_increment_and_promote_flips(self, server, models):
        server.registry.register("m", models["reg"])
        v2 = server.registry.register("m", models["reg"])
        assert (v2.version, v2.promoted) == (2, False)
        assert server.registry.get("m").version == 1
        server.registry.promote("m", 2)
        assert server.registry.get("m").version == 2
        assert server.registry.get("m", version=1).version == 1
        listed = server.registry.list("m")
        assert [v.version for v in listed] == [2, 1]
        assert [v.promoted for v in listed] == [True, False]

    def test_get_unknown_and_bad_version_are_typed(self, server, models):
        with pytest.raises(RegistryError, match="no model registered"):
            server.registry.get("ghost")
        server.registry.register("m", models["reg"])
        with pytest.raises(RegistryError, match=r"registered: \[1\]"):
            server.registry.get("m", version=9)
        with pytest.raises(RegistryError, match="cannot promote"):
            server.registry.promote("m", 9)

    def test_unregistrable_object_is_typed(self, server):
        with pytest.raises(RegistryError, match="cannot register"):
            server.registry.register("m", object())

    def test_models_survive_registry_instances(self, db, server, models):
        """The catalog tables are the storage: a brand-new registry over
        the same database loads every version back and scores
        identically."""
        for name, model in models.items():
            server.registry.register(name, model)
        reloaded = ModelRegistry(db)
        pts = X_DATA[:7]
        assert np.allclose(
            reloaded.get("reg").score_batch(pts),
            models["reg"].predict(pts),
        )
        assert (
            reloaded.get("km").finalize_scores(
                reloaded.get("km").score_batch(pts)
            )
            == models["km"].assign(pts).tolist()
        )

    def test_dropped_component_table_is_typed(self, db, server, models):
        server.registry.register("m", models["km"])
        db.drop_table(component_table("m", 1, "c"))
        with pytest.raises(RegistryError, match="missing its parameter"):
            server.registry.get("m")


# ------------------------------------------------------- scoring parity
class TestScoringParity:
    def test_all_kinds_match_reference_predictions(self, server, models):
        for name, model in models.items():
            server.registry.register(name, model)
        pts = X_DATA[:9]
        with server.session() as session:
            assert np.allclose(
                session.score("reg", pts).values, models["reg"].predict(pts)
            )
            assert (
                session.score("km", pts).values
                == models["km"].assign(pts).tolist()
            )
            nb = models["nb"]
            assert session.score("nb", pts).values == [
                int(nb.classes[j])
                for j in np.argmax(nb.log_joint(pts), axis=1)
            ]
            lda = models["lda"]
            assert session.score("lda", pts).values == [
                int(lda.classes[j])
                for j in np.argmax(lda.discriminants(pts), axis=1)
            ]
            gmm_scores = session.score("gmm", pts).values
            assert all(1 <= j <= 2 for j in gmm_scores)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_equals_per_row_reference(self, server, models, kind):
        server.registry.register("m", models[kind])
        handle = server.registry.get("m")
        pts = X_DATA[:20].copy()
        pts[3, 1] = pts[11, 0] = np.nan  # true NULL coordinates
        batched = handle.finalize_scores(handle.score_batch(pts))
        assert batched == handle.score_rows(pts)
        assert batched[3] is None and batched[11] is None

    def test_null_coordinate_scores_null(self, server, models):
        server.registry.register("m", models["reg"])
        with server.session() as session:
            values = session.score(
                "m", [[1.0, np.nan, 2.0], [1.0, 1.0, 1.0]]
            ).values
        assert values[0] is None and values[1] is not None

    def test_result_is_version_stamped(self, server, models):
        server.registry.register("m", models["reg"])
        server.registry.register("m", models["reg"])
        server.registry.promote("m", 2)
        with server.session() as session:
            result = session.score("m", X_DATA[0], version=1)
        assert (result.model_name, result.model_version) == ("m", 1)

    def test_session_binding_pins_across_promote(self, server, models):
        server.registry.register("m", models["reg"])
        with server.session() as session:
            assert session.score("m", X_DATA[0]).model_version == 1
            server.registry.register("m", models["reg"])
            server.registry.promote("m", 2)
            # The session keeps answering with its pinned binding ...
            assert session.score("m", X_DATA[0]).model_version == 1
        # ... while a fresh session binds the newly promoted version.
        with server.session() as session:
            assert session.score("m", X_DATA[0]).model_version == 2


class TestScoringRoutes:
    """Every route a registered model scores through agrees value for
    value: the batched kernels, the per-row reference, the inline SQL
    serving EXPLAINs, and the stored-model ``ModelScorer`` statement."""

    STORED = {  # GMM has no stored-model route
        "reg": lambda s, m: (s.store_regression(m), s.score_regression())[1],
        "km": lambda s, m: (
            s.store_clustering(m), s.score_clustering(m.k)
        )[1],
        "nb": lambda s, m: (s.store_naive_bayes(m), s.score_naive_bayes(m))[1],
        "lda": lambda s, m: (s.store_lda(m), s.score_lda(m))[1],
    }

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_route_agrees(self, models, monkeypatch, kind, workers):
        db = Database(amps=4, executor_workers=workers)
        rows = [(i + 1, *map(float, X_DATA[i])) for i in range(60)]
        rows[4] = (5, rows[4][1], None, rows[4][3])
        rows[40] = (41, None, None, None)
        db.create_table("pts", dataset_schema(D))
        db.insert_rows("pts", rows)
        ids = [row[0] for row in rows]
        points = np.asarray(
            [[np.nan if v is None else v for v in row[1:]] for row in rows]
        )
        server = db.serve()
        model = models[kind]
        server.registry.register(kind, model)
        handle = server.registry.get(kind)

        served = handle.finalize_scores(handle.score_batch(points))
        assert served[4] is None and served[40] is None
        assert handle.score_rows(points) == served

        sql = _explained_sql(monkeypatch, server, kind, dimension_names(D))
        inline = dict(db.execute(sql).rows)
        labels = getattr(model, "classes", None)
        assert [
            inline[i] if inline[i] is None or labels is None
            else labels[inline[i] - 1]
            for i in ids
        ] == served

        if kind in self.STORED:
            scorer = ModelScorer(db, "pts", dimension_names(D))
            stored = dict(self.STORED[kind](scorer, model).rows)
            assert [stored[i] for i in ids] == served
        db.close()

    # d = 2 models with round parameters; the statements were copied
    # from the per-kind generators the emitter replaced.
    PINNED = {
        "reg": (
            LinearRegressionModel(
                0.5, np.array([1.25, -2.0]), 10.0,
                np.eye(3), np.zeros(3), 0.0, 0.0,
            ),
            "SELECT t.i AS i, linearregscore(t.x1, t.x2, 0.5, 1.25, -2.0) "
            "AS yhat FROM pts t",
        ),
        "km": (
            KMeansModel(D2_MEANS, D2_VARIANCES, np.array([0.25, 0.75])),
            "SELECT t.i AS i, clusterscore(kmeansdistance(t.x1, t.x2, 0.0, "
            "1.0), kmeansdistance(t.x1, t.x2, 2.5, -1.5)) AS j FROM pts t",
        ),
        "gmm": (
            GaussianMixtureModel(
                D2_MEANS, D2_VARIANCES, np.array([0.25, 0.75])
            ),
            "SELECT t.i AS i, classifyscore(nbscore(t.x1, t.x2, 0.0, 1.0, "
            "1.0, 2.0, -2.8775978372492634), nbscore(t.x1, t.x2, 2.5, -1.5, "
            "0.5, 4.0, -1.7789855485811537)) AS idx FROM pts t",
        ),
        "nb": (
            NaiveBayesModel(
                [3, 7], np.array([0.4, 0.6]), D2_MEANS, D2_VARIANCES
            ),
            "SELECT t.i AS i, classifyscore(nbscore(t.x1, t.x2, 0.0, 1.0, "
            "1.0, 2.0, -2.4075942080035277), nbscore(t.x1, t.x2, 2.5, -1.5, "
            "0.5, 4.0, -2.0021290998953636)) AS idx FROM pts t",
        ),
        "lda": (
            LdaModel(
                [3, 7], np.array([[1.0, -0.5], [0.25, 2.0]]),
                np.array([-1.0, 0.5]), D2_MEANS, np.eye(2),
            ),
            "SELECT t.i AS i, classifyscore(linearregscore(t.x1, t.x2, -1.0, "
            "1.0, -0.5), linearregscore(t.x1, t.x2, 0.5, 0.25, 2.0)) AS idx "
            "FROM pts t",
        ),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_inline_sql_text_is_pinned(self, db, server, monkeypatch, kind):
        model, expected = self.PINNED[kind]
        db.create_table("pts", dataset_schema(2))
        server.registry.register(kind, model)
        assert _explained_sql(monkeypatch, server, kind, ["x1", "x2"]) == expected


# ---------------------------------------------------- sessions/snapshots
class TestSessions:
    def test_snapshot_hides_concurrent_appends(self, db, server, models):
        server.registry.register("m", models["reg"])
        _load_points(db, n=40)
        with server.session() as session:
            first = session.score_table("m", "pts", dimension_names(D))
            assert len(first.values) == 40
            server.insert_rows(
                "pts", [(1000 + i, 0.0, 0.0, 0.0) for i in range(8)]
            )
            again = session.score_table("m", "pts", dimension_names(D))
            assert len(again.values) == 40
            assert session.snapshot("pts").stale_rows == 8
        with server.session() as session:
            assert len(
                session.score_table("m", "pts", dimension_names(D)).values
            ) == 48

    def test_score_table_matches_model_on_pinned_rows(
        self, db, server, models
    ):
        server.registry.register("m", models["reg"])
        _load_points(db, n=40)
        with server.session() as session:
            result = session.score_table("m", "pts", dimension_names(D))
            ids = session.snapshot("pts").column_values("i")
        expected = models["reg"].predict(X_DATA[np.asarray(ids) - 1])
        assert np.allclose(result.values, expected)
        assert result.metrics.rows_scanned == 40

    def test_truncate_invalidates_snapshot_typed(self, db, server, models):
        server.registry.register("m", models["reg"])
        _load_points(db, n=20)
        with server.session() as session:
            session.score_table("m", "pts", dimension_names(D))
            db.table("pts").truncate()
            with pytest.raises(SnapshotInvalidatedError, match="pinned"):
                session.score_table("m", "pts", dimension_names(D))

    def test_summary_reads_the_pinned_prefix(self, db, server):
        _load_points(db, n=50)
        dims = dimension_names(D)
        with server.session() as session:
            stats = session.summary("pts", dims)
            # A write after the pin is invisible to this session.
            server.insert_rows("pts", [(999, 1.0, 1.0, 1.0)])
            again = session.summary("pts", dims)
            assert server.metrics.snapshot_reads == 2
        # (n, L, Q) are permutation-invariant, so the raw rows are a
        # valid reference regardless of partition order.
        reference = SummaryStatistics.from_matrix(X_DATA[:50])
        for got in (stats, again):
            assert got.n == 50
            assert np.allclose(got.L, reference.L)
            assert np.allclose(got.Q, reference.Q)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_served_summary_equals_engine_bitwise(self, workers):
        """A served summary folds each pinned partition prefix as the
        aggregate UDF does, NULL rows skipped, and merges the partials in
        partition order: it is ``miner.summarize`` bit for bit (a large
        offset makes any other fold order show in the low bits)."""
        n, dims = 4000, dimension_names(D)
        rng = np.random.default_rng(5)
        db = Database(amps=16, executor_workers=workers)
        db.create_table("x", dataset_schema(D))
        columns = {"i": np.arange(1, n + 1)}
        for name in dims:
            columns[name] = rng.normal(1e4, 1.0, size=n)
        db.load_columns("x", columns)
        db.insert_rows("x", [(n + 1, None, 1.0, 2.0)])
        engine = WarehouseMiner(db).summarize("x", dims)
        assert engine.n == n
        server = db.serve()
        try:
            with server.session() as session:
                served = session.summary("x", dims)
                # A write after the pin is invisible to this session.
                server.insert_rows("x", [(n + 2, 0.5, 0.5, 0.5)])
                again = session.summary("x", dims)
        finally:
            db.close()
        for got in (served, again):
            assert got.n == engine.n
            for field in ("L", "Q", "mins", "maxs"):
                assert getattr(got, field).tobytes() == getattr(
                    engine, field
                ).tobytes(), field

    def test_session_pool_is_bounded_and_typed(self, db, models):
        server = db.serve(max_sessions=2)
        first, second = server.session(), server.session()
        with pytest.raises(ServingOverloadedError, match="session pool"):
            server.session()
        assert server.metrics.sessions_rejected == 1
        first.close()
        third = server.session()  # freed capacity is reusable
        second.close()
        third.close()
        assert server.metrics.sessions_active == 0


# ------------------------------------------------------- micro-batching
class _StubModel:
    """A minimal model handle for driving the batcher directly."""

    def __init__(self, name="stub", version=1, poison=None, fail_batch=False):
        self.name = name
        self.version = version
        self.kind = "regression"
        self.poison = poison
        self.fail_batch = fail_batch

    @property
    def key(self):
        return (self.name, self.version)

    def score_batch(self, X):
        if self.fail_batch:
            raise RuntimeError("batched kernel refused")
        return np.sum(X, axis=1)

    def finalize_scores(self, raw):
        return [float(v) for v in raw]

    def score_rows(self, X):
        out = []
        for row in X:
            if self.poison is not None and row[0] == self.poison:
                raise ValueError(f"poisoned point {row[0]}")
            out.append(float(np.sum(row)))
        return out


class TestMicroBatching:
    def test_concurrent_requests_coalesce(self, db, models):
        server = db.serve(max_wait_ms=25.0, max_batch_size=64)
        server.registry.register("m", models["reg"])
        results = [None] * 24

        def client(index):
            with server.session() as session:
                results[index] = session.score("m", X_DATA[index])

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(24)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r is not None for r in results)
        for index, result in enumerate(results):
            assert result.values == pytest.approx(
                [float(models["reg"].predict(X_DATA[index : index + 1])[0])]
            )
        assert max(r.batched_with for r in results) > 1
        assert server.metrics.coalesce_factor > 1.0
        assert server.metrics.queue_depth_peak >= 2
        server.close()

    def test_coalesced_equals_naive_path(self, db, models):
        server = db.serve(max_wait_ms=1.0)
        server.registry.register("m", models["reg"])
        with server.session() as session:
            pts = X_DATA[:5]
            assert (
                session.score("m", pts).values
                == session.score("m", pts, coalesce=False).values
            )
        server.close()

    def test_poisoned_request_fails_alone(self):
        """Per-request isolation: when the coalesced dispatch fails,
        siblings still get answers; only the poisoned request errors."""
        batcher = MicroBatchScorer(
            ServingMetrics(), max_batch_size=64, max_wait_ms=50.0
        )
        model = _StubModel(poison=-1.0, fail_batch=True)
        good = batcher.submit(model, np.array([[1.0, 2.0]]))
        bad = batcher.submit(model, np.array([[-1.0, 5.0]]))
        also_good = batcher.submit(model, np.array([[3.0, 4.0]]))
        assert good.wait(10.0) == [3.0]
        assert also_good.wait(10.0) == [7.0]
        with pytest.raises(ValueError, match="poisoned"):
            bad.wait(10.0)
        assert good.metrics.fallbacks == 1
        assert good.metrics.statements_batched == 3
        batcher.close()

    def test_flush_fault_degrades_with_identical_answers(self, db, models):
        db.faults = FaultPlan(
            [FaultSpec(site="serving.flush", kind="flaky", times=1)], seed=3
        )
        server = db.serve(max_wait_ms=1.0)
        server.registry.register("m", models["reg"])
        with server.session() as session:
            values = session.score("m", X_DATA[:4]).values
        assert np.allclose(values, models["reg"].predict(X_DATA[:4]))
        assert server.metrics.flush_fallbacks == 1
        server.close()

    def test_enqueue_fault_rejects_only_that_request(self, db, models):
        db.faults = FaultPlan(
            [FaultSpec(site="serving.enqueue", kind="error", times=1)], seed=3
        )
        server = db.serve(max_wait_ms=1.0)
        server.registry.register("m", models["reg"])
        with server.session() as session:
            with pytest.raises(FaultInjected):
                session.score("m", X_DATA[0])
            # The queue was never touched; the next request is fine.
            assert len(session.score("m", X_DATA[0]).values) == 1
        server.close()

    def test_queue_overflow_is_typed_and_drain_answers_queued(self, db, models):
        """With a long wait window the queue holds requests; the bound
        rejects typed, and close(drain=True) still answers everything
        already admitted."""
        server = db.serve(
            max_wait_ms=10_000.0, max_batch_size=1024, max_queue_depth=3
        )
        server.registry.register("m", models["reg"])
        model = server.registry.get("m")
        queued = [
            server._batcher.submit(model, np.asarray([X_DATA[i]]))
            for i in range(3)
        ]
        with pytest.raises(ServingOverloadedError, match="queue is full"):
            server._batcher.submit(model, np.asarray([X_DATA[3]]))
        assert server.metrics.requests_rejected == 1
        server.close()  # drain: all three queued requests get answers
        for index, request in enumerate(queued):
            assert request.wait(10.0) == pytest.approx(
                [float(models["reg"].predict(X_DATA[index : index + 1])[0])]
            )


# ------------------------------------------------------ shutdown/drain
class TestShutdown:
    def test_db_close_drains_queue_and_rejects_new_work(self, db, models):
        """The regression this PR fixes: ``Database.close`` during
        in-flight serving requests must drain the micro-batch queue and
        reject new sessions typed — no deadlock, no dropped requests."""
        server = db.serve(
            max_wait_ms=10_000.0, max_batch_size=1024, max_queue_depth=64
        )
        server.registry.register("m", models["reg"])
        model = server.registry.get("m")
        queued = [
            server._batcher.submit(model, np.asarray([X_DATA[i]]))
            for i in range(5)
        ]
        closer = threading.Thread(target=db.close)
        closer.start()
        closer.join(timeout=20.0)
        assert not closer.is_alive(), "db.close() deadlocked on serving"
        for index, request in enumerate(queued):
            assert request.wait(10.0) == pytest.approx(
                [float(models["reg"].predict(X_DATA[index : index + 1])[0])]
            )
        with pytest.raises(ServingClosedError):
            server.session()
        with pytest.raises(ServingClosedError):
            server.write("SELECT 1 FROM model_registry")
        db.close()  # idempotent, listeners included

    def test_open_session_rejects_typed_after_close(self, db, models):
        server = db.serve(max_wait_ms=1.0)
        server.registry.register("m", models["reg"])
        session = server.session()
        assert len(session.score("m", X_DATA[0]).values) == 1
        db.close()
        with pytest.raises(ServingClosedError):
            session.score("m", X_DATA[0])

    def test_close_without_drain_fails_queued_typed(self, models, db):
        server = db.serve(
            max_wait_ms=10_000.0, max_batch_size=1024, max_queue_depth=64
        )
        server.registry.register("m", models["reg"])
        model = server.registry.get("m")
        request = server._batcher.submit(model, np.asarray([X_DATA[0]]))
        server.close(drain=False)
        with pytest.raises(ServingClosedError, match="before this request"):
            request.wait(10.0)


# ------------------------------------------------------------- explain
class TestExplain:
    def test_explain_reports_binding_and_knobs(self, server, models):
        server.registry.register("m", models["reg"])
        text = server.explain_score("m")
        assert "registry bind 'm' -> v1 (promoted" in text
        assert "micro-batch max_batch_size=64" in text
        assert "snapshot reads pin table.version" in text

    def test_explain_with_table_shows_single_scan_plan(
        self, db, server, models
    ):
        server.registry.register("m", models["km"])
        _load_points(db, n=30)
        text = server.explain_score(
            "m", table="pts", columns=dimension_names(D)
        )
        assert "equivalent single-scan statement" in text
        assert "scan: table pts" in text
        assert "clusterscore" in text

    def test_explain_all_kinds_produce_plans(self, db, server, models):
        _load_points(db, n=30)
        for name, model in models.items():
            server.registry.register(name, model)
            text = server.explain_score(
                name, table="pts", columns=dimension_names(D)
            )
            assert "scan: table pts" in text, name
