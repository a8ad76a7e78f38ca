"""Scoring round trips: model tables, UDF vs SQL queries, scored tables."""

import numpy as np
import pytest

from repro.core.models.base import load_matrix, load_vector
from repro.core.models.kmeans import KMeansModel
from repro.core.models.pca import PCAModel
from repro.core.models.regression import LinearRegressionModel
from repro.core.scoring.scorer import ModelScorer, scores_as_matrix
from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.core.summary import AugmentedSummary, SummaryStatistics
from repro.dbms.schema import dimension_names
from repro.errors import ModelError


@pytest.fixture
def fitted(loaded_db):
    db, X, y = loaded_db
    scorer = ModelScorer(db, "x", dimension_names(4))
    regression = LinearRegressionModel.from_summary(AugmentedSummary.from_xy(X, y))
    pca = PCAModel.from_summary(SummaryStatistics.from_matrix(X), k=2)
    kmeans = KMeansModel.fit_matrix(X, k=3, seed=0)
    scorer.store_regression(regression)
    scorer.store_pca(pca)
    scorer.store_clustering(kmeans)
    return db, X, y, scorer, regression, pca, kmeans


class TestModelTables:
    def test_beta_layout(self, fitted):
        db, _X, _y, _scorer, regression, _pca, _kmeans = fitted
        beta = load_vector(db, "beta")
        assert np.allclose(beta, regression.beta)
        assert db.table("beta").schema.column_names == ("b0", "b1", "b2", "b3", "b4")

    def test_lambda_and_mu_layout(self, fitted):
        db, _X, _y, _scorer, _regression, pca, _kmeans = fitted
        lam = load_matrix(db, "lambda_")
        assert lam.shape == (2, 4)  # k rows, d columns
        effective = (pca.components / pca.scale[:, None]).T
        assert np.allclose(lam, effective)
        assert np.allclose(load_vector(db, "mu"), pca.mean)

    def test_clustering_layout(self, fitted):
        db, _X, _y, _scorer, _regression, _pca, kmeans = fitted
        assert np.allclose(load_matrix(db, "c"), kmeans.centroids)
        assert np.allclose(load_matrix(db, "r"), kmeans.radii)
        assert np.allclose(load_vector(db, "w"), kmeans.weights)

    def test_store_replaces(self, fitted):
        db, X, y, scorer, regression, _pca, _kmeans = fitted
        scorer.store_regression(regression)  # second store: no duplicate error
        assert load_vector(db, "beta").shape == (5,)

    def test_dimension_mismatch_rejected(self, fitted):
        db, X, y, scorer, _regression, _pca, _kmeans = fitted
        wrong = LinearRegressionModel.from_summary(
            AugmentedSummary.from_xy(X[:, :2], y)
        )
        with pytest.raises(ModelError, match="d="):
            scorer.store_regression(wrong)


class TestRegressionScoring:
    def test_udf_matches_model_predict(self, fitted):
        _db, X, _y, scorer, regression, _pca, _kmeans = fitted
        scores = scores_as_matrix(scorer.score_regression("udf"), 1).ravel()
        assert np.allclose(scores, regression.predict(X))

    def test_sql_matches_udf(self, fitted):
        _db, _X, _y, scorer, _regression, _pca, _kmeans = fitted
        udf = scores_as_matrix(scorer.score_regression("udf"), 1)
        sql = scores_as_matrix(scorer.score_regression("sql"), 1)
        assert np.allclose(udf, sql)

    def test_scores_into_table(self, fitted):
        db, X, _y, scorer, regression, _pca, _kmeans = fitted
        scorer.score_regression("udf", into="scored")
        stored = sorted(db.table("scored").rows(), key=lambda r: r[0])
        assert len(stored) == len(X)
        assert stored[0][1] == pytest.approx(regression.predict(X[0])[0])

    def test_into_replaces_existing(self, fitted):
        _db, _X, _y, scorer, _regression, _pca, _kmeans = fitted
        scorer.score_regression("udf", into="scored")
        scorer.score_regression("udf", into="scored")  # no duplicate error


class TestPcaScoring:
    def test_udf_matches_model_transform(self, fitted):
        _db, X, _y, scorer, _regression, pca, _kmeans = fitted
        scores = scores_as_matrix(scorer.score_pca(2, "udf"), 2)
        assert np.allclose(scores, pca.transform(X))

    def test_sql_matches_udf(self, fitted):
        _db, _X, _y, scorer, _regression, _pca, _kmeans = fitted
        udf = scores_as_matrix(scorer.score_pca(2, "udf"), 2)
        sql = scores_as_matrix(scorer.score_pca(2, "sql"), 2)
        assert np.allclose(udf, sql)

    def test_k_columns_produced(self, fitted):
        _db, _X, _y, scorer, _regression, _pca, _kmeans = fitted
        result = scorer.score_pca(2, "udf")
        assert result.columns == ["i", "f1", "f2"]


class TestClusteringScoring:
    def test_udf_matches_model_assign(self, fitted):
        _db, X, _y, scorer, _regression, _pca, kmeans = fitted
        scores = scores_as_matrix(scorer.score_clustering(3, "udf"), 1).ravel()
        assert np.array_equal(scores.astype(int), kmeans.assign(X))

    def test_sql_matches_udf(self, fitted):
        _db, _X, _y, scorer, _regression, _pca, _kmeans = fitted
        udf = scores_as_matrix(scorer.score_clustering(3, "udf"), 1)
        sql = scores_as_matrix(scorer.score_clustering(3, "sql"), 1)
        assert np.array_equal(udf, sql)

    def test_into_table_typed_integer(self, fitted):
        db, _X, _y, scorer, _regression, _pca, _kmeans = fitted
        scorer.score_clustering(3, "udf", into="assignments")
        values = db.table("assignments").column_values("j")
        assert all(isinstance(v, int) for v in values)


class TestGeneratedSqlText:
    def test_regression_udf_text(self):
        generator = ScoringSqlGenerator("x", ["x1", "x2"])
        sql = generator.regression_udf_sql()
        assert "linearregscore(t.x1, t.x2, b.b0, b.b1, b.b2)" in sql
        assert "CROSS JOIN beta b" in sql

    def test_pca_udf_calls_k_times(self):
        generator = ScoringSqlGenerator("x", ["x1"])
        sql = generator.pca_udf_sql(k=3)
        assert sql.count("fascore(") == 3
        assert sql.count("JOIN lambda_ l") == 3

    def test_clustering_expression_has_derived_table(self):
        generator = ScoringSqlGenerator("x", ["x1"])
        sql = generator.clustering_expression_sql(k=2)
        assert "FROM (SELECT" in sql  # the pivoted pass
        assert "CASE" in sql

    def test_clustering_udf_single_statement(self):
        generator = ScoringSqlGenerator("x", ["x1"])
        sql = generator.clustering_udf_sql(k=2)
        assert sql.count("SELECT") == 1
        assert sql.count("kmeansdistance(") == 2


class TestScorerRefusals:
    @pytest.mark.parametrize(
        "score",
        [
            lambda s: s.score_regression("udf", into="x"),
            lambda s: s.score_regression("sql", into="X"),
            lambda s: s.score_regression("udf", into="beta"),
            lambda s: s.score_pca(2, "udf", into="MU"),
            lambda s: s.score_pca(2, "sql", into="lambda_"),
            lambda s: s.score_clustering(3, "udf", into="c"),
        ],
        ids=["x", "X", "beta", "MU", "lambda_", "c"],
    )
    def test_into_a_table_the_statement_reads_is_refused(self, fitted, score):
        db, _X, _y, scorer, *_models = fitted
        tables = ("x", "beta", "mu", "lambda_", "c")

        def contents():
            return {
                t: (db.table(t).schema, sorted(db.table(t).rows()))
                for t in tables
            }

        before = contents()
        with pytest.raises(ModelError, match="reads it"):
            score(scorer)
        assert contents() == before

    @pytest.mark.parametrize("method", ["UDF", "expr", "SQL", ""])
    @pytest.mark.parametrize(
        "score",
        [
            lambda s, m: s.score_regression(m),
            lambda s, m: s.score_pca(2, m),
            lambda s, m: s.score_clustering(3, m),
        ],
        ids=["regression", "pca", "clustering"],
    )
    def test_unknown_method_is_refused(self, fitted, score, method):
        _db, _X, _y, scorer, *_models = fitted
        with pytest.raises(ModelError, match="'udf' or 'sql'"):
            score(scorer, method)
