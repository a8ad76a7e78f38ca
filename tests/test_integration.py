"""Full-pipeline integration: the paper's workflow end to end.

generate → load → one-scan summaries through every route (SQL, UDF list,
UDF string, blockwise, external C++ over an ODBC export) → build all
four models → score inside the DBMS → validate against direct numpy
computation.
"""

import numpy as np
import pytest

from repro.core.blockwise import compute_nlq_blockwise
from repro.core.nlq_udf import compute_nlq_udf
from repro.core.scoring.scorer import scores_as_matrix
from repro.core.sqlgen import NlqSqlGenerator
from repro.core.summary import SummaryStatistics
from repro.dbms.cost import Work, simulate
from repro.external.cpp_tool import CppAnalysisTool
from repro.odbc.export import OdbcExporter
from repro.twm.miner import WarehouseMiner


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    miner = WarehouseMiner(amps=5)
    sample = miner.load_synthetic("x", n=800, d=6, with_y=True, k=4, seed=77)
    tmp_path = tmp_path_factory.mktemp("pipeline")
    return miner, sample, tmp_path


class TestAllRoutesAgree:
    def test_five_routes_one_summary(self, pipeline):
        miner, sample, tmp_path = pipeline
        dims = miner.dimensions_of("x")
        X = miner.db.table("x").numeric_matrix(dims)
        reference = SummaryStatistics.from_matrix(X)

        sql_stats = NlqSqlGenerator("x", dims).compute(miner.db)
        list_stats = compute_nlq_udf(miner.db, "x", dims, passing="list")
        string_stats = compute_nlq_udf(miner.db, "x", dims, passing="string")
        block_stats = compute_nlq_blockwise(miner.db, "x", dims, block=3)

        OdbcExporter().export_table(miner.db, "x", tmp_path / "x.csv")
        cpp_stats = CppAnalysisTool().compute_nlq(
            tmp_path / "x.csv", columns=dims
        ).stats

        for label, stats in [
            ("sql", sql_stats),
            ("udf-list", list_stats),
            ("udf-string", string_stats),
            ("blockwise", block_stats),
            ("cpp", cpp_stats),
        ]:
            assert stats.allclose(reference, rtol=1e-7), label


class TestBuildAndScoreEverything:
    def test_regression_workflow(self, pipeline):
        miner, sample, _tmp = pipeline
        model = miner.linear_regression("x")
        # The generator's true coefficients are recovered.
        assert np.allclose(model.coefficients, sample.true_beta, atol=0.3)
        scorer = miner.scorer("x")
        scorer.store_regression(model)
        scores = scores_as_matrix(scorer.score_regression("udf"), 1).ravel()
        X = miner.db.table("x").numeric_matrix(miner.dimensions_of("x"))
        assert np.allclose(scores, model.predict(X))
        # Scored values correlate strongly with the actual target.
        y = np.asarray(miner.db.table("x").column_values("y"), dtype=float)
        assert np.corrcoef(scores, y)[0, 1] > 0.95

    def test_pca_workflow(self, pipeline):
        miner, _sample, _tmp = pipeline
        model = miner.pca("x", k=3)
        scorer = miner.scorer("x")
        scorer.store_pca(model)
        udf_scores = scores_as_matrix(scorer.score_pca(3, "udf"), 3)
        sql_scores = scores_as_matrix(scorer.score_pca(3, "sql"), 3)
        assert np.allclose(udf_scores, sql_scores)
        X = miner.db.table("x").numeric_matrix(miner.dimensions_of("x"))
        assert np.allclose(udf_scores, model.transform(X))

    def test_clustering_workflow_recovers_mixture(self, pipeline):
        miner, sample, _tmp = pipeline
        model = miner.kmeans("x", k=4, max_iterations=10, seed=1)
        scorer = miner.scorer("x")
        scorer.store_clustering(model)
        labels = scores_as_matrix(
            scorer.score_clustering(4, "udf"), 1
        ).ravel().astype(int)
        # Non-noise points of the same mixture component should mostly
        # land in the same cluster.
        X = miner.db.table("x").numeric_matrix(miner.dimensions_of("x"))
        assignments = model.assign(X)
        assert np.array_equal(np.sort(labels), np.sort(assignments))

    def test_factor_analysis_consistency_with_pca(self, pipeline):
        miner, _sample, _tmp = pipeline
        stats = miner.summarize("x")
        fa = miner.factor_analysis("x", k=2)
        # FA's implied covariance approximates the sample covariance.
        relative = np.linalg.norm(
            fa.implied_covariance() - stats.covariance()
        ) / np.linalg.norm(stats.covariance())
        assert relative < 0.25


class TestSingleScanClaims:
    def test_udf_query_marginal_cost_is_one_scan(self, pipeline):
        """The aggregate UDF query is a single pass: its *marginal*
        per-row cost (doubling n) is one scan's worth of I/O plus the
        per-row UDF work — no hidden second pass, and the fixed
        merge/return cost does not grow with n."""
        miner, _sample, _tmp = pipeline
        db = miner.db
        dims = miner.dimensions_of("x")
        table = db.table("x")
        baseline_scale = table.row_scale

        db.reset_clock()
        compute_nlq_udf(db, "x", dims)
        at_n = db.simulated_time

        table.row_scale = baseline_scale * 2  # same data, double nominal n
        db.reset_clock()
        compute_nlq_udf(db, "x", dims)
        at_2n = db.simulated_time
        table.row_scale = baseline_scale
        db.reset_clock()

        marginal = at_2n - at_n  # pure per-row cost of n extra rows
        scan = Work()
        scan.scan(table.nominal_rows, table.width)
        one_scan = simulate(scan, db.cost.params)
        assert marginal < 30 * one_scan
        # And the fixed part did not double: far from two full passes.
        assert at_2n < 2 * at_n

    def test_score_output_row_per_input_row(self, pipeline):
        miner, _sample, _tmp = pipeline
        model = miner.linear_regression("x")
        scorer = miner.scorer("x")
        scorer.store_regression(model)
        result = scorer.score_regression("udf")
        assert len(result) == miner.db.table("x").row_count

    def test_simulated_times_deterministic(self, pipeline):
        miner, _sample, _tmp = pipeline
        dims = miner.dimensions_of("x")
        first = miner.db.execute(
            NlqSqlGenerator("x", dims).long_query_sql()
        ).simulated_seconds
        second = miner.db.execute(
            NlqSqlGenerator("x", dims).long_query_sql()
        ).simulated_seconds
        assert first == second
