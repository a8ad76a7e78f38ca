"""``score_scan``: apply fitted models to every row.

Scoring returns n rows, so projection, the ``compute_batch`` kernels,
result-row building and (for ``into=``) INSERT…SELECT dominate and
accumulate is zero.  The inline-literal statements carry the model as
long literal lists (parse and plan show); the stored-model statements
join X with the model tables and run row-wise, which sets the tail.
"""

from __future__ import annotations

import numpy as np

from repro import Database, WarehouseMiner
from repro.core.models.naive_bayes import NaiveBayesModel
from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.dbms.schema import dataset_schema

import datagen
from harness import CheckFailed, OpType, expect_close, expect_equal
from workload import Workload

N_ROWS = 15_000
D = 8
K = 4
PCA_K = 3


def by_id(result, columns: int) -> "tuple[np.ndarray, np.ndarray]":
    """(ids, values) of a scoring result whose first column is the id."""
    rows = np.asarray(result.rows, dtype=float).reshape(-1, 1 + columns)
    return rows[:, 0].astype(int), rows[:, 1:]


class ScoreScan(Workload):
    name = "score_scan"
    cycle_seconds = 2.5

    def generate(self) -> None:
        self.data = datagen.mixture(self.rng, self.rows(N_ROWS), D)
        # Class labels for the classifier: which third of the x1 range.
        self.labels = np.digitize(self.data.X[:, 0], [35.0, 65.0]) + 1
        self.where_cut = float(np.median(self.data.X[:, 0]))

    # -------------------------------------------------------------- set-up
    def setup(self) -> None:
        db = self.db = Database(amps=16, executor_workers=1)
        miner = WarehouseMiner(db)
        db.create_table("x", dataset_schema(D, with_y=True))
        self.timed_load(
            "bulk", self.data.n,
            lambda: db.load_columns("x", self.data.columns()),
        )
        X = self.data.X
        reg = miner.linear_regression("x")
        pca = miner.pca("x", k=PCA_K)
        km = miner.kmeans("x", k=K, max_iterations=3, method="fused")
        nb = NaiveBayesModel.fit_matrix(X, self.labels)
        scorer = miner.scorer("x")
        scorer.store_regression(reg)

        # References: the fitted parameters applied in numpy float64.
        self.ref_yhat = reg.intercept + X @ reg.coefficients
        loadings = pca.components / pca.scale[:, None]
        self.ref_factors = (X - pca.mean) @ loadings
        distances = ((X[:, None, :] - km.centroids[None]) ** 2).sum(axis=2)
        self.ref_cluster = distances.argmin(axis=1) + 1
        self.ref_margin = np.sort(distances, axis=1)
        inverse = 1.0 / nb.variances
        biases = (
            np.log(nb.priors)
            - 0.5 * np.log(nb.variances).sum(axis=1)
            - 0.5 * D * np.log(2.0 * np.pi)
        )
        joint = biases - 0.5 * (
            (X[:, None, :] - nb.means[None]) ** 2 * inverse[None]
        ).sum(axis=2)
        self.ref_class = joint.argmax(axis=1) + 1
        self.where_ids = self.data.ids[X[:, 0] > self.where_cut]
        # The predicate's cut sits midway between two adjacent scores, so
        # last-bit differences cannot move a row across it.
        ordered = np.sort(self.ref_yhat)
        top = int(0.98 * len(ordered))
        self.filter_cut = float((ordered[top - 1] + ordered[top]) / 2.0)
        self.filter_ids = self.data.ids[self.ref_yhat > self.filter_cut]

        gen = ScoringSqlGenerator("x", miner.dimensions_of("x"), "i")
        reg_sql = gen.regression_inline_sql(reg.intercept, reg.coefficients)
        score_call = reg_sql[reg_sql.index("linearregscore("):
                             reg_sql.index(" AS yhat")]
        statements = {
            "score_inline_linreg": reg_sql,
            "score_inline_fa": gen.pca_inline_sql(pca.mean, loadings.T),
            "score_inline_cluster": gen.clustering_inline_sql(km.centroids),
            "score_inline_classify": gen.naive_bayes_inline_sql(
                nb.means, inverse, biases),
            "score_inline_where": f"{reg_sql} WHERE t.x1 > {self.where_cut!r}",
            "score_filter_udf": (
                f"SELECT t.i AS i FROM x t "
                f"WHERE {score_call} > {self.filter_cut!r}"
            ),
        }
        n = self.data.n

        def sql_op(name: str, count: int, check) -> OpType:
            sql = statements[name]
            return OpType(name, count, n, lambda k: db.execute(sql), check)

        self.ops = [
            sql_op("score_inline_linreg", 25, self.check_yhat),
            sql_op("score_inline_fa", 20, self.check_factors),
            sql_op("score_inline_cluster", 20, self.check_cluster),
            sql_op("score_inline_classify", 15, self.check_class),
            sql_op("score_inline_where", 7, self.check_where),
            sql_op("score_filter_udf", 6, self.check_filter),
            OpType("score_stored_udf", 8, n,
                   lambda k: scorer.score_regression("udf"), self.check_yhat),
            OpType("score_stored_sql", 3, n,
                   lambda k: scorer.score_regression("sql"), self.check_yhat),
            OpType("score_stored_into", 2, n,
                   lambda k: scorer.score_regression("udf", into="x_scored"),
                   self.check_into),
        ]

    # -------------------------------------------------------------- checks
    def check_yhat(self, result, k: int) -> None:
        ids, values = by_id(result, 1)
        if len(ids) != self.data.n:
            raise CheckFailed(f"{len(ids)} rows scored, expected {self.data.n}")
        expect_close("yhat", values[:, 0], self.ref_yhat[ids - 1], 1e-9)

    def check_factors(self, result, k: int) -> None:
        ids, values = by_id(result, PCA_K)
        if len(ids) != self.data.n:
            raise CheckFailed(f"{len(ids)} rows scored, expected {self.data.n}")
        expect_close("factors", values, self.ref_factors[ids - 1], 1e-9)

    def check_cluster(self, result, k: int) -> None:
        ids, values = by_id(result, 1)
        if len(ids) != self.data.n:
            raise CheckFailed(f"{len(ids)} rows scored, expected {self.data.n}")
        got = values[:, 0].astype(int)
        wrong = got != self.ref_cluster[ids - 1]
        # A row whose two nearest centroids tie to the last bits may go
        # either way; anything else must match the arg-min.
        margin = self.ref_margin[ids - 1]
        tie = margin[:, 1] - margin[:, 0] <= 1e-9 * margin[:, 1]
        if np.any(wrong & ~tie):
            raise CheckFailed("cluster: differs from the nearest centroid")

    def check_class(self, result, k: int) -> None:
        ids, values = by_id(result, 1)
        if len(ids) != self.data.n:
            raise CheckFailed(f"{len(ids)} rows scored, expected {self.data.n}")
        expect_equal("class", values[:, 0].astype(int), self.ref_class[ids - 1])

    def check_where(self, result, k: int) -> None:
        ids, values = by_id(result, 1)
        expect_equal("where ids", np.sort(ids), self.where_ids)
        expect_close("where yhat", values[:, 0], self.ref_yhat[ids - 1], 1e-9)

    def check_filter(self, result, k: int) -> None:
        ids = np.sort(np.asarray(result.rows, dtype=int).reshape(-1))
        expect_equal("filter ids", ids, self.filter_ids)

    def check_into(self, result, k: int) -> None:
        scored = self.db.table("x_scored").numeric_matrix(["i", "yhat"])
        if len(scored) != self.data.n:
            raise CheckFailed(f"{len(scored)} rows stored, expected {self.data.n}")
        ids = scored[:, 0].astype(int)
        expect_close("stored yhat", scored[:, 1], self.ref_yhat[ids - 1], 1e-9)
