"""High-level scoring orchestration.

:class:`ModelScorer` stores a fitted model in its relational layout
(BETA / LAMBDA+MU / C+R+W — see :mod:`repro.core.models.base`) and runs
the single-scan scoring statement, via scalar UDFs or generated SQL
expressions.  Scores can be returned or inserted into a scored table,
which is the round trip the paper's introduction describes (score inside
the DBMS instead of exporting, scoring outside and importing back).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.models.base import store_matrix, store_vector
from repro.core.scoring.sqlgen import ScoringSqlGenerator
from repro.core.scoring.udfs import gaussian_score_params
from repro.dbms.database import Database, QueryResult
from repro.dbms.schema import Column, TableSchema
from repro.dbms.types import SqlType
from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only; the models import
    # their ScoringSpec from this package
    from repro.core.models.kmeans import KMeansModel
    from repro.core.models.lda import LdaModel
    from repro.core.models.naive_bayes import NaiveBayesModel
    from repro.core.models.pca import PCAModel
    from repro.core.models.regression import LinearRegressionModel


class ModelScorer:
    """Scores one data-set table against stored models."""

    def __init__(
        self,
        db: Database,
        table: str,
        dimensions: Sequence[str],
        id_column: str = "i",
    ) -> None:
        self._db = db
        self._generator = ScoringSqlGenerator(table, list(dimensions), id_column)

    @property
    def d(self) -> int:
        return self._generator.d

    # ------------------------------------------------------------ regression
    def store_regression(
        self, model: LinearRegressionModel, beta_table: str = "beta"
    ) -> None:
        """BETA(b0, b1, ..., bd): all coefficients in a single row/IO."""
        self._check_d(model.d)
        names = [f"b{a}" for a in range(model.d + 1)]
        store_vector(self._db, beta_table, model.beta, names)

    def score_regression(
        self, method: str = "udf", beta_table: str = "beta", into: str | None = None
    ) -> QueryResult:
        sql = (
            self._generator.regression_udf_sql(beta_table)
            if _uses_udf(method)
            else self._generator.regression_expression_sql(beta_table)
        )
        return self._run(sql, into, [("yhat", SqlType.FLOAT)], [beta_table])

    # ------------------------------------------------------------------- PCA
    def store_pca(
        self,
        model: PCAModel,
        lambda_table: str = "lambda_",
        mu_table: str = "mu",
    ) -> None:
        """LAMBDA(j, x1..xd) with k rows and MU(x1..xd) with one row.

        For correlation-based PCA the per-dimension scale is folded into
        the stored components (Λ′ = Λ / σ), so the scoring equation stays
        the paper's x′ = Λᵀ(x − µ) regardless of how Λ was derived.
        """
        self._check_d(model.d)
        effective = model.components
        if model.scale is not None:
            effective = effective / model.scale[:, None]
        names = list(self._generator.dimensions)
        store_matrix(self._db, lambda_table, effective.T, names)
        store_vector(self._db, mu_table, model.mean, names)

    def score_pca(
        self,
        k: int,
        method: str = "udf",
        lambda_table: str = "lambda_",
        mu_table: str = "mu",
        into: str | None = None,
    ) -> QueryResult:
        sql = (
            self._generator.pca_udf_sql(k, lambda_table, mu_table)
            if _uses_udf(method)
            else self._generator.pca_expression_sql(k, lambda_table, mu_table)
        )
        columns = [(f"f{j}", SqlType.FLOAT) for j in range(1, k + 1)]
        return self._run(sql, into, columns, [lambda_table, mu_table])

    # --------------------------------------------------------- classification
    def store_lda(self, model: "LdaModel", discriminant_table: str = "disc") -> None:
        """DISC(j, b0, x1..xd): class j's discriminant bias and weights."""
        self._check_d(model.d)
        names = ["b0", *self._generator.dimensions]
        matrix = np.column_stack([model.biases, model.weights])
        store_matrix(self._db, discriminant_table, matrix, names)

    def score_lda(
        self,
        model: "LdaModel",
        discriminant_table: str = "disc",
        into: str | None = None,
    ) -> QueryResult:
        """One-scan LDA classification: k linearregscore calls + arg-max."""
        sql = self._generator.lda_udf_sql(model.classes, discriminant_table)
        return self._run(
            sql, into, [("label", SqlType.INTEGER)], [discriminant_table]
        )

    def store_naive_bayes(
        self,
        model: "NaiveBayesModel",
        mean_table: str = "nbmu",
        inverse_variance_table: str = "nbiv",
        bias_table: str = "nbb",
    ) -> None:
        """NBMU/NBIV(j, x1..xd) and NBB(b1..bk), with the log prior and
        normalization folded into the per-class bias."""
        self._check_d(model.d)
        names = list(self._generator.dimensions)
        means, inverse_variances, biases = gaussian_score_params(
            model.means, model.variances, model.priors
        )
        store_matrix(self._db, mean_table, means, names)
        store_matrix(self._db, inverse_variance_table, inverse_variances, names)
        store_vector(
            self._db,
            bias_table,
            biases,
            [f"b{j}" for j in range(1, model.n_classes + 1)],
        )

    def score_naive_bayes(
        self,
        model: "NaiveBayesModel",
        mean_table: str = "nbmu",
        inverse_variance_table: str = "nbiv",
        bias_table: str = "nbb",
        into: str | None = None,
    ) -> QueryResult:
        """One-scan NB classification: k nbscore calls + arg-max."""
        sql = self._generator.naive_bayes_udf_sql(
            model.classes, mean_table, inverse_variance_table, bias_table
        )
        reads = [mean_table, inverse_variance_table, bias_table]
        return self._run(sql, into, [("label", SqlType.INTEGER)], reads)

    # ------------------------------------------------------------ clustering
    def store_clustering(
        self,
        model: KMeansModel,
        centroid_table: str = "c",
        radii_table: str = "r",
        weight_table: str = "w",
    ) -> None:
        """C(j, x1..xd), R(j, x1..xd) and W(w1..wk)."""
        self._check_d(model.d)
        names = list(self._generator.dimensions)
        store_matrix(self._db, centroid_table, model.centroids, names)
        store_matrix(self._db, radii_table, model.radii, names)
        store_vector(
            self._db,
            weight_table,
            model.weights,
            [f"w{j}" for j in range(1, model.k + 1)],
        )

    def score_clustering(
        self,
        k: int,
        method: str = "udf",
        centroid_table: str = "c",
        into: str | None = None,
    ) -> QueryResult:
        sql = (
            self._generator.clustering_udf_sql(k, centroid_table)
            if _uses_udf(method)
            else self._generator.clustering_expression_sql(k, centroid_table)
        )
        return self._run(sql, into, [("j", SqlType.INTEGER)], [centroid_table])

    # -------------------------------------------------------------- plumbing
    def _check_d(self, model_d: int) -> None:
        if model_d != self.d:
            raise ModelError(
                f"model has d={model_d} but the data set has d={self.d}"
            )

    def _run(
        self,
        sql: str,
        into: str | None,
        value_columns: list[tuple[str, SqlType]],
        model_tables: Sequence[str],
    ) -> QueryResult:
        if into is None:
            return self._db.execute(sql)
        # Replacing a table the statement reads would destroy it before
        # the statement runs; refuse before anything is dropped.
        reads = {self._generator.table, *model_tables}
        if into.lower() in {name.lower() for name in reads}:
            raise ModelError(
                f"cannot score into {into!r}: the scoring statement reads it"
            )
        if self._db.catalog.has_table(into):
            self._db.drop_table(into)
        columns = [Column(self._generator.id_column, SqlType.INTEGER, False)]
        columns.extend(Column(name, sql_type) for name, sql_type in value_columns)
        self._db.create_table(
            into, TableSchema(tuple(columns), self._generator.id_column)
        )
        return self._db.execute(f"INSERT INTO {into} {sql}")


def _uses_udf(method: str) -> bool:
    """The scoring route: ``"udf"`` (scalar UDFs) or ``"sql"`` (generated
    arithmetic expressions), the two sides of the paper's Table 4."""
    if method not in ("udf", "sql"):
        raise ModelError(f"method must be 'udf' or 'sql', got {method!r}")
    return method == "udf"


def scores_as_matrix(result: QueryResult, value_columns: int) -> np.ndarray:
    """Extract the score columns of a scoring result as an (n × k) matrix,
    ordered by the id column (first column)."""
    rows = sorted(result.rows, key=lambda row: row[0])
    return np.asarray(
        [[float(v) for v in row[1 : 1 + value_columns]] for row in rows]
    )
