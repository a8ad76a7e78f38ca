"""A Teradata-Warehouse-Miner-style client.

TWM, in the paper, is the client program that "automatically generates
SQL code based on user-specified parameters" and combines SQL queries,
UDFs and mathematical libraries.  :class:`WarehouseMiner` plays that
role here: it owns (or attaches to) a :class:`~repro.dbms.Database`,
registers the UDFs, generates the summary/scoring SQL, and builds the
four statistical models from the summaries — the complete build-and-
score workflow of the paper in a few method calls.  The clustering
builders only pick the source (a table or a star) and what runs each
iteration; the iteration loops live on the models
(:meth:`KMeansModel.iterate`, :meth:`GaussianMixtureModel.iterate_fused`).

    miner = WarehouseMiner()
    miner.load_synthetic("x", n=10_000, d=8)
    model = miner.kmeans("x", k=4)          # one fused scan per iteration
    scores = miner.scorer("x").score_clustering(4)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.blockwise import NlqBlockUdf, compute_nlq_blockwise
from repro.core.fused import assignment_expression
from repro.core.models.correlation import CorrelationModel
from repro.core.models.em_mixture import GaussianMixtureModel
from repro.core.models.factor_analysis import FactorAnalysisModel
from repro.core.models.kmeans import (
    SEED_SAMPLE_CAP,
    KMeansModel,
    _plus_plus_init,
    _seed_centroids_dbms,
    fused_groups,
)
from repro.core.models.pca import PCAModel
from repro.core.models.regression import LinearRegressionModel
from repro.core.nlq_udf import (
    DEFAULT_MAX_D,
    compute_nlq_udf,
    compute_nlq_udf_groups,
    nlq_call_sql,
    register_nlq_udfs,
)
from repro.core.scoring.scorer import ModelScorer
from repro.core.scoring.udfs import register_scoring_udfs
from repro.core.sqlgen import NlqSqlGenerator
from repro.core.summary import AugmentedSummary, MatrixType, SummaryStatistics
from repro.dbms.database import Database
from repro.errors import ModelError
from repro.twm.star import StarSchema, reservoir_sample_star
from repro.workloads.generator import DatasetSample, MixtureSpec, load_dataset

#: sources every model builder accepts: a table name, or a normalized
#: star schema (trained through the factorized-join path, join never
#: materialized — see docs/factorized_learning.md)
Source = "str | StarSchema"


class WarehouseMiner:
    """High-level build-and-score client over the DBMS substrate."""

    def __init__(self, db: Database | None = None, amps: int = 20) -> None:
        self.db = db or Database(amps=amps)
        register_nlq_udfs(self.db)
        register_scoring_udfs(self.db)
        self.db.register_udf(NlqBlockUdf())

    # ----------------------------------------------------------------- data
    def load_synthetic(
        self,
        name: str,
        n: int,
        d: int,
        with_y: bool = False,
        row_scale: float = 1.0,
        **spec_overrides: float,
    ) -> DatasetSample:
        """Create and load the paper's synthetic mixture data set."""
        spec = MixtureSpec(d=d, **spec_overrides)
        return load_dataset(self.db, name, n, spec, with_y, row_scale)

    def star(
        self,
        fact: str,
        dims: Sequence[str],
        keys: "Sequence[tuple[str, str]]",
        **kwargs,
    ) -> StarSchema:
        """A ``(fact, dims, keys)`` star spec usable wherever a table
        name is (correlation/pca/regression/factor_analysis and the
        fused clustering builders) — trained without materializing the
        join.  *keys* pairs each dimension table with its ``(fact_fk,
        dim_pk)`` columns."""
        return StarSchema.of(fact, dims, keys, **kwargs)

    def dimensions_of(self, table: "str | StarSchema") -> list[str]:
        """The dimension columns of a data-set table: numeric columns
        excluding the point id and a dependent variable ``y``.  For a
        star schema: the qualified fact measures plus every dimension
        arm's features."""
        if isinstance(table, StarSchema):
            return table.feature_columns(self.db)
        schema = self.db.table(table).schema
        excluded = {"y"}
        if schema.primary_key is not None:
            excluded.add(schema.primary_key.lower())
        return [
            name
            for name in schema.numeric_columns()
            if name.lower() not in excluded
        ]

    # ------------------------------------------------------------- summaries
    def summarize(
        self,
        table: "str | StarSchema",
        dimensions: Sequence[str] | None = None,
        matrix_type: MatrixType = MatrixType.TRIANGULAR,
        method: str = "udf",
        passing: str = "list",
    ) -> SummaryStatistics:
        """One-scan (n, L, Q) via the aggregate UDF (default) or SQL.

        Dimensionality beyond the UDF's MAX_d automatically switches to
        the block-partitioned route of Table 6.  A :class:`StarSchema`
        source computes the same (n, L, Q) over the joined star without
        materializing the join — one scan per base table.
        """
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        if isinstance(table, StarSchema):
            if method != "udf" or passing != "list":
                raise ModelError(
                    "star-schema summaries run through the list-form "
                    "aggregate UDF (the factorized-join route); got "
                    f"method={method!r}, passing={passing!r}"
                )
            if len(dims) > DEFAULT_MAX_D:
                raise ModelError(
                    f"star-schema summaries support up to d="
                    f"{DEFAULT_MAX_D} features (got {len(dims)})"
                )
            return compute_nlq_udf(
                self.db, table.from_sql(), dims, matrix_type, passing
            )
        if method == "sql":
            return NlqSqlGenerator(table, dims).compute(self.db, matrix_type)
        if method != "udf":
            raise ModelError(f"unknown summary method {method!r}")
        if len(dims) > DEFAULT_MAX_D:
            return compute_nlq_blockwise(self.db, table, dims)
        return compute_nlq_udf(self.db, table, dims, matrix_type, passing)

    def summarize_groups(
        self,
        table: str,
        group_by: str,
        dimensions: Sequence[str] | None = None,
        matrix_type: MatrixType = MatrixType.DIAGONAL,
    ) -> "dict[object, SummaryStatistics]":
        """Per-group (n, L, Q) — the paper's sub-model query (Table 5):
        one GROUP BY aggregate scan yields a separate summary per value
        of *group_by* (a column or expression)."""
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        return compute_nlq_udf_groups(self.db, table, dims, group_by, matrix_type)

    def sub_models(
        self,
        table: str,
        group_by: str,
        technique: str = "correlation",
        dimensions: Sequence[str] | None = None,
        **model_kwargs,
    ) -> "dict[object, object]":
        """One model per group from a single GROUP BY scan.

        The paper motivates the GROUP BY aggregate UDF with "get several
        sub-models from the same data set based on different grouping
        columns"; this is that workflow.  *technique* is ``correlation``
        or ``pca`` (both need only a group's (n, L, Q)); groups whose
        summaries cannot support the model (too few rows, zero variance)
        are skipped rather than failing the whole batch.
        """
        if technique not in ("correlation", "pca"):
            raise ModelError(
                f"unsupported sub-model technique {technique!r} "
                "(correlation, pca)"
            )
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        groups = self.summarize_groups(
            table, group_by, dims, MatrixType.TRIANGULAR
        )
        models: dict[object, object] = {}
        for key, stats in groups.items():
            try:
                if technique == "correlation":
                    models[key] = CorrelationModel.from_summary(stats, dims)
                else:
                    models[key] = PCAModel.from_summary(
                        stats, **{"k": min(2, stats.d), **model_kwargs}
                    )
            except ModelError:
                continue
        return models

    def profile(
        self, table: str, dimensions: Sequence[str] | None = None
    ) -> "dict[str, object]":
        """Per-dimension mean/variance/extrema from one scan (the UDF's
        min/max tracking, used for outliers and histograms)."""
        from repro.core.profiling import profile_table

        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        return profile_table(self.db, table, dims)

    # ---------------------------------------------------------------- models
    def correlation(
        self,
        table: "str | StarSchema",
        dimensions: Sequence[str] | None = None,
        **kwargs,
    ) -> CorrelationModel:
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        stats = self.summarize(table, dims, **kwargs)
        return CorrelationModel.from_summary(stats, dims)

    def linear_regression(
        self,
        table: "str | StarSchema",
        target: str = "y",
        dimensions: Sequence[str] | None = None,
        method: str = "udf",
    ) -> LinearRegressionModel:
        """Fit Y = βᵀX + β₀ from one scan over Z = (1, X, Y).

        The constant dimension is passed as the literal ``1.0`` in the
        generated query, so Q′ = Z Zᵀ comes out of the same aggregate.
        Over a :class:`StarSchema` the target must be a qualified fact
        column (e.g. ``"sales.amount"``) and the single scan becomes
        one factorized scan per base table.
        """
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        if isinstance(table, StarSchema):
            if "." not in target:
                target = f"{table.fact}.{target}"
            dims = [dim for dim in dims if dim.lower() != target.lower()]
            augmented_dims = ["1.0", *dims, target]
            if method != "udf":
                raise ModelError(
                    "star-schema regression runs through the aggregate "
                    f"UDF; got method={method!r}"
                )
            stats = compute_nlq_udf(self.db, table.from_sql(), augmented_dims)
            return LinearRegressionModel.from_summary(AugmentedSummary(stats))
        augmented_dims = ["1.0", *dims, target]
        if method == "sql":
            stats = NlqSqlGenerator(table, augmented_dims).compute(
                self.db, MatrixType.TRIANGULAR
            )
        else:
            stats = compute_nlq_udf(self.db, table, augmented_dims)
        return LinearRegressionModel.from_summary(AugmentedSummary(stats))

    def pca(
        self,
        table: "str | StarSchema",
        k: int,
        dimensions: Sequence[str] | None = None,
        use_correlation: bool = True,
        **kwargs,
    ) -> PCAModel:
        stats = self.summarize(table, dimensions, **kwargs)
        return PCAModel.from_summary(stats, k, use_correlation)

    def factor_analysis(
        self,
        table: "str | StarSchema",
        k: int,
        dimensions: Sequence[str] | None = None,
        **kwargs,
    ) -> FactorAnalysisModel:
        stats = self.summarize(table, dimensions, **kwargs)
        return FactorAnalysisModel.from_summary(stats, k)

    def build_all_models(
        self,
        table: str,
        target: str = "y",
        k: int = 2,
        dimensions: Sequence[str] | None = None,
    ) -> "dict[str, object]":
        """Correlation + PCA + factor analysis + regression, ONE scan.

        All four techniques consume sufficient statistics, so their four
        summary statements are batched through
        :meth:`~repro.dbms.database.Database.execute_batch`: the rewrite
        pass proves they share a scan of *table* (three are the *same*
        statement and collapse to one accumulation; regression's
        augmented Z = (1, X, y) summary rides the same pass), and each
        model comes out bit-identical to its serial build.

        Returns ``{"correlation", "pca", "factor_analysis",
        "regression"}``.
        """
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        augmented = ["1.0", *dims, target]
        if len(dims) > DEFAULT_MAX_D or len(augmented) > DEFAULT_MAX_D:
            raise ModelError(
                f"build_all_models supports up to d={DEFAULT_MAX_D - 2} "
                f"dimensions (got {len(dims)})"
            )
        statements = [
            nlq_call_sql(table, dims),       # correlation
            nlq_call_sql(table, dims),       # pca — same summary
            nlq_call_sql(table, dims),       # factor analysis — same
            nlq_call_sql(table, augmented),  # regression over Z
        ]
        results = self.db.execute_batch(statements)
        decision = self.db._executor.last_batch_decision
        if decision is None or not decision.consolidated:
            reason = decision.reason if decision is not None else "no decision"
            raise ModelError(
                f"expected a consolidated multi-model scan of {table!r}; "
                f"rewrite refused: {reason}"
            )

        def stats_of(result, width: int) -> SummaryStatistics:
            payload = result.scalar()
            if payload is None:
                return SummaryStatistics.zeros(width, MatrixType.TRIANGULAR)
            from repro.core.packing import unpack_summary

            return unpack_summary(payload)

        base = stats_of(results[0], len(dims))
        augmented_stats = stats_of(results[3], len(augmented))
        return {
            "correlation": CorrelationModel.from_summary(base, dims),
            "pca": PCAModel.from_summary(base, k),
            "factor_analysis": FactorAnalysisModel.from_summary(base, k),
            "regression": LinearRegressionModel.from_summary(
                AugmentedSummary(augmented_stats)
            ),
        }

    def kmeans(
        self,
        table: "str | StarSchema",
        k: int,
        dimensions: Sequence[str] | None = None,
        max_iterations: int = 10,
        tolerance: float = 1e-4,
        seed: int = 0,
        method: str = "fused",
    ) -> KMeansModel:
        """K-means driven entirely through the DBMS.

        Seeds come from a bounded NULL-filtered reservoir sample; each
        iteration of :meth:`KMeansModel.iterate` is then one aggregate
        scan returning per-cluster (N_j, L_j, Q_j) for the nearest
        current centroid.  *method* selects that scan:

        * ``"fused"`` — the ``kmeansiter`` aggregate UDF fuses assignment
          and per-cluster summaries (see ``docs/clustering.md``); the
          only route over a :class:`StarSchema`, join never materialized;
        * ``"udf"`` — the GROUP BY reference the fused route is pinned
          against bitwise: group by ``clusterscore(kmeansdistance(...),
          ...)`` and aggregate with the diagonal nLQ UDF;
        * ``"sql"`` — no UDFs at all: the nearest centroid is a generated
          CASE over inline distance expressions and the summaries come
          from the plain-SQL GROUP BY query (the route of the author's
          SQL K-means work, reference [15] of the paper).
        """
        if method not in ("fused", "udf", "sql"):
            raise ModelError(f"unknown kmeans method {method!r}")
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        if isinstance(table, StarSchema):
            if method != "fused":
                raise ModelError(
                    "star-schema k-means runs through the fused "
                    f"kmeansiter UDF; got method={method!r}"
                )
            sample = reservoir_sample_star(
                self.db, table, dims, cap=SEED_SAMPLE_CAP, seed=seed
            )
            if sample.shape[0] < k:
                raise ModelError(
                    f"star over {table.fact!r} joins {sample.shape[0]} "
                    f"complete rows over {dims}; need >= k={k}"
                )
            centroids = _plus_plus_init(sample, k, np.random.default_rng(seed))
            groups_of = fused_groups(self.db, table.from_sql(), dims)
        else:
            centroids = _seed_centroids_dbms(self.db, table, dims, k, seed)
            if method == "fused":
                groups_of = fused_groups(self.db, table, dims)
            elif method == "udf":
                def groups_of(current):
                    return compute_nlq_udf_groups(
                        self.db, table, dims,
                        assignment_expression(dims, current),
                        MatrixType.DIAGONAL,
                    )
            else:
                def groups_of(current):
                    return NlqSqlGenerator(table, dims).compute_groups(
                        self.db,
                        self._assignment_case_expression(dims, current),
                        MatrixType.DIAGONAL,
                    )
        return KMeansModel.iterate(
            centroids, groups_of, max_iterations, tolerance
        )

    def naive_bayes(
        self,
        table: str,
        label: str = "label",
        dimensions: Sequence[str] | None = None,
    ) -> "NaiveBayesModel":
        """Gaussian Naive Bayes from one GROUP BY aggregate query.

        *label* is the integer class column; per-class (N, L, Q-diag)
        summaries are gathered with the diagonal nLQ UDF grouped by it —
        the sufficient-statistics classification route of [9].
        """
        from repro.core.models.naive_bayes import NaiveBayesModel

        dims = list(dimensions) if dimensions is not None \
            else [d for d in self.dimensions_of(table) if d != label]
        groups = compute_nlq_udf_groups(
            self.db, table, dims, label, MatrixType.DIAGONAL
        )
        return NaiveBayesModel.from_class_summaries(
            self._class_summaries(groups, label)
        )

    def lda(
        self,
        table: str,
        label: str = "label",
        dimensions: Sequence[str] | None = None,
    ) -> "LdaModel":
        """Linear discriminant analysis from one GROUP BY query with a
        triangular Q (the pooled covariance needs cross-products)."""
        from repro.core.models.lda import LdaModel

        dims = list(dimensions) if dimensions is not None \
            else [d for d in self.dimensions_of(table) if d != label]
        groups = compute_nlq_udf_groups(
            self.db, table, dims, label, MatrixType.TRIANGULAR
        )
        return LdaModel.from_class_summaries(
            self._class_summaries(groups, label)
        )

    def gaussian_mixture(
        self,
        table: "str | StarSchema",
        k: int,
        dimensions: Sequence[str] | None = None,
        method: str = "matrix",
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        variance_floor: float = 1e-6,
        seed: int = 0,
    ) -> GaussianMixtureModel:
        """EM clustering on the table's points.

        ``method="matrix"`` runs the in-memory reference fit;
        ``method="fused"`` drives the DBMS with one fused ``emiter``
        scan per iteration (see ``docs/clustering.md``).  A
        :class:`StarSchema` source requires ``method="fused"``: it
        initializes from a bounded joined reservoir sample instead of
        the (never materialized) wide matrix and runs each scan
        factorized over the base tables."""
        if method not in ("matrix", "fused"):
            raise ModelError(f"unknown gaussian_mixture method {method!r}")
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        fit = dict(
            max_iterations=max_iterations,
            tolerance=tolerance,
            variance_floor=variance_floor,
        )
        if isinstance(table, StarSchema):
            if method != "fused":
                raise ModelError(
                    "star-schema EM runs through the fused emiter UDF; "
                    f"got method={method!r}"
                )
            sample = reservoir_sample_star(
                self.db, table, dims, cap=SEED_SAMPLE_CAP, seed=seed
            )
            initial = GaussianMixtureModel.initial(
                sample, k, variance_floor, seed
            )
            return GaussianMixtureModel.iterate_fused(
                self.db, table.from_sql(), dims, initial, None, **fit
            )
        if method == "fused":
            return GaussianMixtureModel.fit_dbms(
                self.db, table, dims, k, seed=seed, **fit
            )
        matrix = self.db.table(table).numeric_matrix(dims)
        return GaussianMixtureModel.fit_matrix(matrix, k, seed=seed, **fit)

    # --------------------------------------------------------------- scoring
    def scorer(
        self, table: str, dimensions: Sequence[str] | None = None
    ) -> ModelScorer:
        dims = list(dimensions) if dimensions is not None \
            else self.dimensions_of(table)
        id_column = self.db.table(table).schema.primary_key or "i"
        return ModelScorer(self.db, table, dims, id_column)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _class_summaries(
        groups: "dict[object, SummaryStatistics]", label: str
    ) -> "dict[int, SummaryStatistics]":
        """Per-class summaries keyed by validated integer class.

        NULL labels are skipped (matching the NULL-skip semantics of the
        aggregate UDF itself — an unlabeled row belongs to no class);
        any non-integral label is a clear :class:`ModelError` instead of
        a ``TypeError``/silent truncation deep in ``int()``.
        """
        summaries: dict[int, SummaryStatistics] = {}
        for key, stats in groups.items():
            # NULL labels group under None on the row path and NaN on
            # the vector path; both mean "unlabeled row".
            if key is None or (isinstance(key, float) and np.isnan(key)):
                continue
            if isinstance(key, bool) or not isinstance(key, (int, float)):
                raise ModelError(
                    f"label column {label!r} must hold integer classes; "
                    f"got {key!r}"
                )
            if isinstance(key, float):
                if not key.is_integer():
                    raise ModelError(
                        f"label column {label!r} must hold integer "
                        f"classes; got non-integral value {key!r}"
                    )
                key = int(key)
            summaries[key] = stats
        return summaries

    @staticmethod
    def _assignment_case_expression(
        dimensions: Sequence[str], centroids: np.ndarray
    ) -> str:
        """Nearest-centroid subscript as pure SQL arithmetic: inline
        squared-distance expressions compared pairwise inside a CASE."""
        distance_exprs = []
        for centroid in centroids:
            terms = [
                f"({dim} - {float(value)!r}) * ({dim} - {float(value)!r})"
                for dim, value in zip(dimensions, centroid)
            ]
            distance_exprs.append("(" + " + ".join(terms) + ")")
        k = len(distance_exprs)
        whens = []
        for j in range(k):
            conditions = [
                f"{distance_exprs[j]} <= {distance_exprs[other]}"
                for other in range(k)
                if other != j
            ]
            condition = " AND ".join(conditions) if conditions else "1 = 1"
            whens.append(f"WHEN {condition} THEN {j + 1}")
        return f"CASE {' '.join(whens)} END"
