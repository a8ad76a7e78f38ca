"""Scoring query generation: UDF calls vs. plain SQL expressions.

For each model the paper compares two single-statement scoring routes
(Section 3.5 / Table 4):

* **UDF route** — the scoring UDFs of :mod:`repro.core.scoring.udfs`
  applied after cross-joining X with the (tiny) model tables;
* **SQL route** — the model equation spelled out as an arithmetic
  expression; for clustering this needs a derived table (the paper's
  "two scans on a pivoted version of X") because the arg-min over k
  distance expressions is a second pass of CASE comparisons.

The generator only produces SQL text; model tables must exist in the
layouts written by :class:`repro.core.scoring.scorer.ModelScorer`.

A third route — the ``*_inline_sql`` variants — embeds the (tiny) model
as SQL literals instead of cross-joining model tables.  The statement
then reads exactly one stored table, which is the shape the block-wise
execution path (:mod:`repro.dbms.sql.vectorized`) accepts; the
row-vs-vector scoring benchmark and parity tests use these.  Float
parameters are rendered with ``repr`` (shortest round-trip form), so the
literal re-parses to the identical double and both routes score with the
same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def _lit(value: float) -> str:
    """A float literal that re-parses to the identical double."""
    return repr(float(value))


@dataclass
class ScoringSqlGenerator:
    """Generates scoring statements for one data-set table.

    ``table`` is the data set ``X(i, x1..xd)``; ``dimensions`` its
    dimension columns; ``id_column`` the point identifier carried into
    the scored output.
    """

    table: str
    dimensions: Sequence[str]
    id_column: str = "i"

    @property
    def d(self) -> int:
        return len(self.dimensions)

    def inline_sql(
        self,
        kernel: str,
        rows: Sequence[Sequence[float]],
        combine: "str | None",
        alias: str,
    ) -> str:
        """``combine(kernel(xs, lits_1), …, kernel(xs, lits_g)) AS alias``
        with row j of *rows* inlined as group j's literals (one bare
        ``kernel`` call when *combine* is None) — the one emitter behind
        every ``*_inline_sql`` scoring route and serving's EXPLAIN."""
        xs = ", ".join(f"t.{dim}" for dim in self.dimensions)
        calls = [
            f"{kernel}({xs}, {', '.join(_lit(v) for v in row)})" for row in rows
        ]
        score = calls[0] if combine is None else f"{combine}({', '.join(calls)})"
        return (
            f"SELECT t.{self.id_column} AS {self.id_column}, "
            f"{score} AS {alias} FROM {self.table} t"
        )

    # ------------------------------------------------------------ regression
    def regression_udf_sql(self, beta_table: str = "beta") -> str:
        """ŷ via ``linearregscore``; BETA(b0, b1..bd) is one row."""
        xs = ", ".join(f"t.{dim}" for dim in self.dimensions)
        bs = ", ".join(f"b.b{a}" for a in range(self.d + 1))
        return (
            f"SELECT t.{self.id_column} AS {self.id_column}, "
            f"linearregscore({xs}, {bs}) AS yhat "
            f"FROM {self.table} t CROSS JOIN {beta_table} b"
        )

    def regression_expression_sql(self, beta_table: str = "beta") -> str:
        """ŷ via a generated arithmetic expression."""
        terms = ["b.b0"]
        terms.extend(
            f"b.b{a + 1} * t.{dim}" for a, dim in enumerate(self.dimensions)
        )
        return (
            f"SELECT t.{self.id_column} AS {self.id_column}, "
            f"{' + '.join(terms)} AS yhat "
            f"FROM {self.table} t CROSS JOIN {beta_table} b"
        )

    def regression_inline_sql(
        self, intercept: float, coefficients: Sequence[float]
    ) -> str:
        """ŷ via ``linearregscore`` with the model inlined as literals —
        a single-table statement the block-wise path can run."""
        if len(coefficients) != self.d:
            raise ValueError(
                f"{self.d} dimensions need {self.d} coefficients, "
                f"got {len(coefficients)}"
            )
        return self.inline_sql(
            "linearregscore", [[intercept, *coefficients]], None, "yhat"
        )

    # ------------------------------------------------------------------- PCA
    def _lambda_joins(self, k: int, lambda_table: str) -> str:
        """Join LAMBDA k times with aliasing, one alias per component j —
        the paper's 'X is cross-joined with LAMBDA k times'."""
        return " ".join(
            f"JOIN {lambda_table} l{j} ON l{j}.j = {j}" for j in range(1, k + 1)
        )

    def pca_udf_sql(
        self, k: int, lambda_table: str = "lambda_", mu_table: str = "mu"
    ) -> str:
        """x′ via k ``fascore`` calls in one SELECT."""
        xs = ", ".join(f"t.{dim}" for dim in self.dimensions)
        mus = ", ".join(f"m.{dim}" for dim in self.dimensions)
        items = [f"t.{self.id_column} AS {self.id_column}"]
        for j in range(1, k + 1):
            lambdas = ", ".join(f"l{j}.{dim}" for dim in self.dimensions)
            items.append(f"fascore({xs}, {mus}, {lambdas}) AS f{j}")
        return (
            f"SELECT {', '.join(items)} FROM {self.table} t "
            f"CROSS JOIN {mu_table} m {self._lambda_joins(k, lambda_table)}"
        )

    def pca_expression_sql(
        self, k: int, lambda_table: str = "lambda_", mu_table: str = "mu"
    ) -> str:
        """x′ via k generated Σ (xa − µa)·Λaj expressions."""
        items = [f"t.{self.id_column} AS {self.id_column}"]
        for j in range(1, k + 1):
            terms = [
                f"(t.{dim} - m.{dim}) * l{j}.{dim}" for dim in self.dimensions
            ]
            items.append(f"{' + '.join(terms)} AS f{j}")
        return (
            f"SELECT {', '.join(items)} FROM {self.table} t "
            f"CROSS JOIN {mu_table} m {self._lambda_joins(k, lambda_table)}"
        )

    def pca_inline_sql(
        self, mu: Sequence[float], components: Sequence[Sequence[float]]
    ) -> str:
        """x′ via ``fascore`` calls with µ and Λ inlined as literals."""
        if len(mu) != self.d:
            raise ValueError(f"mu needs {self.d} values, got {len(mu)}")
        xs = ", ".join(f"t.{dim}" for dim in self.dimensions)
        mus = ", ".join(_lit(m) for m in mu)
        items = [f"t.{self.id_column} AS {self.id_column}"]
        for j, component in enumerate(components, start=1):
            if len(component) != self.d:
                raise ValueError(
                    f"component {j} needs {self.d} values, "
                    f"got {len(component)}"
                )
            lambdas = ", ".join(_lit(value) for value in component)
            items.append(f"fascore({xs}, {mus}, {lambdas}) AS f{j}")
        return f"SELECT {', '.join(items)} FROM {self.table} t"

    # --------------------------------------------------------- classification
    def _label_case(self, index_expr: str, labels: Sequence[int]) -> str:
        """Map the 1-based arg-max index back to the class labels."""
        whens = " ".join(
            f"WHEN {index_expr} = {j} THEN {int(label)}"
            for j, label in enumerate(labels, start=1)
        )
        return f"CASE {whens} END"

    def lda_udf_sql(
        self, labels: Sequence[int], discriminant_table: str = "disc"
    ) -> str:
        """Predicted class via one ``linearregscore`` per class (the
        discriminant is affine) and ``classifyscore`` arg-max — one scan.
        The arg-max index is computed once in a derived table and a CASE
        on the outer level maps it back to the class labels.

        ``discriminant_table`` is DISC(j, b0, x1..xd): row j holds class
        j's bias and weights.
        """
        xs = ", ".join(f"t.{dim}" for dim in self.dimensions)
        scores = []
        for j in range(1, len(labels) + 1):
            ws = ", ".join(f"d{j}.{dim}" for dim in self.dimensions)
            scores.append(f"linearregscore({xs}, d{j}.b0, {ws})")
        joins = " ".join(
            f"JOIN {discriminant_table} d{j} ON d{j}.j = {j}"
            for j in range(1, len(labels) + 1)
        )
        inner = (
            f"SELECT t.{self.id_column} AS {self.id_column}, "
            f"classifyscore({', '.join(scores)}) AS idx "
            f"FROM {self.table} t {joins}"
        )
        return (
            f"SELECT s.{self.id_column} AS {self.id_column}, "
            f"{self._label_case('s.idx', labels)} AS label FROM ({inner}) s"
        )

    def naive_bayes_udf_sql(
        self,
        labels: Sequence[int],
        mean_table: str = "nbmu",
        inverse_variance_table: str = "nbiv",
        bias_table: str = "nbb",
    ) -> str:
        """Predicted class via one ``nbscore`` per class and the arg-max.

        Model layout: NBMU(j, x1..xd) class means, NBIV(j, x1..xd)
        inverse variances, NBB(b1..bk) one row of per-class biases.
        """
        xs = ", ".join(f"t.{dim}" for dim in self.dimensions)
        scores = []
        joins = []
        for j in range(1, len(labels) + 1):
            mus = ", ".join(f"m{j}.{dim}" for dim in self.dimensions)
            ivs = ", ".join(f"v{j}.{dim}" for dim in self.dimensions)
            scores.append(f"nbscore({xs}, {mus}, {ivs}, b.b{j})")
            joins.append(f"JOIN {mean_table} m{j} ON m{j}.j = {j}")
            joins.append(
                f"JOIN {inverse_variance_table} v{j} ON v{j}.j = {j}"
            )
        inner = (
            f"SELECT t.{self.id_column} AS {self.id_column}, "
            f"classifyscore({', '.join(scores)}) AS idx "
            f"FROM {self.table} t CROSS JOIN {bias_table} b "
            f"{' '.join(joins)}"
        )
        return (
            f"SELECT s.{self.id_column} AS {self.id_column}, "
            f"{self._label_case('s.idx', labels)} AS label FROM ({inner}) s"
        )

    def lda_inline_sql(
        self,
        biases: Sequence[float],
        weights: Sequence[Sequence[float]],
    ) -> str:
        """Arg-max class index via inlined-parameter ``linearregscore``
        calls (the LDA discriminant is affine) and ``classifyscore``.

        Like :meth:`naive_bayes_inline_sql` this returns the 1-based
        class *index* — label mapping is not block-compilable — and
        reads exactly one stored table, so the block-wise path accepts
        it.  The serving layer uses it to EXPLAIN what a registry-bound
        LDA model executes.
        """
        if len(biases) != len(weights):
            raise ValueError("biases and weights must align per class")
        for weight in weights:
            if len(weight) != self.d:
                raise ValueError(
                    f"each weight vector needs {self.d} values, "
                    f"got {len(weight)}"
                )
        rows = [[bias, *weight] for bias, weight in zip(biases, weights)]
        return self.inline_sql("linearregscore", rows, "classifyscore", "idx")

    def naive_bayes_inline_sql(
        self,
        means: Sequence[Sequence[float]],
        inverse_variances: Sequence[Sequence[float]],
        biases: Sequence[float],
    ) -> str:
        """Arg-max class index via inlined-parameter ``nbscore`` calls.

        Returns the 1-based class *index* (``idx``) rather than mapping
        back to labels: the CASE label mapping is not block-compilable,
        and the benchmark compares routes on the same output.
        """
        if not (len(means) == len(inverse_variances) == len(biases)):
            raise ValueError("means, inverse_variances, biases must align")
        rows = [
            [*mu, *iv, bias]
            for mu, iv, bias in zip(means, inverse_variances, biases)
        ]
        return self.inline_sql("nbscore", rows, "classifyscore", "idx")

    # ------------------------------------------------------------ clustering
    def _centroid_joins(self, k: int, centroid_table: str) -> str:
        return " ".join(
            f"JOIN {centroid_table} c{j} ON c{j}.j = {j}" for j in range(1, k + 1)
        )

    def clustering_udf_sql(self, k: int, centroid_table: str = "c") -> str:
        """J via ``clusterscore`` over k ``kmeansdistance`` calls — one
        statement, one scan."""
        xs = ", ".join(f"t.{dim}" for dim in self.dimensions)
        distances = []
        for j in range(1, k + 1):
            cs = ", ".join(f"c{j}.{dim}" for dim in self.dimensions)
            distances.append(f"kmeansdistance({xs}, {cs})")
        return (
            f"SELECT t.{self.id_column} AS {self.id_column}, "
            f"clusterscore({', '.join(distances)}) AS j "
            f"FROM {self.table} t {self._centroid_joins(k, centroid_table)}"
        )

    def clustering_inline_sql(self, centroids: Sequence[Sequence[float]]) -> str:
        """J via ``clusterscore`` over inlined-centroid distances — one
        table, one scan, block-compilable."""
        for j, centroid in enumerate(centroids, start=1):
            if len(centroid) != self.d:
                raise ValueError(
                    f"centroid {j} needs {self.d} values, got {len(centroid)}"
                )
        return self.inline_sql("kmeansdistance", centroids, "clusterscore", "j")

    def clustering_expression_sql(self, k: int, centroid_table: str = "c") -> str:
        """J via plain SQL: an inner query materializes the k distances
        (the pivoted pass), and an outer CASE picks the arg-min — the two
        scans the paper attributes to the SQL route."""
        inner_items = [f"t.{self.id_column} AS {self.id_column}"]
        for j in range(1, k + 1):
            terms = [
                f"(t.{dim} - c{j}.{dim}) * (t.{dim} - c{j}.{dim})"
                for dim in self.dimensions
            ]
            inner_items.append(f"{' + '.join(terms)} AS d{j}")
        inner = (
            f"SELECT {', '.join(inner_items)} FROM {self.table} t "
            f"{self._centroid_joins(k, centroid_table)}"
        )
        whens = []
        for j in range(1, k + 1):
            others = [
                f"s.d{j} <= s.d{other}" for other in range(1, k + 1) if other != j
            ]
            condition = " AND ".join(others) if others else "1 = 1"
            whens.append(f"WHEN {condition} THEN {j}")
        case = f"CASE {' '.join(whens)} END"
        return (
            f"SELECT s.{self.id_column} AS {self.id_column}, {case} AS j "
            f"FROM ({inner}) s"
        )
