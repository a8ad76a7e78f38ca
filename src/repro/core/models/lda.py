"""Linear discriminant analysis from per-class summary statistics.

LDA needs, per class c, the counts N_c and means µ_c, plus the *pooled
within-class* covariance

    S_w = ( Σ_c [ Q_c − N_c µ_c µ_cᵀ ] ) / (n − C)

— every term of which is a per-class (N, L, Q) with the full/triangular
cross-products.  So a single GROUP BY aggregate query over the training
set (the same query the paper uses for clustering, with a triangular Q)
suffices to build the classifier; another technique that drops out of
the sufficient-statistics framework.

The discriminant for class c is the usual Gaussian-equal-covariance form

    δ_c(x) = xᵀ S_w⁻¹ µ_c − ½ µ_cᵀ S_w⁻¹ µ_c + log prior_c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scoring.udfs import ScoringSpec
from repro.core.summary import MatrixType, SummaryStatistics
from repro.errors import ModelError


@dataclass
class LdaModel:
    """Per-class linear discriminants δ_c(x) = wᵀ_c x + b_c."""

    classes: list[int]
    weights: np.ndarray      # C × d
    biases: np.ndarray       # C
    means: np.ndarray        # C × d
    pooled_covariance: np.ndarray

    @property
    def d(self) -> int:
        return int(self.weights.shape[1])

    # --------------------------------------------------------------- scoring
    registry_kind = "lda"
    registry_parts = ("w", "b", "cls")

    def scoring_parts(self) -> dict:
        """Discriminant weights (j, x1..xd), biases and class labels."""
        arrays = (self.weights, self.biases, self.classes)
        return dict(zip(self.registry_parts, arrays))

    @staticmethod
    def scoring_spec(parts: "dict[str, np.ndarray]") -> ScoringSpec:
        """label = ``classifyscore`` over one affine discriminant
        ``linearregscore(x, b_c, w_c)`` per class."""
        params = np.column_stack([parts["b"], parts["w"]])
        labels = tuple(int(v) for v in parts["cls"])
        d = parts["w"].shape[1]
        return ScoringSpec(
            "linearregscore", params, "classifyscore", d, "label", labels
        )

    @classmethod
    def from_class_summaries(
        cls,
        summaries: "dict[int, SummaryStatistics]",
        regularization: float = 1e-8,
    ) -> "LdaModel":
        """Build from per-class (N_c, L_c, Q_c) with cross-products."""
        if not summaries:
            raise ModelError("no class summaries")
        classes = sorted(summaries)
        first = summaries[classes[0]]
        if first.matrix_type is MatrixType.DIAGONAL:
            raise ModelError(
                "LDA needs cross-products; compute the class summaries "
                "with a triangular or full Q"
            )
        d = first.d
        total = sum(stats.n for stats in summaries.values())
        if total <= len(classes):
            raise ModelError("not enough rows to pool a covariance")

        scatter = np.zeros((d, d))
        means = np.empty((len(classes), d))
        priors = np.empty(len(classes))
        for index, label in enumerate(classes):
            stats = summaries[label]
            if stats.d != d:
                raise ModelError(f"class {label} has d={stats.d}, expected {d}")
            if stats.n < 2:
                raise ModelError(f"class {label} has fewer than 2 rows")
            mu = stats.mean()
            means[index] = mu
            priors[index] = stats.n / total
            # Q_c − N_c µ_c µ_cᵀ is the class's centered scatter matrix.
            scatter += stats.Q - stats.n * np.outer(mu, mu)
        pooled = scatter / (total - len(classes))
        pooled += regularization * np.eye(d) * max(np.trace(pooled) / d, 1.0)

        try:
            solved = np.linalg.solve(pooled, means.T).T  # C × d
        except np.linalg.LinAlgError as exc:
            raise ModelError("pooled covariance is singular") from exc
        biases = -0.5 * np.einsum("cd,cd->c", solved, means) + np.log(priors)
        return cls(classes, solved, biases, means, pooled)

    @classmethod
    def fit_matrix(
        cls, X: np.ndarray, labels: np.ndarray, **kwargs
    ) -> "LdaModel":
        X = np.asarray(X, dtype=float)
        labels = np.asarray(labels)
        summaries = {
            int(label): SummaryStatistics.from_matrix(X[labels == label])
            for label in np.unique(labels)
        }
        return cls.from_class_summaries(summaries, **kwargs)

    # --------------------------------------------------------------- scoring
    def discriminants(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.d:
            raise ModelError(
                f"model has d={self.d}, data has {X.shape[1]} dimensions"
            )
        return X @ self.weights.T + self.biases

    def predict(self, X: np.ndarray) -> np.ndarray:
        winners = np.argmax(self.discriminants(X), axis=1)
        return np.asarray([self.classes[w] for w in winners])

    def accuracy(self, X: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(labels)))

    def decision_boundary_normal(self, first: int, second: int) -> np.ndarray:
        """The normal vector of the hyperplane separating two classes."""
        a = self.classes.index(first)
        b = self.classes.index(second)
        return self.weights[a] - self.weights[b]
