"""Gaussian Naive Bayes from per-class summary statistics.

The paper's related work cites Graefe, Fayyad & Chaudhuri [9] on
gathering sufficient statistics for *classification* from SQL databases;
this module closes that loop inside our framework: the per-class
statistics a Gaussian NB classifier needs —

    prior_c = N_c / n,   µ_c = L_c / N_c,   σ²_c = Q_c/N_c − µ_c²

— are exactly the GROUP BY form of (n, L, Q) with a diagonal Q, grouped
by the class label.  One aggregate-UDF query per training set, no second
scan; scoring is a per-row arg-max of the class log-densities, the same
shape as the clustering score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scoring.udfs import ScoringSpec, gaussian_score_params
from repro.core.summary import SummaryStatistics
from repro.errors import ModelError

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class NaiveBayesModel:
    """Class priors, per-class means and diagonal variances."""

    classes: list[int]
    priors: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def d(self) -> int:
        return int(self.means.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    # --------------------------------------------------------------- scoring
    registry_kind = "naive_bayes"
    registry_parts = ("mu", "var", "prior", "cls")

    def scoring_parts(self) -> dict:
        """Class means and variances (j, x1..xd), priors and labels."""
        arrays = (self.means, self.variances, self.priors, self.classes)
        return dict(zip(self.registry_parts, arrays))

    @staticmethod
    def scoring_spec(parts: "dict[str, np.ndarray]") -> ScoringSpec:
        """label = ``classifyscore`` over one ``nbscore(x, µ_c, iv_c,
        bias_c)`` per class, mapped through the class labels."""
        mu, iv, bias = gaussian_score_params(
            parts["mu"], parts["var"], parts["prior"]
        )
        params = np.column_stack([mu, iv, bias])
        labels = tuple(int(v) for v in parts["cls"])
        d = mu.shape[1]
        return ScoringSpec("nbscore", params, "classifyscore", d, "label", labels)

    @classmethod
    def from_class_summaries(
        cls,
        summaries: "dict[int, SummaryStatistics]",
        variance_floor: float = 1e-9,
    ) -> "NaiveBayesModel":
        """Build from per-class (N_c, L_c, Q_c-diagonal) summaries, as
        returned by ``compute_nlq_udf_groups(..., group_by=<label>)``."""
        if not summaries:
            raise ModelError("no class summaries")
        classes = sorted(summaries)
        d = summaries[classes[0]].d
        total = sum(stats.n for stats in summaries.values())
        if total <= 0:
            raise ModelError("class summaries contain no rows")
        priors = np.empty(len(classes))
        means = np.empty((len(classes), d))
        variances = np.empty((len(classes), d))
        for index, label in enumerate(classes):
            stats = summaries[label]
            if stats.d != d:
                raise ModelError(
                    f"class {label} has d={stats.d}, expected {d}"
                )
            if stats.n < 2:
                raise ModelError(
                    f"class {label} has {stats.n:.0f} rows; need >= 2"
                )
            priors[index] = stats.n / total
            means[index] = stats.mean()
            variances[index] = np.maximum(stats.variances(), variance_floor)
        return cls(classes, priors, means, variances)

    @classmethod
    def fit_matrix(
        cls, X: np.ndarray, labels: np.ndarray, **kwargs
    ) -> "NaiveBayesModel":
        """Reference fit from arrays (tests compare this to the DB route)."""
        X = np.asarray(X, dtype=float)
        labels = np.asarray(labels)
        summaries = {
            int(label): SummaryStatistics.from_matrix(X[labels == label])
            for label in np.unique(labels)
        }
        return cls.from_class_summaries(summaries, **kwargs)

    # --------------------------------------------------------------- scoring
    def log_joint(self, X: np.ndarray) -> np.ndarray:
        """log prior_c + Σ_a log N(x_a | µ_ca, σ²_ca), an (n × C) matrix."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.d:
            raise ModelError(
                f"model has d={self.d}, data has {X.shape[1]} dimensions"
            )
        scores = np.empty((X.shape[0], self.n_classes))
        for index in range(self.n_classes):
            centered = X - self.means[index]
            quad = np.sum(centered * centered / self.variances[index], axis=1)
            log_norm = -0.5 * (
                self.d * _LOG_2PI + float(np.sum(np.log(self.variances[index])))
            )
            scores[:, index] = (
                np.log(self.priors[index]) + log_norm - 0.5 * quad
            )
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The most probable class label per row."""
        winners = np.argmax(self.log_joint(X), axis=1)
        return np.asarray([self.classes[w] for w in winners])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Posterior class probabilities per row (n × C)."""
        log_joint = self.log_joint(X)
        peak = log_joint.max(axis=1, keepdims=True)
        unnormalized = np.exp(log_joint - peak)
        return unnormalized / unnormalized.sum(axis=1, keepdims=True)

    def accuracy(self, X: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(X) == np.asarray(labels)))
