"""EM clustering: mixtures of diagonal Gaussians on sufficient statistics.

The paper discusses EM alongside K-means (Sections 3.1-3.2): like
K-means, its M step needs only per-cluster (N_j, L_j, Q_j) — here
*weighted* by the E step's responsibilities — and clustering assumes
dimension independence, so Q_j is kept diagonal.  This module is the
full EM implementation the paper's framework supports (cf. the author's
SQLEM line of work).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scoring.udfs import ScoringSpec, gaussian_score_params
from repro.core.summary import weighted_sums
from repro.errors import ModelError

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GaussianMixtureModel:
    """Means C (k × d), diagonal variances R (k × d), weights W (k)."""

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    log_likelihood: float = float("nan")
    iterations: int = 0

    @property
    def k(self) -> int:
        return int(self.means.shape[0])

    @property
    def d(self) -> int:
        return int(self.means.shape[1])

    # --------------------------------------------------------------- scoring
    registry_kind = "gmm"
    registry_parts = ("c", "r", "w")

    def scoring_parts(self) -> dict:
        """Means, variances and weights in k-means' C / R / W layout."""
        arrays = (self.means, self.variances, self.weights)
        return dict(zip(self.registry_parts, arrays))

    @staticmethod
    def scoring_spec(parts: "dict[str, np.ndarray]") -> ScoringSpec:
        """J = ``classifyscore`` over one ``nbscore(x, µ_j, iv_j, bias_j)``
        per component: the most likely component."""
        mu, iv, bias = gaussian_score_params(parts["c"], parts["r"], parts["w"])
        params = np.column_stack([mu, iv, bias])
        return ScoringSpec("nbscore", params, "classifyscore", mu.shape[1], "j")

    # --------------------------------------------------------------- fitting
    @classmethod
    def initial(
        cls, X: np.ndarray, k: int, variance_floor: float, seed: int
    ) -> "GaussianMixtureModel":
        """The starting mixture: k random distinct rows of the complete
        rows *X* as means, the floored global variance, equal weights."""
        n = X.shape[0]
        if not 1 <= k <= n:
            raise ModelError(f"k must be in [1, {n}] (complete rows), got {k}")
        rng = np.random.default_rng(seed)
        means = X[rng.choice(n, size=k, replace=False)].astype(float)
        global_variance = np.maximum(X.var(axis=0), variance_floor)
        return cls(means, np.tile(global_variance, (k, 1)), np.full(k, 1.0 / k))

    @classmethod
    def from_weighted_sums(
        cls, Nj, Lj, Qj, n, variance_floor, log_likelihood, iteration
    ) -> "GaussianMixtureModel":
        """The M step from weighted per-cluster sums N_j = Σ r_ij,
        L_j = Σ r_ij x_i, Q_j(diag) = Σ r_ij x_i² — the weighted analogue
        of the paper's per-cluster summaries."""
        if np.any(Nj <= 0):
            raise ModelError("a mixture component collapsed to zero weight")
        means = Lj / Nj[:, None]
        variances = np.maximum(Qj / Nj[:, None] - means**2, variance_floor)
        return cls(means, variances, Nj / n, log_likelihood, iteration)

    @classmethod
    def fit_matrix(
        cls,
        X: np.ndarray,
        k: int,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        variance_floor: float = 1e-6,
        seed: int = 0,
    ) -> "GaussianMixtureModel":
        """In-memory EM (the reference fit) over the complete rows of X."""
        X = _complete_rows(np.asarray(X, dtype=float))
        model = cls.initial(X, k, variance_floor, seed)
        previous = -np.inf
        for iteration in range(1, max_iterations + 1):
            log_resp, log_likelihood = model._e_step(X)
            model = cls.from_weighted_sums(
                *weighted_sums(np.exp(log_resp), X),
                X.shape[0], variance_floor, log_likelihood, iteration,
            )
            if _converged(log_likelihood, previous, tolerance):
                break
            previous = log_likelihood
        # The loop's log-likelihood was evaluated at the *pre-M-step*
        # parameters; store the value the final parameters achieve.
        _, model.log_likelihood = model._e_step(X)
        return model

    @classmethod
    def fit_dbms(
        cls,
        db,
        table: str,
        dimensions: "list[str]",
        k: int,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        variance_floor: float = 1e-6,
        seed: int = 0,
    ) -> "GaussianMixtureModel":
        """DBMS-driven EM over *table*, one fused scan per iteration.

        Initialization replays :meth:`fit_matrix`'s RNG draws exactly
        over the complete rows (the rows the ``emiter`` scan folds); the
        per-cluster sums merge per partition, so parameters match an
        in-memory fit to float merge-order (not bitwise).
        """
        X = _complete_rows(db.table(table).numeric_matrix(dimensions))
        initial = cls.initial(X, k, variance_floor, seed)
        return cls.iterate_fused(
            db, table, dimensions, initial, X.shape[0],
            max_iterations, tolerance, variance_floor,
        )

    @classmethod
    def iterate_fused(
        cls,
        db,
        source: str,
        dimensions: "list[str]",
        model: "GaussianMixtureModel",
        n: "float | None",
        max_iterations: int,
        tolerance: float,
        variance_floor: float,
    ) -> "GaussianMixtureModel":
        """The DBMS-driven EM loop from the starting mixture *model*.

        Each iteration installs the current mixture on the ``emiter``
        aggregate UDF and runs one SELECT over *source* (a table, or a
        star's FROM clause): the E step and the weighted per-cluster
        sums happen inside the scan, with no materialized responsibility
        table.  Weights divide by *n*, the rows the scan folds; ``None``
        takes the first scan's ΣN_j (a star's join size).
        """
        from repro.core.fused import (
            fused_call_sql,
            register_fused_udfs,
            unpack_fused_payload,
        )

        udf = register_fused_udfs(db)["emiter"]
        sql = fused_call_sql("emiter", source, dimensions)
        k, d = model.k, model.d
        previous = -np.inf
        for iteration in range(1, max_iterations + 1):
            udf.set_model(model)
            groups, log_likelihood = unpack_fused_payload(
                db.execute(sql).scalar()
            )
            Nj, Lj, Qj = np.zeros(k), np.zeros((k, d)), np.zeros((k, d))
            for j, stats in groups.items():
                Nj[j - 1] = stats.n
                Lj[j - 1] = stats.L
                Qj[j - 1] = np.diag(stats.Q)
            if n is None:
                n = float(Nj.sum())
            model = cls.from_weighted_sums(
                Nj, Lj, Qj, n, variance_floor, log_likelihood, iteration
            )
            if _converged(log_likelihood, previous, tolerance):
                break
            previous = log_likelihood
        # One more fused scan evaluates the log-likelihood the *final*
        # parameters achieve (the loop's value predates its M step).
        udf.set_model(model)
        _, model.log_likelihood = unpack_fused_payload(db.execute(sql).scalar())
        return model

    # --------------------------------------------------------------- scoring
    def _log_component_densities(self, X: np.ndarray) -> np.ndarray:
        """log w_j + log N(x | C_j, diag R_j) for each row and component."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.d:
            raise ModelError(
                f"model has d={self.d}, data has {X.shape[1]} dimensions"
            )
        log_densities = np.empty((X.shape[0], self.k))
        for j in range(self.k):
            centered = X - self.means[j]
            quad = np.sum(centered * centered / self.variances[j], axis=1)
            log_norm = -0.5 * (
                self.d * _LOG_2PI + float(np.sum(np.log(self.variances[j])))
            )
            log_densities[:, j] = (
                np.log(max(self.weights[j], 1e-300)) + log_norm - 0.5 * quad
            )
        return log_densities

    def _e_step(self, X: np.ndarray) -> tuple[np.ndarray, float]:
        log_densities = self._log_component_densities(X)
        peak = log_densities.max(axis=1, keepdims=True)
        log_total = peak + np.log(
            np.exp(log_densities - peak).sum(axis=1, keepdims=True)
        )
        return log_densities - log_total, float(log_total.sum())

    def responsibilities(self, X: np.ndarray) -> np.ndarray:
        """Posterior component probabilities per row (n × k)."""
        log_resp, _ = self._e_step(X)
        return np.exp(log_resp)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most likely component per row (1-based, matching K-means)."""
        return np.argmax(self._log_component_densities(X), axis=1) + 1

    def score(self, X: np.ndarray) -> float:
        """Total log-likelihood of X under the mixture."""
        _, log_likelihood = self._e_step(X)
        return log_likelihood


def _converged(log_likelihood: float, previous: float, tolerance: float) -> bool:
    return bool(np.isfinite(previous)) and (
        log_likelihood - previous <= tolerance * max(abs(previous), 1.0)
    )


def _complete_rows(X: np.ndarray) -> np.ndarray:
    """The rows of *X* without a NaN (a NULL feature); *X* itself, not a
    copy, when every row is complete."""
    complete = ~np.isnan(X).any(axis=1)
    return X if complete.all() else X[complete]
