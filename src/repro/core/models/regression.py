"""Linear regression from the augmented summary matrices.

The paper augments X with a constant dimension X₀ = 1 and the dependent
variable Y into Z = (X, Y), computes Q′ = Z Zᵀ and L′ = Σ zᵢ in the same
single scan, and then solves the normal equations outside the scan:

    β = (X Xᵀ)⁻¹ (X Yᵀ)

with both blocks read straight out of Q′.  The model's error statistics
need Σ(yᵢ − ŷᵢ)², which the paper obtains with a *second* table scan —
the only statistic that needs one — because ŷ depends on β.  We provide
that scan (:meth:`sse_by_scan`) and, additionally, the closed form

    Σ(yᵢ − ŷᵢ)² = Y Yᵀ − 2 βᵀ(X Yᵀ) + βᵀ(X Xᵀ)β

which needs no second scan (:meth:`sse_from_summary`); the two agree to
rounding and tests check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.scoring.udfs import ScoringSpec
from repro.core.summary import AugmentedSummary
from repro.errors import ModelError


@dataclass
class LinearRegressionModel:
    """Coefficients β (including the intercept β₀) plus fit statistics."""

    intercept: float
    coefficients: np.ndarray
    n: float
    #: Q′ blocks kept for error statistics
    _xtx: np.ndarray = field(repr=False)
    _xty: np.ndarray = field(repr=False)
    _yty: float = field(repr=False)
    _sum_y: float = field(repr=False)

    @classmethod
    def from_summary(cls, augmented: AugmentedSummary) -> "LinearRegressionModel":
        """Solve β = (X Xᵀ)⁻¹ (X Yᵀ) from the augmented Q′."""
        d = augmented.d
        n = augmented.n
        if n <= d + 1:
            raise ModelError(
                f"need n > d + 1 observations to fit (n={n}, d={d})"
            )
        xtx = augmented.xtx()
        xty = augmented.xty()
        try:
            beta = np.linalg.solve(xtx, xty)
        except np.linalg.LinAlgError as exc:
            raise ModelError(
                "X·Xᵀ is singular (collinear dimensions); drop a dimension "
                "via SummaryStatistics.sub and refit"
            ) from exc
        return cls(
            intercept=float(beta[0]),
            coefficients=beta[1:],
            n=n,
            _xtx=xtx,
            _xty=xty,
            _yty=augmented.yty(),
            _sum_y=augmented.sum_y(),
        )

    @property
    def d(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def beta(self) -> np.ndarray:
        """The full coefficient vector [β₀, β₁, ..., β_d]."""
        return np.concatenate([[self.intercept], self.coefficients])

    # --------------------------------------------------------------- scoring
    registry_kind = "regression"
    registry_parts = ("beta",)

    def scoring_parts(self) -> dict:
        """BETA(b0..bd), the one array a stored model scores from."""
        return dict(zip(self.registry_parts, (self.beta,)))

    @staticmethod
    def scoring_spec(parts: "dict[str, np.ndarray]") -> ScoringSpec:
        """ŷ = ``linearregscore(x, b0..bd)``: one group, no combine."""
        beta = parts["beta"]
        d = beta.shape[0] - 1
        return ScoringSpec("linearregscore", beta.reshape(1, -1), None, d, "yhat")

    # ----------------------------------------------------------------- score
    def predict(self, X: np.ndarray) -> np.ndarray:
        """ŷᵢ = βᵀxᵢ for each row of the (n × d) matrix X."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.d:
            raise ModelError(
                f"model has d={self.d}, data has {X.shape[1]} dimensions"
            )
        return self.intercept + X @ self.coefficients

    # ------------------------------------------------------------ statistics
    def sse_from_summary(self) -> float:
        """Σ(yᵢ − ŷᵢ)² expanded in terms of Q′ — no second scan needed."""
        beta = self.beta
        sse = self._yty - 2.0 * beta @ self._xty + beta @ self._xtx @ beta
        return max(float(sse), 0.0)

    def sse_by_scan(self, X: np.ndarray, y: np.ndarray) -> float:
        """Σ(yᵢ − ŷᵢ)² by rescanning the data — the paper's route."""
        residuals = np.asarray(y, dtype=float).reshape(-1) - self.predict(X)
        return float(residuals @ residuals)

    def r_squared(self) -> float:
        """Coefficient of determination from the summary alone."""
        total = self._yty - self._sum_y * self._sum_y / self.n
        if total <= 0:
            raise ModelError("Y has zero variance; R² undefined")
        return 1.0 - self.sse_from_summary() / total

    def coefficient_covariance(self, sse: float | None = None) -> np.ndarray:
        """var(β) = (X Xᵀ)⁻¹ · Σ(yᵢ − ŷᵢ)² / (n − d − 1)  (paper, §3.1)."""
        dof = self.n - self.d - 1.0
        if dof <= 0:
            raise ModelError("no degrees of freedom for var(β)")
        if sse is None:
            sse = self.sse_from_summary()
        return np.linalg.inv(self._xtx) * (sse / dof)

    def standard_errors(self, sse: float | None = None) -> np.ndarray:
        """Standard error of each coefficient [β₀, β₁, ..., β_d]."""
        return np.sqrt(np.diag(self.coefficient_covariance(sse)))

    def t_statistics(self, sse: float | None = None) -> np.ndarray:
        return self.beta / self.standard_errors(sse)


def stepwise_select(
    augmented: AugmentedSummary,
    max_dimensions: int | None = None,
    min_improvement: float = 1e-4,
) -> tuple[LinearRegressionModel, list[int]]:
    """Greedy forward step-wise selection on the summary alone.

    The paper notes step-wise procedures reduce d to d′ by taking a
    subset of dimensions; because sub-summaries are free
    (:meth:`SummaryStatistics.sub`), the whole search needs zero extra
    table scans.  Returns the fitted model and the selected dimension
    indices (0-based, into the original d).
    """
    d = augmented.d
    limit = max_dimensions if max_dimensions is not None else d
    selected: list[int] = []
    best_r2 = -np.inf
    best_model: LinearRegressionModel | None = None
    remaining = list(range(d))
    while remaining and len(selected) < limit:
        round_best: tuple[float, int, LinearRegressionModel] | None = None
        for candidate in remaining:
            trial = sorted(selected + [candidate])
            indices = [0, *[i + 1 for i in trial], d + 1]
            sub = AugmentedSummary(augmented.stats.sub(indices))
            try:
                model = LinearRegressionModel.from_summary(sub)
                r2 = model.r_squared()
            except ModelError:
                continue
            if round_best is None or r2 > round_best[0]:
                round_best = (r2, candidate, model)
        if round_best is None:
            break
        r2, candidate, model = round_best
        if best_model is not None and r2 - best_r2 < min_improvement:
            break
        selected.append(candidate)
        remaining.remove(candidate)
        best_r2, best_model = r2, model
    if best_model is None:
        raise ModelError("step-wise selection found no usable dimension")
    return best_model, sorted(selected)
