"""Summary matrices: the sufficient statistics (n, L, Q).

This is the paper's central observation (Section 3.2): the row count

    n,
    L = Σ xᵢ          (d × 1, the linear sum of points)          [Eq. 1]
    Q = X Xᵀ = Σ xᵢxᵢᵀ (d × d, the quadratic sum of points)      [Eq. 2]

are sufficient to build the correlation matrix, the covariance matrix,
the linear-regression normal equations, and the per-cluster statistics
of K-means/EM — so after one table scan the data set X is never needed
again (except the residual scan in regression).

:class:`SummaryAccumulator` is the one accumulator that computes them
(init → ``fold`` blocks → ``merge`` partials in partition order).  The
aggregate UDF, :meth:`SummaryStatistics.from_matrix` and ``merge``, the
served snapshot summary and the incremental refresh all fold through it,
so they agree bit for bit on the same blocks.  :func:`weighted_sums` is
its soft-assignment form for EM.

:class:`SummaryStatistics` is the in-memory representation shared by all
three computation routes (plain SQL, the aggregate UDF, and the external
C++-style tool); all routes must produce equal instances on the same
data (tests enforce this).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


class MatrixType(enum.Enum):
    """Which part of Q the scan maintains (paper, Section 3.4).

    * ``DIAGONAL`` — only Σ Xa² (enough for K-means/EM clustering);
    * ``TRIANGULAR`` — the lower triangle (Q is symmetric; enough for
      correlation, PCA/FA and regression — the default);
    * ``FULL`` — all d² entries (querying / visualization).
    """

    DIAGONAL = 0
    TRIANGULAR = 1
    FULL = 2

    @property
    def code(self) -> int:
        """Numeric code used when the type is passed through SQL."""
        return self.value

    @classmethod
    def from_code(cls, code: int) -> "MatrixType":
        return cls(int(code))

    def update_ops(self, d: int) -> int:
        """Multiply-adds per row to maintain Q for this type."""
        if self is MatrixType.DIAGONAL:
            return d
        if self is MatrixType.TRIANGULAR:
            return d * (d + 1) // 2
        return d * d


@dataclass
class SummaryStatistics:
    """The sufficient statistics of one data set (or one group).

    ``Q`` is always stored as a dense symmetric d × d matrix; for a
    DIAGONAL computation the off-diagonal entries are zero (and must not
    be read).  ``mins``/``maxs`` are the per-dimension extrema the
    paper's UDF also tracks for outlier detection and histograms.
    """

    n: float
    L: np.ndarray
    Q: np.ndarray
    matrix_type: MatrixType = MatrixType.TRIANGULAR
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.L = np.asarray(self.L, dtype=float).reshape(-1)
        self.Q = np.asarray(self.Q, dtype=float)
        d = self.d
        if self.Q.shape != (d, d):
            raise ModelError(
                f"Q has shape {self.Q.shape}, expected ({d}, {d}) to match L"
            )

    # -------------------------------------------------------------- basics
    @property
    def d(self) -> int:
        return int(self.L.shape[0])

    @classmethod
    def zeros(
        cls, d: int, matrix_type: MatrixType = MatrixType.TRIANGULAR
    ) -> "SummaryStatistics":
        return cls(
            n=0.0,
            L=np.zeros(d),
            Q=np.zeros((d, d)),
            matrix_type=matrix_type,
            mins=np.full(d, np.inf),
            maxs=np.full(d, -np.inf),
        )

    @classmethod
    def from_matrix(
        cls,
        X: np.ndarray,
        matrix_type: MatrixType = MatrixType.TRIANGULAR,
    ) -> "SummaryStatistics":
        """One-pass computation from an (n × d) matrix: one
        :meth:`SummaryAccumulator.fold` of the whole matrix."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ModelError(f"expected a 2-D matrix, got shape {X.shape}")
        state = SummaryAccumulator(matrix_type is MatrixType.DIAGONAL)
        return state.fold(X).summary(matrix_type, X.shape[1])

    def merge(self, other: "SummaryStatistics") -> "SummaryStatistics":
        """Combine two partial summaries (the UDF's phase-3 merge, through
        :meth:`SummaryAccumulator.merge`).  Extrema survive only when both
        sides carry them."""
        if self.matrix_type is not other.matrix_type:
            raise ModelError("cannot merge summaries of different matrix types")
        state = SummaryAccumulator.from_stats(self)
        right = SummaryAccumulator._view(other)
        merged = state.merge(right).summary(self.matrix_type)
        if self.mins is None or other.mins is None:
            merged.mins = None
        if self.maxs is None or other.maxs is None:
            merged.maxs = None
        return merged

    def allclose(self, other: "SummaryStatistics", rtol: float = 1e-9) -> bool:
        """Numeric equality between two computation routes."""
        if self.d != other.d:
            return False
        return (
            np.isclose(self.n, other.n, rtol=rtol)
            and np.allclose(self.L, other.L, rtol=rtol)
            and np.allclose(self.Q, other.Q, rtol=rtol)
        )

    # ---------------------------------------------------------- derivations
    def mean(self) -> np.ndarray:
        """µ = L / n."""
        self._require_rows()
        return self.L / self.n

    def covariance(self) -> np.ndarray:
        """V = Q/n − L·Lᵀ/n²  (population covariance; paper, Section 3.2)."""
        self._require_cross_products()
        self._require_rows()
        n = self.n
        return self.Q / n - np.outer(self.L, self.L) / (n * n)

    def variances(self) -> np.ndarray:
        """Per-dimension population variance (valid for any matrix type)."""
        self._require_rows()
        n = self.n
        return np.diag(self.Q) / n - (self.L / n) ** 2

    def correlation(self) -> np.ndarray:
        """ρ_ab = (n·Q_ab − L_a·L_b) / (√(n·Q_aa − L_a²) √(n·Q_bb − L_b²))."""
        self._require_cross_products()
        self._require_rows()
        n = self.n
        numerator = n * self.Q - np.outer(self.L, self.L)
        scale = n * np.diag(self.Q) - self.L**2
        if np.any(scale <= 0):
            degenerate = [int(a) for a in np.flatnonzero(scale <= 0)]
            raise ModelError(
                f"zero-variance dimensions {degenerate}; correlation undefined"
            )
        denominator = np.sqrt(np.outer(scale, scale))
        return numerator / denominator

    def sub(self, indices: "list[int] | np.ndarray") -> "SummaryStatistics":
        """The summary restricted to a subset of dimensions.

        This is what makes step-wise regression / feature selection free
        once (n, L, Q) exist: sub-summaries need no further scans.
        """
        indices = np.asarray(indices, dtype=int)
        mins = self.mins[indices] if self.mins is not None else None
        maxs = self.maxs[indices] if self.maxs is not None else None
        return SummaryStatistics(
            n=self.n,
            L=self.L[indices],
            Q=self.Q[np.ix_(indices, indices)],
            matrix_type=self.matrix_type,
            mins=mins,
            maxs=maxs,
        )

    # ----------------------------------------------------------- validation
    def _require_rows(self) -> None:
        if self.n <= 0:
            raise ModelError("summary has no rows")

    def _require_cross_products(self) -> None:
        if self.matrix_type is MatrixType.DIAGONAL:
            raise ModelError(
                "this derivation needs cross-products; the summary was "
                "computed with a DIAGONAL Q (clustering mode)"
            )


class SummaryAccumulator:
    """The (n, L, Q) aggregate state.  ``Q`` is a d-vector when
    ``diagonal``.  A fresh state is unshaped (``d is None``) until its
    first non-empty fold.  Callers check d before folding, and ``merge``
    may hand back *other*, so always use its result.
    """

    __slots__ = ("d", "n", "L", "Q", "mins", "maxs", "diagonal")

    def __init__(self, diagonal: bool = False) -> None:
        self.d: int | None = None
        self.n = 0.0
        self.L: np.ndarray | None = None
        self.Q: np.ndarray | None = None
        self.mins: np.ndarray | None = None
        self.maxs: np.ndarray | None = None
        self.diagonal = diagonal

    def fold(self, X: np.ndarray) -> "SummaryAccumulator":
        """Fold the rows of the (rows × d) block *X*."""
        rows, d = X.shape
        if rows == 0:
            return self
        L = X.sum(axis=0)
        # TRIANGULAR and FULL store the same symmetric Q: the cost model,
        # not the storage, carries the triangular type's halved updates.
        Q = (X * X).sum(axis=0) if self.diagonal else X.T @ X
        mins, maxs = X.min(axis=0), X.max(axis=0)
        if self.d is None:
            # A fresh state takes the block's sums as they are.  Adding
            # into zeros turned a -0.0 sum into +0.0; ``+= 0.0`` keeps
            # that rounding, so partials stay byte-equal.  inf and -inf
            # are the identities of min and max, nothing to fold.
            L += 0.0
            Q += 0.0
            self.d, self.n = d, float(rows)
            self.L, self.Q, self.mins, self.maxs = L, Q, mins, maxs
            return self
        return self._add(float(rows), L, Q, mins, maxs)

    def add(self, x: np.ndarray) -> "SummaryAccumulator":
        """Fold one point: the bits of ``fold(x[None, :])`` without its
        reductions (a shaped state holds no -0.0 for a product to flip)."""
        if self.d is None:
            return self.fold(x[None, :])
        return self._add(1.0, x, x * x if self.diagonal else np.outer(x, x), x, x)

    def merge(self, other: "SummaryAccumulator") -> "SummaryAccumulator":
        """Fold the partial *other* into this one (phase 3)."""
        if other.d is None:
            return self
        if self.d is None:
            return other
        if self.d != other.d:
            raise ModelError(
                f"cannot merge partial states of dimension {self.d} and {other.d}"
            )
        return self._add(other.n, other.L, other.Q, other.mins, other.maxs)

    def _add(self, n, L, Q, mins, maxs) -> "SummaryAccumulator":
        self.n += n
        self.L += L
        self.Q += Q
        np.minimum(self.mins, mins, out=self.mins)
        np.maximum(self.maxs, maxs, out=self.maxs)
        return self

    def copy(self) -> "SummaryAccumulator":
        """A copy that folding or merging into leaves this one unchanged."""
        copy = SummaryAccumulator(self.diagonal)
        copy.d, copy.n = self.d, self.n
        if self.d is not None:
            copy.L, copy.Q = self.L.copy(), self.Q.copy()
            copy.mins, copy.maxs = self.mins.copy(), self.maxs.copy()
        return copy

    @classmethod
    def from_stats(cls, stats: SummaryStatistics) -> "SummaryAccumulator":
        """A shaped state holding a copy of *stats*."""
        return cls._view(stats).copy()

    @classmethod
    def _view(cls, stats: SummaryStatistics) -> "SummaryAccumulator":
        """A shaped state over *stats*'s own arrays, for a side that is
        only read (the right side of a merge)."""
        state = cls(stats.matrix_type is MatrixType.DIAGONAL)
        d = state.d = stats.d
        state.n = float(stats.n)
        state.L = stats.L
        state.Q = np.diag(stats.Q) if state.diagonal else stats.Q
        state.mins = np.full(d, np.inf) if stats.mins is None else stats.mins
        state.maxs = np.full(d, -np.inf) if stats.maxs is None else stats.maxs
        return state

    def summary(
        self, matrix_type: MatrixType, d: int | None = None
    ) -> SummaryStatistics:
        """The state as :class:`SummaryStatistics` (sharing its arrays);
        an unshaped state gives the empty summary of dimension *d*."""
        if self.d is None:
            return SummaryStatistics.zeros(d, matrix_type)
        Q = np.diag(self.Q) if self.diagonal else self.Q
        return SummaryStatistics(self.n, self.L, Q, matrix_type, self.mins, self.maxs)


def weighted_sums(
    R: np.ndarray, X: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The per-component sums of a soft assignment: ``N_j = Σ r_ij``,
    ``L_j = Σ r_ij x_i`` and the diagonal ``Q_j = Σ r_ij x_i²`` for the
    (rows × k) responsibilities *R* over the (rows × d) points *X*."""
    return R.sum(axis=0), R.T @ X, R.T @ (X * X)


@dataclass
class AugmentedSummary:
    """The regression layout: summaries of z = (1, x₁..x_d, y).

    The paper's Q′ = Z Zᵀ (Section 3.2) contains X Xᵀ, X Yᵀ and Y Yᵀ as
    blocks; with the leading constant dimension it also contains n and L,
    so β and R² need nothing else.
    """

    stats: SummaryStatistics

    def __post_init__(self) -> None:
        if self.stats.matrix_type is MatrixType.DIAGONAL:
            raise ModelError("regression needs cross-products (triangular/full Q)")
        if self.stats.d < 3:
            raise ModelError(
                "augmented summary needs at least (1, x1, y) — d >= 3"
            )

    @classmethod
    def from_xy(cls, X: np.ndarray, y: np.ndarray) -> "AugmentedSummary":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise ModelError("X and y row counts differ")
        Z = np.column_stack([np.ones(X.shape[0]), X, y])
        return cls(SummaryStatistics.from_matrix(Z, MatrixType.FULL))

    @property
    def d(self) -> int:
        """Number of independent dimensions (excluding the 1s column and y)."""
        return self.stats.d - 2

    @property
    def n(self) -> float:
        return self.stats.n

    def xtx(self) -> np.ndarray:
        """The (d+1) × (d+1) block X Xᵀ including the intercept row."""
        return self.stats.Q[: self.d + 1, : self.d + 1]

    def xty(self) -> np.ndarray:
        """The (d+1) × 1 block X Yᵀ."""
        return self.stats.Q[: self.d + 1, self.d + 1]

    def yty(self) -> float:
        """Y Yᵀ = Σ yᵢ²."""
        return float(self.stats.Q[self.d + 1, self.d + 1])

    def sum_y(self) -> float:
        return float(self.stats.L[self.d + 1])
