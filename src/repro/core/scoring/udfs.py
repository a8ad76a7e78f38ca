"""Scalar scoring UDFs (paper, Section 3.5).

Once a model is stored in its relational layout, scoring a data set is a
single SELECT whose scalar UDFs evaluate the model equation per row:

* :class:`LinearRegScoreUdf` — ``linearregscore(x1..xd, b0, b1..bd)``
  returns ŷ = βᵀx: one dot product per row, called once.
* :class:`FaScoreUdf` — ``fascore(x1..xd, mu1..mud, l1j..ldj)`` returns
  the jth coordinate of x′ = Λᵀ(x − µ); because UDFs cannot return
  vectors it is called k times in the same SELECT.
* :class:`KMeansDistanceUdf` — ``kmeansdistance(x1..xd, c1j..cdj)``
  returns the squared Euclidean distance to centroid j.
* :class:`ClusterScoreUdf` — ``clusterscore(d1..dk)`` returns the
  1-based subscript J of the minimum distance: the cluster score.

A :class:`ScoringSpec` says how one stored model kind scores with these
kernels — one kernel call per group, then an optional combining arg-min
or arg-max — so the serving registry, its micro-batcher, its per-row
reference and the inline SQL all read one record per kind.

All are variadic (the engine imposes no parameter-count cap of its own;
the *paper's* observation that some DBMSs cap parameters is modeled by
the string-passing aggregate variant instead).  NULL inputs yield NULL,
as SQL scalar functions do.

Every UDF also implements :meth:`~repro.dbms.udf.ScalarUdf.compute_batch`
so the block-wise SELECT path can score a whole partition block with
dense numpy kernels instead of one Python call per row.  The kernels
are written for **bit-identical** results against :meth:`compute`:
sums accumulate per dimension from a zero vector (matching the row
path's left-associated ``sum()``), squares use ``diff * diff``, and
NULL rows (any NaN argument) come out NaN — the executor restores them
to None.  Argument-count validation is shared between both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.dbms.database import Database
from repro.dbms.udf import RowCost, ScalarUdf
from repro.errors import UdfArgumentError


def squared_distance_block(X: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of each row of *X* to *centroid*.

    The shared kernel behind :class:`KMeansDistanceUdf` and the fused
    clustering iteration (:mod:`repro.core.fused`): per-dimension
    accumulation from a zero vector with ``diff * diff``, replaying the
    row path's left-associated ``sum((xa - ca) ** 2)`` bit for bit.
    *centroid* may be a 1-D vector (broadcast against every row) or an
    ``(n, d)`` matrix of per-row centroid columns — subtracting a scalar
    produces the same IEEE bits as subtracting a constant-filled column,
    so both call shapes agree exactly.
    """
    d = X.shape[1]
    acc = np.zeros(X.shape[0])
    for a in range(d):
        diff = X[:, a] - centroid[..., a]
        # diff * diff, not diff ** 2: a correctly rounded pow(x, 2)
        # equals x * x, matching the row path's ``(xa - ca) ** 2``.
        acc += diff * diff
    return acc


def _floats(args: tuple[Any, ...], udf_name: str) -> "list[float] | None":
    """Validate numeric arguments; None (any NULL in → NULL out)."""
    values: list[float] = []
    for value in args:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UdfArgumentError(
                f"UDF {udf_name!r} expects numeric arguments, got "
                f"{type(value).__name__}"
            )
        values.append(float(value))
    return values


class LinearRegScoreUdf(ScalarUdf):
    """ŷ = β₀ + Σ βₐ·xₐ from 2d + 1 scalar parameters."""

    supports_batch = True

    def __init__(self, name: str = "linearregscore") -> None:
        super().__init__(name)

    def _validate_count(self, count: int) -> None:
        if count < 3 or count % 2 == 0:
            raise UdfArgumentError(
                f"UDF {self.name!r} expects (x1..xd, b0, b1..bd) — an odd "
                f"count of at least 3 arguments, got {count}"
            )

    def compute(self, *args: Any) -> Any:
        self._validate_count(len(args))
        values = _floats(args, self.name)
        if values is None:
            return None
        d = (len(values) - 1) // 2
        x = values[:d]
        intercept = values[d]
        beta = values[d + 1 :]
        return intercept + sum(b * v for b, v in zip(beta, x))

    def compute_batch(self, args: np.ndarray) -> np.ndarray:
        self._validate_count(args.shape[1])
        d = (args.shape[1] - 1) // 2
        # Per-dimension accumulation from zero replays the row path's
        # sum() association exactly; NaN (NULL) propagates through the
        # arithmetic, so NULL rows come out NaN with no extra masking.
        acc = np.zeros(args.shape[0])
        for a in range(d):
            acc += args[:, d + 1 + a] * args[:, a]
        return args[:, d] + acc

    def cost_per_row(self, arg_count: int) -> RowCost:
        d = (arg_count - 1) // 2
        return RowCost(list_params=arg_count, arith_ops=d)


class FaScoreUdf(ScalarUdf):
    """One coordinate of x′ = Λᵀ(x − µ): Σ (xₐ − µₐ)·Λₐⱼ from 3d params."""

    supports_batch = True

    def __init__(self, name: str = "fascore") -> None:
        super().__init__(name)

    def _validate_count(self, count: int) -> None:
        if count < 3 or count % 3 != 0:
            raise UdfArgumentError(
                f"UDF {self.name!r} expects (x1..xd, mu1..mud, l1j..ldj) — "
                f"a multiple of 3 arguments, got {count}"
            )

    def compute(self, *args: Any) -> Any:
        self._validate_count(len(args))
        values = _floats(args, self.name)
        if values is None:
            return None
        d = len(values) // 3
        x = values[:d]
        mu = values[d : 2 * d]
        component = values[2 * d :]
        return sum((xa - ma) * la for xa, ma, la in zip(x, mu, component))

    def compute_batch(self, args: np.ndarray) -> np.ndarray:
        self._validate_count(args.shape[1])
        d = args.shape[1] // 3
        acc = np.zeros(args.shape[0])
        for a in range(d):
            acc += (args[:, a] - args[:, d + a]) * args[:, 2 * d + a]
        return acc

    def cost_per_row(self, arg_count: int) -> RowCost:
        d = arg_count // 3
        return RowCost(list_params=arg_count, arith_ops=2 * d)


class KMeansDistanceUdf(ScalarUdf):
    """Squared Euclidean distance (x − Cⱼ)ᵀ(x − Cⱼ) from 2d params."""

    supports_batch = True

    def __init__(self, name: str = "kmeansdistance") -> None:
        super().__init__(name)

    def _validate_count(self, count: int) -> None:
        if count < 2 or count % 2 != 0:
            raise UdfArgumentError(
                f"UDF {self.name!r} expects (x1..xd, c1j..cdj) — an even "
                f"count of arguments, got {count}"
            )

    def compute(self, *args: Any) -> Any:
        self._validate_count(len(args))
        values = _floats(args, self.name)
        if values is None:
            return None
        d = len(values) // 2
        return sum(
            (xa - ca) ** 2 for xa, ca in zip(values[:d], values[d:])
        )

    def compute_batch(self, args: np.ndarray) -> np.ndarray:
        self._validate_count(args.shape[1])
        d = args.shape[1] // 2
        return squared_distance_block(args[:, :d], args[:, d:])

    def cost_per_row(self, arg_count: int) -> RowCost:
        d = arg_count // 2
        return RowCost(list_params=arg_count, arith_ops=2 * d)


class ClusterScoreUdf(ScalarUdf):
    """J such that d_J ≤ d_j for all j — the nearest-centroid subscript."""

    supports_batch = True
    batch_integer_result = True

    def __init__(self, name: str = "clusterscore") -> None:
        super().__init__(name)

    def compute(self, *args: Any) -> Any:
        if not args:
            raise UdfArgumentError(f"UDF {self.name!r} needs at least one distance")
        values = _floats(args, self.name)
        if values is None:
            return None
        best_j = 1
        best = values[0]
        for j, distance in enumerate(values[1:], start=2):
            if math.isnan(distance):
                raise UdfArgumentError(f"UDF {self.name!r} received NaN distance")
            if distance < best:
                best, best_j = distance, j
        return best_j

    def compute_batch(self, args: np.ndarray) -> np.ndarray:
        # In a block, NaN can only mean NULL (numeric_matrix maps None
        # to NaN), so NULL rows come out NaN rather than raising the row
        # path's literal-NaN error.
        if args.shape[1] < 1:
            raise UdfArgumentError(f"UDF {self.name!r} needs at least one distance")
        null_rows = np.isnan(args).any(axis=1)
        # +inf padding keeps argmin's first-minimum tie-break identical
        # to the row path's strict ``<``.
        safe = np.where(np.isnan(args), np.inf, args)
        result = (np.argmin(safe, axis=1) + 1).astype(float)
        result[null_rows] = np.nan
        return result

    def cost_per_row(self, arg_count: int) -> RowCost:
        return RowCost(list_params=arg_count, arith_ops=arg_count)


class ClassifyScoreUdf(ScalarUdf):
    """J such that s_J ≥ s_j for all j — arg-max over class scores.

    The classification twin of :class:`ClusterScoreUdf` (which arg-mins
    distances): Naive Bayes and LDA both score a point per class and
    pick the largest discriminant.
    """

    supports_batch = True
    batch_integer_result = True

    def __init__(self, name: str = "classifyscore") -> None:
        super().__init__(name)

    def compute(self, *args: Any) -> Any:
        if not args:
            raise UdfArgumentError(f"UDF {self.name!r} needs at least one score")
        values = _floats(args, self.name)
        if values is None:
            return None
        best_j = 1
        best = values[0]
        for j, score in enumerate(values[1:], start=2):
            if math.isnan(score):
                raise UdfArgumentError(f"UDF {self.name!r} received NaN score")
            if score > best:
                best, best_j = score, j
        return best_j

    def compute_batch(self, args: np.ndarray) -> np.ndarray:
        if args.shape[1] < 1:
            raise UdfArgumentError(f"UDF {self.name!r} needs at least one score")
        null_rows = np.isnan(args).any(axis=1)
        # −inf padding: argmax keeps the first maximum, the row path's
        # strict ``>`` tie-break.
        safe = np.where(np.isnan(args), -np.inf, args)
        result = (np.argmax(safe, axis=1) + 1).astype(float)
        result[null_rows] = np.nan
        return result

    def cost_per_row(self, arg_count: int) -> RowCost:
        return RowCost(list_params=arg_count, arith_ops=arg_count)


class NaiveBayesScoreUdf(ScalarUdf):
    """One class's Gaussian NB log-joint from 3d + 1 scalar parameters:

        nbscore(x1..xd, mu1..mud, iv1..ivd, bias)
            = bias − ½ Σ_a (x_a − µ_a)² · iv_a

    where ``iv`` is the precomputed inverse variance and ``bias`` folds
    log prior − ½ Σ log σ² − (d/2)·log 2π.  Called once per class in the
    same SELECT, exactly like ``fascore`` is called once per component.
    """

    supports_batch = True

    def __init__(self, name: str = "nbscore") -> None:
        super().__init__(name)

    def _validate_count(self, count: int) -> None:
        if count < 4 or (count - 1) % 3 != 0:
            raise UdfArgumentError(
                f"UDF {self.name!r} expects (x1..xd, mu1..mud, iv1..ivd, "
                f"bias) — 3d + 1 arguments, got {count}"
            )

    def compute(self, *args: Any) -> Any:
        self._validate_count(len(args))
        values = _floats(args, self.name)
        if values is None:
            return None
        d = (len(values) - 1) // 3
        x = values[:d]
        mu = values[d : 2 * d]
        inverse_variance = values[2 * d : 3 * d]
        bias = values[-1]
        quadratic = sum(
            (xa - ma) * (xa - ma) * iv
            for xa, ma, iv in zip(x, mu, inverse_variance)
        )
        return bias - 0.5 * quadratic

    def compute_batch(self, args: np.ndarray) -> np.ndarray:
        self._validate_count(args.shape[1])
        d = (args.shape[1] - 1) // 3
        acc = np.zeros(args.shape[0])
        for a in range(d):
            diff = args[:, a] - args[:, d + a]
            acc += (diff * diff) * args[:, 2 * d + a]
        return args[:, -1] - 0.5 * acc

    def cost_per_row(self, arg_count: int) -> RowCost:
        d = (arg_count - 1) // 3
        return RowCost(list_params=arg_count, arith_ops=3 * d)


#: stateless kernel singletons the :class:`ScoringSpec` names resolve to
_KERNELS: dict[str, ScalarUdf] = {
    udf.name: udf
    for udf in (
        LinearRegScoreUdf(),
        KMeansDistanceUdf(),
        NaiveBayesScoreUdf(),
        ClusterScoreUdf(),
        ClassifyScoreUdf(),
    )
}


@dataclass(frozen=True)
class ScoringSpec:
    """How one model kind scores a point ``x`` with the scalar UDFs.

    Row j of ``params`` holds group j's literal arguments after ``x``:
    ``kernel(x, *params[j])`` scores group j, and ``combine`` (None for a
    single group) folds the g scores into the result — the same
    ``combine(kernel(x, lits_1), …, kernel(x, lits_g))`` a one-scan
    scoring SELECT evaluates.  ``labels`` maps a 1-based arg-max index
    back to class labels.
    """

    kernel: str
    params: np.ndarray
    combine: "str | None"
    d: int
    output_column: str
    labels: "tuple[int, ...] | None" = None

    @property
    def integer_result(self) -> bool:
        return self.combine is not None

    @property
    def sql_column(self) -> str:
        """The inline SELECT's score column: an arg-max emits the 1-based
        class index ``idx`` (a CASE label mapping is not block-compilable)."""
        return "idx" if self.combine == "classifyscore" else self.output_column

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        """One ``compute_batch`` per group over an ``(m, d)`` block, then
        the combine; NaN marks a NULL result (see :meth:`finalize`)."""
        m, d = X.shape
        kernel = _KERNELS[self.kernel]
        scores = []
        for lits in self.params:
            args = np.empty((m, d + lits.shape[0]))
            args[:, :d] = X
            args[:, d:] = lits
            scores.append(kernel.compute_batch(args))
        if self.combine is None:
            return scores[0]
        return _KERNELS[self.combine].compute_batch(np.column_stack(scores))

    def score_rows(self, X: np.ndarray) -> "list[Any]":
        """The per-row reference: ``compute`` per point, NaN read as NULL,
        bit-identical to :meth:`score_batch` by the kernel contract."""
        kernel = _KERNELS[self.kernel]
        results: "list[Any]" = []
        for row in X:
            values = [None if np.isnan(v) else float(v) for v in row]
            scores = [
                kernel.compute(*values, *map(float, lits))
                for lits in self.params
            ]
            # A combine UDF, like every scoring UDF, maps a NULL in to NULL.
            raw = (
                scores[0]
                if self.combine is None
                else _KERNELS[self.combine].compute(*scores)
            )
            results.append(None if raw is None else self._value(raw))
        return results

    def finalize(self, raw: np.ndarray) -> "list[Any]":
        """Batch output → Python values: NaN → None, an arg-min/arg-max
        index → int (mapped through ``labels``), a score → float."""
        return [None if np.isnan(v) else self._value(v) for v in raw]

    def _value(self, raw: Any) -> Any:
        if self.combine is None:
            return float(raw)
        index = int(raw)
        return index if self.labels is None else self.labels[index - 1]


def gaussian_score_params(
    means: np.ndarray, variances: np.ndarray, weights: Sequence[float]
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``nbscore``'s per-group literals ``(µ, iv, bias)`` of a diagonal
    Gaussian per group: iv is the inverse variance and bias folds the log
    weight (prior) and the normalizer, so ``bias − ½ Σ (x−µ)²·iv`` is the
    group's log-density.  Naive Bayes and Gaussian mixtures both score
    through it.
    """
    variances = np.maximum(variances, 1e-12)
    d = means.shape[1]
    bias = (
        np.log(np.maximum(weights, 1e-300))
        - 0.5 * np.sum(np.log(variances), axis=1)
        - 0.5 * d * np.log(2.0 * np.pi)
    )
    return means, 1.0 / variances, bias


def register_scoring_udfs(db: Database) -> dict[str, ScalarUdf]:
    """Register all six scoring UDFs on *db*; returns them by name."""
    udfs: dict[str, ScalarUdf] = {}
    for udf in (
        LinearRegScoreUdf(),
        FaScoreUdf(),
        KMeansDistanceUdf(),
        ClusterScoreUdf(),
        ClassifyScoreUdf(),
        NaiveBayesScoreUdf(),
    ):
        db.register_udf(udf)
        udfs[udf.name] = udf
    return udfs
