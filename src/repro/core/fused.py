"""Fused single-scan clustering iterations as aggregate UDFs.

Clustering is the one technique the paper cannot finish in one scan
(Section 3.2): every iteration must *assign* points to clusters and
then *re-aggregate* per-cluster sufficient statistics.  The DBMS-driven
loop therefore traditionally pays two scans per iteration — a
scoring-UDF assignment pass plus a GROUP BY nLQ pass — or at best one
GROUP BY scan whose group key re-evaluates the assignment expression
row by row.

This module fuses the two stages into **one model-parameterized
aggregate UDF per algorithm**:

* :class:`KMeansIterUdf` — ``kmeansiter(d, x1, ..., xd)``.  The driver
  installs the current centroids on the UDF between statements; each
  partition task takes its cached numpy block, computes
  nearest-centroid assignments with the same batched kernel arithmetic
  as ``kmeansdistance``/``clusterscore``, and accumulates per-cluster
  ``(N_j, L_j, Q_j)`` by slicing the block per cluster — exactly the
  arithmetic the GROUP BY nLQ path performs, so the resulting model is
  bit-identical given identical assignments.
* :class:`EmIterUdf` — ``emiter(d, x1, ..., xd)``.  Same shape for EM:
  the E step's responsibilities are computed in-block (reusing
  :class:`~repro.core.models.em_mixture.GaussianMixtureModel`'s
  log-sum-exp kernel) and fold into *weighted* per-cluster summaries
  plus the running log-likelihood.

One engine task per partition, partial states merged in partition
order — each K-means/EM iteration is **one scan with zero materialized
assignment tables**.  ``finalize`` packs every cluster's summary into a
single string (clusters joined by :data:`CLUSTER_SEPARATOR`; EM
prepends the log-likelihood), decoded by :func:`unpack_fused_payload`.

The drivers live on the models themselves:
:meth:`KMeansModel.fit_dbms <repro.core.models.kmeans.KMeansModel.fit_dbms>`
and :meth:`GaussianMixtureModel.fit_dbms
<repro.core.models.em_mixture.GaussianMixtureModel.fit_dbms>`.

Thread-safety: the engine calls ``accumulate_block`` concurrently from
worker threads with per-partition states; accumulation mutates only the
passed state and *reads* the installed model parameters, which the
drivers change only between statements.  The ``udf.fused_iter`` fault
site fires inside each vectorized partition task running one of these
UDFs (see ``docs/fault_tolerance.md``).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core import factorized as factorized_math
from repro.core.models.em_mixture import GaussianMixtureModel
from repro.core.packing import SECTION_SEPARATOR, pack_summary, unpack_summary
from repro.core.scoring.udfs import squared_distance_block
from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.database import Database
from repro.dbms.udf import AggregateUdf, RowCost
from repro.errors import UdfArgumentError

#: joins per-cluster packed summaries inside one fused payload (must
#: differ from every separator ``pack_summary`` itself uses)
CLUSTER_SEPARATOR = "#"


class _FusedState:
    """Per-partition partial: per-cluster (N_j, L_j, Q_j diag) + extra.

    Shapes are fixed at :meth:`initialize` time — unlike the nLQ state,
    the model parameters pin ``k`` and ``d`` before the first row.
    ``extra`` carries EM's partial log-likelihood (0.0 for K-means).
    """

    __slots__ = ("k", "d", "counts", "linear", "quadratic", "extra")

    def __init__(self, k: int, d: int) -> None:
        self.k = k
        self.d = d
        self.counts = np.zeros(k)
        self.linear = np.zeros((k, d))
        self.quadratic = np.zeros((k, d))
        self.extra = 0.0


class _FusedIterUdf(AggregateUdf):
    """Shared machinery of the fused clustering-iteration UDFs."""

    supports_block = True
    #: marks the UDF for the ``udf.fused_iter`` fault site and the
    #: fused-iteration EXPLAIN ANALYZE annotations
    fault_site = "udf.fused_iter"
    fused_iteration = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        #: dimensionality seen during the last scan (costing only; the
        #: benign last-writer-wins race is the same as the nLQ UDFs')
        self._observed_d = 0

    # ---------------------------------------------------------- parameters
    @property
    def k(self) -> int:
        raise NotImplementedError

    @property
    def d(self) -> int:
        raise NotImplementedError

    def _require_parameters(self) -> None:
        if self.parameterized:
            return
        raise UdfArgumentError(
            f"UDF {self.name!r} has no model parameters installed; call "
            "set_centroids()/set_model() before the scan"
        )

    @property
    def parameterized(self) -> bool:
        raise NotImplementedError

    # --------------------------------------------------------------- phases
    def initialize(self) -> _FusedState:
        self._require_parameters()
        self.ensure_state_fits(self.state_value_count())
        return _FusedState(self.k, self.d)

    def _check_block(self, state: _FusedState, block: np.ndarray) -> np.ndarray:
        d = int(block[0, 0])
        if block.shape[1] - 1 != d:
            raise UdfArgumentError(
                f"UDF {self.name!r}: declared d={d} but received "
                f"{block.shape[1] - 1} point values"
            )
        if d != state.d:
            raise UdfArgumentError(
                f"UDF {self.name!r} is parameterized for d={state.d} but "
                f"received {d}-dimensional points"
            )
        self._observed_d = d
        return block[:, 1:]

    def _check_row(self, state: _FusedState, args: Sequence[Any]) -> list[float]:
        if len(args) < 2:
            raise UdfArgumentError(
                f"UDF {self.name!r} needs (d, x1, ..., xd); got {len(args)} args"
            )
        d = int(args[0])
        values = [float(v) for v in args[1:]]
        if len(values) != d:
            raise UdfArgumentError(
                f"UDF {self.name!r}: declared d={d} but received "
                f"{len(values)} point values"
            )
        if d != state.d:
            raise UdfArgumentError(
                f"UDF {self.name!r} is parameterized for d={state.d} but "
                f"received {d}-dimensional points"
            )
        self._observed_d = d
        return values

    def merge(self, state: _FusedState, other: _FusedState) -> _FusedState:
        state.counts += other.counts
        state.linear += other.linear
        state.quadratic += other.quadratic
        state.extra += other.extra
        return state

    # ----------------------------------------------------- factorized joins
    def _check_factorized_sources(self, sources: Sequence[Any]) -> None:
        """Factorized calls pass the same (d, x1..xd) shape; the planner
        already stripped the leading literal d, so *sources* must line up
        with the installed model's dimensionality."""
        self._require_parameters()
        if len(sources) != self.d:
            raise UdfArgumentError(
                f"UDF {self.name!r} is parameterized for d={self.d} but "
                f"the factorized call supplies {len(sources)} arguments"
            )
        self._observed_d = self.d

    def factorized_tables(
        self, sources: Sequence[Any], dim_values: Sequence[dict]
    ) -> dict:
        """Precomputed per-dimension-key partial tables (Rk-means)."""
        raise NotImplementedError  # pragma: no cover - subclasses override

    def state_from_factorized(
        self,
        counts: np.ndarray,
        linear: np.ndarray,
        quadratic: np.ndarray,
        extra: float,
    ) -> _FusedState:
        """Synthesize the finished state from factorized-combine output,
        so the ordinary :meth:`finalize` packs the exact payload a
        materialized-join scan would have produced."""
        state = self.initialize()
        state.counts += counts
        state.linear += linear
        state.quadratic += quadratic
        state.extra += float(extra)
        return state

    def _cluster_payloads(self, state: _FusedState) -> list[str]:
        payloads = []
        for j in range(state.k):
            stats = SummaryStatistics(
                n=float(state.counts[j]),
                L=state.linear[j].copy(),
                Q=np.diag(state.quadratic[j]),
                matrix_type=MatrixType.DIAGONAL,
            )
            payloads.append(pack_summary(stats))
        return payloads

    def finalize(self, state: _FusedState) -> str:
        return CLUSTER_SEPARATOR.join(self._cluster_payloads(state))

    # -------------------------------------------------------------- costing
    def state_value_count(self) -> int:
        """State size in 8-byte values: k, d, extra, and the three
        per-cluster arrays (counts + L + diagonal Q per cluster)."""
        if not self.parameterized:
            return 3
        return 3 + self.k * (1 + 2 * self.d)


class KMeansIterUdf(_FusedIterUdf):
    """One fused K-means iteration: assign + per-cluster (N, L, Q).

    ``accumulate_block`` replays the exact kernel arithmetic of the
    two-scan route — ``kmeansdistance``'s per-dimension
    ``diff * diff`` accumulation, ``clusterscore``'s 1-based arg-min —
    and then the GROUP BY nLQ path's per-cluster masked-slice sums, so
    fused and two-scan iterations produce bit-identical summaries.
    """

    def __init__(self, name: str = "kmeansiter") -> None:
        super().__init__(name)
        self._centroids: np.ndarray | None = None

    def set_centroids(self, centroids: np.ndarray) -> None:
        """Install the iteration's centroids (k × d); called by the
        driver between statements, never during a scan."""
        matrix = np.array(centroids, dtype=float)
        if matrix.ndim != 2:
            raise UdfArgumentError("centroids must be a (k, d) matrix")
        self._centroids = matrix

    @property
    def parameterized(self) -> bool:
        return self._centroids is not None

    @property
    def k(self) -> int:
        self._require_parameters()
        return int(self._centroids.shape[0])

    @property
    def d(self) -> int:
        self._require_parameters()
        return int(self._centroids.shape[1])

    # --------------------------------------------------------------- phases
    def accumulate_block(
        self, state: _FusedState, block: np.ndarray
    ) -> _FusedState:
        if block.shape[0] == 0:
            return state
        X = self._check_block(state, block)
        centroids = self._centroids
        distances = np.empty((X.shape[0], state.k))
        for j in range(state.k):
            distances[:, j] = squared_distance_block(X, centroids[j])
        labels = np.argmin(distances, axis=1) + 1
        for j in range(1, state.k + 1):
            # A plain gather, which numpy returns row-major: axis-0 sums
            # over it add rows in order, the row-path GROUP BY arithmetic
            # the two-scan reference runs.  take_rows would switch these
            # sums to pairwise and break that bit-identity.
            members = X[labels == j]
            if not members.shape[0]:
                continue
            state.counts[j - 1] += float(members.shape[0])
            state.linear[j - 1] += members.sum(axis=0)
            state.quadratic[j - 1] += (members * members).sum(axis=0)
        return state

    def accumulate(self, state: _FusedState, args: Sequence[Any]) -> _FusedState:
        values = self._check_row(state, args)
        centroids = self._centroids
        # Row-path reference arithmetic: kmeansdistance's generator-sum
        # of squared differences, clusterscore's strict-< first-minimum
        # over 1-based subscripts.
        best_j = 1
        best = sum(
            (xa - ca) ** 2 for xa, ca in zip(values, centroids[0])
        )
        for j in range(2, state.k + 1):
            distance = sum(
                (xa - ca) ** 2 for xa, ca in zip(values, centroids[j - 1])
            )
            if distance < best:
                best = distance
                best_j = j
        point = np.asarray(values)
        state.counts[best_j - 1] += 1.0
        state.linear[best_j - 1] += point
        state.quadratic[best_j - 1] += point * point
        return state

    def cost_per_row(self, arg_count: int) -> RowCost:
        d = self._observed_d or (self.d if self.parameterized else 1)
        k = self.k if self.parameterized else 1
        # k distances (3d ops each) + arg-min (k) + the nLQ update (2d+1).
        return RowCost(
            list_params=arg_count, arith_ops=3 * d * k + k + 2 * d + 1
        )

    def factorized_tables(
        self, sources: Sequence[Any], dim_values: Sequence[dict]
    ) -> dict:
        self._check_factorized_sources(sources)
        return factorized_math.prepare_kmeans_tables(
            self._centroids, sources, dim_values
        )


class EmIterUdf(_FusedIterUdf):
    """One fused EM iteration: E step + weighted per-cluster summaries.

    The block kernel reuses the model's own log-sum-exp E step, then
    folds responsibilities into ``N_j = Σ r_ij``, ``L_j = Σ r_ij x_i``,
    ``Q_j(diag) = Σ r_ij x_i²`` and the partial log-likelihood.  Partial
    matrix products are summed in partition order, so the fused M-step
    inputs match an in-memory fit to float merge-order (not bitwise —
    a full-matrix ``resp.T @ X`` associates differently than
    per-partition partials).
    """

    def __init__(self, name: str = "emiter") -> None:
        super().__init__(name)
        self._model: GaussianMixtureModel | None = None

    def set_model(self, model: GaussianMixtureModel) -> None:
        """Install the iteration's mixture parameters; called by the
        driver between statements, never during a scan."""
        self._model = GaussianMixtureModel(
            means=np.array(model.means, dtype=float),
            variances=np.array(model.variances, dtype=float),
            weights=np.array(model.weights, dtype=float),
        )

    @property
    def parameterized(self) -> bool:
        return self._model is not None

    @property
    def k(self) -> int:
        self._require_parameters()
        return self._model.k

    @property
    def d(self) -> int:
        self._require_parameters()
        return self._model.d

    # --------------------------------------------------------------- phases
    def _fold(self, state: _FusedState, X: np.ndarray) -> None:
        log_resp, log_likelihood = self._model._e_step(X)
        responsibilities = np.exp(log_resp)
        state.counts += responsibilities.sum(axis=0)
        state.linear += responsibilities.T @ X
        state.quadratic += responsibilities.T @ (X * X)
        state.extra += log_likelihood

    def accumulate_block(
        self, state: _FusedState, block: np.ndarray
    ) -> _FusedState:
        if block.shape[0] == 0:
            return state
        self._fold(state, self._check_block(state, block))
        return state

    def accumulate(self, state: _FusedState, args: Sequence[Any]) -> _FusedState:
        values = self._check_row(state, args)
        self._fold(state, np.asarray(values).reshape(1, -1))
        return state

    def finalize(self, state: _FusedState) -> str:
        # The log-likelihood rides as a leading bare float segment; it
        # can never be mistaken for a cluster payload because packed
        # summaries always contain section separators.
        return CLUSTER_SEPARATOR.join(
            [repr(state.extra), *self._cluster_payloads(state)]
        )

    def state_value_count(self) -> int:
        return super().state_value_count() + 1

    def cost_per_row(self, arg_count: int) -> RowCost:
        d = self._observed_d or (self.d if self.parameterized else 1)
        k = self.k if self.parameterized else 1
        # Per component: densities (~3d), softmax (~4), weighted updates
        # (~2d); plus the row's log-sum-exp bookkeeping.
        return RowCost(
            list_params=arg_count, arith_ops=k * (5 * d + 4) + 2 * d + 3
        )

    def factorized_tables(
        self, sources: Sequence[Any], dim_values: Sequence[dict]
    ) -> dict:
        self._check_factorized_sources(sources)
        model = self._model
        return factorized_math.prepare_em_tables(
            model.means, model.variances, model.weights, sources, dim_values
        )


#: registration names for the fused iteration UDFs
FUSED_UDF_NAMES = ("kmeansiter", "emiter")


def register_fused_udfs(db: Database) -> "dict[str, _FusedIterUdf]":
    """Register (or fetch already-registered) fused UDFs on *db*.

    Unlike the stateless nLQ UDFs, the fused UDFs carry model
    parameters between statements, so drivers must talk to the catalog's
    instances — re-registration would silently orphan installed
    parameters, hence register-if-missing semantics.
    """
    registered: dict[str, _FusedIterUdf] = {}
    for name, udf_class in (
        ("kmeansiter", KMeansIterUdf),
        ("emiter", EmIterUdf),
    ):
        existing = db.catalog.aggregate_udf(name)
        if existing is None:
            existing = udf_class(name)
            db.register_udf(existing)
        registered[name] = existing
    return registered


def fused_call_sql(udf_name: str, table: str, dimensions: Sequence[str]) -> str:
    """The one-scan SELECT driving a fused iteration over *table*."""
    args = ", ".join([str(len(dimensions)), *dimensions])
    return f"SELECT {udf_name}({args}) FROM {table}"


def unpack_fused_payload(
    payload: str,
) -> "tuple[dict[int, SummaryStatistics], float | None]":
    """Decode a fused payload into per-cluster summaries (+ EM's ll).

    Returns ``(groups, extra)`` where *groups* maps 1-based cluster
    subscripts to their summaries — empty clusters (``n == 0``) are
    omitted, matching what a GROUP BY query would return — and *extra*
    is the leading log-likelihood segment when present (EM), else None.
    """
    pieces = payload.split(CLUSTER_SEPARATOR)
    extra: float | None = None
    if pieces and SECTION_SEPARATOR not in pieces[0]:
        extra = float(pieces[0])
        pieces = pieces[1:]
    groups: dict[int, SummaryStatistics] = {}
    for j, piece in enumerate(pieces, start=1):
        stats = unpack_summary(piece)
        if stats.n > 0:
            groups[j] = stats
    return groups, extra


def assignment_expression(
    dimensions: Sequence[str], centroids: np.ndarray
) -> str:
    """The two-scan route's assignment expression: ``clusterscore`` over
    per-centroid ``kmeansdistance`` calls with the centroids inlined as
    float literals (``repr`` round-trips exactly, so the SQL carries the
    precise binary values)."""
    xs = ", ".join(dimensions)
    distances = []
    for centroid in np.asarray(centroids, dtype=float):
        cs = ", ".join(repr(float(value)) for value in centroid)
        distances.append(f"kmeansdistance({xs}, {cs})")
    return f"clusterscore({', '.join(distances)})"
