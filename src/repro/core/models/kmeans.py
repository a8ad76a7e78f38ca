"""K-means clustering on per-cluster summary matrices.

Clustering is the one technique the paper cannot finish in a single
scan: each iteration reassigns points to their nearest centroid and
recomputes per-cluster statistics.  The key point (Section 3.2) is that
the *update* needs only per-cluster sufficient statistics

    C_j = L_j / N_j
    R_j = Q_j / N_j − L_j L_jᵀ / N_j²      (diagonal only)
    W_j = N_j / n

which are exactly a GROUP BY form of (n, L, Q) with a diagonal Q — one
aggregate query per iteration.  :meth:`KMeansModel.fit_matrix` is the
in-memory reference; :meth:`KMeansModel.iterate` is the one DBMS-driven
loop, fed per-cluster summaries by a fused ``kmeansiter`` scan
(:meth:`KMeansModel.fit_dbms`, the miner's default) or by the miner's
GROUP BY routes.  They produce identical models from identical
assignments.

An incremental one-pass variant (the paper cites incremental K-means
that reaches a good solution in one scan) is included as
:meth:`KMeansModel.fit_incremental`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.scoring.udfs import ScoringSpec
from repro.core.summary import SummaryStatistics
from repro.errors import ModelError


@dataclass
class KMeansModel:
    """Centroids C (k × d), diagonal radii R (k × d), weights W (k)."""

    centroids: np.ndarray
    radii: np.ndarray
    weights: np.ndarray
    inertia: float = float("nan")
    iterations: int = 0

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def d(self) -> int:
        return int(self.centroids.shape[1])

    # --------------------------------------------------------------- scoring
    registry_kind = "kmeans"
    registry_parts = ("c", "r", "w")

    def scoring_parts(self) -> dict:
        """C(j, x1..xd), R(j, x1..xd) and W(w1..wk)."""
        arrays = (self.centroids, self.radii, self.weights)
        return dict(zip(self.registry_parts, arrays))

    @staticmethod
    def scoring_spec(parts: "dict[str, np.ndarray]") -> ScoringSpec:
        """J = ``clusterscore`` over one ``kmeansdistance(x, C_j)`` per
        centroid."""
        centroids = parts["c"]
        return ScoringSpec(
            "kmeansdistance", centroids, "clusterscore", centroids.shape[1], "j"
        )

    # ------------------------------------------------------------ from stats
    @classmethod
    def from_group_summaries(
        cls,
        groups: "dict[int, SummaryStatistics]",
        k: int,
        previous_centroids: np.ndarray | None = None,
    ) -> "KMeansModel":
        """Build C, R, W from per-cluster (N_j, L_j, Q_j) summaries keyed
        by cluster subscript j = 1..k.

        Clusters with no assigned points keep their previous centroid
        (or raise when none is available) with zero weight.
        """
        if not groups and previous_centroids is None:
            raise ModelError("no group summaries and no previous centroids")
        any_stats = next(iter(groups.values())) if groups else None
        d = any_stats.d if any_stats is not None else previous_centroids.shape[1]
        # Only clusters 1..k count: a plain-SQL CASE assignment puts rows
        # with a NULL feature in a NULL-key group that no cluster owns.
        total = sum(groups[j].n for j in range(1, k + 1) if j in groups)
        centroids = np.zeros((k, d))
        radii = np.zeros((k, d))
        weights = np.zeros(k)
        for j in range(1, k + 1):
            stats = groups.get(j)
            if stats is None or stats.n == 0:
                if previous_centroids is None:
                    raise ModelError(f"cluster {j} is empty and has no fallback")
                centroids[j - 1] = previous_centroids[j - 1]
                continue
            Nj = stats.n
            centroids[j - 1] = stats.L / Nj
            radii[j - 1] = np.diag(stats.Q) / Nj - (stats.L / Nj) ** 2
            weights[j - 1] = Nj / total
        inertia = float(np.sum(weights * total * radii.sum(axis=1)))
        return cls(centroids, np.maximum(radii, 0.0), weights, inertia)

    # --------------------------------------------------------------- fitting
    @classmethod
    def fit_matrix(
        cls,
        X: np.ndarray,
        k: int,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
        seed: int = 0,
    ) -> "KMeansModel":
        """Standard Lloyd iterations in memory (the reference fit)."""
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        if not 1 <= k <= n:
            raise ModelError(f"k must be in [1, {n}], got {k}")
        centroids = _plus_plus_init(X, k, np.random.default_rng(seed))
        model = cls(centroids, np.zeros((k, d)), np.zeros(k))
        previous_inertia = np.inf
        for iteration in range(1, max_iterations + 1):
            labels = model.assign(X)
            groups: dict[int, SummaryStatistics] = {}
            for j in range(1, k + 1):
                members = X[labels == j]
                if members.shape[0]:
                    groups[j] = SummaryStatistics.from_matrix(members)
            model = cls.from_group_summaries(groups, k, model.centroids)
            model.iterations = iteration
            if abs(previous_inertia - model.inertia) <= tolerance * max(
                previous_inertia, 1.0
            ):
                break
            previous_inertia = model.inertia
        return model

    @classmethod
    def iterate(
        cls,
        centroids: np.ndarray,
        groups_of: "Callable[[np.ndarray], dict[int, SummaryStatistics]]",
        max_iterations: int,
        tolerance: float,
    ) -> "KMeansModel":
        """The DBMS-driven Lloyd loop, whatever runs each iteration.

        ``groups_of(centroids)`` returns the per-cluster (N_j, L_j, Q_j)
        summaries of one assignment against *centroids* — one fused
        ``kmeansiter`` scan, a GROUP BY nLQ UDF query or its plain-SQL
        twin.  Iteration stops once no centroid coordinate moves more
        than *tolerance*.
        """
        k = centroids.shape[0]
        model = cls(centroids, np.zeros_like(centroids), np.zeros(k))
        for iteration in range(1, max_iterations + 1):
            previous = model.centroids
            model = cls.from_group_summaries(groups_of(previous), k, previous)
            model.iterations = iteration
            shift = float(np.max(np.abs(model.centroids - previous)))
            if shift <= tolerance:
                break
        return model

    @classmethod
    def fit_dbms(
        cls,
        db,
        table: str,
        dimensions: "list[str]",
        k: int,
        max_iterations: int = 10,
        tolerance: float = 1e-4,
        seed: int = 0,
    ) -> "KMeansModel":
        """DBMS-driven Lloyd iterations, one fused scan per iteration.

        Each iteration installs the current centroids on the
        ``kmeansiter`` aggregate UDF and runs one SELECT: assignment and
        per-cluster (N, L, Q) aggregation happen inside the scan, with
        no materialized assignment table.  Bit-identical to the GROUP BY
        reference ``WarehouseMiner.kmeans(method="udf")`` (the fused
        kernel replays the scoring and GROUP BY arithmetic exactly).
        """
        centroids = _seed_centroids_dbms(db, table, dimensions, k, seed)
        return cls.iterate(
            centroids,
            fused_groups(db, table, dimensions),
            max_iterations,
            tolerance,
        )

    @classmethod
    def fit_incremental(
        cls,
        X: np.ndarray,
        k: int,
        block_rows: int = 256,
        seed: int = 0,
    ) -> "KMeansModel":
        """One-pass incremental K-means: running (N_j, L_j, Q_j) updated
        block by block with assignments against the running centroids.
        Suboptimal but single-scan, as the paper's discussion assumes."""
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        if not 1 <= k <= n:
            raise ModelError(f"k must be in [1, {n}], got {k}")
        rng = np.random.default_rng(seed)
        # Seed across the *whole* dataset: sampling only a prefix biases
        # the initial centroids toward the first partitions' rows when
        # the data arrives partition-ordered.
        centroids = _plus_plus_init(X, k, rng)
        counts = np.zeros(k)
        linear = np.zeros((k, d))
        quadratic = np.zeros((k, d))
        for start in range(0, n, block_rows):
            block = X[start : start + block_rows]
            distances = _squared_distances(block, centroids)
            labels = np.argmin(distances, axis=1)
            for j in range(k):
                members = block[labels == j]
                if not members.shape[0]:
                    continue
                counts[j] += members.shape[0]
                linear[j] += members.sum(axis=0)
                quadratic[j] += (members * members).sum(axis=0)
                centroids[j] = linear[j] / counts[j]
        weights = counts / max(counts.sum(), 1.0)
        radii = np.zeros((k, d))
        nonempty = counts > 0
        radii[nonempty] = (
            quadratic[nonempty] / counts[nonempty, None]
            - (linear[nonempty] / counts[nonempty, None]) ** 2
        )
        model = cls(centroids, np.maximum(radii, 0.0), weights, iterations=1)
        model.inertia = float(
            np.sum(counts[nonempty, None] * radii[nonempty])
        )
        return model

    # --------------------------------------------------------------- scoring
    def distances(self, X: np.ndarray) -> np.ndarray:
        """Squared Euclidean distance of each row to each centroid (n × k)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.d:
            raise ModelError(
                f"model has d={self.d}, data has {X.shape[1]} dimensions"
            )
        return _squared_distances(X, self.centroids)

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centroid subscript J (1-based, as the paper indexes j)."""
        return np.argmin(self.distances(X), axis=1) + 1

    def within_cluster_sse(self, X: np.ndarray) -> float:
        distances = self.distances(X)
        return float(distances[np.arange(distances.shape[0]),
                               np.argmin(distances, axis=1)].sum())


def _squared_distances(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diffs = X[:, None, :] - centroids[None, :, :]
    return np.sum(diffs * diffs, axis=2)


def _plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids out."""
    n = X.shape[0]
    centroids = [X[rng.integers(n)]]
    for _ in range(1, k):
        distances = np.min(_squared_distances(X, np.asarray(centroids)), axis=1)
        total = distances.sum()
        if total <= 0:
            centroids.append(X[rng.integers(n)])
            continue
        probabilities = distances / total
        centroids.append(X[rng.choice(n, p=probabilities)])
    return np.asarray(centroids, dtype=float)


def fused_groups(
    db, source: str, dimensions: "list[str]"
) -> "Callable[[np.ndarray], dict[int, SummaryStatistics]]":
    """``groups_of`` for :meth:`KMeansModel.iterate`: one fused
    ``kmeansiter`` scan of *source* (a table, or a star's FROM clause)
    per call, with the given centroids installed on the UDF."""
    from repro.core.fused import (
        fused_call_sql,
        register_fused_udfs,
        unpack_fused_payload,
    )

    udf = register_fused_udfs(db)["kmeansiter"]
    sql = fused_call_sql("kmeansiter", source, dimensions)

    def groups_of(centroids: np.ndarray) -> "dict[int, SummaryStatistics]":
        udf.set_centroids(centroids)
        groups, _ = unpack_fused_payload(db.execute(sql).scalar())
        return groups

    return groups_of


#: rows of the engine-side seeding sample; plenty for spreading k
#: centroids while keeping the client-side footprint O(cap · d)
SEED_SAMPLE_CAP = 1024


def _seed_centroids_dbms(
    db, table: str, dimensions: "list[str]", k: int, seed: int
) -> np.ndarray:
    """k-means++ centroids from a bounded, NULL-filtered engine sample.

    Seeding needs a representative spread, not the full table: a bounded
    reservoir sample gathered through the partition engine replaces the
    full client-side materialization, and filtering incomplete rows
    keeps NaN out of the seeded centroids (one NaN distance would poison
    every later assignment).  Deterministic for a fixed *seed* at any
    worker count.
    """
    from repro.dbms.sampling import reservoir_sample

    n = db.table(table).row_count
    if not 1 <= k <= n:
        raise ModelError(f"k must be in [1, {n}], got {k}")
    sample = reservoir_sample(
        db, table, dimensions, cap=SEED_SAMPLE_CAP, seed=seed
    )
    if sample.shape[0] < k:
        raise ModelError(
            f"table {table!r} has {sample.shape[0]} complete rows over "
            f"{dimensions}; need >= k={k}"
        )
    return _plus_plus_init(sample, k, np.random.default_rng(seed))
