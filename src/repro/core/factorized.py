"""Factorized aggregation math: combine per-base-table partials.

Execution half of the factorized-join path (the planning half is
:mod:`repro.dbms.sql.factorize`).  Everything here is math over rows,
blocks and key codes, so the executor fans the folds out as partition
tasks and combines on the coordinator, exactly like the single-table
aggregate path.

The decomposition, following arXiv:1703.04780 (sparse-tensor /
functional-dependency factorized learning) and Rk-means
(arXiv:1910.04939) for the clustering iteration:

* **dimension side** — one pass per dimension table numbers its keys
  and stacks the features the aggregate reads into one matrix:
  :class:`DimensionFold` into a :class:`DimensionMap`;
* **fact side** — one pass over the fact table reads the fact columns
  as a block, turns each FK lane into key codes (one lookup per
  distinct FK value) and folds per-FK-tuple counts and fact-column sums
  (plus global fact-column cross products) with one
  :func:`~repro.dbms.blocks.keyed_fold`, never touching dimension rows;
* **combine** — per-group counts weight the dimension vectors:
  ``L_dim = Σ_g C_g · D[key_g]``, ``Q_dim = Σ_g C_g · D[key_g] ⊗
  D[key_g]``, ``Q_fact,dim = Σ_g S_g ⊗ D[key_g]`` — O(#groups · d²)
  math instead of O(|join| · d²).

Each star shape is one :class:`StarFold` — :class:`SummaryFold`,
:class:`FusedFold`, :class:`BuiltinFold` — with ``fold`` per fact
partition, ``merge(partials)`` in partition order and
``finish(merged)`` → the aggregate states.  They read the planner's
resolved argument sources: ``("fact", index)`` (into
``fact_positions``; a fact row position in builtin terms),
``("dim", arm, feature)`` (into that arm's de-duplicated features) and
``("const", value)`` (the literal as written).  Every sum adds rows in
scan order and partials in partition order, as a row loop would.

Inner-join semantics are preserved exactly: NULL FKs never equal a
key, NaN keys compare unequal to themselves, and dangling FKs have no
dimension entry — all three drop the fact row, just as the join
predicate would.  NULL feature values skip rows per aggregate
null-handling (``skips_nulls``), while genuine NaN floats flow through
and poison sums identically to the row-path reference.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.summary import MatrixType, SummaryStatistics
from repro.dbms.blocks import key_codes, keyed_fold, running_sum


class FactorizedFallback(Exception):
    """The factorized plan cannot answer this data; use the join path.

    Raised when an assumption the *planner* could not check fails at
    run time — today, a duplicated primary key in a dimension table
    (each duplicate would multiply joined rows, which per-key counts
    cannot express).  The executor catches this and re-runs the
    statement through the materializing join path, so results are
    always correct.
    """


def valid_key(value: Any) -> bool:
    """Can this value match a join key?  NULL and NaN (the one value
    unequal to itself) never join."""
    return value is not None and value == value


# --------------------------------------------------------------- dim side
class DimensionMap:
    """One dimension arm, each key numbered by a code:

    * ``codes``: key → code, the key's row in the next two;
    * ``features``: the ``(keys × F)`` float feature matrix (NULL
      becomes NaN so it stays numeric; ``null_any`` tells a NULL from a
      genuine NaN);
    * ``null_any``: per code, whether the key's features hold a NULL —
      rows joining it are skipped by null-skipping aggregates;
    * ``raw``: per code, the unconverted feature tuple (builtin
      SUM/COUNT use Python arithmetic to keep int results exact).
    """

    __slots__ = ("codes", "features", "null_any", "raw")

    def __init__(
        self, keys: Sequence[Any], raw: Sequence[tuple], width: int
    ) -> None:
        self.codes = dict(zip(keys, range(len(keys))))
        if len(self.codes) != len(keys):
            # A repeated key keeps its last code, so its first differs.
            duplicate = next(
                key for code, key in enumerate(keys) if self.codes[key] != code
            )
            raise FactorizedFallback(
                f"duplicate primary key {duplicate!r} in dimension table"
            )
        self.raw = raw
        # numpy reads None as NaN.
        self.features = np.array(raw, dtype=float).reshape(len(raw), width)
        self.null_any = np.array([None in feats for feats in raw], dtype=bool)


class DimensionFold:
    """One arm's dimension scan: *arm* names its ``key_position`` and
    de-duplicated ``feature_positions``; each partition folds into its
    joinable ``(keys, feature tuples)``, merged in partition order into
    one :class:`DimensionMap`."""

    reads_block = False

    def __init__(self, arm: Any) -> None:
        self.key_position = arm.key_position
        self.feature_positions = arm.feature_positions
        self.positions = (arm.key_position, *arm.feature_positions)

    def fold(self, rows: Iterable[Sequence[Any]]) -> "tuple[list, list]":
        joinable = [row for row in rows if valid_key(row[self.key_position])]
        return (
            [row[self.key_position] for row in joinable],
            [tuple(row[p] for p in self.feature_positions) for row in joinable],
        )

    def merge(self, parts: Sequence["tuple[list, list]"]) -> DimensionMap:
        return DimensionMap(
            [key for keys, _ in parts for key in keys],
            [feats for _, raw in parts for feats in raw],
            len(self.feature_positions),
        )


def arm_codes(values: Sequence[Any], arm: DimensionMap) -> np.ndarray:
    """Each fact row's code in *arm*, -1 where its FK joins no key
    (NULL, NaN or dangling): one lookup per distinct FK value."""
    distinct = {value: code for code, value in enumerate(dict.fromkeys(values))}
    lookup = np.array([arm.codes.get(value, -1) for value in distinct], np.intp)
    rows = np.fromiter(map(distinct.__getitem__, values), np.intp, len(values))
    return lookup[rows]


def _sum_by_key(
    codes: np.ndarray, values: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Each distinct row of *codes* (arm codes, one column per arm)
    once, in first-appearance order, with its rows' *values* added in
    scan order (:func:`~repro.dbms.blocks.keyed_fold`)."""
    columns = codes.T if codes.ndim > 1 else [codes]
    firsts, sums = keyed_fold(key_codes(columns), values)
    return codes[firsts], sums


def _first_extremes(
    lows: np.ndarray, highs: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Per column, the least of *lows* and the greatest of *highs* as a
    ``<``/``>`` scan in row order finds them from ``±inf``: a NaN
    poisons both, and of equal values (``-0.0``, ``0.0``) the first
    one stays."""
    columns = np.arange(lows.shape[1])
    if not len(lows):
        return np.full(len(columns), np.inf), np.full(len(columns), -np.inf)
    return lows[lows.argmin(0), columns], highs[highs.argmax(0), columns]


# -------------------------------------------------------------- fact side
class StarFold:
    """The fact side of one star shape, bound to its dimension maps.

    ``fold`` runs once per fact partition — ``fold(partition, block)``
    with the ``fact_positions`` columns as one block for a fold that
    ``reads_block``, else ``fold(rows)`` over the fact row slots at
    ``positions`` — ``merge(partials)`` combines them in partition
    order and ``finish(merged)`` returns the aggregate states in call
    order.  *plan* is the planner's resolved decision (its
    ``fact_key_positions``, ``fact_positions``, ``arg_sources``,
    ``matrix_type`` and ``builtin_shapes``), *arms* the merged
    :class:`DimensionMap` per arm and *udf* the aggregate UDF.
    """

    shape = ""
    reads_block = False

    def __init__(
        self, plan: Any, arms: Sequence[DimensionMap], udf: Any
    ) -> None:
        self.key_positions = plan.fact_key_positions
        self.fact_positions = plan.fact_positions
        self.sources = plan.arg_sources
        self.arms = arms
        self.udf = udf
        #: per arm, whether a code drops the row (index -1: no key)
        self.drops = [np.append(arm.null_any, True) for arm in arms]

    def _joined(
        self, partition: Any, block: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(codes, values)`` of the rows of *partition*'s fact *block*
        a null-skipping aggregate keeps: every FK joins a key without a
        NULL feature and no fact value is NULL — the lanes' NULL flags
        decide, since the block holds NaN for a NULL and for a stored
        NaN alike.  *codes* is ``(rows × arms)``, *values* row-major.
        No *partition* stands for a fact table without rows."""
        count = len(block)
        if partition is None:
            return np.zeros((0, len(self.arms)), np.intp), block
        codes = np.stack(
            [
                arm_codes(partition.values(position, 0, count), arm)
                for position, arm in zip(self.key_positions, self.arms)
            ],
            axis=1,
        )
        keep = np.ones(count, dtype=bool)
        for position in self.fact_positions:
            nulls = partition.lanes[position].nulls(0, count)
            if nulls is not None:
                keep &= ~nulls
        for arm, drops in enumerate(self.drops):
            keep &= ~drops[codes[:, arm]]
        return codes[keep], block[keep]

    def _no_rows(self) -> Any:
        """The partial of no fact rows, what an empty fact table merges."""
        return self.fold(None, np.zeros((0, len(self.fact_positions))))


class SummaryFold(StarFold):
    """One (n, L, Q) summary UDF.  A partition folds into ``(groups,
    totals, qff, mins, maxs)``: row *g* of ``groups`` is one FK tuple's
    arm codes and ``totals[g]`` its ``[count, Σx_0, ..., Σx_{F-1}]`` over
    the rows the aggregate keeps (all args non-NULL), added in scan
    order; ``qff`` holds the global fact-fact cross products; mins/maxs
    mirror ``np.minimum``/``np.maximum`` NaN propagation."""

    shape = "summary"
    reads_block = True

    def __init__(
        self, plan: Any, arms: Sequence[DimensionMap], udf: Any
    ) -> None:
        super().__init__(plan, arms, udf)
        self.matrix_type = plan.matrix_type
        # The fact-column cross products the fold accumulates globally.
        width = len(self.fact_positions)
        self.pairs = [
            (a, b)
            for a in range(width)
            for b in range(a, width)
            if a == b or self.matrix_type is not MatrixType.DIAGONAL
        ]
        self.pair_a = [a for a, _ in self.pairs]
        self.pair_b = [b for _, b in self.pairs]

    def fold(self, partition: Any, block: np.ndarray) -> "tuple":
        codes, values = self._joined(partition, block)
        return (
            *_sum_by_key(codes, np.column_stack([np.ones(len(values)), values])),
            running_sum(values[:, self.pair_a] * values[:, self.pair_b]),
            *_first_extremes(values, values),
        )

    def merge(self, parts: Sequence["tuple"]) -> "tuple":
        parts = parts or [self._no_rows()]
        groups, totals, qffs, mins, maxs = zip(*parts)
        return (
            *_sum_by_key(np.concatenate(groups), np.concatenate(totals)),
            running_sum(np.stack(qffs)),
            *_first_extremes(np.stack(mins), np.stack(maxs)),
        )

    def finish(self, merged: "tuple") -> "list[Any]":
        """The full (n, L, Q) from the per-base-table partials, as the
        UDF's finished state."""
        return [self.udf.state_from_stats(self._combine(merged))]

    def _combine(self, merged: "tuple") -> SummaryStatistics:
        groups, totals, qff, fact_mins, fact_maxs = merged
        sources, matrix_type = self.sources, self.matrix_type
        d = len(sources)
        if not len(groups):
            return SummaryStatistics.zeros(d, matrix_type)
        # Contiguous, as the dot products below have always read them.
        counts = np.ascontiguousarray(totals[:, 0])
        sums = np.ascontiguousarray(totals[:, 1:])
        value_columns = self._value_columns(groups)
        n = float(counts.sum())
        L = np.zeros(d)
        Q = np.zeros((d, d))
        mins = np.full(d, np.inf)
        maxs = np.full(d, -np.inf)
        for position, source in enumerate(sources):
            if source[0] == "fact":
                fact_index = source[1]
                L[position] = sums[:, fact_index].sum()
                mins[position] = fact_mins[fact_index]
                maxs[position] = fact_maxs[fact_index]
            else:
                column = value_columns[position]
                L[position] = float(counts @ column)
                mins[position] = float(np.min(column))
                maxs[position] = float(np.max(column))
        pair_totals = {
            (fact_a, fact_b): qff[index]
            for index, (fact_a, fact_b) in enumerate(self.pairs)
        }
        if matrix_type is MatrixType.DIAGONAL:
            for position, source in enumerate(sources):
                if source[0] == "fact":
                    Q[position, position] = pair_totals[(source[1], source[1])]
                else:
                    column = value_columns[position]
                    Q[position, position] = float(counts @ (column * column))
        else:
            for a in range(d):
                for b in range(a, d):
                    source_a, source_b = sources[a], sources[b]
                    if source_a[0] == "fact" and source_b[0] == "fact":
                        fa, fb = source_a[1], source_b[1]
                        value = pair_totals[(min(fa, fb), max(fa, fb))]
                    elif source_a[0] == "fact":
                        value = float(
                            sums[:, source_a[1]] @ value_columns[b]
                        )
                    elif source_b[0] == "fact":
                        value = float(
                            sums[:, source_b[1]] @ value_columns[a]
                        )
                    else:
                        value = float(
                            (counts * value_columns[a]) @ value_columns[b]
                        )
                    Q[a, b] = value
                    Q[b, a] = value
        return SummaryStatistics(
            n=n, L=L, Q=Q, matrix_type=matrix_type, mins=mins, maxs=maxs
        )

    def _value_columns(self, groups: np.ndarray) -> "dict[int, np.ndarray]":
        """Per-FK-tuple value column for every non-fact argument source."""
        columns: "dict[int, np.ndarray]" = {}
        for position, source in enumerate(self.sources):
            if source[0] == "const":
                columns[position] = np.full(len(groups), float(source[1]))
            elif source[0] == "dim":
                _kind, arm, feature = source
                columns[position] = self.arms[arm].features[
                    groups[:, arm], feature
                ]
        return columns


class BuiltinFold(StarFold):
    """COUNT(*)/SUM partials.  Each of the plan's ``builtin_shapes`` is
    ``("count_star",)`` or ``("sum", terms)`` with terms ``("fact", row
    position)``, ``("dim", arm, feature)`` or ``("const", value)``.
    Sums use Python arithmetic so integer results stay integers, exactly
    like the row path."""

    shape = "builtins"

    def __init__(
        self, plan: Any, arms: Sequence[DimensionMap], udf: Any
    ) -> None:
        super().__init__(plan, arms, udf)
        self.specs = plan.builtin_shapes
        self.positions = (
            *self.key_positions,
            *(
                term[1]
                for spec in self.specs
                if spec[0] == "sum"
                for term in spec[1]
                if term[0] == "fact"
            ),
        )

    def _empty(self) -> list:
        return [0 if spec[0] == "count_star" else [None, 0] for spec in self.specs]

    def fold(self, rows: Iterable[Sequence[Any]]) -> list:
        key_positions, arms, specs = self.key_positions, self.arms, self.specs
        states = self._empty()
        for row in rows:
            keys = [
                arm.codes.get(row[position])
                for position, arm in zip(key_positions, arms)
            ]
            if None in keys:
                continue
            for index, spec in enumerate(specs):
                if spec[0] == "count_star":
                    states[index] += 1
                    continue
                product = None
                for term in spec[1]:
                    if term[0] == "fact":
                        value = row[term[1]]
                    elif term[0] == "dim":
                        value = arms[term[1]].raw[keys[term[1]]][term[2]]
                    else:
                        value = term[1]
                    if value is None:
                        product = None
                        break
                    product = value if product is None else product * value
                if product is not None:
                    state = states[index]
                    state[0] = product if state[0] is None else state[0] + product
                    state[1] += 1
        return states

    def merge(self, parts: Sequence[list]) -> list:
        specs = self.specs
        states = self._empty()
        for part_states in parts:
            for index, spec in enumerate(specs):
                if spec[0] == "count_star":
                    states[index] += part_states[index]
                    continue
                total, contributed = part_states[index]
                if total is not None:
                    state = states[index]
                    state[0] = total if state[0] is None else state[0] + total
                    state[1] += contributed
        return states

    def finish(self, merged: list) -> "list[Any]":
        return [
            state if spec[0] == "count_star" else state[0]
            for spec, state in zip(self.specs, merged)
        ]


# ------------------------------------------------- fused clustering side
def _arm_columns(
    sources: Sequence["tuple"], arm: int
) -> "tuple[list[int], list[int]]":
    """The argument positions that read dimension *arm*, and the arm
    features they read."""
    positions = [
        position
        for position, source in enumerate(sources)
        if source[0] == "dim" and source[1] == arm
    ]
    return positions, [sources[position][2] for position in positions]


def _key_tables(
    sources: Sequence["tuple"],
    dim_features: Sequence[np.ndarray],
    centers: np.ndarray,
    variances: "np.ndarray | None" = None,
) -> "list[np.ndarray]":
    """Per arm, the ``(keys × k)`` table of each key's Σ (feature −
    center)² (over the variance, for EM) across the argument positions
    that read the arm; rows in code order."""
    tables = []
    for arm, features in enumerate(dim_features):
        positions, feature_order = _arm_columns(sources, arm)
        terms = (
            features[:, None, feature_order] - centers[None, :, positions]
        ) ** 2
        if variances is not None:
            terms = terms / variances[None, :, positions]
        tables.append(terms.sum(axis=2))
    return tables


def prepare_kmeans_tables(
    centroids: np.ndarray,
    sources: Sequence["tuple"],
    dim_features: Sequence[np.ndarray],
) -> "dict":
    """Per-dimension partial squared distances, per Rk-means.

    ``dist²(x, c_j) = Σ_fact (x_b − c_jb)² + Σ_dim table_i[key][j] +
    base[j]`` — the dimension terms depend only on the FK, so they are
    precomputed once per dimension *key* (a ``(keys × k)`` table per
    arm, rows in code order) instead of once per fact row.
    """
    centroids = np.asarray(centroids, dtype=float)
    k = centroids.shape[0]
    fact_positions = [
        position for position, source in enumerate(sources) if source[0] == "fact"
    ]
    base = np.zeros(k)
    for position, source in enumerate(sources):
        if source[0] == "const":
            base += (float(source[1]) - centroids[:, position]) ** 2
    return {
        "kind": "kmeans",
        "k": k,
        "fact_centers": centroids[:, fact_positions],
        "base": base,
        "dim_tables": _key_tables(sources, dim_features, centroids),
    }


def prepare_em_tables(
    means: np.ndarray,
    variances: np.ndarray,
    weights: np.ndarray,
    sources: Sequence["tuple"],
    dim_features: Sequence[np.ndarray],
) -> "dict":
    """EM analogue: per-key Mahalanobis partials + per-component bias.

    ``log p_j(x) = bias[j] − 0.5·(Σ_fact (x−μ)²/σ² + Σ_dim
    table_i[key][j])`` where bias folds the weight, the normalizer and
    the constant-argument terms.
    """
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    weights = np.asarray(weights, dtype=float)
    k, d = means.shape
    fact_positions = [
        position for position, source in enumerate(sources) if source[0] == "fact"
    ]
    bias = (
        np.log(weights)
        - 0.5 * (d * math.log(2.0 * math.pi) + np.log(variances).sum(axis=1))
    )
    for position, source in enumerate(sources):
        if source[0] == "const":
            bias -= 0.5 * (
                (float(source[1]) - means[:, position]) ** 2
                / variances[:, position]
            )
    return {
        "kind": "em",
        "k": k,
        "fact_means": means[:, fact_positions],
        "fact_variances": variances[:, fact_positions],
        "bias": bias,
        "dim_tables": _key_tables(sources, dim_features, means, variances),
    }


class FusedFold(StarFold):
    """One fused clustering iteration (k-means or EM) over the star.

    A partition folds into ``(counts, linear_fact, quadratic_fact,
    weights, extra)`` where ``weights[i]`` is ``(codes, matrix)``: each
    dimension-i key the partition's rows joined, in first-appearance
    order, with its per-cluster row count (k-means) or summed
    responsibilities (EM) — the weights that later scale the dimension
    vectors into the per-cluster (N, L, Q) partials.  Every sum adds
    rows in scan order.
    """

    shape = "fused"
    reads_block = True

    def __init__(
        self, plan: Any, arms: Sequence[DimensionMap], udf: Any
    ) -> None:
        super().__init__(plan, arms, udf)
        self.tables = udf.factorized_tables(
            self.sources, [arm.features for arm in arms]
        )

    def fold(self, partition: Any, block: np.ndarray) -> "tuple":
        codes, X = self._joined(partition, block)
        tables = self.tables
        k, width = tables["k"], X.shape[1]
        if tables["kind"] == "kmeans":
            distances = tables["base"] + (
                (X[:, None, :] - tables["fact_centers"]) ** 2
            ).sum(axis=2)
            for arm, table in enumerate(tables["dim_tables"]):
                distances = distances + table[codes[:, arm]]
            labels = distances.argmin(axis=1)
            firsts, sums = keyed_fold(
                labels, np.column_stack([np.ones(len(X)), X, X * X])
            )
            per_cluster = np.zeros((k, 1 + 2 * width))
            per_cluster[labels[firsts]] = sums
            counts, linear, quadratic = np.split(per_cluster, [1, 1 + width], 1)
            counts = counts[:, 0]
            responsibility = np.eye(k)[labels]
            extra = 0.0
        else:
            quad = (
                (X[:, None, :] - tables["fact_means"]) ** 2
                / tables["fact_variances"]
            ).sum(axis=2)
            for arm, table in enumerate(tables["dim_tables"]):
                quad = quad + table[codes[:, arm]]
            log_prob = tables["bias"] - 0.5 * quad
            peak = log_prob.max(axis=1)
            totals = np.exp(log_prob - peak[:, None]).sum(axis=1)
            # libm's log, as the row reference takes it: numpy's own log
            # differs from it in the last bit on a few values.
            log_norm = peak + np.fromiter(
                map(math.log, totals.tolist()), float, len(totals)
            )
            responsibility = np.exp(log_prob - log_norm[:, None])
            extra = float(running_sum(log_norm))
            counts = running_sum(responsibility)
            linear = running_sum(responsibility[:, :, None] * X[:, None, :])
            quadratic = running_sum(
                responsibility[:, :, None] * (X * X)[:, None, :]
            )
        weights = [
            _sum_by_key(codes[:, arm], responsibility)
            for arm in range(len(self.arms))
        ]
        return counts, linear, quadratic, weights, extra

    def merge(self, parts: Sequence["tuple"]) -> "tuple":
        parts = parts or [self._no_rows()]
        counts, linear, quadratic, weights, extra = zip(*parts)
        merged = []
        for arm in range(len(self.arms)):
            codes, sums = zip(*(part[arm] for part in weights))
            merged.append(_sum_by_key(np.concatenate(codes), np.concatenate(sums)))
        return (
            running_sum(np.stack(counts)),
            running_sum(np.stack(linear)),
            running_sum(np.stack(quadratic)),
            merged,
            float(running_sum(np.array(extra))),
        )

    def finish(self, merged: "tuple") -> "list[Any]":
        """Full per-cluster (N, L, Q-diagonal) from the fused partials,
        as the UDF's finished state."""
        counts, linear_fact, quadratic_fact, weights, extra = merged
        sources, k = self.sources, self.tables["k"]
        d = len(sources)
        linear = np.zeros((k, d))
        quadratic = np.zeros((k, d))
        fact_cursor = 0
        for position, source in enumerate(sources):
            if source[0] == "fact":
                linear[:, position] = linear_fact[:, fact_cursor]
                quadratic[:, position] = quadratic_fact[:, fact_cursor]
                fact_cursor += 1
            elif source[0] == "const":
                value = float(source[1])
                linear[:, position] = counts * value
                quadratic[:, position] = counts * value * value
        for arm, (codes, weight_matrix) in enumerate(weights):
            positions, feature_order = _arm_columns(sources, arm)
            if not positions or not len(codes):
                continue
            feature_matrix = self.arms[arm].features[codes][:, feature_order]
            linear[:, positions] += weight_matrix.T @ feature_matrix
            quadratic[:, positions] += weight_matrix.T @ (
                feature_matrix * feature_matrix
            )
        return [self.udf.state_from_factorized(counts, linear, quadratic, extra)]
