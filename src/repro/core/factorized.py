"""Factorized aggregation math: combine per-base-table partials.

Execution half of the factorized-join path (the planning half is
:mod:`repro.dbms.sql.factorize`).  Everything here is pure math over
rows and numpy arrays — no database imports — so the executor fans the
folds out as partition tasks and combines on the coordinator, exactly
like the single-table aggregate path.

The decomposition, following arXiv:1703.04780 (sparse-tensor /
functional-dependency factorized learning) and Rk-means
(arXiv:1910.04939) for the clustering iteration:

* **dimension side** — one pass per dimension table builds a key →
  feature-vector map (PK → the columns the aggregate reads):
  :class:`DimensionFold` into a :class:`DimensionMap`;
* **fact side** — one pass over the fact table groups rows by their
  FK tuple, keeping per-group counts and fact-column sums (plus global
  fact-column cross products), never touching the dimension rows;
* **combine** — per-group counts weight the dimension vectors:
  ``L_dim = Σ_g C_g · D[key_g]``, ``Q_dim = Σ_g C_g · D[key_g] ⊗
  D[key_g]``, ``Q_fact,dim = Σ_g S_g ⊗ D[key_g]`` — O(#groups · d²)
  math instead of O(|join| · d²).

Each star shape is one :class:`StarFold` — :class:`SummaryFold`,
:class:`FusedFold`, :class:`BuiltinFold` — with ``fold(rows)`` per fact
partition, ``merge(partials)`` in partition order and
``finish(merged)`` → the aggregate states.  They read the planner's
resolved argument sources: ``("fact", index)`` (into
``fact_positions``; a fact row position in builtin terms),
``("dim", arm, feature)`` (into that arm's de-duplicated features) and
``("const", value)`` (the literal as written).

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
    """Can this value match a join key?  NULL and NaN never join."""
    if value is None:
        return False
    if isinstance(value, float) and math.isnan(value):
        return False
    return True


# --------------------------------------------------------------- dim side
class DimensionMap:
    """One dimension arm's key → features map.

    * ``values``: key → float feature vector (NULL becomes NaN so the
      vector stays numeric; genuine NaN is indistinguishable here, but
      ``null_any`` disambiguates);
    * ``null_any``: keys whose features include a genuine NULL — rows
      joining them are skipped by null-skipping aggregates;
    * ``raw``: key → unconverted feature tuple (builtin SUM/COUNT use
      Python arithmetic to preserve int results exactly).
    """

    __slots__ = ("values", "null_any", "raw")

    def __init__(self) -> None:
        self.values: dict = {}
        self.null_any: set = set()
        self.raw: dict = {}


class DimensionFold:
    """One arm's dimension scan: *arm* names its ``key_position`` and
    de-duplicated ``feature_positions``; each partition folds into a
    :class:`DimensionMap`, merged in partition order."""

    def __init__(self, arm: Any) -> None:
        self.key_position = arm.key_position
        self.feature_positions = arm.feature_positions
        self.positions = (arm.key_position, *arm.feature_positions)

    def fold(self, rows: Iterable[Sequence[Any]]) -> DimensionMap:
        part = DimensionMap()
        values, null_any, raw = part.values, part.null_any, part.raw
        key_position = self.key_position
        feature_positions = self.feature_positions
        for row in rows:
            key = row[key_position]
            if not valid_key(key):
                continue
            if key in values:
                raise FactorizedFallback(
                    f"duplicate primary key {key!r} in dimension table"
                )
            feats = tuple(row[position] for position in feature_positions)
            raw[key] = feats
            if any(value is None for value in feats):
                null_any.add(key)
            values[key] = np.array(
                [math.nan if value is None else float(value) for value in feats],
                dtype=float,
            )
        return part

    def merge(self, parts: Sequence[DimensionMap]) -> DimensionMap:
        merged = DimensionMap()
        for part in parts:
            for key in part.values:
                if key in merged.values:
                    raise FactorizedFallback(
                        f"duplicate primary key {key!r} in dimension table"
                    )
            merged.values.update(part.values)
            merged.null_any |= part.null_any
            merged.raw.update(part.raw)
        return merged


def _match_keys(
    row: Sequence[Any],
    key_positions: Sequence[int],
    dim_maps: Sequence["tuple[dict, set]"],
) -> "tuple | None":
    """The row's FK tuple if every arm matches, else None (row drops)."""
    keys = []
    for position, (values, _null_any) in zip(key_positions, dim_maps):
        key = row[position]
        if not valid_key(key) or key not in values:
            return None
        keys.append(key)
    return tuple(keys)


def _any_null_feature(
    keys: "tuple", dim_maps: Sequence["tuple[dict, set]"]
) -> bool:
    return any(
        key in null_any for key, (_values, null_any) in zip(keys, dim_maps)
    )


def fact_pairs(
    count: int, matrix_type: "MatrixType"
) -> "list[tuple[int, int]]":
    """Which fact-column cross products the fold accumulates globally."""
    if matrix_type is MatrixType.DIAGONAL:
        return [(index, index) for index in range(count)]
    return [
        (a, b) for a in range(count) for b in range(count) if a <= b
    ]


# -------------------------------------------------------------- fact side
class StarFold:
    """The fact side of one star shape, bound to its dimension maps.

    ``positions`` are the fact row slots the fold reads; ``fold(rows)``
    runs once per fact partition, ``merge(partials)`` combines them in
    partition order and ``finish(merged)`` returns the aggregate states
    in call order.  *plan* is the planner's resolved decision (its
    ``fact_key_positions``, ``fact_positions``, ``arg_sources``,
    ``matrix_type`` and ``builtin_shapes``), *arms* the merged
    :class:`DimensionMap` per arm and *udf* the aggregate UDF.
    """

    shape = ""

    def __init__(
        self, plan: Any, arms: Sequence[DimensionMap], udf: Any
    ) -> None:
        self.key_positions = plan.fact_key_positions
        self.fact_positions = plan.fact_positions
        self.sources = plan.arg_sources
        self.dim_maps = [(arm.values, arm.null_any) for arm in arms]
        self.dim_values = [arm.values for arm in arms]
        self.udf = udf
        self.positions = (*self.key_positions, *self.fact_positions)


class SummaryFold(StarFold):
    """One (n, L, Q) summary UDF.  A partition folds into ``(matched,
    groups, qff, mins, maxs)``: ``groups`` maps each FK tuple to
    ``[count, Σx_0, ..., Σx_{F-1}]`` over rows the aggregate keeps (all
    args non-NULL); ``qff`` holds the global fact-fact cross products;
    mins/maxs mirror ``np.minimum``/``np.maximum`` NaN propagation."""

    shape = "summary"

    def __init__(
        self, plan: Any, arms: Sequence[DimensionMap], udf: Any
    ) -> None:
        super().__init__(plan, arms, udf)
        self.matrix_type = plan.matrix_type
        self.pairs = fact_pairs(len(self.fact_positions), self.matrix_type)

    def fold(self, rows: Iterable[Sequence[Any]]) -> "tuple":
        key_positions, dim_maps = self.key_positions, self.dim_maps
        fact_positions, pairs = self.fact_positions, self.pairs
        groups: dict = {}
        width = len(fact_positions)
        qff = [0.0] * len(pairs)
        mins = [math.inf] * width
        maxs = [-math.inf] * width
        matched = 0
        for row in rows:
            keys = _match_keys(row, key_positions, dim_maps)
            if keys is None:
                continue
            matched += 1
            if _any_null_feature(keys, dim_maps):
                continue
            raw = [row[position] for position in fact_positions]
            if any(value is None for value in raw):
                continue
            floats = [float(value) for value in raw]
            entry = groups.get(keys)
            if entry is None:
                entry = [0.0] * (1 + width)
                groups[keys] = entry
            entry[0] += 1.0
            for index, value in enumerate(floats):
                entry[1 + index] += value
                if value != value:  # NaN poisons, like np.minimum/np.maximum
                    mins[index] = maxs[index] = value
                elif mins[index] == mins[index]:
                    if value < mins[index]:
                        mins[index] = value
                    if value > maxs[index]:
                        maxs[index] = value
            for pair_index, (a, b) in enumerate(pairs):
                qff[pair_index] += floats[a] * floats[b]
        return matched, groups, qff, mins, maxs

    def merge(self, parts: Sequence["tuple"]) -> "tuple":
        width, pair_count = len(self.fact_positions), len(self.pairs)
        matched = 0
        groups: dict = {}
        qff = [0.0] * pair_count
        mins = [math.inf] * width
        maxs = [-math.inf] * width
        for part_matched, part_groups, part_qff, part_mins, part_maxs in parts:
            matched += part_matched
            for keys, entry in part_groups.items():
                merged = groups.get(keys)
                if merged is None:
                    groups[keys] = list(entry)
                else:
                    for index, value in enumerate(entry):
                        merged[index] += value
            for index in range(pair_count):
                qff[index] += part_qff[index]
            for index in range(width):
                if part_mins[index] != part_mins[index]:
                    mins[index] = maxs[index] = part_mins[index]
                elif mins[index] == mins[index]:
                    if part_mins[index] < mins[index]:
                        mins[index] = part_mins[index]
                    if part_maxs[index] > maxs[index]:
                        maxs[index] = part_maxs[index]
        return matched, groups, qff, mins, maxs

    def finish(self, merged: "tuple") -> "list[Any]":
        """The full (n, L, Q) from the per-base-table partials, as the
        UDF's finished state."""
        return [self.udf.state_from_stats(self._combine(merged))]

    def _combine(self, merged: "tuple") -> SummaryStatistics:
        _matched, groups, qff, fact_mins, fact_maxs = merged
        sources, matrix_type = self.sources, self.matrix_type
        d = len(sources)
        width = len(self.fact_positions)
        if not groups:
            return SummaryStatistics.zeros(d, matrix_type)
        tuples = list(groups)
        counts = np.array([groups[keys][0] for keys in tuples], dtype=float)
        sums = np.array(
            [groups[keys][1:] for keys in tuples], dtype=float
        ).reshape(len(tuples), width)
        value_columns = _tuple_value_columns(tuples, sources, self.dim_values)
        n = float(counts.sum())
        L = np.zeros(d)
        Q = np.zeros((d, d))
        mins = np.full(d, np.inf)
        maxs = np.full(d, -np.inf)
        nonempty = counts > 0
        for position, source in enumerate(sources):
            if source[0] == "fact":
                fact_index = source[1]
                L[position] = sums[:, fact_index].sum()
                mins[position] = fact_mins[fact_index]
                maxs[position] = fact_maxs[fact_index]
            else:
                column = value_columns[position]
                L[position] = float(counts @ column)
                if nonempty.any():
                    mins[position] = float(np.min(column[nonempty]))
                    maxs[position] = float(np.max(column[nonempty]))
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


def _tuple_value_columns(
    tuples: "list[tuple]",
    sources: Sequence["tuple"],
    dim_values: Sequence[dict],
) -> "dict[int, np.ndarray]":
    """Per-tuple value column for every non-fact argument source."""
    columns: "dict[int, np.ndarray]" = {}
    count = len(tuples)
    for position, source in enumerate(sources):
        if source[0] == "const":
            columns[position] = np.full(count, float(source[1]))
        elif source[0] == "dim":
            _kind, dim_index, feature_index = source
            values = dim_values[dim_index]
            columns[position] = np.array(
                [values[keys[dim_index]][feature_index] for keys in tuples],
                dtype=float,
            )
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
        self.dim_raw = [arm.raw for arm in arms]
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

    def fold(self, rows: Iterable[Sequence[Any]]) -> "tuple[int, list]":
        key_positions, dim_maps = self.key_positions, self.dim_maps
        dim_raw, specs = self.dim_raw, self.specs
        matched = 0
        states = self._empty()
        for row in rows:
            keys = _match_keys(row, key_positions, dim_maps)
            if keys is None:
                continue
            matched += 1
            for index, spec in enumerate(specs):
                if spec[0] == "count_star":
                    states[index] += 1
                    continue
                product = None
                for term in spec[1]:
                    if term[0] == "fact":
                        value = row[term[1]]
                    elif term[0] == "dim":
                        value = dim_raw[term[1]][keys[term[1]]][term[2]]
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
        return matched, states

    def merge(self, parts: Sequence["tuple[int, list]"]) -> "tuple[int, list]":
        specs = self.specs
        matched = 0
        states = self._empty()
        for part_matched, part_states in parts:
            matched += part_matched
            for index, spec in enumerate(specs):
                if spec[0] == "count_star":
                    states[index] += part_states[index]
                    continue
                total, contributed = part_states[index]
                if total is not None:
                    state = states[index]
                    state[0] = total if state[0] is None else state[0] + total
                    state[1] += contributed
        return matched, states

    def finish(self, merged: "tuple[int, list]") -> "list[Any]":
        _matched, states = merged
        return [
            state if spec[0] == "count_star" else state[0]
            for spec, state in zip(self.specs, states)
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


def prepare_kmeans_tables(
    centroids: np.ndarray,
    sources: Sequence["tuple"],
    dim_values: Sequence[dict],
) -> "dict":
    """Per-dimension partial squared distances, per Rk-means.

    ``dist²(x, c_j) = Σ_fact (x_b − c_jb)² + Σ_dim table_i[key][j] +
    base[j]`` — the dimension terms depend only on the FK, so they are
    precomputed once per dimension *key* instead of once per fact row.
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
    dim_tables: "list[dict]" = []
    for dim_index, values in enumerate(dim_values):
        positions, feature_order = _arm_columns(sources, dim_index)
        sub_centroids = centroids[:, positions]  # (k, F_i)
        table: dict = {}
        for key, vector in values.items():
            features = vector[feature_order]
            table[key] = ((features[None, :] - sub_centroids) ** 2).sum(
                axis=1
            )
        dim_tables.append(table)
    return {
        "kind": "kmeans",
        "k": k,
        "fact_centers": centroids[:, fact_positions],
        "base": base,
        "dim_tables": dim_tables,
    }


def prepare_em_tables(
    means: np.ndarray,
    variances: np.ndarray,
    weights: np.ndarray,
    sources: Sequence["tuple"],
    dim_values: Sequence[dict],
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
    dim_tables: "list[dict]" = []
    for dim_index, values in enumerate(dim_values):
        positions, feature_order = _arm_columns(sources, dim_index)
        sub_means = means[:, positions]
        sub_variances = variances[:, positions]
        table: dict = {}
        for key, vector in values.items():
            features = vector[feature_order]
            table[key] = (
                (features[None, :] - sub_means) ** 2 / sub_variances
            ).sum(axis=1)
        dim_tables.append(table)
    return {
        "kind": "em",
        "k": k,
        "fact_means": means[:, fact_positions],
        "fact_variances": variances[:, fact_positions],
        "bias": bias,
        "dim_tables": dim_tables,
    }


class FusedFold(StarFold):
    """One fused clustering iteration (k-means or EM) over the star.

    A partition folds into ``(matched, counts, linear_fact,
    quadratic_fact, assignment_maps, extra)`` where
    ``assignment_maps[i]`` maps each dimension-i key to its per-cluster
    row count (k-means) or summed responsibilities (EM) — the weights
    that later scale the dimension vectors into the per-cluster
    (N, L, Q) partials.
    """

    shape = "fused"

    def __init__(
        self, plan: Any, arms: Sequence[DimensionMap], udf: Any
    ) -> None:
        super().__init__(plan, arms, udf)
        self.tables = udf.factorized_tables(self.sources, self.dim_values)

    def fold(self, rows: Iterable[Sequence[Any]]) -> "tuple":
        key_positions, dim_maps = self.key_positions, self.dim_maps
        fact_positions, tables = self.fact_positions, self.tables
        k = tables["k"]
        width = len(fact_positions)
        counts = np.zeros(k)
        linear = np.zeros((k, width))
        quadratic = np.zeros((k, width))
        assignment_maps: "list[dict]" = [dict() for _ in dim_maps]
        dim_tables = tables["dim_tables"]
        kmeans = tables["kind"] == "kmeans"
        extra = 0.0
        matched = 0
        for row in rows:
            keys = _match_keys(row, key_positions, dim_maps)
            if keys is None:
                continue
            matched += 1
            if _any_null_feature(keys, dim_maps):
                continue
            raw = [row[position] for position in fact_positions]
            if any(value is None for value in raw):
                continue
            x = np.array(raw, dtype=float)
            if kmeans:
                distances = tables["base"] + (
                    (x[None, :] - tables["fact_centers"]) ** 2
                ).sum(axis=1)
                for dim_index, key in enumerate(keys):
                    distances = distances + dim_tables[dim_index][key]
                cluster = int(np.argmin(distances))
                counts[cluster] += 1.0
                linear[cluster] += x
                quadratic[cluster] += x * x
                for dim_index, key in enumerate(keys):
                    weights = assignment_maps[dim_index].get(key)
                    if weights is None:
                        weights = np.zeros(k)
                        assignment_maps[dim_index][key] = weights
                    weights[cluster] += 1.0
            else:
                quad = (
                    (x[None, :] - tables["fact_means"]) ** 2
                    / tables["fact_variances"]
                ).sum(axis=1)
                for dim_index, key in enumerate(keys):
                    quad = quad + dim_tables[dim_index][key]
                log_prob = tables["bias"] - 0.5 * quad
                peak = float(log_prob.max())
                log_norm = peak + math.log(
                    float(np.exp(log_prob - peak).sum())
                )
                responsibility = np.exp(log_prob - log_norm)
                extra += log_norm
                counts += responsibility
                linear += responsibility[:, None] * x[None, :]
                quadratic += responsibility[:, None] * (x * x)[None, :]
                for dim_index, key in enumerate(keys):
                    weights = assignment_maps[dim_index].get(key)
                    if weights is None:
                        weights = np.zeros(k)
                        assignment_maps[dim_index][key] = weights
                    weights += responsibility
        return matched, counts, linear, quadratic, assignment_maps, extra

    def merge(self, parts: Sequence["tuple"]) -> "tuple":
        k, width = self.tables["k"], len(self.fact_positions)
        dim_count = len(self.dim_maps)
        matched = 0
        counts = np.zeros(k)
        linear = np.zeros((k, width))
        quadratic = np.zeros((k, width))
        assignment_maps: "list[dict]" = [dict() for _ in range(dim_count)]
        extra = 0.0
        for part in parts:
            (
                part_matched,
                part_counts,
                part_linear,
                part_quadratic,
                part_maps,
                part_extra,
            ) = part
            matched += part_matched
            counts += part_counts
            linear += part_linear
            quadratic += part_quadratic
            extra += part_extra
            for dim_index in range(dim_count):
                target = assignment_maps[dim_index]
                for key, weights in part_maps[dim_index].items():
                    existing = target.get(key)
                    if existing is None:
                        target[key] = weights.copy()
                    else:
                        existing += weights
        return matched, counts, linear, quadratic, assignment_maps, extra

    def finish(self, merged: "tuple") -> "list[Any]":
        """Full per-cluster (N, L, Q-diagonal) from the fused partials,
        as the UDF's finished state."""
        _matched, counts, linear_fact, quadratic_fact, maps, extra = merged
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
        for dim_index, values in enumerate(self.dim_values):
            positions, feature_order = _arm_columns(sources, dim_index)
            if not positions:
                continue
            keys = list(maps[dim_index])
            if not keys:
                continue
            weight_matrix = np.stack(
                [maps[dim_index][key] for key in keys]
            )  # (#keys, k)
            feature_matrix = np.stack(
                [values[key][feature_order] for key in keys]
            )  # (#keys, F_i)
            linear[:, positions] += weight_matrix.T @ feature_matrix
            quadratic[:, positions] += weight_matrix.T @ (
                feature_matrix * feature_matrix
            )
        return [self.udf.state_from_factorized(counts, linear, quadratic, extra)]
