"""Star-schema specs: train on normalized tables without denormalizing.

The paper's workflows assume one wide data-set table, but warehouse
data lives normalized: a fact table of measures plus foreign keys into
dimension tables holding the remaining features.  Classically the miner
would materialize ``SELECT ... FROM fact JOIN dims`` into a wide table
first — paying |fact| × (1 + Σ|dim|) nested-loop input reads before a
single statistic is computed.

:class:`StarSchema` describes the normalized layout once — the fact
table, each dimension arm's ``fact.fk = dim.pk`` equation, and which
columns are features — and renders the join SQL every existing SQL
generator already accepts (they all splice a ``FROM {table}``
fragment).  The DBMS's factorized-join pass (:mod:`repro.dbms.sql.
factorize`) then answers those statements from per-base-table partial
aggregates, so the join is *never* materialized: model training reads
Σ|base tables| rows total.

:func:`reservoir_sample_star` is the seeding counterpart: a bounded,
deterministic sample of *joined* feature rows gathered with one
partition-parallel pass over the fact table plus client-side key
lookups into the (small) dimension tables — NULL and dangling foreign
keys drop the row exactly like the inner join would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dbms.database import Database


@dataclass(frozen=True)
class StarDimension:
    """One dimension arm: ``fact.fact_key = table.dim_key``.

    ``features`` empty means "every numeric column except the key".
    """

    table: str
    fact_key: str
    dim_key: str
    features: "tuple[str, ...]" = ()


@dataclass(frozen=True)
class StarSchema:
    """A fact table joined to dimension tables on FK = PK equations.

    ``fact_features`` empty means "every numeric fact column except the
    primary key and the foreign keys".
    """

    fact: str
    dimensions: "tuple[StarDimension, ...]"
    fact_features: "tuple[str, ...]" = ()

    @classmethod
    def of(
        cls,
        fact: str,
        dims: Sequence[str],
        keys: Sequence["tuple[str, str]"],
        fact_features: Sequence[str] = (),
        dim_features: "Sequence[Sequence[str]] | None" = None,
    ) -> "StarSchema":
        """The ``(fact, dims, keys)`` spec form.

        *dims* lists dimension table names; *keys* pairs each with its
        ``(fact_fk, dim_pk)`` columns, positionally.
        """
        if len(dims) != len(keys):
            raise ModelError(
                f"star spec needs one (fact_key, dim_key) pair per "
                f"dimension table: {len(dims)} tables, {len(keys)} pairs"
            )
        if dim_features is not None and len(dim_features) != len(dims):
            raise ModelError(
                "dim_features must list one feature tuple per dimension "
                f"table: {len(dims)} tables, {len(dim_features)} tuples"
            )
        arms = tuple(
            StarDimension(
                table=name,
                fact_key=fact_key,
                dim_key=dim_key,
                features=tuple(dim_features[index]) if dim_features else (),
            )
            for index, (name, (fact_key, dim_key)) in enumerate(
                zip(dims, keys)
            )
        )
        return cls(fact=fact, dimensions=arms, fact_features=tuple(fact_features))

    # ----------------------------------------------------------------- SQL
    def from_sql(self) -> str:
        """The FROM fragment every SQL generator splices after ``FROM``."""
        pieces = [self.fact]
        for dim in self.dimensions:
            pieces.append(
                f"JOIN {dim.table} ON {self.fact}.{dim.fact_key} "
                f"= {dim.table}.{dim.dim_key}"
            )
        return " ".join(pieces)

    # ------------------------------------------------------------- columns
    def resolved_fact_features(self, db: "Database") -> "list[str]":
        if self.fact_features:
            return list(self.fact_features)
        schema = db.table(self.fact).schema
        excluded = {dim.fact_key.lower() for dim in self.dimensions}
        if schema.primary_key is not None:
            excluded.add(schema.primary_key.lower())
        return [
            name
            for name in schema.numeric_columns()
            if name.lower() not in excluded
        ]

    def resolved_dim_features(
        self, db: "Database", dim: StarDimension
    ) -> "list[str]":
        if dim.features:
            return list(dim.features)
        schema = db.table(dim.table).schema
        excluded = {dim.dim_key.lower()}
        if schema.primary_key is not None:
            excluded.add(schema.primary_key.lower())
        return [
            name
            for name in schema.numeric_columns()
            if name.lower() not in excluded
        ]

    def feature_columns(self, db: "Database") -> "list[str]":
        """Qualified feature columns: fact measures first, then each
        dimension arm's features, in arm order."""
        columns = [
            f"{self.fact}.{name}" for name in self.resolved_fact_features(db)
        ]
        for dim in self.dimensions:
            columns.extend(
                f"{dim.table}.{name}"
                for name in self.resolved_dim_features(db, dim)
            )
        return columns


def reservoir_sample_star(
    db: "Database",
    star: StarSchema,
    columns: Sequence[str],
    cap: int = 1024,
    seed: int = 0,
) -> np.ndarray:
    """A deterministic sample of up to *cap* complete *joined* rows.

    *columns* are qualified ``binding.column`` names from
    :meth:`StarSchema.feature_columns`.  One partition-parallel pass
    over the fact table keeps a per-partition Algorithm-R reservoir
    (seeded from ``(seed, partition id)``, identical at any worker
    count, mirroring :func:`repro.dbms.sampling.reservoir_sample`);
    dimension features come from client-side key maps over the small
    dimension tables.  Rows with a NULL/NaN/dangling foreign key or any
    NULL/NaN feature are skipped — the rows the inner join would drop
    or the aggregates would skip.
    """
    from repro.core.factorized import valid_key

    if cap < 1:
        raise ValueError(f"sample cap must be >= 1, got {cap}")
    fact = db.table(star.fact)
    fact_binding = star.fact.lower()

    # Key -> feature-tuple map per dimension arm (duplicate PKs cannot
    # occur: storage enforces PRIMARY KEY on insert).
    dim_maps: "list[dict]" = []
    dim_columns: "list[list[str]]" = []
    for dim in star.dimensions:
        table = db.table(dim.table)
        schema = table.schema
        key_position = schema.position_of(dim.dim_key)
        names = [
            column.split(".", 1)[1]
            for column in columns
            if column.split(".", 1)[0].lower() == dim.table.lower()
        ]
        positions = [schema.position_of(name) for name in names]
        mapping: dict = {}
        for row in table.scan([key_position, *positions]):
            key = row[key_position]
            if valid_key(key):
                mapping[key] = tuple(row[position] for position in positions)
        dim_maps.append(mapping)
        dim_columns.append(names)

    fact_names = [
        column.split(".", 1)[1]
        for column in columns
        if column.split(".", 1)[0].lower() == fact_binding
    ]
    fact_positions = [fact.schema.position_of(name) for name in fact_names]
    key_positions = [
        fact.schema.position_of(dim.fact_key) for dim in star.dimensions
    ]
    read_positions = [*key_positions, *fact_positions]

    # Gather values in *columns* order: map each output slot to its arm.
    slots: "list[tuple]" = []
    fact_cursor = 0
    dim_cursors = [0] * len(star.dimensions)
    for column in columns:
        binding = column.split(".", 1)[0].lower()
        if binding == fact_binding:
            slots.append(("fact", fact_positions[fact_cursor]))
            fact_cursor += 1
        else:
            for dim_index, dim in enumerate(star.dimensions):
                if dim.table.lower() == binding:
                    slots.append(("dim", dim_index, dim_cursors[dim_index]))
                    dim_cursors[dim_index] += 1
                    break
            else:
                raise ModelError(
                    f"column {column!r} does not belong to the star's fact "
                    "or dimension tables"
                )

    def incomplete(value: object) -> bool:
        return value is None or (
            isinstance(value, float) and math.isnan(value)
        )

    numbered = [
        (index, partition)
        for index, partition in enumerate(fact.partitions)
        if partition.row_count
    ]
    if not numbered:
        return np.empty((0, len(columns)))
    per_partition_cap = max(1, math.ceil(cap / len(numbered)))
    executor = db._executor
    faults = executor.faults

    def make_task(pid, partition):
        def task() -> "list[list[float]]":
            if faults.enabled:
                faults.fire("partition.scan", partition=pid)
            rng = np.random.default_rng([seed, pid])
            reservoir: "list[list[float]]" = []
            seen = 0
            for row in partition.rows(read_positions):
                keys = []
                for position, mapping in zip(key_positions, dim_maps):
                    key = row[position]
                    if not valid_key(key) or key not in mapping:
                        keys = None
                        break
                    keys.append(key)
                if keys is None:
                    continue
                values = []
                for slot in slots:
                    if slot[0] == "fact":
                        values.append(row[slot[1]])
                    else:
                        _kind, dim_index, feature_index = slot
                        values.append(
                            dim_maps[dim_index][keys[dim_index]][feature_index]
                        )
                if any(incomplete(value) for value in values):
                    continue
                seen += 1
                if len(reservoir) < per_partition_cap:
                    reservoir.append([float(value) for value in values])
                else:
                    slot_index = int(rng.integers(seen))
                    if slot_index < per_partition_cap:
                        reservoir[slot_index] = [
                            float(value) for value in values
                        ]
            return reservoir

        return task

    tasks = [make_task(pid, partition) for pid, partition in numbered]
    partition_ids = [pid for pid, _ in numbered]
    reservoirs = executor.engine.map(
        tasks, idempotent=True, partition_ids=partition_ids
    )
    rows = [row for reservoir in reservoirs for row in reservoir]
    if not rows:
        return np.empty((0, len(columns)))
    return np.array(rows, dtype=float)
