"""Bounded, NULL-filtered sampling through the partition engine.

Model seeding (k-means++ in particular) needs a handful of *complete*
rows, not the whole table: materializing every row client-side defeats
the paper's bring-the-computation-to-the-data discipline, and rows with
NULLs become NaN in a numeric matrix — one NaN distance poisons every
subsequent centroid assignment.

:func:`reservoir_sample` gathers a bounded sample the same way the
executor scans: one idempotent task per non-empty partition (firing the
``partition.scan`` fault site, riding the engine's retry/timeout
supervision), each keeping an Algorithm-R reservoir of its partition's
complete rows, concatenated in partition order.  Each partition's
reservoir is seeded from ``(seed, partition id)``, so the sample is a
pure function of the stored data and *seed* — bit-identical at any
worker count.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dbms.database import Database


def reservoir_sample(
    db: "Database",
    table: str,
    columns: Sequence[str],
    cap: int = 1024,
    seed: int = 0,
) -> np.ndarray:
    """A deterministic sample of up to *cap* complete rows of *columns*.

    Rows with a NULL (or NaN) in any requested column are skipped.
    Returns a float matrix of shape ``(sample rows, len(columns))`` —
    possibly empty when no complete rows exist.
    """
    if cap < 1:
        raise ValueError(f"sample cap must be >= 1, got {cap}")
    table_obj = db.table(table)
    schema = table_obj.schema
    positions = [schema.position_of(name) for name in columns]
    numbered = [
        (index, partition)
        for index, partition in enumerate(table_obj.partitions)
        if partition.row_count
    ]
    if not numbered:
        return np.empty((0, len(positions)))
    per_partition_cap = max(1, math.ceil(cap / len(numbered)))
    executor = db._executor
    faults = executor.faults

    def make_task(pid, partition):
        def task() -> list[list[float]]:
            if faults.enabled:
                faults.fire("partition.scan", partition=pid)
            rng = np.random.default_rng([seed, pid])
            reservoir: list[list[float]] = []
            seen = 0
            for values in zip(*(partition.values(p) for p in positions)):
                if any(
                    value is None
                    or (isinstance(value, float) and math.isnan(value))
                    for value in values
                ):
                    continue
                seen += 1
                if len(reservoir) < per_partition_cap:
                    reservoir.append([float(value) for value in values])
                else:
                    # Algorithm R: the i-th complete row replaces a
                    # reservoir slot with probability cap/i.
                    slot = int(rng.integers(seen))
                    if slot < per_partition_cap:
                        reservoir[slot] = [float(value) for value in values]
            return reservoir

        return task

    tasks = [make_task(pid, partition) for pid, partition in numbered]
    partition_ids = [pid for pid, _ in numbered]
    reservoirs = executor.engine.map(
        tasks, idempotent=True, partition_ids=partition_ids
    )
    rows = [row for reservoir in reservoirs for row in reservoir]
    if not rows:
        return np.empty((0, len(positions)))
    return np.asarray(rows, dtype=float)[:cap]
