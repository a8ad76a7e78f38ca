"""Snapshot-consistent table reads for concurrent serving.

Storage is append-mostly: :meth:`~repro.dbms.storage.Partition.append`
and ``extend_columns`` only ever add rows at the tail, a lane that
outgrows its buffer copies into a new one before swapping the
reference, and the row counter is bumped *after* every lane holds the
new values (the lane contract, :mod:`repro.dbms.lanes`).  A reader
that pins each partition's row count therefore owns an immutable prefix
— rows ``0..pinned-1`` can never change under concurrent appends, no
matter how the writer and reader threads interleave.  That is the whole
snapshot mechanism: :class:`TableSnapshot` pins ``Table.version``,
``Table.data_version`` and the per-partition counts once, then serves
every read from those prefixes.

Two table operations break the prefix rule and are handled explicitly:

* **TRUNCATE** replaces the partition objects and records the fact in
  ``Table.data_version``.  A snapshot whose pinned ``version`` is older
  raises :class:`~repro.errors.SnapshotInvalidatedError` on every later
  read — stale-but-consistent is allowed for appends only.
* **Batch-flush rollback** (``insert_many`` failure) removes tail rows.
  Snapshots must therefore never pin a mid-batch state: the serving
  layer creates snapshots under the same write lock that serializes
  writers, so a pin observes either no batch or a fully
  flushed/rolled-back one.

Snapshots deliberately bypass the partitions' shared block-cache LRU
(mutating an ``OrderedDict`` from concurrent reader threads is not
safe) and keep their own per-snapshot block cache instead — repeated
scoring sweeps over one session still copy each lane prefix exactly once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.core.summary import MatrixType, SummaryStatistics
from repro.errors import SnapshotInvalidatedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dbms.storage import Partition, Table


class TableSnapshot:
    """A pinned, immutable view of one table's rows.

    Create through :meth:`repro.serving.server.ServingSession.snapshot`
    (which holds the server's write lock during the pin); reading never
    takes a lock.
    """

    def __init__(self, table: "Table") -> None:
        self._table = table
        self.name = table.name
        self.schema = table.schema
        #: ``Table.version`` at pin time — the version every read is
        #: consistent with
        self.version = table.version
        #: ``Table.data_version`` at pin time
        self.data_version = table.data_version
        # Partition *objects* are pinned alongside counts: TRUNCATE
        # swaps in fresh partitions, so even a racing one can never make
        # these prefixes disappear under a read that already started.
        self._partitions: list["Partition"] = list(table.partitions)
        self._pinned_rows: list[int] = [
            partition.row_count for partition in self._partitions
        ]
        self.row_count = sum(self._pinned_rows)
        #: per-snapshot block cache: column-position tuple -> matrix
        self._blocks: dict[tuple[int, ...], np.ndarray] = {}

    # ------------------------------------------------------------ validity
    @property
    def table(self) -> "Table":
        return self._table

    @property
    def stale_rows(self) -> int:
        """Rows appended to the live table since the pin (0 = fresh)."""
        live = sum(p.row_count for p in self._table.partitions)
        return max(0, live - self.row_count)

    def is_valid(self) -> bool:
        """Whether reads may proceed (no destructive mutation since pin)."""
        return self._table.data_version <= self.version

    def validate(self) -> None:
        """Raise :class:`SnapshotInvalidatedError` unless :meth:`is_valid`."""
        if not self.is_valid():
            raise SnapshotInvalidatedError(
                f"snapshot of {self.name!r} pinned version {self.version} "
                f"but the table was destructively mutated "
                f"(data_version {self._table.data_version}); "
                f"open a new session to see the new data"
            )

    # --------------------------------------------------------------- reads
    def numeric_matrix(self, columns: Sequence[str]) -> np.ndarray:
        """The pinned rows of *columns* as a float matrix (NULL → NaN).

        Row order is partition order then insertion order within each
        partition — identical to :meth:`Table.numeric_matrix` over the
        same rows.
        """
        self.validate()
        positions = tuple(
            self.schema.position_of(name) for name in columns
        )
        cached = self._blocks.get(positions)
        if cached is not None:
            return cached
        blocks = [
            partition.block(positions, 0, pinned)
            for partition, pinned in zip(self._partitions, self._pinned_rows)
            if pinned
        ]
        matrix = (
            np.vstack(blocks) if blocks else np.empty((0, len(positions)))
        )
        self._blocks[positions] = matrix
        return matrix

    def column_values(self, name: str) -> list:
        """The pinned values of one column, in snapshot row order."""
        self.validate()
        position = self.schema.position_of(name)
        values: list = []
        for partition, pinned in zip(self._partitions, self._pinned_rows):
            values.extend(partition.values(position, 0, pinned))
        return values

    def rows(self) -> Iterator[tuple]:
        """The pinned rows, in snapshot row order."""
        self.validate()
        for partition, pinned in zip(self._partitions, self._pinned_rows):
            yield from partition.rows(stop=pinned)

    def summary(
        self,
        columns: Sequence[str],
        matrix_type: MatrixType = MatrixType.TRIANGULAR,
    ) -> SummaryStatistics:
        """The (n, L, Q) summary of the pinned rows — the reference
        one-pass computation over the snapshot matrix."""
        return SummaryStatistics.from_matrix(
            self.numeric_matrix(columns), matrix_type
        )

    def __repr__(self) -> str:
        return (
            f"TableSnapshot({self.name!r}, version={self.version}, "
            f"rows={self.row_count}, valid={self.is_valid()})"
        )
