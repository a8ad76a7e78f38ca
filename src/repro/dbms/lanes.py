"""Column lanes: the partition's column store.

A partition keeps one lane per column behind a four-method contract:

* ``append(value)`` / ``extend(values)`` — add at the tail;
* ``truncate_tail(count)`` — drop the last *count* values;
* ``values(start, stop)`` — a fresh ``list`` of Python values (``None``
  is NULL), what the row path reads;
* ``floats(start, stop)`` — float64 with NULL as NaN, what
  :func:`repro.dbms.blocks.lane_block` copies into a block.

FLOAT columns are a :class:`FloatLane`: the float64 lane a block is
made of *is* the storage, so a block-cache miss copies memory instead
of converting Python objects.  INTEGER and VARCHAR columns stay
:class:`ObjectLane` (Python ints are unbounded, and an exact ``i8`` lane
needs the overflow tier of ROADMAP item 8).

Concurrency: lanes are append-only below the partition's published row
count.  Growth allocates a new buffer, copies, then swaps the
reference, and the partition publishes its new row count only after
every lane (and NULL mask) holds the new values — so a reader that
pinned a row count owns an immutable prefix without a lock, whichever
buffer reference it happens to load.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ExecutionError


class FloatLane:
    """A growable float64 buffer with NaN at NULL slots and a lazily
    allocated NULL mask, so a stored NaN and a NULL stay distinct."""

    __slots__ = ("_buffer", "_nulls", "_size")

    def __init__(self) -> None:
        self._buffer = np.empty(0)
        self._nulls: "np.ndarray | None" = None
        self._size = 0

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = len(self._buffer)
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity, 16)
        grown = np.empty(capacity)
        grown[: self._size] = self._buffer[: self._size]
        if self._nulls is not None:
            mask = np.zeros(capacity, dtype=bool)
            mask[: self._size] = self._nulls[: self._size]
            self._nulls = mask
        self._buffer = grown

    def _mark_null(self, start: int, flags: Any) -> None:
        if self._nulls is None:
            self._nulls = np.zeros(len(self._buffer), dtype=bool)
        self._nulls[start : start + np.size(flags)] = flags

    def append(self, value: Any) -> None:
        if self._size == len(self._buffer):
            self._reserve(1)
        if value is None:
            self._mark_null(self._size, True)
            value = np.nan
        self._buffer[self._size] = value
        self._size += 1

    def extend(self, values: Sequence[Any]) -> None:
        count, start = len(values), self._size
        self._reserve(count)
        # numpy converts None to NaN in C.
        self._buffer[start : start + count] = values
        typed = isinstance(values, np.ndarray) and values.dtype != object
        if not typed and None in values:
            self._mark_null(
                start, np.fromiter((v is None for v in values), bool, count)
            )
        self._size = start + count

    def truncate_tail(self, count: int) -> None:
        self._size -= count
        if self._nulls is not None:
            self._nulls[self._size : self._size + count] = False

    def nulls(self, start: int, stop: int) -> "np.ndarray | None":
        """The NULL flags of ``[start, stop)``, or ``None`` when the
        lane has never held a NULL."""
        nulls = self._nulls
        return None if nulls is None else nulls[start:stop]

    def values(self, start: int, stop: int) -> list[Any]:
        out = self._buffer[start:stop].tolist()
        nulls = self._nulls
        if nulls is not None:
            for index in np.flatnonzero(nulls[start:stop]).tolist():
                out[index] = None
        return out

    def floats(self, start: int, stop: int) -> np.ndarray:
        view = self._buffer[start:stop]
        view.flags.writeable = False
        return view


class ObjectLane(list):
    """A lane of Python objects (INTEGER, VARCHAR and untyped columns):
    a list, so ``append`` and ``extend`` are the C-level ones."""

    __slots__ = ()

    def truncate_tail(self, count: int) -> None:
        del self[len(self) - count :]

    def values(self, start: int, stop: int) -> list[Any]:
        return self[start:stop]

    def floats(self, start: int, stop: int) -> np.ndarray:
        return np.asarray(self[start:stop], dtype=float)


class _Pruned:
    """The value a row scan leaves in the tuple slot of a lane the
    statement does not reference, so binder positions do not move.  It
    defines no arithmetic, comparison, truth value, hash or string
    form: a reference the pruning analysis missed raises instead of
    reading as NULL."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "PRUNED"

    def _refuse(self, *_: Any) -> Any:
        raise ExecutionError("read of a column the row scan pruned")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __bool__ = __hash__ = __float__ = __int__ = __str__ = _refuse


PRUNED = _Pruned()
