"""Column lanes: the partition's column store.

A partition keeps one lane per column behind a five-method contract:

* ``append(value)`` / ``extend(values)`` — add at the tail;
* ``truncate_tail(count)`` — drop the last *count* values;
* ``values(start, stop)`` — a fresh ``list`` of Python values (``None``
  is NULL), what the row path reads;
* ``floats(start, stop)`` — float64 with NULL as NaN, what
  :func:`repro.dbms.blocks.lane_block` copies into a block.

Each SQL type has its own lane, and none of them holds a Python object
per value:

* FLOAT → :class:`FloatLane`, a float64 buffer: the lane a block is
  made of *is* the storage, so a block-cache miss copies memory.
* INTEGER → :class:`IntLane`, an int64 buffer.  Python ints are
  unbounded, so a value outside int64 (or of another type) *demotes*
  the lane to a list of the exact objects — the overflow tier.
* VARCHAR → :class:`VarcharLane`, int32 codes into a per-lane list of
  distinct strings; NULL is code 0.

The two typed buffers keep NULL apart from the value bits in a lazily
allocated mask.  :class:`ObjectLane` (a plain list) holds the columns of
an untyped partition.

Concurrency: lanes are append-only below the partition's published row
count.  Growth allocates a new buffer, copies, then swaps the
reference; an ``IntLane`` demotion builds its object list from the
buffer, then swaps it in and leaves the buffer as it was; a
``VarcharLane`` only ever appends to its string list.  The partition
publishes its new row count only after every lane (and NULL mask)
holds the new values — so a reader that pinned a row count owns an
immutable prefix without a lock, whichever reference it happens to
load.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.errors import ExecutionError, TypeMismatchError

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_NONE_TYPE = type(None)


class _BufferLane:
    """A growable numpy buffer of ``_dtype`` with a lazily allocated
    NULL mask: what :class:`FloatLane`, :class:`IntLane` and
    :class:`VarcharLane` share."""

    __slots__ = ("_buffer", "_nulls", "_size")
    _dtype: Any

    def __init__(self) -> None:
        self._buffer = np.empty(0, self._dtype)
        self._nulls: "np.ndarray | None" = None
        self._size = 0

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = len(self._buffer)
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity, 16)
        grown = np.empty(capacity, self._dtype)
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


class FloatLane(_BufferLane):
    """A growable float64 buffer with NaN at NULL slots and a lazily
    allocated NULL mask, so a stored NaN and a NULL stay distinct."""

    __slots__ = ()
    _dtype = np.float64

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

    def floats(self, start: int, stop: int) -> np.ndarray:
        view = self._buffer[start:stop]
        view.flags.writeable = False
        return view


class IntLane(_BufferLane):
    """A growable int64 buffer with 0 at NULL slots and a lazily
    allocated NULL mask.

    The overflow tier: a value outside int64 — or one that is not an
    ``int`` at all (a ``bool``, say, from a direct partition write) —
    demotes the whole lane to an :class:`ObjectLane` of the exact values.
    The object list is built from the buffer and swapped in whole; the
    buffer is never written again, so a reader that loaded it before the
    swap still reads its pinned prefix.
    """

    __slots__ = ("_objects",)
    _dtype = np.int64

    def __init__(self) -> None:
        super().__init__()
        self._objects: "ObjectLane | None" = None

    def _demote(self, values: Sequence[Any]) -> None:
        objects = ObjectLane(self.values(0, self._size))
        objects.extend(values)
        self._objects = objects

    def append(self, value: Any) -> None:
        if isinstance(value, np.integer):  # one row of an int64 batch
            value = int(value)
        if self._objects is not None:
            self._objects.append(value)
        elif value is None or (
            type(value) is int and _INT64_MIN <= value <= _INT64_MAX
        ):
            if self._size == len(self._buffer):
                self._reserve(1)
            if value is None:
                self._mark_null(self._size, True)
                value = 0
            self._buffer[self._size] = value
            self._size += 1
        else:
            self._demote((value,))

    def extend(self, values: Sequence[Any]) -> None:
        if self._objects is not None:
            self._objects.extend(as_list(values))
        elif not self._extend_typed(values):
            self._demote(as_list(values))

    def _extend_typed(self, values: Sequence[Any]) -> bool:
        """Copy *values* into the buffer, or return False without
        publishing anything when one has no exact int64 form."""
        count, start = len(values), self._size
        flags = None
        if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
            if values.dtype.kind == "u" and count and values.max() > _INT64_MAX:
                return False
        else:
            values = as_list(values)
            kinds = set(map(type, values))
            if not kinds <= {int, _NONE_TYPE}:
                return False
            if _NONE_TYPE in kinds:
                flags = np.fromiter((v is None for v in values), bool, count)
                values = [0 if value is None else value for value in values]
        self._reserve(count)
        try:
            self._buffer[start : start + count] = values
        except OverflowError:
            return False
        if flags is not None:
            self._mark_null(start, flags)
        self._size = start + count
        return True

    def truncate_tail(self, count: int) -> None:
        if self._objects is not None:
            self._objects.truncate_tail(count)
        else:
            super().truncate_tail(count)

    def ints(self, start: int, stop: int) -> "np.ndarray | None":
        """A read-only int64 view of ``[start, stop)`` (0 at NULLs), or
        ``None`` once the lane is demoted."""
        if self._objects is not None:
            return None
        view = self._buffer[start:stop]
        view.flags.writeable = False
        return view

    def nulls(self, start: int, stop: int) -> "np.ndarray | None":
        objects = self._objects
        if objects is None:
            return super().nulls(start, stop)
        flags = np.fromiter(
            (value is None for value in objects[start:stop]), bool, stop - start
        )
        return flags if flags.any() else None

    def values(self, start: int, stop: int) -> list[Any]:
        objects = self._objects
        if objects is not None:
            return objects[start:stop]
        return super().values(start, stop)

    def floats(self, start: int, stop: int) -> np.ndarray:
        objects = self._objects
        if objects is not None:
            return objects.floats(start, stop)
        # One rounding per value, as np.asarray(list, float) does it.
        out = self._buffer[start:stop].astype(np.float64)
        nulls = self._nulls
        if nulls is not None:
            out[nulls[start:stop]] = np.nan
        return out


class VarcharLane(_BufferLane):
    """int32 codes into a per-lane list of distinct strings, NULL as
    code 0: a string that repeats is stored once per lane (keyed by
    value, so equal strings share the first one's object), and
    :meth:`values` hands out the shared string objects.

    The string list only grows (a rolled-back batch may leave unused
    entries), so a reader indexing it with a pinned prefix's codes never
    sees an entry move.
    """

    __slots__ = ("_strings", "_codes")
    _dtype = np.int32

    def __init__(self) -> None:
        super().__init__()
        self._strings: list[Any] = [None]
        self._codes: dict[Any, int] = {None: 0}

    def _add(self, values: Sequence[Any]) -> "list[int]":
        """The codes of *values*, adding each new string to the list."""
        codes = self._codes
        for value in dict.fromkeys(values):
            if value not in codes:
                if not isinstance(value, str):
                    raise TypeMismatchError(
                        f"cannot store {type(value).__name__} in a VARCHAR lane"
                    )
                codes[value] = len(self._strings)
                self._strings.append(value)
        return list(map(codes.__getitem__, values))

    def append(self, value: Any) -> None:
        code = self._codes.get(value)
        if code is None:
            (code,) = self._add((value,))
        if self._size == len(self._buffer):
            self._reserve(1)
        self._buffer[self._size] = code
        self._size += 1

    def extend(self, values: Sequence[Any]) -> None:
        values = as_list(values)
        count, start = len(values), self._size
        if not count:
            return
        self._reserve(count)
        try:
            # One C call looks every value up (one value: one code).
            codes = itemgetter(*values)(self._codes)
        except KeyError:  # a string the lane has not seen yet
            codes = self._add(values)
        self._buffer[start : start + count] = codes
        self._size = start + count

    def distinct(self) -> int:
        """Dictionary entries, NULL's included."""
        return len(self._strings)

    def nulls(self, start: int, stop: int) -> "np.ndarray | None":
        flags = self._buffer[start:stop] == 0
        return flags if flags.any() else None

    def values(self, start: int, stop: int) -> list[Any]:
        return list(
            map(self._strings.__getitem__, self._buffer[start:stop].tolist())
        )

    def floats(self, start: int, stop: int) -> np.ndarray:
        return np.asarray(self.values(start, stop), dtype=float)


class ObjectLane(list):
    """A lane of Python objects (an untyped partition's columns, and a
    demoted :class:`IntLane`): a list, so ``append`` and ``extend`` are
    the C-level ones."""

    __slots__ = ()

    def truncate_tail(self, count: int) -> None:
        del self[len(self) - count :]

    def values(self, start: int, stop: int) -> list[Any]:
        return self[start:stop]

    def floats(self, start: int, stop: int) -> np.ndarray:
        return np.asarray(self[start:stop], dtype=float)


def as_list(values: "np.ndarray | Sequence[Any]") -> "Sequence[Any]":
    """*values* as Python values: an array's ``tolist()``, else itself."""
    return values.tolist() if isinstance(values, np.ndarray) else values


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
