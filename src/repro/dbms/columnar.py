"""The columnar block file: one partition's lanes, self-describing.

A block file holds one partition — every column as one lane — in a form
a reader opens read-only via ``mmap`` and decodes lazily, paging in only
the lanes it touches.  ``encode_block`` writes a partition's own lane
bytes (a typed float lane is written from its buffer, so the in-memory
lane and the block-file lane are the same bytes); :class:`BlockReader`
reads them back exactly.

Format (everything little-endian, version tag ``RCOL1``)::

    magic "RCOL1\\n" | u64 header_len | header JSON | pad to 64
    data section   — per numeric column: 8*rows bytes (i8 or f8 lane),
                     then its null bitmap ((rows+7)//8 bytes) when the
                     column has NULLs
    object section — one pickle holding the non-numeric columns

Column lanes are **exact**: a column whose values are all Python ``int``
(within int64) becomes an ``<i8`` lane, all-``float`` becomes ``<f8``
(NaN stays representable *data* because NULLs live in the bitmap, never
in the lane), and anything else — strings, mixed int/float, oversize
ints — goes to the pickled object sidecar verbatim.  Reading a block
back therefore reproduces each stored value bit-for-bit and type-for-
type.

Writes go through the same atomic discipline as the persistence layer:
temp sibling, optional fsync, ``os.replace`` — a reader can never
observe a half-written block (:func:`atomic_write_bytes` is shared with
:mod:`repro.dbms.persistence`).
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.dbms.blocks import lane_block
from repro.dbms.lanes import FloatLane, IntLane, ObjectLane, VarcharLane
from repro.errors import ExportError

_MAGIC = b"RCOL1\n"
_ALIGN = 64
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def atomic_write_bytes(path: Path, payload: bytes, fsync: bool = False) -> None:
    """Write *payload* to a temp sibling, optionally fsync, atomically
    rename over *path* — the one write discipline every durable artifact
    of this substrate uses (CSV snapshots, catalogs, columnar blocks)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(payload)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def _classify_column(values: Sequence[Any]) -> tuple[str, bool]:
    """``(lane kind, has nulls)`` for one column's stored values.

    Exactness rules: only values that are *exactly* ``int`` (within
    int64) or *exactly* ``float`` ride a numeric lane — ``bool`` (a
    subclass of int), oversize ints, strings and mixed-type columns all
    go to the object sidecar so the round trip is type-preserving.
    """
    kind: str | None = None
    has_null = False
    for value in values:
        if value is None:
            has_null = True
            continue
        value_type = type(value)
        if value_type is int:
            if not _INT64_MIN <= value <= _INT64_MAX:
                return "obj", has_null
            if kind is None:
                kind = "i8"
            elif kind != "i8":
                return "obj", has_null
        elif value_type is float:
            if kind is None:
                kind = "f8"
            elif kind != "f8":
                return "obj", has_null
        else:
            return "obj", has_null
    # An empty or all-NULL column takes the cheapest lane.
    return kind or "i8", has_null


def encode_block(
    columns: "Sequence[Sequence[Any] | FloatLane | IntLane | VarcharLane]",
    rows: int | None = None,
) -> bytes:
    """Serialize columns into one block-file payload.

    *columns* are per-column value lists, or a partition's lanes with
    *rows* its published row count — a float lane and an int lane are
    written from their own buffers (the in-memory lane and the
    block-file lane are the same bytes), the NULL mask becoming the
    bitmap.
    """
    if rows is None:
        rows = len(columns[0]) if columns else 0
        for column in columns:
            if len(column) != rows:
                raise ExportError("columnar block columns differ in length")
    header_columns: list[dict[str, Any]] = []
    lanes: list[bytes] = []
    objects: dict[int, list[Any]] = {}
    offset = 0
    for index, column in enumerate(columns):
        data = None
        if isinstance(column, FloatLane):
            kind, data = "f8", column.floats(0, rows)
        elif isinstance(column, IntLane):
            kind, data = "i8", column.ints(0, rows)
        if data is not None:
            nulls = column.nulls(0, rows)
            if nulls is not None and not nulls.any():
                nulls = None
        else:
            if isinstance(column, (IntLane, VarcharLane, ObjectLane)):
                column = column.values(0, rows)
            kind, has_null = _classify_column(column)
            if kind == "obj":
                header_columns.append({"kind": "obj"})
                objects[index] = list(column)
                continue
            nulls = None
            if has_null:
                nulls = np.fromiter((v is None for v in column), bool, rows)
                column = [0 if v is None else v for v in column]
            data = np.asarray(column, dtype="<" + kind)
        lane = data.astype("<" + kind, copy=False).tobytes()
        spec: dict[str, Any] = {"kind": kind, "offset": offset}
        offset += len(lane)
        if nulls is not None:
            bitmap = np.packbits(nulls, bitorder="little").tobytes()
            lane += bitmap
            spec["nulls"] = offset
            offset += len(bitmap)
        lanes.append(lane)
        header_columns.append(spec)
    object_blob = pickle.dumps(objects, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "rows": rows,
        "columns": header_columns,
        "data_bytes": offset,
    }
    header_blob = json.dumps(header, separators=(",", ":")).encode("ascii")
    prefix_len = len(_MAGIC) + 8 + len(header_blob)
    pad = (-prefix_len) % _ALIGN
    parts = [
        _MAGIC,
        len(header_blob).to_bytes(8, "little"),
        header_blob,
        b"\0" * pad,
        *lanes,
        object_blob,
    ]
    return b"".join(parts)


class BlockReader:
    """One mmap'd block file, decoded lazily.

    The mapping is opened read-only; numeric lanes are served as
    zero-copy numpy views over the mapped pages, so a reader touching
    three columns of a fifty-column block pages in only those three
    lanes.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        try:
            with self.path.open("rb") as handle:
                self._mm = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError) as exc:
            raise ExportError(f"cannot map block {self.path}: {exc}") from exc
        if self._mm[: len(_MAGIC)] != _MAGIC:
            self._mm.close()
            raise ExportError(f"{self.path} is not a columnar block")
        header_len = int.from_bytes(
            self._mm[len(_MAGIC) : len(_MAGIC) + 8], "little"
        )
        header = json.loads(
            self._mm[len(_MAGIC) + 8 : len(_MAGIC) + 8 + header_len]
        )
        prefix = len(_MAGIC) + 8 + header_len
        self._data_start = prefix + ((-prefix) % _ALIGN)
        self.rows: int = header["rows"]
        self._columns: list[dict[str, Any]] = header["columns"]
        self._object_start = self._data_start + header["data_bytes"]
        self._objects: dict[int, list[Any]] | None = None

    @property
    def width(self) -> int:
        return len(self._columns)

    def _lane(self, spec: dict[str, Any]) -> np.ndarray:
        dtype = "<i8" if spec["kind"] == "i8" else "<f8"
        return np.frombuffer(
            self._mm,
            dtype=dtype,
            count=self.rows,
            offset=self._data_start + spec["offset"],
        )

    def _null_indices(self, spec: dict[str, Any]) -> np.ndarray | None:
        nulls = spec.get("nulls")
        if nulls is None:
            return None
        bitmap = np.frombuffer(
            self._mm,
            dtype=np.uint8,
            count=(self.rows + 7) // 8,
            offset=self._data_start + nulls,
        )
        return np.flatnonzero(
            np.unpackbits(bitmap, bitorder="little")[: self.rows]
        )

    def _object_columns(self) -> dict[int, list[Any]]:
        if self._objects is None:
            self._objects = pickle.loads(self._mm[self._object_start :])
        return self._objects

    def column_values(self, position: int) -> list[Any]:
        """The exact stored Python values of one column."""
        spec = self._columns[position]
        if spec["kind"] == "obj":
            return list(self._object_columns()[position])
        values: list[Any] = self._lane(spec).tolist()
        null_idx = self._null_indices(spec)
        if null_idx is not None:
            for index in null_idx.tolist():
                values[index] = None
        return values

    def float_column(self, position: int) -> np.ndarray:
        """One column as float64 with NULL as NaN — the exact values
        the stored column's lane gives (``lane.floats``)."""
        spec = self._columns[position]
        if spec["kind"] == "obj":
            return np.asarray(
                [
                    np.nan if v is None else v
                    for v in self._object_columns()[position]
                ],
                dtype=float,
            )
        lane = self._lane(spec)
        null_idx = self._null_indices(spec)
        if spec["kind"] == "i8":
            out = lane.astype(np.float64)
        elif null_idx is not None:
            out = lane.astype(np.float64, copy=True)
        else:
            return lane.view()
        if null_idx is not None:
            out[null_idx] = np.nan
        return out

    def float_matrix(self, positions: Sequence[int]) -> np.ndarray:
        """Selected columns as a lane-major ``(rows, k)`` float block
        (NULL→NaN), matching
        :meth:`repro.dbms.storage.Partition.numeric_matrix`."""
        return lane_block(
            self.rows, [self.float_column(p) for p in positions]
        )

    def row_tuples(self) -> list[tuple]:
        """All rows, exactly as ``Partition.rows()`` yields them."""
        if self.rows == 0:
            return []
        return list(
            zip(*(self.column_values(i) for i in range(self.width)))
        )

    def close(self) -> None:
        self._objects = None
        try:
            self._mm.close()
        except (BufferError, ValueError):  # pragma: no cover - views alive
            pass
