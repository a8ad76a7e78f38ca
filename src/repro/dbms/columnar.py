"""Persistent on-disk columnar partition blocks.

The process-pool execution path (``Database(executor_kind="process")``)
cannot share Python object graphs with worker processes the way threads
do, and pickling partition data per task would erase the benefit of
leaving the GIL.  This module gives every ``(table, version, partition)``
a **self-describing block file** that workers open read-only via
``mmap`` — the parent ships only a tiny descriptor ``(store root, table,
version, partition id)`` and the worker pages in exactly the bytes its
scan touches, with zero copies and zero pickling of row data.

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
type, which is what lets the process executor keep the engine's
bit-identical merge contract.

Writes go through the same atomic discipline as the persistence layer:
temp sibling, optional fsync, ``os.replace`` — a reader can never
observe a half-written block (:func:`atomic_write_bytes` is shared with
:mod:`repro.dbms.persistence`).

A :class:`ColumnarStore` manages the directory layout
``root/<table>/v<version>/p<pid>.blk``, publishing the current table
version on demand and garbage-collecting stale versions (the latest two
are kept so a scan that started just before a mutation can still open
its files; an mmap that is already open survives the unlink regardless,
POSIX-style).
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import shutil
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.dbms.blocks import lane_block
from repro.dbms.lanes import FloatLane, ObjectLane
from repro.errors import ExportError

_MAGIC = b"RCOL1\n"
_ALIGN = 64
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
#: stale table versions kept next to the current one (see module docs)
_KEEP_VERSIONS = 2


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
    columns: "Sequence[Sequence[Any] | FloatLane | ObjectLane]",
    rows: int | None = None,
) -> bytes:
    """Serialize columns into one block-file payload.

    *columns* are per-column value lists, or a partition's lanes with
    *rows* its published row count — a typed float lane is written
    from its own buffer (the in-memory lane, the block-file lane and a
    spilled block are the same bytes), its NULL mask becoming the
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
        if isinstance(column, FloatLane):
            kind, data = "f8", column.floats(0, rows)
            nulls = column.nulls(0, rows)
            if nulls is not None and not nulls.any():
                nulls = None
        else:
            if isinstance(column, ObjectLane):
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
    zero-copy numpy views over the mapped pages, so a worker process
    touching three columns of a fifty-column block pages in only those
    three lanes.  Call :meth:`drop_pages` after a scan to hand resident
    pages back to the OS (``MADV_DONTNEED``) — the out-of-core
    benchmark's peak-RSS guarantee rides on this.
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

    def drop_pages(self) -> None:
        """Advise the OS to reclaim this mapping's resident pages."""
        try:
            self._mm.madvise(mmap.MADV_DONTNEED)
        except (AttributeError, OSError, ValueError):  # pragma: no cover
            pass

    def close(self) -> None:
        self._objects = None
        try:
            self._mm.close()
        except (BufferError, ValueError):  # pragma: no cover - views alive
            pass


class ColumnarStore:
    """Directory of published partition blocks, keyed by table version.

    ``publish`` is idempotent and cheap when current: it writes one
    block file per non-empty partition the first time a table version is
    seen, then answers from a path check.  Old versions are garbage-
    collected down to the latest :data:`_KEEP_VERSIONS`.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        #: lifetime accounting (tests and the benchmark read these)
        self.blocks_written = 0
        self.bytes_written = 0
        self._published: dict[str, int] = {}

    def table_dir(self, table_name: str) -> Path:
        return self.root / table_name.lower()

    def version_dir(self, table_name: str, version: int) -> Path:
        return self.table_dir(table_name) / f"v{version}"

    def block_path(self, table_name: str, version: int, pid: int) -> Path:
        return self.version_dir(table_name, version) / f"p{pid}.blk"

    def publish(self, table: Any) -> dict[str, Any]:
        """Ensure block files exist for *table*'s current version.

        Returns the descriptor the executor ships to workers: plain
        strings and ints, nothing else — the whole point is that task
        submission never pickles data.
        """
        name = table.name.lower()
        version = table.version
        partitions = [
            index
            for index, partition in enumerate(table.partitions)
            if partition.row_count
        ]
        fresh = self._published.get(name) != version
        if fresh:
            target = self.version_dir(name, version)
            target.mkdir(parents=True, exist_ok=True)
            for index in partitions:
                path = self.block_path(name, version, index)
                if path.exists():
                    continue
                partition = table.partitions[index]
                payload = encode_block(partition.lanes, partition.row_count)
                atomic_write_bytes(path, payload)
                self.blocks_written += 1
                self.bytes_written += len(payload)
            self._gc(name, version)
            self._published[name] = version
        return {
            "root": str(self.root),
            "table": name,
            "version": version,
            "partitions": partitions,
            # Whether this call had to materialize the version (the
            # executor reports repeat statements as block-cache hits —
            # deterministic at any worker count, unlike per-process
            # reader caches)
            "fresh": fresh,
        }

    def _gc(self, name: str, current: int) -> None:
        table_dir = self.table_dir(name)
        try:
            entries = list(table_dir.iterdir())
        except OSError:  # pragma: no cover - dir raced away
            return
        versions = sorted(
            int(entry.name[1:])
            for entry in entries
            if entry.is_dir()
            and entry.name.startswith("v")
            and entry.name[1:].isdigit()
        )
        for version in versions:
            if version >= current - (_KEEP_VERSIONS - 1):
                continue
            shutil.rmtree(table_dir / f"v{version}", ignore_errors=True)

    def forget(self, table_name: str) -> None:
        """Drop a table's published blocks (DROP TABLE / truncate)."""
        self._published.pop(table_name.lower(), None)
        shutil.rmtree(self.table_dir(table_name), ignore_errors=True)
