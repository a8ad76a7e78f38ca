"""Crash-safe durability: write-ahead log, atomic checkpoints, recovery.

:mod:`repro.dbms.persistence` can *save* a database; this module makes a
database survive being **killed**.  A :class:`DurableDatabase` owns a
directory with three kinds of files::

    <dir>/MANIFEST             one small JSON pointer: which checkpoint
                               is current and the LSN it covers
    <dir>/checkpoint-NNNNNN/   a full save_database() snapshot
    <dir>/wal.log              the write-ahead log since that checkpoint

**Logging.**  Every committed mutation — the row batches
``insert_many`` flushes, bulk loads, truncates, and DDL — reaches the
durability layer through the catalog's mutation listeners (the same
subscription pattern as the catalog's drop listeners).  Mutations are
grouped per *statement*: an UPDATE executes as truncate + re-insert,
and both land in ONE log record so replay can never observe the torn
middle.  Each record carries a monotonically increasing LSN and a
CRC-32 over its header and payload; the payload describes the ops in
compact JSON and carries their row batches as typed little-endian
lanes — the float64 bytes the partitions' lanes hold, so no float is
printed or parsed between memory and disk (``docs/durability.md``,
"The payload").

**Checkpointing.**  :meth:`DurableDatabase.checkpoint` writes a fresh
snapshot directory with ``fsync=True``, atomically renames it into
place, then swaps the MANIFEST (temp file + ``os.replace`` + directory
fsync) and truncates the WAL.  A crash at *any* point leaves either the
old manifest (WAL still replays on the old checkpoint) or the new one
(stale WAL records are skipped by LSN) — never a half state.

**Recovery.**  :func:`open_durable` on an existing directory loads the
manifest's checkpoint and replays every WAL record with
``lsn > checkpoint lsn``.  A torn tail — the unsynced bytes a real
crash loses — is detected by checksum and truncated, ARIES-style.
Corruption *before* intact records, or an LSN gap, is not a torn tail:
that durable state cannot be trusted, and recovery raises a typed
:class:`~repro.errors.RecoveryError` instead of guessing.

**Crash injection.**  The fault sites ``wal.append``, ``wal.fsync`` and
``checkpoint.write`` accept :class:`~repro.errors.SimulatedCrash`: the
session then *dies deterministically* — the on-disk WAL is truncated to
its last fsynced byte (optionally keeping a torn prefix of the first
lost record), and every further statement raises ``RecoveryError``
until the directory is reopened.  The chaos suite uses this to assert
the committed-prefix invariant: a recovered database is content-
identical (:func:`~repro.dbms.persistence.database_fingerprint`) to
*some* committed prefix of the write history — never a torn row.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.dbms.database import Database
from repro.dbms.metrics import DurabilityMetrics
from repro.dbms.persistence import (
    _fsync_path,
    restore_database_into,
    save_database,
)
from repro.dbms.schema import Column, TableSchema
from repro.dbms.sql import ast
from repro.dbms.sql.parser import parse_statement
from repro.dbms.types import SqlType
from repro.dbms.sql.executor import Relation
from repro.errors import DatabaseError, RecoveryError, SimulatedCrash

_MAGIC = b"WREC"
#: record header: magic, LSN (u64 BE), payload length (u32 BE),
#: CRC-32 (u32 BE) over ``pack(">QI", lsn, length) + payload``
_HEADER = struct.Struct(">4sQII")

MANIFEST_NAME = "MANIFEST"
WAL_NAME = "wal.log"
FSYNC_MODES = ("always", "batch", "off")


# --------------------------------------------------------------------- codec
#: first payload byte of format 2 (format 1, one JSON object: ``{``)
_FORMAT_2 = b"\x02"
_HEADER_SIZE = struct.Struct("<I")
_BATCH_OPS = ("insert", "bulk_load")  #: the ops that carry rows
_NONE_TYPE = type(None)
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _encode_lane(values: Any, lanes: "list[bytes]") -> "str | list":
    """One column of a batch as its header entry.  A typed column puts
    its little-endian bytes on *lanes* and is named by a tag — ``"f8"``
    (float64), ``"f8?"`` (float64 with NaN at NULLs, then one mask byte
    per row) or ``"i8"`` (int64); anything else is a JSON list."""
    if isinstance(values, np.ndarray) and values.dtype != np.float64:
        values = values.tolist()
    is_lane = isinstance(values, np.ndarray)
    kinds = {float} if is_lane else set(map(type, values))
    if kinds == {float} or kinds == {float, _NONE_TYPE}:
        lanes.append(np.asarray(values, dtype="<f8").tobytes())
        if len(kinds) == 1:
            return "f8"
        lanes.append(bytes(value is None for value in values))
        return "f8?"
    if kinds == {int}:
        try:
            lanes.append(np.array(values, dtype="<i8").tobytes())
            return "i8"
        except OverflowError:
            pass  # beyond int64: JSON prints any int exactly
    return list(values)


def _decode_lane(
    entry: "str | list", count: int, payload: bytes, offset: int
) -> "tuple[Any, int]":
    """Inverse of :func:`_encode_lane`: the column and the offset after
    its bytes.  A NULL-free float lane stays a float64 array (a view of
    *payload*) that ``FloatLane.extend`` copies straight in."""
    if isinstance(entry, list):
        return entry, offset
    lane = np.frombuffer(payload, "<" + entry[:2], count, offset)
    offset += 8 * count
    if entry == "f8":
        return lane, offset
    column = lane.tolist()
    if entry == "f8?":
        mask = np.frombuffer(payload, bool, count, offset)
        for index in np.flatnonzero(mask).tolist():
            column[index] = None
        offset += count
    return column, offset


def encode_record(lsn: int, ops: "list[dict]") -> bytes:
    """Serialize one commit record: the frame, then a format-2 payload
    of compact JSON describing the ops followed by the typed lanes of
    their row batches, in order.  A batch may arrive as ``"columns"``
    or as row-major ``"rows"``; both encode to the same bytes."""
    described = []
    lanes: list[bytes] = []
    for op in ops:
        if op["op"] in _BATCH_OPS:
            op = dict(op)
            columns = op.pop("columns", None)
            if columns is None:
                columns = list(zip(*op.pop("rows")))
            op["count"] = len(columns[0]) if columns else 0
            op["columns"] = [_encode_lane(c, lanes) for c in columns]
        described.append(op)
    header = _compact_json({"ops": described}).encode()
    payload = b"".join(
        [_FORMAT_2, _HEADER_SIZE.pack(len(header)), header, *lanes]
    )
    crc = zlib.crc32(struct.pack(">QI", lsn, len(payload)) + payload)
    return _HEADER.pack(_MAGIC, lsn, len(payload), crc) + payload


def _decode_payload(payload: bytes) -> "list[dict]":
    """The ops of one record, every row batch as ``"columns"``."""
    if payload[:1] == b"{":  # format 1: all JSON, batches row-major
        ops = json.loads(payload)["ops"]
        for op in ops:
            if op["op"] in _BATCH_OPS:
                op["columns"] = [list(c) for c in zip(*op.pop("rows"))]
        return ops
    if payload[:1] != _FORMAT_2:
        raise ValueError("unknown payload format")
    (size,) = _HEADER_SIZE.unpack_from(payload, 1)
    offset = 1 + _HEADER_SIZE.size + size
    ops = json.loads(payload[1 + _HEADER_SIZE.size : offset])["ops"]
    for op in ops:
        if op["op"] in _BATCH_OPS:
            count = op.pop("count")
            columns = []
            for entry in op["columns"]:
                column, offset = _decode_lane(entry, count, payload, offset)
                columns.append(column)
            op["columns"] = columns
    return ops


@dataclass
class WalRecord:
    """One decoded commit record."""

    lsn: int
    ops: "list[dict]"
    offset: int  #: byte offset of the record's header in the file
    length: int  #: total serialized length (header + payload)


def _try_decode(data: bytes, offset: int) -> "tuple[WalRecord, int] | None":
    """Decode the record starting at *offset*, or ``None`` if the bytes
    there are not a complete, checksum-valid record."""
    if offset + _HEADER.size > len(data):
        return None
    magic, lsn, length, crc = _HEADER.unpack_from(data, offset)
    if magic != _MAGIC:
        return None
    end = offset + _HEADER.size + length
    if end > len(data):
        return None
    payload = data[offset + _HEADER.size : end]
    if zlib.crc32(struct.pack(">QI", lsn, length) + payload) != crc:
        return None
    try:
        ops = _decode_payload(payload)
    except (ValueError, KeyError, TypeError, struct.error):  # pragma: no cover
        return None  # CRC collision on garbage — treat as invalid bytes
    record = WalRecord(lsn=lsn, ops=ops, offset=offset, length=end - offset)
    return record, end


def _intact_record_after(data: bytes, offset: int) -> bool:
    """Is there any checksum-valid record strictly after *offset*?

    Distinguishes a torn tail (nothing valid follows — safe to truncate)
    from mid-log corruption (valid records follow the damage — replaying
    around the hole would fabricate history, so recovery must refuse).
    """
    search = offset + 1
    while True:
        index = data.find(_MAGIC, search)
        if index < 0:
            return False
        if _try_decode(data, index) is not None:
            return True
        search = index + 1


def read_wal(path: "Path | str") -> "tuple[list[WalRecord], int, int]":
    """Decode a WAL file front to back.

    Returns ``(records, good_length, truncated_bytes)`` where
    ``good_length`` is the byte length of the intact prefix and
    ``truncated_bytes`` how many torn-tail bytes follow it.  Raises
    :class:`~repro.errors.RecoveryError` when damage is followed by
    intact records (mid-log corruption) or LSNs are not strictly
    ascending.
    """
    path = Path(path)
    data = path.read_bytes() if path.exists() else b""
    records: list[WalRecord] = []
    offset = 0
    while offset < len(data):
        decoded = _try_decode(data, offset)
        if decoded is None:
            if _intact_record_after(data, offset):
                raise RecoveryError(
                    f"write-ahead log {path} is corrupt at byte {offset}: "
                    "damaged record followed by intact records (not a torn "
                    "tail) — refusing to replay around the hole"
                )
            return records, offset, len(data) - offset
        record, offset = decoded
        if records and record.lsn != records[-1].lsn + 1:
            raise RecoveryError(
                f"write-ahead log {path} has an LSN gap: record "
                f"{record.lsn} follows {records[-1].lsn}"
            )
        records.append(record)
    return records, offset, 0


# ----------------------------------------------------------------------- WAL
class WriteAheadLog:
    """An append-only log file with explicit durability bookkeeping.

    Tracks which byte offset has actually been fsynced
    (``durable_offset``) versus merely written, which is what lets
    :meth:`crash` simulate a process death honestly: everything past the
    last fsync is lost, optionally leaving a torn prefix of the first
    lost record — exactly what a kernel page-cache drop does.
    """

    def __init__(
        self,
        path: "Path | str",
        metrics: DurabilityMetrics,
        last_lsn: int = 0,
    ) -> None:
        self.path = Path(path)
        self.metrics = metrics
        self.last_lsn = last_lsn
        self._lock = threading.Lock()
        self._file = self.path.open("ab")
        self._durable_offset = self.path.stat().st_size
        #: serialized records written but not yet fsynced, oldest first
        self._unsynced: list[bytes] = []
        self.closed = False

    @property
    def records_since_sync(self) -> int:
        return len(self._unsynced)

    @property
    def durable_offset(self) -> int:
        return self._durable_offset

    def append(self, ops: "list[dict]") -> int:
        """Write one commit record; returns its LSN.  The record is in
        the OS page cache after this — call :meth:`sync` to make it
        durable."""
        with self._lock:
            lsn = self.last_lsn + 1
            record = encode_record(lsn, ops)
            self._file.write(record)
            self._file.flush()
            self.last_lsn = lsn
            self._unsynced.append(record)
            self.metrics.wal_records += 1
            self.metrics.wal_bytes += len(record)
            return lsn

    def sync(self) -> None:
        """fsync the log; every appended record is now crash-durable."""
        with self._lock:
            if self.closed:
                return
            self._file.flush()
            os.fsync(self._file.fileno())
            self._durable_offset = self.path.stat().st_size
            self._unsynced.clear()
            self.metrics.fsyncs += 1

    def reset(self) -> None:
        """Truncate the file to zero length (post-checkpoint).  The LSN
        counter keeps counting — LSNs are unique per directory lifetime,
        which is what lets recovery skip stale records by comparison."""
        with self._lock:
            self._file.close()
            with self.path.open("wb") as handle:
                os.fsync(handle.fileno())
            self._file = self.path.open("ab")
            self._durable_offset = 0
            self._unsynced.clear()

    def crash(self, torn_bytes: int = 0, pending_ops: "list[dict] | None" = None) -> None:
        """Simulate process death: drop every byte not yet fsynced.

        ``torn_bytes > 0`` additionally writes that many bytes of the
        first *lost* record back — a torn write, which recovery must
        detect by checksum and truncate.  When nothing unsynced was on
        file (``always`` mode crashing before its append), the record
        that *was about to be written* (*pending_ops*) supplies the torn
        prefix.
        """
        with self._lock:
            if self.closed:
                return
            try:
                self._file.close()
            except OSError:  # pragma: no cover - close best-effort
                pass
            os.truncate(self.path, self._durable_offset)
            if torn_bytes > 0:
                if self._unsynced:
                    source = self._unsynced[0]
                elif pending_ops is not None:
                    source = encode_record(self.last_lsn + 1, pending_ops)
                else:
                    source = b""
                if source:
                    with self.path.open("ab") as handle:
                        handle.write(source[: min(torn_bytes, len(source))])
            self._unsynced.clear()
            self.closed = True

    def close(self) -> None:
        """fsync and close (idempotent)."""
        with self._lock:
            if self.closed:
                return
            self._file.flush()
            os.fsync(self._file.fileno())
            self._durable_offset = self.path.stat().st_size
            self._unsynced.clear()
            self._file.close()
            self.closed = True


# ------------------------------------------------------------------ database
class DurableDatabase(Database):
    """A :class:`~repro.dbms.database.Database` whose committed state
    survives process death.

    Construct through :func:`open_durable`.  All the usual database API
    works unchanged; underneath, every committed mutation is logged to
    the directory's WAL before control returns, with the fsync policy:

    * ``"always"`` — fsync after every commit record (maximum safety,
      one fsync per DML statement);
    * ``"batch"`` — fsync every *wal_batch_records* records (the
      default; bounded loss window, near-``off`` throughput);
    * ``"off"`` — fsync only at checkpoint and close (a crash may lose
      everything since the last checkpoint, but never *corrupt*).

    Whatever the mode, the committed-prefix invariant holds: recovery
    restores a state content-identical to some prefix of the committed
    write history — fsync policy only moves *how recent* that prefix is
    guaranteed to be.

    A :class:`~repro.errors.SimulatedCrash` injected at the
    ``wal.append`` / ``wal.fsync`` / ``checkpoint.write`` fault sites
    kills the session: unsynced WAL bytes are dropped (torn write
    optional), the in-memory state is poisoned, and every further
    statement raises :class:`~repro.errors.RecoveryError` until the
    directory is reopened.
    """

    def __init__(
        self,
        directory: "str | Path",
        fsync_mode: str = "batch",
        wal_batch_records: int = 32,
        checkpoint_every_records: "int | None" = None,
        **database_kwargs: Any,
    ) -> None:
        if fsync_mode not in FSYNC_MODES:
            raise ValueError(
                f"fsync_mode must be one of {FSYNC_MODES}, got {fsync_mode!r}"
            )
        super().__init__(**database_kwargs)
        self.directory = Path(directory)
        self.fsync_mode = fsync_mode
        self.wal_batch_records = max(1, int(wal_batch_records))
        self.checkpoint_every_records = checkpoint_every_records
        self.durability = DurabilityMetrics()
        #: per-thread pending ops + statement-scope depth; thread-local
        #: because mutations fire on the executing thread and concurrent
        #: sessions must not interleave ops inside each other's records
        self._tls = threading.local()
        #: serializes WAL appends + checkpoints across threads
        self._commit_lock = threading.RLock()
        self._logging = False
        self._crashed = False
        self._records_since_checkpoint = 0
        self._checkpoint_seq = 0
        self._wal: "WriteAheadLog | None" = None

        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            self._recover(manifest_path)
        else:
            self._bootstrap()
        self.catalog.add_mutation_listener(self._on_mutation)
        self._logging = True

    # ------------------------------------------------------------ bootstrap
    def _bootstrap(self) -> None:
        """First open of a directory: write checkpoint 0 + manifest."""
        leftovers = [
            p.name
            for p in self.directory.iterdir()
            if p.name == WAL_NAME or p.name.startswith("checkpoint-")
        ]
        if leftovers:
            raise RecoveryError(
                f"{self.directory} has durability files {sorted(leftovers)} "
                "but no MANIFEST — refusing to silently reinitialize over "
                "what may be someone's data"
            )
        name = self._write_checkpoint_dir(0)
        self._write_manifest(name, lsn=0)
        self._wal = WriteAheadLog(
            self.directory / WAL_NAME, self.durability, last_lsn=0
        )

    # ------------------------------------------------------------- recovery
    def _recover(self, manifest_path: Path) -> None:
        self.durability.recoveries += 1
        try:
            manifest = json.loads(manifest_path.read_text())
            checkpoint_name = manifest["checkpoint"]
            checkpoint_lsn = int(manifest["lsn"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise RecoveryError(
                f"unreadable manifest at {manifest_path}: {exc}"
            ) from exc
        checkpoint_dir = self.directory / checkpoint_name
        if not checkpoint_dir.is_dir():
            raise RecoveryError(
                f"manifest points at missing checkpoint {checkpoint_name!r} "
                f"in {self.directory}"
            )
        try:
            restore_database_into(self, checkpoint_dir)
        except DatabaseError as exc:
            raise RecoveryError(
                f"checkpoint {checkpoint_name!r} does not restore: {exc}"
            ) from exc

        wal_path = self.directory / WAL_NAME
        records, good_length, truncated = read_wal(wal_path)
        last_lsn = checkpoint_lsn
        for record in records:
            if record.lsn <= checkpoint_lsn:
                # A crash between manifest swap and WAL truncation
                # leaves records the new checkpoint already contains.
                self.durability.recovery_skipped_records += 1
                last_lsn = max(last_lsn, record.lsn)
                continue
            if record.lsn != last_lsn + 1:
                raise RecoveryError(
                    f"write-ahead log {wal_path} is missing LSNs between "
                    f"{last_lsn} and {record.lsn}"
                )
            self._replay_ops(record.ops)
            last_lsn = record.lsn
            self.durability.recovery_replayed_records += 1
        if truncated:
            os.truncate(wal_path, good_length)
            _fsync_path(wal_path)
            self.durability.recovery_truncated_bytes += truncated
        try:
            self._checkpoint_seq = int(checkpoint_name.rsplit("-", 1)[1])
        except (IndexError, ValueError) as exc:
            raise RecoveryError(
                f"malformed checkpoint name {checkpoint_name!r}"
            ) from exc
        self._wal = WriteAheadLog(wal_path, self.durability, last_lsn=last_lsn)
        self._cleanup_stale(checkpoint_name)

    def _replay_ops(self, ops: "list[dict]") -> None:
        """Re-apply one record's mutations (logging is off here)."""
        for op in ops:
            try:
                self._replay_op(op)
            except RecoveryError:
                raise
            except Exception as exc:
                raise RecoveryError(
                    f"replaying {op.get('op')!r} on "
                    f"{op.get('name')!r} failed: {exc}"
                ) from exc

    def _replay_op(self, op: "dict") -> None:
        kind = op["op"]
        name = op["name"]
        if kind == "insert":
            self.catalog.table(name).insert_columns(op["columns"])
        elif kind == "bulk_load":
            table = self.catalog.table(name)
            table.bulk_load_arrays(
                dict(zip(table.schema.column_names, op["columns"]))
            )
        elif kind == "truncate":
            self.catalog.table(name).truncate()
        elif kind == "create_table":
            columns = tuple(
                Column(cname, SqlType(ctype), nullable)
                for cname, ctype, nullable in op["columns"]
            )
            self.catalog.create_table(
                name,
                TableSchema(columns, op.get("primary_key")),
                partitions=op.get("partitions"),
                row_scale=op.get("row_scale", 1.0),
            )
        elif kind == "drop_table":
            self.catalog.drop_table(name, if_exists=True)
        elif kind == "create_view":
            statement = parse_statement(op["sql"])
            if not isinstance(statement, ast.Select):
                raise RecoveryError(
                    f"logged view {name!r} does not parse to a SELECT"
                )
            self.catalog.create_view(
                name, statement, or_replace=op.get("or_replace", False)
            )
        elif kind == "drop_view":
            self.catalog.drop_view(name, if_exists=True)
        else:
            raise RecoveryError(f"unknown WAL op {kind!r}")

    # ------------------------------------------------------------- logging
    def _state(self) -> Any:
        state = self._tls
        if not hasattr(state, "pending"):
            state.pending = []
            state.depth = 0
        return state

    def _on_mutation(self, op: str, name: str, payload: "dict") -> None:
        # Poisoning outranks the logging gate: a crashed session must
        # reject direct-API mutations (insert_rows on a live Table)
        # rather than silently applying them to memory unlogged.
        self._ensure_alive()
        if not self._logging:
            return
        state = self._state()
        state.pending.append({"op": op, "name": name, **payload})
        if state.depth == 0:
            # Direct API call (insert_rows, load_columns, create_table
            # outside SQL): the mutation is its own commit record.
            self._commit_pending(state)

    def _run_statement(self, statement: Any, cached: bool = False) -> Relation:
        """Group everything one statement commits into one WAL record,
        so an UPDATE's truncate + re-insert replays atomically."""
        self._ensure_alive()
        state = self._state()
        state.depth += 1
        try:
            return super()._run_statement(statement, cached)
        finally:
            state.depth -= 1
            if state.depth == 0:
                # Commit even when the statement failed: the pending ops
                # describe mutations *actually applied* (a failed UPDATE
                # has already truncated), and the log must stay
                # equivalent to memory.
                self._commit_pending(state)

    def _commit_pending(self, state: Any) -> None:
        if not state.pending:
            return
        ops, state.pending = state.pending, []
        with self._commit_lock:
            assert self._wal is not None
            faults = self.faults
            try:
                if faults.enabled:
                    faults.fire(
                        "wal.append", lsn=self._wal.last_lsn + 1, ops=len(ops)
                    )
                self._wal.append(ops)
                self._records_since_checkpoint += 1
                if self.fsync_mode == "always":
                    self._sync_wal()
                elif (
                    self.fsync_mode == "batch"
                    and self._wal.records_since_sync >= self.wal_batch_records
                ):
                    self._sync_wal()
            except SimulatedCrash as crash:
                self._die(torn_bytes=crash.torn_bytes, pending_ops=ops)
                raise
            except BaseException:
                self._die()
                raise
            if (
                self.checkpoint_every_records is not None
                and self._records_since_checkpoint
                >= self.checkpoint_every_records
            ):
                self.checkpoint()

    def _sync_wal(self) -> None:
        faults = self.faults
        if faults.enabled:
            assert self._wal is not None
            faults.fire("wal.fsync", records=self._wal.records_since_sync)
        self._wal.sync()

    def _die(
        self,
        torn_bytes: int = 0,
        pending_ops: "list[dict] | None" = None,
    ) -> None:
        """Poison the session the way a process death would: unsynced
        WAL bytes are gone, and this object no longer accepts work."""
        if self._crashed:
            return
        self._crashed = True
        self._logging = False
        if self._wal is not None:
            try:
                self._wal.crash(torn_bytes=torn_bytes, pending_ops=pending_ops)
            except OSError:  # pragma: no cover - crash is best-effort
                pass

    def _ensure_alive(self) -> None:
        if self._crashed:
            raise RecoveryError(
                "this durable session crashed; reopen the directory with "
                "open_durable() to recover the committed prefix"
            )

    @property
    def crashed(self) -> bool:
        """Whether an injected crash has poisoned this session."""
        return self._crashed

    # ---------------------------------------------------------- checkpoint
    def _write_checkpoint_dir(self, seq: int) -> str:
        """Snapshot current state into ``checkpoint-<seq>`` atomically
        (build under a temp name, fsync everything, rename)."""
        name = f"checkpoint-{seq:06d}"
        tmp = self.directory / f"{name}.tmp"
        if tmp.exists():
            shutil.rmtree(tmp)
        save_database(self, tmp, fsync=True)
        final = self.directory / name
        if final.exists():  # pragma: no cover - seq collisions impossible
            shutil.rmtree(final)
        os.rename(tmp, final)
        _fsync_path(self.directory)
        return name

    def _write_manifest(self, checkpoint_name: str, lsn: int) -> None:
        manifest_path = self.directory / MANIFEST_NAME
        tmp = self.directory / (MANIFEST_NAME + ".tmp")
        payload = json.dumps(
            {"format": 1, "checkpoint": checkpoint_name, "lsn": lsn}
        )
        with tmp.open("w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, manifest_path)
        _fsync_path(self.directory)

    def _cleanup_stale(self, current_name: str) -> None:
        """Delete checkpoint directories and temp files the manifest no
        longer references.  Pure garbage collection: safe at any time,
        including immediately after a mid-checkpoint crash."""
        for path in self.directory.iterdir():
            stale_dir = (
                path.is_dir()
                and path.name.startswith("checkpoint-")
                and path.name != current_name
            )
            stale_tmp = path.name.endswith(".tmp")
            if stale_dir or stale_tmp:
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    try:
                        path.unlink()
                    except OSError:  # pragma: no cover
                        pass

    def checkpoint(self) -> Path:
        """Atomically checkpoint: snapshot → manifest swap → WAL reset.

        A crash before the manifest swap leaves the old checkpoint
        authoritative (the temp/renamed new one is garbage-collected on
        recovery); a crash after it leaves the new checkpoint with a
        stale WAL whose records recovery skips by LSN.
        """
        self._ensure_alive()
        with self._commit_lock:
            assert self._wal is not None
            faults = self.faults
            try:
                if faults.enabled:
                    faults.fire("checkpoint.write", stage="snapshot")
                name = self._write_checkpoint_dir(self._checkpoint_seq + 1)
                if faults.enabled:
                    faults.fire("checkpoint.write", stage="manifest")
                self._write_manifest(name, self._wal.last_lsn)
            except SimulatedCrash as crash:
                self._die(torn_bytes=crash.torn_bytes)
                raise
            except BaseException:
                self._die()
                raise
            self._checkpoint_seq += 1
            self._wal.reset()
            self._records_since_checkpoint = 0
            self.durability.checkpoints += 1
            self._cleanup_stale(name)
            return self.directory / name

    # ---------------------------------------------------------------- close
    def close(self) -> None:
        """fsync + close the WAL (unless crashed), then shut the engine
        down.  A cleanly closed directory recovers with zero replay
        loss even in ``fsync_mode="off"``."""
        if self._wal is not None and not self._crashed:
            self._wal.close()
        super().close()


def open_durable(
    directory: "str | Path",
    fsync_mode: str = "batch",
    wal_batch_records: int = 32,
    checkpoint_every_records: "int | None" = None,
    **database_kwargs: Any,
) -> DurableDatabase:
    """Open (or create) a crash-safe database rooted at *directory*.

    A fresh directory is initialized with an empty checkpoint and WAL; an
    existing one is *recovered* — last good checkpoint restored, WAL
    suffix replayed, torn tail truncated.  Extra keyword arguments go to
    the :class:`~repro.dbms.database.Database` constructor
    (``executor_workers``, ``faults``, ...).
    """
    return DurableDatabase(
        directory,
        fsync_mode=fsync_mode,
        wal_batch_records=wal_batch_records,
        checkpoint_every_records=checkpoint_every_records,
        **database_kwargs,
    )
