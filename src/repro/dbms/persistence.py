"""Saving and restoring a database to/from disk.

A :class:`~repro.dbms.Database` is in-process; this module gives it
durability so built data sets and stored models survive across sessions:

* ``<dir>/catalog.json`` — table schemas (columns, types, nullability,
  primary key, partition count, row scale) and view definitions
  (rendered back to SQL text);
* ``<dir>/tables/<name>.csv`` — one CSV per table, with NULL encoded as
  the PostgreSQL-style ``\\N`` sentinel so empty strings stay distinct,
  and (format version 2) backslashes in string values doubled so a
  *literal* ``\\N`` string survives the round trip.

Every file is written to a temp name and atomically renamed into place
(``os.replace``), and a save deletes ``tables/*.csv`` orphans left by
tables dropped since the previous save — a snapshot directory never
accumulates resurrected tables.  A *mid-save* crash can still leave a
directory mixing old and new CSVs; the fully atomic path is the
manifest-guarded checkpoint of :mod:`repro.dbms.wal`, which builds a
fresh directory with ``save_database(..., fsync=True)`` and swaps one
manifest pointer.

UDFs are code, not data — they are not persisted; re-register them after
loading (``register_nlq_udfs`` / ``register_scoring_udfs``).
"""

from __future__ import annotations

import csv
import json
import os
from itertools import islice
from pathlib import Path
from typing import Any

from repro.dbms.columnar import atomic_write_bytes
from repro.dbms.database import Database
from repro.dbms.schema import Column, TableSchema
from repro.dbms.sql import ast
from repro.dbms.sql.parser import parse_statement
from repro.dbms.types import SqlType
from repro.errors import ExportError

_NULL_SENTINEL = "\\N"
#: current format: version 2 doubles backslashes in string values so a
#: literal ``\N`` string is distinguishable from the NULL sentinel;
#: version-1 snapshots (no escaping) still load.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)
#: rows held as Python values at a time, both ways: a save reads each
#: partition this many rows at a time (a typed lane makes a fresh object
#: per value it hands out), a restore decodes and inserts the CSV this
#: many rows at a time.  A small chunk keeps those temporaries in memory
#: the allocator already holds instead of a partition's or a file's
#: worth of new pages beside the lanes
_CHUNK_ROWS = 4_096


def _encode_field(value: Any) -> Any:
    """One cell for the CSV writer: NULL sentinel + backslash escaping."""
    if value is None:
        return _NULL_SENTINEL
    if isinstance(value, str):
        return value.replace("\\", "\\\\")
    return value


def _decode_field(value: str, escaped: bool) -> "str | None":
    """Inverse of :func:`_encode_field` (*escaped* = format version 2)."""
    if value == _NULL_SENTINEL:
        return None
    if escaped and "\\" in value:
        return value.replace("\\\\", "\\")
    return value


def _decode_column(
    fields: "tuple[str, ...]", sql_type: SqlType, escaped: bool
) -> "list[Any]":
    """One CSV column of a chunk as the values an insert stores.  A
    numeric column is parsed with ``int`` / ``float`` — what
    :func:`~repro.dbms.types.coerce_value` does to a text number —
    unless a field does not parse; then it goes in as text and the
    insert reports that row."""
    if sql_type is not SqlType.VARCHAR:
        parse = int if sql_type is SqlType.INTEGER else float
        try:
            return [
                None if value == _NULL_SENTINEL else parse(value)
                for value in fields
            ]
        except ValueError:
            pass
    return [_decode_field(value, escaped) for value in fields]


def _fsync_path(path: Path) -> None:
    """fsync a file or directory by path (directory fsync makes renames
    durable on POSIX; silently skipped where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _atomic_write_text(path: Path, text: str, fsync: bool) -> None:
    """Write *text* to a temp sibling, optionally fsync, atomically
    rename over *path* — delegates to the shared columnar write
    discipline so every durable artifact uses one code path."""
    atomic_write_bytes(path, text.encode("utf-8"), fsync)


def save_database(
    db: Database, directory: "str | Path", fsync: bool = False
) -> Path:
    """Serialize every table and view of *db* under *directory*.

    Each CSV and the catalog are written to a temp file and atomically
    renamed into place, then CSVs of tables dropped since the previous
    save are deleted — a stale ``tables/*.csv`` can no longer resurrect
    on inspection or bloat the directory.  With ``fsync=True`` every
    file and both directories are fsynced (the checkpoint path).
    """
    root = Path(directory)
    tables_dir = root / "tables"
    try:
        tables_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create {tables_dir}: {exc}") from exc

    catalog: dict = {"version": _FORMAT_VERSION, "tables": [], "views": []}
    for name in db.catalog.table_names():
        table = db.table(name)
        catalog["tables"].append(
            {
                "name": table.name,
                "columns": [
                    {
                        "name": column.name,
                        "type": column.sql_type.value,
                        "nullable": column.nullable,
                    }
                    for column in table.schema.columns
                ],
                "primary_key": table.schema.primary_key,
                "partitions": table.partition_count,
                "row_scale": table.row_scale,
            }
        )
        _write_table_csv(table, tables_dir / f"{table.name.lower()}.csv", fsync)
    for view_name in db.catalog.view_names():
        catalog["views"].append(
            {
                "name": view_name,
                "sql": ast.render(db.catalog.view(view_name)),
            }
        )
    _atomic_write_text(root / "catalog.json", json.dumps(catalog, indent=2), fsync)
    # Orphan cleanup after the catalog swap: anything in tables/ that the
    # just-written catalog does not reference (dropped tables' CSVs,
    # temp leftovers of an interrupted earlier save) is deleted.
    keep = {f"{name.lower()}.csv" for name in db.catalog.table_names()}
    for stale in tables_dir.iterdir():
        if stale.name not in keep:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - races with inspection
                pass
    if fsync:
        _fsync_path(tables_dir)
        _fsync_path(root)
    return root


def load_database(
    directory: "str | Path", amps: int | None = None
) -> Database:
    """Rebuild a database saved by :func:`save_database`.

    *amps* overrides the engine parallelism; per-table partition counts
    are restored from the catalog regardless.
    """
    db = Database(amps=amps or 20)
    restore_database_into(db, directory)
    return db


def restore_database_into(db: Database, directory: "str | Path") -> None:
    """Load a :func:`save_database` snapshot into an *empty* database.

    Factored out of :func:`load_database` so crash recovery
    (:func:`repro.dbms.wal.open_durable`) can restore a checkpoint into
    an already-constructed :class:`~repro.dbms.wal.DurableDatabase`
    before replaying the WAL suffix on top.
    """
    root = Path(directory)
    catalog_path = root / "catalog.json"
    try:
        catalog = json.loads(catalog_path.read_text())
    except OSError as exc:
        raise ExportError(f"cannot read {catalog_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ExportError(f"malformed catalog at {catalog_path}: {exc}") from exc
    version = catalog.get("version")
    if version not in _SUPPORTED_VERSIONS:
        raise ExportError(f"unsupported catalog version {version!r}")
    escaped = version >= 2

    for spec in catalog.get("tables", []):
        columns = tuple(
            Column(c["name"], SqlType(c["type"]), c["nullable"])
            for c in spec["columns"]
        )
        schema = TableSchema(columns, spec.get("primary_key"))
        table = db.catalog.create_table(
            spec["name"],
            schema,
            partitions=spec.get("partitions"),
            row_scale=spec.get("row_scale", 1.0),
        )
        _read_table_csv(
            table, root / "tables" / f"{spec['name'].lower()}.csv", escaped
        )
    for view_spec in catalog.get("views", []):
        statement = parse_statement(view_spec["sql"])
        if not isinstance(statement, ast.Select):
            raise ExportError(
                f"view {view_spec['name']!r} does not deserialize to a SELECT"
            )
        db.catalog.create_view(view_spec["name"], statement)


def database_fingerprint(db: Database) -> dict:
    """A canonical, comparison-ready digest of a database's entire
    durable state: schemas, primary keys, row scales, every table's
    rows (``repr``-exact, so float bit patterns and ``1`` vs ``1.0`` vs
    ``'1'`` all distinguish), and view SQL.

    Rows are sorted, so two databases whose partition layouts differ —
    recovery replays round-robin tables into a different striping than
    the crashed original — still compare equal exactly when they hold
    identical committed content.  The crash-recovery chaos suite
    asserts a recovered fingerprint equals the fingerprint of *some
    committed prefix* of the write history.
    """
    tables: dict[str, dict] = {}
    for name in db.catalog.table_names():
        table = db.table(name)
        tables[name.lower()] = {
            "columns": [
                (c.name, c.sql_type.value, c.nullable)
                for c in table.schema.columns
            ],
            "primary_key": table.schema.primary_key,
            "row_scale": table.row_scale,
            "rows": sorted(
                tuple(repr(value) for value in row) for row in table.scan()
            ),
        }
    views = {
        name.lower(): ast.render(db.catalog.view(name))
        for name in db.catalog.view_names()
    }
    return {"tables": tables, "views": views}


def _write_table_csv(table, path: Path, fsync: bool = False) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(table.schema.column_names)
            for partition in table.partitions:
                count, width = partition.row_count, partition.width
                for start in range(0, count, _CHUNK_ROWS):
                    stop = min(count, start + _CHUNK_ROWS)
                    columns = [
                        partition.values(position, start, stop)
                        for position in range(width)
                    ]
                    for row in zip(*columns):
                        writer.writerow([_encode_field(v) for v in row])
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def _read_table_csv(table, path: Path, escaped: bool = True) -> None:
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ExportError(f"{path} is empty")
            expected = list(table.schema.column_names)
            if header != expected:
                raise ExportError(
                    f"{path} header {header} does not match schema {expected}"
                )
            # Bounded chunks, each transposed once: the file's rows never
            # all exist as Python objects beside the lanes, and a chunk
            # is decoded a column at a time.  Routing is per row, so the
            # layout is the one a single insert of the file would give.
            types = [column.sql_type for column in table.schema.columns]
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                if set(map(len, chunk)) != {len(types)}:
                    # A short or long row: insert_many commits the rows
                    # before it and raises its error.
                    table.insert_many([
                        [_decode_field(value, escaped) for value in row]
                        for row in chunk
                    ])
                    continue
                table.insert_columns([
                    _decode_column(column, sql_type, escaped)
                    for column, sql_type in zip(zip(*chunk), types)
                ])
    except OSError as exc:
        raise ExportError(f"cannot read {path}: {exc}") from exc
