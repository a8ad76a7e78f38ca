#!/usr/bin/env python3
"""What one durable 500-row ``insert_rows`` pays, by part.

Prints the rows of the "What a durable insert pays" table in
``docs/durability.md``: a ``durable_ingest``-shaped batch (``id INTEGER
PRIMARY KEY, a, b, c FLOAT, tag VARCHAR``, 8 AMPs, ``fsync_mode=
"always"`` so every insert pays its own fsync) split by wrapping the
named functions with ``perf_counter`` pairs.  Only functions called once
per insert (or once per column) are wrapped, so the wrappers add a few
microseconds, not one call per row.  Then the guard: the median latency
of 1-, 16-, 64- and 500-row inserts into a plain 16-AMP table, where a
per-batch fixed cost would show first.  Last, recovery: a checkpoint of a
600,000-row ``ev`` table is reopened in a fresh interpreter, which
reports how long ``open_durable`` took, how far it raised the process's
peak resident set (``ru_maxrss``) and how many bytes a key the table's
primary-key bookkeeping holds; then it closes that handle, keeps it
referenced and reopens once more, as ``durable_ingest``'s crash check
does, and reports the peak after both and how far the second reopen
raised it over the first (a closed handle that still held its tables
would show here).  The wrappers look
functions up by name, so the same file runs against any commit since
the columnar write path::

    PYTHONPATH=<checkout>/src python3 benchmarks/write_path.py

Not a test and not part of ``benchmarks/e2e``: the numbers that gate a
change come from there (see ``.claude/skills/verify/SKILL.md`` for the
A/B recipe); this only says where inside the insert the time sits.
"""

from __future__ import annotations

import importlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.dbms import open_durable
from repro.dbms.database import Database

BATCH, DURABLE_AMPS, CALLS = 500, 8, 300
#: rows of the checkpoint the recovery section reopens, loaded in chunks
RECOVERY_ROWS, RECOVERY_CHUNK = 600_000, 50_000
#: batch rows -> inserts timed on the plain table
SMALL = {1: 3000, 16: 2000, 64: 1000, 500: 300}
SCHEMA = (
    "CREATE TABLE ev (id INTEGER PRIMARY KEY, a FLOAT, b FLOAT, c FLOAT, "
    "tag VARCHAR)"
)

#: part -> (module, dotted name); every one is called once per insert,
#: ``validate`` once per column
PARTS = {
    "statement": ("repro.dbms.database", "Database.insert_rows"),
    "insert_many": ("repro.dbms.storage", "Table.insert_many"),
    "insert_columns": ("repro.dbms.storage", "Table.insert_columns"),
    "validate": ("repro.dbms.storage", "_valid_prefix"),
    "split+append": ("repro.dbms.storage", "Table._flush"),
    "notify": ("repro.dbms.storage", "Table._notify"),
    "log append": ("repro.dbms.wal", "WriteAheadLog.append"),
    "encode": ("repro.dbms.wal", "encode_record"),
    "fsync": ("repro.dbms.wal", "WriteAheadLog.sync"),
}


def _wrap(spent: "dict[str, float]", part: str) -> None:
    module_name, dotted = PARTS[part]
    owner = importlib.import_module(module_name)
    *path, name = dotted.split(".")
    for attribute in path:
        owner = getattr(owner, attribute)
    original = getattr(owner, name)

    def timed(*args, __original=original, **kwargs):
        started = time.perf_counter()
        try:
            return __original(*args, **kwargs)
        finally:
            spent[part] += time.perf_counter() - started

    setattr(owner, name, timed)


def _rows(rng: np.random.Generator, start: int, count: int) -> "list[tuple]":
    values = rng.normal(50.0, 20.0, size=(count, 3)).tolist()
    tags = rng.integers(0, 97, size=count).tolist()
    return [
        (start + j, a, b, c, f"t{tag}")
        for j, ((a, b, c), tag) in enumerate(zip(values, tags))
    ]


def split_durable_insert(rng: np.random.Generator) -> None:
    home = Path(tempfile.mkdtemp()) / "d"
    db = open_durable(home, fsync_mode="always", amps=DURABLE_AMPS)
    try:
        db.execute(SCHEMA)
        batches = [_rows(rng, k * BATCH, BATCH) for k in range(CALLS + 20)]
        for batch in batches[:20]:
            db.insert_rows("ev", batch)
        spent = dict.fromkeys(PARTS, 0.0)
        for part in PARTS:
            _wrap(spent, part)
        samples = []
        for batch in batches[20:]:
            before = dict(spent)
            db.insert_rows("ev", batch)
            samples.append({part: spent[part] - before[part] for part in spent})
    finally:
        db.close()
        shutil.rmtree(home.parent, ignore_errors=True)
    median = {
        part: 1e6 * statistics.median(sample[part] for sample in samples)
        for part in PARTS
    }
    rows = {
        "transpose": median["insert_many"] - median["insert_columns"],
        "validate": median["validate"],
        "constrain + route": median["insert_columns"] - median["validate"]
        - median["split+append"] - median["notify"],
        "split+append": median["split+append"],
        "encode": median["encode"],
        "write": median["log append"] - median["encode"],
        "fsync": median["fsync"],
        "commit bookkeeping": median["notify"] - median["log append"]
        - median["fsync"],
        "statement": median["statement"],
    }
    print(f"one durable {BATCH}-row insert_rows, {DURABLE_AMPS} AMPs, "
          f"fsync_mode='always', median of {CALLS}")
    for part, micros in rows.items():
        print(f"  {part:24s} {micros:9.1f} us")


def small_batches(rng: np.random.Generator) -> None:
    print("insert_rows into a plain 16-AMP table, median")
    db = Database(amps=16)
    db.execute(SCHEMA)
    start = 0
    for size, calls in SMALL.items():
        batches = [_rows(rng, start + k * size, size) for k in range(calls)]
        start += calls * size
        times = []
        for batch in batches:
            started = time.perf_counter()
            db.insert_rows("ev", batch)
            times.append(time.perf_counter() - started)
        warm = times[calls // 10:]
        print(f"  {size:4d} rows {1e6 * statistics.median(warm):9.1f} us "
              f"({calls - calls // 10} inserts)")
    db.close()


#: run in a fresh interpreter: what reopening the checkpoint costs, the
#: bytes per key of the table's primary-key bookkeeping (a ``set`` of
#: ints before the key index), and a second reopen while the closed
#: first handle is still referenced, as ``durable_ingest``'s crash check
#: holds it
_REOPEN = """
import json, resource, sys, time
from repro.dbms import open_durable

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def deep_size(keys):
    return sys.getsizeof(keys) + sum(map(sys.getsizeof, keys))

def key_bytes(table):
    index = getattr(table, "_key_index", None)
    if index is None:
        return deep_size(table._pk_values)
    return index._base.nbytes + deep_size(index._recent) + deep_size(index._other)

before = maxrss()
started = time.perf_counter()
db = open_durable(sys.argv[1], amps=int(sys.argv[2]))
seconds = time.perf_counter() - started
after = maxrss()
table = db.table("ev")
rows, per_key = table.row_count, key_bytes(table) / table.row_count
db.close()
started = time.perf_counter()
again = open_durable(sys.argv[1], amps=int(sys.argv[2]))
again_seconds = time.perf_counter() - started
print(json.dumps({"seconds": seconds, "maxrss_kb": [before, after, maxrss()],
                  "rows": rows, "key_bytes_per_key": per_key,
                  "again_seconds": again_seconds}))
again.close()
"""


#: a new process starts with the ``ru_maxrss`` of the one it was spawned
#: from, so the reopen is spawned by a small interpreter, not this one
_LAUNCH = (
    "import subprocess, sys; "
    "subprocess.run([sys.executable, '-c', *sys.argv[1:]], check=True)"
)


def recovery(rng: np.random.Generator) -> None:
    home = Path(tempfile.mkdtemp()) / "d"
    try:
        db = open_durable(home, fsync_mode="off", amps=DURABLE_AMPS)
        db.execute(SCHEMA)
        for start in range(0, RECOVERY_ROWS, RECOVERY_CHUNK):
            values = rng.normal(50.0, 20.0, size=(RECOVERY_CHUNK, 3))
            tags = rng.integers(0, 97, size=RECOVERY_CHUNK).tolist()
            db.load_columns("ev", {
                "id": np.arange(start, start + RECOVERY_CHUNK),
                "a": values[:, 0], "b": values[:, 1], "c": values[:, 2],
                "tag": [f"t{tag}" for tag in tags],
            })
        started = time.perf_counter()
        db.checkpoint()
        checkpoint_s = time.perf_counter() - started
        db.close()
        child = subprocess.run(
            [sys.executable, "-c", _LAUNCH, _REOPEN, str(home),
             str(DURABLE_AMPS)],
            check=True, capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(home.parent, ignore_errors=True)
    reopened = json.loads(child.stdout)
    before, after, again = reopened["maxrss_kb"]
    print(f"recovery: checkpoint of {reopened['rows']:,} rows, "
          f"{DURABLE_AMPS} AMPs, reopened in a fresh interpreter")
    print(f"  checkpoint               {checkpoint_s:9.2f} s")
    print(f"  restore (open_durable)   {reopened['seconds']:9.2f} s")
    print(f"  ru_maxrss delta          {(after - before) / 1024:9.1f} MB "
          f"({before / 1024:.1f} -> {after / 1024:.1f} MB)")
    print(f"  primary-key bookkeeping  {reopened['key_bytes_per_key']:9.1f} "
          f"B/key (sys.getsizeof)")
    print(f"  reopen, first handle held {reopened['again_seconds']:8.2f} s, "
          f"ru_maxrss {again / 1024:.1f} MB")
    print(f"  second reopen over first {(again - after) / 1024:9.1f} MB "
          f"({again / after:.2f}x the first reopen's peak)")


def main() -> None:
    rng = np.random.default_rng(7)
    small_batches(rng)
    split_durable_insert(rng)
    recovery(rng)


if __name__ == "__main__":
    main()
