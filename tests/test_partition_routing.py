"""Deterministic partition routing.

The headline bug this guards against: ``Table._partition_for`` used to
route rows with builtin ``hash()``, whose string hashing is randomized
per process (``PYTHONHASHSEED``), so the same load produced different
partition layouts run-to-run.  Routing now uses a CRC-32 stable hash;
these tests prove the layout is identical across processes with
different hash seeds and after a persistence round-trip.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dbms import open_durable
from repro.dbms.database import Database
from repro.dbms.persistence import (
    database_fingerprint,
    load_database,
    save_database,
)
from repro.dbms.schema import TableSchema
from repro.dbms.storage import Table, route_keys, stable_key_hash
from repro.dbms.types import SqlType


def string_pk_table(partitions: int = 7, rows: int = 200) -> Table:
    schema = TableSchema.build(
        [("k", SqlType.VARCHAR), ("v", SqlType.FLOAT)], primary_key="k"
    )
    table = Table("t", schema, partitions=partitions)
    table.insert_many([(f"user-{i}", float(i)) for i in range(rows)])
    return table


def partition_layout(table: Table) -> list[list[str]]:
    """Per-partition primary-key lists (full layout, not just counts)."""
    return [[row[0] for row in partition.rows()] for partition in table.partitions]


_CHILD_SCRIPT = """\
import json
from repro.dbms.schema import TableSchema
from repro.dbms.storage import Table
from repro.dbms.types import SqlType

schema = TableSchema.build(
    [("k", SqlType.VARCHAR), ("v", SqlType.FLOAT)], primary_key="k"
)
table = Table("t", schema, partitions=7)
table.insert_many([(f"user-{i}", float(i)) for i in range(200)])
print(json.dumps(
    [[row[0] for row in partition.rows()] for partition in table.partitions]
))
"""


def _layout_under_hash_seed(seed: str) -> list[list[str]]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


class TestStableKeyHash:
    def test_equal_numerics_hash_equal(self):
        assert stable_key_hash(3) == stable_key_hash(3.0)
        assert stable_key_hash(1) == stable_key_hash(True)
        assert stable_key_hash(0) == stable_key_hash(False)

    def test_distinct_values_usually_differ(self):
        hashes = {stable_key_hash(f"key-{i}") for i in range(1000)}
        assert len(hashes) > 990

    def test_types_do_not_collide_by_payload(self):
        assert stable_key_hash("3") != stable_key_hash(3)
        assert stable_key_hash(None) != stable_key_hash("")

    def test_known_values_are_frozen(self):
        """The encoding is a persistence-layout contract: changing it
        silently would reshuffle reloaded tables."""
        import zlib

        assert stable_key_hash("abc") == zlib.crc32(b"s:abc")
        assert stable_key_hash(42) == zlib.crc32(b"i:42")
        assert stable_key_hash(2.5) == zlib.crc32(b"f:2.5")
        assert stable_key_hash(None) == zlib.crc32(b"n:")
        # Past float range an int keeps its exact digits (no float
        # equals it); below, 2**53 + 1 still hashes as its float.
        assert stable_key_hash(10**400) == zlib.crc32(b"i:%d" % 10**400)
        assert stable_key_hash(2**53 + 1) == zlib.crc32(b"i:%d" % 2**53)


#: keys the batch router must route exactly as stable_key_hash: both
#: sides of ±2**53 (where a float stops holding every int) and ±2**63,
#: ints past float range, bools, integral and non-integral floats, -0.0,
#: NaN and strings
_INT_KEYS = st.one_of(
    st.integers(-1000, 1000),
    st.sampled_from([
        2**53 - 1, 2**53, 2**53 + 1, -(2**53) + 1, -(2**53), -(2**53) - 1,
        2**63 - 1, 2**63, 2**63 + 1, -(2**63), -(2**63) - 1, 10**30,
        10**400, -(10**400),
    ]),
    st.integers(),
)
_ANY_KEYS = st.one_of(
    _INT_KEYS,
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 3.0, 2.5, float(2**53), float("nan")]),
    st.text(max_size=4),
)


class TestBatchRouter:
    @given(
        keys=st.one_of(st.lists(_INT_KEYS), st.lists(_ANY_KEYS)),
        fanout=st.integers(1, 20),
    )
    def test_router_is_stable_key_hash(self, keys, fanout):
        assert route_keys(keys, fanout) == [
            stable_key_hash(key) % fanout for key in keys
        ]


def _keys_by_partition(db: Database, name: str) -> list[list[str]]:
    return [
        [repr(row[0]) for row in partition.rows()]
        for partition in db.table(name).partitions
    ]


class TestHugeIntegerKeys:
    """An INTEGER key past float range routes like any other key."""

    ROWS = [(10**400, 1.0), (-(10**400), 2.0), (2**1024, 3.0), (7, 4.0)]

    def test_plain_database(self):
        db = Database(amps=7)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v FLOAT)")
        assert db.insert_rows("t", self.ROWS) == 4
        layout = _keys_by_partition(db, "t")
        for key, _ in self.ROWS:
            index = stable_key_hash(key) % 7
            assert repr(key) in layout[index]
        db.close()

    def test_durable_database_reopens_with_the_same_layout(self, tmp_path):
        home = tmp_path / "d"
        db = open_durable(home, fsync_mode="always", amps=7)
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v FLOAT)")
        db.insert_rows("t", self.ROWS)
        layout = _keys_by_partition(db, "t")
        fingerprint = database_fingerprint(db)
        db.close()
        for checkpoint in (False, True):
            db = open_durable(home, amps=7)
            assert _keys_by_partition(db, "t") == layout
            assert database_fingerprint(db) == fingerprint
            assert (10**400, 1.0) in db.table("t").rows()
            if checkpoint:  # restore from the snapshot, not the log
                db.checkpoint()
            db.close()
        db = open_durable(home, amps=7)
        assert _keys_by_partition(db, "t") == layout
        assert db.durability.recovery_replayed_records == 0
        db.close()


def _pinned_history(home: Path) -> str:
    """A fixed durable history; the md5 of the log it leaves."""
    db = open_durable(home, fsync_mode="always", amps=5)
    db.execute(
        "CREATE TABLE ints (k INTEGER PRIMARY KEY, a FLOAT, b FLOAT, "
        "tag VARCHAR)"
    )
    db.execute("CREATE TABLE reals (k FLOAT PRIMARY KEY, a FLOAT)")
    db.execute("CREATE TABLE words (k VARCHAR PRIMARY KEY, a FLOAT)")
    edge = [
        2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, 2**63,
        -(2**63) - 1, 10**30, -(10**30),
    ]
    keys = edge + list(range(-250, 250, 2))
    rows = [
        (key, j / 7.0, None if j % 5 == 0 else -j / 3.0, f"t{j % 11}")
        for j, key in enumerate(keys)
    ]
    # Batches of 1, 16, 64 and 178 rows, then a 259-row UPDATE.
    for start, stop in ((0, 1), (1, 17), (17, 81), (81, None)):
        db.insert_rows("ints", rows[start:stop])
    db.execute("UPDATE ints SET a = a + 1 WHERE k < 0")
    db.insert_rows(
        "reals",
        [(j * 0.75, float(j)) for j in range(-100, 100)]
        + [(float("inf"), 1.0), (float("nan"), None), (1e-300, -0.0)],
    )
    db.insert_rows(
        "words", [(f"w{j}", None if j % 3 == 0 else j * 1.5) for j in range(150)]
    )
    db.close()
    return hashlib.md5((home / "wal.log").read_bytes()).hexdigest()


class TestPinnedWriteHistory:
    """The log bytes and partition layouts of a fixed history, as
    recorded before the batch router and the sorted partition split:
    the write path may get faster, never different."""

    WAL_MD5 = "8f09a2f2ce4856092262e952749d3a85"
    LAYOUT_MD5 = "8e085be59dc980084e93cc361413799c"
    COUNTS = {
        "ints": [58, 50, 59, 43, 49],
        "reals": [48, 37, 38, 43, 37],
        "words": [29, 30, 28, 32, 31],
    }

    def test_log_and_layout_are_the_recorded_ones(self, tmp_path):
        home = tmp_path / "d"
        assert _pinned_history(home) == self.WAL_MD5
        db = open_durable(home, amps=5)
        layout = {
            name: _keys_by_partition(db, name)
            for name in ("ints", "reals", "words")
        }
        db.close()
        assert {
            name: [len(keys) for keys in partitions]
            for name, partitions in layout.items()
        } == self.COUNTS
        assert hashlib.md5(repr(layout).encode()).hexdigest() == self.LAYOUT_MD5


class TestCrossProcessLayout:
    def test_layout_identical_under_different_hash_seeds(self):
        """Two fresh interpreters with different PYTHONHASHSEED values
        must produce byte-identical partition layouts (the subprocess
        regression demanded by the issue)."""
        layout_a = _layout_under_hash_seed("0")
        layout_b = _layout_under_hash_seed("1")
        assert layout_a == layout_b
        counts = [len(partition) for partition in layout_a]
        assert sum(counts) == 200

    def test_subprocess_layout_matches_in_process(self):
        expected = partition_layout(string_pk_table())
        assert _layout_under_hash_seed("0") == expected

    def test_string_keys_spread_over_partitions(self):
        table = string_pk_table()
        occupied = [p.row_count for p in table.partitions if p.row_count]
        assert len(occupied) >= 5, "stable hash should still distribute"
        assert sum(occupied) == 200


class TestPersistenceLayout:
    def test_layout_survives_save_load_round_trip(self, tmp_path):
        from repro.dbms.database import Database

        db = Database(amps=7)
        schema = TableSchema.build(
            [("k", SqlType.VARCHAR), ("v", SqlType.FLOAT)], primary_key="k"
        )
        db.create_table("t", schema)
        db.insert_rows("t", [(f"user-{i}", float(i)) for i in range(120)])
        before = partition_layout(db.table("t"))

        save_database(db, tmp_path)
        reloaded = load_database(tmp_path)
        after = partition_layout(reloaded.table("t"))
        assert after == before
