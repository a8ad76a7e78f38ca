"""Crash-safe durability: WAL codec, checkpoints, recovery, crashes.

Covers the durability layer bottom-up:

* the record codec — CRC detection, torn-tail versus mid-log corruption,
  LSN monotonicity;
* logging semantics — one record per statement (an UPDATE's truncate +
  re-insert replay atomically), direct-API commits, fsync-mode counters;
* recovery — checkpoint restore + WAL-suffix replay, stale-record
  skipping, torn-tail truncation, typed refusal on untrustworthy state;
* deterministic crash injection at ``wal.append`` / ``wal.fsync`` /
  ``checkpoint.write`` with the committed-prefix invariant.

The *randomized* crash schedules live in the chaos suite
(``tests/test_chaos.py``); this file pins every regime explicitly.
"""

import gc
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core.models.kmeans import KMeansModel
from repro.dbms import open_durable
from repro.dbms.faults import FaultPlan, FaultSpec
from repro.dbms.persistence import database_fingerprint
from repro.dbms.schema import Column, TableSchema
from repro.dbms.types import SqlType
from repro.dbms.wal import (
    MANIFEST_NAME,
    WAL_NAME,
    WriteAheadLog,
    _try_decode,
    encode_record,
    read_wal,
)
from repro.errors import (
    ConstraintViolation,
    RecoveryError,
    SimulatedCrash,
)
from repro.serving import ModelRegistry
from repro.serving.registry import REGISTRY_TABLE


@pytest.fixture
def root(tmp_path):
    return tmp_path / "durable"


def _crash_spec(site: str, at_record: int = 0, torn_bytes: int = 0):
    """A FaultSpec that kills the session at the Nth hit of *site*."""
    return FaultSpec(
        site=site,
        kind="error",
        error=SimulatedCrash(torn_bytes=torn_bytes),
        times=1,
        skip_first=at_record,
    )


# ----------------------------------------------------------------- codec
class TestCodec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        ops1 = [{"op": "insert", "name": "t", "rows": [[1, 0.5], [2, None]]}]
        ops2 = [{"op": "truncate", "name": "t"}]
        path.write_bytes(encode_record(1, ops1) + encode_record(2, ops2))
        records, good, torn = read_wal(path)
        # A batch decodes column-major, whichever way it was passed; an
        # "i8" lane comes back as an int64 array.
        (ids, floats), = [op["columns"] for op in records[0].ops]
        assert ids.dtype == np.int64 and ids.tolist() == [1, 2]
        decoded = [
            {"op": "insert", "name": "t", "columns": [ids, [0.5, None]]}
        ]
        assert [(r.lsn, r.ops) for r in records] == [(1, decoded), (2, ops2)]
        assert good == path.stat().st_size and torn == 0

    def test_missing_file_is_empty(self, tmp_path):
        assert read_wal(tmp_path / "absent.log") == ([], 0, 0)

    def test_torn_tail_is_truncatable(self, tmp_path):
        path = tmp_path / "wal.log"
        intact = encode_record(1, [{"op": "truncate", "name": "t"}])
        torn = encode_record(2, [{"op": "truncate", "name": "t"}])[:11]
        path.write_bytes(intact + torn)
        records, good, torn_bytes = read_wal(path)
        assert [r.lsn for r in records] == [1]
        assert good == len(intact) and torn_bytes == 11

    def test_bit_flip_in_payload_is_detected(self, tmp_path):
        path = tmp_path / "wal.log"
        record = bytearray(
            encode_record(1, [{"op": "insert", "name": "t", "rows": [[7]]}])
        )
        record[-3] ^= 0x10  # flip one payload bit
        path.write_bytes(bytes(record))
        records, good, torn_bytes = read_wal(path)
        assert records == [] and good == 0 and torn_bytes == len(record)

    def test_mid_log_corruption_is_typed(self, tmp_path):
        path = tmp_path / "wal.log"
        first = bytearray(encode_record(1, [{"op": "truncate", "name": "t"}]))
        first[-1] ^= 0xFF
        second = encode_record(2, [{"op": "truncate", "name": "t"}])
        path.write_bytes(bytes(first) + second)
        with pytest.raises(RecoveryError, match="not a torn tail"):
            read_wal(path)

    def test_lsn_gap_is_typed(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(
            encode_record(1, [{"op": "truncate", "name": "t"}])
            + encode_record(3, [{"op": "truncate", "name": "t"}])
        )
        with pytest.raises(RecoveryError, match="LSN gap"):
            read_wal(path)

    def test_writer_tracks_durable_offset(self, tmp_path):
        from repro.dbms.metrics import DurabilityMetrics

        wal = WriteAheadLog(tmp_path / "wal.log", DurabilityMetrics())
        wal.append([{"op": "truncate", "name": "t"}])
        assert wal.durable_offset == 0 and wal.records_since_sync == 1
        wal.sync()
        assert wal.durable_offset == wal.path.stat().st_size
        assert wal.records_since_sync == 0
        wal.append([{"op": "truncate", "name": "t"}])
        wal.crash()
        # The unsynced second record is gone; the synced first survives.
        records, _, _ = read_wal(wal.path)
        assert [r.lsn for r in records] == [1]


# ------------------------------------------------------------ typed lanes
_FRAME = struct.Struct(">4sQII")


def _format_1_record(lsn: int, ops: list) -> bytes:
    """A record as the all-JSON format 1 wrote it (row-major batches)."""
    payload = json.dumps({"ops": ops}, separators=(",", ":")).encode()
    crc = zlib.crc32(struct.pack(">QI", lsn, len(payload)) + payload)
    return _FRAME.pack(b"WREC", lsn, len(payload), crc) + payload


def _lane_header(record: bytes) -> dict:
    """The JSON description at the front of a format-2 payload."""
    payload = record[_FRAME.size :]
    assert payload[:1] == b"\x02"
    (size,) = struct.unpack_from("<I", payload, 1)
    return json.loads(payload[5 : 5 + size])


def _round_trip(columns: list) -> list:
    record = encode_record(1, [{"op": "insert", "name": "t", "columns": columns}])
    decoded, end = _try_decode(record, 0)
    assert end == len(record)
    return decoded.ops[0]["columns"]


def _bits(values) -> list:
    """Bit patterns, so NaN payloads and the sign of zero compare."""
    return [
        None if value is None else struct.pack("<d", value) for value in values
    ]


class TestLaneCodec:
    FLOATS = [
        0.1, -0.0, 0.0, float("inf"), -float("inf"), float("nan"),
        struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0],  # NaN, odd bits
        5e-324, 1.7976931348623157e308,
    ]

    def test_float_lane_is_bit_exact(self):
        record = encode_record(
            1, [{"op": "insert", "name": "t", "columns": [self.FLOATS]}]
        )
        assert _lane_header(record)["ops"][0]["columns"] == ["f8"]
        (lane,) = _round_trip([self.FLOATS])
        assert isinstance(lane, np.ndarray) and lane.dtype == np.float64
        assert _bits(lane.tolist()) == _bits(self.FLOATS)
        # An array encodes to the bytes its list does.
        assert record == encode_record(
            1, [{"op": "insert", "name": "t", "columns": [np.array(self.FLOATS)]}]
        )

    def test_null_and_nan_stay_distinct(self):
        column = [None, float("nan"), -0.0, None, 2.5]
        record = encode_record(
            1, [{"op": "insert", "name": "t", "columns": [column]}]
        )
        assert _lane_header(record)["ops"][0]["columns"] == ["f8?"]
        (lane,) = _round_trip([column])
        assert _bits(lane) == _bits(column)

    def test_integer_lane_and_json_fallback(self):
        fits = [0, -1, 2**63 - 1, -(2**63)]
        beyond = [0, 2**63]
        nullable = [1, None]
        record = encode_record(
            1,
            [{"op": "insert", "name": "t", "columns": [fits, beyond, nullable]}],
        )
        assert _lane_header(record)["ops"][0]["columns"] == [
            "i8", beyond, nullable,
        ]
        decoded = _round_trip([fits, beyond, nullable])
        assert decoded[0].dtype == np.int64  # the lane's bytes, as an array
        decoded[0] = decoded[0].tolist()
        assert decoded == [fits, beyond, nullable]
        assert all(type(v) is int for v in decoded[0] + decoded[1])

    def test_strings_bools_and_mixed_columns_fall_back_to_json(self):
        columns = [
            ["", "naïve", "雪", "\\N", "a\nb", "😀 \udc80"],
            [True, False, True, False, True, False],
            [1, 2.5, None, "x", 3, 4],
            [None] * 6,
        ]
        decoded = _round_trip(columns)
        assert decoded == columns
        assert [type(v) for v in decoded[1]] == [bool] * 6
        assert [type(v) for v in decoded[2]] == [int, float, type(None), str, int, int]

    def test_rows_and_columns_encode_identically(self):
        rows = [
            [j, j / 3.0, None if j % 4 == 0 else -float(j), f"t{j % 7}"]
            for j in range(50)
        ]
        columns = [list(column) for column in zip(*rows)]
        for name in ("insert", "bulk_load"):
            assert encode_record(
                9, [{"op": name, "name": "t", "rows": rows}]
            ) == encode_record(
                9, [{"op": name, "name": "t", "columns": columns}]
            )

    def test_empty_batch(self):
        by_rows = encode_record(1, [{"op": "insert", "name": "t", "rows": []}])
        assert by_rows == encode_record(
            1, [{"op": "insert", "name": "t", "columns": []}]
        )
        assert _try_decode(by_rows, 0)[0].ops == [
            {"op": "insert", "name": "t", "columns": []}
        ]
        assert [c.tolist() for c in _round_trip([np.empty(0), np.empty(0)])] == [[], []]

    def test_several_batches_share_one_record(self):
        ops = [
            {"op": "truncate", "name": "t"},
            {"op": "insert", "name": "t", "columns": [[1, 2], [0.5, 1.5]]},
            {"op": "insert", "name": "u", "columns": [[None, 2.0, 3.0]]},
        ]
        decoded = _try_decode(encode_record(4, ops), 0)[0].ops
        assert decoded[0] == ops[0]
        assert decoded[1]["columns"][0].tolist() == [1, 2]
        assert decoded[1]["columns"][1].tolist() == [0.5, 1.5]
        assert decoded[2]["columns"] == [[None, 2.0, 3.0]]

    def test_other_ops_are_described_as_they_are(self):
        # create_table has a "columns" of its own: the schema.
        op = {
            "op": "create_table", "name": "t", "primary_key": "id",
            "columns": [["id", "INTEGER", False], ["x", "FLOAT", True]],
            "partitions": 4, "row_scale": 1.0,
        }
        record = encode_record(1, [op])
        assert _lane_header(record) == {"ops": [op]}
        assert _try_decode(record, 0)[0].ops == [op]

    def test_encoding_leaves_the_ops_untouched(self):
        columns = [[1, 2], [0.5, 1.5]]
        op = {"op": "insert", "name": "t", "columns": columns}
        encode_record(1, [op])
        assert op == {"op": "insert", "name": "t", "columns": columns}
        assert set(op) == {"op", "name", "columns"}

    def test_torn_anywhere_in_the_binary_section(self, tmp_path):
        """A record cut at any byte of its header, description or lanes
        is a torn tail: the record before it survives, it does not."""
        path = tmp_path / "wal.log"
        intact = encode_record(1, [{"op": "truncate", "name": "t"}])
        columns = [[1, 2, 3], [0.5, None, float("nan")], [1.5, 2.5, 3.5]]
        victim = encode_record(
            2, [{"op": "insert", "name": "t", "columns": columns}]
        )
        for cut in range(1, len(victim)):
            path.write_bytes(intact + victim[:cut])
            records, good, torn = read_wal(path)
            assert [r.lsn for r in records] == [1], cut
            assert (good, torn) == (len(intact), cut)
        path.write_bytes(intact + victim)
        assert [r.lsn for r in read_wal(path)[0]] == [1, 2]

    def test_format_1_record_still_replays(self, root):
        """A log written before typed lanes (all-JSON, row-major) is
        replayed as it always was; new records append after it."""
        db = open_durable(root)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL, s VARCHAR)")
        db.execute("CREATE TABLE b (id INTEGER, x REAL)")
        db.close()
        lsn = read_wal(root / WAL_NAME)[0][-1].lsn
        rows = [[1, 0.1, "a"], [2, None, "naïve"], [3, float("nan"), None]]
        loaded = [[j, j / 7.0] for j in range(10)]
        with (root / WAL_NAME).open("ab") as handle:
            handle.write(_format_1_record(
                lsn + 1, [{"op": "insert", "name": "t", "rows": rows}]))
            handle.write(_format_1_record(
                lsn + 2, [{"op": "bulk_load", "name": "b", "rows": loaded}]))
        recovered = open_durable(root)
        assert recovered.durability.recovery_replayed_records == lsn + 2
        assert repr(sorted(recovered.table("t").rows())) == repr(
            sorted(tuple(row) for row in rows)
        )
        assert recovered.table("b").rows() == [tuple(row) for row in loaded]
        recovered.insert_rows("t", [(4, -0.0, "z")])
        expected = database_fingerprint(recovered)
        recovered.close()
        again = open_durable(root)
        assert database_fingerprint(again) == expected
        again.close()

    @pytest.mark.parametrize("site", ["wal.append", "wal.fsync"])
    @pytest.mark.parametrize("torn_bytes", [0, 77])
    def test_crash_recovers_a_committed_prefix_of_lane_batches(
        self, root, site, torn_bytes
    ):
        db = open_durable(root, fsync_mode="always")
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL, y REAL, s VARCHAR)"
        )
        committed = [database_fingerprint(db)]
        db.faults = FaultPlan(
            [_crash_spec(site, at_record=2, torn_bytes=torn_bytes)], seed=0
        )
        with pytest.raises(SimulatedCrash):
            for batch in range(4):
                db.insert_rows("t", [
                    (
                        100 * batch + j,
                        float("nan") if j == 3 else j / 3.0,
                        None if j % 5 == 0 else -0.0,
                        f"é{j}",
                    )
                    for j in range(40)
                ])
                committed.append(database_fingerprint(db))
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == committed[2]
        recovered.close()


# ------------------------------------------------------------- lifecycle
class TestDurableLifecycle:
    def test_bootstrap_layout(self, root):
        db = open_durable(root)
        db.close()
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["checkpoint"] == "checkpoint-000000"
        assert manifest["lsn"] == 0
        assert (root / "checkpoint-000000" / "catalog.json").exists()
        assert (root / WAL_NAME).exists()

    def test_refuses_unmanifested_leftovers(self, root):
        root.mkdir(parents=True)
        (root / WAL_NAME).write_bytes(b"anything")
        with pytest.raises(RecoveryError, match="no MANIFEST"):
            open_durable(root)

    def test_bad_fsync_mode(self, root):
        with pytest.raises(ValueError, match="fsync_mode"):
            open_durable(root, fsync_mode="sometimes")

    def test_full_round_trip_all_modes(self, root):
        for mode in ("always", "batch", "off"):
            directory = root / mode
            db = open_durable(directory, fsync_mode=mode)
            db.execute(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL, s VARCHAR)"
            )
            db.insert_rows(
                "t", [(i, i * 0.125, f"row-{i}") for i in range(20)]
            )
            db.execute("UPDATE t SET x = x * 3 WHERE id < 10")
            db.execute("DELETE FROM t WHERE id = 19")
            db.execute("CREATE VIEW big AS SELECT id FROM t WHERE x > 1")
            expected = database_fingerprint(db)
            db.close()

            recovered = open_durable(directory)
            assert database_fingerprint(recovered) == expected
            assert recovered.durability.recoveries == 1
            # Clean close fsyncs, so even "off" replays everything.
            assert recovered.durability.recovery_replayed_records > 0
            recovered.close()

    def test_recovered_session_keeps_logging(self, root):
        db = open_durable(root)
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [(1,)])
        db.close()
        second = open_durable(root)
        second.insert_rows("t", [(2,)])
        expected = database_fingerprint(second)
        second.close()
        third = open_durable(root)
        assert database_fingerprint(third) == expected
        third.close()

    def test_bulk_load_replays_striped_layout(self, root):
        db = open_durable(root)
        db.execute("CREATE TABLE t (id INTEGER, x REAL)")
        db.load_columns(
            "t", {"id": np.arange(50), "x": np.linspace(0, 1, 50)}
        )
        layout = [p.row_count for p in db.table("t")._partitions]
        expected = database_fingerprint(db)
        db.close()
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        # bulk loads replay through bulk_load_arrays, reproducing the
        # contiguous striping — not round-robin insert routing.
        assert [
            p.row_count for p in recovered.table("t")._partitions
        ] == layout
        recovered.close()

    def test_drop_table_and_view_replay(self, root):
        db = open_durable(root)
        db.execute("CREATE TABLE keep (id INTEGER)")
        db.execute("CREATE TABLE gone (id INTEGER)")
        db.execute("CREATE VIEW v AS SELECT id FROM keep")
        db.execute("DROP TABLE gone")
        db.execute("DROP VIEW v")
        expected = database_fingerprint(db)
        db.close()
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        assert not recovered.catalog.has_table("gone")
        assert not recovered.catalog.has_view("v")
        recovered.close()


# --------------------------------------------------------- closed session
_CLOSED = "session is closed"


def _entry_points(db):
    """Every way into a durable session, each called once."""
    return {
        "execute": lambda: db.execute("SELECT * FROM t"),
        "execute (no table)": lambda: db.execute("SELECT 1"),
        "execute_batch": lambda: db.execute_batch(
            ["SELECT count(*) FROM t", "SELECT sum(x) FROM t"]
        ),
        "explain": lambda: db.explain("SELECT count(*) FROM t"),
        "insert_rows": lambda: db.insert_rows("t", [(99, 9.9)]),
        "load_columns": lambda: db.load_columns(
            "t", {"id": np.arange(100, 103), "x": np.zeros(3)}
        ),
        "create_table": lambda: db.create_table(
            "u", TableSchema((Column("id", SqlType.INTEGER),))
        ),
        "drop_table": lambda: db.drop_table("t"),
        "checkpoint": db.checkpoint,
        "table": lambda: db.table("t"),
    }


class TestClosedSession:
    def _session(self, root):
        db = open_durable(root, fsync_mode="always", amps=4)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        db.insert_rows("t", [(i, i / 4) for i in range(40)])
        db.execute("SELECT sum(x) FROM t")  # fills a block cache
        return db

    def test_every_entry_point_says_closed(self, root):
        """A cleanly closed session is closed, not crashed: each entry
        point raises the same typed error, nothing reaches memory or the
        log, and close stays idempotent."""
        db = self._session(root)
        expected = database_fingerprint(db)
        held = db.table("t")
        db.close()
        assert db.closed and not db.crashed
        for name, attempt in _entry_points(db).items():
            with pytest.raises(RecoveryError, match=_CLOSED):
                attempt()
            assert not db.crashed, name
        assert held.row_count == 0  # released, and nothing re-inserted
        db.close()
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        assert not recovered.closed
        recovered.close()

    def test_close_after_crash_ends_the_session(self, root):
        """A crashed session refuses work before it touches memory;
        closing it is a quiet no-op on disk, and from then on the session
        is closed like any other."""
        db = self._session(root)
        expected = database_fingerprint(db)
        db.faults = FaultPlan([_crash_spec("wal.append")], seed=0)
        with pytest.raises(SimulatedCrash):
            db.insert_rows("t", [(40, 10.0)])
        assert db.crashed
        for name, attempt in _entry_points(db).items():
            if name != "table":
                with pytest.raises(RecoveryError, match="session crashed"):
                    attempt()
        # A crashed session's memory stays readable until it closes, and
        # nothing reached it after the crash.
        assert db.table("t").row_count == 41
        db.close()
        db.close()
        for attempt in _entry_points(db).values():
            with pytest.raises(RecoveryError, match=_CLOSED):
                attempt()
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        recovered.close()

    def test_close_releases_the_tables(self, root):
        """A crashed handle that is closed but still referenced holds no
        copy of the data while the directory is reopened."""
        rows = 50_000
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            db = open_durable(root, fsync_mode="always", amps=8)
            db.execute(
                "CREATE TABLE ev (id INTEGER PRIMARY KEY, a REAL, b REAL, "
                "tag VARCHAR)"
            )
            db.load_columns("ev", {
                "id": np.arange(rows),
                "a": rng.normal(size=rows),
                "b": rng.normal(size=rows),
                "tag": [f"t{j % 13}" for j in range(rows)],
            })
            db.execute("SELECT avg(a), avg(b) FROM ev")
            warm = db.execute("SELECT avg(a), avg(b) FROM ev")
            assert warm.metrics.block_cache_hits == 8
            committed = database_fingerprint(db)
            db.faults = FaultPlan([_crash_spec("wal.append")], seed=0)
            try:
                db.insert_rows("ev", [(rows, 1.0, 2.0, "lost")])
            except SimulatedCrash:
                pass
            assert db.crashed
            lane_bytes = sum(
                lane._buffer.nbytes
                for partition in db.table("ev").partitions
                for lane in partition.lanes
            )
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            db.close()
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert lane_bytes > rows * 3 * 8
        assert before - after >= lane_bytes
        recovered = open_durable(root, amps=8)
        assert database_fingerprint(recovered) == committed
        recovered.close()


# --------------------------------------------------- statement atomicity
class TestStatementAtomicity:
    def test_update_is_one_record(self, root):
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        db.insert_rows("t", [(i, float(i)) for i in range(6)])
        before = len(read_wal(root / WAL_NAME)[0])
        db.execute("UPDATE t SET x = x + 1 WHERE id < 3")
        records, _, _ = read_wal(root / WAL_NAME)
        assert len(records) == before + 1
        # ... and that one record carries the whole truncate + re-insert.
        ops = [op["op"] for op in records[-1].ops]
        assert ops == ["truncate", "insert"]
        db.close()

    def test_delete_is_one_record(self, root):
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        db.insert_rows("t", [(i, float(i)) for i in range(6)])
        before = len(read_wal(root / WAL_NAME)[0])
        db.execute("DELETE FROM t WHERE id >= 4")
        records, _, _ = read_wal(root / WAL_NAME)
        assert len(records) == before + 1
        db.close()

    def test_multi_statement_script_one_record_each(self, root):
        db = open_durable(root, fsync_mode="always")
        db.execute(
            "CREATE TABLE t (id INTEGER); "
            "INSERT INTO t VALUES (1), (2); "
            "DELETE FROM t WHERE id = 1"
        )
        records, _, _ = read_wal(root / WAL_NAME)
        assert [[op["op"] for op in r.ops] for r in records] == [
            ["create_table"],
            ["insert"],
            ["truncate", "insert"],
        ]
        db.close()

    def test_failed_statement_logs_applied_prefix(self, root):
        """A statement that fails mid-way logs exactly the mutations it
        actually applied — recovered state equals crashed-session memory."""
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.insert_rows("t", [(1,), (2,), (3,)])
        with pytest.raises(ConstraintViolation):
            # Row 4 inserts, the duplicate 1 then fails validation —
            # matching per-row semantics, the valid prefix stays.
            db.insert_rows("t", [(4,), (1,)])
        expected = database_fingerprint(db)
        db.close()
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        assert recovered.execute("SELECT count(*) FROM t").scalar() == 4
        recovered.close()


# ------------------------------------------------------------ fsync modes
class TestFsyncModes:
    def _commit_n(self, db, n):
        db.execute("CREATE TABLE t (id INTEGER)")
        for i in range(n):
            db.insert_rows("t", [(i,)])

    def test_always_syncs_per_commit(self, root):
        db = open_durable(root, fsync_mode="always")
        self._commit_n(db, 5)
        # create_table + 5 inserts = 6 commit records, 6 fsyncs.
        assert db.durability.wal_records == 6
        assert db.durability.fsyncs == 6
        db.close()

    def test_batch_syncs_every_n_records(self, root):
        db = open_durable(root, fsync_mode="batch", wal_batch_records=4)
        self._commit_n(db, 6)  # 7 records -> fsync at 4, 3 pending
        assert db.durability.fsyncs == 1
        assert db._wal.records_since_sync == 3
        db.close()  # close drains the rest

    def test_off_only_syncs_at_close(self, root):
        db = open_durable(root, fsync_mode="off")
        self._commit_n(db, 6)
        assert db.durability.fsyncs == 0
        db.close()

    def test_metrics_round_trip(self, root):
        from repro.dbms.metrics import DurabilityMetrics

        db = open_durable(root, fsync_mode="always")
        self._commit_n(db, 2)
        snapshot = db.durability.to_dict()
        assert DurabilityMetrics.from_dict(snapshot) == db.durability
        with pytest.raises(ValueError, match="unknown"):
            DurabilityMetrics.from_dict({"bogus": 1})
        db.close()


# ------------------------------------------------------------ checkpoints
class TestCheckpoints:
    def test_checkpoint_truncates_wal_and_gc_old(self, root):
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [(i,) for i in range(8)])
        assert (root / WAL_NAME).stat().st_size > 0
        db.checkpoint()
        assert (root / WAL_NAME).stat().st_size == 0
        dirs = sorted(
            p.name for p in root.iterdir() if p.name.startswith("checkpoint-")
        )
        assert dirs == ["checkpoint-000001"]
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["checkpoint"] == "checkpoint-000001"
        # One insert_rows call is one commit record: create + batch = 2.
        assert manifest["lsn"] == 2
        db.close()
        recovered = open_durable(root)
        assert recovered.execute("SELECT count(*) FROM t").scalar() == 8
        assert recovered.durability.recovery_replayed_records == 0
        recovered.close()

    def test_auto_checkpoint_every_n_records(self, root):
        db = open_durable(
            root, fsync_mode="always", checkpoint_every_records=3
        )
        db.execute("CREATE TABLE t (id INTEGER)")
        for i in range(7):
            db.insert_rows("t", [(i,)])
        assert db.durability.checkpoints >= 2
        db.close()
        recovered = open_durable(root)
        assert recovered.execute("SELECT count(*) FROM t").scalar() == 7
        recovered.close()

    def test_stale_wal_records_skipped(self, root, monkeypatch):
        """A crash between manifest swap and WAL truncation leaves
        records the checkpoint already contains; recovery skips them."""
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.insert_rows("t", [(1,), (2,)])
        expected = database_fingerprint(db)
        monkeypatch.setattr(WriteAheadLog, "reset", lambda self: None)
        db.checkpoint()  # manifest now at lsn 2, WAL still holds 1..2
        monkeypatch.undo()
        db._wal.close()
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        assert recovered.durability.recovery_skipped_records == 2
        assert recovered.durability.recovery_replayed_records == 0
        recovered.close()

    def test_manifest_pointing_nowhere_is_typed(self, root):
        db = open_durable(root)
        db.close()
        (root / MANIFEST_NAME).write_text(
            json.dumps(
                {"format": 1, "checkpoint": "checkpoint-000042", "lsn": 0}
            )
        )
        with pytest.raises(RecoveryError, match="missing checkpoint"):
            open_durable(root)

    def test_garbage_manifest_is_typed(self, root):
        db = open_durable(root)
        db.close()
        (root / MANIFEST_NAME).write_text("not json {")
        with pytest.raises(RecoveryError, match="unreadable manifest"):
            open_durable(root)


# --------------------------------------------------------- crash injection
class TestCrashInjection:
    @pytest.mark.parametrize("at_record", [0, 3, 7])
    def test_always_mode_loses_nothing_committed(self, root, at_record):
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
        committed = [database_fingerprint(db)]
        db.faults = FaultPlan(
            [_crash_spec("wal.append", at_record=at_record)], seed=0
        )
        with pytest.raises(SimulatedCrash):
            for i in range(10):
                db.insert_rows("t", [(i, i * 0.25)])
                committed.append(database_fingerprint(db))
        assert db.crashed
        # The crash fired on append number at_record (after the faults
        # were armed), so exactly that many inserts committed durably.
        assert len(committed) == at_record + 1
        recovered = open_durable(root)
        # "always" fsyncs every commit: the recovered state is exactly
        # the LAST committed prefix — zero loss window.
        assert database_fingerprint(recovered) == committed[-1]
        recovered.close()

    def test_poisoned_session_rejects_everything(self, root):
        db = open_durable(root, fsync_mode="always")
        db.faults = FaultPlan([_crash_spec("wal.append")], seed=0)
        with pytest.raises(SimulatedCrash):
            db.execute("CREATE TABLE t (id INTEGER)")
        for attempt in (
            lambda: db.execute("SELECT 1"),
            lambda: db.insert_rows("t", [(1,)]),
            lambda: db.checkpoint(),
        ):
            with pytest.raises(RecoveryError, match="reopen"):
                attempt()
        db.close()  # close after crash is a clean no-op

    def test_batch_mode_crash_drops_unsynced_tail(self, root):
        db = open_durable(root, fsync_mode="batch", wal_batch_records=100)
        empty = database_fingerprint(db)
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        for i in range(5):
            db.insert_rows("t", [(i,)])
        db.faults = FaultPlan([_crash_spec("wal.append")], seed=0)
        with pytest.raises(SimulatedCrash):
            db.insert_rows("t", [(99,)])
        recovered = open_durable(root)
        # The batch threshold (100) was never reached, so nothing was
        # fsynced: recovery lands on the empty bootstrap prefix — an
        # honest loss window, never a torn middle.
        assert database_fingerprint(recovered) == empty
        assert recovered.durability.recovery_replayed_records == 0
        recovered.close()

    @pytest.mark.parametrize("torn_bytes", [1, 9, 40])
    def test_torn_write_is_truncated(self, root, torn_bytes):
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.insert_rows("t", [(1,)])
        expected = database_fingerprint(db)
        db.faults = FaultPlan(
            [_crash_spec("wal.append", torn_bytes=torn_bytes)], seed=0
        )
        with pytest.raises(SimulatedCrash):
            db.insert_rows("t", [(2,)])
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        assert recovered.durability.recovery_truncated_bytes == torn_bytes
        recovered.close()

    def test_fsync_site_crash(self, root):
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        expected = database_fingerprint(db)
        db.faults = FaultPlan([_crash_spec("wal.fsync")], seed=0)
        with pytest.raises(SimulatedCrash):
            db.insert_rows("t", [(1,)])
        # The record was appended but never fsynced — it is lost.
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        recovered.close()

    @pytest.mark.parametrize("stage_hits", [0, 1])
    def test_checkpoint_crash_is_atomic(self, root, stage_hits):
        """Dying at either checkpoint stage (snapshot write or manifest
        swap) leaves the OLD checkpoint authoritative."""
        db = open_durable(root, fsync_mode="always")
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.insert_rows("t", [(1,), (2,)])
        expected = database_fingerprint(db)
        db.faults = FaultPlan(
            [_crash_spec("checkpoint.write", at_record=stage_hits)], seed=0
        )
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        recovered = open_durable(root)
        assert database_fingerprint(recovered) == expected
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["checkpoint"] == "checkpoint-000000"
        # Recovery garbage-collected any half-written snapshot dir.
        assert sorted(
            p.name for p in root.iterdir() if p.name.startswith("checkpoint")
        ) == ["checkpoint-000000"]
        recovered.close()

    def test_registry_and_promotion_survive_crash(self, root):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        db = open_durable(root, fsync_mode="always")
        registry = ModelRegistry(db)
        registry.register("churn", KMeansModel.fit_matrix(X, 2, seed=1))
        registry.register("churn", KMeansModel.fit_matrix(X, 3, seed=2))
        registry.promote("churn", 2)
        db.faults = FaultPlan([_crash_spec("wal.append")], seed=0)
        with pytest.raises(SimulatedCrash):
            db.execute("CREATE TABLE junk (id INTEGER)")
        recovered = open_durable(root)
        recovered_registry = ModelRegistry(recovered)
        versions = recovered_registry.list("churn")  # newest first
        assert [v.version for v in versions] == [2, 1]
        assert [v.promoted for v in versions] == [True, False]
        # The promoted binding actually serves: components are intact.
        model = recovered_registry.get("churn")
        assert model.version == 2
        for table in versions[0].tables:
            assert recovered.catalog.has_table(table)
        scores = model.score_rows(X[:5])
        assert len(scores) == 5
        recovered.close()
