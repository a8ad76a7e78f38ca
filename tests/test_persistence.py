"""Database save/load round trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dbms.database import Database
from repro.dbms.persistence import load_database, save_database
from repro.errors import ExportError


@pytest.fixture
def populated(db: Database) -> Database:
    db.execute(
        "CREATE TABLE x (i INTEGER PRIMARY KEY, v FLOAT, tag VARCHAR)"
    )
    db.execute(
        "INSERT INTO x VALUES (1, 1.5, 'a'), (2, NULL, ''), (3, -2.25, NULL)"
    )
    db.execute("CREATE VIEW positive AS SELECT i, v FROM x WHERE v > 0")
    return db


class TestRoundTrip:
    def test_rows_and_types(self, populated, tmp_path):
        save_database(populated, tmp_path / "snap")
        restored = load_database(tmp_path / "snap", amps=4)
        rows = sorted(restored.execute("SELECT * FROM x").rows)
        assert rows == [(1, 1.5, "a"), (2, None, ""), (3, -2.25, None)]
        # Types survived: INTEGER stays int, FLOAT stays float.
        assert isinstance(rows[0][0], int)
        assert isinstance(rows[0][1], float)

    def test_null_vs_empty_string(self, populated, tmp_path):
        save_database(populated, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        values = {
            row[0]: row[1]
            for row in restored.execute("SELECT i, tag FROM x").rows
        }
        assert values[2] == "" and values[3] is None

    def test_primary_key_restored(self, populated, tmp_path):
        save_database(populated, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        from repro.errors import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            restored.execute("INSERT INTO x VALUES (1, 0.0, 'dup')")

    def test_views_restored(self, populated, tmp_path):
        save_database(populated, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.execute("SELECT count(*) FROM positive").scalar() == 1

    def test_row_scale_restored(self, tmp_path):
        db = Database(amps=3)
        from repro.dbms.schema import dataset_schema

        db.create_table("scaled", dataset_schema(2), row_scale=50.0)
        db.insert_rows("scaled", [(1, 0.0, 0.0)])
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.table("scaled").row_scale == 50.0
        assert restored.table("scaled").nominal_rows == 50.0

    def test_model_tables_round_trip(self, tmp_path):
        """The paper's workflow artifact: stored models survive."""
        from repro.core.models.base import load_vector, store_vector

        db = Database(amps=2)
        store_vector(db, "beta", np.asarray([1.0, -2.0]), ["b0", "b1"])
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert np.array_equal(load_vector(restored, "beta"), [1.0, -2.0])

    def test_summaries_identical_after_reload(self, tmp_path):
        from repro.core.nlq_udf import compute_nlq_udf, register_nlq_udfs
        from repro.dbms.schema import dataset_schema, dimension_names

        rng = np.random.default_rng(3)
        db = Database(amps=3)
        db.create_table("x", dataset_schema(3))
        db.load_columns(
            "x",
            {
                "i": np.arange(1, 41),
                "x1": rng.normal(size=40),
                "x2": rng.normal(size=40),
                "x3": rng.normal(size=40),
            },
        )
        register_nlq_udfs(db)
        before = compute_nlq_udf(db, "x", dimension_names(3))
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        register_nlq_udfs(restored)  # UDFs are code: re-register
        after = compute_nlq_udf(restored, "x", dimension_names(3))
        assert before.allclose(after, rtol=1e-12)

    def test_chunked_write_keeps_scan_order_and_layout(
        self, tmp_path, monkeypatch
    ):
        """The writer reads each partition a few rows at a time; the
        file still lists every row once, in scan order, so it restores
        into the same partition layout (a row's partition follows its
        key, its place in the partition the file's order)."""
        from repro.dbms import persistence

        monkeypatch.setattr(persistence, "_CHUNK_ROWS", 7)
        db = Database(amps=3)
        db.execute(
            "CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT, s VARCHAR)"
        )
        db.insert_rows("t", [
            (i, None if i % 5 == 0 else i / 4,
             None if i % 3 == 0 else f"s{i % 4}")
            for i in range(100)
        ])
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap", amps=3)

        def layout(database):
            return [
                list(partition.rows())
                for partition in database.table("t").partitions
            ]

        assert layout(restored) == layout(db)


def _boundary_rows(count: int) -> list[tuple]:
    """*count* rows holding NULLs, -0.0, NaN, INTEGERs past 2**53 and
    VARCHARs the CSV must escape."""
    texts = ["\\N", "a\\b", 'quote"d, comma', "line\nbreak", "", None]
    return [
        (
            2**53 + 3 * j,
            None if j % 7 == 0 else (-1) ** j * (2**53 + j),
            None if j % 5 == 0 else -0.0 if j % 11 == 0
            else float("nan") if j % 13 == 0 else j / 3.0,
            texts[j % len(texts)] if j % 2 else f"t{j % 9}",
        )
        for j in range(count)
    ]


class TestChunkedRestore:
    """A checkpoint CSV goes back ``_CHUNK_ROWS`` rows at a time; at
    every chunk boundary the restore equals a one-chunk restore."""

    SIZES = (0, 4_095, 4_096, 4_097, 3 * 4_096 + 1)

    def test_chunk_boundaries_restore_like_one_chunk(
        self, tmp_path, monkeypatch
    ):
        from repro.dbms import persistence
        from repro.dbms.persistence import database_fingerprint

        assert persistence._CHUNK_ROWS == 4_096
        db = Database(amps=3)
        for count in self.SIZES:
            for kind, key in (("keyed", " PRIMARY KEY"), ("heap", "")):
                db.execute(
                    f"CREATE TABLE {kind}{count} (i INTEGER{key}, "
                    "n INTEGER, v FLOAT, s VARCHAR)"
                )
                db.insert_rows(f"{kind}{count}", _boundary_rows(count))
        save_database(db, tmp_path / "snap")
        expected = database_fingerprint(db)
        chunked = load_database(tmp_path / "snap", amps=3)
        monkeypatch.setattr(persistence, "_CHUNK_ROWS", 10**9)
        whole = load_database(tmp_path / "snap", amps=3)

        def layout(database, name):
            table = database.table(name)
            return table._next_partition, [
                [tuple(map(repr, row)) for row in partition.rows()]
                for partition in table.partitions
            ]

        for name in db.catalog.table_names():
            assert layout(chunked, name) == layout(whole, name), name
        assert database_fingerprint(chunked) == expected
        assert database_fingerprint(whole) == expected
        heap = chunked.table(f"heap{3 * 4_096 + 1}")
        assert heap._next_partition == (3 * 4_096 + 1) % 3


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ExportError):
            load_database(tmp_path / "nope")

    def test_malformed_catalog(self, tmp_path):
        root = tmp_path / "snap"
        root.mkdir()
        (root / "catalog.json").write_text("{not json")
        with pytest.raises(ExportError, match="malformed"):
            load_database(root)

    def test_version_mismatch(self, tmp_path):
        root = tmp_path / "snap"
        root.mkdir()
        (root / "catalog.json").write_text('{"version": 99}')
        with pytest.raises(ExportError, match="version"):
            load_database(root)

    def test_header_mismatch(self, populated, tmp_path):
        root = save_database(populated, tmp_path / "snap")
        csv_path = root / "tables" / "x.csv"
        lines = csv_path.read_text().splitlines()
        lines[0] = "wrong,header,names"
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExportError, match="header"):
            load_database(root)


class TestAtomicSave:
    def test_no_temp_leftovers(self, populated, tmp_path):
        root = save_database(populated, tmp_path / "snap")
        leftovers = [
            p for p in root.rglob("*") if p.name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_resave_deletes_orphan_csvs(self, populated, tmp_path):
        root = save_database(populated, tmp_path / "snap")
        assert (root / "tables" / "x.csv").exists()
        populated.execute("CREATE TABLE extra (id INTEGER)")
        save_database(populated, root)
        assert (root / "tables" / "extra.csv").exists()
        populated.execute("DROP TABLE extra")
        save_database(populated, root)
        # The dropped table's CSV cannot resurrect on inspection.
        assert not (root / "tables" / "extra.csv").exists()
        restored = load_database(root)
        assert restored.catalog.table_names() == ["x"]

    def test_resave_overwrites_in_place(self, populated, tmp_path):
        root = save_database(populated, tmp_path / "snap")
        populated.execute("UPDATE x SET v = 9.5 WHERE i = 1")
        save_database(populated, root)
        restored = load_database(root)
        assert restored.execute(
            "SELECT v FROM x WHERE i = 1"
        ).scalar() == 9.5

    def test_stray_files_in_tables_dir_are_cleaned(self, populated, tmp_path):
        root = save_database(populated, tmp_path / "snap")
        stray = root / "tables" / "x.csv.tmp"
        stray.write_text("half a write from a crashed save")
        save_database(populated, root)
        assert not stray.exists()

    def test_fsync_save_round_trips(self, populated, tmp_path):
        root = save_database(populated, tmp_path / "snap", fsync=True)
        restored = load_database(root)
        assert sorted(restored.execute("SELECT * FROM x").rows) == sorted(
            populated.execute("SELECT * FROM x").rows
        )


class TestRoundTripFidelity:
    """Exact CSV round-trip for every storable value shape.

    Format v1 could not tell a literal ``\\N`` string from NULL; v2
    escapes backslashes on write, so the decode is injective.
    """

    def _round_trip(self, rows, tmp_path, types="(i INTEGER PRIMARY KEY, v FLOAT, s VARCHAR)"):
        db = Database(amps=3)
        db.execute(f"CREATE TABLE t {types}")
        db.insert_rows("t", rows)
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        return sorted(restored.table("t").rows())

    def test_literal_backslash_n_string_is_not_null(self, tmp_path):
        rows = [(1, 0.0, "\\N"), (2, 1.0, None), (3, 2.0, "\\\\N")]
        assert self._round_trip(rows, tmp_path) == sorted(rows)

    def test_empty_string_vs_null(self, tmp_path):
        rows = [(1, None, ""), (2, 0.5, None)]
        assert self._round_trip(rows, tmp_path) == sorted(rows)

    def test_newlines_quotes_and_separators_in_strings(self, tmp_path):
        rows = [
            (1, 0.0, "a,b\nc"),
            (2, 0.0, 'say "hi"'),
            (3, 0.0, "tab\there"),
            (4, 0.0, "\r\nwindows"),
        ]
        assert self._round_trip(rows, tmp_path) == sorted(rows)

    def test_extreme_floats_bit_exact(self, tmp_path):
        values = [
            0.1,
            1.0 / 3.0,
            -0.0,
            5e-324,          # smallest subnormal
            1.7976931348623157e308,
            float("inf"),
            float("-inf"),
            2.0 ** -1022,
        ]
        rows = [(i, v, "x") for i, v in enumerate(values)]
        out = self._round_trip(rows, tmp_path)
        assert [repr(r[1]) for r in out] == [
            repr(r[1]) for r in sorted(rows)
        ]

    def test_nan_round_trips(self, tmp_path):
        out = self._round_trip([(1, float("nan"), "x")], tmp_path)
        assert len(out) == 1 and np.isnan(out[0][1])

    def test_large_integers(self, tmp_path):
        rows = [
            (2**63 - 1, 0.0, "big"),
            (-(2**63), 0.0, "small"),
            (10**30, 0.0, "beyond word size"),
        ]
        out = self._round_trip(rows, tmp_path)
        assert out == sorted(rows)
        assert all(isinstance(r[0], int) for r in out)

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        # Each example builds a fresh Database and atomically overwrites
        # the same snapshot dir, so fixture reuse is sound.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=-(10**12), max_value=10**12),
                st.one_of(
                    st.none(),
                    st.floats(allow_nan=False, width=64),
                ),
                st.one_of(
                    st.none(),
                    st.text(
                        alphabet=st.characters(
                            blacklist_categories=("Cs",), min_codepoint=1
                        ),
                        max_size=24,
                    ),
                ),
            ),
            unique_by=lambda r: r[0],
            max_size=12,
        )
    )
    def test_generated_rows_round_trip_exactly(self, rows, tmp_path):
        db = Database(amps=2)
        db.execute(
            "CREATE TABLE t (i INTEGER PRIMARY KEY, v FLOAT, s VARCHAR)"
        )
        db.insert_rows("t", rows)
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        original = sorted(
            (r[0], repr(r[1]), r[2]) for r in db.table("t").rows()
        )
        recovered = sorted(
            (r[0], repr(r[1]), r[2]) for r in restored.table("t").rows()
        )
        assert recovered == original

    def test_v1_snapshot_still_loads(self, tmp_path):
        """A pre-escaping snapshot (version 1) loads unchanged — its
        fields were written raw, so no unescaping is applied."""
        import json

        root = tmp_path / "v1"
        (root / "tables").mkdir(parents=True)
        (root / "catalog.json").write_text(
            json.dumps(
                {
                    "version": 1,
                    "tables": [
                        {
                            "name": "t",
                            "columns": [
                                {
                                    "name": "i",
                                    "type": "INTEGER",
                                    "nullable": False,
                                },
                                {
                                    "name": "s",
                                    "type": "VARCHAR",
                                    "nullable": True,
                                },
                            ],
                            "primary_key": "i",
                            "partitions": 2,
                            "row_scale": 1.0,
                        }
                    ],
                    "views": [],
                }
            )
        )
        (root / "tables" / "t.csv").write_text(
            'i,s\r\n1,\\N\r\n2,a\\b\r\n'
        )
        restored = load_database(root)
        rows = sorted(restored.table("t").rows())
        # v1 semantics: \N is NULL, and a raw backslash stays raw.
        assert rows == [(1, None), (2, "a\\b")]
