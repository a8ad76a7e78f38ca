"""``keyed_fold``: the one way rows are split by key.

GROUP BY's block path, the fused k-means kernel and the factorized star
fact side all hand :func:`repro.dbms.blocks.keyed_fold` per-row integer
codes.  The properties here hold it to a dict-split reference (the row
loop every caller used to run): keys in first-appearance order, each
key's rows in scan order, and segment sums with the row loop's bits.
Above it, the block path's GROUP BY keys (NULL, ``-0.0``/``0.0``,
integer keys, an empty block) must be the row path's, and the star's
fact side must keep a stored NaN fact value a value for every FK type
the planner admits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fused import register_fused_udfs
from repro.core.nlq_udf import register_nlq_udfs
from repro.dbms.blocks import ScanBlock, key_codes, keyed_fold, take_rows
from repro.dbms.database import Database
from repro.dbms.schema import Column, TableSchema
from repro.dbms.storage import BlockCacheStats
from repro.dbms.types import SqlType

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1e16, 1.0, -1.0]
)


def _dict_split(codes: "list[int]") -> "dict[int, list[int]]":
    """The reference: each key's row positions, keys in first-seen order."""
    split: "dict[int, list[int]]" = {}
    for position, code in enumerate(codes):
        split.setdefault(code, []).append(position)
    return split


def _same_bits(left: np.ndarray, right: np.ndarray) -> bool:
    """Equal floats with equal signs of zero; a NaN matches a NaN."""
    return np.array_equal(left, right, equal_nan=True) and np.array_equal(
        np.signbit(left) | np.isnan(left), np.signbit(right) | np.isnan(right)
    )


@settings(**_SETTINGS)
@given(
    codes=st.lists(st.integers(0, 6), max_size=60),
    width=st.integers(1, 3),
    data=st.data(),
)
def test_keyed_fold_matches_a_dict_split(codes, width, data):
    values = data.draw(
        st.lists(_FLOATS, min_size=len(codes) * width, max_size=len(codes) * width)
    )
    rows = np.array(values, dtype=float).reshape(len(codes), width)
    split = _dict_split(codes)
    array = np.array(codes, dtype=np.intp)

    firsts, segments = keyed_fold(array, rows, lambda segment: segment.copy())
    assert [codes[first] for first in firsts.tolist()] == list(split)
    assert firsts.tolist() == [positions[0] for positions in split.values()]
    for segment, positions in zip(segments, split.values()):
        assert segment.flags.c_contiguous
        assert _same_bits(segment, rows[positions])

    block = ScanBlock(np.asfortranarray(rows), BlockCacheStats())
    _, lane_segments = keyed_fold(
        array, block, lambda segment: segment.array, lane_major=True
    )
    for segment, positions in zip(lane_segments, split.values()):
        assert segment.flags.f_contiguous
        assert _same_bits(segment, take_rows(block.array, np.array(positions)))

    # Without a kernel: each key's sum, added row by row from 0.0.
    _, sums = keyed_fold(array, rows)
    assert sums.shape == (len(split), width)
    for total, positions in zip(sums, split.values()):
        expected = [0.0] * width
        for position in positions:
            for lane in range(width):
                expected[lane] += float(rows[position, lane])
        assert _same_bits(total, np.array(expected))


@settings(**_SETTINGS)
@given(
    columns=st.lists(
        st.lists(
            st.sampled_from([math.nan, -0.0, 0.0, 1.0, 2.5, -3.0]),
            min_size=12,
            max_size=12,
        ),
        min_size=1,
        max_size=3,
    )
)
def test_key_codes_equal_exactly_when_every_key_is(columns):
    codes = key_codes([np.array(column) for column in columns]).tolist()

    def key(row: int) -> tuple:
        # NaN (NULL) is one key; -0.0 == 0.0 already.
        return tuple(
            None if column[row] != column[row] else column[row]
            for column in columns
        )

    for a in range(12):
        for b in range(12):
            assert (codes[a] == codes[b]) == (key(a) == key(b))


def test_keyed_fold_of_no_rows():
    firsts, folded = keyed_fold(np.zeros(0, np.intp), np.zeros((0, 2)), len)
    assert firsts.tolist() == [] and folded == []
    firsts, sums = keyed_fold(np.zeros(0, np.intp), np.zeros((0, 2)))
    assert sums.shape == (0, 2)


# ----------------------------------------------------------- GROUP BY keys
_KEYS = st.sampled_from([None, -0.0, 0.0, 1.0, 2.5, -4.0])


@settings(**_SETTINGS)
@given(
    rows=st.lists(
        st.tuples(_KEYS, st.sampled_from([None, 0, 1, -7, 3])),
        max_size=40,
    ),
    all_null=st.booleans(),
)
def test_block_path_group_keys_are_the_row_path_keys(rows, all_null):
    """The block path (no WHERE) against the row path (an always-true
    WHERE), whose per-row dict split is the reference: the same groups
    in the same first-appearance order, the same key values and types
    (an INTEGER key is an ``int``, ``-0.0`` keys a group when seen
    first, NULL is one group), the same counts."""
    db = Database(amps=4)
    db.execute(
        "CREATE TABLE t (i INTEGER PRIMARY KEY, k FLOAT, g INTEGER, v FLOAT)"
    )
    db.insert_rows(
        "t",
        [
            (i, None if all_null else k, g, float(i))
            for i, (k, g) in enumerate(rows)
        ],
    )
    for keys in ("k", "g", "k, g", "g + 1"):
        sql = f"SELECT {keys}, count(*), sum(v) FROM t"
        block = db.execute(f"{sql} GROUP BY {keys}").rows
        row = db.execute(f"{sql} WHERE v > -1 GROUP BY {keys}").rows
        assert repr(block) == repr(row), keys


@pytest.mark.parametrize("where", ["", "WHERE v > 0"], ids=["block", "row"])
def test_nan_group_key_is_the_null_group_on_both_routes(where):
    """A stored NaN key and a NULL key are one group on the block path
    and on the row path alike (SQLite stores NaN as NULL)."""
    db = Database(amps=4)
    db.execute("CREATE TABLE t (i INTEGER PRIMARY KEY, k FLOAT, v FLOAT)")
    db.insert_rows(
        "t",
        [
            (1, -0.0, 1.0),
            (2, 0.0, 2.0),
            (3, None, 3.0),
            (4, 1.0, 4.0),
            (5, math.nan, 5.0),
            (6, -0.0, 6.0),
        ],
    )
    rows = db.execute(f"SELECT k, count(*), sum(v) FROM t {where} GROUP BY k").rows
    by_key = {key: (count, total) for key, count, total in rows}
    assert by_key[None] == (2, 8.0)
    assert by_key[0.0] == (3, 9.0)
    assert by_key[1.0] == (1, 4.0)
    assert len(rows) == 3
    assert not any(isinstance(key, float) and key != key for key, *_ in rows)


# -------------------------------------------------------------- star facts
#: case -> (PK type, FK type, key j's PK value, key j's FK value)
_FK_TYPES = {
    "INTEGER": (SqlType.INTEGER, SqlType.INTEGER, int, int),
    "FLOAT": (SqlType.INTEGER, SqlType.FLOAT, int, float),
    "FLOAT_PK": (SqlType.FLOAT, SqlType.FLOAT, lambda j: j + 0.5, lambda j: j + 0.5),
    "VARCHAR": (SqlType.VARCHAR, SqlType.VARCHAR, "k{}".format, "k{}".format),
}
_FK = st.one_of(st.integers(0, 5), st.sampled_from(["null", "nan", "dangling"]))
_FACT = st.one_of(
    st.integers(-9, 9).map(float), st.sampled_from([None, math.nan])
)


def _star_db(fk_type: str, facts, dims) -> Database:
    pk_sql, fk_sql, pk, fk = _FK_TYPES[fk_type]
    db = Database(amps=4)
    db.create_table(
        "d",
        TableSchema.build(
            [Column("dk", pk_sql, nullable=False), ("w", SqlType.FLOAT)],
            primary_key="dk",
        ),
    )
    db.create_table(
        "f",
        TableSchema.build(
            [
                Column("i", SqlType.INTEGER, nullable=False),
                Column("fk", fk_sql),
                ("x", SqlType.FLOAT),
                ("y", SqlType.INTEGER),
            ],
            primary_key="i",
        ),
    )
    db.insert_rows("d", [(pk(j), w) for j, w in enumerate(dims)])

    def foreign(value):
        if value == "null":
            return None
        if value == "nan":
            return math.nan if fk_sql is SqlType.FLOAT else None
        if value == "dangling":
            return fk(99)
        return fk(value)

    db.insert_rows(
        "f",
        [
            (i, foreign(key), x, None if x is None or x != x else int(x))
            for i, (key, x) in enumerate(facts)
        ],
    )
    register_nlq_udfs(db)
    fused = register_fused_udfs(db)
    fused["kmeansiter"].set_centroids(
        np.array([[-4.5, -2.5, 0.5], [3.5, 1.5, 4.5]])
    )
    return db


@pytest.mark.parametrize("fk_type", list(_FK_TYPES))
@settings(**_SETTINGS)
@given(
    facts=st.lists(st.tuples(_FK, _FACT), max_size=30),
    dims=st.lists(
        st.one_of(st.integers(-5, 5).map(float), st.none()),
        min_size=6,
        max_size=6,
    ),
)
def test_star_fact_side_matches_the_join(fk_type, facts, dims):
    """Factorized against the materialized join, on integer-valued data
    (every sum exact, every distance tie broken alike), so the payloads
    must be equal strings: a stored NaN fact value poisons the sums on
    both routes, a NULL one drops its row, and NULL, NaN and dangling
    FKs join nothing."""
    statements = [
        "SELECT nlq_tri(3, f.x, d.w, f.y) FROM f JOIN d ON f.fk = d.dk",
        "SELECT nlq_diag(3, f.x, d.w, 2) FROM f JOIN d ON f.fk = d.dk",
        "SELECT kmeansiter(3, f.x, d.w, f.y) FROM f JOIN d ON f.fk = d.dk",
    ]
    with _star_db(fk_type, facts, dims) as db:
        for sql in statements:
            factorized = db.execute(sql).rows
            assert db.last_factorize_decision.factorized, sql
            db.factorized_joins_enabled = False
            joined = db.execute(sql).rows
            db.factorized_joins_enabled = True
            assert repr(factorized) == repr(joined), sql
