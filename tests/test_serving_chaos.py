"""Serving chaos: snapshot isolation under concurrent writers.

The contract every scenario asserts:

* **No torn reads** — every row a session ever observes satisfies the
  dataset invariant (``x_a == id·10 + a``), so a read can never see a
  half-written row, under any thread interleaving.
* **Snapshot consistency** — every read in a session answers against
  the row set pinned at first touch: repeated reads are identical,
  scoring over the snapshot matches the model applied to that exact
  pinned matrix, and the pinned count brackets between the rows
  committed before the session opened and the rows committed at check
  time (stale-but-consistent is allowed; torn is not).
* **Typed failure** — a destructive mutation (DELETE, which truncates)
  surfaces as :class:`~repro.errors.SnapshotInvalidatedError`; armed
  fault sites surface as :class:`~repro.errors.FaultInjected`; nothing
  ever raises untyped or returns silently wrong values.

``CHAOS_SEED`` (env) offsets the parametrized seeds and the fault
plans' probability draws; ``CHAOS_WORKERS`` (default 4) sets the
engine's thread count; ``SERVING_CHAOS_CLIENTS`` (default 6) sets the
concurrent reader/scorer count — the CI serving job runs 2 seeds at 16
clients.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.models.regression import LinearRegressionModel
from repro.core.summary import AugmentedSummary
from repro.dbms.database import Database
from repro.dbms.faults import FaultPlan, FaultSpec
from repro.dbms.schema import dataset_schema
from repro.errors import (
    FaultInjected,
    ReproError,
    ServingClosedError,
    SnapshotInvalidatedError,
)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
CHAOS_WORKERS = int(os.environ.get("CHAOS_WORKERS", "4"))
CLIENTS = int(os.environ.get("SERVING_CHAOS_CLIENTS", "6"))

D = 3
SEEDS = [CHAOS_SEED, CHAOS_SEED + 1, CHAOS_SEED + 2]


def _row(identity: int) -> tuple:
    """The invariant row: x_a = id·10 + a, exact in a double."""
    return (identity, *(float(identity * 10 + a) for a in range(1, D + 1)))


def _check_invariant(matrix: np.ndarray) -> None:
    """Every observed row must be internally consistent — the torn-read
    detector.  ``matrix`` columns are (i, x1..xd)."""
    ids = matrix[:, 0]
    for a in range(1, D + 1):
        np.testing.assert_array_equal(
            matrix[:, a], ids * 10 + a, err_msg=f"torn read in x{a}"
        )


def _reference_model() -> LinearRegressionModel:
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, D))
    y = X @ np.array([2.0, -1.0, 0.5]) + 1.0
    return LinearRegressionModel.from_summary(AugmentedSummary.from_xy(X, y))


@pytest.fixture(params=SEEDS)
def seed(request) -> int:
    return request.param


@pytest.fixture
def serving(seed):
    db = Database(amps=4, executor_workers=CHAOS_WORKERS)
    db.create_table("pts", dataset_schema(D))
    server = db.serve(max_wait_ms=1.0)
    server.registry.register("m", _reference_model())
    server.insert_rows("pts", [_row(i) for i in range(64)])
    yield db, server, seed
    server.close()
    db.close()


COLUMNS = ["i", "x1", "x2", "x3"]
DIMS = ["x1", "x2", "x3"]


def _run_clients(target, count=CLIENTS):
    errors: list[BaseException] = []

    def wrapped(index):
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 - collected and re-raised
            errors.append(error)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "client thread hung"
    if errors:
        raise errors[0]


def test_snapshot_reads_consistent_under_concurrent_appends(serving):
    db, server, seed = serving
    model = server.registry.get("m")
    next_id = [64]
    stop = threading.Event()
    committed_lock = threading.Lock()

    def writer():
        rng = np.random.default_rng(seed)
        while not stop.is_set():
            with committed_lock:
                start = next_id[0]
                batch = int(rng.integers(1, 9))
                next_id[0] = start + batch
            server.insert_rows(
                "pts", [_row(i) for i in range(start, start + batch)]
            )

    def reader(index):
        with server.session() as session:
            committed_before = sum(
                p.row_count for p in db.table("pts").partitions
            )
            snapshot = session.snapshot("pts")
            matrix = snapshot.numeric_matrix(COLUMNS)
            # Pinned row set: complete, consistent, and bracketed.
            assert matrix.shape[0] == snapshot.row_count
            assert committed_before <= snapshot.row_count
            assert snapshot.row_count <= sum(
                p.row_count for p in db.table("pts").partitions
            )
            _check_invariant(matrix)
            # Repeated reads answer identically (same pinned prefix).
            np.testing.assert_array_equal(
                matrix, snapshot.numeric_matrix(COLUMNS)
            )
            # Scoring over the snapshot equals the model applied to the
            # exact pinned matrix — bit-identical kernels.
            scored = session.score_table("m", "pts", DIMS)
            assert scored.values == model.finalize_scores(
                model.score_batch(matrix[:, 1:])
            )
            assert len(scored.values) == snapshot.row_count

    writers = [threading.Thread(target=writer) for _ in range(2)]
    for thread in writers:
        thread.start()
    try:
        _run_clients(reader)
    finally:
        stop.set()
        for thread in writers:
            thread.join(timeout=30.0)
    assert not any(t.is_alive() for t in writers)
    final = db.table("pts").numeric_matrix(COLUMNS)
    assert final.shape[0] == next_id[0]
    _check_invariant(final)


def test_snapshot_pins_survive_insert_rollbacks(serving):
    """Flaky ``insert.flush`` faults roll whole batches back mid-run;
    pinned prefixes must never include a retracted row."""
    db, server, seed = serving
    db.faults = FaultPlan(
        [
            FaultSpec(
                site="insert.flush", kind="flaky", times=3, probability=0.5
            )
        ],
        seed=seed,
    )
    next_id = [64]
    stop = threading.Event()
    lock = threading.Lock()

    def writer():
        rng = np.random.default_rng(seed + 100)
        while not stop.is_set():
            with lock:
                start = next_id[0]
                batch = int(rng.integers(2, 12))
                next_id[0] = start + batch
            try:
                server.insert_rows(
                    "pts", [_row(i) for i in range(start, start + batch)]
                )
            except ReproError:
                pass  # typed rollback: the whole batch was retracted

    def reader(index):
        with server.session() as session:
            snapshot = session.snapshot("pts")
            matrix = snapshot.numeric_matrix(COLUMNS)
            assert matrix.shape[0] == snapshot.row_count
            _check_invariant(matrix)
            # Ids are unique — a rollback that left a half-flushed batch
            # visible would duplicate or orphan ids.
            ids = matrix[:, 0].astype(int)
            assert len(set(ids.tolist())) == len(ids)

    writers = [threading.Thread(target=writer) for _ in range(2)]
    for thread in writers:
        thread.start()
    try:
        _run_clients(reader)
    finally:
        stop.set()
        for thread in writers:
            thread.join(timeout=30.0)
    db.faults = None
    _check_invariant(db.table("pts").numeric_matrix(COLUMNS))


def test_truncate_surfaces_typed_invalidation(serving):
    """Readers racing a destructive DELETE either answer consistently
    from their pin or raise SnapshotInvalidatedError — never wrong rows."""
    db, server, seed = serving
    outcomes = {"consistent": 0, "invalidated": 0}
    outcomes_lock = threading.Lock()
    start_gate = threading.Event()

    def reader(index):
        with server.session() as session:
            snapshot = session.snapshot("pts")
            start_gate.wait(10.0)
            try:
                for _ in range(50):
                    matrix = snapshot.numeric_matrix(COLUMNS)
                    assert matrix.shape[0] == snapshot.row_count
                    _check_invariant(matrix)
                with outcomes_lock:
                    outcomes["consistent"] += 1
            except SnapshotInvalidatedError:
                with outcomes_lock:
                    outcomes["invalidated"] += 1

    def destroyer():
        start_gate.set()
        server.write("DELETE FROM pts")
        server.insert_rows("pts", [_row(i) for i in range(10)])

    writer = threading.Thread(target=destroyer)
    writer.start()
    _run_clients(reader)
    writer.join(timeout=30.0)
    assert sum(outcomes.values()) == CLIENTS
    # After the truncate every *new* session sees the new 10 rows.
    with server.session() as session:
        matrix = session.snapshot("pts").numeric_matrix(COLUMNS)
    assert matrix.shape[0] == 10
    _check_invariant(matrix)


def test_micro_batched_scores_exact_under_flaky_flush(serving):
    """Coalesced scoring under armed serving fault sites: every answered
    request is bit-identical to the per-row reference; every failure is
    typed."""
    db, server, seed = serving
    model = server.registry.get("m")
    rng = np.random.default_rng(seed + 7)
    points = rng.normal(size=(CLIENTS * 8, D))
    # Reference BEFORE arming faults: per-row path, the kernels'
    # bit-identical contract makes it the batched answer too.
    expected = model.score_rows(np.asarray(points, dtype=float))
    db.faults = FaultPlan(
        [
            FaultSpec(
                site="serving.flush", kind="flaky", times=2, probability=0.5
            ),
            FaultSpec(site="serving.enqueue", kind="error", probability=0.2),
        ],
        seed=seed,
    )

    def client(index):
        with server.session() as session:
            for shot in range(8):
                position = index * 8 + shot
                try:
                    result = session.score("m", points[position])
                except (FaultInjected, ServingClosedError):
                    continue  # typed rejection; request never admitted
                assert result.values == [expected[position]], (
                    f"request {position} answered wrong"
                )

    _run_clients(client)
    db.faults = None
    assert server.metrics.requests_failed == 0


# ------------------------------------------------------- typed lane races
HUGE_EVERY = 10
LANE_STEPS = 120
PRELOAD = 4_000
REREADS = 10


def _lane_row(key: int, huge: bool) -> tuple:
    """``ev(k, n, tag, v)``: every value a function of ``k``; a fresh
    tag per key (a new dictionary entry), NULLs in ``n`` and ``tag``,
    and with *huge* every 10th ``n`` beyond int64."""
    if key % 11 == 0:
        n = None
    elif huge and key % HUGE_EVERY == 0:
        n = 2**70 + key
    else:
        n = 3 * key
    tag = None if key % 7 == 0 else f"tag-{key}"
    return (key, n, tag, key / 4.0)


def _check_lane_rows(rows: list) -> None:
    for key, n, tag, v in rows:
        assert n in (None, 3 * key, 2**70 + key), f"torn n at k={key}"
        assert n is None or type(n) is int
        assert tag == (None if key % 7 == 0 else f"tag-{key}"), key
        assert v == key / 4.0, f"torn v at k={key}"


def test_pinned_prefix_survives_dictionary_growth_and_int_demotion(seed):
    """Writers append rows that add VARCHAR dictionary entries and, part
    way through, ints beyond int64 that demote every partition's
    ``IntLane`` to objects; each reader keeps re-reading exactly the
    prefix its serving snapshot pinned, on the row and the block path."""
    db = Database(amps=8, executor_workers=CHAOS_WORKERS)
    db.execute(
        "CREATE TABLE ev (k INTEGER PRIMARY KEY, n INTEGER, tag VARCHAR, "
        "v FLOAT)"
    )
    server = db.serve(max_sessions=CLIENTS + 2)
    # Long lanes make each demotion's copy a window worth racing for.
    server.insert_rows("ev", [_lane_row(k, False) for k in range(PRELOAD)])
    next_key = [PRELOAD]
    key_lock = threading.Lock()
    done = threading.Event()
    reads = [0] * CLIENTS

    def writer(offset: int) -> None:
        rng = np.random.default_rng(seed + offset)
        for step in range(LANE_STEPS):
            # Paced by the slowest reader, so pins overlap the demotion.
            while min(reads) < step // 10 and not done.is_set():
                time.sleep(0.0005)
            with key_lock:
                start = next_key[0]
                next_key[0] = start + int(rng.integers(1, 10))
                stop = next_key[0]
            huge = step >= LANE_STEPS // 3
            server.insert_rows(
                "ev", [_lane_row(k, huge) for k in range(start, stop)]
            )

    def reader(index: int) -> None:
        while not done.is_set():
            with server.session() as session:
                snapshot = session.snapshot("ev")
                pinned = list(snapshot.rows())
                assert len(pinned) == snapshot.row_count
                _check_lane_rows(pinned)
                matrix = snapshot.numeric_matrix(["k", "n", "v"])
                expected = np.asarray(
                    [[k, np.nan if n is None else n, v] for k, n, _, v in pinned],
                    dtype=float,
                ).reshape(len(pinned), 3)
                assert matrix.tobytes() == expected.tobytes()
                # The lanes that demote and grow, re-read while writers
                # keep appending.
                pinned_n = [row[1] for row in pinned]
                pinned_tags = [row[2] for row in pinned]
                for _ in range(REREADS):
                    assert snapshot.column_values("n") == pinned_n
                    assert snapshot.column_values("tag") == pinned_tags
                assert list(snapshot.rows()) == pinned
            reads[index] += 1

    writers = [threading.Thread(target=writer, args=(w,)) for w in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    for thread in writers:
        thread.start()
    try:
        def run_reader(index: int) -> None:
            try:
                reader(index)
            finally:
                reads[index] = LANE_STEPS  # a reader that left paces no one

        def stop_when_written() -> None:
            for thread in writers:
                thread.join(timeout=60.0)
            done.set()

        closer = threading.Thread(target=stop_when_written)
        closer.start()
        _run_clients(run_reader)
        closer.join(timeout=60.0)
    finally:
        done.set()
        for thread in writers:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers)
    table = db.table("ev")
    rows = sorted(table.rows())
    assert [row[0] for row in rows] == list(range(next_key[0]))
    _check_lane_rows(rows)
    # The race covered a demotion in every partition and a growing
    # dictionary in each tag lane.
    for partition in table.partitions:
        assert partition.lanes[1].ints(0, 0) is None
        assert partition.lanes[2].distinct() > 50
    server.close()
    db.close()
