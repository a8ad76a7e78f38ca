"""The lane concurrency contract, under threads.

Buffer growth allocates, copies, then swaps the reference, and a
partition publishes its row count only after every lane (and NULL mask)
holds the new values.  So a reader that pinned a row count re-reads the
same bytes for as long as it likes, without a lock, while a writer
appends through buffer growths and rolls a failed batch back.

Pins are taken under the lock that serializes writers (as the serving
layer does), so a pin never observes a mid-batch state; reads take no
lock at all.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.dbms.faults import NULL_FAULTS, FaultPlan
from repro.dbms.schema import Column, TableSchema
from repro.dbms.storage import Table
from repro.dbms.types import SqlType
from repro.errors import ReproError
from repro.serving.snapshot import TableSnapshot

SCHEMA = TableSchema(
    (
        Column("k", SqlType.INTEGER),
        Column("v", SqlType.FLOAT),
        Column("w", SqlType.FLOAT),
    )
)
READERS = 4
STEPS = 150
JOIN_SECONDS = 60.0


def _rows(start: int, count: int) -> list[tuple]:
    return [
        (k, float(k), None if k % 5 == 0 else float("nan") if k % 7 == 0 else -float(k))
        for k in range(start, start + count)
    ]


# Growths are rare events (one per doubling), so the scenario runs a few
# times over: each run is another dozen chances for a reader to land in
# a growth.
@pytest.mark.parametrize("run", range(4))
def test_pinned_prefix_is_immutable_under_growth_and_rollback(run):
    table = Table("t", SCHEMA, partitions=2)
    table.insert_many(_rows(0, 40))
    write_lock = threading.Lock()
    done = threading.Event()
    failures: list[BaseException] = []
    re_reads = [0] * READERS

    def reader(slot: int) -> None:
        try:
            while not done.is_set():
                with write_lock:
                    snapshot = TableSnapshot(table)
                    pins = [
                        (partition, partition.row_count)
                        for partition in table.partitions
                    ]
                pinned_rows = repr(list(snapshot.rows()))
                pinned_blocks = [
                    partition.block([0, 1, 2], 0, pinned).tobytes("F")
                    for partition, pinned in pins
                ]
                for _ in range(20):
                    assert repr(list(snapshot.rows())) == pinned_rows
                    for (partition, pinned), expected in zip(pins, pinned_blocks):
                        block = partition.block([0, 1, 2], 0, pinned)
                        assert block.tobytes("F") == expected
                    re_reads[slot] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            failures.append(exc)

    buffers_seen = {}

    def writer() -> None:
        try:
            next_key = 40
            for step in range(STEPS):
                # Paced by the slowest reader, so reads overlap every
                # growth however fast a batch commits.
                while min(re_reads) < step // 8 and not failures:
                    time.sleep(0)
                with write_lock:
                    if step == STEPS // 2:
                        # A flush that fails on the second partition rolls
                        # the first one's rows (NULLs included) back.
                        table.faults = FaultPlan().fail("insert.flush", partition=1)
                        try:
                            table.insert_many(_rows(10**6, 200))
                        except ReproError:
                            pass
                        else:  # pragma: no cover - the fault must fire
                            raise AssertionError("flush fault did not fire")
                        table.faults = NULL_FAULTS
                    elif step % 3 == 0:
                        table.insert(_rows(next_key, 1)[0])
                        next_key += 1
                    else:
                        table.insert_many(_rows(next_key, 37))
                        next_key += 37
                    # Kept alive: a freed buffer's id can come back.
                    buffer = table.partitions[0].lanes[1].floats(0, 1).base
                    buffers_seen[id(buffer)] = buffer
            assert table.row_count == next_key
        except BaseException as exc:  # noqa: BLE001
            failures.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(slot,)) for slot in range(READERS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_SECONDS)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert len(buffers_seen) >= 4  # at least three growths after the first buffer
    assert all(count > 0 for count in re_reads)
    # The rolled-back batch left nothing behind, NULL flags included.
    final = sorted(table.rows())
    assert repr(final) == repr(sorted(_rows(0, len(final))))
