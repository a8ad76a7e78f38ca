"""Base class of the five workloads."""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median
from typing import Any

import numpy as np

from harness import (
    Counters,
    Cycle,
    OpType,
    SelfCheckFailed,
    SqlTrace,
    TimedPhase,
    cycle_schedules,
    run_schedule,
)
from spans import SpanRecorder

#: smoke runs use 1/50 of the rows and one cycle
SMOKE_SCALE = 50


class Workload:
    """Generates inputs, sets the program up, runs the timed phase.

    Life cycle: ``generate()`` once (numpy only), then one or more
    ``setup()`` … ``close()`` rounds (every ``repro`` call up to the
    timed phase is inside ``setup`` and ``warm_up``), then ``timed()``.
    """

    #: the workload's name in ``BENCHMARK.json``
    name: str
    #: the percentile ``op_tail_ms`` reports: the highest with at least
    #: ten samples beyond it (p99 needs the ≥1,000 ops only serving has)
    tail_pct = 95.0
    #: seconds one cycle of the schedule takes on the 2-core reference
    #: box; ``--seconds`` is turned into a whole number of cycles
    cycle_seconds = 1.0
    #: set-ups made per run (``setup_s`` is their median); workloads
    #: whose set-up takes a tenth of a second make more of them
    setup_repeats = 5

    def __init__(
        self, seed: int, scratch: Path, seconds: float, smoke: bool = False
    ) -> None:
        self.seed = seed
        self.scratch = scratch
        self.smoke = smoke
        #: cycles of the schedule the timed phase runs
        self.cycles = 1 if smoke else max(1, round(seconds / self.cycle_seconds))
        self.rng = np.random.default_rng(seed)
        self.db: Any = None
        self.ops: "list[OpType]" = []
        self.counters = Counters()
        #: first answers of op types whose repeats must be bit-identical
        self.fingerprints: "dict[str, Any]" = {}
        #: seconds and rows of the set-up's bulk load / row inserts
        self.load_stats: "dict[str, list[float]]" = {}
        #: seconds of every set-up made
        self.setups: "list[float]" = []

    def rows(self, full: int) -> int:
        """*full* rows, or 1/50 of them in a smoke run."""
        return max(64, full // SMOKE_SCALE) if self.smoke else full

    # ------------------------------------------------------------ phases
    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def timed_load(self, kind: str, rows: int, load) -> None:
        """Run a set-up load and keep its rate for the storage layer."""
        t0 = time.perf_counter()
        load()
        stats = self.load_stats.setdefault(kind, [0.0, 0.0])
        stats[0] += time.perf_counter() - t0
        stats[1] += rows

    def warm_up(self) -> None:
        """One checked pass of each op type, before timing."""
        samples = run_schedule(self.ops, self.counters)
        failed = [s for s in samples if not s.ok]
        if failed:
            raise SelfCheckFailed(
                f"warm-up op {failed[0].op} failed: {failed[0].error}"
            )

    def measure_setup(self, repeats: int) -> None:
        """Set up *repeats* times (set-up plus warm-up, each timed); the
        last one stays open for the timed phase."""
        for attempt in range(repeats):
            if attempt:
                self.close()
            self.counters = Counters()
            self.load_stats = {}
            t0 = time.perf_counter()
            self.setup()
            self.warm_up()
            self.setups.append(time.perf_counter() - t0)

    def setup_seconds(self) -> float:
        """Median set-up time over the set-ups made."""
        return median(self.setups)

    def timed(
        self,
        cycles: int,
        recorder: "SpanRecorder | None" = None,
        trace: "SqlTrace | None" = None,
    ) -> TimedPhase:
        schedules = cycle_schedules(
            self.ops, cycles, np.random.default_rng([self.seed, 1])
        )
        done: "list[Cycle]" = []
        op_id = 0
        for schedule in schedules:
            done.append(Cycle(run_schedule(
                schedule, self.counters, recorder, trace, self.fingerprints,
                first_op_id=op_id,
            )))
            op_id += len(schedule)
        return TimedPhase(done)

    def after_timed(
        self, recorder: "SpanRecorder | None"
    ) -> "dict[str, float]":
        """Work that follows the timed phase; returns the conditional
        end-to-end metrics only this workload has."""
        return {}

    def reset(self) -> None:
        """Bring the program back to its state at the start of the timed
        phase (only workloads whose ops change state override this)."""

    def layer_metrics(
        self, phase: TimedPhase, trace: "SqlTrace | None"
    ) -> "dict[str, float]":
        """Per-layer metrics only this workload can measure."""
        return {}

    def self_check(self, phase: TimedPhase, trace: "SqlTrace | None") -> None:
        """Workload-specific reasons to fail the run."""
