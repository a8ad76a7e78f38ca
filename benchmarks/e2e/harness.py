"""The shared measuring loop: op types, schedules, samples, metrics.

A workload is a set of *op types*.  Each op is written the way a user
would write it (a ``WarehouseMiner`` call, a SQL statement, a serving
request), returns its answer, and has a check that compares the answer
with a numpy float64 reference the benchmark computed from the
generated arrays.  The loop is closed: the next op starts when the
previous one returns.  Checks run between ops and are not part of any
op's latency.

In a traced run :class:`SqlTrace` is laid over the database's public
``execute``/``execute_batch``: every statement an op issues — however
deep inside the miner — is preceded by explicit ``tokenize``,
``parse_statements`` and ``explain_plan`` calls, each in its own span,
and the statement's ``QueryMetrics`` stage seconds become child spans.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.dbms.sql.ast import Select
from repro.dbms.sql.lexer import tokenize
from repro.dbms.sql.parser import parse_statements

from spans import SpanRecorder


class CheckFailed(Exception):
    """An op returned an answer that differs from the reference."""


class SelfCheckFailed(Exception):
    """The run would publish a misleading number; it fails instead."""


def expect_close(name: str, got: Any, want: Any, rtol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    scale = np.maximum(np.abs(want), np.max(np.abs(want), initial=0.0) * 1e-6)
    worst = np.max(np.abs(got - want) / np.maximum(scale, 1e-300), initial=0.0)
    if not worst <= rtol:
        raise CheckFailed(f"{name}: relative error {worst:.3g} > {rtol:g}")


def expect_equal(name: str, got: Any, want: Any) -> None:
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        raise CheckFailed(f"{name}: differs from the reference")


@dataclass
class OpType:
    """One kind of operation of a workload's schedule."""

    name: str
    #: ops of this type in one cycle of the schedule
    count: int
    #: nominal input rows of one op (source-table rows, or rows scored
    #: or inserted), counted once however many scans the op makes
    rows: int
    #: ``run(k)`` performs the k-th op of this type and returns its answer
    run: Callable[[int], Any]
    #: ``check(answer, k)`` raises :class:`CheckFailed` on a wrong answer
    check: Callable[[Any, int], None]
    #: repeated identical ops must be bit-identical: maps an answer to a
    #: comparable fingerprint (None: ops of this type are not identical)
    fingerprint: "Callable[[Any], Any] | None" = None


@dataclass
class Sample:
    op: str
    #: ``perf_counter`` latency and ``process_time`` CPU of the op
    seconds: float
    cpu_seconds: float
    rows: int
    ok: bool
    op_id: int
    error: str = ""


@dataclass
class StatementRecord:
    """What the traced run learned about one executed statement."""

    op_id: "int | None"
    op: "str | None"
    chars: int
    tokenize_s: float
    parse_s: float
    plan_s: "float | None"
    execute_s: float
    metrics: Any


class SqlTrace:
    """Explicit SQL pipeline spans around a database's public calls."""

    def __init__(self, db: Any, recorder: SpanRecorder) -> None:
        self.db = db
        self.recorder = recorder
        self.statements: "list[StatementRecord]" = []
        #: name of the op currently running (set by the loop)
        self.current_op: "str | None" = None
        self._execute = db.execute
        self._execute_batch = db.execute_batch
        db.execute = self.execute
        db.execute_batch = self.execute_batch

    def _front_end(self, sql: str) -> "tuple[float, float, list]":
        rec = self.recorder
        with rec.span("tokenize", chars=len(sql)) as tok:
            tokenize(sql)
        with rec.span("parse") as parse:
            statements = parse_statements(sql)
        return tok.seconds, parse.seconds, statements

    def _attach_stages(self, metrics: Any) -> None:
        if metrics is None:
            return
        for stage in ("scan", "accumulate", "merge", "finalize", "project"):
            seconds = getattr(metrics, f"{stage}_seconds")
            if seconds:
                self.recorder.add(stage, seconds)

    def _record(
        self, chars, tok_s, parse_s, plan_s, execute_s, metrics
    ) -> None:
        self.statements.append(
            StatementRecord(
                self.recorder.current_op_id(),
                self.current_op,
                chars,
                tok_s,
                parse_s,
                plan_s,
                execute_s,
                metrics,
            )
        )

    def execute(self, sql: str) -> Any:
        rec = self.recorder
        tok_s, parse_s, statements = self._front_end(sql)
        plan_s = None
        if len(statements) == 1 and isinstance(statements[0], Select):
            with rec.span("plan") as plan:
                self.db.explain_plan(sql)
            # explain_plan parses the text again before it binds,
            # optimizes and builds the plan.
            plan_s = max(0.0, plan.seconds - parse_s)
        with rec.span("execute") as span:
            result = self._execute(sql)
            self._attach_stages(result.metrics)
        self._record(
            len(sql), tok_s, parse_s, plan_s, span.seconds, result.metrics
        )
        return result

    def execute_batch(self, statements: Sequence[str]) -> Any:
        rec = self.recorder
        tok_s = parse_s = 0.0
        for sql in statements:
            one_tok, one_parse, _ = self._front_end(sql)
            tok_s += one_tok
            parse_s += one_parse
        with rec.span("plan") as plan:
            self.db.explain_batch(statements)
        with rec.span("execute") as span:
            results = self._execute_batch(statements)
            self._attach_stages(results[0].metrics)
        self._record(
            sum(len(sql) for sql in statements),
            tok_s,
            parse_s,
            max(0.0, plan.seconds - parse_s),
            span.seconds,
            results[0].metrics,
        )
        return results


# ---------------------------------------------------------------- schedule
def cycle_schedules(
    ops: Sequence[OpType], cycles: int, rng: np.random.Generator
) -> "list[list[OpType]]":
    """*cycles* passes over the fixed multiset, each shuffled."""
    one_cycle = [op for op in ops for _ in range(op.count)]
    return [
        [one_cycle[index] for index in rng.permutation(len(one_cycle))]
        for _ in range(cycles)
    ]


class Counters:
    """The running index of each op type (``k`` in ``run(k)``)."""

    def __init__(self) -> None:
        self._next: "dict[str, int]" = {}

    def take(self, name: str) -> int:
        k = self._next.get(name, 0)
        self._next[name] = k + 1
        return k


def run_schedule(
    schedule: Iterable[OpType],
    counters: Counters,
    recorder: "SpanRecorder | None" = None,
    trace: "SqlTrace | None" = None,
    fingerprints: "dict[str, Any] | None" = None,
    first_op_id: int = 0,
) -> "list[Sample]":
    """Run ops one after another on the calling thread."""
    samples: "list[Sample]" = []
    for op_id, op in enumerate(schedule, start=first_op_id):
        k = counters.take(op.name)
        if trace is not None:
            trace.current_op = op.name
        error = ""
        answer = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if recorder is not None:
                with recorder.span(f"op:{op.name}", op_id=op_id):
                    answer = op.run(k)
            else:
                answer = op.run(k)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if not error:
            try:
                op.check(answer, k)
                if fingerprints is not None and op.fingerprint is not None:
                    mark = op.fingerprint(answer)
                    first = fingerprints.setdefault(op.name, mark)
                    if first != mark:
                        raise CheckFailed(
                            f"{op.name}: repeated identical op gave a "
                            "different answer"
                        )
            except CheckFailed as exc:
                error = str(exc)
        samples.append(
            Sample(op.name, seconds, cpu, op.rows, not error, op_id, error)
        )
    return samples


# ----------------------------------------------------------------- metrics
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Cycle:
    """One pass over the schedule's fixed multiset of ops."""

    samples: "list[Sample]"
    #: wall and CPU of the cycle when its ops overlapped (client
    #: threads).  A single closed loop leaves them unset: its wall is the
    #: sum of the op latencies, the checks between ops being the
    #: benchmark's own.
    overlapped_wall: "float | None" = None
    overlapped_cpu: "float | None" = None

    @property
    def wall_seconds(self) -> float:
        if self.overlapped_wall is not None:
            return self.overlapped_wall
        return sum(s.seconds for s in self.samples)

    @property
    def cpu_seconds(self) -> float:
        if self.overlapped_cpu is not None:
            return self.overlapped_cpu
        return sum(s.cpu_seconds for s in self.samples)


@dataclass
class TimedPhase:
    """The cycles of one timed phase: every cycle does the same work."""

    cycles: "list[Cycle]"

    @property
    def samples(self) -> "list[Sample]":
        return [s for cycle in self.cycles for s in cycle.samples]

    @property
    def wall_seconds(self) -> float:
        return sum(cycle.wall_seconds for cycle in self.cycles)


def end_to_end(phase: TimedPhase, setup_s: float, tail_pct: float) -> dict:
    """Throughput and CPU are medians over the cycles, which all do the
    same work, so a burst of host contention that slows a minority of
    them moves neither; the latency percentiles are over every op."""
    latencies_ms = [s.seconds * 1e3 for s in phase.samples]
    return {
        "setup_s": setup_s,
        "rows_per_s": median(
            sum(s.rows for s in cycle.samples) / cycle.wall_seconds
            for cycle in phase.cycles
        ),
        "op_p50_ms": percentile(latencies_ms, 50.0),
        "op_tail_ms": percentile(latencies_ms, tail_pct),
        "cpu_ms_per_op": median(
            cycle.cpu_seconds * 1e3 / len(cycle.samples)
            for cycle in phase.cycles
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def op_table(samples: Sequence[Sample]) -> "dict[str, dict]":
    """Per-op-type count, failures and latency percentiles."""
    by_op: "dict[str, list[Sample]]" = {}
    for sample in samples:
        by_op.setdefault(sample.op, []).append(sample)
    table = {}
    for name, group in by_op.items():
        ms = [s.seconds * 1e3 for s in group]
        table[name] = {
            "count": len(group),
            "failed": sum(not s.ok for s in group),
            "p50_ms": percentile(ms, 50.0),
            "p95_ms": percentile(ms, 95.0),
            "total_s": sum(s.seconds for s in group),
        }
    return table


def check_percentile_ranks(samples: Sequence[Sample], tail_pct: float) -> None:
    """Fail when the median or the tail percentile sits too close to a
    boundary between op-type latency clusters, or the tail has fewer
    than ten samples beyond it: either way it would flip between
    clusters run to run.

    Too close is 8 percentile points for the median, 2 for p95, and
    shrinks with the tail above it (0.4 points for p99): a boundary
    above the tail must leave it three fifths of the samples beyond it."""
    ops = len(samples)
    beyond = ops - max(1, math.ceil(tail_pct / 100.0 * ops))
    if beyond < 10:
        raise SelfCheckFailed(
            f"p{tail_pct:g} of {ops} ops has {beyond} samples beyond it "
            "(need 10)"
        )
    margins = {50.0: 8.0, tail_pct: 0.4 * (100.0 - tail_pct)}
    table = sorted(op_table(samples).items(), key=lambda kv: kv[1]["p50_ms"])
    cumulative = 0.0
    for (_, lower), (name, upper) in zip(table, table[1:]):
        cumulative += 100.0 * lower["count"] / ops
        # A new cluster starts where the next op type is 1.5x slower.
        if upper["p50_ms"] <= 1.5 * lower["p50_ms"]:
            continue
        for pct, margin in margins.items():
            if abs(cumulative - pct) < margin:
                raise SelfCheckFailed(
                    f"p{pct:g} is {abs(cumulative - pct):.1f} points from "
                    f"the latency-cluster boundary below {name!r} "
                    f"(at p{cumulative:.1f})"
                )
