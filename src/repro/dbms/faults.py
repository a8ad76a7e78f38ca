"""Deterministic fault injection for the execution engine.

A production-scale engine must fail *predictably* under partial faults:
a slow, crashing, or flaky partition task may cost a query, never the
process — no hangs, no leaked work, no silently wrong answers.  This
module provides the controlled way to prove that: a seedable
:class:`FaultPlan` installed on a :class:`~repro.dbms.database.Database`
arms named **fault sites** threaded through the runtime, and the chaos
suite (``tests/test_chaos.py``) asserts that every armed run either
returns the bit-identical fault-free answer or raises a typed
:class:`~repro.errors.ReproError`.

Fault sites (see ``docs/fault_tolerance.md`` for the full matrix):

========================  ====================================================
site                      fires
========================  ====================================================
``partition.scan``        in a row-path partition task, before its scan
``block.materialize``     in a vectorized task, before the numpy block build
``udf.compute_batch``     inside a batched scalar-UDF kernel dispatch
``udf.fused_iter``        in a vectorized task running a fused
                          clustering-iteration UDF, before accumulation
``engine.task``           in the engine's task wrapper, before any task body
``insert.flush``          before each per-partition flush of ``insert_many``
``serving.enqueue``       in the serving layer, before a score request is
                          admitted to the micro-batch queue
``serving.flush``         in the serving layer, before a coalesced batch is
                          dispatched to the batched scoring kernels
``wal.append``            in a durable session, before a committed batch of
                          mutations is appended to the write-ahead log
``wal.fsync``             in a durable session, before the WAL is fsynced
``checkpoint.write``      in a durable session, at each stage of an atomic
                          checkpoint (``stage="snapshot"`` before the
                          temp-directory write, ``stage="manifest"`` before
                          the manifest swap)
========================  ====================================================

Determinism contract: whether a given ``fire()`` call trips is a pure
function of ``(seed, spec, site, partition, per-partition hit count)``
— never of wall clock or thread interleaving — so a chaos schedule
replays identically under any worker count.  ``fire()`` itself is
thread-safe (worker tasks hit sites concurrently).

The hot path pays one attribute check: every instrumented site reads
``faults.enabled`` first, and :data:`NULL_FAULTS` (the default
everywhere) answers ``False`` without a call.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass

from repro.errors import FaultInjected

#: every site name the runtime is instrumented with
FAULT_SITES = frozenset(
    {
        "partition.scan",
        "block.materialize",
        "udf.compute_batch",
        "udf.fused_iter",
        "engine.task",
        "insert.flush",
        "serving.enqueue",
        "serving.flush",
        "wal.append",
        "wal.fsync",
        "checkpoint.write",
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what to do at which site, how often.

    ``kind`` is one of

    * ``"error"`` — raise (``error`` may be an exception class or
      instance; default :class:`~repro.errors.FaultInjected`),
    * ``"delay"`` — sleep ``delay_seconds`` then let the site proceed,
    * ``"flaky"`` — raise on the first ``times`` matching hits, then
      succeed forever (the shape bounded retries must absorb).

    ``times`` caps how many hits trip (``None`` = every matching hit;
    ``"flaky"`` defaults to one).  ``skip_first`` skips the first *n*
    matching hits before the fault arms, so "fail the second scan" is
    expressible.  ``partition`` restricts the fault to one partition
    index (``None`` matches any).  ``probability`` thins matching hits
    through the plan's seeded, interleaving-independent RNG.
    """

    site: str
    kind: str = "error"
    error: type[BaseException] | BaseException | None = None
    delay_seconds: float = 0.0
    times: int | None = None
    skip_first: int = 0
    partition: int | None = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{sorted(FAULT_SITES)}"
            )
        if self.kind not in ("error", "delay", "flaky"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "delay" and self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    @property
    def trip_limit(self) -> int | None:
        """How many matching hits actually trip (flaky defaults to 1)."""
        if self.kind == "flaky" and self.times is None:
            return 1
        return self.times


class NullFaults:
    """Fault injection disabled: the default on every database.

    ``enabled`` is a class attribute read by every instrumented site, so
    the un-injected hot path costs exactly one attribute check and zero
    calls.
    """

    __slots__ = ()
    enabled = False

    def fire(self, site: str, **attributes: object) -> None:  # pragma: no cover
        return None


#: the shared no-op plan — one instance, nothing ever fires
NULL_FAULTS = NullFaults()


class FaultPlan:
    """A seedable schedule of faults, installed via ``Database(faults=...)``.

    Thread-safety: ``fire()`` may be called concurrently from engine
    worker threads; hit bookkeeping is guarded by one lock.  Probability
    draws are keyed by ``(seed, spec index, site, partition, hit
    count)`` rather than consumed from a shared stream, so the decision
    for "partition 3's second scan" is identical no matter how threads
    interleave.
    """

    enabled = True

    def __init__(
        self, specs: "list[FaultSpec] | None" = None, seed: int = 0
    ) -> None:
        self.seed = seed
        self._specs: list[FaultSpec] = []
        self._lock = threading.Lock()
        #: matching-hit counters per (spec index, partition)
        self._hits: dict[tuple[int, int | None], int] = {}
        #: total faults actually tripped, per site (test introspection)
        self.tripped: dict[str, int] = {}
        for spec in specs or []:
            self.add(spec)

    # ----------------------------------------------------------- arming
    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Arm one spec (chainable)."""
        self._specs.append(spec)
        return self

    def fail(self, site: str, **kwargs: object) -> "FaultPlan":
        """Shorthand: arm an always-raise fault at *site*."""
        return self.add(FaultSpec(site, "error", **kwargs))  # type: ignore[arg-type]

    def flaky(self, site: str, times: int = 1, **kwargs: object) -> "FaultPlan":
        """Shorthand: fail the first *times* hits, then succeed."""
        return self.add(FaultSpec(site, "flaky", times=times, **kwargs))  # type: ignore[arg-type]

    def delay(
        self, site: str, seconds: float, **kwargs: object
    ) -> "FaultPlan":
        """Shorthand: sleep *seconds* at *site* before proceeding."""
        return self.add(
            FaultSpec(site, "delay", delay_seconds=seconds, **kwargs)  # type: ignore[arg-type]
        )

    @property
    def specs(self) -> "tuple[FaultSpec, ...]":
        return tuple(self._specs)

    # ----------------------------------------------------------- firing
    def fire(self, site: str, **attributes: object) -> None:
        """Evaluate every armed spec against one site hit.

        Called by instrumented code with site-specific attributes
        (``partition=...``, ``udf=...``).  Raises the first spec that
        trips; delays stack before any raise check of later specs.
        """
        partition = attributes.get("partition")
        if not isinstance(partition, int):
            partition = None
        to_raise: BaseException | None = None
        delay = 0.0
        with self._lock:
            for index, spec in enumerate(self._specs):
                if spec.site != site:
                    continue
                if spec.partition is not None and spec.partition != partition:
                    continue
                key = (index, partition)
                hit = self._hits.get(key, 0)
                self._hits[key] = hit + 1
                if hit < spec.skip_first:
                    continue
                armed_hit = hit - spec.skip_first
                limit = spec.trip_limit
                if limit is not None and armed_hit >= limit:
                    continue
                if spec.probability < 1.0 and not self._draw(
                    index, site, partition, hit, spec.probability
                ):
                    continue
                self.tripped[site] = self.tripped.get(site, 0) + 1
                if spec.kind == "delay":
                    delay += spec.delay_seconds
                elif to_raise is None:
                    to_raise = self._build_error(spec, site, attributes)
        if delay:
            time.sleep(delay)
        if to_raise is not None:
            raise to_raise

    def _draw(
        self,
        spec_index: int,
        site: str,
        partition: int | None,
        hit: int,
        probability: float,
    ) -> bool:
        # The decision key is hashed with sha256, not hash(): Python's
        # string hashing varies with PYTHONHASHSEED, and a chaos
        # schedule must replay identically across processes too.
        key = f"{self.seed}|{spec_index}|{site}|{partition}|{hit}"
        digest = hashlib.sha256(key.encode()).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        return rng.random() < probability

    @staticmethod
    def _build_error(
        spec: FaultSpec, site: str, attributes: dict[str, object]
    ) -> BaseException:
        if spec.error is None:
            return FaultInjected(site, **attributes)  # type: ignore[arg-type]
        if isinstance(spec.error, BaseException):
            return spec.error
        return spec.error(f"injected fault at {site!r}")

    # ---------------------------------------------------------- introspection
    def trips(self, site: str | None = None) -> int:
        """Faults actually tripped, at one site or in total."""
        if site is not None:
            return self.tripped.get(site, 0)
        return sum(self.tripped.values())

    def reset(self) -> None:
        """Forget all hit counters (the armed specs stay)."""
        with self._lock:
            self._hits.clear()
            self.tripped.clear()

    def __repr__(self) -> str:
        armed = ", ".join(
            f"{spec.site}:{spec.kind}" for spec in self._specs
        ) or "nothing armed"
        return f"FaultPlan(seed={self.seed}, {armed})"
