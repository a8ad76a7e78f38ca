"""The benchmark's contract, read from the root ``BENCHMARK.json``.

That file is the one list of workloads, metrics, units and the bounds the
driver applies.  Its schema has no place for a bound on a per-layer
metric, so the bounds of the three metrics that are end-to-end in
meaning but zero or undefined on some workloads stay here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the reference median the metric may worsen by before it
    #: counts as a regression (None: reported, not bounded)
    bound: "float | None" = None


RUN_SECONDS = DECLARED["run_seconds"]
WORKLOAD_NAMES = tuple(w["name"] for w in DECLARED["workloads"])
#: reported by every workload with ``--trace 0``; the driver applies the bounds
END_TO_END = tuple(Metric(**m) for m in DECLARED["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in DECLARED["per_layer"])
UNITS = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}

#: The driver wants every end-to-end metric on every workload and never
#: zero, so these three are listed under ``per_layer``; ``run.py`` prints
#: them with the untraced run and ``compare.py`` applies these bounds
#: (``fail_ratio``: any run above the reference's worst is a regression).
_CONDITIONAL_BOUNDS = {
    "fail_ratio": 0.0,
    "recover_s": 0.15,
    "disk_bytes_per_row": 0.005,
}
CONDITIONAL = tuple(
    replace(metric, bound=_CONDITIONAL_BOUNDS[metric.name])
    for metric in PER_LAYER
    if metric.name in _CONDITIONAL_BOUNDS
)
DURABLE_ONLY = ("recover_s", "disk_bytes_per_row")

#: SQL-backed op types: each has a ``sql.executor.route.<op>.p50_ms``
_ROUTE = ("sql.executor.route.", ".p50_ms")
ROUTES = tuple(
    name[len(_ROUTE[0]):-len(_ROUTE[1])]
    for name in UNITS
    if name.startswith(_ROUTE[0]) and name.endswith(_ROUTE[1])
)
