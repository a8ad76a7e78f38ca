#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the benchmark's bounds.

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

A is the reference (the parent commit, or the first set of runs of the
same code), B the candidate.  Each file is what ``run.py --repeat N``
writes.  For every (workload, end-to-end metric) the medians are
compared in the metric's worse direction (``fail_ratio`` has no slack:
any run of B above A's worst run is ``regressed``):

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the run-to-run spread (quartile distance over median, of
                either side) is wider than the bound and the two sides'
                runs overlap, so the data cannot tell

One row per workload; the exit code is 1 when any cell is ``regressed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import CONDITIONAL, END_TO_END, Metric  # noqa: E402

METRICS = (*END_TO_END, *CONDITIONAL)


def spread(values: "list[float]") -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or not median(values):
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def verdict(metric: Metric, a: "list[float]", b: "list[float]") -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    a_med, b_med = median(a), median(b)
    if metric.bound == 0.0:
        # Any increase is a regression, in any run: a failure in a
        # minority of the runs does not move the median.
        return "regressed" if max(sign * v for v in b) > max(
            sign * v for v in a) else "ok"
    worse_by = sign * (b_med - a_med) / abs(a_med)
    if max(spread(a), spread(b)) > metric.bound:
        # Too noisy to compare medians — unless the runs do not overlap
        # and every run of B reads better than every run of A.
        if metric.better == "lower":
            b_always_better = max(b) <= min(a)
        else:
            b_always_better = min(b) >= max(a)
        return "ok" if b_always_better else "unresolved"
    return "regressed" if worse_by > metric.bound else "ok"


def compare(a_runs: dict, b_runs: dict) -> "tuple[list[str], bool]":
    lines = []
    regressed = False
    width = max(len(name) for name in a_runs) + 2
    header = "workload".ljust(width) + "".join(
        m.name.ljust(max(len(m.name), 10) + 2) for m in METRICS
    )
    lines.append(header)
    for workload, a_list in a_runs.items():
        b_list = b_runs.get(workload)
        if not b_list:
            lines.append(workload.ljust(width) + "missing in B")
            regressed = True
            continue
        row = workload.ljust(width)
        for metric in METRICS:
            a = [run[metric.name] for run in a_list if metric.name in run]
            b = [run[metric.name] for run in b_list if metric.name in run]
            cell = verdict(metric, a, b) if a and b else "-"
            regressed |= cell == "regressed"
            row += cell.ljust(max(len(metric.name), 10) + 2)
        lines.append(row)
    return lines, regressed


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text())["runs"] for path in argv)
    lines, regressed = compare(a, b)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
