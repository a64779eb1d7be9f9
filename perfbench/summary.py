#!/usr/bin/env python3
"""Spread of benchmark results: median, quartiles and IQR / median.

    python3 perfbench/summary.py .perfbench/results/*.json

Groups the result files ``run.py`` writes by workload and trace mode,
and prints for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the IQR as a share of the
median -- the noise floor a later change is measured against.  Traced
and untraced runs are kept apart; for a workload that has both, the
traced medians are also given as a ratio to the untraced ones (the
tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from measure import spread


def _rows(result: dict[str, Any]) -> dict[str, float]:
    rows = dict(result.get("metrics", {}))
    for name, value in result.get("tails", {}).items():
        if isinstance(value, (int, float)):
            rows[name] = value
    rows.update(result.get("per_layer", {}))
    for name, value in result.get("diagnostics", {}).get("observed", {}).items():
        rows[f"observed.{name}"] = value
    return rows


def summarise(results: list[dict[str, Any]]) -> dict[tuple[str, int], dict[str, dict]]:
    grouped: dict[tuple[str, int], dict[str, list[float]]] = {}
    for result in results:
        metrics = grouped.setdefault((result["workload"], result["trace"]), {})
        for name, value in _rows(result).items():
            metrics.setdefault(name, []).append(float(value))
    return {
        key: {name: spread(values) for name, values in sorted(metrics.items())}
        for key, metrics in sorted(grouped.items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, help="result files of run.py")
    args = parser.parse_args(argv)
    results = [json.loads(path.read_text()) for path in args.files]
    summary = summarise(results)
    for (workload, trace), rows in summary.items():
        untraced = summary.get((workload, 0), {}) if trace else {}
        print(f"{workload}  trace {trace}")
        print(f"  {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
        for name, row in rows.items():
            base = untraced.get(name.removeprefix("traced."))
            overhead = ""
            if name.startswith("traced.") and base and base["median"]:
                overhead = f"  traced/untraced {row['median'] / base['median']:.3f}"
            print(
                f"  {name:<34} {row['n']:>3} {row['median']:>12.4f} {row['q1']:>12.4f} "
                f"{row['q3']:>12.4f} {row['iqr_share']:>8.3f}{overhead}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
