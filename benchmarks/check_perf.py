#!/usr/bin/env python
"""CI perf-regression gate over the perf-smoke measurements.

Compares the fresh perf-smoke run (``benchmarks/results/perf_current.json``)
against the committed trajectory ``BENCH_perf.json`` (which the perf smoke
never rewrites) and fails when any label's ``refs_per_sec`` dropped by
more than the tolerance.

Only per-label throughput is compared.  Environment-dependent report
fields — ``python``, ``machine``, absolute ``elapsed_s`` — are ignored, so
the gate is meaningful on any runner while the committed file still
records where its numbers came from.

Usage (stdlib only, no package imports)::

    python benchmarks/check_perf.py                 # after the perf smoke
    python benchmarks/check_perf.py --tolerance 0.4 # noisy runner
    REPRO_PERF_TOLERANCE=0.4 python benchmarks/check_perf.py
    python benchmarks/check_perf.py --require pv8-sampled  # label must exist

``--require LABEL`` (repeatable) additionally fails when the current run
lacks the label — guarding against a bench silently dropping a
configuration (e.g. the two-speed ``pv8-sampled`` label) that the
baseline never knew about.

Exit status: 0 when every label holds (improvements always pass), 1 on a
regression beyond tolerance or missing/unreadable inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_BASELINE = HERE.parent / "BENCH_perf.json"
DEFAULT_CURRENT = HERE / "results" / "perf_current.json"


def load_rates(path: pathlib.Path) -> dict:
    """``label -> refs_per_sec`` from a perf-smoke payload."""
    payload = json.loads(path.read_text())
    rates = {}
    for run in payload.get("runs", []):
        label = run.get("label")
        rate = run.get("refs_per_sec")
        if label is None or not isinstance(rate, (int, float)) or rate <= 0:
            raise ValueError(f"malformed run entry in {path}: {run!r}")
        rates[label] = float(rate)
    if not rates:
        raise ValueError(f"no runs in {path}")
    return rates


def check(baseline: dict, current: dict, tolerance: float) -> list:
    """Return a list of failure messages (empty = gate passes)."""
    failures = []
    for label, base_rate in sorted(baseline.items()):
        rate = current.get(label)
        if rate is None:
            failures.append(f"{label}: missing from the current run")
            continue
        ratio = rate / base_rate
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSION"
        print(
            f"  {label:<20} baseline {base_rate:>12,.1f}  "
            f"current {rate:>12,.1f}  ({ratio:.2f}x)  {status}"
        )
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{label}: {rate:,.1f} refs/sec is {1.0 - ratio:.0%} below "
                f"baseline {base_rate:,.1f} (tolerance {tolerance:.0%})"
            )
    for label in sorted(set(current) - set(baseline)):
        print(f"  {label:<20} new label (no baseline), informational only")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
                        help="baseline payload (default: the committed "
                             "BENCH_perf.json)")
    parser.add_argument("--current", type=pathlib.Path, default=DEFAULT_CURRENT,
                        help="fresh payload written by the perf smoke")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("REPRO_PERF_TOLERANCE", "0.25")),
        help="allowed relative refs/sec drop before failing (default 0.25; "
             "env REPRO_PERF_TOLERANCE)")
    parser.add_argument(
        "--require", action="append", default=[], metavar="LABEL",
        help="fail unless this label exists in the current run "
             "(repeatable)")
    args = parser.parse_args(argv)
    if not (0.0 <= args.tolerance < 1.0):
        parser.error("tolerance must be in [0, 1)")

    for path, hint in ((args.baseline, "baseline"),
                       (args.current, "fresh measurement")):
        if not path.is_file():
            print(
                f"perf gate: {hint} {path} not found — run "
                "`python -m pytest benchmarks/test_perf_smoke.py` first",
                file=sys.stderr,
            )
            return 1
    try:
        baseline = load_rates(args.baseline)
        current = load_rates(args.current)
    except ValueError as exc:
        print(f"perf gate: {exc}", file=sys.stderr)
        return 1

    print(f"perf gate: tolerance {args.tolerance:.0%}")
    failures = check(baseline, current, args.tolerance)
    for label in args.require:
        if label not in current:
            failures.append(f"{label}: required label missing from the "
                            "current run")
    if failures:
        for failure in failures:
            print(f"perf gate FAILED: {failure}", file=sys.stderr)
        return 1
    print("perf gate: all labels within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
