"""One benchmark invocation: what `repro study run <matrix>` does, timed.

run.py starts this file as a fresh interpreter for every invocation.
It makes the public calls the CLI's `study run` makes -- import
`repro.cli`, then `load_matrix` -> `run_study` -> `write_jsonl` ->
`evaluate_checks` -- with the seed passed as a `seed` axis override,
and writes a small JSON report of CLOCK_MONOTONIC timestamps that
run.py compares with its own spawn and exit times.

Untraced, the hooks are one wrapper around `SweepRunner.run`, which
records when the first spec reaches the runner and when the resolve
phase ends, and with `--speed FILE` the machine-speed probe of
`perfbench.speed`, started before anything is imported.  With `--trace
DIR` the span hooks, GC callbacks and the sampling profiler of
`perfbench.tracing` are installed too.

Exit codes: 0 on success, 3 when the sweep quarantined specs (the
report lists them), anything else on an unexpected error.
"""

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--matrix", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="study JSONL path")
    parser.add_argument("--report", required=True, help="timing report path")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--store", default=None)
    parser.add_argument("--artifacts", default=None)
    parser.add_argument("--full-detail", action="store_true",
                        help="override the matrix's `sampled` axis to false")
    parser.add_argument("--trace", default=None,
                        help="directory for span files (enables tracing)")
    parser.add_argument("--speed", default=None,
                        help="file for machine-speed probe records")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    if args.speed:
        from perfbench import speed

        speed.Probe(args.speed).install()
    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer(args.trace)
    report = {}

    t0 = time.monotonic()
    import repro.cli  # noqa: F401  (the CLI's own start-up cost)
    report["import_s"] = time.monotonic() - t0

    from repro.runner import artifacts as artifacts_mod
    from repro.runner import context
    from repro.runner.broker import PoisonSpecError
    from repro.runner.sweep import SweepRunner
    from repro.study import (
        evaluate_checks, load_matrix, run_study, write_jsonl)
    from repro.study.executor import records_to_runs

    original_run = SweepRunner.run

    def timed_run(self, specs, observer=None):
        report.setdefault("t_run_enter", time.monotonic())
        try:
            return original_run(self, specs, observer=observer)
        finally:
            report["t_run_exit"] = time.monotonic()

    SweepRunner.run = timed_run
    if tracer is not None:
        tracer.install()

    def phase(name, fn, *a, **kw):
        if tracer is None:
            return fn(*a, **kw)
        return tracer.call(name, fn, *a, **kw)

    matrix = phase("load_matrix", load_matrix, args.matrix)
    # The precedence `repro study run` applies: flags, then the matrix
    # [runner] table.
    jobs = args.jobs if args.jobs is not None else matrix.runner.get("jobs")
    backend = args.backend or matrix.runner.get("backend")
    if args.artifacts:
        artifacts_mod.configure(args.artifacts)
    context.configure(jobs=jobs, store=args.store, backend=backend)
    overrides = {"seed": [args.seed]}
    if args.full_detail:
        overrides["sampled"] = [False]

    status = 0
    try:
        records = phase("run_study", run_study, matrix,
                        axis_overrides=overrides)
    except PoisonSpecError as exc:
        report["quarantined"] = sorted(exc.quarantined)
        records = None
        status = 3
    if records is not None:
        phase("write_jsonl", write_jsonl, records, args.out)
        checks = phase("evaluate_checks", evaluate_checks, matrix,
                       records_to_runs(records))
        report["checks"] = {c.name: c.passed for c in checks}
    stats = context.get_runner().last_stats
    report["broker"] = dict(stats) if stats else {}
    if tracer is not None:
        tracer.finish()
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
