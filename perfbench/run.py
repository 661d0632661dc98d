"""Repository benchmark: timed, output-checked `repro` study runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure-detail --seed 0 --seconds 35
    python3 perfbench/run.py --workload sampled-sweep --trace 1
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --pin                   # re-pin expected.json

Load model: a closed loop with one client.  This is a single
process that starts one fresh `perfbench/invoke.py` interpreter at a
time (the calls `repro study run` makes, on a frozen matrix from
`perfbench/matrices/`), waits for it, checks every simulated result it
wrote, and starts the next one until `--seconds` have passed.  Only the
`sweep-roundtrip` process backend runs workers, at `nproc` of them.

Every child gets this process's environment minus every `REPRO_*`
variable, with `PYTHONPATH` set to this checkout's `src/`; stores,
artifacts and JSONL go to a scratch directory under `.perfbench-tmp/`
that is removed afterwards.  No tracked file is written.

The seed: `--seed n` selects program seed `PROGRAM_SEEDS[n % 2]` -- the
default (1) or the held-out seed (2) -- and passes it to the program as
a `seed` axis override of the matrix.  Both are pinned in
`expected.json`: the SHA-256 of every spec's canonical SimResult JSON,
and for the sampled workloads the full-detail aggregate IPC of every
spec.  A spec counts as failed on a digest mismatch, a missing record,
an exception or a quarantine.

End-to-end host times (`wall_s`, `setup_s`, `refs_per_s`, `rerun_s`)
are corrected for the shared machine's momentary speed: every
invocation runs the probe of `perfbench/speed.py`, and each time is
scaled to the probe's reference speed.  The uncorrected medians are
printed next to them; per-layer times are never corrected.

The last line of standard output is one JSON object: `correct`,
`attempted` (specs), `failed` and `metrics` -- the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
if __name__ == "__main__":
    # Started as a script, the checkout root is not on the path yet;
    # imported (by the self-tests), the importer's path is left alone.
    sys.path.insert(0, str(ROOT))

from perfbench import metrics, speed  # noqa: E402

#: Program seeds: the default seed and one held out from tuning.
PROGRAM_SEEDS = (1, 2)

#: Give up on (and kill) an invocation after this long.
INVOCATION_TIMEOUT_S = 75.0

EXPECTED = BENCH / "expected.json"
SCRATCH = ROOT / ".perfbench-tmp"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


#: name -> matrix file, the invocations of one sample, and whether the
#: specs are sampled (their full-detail IPCs are pinned).  A sample is
#: one invocation, or a cold+warm pair sharing an artifact store.
WORKLOADS = {
    "figure-detail": {
        "matrix": "figure-detail.toml",
        "halves": (("cold", {}),),
        "sampled": False,
    },
    "sampled-sweep": {
        "matrix": "sampled-sweep.toml",
        "halves": (("cold", {}),),
        "sampled": True,
    },
    "sweep-roundtrip": {
        "matrix": "sweep-roundtrip.toml",
        "halves": (
            ("cold", {"jobs": nproc(), "backend": "process",
                      "store": "store-cold", "artifacts": "artifacts"}),
            ("warm", {"jobs": 1, "backend": "inline",
                      "store": "store-warm", "artifacts": "artifacts"}),
        ),
        "sampled": True,
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "refs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rerun_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, no pins)."""


# ------------------------------------------------------------ children


def child_env(parent_env):
    """The environment an invocation sees.

    Every inherited ``REPRO_*`` variable is dropped so no ambient knob
    (``REPRO_VEC=0``, ``REPRO_STORE``, ...) changes what is measured --
    no workload declares one; backends, stores and artifact roots are
    passed as the command-line flags `repro study run` takes -- and
    ``PYTHONPATH`` points at this checkout's sources only.
    """
    env = {k: v for k, v in parent_env.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd, env, cwd, stdout_path, stderr_path,
          timeout=INVOCATION_TIMEOUT_S):
    """Run ``cmd`` to completion.

    Returns ``(spawn time, wall_s, exit code, maxrss KB)``; the spawn
    time is CLOCK_MONOTONIC, which the child's own timestamps share.

    Wall time runs from just before the spawn to the reaping ``wait4``,
    whose rusage covers the child and every descendant it reaped (the
    process backend joins its workers), so ``ru_maxrss`` is the largest
    resident set of any process of the invocation.  A child still
    running after ``timeout`` is killed with its whole process group.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # stragglers of a crashed invocation
    return start, wall, proc.returncode, usage.ru_maxrss


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def invoke(workload, half, seed, unit_dir, traced=False, full_detail=False):
    """One invocation of ``workload``'s matrix; returns its measurements."""
    name, flags = half
    spec = WORKLOADS[workload]
    tag = f"{name}-full" if full_detail else name
    out = unit_dir / f"{tag}.jsonl"
    report = unit_dir / f"{tag}.report.json"
    trace_dir = unit_dir / f"{tag}.trace"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
        trace_dir.mkdir()
    cmd += [str(BENCH / "invoke.py"),
            "--matrix", str(BENCH / "matrices" / spec["matrix"]),
            "--seed", str(seed), "--out", str(out), "--report", str(report)]
    for flag in ("jobs", "backend"):
        if flag in flags:
            cmd += [f"--{flag}", str(flags[flag])]
    for flag in ("store", "artifacts"):
        if flag in flags:
            cmd += [f"--{flag}", str(unit_dir / flags[flag])]
    if full_detail:
        cmd.append("--full-detail")
    if traced:
        cmd += ["--trace", str(trace_dir)]
    probes = unit_dir / f"{tag}.speed"
    cmd += ["--speed", str(probes)]
    stderr_path = unit_dir / f"{tag}.stderr"
    spawned, wall, code, maxrss_kb = spawn(
        cmd, child_env(os.environ), ROOT, unit_dir / f"{tag}.stdout",
        stderr_path)
    inv = {"half": name, "t_spawn": spawned, "wall_s": wall, "exit": code,
           "rss_mb": maxrss_kb / 1024.0, "traced": traced,
           "probes": speed.read(probes), "report": None, "records": []}
    if code == 0 or report.is_file():
        try:
            inv["report"] = json.loads(report.read_text())
        except (OSError, ValueError):
            inv["report"] = None
    if out.is_file():
        inv["records"] = [json.loads(line)
                          for line in out.read_text().splitlines() if line]
    if code != 0:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        print(f"invocation {workload}/{tag} exited {code}:\n{tail}",
              file=sys.stderr)
    if traced:
        inv["dumps"] = [json.loads(p.read_text())
                        for p in sorted(trace_dir.glob("spans-*.json"))]
        inv["importtime"] = stderr_path.read_text(errors="replace")
    return inv


# -------------------------------------------------------- output check


def load_expected():
    try:
        return json.loads(EXPECTED.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read pinned outputs {EXPECTED}: {exc}")


def check_outputs(records, pinned):
    """(attempted, failed, problems) of one invocation's records.

    ``pinned`` maps spec key -> result digest for every spec the matrix
    expands to.  Each pinned spec is attempted once; it fails when its
    record is missing or its digest differs.  A record for a spec that
    is not pinned counts as one more failed attempt.
    """
    problems = []
    seen = {}
    for record in records:
        seen[record["key"]] = metrics.result_digest(record["result"])
    failed = 0
    for key, digest in pinned.items():
        got = seen.get(key)
        if got != digest:
            failed += 1
            what = "missing" if got is None else "mismatch"
            problems.append(f"{key[:12]}: {what}")
    extra = [key for key in seen if key not in pinned]
    for key in extra:
        problems.append(f"{key[:12]}: not pinned")
    return len(pinned) + len(extra), failed + len(extra), problems


def completed(inv):
    """Whether the invocation exited cleanly and reached the runner."""
    return (inv["exit"] == 0 and inv["report"] is not None
            and "t_run_enter" in inv["report"])


def judge(inv, pinned):
    """Attach attempted/failed to an invocation (exit code included)."""
    if not completed(inv):
        inv["attempted"], inv["failed"] = len(pinned), len(pinned)
        inv["problems"] = [f"exit code {inv['exit']}"]
        return inv
    inv["attempted"], inv["failed"], inv["problems"] = check_outputs(
        inv["records"], pinned)
    return inv


# ------------------------------------------------------------- a run


def program_seed(seed):
    return PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]


def dir_bytes(path):
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_sample(workload, seed, scratch, index, traced, pinned):
    unit_dir = scratch / f"sample-{index}"
    unit_dir.mkdir()
    invocations = [
        judge(invoke(workload, half, seed, unit_dir, traced=traced), pinned)
        for half in WORKLOADS[workload]["halves"]
    ]
    artifact_bytes = dir_bytes(unit_dir / "artifacts")
    shutil.rmtree(unit_dir, ignore_errors=True)
    return {"traced": traced, "invocations": invocations,
            "artifact_bytes": artifact_bytes}


def measure(workload, seed, seconds, trace):
    """Run samples of ``workload`` for ``seconds``; returns the samples."""
    expected = load_expected()
    pseed = program_seed(seed)
    try:
        pinned = expected["outputs"][workload][str(pseed)]
    except KeyError:
        raise BenchError(f"no pinned outputs for {workload} seed {pseed}")
    scratch = SCRATCH / f"{os.getpid()}-{workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    samples = []
    durations = []
    start = time.monotonic()
    try:
        while True:
            # Traced runs alternate untraced and traced samples, so the
            # tracing overhead compares like with like.
            traced = bool(trace) and len(samples) % 2 == 1
            began = time.monotonic()
            samples.append(run_sample(workload, pseed, scratch, len(samples),
                                      traced, pinned))
            durations.append(time.monotonic() - began)
            # Start another sample only if it should end by half a
            # sample past the deadline, so a run lasts `seconds` give or
            # take half a sample.
            expect = metrics.median(durations)
            late = time.monotonic() - start + expect > seconds + expect / 2
            if late and (not trace or len(samples) >= 2):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    return samples, expected, pseed


def end_to_end(samples, workload, correct=True):
    """End-to-end metric values of one run's untraced samples.

    Host times are corrected for the machine's speed (see
    perfbench/speed.py); ``correct=False`` gives the raw times.
    """
    plain = [s for s in samples if not s["traced"]]
    cold = [s["invocations"][0] for s in plain if completed(
        s["invocations"][0])]
    if len(WORKLOADS[workload]["halves"]) > 1:
        reruns = [s["invocations"][1] for s in plain]
    else:
        # No persistent state to carry over: every invocation after the
        # first re-runs the same study from scratch.
        reruns = cold[1:] or cold
    every = [inv for s in plain for inv in s["invocations"]]
    return {
        "wall_s": [wall_s(inv, correct) for inv in cold],
        "setup_s": [host_s(inv, inv["t_spawn"], inv["report"]["t_run_enter"],
                           correct) for inv in every if completed(inv)],
        "refs_per_s": [refs_per_s(inv, correct) for inv in cold],
        "peak_rss_mb": [inv["rss_mb"] for inv in cold],
        "rerun_s": [wall_s(inv, correct) for inv in reruns
                    if completed(inv)],
    }


def host_s(inv, start, end, correct=True):
    """Host seconds from ``start`` to ``end`` of one invocation, at the
    reference speed of its probes unless ``correct`` is false."""
    if not correct:
        return end - start
    factor = metrics.speed_factor(inv["probes"], speed.PROBE_REF_S,
                                  start, end)
    if factor is None:
        raise BenchError(f"invocation {inv['half']} left no speed probes")
    return (end - start) * factor


def wall_s(inv, correct=True):
    return host_s(inv, inv["t_spawn"], inv["t_spawn"] + inv["wall_s"],
                  correct)


def refs_per_s(inv, correct=True):
    report = inv["report"]
    refs = sum(metrics.reference_count(r["spec"], r["result"]["n_cores"])
               for r in inv["records"])
    return refs / host_s(inv, report["t_run_enter"], report["t_run_exit"],
                         correct)


def per_layer(samples, workload, expected, pseed):
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    values = {}
    absent = {}
    for sample in traced:
        invs = sample["invocations"]
        if any(inv["failed"] for inv in invs):
            continue
        layer = metrics.layer_sample(invs, sample["artifact_bytes"])
        for name, value in layer.items():
            values.setdefault(name, []).append(value)
        for inv in invs:
            for dump in inv["dumps"]:
                absent.update(metrics.absent_metrics(dump["absent"]))
    refs = expected.get("full_detail_ipc", {}).get(workload, {}).get(
        str(pseed))
    errors = [
        metrics.worst_ipc_error_pct(s["invocations"][0]["records"], refs)
        for s in samples if refs and not s["invocations"][0]["failed"]
    ]
    values["accuracy.sampled_ipc_err_pct"] = errors or [0.0]
    traced_wall = [wall_s(s["invocations"][0]) for s in traced
                   if completed(s["invocations"][0])]
    plain_wall = [wall_s(s["invocations"][0]) for s in plain
                  if completed(s["invocations"][0])]
    if traced_wall and plain_wall:
        values["tracing.overhead_pct"] = [
            (metrics.median(traced_wall) / metrics.median(plain_wall) - 1.0)
            * 100.0]
    out = {}
    for name, (unit, _) in metrics.LAYER_METRICS.items():
        if name in absent or name not in values:
            continue
        out[name] = {"value": metrics.median(values[name]), "unit": unit}
    for name in metrics.LAYER_METRICS:
        if name not in out and name not in absent:
            absent[name] = "no traced sample completed"
    return out, absent


def summarize(workload, seed, seconds, trace):
    samples, expected, pseed = measure(workload, seed, seconds, trace)
    invs = [inv for s in samples for inv in s["invocations"]]
    attempted = sum(inv["attempted"] for inv in invs)
    failed = sum(inv["failed"] for inv in invs)
    for inv in invs:
        for problem in inv["problems"]:
            print(f"  output check: {workload}/{inv['half']}: {problem}",
                  file=sys.stderr)
    print(f"{workload}: program seed {pseed}, {len(samples)} samples, "
          f"{len(invs)} invocations")
    if trace:
        metric_values, absent = per_layer(samples, workload, expected, pseed)
        for name, value in metric_values.items():
            print(f"  {name:<32} {value['value']:16.6f} {value['unit']}")
        for name, reason in sorted(absent.items()):
            print(f"  {name:<32} absent ({reason})")
    else:
        metric_values = {}
        raw = end_to_end(samples, workload, correct=False)
        for name, values in end_to_end(samples, workload).items():
            if not values:
                continue
            metric_values[name] = {"value": metrics.median(values),
                                   "unit": END_TO_END_UNITS[name]}
            spread = (metrics.quartile_spread(values) * 100.0
                      if len(values) > 1 else 0.0)
            print(f"  {name:<12} {metrics.median(values):14.4f} "
                  f"{END_TO_END_UNITS[name]:<4} median of {len(values)}, "
                  f"IQR/median {spread:.1f}%; uncorrected "
                  f"{metrics.median(raw[name]):.4f}")
        refs = expected.get("full_detail_ipc", {}).get(workload, {}).get(
            str(pseed))
        if refs:
            cold = samples[0]["invocations"][0]
            if not cold["failed"]:
                err = metrics.worst_ipc_error_pct(cold["records"], refs)
                print(f"  sampled_ipc_err_pct {err:.4f} % (simulated; worst "
                      "|sampled - full-detail| / full-detail IPC)")
    checks = samples[0]["invocations"][0]["report"] or {}
    for check, passed in sorted(checks.get("checks", {}).items()):
        print(f"  study check [{'pass' if passed else 'FAIL'}] {check}")
    print(f"  ops {attempted}  ops_failed {failed}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metric_values}


# ----------------------------------------------------------------- pin


def pin():
    """Re-pin expected.json from the current program (all seeds)."""
    expected = {"outputs": {}, "full_detail_ipc": {}}
    scratch = SCRATCH / f"{os.getpid()}-pin"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        for workload, spec in WORKLOADS.items():
            for pseed in PROGRAM_SEEDS:
                unit_dir = scratch / f"{workload}-{pseed}"
                unit_dir.mkdir()
                digests = None
                for half in spec["halves"]:
                    inv = invoke(workload, half, pseed, unit_dir)
                    if inv["exit"] != 0:
                        raise BenchError(f"{workload} seed {pseed} failed")
                    got = {r["key"]: metrics.result_digest(r["result"])
                           for r in inv["records"]}
                    if digests is not None and got != digests:
                        raise BenchError(
                            f"{workload} seed {pseed}: halves disagree")
                    digests = got
                expected["outputs"].setdefault(workload, {})[str(pseed)] = (
                    digests)
                if spec["sampled"]:
                    full = invoke(workload, ("cold", {}), pseed, unit_dir,
                                  full_detail=True)
                    if full["exit"] != 0:
                        raise BenchError(f"{workload} full detail failed")
                    expected["full_detail_ipc"].setdefault(workload, {})[
                        str(pseed)] = {
                        metrics.point_label(r): metrics.aggregate_ipc(
                            r["result"])
                        for r in full["records"]}
                print(f"pinned {workload} seed {pseed}: {len(digests)} specs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="repro benchmark (see module docstring)")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin expected.json from the current code")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src/repro'} "
                             "is missing")
        compile_sources()
        if args.pin:
            pin()
            return 0
        names = sorted(WORKLOADS) if args.workload == "all" else [
            args.workload]
        results = {name: summarize(name, args.seed, args.seconds, args.trace)
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


def compile_sources():
    """Byte-compile src/ once, so no invocation pays for it."""
    code = subprocess.call(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        stdout=subprocess.DEVNULL)
    if code != 0:
        raise BenchError("byte-compiling src/ failed")


if __name__ == "__main__":
    sys.exit(main())
