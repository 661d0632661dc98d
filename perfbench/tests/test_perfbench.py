"""Self-tests for the benchmark's own checks (not for the program).

Run with ``python3 -m pytest -q perfbench/tests``.  They prove that the
output check counts a perturbed result as failed, that inherited
``REPRO_*`` variables never reach an invocation, and that the metric
arithmetic is right.
"""

import json
import os
import statistics
import subprocess
import sys

import pytest

from perfbench import metrics, run, speed


def _record(key, **fields):
    result = {"workload": "Qry1", "config_label": "PV8", "n_cores": 4,
              "refs": 100, "instructions": 1000, "elapsed_cycles": 800.0}
    result.update(fields)
    return {"key": key, "coords": {"workload": "Qry1", "config": "pv8"},
            "result": result,
            "spec": {"scale": {"refs_per_core": 100, "warmup_refs": 50,
                               "window_refs": 10}}}


# ----------------------------------------------------------- output check


def test_matching_outputs_pass():
    records = [_record("a" * 64), _record("b" * 64, instructions=7)]
    pinned = {r["key"]: metrics.result_digest(r["result"]) for r in records}
    assert run.check_outputs(records, pinned) == (2, 0, [])


def test_perturbed_result_counts_as_failed():
    records = [_record("a" * 64), _record("b" * 64)]
    pinned = {r["key"]: metrics.result_digest(r["result"]) for r in records}
    records[1]["result"]["elapsed_cycles"] += 1e-9
    attempted, failed, problems = run.check_outputs(records, pinned)
    assert (attempted, failed) == (2, 1)
    assert problems == ["bbbbbbbbbbbb: mismatch"]


def test_missing_and_unpinned_records_count_as_failed():
    pinned = {"a" * 64: metrics.result_digest(_record("a" * 64)["result"])}
    attempted, failed, _ = run.check_outputs([_record("c" * 64)], pinned)
    assert (attempted, failed) == (2, 2)


def test_crashed_invocation_fails_every_spec():
    pinned = {"a" * 64: "x", "b" * 64: "y"}
    inv = run.judge({"exit": 1, "report": None, "records": []}, pinned)
    assert (inv["attempted"], inv["failed"]) == (2, 2)


def test_pinned_expectations_cover_both_seeds():
    expected = run.load_expected()
    for workload, spec in run.WORKLOADS.items():
        for seed in run.PROGRAM_SEEDS:
            assert expected["outputs"][workload][str(seed)]
            if spec["sampled"]:
                assert expected["full_detail_ipc"][workload][str(seed)]


# ------------------------------------------------------- isolated children


def test_child_env_drops_inherited_repro_variables():
    env = run.child_env({"REPRO_VEC": "0", "REPRO_STORE": "/elsewhere",
                         "PATH": "/bin", "PYTHONPATH": "/other"})
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == "/bin"
    assert env["PYTHONPATH"] == str(run.ROOT / "src")


def test_inherited_repro_variables_cannot_reach_a_child(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("REPRO_VEC", "0")
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    dump = tmp_path / "env.json"
    cmd = [sys.executable, "-c",
           "import json, os, sys; json.dump(dict(os.environ), "
           "open(sys.argv[1], 'w'))", str(dump)]
    _, wall, code, maxrss = run.spawn(
        cmd, run.child_env(os.environ), tmp_path, tmp_path / "out",
        tmp_path / "err")
    assert code == 0 and wall > 0 and maxrss > 0
    seen = json.loads(dump.read_text())
    assert "REPRO_VEC" not in seen and "REPRO_STORE" not in seen


def test_program_seed_alternates_default_and_held_out():
    assert [run.program_seed(n) for n in range(4)] == [1, 2, 1, 2]


# ------------------------------------------------------------ arithmetic


@pytest.mark.parametrize("values", [
    [1.0, 2.0, 3.0, 4.0, 5.0],
    [10.3, 9.8, 10.1, 10.0, 12.5, 9.9, 10.2, 10.0, 10.4, 9.7],
])
def test_median_and_quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.median(values) == statistics.median(values)
    assert metrics.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_quartile_spread_by_hand():
    # exclusive quantiles of 1..5: Q1 = 1.5, Q3 = 4.5, median 3.
    assert metrics.quartile_spread([5, 1, 4, 2, 3]) == pytest.approx(1.0)


def test_reference_count_includes_warmup_and_every_core():
    record = _record("a" * 64)
    assert metrics.reference_count(record["spec"], 4) == (100 + 50) * 4


def test_refs_per_s_counts_skipped_references_of_sampled_specs():
    record = _record("a" * 64, sampled_skipped_refs=90, sampled_periods=2)
    ref = speed.PROBE_REF_S
    inv = {"records": [record, record], "probes": [(11.0, ref)],
           "report": {"t_run_enter": 10.0, "t_run_exit": 12.0}}
    assert run.refs_per_s(inv) == pytest.approx(2 * 600 / 2.0)


def test_speed_factor_weighs_probes_inside_the_interval():
    # Probes at half speed inside [10, 12] double the interval's time;
    # the one outside is ignored.
    probes = [(9.0, 1.0), (10.5, 2.0), (11.5, 2.0)]
    assert metrics.speed_factor(probes, 1.0, 10.0, 12.0) == 0.5
    # mean of ratios, not ratio of means: 1 s at speed 1 and 1 s at
    # speed 0.5 cover 1.5 reference seconds of work.
    assert metrics.speed_factor([(0.0, 1.0), (1.0, 2.0)], 1.0) == 0.75
    # An interval without probes takes every probe's factor.
    assert metrics.speed_factor(probes, 1.0, 20.0, 21.0) == (
        pytest.approx((1.0 + 0.5 + 0.5) / 3))
    assert metrics.speed_factor([], 1.0) is None


def test_corrected_times_scale_by_the_speed_factor():
    inv = {"half": "cold", "t_spawn": 0.0, "wall_s": 4.0,
           "probes": [(1.0, 2 * speed.PROBE_REF_S),
                      (3.0, 2 * speed.PROBE_REF_S)]}
    assert run.wall_s(inv) == pytest.approx(2.0)
    assert run.wall_s(inv, correct=False) == 4.0


def test_forked_workers_probe_into_the_same_file(tmp_path):
    # Interval timers do not survive fork(): the records here can only
    # come from the busy child re-arming its own.
    path = tmp_path / "probes"
    code = ("import os, sys; from perfbench import speed; "
            "speed.Probe(sys.argv[1]).install(); "
            "pid = os.fork(); "
            "[sum(range(10000)) for _ in range(3000) if pid == 0]; "
            "os._exit(0) if pid == 0 else os.waitpid(pid, 0)")
    subprocess.run([sys.executable, "-c", code, str(path)], check=True,
                   cwd=run.ROOT, timeout=60)
    probes = speed.read(path)
    assert len(probes) >= 4
    assert all(took > 0 for _, took in probes)


def test_worst_ipc_error_pct():
    records = [_record("a" * 64, instructions=900, elapsed_cycles=1000.0)]
    assert metrics.worst_ipc_error_pct(records, {"Qry1/pv8": 1.0}) == (
        pytest.approx(10.0))


def test_parse_importtime_sums_a_package_and_its_submodules():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:    500000 |     500000 |     scipy.stats._stats_py\n"
            "import time:    100000 |     130000 |   scipy\n"
            "import time:     30000 |      30000 |   scipyx\n"
            "import time:      6000 |     636000 | repro.sim.sampling\n")
    assert metrics.parse_importtime(text, "scipy") == pytest.approx(0.6)
    assert metrics.parse_importtime(text, "numpy") == 0.0


def test_span_self_time_excludes_children():
    dump = {"pid": 1, "spans": [
        ["CMPSimulator._drive", 0.0, 1.0, -1, "k", {"refs": 400}],
        ["TraceCache.get", 0.1, 0.4, 0, "k", {"hit": False}],
        ["TraceCache.get", 0.5, 0.6, 0, "k", {"hit": True}],
    ]}
    view = metrics.SpanView([dump])
    assert view.self_time("CMPSimulator._drive") == pytest.approx(0.6)
    assert view.self_time("TraceCache.get") == pytest.approx(0.4)
    assert view.ratio("TraceCache.get", "hit") == 0.5
    assert view.attr_sum("CMPSimulator._drive", "refs") == 400


def test_absent_hook_marks_its_metrics_absent():
    absent = metrics.absent_metrics(["run_batch"])
    assert set(absent) == {"sim.functional_s", "sim.functional_ns_per_ref",
                           "batchkernel.accept_ratio", "batchkernel.s"}


def test_benchmark_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "figure-detail", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
