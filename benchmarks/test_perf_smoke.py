"""Performance smoke benchmark: simulator throughput in refs/sec.

Times a fixed workload (Apache, SMS-1K, analytic timing — the hot path
every figure exercises) plus one contended configuration and one
**sampled** configuration (``pv8-sampled``: the two-speed engine of
``repro.sim.sampling``), for comparison with the committed throughput
trajectory ``BENCH_perf.json``.  Most assertions are deliberately loose
(the run must finish and make progress); the JSON is the artifact.  The sampled label carries two hard guarantees on top:

* ``pv8-sampled`` must deliver >= 5x the refs/sec of the full-detail
  ``pv8`` label on the same machine — measured as *interleaved pairs*
  (full run, then sampled run, back to back, three times; the best
  pairwise ratio is used) so load spikes hit both sides of a pair alike;
  both share the process's compiled traces and the sampled run starts
  from the shared warm-state checkpoint, i.e. the steady state of a
  sweep;
* its aggregate-IPC estimate must fall inside the full-detail run's 95%
  confidence interval (windows at the sampling period's grain) — a fully
  deterministic check.

The ``pv8-sampled-vec`` label stacks the vectorized batch functional
path (``repro.sim.batchkernel``, PR 8) on a longer sampling period: it
must deliver >= 2x the refs/sec of ``pv8-sampled`` (interleaved pairs
again), keep its IPC inside the same full-detail 95% CI, and agree
*exactly* with a scalar (``use_vec=False``) run of its own protocol.

The ``pv8-warmstore`` label measures the persistent artifact store
(``repro.runner.artifacts``): a cold run into a fresh store vs the same
run restoring its warm-state checkpoint and compiled traces from disk —
the second sweep invocation's win.  The warm run must beat the cold one
(``vs_cold > 1``), actually hit the store, and produce a bitwise
identical result; the store is scoped to this label, so every other
label runs store-free exactly as before.

The run writes ``benchmarks/results/perf_current.json`` (ignored by
git) and nothing else: the suite never touches a tracked file.  The perf
gate (``benchmarks/check_perf.py``) compares that fresh run against the
committed trajectory ``BENCH_perf.json``.  A change that means to
re-record the trajectory copies the fresh run over it explicitly::

    cp benchmarks/results/perf_current.json BENCH_perf.json
"""

from __future__ import annotations

import json
import pathlib
import platform
import time

from repro.sim import batchkernel
from repro.sim.config import PrefetcherConfig, SystemConfig
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import CMPSimulator
from repro.workloads.registry import get_workload

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
CURRENT_PATH = RESULTS_DIR / "perf_current.json"

#: Fixed measurement workload: big enough to dominate setup cost, small
#: enough to stay a smoke test.
REFS_PER_CORE = 6_000
WARMUP_REFS = 2_000

#: The two-speed layout of the ``pv8-sampled`` label (validated to stay
#: inside the full run's 95% CI at >= 5x throughput; the same shape
#: ``SamplingConfig.for_scale`` derives for this scale).
SAMPLING = SamplingConfig.smarts(
    period_refs=1_500, detail_refs=120, warm_refs=60, functional_refs=220
)

#: Required pv8-sampled vs pv8 throughput ratio on the same machine.
SAMPLED_SPEEDUP_FLOOR = 5.0

#: The ``pv8-sampled-vec`` label: long sampling periods whose big
#: functional spans run on the vectorized batch kernel
#: (``repro.sim.batchkernel``).  Fewer detailed windows per reference
#: moves the wall-clock into functional warming — exactly the stage the
#: kernel accelerates — while the IPC estimate must still land inside the
#: full-detail run's 95% CI (asserted below, like ``pv8-sampled``).
VEC_REFS_PER_CORE = 48_000
VEC_SAMPLING = SamplingConfig.smarts(
    period_refs=12_000, detail_refs=120, warm_refs=60, functional_refs=1_200
)

#: Required pv8-sampled-vec vs pv8-sampled throughput ratio (same
#: machine, interleaved pairs).
VEC_SPEEDUP_FLOOR = 2.0


def _time_once(prefetcher, system=None, window_refs: int = 0,
               refs: int = REFS_PER_CORE, use_vec=None):
    """One timed simulation; returns ``(SimResult, elapsed_seconds)``."""
    workload = get_workload("Apache")
    sim = CMPSimulator(workload, prefetcher, system=system)
    if use_vec is not None:
        sim.use_vec = use_vec
    start = time.perf_counter()
    result = sim.run(
        refs, warmup_refs=WARMUP_REFS, window_refs=window_refs
    )
    return result, time.perf_counter() - start


def _run_dict(label: str, result, elapsed: float,
              refs: int = REFS_PER_CORE) -> dict:
    total_refs = (refs + WARMUP_REFS) * result.n_cores
    return {
        "label": label,
        "workload": "Apache",
        "refs_per_core": refs,
        "warmup_refs": WARMUP_REFS,
        "total_refs": total_refs,
        "elapsed_s": round(elapsed, 4),
        "refs_per_sec": round(total_refs / elapsed, 1),
        "aggregate_ipc": round(result.aggregate_ipc, 4),
    }


def _measure(label: str, prefetcher, system=None, window_refs: int = 0,
             repeats: int = 1):
    """Time one configuration; return ``(run_dict, SimResult)``.

    ``repeats`` > 1 keeps the fastest timing (standard noise reduction);
    the result payload is identical across repeats, so which run's result
    is reported does not matter.
    """
    best = None
    for _ in range(repeats):
        result, elapsed = _time_once(prefetcher, system=system,
                                     window_refs=window_refs)
        if best is None or elapsed < best[1]:
            best = (result, elapsed)
    return _run_dict(label, best[0], best[1]), best[0]


def _measure_sampled_pair():
    """Time full-detail pv8 and two-speed pv8 as interleaved pairs.

    Measures the sweep steady state: the shared warm-state checkpoint is
    built first by a (cheap, untimed) baseline configuration, exactly as
    the first spec of a workload group would leave it for the rest.  The
    full and sampled runs of a pair execute back to back, so a machine
    load spike distorts the pair's *ratio* far less than it distorts
    either timing alone; the reported speedup is the best (least
    contaminated) of three pairwise ratios.

    Returns ``(pv8_run_dict, sampled_run_dict, full_result)``; the
    sampled dict carries the speedup (``vs_pv8``) and CI-containment
    verdict, and ``full_result`` lets later labels reuse the same 95% CI.
    """
    pv8 = PrefetcherConfig.virtualized(8)
    system = SystemConfig.baseline().with_sampling(SAMPLING)
    workload = get_workload("Apache")
    CMPSimulator(workload, PrefetcherConfig.none(), system=system).run(
        1, warmup_refs=WARMUP_REFS
    )
    pairs = []
    for _ in range(3):
        full_result, full_elapsed = _time_once(
            pv8, window_refs=SAMPLING.period_refs
        )
        sampled_result, sampled_elapsed = _time_once(pv8, system=system)
        pairs.append(
            (full_result, full_elapsed, sampled_result, sampled_elapsed)
        )
    full_result, full_elapsed = min(
        ((p[0], p[1]) for p in pairs), key=lambda t: t[1]
    )
    sampled_result, sampled_elapsed = min(
        ((p[2], p[3]) for p in pairs), key=lambda t: t[1]
    )
    speedup = max(p[1] / p[3] for p in pairs)
    pv8_run = _run_dict("pv8", full_result, full_elapsed)
    sampled_run = _run_dict("pv8-sampled", sampled_result, sampled_elapsed)
    ci = full_result.ipc_ci()
    sampled_run["sampling"] = {
        "period_refs": SAMPLING.period_refs,
        "detail_refs": SAMPLING.detail_refs,
        "warm_refs": SAMPLING.warm_refs,
        "functional_refs": SAMPLING.functional_refs,
    }
    sampled_run["vs_pv8"] = round(speedup, 2)
    sampled_run["full_ipc_ci95"] = [round(ci.lower, 4), round(ci.upper, 4)]
    sampled_run["ipc_in_full_ci"] = ci.contains(sampled_result.aggregate_ipc)
    return pv8_run, sampled_run, full_result


def _measure_vec_sampled(full_result):
    """Time the ``pv8-sampled-vec`` label against ``pv8-sampled``.

    The vec label runs 8x the references of ``pv8-sampled`` under 8x the
    sampling period (same detailed/warm window sizes, so the detail
    budget per reference shrinks and the functional stage — the one the
    batch kernel vectorizes — dominates).  Both labels are timed back to
    back as interleaved pairs and the best pairwise *refs/sec* ratio is
    the speedup, mirroring ``_measure_sampled_pair``.  Validity gate: the
    vec label's IPC estimate must land inside the full-detail run's 95%
    CI, same as ``pv8-sampled``.  A scalar (``use_vec=False``) run of the
    identical protocol is recorded informationally and must agree with
    the vectorized run's IPC exactly (determinism guarantee).
    """
    pv8 = PrefetcherConfig.virtualized(8)
    base_system = SystemConfig.baseline().with_sampling(SAMPLING)
    vec_system = SystemConfig.baseline().with_sampling(VEC_SAMPLING)
    workload = get_workload("Apache")
    CMPSimulator(workload, PrefetcherConfig.none(), system=vec_system).run(
        1, warmup_refs=WARMUP_REFS
    )
    n = full_result.n_cores
    sampled_total = (REFS_PER_CORE + WARMUP_REFS) * n
    vec_total = (VEC_REFS_PER_CORE + WARMUP_REFS) * n
    pairs = []
    for _ in range(3):
        _, sampled_elapsed = _time_once(pv8, system=base_system)
        vec_result, vec_elapsed = _time_once(
            pv8, system=vec_system, refs=VEC_REFS_PER_CORE
        )
        pairs.append((sampled_elapsed, vec_result, vec_elapsed))
    vec_result, vec_elapsed = min(
        ((p[1], p[2]) for p in pairs), key=lambda t: t[1]
    )
    speedup = max(
        (vec_total / p[2]) / (sampled_total / p[0]) for p in pairs
    )
    scalar_result, scalar_elapsed = _time_once(
        pv8, system=vec_system, refs=VEC_REFS_PER_CORE, use_vec=False
    )
    run = _run_dict("pv8-sampled-vec", vec_result, vec_elapsed,
                    refs=VEC_REFS_PER_CORE)
    run["sampling"] = {
        "period_refs": VEC_SAMPLING.period_refs,
        "detail_refs": VEC_SAMPLING.detail_refs,
        "warm_refs": VEC_SAMPLING.warm_refs,
        "functional_refs": VEC_SAMPLING.functional_refs,
    }
    run["vectorized"] = batchkernel.default_enabled()
    run["vs_pv8_sampled"] = round(speedup, 2)
    run["vs_scalar_same_shape"] = round(scalar_elapsed / vec_elapsed, 2)
    ci = full_result.ipc_ci()
    run["full_ipc_ci95"] = [round(ci.lower, 4), round(ci.upper, 4)]
    run["ipc_in_full_ci"] = ci.contains(vec_result.aggregate_ipc)
    run["scalar_ipc_identical"] = (
        scalar_result.aggregate_ipc == vec_result.aggregate_ipc
    )
    return run


def _measure_warmstore():
    """Time the ``pv8-warmstore`` label: cold vs warm persistent store.

    Each trial gets a fresh artifact-store directory and empties both
    in-process caches before each timed run, so the *cold* run computes
    (and writes behind) every warm-state checkpoint and compiled trace,
    and the *warm* run — the second invocation of the same sweep, as a
    fresh process would see it — restores everything from disk.  Cold and
    warm execute back to back per trial (interleaved pairs, like the
    other sampled labels) and the best pairwise ratio is the reported
    speedup.  Validity gates: the warm run's result is bitwise identical
    to the cold run's, and it actually hit the store.
    """
    import shutil
    import tempfile

    from repro.runner import artifacts
    from repro.sim.simulator import WARM_STATE_CACHE
    from repro.workloads.generator import TRACE_CACHE

    pv8 = PrefetcherConfig.virtualized(8)
    system = SystemConfig.baseline().with_sampling(SAMPLING)
    pairs = []
    hits = {}
    try:
        for _ in range(3):
            root = tempfile.mkdtemp(prefix="perf-warmstore-")
            store = artifacts.ArtifactStore(root)
            artifacts.set_active(store)
            try:
                WARM_STATE_CACHE.clear()
                TRACE_CACHE.clear()
                cold_result, cold_elapsed = _time_once(pv8, system=system)
                WARM_STATE_CACHE.clear()
                TRACE_CACHE.clear()
                warm_result, warm_elapsed = _time_once(pv8, system=system)
                pairs.append(
                    (cold_result, cold_elapsed, warm_result, warm_elapsed)
                )
                hits = {
                    "warm_hits": store.warm_hits,
                    "trace_hits": store.trace_hits,
                    "quarantined": store.quarantined,
                }
            finally:
                artifacts.set_active(None)
                shutil.rmtree(root, ignore_errors=True)
    finally:
        WARM_STATE_CACHE.clear()
        TRACE_CACHE.clear()
    cold_result, cold_elapsed = min(
        ((p[0], p[1]) for p in pairs), key=lambda t: t[1]
    )
    warm_result, warm_elapsed = min(
        ((p[2], p[3]) for p in pairs), key=lambda t: t[1]
    )
    run = _run_dict("pv8-warmstore", warm_result, warm_elapsed)
    run["cold_refs_per_sec"] = round(run["total_refs"] / cold_elapsed, 1)
    run["vs_cold"] = round(max(p[1] / p[3] for p in pairs), 2)
    run["store"] = hits
    run["result_identical"] = all(
        p[0] == p[2] for p in pairs
    ) and cold_result == warm_result
    return run


def test_perf_smoke():
    sms_run, _ = _measure("sms-1k", PrefetcherConfig.dedicated(1024, 11))
    # The pv8 label records per-window IPCs at the sampling period's grain
    # so the sampled label can be validated against its 95% CI; full and
    # sampled runs are timed as interleaved pairs for a stable ratio.
    pv8_run, sampled_run, full_result = _measure_sampled_pair()
    contended_run, _ = _measure(
        "pv8-contended-1ch",
        PrefetcherConfig.virtualized(8),
        system=SystemConfig.baseline().with_contention(dram_channels=1),
    )
    vec_run = _measure_vec_sampled(full_result)
    warmstore_run = _measure_warmstore()
    runs = [sms_run, pv8_run, contended_run, sampled_run, vec_run,
            warmstore_run]
    payload = {
        "bench": "perf_smoke",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": runs,
    }
    text = json.dumps(payload, indent=1) + "\n"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    CURRENT_PATH.write_text(text)

    for run in runs:
        # Progress, not speed: wildly slow CI boxes must not flake here.
        assert run["refs_per_sec"] > 100, run
        assert run["aggregate_ipc"] > 0, run

    # The sampled engine's two hard guarantees (machine-relative, so they
    # hold on slow boxes too): the speedup floor and statistical validity.
    assert sampled_run["vs_pv8"] >= SAMPLED_SPEEDUP_FLOOR, sampled_run
    assert sampled_run["ipc_in_full_ci"], sampled_run

    # The vectorized label's guarantees: throughput over pv8-sampled,
    # statistical validity, and scalar/vec determinism on one protocol.
    # The kernel engages whenever the environment allows it (the suite
    # also runs under REPRO_VEC=0, where the same label must still hold:
    # the long-period protocol beats pv8-sampled on the scalar path too,
    # and the IPC estimate is identical by construction).
    assert vec_run["vectorized"] == batchkernel.default_enabled(), vec_run
    assert vec_run["vs_pv8_sampled"] >= VEC_SPEEDUP_FLOOR, vec_run
    assert vec_run["ipc_in_full_ci"], vec_run
    assert vec_run["scalar_ipc_identical"], vec_run

    # The persistent-store label's guarantees: the warm (second)
    # invocation restored from disk, beat the cold one, and changed
    # nothing about the result.
    assert warmstore_run["store"]["warm_hits"] > 0, warmstore_run
    assert warmstore_run["store"]["trace_hits"] > 0, warmstore_run
    assert warmstore_run["store"]["quarantined"] == 0, warmstore_run
    assert warmstore_run["result_identical"], warmstore_run
    assert warmstore_run["vs_cold"] > 1.0, warmstore_run
