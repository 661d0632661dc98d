"""Metric arithmetic for perfbench/run.py (pure functions, no I/O).

End-to-end numbers are medians over the invocations of one run, each
host time corrected for the machine's speed (`speed_factor`); the
traced run's per-layer numbers are computed per sample (one invocation,
or the cold+warm pair of `sweep-roundtrip`) and reported as medians over
the traced samples.  Within a sample, times and counts are sums and
ratios are taken of the summed parts.
"""

import hashlib
import json
import statistics


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def speed_factor(probes, ref_s, start=float("-inf"), end=float("inf")):
    """mean(ref_s / duration) over the probes that started in [start, end].

    ``probes`` are ``(start, duration)`` records (see perfbench/speed.py);
    a host time multiplied by this factor is the time at the reference
    speed.  An interval no probe fell into takes the factor of all the
    probes; with no probe at all the factor is None.
    """
    inside = [ref_s / took for t, took in probes if start <= t <= end]
    if not inside:
        inside = [ref_s / took for _, took in probes]
    return sum(inside) / len(inside) if inside else None


def reference_count(spec, n_cores):
    """References one spec covers: (refs + warm-up) per core, all cores.

    Sampled specs count the references they skip or warm functionally
    too: the figure a sampled run stands in for covers the whole trace.
    """
    scale = spec["scale"]
    return (scale["refs_per_core"] + scale["warmup_refs"]) * n_cores


def result_digest(result):
    """SHA-256 of a result dict's canonical JSON (sorted, compact)."""
    canonical = json.dumps(
        result, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def aggregate_ipc(result):
    cycles = result["elapsed_cycles"]
    return result["instructions"] / cycles if cycles > 0 else 0.0


def point_label(record):
    """`workload/config` of a study record (seed and sampling excluded)."""
    coords = record["coords"]
    return f"{coords['workload']}/{coords['config']}"


def worst_ipc_error_pct(records, reference_ipcs):
    """Largest |sampled - full| / full aggregate IPC, in percent."""
    worst = 0.0
    for record in records:
        full = reference_ipcs[point_label(record)]
        err = abs(aggregate_ipc(record["result"]) - full) / full * 100.0
        worst = max(worst, err)
    return worst


def parse_importtime(text, package):
    """Seconds `python -X importtime` attributes to ``package``.

    The sum of the self times of the package and all its submodules:
    nested submodules are logged on their own lines, and a package
    pulled in through a `from` import may have no line of its own.
    """
    total_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name == package or name.startswith(package + "."):
            try:
                total_us += int(parts[0])
            except ValueError:
                continue
    return total_us / 1e6


# --------------------------------------------------------------- spans


def span_times(dump):
    """Per span: (name, duration, self time, outermost-ancestor names).

    Self time is the duration minus the time covered by direct child
    spans; ancestors are the names on the path to the root, used to find
    the outermost span of a family (e.g. ResultStore.get around
    get_by_key).
    """
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, key, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = []
    for i, (name, start, end, parent, key, attrs) in enumerate(spans):
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        out.append((name, end - start, end - start - child_time[i],
                    ancestors, attrs or {}, dump["pid"]))
    return out


class SpanView:
    """Queries over every span of one sample (all invocations, all pids)."""

    def __init__(self, dumps):
        self.rows = [row for dump in dumps for row in span_times(dump)]

    def calls(self, *names):
        return [r for r in self.rows if r[0] in names]

    def outermost(self, *names):
        """Spans of ``names`` not nested inside another of ``names``."""
        family = set(names)
        return [r for r in self.calls(*names) if not (r[3] & family)]

    def total(self, *names):
        return sum(r[1] for r in self.outermost(*names))

    def self_time(self, *names):
        return sum(r[2] for r in self.calls(*names))

    def attr_sum(self, name, attr):
        return sum(r[4].get(attr, 0) for r in self.calls(name))

    def mean_ms(self, *names):
        rows = self.outermost(*names)
        return sum(r[1] for r in rows) / len(rows) * 1e3 if rows else 0.0

    def ratio(self, name, attr):
        rows = self.calls(name)
        if not rows:
            return 0.0
        return sum(1 for r in rows if r[4].get(attr)) / len(rows)


#: Per-layer metric -> (unit, hooked names it needs).
LAYER_METRICS = {
    "import.total_s": ("s", ()),
    "import.scipy_s": ("s", ()),
    "study.expand_s": ("s", ("StudyMatrix.expand",)),
    "study.output_s": ("s", ()),
    "runner.overhead_ms_per_spec": ("ms", ("SweepRunner.run",
                                           "ExperimentSpec.execute")),
    "broker.queue_wait_s": ("s", ("JobBroker.submit", "JobBroker.lease")),
    "broker.leases": ("count", ()),
    "broker.retries": ("count", ()),
    "broker.expirations": ("count", ()),
    "broker.quarantined": ("count", ()),
    "store.put_ms": ("ms", ("ResultStore.put",)),
    "store.get_ms": ("ms", ("ResultStore.get", "ResultStore.get_by_key")),
    "artifacts.put_s": ("s", ("ArtifactStore.put_warm_state",
                              "ArtifactStore.put_trace")),
    "artifacts.get_s": ("s", ("ArtifactStore.get_warm_state",
                              "ArtifactStore.get_trace")),
    "artifacts.bytes_written": ("bytes", ("ArtifactStore.put_warm_state",
                                          "ArtifactStore.put_trace")),
    "artifacts.write_amplification": ("ratio", (
        "ArtifactStore.put_warm_state", "ArtifactStore.put_trace")),
    "artifacts.trace_hits": ("count", ("ArtifactStore.get_trace",)),
    "artifacts.warm_hits": ("count", ("ArtifactStore.get_warm_state",)),
    "artifacts.quarantined": ("count", ("ArtifactStore.get_warm_state",
                                        "ArtifactStore.get_trace")),
    "tracegen.s": ("s", ("TraceCache.get", "WorkloadGenerator.compile_trace")),
    "tracegen.records": ("count", ("WorkloadGenerator.records",)),
    "tracegen.ns_per_record": ("ns", ("TraceCache.get",
                                      "WorkloadGenerator.compile_trace",
                                      "WorkloadGenerator.records")),
    "tracegen.cache_hit_ratio": ("ratio", ("TraceCache.get",)),
    "sim.construct_ms": ("ms", ("CMPSimulator.__init__",)),
    "gc.pause_s": ("s", ()),
    "gc.gen2_collections": ("count", ()),
    "sim.detail_s": ("s", ("CMPSimulator._drive",)),
    "sim.detail_ns_per_ref": ("ns", ("CMPSimulator._drive",)),
    "sim.functional_s": ("s", ("CMPSimulator._drive_functional",
                               "run_batch")),
    "sim.functional_ns_per_ref": ("ns", ("CMPSimulator._drive_functional",
                                         "run_batch")),
    "sim.skip_s": ("s", ("CMPSimulator._skip",)),
    "sim.warm_restore_s": ("s", ("CMPSimulator._restore_warm_state",)),
    "warmstate.hit_ratio": ("ratio", ("WarmStateCache.get",)),
    "batchkernel.accept_ratio": ("ratio", ("run_batch",)),
    "batchkernel.s": ("s", ("run_batch",)),
    "host.memory.cache_share": ("%", ()),
    "host.memory.hierarchy_share": ("%", ()),
    "host.memory.contention_share": ("%", ()),
    "host.prefetch_share": ("%", ()),
    "host.engines_share": ("%", ()),
    "host.core_share": ("%", ()),
    "host.cpu_share": ("%", ()),
    "host.workloads_share": ("%", ()),
    "host.sim_share": ("%", ()),
    "host.runner_share": ("%", ()),
    "mem.l2_requests": ("count", ()),
    "mem.offchip_transfers": ("count", ()),
    "mem.dram_queue_cycles": ("cycles", ()),
    "mem.mshr_rejected": ("count", ()),
    "memory.ns_per_l2_request": ("ns", ()),
    "pf.trigger_lookups": ("count", ()),
    "pf.prefetches_issued": ("count", ()),
    "engines.lookups": ("count", ()),
    "pv.l2_requests": ("count", ()),
    "pv.pvcache_hit_rate": ("ratio", ()),
    "pv.l2_fill_rate": ("ratio", ()),
    "pv.dropped": ("count", ()),
    "accuracy.sampled_ipc_err_pct": ("%", ()),
    "tracing.overhead_pct": ("%", ()),
}

#: Profiler bucket behind each host share metric.
SHARE_BUCKETS = {
    "host.memory.cache_share": ("memory.cache",),
    "host.memory.hierarchy_share": ("memory.hierarchy",),
    "host.memory.contention_share": ("memory.contention",),
    "host.prefetch_share": ("prefetch",),
    "host.engines_share": ("engines",),
    "host.core_share": ("core",),
    "host.cpu_share": ("cpu",),
    "host.workloads_share": ("workloads",),
    "host.sim_share": ("sim",),
    "host.runner_share": ("runner",),
}


def simulated_counts(records):
    """Simulated per-layer counts summed over one invocation's records."""
    results = [r["result"] for r in records]
    pv = [r for r in results if r["l2_pv_requests"] > 0]
    return {
        "mem.l2_requests": sum(r["l2_requests"] for r in results),
        "mem.offchip_transfers": sum(
            r["offchip_reads"] + r["offchip_writes"] for r in results),
        "mem.dram_queue_cycles": sum(r["dram_queue_cycles"] for r in results),
        "mem.mshr_rejected": sum(r["mshr_rejected"] for r in results),
        "pf.trigger_lookups": sum(r["trigger_lookups"] for r in results),
        "pf.prefetches_issued": sum(r["prefetches_issued"] for r in results),
        "engines.lookups": sum(
            stats.get("lookups", 0)
            for r in results for stats in r["engine_stats"].values()),
        "pv.l2_requests": sum(r["l2_pv_requests"] for r in results),
        "pv.pvcache_hit_rate": (
            sum(r["pvcache_hit_rate"] for r in pv) / len(pv) if pv else 0.0),
        "pv.l2_fill_rate": (
            sum(r["pv_l2_fill_rate"] for r in pv) / len(pv) if pv else 0.0),
        "pv.dropped": sum(r["pv_dropped"] for r in results),
    }


def layer_sample(invocations, artifact_bytes_on_disk):
    """Per-layer values of one traced sample.

    ``invocations`` are dicts with ``report`` (invoke.py's report),
    ``dumps`` (every span file of the invocation), ``importtime``
    (its stderr) and ``records`` (its study JSONL).
    """
    dumps = [d for inv in invocations for d in inv["dumps"]]
    view = SpanView(dumps)
    reports = [inv["report"] for inv in invocations]
    out = {}
    out["import.total_s"] = sum(r["import_s"] for r in reports)
    out["import.scipy_s"] = sum(
        parse_importtime(inv["importtime"], "scipy")
        for inv in invocations)
    out["study.expand_s"] = view.total("load_matrix", "StudyMatrix.expand")
    out["study.output_s"] = view.total("write_jsonl", "evaluate_checks")

    overhead_s = 0.0
    computed = 0
    for inv in invocations:
        inv_view = SpanView(inv["dumps"])
        executes = inv_view.calls("ExperimentSpec.execute")
        workers = len({r[5] for r in executes}) or 1
        resolve = inv["report"]["t_run_exit"] - inv["report"]["t_run_enter"]
        overhead_s += resolve - sum(r[1] for r in executes) / workers
        computed += len(executes)
    out["runner.overhead_ms_per_spec"] = (
        overhead_s / computed * 1e3 if computed else 0.0)
    out["broker.queue_wait_s"] = sum(
        d["counters"].get("queue_wait_s", 0.0) for d in dumps)
    for stat in ("leases", "retries", "expirations", "quarantined"):
        out[f"broker.{stat}"] = sum(r["broker"].get(stat, 0) for r in reports)
    out["store.put_ms"] = view.mean_ms("ResultStore.put")
    out["store.get_ms"] = view.mean_ms("ResultStore.get",
                                       "ResultStore.get_by_key")

    puts = ("ArtifactStore.put_warm_state", "ArtifactStore.put_trace")
    gets = ("ArtifactStore.get_warm_state", "ArtifactStore.get_trace")
    out["artifacts.put_s"] = view.total(*puts)
    out["artifacts.get_s"] = view.total(*gets)
    written = sum(view.attr_sum(name, "bytes") for name in puts)
    out["artifacts.bytes_written"] = written
    out["artifacts.write_amplification"] = (
        written / artifact_bytes_on_disk if artifact_bytes_on_disk else 0.0)
    out["artifacts.trace_hits"] = view.attr_sum("ArtifactStore.get_trace",
                                                "hit")
    out["artifacts.warm_hits"] = view.attr_sum(
        "ArtifactStore.get_warm_state", "hit")
    out["artifacts.quarantined"] = sum(
        view.attr_sum(name, "quarantined") for name in gets)

    tracegen_s = view.self_time("TraceCache.get",
                                "WorkloadGenerator.compile_trace")
    records = sum(d["counters"].get("generated_records", 0) for d in dumps)
    out["tracegen.s"] = tracegen_s
    out["tracegen.records"] = records
    out["tracegen.ns_per_record"] = (
        tracegen_s / records * 1e9 if records else 0.0)
    out["tracegen.cache_hit_ratio"] = view.ratio("TraceCache.get", "hit")

    out["sim.construct_ms"] = view.mean_ms("CMPSimulator.__init__")
    out["gc.pause_s"] = sum(d["gc_pause_s"] for d in dumps)
    out["gc.gen2_collections"] = sum(d["gc_collections"][2] for d in dumps)

    detail_s = view.self_time("CMPSimulator._drive")
    detail_refs = view.attr_sum("CMPSimulator._drive", "refs")
    out["sim.detail_s"] = detail_s
    out["sim.detail_ns_per_ref"] = (
        detail_s / detail_refs * 1e9 if detail_refs else 0.0)
    functional_s = view.self_time("CMPSimulator._drive_functional",
                                  "run_batch")
    functional_refs = view.attr_sum("CMPSimulator._drive_functional", "refs")
    out["sim.functional_s"] = functional_s
    out["sim.functional_ns_per_ref"] = (
        functional_s / functional_refs * 1e9 if functional_refs else 0.0)
    out["sim.skip_s"] = view.self_time("CMPSimulator._skip")
    out["sim.warm_restore_s"] = view.self_time(
        "CMPSimulator._restore_warm_state")
    out["warmstate.hit_ratio"] = view.ratio("WarmStateCache.get", "hit")
    out["batchkernel.accept_ratio"] = view.ratio("run_batch", "accepted")
    out["batchkernel.s"] = view.self_time("run_batch")

    samples = {}
    interval = 0.0
    for d in dumps:
        interval = d["sample_interval_s"]
        for bucket, n in d["samples"].items():
            samples[bucket] = samples.get(bucket, 0) + n
    total = sum(samples.values())
    for metric, buckets in SHARE_BUCKETS.items():
        hits = sum(samples.get(b, 0) for b in buckets)
        out[metric] = hits / total * 100.0 if total else 0.0

    out.update(simulated_counts(invocations[0]["records"]))
    l2_requests = sum(
        simulated_counts(inv["records"])["mem.l2_requests"]
        for inv in invocations)
    memory_s = interval * sum(
        samples.get(b, 0)
        for b in ("memory.cache", "memory.hierarchy", "memory.contention"))
    out["memory.ns_per_l2_request"] = (
        memory_s / l2_requests * 1e9 if l2_requests else 0.0)
    return out


def absent_metrics(absent_names):
    """Per-layer metrics whose hooked names are gone, with the reason."""
    gone = set(absent_names)
    return {
        metric: "hook gone: " + ", ".join(sorted(gone & set(needs)))
        for metric, (_, needs) in LAYER_METRICS.items()
        if gone & set(needs)
    }
