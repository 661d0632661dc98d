"""In-process tracing for one traced benchmark invocation.

Everything here is installed from outside the program: the tracer wraps
public boundaries of the `repro` layers (and the stage methods `repro
profile --sampled` already wraps) with span recorders, registers a
`gc.callbacks` hook, and runs a SIGPROF sampling profiler.  Nothing in
`src/` is edited.

* Spans: name, start, end, parent and the spec key, kept in memory and
  written to `<dir>/spans-<pid>-<n>.json` when the process finishes.
  Forked sweep workers inherit the hooks; after the fork they start
  with empty buffers and write their own files after every top-level
  span (a worker's last act is publishing, and it may be terminated
  rather than exit cleanly), so run.py can merge every process.
* GC pauses: the `start`/`stop` phases of `gc.callbacks`.
* Module shares: every 2 ms of process CPU time (ITIMER_PROF) the
  handler attributes one sample to the innermost `repro` frame's
  module.  The invocation process samples only inside `SweepRunner.run`
  (the resolve phase); workers sample for their whole life, which is
  all resolve phase.  cProfile would instrument every call and distort
  the split; a sampler costs the same per sample wherever it lands.

A hooked name that no longer exists is recorded in `absent`, and the
metrics that depend on it are reported as absent by run.py.
"""

import gc
import importlib
import json
import os
import signal
import threading
import time

#: Seconds of process CPU time between profiler samples.
SAMPLE_INTERVAL_S = 0.002

#: (module, attribute path) of every span boundary.
SPAN_TARGETS = (
    ("repro.study.matrix", "StudyMatrix.expand"),
    ("repro.runner.sweep", "SweepRunner.run"),
    ("repro.runner.broker", "JobBroker.submit"),
    ("repro.runner.broker", "JobBroker.lease"),
    ("repro.runner.broker", "JobBroker.complete"),
    ("repro.runner.store", "ResultStore.get"),
    ("repro.runner.store", "ResultStore.get_by_key"),
    ("repro.runner.store", "ResultStore.put"),
    ("repro.runner.spec", "ExperimentSpec.execute"),
    ("repro.sim.simulator", "CMPSimulator.__init__"),
    ("repro.sim.simulator", "CMPSimulator.run"),
    ("repro.sim.simulator", "CMPSimulator._drive"),
    ("repro.sim.simulator", "CMPSimulator._drive_functional"),
    ("repro.sim.simulator", "CMPSimulator._skip"),
    ("repro.sim.simulator", "CMPSimulator._restore_warm_state"),
    ("repro.sim.simulator", "WarmStateCache.get"),
    ("repro.sim.simulator", "WarmStateCache.put"),
    ("repro.workloads.generator", "TraceCache.get"),
    ("repro.workloads.generator", "WorkloadGenerator.compile_trace"),
    ("repro.sim.batchkernel", "run_batch"),
    ("repro.runner.artifacts", "ArtifactStore.get_warm_state"),
    ("repro.runner.artifacts", "ArtifactStore.put_warm_state"),
    ("repro.runner.artifacts", "ArtifactStore.get_trace"),
    ("repro.runner.artifacts", "ArtifactStore.put_trace"),
)

#: Counted, not spanned: every generated record passes through here.
COUNT_TARGETS = (("repro.workloads.generator", "WorkloadGenerator.records"),)

#: Path below the `repro` package -> profiler bucket, most specific first.
MODULE_BUCKETS = (
    ("memory/cache.py", "memory.cache"),
    ("memory/contention.py", "memory.contention"),
    ("memory/main_memory.py", "memory.contention"),
    ("memory/mshr.py", "memory.contention"),
    ("memory/", "memory.hierarchy"),
    ("prefetch/", "prefetch"),
    ("sim/engines.py", "engines"),
    ("sim/", "sim"),
    ("core/", "core"),
    ("cpu/", "cpu"),
    ("workloads/", "workloads"),
    ("runner/", "runner"),
    ("study/", "study"),
    ("", "other"),
)


def module_bucket(filename: str, package_dir: str):
    """The profiler bucket of a code object's file, or None if not repro."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):].replace(os.sep, "/")
    for head, bucket in MODULE_BUCKETS:
        if rel.startswith(head):
            return bucket
    return "other"


def resolve(module: str, path: str):
    """``(owner, attribute, function)`` or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None)
    if fn is None or not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Span, GC and sample recorder for the current process tree."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self.absent = []
        self.package_dir = ""
        self._main_thread = threading.get_ident()
        self._filename_buckets = {}
        self._reset()
        gc.callbacks.append(self._on_gc)
        signal.signal(signal.SIGPROF, self._on_sample)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.spans = []
        self.stack = []
        self.samples = {}
        self.sampling = False
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self.counters = {"generated_records": 0, "queue_wait_s": 0.0}
        self._gc_start = None
        self._submitted = {}
        self._flushes = 0
        self._key = None

    # ----------------------------------------------------------- hooks

    def install(self) -> None:
        import repro

        self.package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        probes = {
            "TraceCache.get": (_hits_before, _trace_cache_after),
            "WarmStateCache.get": (None, _hit_after),
            "ArtifactStore.get_warm_state": (_quarantined_before,
                                             _artifact_get_after),
            "ArtifactStore.get_trace": (_quarantined_before,
                                        _artifact_get_after),
            "ArtifactStore.put_warm_state": (_bytes_before,
                                             _artifact_put_after),
            "ArtifactStore.put_trace": (_bytes_before, _artifact_put_after),
            "run_batch": (None, _batch_after),
            "CMPSimulator._drive": (None, _refs_after),
            "CMPSimulator._drive_functional": (None, _refs_after),
            "CMPSimulator._skip": (None, _refs_after),
            "JobBroker.submit": (None, self._submit_after),
            "JobBroker.lease": (None, self._lease_after),
        }
        for module, path in SPAN_TARGETS:
            found = resolve(module, path)
            if found is None:
                self.absent.append(path)
                continue
            owner, attr, fn = found
            before, after = probes.get(path, (None, None))
            setattr(owner, attr, self._wrap(path, fn, before, after))
        for module, path in COUNT_TARGETS:
            found = resolve(module, path)
            if found is None:
                self.absent.append(path)
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._count_records(fn))
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def _wrap(self, name, fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main_thread:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            index = tracer._open(name, args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(
                    index, after(args, state, result) if after else None)

        traced.__wrapped__ = fn
        return traced

    def _count_records(self, fn):
        tracer = self

        def counted(generator, n, *args, **kwargs):
            tracer.counters["generated_records"] += n
            return fn(generator, n, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span (for calls the invocation makes itself)."""
        index = self._open(name, ())
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, None)

    def _submit_after(self, args, state, result):
        now = time.monotonic()
        for spec in args[1]:
            self._submitted.setdefault(spec.key, now)

    def _lease_after(self, args, state, result):
        if result is not None:
            submitted = self._submitted.get(result.key)
            if submitted is not None:
                self.counters["queue_wait_s"] += time.monotonic() - submitted

    # ----------------------------------------------------------- spans

    def _open(self, name, args) -> int:
        if name == "ExperimentSpec.execute" and args:
            self._key = args[0].key
        elif name == "SweepRunner.run":
            self.sampling = True
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent, self._key,
                           None])
        self.stack.append(index)
        return index

    def _close(self, index, attrs) -> None:
        span = self.spans[index]
        span[2] = time.monotonic()
        span[5] = attrs
        while self.stack and self.stack.pop() != index:
            pass
        if span[0] == "ExperimentSpec.execute":
            self._key = None
        elif span[0] == "SweepRunner.run" and os.getpid() == self.root_pid:
            self.sampling = False
        if not self.stack and os.getpid() != self.root_pid:
            self.flush()

    # ------------------------------------------------------ GC, samples

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.monotonic()
        elif self._gc_start is not None:
            self.gc_pause_s += time.monotonic() - self._gc_start
            self.gc_collections[info["generation"]] += 1
            self._gc_start = None

    def _on_sample(self, signum, frame) -> None:
        if not self.sampling:
            return
        buckets = self._filename_buckets
        bucket = None
        while frame is not None:
            filename = frame.f_code.co_filename
            bucket = buckets.get(filename, False)
            if bucket is False:
                bucket = buckets[filename] = module_bucket(
                    filename, self.package_dir)
            if bucket is not None:
                break
            frame = frame.f_back
        bucket = bucket or "outside"
        self.samples[bucket] = self.samples.get(bucket, 0) + 1

    # ---------------------------------------------------------- output

    def _after_fork(self) -> None:
        self._reset()
        self.sampling = True
        self._main_thread = threading.get_ident()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def flush(self) -> None:
        """Write (and drop) everything recorded since the last flush.

        Only called with no span open: at the end of the invocation, or
        in a worker between specs.
        """
        dump = {
            "pid": os.getpid(),
            "root": os.getpid() == self.root_pid,
            "spans": self.spans,
            "samples": self.samples,
            "sample_interval_s": SAMPLE_INTERVAL_S,
            "gc_pause_s": self.gc_pause_s,
            "gc_collections": self.gc_collections,
            "counters": self.counters,
            "absent": self.absent,
        }
        path = os.path.join(
            self.out_dir, f"spans-{os.getpid()}-{self._flushes}.json")
        self._flushes += 1
        with open(path, "w") as handle:
            json.dump(dump, handle)
        self.spans = []
        self.samples = {}
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self.counters = {key: 0 for key in self.counters}

    def finish(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.sampling = False
        self.flush()


# ------------------------------------------------------ attribute probes
#
# ``before(args)`` captures a counter ahead of the call; ``after(args,
# state, result)`` turns it into the span's attributes.


def _hits_before(args):
    return args[0].hits


def _trace_cache_after(args, hits, result):
    return {"hit": args[0].hits > hits}


def _hit_after(args, state, result):
    return {"hit": result is not None}


def _quarantined_before(args):
    return args[0].quarantined


def _artifact_get_after(args, quarantined, result):
    return {"hit": result is not None,
            "quarantined": args[0].quarantined - quarantined}


def _bytes_before(args):
    return args[0].write_bytes


def _artifact_put_after(args, written, result):
    return {"bytes": args[0].write_bytes - written}


def _batch_after(args, state, result):
    return {"accepted": bool(result), "refs": args[1] * len(args[0].cores)}


def _refs_after(args, state, result):
    return {"refs": args[1] * len(args[0].cores)}
