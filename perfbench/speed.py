"""Machine-speed probe: corrects host times for a shared CPU's speed.

The benchmark runs on shared virtual CPUs whose speed swings by up to
~1.7x from one second to the next and stays high or low for up to a
minute at a time, as other work lands on the same physical core.  A raw
host time then says as much about the neighbours as about the program:
on a 2-vCPU Xeon (Sapphire Rapids) guest, ten 35-second runs of the
same code spread by 26-32% (quartile distance over median).

The probe measures that speed from inside each invocation.  Every
`PROBE_INTERVAL_S` of user CPU time (ITIMER_VIRTUAL, so an idle process
is never woken) a SIGVTALRM handler times one fixed pure-Python loop and
appends ``(CLOCK_MONOTONIC start, duration)`` to the invocation's probe
file.  Forked workers re-arm the timer and append to the same file.
run.py then scales each interval it measures by the probes that ran in
it (`metrics.speed_factor`)::

    corrected = raw x mean(PROBE_REF_S / probe duration)

which is the time the interval would have taken at the speed at which
the loop takes `PROBE_REF_S`.  Probes are evenly spaced in CPU time, so
the mean weighs each stretch of the interval by how long it lasted.

The correction is partial: when the loop slows by 1.5x the simulator
slows by about 1.35x, so a corrected time still reads a few percent
lower in a slow stretch than in a fast one.  On the guest above,
corrected, ten 35-second runs of each workload spread by 2-5%, and the
medians of two such sets 20 minutes apart differ by at most 6%.  The
probes cost about 1.5% of the CPU time.
"""

import atexit
import os
import signal
import struct
import time

#: User CPU seconds between two probes (per process).
PROBE_INTERVAL_S = 0.02

#: Iterations of the probe loop.
PROBE_LOOP = 2000

#: The loop's duration at the reference speed: about its fastest on the
#: guest above.  A constant, so only ratios between runs carry meaning.
PROBE_REF_S = 2.5e-4

_RECORD = struct.Struct("=dd")


def probe_loop(table, n=PROBE_LOOP):
    """The timed work: stores and loads in a 64-key dict, integer sums."""
    total = 0
    for i in range(n):
        table[i & 63] = i
        total += table[(i * 7) & 63]
    return total


def _arm():
    signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S,
                     PROBE_INTERVAL_S)


def _disarm():
    # Interpreter shutdown restores SIGVTALRM's default action, which
    # would kill the process if the timer were still running.
    signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)


class Probe:
    """Probes this process and every process it forks into ``path``."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                          0o644)
        self.table = dict.fromkeys(range(64), 0)

    def install(self):
        signal.signal(signal.SIGVTALRM, self._on_tick)
        os.register_at_fork(after_in_child=_arm)
        atexit.register(_disarm)
        _arm()

    def _on_tick(self, signum, frame):
        start = time.monotonic()
        probe_loop(self.table)
        took = time.monotonic() - start
        try:
            os.write(self.fd, _RECORD.pack(start, took))
        except OSError:
            pass  # never raise into the program


def read(path):
    """The ``(start, duration)`` probe records of one invocation."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return []
    usable = len(data) - len(data) % _RECORD.size
    return list(_RECORD.iter_unpack(data[:usable]))
