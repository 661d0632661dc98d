"""SMARTS-style statistical sampling support (Section 4.1).

The paper measures speedups with the SMARTS systematic-sampling methodology
(detailed warming + short measurement windows), reports 95% confidence
intervals, and uses matched-pair comparison (Ekman & Stenstrom) to measure
performance *differences* with far fewer samples than independent
measurement would need.

This module provides both halves of that machinery:

* :class:`SamplingConfig` — the execution-side knobs of the two-speed
  simulator (:meth:`repro.sim.simulator.CMPSimulator.run`): how long each
  systematic-sampling period is, and how much of it runs at which fidelity
  (fast skip / functional warming / detailed warm-up / measured window);
* :func:`confidence_interval` — batch-means mean and t-based CI over the
  per-window aggregate-IPC samples the simulator records;
* :func:`matched_pair` — per-window deltas between two runs over the same
  trace (our generators are deterministic, so windows align exactly),
  yielding the paired CI the paper's error bars correspond to.

The t quantile behind both is exact and pure Python (a continued-fraction
incomplete beta inverted by Newton-bisection), so every interval is the
same number on every machine and importing this module loads no
:mod:`scipy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# --------------------------------------------------------------------------
# Execution-side configuration: the two-speed engine's knobs.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingConfig:
    """How a sampled simulation spends each systematic-sampling period.

    Every period of ``period_refs`` references per core is laid out as::

        [ fast skip | functional warming | detailed warm-up | measurement ]

    back to front: the measured window (``detail_refs``, full timing, one
    aggregate-IPC sample) is preceded by a detailed warm-up
    (``warm_refs``, full timing, discarded — re-warms the small structures:
    L1s, MSHRs, queues), preceded by a functional-warming ramp
    (``functional_refs`` — cache/predictor/PV state updates through the
    array-backed fast paths, no timing model, no contention queues),
    and whatever remains of the period is skipped outright (the trace
    cursor advances over the precompiled trace; microarchitectural state
    stays as the previous window left it — SMARTS' "stale state" option,
    which the warming ramp then refreshes with the most recent history).

    ``functional_refs`` large enough to fill the period degenerates to
    full SMARTS functional warming; ``detail_refs + warm_refs ==
    period_refs`` degenerates to today's full-detail windowed run.

    ``shared_warm`` controls the *initial* warm-up phase (the
    ``warmup_refs`` argument of ``run``): when True it runs as demand-only
    functional warming — a pure function of (workload, seed, region,
    hierarchy geometry), so the resulting state is checkpointed
    process-wide and reused by every configuration that shares those,
    regardless of predictor settings.  When False the initial warm-up
    trains this configuration's own predictors too (not shareable).
    """

    enabled: bool = False
    period_refs: int = 2_000
    detail_refs: int = 200
    warm_refs: int = 100
    functional_refs: int = 400
    shared_warm: bool = True

    def __post_init__(self) -> None:
        if not self.enabled:
            return
        if self.period_refs <= 0:
            raise ValueError("period_refs must be positive")
        if self.detail_refs <= 0:
            raise ValueError("detail_refs must be positive (nothing measured)")
        for name in ("warm_refs", "functional_refs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.detail_refs + self.warm_refs > self.period_refs:
            raise ValueError(
                "detail_refs + warm_refs must fit inside period_refs "
                f"({self.detail_refs} + {self.warm_refs} > {self.period_refs})"
            )

    @classmethod
    def disabled(cls) -> "SamplingConfig":
        """Explicit full-detail mode (bitwise identical to no config)."""
        return cls(enabled=False)

    @classmethod
    def smarts(
        cls,
        period_refs: int = 2_000,
        detail_refs: int = 200,
        warm_refs: int = 100,
        functional_refs: int = 400,
        shared_warm: bool = True,
    ) -> "SamplingConfig":
        """An enabled configuration with explicit knobs."""
        return cls(
            enabled=True,
            period_refs=period_refs,
            detail_refs=detail_refs,
            warm_refs=warm_refs,
            functional_refs=functional_refs,
            shared_warm=shared_warm,
        )

    @classmethod
    def for_scale(cls, refs_per_core: int) -> "SamplingConfig":
        """A reasonable default layout for a run of ``refs_per_core``.

        Four measurement windows with a ~12% timed fraction and a ~17%
        functional-warming ramp — the shape validated by the perf-smoke
        ``pv8-sampled`` label (≥5x refs/sec with the sampled estimate
        inside the full-detail run's 95% CI) and the ``--sampled`` CLI
        default.
        """
        period = max(refs_per_core // 4, 400)
        return cls(
            enabled=True,
            period_refs=period,
            detail_refs=max(period // 12, 40),
            warm_refs=max(period // 25, 20),
            functional_refs=max(period // 6, 80),
        )

    # ------------------------------------------------------------- layout

    def layout(self, period: int) -> "tuple[int, int, int, int]":
        """(skip, functional, warm, detail) refs for one period of ``period``.

        Short trailing periods shrink front to back: the measured window is
        preserved first, then the detailed warm-up, then the ramp.
        """
        detail = min(self.detail_refs, period)
        warm = min(self.warm_refs, period - detail)
        functional = min(self.functional_refs, period - detail - warm)
        return period - detail - warm - functional, functional, warm, detail

    @property
    def detail_fraction(self) -> float:
        """Fraction of references simulated with full timing."""
        return (self.detail_refs + self.warm_refs) / self.period_refs


# --------------------------------------------------------------------------
# Ambient default: the CLI's --sampled switch.
# --------------------------------------------------------------------------

#: Process-wide default applied by :meth:`ExperimentSpec.build` when no
#: explicit sampling argument is given (like ``ExperimentScale.from_env``
#: reading REPRO_REFS).  ``None`` = full detail.  The CLI's ``--sampled``
#: flag installs a :meth:`SamplingConfig.for_scale` here so every figure /
#: analysis driver in the process opts in consistently.
_DEFAULT_SAMPLING: "SamplingConfig | None" = None


def set_default_sampling(config: "SamplingConfig | None") -> None:
    """Install (or clear, with ``None``) the process-wide sampling default."""
    global _DEFAULT_SAMPLING
    _DEFAULT_SAMPLING = config


def default_sampling() -> "SamplingConfig | None":
    """The active process-wide sampling default (``None`` = full detail)."""
    return _DEFAULT_SAMPLING


# --------------------------------------------------------------------------
# Student-t quantile: exact, pure Python.
# --------------------------------------------------------------------------

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2) to double precision for every a > 0."""
    if a < 30.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    # lgamma's rounding grows with a; from a = 30 on, the asymptotic series
    # of log G(a + 1/2) - log G(a) is exact to double precision (its next
    # term is below 1e-16 there).
    r = 1.0 / (a * a)
    return _LOG_SQRT_PI - 0.5 * math.log(a) + (
        0.125 - r * (1.0 / 192.0 - r * (1.0 / 640.0 - r * 17.0 / 14336.0))
    ) / a


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta (modified Lentz).

    ``I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) * _beta_cf(a, b, x)``; it
    converges quickly for ``x < (a + 1) / (a + b + 2)``.
    """
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete-beta continued fraction did not converge")


def _t_newton_step(t: float, df: int, p: float) -> float:
    """Newton step in ``log t`` towards ``P(T > t) = p`` (positive: t too small).

    With ``x = df / (df + t^2)``, ``P(T > t) = I_x(df/2, 1/2) / 2`` and
    ``t pdf(t) = x^(df/2) (1 - x)^(1/2) / B(df/2, 1/2)``.  Where the
    continued fraction for ``I_x(df/2, 1/2)`` converges, the step is taken
    on ``log P(T > t)``; nearer the median it is taken on the central
    probability ``P(|T| < t) = I_(1-x)(1/2, df/2)`` against ``1 - 2p``,
    which keeps the relative accuracy of ``t`` as ``t -> 0``.
    """
    a = 0.5 * df
    s = t * t / df  # (1 - x) / x
    log_t_pdf = (a + 0.5) * -math.log1p(s) + 0.5 * math.log(s) - _log_beta_half(a)
    if s * (a + 1.0) > 1.5:  # x < (a + 1) / (a + 5/2)
        tail_ratio = _beta_cf(a, 0.5, 1.0 / (1.0 + s)) / df  # P(T > t) / (t pdf)
        return (log_t_pdf + math.log(tail_ratio) - math.log(p)) * tail_ratio
    # P(|T| < t) = 2 t pdf(t) * _beta_cf(1/2, a, 1 - x)
    return (0.5 - p) / math.exp(log_t_pdf) - _beta_cf(0.5, a, s / (1.0 + s))


def t_quantile(q: float, df: int) -> float:
    """Student-t inverse CDF: the ``t`` with ``P(T <= t) = q`` at ``df``.

    Pure Python, and the same number on every machine: within 5e-14
    relative of the exact quantile for ``df <= 1000`` and 5e-13 for
    ``df <= 10_000`` (beyond that the continued fraction's conditioning
    costs about a digit per decade of ``df``).  df 1 and 2 are closed
    forms; larger df run a safeguarded Newton-bisection in ``log t`` on
    the regularized incomplete beta, bracketed by the df-2 quantile (whose
    tails are heavier than any larger df's) and ``(1/2 - p) sqrt(2 pi)``
    (no t density exceeds the normal's at 0).
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q!r}")
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if q == 0.5:
        return 0.0
    p = min(q, 1.0 - q)  # the smaller tail; exact in floating point
    t2 = (1.0 - 2.0 * p) / math.sqrt(2.0 * p * (1.0 - p))
    if df == 1:
        t = 1.0 / math.tan(math.pi * p)
    elif df == 2:
        t = t2
    else:
        lo = math.log((0.5 - p) * _SQRT_2PI)
        hi = u = math.log(t2)
        for _ in range(100):
            step = _t_newton_step(math.exp(u), df, p)
            if abs(step) < 1e-12:
                u += step
                break
            if step > 0.0:
                lo = u
            else:
                hi = u
            u = u + step if lo < u + step < hi else 0.5 * (lo + hi)
            if hi - lo < 1e-14:  # bracket at rounding noise (df beyond ~1e5)
                break
        else:
            raise ArithmeticError("Student-t quantile did not converge")
        t = math.exp(u)
    return t if q > 0.5 else -t


# --------------------------------------------------------------------------
# Batch-means statistics.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleStats:
    """Mean and confidence half-width of a batch of samples."""

    mean: float
    half_width: float
    n: int
    confidence: float

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_error(self) -> float:
        return self.half_width / abs(self.mean) if self.mean else math.inf

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside this confidence interval."""
        return self.lower <= value <= self.upper


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> SampleStats:
    """Mean and t-distribution CI of ``samples`` (batch means).

    ``confidence`` is a fraction in (0, 1): 0.95, not 95.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(samples) / n
    if n == 1:
        return SampleStats(mean=mean, half_width=math.inf, n=1, confidence=confidence)
    var = sum((s - mean) ** 2 for s in samples) / (n - 1)
    t = t_quantile(0.5 + confidence / 2.0, df=n - 1)
    half = t * math.sqrt(var / n)
    return SampleStats(mean=mean, half_width=half, n=n, confidence=confidence)


@dataclass(frozen=True)
class MatchedPair:
    """Matched-pair comparison of two runs over the same trace windows."""

    delta: SampleStats
    base_mean: float

    @property
    def relative_delta(self) -> float:
        """Mean relative improvement (the speedup the figure bars plot)."""
        return self.delta.mean / self.base_mean if self.base_mean else 0.0

    @property
    def relative_half_width(self) -> float:
        return self.delta.half_width / self.base_mean if self.base_mean else math.inf


def matched_pair(
    base_samples: Sequence[float],
    new_samples: Sequence[float],
    confidence: float = 0.95,
) -> MatchedPair:
    """Paired per-window comparison (Ekman & Stenstrom matched-pair).

    Windows must align one-to-one; trailing extras are dropped so two runs
    of slightly different lengths still compare.
    """
    n = min(len(base_samples), len(new_samples))
    if n == 0:
        raise ValueError("no overlapping windows")
    deltas = [new_samples[i] - base_samples[i] for i in range(n)]
    base_mean = sum(base_samples[:n]) / n
    return MatchedPair(
        delta=confidence_interval(deltas, confidence), base_mean=base_mean
    )
