"""SMARTS-style statistics: batch means, CIs, matched-pair comparison."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.sim.sampling import (
    confidence_interval,
    matched_pair,
    t_quantile,
)


class TestConfidenceInterval:
    def test_mean(self):
        s = confidence_interval([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.n == 3

    def test_zero_variance_zero_width(self):
        s = confidence_interval([5.0] * 10)
        assert s.half_width == pytest.approx(0.0)

    def test_single_sample_infinite_width(self):
        s = confidence_interval([5.0])
        assert math.isinf(s.half_width)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_width_shrinks_with_samples(self):
        noisy = [1.0, 2.0] * 4
        wider = confidence_interval(noisy[:4])
        narrower = confidence_interval(noisy * 8)
        assert narrower.half_width < wider.half_width

    def test_bounds(self):
        s = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert s.lower == pytest.approx(s.mean - s.half_width)
        assert s.upper == pytest.approx(s.mean + s.half_width)

    def test_95_percent_default(self):
        assert confidence_interval([1.0, 2.0]).confidence == 0.95

    def test_t_quantile_value(self):
        # n=5, 95%: t = 2.776; samples with known variance.
        s = confidence_interval([0.0, 0.0, 0.0, 0.0, 5.0])
        var = (4 * 1.0**2 + (5 - 1.0) ** 2) / 4
        expected = 2.7764 * math.sqrt(var / 5)
        assert s.half_width == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("confidence", [95, 1.0, 0.0, -0.5, math.nan])
    def test_out_of_range_confidence_rejected(self, confidence):
        # Percent-style 95 is the likely slip: it must fail loudly, not
        # reach the quantile as q = 48 and yield a NaN interval.
        with pytest.raises(ValueError, match="confidence"):
            confidence_interval([1.0, 2.0, 3.0], confidence=confidence)
        with pytest.raises(ValueError, match="confidence"):
            matched_pair([1.0, 2.0], [2.0, 3.0], confidence=confidence)


class TestMatchedPair:
    def test_constant_delta_is_exact(self):
        """Matched-pair cancels per-window variation entirely when the
        improvement is uniform — the methodology's whole point."""
        base = [1.0, 3.0, 2.0, 4.0]  # very noisy windows
        new = [x * 1.10 for x in base]
        pair = matched_pair(base, new)
        assert pair.relative_delta == pytest.approx(0.10)
        # CI of the deltas is far narrower than the raw variation.
        raw = confidence_interval(new)
        assert pair.delta.half_width < raw.half_width

    def test_unequal_lengths_truncate(self):
        pair = matched_pair([1.0, 1.0, 9.9], [2.0, 2.0])
        assert pair.delta.mean == pytest.approx(1.0)
        assert pair.delta.n == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            matched_pair([], [1.0])

    def test_negative_delta(self):
        pair = matched_pair([2.0, 2.0], [1.0, 1.0])
        assert pair.relative_delta == pytest.approx(-0.5)


class TestScipyFreeFallback:
    """The one t quantile: exact, pure Python, no scipy anywhere."""

    # Reference two-sided-95% and 99% critical values (standard tables).
    KNOWN = [
        (0.975, 1, 12.706), (0.975, 2, 4.303), (0.975, 5, 2.571),
        (0.975, 10, 2.228), (0.975, 30, 2.042), (0.975, 120, 1.980),
        (0.995, 10, 3.169), (0.995, 30, 2.750), (0.95, 10, 1.812),
        (0.95, 5, 2.015), (0.90, 10, 1.372),
    ]

    #: t(q, df) for q = 0.9, 0.95, 0.975, 0.995, to 15 significant digits
    #: (computed once with scipy.stats.t.ppf).
    REFERENCE = {
        1: (3.07768353717525, 6.31375151467504, 12.7062047361747, 63.6567411628715),
        2: (1.88561808316413, 2.91998558035372, 4.30265272974946, 9.92484320091829),
        3: (1.63774435369621, 2.35336343480182, 3.18244630528371, 5.84090930973336),
        4: (1.53320627405894, 2.13184678632665, 2.77644510519779, 4.60409487134999),
        5: (1.47588404882448, 2.01504837333302, 2.57058183563631, 4.03214298355523),
        10: (1.37218364111034, 1.81246112281168, 2.22813885198627, 3.16927267261695),
        29: (1.31143364730155, 1.6991270265335, 2.0452296421327, 2.7563859036706),
        30: (1.3104150253914, 1.69726088659396, 2.04227245630124, 2.74999565356723),
        31: (1.30946354949465, 1.69551878254586, 2.03951344639641, 2.74404191929427),
        120: (1.28864623365638, 1.65765089935524, 1.97993040508244, 2.61742114510687),
        1000: (1.28239872146092, 1.64637881728546, 1.96233908082641, 2.58075469806595),
    }

    #: The printed 4-decimal 95% (q = 0.975) and 99% (q = 0.995) tables.
    TABLES = {
        0.975: [
            12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
            2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
            2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
            2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423,
        ],
        0.995: [
            63.6567, 9.9248, 5.8409, 4.6041, 4.0321, 3.7074, 3.4995, 3.3554,
            3.2498, 3.1693, 3.1058, 3.0545, 3.0123, 2.9768, 2.9467, 2.9208,
            2.8982, 2.8784, 2.8609, 2.8453, 2.8314, 2.8188, 2.8073, 2.7969,
            2.7874, 2.7787, 2.7707, 2.7633, 2.7564, 2.7500,
        ],
    }

    @pytest.mark.parametrize("q,df,expected", KNOWN)
    def test_fallback_matches_tables(self, q, df, expected):
        assert round(t_quantile(q, df), 3) == expected

    @pytest.mark.parametrize("df", sorted(REFERENCE))
    def test_matches_reference_to_1e12(self, df):
        for q, expected in zip((0.9, 0.95, 0.975, 0.995), self.REFERENCE[df]):
            assert t_quantile(q, df) == pytest.approx(expected, rel=1e-12), q

    def test_printed_tables_round_to_themselves(self):
        for q, table in self.TABLES.items():
            for df, entry in enumerate(table, start=1):
                assert round(t_quantile(q, df), 4) == entry, (q, df)

    def test_symmetric_about_the_median(self):
        assert t_quantile(0.5, 7) == 0.0
        for df in (1, 2, 3, 9, 40, 1000):
            for q in (0.6, 0.9, 0.975, 0.995, 0.99999):
                assert t_quantile(1.0 - q, df) == pytest.approx(
                    -t_quantile(q, df), rel=1e-13
                ), (q, df)

    def test_fallback_rejects_bad_df(self):
        for df in (0, -1, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="degrees of freedom"):
                t_quantile(0.975, df)

    def test_rejects_q_outside_unit_interval(self):
        for q in (0.0, 1.0, -0.1, 1.5, 48.0, math.nan):
            with pytest.raises(ValueError, match="quantile"):
                t_quantile(q, 5)

    def test_confidence_interval_without_scipy(self, tmp_path):
        """An unimportable scipy changes no interval, not even in the last bit."""
        samples = [1.0, 2.0, 3.0, 4.0, 9.0]
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text(
            "raise ImportError('scipy is blocked in this test')\n"
        )
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(src)]))
        script = (
            "from repro.sim.sampling import confidence_interval\n"
            f"print(repr(confidence_interval({samples!r}).half_width))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        half = confidence_interval(samples).half_width
        assert float(out.stdout) == half
        var = sum((x - 3.8) ** 2 for x in samples) / 4
        assert half == pytest.approx(
            self.REFERENCE[4][2] * math.sqrt(var / 5), rel=1e-12
        )
