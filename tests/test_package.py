"""Public API surface of the top-level package."""

import subprocess
import sys

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_primary_entry_points(self):
        assert callable(repro.CMPSimulator)
        assert callable(repro.run_experiment)
        assert callable(repro.get_workload)
        assert len(repro.workload_names()) == 8

    def test_pv_framework_exports(self):
        from repro.core import (
            PVProxy,
            PVTable,
            PredictorContextManager,
            VirtualizedPredictorTable,
            pvproxy_budget,
        )

        assert PVProxy and PVTable and VirtualizedPredictorTable
        assert PredictorContextManager
        assert pvproxy_budget()["total_bytes"] == 889.0

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.cli
        import repro.cpu.tracetools
        import repro.memory
        import repro.prefetch
        import repro.sim
        import repro.workloads

    def test_cli_import_loads_no_scipy(self):
        """Start-up stays scipy-free: the t quantile is pure Python."""
        script = (
            "import sys\n"
            "import repro.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_interface_is_shared(self):
        """DedicatedPHT and VirtualizedPredictorTable share the interface."""
        from repro.core.interface import PredictorTable
        from repro.core.virtualized import VirtualizedPredictorTable
        from repro.prefetch.pht import DedicatedPHT, InfinitePHT

        assert issubclass(DedicatedPHT, PredictorTable)
        assert issubclass(InfinitePHT, PredictorTable)
        assert issubclass(VirtualizedPredictorTable, PredictorTable)
