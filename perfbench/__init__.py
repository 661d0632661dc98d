"""The repository benchmark: timed, output-checked `repro` study runs.

Entry point: `python3 perfbench/run.py` (see its docstring).
"""
