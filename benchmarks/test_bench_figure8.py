"""Benchmark regenerating Figure 8: failure-detector QoS vs. the timeout (§5.4)."""

from __future__ import annotations

import math

from repro.benchmarking import run_once
from repro.experiments.figure8 import SPEC, format_figure8
from repro.experiments.registry import run_experiment


def test_figure8_failure_detector_qos(benchmark, settings):
    result = run_once(benchmark, run_experiment, SPEC, settings=settings).result
    print()
    print("=== Figure 8: failure-detector QoS vs. timeout T (Th = 0.7 T) ===")
    print(format_figure8(result))
    for n in settings.class3_process_counts:
        series = result.recurrence_series(n)
        if len(series) < 2:
            continue
        # T_MR grows with the timeout (allowing infinities at large T).
        finite = [(t, v) for t, v in series if math.isfinite(v)]
        values = [v for _t, v in finite]
        assert values == sorted(values) or values[-1] >= values[0], (
            "mistake recurrence time must grow with the timeout"
        )
        # T_M stays bounded (the paper observes < 12 ms).
        for _t, duration in result.duration_series(n):
            assert duration < 20.0
