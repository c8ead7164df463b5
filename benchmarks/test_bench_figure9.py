"""Benchmark regenerating Figure 9: latency vs. the FD timeout (§5.4)."""

from __future__ import annotations

from repro.benchmarking import run_once
from repro.experiments.figure8 import SPEC as FIGURE8_SPEC
from repro.experiments.figure9 import aggregate_figure9, figure9_plan, format_figure9
from repro.experiments.registry import run_experiment
from repro.experiments.runner import iter_plan
from repro.sanmodels.parameters import SANParameters


def _figure9(settings, figure8):
    """Figure 9 over reused Figure 8 measurements (plus the SAN simulations)."""
    plan = figure9_plan(settings, SANParameters(), figure8)
    return aggregate_figure9(settings, iter_plan(plan))


def test_figure9_latency_vs_timeout(benchmark, settings):
    # The paper derives the QoS inputs and the latencies from the same runs;
    # run Figure 8 first (untimed) and benchmark the Figure 9 pass that
    # reuses those measurements and adds the SAN simulations.
    figure8 = run_experiment(FIGURE8_SPEC, settings=settings).result
    result = run_once(benchmark, _figure9, settings, figure8)
    print()
    print("=== Figure 9: latency vs. failure-detection timeout ===")
    print(format_figure9(result))
    for n in settings.class3_process_counts:
        series = result.measured_series(n)
        if len(series) < 2:
            continue
        latencies = [latency for _t, latency in series]
        # The latency at the smallest timeout dominates the latency at the
        # largest timeout (wrong suspicions force extra rounds).
        assert latencies[0] > latencies[-1]
    # Where SAN simulations exist, they must be positive and finite.
    for point in result.points.values():
        for value in point.simulated_latency_ms.values():
            assert value > 0
