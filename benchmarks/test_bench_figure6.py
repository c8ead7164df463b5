"""Benchmark regenerating Figure 6: end-to-end delay distributions (§5.1)."""

from __future__ import annotations

from repro.benchmarking import run_once
from repro.experiments.figure6 import SPEC, format_figure6
from repro.experiments.registry import run_experiment


def test_figure6_end_to_end_delay_cdfs(benchmark, settings):
    result = run_once(benchmark, run_experiment, SPEC, settings=settings).result
    print()
    print("=== Figure 6: end-to-end delay of unicast and broadcast messages ===")
    print(format_figure6(result))
    # Shape checks mirroring the paper: broadcasts are slower than unicasts,
    # and the unicast distribution is usable as a bi-modal uniform fit.
    assert result.broadcast_cdf(5).mean() > result.broadcast_cdf(3).mean()
    assert result.broadcast_cdf(3).mean() > result.unicast_cdf().mean()
    assert result.unicast_fit.low1 < result.unicast_fit.high2
