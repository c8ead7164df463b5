"""Benchmarks regenerating Figure 7 and the §5.2 mean latencies."""

from __future__ import annotations

from repro.benchmarking import run_once
from repro.experiments.figure7 import (
    FIGURE7A_SPEC,
    FIGURE7B_SPEC,
    MEANS_SPEC,
    format_latency_means,
)
from repro.experiments.registry import run_experiment


def test_figure7a_latency_cdfs_no_failures(benchmark, settings):
    result = run_once(benchmark, run_experiment, FIGURE7A_SPEC, settings=settings).result
    print()
    print("=== Figure 7(a): latency CDFs, no failures, no suspicions ===")
    print("n    mean [ms]   median [ms]   p90 [ms]")
    for n in sorted(result.latencies_by_n):
        cdf = result.cdf(n)
        print(f"{n:<4d} {cdf.mean():9.3f}   {cdf.median():11.3f}   {cdf.quantile(0.9):8.3f}")
    means = result.means()
    ns = sorted(means)
    assert all(means[a] < means[b] for a, b in zip(ns, ns[1:], strict=False)), "latency must grow with n"


def test_figure7b_t_send_calibration(benchmark, settings):
    result = run_once(benchmark, run_experiment, FIGURE7B_SPEC, settings=settings).result
    print()
    print("=== Figure 7(b): simulated latency CDFs vs. t_send (calibration) ===")
    print(f"measured mean latency (n={result.n_processes}): "
          f"{result.measured_cdf().mean():.3f} ms")
    print("t_send [ms]   simulated mean [ms]   KS distance to measurement")
    for candidate in result.calibration.candidates:
        print(
            f"{candidate.t_send_ms:11.3f}   {candidate.mean_latency_ms:19.3f}   "
            f"{candidate.ks_distance:10.3f}"
        )
    print(f"calibrated t_send = {result.best_t_send_ms} ms")
    assert result.best_t_send_ms in settings.t_send_candidates_ms


def test_latency_means_measurement_vs_simulation(benchmark, settings):
    result = run_once(benchmark, run_experiment, MEANS_SPEC, settings=settings).result
    print()
    print("=== §5.2 mean latencies: measurement vs. SAN simulation ===")
    print(format_latency_means(result))
    for _n, measured, simulated in result.rows():
        assert measured > 0
        if simulated is not None:
            # Measurement and simulation must agree within a factor of two
            # (the paper reports a few percent on its own testbed).
            assert 0.5 < simulated / measured < 2.0
