"""Benchmark regenerating Table 1: latency under crash scenarios (§5.3)."""

from __future__ import annotations

from repro.benchmarking import run_once
from repro.experiments.registry import run_experiment
from repro.experiments.table1 import SPEC, format_table1


def test_table1_crash_scenarios(benchmark, settings):
    result = run_once(benchmark, run_experiment, SPEC, settings=settings).result
    print()
    print("=== Table 1: latency for the crash scenarios ===")
    print(format_table1(result))
    for n in settings.measured_process_counts:
        no_crash = result.measured_mean("no crash", n)
        coordinator = result.measured_mean("coordinator crash", n)
        assert coordinator > no_crash, "a coordinator crash must increase latency"
        if n >= 5:
            participant = result.measured_mean("participant crash", n)
            assert participant < coordinator, (
                "a participant crash must cost less than a coordinator crash"
            )
            assert participant < 1.1 * no_crash, (
                "a participant crash must not be slower than the crash-free case "
                "(beyond sampling noise) for n >= 5"
            )
    for n in settings.simulated_process_counts:
        assert result.simulated_mean("coordinator crash", n) > result.simulated_mean(
            "no crash", n
        )
