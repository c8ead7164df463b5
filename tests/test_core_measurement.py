"""Tests of the measurement runner (the paper's experimental methodology)."""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.measurement import (
    MeasurementConfig,
    MeasurementRunner,
    measure_end_to_end_delays,
)
from repro.core.scenarios import Scenario
from repro.experiments.settings import ExperimentSettings


def _config(n=3, seed=1, scenario=None, executions=20, **kwargs):
    return MeasurementConfig(
        cluster=ClusterConfig(n_processes=n, seed=seed),
        scenario=scenario or Scenario.no_failures(),
        executions=executions,
        **kwargs,
    )


def test_measurement_config_validation():
    with pytest.raises(ValueError):
        _config(executions=0)
    with pytest.raises(ValueError):
        _config(separation_ms=0.0)
    with pytest.raises(ValueError):
        _config(start_offset_ms=0.01)  # below the clock sync precision
    with pytest.raises(ValueError):
        _config(sequential=True, max_instance_time_ms=0.0)


def test_class1_measurement_produces_one_latency_per_execution():
    result = MeasurementRunner(_config(executions=25)).run()
    assert len(result.latencies_ms) == 25
    assert result.undecided == 0
    assert result.qos is None
    assert result.summary is not None
    assert 0.1 < result.mean_latency_ms < 5.0
    assert result.recorder.check_agreement()
    assert result.messages_delivered > 0
    assert result.cdf().n == 25


def test_class1_latencies_are_reproducible_for_a_fixed_seed():
    first = MeasurementRunner(_config(seed=9)).run().latencies_ms
    second = MeasurementRunner(_config(seed=9)).run().latencies_ms
    assert first == second


def test_different_seeds_give_different_latencies():
    first = MeasurementRunner(_config(seed=1)).run().latencies_ms
    second = MeasurementRunner(_config(seed=2)).run().latencies_ms
    assert first != second


def test_class2_coordinator_crash_measurement_decides_without_the_coordinator():
    result = MeasurementRunner(
        _config(scenario=Scenario.coordinator_crash(), executions=15)
    ).run()
    assert result.undecided == 0
    assert all(entry.first_decider != 0 for entry in result.recorder.decided_instances())


def test_class3_measurement_estimates_qos_and_counts_heartbeats():
    config = _config(
        n=3,
        scenario=Scenario.wrong_suspicions(timeout_ms=5.0),
        executions=15,
        sequential=True,
        max_instance_time_ms=300.0,
    )
    result = MeasurementRunner(config).run()
    assert result.qos is not None
    assert result.heartbeats_sent > 0
    assert len(result.latencies_ms) >= 10
    assert result.experiment_duration_ms > 0


def test_sequential_mode_never_overlaps_executions():
    config = _config(
        executions=10,
        sequential=True,
        separation_ms=5.0,
        max_instance_time_ms=100.0,
    )
    result = MeasurementRunner(config).run()
    starts = [entry.start_nominal for entry in result.recorder.instances]
    assert starts == sorted(starts)
    # Each execution starts only after the previous one decided.
    for previous, entry in zip(result.recorder.instances, result.recorder.instances[1:], strict=False):
        assert entry.start_nominal >= previous.first_decision_global


def test_end_to_end_delay_microbenchmark_reports_both_kinds_of_delays(cluster_config):
    result = measure_end_to_end_delays(cluster_config, probes=50)
    assert len(result.unicast_delays) == 50
    assert len(result.broadcast_delays) == 50
    assert result.broadcast_cdf().mean() > result.unicast_cdf().mean()
    assert result.unicast_cdf().min > 0.0


#: sha256 of ``repr()`` of the (unicast, broadcast) delay lists of the two
#: smoke-scale Figure 6 points, keyed by ``(n_processes, point index)``.
FIGURE6_SMOKE_DIGESTS = {
    (3, 0): (
        "aff459e347545b75c288cfb46cbcfb0fa57b050a1bd2123c22220c56ae60d4b7",
        "3975cb65796a2230b371dab3f457070fac5f99738449df17166c5e7ee2100370",
    ),
    (5, 1): (
        "11fa0677da05e10d50cb890a880d4a9f9944adaf37185ca8d288146d2deb0eb3",
        "ce5e870e610c71f0cf179242054adddad6c2886f30326eb788de4433ba35674f",
    ),
}


@pytest.mark.parametrize("n, index", sorted(FIGURE6_SMOKE_DIGESTS))
def test_figure6_smoke_delays_are_pinned_bit_for_bit(n, index):
    smoke = ExperimentSettings.smoke()
    result = measure_end_to_end_delays(
        smoke.cluster_for(n, smoke.point_seed(6, index)), probes=smoke.delay_probes
    )
    digests = tuple(
        hashlib.sha256(repr(delays).encode()).hexdigest()
        for delays in (result.unicast_delays, result.broadcast_delays)
    )
    assert len(result.unicast_delays) == len(result.broadcast_delays) == 200
    assert digests == FIGURE6_SMOKE_DIGESTS[(n, index)]
