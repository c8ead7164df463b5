"""Tests of the fault-load scenario sweep (experiments.fault_sweep)."""

from __future__ import annotations

import math

import pytest

from repro.experiments.fault_sweep import (
    FAULT_LOAD_KINDS,
    SPEC,
    aggregate_fault_sweep,
    build_fault_load,
    fault_sweep_plan,
    format_fault_sweep,
)
from repro.experiments.registry import ExperimentOptions, run_experiment
from repro.experiments.runner import iter_plan
from repro.experiments.settings import ExperimentSettings
from repro.faults import MessageLoss, NetworkPartition


def _tiny_settings() -> ExperimentSettings:
    smoke = ExperimentSettings.smoke()
    from dataclasses import replace

    return replace(
        smoke, class3_executions=10, replications=10, simulated_process_counts=(3,)
    )


def test_build_fault_load_covers_every_kind():
    for kind in FAULT_LOAD_KINDS:
        load = build_fault_load(kind, loss_rate=0.1, n_processes=3, horizon_ms=300.0)
        assert load.label() == kind
        assert load.select(MessageLoss)  # the loss axis is always present
    with pytest.raises(ValueError):
        build_fault_load("bogus", 0.0, 3, 300.0)
    assert not build_fault_load("none", 0.0, 3, 300.0)  # empty load


def test_partition_load_isolates_the_coordinator():
    load = build_fault_load("partition", 0.0, 5, horizon_ms=300.0)
    (partition,) = load.select(NetworkPartition)
    assert partition.groups == ((0,), (1, 2, 3, 4))
    assert partition.start_ms == pytest.approx(100.0)
    assert partition.end_ms == pytest.approx(200.0)


def test_plan_has_one_point_per_grid_combination():
    settings = _tiny_settings()
    plan = fault_sweep_plan(settings, loss_rates=(0.0, 0.05), load_kinds=("none", "reorder"))
    assert len(plan) == 1 * 2 * 2
    assert len(set(plan.seeds())) == len(plan)


def test_fault_sweep_runs_end_to_end_and_reports_drop_counters():
    settings = _tiny_settings()
    plan = fault_sweep_plan(
        settings, loss_rates=(0.0, 0.2), load_kinds=("none", "partition")
    )
    result = aggregate_fault_sweep(settings, iter_plan(plan))
    assert len(result.points) == 4
    lossy = result.point(3, "none", 0.2)
    assert lossy.messages_dropped > 0
    assert lossy.drops_by_cause.get("wire:loss", 0) > 0
    assert lossy.fault_counters["messages_lost"] == lossy.drops_by_cause["wire:loss"]
    partitioned = result.point(3, "partition", 0.0)
    assert partitioned.drops_by_cause.get("wire:partition", 0) > 0
    clean = result.point(3, "none", 0.0)
    assert clean.messages_dropped == 0
    assert math.isfinite(clean.mean_latency_ms)
    assert clean.san_latency_ms is not None
    # Aggregated counters and the textual report.
    totals = result.total_drops_by_cause()
    assert totals.get("wire:loss", 0) > 0 and totals.get("wire:partition", 0) > 0
    text = format_fault_sweep(result)
    assert "wire:loss" in text and "partition" in text


def test_fault_sweep_parallel_matches_serial():
    settings = _tiny_settings()
    serial, parallel = (
        run_experiment(SPEC, ExperimentOptions(jobs=jobs), settings=settings).result
        for jobs in (1, 2)
    )
    for key, point in serial.points.items():
        other = parallel.points[key]
        assert point.mean_latency_ms == other.mean_latency_ms
        assert point.drops_by_cause == other.drops_by_cause
        assert point.san_latency_ms == other.san_latency_ms
