"""Tests of the trace-analysis experiment (experiments.trace_analysis)."""

from __future__ import annotations

import pytest

from repro.experiments.artifacts import ARTIFACT_SCHEMA, json_safe, validate_instance
from repro.experiments.registry import run_experiment
from repro.experiments.settings import ExperimentSettings
from repro.experiments.trace_analysis import (
    SPEC,
    format_trace_analysis,
    n_trace_replications,
    trace_analysis_plan,
    trace_analysis_record,
    trace_analysis_rows,
    trace_fault_load,
)
from repro.faults import CrashRecovery, MessageLoss


@pytest.fixture(scope="module")
def smoke_result():
    return run_experiment(SPEC, settings=ExperimentSettings.from_scale("smoke")).result


def test_fault_load_alternates_the_coordinator_crash():
    nominal = trace_fault_load(0, horizon_ms=60.0)
    crashed = trace_fault_load(1, horizon_ms=60.0)
    assert nominal.select(MessageLoss) and crashed.select(MessageLoss)
    assert not nominal.select(CrashRecovery)
    (crash,) = crashed.select(CrashRecovery)
    assert crash.process_id == 0  # the first coordinator
    assert crash.crash_at_ms == pytest.approx(20.0)
    assert crash.recover_at_ms == pytest.approx(40.0)


def test_plan_has_one_point_per_replication_with_unique_seeds():
    settings = ExperimentSettings.from_scale("smoke")
    plan = trace_analysis_plan(settings)
    assert len(plan) == n_trace_replications(settings)
    assert len(set(plan.seeds())) == len(plan)


def test_clustering_separates_crashed_from_nominal_replications(smoke_result):
    result = smoke_result
    assert len(result.clusters) >= 2
    # Every discovered cluster is homogeneous in the injected fault, and
    # both failure modes surface as clusters (not only as noise).
    modes = set()
    for info in result.clusters:
        injected = {
            result.replications[index].crash_injected for index in info["members"]
        }
        assert len(injected) == 1
        modes.update(injected)
    assert modes == {True, False}


def test_worst_replication_slice_contains_the_injected_crash(smoke_result):
    result = smoke_result
    worst = result.replications[result.worst]
    assert worst.crash_injected
    assert result.anchor_kind == "timer"
    assert result.slice_size > 0
    assert result.fault_in_slice
    nominal = result.replications[result.nominal_exemplar]
    assert result.nominal_exemplar != result.worst
    assert not nominal.crash_injected
    assert result.explanation  # the diff found divergent event classes


def test_renderers_and_artifact_round_trip(smoke_result):
    text = format_trace_analysis(smoke_result)
    assert "clusters (most anomalous first):" in text
    assert "injected fault in slice: True" in text
    record = trace_analysis_record(smoke_result)
    assert record["anomalous"]["fault_in_slice"] is True
    assert len(record["replications"]) == len(smoke_result.replications)
    header, rows = trace_analysis_rows(smoke_result)
    assert header[0] == "replication"
    assert len(rows) == len(smoke_result.replications)


def test_run_experiment_emits_a_schema_valid_artifact():
    run = run_experiment(SPEC, settings=ExperimentSettings.from_scale("smoke"))
    payload = json_safe(run.payload())
    validate_instance(payload, ARTIFACT_SCHEMA)  # raises on violation
    assert payload["experiment"] == "traceanalysis"
    assert payload["data"]["anomalous"]["fault_in_slice"] is True
    assert run.table() is not None
