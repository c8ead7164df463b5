"""Tests of the benchmark itself (run with ``PYTHONPATH=src python -m pytest perfbench``)."""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import replace

import pytest

from repro.experiments.runner import SweepPoint
from repro.experiments.settings import ExperimentSettings
from repro.san.analytic import AnalyticResult

from perfbench import checks, run
from perfbench.instrument import WRAPPED_ATTR, Instrumentation
from perfbench.passes import Outcome, compare_reference, layer_metrics, run_operations
from perfbench.workloads import WORKLOADS, Operation, build_operations, workload_settings

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Small enough that every layer does some work in well under a second.
TINY = ExperimentSettings(
    executions=5,
    class3_executions=5,
    replications=6,
    measured_process_counts=(3,),
    simulated_process_counts=(3,),
    class3_process_counts=(3,),
    timeouts_ms=(20.0,),
    t_send_candidates_ms=(0.025,),
    seed=1,
)


def _installed_wrappers():
    """Every binding in a loaded repro/perfbench module or class that is a wrapper."""
    found = set()
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(("repro", "perfbench")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED_ATTR):
                found.add(f"{name}.{attr}")
            if isinstance(value, type):
                found.update(
                    f"{value.__module__}.{value.__qualname__}.{key}"
                    for key, item in vars(value).items()
                    if hasattr(item, WRAPPED_ATTR)
                )
    return sorted(found)


def _tiny_operations():
    model = [
        operation
        for operation in build_operations("model", TINY)
        if operation.label != "analytic consensus-exp n=4"
    ]
    return build_operations("testbed", TINY)[:1] + build_operations("class3", TINY) + model


def _boom(point_seed: int) -> None:
    raise RuntimeError(f"boom {point_seed}")


def _fine(point_seed: int) -> int:
    return point_seed % 97


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    declared_layers = {metric["name"] for metric in benchmark["per_layer"]}
    declared_e2e = {metric["name"] for metric in benchmark["end_to_end"]}
    with Instrumentation(traced=True) as instrumentation:
        outcomes, counts = run_operations(
            build_operations("class3", TINY), TINY, instrumentation, checks.load_reference()
        )
    produced = set(layer_metrics(outcomes, counts, instrumentation, 0.0)) | set(
        run.TRACE_EXTRA_METRICS
    )
    assert produced == declared_layers
    assert set(run.E2E_METRICS) == declared_e2e
    for name in declared_layers | declared_e2e:
        assert METRIC_NAME.fullmatch(name), name


def test_traced_pass_leaves_no_wrapper_installed():
    assert _installed_wrappers() == []
    with Instrumentation(traced=True) as instrumentation:
        assert _installed_wrappers()
        outcomes, counts = run_operations(
            _tiny_operations(), TINY, instrumentation, checks.load_reference()
        )
    assert _installed_wrappers() == []
    assert not [outcome.operation.label for outcome in outcomes if outcome.failed]
    metrics = layer_metrics(outcomes, counts, instrumentation, 0.0)
    for name in (
        "des.events",
        "cluster.messages_sent",
        "cluster.heartbeats_sent",
        "measurement.executions",
        "stats.draws",
        "san.replications",
        "san.completions",
        "statespace.states",
    ):
        assert metrics[name]["value"] > 0, name


def test_untraced_pass_installs_only_the_accounting_hooks():
    with Instrumentation(traced=False):
        assert _installed_wrappers() == [
            "repro.core.measurement.MeasurementRunner.run",
            "repro.san.solver.SimulativeSolver.solve",
        ]
    assert _installed_wrappers() == []


def test_raising_point_counts_as_failed_and_the_pass_continues():
    operations = [
        Operation(SweepPoint.make(_boom, indices=(1,), label="boom")),
        Operation(SweepPoint.make(_fine, indices=(2,), label="fine")),
    ]
    with Instrumentation(traced=False) as instrumentation:
        outcomes, _counts = run_operations(
            operations, TINY, instrumentation, checks.load_reference()
        )
    boom, fine = outcomes
    assert boom.failed and boom.error.startswith("RuntimeError: boom")
    assert boom.digest is None
    assert not fine.failed
    assert fine.result == TINY.point_seed(2) % 97
    assert fine.digest == checks.digest(fine.result)


def test_default_seed_failures_must_match_the_reference():
    def outcomes(error):
        boom = Operation(SweepPoint.make(_boom, indices=(1,), label="boom"))
        fine = Operation(SweepPoint.make(_fine, indices=(2,), label="fine"))
        return [
            Outcome(boom, seconds=0.0, point_seconds=None, error=error),
            Outcome(fine, seconds=0.0, point_seconds=None, digest="d"),
        ]

    def section(failures):
        return {"workloads": {"w": {"operations": {}, "failures": failures, "artifacts": {}}}}

    recorded = outcomes("RuntimeError: boom 1")
    assert compare_reference("w", recorded, {}, section({"boom": "RuntimeError"})) == ([], ["fine"])
    assert not recorded[0].problems
    for failures in ({}, {"boom": "ValueError"}):
        changed = outcomes("RuntimeError: boom 1")
        compare_reference("w", changed, {}, section(failures))
        assert changed[0].problems


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_argument_changes_the_generated_inputs(workload):
    def seeds(seed):
        settings = workload_settings(workload, seed)
        return [
            (operation.label, operation.point.call_kwargs(settings).get("point_seed"))
            for operation in build_operations(workload, settings)
        ]

    assert seeds(1) == seeds(1)
    first, second = seeds(1), seeds(2)
    assert [label for label, _ in first] == [label for label, _ in second]
    seeded = [(a, b) for (_, a), (_, b) in zip(first, second, strict=True) if a is not None]
    assert seeded and all(a != b for a, b in seeded)


def test_pass_count_is_fixed_by_the_argument_and_wall_is_calibrated():
    assert [run.passes_for("testbed", seconds) for seconds in (1, 39.9, 40, 60)] == [1, 1, 2, 3]
    assert [run.passes_for(workload, 45) for workload in WORKLOADS] == [2, 2, 3]
    reference = run.YARDSTICK_REFERENCE_S
    report = {"operations": [
        {"seconds": 2.0, "yardstick_s": reference},
        {"seconds": 3.0, "yardstick_s": reference * 2.0},
    ]}
    slowdown = 2.0 ** run.SPEED_EXPONENT
    assert run.calibrated_wall(report) == pytest.approx(2.0 + 3.0 / slowdown)


def test_digests_ignore_timings_but_not_results():
    base = AnalyticResult(rewards={"latency": 1.25}, solve_seconds=0.5)
    assert checks.digest(base) == checks.digest(replace(base, solve_seconds=0.9))
    assert checks.digest(base) != checks.digest(replace(base, rewards={"latency": 1.5}))
    artifact = {"data": {"x": 1, "speedup": 3.0}, "manifest": {"started_at": "t", "seed": 4}}
    assert checks.strip_artifact_timings(artifact) == {"data": {"x": 1}, "manifest": {"seed": 4}}
