"""The benchmark's three workloads, as lists of independent operations.

An operation is one sweep point of a registered experiment's plan, or one
exact solve.  Every operation is built by the experiment modules' own plan
builders from ``ExperimentSettings(seed=...)`` (see :func:`workload_settings`
for the input sizes), so the benchmark exercises the points
``repro <experiment>`` runs, and changing the seed changes every point's
derived seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.experiments import fault_sweep, figure7, figure8, solver_compare, table1
from repro.experiments.runner import SweepPoint
from repro.experiments.settings import ExperimentSettings
from repro.san.analytic import AnalyticResult, AnalyticSolver
from repro.sanmodels.consensus_model import consensus_stop_predicate
from repro.sanmodels.exponential import exponential_consensus_model
from repro.sanmodels.parameters import SANParameters

WORKLOADS = ("testbed", "class3", "model")

#: The class-3 point left out of ``class3``: at quick scale it takes
#: 100-160 s with 74-75 of its 80 executions undecided (see README.md).
EXCLUDED_CLASS3_POINT = (7, 1.0)

#: Process counts of the exact solves of the exponential consensus model.
ANALYTIC_PROCESS_COUNTS = (3, 4)


@dataclass(frozen=True)
class Operation:
    """One unit of benchmark work.

    ``experiment`` names the registered experiment whose ``aggregate``
    assembles this operation's group into an artifact, or ``None`` when
    the group has no plan-shaped experiment behind it.
    """

    point: SweepPoint
    experiment: Optional[str] = None

    @property
    def label(self) -> str:
        """The point's label, unique within a workload."""
        return self.point.label


def analytic_consensus_latency(n_processes: int) -> AnalyticResult:
    """Exact solve of the exponential consensus model (latency + completions)."""
    solver = AnalyticSolver(
        model_factory=functools.partial(exponential_consensus_model, n_processes),
        reward_factory=solver_compare.consensus_rewards,
        stop_predicate=consensus_stop_predicate,
        max_time=10_000.0,
    )
    return solver.solve()


def _ops(points, experiment: Optional[str] = None) -> List[Operation]:
    return [Operation(point, experiment) for point in points]


def _testbed(settings: ExperimentSettings) -> List[Operation]:
    measured = [
        point
        for point in table1.table1_plan(settings, SANParameters()).points
        if point.func is table1._table1_measured_point
    ]
    # The measurement half of every fault-sweep point: the SAN solve the
    # pure-loss points add belongs to the model side.
    faults = [
        replace(point, kwargs=tuple(
            (name, False if name == "simulate" else value) for name, value in point.kwargs
        ))
        for point in fault_sweep.fault_sweep_plan(settings).points
    ]
    return (
        _ops(figure7.figure7a_plan(settings).points, "figure7a")
        + _ops(measured, "table1")
        + _ops(faults, "faultsweep")
    )


def _class3(settings: ExperimentSettings) -> List[Operation]:
    points = [
        point
        for point in figure8.figure8_plan(settings).points
        if (dict(point.kwargs)["n_processes"], dict(point.kwargs)["timeout_ms"])
        != EXCLUDED_CLASS3_POINT
    ]
    return _ops(points, "figure8")


def _model(settings: ExperimentSettings) -> List[Operation]:
    parameters = SANParameters()
    simulated = [
        point
        for point in table1.table1_plan(settings, parameters).points
        if point.func is table1._table1_simulated_point
    ]
    analytic = [
        SweepPoint.make(
            analytic_consensus_latency,
            kwargs={"n_processes": n},
            indices=(900, n),
            label=f"analytic consensus-exp n={n}",
            seed_arg=None,
        )
        for n in ANALYTIC_PROCESS_COUNTS
    ]
    return (
        _ops(figure7.figure7b_plan(settings, 5, parameters).points)
        + _ops(figure7.latency_means_plan(settings, parameters).points)
        + _ops(simulated, "table1")
        + _ops(solver_compare.solver_compare_plan(settings).points, "solvercompare")
        + _ops(analytic)
    )


_BUILDERS: Dict[str, Callable[[ExperimentSettings], List[Operation]]] = {
    "testbed": _testbed,
    "class3": _class3,
    "model": _model,
}


def workload_settings(workload: str, seed: int) -> ExperimentSettings:
    """The quick-scale settings of one workload, with its input size.

    ``testbed`` measures 100 instead of 300 executions per class-1/2 point
    and ``model`` runs 100 instead of 200 replications per SAN point, so
    that several passes fit into one benchmark run (README.md).  ``class3``
    and the fault-sweep points keep the quick 80 executions: fewer would
    stop the T=100 ms points before the execution at which they fail.
    """
    settings = ExperimentSettings(seed=seed)
    if workload == "testbed":
        return replace(settings, executions=100)
    if workload == "model":
        return replace(settings, replications=100)
    return settings


def build_operations(workload: str, settings: ExperimentSettings) -> List[Operation]:
    """The operations of one workload under ``settings``, in run order."""
    try:
        builder = _BUILDERS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {list(WORKLOADS)}"
        ) from None
    return builder(settings)
