"""Figure 9: latency vs. the failure-detection timeout T (§5.4).

Figure 9(a) plots the measured consensus latency against the timeout ``T``
for n = 3..11: each curve starts very high (frequent wrong suspicions force
extra rounds) and decreases to the no-suspicion latency as ``T`` grows.

Figure 9(b) compares, for n = 3 and 5, the measurements against SAN
simulations in which the failure detector is abstracted by its measured QoS
metrics, with either deterministic or exponential state-sojourn
distributions.  The paper's headline observation is that the SAN model
matches the measurements when the QoS is good (large ``T``) but
underestimates the latency when wrong suspicions are frequent, because it
assumes the failure-detector modules to be mutually independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.scenarios import Scenario
from repro.core.simulation import SimulationConfig, SimulationRunner
from repro.experiments.figure8 import Figure8Point, Figure8Result, measure_class3_point
from repro.experiments.registry import ExperimentSpec, register
from repro.experiments.runner import ReplicationPlan, SweepPoint
from repro.experiments.settings import ExperimentSettings, scaled_timeouts
from repro.sanmodels.fd_model import TransitionKind
from repro.sanmodels.parameters import SANParameters

#: The two FD sojourn-time distributions compared in Figure 9(b).
FD_KINDS: Tuple[TransitionKind, ...] = ("deterministic", "exponential")


@dataclass
class Figure9Point:
    """One (n, T) point of Figure 9."""

    n_processes: int
    timeout_ms: float
    measured_latency_ms: float
    simulated_latency_ms: Dict[str, float] = field(default_factory=dict)
    undecided: int = 0

    def simulated(self, kind: TransitionKind) -> Optional[float]:
        """The simulated latency for one FD distribution kind, if computed."""
        return self.simulated_latency_ms.get(kind)


@dataclass
class Figure9Result:
    """The Figure 9 sweep."""

    points: Dict[Tuple[int, float], Figure9Point] = field(default_factory=dict)

    def timeouts(self, n_processes: int) -> List[float]:
        """Timeouts measured for one process count, sorted."""
        return sorted(t for (n, t) in self.points if n == n_processes)

    def measured_series(self, n_processes: int) -> List[Tuple[float, float]]:
        """The measured (T, latency) series of Figure 9(a)."""
        return [
            (t, self.points[(n_processes, t)].measured_latency_ms)
            for t in self.timeouts(n_processes)
        ]

    def simulated_series(
        self, n_processes: int, kind: TransitionKind
    ) -> List[Tuple[float, float]]:
        """The simulated (T, latency) series of Figure 9(b) for one FD kind."""
        series = []
        for t in self.timeouts(n_processes):
            value = self.points[(n_processes, t)].simulated(kind)
            if value is not None:
                series.append((t, value))
        return series


def _figure9_point(
    settings: ExperimentSettings,
    n_processes: int,
    timeout_ms: float,
    parameters: SANParameters,
    simulate: bool,
    sim_seeds: Tuple[Tuple[str, int], ...],
    measurement: Optional[Figure8Point],
    point_seed: int,
) -> Figure9Point:
    """One Figure 9 point: the class-3 measurement (unless reused from a
    :class:`Figure8Result`) plus the SAN simulations fed by its QoS."""
    if measurement is None:
        measurement = measure_class3_point(
            settings,
            n_processes=n_processes,
            timeout_ms=timeout_ms,
            point_seed=point_seed,
        )
    latencies = measurement.latencies_ms
    measured_latency = sum(latencies) / len(latencies) if latencies else float("nan")
    point = Figure9Point(
        n_processes=n_processes,
        timeout_ms=timeout_ms,
        measured_latency_ms=measured_latency,
        undecided=measurement.undecided,
    )
    if simulate and measurement.qos is not None:
        for kind, seed in sim_seeds:
            simulation = SimulationRunner(
                SimulationConfig(
                    n_processes=n_processes,
                    scenario=Scenario.wrong_suspicions(timeout_ms=timeout_ms),
                    parameters=parameters,
                    fd_qos=measurement.qos,
                    fd_kind=kind,
                    replications=settings.replications,
                    seed=seed,
                )
            ).run()
            point.simulated_latency_ms[kind] = simulation.mean_latency_ms
    return point


def figure9_plan(
    settings: ExperimentSettings,
    parameters: SANParameters,
    figure8: Optional[Figure8Result] = None,
) -> ReplicationPlan:
    """The Figure 9 sweep: one point per (process count, timeout).

    Passing a :class:`Figure8Result` reuses its per-point measurements (the
    QoS estimation and the latency measurement come from the same runs, as
    in the paper); otherwise each point runs its class-3 measurement afresh.
    The simulation seeds are derived at plan-build time with a stable index
    per FD kind (the previous code used ``hash(kind)``, which varies from
    run to run under hash randomisation and would have defeated caching).
    """
    points = []
    for n_index, n in enumerate(settings.class3_process_counts):
        simulate = n in settings.simulated_process_counts
        for t_index, timeout in enumerate(scaled_timeouts(settings.timeouts_ms, n)):
            measurement: Optional[Figure8Point] = None
            if figure8 is not None:
                measurement = figure8.points.get((n, timeout))
            sim_seeds = tuple(
                (kind, settings.point_seed(9, n_index, t_index, 90 + kind_index))
                for kind_index, kind in enumerate(FD_KINDS)
            )
            points.append(
                SweepPoint.make(
                    _figure9_point,
                    kwargs={
                        "settings": settings,
                        "n_processes": n,
                        "timeout_ms": timeout,
                        "parameters": parameters,
                        "simulate": simulate,
                        "sim_seeds": sim_seeds,
                        "measurement": measurement,
                    },
                    indices=(9, n_index, t_index),
                    label=f"figure9 n={n} T={timeout}",
                )
            )
    return ReplicationPlan(settings=settings, points=tuple(points), name="figure9")


def aggregate_figure9(
    settings: ExperimentSettings,
    pairs: Iterable[Tuple[SweepPoint, Any]],
) -> Figure9Result:
    """Assemble the Figure 9 result from streamed point results."""
    result = Figure9Result()
    for _point, point in pairs:
        result.points[(point.n_processes, point.timeout_ms)] = point
    return result


def _default_figure9_plan(settings: ExperimentSettings) -> ReplicationPlan:
    """The registry's plan: default SAN parameters, fresh measurements."""
    return figure9_plan(settings, SANParameters())


def format_figure9(result: Figure9Result) -> str:
    """Render Figure 9 as a table: latency vs. T, measured and simulated."""
    lines = ["Figure 9: latency [ms] vs. failure-detection timeout T [ms]"]
    ns = sorted({n for (n, _t) in result.points})
    for n in ns:
        lines.append(f"n = {n}")
        lines.append("   T      meas.   sim.det.   sim.exp.")
        for t in result.timeouts(n):
            point = result.points[(n, t)]
            det = point.simulated("deterministic")
            exp = point.simulated("exponential")
            det_text = f"{det:9.3f}" if det is not None else "         "
            exp_text = f"{exp:9.3f}" if exp is not None else "         "
            lines.append(
                f"{t:6.1f} {point.measured_latency_ms:9.3f}  {det_text}  {exp_text}"
            )
        lines.append("")
    return "\n".join(lines)


def figure9_record(result: Figure9Result) -> Dict[str, Any]:
    """The JSON artifact data of Figure 9."""
    points = []
    for (n, t) in sorted(result.points):
        point = result.points[(n, t)]
        points.append(
            {
                "n_processes": n,
                "timeout_ms": t,
                "measured_latency_ms": point.measured_latency_ms,
                "simulated_latency_ms": {
                    kind: point.simulated(kind) for kind in FD_KINDS
                },
                "undecided": point.undecided,
            }
        )
    return {"fd_kinds": list(FD_KINDS), "points": points}


def figure9_rows(result: Figure9Result):
    """The CSV series of Figure 9."""
    header = [
        "n_processes",
        "timeout_ms",
        "measured_latency_ms",
        *(f"simulated_{kind}_ms" for kind in FD_KINDS),
    ]
    rows = []
    for (n, t) in sorted(result.points):
        point = result.points[(n, t)]
        rows.append(
            [n, t, point.measured_latency_ms]
            + [point.simulated(kind) for kind in FD_KINDS]
        )
    return header, rows


SPEC = register(
    ExperimentSpec(
        name="figure9",
        description="Fig. 9: latency vs. the timeout T, measured and SAN-simulated",
        build_plan=_default_figure9_plan,
        aggregate=aggregate_figure9,
        render_text=format_figure9,
        to_record=figure9_record,
        to_rows=figure9_rows,
    )
)
