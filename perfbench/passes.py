"""One workload pass: every operation through the runner, then the checks.

Each operation is a one-point :class:`~repro.experiments.runner.ReplicationPlan`
executed by :func:`~repro.experiments.runner.iter_plan` at ``jobs=1``, so
one failing point is one failed operation and the pass continues.  Checks,
digests and artifact rendering run between operations, outside the timed
region: ``wall_s`` is the sum of the operations' runner times.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import __version__
from repro.experiments import registry
from repro.experiments.artifacts import (
    PointTiming,
    RunManifest,
    artifact_payload,
    dump_json,
    json_safe,
    utc_timestamp,
)
from repro.experiments.runner import ReplicationPlan, SweepPoint, iter_plan
from repro.experiments.settings import ExperimentSettings
from repro.experiments.solver_compare import SolverComparePoint
from repro.san import execution
from repro.san.analytic import AnalyticResult

from perfbench import calibration, checks
from perfbench.instrument import Instrumentation, measurement_counts
from perfbench.workloads import Operation, build_operations, workload_settings


@dataclass
class Outcome:
    """What one operation did."""

    operation: Operation
    seconds: float
    #: The point function's own time, from the runner's timing hook
    #: (``None`` when the point raised before the hook ran).
    point_seconds: Optional[float]
    #: Calibration sample timed just before the operation, if requested.
    yardstick_s: Optional[float] = None
    result: Any = None
    error: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    digest: Optional[str] = None

    @property
    def failed(self) -> bool:
        """Raised, or failed an output check."""
        return self.error is not None or bool(self.problems)


def run_operations(
    operations: List[Operation],
    settings: ExperimentSettings,
    instrumentation: Instrumentation,
    reference: Dict[str, Any],
    calibrate: bool = False,
) -> Tuple[List[Outcome], Counter]:
    """Run and check every operation; returns the outcomes and measured-run counters.

    With ``calibrate``, a calibration sample is timed just before every
    operation, outside its timed region.
    """
    outcomes: List[Outcome] = []
    counts: Counter = Counter()
    for operation in operations:
        yardstick_s = calibration.sample_seconds() if calibrate else None
        plan = ReplicationPlan(settings=settings, points=(operation.point,), name=operation.label)
        point_seconds: List[float] = []
        result: Any = None
        error: Optional[str] = None
        started = time.perf_counter()
        try:
            for _point, result in iter_plan(
                plan,
                jobs=1,
                timing_hook=lambda _point, seconds, _cached: point_seconds.append(seconds),
            ):
                pass
        except Exception as exc:  # one failing point is one failed operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        outcome = Outcome(
            operation,
            seconds=elapsed,
            point_seconds=point_seconds[0] if point_seconds else None,
            result=result if error is None else None,
            error=error,
            yardstick_s=yardstick_s,
        )
        runners = instrumentation.take_runners()
        outcome.problems.extend(checks.check_agreement(runners))
        for runner in runners:
            counts.update(measurement_counts(runner))
        if error is None:
            outcome.problems.extend(_check_result(operation.point, result, reference))
            outcome.digest = checks.digest(result)
        outcomes.append(outcome)
    return outcomes, counts


def _check_result(point: SweepPoint, result: Any, reference: Dict[str, Any]) -> List[str]:
    if isinstance(result, SolverComparePoint):
        return checks.check_solver_compare(result)
    if isinstance(result, AnalyticResult):
        return checks.check_analytic(dict(point.kwargs)["n_processes"], result, reference)
    return []


def render_artifacts(
    outcomes: List[Outcome], settings: ExperimentSettings
) -> Tuple[Dict[str, str], float]:
    """Digest of the JSON artifact of every experiment whose operations all succeeded.

    Returns ``(digests, seconds spent rendering)``.
    """
    groups: Dict[str, List[Outcome]] = {}
    for outcome in outcomes:
        if outcome.operation.experiment is not None:
            groups.setdefault(outcome.operation.experiment, []).append(outcome)
    digests: Dict[str, str] = {}
    seconds = 0.0
    for name, members in groups.items():
        if any(member.failed for member in members):
            continue
        started = time.perf_counter()
        spec = registry.get(name)
        result = spec.aggregate(
            settings, [(member.operation.point, member.result) for member in members]
        )
        manifest = RunManifest(
            experiment=name,
            scale=settings.scale_name(),
            seed=settings.seed,
            jobs=1,
            settings_hash=settings.settings_hash(),
            settings=json_safe(asdict(settings)),
            started_at=utc_timestamp(),
            wall_clock_seconds=sum(member.seconds for member in members),
            points=tuple(
                PointTiming(
                    label=member.operation.label,
                    indices=member.operation.point.indices,
                    seconds=member.point_seconds or 0.0,
                )
                for member in members
            ),
            version=__version__,
        )
        text = dump_json(
            artifact_payload(spec.name, spec.description, spec.to_record(result), manifest)
        )
        seconds += time.perf_counter() - started
        digests[name] = checks.digest(checks.strip_artifact_timings(json.loads(text)))
    return digests, seconds


def compare_reference(
    workload: str,
    outcomes: List[Outcome],
    artifacts: Dict[str, str],
    reference: Dict[str, Any],
) -> Tuple[List[str], List[str]]:
    """Digests and failures against the committed reference (default seed only).

    An operation whose digest differs fails, and so does one that raises
    where the reference recorded a result or another exception type.
    Returns ``(pass-level problems, notes)``: the notes list results the
    reference has no digest for, such as a recorded failure that now
    succeeds, so a later fix is reported, not rejected.
    """
    section = reference["workloads"].get(
        workload, {"operations": {}, "failures": {}, "artifacts": {}}
    )
    unreferenced = []
    for outcome in outcomes:
        label = outcome.operation.label
        if outcome.error is not None:
            expected_error = section["failures"].get(label)
            error_type = outcome.error.split(":", 1)[0]
            if expected_error != error_type:
                outcome.problems.append(
                    f"raised {error_type}; reference.json records {expected_error or 'a result'}"
                )
            continue
        expected = section["operations"].get(label)
        if expected is None:
            unreferenced.append(label)
        elif expected != outcome.digest:
            outcome.problems.append("result digest differs from reference.json")
    problems = [
        f"artifact {name}: digest differs from reference.json"
        for name, value in sorted(artifacts.items())
        if section["artifacts"].get(name, value) != value
    ]
    unreferenced.extend(
        f"artifact {name}" for name in sorted(artifacts) if name not in section["artifacts"]
    )
    return problems, unreferenced


def run_pass(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    """Run one workload pass and report its numbers, outcomes and checks."""
    reference = checks.load_reference()
    settings = workload_settings(workload, seed)
    operations = build_operations(workload, settings)
    with Instrumentation(traced) as instrumentation:
        outcomes, counts = run_operations(
            operations, settings, instrumentation, reference, calibrate=True
        )
    artifacts, render_s = render_artifacts(outcomes, settings)
    problems: List[str] = []
    unreferenced: List[str] = []
    if settings.seed == reference["seed"]:
        problems, unreferenced = compare_reference(workload, outcomes, artifacts, reference)
    report: Dict[str, Any] = {
        "wall_s": sum(outcome.seconds for outcome in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "executions": counts["executions"],
        "replications": instrumentation.replications,
        "operations": [
            {
                "label": outcome.operation.label,
                "seconds": outcome.seconds,
                "yardstick_s": outcome.yardstick_s,
                "error": outcome.error,
                "problems": outcome.problems,
                "digest": outcome.digest,
            }
            for outcome in outcomes
        ],
        "artifacts": artifacts,
        "problems": problems,
        "unreferenced": unreferenced,
        "labels": {
            "policy.strategy": execution.resolve_strategy(None),
            "policy.batch_size": str(execution.resolve_batch_size(None)),
        },
    }
    if traced:
        report["labels"]["executors"] = dict(sorted(instrumentation.executors.items()))
        report["labels"]["batch_sizes"] = {
            str(size): batches for size, batches in sorted(instrumentation.batch_sizes.items())
        }
        report["layers"] = layer_metrics(outcomes, counts, instrumentation, render_s)
    return report


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(
    outcomes: List[Outcome],
    counts: Counter,
    instrumentation: Instrumentation,
    render_s: float,
) -> Dict[str, Dict[str, Any]]:
    """Per-layer numbers of a traced pass; idle layers report zero."""
    probe = instrumentation.probe
    work = instrumentation.counts
    point_times = [
        outcome.seconds if outcome.point_seconds is None else outcome.point_seconds
        for outcome in outcomes
    ]
    overhead = sum(
        outcome.seconds - outcome.point_seconds
        for outcome in outcomes
        if outcome.point_seconds is not None
    )
    failed = sum(1 for outcome in outcomes if outcome.failed)
    send_s = probe("cluster.send").seconds
    sample_s = probe("stats.sample").seconds
    solve_s = probe("san.solve").seconds
    metrics = {
        "runner.points": (len(outcomes), "count"),
        "runner.point_s.p50": (statistics.median(point_times) if point_times else 0.0, "s"),
        "runner.point_s.max": (max(point_times, default=0.0), "s"),
        "runner.overhead_s": (overhead, "s"),
        "runner.failed_share": (_rate(failed, len(outcomes)), "ratio"),
        "measurement.build_s": (probe("measurement.build").seconds, "s"),
        "measurement.run_s": (probe("measurement.run").seconds, "s"),
        "measurement.executions": (counts["executions"], "count"),
        "measurement.decided_share": (_rate(counts["decided"], counts["executions"]), "ratio"),
        "des.events": (work["des.events"], "count"),
        "des.events_per_s": (_rate(work["des.events"], probe("des.run").seconds), "1/s"),
        "cluster.messages_sent": (counts["messages_sent"], "count"),
        "cluster.messages_dropped": (counts["messages_dropped"], "count"),
        "cluster.heartbeats_sent": (counts["heartbeats_sent"], "count"),
        "cluster.send_s": (send_s, "s"),
        "cluster.messages_per_s": (_rate(counts["messages_sent"], send_s), "1/s"),
        "consensus.rounds_per_decision": (
            _rate(counts["decision_rounds"], counts["decisions"]), "ratio"
        ),
        "failure_detectors.suspicions": (counts["suspicions"], "count"),
        "faults.injected": (counts["faults_injected"], "count"),
        "stats.draws": (work["stats.draws"], "count"),
        "stats.sample_s": (sample_s, "s"),
        "stats.draws_per_s": (_rate(work["stats.draws"], sample_s), "1/s"),
        "sanmodels.build_s": (probe("sanmodels.build").seconds, "s"),
        "san.compile_s": (probe("san.compile").seconds, "s"),
        "san.solve_s": (solve_s, "s"),
        "san.replications": (instrumentation.replications, "count"),
        "san.completions": (work["san.completions"], "count"),
        "san.completions_per_s": (_rate(work["san.completions"], solve_s), "1/s"),
        "statespace.states": (work["statespace.states"], "count"),
        "statespace.states_per_s": (
            _rate(work["statespace.states"], probe("statespace.generate").seconds), "1/s"
        ),
        "analytic.solve_s": (probe("analytic.solve").seconds, "s"),
        "artifacts.render_s": (render_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def write_reference(workload: str) -> None:
    """Re-record ``reference.json`` for one workload at the default seed."""
    reference = checks.load_reference()
    settings = workload_settings(workload, ExperimentSettings().seed)
    operations = build_operations(workload, settings)
    with Instrumentation(traced=False) as instrumentation:
        outcomes, _counts = run_operations(operations, settings, instrumentation, reference)
    artifacts, _seconds = render_artifacts(outcomes, settings)
    for outcome in outcomes:
        if isinstance(outcome.result, AnalyticResult):
            n_processes = dict(outcome.operation.point.kwargs)["n_processes"]
            reference["analytic_latency_ms"][str(n_processes)] = outcome.result.mean("latency")
    reference["seed"] = settings.seed
    reference["workloads"][workload] = {
        "operations": {
            outcome.operation.label: outcome.digest
            for outcome in outcomes
            if outcome.digest is not None
        },
        "failures": {
            outcome.operation.label: outcome.error.split(":", 1)[0]
            for outcome in outcomes
            if outcome.error is not None
        },
        "artifacts": artifacts,
    }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
