"""Trace analysis: cluster a faulted sweep point's replications and
explain the worst one.

Where :mod:`repro.experiments.fault_sweep` reports aggregate QoS numbers
per fault load, this experiment answers the *qualitative* follow-ups:
which distinct failure modes did the replications of one faulted point
exhibit, and why did the worst replication go anomalous?

The campaign runs many replications of a single faulted measurement
point (n = 3, heartbeat failure detector, wire-level message loss) with
trace collection on; a subset of the replications additionally crashes
the first coordinator (process 0) mid-run.  The pipeline is then pure
:mod:`repro.traces`:

1. each replication's outcome is featurized
   (:func:`repro.traces.cluster.featurize_measurement`);
2. the replications are clustered with the dependency-free DBSCAN
   (:func:`repro.traces.cluster.cluster_features`) -- on a seeded run
   the crashed-coordinator replications separate from the nominal ones;
3. the worst replication's happens-before DAG is reconstructed
   (:func:`repro.traces.hb.build_hb_graph`) and the causal slice
   backward from the QoS violation (the first wrong suspicion) is
   computed -- it contains the injected crash event;
4. its event log is diffed against a nominal exemplar
   (:func:`repro.traces.diff.diff_logs`) into a minimal ordered
   explanation.

Like every generator the campaign is a
:class:`~repro.experiments.runner.ReplicationPlan` (``--jobs`` and
``--cache-dir`` supported, bit-identical results).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.measurement import MeasurementConfig, MeasurementRunner
from repro.core.scenarios import Scenario
from repro.experiments.registry import ExperimentSpec, register
from repro.experiments.runner import ReplicationPlan, SweepPoint
from repro.experiments.settings import ExperimentSettings
from repro.faults.spec import CrashRecovery, FaultLoad, MessageLoss
from repro.traces.cluster import cluster_features, feature_matrix, featurize_measurement
from repro.traces.diff import diff_logs
from repro.traces.events import CRASH, TIMER, EventLog
from repro.traces.hb import HappensBeforeGraph, build_hb_graph

#: The sweep point under analysis.
N_PROCESSES = 3
#: Wire-level loss rate applied to every replication.
LOSS_RATE = 0.03
#: Heartbeat failure-detector timeout (period defaults to 0.7 T).
FD_TIMEOUT_MS = 5.0
#: Index namespace of this experiment's point seeds (faultsweep uses 12).
SEED_INDEX = 13


def n_trace_replications(settings: ExperimentSettings) -> int:
    """How many replications the campaign runs at these settings."""
    return max(8, min(24, settings.class3_executions // 3))


def trace_fault_load(replication: int, horizon_ms: float) -> FaultLoad:
    """The fault load of one replication of the campaign.

    Every replication suffers wire-level loss; every second one
    additionally crashes the first coordinator (process 0) for the
    middle third of the horizon -- the two failure modes the clustering
    must separate.
    """
    faults: List[Any] = [MessageLoss(rate=LOSS_RATE)]
    crashed = replication % 2 == 1
    if crashed:
        faults.append(
            CrashRecovery(
                process_id=0,
                crash_at_ms=horizon_ms / 3.0,
                recover_at_ms=2.0 * horizon_ms / 3.0,
            )
        )
    name = "loss+crash-coordinator" if crashed else "loss"
    return FaultLoad(faults=tuple(faults), name=name)


@dataclass
class TracedReplication:
    """One traced replication of the campaign (picklable sweep result)."""

    replication: int
    crash_injected: bool
    mean_latency_ms: float
    undecided: int
    messages_dropped: int
    fd_transitions: int
    features: Dict[str, float] = field(default_factory=dict)
    event_log: EventLog = field(default_factory=EventLog)


@dataclass
class TraceAnalysisResult:
    """The clustered campaign plus the worst replication's explanation."""

    replications: List[TracedReplication] = field(default_factory=list)
    labels: List[int] = field(default_factory=list)
    clusters: List[Dict[str, Any]] = field(default_factory=list)
    noise: Tuple[int, ...] = ()
    worst: int = 0
    nominal_exemplar: int = 0
    anchor_kind: str = ""
    anchor_time_ms: float = 0.0
    slice_size: int = 0
    fault_in_slice: bool = False
    explanation: List[Dict[str, Any]] = field(default_factory=list)


def _trace_point(
    settings: ExperimentSettings, replication: int, point_seed: int
) -> TracedReplication:
    """One traced replication (module-level so the pool can pickle it)."""
    executions = max(6, settings.class3_executions // 4)
    separation_ms = 10.0
    horizon_ms = 1.0 + executions * separation_ms
    load = trace_fault_load(replication, horizon_ms)
    config = MeasurementConfig(
        cluster=settings.cluster_for(N_PROCESSES, point_seed),
        scenario=Scenario.wrong_suspicions(timeout_ms=FD_TIMEOUT_MS),
        executions=executions,
        separation_ms=separation_ms,
        extra_time_ms=max(200.0, horizon_ms),
        fault_load=load,
        collect_traces=True,
    )
    result = MeasurementRunner(config).run()
    assert result.event_log is not None  # collect_traces=True guarantees it
    return TracedReplication(
        replication=replication,
        crash_injected=any(isinstance(f, CrashRecovery) for f in load.faults),
        mean_latency_ms=result.mean_latency_ms,
        undecided=result.undecided,
        messages_dropped=result.messages_dropped,
        fd_transitions=len(result.fd_history),
        features=featurize_measurement(result),
        event_log=result.event_log,
    )


def trace_analysis_plan(settings: ExperimentSettings) -> ReplicationPlan:
    """The campaign: one traced replication per sweep point."""
    points = tuple(
        SweepPoint.make(
            _trace_point,
            kwargs={"settings": settings, "replication": replication},
            indices=(SEED_INDEX, replication),
            label=f"traceanalysis replication {replication}",
        )
        for replication in range(n_trace_replications(settings))
    )
    return ReplicationPlan(settings=settings, points=points, name="traceanalysis")


def _pick_worst(replications: List[TracedReplication]) -> int:
    """The most anomalous replication: most undecided, then slowest."""
    def badness(rep: TracedReplication) -> Tuple[int, float]:
        latency = rep.mean_latency_ms
        return (rep.undecided, latency if math.isfinite(latency) else 0.0)

    worst = 0
    for index, rep in enumerate(replications):
        if badness(rep) > badness(replications[worst]):
            worst = index
    return worst


def _pick_nominal(
    replications: List[TracedReplication], labels: List[int], worst: int
) -> int:
    """A nominal exemplar: fastest replication outside the worst's cluster."""
    worst_label = labels[worst]
    candidates = [
        index
        for index, label in enumerate(labels)
        if index != worst and (label != worst_label or label < 0)
    ] or [index for index in range(len(replications)) if index != worst]

    def goodness(index: int) -> Tuple[int, float]:
        rep = replications[index]
        latency = rep.mean_latency_ms
        return (rep.undecided, latency if math.isfinite(latency) else math.inf)

    return min(candidates, key=lambda index: (goodness(index), index))


def _find_anchor(graph: HappensBeforeGraph) -> Optional[int]:
    """The QoS-violation anchor of the worst replication's slice.

    Preferably the first ``suspect`` verdict *about the crashed process
    after its crash* -- the detection whose causal past must contain the
    injected fault.  Replications without a crash (or whose suspicions
    all predate it) fall back to the first wrong suspicion, then to the
    final event.
    """
    crash_index = graph.find_first(kind=CRASH)
    if crash_index is not None:
        crashed = graph.events[crash_index].process
        for index in range(crash_index + 1, len(graph.events)):
            event = graph.events[index]
            if event.kind == TIMER and event.detail == "suspect" and event.peer == crashed:
                return index
    anchor = graph.find_first(kind=TIMER, detail="suspect")
    if anchor is None and graph.events:
        anchor = len(graph.events) - 1
    return anchor


def aggregate_trace_analysis(
    settings: ExperimentSettings,
    pairs: Iterable[Tuple[SweepPoint, Any]],
) -> TraceAnalysisResult:
    """Cluster the streamed replications and explain the worst one."""
    replications: List[TracedReplication] = sorted(
        (traced for _point, traced in pairs), key=lambda traced: traced.replication
    )
    result = TraceAnalysisResult(replications=replications)
    if not replications:
        return result
    matrix = feature_matrix([rep.features for rep in replications])
    clustering = cluster_features(matrix)
    result.labels = clustering.labels
    result.noise = clustering.noise
    result.clusters = [
        {
            "label": info.label,
            "size": len(info.members),
            "members": list(info.members),
            "exemplar": info.exemplar,
            "score": info.score,
            "crash_injected": sorted(
                {replications[index].crash_injected for index in info.members}
            ),
        }
        for info in clustering.clusters
    ]
    result.worst = _pick_worst(replications)
    result.nominal_exemplar = _pick_nominal(replications, clustering.labels, result.worst)

    worst_log = replications[result.worst].event_log
    graph = build_hb_graph(worst_log, n_processes=N_PROCESSES)
    anchor = _find_anchor(graph)
    if anchor is not None:
        causal_slice = graph.causal_past(anchor)
        anchor_event = graph.events[anchor]
        result.anchor_kind = anchor_event.kind
        result.anchor_time_ms = anchor_event.time_ms
        result.slice_size = len(causal_slice)
        result.fault_in_slice = any(
            graph.events[index].kind == CRASH for index in causal_slice
        )
    diff = diff_logs(worst_log, replications[result.nominal_exemplar].event_log)
    result.explanation = [
        {
            "description": step.description,
            "anomalous_count": step.anomalous_count,
            "nominal_count": step.nominal_count,
            "first_time_ms": step.first_time_ms,
        }
        for step in diff.steps
    ]
    return result


def format_trace_analysis(result: TraceAnalysisResult) -> str:
    """Render the discovered clusters and the worst-replication explanation."""
    lines = [
        "Trace analysis: failure modes of one faulted sweep point "
        f"(n={N_PROCESSES}, loss={LOSS_RATE}, T={FD_TIMEOUT_MS} ms)",
        "rep  crash  cluster   mean [ms]   undec.   dropped   fd-trans   events",
    ]
    for index, rep in enumerate(result.replications):
        label = result.labels[index] if index < len(result.labels) else -1
        mean = (
            f"{rep.mean_latency_ms:9.3f}"
            if math.isfinite(rep.mean_latency_ms)
            else "      nan"
        )
        lines.append(
            f"{rep.replication:<4d} {str(rep.crash_injected):<6s} {label:>7d}  "
            f"{mean}   {rep.undecided:6d}   {rep.messages_dropped:7d}   "
            f"{rep.fd_transitions:8d}   {len(rep.event_log):6d}"
        )
    lines.append("")
    lines.append("clusters (most anomalous first):")
    if not result.clusters:
        lines.append("  (none)")
    for info in result.clusters:
        lines.append(
            f"  #{info['label']}: {info['size']} replication(s) {info['members']}, "
            f"exemplar {info['exemplar']}, score {info['score']:.2f}, "
            f"crash_injected={info['crash_injected']}"
        )
    if result.noise:
        lines.append(f"  noise: {list(result.noise)}")
    lines.append("")
    lines.append(
        f"worst replication {result.worst}: causal slice of {result.slice_size} "
        f"event(s) back from the first {result.anchor_kind or 'n/a'} anchor at "
        f"t={result.anchor_time_ms:.3f} ms "
        f"(injected fault in slice: {result.fault_in_slice})"
    )
    lines.append(
        f"minimal explanation vs nominal exemplar {result.nominal_exemplar}:"
    )
    if not result.explanation:
        lines.append("  (no event-class differences)")
    for step in result.explanation[:12]:
        lines.append(
            f"  t={step['first_time_ms']:9.3f} ms  {step['description']}: "
            f"{step['anomalous_count']} vs {step['nominal_count']} nominal"
        )
    if len(result.explanation) > 12:
        lines.append(f"  ... and {len(result.explanation) - 12} more differences")
    return "\n".join(lines)


def trace_analysis_record(result: TraceAnalysisResult) -> Dict[str, Any]:
    """The JSON artifact data of the trace analysis."""
    return {
        "n_processes": N_PROCESSES,
        "loss_rate": LOSS_RATE,
        "fd_timeout_ms": FD_TIMEOUT_MS,
        "replications": [
            {
                "replication": rep.replication,
                "crash_injected": rep.crash_injected,
                "cluster": result.labels[index] if index < len(result.labels) else -1,
                "mean_latency_ms": rep.mean_latency_ms,
                "undecided": rep.undecided,
                "messages_dropped": rep.messages_dropped,
                "fd_transitions": rep.fd_transitions,
                "events": len(rep.event_log),
                "features": dict(sorted(rep.features.items())),
            }
            for index, rep in enumerate(result.replications)
        ],
        "clusters": result.clusters,
        "noise": list(result.noise),
        "anomalous": {
            "replication": result.worst,
            "nominal_exemplar": result.nominal_exemplar,
            "anchor_kind": result.anchor_kind,
            "anchor_time_ms": result.anchor_time_ms,
            "slice_size": result.slice_size,
            "fault_in_slice": result.fault_in_slice,
            "explanation": result.explanation,
        },
    }


def trace_analysis_rows(result: TraceAnalysisResult):
    """The CSV series of the trace analysis (one row per replication)."""
    header = [
        "replication",
        "crash_injected",
        "cluster",
        "mean_latency_ms",
        "undecided",
        "messages_dropped",
        "fd_transitions",
        "events",
    ]
    rows = []
    for index, rep in enumerate(result.replications):
        rows.append(
            [
                rep.replication,
                rep.crash_injected,
                result.labels[index] if index < len(result.labels) else -1,
                rep.mean_latency_ms,
                rep.undecided,
                rep.messages_dropped,
                rep.fd_transitions,
                len(rep.event_log),
            ]
        )
    return header, rows


SPEC = register(
    ExperimentSpec(
        name="traceanalysis",
        description=(
            "Trace analysis: happens-before slices and failure-mode "
            "clustering of a faulted sweep point"
        ),
        build_plan=trace_analysis_plan,
        aggregate=aggregate_trace_analysis,
        render_text=format_trace_analysis,
        to_record=trace_analysis_record,
        to_rows=trace_analysis_rows,
    )
)
