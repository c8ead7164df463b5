"""Trace-intelligence walkthrough: from event logs to an explanation.

Runs the ``traceanalysis`` campaign at smoke scale -- one faulted sweep
point, re-measured over a handful of replications where every *odd*
replication additionally crashes and recovers the coordinator -- and then
walks the analysis pipeline by hand:

1. the per-replication feature vectors cluster into failure modes
   (crashed-coordinator replications separate from nominal ones);
2. the worst replication's happens-before graph is sliced backward from
   the failure detector's suspicion of the crashed coordinator, showing
   the injected crash inside the causal slice;
3. diffing the worst log against a nominal exemplar yields a short,
   ordered explanation of what the anomalous run did differently.

Trace collection is opt-in and purely observational, so the measured
latencies are bit-identical with tracing on or off.

Run with::

    PYTHONPATH=src python examples/trace_analysis.py
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentOptions, run_experiment
from repro.experiments.trace_analysis import N_PROCESSES, SPEC
from repro.traces import CRASH, build_hb_graph
from repro.traces.diff import diff_logs


def main() -> None:
    """Run the smoke-scale campaign and explain the worst replication."""
    result = run_experiment(SPEC, ExperimentOptions(scale="smoke")).result

    print(f"traced replications: {len(result.replications)}")
    print()

    print("discovered clusters (most anomalous first):")
    for info in result.clusters:
        members = ", ".join(str(m) for m in info["members"])
        modes = info["crash_injected"]  # distinct values among the members
        if modes == [True]:
            kind = "crashed coordinator"
        elif modes == [False]:
            kind = "nominal"
        else:
            kind = "mixed"
        print(
            f"  cluster {info['label']}: {info['size']} replications "
            f"[{members}] -- {kind} (exemplar {info['exemplar']})"
        )
    if result.noise:
        print(f"  noise: {', '.join(str(m) for m in result.noise)}")
    print()

    worst = result.replications[result.worst]
    nominal = result.replications[result.nominal_exemplar]
    print(
        f"worst replication: #{worst.replication} "
        f"(mean latency {worst.mean_latency_ms:.3f} ms, "
        f"{worst.undecided} undecided, crash injected: {worst.crash_injected})"
    )

    # Re-derive the causal slice the experiment reports, to show the API.
    graph = build_hb_graph(worst.event_log, n_processes=N_PROCESSES)
    print(
        f"anchor: {result.anchor_kind} at {result.anchor_time_ms:.3f} ms; "
        f"causal slice covers {result.slice_size} of "
        f"{len(worst.event_log)} events"
    )
    crash = graph.find_first(kind=CRASH)
    if crash is not None:
        print(
            f"injected fault in slice: {result.fault_in_slice} "
            f"(crash at {graph.events[crash].time_ms:.3f} ms)"
        )
    print()

    print(
        f"minimal explanation vs nominal replication "
        f"#{nominal.replication}:"
    )
    diff = diff_logs(worst.event_log, nominal.event_log, max_steps=10)
    for step in diff.steps:
        print(
            f"  {step.first_time_ms:9.3f} ms  "
            f"{step.description:<44s} ({step.delta:+d})"
        )


if __name__ == "__main__":
    main()
