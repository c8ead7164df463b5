"""The loop-version reference of :func:`repro.san.statespace.generate_state_space`.

This is the straightforward reachability walk over dict
:class:`~repro.san.marking.Marking` objects: it re-tests *every*
instantaneous activity on every marking of an elimination chain and every
timed activity on every state, and keys states by
:class:`~repro.san.marking.FrozenMarking`.  The production generator
walks compiled token rows and re-tests only the dependents of what
changed; the tests hold the two to exactly equal :class:`StateSpace`
results (states in order, transitions, masks, initial distribution and
completions), so this walk fixes the discovery order and the float
accumulation order the production code must keep.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.san.activities import Activity, Case, InstantaneousActivity, TimedActivity
from repro.san.marking import FrozenMarking, Marking
from repro.san.model import SANModel
from repro.san.statespace import (
    MAX_VANISHING_FIRINGS,
    PROBABILITY_EPSILON,
    MarkingPredicate,
    NonMarkovianModelError,
    StateSpace,
    StateSpaceError,
    Transition,
)
from repro.stats.distributions import Exponential


def _exponential_rate(activity: TimedActivity, marking: Marking) -> float:
    dist = activity.distribution
    if callable(dist) and not hasattr(dist, "sample"):
        dist = dist(marking)
    if not isinstance(dist, Exponential):
        raise NonMarkovianModelError(
            f"timed activity {activity.name!r} has a "
            f"{type(dist).__name__} distribution; the analytic solver "
            "requires every timed activity to be Exponential -- use the "
            "simulative solver for non-Markovian models"
        )
    return dist.rate


def _case_distribution(
    activity: Activity, marking: Marking
) -> List[Tuple[Case, float]]:
    weights = [case.weight(marking) for case in activity.cases]
    if any(weight < 0 for weight in weights):
        raise StateSpaceError(
            f"activity {activity.name!r}: negative case probability"
        )
    total = float(sum(weights))
    if total <= 0:
        raise StateSpaceError(
            f"activity {activity.name!r}: case probabilities sum to zero"
        )
    return [
        (case, weight / total)
        for case, weight in zip(activity.cases, weights, strict=True)
        if weight / total > PROBABILITY_EPSILON
    ]


def _stabilize(
    marking: Marking,
    instantaneous: Sequence[InstantaneousActivity],
    stop_predicate: Optional[MarkingPredicate],
) -> List[Tuple[float, Marking, Dict[str, float]]]:
    """Eliminate vanishing markings, scanning every instantaneous activity."""
    if stop_predicate is not None and stop_predicate(marking):
        return [(1.0, marking, {})]
    pending: List[Tuple[float, Marking, Dict[str, float]]] = [(1.0, marking, {})]
    terminal: List[Tuple[float, Marking, Dict[str, float]]] = []
    firings = 0
    while pending:
        probability, current, fired = pending.pop()
        enabled = None
        for activity in instantaneous:
            if activity.enabled(current):
                enabled = activity
                break
        if enabled is None:
            terminal.append((probability, current, fired))
            continue
        firings += 1
        if firings > MAX_VANISHING_FIRINGS:
            raise StateSpaceError(
                f"more than {MAX_VANISHING_FIRINGS} instantaneous firings "
                "while eliminating a vanishing marking -- unstable "
                "(vanishing) loop?"
            )
        cases = _case_distribution(enabled, current)
        for case, case_probability in cases:
            branch = current.copy() if len(cases) > 1 else current
            enabled.complete(branch, case)
            branch_fired = dict(fired)
            branch_fired[enabled.name] = branch_fired.get(enabled.name, 0.0) + 1.0
            branch_probability = probability * case_probability
            if stop_predicate is not None and stop_predicate(branch):
                terminal.append((branch_probability, branch, branch_fired))
            else:
                pending.append((branch_probability, branch, branch_fired))
    return terminal


def reference_state_space(
    model: SANModel,
    stop_predicate: Optional[MarkingPredicate] = None,
    initial_marking: Optional[Marking] = None,
    max_states: int = 200_000,
) -> StateSpace:
    """The reachability graph by the full-scan dict walk (same contract)."""
    model.validate()
    instantaneous = sorted(
        model.instantaneous_activities, key=lambda activity: activity.rank
    )
    timed = model.timed_activities

    start = (
        initial_marking.copy() if initial_marking is not None
        else model.initial_marking()
    )

    states: List[FrozenMarking] = []
    index: Dict[FrozenMarking, int] = {}
    initial_probability: Dict[int, float] = {}
    stop_flags: List[bool] = []
    frontier: List[int] = []

    def intern_state(marking: Marking, stopped: bool) -> int:
        key = marking.freeze()
        state = index.get(key)
        if state is None:
            state = len(states)
            if state >= max_states:
                raise StateSpaceError(
                    f"model {model.name!r}: state space exceeds "
                    f"max_states={max_states}"
                )
            states.append(key)
            index[key] = state
            stop_flags.append(stopped)
            if not stopped:
                frontier.append(state)
        return state

    initial_completions: Dict[str, float] = {}
    for probability, terminal, fired in _stabilize(
        start, instantaneous, stop_predicate
    ):
        stopped = stop_predicate is not None and stop_predicate(terminal)
        state = intern_state(terminal, stopped)
        initial_probability[state] = (
            initial_probability.get(state, 0.0) + probability
        )
        for name, count in sorted(fired.items()):
            initial_completions[name] = (
                initial_completions.get(name, 0.0) + count * probability
            )

    transitions: List[Transition] = []
    cursor = 0
    while cursor < len(frontier):
        source = frontier[cursor]
        cursor += 1
        source_marking = states[source].thaw()
        edges: Dict[int, Tuple[float, Dict[str, float]]] = {}
        for activity in timed:
            if not activity.enabled(source_marking):
                continue
            rate = _exponential_rate(activity, source_marking)
            for case, case_probability in _case_distribution(
                activity, source_marking
            ):
                after = source_marking.copy()
                activity.complete(after, case)
                branch_rate = rate * case_probability
                for probability, terminal, fired in _stabilize(
                    after, instantaneous, stop_predicate
                ):
                    stopped = (
                        stop_predicate is not None and stop_predicate(terminal)
                    )
                    target = intern_state(terminal, stopped)
                    edge_rate = branch_rate * probability
                    total_rate, completions = edges.get(target, (0.0, {}))
                    completions = dict(completions)
                    completions[activity.name] = (
                        completions.get(activity.name, 0.0) + edge_rate
                    )
                    for name, count in sorted(fired.items()):
                        completions[name] = (
                            completions.get(name, 0.0) + count * edge_rate
                        )
                    edges[target] = (total_rate + edge_rate, completions)
        for target, (rate, completions) in edges.items():
            transitions.append(
                Transition(
                    source=source,
                    target=target,
                    rate=rate,
                    completions=tuple(
                        sorted(
                            (name, weighted / rate)
                            for name, weighted in completions.items()
                        )
                    ),
                )
            )

    n = len(states)
    initial = np.zeros(n)
    for state, probability in sorted(initial_probability.items()):
        initial[state] = probability
    if not math.isclose(float(initial.sum()), 1.0, rel_tol=1e-9):
        raise StateSpaceError(
            f"initial distribution sums to {initial.sum()!r}, expected 1"
        )

    has_exit = np.zeros(n, dtype=bool)
    for transition in transitions:
        if transition.target != transition.source:
            has_exit[transition.source] = True

    return StateSpace(
        model_name=model.name,
        states=states,
        initial_distribution=initial,
        transitions=transitions,
        absorbing=~has_exit,
        stop_mask=np.asarray(stop_flags, dtype=bool),
        initial_completions=initial_completions,
        _index=index,
    )
