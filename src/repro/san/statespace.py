"""Reachability-graph state-space generation for Markovian SAN models.

The paper had to solve its models simulatively because the activity-time
distributions are not exponential (§5).  For the *exponential corner* of
the model space, however, a SAN is a continuous-time Markov chain and can
be solved exactly.  This module explores the reachable markings of a model
whose timed activities are all exponential and assembles the CTMC generator
matrix, which :mod:`repro.san.analytic` then solves numerically.

Semantics
---------
The generator reproduces the executor's semantics exactly
(:mod:`repro.san.executor`):

* A marking in which an instantaneous activity is enabled is *vanishing*:
  it is eliminated on the fly.  Among several enabled instantaneous
  activities the one with the lowest ``rank`` (then definition order)
  fires first -- the executor's deterministic tie-break -- and its
  probabilistic cases branch the elimination.
* A *tangible* marking (no instantaneous activity enabled) is a CTMC
  state.  Every enabled timed activity must carry an
  :class:`~repro.stats.distributions.Exponential` distribution
  (marking-dependent distributions are evaluated on the enabling marking);
  anything else raises :class:`NonMarkovianModelError`.  Case
  probabilities are evaluated on the marking at completion time, exactly
  as :meth:`~repro.san.activities.Activity.choose_case` does.
* Reactivation policies are irrelevant for *fixed* exponential
  distributions: memorylessness makes discarding and resampling a clock
  at the same rate a no-op.  For **marking-dependent** exponential rates
  the CTMC semantics used here (the rate tracks the current state
  immediately) can differ from the executor, which keeps a sampled clock
  while the activity stays enabled and only resamples on
  disable/re-enable -- the standard analytic SAN interpretation, but a
  caveat when cross-validating marking-dependent-rate models.
* A marking satisfying the ``stop_predicate`` is absorbing (the executor
  stops the replication there), as is a dead marking.  The predicate is
  checked after every completion -- including the instantaneous firings
  inside an elimination chain -- mirroring the executor.

Representation
--------------
Generation walks the model's :class:`~repro.san.compiled.CompiledSANModel`,
the lowering the batched executor interprets.  A marking in flight is an
integer token row plus a mapping for the undeclared places only gate
functions write; gates, case weights, marking-dependent distributions and
the stop predicate read it through a :class:`~repro.san.compiled.RowMarking`
view, whose journal reports what each gate function changed.  The state
key is the *packed* row -- its ``bytes`` (a tuple if a count exceeds 255)
plus the sorted nonzero undeclared-place counts -- so markings that agree
on every nonzero place are one state; ``StateSpace.states`` is built from
the keys once, at the end, as :class:`~repro.san.marking.FrozenMarking`
objects.

Enablement is derived, not rescanned.  Only the initial (or overridden)
marking is scanned in full; every explored state is tangible, so:

* an elimination chain walks a candidate bitmask of instantaneous
  activities lowest bit first (firing precedence): the dependents of the
  places its completions changed (``CompiledCase.enabling_bits`` -- a
  gate-free activity only where its place gained tokens -- plus
  ``inst_bits_by_place``/``inst_bits_by_unknown`` for gate writes), and
  the candidates not yet found disabled;
* a state's enabled timed set is inherited from the state that
  discovered it, re-testing only the timed dependents of the places
  changed on the way.

Both walks visit activities in full-scan order, so the state numbering,
the transition order and every floating-point accumulation equal those
of the walk that re-tests every activity on every marking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.san.compiled import (
    CompiledActivity,
    CompiledCase,
    CompiledSANModel,
    RowMarking,
    compile_model,
)
from repro.san.marking import FrozenMarking, Marking
from repro.san.model import SANModel
from repro.stats.distributions import Exponential

MarkingPredicate = Callable[[Marking], bool]

#: Safety bound on the number of firings inside one vanishing-elimination
#: chain, to catch unstable (vanishing-loop) models.
MAX_VANISHING_FIRINGS = 100_000

#: Case probabilities smaller than this are treated as impossible branches.
PROBABILITY_EPSILON = 1e-15


class StateSpaceError(RuntimeError):
    """Raised when state-space generation fails."""


class NonMarkovianModelError(StateSpaceError):
    """Raised when a timed activity's distribution is not exponential."""


@dataclass(frozen=True)
class Transition:
    """One aggregated CTMC transition ``source -> target`` at ``rate``.

    ``completions`` maps activity names to the expected number of
    completions (timed firing plus any instantaneous firings of the
    elimination chain) incurred when this transition is taken; it backs the
    impulse rewards (:class:`~repro.san.rewards.ActivityCounter`).
    """

    source: int
    target: int
    rate: float
    completions: Tuple[Tuple[str, float], ...] = ()


@dataclass
class StateSpace:
    """The reachability graph of a Markovian SAN.

    Attributes
    ----------
    states:
        The tangible (and absorbing) markings, indexed by state number.
    initial_distribution:
        Probability of starting in each state (the initial marking may be
        vanishing, in which case its elimination chain branches).
    transitions:
        Aggregated transitions between states.
    absorbing:
        Boolean mask of absorbing states (stop-predicate states and dead
        markings).
    stop_mask:
        Boolean mask of the states satisfying the stop predicate (a subset
        of the absorbing states; empty when no predicate was given).
    initial_completions:
        Expected instantaneous completions fired while stabilising the
        *initial* marking (probability-weighted, by activity name).  The
        executor notifies reward variables of those firings too, so impulse
        rewards must include them.
    """

    model_name: str
    states: List[FrozenMarking]
    initial_distribution: np.ndarray
    transitions: List[Transition]
    absorbing: np.ndarray
    stop_mask: np.ndarray
    initial_completions: Dict[str, float] = field(default_factory=dict)
    _index: Dict[FrozenMarking, int] = field(default_factory=dict, repr=False)
    _generator: Optional[sparse.csr_matrix] = field(default=None, repr=False)
    _markings: Optional[List[Marking]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of states in the reachability graph."""
        return len(self.states)

    def index_of(self, marking: FrozenMarking | Marking) -> int:
        """The state number of a marking, raising ``KeyError`` if unreachable."""
        key = marking.freeze() if isinstance(marking, Marking) else marking
        return self._index[key]

    def markings(self) -> List[Marking]:
        """Thawed (mutable) markings of every state, cached.

        Rate rewards and gate predicates are written against
        :class:`~repro.san.marking.Marking`, so analytic reward evaluation
        thaws each state once and reuses the copies.
        """
        if self._markings is None:
            self._markings = [state.thaw() for state in self.states]
        return self._markings

    def generator(self) -> sparse.csr_matrix:
        """The CTMC generator matrix Q (rows sum to zero), cached."""
        if self._generator is None:
            n = self.n_states
            rows, cols, rates = [], [], []
            diagonal = np.zeros(n)
            for transition in self.transitions:
                rows.append(transition.source)
                cols.append(transition.target)
                rates.append(transition.rate)
                diagonal[transition.source] -= transition.rate
            rows.extend(range(n))
            cols.extend(range(n))
            rates.extend(diagonal)
            self._generator = sparse.csr_matrix(
                (rates, (rows, cols)), shape=(n, n), dtype=float
            )
        return self._generator

    def exit_rates(self) -> np.ndarray:
        """Total outgoing rate of each state (zero for absorbing states)."""
        return -np.asarray(self.generator().diagonal()).ravel()

    def completion_rate_matrix(
        self, activity_names: Optional[frozenset[str]] = None
    ) -> np.ndarray:
        """Expected completions per unit time in each state.

        ``activity_names=None`` counts every activity (timed completions
        plus the instantaneous firings charged to each transition), which
        is the analytic counterpart of
        :class:`~repro.san.rewards.ActivityCounter` with no filter.
        """
        rates = np.zeros(self.n_states)
        for transition in self.transitions:
            for name, count in transition.completions:
                if activity_names is None or name in activity_names:
                    rates[transition.source] += transition.rate * count
        return rates

    def summary(self) -> str:
        """A short human-readable description of the graph's size."""
        return (
            f"StateSpace of {self.model_name!r}: {self.n_states} states, "
            f"{len(self.transitions)} transitions, "
            f"{int(self.absorbing.sum())} absorbing"
        )

    def __repr__(self) -> str:
        return self.summary()


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
#: One end point of an elimination chain: ``(probability, row, view,
#: fired, stopped, timed_deps)`` -- the token row and its marking view,
#: the instantaneous completions fired on the way (by activity name),
#: whether the stop predicate holds, and the bitmask of the timed
#: activities whose enablement the path's changes can have altered.
_Terminal = Tuple[float, List[int], RowMarking, Dict[str, float], bool, int]


def _exponential_rate(activity: CompiledActivity, marking: Marking) -> float:
    """The exponential rate of ``activity`` in ``marking`` (or raise)."""
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
    activity: CompiledActivity, marking: Marking
) -> List[Tuple[CompiledCase, float]]:
    """The normalised case probabilities of ``activity`` in ``marking``."""
    weights = [compiled.case.weight(marking) for compiled in activity.cases]
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
        (compiled, weight / total)
        for compiled, weight in zip(activity.cases, weights, strict=True)
        if weight / total > PROBABILITY_EPSILON
    ]


def _view(
    compiled: CompiledSANModel, row: List[int], overflow: Iterable[Tuple[str, int]]
) -> RowMarking:
    """A marking view of ``row`` plus the undeclared-place ``overflow``."""
    view = RowMarking(compiled, row)
    view._overflow.update(overflow)
    return view


def _complete(
    compiled: CompiledSANModel,
    activity: CompiledActivity,
    case: CompiledCase,
    row: List[int],
    view: RowMarking,
) -> Tuple[int, int]:
    """Apply one completion to ``row``; the dependents of what it changed.

    Returns two bitmasks: the instantaneous activities the completion can
    have enabled and the timed activities whose enablement it can have
    altered -- the case's precompiled static masks ORed with the
    dependents of the places its gate functions wrote.
    """
    # SAN completion order: input arcs, input gate functions, output arcs
    # of the chosen case, output gate functions.
    for place, weight in activity.input_arcs:
        value = row[place] - weight
        if value < 0:
            raise ValueError(
                f"marking of place {compiled.place_names[place]!r} would "
                f"become negative ({value})"
            )
        row[place] = value
    for gate in activity.input_gates:
        gate.apply(view)
    for place, weight in case.output_arcs:
        row[place] += weight
    for out_gate in case.output_gates:
        out_gate.apply(view)
    inst_bits = case.enabling_bits
    timed_bits = case.timed_candidate_bits
    gate_idx, gate_names = view.take_changes()
    for place in gate_idx:
        inst_bits |= compiled.inst_bits_by_place.get(place, 0)
        timed_bits |= compiled.timed_bits_by_place.get(place, 0)
    for name in gate_names:
        inst_bits |= compiled.inst_bits_by_unknown.get(name, 0)
        timed_bits |= compiled.timed_bits_by_unknown.get(name, 0)
    return inst_bits, timed_bits


def _stabilize(
    compiled: CompiledSANModel,
    row: List[int],
    view: RowMarking,
    candidates: int,
    timed_deps: int,
    stop_predicate: Optional[MarkingPredicate],
) -> List[_Terminal]:
    """Eliminate vanishing markings starting from ``row``.

    ``candidates`` is a bitmask over the rank-ordered instantaneous
    activities holding every one that may be enabled in ``row``; the walk
    visits it lowest bit first, so the first enabled candidate is the one
    a full scan in firing precedence would find.  A candidate found
    disabled is dropped: only a change to a place it depends on can
    enable it again, and every completion adds the dependents of the
    places it changed.

    Returns the terminal markings of the elimination, in the order the
    depth-first walk reaches them.  A terminal marking is tangible (no
    instantaneous activity enabled) or satisfies the stop predicate.
    """
    if stop_predicate is not None and stop_predicate(view):
        return [(1.0, row, view, {}, True, timed_deps)]
    instantaneous = compiled.instantaneous
    # (probability, row, view, fired, candidates, timed_deps)
    pending: List[Tuple[float, List[int], RowMarking, Dict[str, float], int, int]] = [
        (1.0, row, view, {}, candidates, timed_deps)
    ]
    terminal: List[_Terminal] = []
    firings = 0
    while pending:
        probability, row, view, fired, candidates, timed_deps = pending.pop()
        enabled = None
        while candidates:
            low = candidates & -candidates
            activity = instantaneous[low.bit_length() - 1]
            # CompiledActivity.enabled, inlined: this walk is the hot loop.
            for place, weight in activity.input_arcs:
                if row[place] < weight:
                    break
            else:
                for gate in activity.input_gates:
                    if not gate.predicate(view):
                        break
                else:
                    enabled = activity
                    break
            candidates ^= low
        if enabled is None:
            terminal.append((probability, row, view, fired, False, timed_deps))
            continue
        firings += 1
        if firings > MAX_VANISHING_FIRINGS:
            raise StateSpaceError(
                f"more than {MAX_VANISHING_FIRINGS} instantaneous firings "
                "while eliminating a vanishing marking -- unstable "
                "(vanishing) loop?"
            )
        cases = _case_distribution(enabled, view)
        for case, case_probability in cases:
            if len(cases) > 1:
                branch_row = row.copy()
                branch = _view(compiled, branch_row, view._overflow.items())
            else:
                branch_row, branch = row, view
            inst_bits, timed_bits = _complete(
                compiled, enabled, case, branch_row, branch
            )
            branch_fired = dict(fired)
            branch_fired[enabled.name] = branch_fired.get(enabled.name, 0.0) + 1.0
            branch_probability = probability * case_probability
            branch_deps = timed_deps | timed_bits
            if stop_predicate is not None and stop_predicate(branch):
                terminal.append(
                    (branch_probability, branch_row, branch, branch_fired,
                     True, branch_deps)
                )
            else:
                pending.append(
                    (branch_probability, branch_row, branch, branch_fired,
                     candidates | inst_bits, branch_deps)
                )
    return terminal


def _frozen_states(
    compiled: CompiledSANModel,
    packed_rows: Sequence["bytes | Tuple[int, ...]"],
    extras: Sequence[Tuple[Tuple[str, int], ...]],
) -> List[FrozenMarking]:
    """The :class:`FrozenMarking` of every packed state.

    The rows are stacked into one matrix with its columns in place-*name*
    order, so one ``np.nonzero`` yields every state's nonzero pairs
    already sorted (only a state with undeclared-place counts re-sorts).
    Every distinct ``(place, count)`` pair is built once and shared by
    all the states holding it.
    """
    n_states = len(packed_rows)
    matrix: np.ndarray
    if all(type(packed) is bytes for packed in packed_rows):
        matrix = np.frombuffer(b"".join(packed_rows), dtype=np.uint8)  # type: ignore[arg-type]
    else:  # some place holds more than 255 tokens
        matrix = np.asarray([list(packed) for packed in packed_rows], dtype=np.int64)
    order = sorted(range(compiled.n_places), key=compiled.place_names.__getitem__)
    names = [compiled.place_names[index] for index in order]
    by_name = matrix.reshape(n_states, compiled.n_places)[:, order]
    state_ids, columns = np.nonzero(by_name)
    counts = by_name[state_ids, columns].astype(np.int64)
    base = int(counts.max()) + 1 if counts.size else 1
    codes, which = np.unique(columns * base + counts, return_inverse=True)
    shared = [(names[code // base], code % base) for code in codes.tolist()]
    pairs = list(map(shared.__getitem__, which.tolist()))
    bounds = np.searchsorted(state_ids, np.arange(n_states + 1)).tolist()
    states = []
    for state, extra in enumerate(extras):
        items = tuple(pairs[bounds[state] : bounds[state + 1]])
        if extra:
            items = tuple(sorted(items + extra))
        states.append(FrozenMarking._from_items(items))
    return states


def generate_state_space(
    model: SANModel,
    stop_predicate: Optional[MarkingPredicate] = None,
    initial_marking: Optional[Marking] = None,
    max_states: int = 200_000,
) -> StateSpace:
    """Explore the reachable markings of a Markovian SAN.

    Parameters
    ----------
    model:
        The model; it is validated, and every timed activity reachable
        during the exploration must have an exponential distribution.
    stop_predicate:
        Optional predicate over the marking; satisfying states are
        absorbing (the simulative executor stops there).
    initial_marking:
        Overrides the model's declared initial marking.
    max_states:
        Safety bound on the state count (raises
        :class:`StateSpaceError` beyond it).
    """
    model.validate()
    compiled = compile_model(model)
    timed = compiled.timed

    # Per state: the packed token row, the nonzero undeclared-place
    # counts, and (for frontier states) the enabled timed activities.
    packed_rows: List["bytes | Tuple[int, ...]"] = []
    extras: List[Tuple[Tuple[str, int], ...]] = []
    enabled_timed: List[int] = []
    index: Dict[object, int] = {}
    initial_probability: Dict[int, float] = {}
    stop_flags: List[bool] = []
    frontier: List[int] = []

    def intern_state(
        row: List[int],
        view: RowMarking,
        stopped: bool,
        parent_enabled: int,
        timed_deps: int,
    ) -> int:
        try:
            packed: "bytes | Tuple[int, ...]" = bytes(row)
        except ValueError:  # a place holds more than 255 tokens
            packed = tuple(row)
        extra = (
            tuple(sorted(item for item in view._overflow.items() if item[1]))
            if view._overflow else ()
        )
        key = (packed, extra) if extra else packed
        state = index.get(key)
        if state is None:
            state = len(packed_rows)
            if state >= max_states:
                raise StateSpaceError(
                    f"model {model.name!r}: state space exceeds "
                    f"max_states={max_states}"
                )
            packed_rows.append(packed)
            extras.append(extra)
            index[key] = state
            stop_flags.append(stopped)
            enabled = 0
            if not stopped:
                # Only the timed activities depending on a place changed
                # on the way here can differ from the discovering parent.
                enabled = parent_enabled & ~timed_deps
                retest = timed_deps
                while retest:
                    low = retest & -retest
                    if timed[low.bit_length() - 1].enabled(row, view):
                        enabled |= low
                    retest ^= low
                frontier.append(state)
            enabled_timed.append(enabled)
        return state

    start_row, start_overflow = compiled.token_row(initial_marking)
    all_inst = (1 << compiled.n_inst) - 1
    all_timed = (1 << compiled.n_timed) - 1
    initial_completions: Dict[str, float] = {}
    for probability, row, view, fired, stopped, _deps in _stabilize(
        compiled,
        start_row,
        _view(compiled, start_row, start_overflow.items()),
        all_inst,
        all_timed,
        stop_predicate,
    ):
        state = intern_state(row, view, stopped, 0, all_timed)
        initial_probability[state] = (
            initial_probability.get(state, 0.0) + probability
        )
        # sorted() so the accumulator's key order never depends on the
        # firing-dict's mutation history (each key accumulates
        # independently, so sorting cannot change any value).
        for name, count in sorted(fired.items()):
            initial_completions[name] = (
                initial_completions.get(name, 0.0) + count * probability
            )

    transitions: List[Transition] = []
    cursor = 0
    while cursor < len(frontier):
        source = frontier[cursor]
        cursor += 1
        source_row = list(packed_rows[source])
        source_view = _view(compiled, source_row, extras[source])
        source_enabled = enabled_timed[source]
        # Aggregate parallel edges: (target) -> [rate, completions].
        edges: Dict[int, Tuple[float, Dict[str, float]]] = {}
        remaining = source_enabled
        while remaining:
            # Lowest bit first: the timed activities in declaration order.
            low = remaining & -remaining
            remaining ^= low
            activity = timed[low.bit_length() - 1]
            rate = _exponential_rate(activity, source_view)
            for case, case_probability in _case_distribution(
                activity, source_view
            ):
                after_row = source_row.copy()
                after = _view(compiled, after_row, extras[source])
                # The source is tangible, so only the instantaneous
                # dependents of this completion's changes can be enabled.
                inst_bits, timed_bits = _complete(
                    compiled, activity, case, after_row, after
                )
                branch_rate = rate * case_probability
                for probability, row, view, fired, stopped, deps in _stabilize(
                    compiled, after_row, after, inst_bits, timed_bits,
                    stop_predicate,
                ):
                    target = intern_state(
                        row, view, stopped, source_enabled, deps
                    )
                    edge_rate = branch_rate * probability
                    total_rate, completions = edges.get(target, (0.0, {}))
                    # Completions are per-transition expectations, so each
                    # contribution is weighted by its share of the edge.
                    completions[activity.name] = (
                        completions.get(activity.name, 0.0) + edge_rate
                    )
                    # sorted() for the same per-key-independence reason as
                    # the initial-completions accumulation above.
                    for name, count in sorted(fired.items()):
                        completions[name] = (
                            completions.get(name, 0.0) + count * edge_rate
                        )
                    edges[target] = (total_rate + edge_rate, completions)
        for target, (rate, completions) in edges.items():  # repro: ignore[DET001] keyed by interned state id; insertion order is the deterministic discovery order, and sorting would reorder downstream float accumulation
            transitions.append(
                Transition(
                    source=source,
                    target=target,
                    rate=rate,
                    # Normalise the rate-weighted counts into expected
                    # completions per transition.
                    completions=tuple(
                        sorted(
                            (name, weighted / rate)
                            for name, weighted in completions.items()
                        )
                    ),
                )
            )

    n = len(packed_rows)
    initial = np.zeros(n)
    # sorted() is free here: each state index is written exactly once.
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
    stop_mask = np.asarray(stop_flags, dtype=bool)
    absorbing = ~has_exit

    states = _frozen_states(compiled, packed_rows, extras)
    return StateSpace(
        model_name=model.name,
        states=states,
        initial_distribution=initial,
        transitions=transitions,
        absorbing=absorbing,
        stop_mask=stop_mask,
        initial_completions=initial_completions,
        _index={state: number for number, state in enumerate(states)},
    )
