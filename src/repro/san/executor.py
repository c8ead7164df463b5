"""Discrete-event execution of a SAN.

The executor turns a :class:`~repro.san.model.SANModel` into a trajectory:
it tracks the current marking, keeps enabled timed activities scheduled on a
:class:`~repro.des.simulator.Simulator`, fires instantaneous activities as
soon as they are enabled and notifies reward variables of every completion.

It is the scalar *reference* for the production lock-step executor
(:mod:`repro.san.batched`): :meth:`SimulativeSolver.run_replication
<repro.san.solver.SimulativeSolver.run_replication>` runs it one
replication at a time, and tests and the ``solvercompare`` experiment
hold batched results to it bit for bit.

Execution semantics
-------------------
* An activity is *enabled* when all its input arcs are satisfied and all its
  input-gate predicates hold.
* Enabled **instantaneous** activities fire immediately, before any timed
  activity; among several enabled ones the one with the lowest ``rank``
  (then definition order) fires first, and enabling is re-evaluated after
  each firing.
* An enabled **timed** activity samples a duration when it becomes enabled
  and completes after that duration, unless it is disabled in the meantime:
  then the sampled completion is discarded and a fresh duration is sampled
  the next time the activity becomes enabled (reactivation).
* A replication ends when a stop predicate over the marking becomes true,
  when no activity is enabled (dead marking), or when the time horizon is
  reached.

Performance
-----------
The consensus models generated by :mod:`repro.sanmodels` contain several
hundred activities, so re-evaluating every activity after every completion
would dominate the run time.  Three structures keep the hot loop small:

* A **dependency index** from places to the activities whose input arcs or
  input gates (via :attr:`~repro.san.gates.InputGate.watched_places`) read
  them.  The marking's change journal then re-evaluates only the activities
  that may have been affected by a completion; activities whose gates do
  not declare their watched places are conservatively re-evaluated after
  every completion.  The index (and the rank-sorted instantaneous order)
  depends only on the model structure, so it is built once per model and
  cached on it, keyed by :attr:`~repro.san.model.SANModel.structure_version`
  -- replication sweeps construct one executor per replication over the
  same model.
* The **instantaneous-firing chain** walks only the candidate activities
  (sorted into the deterministic rank/definition order) instead of scanning
  the model's full instantaneous list on every firing.
* **Batched duration draws**: activities with a fixed vectorisable
  distribution pre-draw a small batch of durations per named stream.
  numpy array draws are bit-identical to repeated scalar draws from the
  same stream (see :mod:`repro.stats.distributions`), and each activity
  owns its stream, so fixed-seed trajectories are unchanged.

:class:`~repro.san.reference.ReferenceExecutor` disables all of this and
re-evaluates everything after every completion; golden-trace and property
tests hold the two implementations to identical behaviour.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.des.event import Event, EventState
from repro.des.simulator import Simulator
from repro.san.activities import Activity, InstantaneousActivity, TimedActivity
from repro.san.compiled import (
    MAX_INSTANTANEOUS_CHAIN,
    ExecutionResult,
    MarkingPredicate,
    SANExecutionError,
    _BatchedDurationSampler,
)
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.rewards import RewardVariable
from repro.stats.distributions import Constant, supports_batch


class _ModelStructure:
    """Execution structures derived from a model's (immutable) shape.

    Built once per model and cached on the model instance keyed by its
    :attr:`~repro.san.model.SANModel.structure_version`; every executor
    over the same unchanged model shares the same instance.
    """

    __slots__ = (
        "version",
        "timed",
        "instantaneous",
        "inst_by_name",
        "inst_order",
        "timed_by_place",
        "inst_by_place",
        "global_timed",
        "global_inst",
        "global_inst_names",
    )

    def __init__(self, model: SANModel) -> None:
        self.version = model.structure_version
        self.timed: List[TimedActivity] = model.timed_activities
        self.instantaneous: List[InstantaneousActivity] = sorted(
            model.instantaneous_activities,
            key=lambda activity: activity.rank,
        )
        #: Firing precedence: position in the rank-sorted list (``sorted``
        #: is stable, so ties keep definition order).
        self.inst_order: Dict[str, int] = {
            activity.name: position
            for position, activity in enumerate(self.instantaneous)
        }
        self.inst_by_name: Dict[str, InstantaneousActivity] = {
            activity.name: activity for activity in self.instantaneous
        }
        self.timed_by_place: Dict[str, List[TimedActivity]] = {}
        self.inst_by_place: Dict[str, List[InstantaneousActivity]] = {}
        self.global_timed: List[TimedActivity] = []
        self.global_inst: List[InstantaneousActivity] = []
        for activity in self.timed:
            self._index_activity(activity, self.timed_by_place, self.global_timed)
        for activity in self.instantaneous:
            self._index_activity(activity, self.inst_by_place, self.global_inst)
        self.global_inst_names: Set[str] = {
            activity.name for activity in self.global_inst
        }

    @staticmethod
    def _index_activity(
        activity: Activity, index: Dict[str, list], global_list: list
    ) -> None:
        places: Set[str] = {place for place, _ in activity.input_arcs}
        conservative = False
        for gate in activity.input_gates:
            if gate.watched_places:
                places.update(gate.watched_places)
            else:
                conservative = True
        if conservative:
            global_list.append(activity)
            return
        for place in places:
            index.setdefault(place, []).append(activity)


def _structure_for(model: SANModel) -> _ModelStructure:
    """The cached :class:`_ModelStructure` of ``model`` (rebuilt when stale)."""
    cached = getattr(model, "_executor_structure", None)
    if cached is not None and cached.version == model.structure_version:
        return cached
    structure = _ModelStructure(model)
    model._executor_structure = structure  # type: ignore[attr-defined]
    return structure


class SANExecutor:
    """Executes one replication of a SAN model.

    Parameters
    ----------
    model:
        The model to execute.  It is validated on construction.
    sim:
        The simulator supplying the clock, the event queue and the random
        streams.  A fresh simulator per replication gives independent runs.
    rewards:
        Reward variables to observe the execution.
    initial_marking:
        Overrides the model's declared initial marking (useful for running
        the same structure from different initial states, e.g. the crash
        scenarios of Table 1).
    """

    def __init__(
        self,
        model: SANModel,
        sim: Simulator,
        rewards: Sequence[RewardVariable] = (),
        initial_marking: Optional[Marking] = None,
    ) -> None:
        model.validate()
        self.model = model
        self.sim = sim
        self.rewards = list(rewards)
        self.marking = (
            initial_marking.copy() if initial_marking is not None
            else model.initial_marking()
        )
        structure = self._structure(model)
        self._timed = structure.timed
        self._instantaneous = structure.instantaneous
        self._inst_by_name = structure.inst_by_name
        self._inst_order = structure.inst_order
        self._timed_by_place = structure.timed_by_place
        self._inst_by_place = structure.inst_by_place
        self._global_timed = structure.global_timed
        self._global_inst_names = structure.global_inst_names
        # One named stream per activity (created lazily, memoised here to
        # keep the hot loop to a dict lookup): an activity's durations and
        # case choices are a pure function of (master seed, activity
        # name), so the order in which activities happen to be
        # re-evaluated -- which used to follow PYTHONHASHSEED-dependent
        # set iteration over the change journal -- cannot perturb the
        # sampled values.
        self._duration_samplers: Dict[str, Callable[[Marking], float]] = {}
        self._case_rngs: Dict[str, object] = {}
        self._scheduled: Dict[str, Event] = {}
        self._completions = 0
        self._stop_predicate: Optional[MarkingPredicate] = None
        self._stopped_by_predicate = False

    @staticmethod
    def _structure(model: SANModel) -> _ModelStructure:
        """The per-model execution structures (cached on the model)."""
        return _structure_for(model)

    # ------------------------------------------------------------------
    # Dependency index
    # ------------------------------------------------------------------
    def _affected_timed(self, changed: Set[str]) -> List[TimedActivity]:
        affected: Dict[str, TimedActivity] = {a.name: a for a in self._global_timed}
        timed_by_place = self._timed_by_place
        # Sorted for determinism: the iteration order decides the relative
        # event-queue order (and hence the firing order) of activities
        # scheduled for the *same* instant, e.g. equal constant durations.
        for place in sorted(changed):
            for activity in timed_by_place.get(place, ()):
                affected[activity.name] = activity
        return list(affected.values())  # repro: ignore[DET001] insertion order is the documented contract above: global activities first, then sorted changed places

    def _affected_instantaneous(self, changed: Set[str]) -> Set[str]:
        names = set(self._global_inst_names)
        inst_by_place = self._inst_by_place
        for place in changed:
            for activity in inst_by_place.get(place, ()):
                names.add(activity.name)
        return names

    def affected_activity_names(self, changed: Iterable[str]) -> Set[str]:
        """Names of every activity the dependency index re-evaluates when
        the given places change.

        Exposed for the property tests that hold the incremental index to
        the reference semantics: any activity whose enabling status can
        differ between two markings must be in this set for the places on
        which the markings differ.
        """
        changed_set = set(changed)
        names = {activity.name for activity in self._affected_timed(changed_set)}
        names |= self._affected_instantaneous(changed_set)
        return names

    def scheduled_activity_names(self) -> Set[str]:
        """Names of the timed activities currently scheduled to complete."""
        return {
            name
            for name, event in self._scheduled.items()
            if event.state is EventState.PENDING
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        stop_predicate: Optional[MarkingPredicate] = None,
    ) -> ExecutionResult:
        """Run one replication.

        Parameters
        ----------
        until:
            Optional time horizon.
        stop_predicate:
            Optional predicate over the marking; the replication stops as
            soon as it holds after a completion (or holds initially).
        """
        self._stop_predicate = stop_predicate
        self._stopped_by_predicate = False
        self.marking.consume_changes()
        for reward in self.rewards:
            reward.reset(self.marking, self.sim.now)

        # Initial stabilisation: fire instantaneous activities, then check
        # the stop predicate, then activate timed activities.
        if stop_predicate is not None and stop_predicate(self.marking):
            self._stopped_by_predicate = True
        else:
            self._fire_instantaneous_chain(None)
            if not self._stopped_by_predicate:
                self._refresh_timed_activities(self._timed)
                self.sim.run(until=until)

        end_time = self.sim.now
        for reward in self.rewards:
            reward.finalize(self.marking, end_time)
        dead = not self._stopped_by_predicate and not self._any_timed_scheduled()
        return ExecutionResult(
            end_time=end_time,
            stopped_by_predicate=self._stopped_by_predicate,
            dead_marking=dead,
            completions=self._completions,
            final_marking=self.marking.copy(),
        )

    @property
    def completions(self) -> int:
        """Number of activity completions so far (timed + instantaneous)."""
        return self._completions

    # ------------------------------------------------------------------
    # Timed activities
    # ------------------------------------------------------------------
    def _refresh_timed_activities(self, activities: Iterable[TimedActivity]) -> None:
        marking = self.marking
        scheduled_events = self._scheduled
        samplers = self._duration_samplers
        schedule = self.sim.schedule
        complete_timed = self._complete_timed
        for activity in activities:
            name = activity.name
            scheduled = scheduled_events.get(name)
            is_scheduled = (
                scheduled is not None and scheduled.state is EventState.PENDING
            )
            enabled = activity.enabled(marking)
            if enabled and not is_scheduled:
                sampler = samplers.get(name)
                if sampler is None:
                    sampler = self._make_duration_sampler(activity)
                    samplers[name] = sampler
                scheduled_events[name] = schedule(
                    sampler(marking), complete_timed, activity
                )
            elif not enabled and is_scheduled:
                scheduled.cancel()
                del scheduled_events[name]

    def _make_duration_sampler(
        self, activity: TimedActivity
    ) -> Callable[[Marking], float]:
        """Build the duration sampler for one activity's named stream.

        Fixed distributions with a batch sampler are wrapped in
        :class:`_BatchedDurationSampler`; constants skip the stream
        entirely (their draws never consume randomness); everything else
        (marking-dependent or non-vectorisable distributions) falls back
        to the generic one-draw-per-call path.
        """
        rng = self.sim.random.stream(f"san.duration.{activity.name}")
        dist = activity.distribution
        if not callable(dist) or hasattr(dist, "sample"):
            if isinstance(dist, Constant):
                # Constants never touch the stream, so the dict lookup and
                # numpy call can be skipped outright.  Validate here so a
                # bad constant raises the same attributed error the scalar
                # path would (Constant() guards construction, but the
                # value is still user-reachable via subclassing/mutation).
                constant = float(dist.value)
                if constant < 0:
                    raise ValueError(
                        f"activity {activity.name!r}: sampled a negative "
                        f"duration {constant}"
                    )

                def constant_sampler(_marking: Marking) -> float:
                    return constant

                return constant_sampler
            if supports_batch(dist):
                return _BatchedDurationSampler(dist, rng, activity.name)

        def generic_sampler(marking: Marking) -> float:
            return activity.sample_duration(marking, rng)

        return generic_sampler

    def _complete_timed(self, activity: TimedActivity) -> None:
        self._scheduled.pop(activity.name, None)
        if not activity.enabled(self.marking):
            # Defensive: disabling should have cancelled the event.
            raise SANExecutionError(
                f"timed activity {activity.name!r} fired while disabled"
            )
        changed = self._complete(activity)
        if self._stopped_by_predicate:
            self.sim.stop()
            return
        changed |= self._fire_instantaneous_chain(
            self._affected_instantaneous(changed)
        )
        if self._stopped_by_predicate:
            self.sim.stop()
            return
        affected = self._affected_timed(changed)
        if activity not in affected:
            affected.append(activity)
        self._refresh_timed_activities(affected)

    def _any_timed_scheduled(self) -> bool:
        return any(
            event.state is EventState.PENDING
            for event in self._scheduled.values()
        )

    # ------------------------------------------------------------------
    # Instantaneous activities
    # ------------------------------------------------------------------
    def _fire_instantaneous_chain(self, candidate_names: Optional[Set[str]]) -> Set[str]:
        """Fire enabled instantaneous activities until none remains enabled.

        ``candidate_names`` limits the activities that may have become
        enabled (``None`` means "consider all", used at start-up).  Returns
        the union of all marking changes produced by the chain.

        Each round fires the lowest-ranked enabled candidate (definition
        order breaking rank ties), exactly as if the model's full
        rank-sorted instantaneous list were scanned; walking only the
        candidates -- sorted into that same precedence order -- keeps the
        scan proportional to the affected set, not the model size.
        """
        if candidate_names is None:
            candidates = set(self._inst_order)
        else:
            candidates = set(candidate_names)
        order = self._inst_order
        by_name = self._inst_by_name
        marking = self.marking
        all_changed: Set[str] = set()
        for _ in range(MAX_INSTANTANEOUS_CHAIN):
            if not candidates:
                return all_changed
            fired = None
            for name in sorted(candidates, key=order.__getitem__):
                activity = by_name[name]
                if activity.enabled(marking):
                    fired = activity
                    break
            if fired is None:
                return all_changed
            changed = self._complete(fired)
            all_changed |= changed
            if self._stopped_by_predicate:
                return all_changed
            candidates |= self._affected_instantaneous(changed)
        raise SANExecutionError(
            f"model {self.model.name!r}: more than {MAX_INSTANTANEOUS_CHAIN} "
            "consecutive instantaneous firings -- unstable (vanishing) loop?"
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete(self, activity: Activity) -> Set[str]:
        marking = self.marking
        if len(activity.cases) == 1:
            case = activity.cases[0]
        else:
            rng = self._case_rngs.get(activity.name)
            if rng is None:
                rng = self.sim.random.stream(f"san.case.{activity.name}")
                self._case_rngs[activity.name] = rng
            case = activity.choose_case(marking, rng)
        activity.complete(marking, case)
        changed = marking.consume_changes()
        self._completions += 1
        now = self.sim.now
        for reward in self.rewards:
            reward.on_activity_completion(activity.name, marking, now)
            reward.on_marking_change(marking, now)
        if self._stop_predicate is not None and self._stop_predicate(marking):
            self._stopped_by_predicate = True
        return changed
