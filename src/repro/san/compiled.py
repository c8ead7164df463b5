"""Compilation of SAN models to index-based execution tables.

:class:`CompiledSANModel` lowers a :class:`~repro.san.model.SANModel` to
integer-indexed structures: places become column indices into a token
matrix, input/output arc effects become ``(place_index, weight)`` tuples,
and the opaque parts -- gate predicates and functions, marking-dependent
case probabilities, duration distributions -- stay as the original
closures but re-keyed by activity index.  The compiled form is what
:class:`~repro.san.batched.BatchedSANExecutor` interprets: ``B``
replications advance lock-step over a ``B x places`` token matrix instead
of ``B`` independent object-graph walks.  The exact solver's state-space
generator (:mod:`repro.san.statespace`) walks the same token rows and
dependency bitmasks, so both solvers share one lowering.

Like the scalar executor's ``_ModelStructure`` (PR 5), the compiled model
is derived purely from the model's immutable shape, built once and cached
on the model instance keyed by
:attr:`~repro.san.model.SANModel.structure_version`.

The module also holds what both executors share -- :class:`ExecutionResult`,
:class:`SANExecutionError` and the pre-drawing duration sampler -- so the
batched executor does not depend on the scalar reference executor.

Ordering contracts
------------------
The compiled tables preserve every ordering the scalar executor's golden
traces pin down, so a batched row replays the scalar trajectory exactly:

* :attr:`CompiledSANModel.timed` is in model declaration order (the order
  of the initial activation walk, and the conservative ``global_timed``
  prefix of every refresh keeps it);
* :attr:`CompiledSANModel.instantaneous` is rank-sorted with declaration
  order breaking ties, so a compiled instantaneous *index* compares
  exactly like the scalar executor's ``inst_order`` precedence;
* per-place watcher tuples keep activity order, and
  :attr:`CompiledSANModel.place_sort_rank` ranks place indices by place
  *name* so the batched refresh can walk changed places in the scalar
  executor's ``sorted(changed)`` order without comparing strings.

These orderings are what make the two executors bit-identical: a
replication's random draw order (activation draws, case draws) is a pure
function of the traversal order the tables encode, so any change here
must keep the golden traces -- and therefore the determinism contract of
:mod:`repro.san.solver` -- intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.san.activities import Activity, Case, TimedActivity
from repro.san.gates import InputGate, OutputGate
from repro.san.marking import FrozenMarking, Marking, PlaceRef
from repro.san.model import SANModel
from repro.stats.distributions import Constant, supports_batch

#: Duration-sampling strategies of a compiled timed activity (mirrors the
#: scalar executor's ``_make_duration_sampler`` classification).
DURATION_CONSTANT = 0
DURATION_BATCHED = 1
DURATION_GENERIC = 2

#: A duration sampler bound to one (row, activity) pair: marking -> delay.
DurationSampler = Callable[[Marking], float]

#: A stop predicate over a replication's marking.
MarkingPredicate = Callable[[Marking], bool]

#: Safety bound on consecutive instantaneous firings without time advancing,
#: to catch accidentally-unstable (vanishing-marking) loops in models.
MAX_INSTANTANEOUS_CHAIN = 1_000_000

#: Durations pre-drawn per activity stream when the distribution supports
#: batched sampling.  Small enough that mostly-idle activities waste little
#: numpy work, large enough to amortise the per-call overhead.
DURATION_BATCH = 16


class SANExecutionError(RuntimeError):
    """Raised when a model misbehaves during execution."""


@dataclass
class ExecutionResult:
    """Outcome of one replication."""

    end_time: float
    stopped_by_predicate: bool
    dead_marking: bool
    completions: int
    final_marking: Marking


class _BatchedDurationSampler:
    """Serves durations from pre-drawn batches of a fixed distribution.

    Bit-identical to scalar draws: numpy ``Generator`` methods fill arrays
    from the same bit stream that scalar calls consume, and the wrapped
    stream is private to one activity's durations.
    """

    __slots__ = ("_dist", "_rng", "_name", "_values", "_next")

    def __init__(self, dist: Any, rng: np.random.Generator, name: str) -> None:
        # ``dist`` is duck-typed: the call site guards with supports_batch().
        self._dist = dist
        self._rng = rng
        self._name = name
        self._values = ()
        self._next = 0

    def __call__(self, marking: Marking) -> float:
        position = self._next
        values = self._values
        if position >= len(values):
            values = self._values = self._dist.sample_batch(
                self._rng, DURATION_BATCH
            )
            position = 0
        self._next = position + 1
        value = float(values[position])
        if value < 0:
            raise ValueError(
                f"activity {self._name!r}: sampled a negative duration {value}"
            )
        return value


class CompiledCase:
    """One case of a compiled activity, with output effects by place index."""

    __slots__ = (
        "case",
        "output_arcs",
        "output_gates",
        "change_idx",
        "candidate_bits",
        "enabling_bits",
        "timed_candidate_bits",
    )

    def __init__(
        self,
        case: Case,
        input_arcs: Tuple[Tuple[int, int], ...],
        output_arcs: Tuple[Tuple[int, int], ...],
        output_gates: Tuple[OutputGate, ...],
    ) -> None:
        self.case = case
        self.output_arcs = output_arcs
        self.output_gates = output_gates
        #: Place indices every completion through this case changes via
        #: arcs (weights are >= 1, so each arc write journals) -- the
        #: static part of the completion's changed set; gate writes are
        #: the dynamic remainder.
        self.change_idx: FrozenSet[int] = frozenset(
            place for place, _weight in input_arcs
        ) | frozenset(place for place, _weight in output_arcs)
        #: Candidate bitmask of the instantaneous activities affected by
        #: the static changed set (conservatives included).  Filled in by
        #: :class:`CompiledSANModel` once the dependency bit tables exist.
        self.candidate_bits: int = 0
        #: The part of ``candidate_bits`` a completion through this case
        #: can newly *enable*: a gate-free activity is only made enabled
        #: by a place the arcs leave with more tokens, so its other
        #: dependents drop out (gated and conservative ones stay).
        self.enabling_bits: int = 0
        #: The same for the timed activities (bit ``i`` = declaration
        #: position ``i``): the ones whose enablement the static changed
        #: set can alter.
        self.timed_candidate_bits: int = 0


class CompiledActivity:
    """An activity lowered to index-based enablement and completion tables.

    ``index`` is the position in the owning kind's list: declaration order
    for timed activities, rank-sorted firing precedence for instantaneous
    ones (i.e. the scalar executor's ``inst_order`` position).
    """

    __slots__ = (
        "index",
        "name",
        "timed",
        "activity",
        "input_arcs",
        "input_gates",
        "cases",
        "case_lookup",
        "single_case",
        "duration_kind",
        "constant_duration",
        "distribution",
        "duration_stream",
        "case_stream",
    )

    def __init__(
        self,
        index: int,
        activity: Activity,
        place_index: Dict[str, int],
    ) -> None:
        self.index = index
        self.name = activity.name
        self.timed = activity.timed
        self.activity = activity
        self.input_arcs: Tuple[Tuple[int, int], ...] = tuple(
            (place_index[place], weight) for place, weight in activity.input_arcs
        )
        self.input_gates: Tuple[InputGate, ...] = activity.input_gates
        self.cases: Tuple[CompiledCase, ...] = tuple(
            CompiledCase(
                case,
                self.input_arcs,
                tuple(
                    (place_index[place], weight)
                    for place, weight in case.output_arcs
                ),
                case.output_gates,
            )
            for case in activity.cases
        )
        #: ``id(case) -> compiled case``: ``Activity.choose_case`` returns
        #: one of the original :class:`Case` objects, which this maps back
        #: to its compiled effects without an index search.
        self.case_lookup: Dict[int, CompiledCase] = {
            id(compiled.case): compiled for compiled in self.cases  # repro: ignore[DET005] identity map from choose_case's returned Case object to its compiled twin; looked up by key only, never iterated or ordered
        }
        self.single_case = self.cases[0] if len(self.cases) == 1 else None
        self.duration_stream = f"san.duration.{activity.name}"
        self.case_stream = f"san.case.{activity.name}"
        self.duration_kind = DURATION_GENERIC
        self.constant_duration = 0.0
        self.distribution: object = None
        if isinstance(activity, TimedActivity):
            dist = activity.distribution
            self.distribution = dist
            if not callable(dist) or hasattr(dist, "sample"):
                if isinstance(dist, Constant):
                    self.duration_kind = DURATION_CONSTANT
                    self.constant_duration = float(dist.value)
                elif supports_batch(dist):
                    self.duration_kind = DURATION_BATCHED

    def enabled(self, tokens: Sequence[int], marking: Marking) -> bool:
        """The SAN enabling rule over one row of the token matrix."""
        for place, weight in self.input_arcs:
            if tokens[place] < weight:
                return False
        for gate in self.input_gates:
            if not gate.predicate(marking):
                return False
        return True


class CompiledSANModel:
    """A :class:`~repro.san.model.SANModel` lowered to integer indices.

    Build via :func:`compile_model`, which caches the compiled form on the
    model instance keyed by its ``structure_version``.
    """

    __slots__ = (
        "version",
        "model_name",
        "place_names",
        "place_index",
        "place_sort_rank",
        "initial_tokens",
        "timed",
        "instantaneous",
        "timed_by_place",
        "inst_by_place",
        "timed_by_unknown",
        "inst_by_unknown",
        "global_timed",
        "global_inst",
        "global_inst_indices",
        "global_inst_bits",
        "inst_bits_by_place",
        "inst_bits_by_unknown",
        "global_timed_bits",
        "timed_bits_by_place",
        "timed_bits_by_unknown",
        "inst_flat_places",
        "inst_flat_weights",
        "inst_arc_starts",
        "inst_arc_cols",
        "n_places",
        "n_timed",
        "n_inst",
    )

    def __init__(self, model: SANModel) -> None:
        model.validate()
        self.version = model.structure_version
        self.model_name = model.name
        self.place_names: Tuple[str, ...] = tuple(
            place.name for place in model.places
        )
        self.place_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.place_names)
        }
        #: Rank of each place index in *name-sorted* order: sorting changed
        #: place indices by this rank reproduces the scalar executor's
        #: ``sorted(changed)`` walk without comparing strings.
        rank_of_name = {
            name: rank for rank, name in enumerate(sorted(self.place_names))
        }
        self.place_sort_rank: Tuple[int, ...] = tuple(
            rank_of_name[name] for name in self.place_names
        )
        self.initial_tokens: Tuple[int, ...] = tuple(
            place.initial for place in model.places
        )
        self.n_places = len(self.place_names)

        self.timed: Tuple[CompiledActivity, ...] = tuple(
            CompiledActivity(index, activity, self.place_index)
            for index, activity in enumerate(model.timed_activities)
        )
        rank_sorted = sorted(
            model.instantaneous_activities, key=lambda activity: activity.rank
        )
        self.instantaneous: Tuple[CompiledActivity, ...] = tuple(
            CompiledActivity(index, activity, self.place_index)
            for index, activity in enumerate(rank_sorted)
        )
        self.n_timed = len(self.timed)

        timed_by_place: Dict[int, List[CompiledActivity]] = {}
        inst_by_place: Dict[int, List[CompiledActivity]] = {}
        timed_by_unknown: Dict[str, List[CompiledActivity]] = {}
        inst_by_unknown: Dict[str, List[CompiledActivity]] = {}
        global_timed: List[CompiledActivity] = []
        global_inst: List[CompiledActivity] = []
        for compiled in self.timed:
            self._index_activity(
                compiled, timed_by_place, timed_by_unknown, global_timed
            )
        for compiled in self.instantaneous:
            self._index_activity(
                compiled, inst_by_place, inst_by_unknown, global_inst
            )
        self.timed_by_place: Dict[int, Tuple[CompiledActivity, ...]] = {
            place: tuple(activities)
            for place, activities in timed_by_place.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.inst_by_place: Dict[int, Tuple[CompiledActivity, ...]] = {
            place: tuple(activities)
            for place, activities in inst_by_place.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        #: Watched place *names* not declared in the model (only reachable
        #: through gate functions writing undeclared places); kept
        #: name-keyed exactly like the scalar executor's index.
        self.timed_by_unknown: Dict[str, Tuple[CompiledActivity, ...]] = {
            name: tuple(activities)
            for name, activities in timed_by_unknown.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.inst_by_unknown: Dict[str, Tuple[CompiledActivity, ...]] = {
            name: tuple(activities)
            for name, activities in inst_by_unknown.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.global_timed: Tuple[CompiledActivity, ...] = tuple(global_timed)
        self.global_inst: Tuple[CompiledActivity, ...] = tuple(global_inst)
        self.global_inst_indices: Set[int] = {
            compiled.index for compiled in global_inst
        }

        # Bitmask twins of the instantaneous dependency indexes, for the
        # batched executor's matrix-level chain and the state-space
        # generator: bit ``i`` stands for firing-precedence position
        # ``i``, so OR-ing the masks of the changed places rebuilds the
        # candidate set with one integer OR per place, and the *lowest set
        # bit* of a candidate mask is the next activity the scalar
        # executor's rank-ordered walk would visit.
        self.n_inst = len(self.instantaneous)
        self.global_inst_bits = self._index_bits(self.global_inst)
        self.inst_bits_by_place: Dict[int, int] = {
            place: self._index_bits(activities)
            for place, activities in self.inst_by_place.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.inst_bits_by_unknown: Dict[str, int] = {
            name: self._index_bits(activities)
            for name, activities in self.inst_by_unknown.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        # The timed twins (bit ``i`` = declaration position ``i``), for the
        # state-space generator's re-test of a state's enabled set.
        self.global_timed_bits = self._index_bits(self.global_timed)
        self.timed_bits_by_place: Dict[int, int] = {
            place: self._index_bits(activities)
            for place, activities in self.timed_by_place.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }
        self.timed_bits_by_unknown: Dict[str, int] = {
            name: self._index_bits(activities)
            for name, activities in self.timed_by_unknown.items()  # repro: ignore[DET001] re-keying only; the result is read by .get(key), never iterated in order
        }

        # Pre-resolve each case's static candidate bitmasks (the arcs of a
        # completion are fixed per case, so its candidate sets are too, up
        # to gate writes, which the callers OR in dynamically).
        gated_inst_bits = self._index_bits(
            [compiled for compiled in self.instantaneous if compiled.input_gates]
        )
        inst_bits_of = self.inst_bits_by_place.get
        timed_bits_of = self.timed_bits_by_place.get
        for compiled in self.timed + self.instantaneous:
            consumed: Dict[int, int] = {}
            for place, weight in compiled.input_arcs:
                consumed[place] = consumed.get(place, 0) + weight
            for compiled_case in compiled.cases:
                produced: Dict[int, int] = {}
                for place, weight in compiled_case.output_arcs:
                    produced[place] = produced.get(place, 0) + weight
                bits = enabling_bits = self.global_inst_bits
                timed_bits = self.global_timed_bits
                for place in compiled_case.change_idx:
                    place_bits = inst_bits_of(place, 0)
                    if place_bits:
                        bits |= place_bits
                        if produced.get(place, 0) > consumed.get(place, 0):
                            enabling_bits |= place_bits
                        else:
                            enabling_bits |= place_bits & gated_inst_bits
                    timed_bits |= timed_bits_of(place, 0)
                compiled_case.candidate_bits = bits
                compiled_case.enabling_bits = enabling_bits
                compiled_case.timed_candidate_bits = timed_bits

        # Flattened instantaneous input arcs, grouped by activity, for one
        # ``np.logical_and.reduceat`` arc-enablement check per chain round
        # over every chaining row at once: ``flat_places``/``flat_weights``
        # concatenate each activity's arcs, ``arc_starts`` marks the
        # segment boundaries (reduceat input), and ``arc_cols`` maps each
        # segment back to its activity index.  Arc-less activities have no
        # segment; their mask column defaults to enabled.
        flat_places: List[int] = []
        flat_weights: List[int] = []
        arc_starts: List[int] = []
        arc_cols: List[int] = []
        for compiled in self.instantaneous:
            if compiled.input_arcs:
                arc_cols.append(compiled.index)
                arc_starts.append(len(flat_places))
                for place, weight in compiled.input_arcs:
                    flat_places.append(place)
                    flat_weights.append(weight)
        self.inst_flat_places = np.asarray(flat_places, dtype=np.intp)
        self.inst_flat_weights = np.asarray(flat_weights, dtype=np.int64)
        self.inst_arc_starts = np.asarray(arc_starts, dtype=np.intp)
        self.inst_arc_cols = np.asarray(arc_cols, dtype=np.intp)

    def _index_bits(self, activities: Sequence[CompiledActivity]) -> int:
        bits = 0
        for compiled in activities:
            bits |= 1 << compiled.index
        return bits

    def _index_activity(
        self,
        compiled: CompiledActivity,
        index: Dict[int, List[CompiledActivity]],
        unknown: Dict[str, List[CompiledActivity]],
        global_list: List[CompiledActivity],
    ) -> None:
        """Dependency index: same policy as the scalar ``_ModelStructure``.

        An activity whose gates all declare their watched places is indexed
        under every place it reads; one with an undeclared watch list is
        conservatively re-evaluated after every completion.  Watched place
        *names* outside the model (which arc validation cannot reject) go
        into the name-keyed ``unknown`` side index, mirroring the scalar
        executor exactly -- they can only be triggered by gate functions
        writing those names.
        """
        places: Set[int] = {place for place, _ in compiled.input_arcs}
        names: Set[str] = set()
        conservative = False
        for gate in compiled.input_gates:
            if not gate.watched_places:
                conservative = True
                break
            for name in gate.watched_places:
                place = self.place_index.get(name)
                if place is None:
                    names.add(name)
                else:
                    places.add(place)
        if conservative:
            global_list.append(compiled)
            return
        for place in sorted(places):
            index.setdefault(place, []).append(compiled)
        for name in sorted(names):
            unknown.setdefault(name, []).append(compiled)

    # ------------------------------------------------------------------
    def token_row(
        self, marking: Optional[Marking]
    ) -> Tuple[List[int], Dict[str, int]]:
        """One token row (plus undeclared-name overflow) for a marking.

        ``None`` stands for the model's declared initial marking.
        """
        if marking is None:
            return list(self.initial_tokens), {}
        tokens = [0] * self.n_places
        overflow: Dict[str, int] = {}
        for name, count in marking.as_dict().items():  # repro: ignore[DET001] row assembly; each name writes an independent slot
            index = self.place_index.get(name)
            if index is None:
                overflow[name] = int(count)
            else:
                tokens[index] = int(count)
        return tokens, overflow

    def arc_enabled_mask(
        self, tokens: np.ndarray, activities: Sequence[CompiledActivity]
    ) -> np.ndarray:
        """Vectorised input-*arc* enablement over a ``B x P`` token matrix.

        Returns a ``B x len(activities)`` boolean mask; gates are not
        evaluated (see :meth:`enablement_mask`).  One numpy comparison per
        arc, amortised over all ``B`` rows.
        """
        mask = np.ones((tokens.shape[0], len(activities)), dtype=bool)
        for column, compiled in enumerate(activities):
            for place, weight in compiled.input_arcs:
                mask[:, column] &= tokens[:, place] >= weight
        return mask

    def enablement_mask(
        self,
        tokens: np.ndarray,
        activities: Sequence[CompiledActivity],
        markings: Sequence[Marking],
    ) -> np.ndarray:
        """Full vectorised enablement (arcs *and* gates) over a token matrix.

        ``markings`` supplies one marking view per row for the gate
        predicates: arc checks are pure numpy; gate closures are opaque and
        evaluated per row, but only where the arc mask already holds.
        """
        mask = self.arc_enabled_mask(tokens, activities)
        for column, compiled in enumerate(activities):
            if not compiled.input_gates:
                continue
            for row in np.flatnonzero(mask[:, column]):
                for gate in compiled.input_gates:
                    if not gate.predicate(markings[row]):
                        mask[row, column] = False
                        break
        return mask


def compile_model(model: SANModel) -> CompiledSANModel:
    """The cached :class:`CompiledSANModel` of ``model`` (rebuilt when stale).

    Same caching discipline as the scalar executor's ``_structure_for``:
    keyed by ``structure_version``, shared by every batched executor over
    the same unchanged model.
    """
    cached = getattr(model, "_compiled_model", None)
    if cached is not None and cached.version == model.structure_version:
        return cached
    compiled = CompiledSANModel(model)
    model._compiled_model = compiled  # type: ignore[attr-defined]
    return compiled


class RowMarking(Marking):
    """A :class:`~repro.san.marking.Marking` view of one token-matrix row.

    Gate closures, reward variables, case-probability callables and stop
    predicates receive this adapter, so the batched executor feeds the
    exact same callable interfaces as the scalar one.  Reads and writes
    resolve place names to row indices through the compiled place table;
    writes journal the changed *indices* (consumed by the batched
    executor's dependency walk).  Names outside the compiled model --
    reachable only through gate closures writing undeclared places, which
    arc validation cannot see -- spill into a per-row overflow mapping and
    are journalled by name, mirroring the scalar marking.
    """

    __slots__ = (
        "_compiled",
        "_index",
        "_row",
        "_mirror",
        "_overflow",
        "_changed_idx",
        "_changed_names",
    )

    def __init__(
        self,
        compiled: CompiledSANModel,
        row: List[int],
        mirror: "np.ndarray | None" = None,
    ) -> None:
        # Deliberately does NOT call Marking.__init__: token storage is the
        # shared row list, not a private dict.  Marking's derived helpers
        # (add/remove/has/set_all/__eq__) all route through the overridden
        # accessors below, and Activity.enabled's `_tokens` fast path falls
        # back to the mapping interface for this class (the slot is unset).
        #
        # ``mirror`` is an optional view of this row in the executor's
        # persistent token matrix: scalar reads stay on the fast Python
        # list, while every write is duplicated into the matrix so the
        # vectorised passes (arc masks, the matrix chain) always see
        # current state.
        self._compiled = compiled
        self._index = compiled.place_index
        self._row = row
        self._mirror = mirror
        self._overflow: Dict[str, int] = {}
        self._changed_idx: Set[int] = set()
        self._changed_names: Set[str] = set()

    # -- accessors ------------------------------------------------------
    def __getitem__(self, place: PlaceRef) -> int:
        # Fast path: string name of a declared place (the overwhelmingly
        # common call shape from gates, rewards and stop predicates).
        try:
            return self._row[self._index[place]]
        except KeyError:
            pass
        name = place if isinstance(place, str) else place.name
        index = self._index.get(name)
        if index is None:
            return self._overflow.get(name, 0)
        return self._row[index]

    def __setitem__(self, place: PlaceRef, count: int) -> None:
        name = place if isinstance(place, str) else place.name
        count = int(count)
        if count < 0:
            raise ValueError(
                f"marking of place {name!r} would become negative ({count})"
            )
        index = self._compiled.place_index.get(name)
        if index is None:
            if self._overflow.get(name, 0) != count:
                self._changed_names.add(name)
            self._overflow[name] = count
            return
        if self._row[index] != count:
            self._changed_idx.add(index)
        self._row[index] = count
        if self._mirror is not None:
            self._mirror[index] = count

    def __contains__(self, place: PlaceRef) -> bool:
        name = place if isinstance(place, str) else place.name
        return name in self._compiled.place_index or name in self._overflow

    def __iter__(self) -> Iterator[str]:
        yield from self._compiled.place_names
        yield from sorted(self._overflow)

    def __len__(self) -> int:
        return self._compiled.n_places + len(self._overflow)

    # -- journal --------------------------------------------------------
    def take_changes(self) -> Tuple[Set[int], Set[str]]:
        """Changed (place indices, overflow names) since the last call.

        An *empty* journal set is returned as-is (not replaced): it can
        only become non-empty by being the next call's own return value,
        so callers treating the result as a snapshot stay consistent
        while the hot path skips two allocations per completion.
        """
        changed_idx = self._changed_idx
        changed_names = self._changed_names
        if changed_idx:
            self._changed_idx = set()
        if changed_names:
            self._changed_names = set()
        return changed_idx, changed_names

    def consume_changes(self) -> Set[str]:
        """Changed place *names*: :class:`Marking` journal-interface parity."""
        changed_idx, changed_names = self.take_changes()
        names = {self._compiled.place_names[index] for index in changed_idx}
        return names | changed_names

    # -- snapshots ------------------------------------------------------
    def as_dict(self, drop_zeros: bool = False) -> Dict[str, int]:
        """The row as a plain dictionary (declaration order, like Marking)."""
        row = self._row
        names = self._compiled.place_names
        if drop_zeros:
            result = {
                names[index]: count for index, count in enumerate(row) if count
            }
            result.update(
                (name, count)
                for name, count in sorted(self._overflow.items())
                if count
            )
            return result
        full = dict(zip(names, row, strict=True))
        full.update(sorted(self._overflow.items()))
        return full

    def copy(self) -> Marking:
        """An independent plain :class:`Marking` snapshot of this row.

        Uses the same fast-clone idiom as :meth:`Marking.copy`: the row
        already enforces the non-negative-integer invariant, so the clone
        adopts the token dict without replaying ``__setitem__``.
        """
        clone = Marking.__new__(Marking)
        clone._tokens = self.as_dict()
        clone._changed = set()
        return clone

    def freeze(self) -> FrozenMarking:
        """An immutable :class:`FrozenMarking` snapshot of this row."""
        return FrozenMarking._from_clean_tokens(self.as_dict())

    def total_tokens(self) -> int:
        """Total token count over compiled places and the overflow dict."""
        return sum(self._row) + sum(self._overflow.values())

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in sorted(self.as_dict().items()) if v}
        return f"RowMarking({nonzero})"


__all__ = [
    "CompiledActivity",
    "CompiledCase",
    "CompiledSANModel",
    "DURATION_BATCHED",
    "DURATION_CONSTANT",
    "DURATION_GENERIC",
    "DurationSampler",
    "RowMarking",
    "compile_model",
]
