"""Tests of the reachability-graph state-space generator."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.san import (
    Case,
    InputGate,
    InstantaneousActivity,
    Marking,
    NonMarkovianModelError,
    OutputGate,
    Place,
    SANModel,
    StateSpace,
    StateSpaceError,
    TimedActivity,
    generate_state_space,
)
from repro.sanmodels.consensus_model import consensus_stop_predicate
from repro.sanmodels.exponential import (
    DELIVERED_PLACE,
    exponential_consensus_model,
    exponential_fd_pair_model,
    exponential_unicast_burst_model,
)
from repro.sanmodels.fd_model import FDModelSettings
from repro.stats.distributions import Constant, Exponential, Uniform
from tests.statespace_reference import reference_state_space


def birth_death_model(capacity: int = 3) -> SANModel:
    """M/M/1/c queue: arrivals at rate 2, service at rate 1."""
    model = SANModel("birth-death")
    model.add_place(Place("queue", 0))
    model.add_place(Place("free", capacity))
    model.add_activity(
        TimedActivity(
            "arrive",
            Exponential(0.5),
            input_arcs=["free"],
            cases=[Case.build(output_arcs=["queue"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "serve",
            Exponential(1.0),
            input_arcs=["queue"],
            cases=[Case.build(output_arcs=["free"])],
        )
    )
    return model


def test_birth_death_chain_structure():
    space = generate_state_space(birth_death_model(capacity=3))
    assert space.n_states == 4
    assert not space.absorbing.any()
    q = space.generator().toarray()
    # Rows of a generator sum to zero.
    assert np.allclose(q.sum(axis=1), 0.0)
    # Tridiagonal birth-death rates: up at 2, down at 1.
    empty = space.index_of(Marking({"free": 3}))
    full = space.index_of(Marking({"queue": 3}))
    assert q[empty, empty] == pytest.approx(-2.0)
    assert q[full, full] == pytest.approx(-1.0)


def test_initial_distribution_is_a_point_mass_for_tangible_start():
    space = generate_state_space(birth_death_model())
    assert space.initial_distribution.sum() == pytest.approx(1.0)
    assert space.initial_distribution[space.index_of(Marking({"free": 3}))] == 1.0
    assert space.initial_completions == {}


def test_stop_predicate_states_are_absorbing():
    space = generate_state_space(
        birth_death_model(), stop_predicate=lambda marking: marking["queue"] >= 2
    )
    # Exploration stops at queue == 2: states 0, 1 transient, 2 absorbing.
    assert space.n_states == 3
    assert space.stop_mask.sum() == 1
    stopped = space.index_of(Marking({"queue": 2, "free": 1}))
    assert space.absorbing[stopped]
    assert space.generator().toarray()[stopped].sum() == pytest.approx(0.0)


def vanishing_model() -> SANModel:
    """An instantaneous two-case branch feeding two timed drains."""
    model = SANModel("vanishing")
    model.add_place(Place("start", 1))
    model.add_place(Place("left", 0))
    model.add_place(Place("right", 0))
    model.add_place(Place("done", 0))
    model.add_activity(
        InstantaneousActivity(
            "branch",
            input_arcs=["start"],
            cases=[
                Case.build(probability=0.25, output_arcs=["left"]),
                Case.build(probability=0.75, output_arcs=["right"]),
            ],
        )
    )
    model.add_activity(
        TimedActivity(
            "finish_left",
            Exponential(1.0),
            input_arcs=["left"],
            cases=[Case.build(output_arcs=["done"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "finish_right",
            Exponential(2.0),
            input_arcs=["right"],
            cases=[Case.build(output_arcs=["done"])],
        )
    )
    return model


def test_vanishing_markings_are_eliminated_with_case_probabilities():
    space = generate_state_space(vanishing_model())
    # The vanishing "start" marking never appears as a state.
    assert space.n_states == 3
    left = space.index_of(Marking({"left": 1}))
    right = space.index_of(Marking({"right": 1}))
    assert space.initial_distribution[left] == pytest.approx(0.25)
    assert space.initial_distribution[right] == pytest.approx(0.75)
    # The instantaneous firing of the initial stabilisation is recorded.
    assert space.initial_completions == {"branch": pytest.approx(1.0)}


def ranked_model() -> SANModel:
    """Two instantaneous activities competing for one token by rank."""
    model = SANModel("ranked")
    model.add_place(Place("token", 1))
    model.add_place(Place("low", 0))
    model.add_place(Place("high", 0))
    model.add_place(Place("sink", 0))
    model.add_activity(
        InstantaneousActivity(
            "second", input_arcs=["token"], cases=[Case.build(output_arcs=["high"])],
            rank=5,
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "first", input_arcs=["token"], cases=[Case.build(output_arcs=["low"])],
            rank=1,
        )
    )
    model.add_activity(
        TimedActivity(
            "drain_low",
            Exponential(1.0),
            input_arcs=["low"],
            cases=[Case.build(output_arcs=["sink"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "drain_high",
            Exponential(1.0),
            input_arcs=["high"],
            cases=[Case.build(output_arcs=["sink"])],
        )
    )
    return model


def test_instantaneous_rank_tie_break_matches_executor():
    # Two enabled instantaneous activities: the lower rank consumes the
    # token first, so only its branch exists.
    space = generate_state_space(ranked_model())
    markings = [state.as_dict() for state in space.states]
    assert {"low": 1} in markings
    assert {"high": 1} not in markings


def constant_model() -> SANModel:
    """A timed activity with a non-exponential distribution."""
    model = SANModel("constant")
    model.add_place(Place("p", 1))
    model.add_activity(TimedActivity("hold", Constant(1.0), input_arcs=["p"]))
    return model


def test_non_exponential_activities_are_rejected():
    with pytest.raises(NonMarkovianModelError, match="hold.*Constant"):
        generate_state_space(constant_model())


def marking_dependent_model() -> SANModel:
    """Marking-dependent rate: service speeds up with the queue length."""
    model = SANModel("marking-dependent")
    model.add_place(Place("queue", 2))
    model.add_activity(
        TimedActivity(
            "serve",
            lambda marking: Exponential(1.0 / max(1, marking["queue"])),
            input_arcs=["queue"],
        )
    )
    return model


def test_marking_dependent_distributions_are_evaluated_per_state():
    space = generate_state_space(marking_dependent_model())
    q = space.generator().toarray()
    two = space.index_of(Marking({"queue": 2}))
    one = space.index_of(Marking({"queue": 1}))
    assert q[two, two] == pytest.approx(-2.0)
    assert q[one, one] == pytest.approx(-1.0)


def marking_dependent_bad_model() -> SANModel:
    """A marking-dependent distribution that is not exponential."""
    model = SANModel("marking-dependent-bad")
    model.add_place(Place("p", 1))
    model.add_activity(
        TimedActivity(
            "hold", lambda marking: Uniform(0.0, 1.0), input_arcs=["p"]
        )
    )
    return model


def test_marking_dependent_non_exponential_is_rejected():
    with pytest.raises(NonMarkovianModelError):
        generate_state_space(marking_dependent_bad_model())


def test_max_states_bound_is_enforced():
    with pytest.raises(StateSpaceError, match="max_states"):
        generate_state_space(birth_death_model(capacity=10), max_states=3)


def loop_model() -> SANModel:
    """Two instantaneous activities passing one token back and forth."""
    model = SANModel("loop")
    model.add_place(Place("a", 1))
    model.add_place(Place("b", 0))
    model.add_activity(
        InstantaneousActivity(
            "ab", input_arcs=["a"], cases=[Case.build(output_arcs=["b"])]
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "ba", input_arcs=["b"], cases=[Case.build(output_arcs=["a"])]
        )
    )
    return model


def test_vanishing_loop_is_detected():
    with pytest.raises(StateSpaceError, match="vanishing"):
        generate_state_space(loop_model())


def gated_model() -> SANModel:
    """A gate blocking service below 2 tokens."""
    model = SANModel("gated")
    model.add_place(Place("queue", 0))
    model.add_place(Place("free", 2))
    model.add_activity(
        TimedActivity(
            "arrive",
            Exponential(1.0),
            input_arcs=["free"],
            cases=[Case.build(output_arcs=["queue"])],
        )
    )
    model.add_activity(
        TimedActivity(
            "batch_serve",
            Exponential(1.0),
            input_arcs=[("queue", 2)],
            input_gates=[
                InputGate(
                    name="pair_ready",
                    predicate=lambda marking: marking["queue"] >= 2,
                    watched_places=("queue",),
                )
            ],
            cases=[Case.build(output_arcs=[("free", 2)])],
        )
    )
    return model


def drain_gated_model() -> SANModel:
    """An instantaneous activity a gate enables once a queue *empties*.

    The arcs only ever take tokens from the gate's place, so only a
    re-test on lost tokens sees "go" become enabled.
    """
    model = SANModel("drain-gated")
    model.add_place(Place("queue", 2))
    model.add_place(Place("ready", 1))
    model.add_place(Place("served", 0))
    model.add_place(Place("done", 0))
    model.add_activity(
        TimedActivity(
            "serve",
            Exponential(1.0),
            input_arcs=["queue"],
            cases=[Case.build(output_arcs=["served"])],
        )
    )
    model.add_activity(
        InstantaneousActivity(
            "go",
            input_arcs=["ready"],
            input_gates=[
                InputGate(
                    name="queue_empty",
                    predicate=lambda marking: marking["queue"] == 0,
                    watched_places=("queue",),
                )
            ],
            cases=[Case.build(output_arcs=["done"])],
        )
    )
    return model


def test_input_gates_shape_the_reachable_set():
    # The gate removes the 1 -> 0 transition.
    space = generate_state_space(gated_model())
    assert space.n_states == 3
    q = space.generator().toarray()
    one = space.index_of(Marking({"queue": 1, "free": 1}))
    empty = space.index_of(Marking({"free": 2}))
    assert q[one, empty] == 0.0


def test_initial_marking_override():
    space = generate_state_space(
        birth_death_model(), initial_marking=Marking({"queue": 3})
    )
    assert space.initial_distribution[space.index_of(Marking({"queue": 3}))] == 1.0


def test_transition_completions_back_impulse_rewards():
    space = generate_state_space(birth_death_model(capacity=1))
    arrivals = space.completion_rate_matrix(frozenset({"arrive"}))
    everything = space.completion_rate_matrix(None)
    empty = space.index_of(Marking({"free": 1}))
    full = space.index_of(Marking({"queue": 1}))
    assert arrivals[empty] == pytest.approx(2.0)
    assert arrivals[full] == pytest.approx(0.0)
    assert everything[full] == pytest.approx(1.0)


def test_summary_and_exit_rates():
    space = generate_state_space(birth_death_model(capacity=1))
    assert "birth-death" in space.summary()
    assert space.exit_rates()[space.index_of(Marking({"free": 1}))] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Exact equality with the full-scan dict walk (tests/statespace_reference)
# ----------------------------------------------------------------------
def _float_bits(values) -> list:
    return [float(value).hex() for value in values]


def assert_identical_spaces(space: StateSpace, reference: StateSpace) -> None:
    """Every field equal, floats bit for bit, orders included."""
    assert space.model_name == reference.model_name
    assert [state.items() for state in space.states] == [
        state.items() for state in reference.states
    ]
    assert [
        (t.source, t.target, t.rate.hex(),
         [(name, count.hex()) for name, count in t.completions])
        for t in space.transitions
    ] == [
        (t.source, t.target, t.rate.hex(),
         [(name, count.hex()) for name, count in t.completions])
        for t in reference.transitions
    ]
    for name in ("initial_distribution", "absorbing", "stop_mask"):
        ours, theirs = getattr(space, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert list(space.initial_completions) == list(reference.initial_completions)
    assert _float_bits(space.initial_completions.values()) == _float_bits(
        reference.initial_completions.values()
    )
    assert space._index == reference._index


def _both(model_factory, **kwargs):
    """Run both generators; an error must be the same type and message."""
    try:
        reference = reference_state_space(model_factory(), **kwargs)
    except (StateSpaceError, ValueError) as error:
        with pytest.raises(type(error)) as raised:
            generate_state_space(model_factory(), **kwargs)
        assert str(raised.value) == str(error)
        return
    assert_identical_spaces(generate_state_space(model_factory(), **kwargs), reference)


def _burst_delivered(marking) -> bool:
    return marking[DELIVERED_PLACE] >= 3


REFERENCE_CASES = {
    "birth-death": (birth_death_model, {}),
    "birth-death-stop": (
        birth_death_model, {"stop_predicate": lambda marking: marking["queue"] >= 2}
    ),
    "birth-death-override": (
        birth_death_model, {"initial_marking": Marking({"queue": 3})}
    ),
    # More than 255 tokens in a place: rows no longer pack into bytes.
    "birth-death-wide": (functools.partial(birth_death_model, capacity=300), {}),
    "birth-death-max-states": (
        functools.partial(birth_death_model, capacity=10), {"max_states": 3}
    ),
    "vanishing": (vanishing_model, {}),
    "ranked": (ranked_model, {}),
    "constant": (constant_model, {}),
    "marking-dependent": (marking_dependent_model, {}),
    "marking-dependent-bad": (marking_dependent_bad_model, {}),
    "loop": (loop_model, {}),
    "gated": (gated_model, {}),
    "drain-gated": (drain_gated_model, {}),
    "fd-pair": (
        functools.partial(
            exponential_fd_pair_model,
            FDModelSettings(mistake_recurrence_time=50.0, mistake_duration=5.0),
        ),
        {},
    ),
    "unicast-burst": (exponential_unicast_burst_model, {"stop_predicate": _burst_delivered}),
    "unicast-burst-lossy": (
        functools.partial(exponential_unicast_burst_model, loss_rate=0.2),
        {"stop_predicate": _burst_delivered},
    ),
    "consensus-3": (
        functools.partial(exponential_consensus_model, 3),
        {"stop_predicate": consensus_stop_predicate},
    ),
    "consensus-4": (
        functools.partial(exponential_consensus_model, 4),
        {"stop_predicate": consensus_stop_predicate},
    ),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_generator_matches_the_full_scan_reference(case):
    model_factory, kwargs = REFERENCE_CASES[case]
    _both(model_factory, **kwargs)


GHOST = "ghost"  # a place no arc declares: only gate functions write it


@st.composite
def random_sans(draw):
    """Small random SANs over a token-conserving net.

    Timed activities move tokens anywhere (every case outputs the weight
    its input arcs consume) and instantaneous ones only to later places,
    so the state space is finite and no elimination chain loops.  Input
    gates read declared places (watched or conservatively unwatched) and
    the undeclared ``ghost`` place; output gates move a declared token or
    toggle ``ghost``, which a reset activity's input gate function
    clears.
    """
    n_places = draw(st.integers(2, 5))
    places = [f"p{index}" for index in range(n_places)]
    initial = draw(st.lists(st.integers(1, 2), min_size=n_places, max_size=n_places))
    place_index = st.integers(0, n_places - 1)

    def toggle(marking):
        marking[GHOST] = 1 - marking[GHOST]

    def output_gates(label, forward_from=None):
        # Instantaneous activities move tokens only forward (``forward_from``
        # is their input place), which keeps every elimination chain finite.
        kind = draw(st.sampled_from(["none", "toggle", "move"]))
        if kind == "none":
            return []
        if kind == "toggle":
            return [OutputGate(f"{label}_og", toggle)]
        low = 0 if forward_from is None else forward_from + 1
        source = places[draw(st.integers(low, n_places - 1))]
        target = places[draw(st.integers(low, n_places - 1))]
        if forward_from is not None and source > target:
            source, target = target, source

        def move(marking, a=source, b=target):
            if marking[a] > 0:
                marking[a] -= 1
                marking[b] += 1

        return [OutputGate(f"{label}_og", move)]

    def gate(label):
        kind = draw(st.sampled_from(["none", "none", "watched", "unwatched", "ghost"]))
        if kind == "none":
            return []
        if kind == "ghost":
            return [InputGate(f"{label}_g", lambda m: m[GHOST] == 0, watched_places=(GHOST,))]
        place = places[draw(place_index)]
        bound = draw(st.integers(0, 3))
        watched = (place,) if kind == "watched" else ()
        if draw(st.booleans()):
            # Enabled by *losing* tokens: arcs that drain ``place`` must
            # re-test this gate.
            return [InputGate(
                f"{label}_g", lambda m, p=place, b=bound: m[p] <= b, watched_places=watched
            )]
        return [InputGate(
            f"{label}_g", lambda m, p=place, b=bound: m[p] >= b, watched_places=watched
        )]

    def weight():
        if draw(st.booleans()):
            return float(draw(st.integers(1, 3)))
        place = places[draw(place_index)]
        return lambda m, p=place: 1 + m[p]

    timed_specs = []
    for number in range(draw(st.integers(2, 6))):
        source = draw(place_index)
        arc_weight = draw(st.sampled_from([1, 1, 2]))
        cases = []
        for case_number in range(draw(st.integers(1, 2))):
            target = draw(place_index)
            cases.append(Case.build(
                probability=weight(),
                output_arcs=[(places[target], arc_weight)],
                output_gates=output_gates(f"t{number}c{case_number}"),
            ))
        if draw(st.booleans()):
            rate_place = places[draw(place_index)]
            distribution = lambda m, p=rate_place: Exponential(1.0 / (1 + m[p]))  # noqa: E731
        else:
            distribution = Exponential(draw(st.sampled_from([0.5, 1.0, 2.0])))
        timed_specs.append(TimedActivity(
            f"t{number}", distribution,
            input_arcs=[(places[source], arc_weight)],
            input_gates=gate(f"t{number}"),
            cases=cases,
        ))

    inst_specs = []
    for number in range(draw(st.integers(0, 3))):
        source = draw(st.integers(0, n_places - 2))
        cases = [
            Case.build(
                probability=weight(),
                output_arcs=[places[draw(st.integers(source + 1, n_places - 1))]],
                output_gates=output_gates(f"i{number}c{case_number}", source),
            )
            for case_number in range(draw(st.integers(1, 2)))
        ]
        inst_specs.append(InstantaneousActivity(
            f"i{number}", input_arcs=[places[source]], input_gates=gate(f"i{number}"),
            cases=cases, rank=draw(st.integers(0, 2)),
        ))
    if draw(st.booleans()):
        # Clears the ghost flag as soon as it is set: a gate function
        # writing an undeclared place inside an elimination chain.
        def clear(marking):
            marking[GHOST] = 0

        inst_specs.append(InstantaneousActivity(
            "reset",
            input_gates=[InputGate(
                "reset_g", lambda m: m[GHOST] >= 1, function=clear, watched_places=(GHOST,)
            )],
            rank=draw(st.integers(0, 2)),
        ))

    def model_factory():
        model = SANModel("random")
        for name, tokens in zip(places, initial, strict=True):
            model.add_place(Place(name, tokens))
        for activity in timed_specs + inst_specs:
            model.add_activity(activity)
        return model

    kwargs = {"max_states": 300}
    if draw(st.booleans()):
        stop_index = draw(place_index)
        stop_place = places[stop_index]
        threshold = initial[stop_index] + draw(st.integers(1, 2))
        kwargs["stop_predicate"] = lambda m, p=stop_place, t=threshold: m[p] >= t
    if draw(st.booleans()):
        tokens = draw(st.lists(st.integers(0, 2), min_size=n_places, max_size=n_places))
        override = dict(zip(places, tokens, strict=True))
        if draw(st.booleans()):
            override[GHOST] = 1
        kwargs["initial_marking"] = Marking(override)
    return model_factory, kwargs


@settings(max_examples=200, deadline=None)
@given(random_sans())
def test_random_sans_match_the_full_scan_reference(generated):
    model_factory, kwargs = generated
    _both(model_factory, **kwargs)
