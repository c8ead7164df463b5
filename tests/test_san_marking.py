"""Tests of SAN markings (token bookkeeping, the change journal, freezing)."""

from __future__ import annotations

from collections.abc import Hashable

import pytest
from hypothesis import given, strategies as st

from repro.san.marking import FrozenMarking, Marking
from repro.san.places import Place


def test_unknown_places_have_zero_tokens():
    marking = Marking()
    assert marking["anything"] == 0


def test_set_get_add_remove():
    marking = Marking()
    marking["a"] = 2
    marking.add("a")
    marking.remove("a", 2)
    assert marking["a"] == 1


def test_place_objects_and_names_are_interchangeable():
    marking = Marking()
    place = Place("p", 0)
    marking[place] = 3
    assert marking["p"] == 3
    assert marking.has(place, 3)


def test_negative_markings_are_rejected():
    marking = Marking({"a": 1})
    with pytest.raises(ValueError):
        marking.remove("a", 2)


def test_initialisation_from_mapping():
    marking = Marking({"a": 1, "b": 0})
    assert marking["a"] == 1
    assert marking["b"] == 0


def test_copy_is_independent():
    original = Marking({"a": 1})
    clone = original.copy()
    clone["a"] = 5
    assert original["a"] == 1


def test_equality_ignores_zero_entries():
    assert Marking({"a": 1, "b": 0}) == Marking({"a": 1})
    assert Marking({"a": 1}) == {"a": 1, "c": 0}
    assert Marking({"a": 1}) != Marking({"a": 2})


def test_markings_are_unhashable():
    with pytest.raises(TypeError):
        hash(Marking())


def test_markings_are_not_instances_of_hashable():
    # ``__hash__ = None`` (not a raising method) is what makes the ABC
    # machinery agree that markings are unhashable.
    assert not isinstance(Marking(), Hashable)
    assert Marking.__hash__ is None


def test_markings_cannot_be_dict_keys_or_set_members():
    with pytest.raises(TypeError):
        _ = {Marking(): 1}
    with pytest.raises(TypeError):
        _ = {Marking({"a": 1})}


def test_total_tokens_and_set_all():
    marking = Marking()
    marking.set_all(["a", "b", "c"], 2)
    assert marking.total_tokens() == 6


def test_as_dict_drop_zeros():
    marking = Marking({"a": 1, "b": 0})
    assert marking.as_dict(drop_zeros=True) == {"a": 1}
    assert marking.as_dict() == {"a": 1, "b": 0}


def test_change_journal_records_real_changes_only():
    marking = Marking({"a": 1})
    marking.consume_changes()
    marking["a"] = 1  # no change
    marking["b"] = 2
    marking.add("a")
    changed = marking.consume_changes()
    assert changed == {"a", "b"}
    assert marking.consume_changes() == set()


def test_change_journal_cleared_by_consume():
    marking = Marking()
    marking["x"] = 1
    assert marking.consume_changes() == {"x"}
    marking["x"] = 1
    assert marking.consume_changes() == set()


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=5), st.integers(min_value=0, max_value=20), max_size=8
    )
)
def test_copy_round_trips_arbitrary_markings(tokens):
    marking = Marking(tokens)
    assert marking.copy() == marking
    assert marking.total_tokens() == sum(tokens.values())


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(min_value=1, max_value=3)),
        max_size=20,
    )
)
def test_add_never_produces_negative_tokens_and_journal_tracks_touched_places(ops):
    marking = Marking()
    marking.consume_changes()
    touched = set()
    for place, count in ops:
        marking.add(place, count)
        touched.add(place)
    assert all(marking[p] >= 0 for p in ("a", "b", "c"))
    assert marking.consume_changes() == touched


# ----------------------------------------------------------------------
# FrozenMarking: the hashable state key of the state-space generator
# ----------------------------------------------------------------------
def test_frozen_markings_are_hashable_and_equal_by_value():
    frozen = Marking({"a": 1, "b": 2}).freeze()
    assert isinstance(frozen, Hashable)
    assert hash(frozen) == hash(Marking({"b": 2, "a": 1}).freeze())
    assert frozen == Marking({"a": 1, "b": 2}).freeze()
    assert frozen == FrozenMarking({"a": 1, "b": 2})


def test_frozen_markings_drop_explicit_zeros():
    sparse = Marking({"a": 1}).freeze()
    padded = Marking({"a": 1, "b": 0, "c": 0}).freeze()
    assert sparse == padded
    assert hash(sparse) == hash(padded)
    assert len(padded) == 1
    assert "b" not in padded


def test_frozen_marking_reads_like_a_marking():
    frozen = FrozenMarking({"a": 2, "b": 0})
    assert frozen["a"] == 2
    assert frozen["missing"] == 0
    assert frozen[Place("a", 0)] == 2
    assert frozen.has("a", 2) and not frozen.has("a", 3)
    assert frozen.as_dict() == {"a": 2}
    assert list(frozen) == ["a"]
    assert frozen.total_tokens() == 2


def test_frozen_marking_rejects_negative_counts():
    with pytest.raises(ValueError):
        FrozenMarking({"a": -1})


def test_freeze_is_a_snapshot_not_a_view():
    marking = Marking({"a": 1})
    frozen = marking.freeze()
    marking.add("a")
    assert frozen["a"] == 1
    assert marking["a"] == 2


def test_thaw_round_trip_gives_independent_mutable_marking():
    frozen = FrozenMarking({"a": 3})
    thawed = frozen.thaw()
    assert isinstance(thawed, Marking)
    assert thawed == frozen
    thawed.add("a")
    assert frozen["a"] == 3


def test_frozen_marking_equality_against_marking_and_mapping():
    frozen = FrozenMarking({"a": 1})
    assert frozen == Marking({"a": 1, "b": 0})
    assert frozen == {"a": 1, "c": 0}
    assert frozen != Marking({"a": 2})
    assert FrozenMarking.from_marking(Marking({"a": 1})) == frozen


def test_frozen_markings_work_as_dict_keys():
    index = {Marking({"a": 1}).freeze(): 0}
    assert index[Marking({"a": 1, "b": 0}).freeze()] == 0


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=5), st.integers(min_value=0, max_value=20), max_size=8
    )
)
def test_freeze_thaw_round_trips_arbitrary_markings(tokens):
    marking = Marking(tokens)
    frozen = marking.freeze()
    assert frozen == marking
    assert frozen.thaw() == marking
    assert frozen.total_tokens() == sum(tokens.values())
    # Hash/equality agree with the zero-dropped canonical form.
    canonical = FrozenMarking({k: v for k, v in tokens.items() if v})
    assert frozen == canonical
    assert hash(frozen) == hash(canonical)


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=5), st.integers(min_value=0, max_value=20), max_size=8
    )
)
def test_thaw_equals_a_marking_built_from_the_frozen_items(tokens):
    frozen = FrozenMarking(tokens)
    thawed = frozen.thaw()
    rebuilt = Marking(dict(frozen.items()))
    assert type(thawed) is Marking
    # Same token dict, key order included, and an empty change journal.
    assert list(thawed.as_dict().items()) == list(rebuilt.as_dict().items())
    assert thawed.consume_changes() == set()
    thawed["fresh"] = 1
    assert thawed.consume_changes() == {"fresh"}
    assert "fresh" not in frozen
