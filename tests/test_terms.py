"""Vocabulary invariants: atoms, sets, paths, and ground atoms."""

from __future__ import annotations

from dataclasses import replace

import pytest

from sitaspect.terms import (
    AspectAtom,
    AspectPath,
    AspectSet,
    GroundAction,
    GroundFluent,
    action,
    as_elem,
    fluent,
    path,
)


def test_atom_name_must_be_nonempty():
    with pytest.raises(ValueError):
        AspectAtom("")


def test_atoms_compare_by_name():
    assert AspectAtom("r1") == AspectAtom("r1")
    assert AspectAtom("r1") != AspectAtom("r2")


def test_aspect_set_must_be_nonempty():
    with pytest.raises(ValueError):
        AspectSet(frozenset())


def test_set_elements_are_duplicate_free():
    elem = as_elem({"a", "a", "b"})
    assert isinstance(elem, AspectSet)
    assert len(elem.atoms) == 2


def test_empty_path_denotes_the_whole_world():
    whole = path()
    assert len(whole) == 0
    assert whole.is_atomic()


def test_path_rendering_is_sorted_and_stable():
    assert str(path("computer", "display", {"p2", "p1"})) == \
        "(computer,display,{p1,p2})"


def test_ground_atom_rendering():
    assert str(fluent("on", "a", "floor")) == "on(a,floor)"
    assert str(action("light_pixels", {"p2", "p1"})) == "light_pixels({p1,p2})"


def test_ground_atoms_hash_and_compare():
    assert fluent("on", "a", "b") == fluent("on", "a", "b")
    assert len({action("go", {"x", "y"}), action("go", {"y", "x"})}) == 1


def test_fluents_and_actions_stay_apart():
    p, a = GroundFluent("p", ("x",)), GroundAction("p", ("x",))
    assert p != a and str(p) == str(a) == "p(x)"
    assert (repr(p), repr(a)) == ("GroundFluent(schema='p', args=('x',))",
                                  "GroundAction(schema='p', args=('x',))")
    moved = replace(a, args=("y",))
    assert type(moved) is GroundAction and moved == action("p", "y")


def test_path_append_extends():
    assert path("0").append("1", "0") == path("0", "1", "0")
