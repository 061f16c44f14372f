"""Ground vocabulary: aspect atoms, aspect paths, fluents, and actions.

Aspect paths address components of a hierarchical world. A path element is
either a single atom (one component) or a finite atom set (a group of
components touched together, e.g. a set of pixels). The empty path addresses
the whole world.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union


@dataclass(frozen=True, order=True)
class AspectAtom:
    """An opaque component name such as ``r1`` or ``display``."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("aspect atom name must be nonempty")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AspectSet:
    """A nonempty, duplicate-free set of aspect atoms."""

    atoms: frozenset[AspectAtom]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("aspect set must be nonempty")

    def __str__(self) -> str:
        return "{" + ",".join(sorted(a.name for a in self.atoms)) + "}"

    def sort_key(self):
        return (1, tuple(sorted(a.name for a in self.atoms)))


AspectElem = Union[AspectAtom, AspectSet]


def elem_sort_key(elem: AspectElem):
    """Total order over path elements: atoms by name, then sets by members."""
    if isinstance(elem, AspectAtom):
        return (0, (elem.name,))
    return elem.sort_key()


def as_elem(value) -> AspectElem:
    """Coerce a str, set of str, AspectAtom, or AspectSet into a path element."""
    if isinstance(value, (AspectAtom, AspectSet)):
        return value
    if isinstance(value, str):
        return AspectAtom(value)
    if isinstance(value, (set, frozenset, tuple, list)):
        return AspectSet(frozenset(as_atom(v) for v in value))
    raise TypeError(f"cannot interpret {value!r} as an aspect element")


def as_atom(value) -> AspectAtom:
    if isinstance(value, AspectAtom):
        return value
    if isinstance(value, str):
        return AspectAtom(value)
    raise TypeError(f"cannot interpret {value!r} as an aspect atom")


@dataclass(frozen=True)
class AspectPath:
    """An ordered sequence of aspect elements; () denotes the whole world."""

    elems: tuple[AspectElem, ...] = ()

    @staticmethod
    def of(*parts) -> "AspectPath":
        return AspectPath(tuple(as_elem(p) for p in parts))

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def is_atomic(self) -> bool:
        """True when every element is a single atom (the path addresses one node)."""
        return all(isinstance(e, AspectAtom) for e in self.elems)

    def append(self, *parts) -> "AspectPath":
        return AspectPath(self.elems + tuple(as_elem(p) for p in parts))

    def __str__(self) -> str:
        return self._text

    # Computed once per path object; a frozen dataclass keeps it in __dict__.
    @cached_property
    def _text(self) -> str:
        return "(" + ",".join(str(e) for e in self.elems) + ")"


# A ground term is an object name or a finite set of object names.
GroundTerm = Union[str, frozenset]


def term_str(t: GroundTerm) -> str:
    if isinstance(t, frozenset):
        return "{" + ",".join(sorted(t)) + "}"
    return t


def term_sort_key(t: GroundTerm):
    if isinstance(t, frozenset):
        return (1, tuple(sorted(t)))
    return (0, (t,))


@dataclass(frozen=True)
class _GroundAtom:
    """A schema applied to ground terms. Its two subclasses are distinct
    types, so a fluent never equals the action of the same name."""

    schema: str
    args: tuple[GroundTerm, ...] = ()

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        return f"{self.schema}({','.join(term_str(a) for a in self.args)})"

    def sort_key(self):
        return (self.schema, tuple(term_sort_key(a) for a in self.args))


@dataclass(frozen=True)
class GroundFluent(_GroundAtom):
    """A fluent schema applied to ground terms, e.g. ``on(a, b)``."""


@dataclass(frozen=True)
class GroundAction(_GroundAtom):
    """An action schema applied to ground terms, e.g. ``move(a, b)``."""


def fluent(schema: str, *args) -> GroundFluent:
    """Convenience constructor coercing set args to frozensets."""
    return GroundFluent(schema, tuple(_coerce_term(a) for a in args))


def action(schema: str, *args) -> GroundAction:
    return GroundAction(schema, tuple(_coerce_term(a) for a in args))


def _coerce_term(a) -> GroundTerm:
    if isinstance(a, (set, frozenset, tuple, list)):
        return frozenset(a)
    return a


def path(*parts) -> AspectPath:
    return AspectPath.of(*parts)
