"""Hierarchical world states.

A state is a finite tree of components. Each component node carries a local
valuation of the ground fluents that live there; every ground fluent is
stored in exactly one node (its home component). States are immutable
values: updates return new states that share untouched subtrees. Lookups
go through a fluent->home index that every state derived by updates shares.

A fluent evaluates to True/False when its home component is part of the
state, and to None ("undefined") when the state models only a portion of
the world that does not include it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Optional

from .errors import SchemaError, UndefinedPortionError
from .terms import AspectAtom, AspectPath, GroundFluent, as_atom


@dataclass(frozen=True)
class ComponentNode:
    local: dict[GroundFluent, bool] = field(default_factory=dict)
    children: dict[AspectAtom, "ComponentNode"] = field(default_factory=dict)

    def walk(self, prefix: tuple[AspectAtom, ...] = ()) -> Iterator[tuple[tuple[AspectAtom, ...], "ComponentNode"]]:
        yield prefix, self
        for atom in sorted(self.children, key=lambda a: a.name):
            yield from self.children[atom].walk(prefix + (atom,))


@dataclass(frozen=True)
class WorldState:
    root: ComponentNode
    # Known fluent schema names, when the state was built through a Domain.
    # None disables schema checking for hand-assembled states.
    schemas: Optional[frozenset[str]] = None

    def key(self) -> tuple:
        """Canonical hashable form, for deduplication of visited states."""
        items = []
        for prefix, node in self.root.walk():
            local = tuple(sorted(((f, v) for f, v in node.local.items()),
                                 key=lambda fv: fv[0].sort_key()))
            items.append((tuple(a.name for a in prefix), local))
        return tuple(items)

    def fluents(self) -> Iterator[tuple[GroundFluent, bool, tuple[AspectAtom, ...]]]:
        for prefix, node in self.root.walk():
            for f in sorted(node.local, key=lambda f: f.sort_key()):
                yield f, node.local[f], prefix

    @cached_property
    def _homes(self) -> dict[GroundFluent, tuple[AspectAtom, ...]]:
        """Fluent -> home path; not a field, so equality ignores it."""
        homes: dict[GroundFluent, tuple[AspectAtom, ...]] = {}
        for prefix, node in self.root.walk():
            for f in node.local:
                homes.setdefault(f, prefix)
        return homes


def build_state(
    placements: Mapping[tuple, Mapping[GroundFluent, bool]],
    schemas: Optional[frozenset[str]] = None,
) -> WorldState:
    """Assemble a state from {component path: {fluent: value}} placements.

    Paths are tuples of atom names (or AspectAtoms); intermediate nodes are
    created as needed. An entry with an empty mapping still creates the node,
    so portions of the hierarchy can exist without any local fluents.
    """
    root = ComponentNode()
    seen: dict[GroundFluent, tuple] = {}
    for raw_path, local in placements.items():
        atoms = tuple(as_atom(a) for a in raw_path)
        node = root
        for atom in atoms:
            if atom not in node.children:
                node.children[atom] = ComponentNode()
            node = node.children[atom]
        for f, v in local.items():
            if f in seen and seen[f] != atoms:
                raise ValueError(f"fluent {f} placed in two components")
            seen[f] = atoms
            node.local[f] = bool(v)
    return WorldState(root=root, schemas=schemas)


def resolve_component(state: WorldState, path: AspectPath) -> Optional[ComponentNode]:
    """Descend the component tree along an atom-only path; None if a step is missing."""
    node = state.root
    for atom in path.atoms():
        node = node.children.get(atom)
        if node is None:
            return None
    return node


def home_of(state: WorldState, p: GroundFluent) -> Optional[tuple[AspectAtom, ...]]:
    """The component path where p is stored, or None when p is not modeled."""
    return state._homes.get(p)


def eval_fluent(state: WorldState, p: GroundFluent):
    """Truth value of p in state: True, False, or None when p's home is absent."""
    if state.schemas is not None and p.schema not in state.schemas:
        raise SchemaError(f"unknown fluent schema '{p.schema}'")
    home = state._homes.get(p)
    if home is None:
        return None
    node = state.root
    for atom in home:
        node = node.children[atom]
    return node.local[p]


def with_fluent(state: WorldState, p: GroundFluent, v: bool) -> WorldState:
    """A new state equal to `state` except that p has value v.

    Requires p's home component to exist in the state; the spine of the tree
    leading to it is copied, everything else is shared.
    """
    home = home_of(state, p)
    if home is None:
        raise UndefinedPortionError(f"fluent {p} is outside the modeled portion")
    new = WorldState(root=_rebuild(state.root, home, p, bool(v)), schemas=state.schemas)
    new.__dict__["_homes"] = state._homes  # the update leaves every home in place
    return new


def _rebuild(node: ComponentNode, path: tuple[AspectAtom, ...], p: GroundFluent, v: bool) -> ComponentNode:
    if not path:
        local = dict(node.local)
        local[p] = v
        return ComponentNode(local=local, children=node.children)
    head, rest = path[0], path[1:]
    children = dict(node.children)
    children[head] = _rebuild(children[head], rest, p, v)
    return ComponentNode(local=node.local, children=children)
