"""Hierarchical world states.

A state is the set of modeled ground fluents that are true, over a map from
every modeled fluent to its home component: the path of atoms in the
hierarchy where the fluent lives. Each fluent has exactly one home. States
are immutable, hashable values; every state derived by updates shares its
origin's home map.

A fluent evaluates to True/False when its home component is part of the
state, and to None ("undefined") when the state models only a portion of
the world that does not include it.

Guard solving reads a state through its facts index: for each fluent
schema, the set of argument tuples of its true facts. It is built from
`facts` on first use and is not part of the value, so equality and hashing
read `facts` only. A positive guard literal binds its free variables from
the matching true facts, a negated one with unbound variables holds when no
true fact matches, and the solutions come out in sort-product order,
whatever order the index lists the facts in (see `domain.solve_guard`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Optional

from .errors import SchemaError, UndefinedPortionError
from .terms import AspectAtom, GroundFluent, as_atom


@dataclass(frozen=True)
class WorldState:
    facts: frozenset[GroundFluent]
    # Every modeled fluent -> its home path, shared by every state derived
    # by updates and never mutated. Equality compares it; the hash leaves it
    # out, since states over one home map differ only in `facts`.
    homes: Mapping[GroundFluent, tuple[AspectAtom, ...]] = field(hash=False)
    # The domain's fluent schema names; `eval_fluent` rejects any other.
    schemas: frozenset[str]

    def fluents(self) -> Iterator[tuple[GroundFluent, bool, tuple[AspectAtom, ...]]]:
        """Every modeled fluent with its value and home, by home, then fluent."""
        for f in sorted(self.homes, key=lambda f: (
                tuple(a.name for a in self.homes[f]), f.sort_key())):
            yield f, f in self.facts, self.homes[f]

    @cached_property
    def facts_index(self) -> dict[str, set[tuple]]:
        """Fluent schema -> the argument tuples of its true facts."""
        index: dict[str, set[tuple]] = {}
        for f in self.facts:
            index.setdefault(f.schema, set()).add(f.args)
        return index

    def holds(self, schema: str, args: tuple) -> bool:
        """Whether `schema(args)` is a true fact; SchemaError on an unknown schema."""
        if schema not in self.schemas:
            raise SchemaError(f"unknown fluent schema '{schema}'")
        return args in self.facts_index.get(schema, ())


def build_state(
    placements: Mapping[tuple, Mapping[GroundFluent, bool]],
    schemas: frozenset[str],
) -> WorldState:
    """Assemble a state from {component path: {fluent: value}} placements.

    Paths are tuples of atom names (or AspectAtoms).
    """
    homes: dict[GroundFluent, tuple[AspectAtom, ...]] = {}
    facts: set[GroundFluent] = set()
    for raw_path, local in placements.items():
        atoms = tuple(as_atom(a) for a in raw_path)
        for f, v in local.items():
            if homes.setdefault(f, atoms) != atoms:
                raise ValueError(f"fluent {f} placed in two components")
            if v:
                facts.add(f)
            else:
                facts.discard(f)
    return WorldState(facts=frozenset(facts), homes=homes, schemas=schemas)


def home_of(state: WorldState, p: GroundFluent) -> Optional[tuple[AspectAtom, ...]]:
    """The component path where p lives, or None when p is not modeled."""
    return state.homes.get(p)


def eval_fluent(state: WorldState, p: GroundFluent):
    """Truth value of p in state: True, False, or None when p's home is absent."""
    if p.schema not in state.schemas:
        raise SchemaError(f"unknown fluent schema '{p.schema}'")
    if p in state.facts:
        return True
    return False if p in state.homes else None


def with_fluent(state: WorldState, p: GroundFluent, v: bool) -> WorldState:
    """A new state equal to `state` except that p has value v.

    Requires p's home component to exist in the state.
    """
    if p not in state.homes:
        raise UndefinedPortionError(f"fluent {p} is outside the modeled portion")
    facts = state.facts | {p} if v else state.facts - {p}
    return WorldState(facts=facts, homes=state.homes, schemas=state.schemas)
