"""Explicit finite structures for validating the aspect formalisms.

A FiniteModel carries a finite situation set, one relation per aspect atom
(optionally flagged as a function), per-element relations for collective
aspects, total action maps, fluent valuations, aspect assignments, witness
predicates, and an explicit non-interference table. Relations are checked
through integer bitmask rows, one row per situation. The modal part is a
Kripke evaluator over six node types, the reference the validator's closed
forms are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from .disjoint import elem_disjoint
from .errors import ModelError
from .terms import AspectAtom, AspectPath, AspectSet


@dataclass(frozen=True)
class FiniteModel:
    name: str
    situations: tuple[str, ...]
    aspect_rels: dict[str, frozenset[tuple[str, str]]] = field(default_factory=dict)
    functional: frozenset[str] = frozenset()
    action_maps: dict[str, dict[str, str]] = field(default_factory=dict)
    valuations: dict[str, frozenset[str]] = field(default_factory=dict)
    fluent_aspects: dict[str, AspectPath] = field(default_factory=dict)
    action_aspects: dict[str, AspectPath] = field(default_factory=dict)
    witnesses: dict[tuple[str, str], frozenset[str]] = field(default_factory=dict)
    collective_rels: dict[str, frozenset[tuple[str, str]]] = field(default_factory=dict)
    collective_witnesses: dict[tuple[str, str, str], frozenset[str]] = field(default_factory=dict)
    d_table: frozenset[tuple[AspectPath, AspectPath]] = frozenset()
    # Built once per model object, and shared by the model that
    # `with_derived_dtable` derives: "index", the situation index; ("rel",
    # atom) and ("elem", element), a relation's rows; "valid", set once
    # validate() or a clean `dsl.parse_model` has passed.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def validate(self) -> None:
        """Raise ModelError on no situations, a repeated or an unknown
        situation, and then on the first of `faults()`."""
        if "valid" in self._memo:
            return
        if not self.situations:
            raise ModelError(f"model '{self.name}' has no situations")
        if len(set(self.situations)) != len(self.situations):
            raise ModelError(f"model '{self.name}' repeats a situation")
        sits = set(self.situations)
        for atom, rel in {**self.aspect_rels, **self.collective_rels}.items():
            for s, t in rel:
                if s not in sits or t not in sits:
                    raise ModelError(f"relation '{atom}' touches unknown situation")
        for act, mapping in self.action_maps.items():
            for s, t in mapping.items():
                if s not in sits or t not in sits:
                    raise ModelError(f"action '{act}' maps unknown situations")
        for f, val in self.valuations.items():
            if not val <= sits:
                raise ModelError(f"valuation of '{f}' lists unknown situations")
        for message, _ in self.faults():
            raise ModelError(message)
        self._memo["valid"] = True

    def faults(self):
        """(message, hint) for each action map that is not total, then for each
        flagged relation at its first situation without exactly one successor."""
        for act, mapping in self.action_maps.items():
            missing = [s for s in self.situations if s not in mapping]
            if missing:
                yield (f"action '{act}' is not total: no successor for "
                       f"{', '.join(missing)}", "add 'act NAME s -> t' lines")
        for atom in sorted(self.functional):
            rel = self.aspect_rels.get(atom, frozenset())
            for s in self.situations:
                succ = [t for (u, t) in rel if u == s]
                if len(succ) != 1:
                    yield (f"relation '{atom}' is flagged functional but "
                           f"situation '{s}' has {len(succ)} successors", "")
                    break

    # -- bitmask views -------------------------------------------------

    # The index and the rows are shared between calls: callers must not
    # change them.

    def index(self) -> dict[str, int]:
        idx = self._memo.get("index")
        if idx is None:
            idx = self._memo["index"] = {s: i for i, s in enumerate(self.situations)}
        return idx

    def rel_rows(self, atom: str) -> list[int]:
        if atom not in self.aspect_rels:
            raise ModelError(f"no relation declared for aspect atom '{atom}'")
        return self._memo_rows(("rel", atom), self.aspect_rels[atom])

    def element_rows(self, elem: str) -> list[int]:
        if elem not in self.collective_rels:
            raise ModelError(f"no relation declared for collective element '{elem}'")
        return self._memo_rows(("elem", elem), self.collective_rels[elem])

    def _memo_rows(self, key: tuple[str, str], rel: frozenset[tuple[str, str]]) -> list[int]:
        rows = self._memo.get(key)
        if rows is None:
            rows = self._memo[key] = _rows(self.situations, rel)
        return rows

    def path_rows(self, path: AspectPath) -> list[int]:
        """Rows of the composed relation along an atom path (first atom first)."""
        n = len(self.situations)
        rows = [1 << i for i in range(n)]  # identity for the empty path
        for elem in path:
            if not isinstance(elem, AspectAtom):
                raise ModelError(f"path {path} has a set element; "
                                 "relational composition needs atoms")
            rows = compose_rows(rows, self.rel_rows(elem.name))
        return rows

    def act_vec(self, action: str) -> list[int]:
        if action not in self.action_maps:
            raise ModelError(f"no action map declared for '{action}'")
        idx = self.index()
        return [idx[self.action_maps[action][s]] for s in self.situations]

    def val_mask(self, fluent: str) -> int:
        if fluent not in self.valuations:
            raise ModelError(f"no valuation declared for fluent '{fluent}'")
        idx = self.index()
        mask = 0
        for s in self.valuations[fluent]:
            mask |= 1 << idx[s]
        return mask

    def with_derived_dtable(self) -> "FiniteModel":
        """Fill d_table from set-aspect disjointness when none was given.

        Collective aspects are sets over an element universe; two aspects are
        non-interfering exactly when the sets share no element.
        """
        if self.d_table:
            return self
        pairs = set()
        for alpha in self.fluent_aspects.values():
            for beta in self.action_aspects.values():
                if _set_paths_disjoint(alpha, beta):
                    pairs.add((alpha, beta))
        derived = replace(self, d_table=frozenset(pairs))
        derived._memo.update(self._memo)  # no entry reads the d table
        return derived


def _set_paths_disjoint(alpha: AspectPath, beta: AspectPath) -> bool:
    if len(alpha) != 1 or len(beta) != 1:
        return False
    ea, eb = alpha[0], beta[0]
    return isinstance(ea, AspectSet) and isinstance(eb, AspectSet) and elem_disjoint(ea, eb)


def _rows(situations: tuple[str, ...], rel: frozenset[tuple[str, str]]) -> list[int]:
    idx = {s: i for i, s in enumerate(situations)}
    rows = [0] * len(situations)
    for s, t in rel:
        rows[idx[s]] |= 1 << idx[t]
    return rows


def compose_rows(first: list[int], second: list[int]) -> list[int]:
    """Rows of (first ; second): step along `first`, then along `second`."""
    out = []
    for row in first:
        acc = 0
        rest = row
        while rest:
            low = rest & -rest
            acc |= second[low.bit_length() - 1]
            rest ^= low
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Modal formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluentAtom:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Implies:
    left: "ModalFormula"
    right: "ModalFormula"


@dataclass(frozen=True)
class BoxAction:
    action: str
    sub: "ModalFormula"


@dataclass(frozen=True)
class BoxAspect:
    aspect: str
    sub: "ModalFormula"


@dataclass(frozen=True)
class DiamondAspect:
    aspect: str
    sub: "ModalFormula"


ModalFormula = Union[FluentAtom, Const, Implies, BoxAction, BoxAspect, DiamondAspect]


def modal_eval(model: FiniteModel, world: str, formula: ModalFormula) -> bool:
    """Standard Kripke evaluation; [a] steps along the action map."""
    idx = model.index()
    if world not in idx:
        raise ModelError(f"unknown situation '{world}'")
    return _eval(model, idx[world], formula, idx)


def _eval(model: FiniteModel, w: int, formula: ModalFormula, idx: dict[str, int]) -> bool:
    if isinstance(formula, FluentAtom):
        return bool(model.val_mask(formula.name) >> w & 1)
    if isinstance(formula, Const):
        return formula.value
    if isinstance(formula, Implies):
        return (not _eval(model, w, formula.left, idx)) or _eval(model, w, formula.right, idx)
    if isinstance(formula, BoxAction):
        return _eval(model, model.act_vec(formula.action)[w], formula.sub, idx)
    if isinstance(formula, BoxAspect):
        row = model.rel_rows(formula.aspect)[w]
        return all(_eval(model, t, formula.sub, idx)
                   for t in _bits(row))
    if isinstance(formula, DiamondAspect):
        row = model.rel_rows(formula.aspect)[w]
        return any(_eval(model, t, formula.sub, idx)
                   for t in _bits(row))
    raise ModelError(f"unknown formula node {formula!r}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
