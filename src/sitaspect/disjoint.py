"""The non-interference predicate d over aspect paths.

d(alpha, beta) declares that actions of aspect beta cannot influence fluents
of aspect alpha. Four specification styles are supported:

* SimpleInequality  - single-element paths, disjoint elements.
* SeqExistsDiff     - some shared position holds disjoint elements.
* CommutativeCanonical - SeqExistsDiff after canonicalizing under a set of
  commuting atom pairs, so that order-equivalent paths never count as
  disjoint.
* ExplicitTable     - a directed lookup table (fluent aspect first).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DisjointnessSpecError
from .terms import AspectAtom, AspectElem, AspectPath, elem_sort_key


@dataclass(frozen=True)
class SimpleInequality:
    pass


@dataclass(frozen=True)
class SeqExistsDiff:
    pass


@dataclass(frozen=True)
class CommutativeCanonical:
    # None means every atom pair commutes; otherwise only the listed
    # (unordered) pairs may swap.
    constraints: Optional[frozenset[tuple[str, str]]] = None

    @staticmethod
    def of(*pairs: tuple[str, str]) -> "CommutativeCanonical":
        return CommutativeCanonical(frozenset(tuple(sorted(p)) for p in pairs))


@dataclass(frozen=True)
class ExplicitTable:
    pairs: frozenset[tuple[AspectPath, AspectPath]]


DisjointnessSpec = SimpleInequality | SeqExistsDiff | CommutativeCanonical | ExplicitTable


def elem_disjoint(e1: AspectElem, e2: AspectElem) -> bool:
    """Whether two path elements touch no common component. Symmetric."""
    if isinstance(e1, AspectAtom) and isinstance(e2, AspectAtom):
        return e1.name != e2.name
    s1 = _members(e1)
    s2 = _members(e2)
    return not (s1 & s2)


def _members(e: AspectElem) -> frozenset[AspectAtom]:
    if isinstance(e, AspectAtom):
        return frozenset((e,))
    return e.atoms


def d_eval(spec: DisjointnessSpec, alpha: AspectPath, beta: AspectPath) -> bool:
    """Evaluate d(alpha, beta) under the given specification."""
    if isinstance(spec, SimpleInequality):
        if len(alpha) != 1 or len(beta) != 1:
            raise DisjointnessSpecError(
                f"simple inequality needs single-element paths, got {alpha} and {beta}")
        return elem_disjoint(alpha[0], beta[0])
    if isinstance(spec, SeqExistsDiff):
        return _exists_diff(alpha.elems, beta.elems)
    if isinstance(spec, CommutativeCanonical):
        # Equal canonical forms differ at no position, since no element is
        # disjoint from itself: d is `_exists_diff` of the canonical forms.
        return _exists_diff(canonicalize(alpha, spec.constraints).elems,
                            canonicalize(beta, spec.constraints).elems)
    if isinstance(spec, ExplicitTable):
        return (alpha, beta) in spec.pairs
    raise DisjointnessSpecError(f"unknown disjointness spec {spec!r}")


def _exists_diff(alpha: tuple[AspectElem, ...], beta: tuple[AspectElem, ...]) -> bool:
    """Whether some shared position of two element tuples holds disjoint
    elements: d under SeqExistsDiff, read on the paths' elements."""
    return any(elem_disjoint(a, b) for a, b in zip(alpha, beta))


def canonicalize(alpha: AspectPath, constraints: Optional[frozenset[tuple[str, str]]]) -> AspectPath:
    """Least reordering of alpha reachable by swapping adjacent commuting pairs.

    Two atoms commute when their (sorted) name pair is in `constraints`;
    constraints=None means all atom pairs commute, which reduces to sorting.
    Set elements commute with nothing, so under partial constraints they act
    as barriers (under None they are an error).

    This is the lexicographic normal form of the Mazurkiewicz trace of alpha
    (Anisimov & Knuth, "Inhomogeneous sorting", 1979; Diekert & Rozenberg,
    The Book of Traces, 1995), built greedily: each step takes the least
    element, by `elem_sort_key`, among those that commute with every element
    still before it. That is O(len**3) commutation tests at worst, where a
    search over the reorderings visits up to len! of them.
    """
    if constraints is None and not alpha.is_atomic():
        raise DisjointnessSpecError(
            f"path {alpha} has set elements; full commutativity applies to atoms only")
    if len(alpha) < 2:
        return alpha
    rest = [(elem_sort_key(e), e) for e in alpha.elems]
    out = []
    while rest:
        best, least = 0, rest[0][0]
        for i in range(1, len(rest)):
            key, e = rest[i]
            if key < least and all(_commute(x, e, constraints) for _, x in rest[:i]):
                best, least = i, key
        out.append(rest.pop(best)[1])
    return AspectPath(tuple(out))


def _commute(a: AspectElem, b: AspectElem,
             constraints: Optional[frozenset[tuple[str, str]]]) -> bool:
    if not (isinstance(a, AspectAtom) and isinstance(b, AspectAtom)):
        return False
    x, y = a.name, b.name
    return constraints is None or ((x, y) if x < y else (y, x)) in constraints


@dataclass(frozen=True)
class MonotonicityViolation:
    property: str  # "extend-fluent-path" or "extend-action-path"
    alpha: AspectPath
    beta: AspectPath
    suffix: tuple

    def __str__(self) -> str:
        return (f"{self.property}: d({self.alpha},{self.beta}) holds but fails "
                f"after extending with {AspectPath(self.suffix)}")


@dataclass(frozen=True)
class MonotonicityReport:
    checked: int
    violations: tuple[MonotonicityViolation, ...]


def check_monotonicity(
    spec: DisjointnessSpec,
    samples: Iterable[tuple[AspectPath, AspectPath]],
    max_extension: int = 2,
) -> MonotonicityReport:
    """Check that extending either path preserves established disjointness.

    Under SeqExistsDiff appending to either path keeps every shared
    position (zip truncates), so a d that holds still holds: no extension
    is evaluated, and checked counts the two extensions per suffix that this
    prefix argument covers. Under CommutativeCanonical only the fluent path
    is extended, because canonical reordering can break d, and checked
    counts one extension per suffix. d there is `_exists_diff` of the two
    canonical forms, so it reads an extension only up to the action path's
    length: the extensions of a fluent path are grouped by that prefix, and
    d is evaluated once per distinct prefix. An atom that commutes with
    nothing (a barrier) keeps its place, so an extension is canonicalized
    only up to its suffix's first barrier, and each distinct path at most
    once. Violations are reported with the offending suffix, in suffix order.
    """
    if not isinstance(spec, (SeqExistsDiff, CommutativeCanonical)):
        raise DisjointnessSpecError(
            f"monotonicity check applies to sequential specs, not {type(spec).__name__}")
    samples = list(samples)
    suffixes = list(_suffixes(sorted(_sample_atoms(samples)), max_extension))
    if isinstance(spec, SeqExistsDiff):
        held = sum(1 for alpha, beta in samples if d_eval(spec, alpha, beta))
        return MonotonicityReport(checked=2 * len(suffixes) * held, violations=())
    constraints = spec.constraints
    movable = None if constraints is None else {x for pair in constraints for x in pair}
    canonical: dict[AspectPath, tuple[AspectElem, ...]] = {}

    def canon(p: AspectPath) -> tuple[AspectElem, ...]:
        c = canonical.get(p)
        if c is None:
            c = canonical[p] = canonicalize(p, constraints).elems
        return c

    def split(suffix: tuple) -> tuple[tuple, tuple]:
        """The suffix up to its first barrier, and the canonical rest."""
        for k, atom in enumerate(suffix):
            if movable is not None and atom.name not in movable:
                return suffix[:k], (atom,) + canon(AspectPath(suffix[k + 1:]))
        return suffix, ()

    splits = [split(suffix) for suffix in suffixes]
    heads = dict.fromkeys(head for head, _ in splits)
    groups: dict[tuple[AspectPath, int], list] = {}  # (alpha, n) -> [(prefix, suffix indices)]
    checked = 0
    violations = []
    for alpha, beta in samples:
        cb = canon(beta)
        if not _exists_diff(canon(alpha), cb):
            continue
        checked += len(suffixes)
        n = len(cb)
        if (alpha, n) not in groups:
            canon_head = {head: canon(alpha.append(*head)) for head in heads}
            by_prefix: dict[tuple, list[int]] = {}
            for i, (head, tail) in enumerate(splits):
                by_prefix.setdefault((canon_head[head] + tail)[:n], []).append(i)
            groups[alpha, n] = list(by_prefix.items())
        bad = sorted(i for prefix, members in groups[alpha, n]
                     if not _exists_diff(prefix, cb) for i in members)
        violations += [MonotonicityViolation("extend-fluent-path", alpha, beta, suffixes[i])
                       for i in bad]
    return MonotonicityReport(checked=checked, violations=tuple(violations))


def _sample_atoms(samples) -> set[AspectAtom]:
    atoms: set[AspectAtom] = set()
    for alpha, beta in samples:
        for p in (alpha, beta):
            for e in p:
                atoms |= _members(e)
    return atoms


def _suffixes(atoms: list[AspectAtom], max_len: int):
    """Every tuple of 1..max_len atoms, shorter first, first position slowest."""
    for k in range(1, max_len + 1):
        yield from itertools.product(atoms, repeat=k)
