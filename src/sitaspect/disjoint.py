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

from collections import deque
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
        return _exists_diff(alpha, beta)
    if isinstance(spec, CommutativeCanonical):
        ca = canonicalize(alpha, spec.constraints)
        cb = canonicalize(beta, spec.constraints)
        if ca == cb:
            return False
        return _exists_diff(ca, cb)
    if isinstance(spec, ExplicitTable):
        return (alpha, beta) in spec.pairs
    raise DisjointnessSpecError(f"unknown disjointness spec {spec!r}")


def _exists_diff(alpha: AspectPath, beta: AspectPath) -> bool:
    return any(elem_disjoint(a, b) for a, b in zip(alpha, beta))


def canonicalize(alpha: AspectPath, constraints: Optional[frozenset[tuple[str, str]]]) -> AspectPath:
    """Least reordering of alpha reachable by swapping adjacent commuting pairs.

    constraints=None means all atom pairs commute, which reduces to sorting.
    Set elements never participate in a commuting pair, so under partial
    constraints they act as barriers.
    """
    if constraints is None:
        if not alpha.is_atomic():
            raise DisjointnessSpecError(
                f"path {alpha} has set elements; full commutativity applies to atoms only")
        return AspectPath(tuple(sorted(alpha.elems, key=elem_sort_key)))

    start = alpha.elems
    best = start
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if _seq_key(cur) < _seq_key(best):
            best = cur
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if not (isinstance(a, AspectAtom) and isinstance(b, AspectAtom)):
                continue
            if tuple(sorted((a.name, b.name))) not in constraints:
                continue
            nxt = cur[:i] + (b, a) + cur[i + 2:]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return AspectPath(best)


def _seq_key(elems: tuple[AspectElem, ...]):
    return tuple(elem_sort_key(e) for e in elems)


@dataclass(frozen=True)
class MonotonicityViolation:
    property: str  # "extend-fluent-path" or "extend-action-path"
    alpha: AspectPath
    beta: AspectPath
    suffix: tuple

    def __str__(self) -> str:
        return (f"{self.property}: d({self.alpha},{self.beta}) holds but fails "
                f"after extending with {self.suffix}")


@dataclass(frozen=True)
class MonotonicityReport:
    checked: int
    violations: tuple[MonotonicityViolation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


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
    is extended, and each extension is evaluated, because canonical
    reordering can break d. Violations are reported with the offending
    suffix.
    """
    if not isinstance(spec, (SeqExistsDiff, CommutativeCanonical)):
        raise DisjointnessSpecError(
            f"monotonicity check applies to sequential specs, not {type(spec).__name__}")
    samples = list(samples)
    suffixes = list(_suffixes(sorted(_sample_atoms(samples)), max_extension))
    held = [(alpha, beta) for alpha, beta in samples if d_eval(spec, alpha, beta)]
    if isinstance(spec, SeqExistsDiff):
        return MonotonicityReport(checked=2 * len(suffixes) * len(held), violations=())
    violations = [MonotonicityViolation("extend-fluent-path", alpha, beta, suffix)
                  for alpha, beta in held for suffix in suffixes
                  if not d_eval(spec, alpha.append(*suffix), beta)]
    return MonotonicityReport(checked=len(suffixes) * len(held),
                              violations=tuple(violations))


def _sample_atoms(samples) -> set[AspectAtom]:
    atoms: set[AspectAtom] = set()
    for alpha, beta in samples:
        for p in (alpha, beta):
            for e in p:
                atoms |= _members(e)
    return atoms


def _suffixes(atoms: list[AspectAtom], max_len: int):
    frontier: list[tuple[AspectAtom, ...]] = [()]
    for _ in range(max_len):
        frontier = [s + (a,) for s in frontier for a in atoms]
        yield from frontier
