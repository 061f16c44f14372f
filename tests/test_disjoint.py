"""The non-interference predicate under its four specification styles."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from sitaspect import disjoint
from sitaspect.disjoint import (
    CommutativeCanonical,
    ExplicitTable,
    MonotonicityViolation,
    SeqExistsDiff,
    SimpleInequality,
    canonicalize,
    check_monotonicity,
    d_eval,
    elem_disjoint,
)
from sitaspect.errors import DisjointnessSpecError
from sitaspect.terms import AspectAtom, AspectPath, as_elem, elem_sort_key, path
from tests.conftest import record_calls


def test_elem_disjoint_atom_vs_set():
    # r3 is not one of {r1, r2}, so the action leaves the fluent alone.
    assert elem_disjoint(as_elem("r3"), as_elem({"r1", "r2"})) is True


def test_elem_disjoint_overlapping_sets():
    assert elem_disjoint(as_elem({"p1", "p2"}), as_elem({"p2", "p3"})) is False


def test_elem_disjoint_reflexive_and_symmetric():
    elems = [as_elem("x"), as_elem({"x", "y"}), as_elem({"z"})]
    for e in elems:
        assert elem_disjoint(e, e) is False
    for e1 in elems:
        for e2 in elems:
            assert elem_disjoint(e1, e2) == elem_disjoint(e2, e1)


def test_seq_exists_diff_binary_tree():
    # Fluent in the left part of the right subtree vs an action on the
    # right-right subtree: disjoint. Deeper inside the action's subtree: not.
    spec = SeqExistsDiff()
    assert d_eval(spec, path("0", "1", "0"), path("1", "1")) is True
    assert d_eval(spec, path("1", "1", "0"), path("1", "1")) is False


def test_prefix_paths_are_not_disjoint():
    spec = SeqExistsDiff()
    assert d_eval(spec, path("1", "1"), path("1", "1", "0")) is False
    assert d_eval(spec, path(), path("1", "1")) is False


def test_seq_exists_diff_set_positions():
    spec = SeqExistsDiff()
    assert d_eval(spec,
                  path("computer", "display", {"p1"}),
                  path("computer", "memory", {"m1"})) is True
    assert d_eval(spec,
                  path("computer", "display", {"p1"}),
                  path("computer", "display", {"p1", "p2"})) is False


def test_simple_inequality_requires_single_elements():
    spec = SimpleInequality()
    assert d_eval(spec, path("r1"), path("r2")) is True
    with pytest.raises(DisjointnessSpecError):
        d_eval(spec, path("r1", "r2"), path("r2"))


def test_commutative_rejects_swapped_pair():
    assert d_eval(CommutativeCanonical(), path("0", "1"), path("1", "0")) is False


def test_commutative_still_separates_distinct_cells():
    spec = CommutativeCanonical()
    assert d_eval(spec, path("0", "1"), path("1", "1")) is True
    assert d_eval(spec, path("0", "0"), path("0", "1")) is True


def test_explicit_table_is_directed():
    table = ExplicitTable(frozenset({(path("r4"), path("r1"))}))
    assert d_eval(table, path("r4"), path("r1")) is True
    assert d_eval(table, path("r1"), path("r4")) is False


def test_d_eval_irreflexive():
    for spec in (SeqExistsDiff(), CommutativeCanonical()):
        for elems in itertools.product("01", repeat=3):
            p = path(*elems)
            assert d_eval(spec, p, p) is False


def test_seq_exists_diff_symmetric():
    spec = SeqExistsDiff()
    paths = [path(*e) for n in range(0, 3)
             for e in itertools.product("01", repeat=n)]
    for p1 in paths:
        for p2 in paths:
            assert d_eval(spec, p1, p2) == d_eval(spec, p2, p1)


# -- canonicalization -------------------------------------------------------

def _bfs_least_reordering(elems, constraints):
    """Independent oracle: breadth-first search over adjacent swaps of
    commuting atom pairs, returning the lexicographically least sequence.
    Set elements swap with nothing."""
    def key(seq):
        return tuple(elem_sort_key(e) for e in seq)

    seen = {elems}
    queue = deque([elems])
    best = elems
    while queue:
        cur = queue.popleft()
        if key(cur) < key(best):
            best = cur
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if not (isinstance(a, AspectAtom) and isinstance(b, AspectAtom)):
                continue
            pair = tuple(sorted((a.name, b.name)))
            if constraints is not None and pair not in constraints:
                continue
            nxt = cur[:i] + (b, a) + cur[i + 2:]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return best


def test_canonicalize_sorts_under_full_commutativity():
    assert canonicalize(path("1", "0"), None) == path("0", "1")
    assert canonicalize(path("0", "1"), None) == path("0", "1")


def test_canonicalize_partial_constraints_frozen_case():
    constraints = frozenset({("a", "b")})
    got = canonicalize(path("b", "a", "c"), constraints)
    assert got == path("a", "b", "c")
    oracle = _bfs_least_reordering(tuple(AspectAtom(x) for x in "bac"),
                                   constraints)
    assert got == path(*[a.name for a in oracle])


def test_canonicalize_matches_bfs_oracle_exhaustively():
    constraints = frozenset({("a", "b"), ("b", "c")})
    for perm in itertools.permutations("abcd", 4):
        p = path(*perm)
        got = canonicalize(p, constraints)
        oracle = _bfs_least_reordering(tuple(AspectAtom(x) for x in perm),
                                       constraints)
        assert got.elems == oracle
    # Every path up to length 5 over three atoms and a set element, so with
    # repeated atoms and set barriers, under every set of commuting pairs
    # of those atoms (self pairs such as ("a", "a") included) and under
    # full commutativity.
    elems = [as_elem(e) for e in ("a", "b", "c", {"a", "b"})]
    pairs = list(itertools.combinations_with_replacement("abc", 2))
    constraint_sets = [frozenset(c) for n in range(len(pairs) + 1)
                       for c in itertools.combinations(pairs, n)] + [None]
    seqs = [seq for n in range(6) for seq in itertools.product(elems, repeat=n)]
    for constraints in constraint_sets:
        for seq in seqs:
            p = AspectPath(seq)
            if constraints is None and not p.is_atomic():
                with pytest.raises(DisjointnessSpecError):
                    canonicalize(p, constraints)
                continue
            assert canonicalize(p, constraints).elems == \
                _bfs_least_reordering(seq, constraints), (p, constraints)
    # Seeded random constraint sets over four atoms, on longer random paths.
    rng = random.Random(1979)
    elems = [as_elem(e) for e in ("a", "b", "c", "d", {"a", "b"}, {"c", "d"})]
    pairs = list(itertools.combinations_with_replacement("abcd", 2))
    for _ in range(40):
        constraints = frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))
        for _ in range(50):
            seq = tuple(rng.choices(elems, k=rng.randint(0, 7)))
            assert canonicalize(AspectPath(seq), constraints).elems == \
                _bfs_least_reordering(seq, constraints), (seq, constraints)


def test_canonicalize_idempotent_and_preserves_multiset():
    for perm in itertools.permutations("abc"):
        p = path(*perm)
        c = canonicalize(p, None)
        assert canonicalize(c, None) == c
        assert sorted(e.name for e in c) == sorted(perm)


def test_canonicalize_set_elem_under_all_is_an_error():
    with pytest.raises(DisjointnessSpecError):
        canonicalize(path("a", {"b", "c"}), None)


def test_canonicalize_sets_are_barriers_under_partial_constraints():
    constraints = frozenset({("a", "b")})
    p = path("b", {"x"}, "a")
    assert canonicalize(p, constraints) == p


# -- monotonicity -----------------------------------------------------------

def test_monotonicity_single_extension_stays_disjoint():
    report = check_monotonicity(SeqExistsDiff(), [(path("0"), path("1"))],
                                max_extension=1)
    assert not report.violations
    assert report.checked > 0


def test_monotonicity_exhaustive_binary_paths():
    paths = [path(*e) for n in range(1, 4)
             for e in itertools.product("01", repeat=n)]
    samples = [(p1, p2) for p1 in paths for p2 in paths]
    report = check_monotonicity(SeqExistsDiff(), samples, max_extension=2)
    assert not report.violations


def test_monotonicity_rejects_table_specs():
    table = ExplicitTable(frozenset())
    with pytest.raises(DisjointnessSpecError):
        check_monotonicity(table, [])


def test_monotonicity_commutative_reports_fluent_extension_loss():
    # Extending (1) with 0 canonicalizes to (0,1), which no longer differs
    # from (0) at any position: the commutative spec is not monotone, and
    # the report must say so rather than hide it.
    report = check_monotonicity(CommutativeCanonical(),
                                [(path("1"), path("0"))], max_extension=1)
    assert report.violations
    assert all(v.property == "extend-fluent-path" for v in report.violations)


def _reference_monotonicity(spec, samples, max_extension):
    """The loop the prefix argument replaced under SeqExistsDiff: every
    extension of the fluent path, and under SeqExistsDiff of the action
    path, is evaluated."""
    atoms = sorted({a for pair in samples for p in pair for e in p
                    for a in ((e,) if isinstance(e, AspectAtom) else e.atoms)})
    suffixes = [suffix for n in range(1, max_extension + 1)
                for suffix in itertools.product(atoms, repeat=n)]
    checked = 0
    violations = []
    for alpha, beta in samples:
        if not d_eval(spec, alpha, beta):
            continue
        for suffix in suffixes:
            checked += 1
            if not d_eval(spec, alpha.append(*suffix), beta):
                violations.append(MonotonicityViolation(
                    "extend-fluent-path", alpha, beta, suffix))
            if isinstance(spec, SeqExistsDiff):
                checked += 1
                if not d_eval(spec, alpha, beta.append(*suffix)):
                    violations.append(MonotonicityViolation(
                        "extend-action-path", alpha, beta, suffix))
    return checked, tuple(violations)


@pytest.mark.parametrize("max_extension", [1, 2])
@pytest.mark.parametrize("spec", [SeqExistsDiff(), CommutativeCanonical.of(("a", "b"))],
                         ids=["seq-diff", "commutative"])
def test_monotonicity_matches_the_extension_loop(spec, max_extension, monkeypatch):
    rng = random.Random(max_extension)
    elems = ["a", "b", "c", {"a", "b"}, {"b", "c"}, {"a", "c"}]
    calls = record_calls(monkeypatch, disjoint, "d_eval")
    held = violated = 0
    for _ in range(150):
        samples = [tuple(path(*rng.choices(elems, k=rng.randint(1, 3))) for _ in "ab")
                   for _ in range(rng.randint(0, 6))]
        calls.clear()
        report = check_monotonicity(spec, samples, max_extension=max_extension)
        assert (report.checked, report.violations) == \
            _reference_monotonicity(spec, samples, max_extension)
        if isinstance(spec, SeqExistsDiff):
            # One d per sample: the extensions are covered by the proof.
            assert len(calls) == len(samples)
        held += report.checked > 0
        violated += bool(report.violations)
    assert held > 50
    assert violated > 0 if isinstance(spec, CommutativeCanonical) else violated == 0


def test_commutative_monotonicity_canonicalizes_each_path_once(monkeypatch):
    spec = CommutativeCanonical.of(("a", "b"), ("b", "c"))
    alphas = [path("a"), path("b", "c"), path({"a", "c"}), path("c", "a")]
    betas = [path("c"), path("a", "b"), path("b"), path("c", "a")]
    samples = [(alpha, beta) for alpha in alphas for beta in betas] * 2
    expected = _reference_monotonicity(spec, samples, 2)
    held = {alpha for alpha, beta in samples if d_eval(spec, alpha, beta)}
    calls = record_calls(monkeypatch, disjoint, "canonicalize", lambda p, constraints: p)
    report = check_monotonicity(spec, samples, max_extension=2)
    assert (report.checked, report.violations) == expected
    assert report.checked > 0 and report.violations
    assert len(calls) == len(set(calls))
    # Every sampled path, and every extension of a fluent path for which
    # d holds with some action path.
    suffixes = [s for n in (1, 2) for s in itertools.product(
        [AspectAtom(x) for x in "abc"], repeat=n)]
    assert set(calls) == set(alphas) | set(betas) | {
        alpha.append(*s) for alpha in held for s in suffixes}


def test_commutative_monotonicity_leaves_barriers_in_place(monkeypatch):
    # c is in no pair, so it commutes with nothing: an extension is
    # canonicalized only up to its suffix's first c, and what follows that
    # c is canonicalized on its own.
    spec = CommutativeCanonical.of(("a", "b"))
    alpha, beta = path("b", "c"), path("a")
    expected = _reference_monotonicity(spec, [(alpha, beta)], 2)
    calls = record_calls(monkeypatch, disjoint, "canonicalize", lambda p, constraints: p)
    report = check_monotonicity(spec, [(alpha, beta)], max_extension=2)
    assert (report.checked, report.violations) == expected
    assert report.checked == 12
    assert len(calls) == len(set(calls))
    heads = [s for n in (1, 2) for s in itertools.product("ab", repeat=n)]
    assert set(calls) == {alpha, beta} | {alpha.append(*h) for h in heads} | {
        path(), path("a"), path("b"), path("c")}
    # What follows the barrier is canonicalized too: (a,c,b,a) takes (b) to
    # (a,b,c,a,b), which differs from the action path at no position. A
    # suffix needs four atoms for this, since one before the barrier must
    # move into the fluent path and two after it must swap.
    alpha, beta = path("b"), path("a", "b", "c", "a", "b")
    report = check_monotonicity(spec, [(alpha, beta)], max_extension=4)
    assert (report.checked, report.violations) == \
        _reference_monotonicity(spec, [(alpha, beta)], 4)
    assert MonotonicityViolation("extend-fluent-path", alpha, beta,
                                 tuple(AspectAtom(x) for x in "acba")) in report.violations


_COMMUTATIVE_SPECS = {
    "all": CommutativeCanonical(),
    # c and d commute with nothing.
    "one-pair": CommutativeCanonical.of(("a", "b")),
    # c moves only by its self pair, and d commutes with nothing.
    "self-pair": CommutativeCanonical.of(("a", "b"), ("c", "c")),
}


@pytest.mark.parametrize("max_extension", [1, 2, 3])
@pytest.mark.parametrize("name", list(_COMMUTATIVE_SPECS))
def test_commutative_monotonicity_matches_the_extension_loop(name, max_extension):
    spec = _COMMUTATIVE_SPECS[name]
    rng = random.Random(f"{name}/{max_extension}")
    elems = ["a", "b", "c", "d"]
    if spec.constraints is not None:
        elems += [{"a", "b"}, {"c", "d"}]  # barriers inside paths
    longer = shorter = repeated = violated = 0
    for _ in range(120):
        # Samples drawn from a small pool of paths, so that fluent paths,
        # action paths and whole samples repeat.
        pool = [path(*rng.choices(elems, k=rng.choice((1, 1, 2, 3)))) for _ in range(4)]
        samples = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 6))]
        report = check_monotonicity(spec, samples, max_extension=max_extension)
        assert (report.checked, report.violations) == \
            _reference_monotonicity(spec, samples, max_extension)
        held = [(a, b) for a, b in samples if d_eval(spec, a, b)]
        longer += any(len(b) > len(a) for a, b in held)
        shorter += any(len(b) < len(a) for a, b in held)
        repeated += len(set(held)) < len(held)
        violated += bool(report.violations)
    assert min(longer, shorter, repeated, violated) > 0


def test_barrier_atoms_split_the_canonical_form():
    # An atom in no pair, or a set element, commutes with nothing, so the
    # least reordering of w1 + b + w2 keeps b in place: it is the least
    # reordering of w1, then b, then the least reordering of w2.
    elems = [as_elem(e) for e in ("a", "b", "c", {"a", "b"})]
    pairs = list(itertools.combinations_with_replacement("abc", 2))
    seqs = [seq for n in range(1, 5) for seq in itertools.product(elems, repeat=n)]
    barriers_seen = set()
    for constraints in (frozenset(c) for n in range(len(pairs) + 1)
                        for c in itertools.combinations(pairs, n)):
        movable = {x for pair in constraints for x in pair}
        for seq in seqs:
            barriers = [k for k, e in enumerate(seq)
                        if not isinstance(e, AspectAtom) or e.name not in movable]
            if not barriers:
                continue
            least = _bfs_least_reordering(seq, constraints)
            for k in barriers:
                assert least == canonicalize(AspectPath(seq[:k]), constraints).elems \
                    + (seq[k],) + canonicalize(AspectPath(seq[k + 1:]), constraints).elems, \
                    (seq, k, constraints)
                barriers_seen.add(seq[k])
    assert barriers_seen == set(elems)


def _frontier_suffixes(atoms, max_len):
    """Suffixes of 1..max_len atoms by extending a frontier, shorter first."""
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (a,) for s in frontier for a in atoms]
        yield from frontier


@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_suffixes_match_the_frontier_loop(max_len):
    for k in range(4):
        atoms = [AspectAtom(f"a{i}") for i in range(k)]
        assert list(disjoint._suffixes(atoms, max_len)) == \
            list(_frontier_suffixes(atoms, max_len))
