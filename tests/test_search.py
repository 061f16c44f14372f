"""Bounded counterexample search and the commutativity trap."""

from __future__ import annotations

import random

import pytest

import sitaspect.search
from sitaspect.disjoint import CommutativeCanonical, d_eval
from sitaspect.finite import compose_rows
from sitaspect.search import (
    _exhaustive_level,
    _random_commuting_partner,
    build_pitfall_witness,
    reproduce_commutative_pitfall,
    search_counterexample,
)
from sitaspect.terms import path
from sitaspect.validator import (
    FORMALISMS,
    _defined,
    check_commutativity,
    check_premises,
    is_functional,
    is_universal,
    verify_theorem,
)
from tests.conftest import record_calls


@pytest.mark.parametrize("formalism", FORMALISMS)
def test_exhaustive_small_search_finds_nothing(formalism):
    result = search_counterexample(formalism, max_situations=2, seed=0,
                                   random_samples=200)
    assert result.counterexample is None
    assert result.exhaustive_premise_models > 0
    assert result.exhaustive_models > 0


def test_exhaustive_level_three_relational():
    result = search_counterexample("rel-exists", max_situations=3, seed=0)
    assert result.counterexample is None
    assert result.exhaustive_models > 4000


def test_exhaustive_level_three_functional():
    result = search_counterexample("fun", max_situations=3, seed=0)
    assert result.counterexample is None


def test_random_search_is_seeded_and_reproducible():
    r1 = search_counterexample("seq-rel-exists", max_situations=2, seed=42,
                               random_samples=500)
    r2 = search_counterexample("seq-rel-exists", max_situations=2, seed=42,
                               random_samples=500)
    assert r1.random_premise_models == r2.random_premise_models
    assert r1.random_premise_models > 0


def test_search_fast_path_agrees_with_reference_checker():
    # The inline premise/conclusion logic of the exhaustive layer must match
    # verify_theorem on the materialized model, structure by structure.
    import itertools

    from sitaspect.search import _materialize
    from sitaspect.validator import is_functional, is_universal

    n = 2
    for formalism in ("rel-exists", "rel-forall", "fun", "seq-fun", "modal-box",
                      "modal-diamond", "coll-rel-exists", "coll-fun",
                      "seq-rel-exists"):
        universal = is_universal(formalism)
        if is_functional(formalism):
            structures = ([1 << t for t in vec]
                          for vec in itertools.product(range(n), repeat=n))
        else:
            structures = (list(rows)
                          for rows in itertools.product(range(1 << n), repeat=n))
        for rows in structures:
            definable = set()
            for q in range(1 << n):
                holds = [(rows[s] & ~q) == 0 if universal else (rows[s] & q) != 0
                         for s in range(n)]
                definable.add(sum(1 << s for s in range(n) if holds[s]))
            for act in itertools.product(range(n), repeat=n):
                stable = all(rows[s] == rows[act[s]] for s in range(n))
                for val in range(1 << n):
                    premises = stable and val in definable
                    conclusion = all((val >> s & 1) == (val >> act[s] & 1)
                                     for s in range(n))
                    model = _materialize(formalism, n, rows, list(act), val)
                    verdict = verify_theorem(formalism, model)
                    if not premises:
                        assert verdict.verdict == "vacuous"
                    elif conclusion:
                        assert verdict.verdict == "pass"
                    else:
                        assert verdict.verdict == "counterexample"


# -- the enumerators against the loops they replaced --------------------------

def _all_relation_rows(n):
    """Every relation on n situations as rows, the first row slowest."""
    if n == 0:
        return
    masks = range(1 << n)
    stack = [[]]
    for _ in range(n):
        stack = [rows + [m] for rows in stack for m in masks]
    for rows in stack:
        yield rows


def _all_vecs(n):
    """Every map of n situations into themselves, the first slowest."""
    stack = [[]]
    for _ in range(n):
        stack = [v + [t] for v in stack for t in range(n)]
    for v in stack:
        yield v


def _reference_exhaustive_level(formalism, n):
    """One exhaustive level over the hand-rolled products; `_defined` and
    `_materialize` are read from the search module, as it reads them."""
    universal = is_universal(formalism)
    checked = 0
    premise_models = 0
    if is_functional(formalism):
        structures = ([1 << t for t in vec] for vec in _all_vecs(n))
    else:
        structures = _all_relation_rows(n)
    for rows in structures:
        definable = {sitaspect.search._defined(rows, q, universal) for q in range(1 << n)}
        for act in _all_vecs(n):
            if any(rows[s] != rows[act[s]] for s in range(n)):
                checked += 1 << n
                continue
            for val in range(1 << n):
                checked += 1
                if val not in definable:
                    continue
                premise_models += 1
                if any((val >> s & 1) != (val >> act[s] & 1) for s in range(n)):
                    model = sitaspect.search._materialize(formalism, n, rows, act, val)
                    return model, checked, premise_models
    return None, checked, premise_models


@pytest.mark.parametrize("planted", [False, True], ids=["sound", "planted"])
@pytest.mark.parametrize("formalism", FORMALISMS)
def test_exhaustive_level_matches_the_hand_rolled_products(monkeypatch, formalism, planted):
    if planted:
        # Every valuation definable: the first structure whose action moves a
        # valuation is a counterexample, so the enumeration order shows.
        monkeypatch.setattr(sitaspect.search, "_defined", lambda rows, q, universal: q)
    # At four situations the relational reference takes tens of seconds, so
    # it runs where it is cheap: on functions, and when planted, where it
    # stops at the first counterexample.
    sizes = (1, 2, 3, 4) if planted or is_functional(formalism) else (1, 2, 3)
    for n in sizes:
        got = _exhaustive_level(formalism, n)
        assert got == _reference_exhaustive_level(formalism, n), n
        assert (got[0] is not None) == (planted and n > 1)


# The totals the map-by-map loop gave over 1..4 situations, before a
# structure no definable valuation cuts was counted in closed form (and
# before that form was taken once per row multiset).
@pytest.mark.parametrize("formalism, models, premise_models", [
    ("rel-exists", 268_546_308, 814_762),
    ("rel-forall", 268_546_308, 814_762),
    ("coll-rel-exists", 268_546_308, 814_762),
    ("modal-diamond", 268_546_308, 814_762),
    ("fun", 1_054_474, 15_052),
    ("seq-fun", 1_054_474, 15_052),
])
def test_four_situation_totals_are_those_of_the_full_loop(formalism, models,
                                                          premise_models):
    result = search_counterexample(formalism, max_situations=4, seed=0)
    assert result.counterexample is None
    assert result.exhaustive_models == models
    assert result.exhaustive_premise_models == premise_models


def test_permuting_the_rows_permutes_what_a_predicate_defines():
    # The invariant `_exhaustive_level` counts each row multiset once by:
    # `_defined` reads situation s only through rows[s].
    pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    from tests.domains import examples

    def structures(n):
        return st.tuples(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
                         st.permutations(range(n)), st.integers(0, (1 << n) - 1))

    @examples(300, st.integers(1, 6).flatmap(structures), st.booleans())
    def check(structure, universal):
        rows, perm, q = structure
        defined = _defined(rows, q, universal)
        moved = _defined([rows[t] for t in perm], q, universal)
        assert moved == sum((defined >> t & 1) << s for s, t in enumerate(perm))

    check()


def _reference_trap_violations(n, r0, r1):
    """The naive-trap count, zero for a pair that does not commute."""
    if compose_rows(r0, r1) != compose_rows(r1, r0):
        return 0
    r00 = compose_rows(r0, r0)
    r10 = compose_rows(r1, r0)
    r11 = compose_rows(r1, r1)
    r01 = compose_rows(r0, r1)
    classes = {}
    for s in range(n):
        classes.setdefault((r00[s], r10[s], r11[s]), set()).add(r01[s])
    return sum(1 for rows01 in classes.values() if len(rows01) > 1)


def _reference_first_half(seed, exhaustive_max, nf, random_samples):
    """(pairs_checked, commuting_pairs, violations, commuting pairs in
    order) by three loops: relation pairs, function pairs, random partners."""
    pairs = commuting = violations = 0
    seen = []

    def tally(n, r0, r1, commutes):
        nonlocal pairs, commuting, violations
        pairs += 1
        violations += _reference_trap_violations(n, r0, r1)
        if commutes:
            commuting += 1
            seen.append((n, tuple(r0), tuple(r1)))

    for n in range(1, exhaustive_max + 1):
        all_rows = list(_all_relation_rows(n))
        for r0 in all_rows:
            for r1 in all_rows:
                tally(n, r0, r1, compose_rows(r0, r1) == compose_rows(r1, r0))
    for f0 in _all_vecs(nf):
        r0 = [1 << t for t in f0]
        for f1 in _all_vecs(nf):
            r1 = [1 << t for t in f1]
            tally(nf, r0, r1, compose_rows(r0, r1) == compose_rows(r1, r0))
    rng = random.Random(seed)
    for _ in range(random_samples):
        r0 = [rng.randrange(1 << nf) for _ in range(nf)]
        tally(nf, r0, _random_commuting_partner(rng, r0, nf), True)
    return pairs, commuting, violations, seen


@pytest.mark.parametrize("seed, exhaustive_max, nf, random_samples", [
    (0, 1, 1, 0), (1, 2, 3, 500), (7, 3, 2, 40), (3, 1, 4, 25), (11, 2, 2, 300)])
def test_pitfall_tally_matches_the_three_loops(monkeypatch, seed, exhaustive_max,
                                               nf, random_samples):
    calls = record_calls(monkeypatch, sitaspect.search, "_commutes")
    passed = record_calls(monkeypatch, sitaspect.search, "_naive_trap_violations",
                          lambda n, r0, r1: (n, tuple(r0), tuple(r1)))
    first = reproduce_commutative_pitfall(seed, exhaustive_max, nf, random_samples).first
    pairs, commuting, violations, seen = _reference_first_half(
        seed, exhaustive_max, nf, random_samples)
    assert (first.pairs_checked, first.commuting_pairs, first.violations) == (
        pairs, commuting, violations)
    # `_commutes` once per pair; the violation count on commuting pairs only.
    assert len(calls) == first.pairs_checked
    assert passed == seen


# -- the commutativity trap ----------------------------------------------------

def test_pitfall_witness_model_is_well_formed():
    model = build_pitfall_witness()
    model.validate()
    assert check_commutativity(model).holds
    report = check_premises(model, "seq-rel-exists")
    assert report.all_hold, report


def test_pitfall_witness_action_changes_diagonal_fluent():
    model = build_pitfall_witness()
    avec = model.act_vec("flip")
    p01 = model.val_mask("p01")
    changed = any((p01 >> s & 1) != (p01 >> avec[s] & 1)
                  for s in range(len(model.situations)))
    assert changed


def test_pitfall_witness_fails_naive_premises():
    from sitaspect.search import _with_naive_dtable

    naive = _with_naive_dtable(build_pitfall_witness())
    verdict = verify_theorem("seq-rel-exists", naive)
    assert verdict.verdict == "vacuous"


def test_corrected_d_rejects_the_swapped_pair():
    assert d_eval(CommutativeCanonical(), path("0", "1"), path("1", "0")) is False


def test_pitfall_small_run_reproduces_both_halves():
    report = reproduce_commutative_pitfall(seed=1, exhaustive_max=2,
                                           functional_situations=3,
                                           random_samples=500)
    assert report.first.effect_free_everywhere
    assert report.first.commuting_pairs > 0
    assert report.second.premises_hold
    assert report.second.commutativity_holds
    assert report.second.changed_fluent == "p01"
    assert not report.second.naive_premises_hold
    assert report.corrected_d_rejects_swap
    assert report.reproduced
