"""Bounded counterexample search and the commutativity trap."""

from __future__ import annotations

import pytest

from sitaspect.disjoint import CommutativeCanonical, d_eval
from sitaspect.search import (
    build_pitfall_witness,
    reproduce_commutative_pitfall,
    search_counterexample,
)
from sitaspect.terms import path
from sitaspect.validator import FORMALISMS, check_commutativity, check_premises, verify_theorem


@pytest.mark.parametrize("formalism", FORMALISMS)
def test_exhaustive_small_search_finds_nothing(formalism):
    result = search_counterexample(formalism, max_situations=2, seed=0,
                                   random_samples=200)
    assert result.clean
    assert result.exhaustive_premise_models > 0
    assert result.exhaustive_models > 0


def test_exhaustive_level_three_relational():
    result = search_counterexample("rel-exists", max_situations=3, seed=0)
    assert result.clean
    assert result.exhaustive_models > 4000


def test_exhaustive_level_three_functional():
    result = search_counterexample("fun", max_situations=3, seed=0)
    assert result.clean


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


# -- the commutativity trap ----------------------------------------------------

def test_pitfall_witness_model_is_well_formed():
    model = build_pitfall_witness()
    model.validate()
    assert check_commutativity(model).holds
    report = check_premises(model, "seq-rel-exists")
    assert report.all_hold, report.violated()


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
