"""Finite-model checking: modal evaluation, premises, theorems, commutativity."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random

import pytest

import sitaspect.finite
import sitaspect.validator
from sitaspect.cli import main
from sitaspect.dsl import parse_model
from sitaspect.errors import ModelError
from sitaspect.finite import (
    BoxAction,
    BoxAspect,
    Const,
    DiamondAspect,
    FiniteModel,
    FluentAtom,
    Implies,
    compose_rows,
    modal_eval,
)
from sitaspect.terms import AspectPath, path
from sitaspect.validator import (
    FORMALISMS,
    check_commutativity,
    check_noninterference,
    check_premises,
    verify_theorem,
)
from tests.conftest import FIXTURES, load_model, record_calls
from tests.planted import FACTORIZATION, STABILITY, make_model


def _tiny_model() -> FiniteModel:
    return FiniteModel(
        name="tiny",
        situations=("w", "t", "u"),
        aspect_rels={"a": frozenset({("w", "t"), ("w", "u")}),
                     "b": frozenset()},
        action_maps={"go": {"w": "t", "t": "t", "u": "u"}},
        valuations={"p": frozenset({"t"})},
        fluent_aspects={"p": path("a")},
        action_aspects={"go": path("b")},
        d_table=frozenset(),
    )


def test_box_true_is_vacuously_true():
    m = _tiny_model()
    assert modal_eval(m, "u", BoxAspect("a", Const(True))) is True


def test_diamond_finds_a_successor():
    m = _tiny_model()
    assert modal_eval(m, "w", DiamondAspect("a", FluentAtom("p"))) is True
    assert modal_eval(m, "t", DiamondAspect("a", FluentAtom("p"))) is False


def test_box_action_steps_along_the_map():
    m = _tiny_model()
    assert modal_eval(m, "w", BoxAction("go", FluentAtom("p"))) is True


def test_undeclared_names_are_model_errors():
    m = _tiny_model()
    with pytest.raises(ModelError):
        modal_eval(m, "w", FluentAtom("q"))
    with pytest.raises(ModelError):
        modal_eval(m, "w", BoxAspect("zz", Const(True)))
    with pytest.raises(ModelError):
        modal_eval(m, "nowhere", Const(True))


def test_k_rule_holds_by_exhaustive_evaluation():
    # Whenever X -> Y holds at every world, [go]X -> [go]Y does too.
    m = _tiny_model()
    worlds = m.situations
    for xmask in range(8):
        for ymask in range(8):
            x = FluentAtom("x")
            y = FluentAtom("y")
            m2 = FiniteModel(
                name="k", situations=m.situations, aspect_rels=m.aspect_rels,
                action_maps=m.action_maps,
                valuations={"x": frozenset(w for i, w in enumerate(worlds)
                                           if xmask >> i & 1),
                            "y": frozenset(w for i, w in enumerate(worlds)
                                           if ymask >> i & 1)},
                fluent_aspects={}, action_aspects={}, d_table=frozenset())
            if all(modal_eval(m2, w, Implies(x, y)) for w in worlds):
                assert all(modal_eval(m2, w, Implies(BoxAction("go", x),
                                                     BoxAction("go", y)))
                           for w in worlds)


# -- worked models -----------------------------------------------------------

def test_heater_model_passes_rel_exists(heater_model):
    verdict = verify_theorem("rel-exists", heater_model)
    assert verdict.verdict == "pass"


def test_heater_all_model_passes_rel_forall(heater_all_model):
    verdict = verify_theorem("rel-forall", heater_all_model)
    assert verdict.verdict == "pass"


def test_university_passes_collective_variants(university_model):
    for formalism in ("coll-rel-exists", "coll-fun"):
        verdict = verify_theorem(formalism, university_model)
        assert verdict.verdict == "pass", (formalism, verdict.premises)


def test_heater_planted_violation_is_located(heater_model):
    # Redirect the painted building's heater aspect: stability must break
    # with a witness situation in the note.
    broken_rel = dict(heater_model.aspect_rels)
    broken_rel["r4"] = frozenset(
        {("b0", "h_off"), ("b0p", "h_on"), ("b1", "h_on"), ("b1p", "h_on")})
    broken = FiniteModel(
        name="heater-broken", situations=heater_model.situations,
        aspect_rels=broken_rel, action_maps=heater_model.action_maps,
        valuations=heater_model.valuations,
        fluent_aspects=heater_model.fluent_aspects,
        action_aspects=heater_model.action_aspects,
        witnesses=heater_model.witnesses, d_table=heater_model.d_table)
    report = check_premises(broken, "rel-exists")
    bad = [c for c in report.checks if not c.holds]
    assert bad and bad[0].axiom == "component-stability"
    assert "b0" in bad[0].note


# -- planted violations across every formalism --------------------------------

@pytest.mark.parametrize("formalism", FORMALISMS)
def test_base_models_pass(formalism):
    verdict = verify_theorem(formalism, make_model(formalism))
    assert verdict.verdict == "pass", verdict.premises


@pytest.mark.parametrize("formalism", FORMALISMS)
@pytest.mark.parametrize("corruption", [STABILITY, FACTORIZATION])
def test_planted_violations_are_detected(formalism, corruption):
    model = make_model(formalism, corrupt=corruption)
    report = check_premises(model, formalism)
    bad = {c.axiom for c in report.checks if not c.holds}
    expected = ("component-stability" if corruption == STABILITY
                else "fluent-factorization")
    assert expected in bad
    # The other premise axiom stays intact: exactly one axiom is planted.
    other = ("fluent-factorization" if corruption == STABILITY
             else "component-stability")
    assert other not in bad


@pytest.mark.parametrize("formalism", FORMALISMS)
def test_planted_stability_never_passes_theorem(formalism):
    verdict = verify_theorem(formalism, make_model(formalism, corrupt=STABILITY))
    assert verdict.verdict == "vacuous"


# -- noninterference conclusion -----------------------------------------------

def test_noninterference_counterexample_is_located():
    m = make_model("rel-exists")
    # Flip the valuation at one swapped situation: the declared-disjoint
    # pair now changes the fluent.
    broken = FiniteModel(
        name="ni-broken", situations=m.situations, aspect_rels=m.aspect_rels,
        action_maps=m.action_maps, valuations={"p": frozenset({"s0"})},
        fluent_aspects=m.fluent_aspects, action_aspects=m.action_aspects,
        witnesses=m.witnesses, d_table=m.d_table)
    report = check_noninterference(broken)
    assert not report.holds
    assert ("p", "act", "s0") in report.counterexamples


def test_noninterference_vacuous_with_empty_table():
    m = _tiny_model()
    report = check_noninterference(m)
    assert report.holds
    assert report.pairs_checked == 0


def test_noninterference_skips_an_action_without_an_aspect():
    # flip changes p, but with no aspect it is in no declared-disjoint pair.
    m = dataclasses.replace(
        _tiny_model(), d_table=frozenset({(path("a"), path("b"))}),
        action_maps={"go": {"w": "w", "t": "t", "u": "u"},
                     "flip": {"w": "t", "t": "w", "u": "u"}})
    report = check_noninterference(m)
    assert (report.pairs_checked, report.counterexamples) == (1, ())


# -- modal/relational agreement -----------------------------------------------

def _enumerated_model(n, rows, act, val) -> FiniteModel:
    sits = tuple(f"w{i}" for i in range(n))
    rel = frozenset((sits[s], sits[t]) for s in range(n) for t in range(n)
                    if rows[s] >> t & 1)
    return FiniteModel(
        name="enum", situations=sits,
        aspect_rels={"a1": rel, "b1": frozenset()},
        action_maps={"act": {sits[s]: sits[act[s]] for s in range(n)}},
        valuations={"p": frozenset(sits[s] for s in range(n) if val >> s & 1)},
        fluent_aspects={"p": path("a1")},
        action_aspects={"act": path("b1")},
        d_table=frozenset({(path("a1"), path("b1"))}))


def test_modal_premises_agree_with_relational_exhaustively():
    n = 2
    for rows in itertools.product(range(4), repeat=n):
        for act in itertools.product(range(n), repeat=n):
            for val in range(4):
                m = _enumerated_model(n, rows, act, val)
                box = check_premises(m, "modal-box").all_hold
                forall = check_premises(m, "rel-forall").all_hold
                diamond = check_premises(m, "modal-diamond").all_hold
                exists = check_premises(m, "rel-exists").all_hold
                assert box == forall
                assert diamond == exists


def test_modal_premises_agree_with_relational_sampled():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice((3, 4))
        rows = [rng.randrange(1 << n) for _ in range(n)]
        act = [rng.randrange(n) for _ in range(n)]
        val = rng.randrange(1 << n)
        m = _enumerated_model(n, rows, act, val)
        assert (check_premises(m, "modal-box").all_hold
                == check_premises(m, "rel-forall").all_hold)
        assert (check_premises(m, "modal-diamond").all_hold
                == check_premises(m, "rel-exists").all_hold)


def test_sequential_expansion_matches_iterated_modal():
    # The composed relation's successor sets equal the worlds reachable by
    # nested diamond operators over indicator fluents.
    rng = random.Random(5)
    for _ in range(50):
        n = 4
        sits = tuple(f"w{i}" for i in range(n))
        r1 = [rng.randrange(1 << n) for _ in range(n)]
        r2 = [rng.randrange(1 << n) for _ in range(n)]
        rel1 = frozenset((sits[s], sits[t]) for s in range(n)
                         for t in range(n) if r1[s] >> t & 1)
        rel2 = frozenset((sits[s], sits[t]) for s in range(n)
                         for t in range(n) if r2[s] >> t & 1)
        m = FiniteModel(
            name="seq", situations=sits,
            aspect_rels={"a1": rel1, "a2": rel2},
            action_maps={}, valuations={f"at_{w}": frozenset({w}) for w in sits},
            fluent_aspects={}, action_aspects={}, d_table=frozenset())
        composed = m.path_rows(path("a1", "a2"))
        for s in range(n):
            for t in range(n):
                via_rows = bool(composed[s] >> t & 1)
                via_modal = modal_eval(
                    m, sits[s], DiamondAspect("a1", DiamondAspect(
                        "a2", FluentAtom(f"at_{sits[t]}"))))
                assert via_rows == via_modal


# -- commutativity --------------------------------------------------------------

def _mesh_model() -> FiniteModel:
    sits = ("c00", "c01", "c10", "c11")
    return FiniteModel(
        name="mesh", situations=sits,
        aspect_rels={"0": frozenset({("c00", "c10"), ("c01", "c11")}),
                     "1": frozenset({("c00", "c01"), ("c10", "c11")})},
        action_maps={}, valuations={}, fluent_aspects={}, action_aspects={},
        d_table=frozenset())


def _tree_model() -> FiniteModel:
    sits = ("root", "L", "R", "LL", "LR", "RL", "RR")
    return FiniteModel(
        name="tree", situations=sits,
        aspect_rels={"0": frozenset({("root", "L"), ("L", "LL"), ("R", "RL")}),
                     "1": frozenset({("root", "R"), ("L", "LR"), ("R", "RR")})},
        action_maps={}, valuations={}, fluent_aspects={}, action_aspects={},
        d_table=frozenset())


def test_mesh_commutes():
    assert check_commutativity(_mesh_model()).holds


def test_tree_does_not_commute():
    report = check_commutativity(_tree_model())
    assert not report.holds
    assert ("0", "1", "root") in report.violations


def test_single_aspect_commutes_vacuously():
    m = _tiny_model()
    only_a = FiniteModel(
        name="single", situations=m.situations,
        aspect_rels={"a": m.aspect_rels["a"]}, action_maps={}, valuations={},
        fluent_aspects={}, action_aspects={}, d_table=frozenset())
    report = check_commutativity(only_a)
    assert report.holds
    assert report.pairs_checked == 0


def test_compose_rows_is_relation_composition():
    r1 = [0b010, 0b100, 0b000]
    r2 = [0b001, 0b110, 0b011]
    assert compose_rows(r1, r2) == [0b110, 0b011, 0b000]


# -- functional formalisms read total-function relations ----------------------

def _functional_model(**changes) -> FiniteModel:
    fields = dict(
        name="fn", situations=("w", "t"),
        aspect_rels={"a": frozenset({("w", "t"), ("t", "t")}),
                     "b": frozenset({("w", "w"), ("t", "t")})},
        action_maps={"go": {"w": "w", "t": "t"}},
        valuations={"p": frozenset()},
        fluent_aspects={"p": path("a")}, action_aspects={"go": path("b")},
        d_table=frozenset({(path("a"), path("b"))}))
    fields.update(changes)
    return FiniteModel(**fields)


def test_functional_base_model_passes():
    assert verify_theorem("fun", _functional_model()).verdict == "pass"
    assert verify_theorem("seq-fun", _functional_model()).verdict == "pass"


def test_fun_rejects_a_relation_with_two_successors():
    model = _functional_model(aspect_rels={
        "a": frozenset({("w", "t"), ("w", "w"), ("t", "t")}),
        "b": frozenset({("w", "w"), ("t", "t")})})
    with pytest.raises(ModelError) as err:
        check_premises(model, "fun")
    assert str(err.value) == "relation 'a' is not a total function at w"


def test_coll_fun_rejects_an_element_relation_without_successor():
    model = FiniteModel(
        name="coll-fn", situations=("w", "t"),
        collective_rels={"x": frozenset({("w", "w")}),
                         "y": frozenset({("w", "w"), ("t", "t")})},
        action_maps={"go": {"w": "w", "t": "t"}},
        valuations={"p": frozenset()},
        fluent_aspects={"p": AspectPath.of({"x"})},
        action_aspects={"go": AspectPath.of({"y"})})
    with pytest.raises(ModelError) as err:
        verify_theorem("coll-fun", model)
    assert str(err.value) == "element relation 'x' is not a total function at t"


def test_seq_fun_rejects_a_set_element_in_the_path():
    alpha = AspectPath.of("a", {"x"})
    model = _functional_model(d_table=frozenset({(alpha, path("b"))}))
    with pytest.raises(ModelError) as err:
        check_premises(model, "seq-fun")
    assert str(err.value) == f"functional composition needs atom paths, got {alpha}"
    assert str(alpha) == "(a,{x})"


# -- closed-form premises ------------------------------------------------------

def _identity_model(n: int, **changes) -> FiniteModel:
    sits = tuple(f"s{i}" for i in range(n))
    ident = frozenset((s, s) for s in sits)
    fields = dict(
        name="wide", situations=sits, aspect_rels={"a": ident, "b": ident},
        action_maps={"go": {s: s for s in sits}},
        valuations={"p": frozenset()},
        fluent_aspects={"p": path("a")}, action_aspects={"go": path("b")},
        d_table=frozenset({(path("a"), path("b"))}))
    fields.update(changes)
    return FiniteModel(**fields)


@pytest.mark.parametrize("formalism",
                         ["rel-exists", "rel-forall", "modal-box", "modal-diamond"])
@pytest.mark.parametrize("valuation, note", [
    (frozenset(), "witness found by search: {}"),
    (frozenset({"s3", "s12"}), "witness found by search: {s3,s12}"),
], ids=["empty", "two"])
def test_thirteen_situations_get_a_verdict(formalism, valuation, note):
    model = _identity_model(13, valuations={"p": valuation})
    verdict = verify_theorem(formalism, model)
    assert verdict.verdict == "pass"
    [factorization] = [c for c in verdict.premises.checks
                       if c.axiom == "fluent-factorization"]
    assert factorization.holds
    assert factorization.note == note


def _reference_defined(rows: list[int], q: int, universal: bool) -> int:
    n = len(rows)
    out = 0
    for s in range(n):
        succ = {t for t in range(n) if rows[s] >> t & 1}
        chosen = {t for t in range(n) if q >> t & 1}
        if (succ <= chosen) if universal else (succ & chosen):
            out |= 1 << s
    return out


def _reference_first_witness(rows: list[int], val: int, universal: bool):
    """The 2^n scan the closed form replaced: the least q defining val."""
    return next((q for q in range(1 << len(rows))
                 if _reference_defined(rows, q, universal) == val), None)


def test_first_witness_matches_the_scan_on_every_small_case():
    from sitaspect.validator import _first_witness

    for n in range(1, 4):
        for rows in itertools.product(range(1 << n), repeat=n):
            rows = list(rows)
            for val in range(1 << n):
                for universal in (False, True):
                    assert _first_witness(rows, val, universal) == \
                        _reference_first_witness(rows, val, universal), (rows, val)


def test_first_witness_matches_the_scan_on_random_cases():
    from sitaspect.validator import _first_witness

    rng = random.Random(6)
    found = missing = 0
    for _ in range(300):
        n = rng.randint(4, 10)
        # Sparse rows make witnesses likelier to exist.
        rows = [rng.randrange(1 << n) & rng.randrange(1 << n) for _ in range(n)]
        universal = rng.random() < 0.5
        if rng.random() < 0.5:
            val = _reference_defined(rows, rng.randrange(1 << n), universal)
        else:
            val = rng.randrange(1 << n)
        expected = _reference_first_witness(rows, val, universal)
        assert _first_witness(rows, val, universal) == expected, (rows, val, universal)
        found += expected is not None
        missing += expected is None
    assert found > 50 and missing > 50


def test_the_least_existential_witness_takes_linear_time(monkeypatch):
    # Each situation sees only itself and p holds on every second one, so
    # the witness is p's valuation; a `_defined` pass per bit tried from the
    # top is quadratic in the situations.
    sits = tuple(f"s{i}" for i in range(4000))
    model = FiniteModel(name="big", situations=sits,
                        aspect_rels={"a": frozenset((s, s) for s in sits)},
                        valuations={"p": frozenset(sits[::2])},
                        fluent_aspects={"p": path("a")})
    calls = record_calls(monkeypatch, sitaspect.validator, "_defined",
                         lambda rows, q, universal: q)
    verdict = verify_theorem("rel-exists", model)
    assert len(calls) <= 2
    assert verdict.premises.checks[0].note == \
        "witness found by search: {" + ",".join(sits[::2]) + "}"


def _reference_modal_unstable(rows: list[int], avec: list[int], universal: bool):
    """The subset-valuation loop the row comparison replaced: the situations
    where some valuation x of the schema variable tells w from a(w)."""
    n = len(rows)
    full = (1 << n) - 1
    bad = []
    for w in range(n):
        for x in range(1 << n):
            if universal:
                here = (rows[w] & ~x & full) == 0
                there = (rows[avec[w]] & ~x & full) == 0
            else:
                here = (rows[w] & x) != 0
                there = (rows[avec[w]] & x) != 0
            if here != there:
                bad.append(w)
                break
    return bad


@pytest.mark.parametrize("formalism", ["modal-box", "modal-diamond",
                                       "seq-modal-box", "seq-modal-diamond"])
def test_modal_stability_matches_the_subset_valuation_loop(formalism):
    rng = random.Random(formalism)
    alpha = path("a", "a") if formalism.startswith("seq-") else path("a")
    outcomes = set()
    for _ in range(150):
        n = rng.randint(1, 8)
        sits = tuple(f"s{i}" for i in range(n))
        # Few edges, and actions that fix most situations, so that both
        # outcomes come up.
        rel = frozenset((s, t) for s in sits for t in sits if rng.random() < 0.2)
        model = FiniteModel(
            name="modal", situations=sits, aspect_rels={"a": rel, "b": frozenset()},
            action_maps={"go": {s: rng.choice(sits[:2]) if rng.random() < 0.3 else s
                                for s in sits}},
            valuations={"p": frozenset()},
            fluent_aspects={"p": path("a")}, action_aspects={"go": path("b")},
            d_table=frozenset({(alpha, path("b"))}))
        rows = model.path_rows(alpha)
        bad = _reference_modal_unstable(rows, model.act_vec("go"),
                                        formalism.endswith("box"))
        [check] = [c for c in check_premises(model, formalism).checks
                   if c.axiom == "component-stability"]
        assert check.holds == (not bad)
        if bad:
            assert check.note == f"changes at situation {sits[bad[0]]}"
        outcomes.add(check.holds)
    assert outcomes == {True, False}


def _wide_collective_model(n: int, valuation: frozenset) -> FiniteModel:
    sits = tuple(f"s{i}" for i in range(n))
    ident = frozenset((s, s) for s in sits)
    return FiniteModel(
        name="wide-coll", situations=sits,
        collective_rels={"x": ident, "y": ident, "z": ident},
        action_maps={"go": {s: s for s in sits}},
        valuations={"p": valuation},
        fluent_aspects={"p": AspectPath.of({"x", "y"})},
        action_aspects={"go": AspectPath.of({"z"})})


def test_wide_collective_models_get_a_verdict():
    for n in (7, 12):
        for valuation in (frozenset(), frozenset({"s3"})):
            model = _wide_collective_model(n, valuation)
            for formalism in ("coll-rel-exists", "coll-rel-forall", "coll-fun"):
                verdict = verify_theorem(formalism, model)
                assert verdict.verdict == "pass", (n, valuation, formalism)
                [factorization] = [c for c in verdict.premises.checks
                                   if c.axiom == "fluent-factorization"]
                assert factorization.note == "witness family found by exhaustive search"


def _partial_family_model(x_witness: str) -> FiniteModel:
    return parse_model(f"""model partial
situations s0 s1
crel x s0 s0
crel x s1 s1
crel y s0 s0
crel y s1 s1
crel z s0 s0
crel z s1 s1
val p s0
aspect fluent p ({{x,y}})
cwitness p coll-rel-exists x {x_witness}
""")


def test_a_partial_witness_family_is_checked_as_given():
    # x = {s1} defines {s1}, and no choice for y meets it in {s0}.
    [check] = [c for c in check_premises(_partial_family_model("s1"),
                                         "coll-rel-exists").checks
               if c.axiom == "fluent-factorization"]
    assert (check.holds, check.note) == (
        False, "stored witnesses do not reproduce the valuation")
    # x = {s0} leaves y = {s0}, or a superset, to be found.
    [check] = [c for c in check_premises(_partial_family_model("s0"),
                                         "coll-rel-exists").checks
               if c.axiom == "fluent-factorization"]
    assert (check.holds, check.note) == (
        True, "witness family found by exhaustive search")


def _reference_family_exists(rows_list, val, universal, stored=None) -> bool:
    """The joint search the element-by-element rule replaced: every family
    of one predicate per element, (2^n)^k of them, with a stored element's
    predicate fixed."""
    n = len(rows_list[0])
    stored = stored or {}
    tables = [_reference_defined_table(tuple(rows), universal) for rows in rows_list]
    choices = [[stored[i]] if i in stored else range(1 << n) for i in range(len(rows_list))]
    for qs in itertools.product(*choices):
        out = (1 << n) - 1
        for table, q in zip(tables, qs):
            out &= table[q]
        if out == val:
            return True
    return False


@functools.lru_cache(maxsize=None)
def _reference_defined_table(rows: tuple, universal: bool) -> tuple:
    return tuple(_reference_defined(list(rows), q, universal) for q in range(1 << len(rows)))


def _family_check(rows_list, val, formalism, stored=None):
    """check_premises on a model whose fluent p ranges over one collective
    element per entry of rows_list, with the given stored witnesses."""
    n = len(rows_list[0])
    sits = tuple(f"s{i}" for i in range(n))
    elems = [f"e{i}" for i in range(len(rows_list))]

    def subset(mask: int) -> frozenset:
        return frozenset(s for i, s in enumerate(sits) if mask >> i & 1)

    model = FiniteModel(
        name="family", situations=sits,
        collective_rels={e: frozenset((sits[s], t) for s, row in enumerate(rows)
                                      for t in subset(row))
                         for e, rows in zip(elems, rows_list)},
        valuations={"p": subset(val)},
        fluent_aspects={"p": AspectPath.of(set(elems))},
        collective_witnesses={("p", formalism, elems[i]): subset(q)
                              for i, q in (stored or {}).items()})
    [check] = [c for c in check_premises(model, formalism).checks
               if c.axiom == "fluent-factorization"]
    return check


def _assert_family_matches(rows_list, val, formalism, stored=None) -> bool:
    expected = _reference_family_exists(rows_list, val, formalism == "coll-rel-forall",
                                        stored)
    check = _family_check(rows_list, val, formalism, stored)
    assert check.holds == expected, (rows_list, val, formalism, stored)
    if stored and not expected:
        note = "stored witnesses do not reproduce the valuation"
    elif stored and len(stored) == len(rows_list):
        note = ""
    else:
        note = ("witness family found by exhaustive search" if expected
                else "no witness family exists")
    assert check.note == note
    return expected


def test_collective_factorization_matches_the_joint_search_on_small_cases():
    outcomes = set()
    for formalism in ("coll-rel-exists", "coll-rel-forall"):
        universal = formalism == "coll-rel-forall"
        for n, k in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
            for rows_list in itertools.product(
                    itertools.product(range(1 << n), repeat=n), repeat=k):
                for val in range(1 << n):
                    outcomes.add(_assert_family_matches(
                        [list(r) for r in rows_list], val, formalism))
        # n = 3, k = 2: a family depends on an element's rows only through
        # the valuations its predicates define, so one row list per such set
        # (55 of the 512) covers every case.
        classes = {}
        for rows in itertools.product(range(8), repeat=3):
            defined = frozenset(_reference_defined(rows, q, universal) for q in range(8))
            classes.setdefault(defined, list(rows))
        for pair in itertools.combinations_with_replacement(classes.values(), 2):
            for val in range(8):
                outcomes.add(_assert_family_matches(list(pair), val, formalism))
    assert outcomes == {True, False}


def test_collective_factorization_matches_the_joint_search_on_random_cases():
    rng = random.Random(11)
    found = missing = 0
    for case in range(900):
        n, k = (3, 2) if case % 3 else (rng.randint(2, 4), 3)
        # Empty and singleton rows are the edge cases of both readings.
        rows_list = [[rng.choice((0, 1 << rng.randrange(n), rng.randrange(1 << n)))
                      for _ in range(n)] for _ in range(k)]
        val = rng.randrange(1 << n)
        stored = {i: rng.randrange(1 << n) for i in range(k) if rng.random() < 0.2}
        formalisms = ["coll-rel-exists", "coll-rel-forall"]
        if all(row and not row & (row - 1) for rows in rows_list for row in rows):
            formalisms.append("coll-fun")
        for formalism in formalisms:
            if _assert_family_matches(rows_list, val, formalism, stored):
                found += 1
            else:
                missing += 1
    assert found > 100 and missing > 100


@pytest.mark.parametrize("name, formalism", [("heater_all.model", "rel-forall"),
                                             ("university.model", "coll-rel-exists")])
def test_model_memo_builds_each_relation_once_and_is_not_compared(monkeypatch, name,
                                                                  formalism):
    model = load_model(name)
    built = record_calls(monkeypatch, sitaspect.finite, "_rows", lambda situations, rel: rel)
    verdict = verify_theorem(formalism, model)
    assert verdict.verdict == "pass" and built
    assert len(built) == sum(isinstance(key, tuple) for key in model._memo)
    assert model._memo["valid"] and model._memo["index"]
    underived = dataclasses.replace(model, d_table=frozenset())
    for fresh in (dataclasses.replace(model), underived, underived.with_derived_dtable()):
        assert fresh._memo == {}
    assert dataclasses.replace(model) == model
    assert "_memo" not in repr(model)


def test_a_faulty_model_raises_on_every_validate_call():
    model = FiniteModel(name="m", situations=("s0", "s1"), action_maps={"go": {"s0": "s1"}})
    for _ in range(2):
        with pytest.raises(ModelError, match="not total"):
            model.validate()
    assert "valid" not in model._memo


@pytest.mark.parametrize("name, formalism", [("heater.model", "rel-exists"),
                                             ("university.model", "coll-rel-exists")])
def test_validate_checks_a_parsed_models_faults_once(monkeypatch, capsys, name, formalism):
    # The parse reports the faults; the model it returns, and the copy that
    # with_derived_dtable makes of it, are known valid.
    calls = record_calls(monkeypatch, FiniteModel, "faults")
    assert main(["validate", str(FIXTURES / name), "--formalism", formalism]) == 0
    assert "pass" in capsys.readouterr().out
    assert len(calls) == 1
    assert load_model(name)._memo["valid"]
