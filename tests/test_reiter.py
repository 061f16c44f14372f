"""Successor state axioms: compilation, evaluation, and mode comparison."""

from __future__ import annotations

from dataclasses import replace

import pytest

import sitaspect.frames
from sitaspect.dsl import parse_domain
from sitaspect.errors import CrossModeSoundnessError, SchemaError
from sitaspect.frames import EQUALITY_CHECK, progress, progression
from sitaspect.reiter import compare_modes, compile_ssa, random_workload, ssa_query
from sitaspect.state import eval_fluent
from sitaspect.terms import action, fluent


def test_compile_ssa_one_axiom_per_fluent(blocks):
    ssas = compile_ssa(blocks)
    assert set(ssas.axioms) == {"on", "clear"}
    assert len(ssas) == 2


def test_blocks_gamma_entries(blocks):
    ssas = compile_ssa(blocks)
    clear = ssas.axioms["clear"]
    assert len(clear.gamma_plus) == 1   # moving away uncovers the old support
    assert len(clear.gamma_minus) == 1  # moving onto a place covers it
    on = ssas.axioms["on"]
    assert len(on.gamma_plus) == 1
    assert len(on.gamma_minus) == 1


def test_ssa_entries_are_the_domain_effect_rules(blocks):
    # The axioms hold the rules themselves, in domain order, not copies.
    for schema, ssa in compile_ssa(blocks).axioms.items():
        rules = [e for e in blocks.effects if e.fluent.schema == schema]
        assert list(map(id, ssa.gamma_plus)) == [id(e) for e in rules if e.add]
        assert list(map(id, ssa.gamma_minus)) == [id(e) for e in rules if not e.add]


def test_fluent_without_effects_has_empty_gammas(economy):
    ssas = compile_ssa(economy)
    assert len(ssas) == 5
    for ssa in ssas.axioms.values():
        assert ssa.gamma_plus == () and ssa.gamma_minus == ()


def _ssa(ssas, init, acts, p):
    return ssa_query(ssas, progression(ssas.domain, init, acts), acts, p)


def test_ssa_query_empty_sequence(blocks, blocks_init):
    value, trace = _ssa(compile_ssa(blocks), blocks_init, [],
                        fluent("clear", "b"))
    assert value is True
    assert len(trace) == 1


def test_ssa_persistence_counts_gamma_minus_checks(blocks, blocks_init):
    value, trace = _ssa(compile_ssa(blocks), blocks_init,
                        [action("move", "a", "b")], fluent("clear", "c"))
    assert value is True
    assert trace.count(EQUALITY_CHECK) == 1  # |gamma_minus| of clear
    assert len(trace) == 2  # 1 init lookup + 1 equality check


def test_ssa_gamma_plus_overrides_initial_value(blocks, blocks_init):
    # clear(floor) becomes true through the move even if it started false.
    from sitaspect.state import with_fluent

    init = with_fluent(blocks_init, fluent("clear", "floor"), False)
    value, _ = _ssa(compile_ssa(blocks), init, [action("move", "a", "b")],
                    fluent("clear", "floor"))
    assert value is True
    final = progress(blocks, init, action("move", "a", "b"))
    assert eval_fluent(final, fluent("clear", "floor")) is True


def test_ssa_agrees_with_progression(blocks, blocks_init):
    ssas = compile_ssa(blocks)
    acts = [action("move", "a", "b"), action("move", "c", "a")]
    final = blocks_init
    for a in acts:
        final = progress(blocks, final, a)
    from sitaspect.domain import ground_fluents

    for p in ground_fluents(blocks):
        value, _ = _ssa(ssas, blocks_init, acts, p)
        assert value is eval_fluent(final, p)


def test_ssa_query_rejects_a_fluent_of_no_schema(blocks, blocks_init):
    with pytest.raises(SchemaError, match="unknown fluent schema 'heater_on'"):
        _ssa(compile_ssa(blocks), blocks_init, [action("move", "a", "b")],
             fluent("heater_on", "h1"))


def test_compare_modes_counts(economy):
    report = compare_modes(economy, workload=[])
    assert report.classical_axiom_count == 35
    assert report.aspect_source_count == 14
    assert report.ssa_count == 5


def test_compare_progresses_each_query_once(blocks, blocks_init, monkeypatch):
    workload = random_workload(blocks, blocks_init, 40, seed=7)
    steps = []
    real = sitaspect.frames.progress

    def counting(domain, state, a):
        steps.append(a)
        return real(domain, state, a)

    monkeypatch.setattr(sitaspect.frames, "progress", counting)
    compare_modes(blocks, workload=workload)
    assert len(steps) == sum(len(acts) for _, acts, _ in workload) > 0


@pytest.mark.parametrize("name", ["blocks", "rooms"])
def test_compare_takes_each_step_once(name, request, monkeypatch):
    # The walks, the oracle and aspect regression share the Domain's step
    # table, so the effects of each distinct (state, action) are resolved once.
    domain = replace(request.getfixturevalue(name))
    init = request.getfixturevalue(f"{name}_init")
    calls, real = [], sitaspect.frames._net_effects

    def recording(domain, state, a):
        calls.append((state, a))
        return real(domain, state, a)

    monkeypatch.setattr(sitaspect.frames, "_net_effects", recording)
    compare_modes(domain, workload=random_workload(domain, init, 60, seed=1))
    assert len(calls) == len(set(calls)) > 0


def test_compare_modes_blocks_workload(blocks, blocks_init):
    workload = random_workload(blocks, blocks_init, 40, seed=7)
    report = compare_modes(blocks, workload=workload)
    assert report.all_agree
    assert len(report.queries) == 40
    assert report.comparable > 0


def test_compare_modes_raises_on_disagreement(blocks, blocks_init):
    # A domain whose move aspect wrongly claims only the destination is
    # touched: regression persists fluents the oracle changes.
    from tests.conftest import fixture_text

    text = fixture_text("blocks.dom").replace(
        "aspect move(x,y) ({y,z}) if on(x,z)", "aspect move(x,y) ({y})")
    broken = parse_domain(text)
    workload = [(blocks_init, (action("move", "a", "b"),),
                 fluent("on", "a", "floor"))]
    with pytest.raises(CrossModeSoundnessError) as exc:
        compare_modes(broken, workload=workload)
    assert exc.value.witness is not None


def test_random_workload_deterministic(blocks, blocks_init):
    w1 = random_workload(blocks, blocks_init, 10, seed=3)
    w2 = random_workload(blocks, blocks_init, 10, seed=3)
    assert [(a, p) for _, a, p in w1] == [(a, p) for _, a, p in w2]
