"""The soundness lint's three stages against the flat enumeration.

`check_aspect_soundness` covers an action's valuations in three nested
stages: over the fluents the preconditions read, where a false
precondition skips the valuation; over those the action's aspect guards
read besides, where a missing or ambiguous action aspect counts every
value of the rest at once; and over the rest, where each valuation is
built and linted. `_reference_soundness` is the flat enumeration: every
valuation is built, in product order, and its preconditions evaluated. The
two must give equal reports, down to the order of the violations and the
counts of every `unresolved` reason. `tests/test_soundness_properties.py`
compares them on generated domains.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from sitaspect import frames
from sitaspect.disjoint import d_eval
from sitaspect.domain import AspectRule, GuardLiteral, Pat, Precondition, Var
from sitaspect.dsl import parse_domain
from sitaspect.errors import AmbiguousAspectError, MissingAspectError, SitAspectError
from sitaspect.frames import (
    SoundnessReport,
    SoundnessViolation,
    check_aspect_soundness,
)
from sitaspect.state import build_state
from sitaspect.terms import AspectPath, action
from tests.conftest import fixture_text, load_domain
from tests.test_random_domains import _random_domain

FIXTURES = ("blocks.dom", "blocks_nosupport.dom", "rooms.dom", "display.dom",
            "economy.dom")


def _reference_soundness(domain) -> SoundnessReport:
    """Every valuation of each action's guard fluents, in product order, is
    built as a state and its preconditions evaluated."""
    violations: list[SoundnessViolation] = []
    skipped: dict[str, int] = {}
    actions_checked = 0
    valuations_checked = 0
    for a in domain.ground_action_list:
        relevant = frames._relevant_fluents(domain, a)
        if len(relevant) > frames._GUARD_FLUENT_LIMIT:
            skipped[f"{a}: guard fluent count {len(relevant)} exceeds the "
                    f"enumeration bound {frames._GUARD_FLUENT_LIMIT}"] = 1
            continue
        actions_checked += 1
        for bits in itertools.product((False, True), repeat=len(relevant)):
            valuations_checked += 1
            base = dict(zip(relevant, bits))
            state = build_state({(): base}, schemas=frozenset(domain.fluents))
            if frames._failed_precondition(domain, state, a) is not None:
                continue
            try:
                beta = frames.aspect_of_action(domain, state, a)
            except MissingAspectError:
                frames._bump(skipped, f"{a}: valuations where no aspect rule applies")
                continue
            except AmbiguousAspectError:
                frames._bump(skipped, f"{a}: valuations with ambiguous aspects")
                continue
            changes = frames._net_effects(domain, state, a)
            full = dict(base)
            for f, v in changes:
                if f not in full:
                    full[f] = not v
            full_state = build_state({(): full}, schemas=frozenset(domain.fluents))
            for f, v in changes:
                if full[f] == v:
                    continue
                try:
                    alpha = frames.aspect_of_fluent(domain, full_state, f)
                except (MissingAspectError, AmbiguousAspectError):
                    frames._bump(skipped, f"{f}: valuations where the fluent aspect "
                                          f"does not resolve")
                    continue
                if d_eval(domain.disjointness, alpha, beta):
                    violation = SoundnessViolation(action=a, fluent=f,
                                                   fluent_aspect=alpha,
                                                   action_aspect=beta)
                    if violation not in violations:
                        violations.append(violation)
    unresolved = tuple(f"{key} ({count} skipped)" for key, count
                       in sorted(skipped.items()))
    return SoundnessReport(violations=tuple(violations), unresolved=unresolved,
                           actions_checked=actions_checked,
                           valuations_checked=valuations_checked)


def _assert_same_report(domain) -> SoundnessReport:
    report = check_aspect_soundness(domain)
    assert report == _reference_soundness(domain)
    return report


def _blocks_text(blocks: list[str]) -> str:
    """blocks.dom over the given blocks (all of them places too)."""
    return (fixture_text("blocks.dom")
            .replace("objects block: a, b, c", f"objects block: {', '.join(blocks)}")
            .replace("objects place: a, b, c, floor",
                     f"objects place: {', '.join(blocks)}, floor"))


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_the_flat_enumeration(name):
    _assert_same_report(load_domain(name))


def test_altered_move_matches_the_flat_enumeration():
    text = fixture_text("blocks.dom").replace(
        "aspect move(x,y) ({y,z}) if on(x,z)", "aspect move(x,y) ({y})")
    report = _assert_same_report(parse_domain(text))
    assert len(report.violations) > 1


@pytest.mark.parametrize("blocks", [["a", "b", "c"], ["a", "b", "c", "d"]],
                         ids=["blocks-3", "blocks-4"])
def test_generated_blocks_match_the_flat_enumeration(blocks):
    report = _assert_same_report(parse_domain(_blocks_text(blocks)))
    assert report.actions_checked == len(blocks) * (len(blocks) + 1)


def test_random_domains_match_the_flat_enumeration():
    # _random_domain has no preconditions; each domain is also checked with
    # random ones added, so that the precondition prefix ends anywhere.
    rng = random.Random(4409)
    for _ in range(50):
        domain = _random_domain(rng)
        _assert_same_report(domain)
        names = sorted(domain.fluents)
        pres = tuple(
            Precondition(action=Pat(a), guard=tuple(
                GuardLiteral(fluent=Pat(f), positive=rng.random() < 0.6)
                for f in rng.sample(names, rng.randint(1, 2))))
            for a in sorted(domain.actions) if rng.random() < 0.7)
        _assert_same_report(dataclasses.replace(domain, preconditions=pres))


def test_precondition_on_the_last_fluent_reads_the_whole_valuation():
    text = "\n".join([
        "domain last",
        "fluent a_free()",
        "fluent z_gate()",
        "action go()",
        "aspect a_free() (left)",
        "aspect z_gate() (right)",
        "aspect go() (left) if a_free()",
        "aspect go() (right) if !a_free()",
        "pre go() z_gate()",
        "effect go() add a_free()",
        "disjoint by seq-diff",
    ]) + "\n"
    domain = parse_domain(text)
    relevant = frames._relevant_fluents(domain, domain.ground_action_list[0])
    assert [f.schema for f in relevant] == ["a_free", "z_gate"]
    report = _assert_same_report(domain)
    assert report.valuations_checked == 4
    assert not report.clean


def test_no_precondition_matches_the_flat_enumeration():
    text = fixture_text("blocks.dom").replace(
        "pre move(x,y) clear(x) & clear(y)\n", "")
    domain = parse_domain(text)
    assert domain.preconditions == ()
    _assert_same_report(domain)


def _nullary_conjunction(count: int) -> str:
    """go() over `count` nullary fluents, whose precondition reads them all."""
    names = [f"f{i}" for i in range(count)]
    return "\n".join([
        "domain bound", *(f"fluent {n}()" for n in names), "action go()",
        *(f"aspect {n}() (left)" for n in names), "aspect go() (right)",
        "pre go() " + " & ".join(f"{n}()" for n in names),
        "effect go() add f0()", "disjoint by seq-diff"]) + "\n"


def _on_four(rules: str) -> str:
    """go() over on(a)..on(d) and lit(), which only an effect guard reads."""
    return "\n".join([
        "domain stages", "objects obj: a, b, c, d", "fluent on(obj)", "fluent lit()",
        "action go()", "aspect on(x) (x)", "aspect lit() (b)", rules,
        "effect go() add on(b) if lit()", "disjoint by seq-diff"]) + "\n"


LIMIT = frames._GUARD_FLUENT_LIMIT


@pytest.mark.parametrize("text, expected", [
    (_nullary_conjunction(LIMIT),
     dict(actions_checked=1, valuations_checked=2 ** LIMIT, unresolved=())),
    (_nullary_conjunction(LIMIT + 1),
     dict(actions_checked=0, valuations_checked=0, unresolved=(
         f"go(): guard fluent count {LIMIT + 1} exceeds the enumeration "
         f"bound {LIMIT} (1 skipped)",))),
    (_on_four("aspect go() (a)\npre go() on(z)"),
     dict(valuations_checked=32, unresolved=(), violations=["(a)"])),
    (_on_four("aspect go() (a)\npre go() !on(z)"),
     dict(valuations_checked=32, unresolved=(), violations=["(a)"])),
    (_on_four("aspect go() (z) if on(z)"),
     dict(valuations_checked=32, violations=["(d)", "(c)", "(a)"], unresolved=(
         "go(): valuations where no aspect rule applies (2 skipped)",
         "go(): valuations with ambiguous aspects (22 skipped)"))),
], ids=["at the bound", "past the bound", "any-of precondition",
        "negated existential precondition", "ambiguous aspect"])
def test_the_bound_and_each_stage(text, expected):
    report = _assert_same_report(parse_domain(text))
    aspects = [str(v.action_aspect) for v in report.violations]
    assert {key: aspects if key == "violations" else getattr(report, key)
            for key in expected} == expected


def _counting(monkeypatch, attr) -> list:
    """The positional arguments of each call of frames.`attr` from now on."""
    calls, real = [], getattr(frames, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(frames, attr, counted)
    return calls


# States the search may build: the flat enumeration built 720, 102, 14 and 732.
STATES_BUILT_AT_MOST = {"blocks.dom": 96, "display.dom": 51, "economy.dom": 7,
                        "blocks_nosupport.dom": 96, "rooms.dom": 0}


@pytest.mark.parametrize("name", sorted(STATES_BUILT_AT_MOST))
def test_soundness_work_counts(name, monkeypatch):
    domain = load_domain(name)
    built, decided = (_counting(monkeypatch, attr)
                      for attr in ("build_state", "_failed_precondition"))
    report = check_aspect_soundness(domain)
    assert len(built) <= STATES_BUILT_AT_MOST[name]
    assert len(decided) <= len(built)
    if name == "blocks.dom":
        assert report.valuations_checked == 672


DISPLAY_COMMUTATIVE = fixture_text("display.dom").replace(
    "disjoint by seq-diff", "disjoint by commutative(computer display)")


@pytest.mark.parametrize("text, searched, actions", [
    (_blocks_text(["a", "b", "c", "d", "e"]), 3, 30),
    (fixture_text("display.dom"), 11, 20),
    (DISPLAY_COMMUTATIVE, 20, 20),
], ids=["blocks-5", "display.dom", "display.dom commutative"])
def test_one_action_per_orbit_is_searched(text, searched, actions, monkeypatch):
    # blocks-5 has three orbits: move(x,x), move(x,y) onto a block, and
    # move(x,floor). A display action's orbit is its schema and the size of
    # its set. Under `commutative` every action is an orbit of its own.
    domain = parse_domain(text)
    calls = _counting(monkeypatch, "_search_valuations")
    report = check_aspect_soundness(domain)
    assert (len(calls), report.actions_checked) == (searched, actions)
    assert len({a for _, a, _, _ in calls}) == searched


# Per place that can name an object, a domain where renaming the object `a`
# it names would change the report: as the first action of an orbit, the
# action on b or a is clean where another member is not, or their counts
# differ. `home` and `frame` lines name objects too, but the lint reads
# neither (see `test_home_and_frame_lines_break_no_orbit`).
NAMED_BY = {
    "aspect rule head": ("b, a, c, d", "aspect touch(a) (k) if mark(c)\n"
                         "aspect touch(x) (x) if !mark(c)\neffect touch(x) add mark(x)"),
    "precondition head": ("b, a, c, d", "aspect touch(x) (x)\npre touch(a) !mark(c)\n"
                          "effect touch(x) add mark(x)"),
    "guard literal": ("b, a, c", "aspect touch(x) (x)\npre touch(x) mark(x) & !mark(a)\n"
                      "effect touch(x) add mark(x)"),
    "member guard": ("b, a, c", "aspect touch(x) (x)\naction paint(set of obj)\n"
                     "aspect paint(S) (k)\neffect touch(x) add mark(x)\n"
                     "effect paint(S) add mark(w) if w in S & a in S"),
    "effect": ("a, b, c", "aspect touch(x) (x)\neffect touch(x) add mark(a)"),
    "aspect template": ("a, b, c", "aspect touch(x) (a)\neffect touch(x) add mark(x)"),
    "table": ("b, a, c", "aspect touch(x) (k)\neffect touch(x) add mark(x)\n"
              "disjoint by table (a)(k)"),
}


@pytest.mark.parametrize("where", sorted(NAMED_BY))
def test_an_object_the_domain_names_is_never_renamed(where):
    objects, rules = NAMED_BY[where]
    lines = ["domain named", f"objects obj: {objects}", "fluent mark(obj)",
             "action touch(obj)", "aspect mark(u) (u)", *rules.split("\n")]
    if "disjoint by" not in rules:
        lines.append("disjoint by seq-diff")
    domain = parse_domain("\n".join(lines) + "\n")
    assert "a" not in frames._interchangeable(domain)
    _assert_same_report(domain)


@pytest.mark.parametrize("line", ["home mark (a)", "frame touch(a) mark(b)"])
def test_home_and_frame_lines_break_no_orbit(line, monkeypatch):
    # touch(a), touch(b) and touch(c) are one orbit, though the line names a.
    domain = parse_domain("\n".join([
        "domain named", "objects obj: a, b, c", "fluent mark(obj)", "action touch(obj)",
        "aspect mark(u) (u)", "aspect touch(x) (x) if mark(x)",
        "effect touch(x) add mark(x)", line, "disjoint by seq-diff"]) + "\n")
    calls = _counting(monkeypatch, "_search_valuations")
    report = check_aspect_soundness(domain)
    assert (len(calls), report.actions_checked, len(report.unresolved)) == (1, 3, 3)
    assert report == _reference_soundness(domain)


def _bench_gen():
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GEN = _bench_gen()
# The fixtures and the bench families blocks-3..5 and display-3..4.
LINTED = {**{name: fixture_text(name) for name in FIXTURES},
          **{f"blocks-{n}": _GEN.blocks(n, random.Random(n)).domain_text()
             for n in (3, 4, 5)},
          **{f"display-{k}": _GEN.display(k, 2, random.Random(k)).domain_text()
             for k in (3, 4)}}


@pytest.mark.parametrize("name", sorted(LINTED))
def test_each_guard_is_compiled_once_per_binding(name, monkeypatch):
    looked_up, compiled = (_counting(monkeypatch, attr)
                           for attr in ("_compiled", "_compile_guard"))
    check_aspect_soundness(parse_domain(LINTED[name]))
    keys = [(guard, frozenset(env0.items())) for _, guard, env0 in compiled]
    assert keys and len(set(keys)) == len(keys)
    assert set(keys) == {(guard, frozenset(env0.items()))
                         for _, guard, env0 in looked_up}


@pytest.mark.parametrize("name", sorted(LINTED))
def test_the_leaf_takes_the_aspect_stage_two_found(name, monkeypatch):
    expected = _reference_soundness(parse_domain(LINTED[name]))

    def unreachable(*args):
        raise AssertionError("aspect_of_action is called")
    monkeypatch.setattr(frames, "aspect_of_action", unreachable)
    assert check_aspect_soundness(parse_domain(LINTED[name])) == expected


def test_stage_one_visits_the_points_of_the_preconditions_only(monkeypatch):
    # One conjunction over 14 fluents: its one clause holds on one valuation.
    domain = parse_domain(_nullary_conjunction(LIMIT))
    points, real = [], frames._precondition_points

    def recorded(*args):
        points.extend(real(*args))
        return points
    monkeypatch.setattr(frames, "_precondition_points", recorded)
    report = check_aspect_soundness(domain)
    assert report.valuations_checked == 2 ** LIMIT
    assert points == [2 ** LIMIT - 1]


def test_d_is_evaluated_once_per_distinct_aspect_pair(monkeypatch):
    # blocks-5: 1080 ground pairs per table walk, few distinct aspect paths.
    text = _blocks_text(["a", "b", "c", "d", "e"])
    table = parse_domain(text).static_aspects
    fluent_paths = {alpha for _, paths, _ in table.fluents for alpha in paths}
    action_paths = {beta for _, paths, _ in table.actions for beta in paths}
    calls = []

    def counted(spec, alpha, beta):
        calls.append((alpha, beta))
        return d_eval(spec, alpha, beta)

    def derive(domain):
        derivation = frames.derive_frame_axioms(domain)
        return derivation.economy, derivation.ground

    monkeypatch.setattr(frames, "d_eval", counted)
    # d is memoised per Domain object, so each lint gets a fresh one.
    for lint in (derive, frames.completeness_lint):
        calls.clear()
        lint(parse_domain(text))
        assert calls
        assert len(calls) <= len(fluent_paths) * len(action_paths), lint.__name__
        assert len(set(calls)) == len(calls), lint.__name__
    # The economy and the ground axioms share the memo: where the economy is
    # not empty, the two together evaluate each distinct pair once.
    for name in ("display.dom", "economy.dom"):
        calls.clear()
        derivation = frames.derive_frame_axioms(load_domain(name))
        economy_calls = len(calls)
        assert derivation.economy and economy_calls
        assert derivation.ground
        assert len(set(calls)) == len(calls), name
        if name == "economy.dom":
            assert len(calls) == 1  # one aspect pair, evaluated for the economy


# A negated literal before the literal that binds its variable: solve_guard
# reads !on(z,y) over every block z, then binds z from on(x,z) over places.
NEGATION_FIRST = "\n".join([
    "domain negation_first",
    "objects block: a, b",
    "objects place: a, b, floor",
    "fluent on(block, place)",
    "action move(block, place)",
    "aspect on(x,y) (y)",
    "aspect move(x,y) ({y}) if !on(z,y) & on(x,z)",
    "effect move(x,y) add on(x,y)",
    "disjoint by seq-diff",
]) + "\n"


def test_negation_before_its_binder_reads_as_the_guard_solver_does():
    domain = parse_domain(NEGATION_FIRST)
    a = action("move", "a", "a")
    relevant = frames._relevant_fluents(domain, a)
    assert [str(f) for f in relevant] == ["on(a,a)", "on(a,b)", "on(a,floor)", "on(b,a)"]
    # on(a,a) decides the guard: with it true, no z satisfies !on(z,a).
    guard, env = domain.aspect_rules[1].guard, {"x": "a", "y": "a"}
    on_ab = {f: str(f) == "on(a,b)" for f in relevant}
    for on_aa, solutions in ((False, [{**env, "z": "b"}]), (True, [])):
        state = build_state({(): {**on_ab, relevant[0]: on_aa}},
                            schemas=frozenset(domain.fluents))
        assert frames.solve_guard(domain, state, guard, env) == solutions
    report = _assert_same_report(domain)
    assert report.actions_checked == len(domain.ground_action_list)


def test_a_template_variable_no_grounding_binds_raises_as_the_flat_enumeration():
    # The DSL rejects `aspect move(x,y) (z) if !on(z,y)`; a domain built in
    # Python may still hold it, and the search raises where the leaves would.
    domain = load_domain("blocks.dom")
    x, y, z = (Var(n) for n in "xyz")
    rule = AspectRule(kind="action", target=Pat("move", (x, y)), template=(z,),
                      guard=(GuardLiteral(Pat("on", (z, y)), positive=False),))
    domain = dataclasses.replace(domain, aspect_rules=tuple(
        rule if r.target.schema == "move" else r for r in domain.aspect_rules))
    errors = []
    for lint in (check_aspect_soundness, _reference_soundness):
        with pytest.raises(SitAspectError) as exc:
            lint(domain)
        errors.append((type(exc.value), str(exc.value)))
    assert errors == [(SitAspectError, "unbound variable z in aspect template")] * 2


def test_soundness_renders_no_aspect_path_or_rule(monkeypatch):
    # Most blocks-4 valuations leave the action aspect ambiguous; the lint
    # only counts them, so the error's text is never built.
    rendered = []
    for cls in (AspectPath, AspectRule):
        monkeypatch.setattr(cls, "__str__", lambda self: rendered.append(self) or "")
    report = check_aspect_soundness(parse_domain(_blocks_text(["a", "b", "c", "d"])))
    assert any("valuations with ambiguous aspects" in u for u in report.unresolved)
    assert rendered == []
