"""The soundness lint's search against the flat enumeration, on generated domains.

Hypothesis writes small domains in the DSL: objects `a`, `b` of sort obj,
places `a`, `floor`, fluents over an object, a place and a set of objects,
and an action `move(obj, place)` with, at times, `paint(set of obj)`. Aspect
rules, preconditions and effect guards mix positive and negated literals
(negated existentials, some before the literal that binds their variable),
membership guards and constants. `check_aspect_soundness` must return the
report of `tests/reference.py::soundness`, or raise its error. Stage 1's
precondition clauses must hold exactly where the guard solver finds every
precondition solvable, and the preconditions split into looked-up facts and
a solved rest must decide, on random states, as the solver does on every
whole guard.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sitaspect.domain import (  # noqa: E402
    GuardLiteral, MemberGuard, ground_fluents, initial_state, solve_guard)
from sitaspect.dsl import parse_domain  # noqa: E402
from sitaspect.errors import SitAspectError  # noqa: E402
from sitaspect import frames  # noqa: E402
from sitaspect.frames import check_aspect_soundness  # noqa: E402
from tests import reference  # noqa: E402
from tests.conftest import assert_stage_one_decides_as_the_solver, outcome  # noqa: E402

HEADS = {"move": ("move(x,y)", {"x": "obj", "y": "place"}),
         "paint": ("paint(S)", {"S": "set"})}
# Argument choices per parameter sort: guard variables z and w take either.
CHOICES = {"obj": ("z", "w", "a", "b"), "place": ("z", "w", "floor", "a")}
EFFECTS = {
    "move": ("add on(x,y)", "del on(x,z) if on(x,z)", "add mark(x) if !mark(x)",
             "del mark(z) if on(z,y)", "add mark(z) if !on(z,y) & mark(z)"),
    "paint": ("add mark(z) if z in S", "del tag(S)", "add on(z,floor) if z in S & !on(z,a)",
              "del mark(z) if tag(T) & z in T"),
}


@st.composite
def guards(draw, head: dict[str, str]):
    """Guard text and the variables its positive literals and members bind."""
    atoms: list[str] = []
    bound = [v for v, sort in head.items() if sort != "set"]
    sets = [v for v, sort in head.items() if sort == "set"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("on", "on", "mark", "tag", "in")))
        sign = "" if draw(st.integers(0, 2)) else "!"
        if kind == "in":
            if not sets:
                continue
            member = draw(st.sampled_from(("z", "w", "a")))
            atoms.append(f"{member} in {draw(st.sampled_from(sets))}")
            if member != "a":
                bound.append(member)
            continue
        if kind == "tag":
            arg = draw(st.sampled_from(sets + ["T"]))
            atoms.append(f"{sign}tag({arg})")
            if not sign and arg == "T":
                sets.append("T")
            continue
        obj = draw(st.sampled_from([v for v, s in head.items() if s == "obj"]
                                   + list(CHOICES["obj"])))
        if kind == "mark":
            args = [obj]
        else:
            args = [obj, draw(st.sampled_from([v for v, s in head.items() if s == "place"]
                                              + list(CHOICES["place"])))]
        atoms.append(f"{sign}{kind}({','.join(args)})")
        if not sign:
            bound += [a for a in args if a in ("z", "w")]
    return " & ".join(atoms), list(dict.fromkeys(bound)) + sets


@st.composite
def templates(draw, names: list[str]):
    """An aspect template over bound variables and the constant r."""
    elems = []
    for _ in range(draw(st.integers(1, 2))):
        pool = names + ["r"]
        picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
        elems.append(picked[0] if len(picked) == 1 and draw(st.booleans())
                     else "{" + ",".join(picked) + "}")
    return "(" + ",".join(elems) + ")"


# Per fluent, the rule sets to draw from; two rules of a schema exclude each
# other through a complementary literal, as the DSL requires.
FLUENT_RULES = {
    "on(u,v)": (("(v)",), ("(u)",), ("({u,v})",), ("(k)",), ("(v) if mark(u)",),
                ("(v) if mark(u)", "(u) if !mark(u)")),
    "mark(u)": (("(u)",), ("(k)",), ("(u) if !on(u,floor)",)),
    "tag(T)": (("(T)",), ("({T})",), ("(k)",)),
}


# Rules that make move's violations show under two action aspects: on(x,y)
# is at (y), disjoint from both (k) and (r).
PLANTED = {"on(u,v)": ("(v)",), "move(x,y)": ("(k) if mark(x)", "(r) if !mark(x)"),
           "effect": "add on(x,y)"}


@st.composite
def domains(draw):
    """A generated domain. An action's second aspect rule is drawn freely,
    so the two may overlap: it is parsed in a copy of the text that has it
    in place of the first, and then appended to the rules."""
    actions = ["move"] + (["paint"] if draw(st.booleans()) else [])
    # One draw in four plants PLANTED: move then changes on(x,y), whose
    # aspect is disjoint from move's aspect at the leaves of both rules, so
    # violations at several leaves do not hang on the examples drawn.
    planted = draw(st.integers(0, 3)) == 0
    lines = ["domain generated", "objects obj: a, b", "objects place: a, floor",
             "fluent on(obj, place)", "fluent mark(obj)", "fluent tag(set of obj)",
             "action move(obj, place)"]
    if "paint" in actions:
        lines.append("action paint(set of obj)")
    for head, choices in FLUENT_RULES.items():
        bodies = PLANTED["on(u,v)"] if planted and head == "on(u,v)" else \
            draw(st.sampled_from(choices))
        lines += [f"aspect {head} {body}" for body in bodies]
    firsts, seconds = [], []
    for name in actions:
        text, head = HEADS[name]
        rules = []
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.integers(0, 3)):
                guard, bound = draw(guards(head))
                rules.append(f"aspect {text} {draw(templates(bound))}"
                             + (f" if {guard}" if guard else ""))
            else:
                rules.append(f"aspect {text} {draw(templates(list(head)))}")
        if planted and name == "move":
            rules = [f"aspect {text} {body}" for body in PLANTED["move(x,y)"]]
        firsts.append(rules[0])
        seconds.append(rules[-1])
        if draw(st.booleans()):
            guard, _ = draw(guards(head))
            if guard:
                lines.append(f"pre {text} {guard}")
        effects = draw(st.lists(st.sampled_from(EFFECTS[name]), min_size=1,
                                max_size=3, unique=True))
        if planted and name == "move":
            effects = list(dict.fromkeys([PLANTED["effect"], *effects]))
        lines += [f"effect {text} {effect}" for effect in effects]
    lines.append("disjoint by seq-diff")
    first, second = (parse_domain("\n".join(lines + rules) + "\n", file="generated")
                     for rules in (firsts, seconds))
    extra = tuple(r for r in second.aspect_rules if r not in first.aspect_rules)
    return dataclasses.replace(first, aspect_rules=first.aspect_rules + extra)


def _domain_features(domain) -> set[str]:
    """What the domain's rules exercise, for the coverage checks."""
    out = set()
    if any(ref.is_set for schema in domain.actions.values() for ref in schema.params):
        out.add("set-valued parameter")
    rules = (list(domain.aspect_rules) + list(domain.preconditions)
             + list(domain.effects))
    for rule in rules:
        head = rule.target if hasattr(rule, "target") else rule.action
        bound = {v.name for v in head.variables()}
        for i, atom in enumerate(rule.guard):
            if isinstance(atom, MemberGuard):
                out.add("member guard")
                bound.add(getattr(atom.member, "name", ""))
                continue
            names = {v.name for v in atom.fluent.variables()}
            if atom.positive:
                bound |= names
                continue
            if names - bound:
                out.add("negated existential")
                later = set()
                for g in rule.guard[i + 1:]:
                    if isinstance(g, GuardLiteral) and g.positive:
                        later |= {v.name for v in g.fluent.variables()}
                    elif isinstance(g, MemberGuard):
                        later.add(getattr(g.member, "name", ""))
                if (names - bound) & later:
                    out.add("negation before its binder")
    return out


def _features(domain, report) -> set[str]:
    """What the domain and its report exercise, for the coverage check."""
    out = _domain_features(domain)
    if isinstance(report, tuple):
        out.add("error")
        return out
    if any("no aspect rule applies" in u for u in report.unresolved):
        out.add("missing aspect")
    if any("ambiguous aspects" in u for u in report.unresolved):
        out.add("ambiguous aspect")
        heads = [r.target.schema for r in domain.aspect_rules if r.kind == "action"]
        if len(heads) > len(set(heads)):
            out.add("overlapping rules")
    # One action aspect per valuation: violations of one action under two
    # aspects were found at two leaves.
    per_action: dict = {}
    for v in report.violations:
        per_action.setdefault(v.action, set()).add(v.action_aspect)
    if any(len(aspects) > 1 for aspects in per_action.values()):
        out.add("violations at several leaves")
    return out


def test_search_matches_the_flat_enumeration_on_generated_domains(monkeypatch):
    seen = Counter()
    calls = Counter()
    for module, name in ((frames, "build_state"), (frames, "_net_effects"),
                         (reference, "changes")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(domains())
    def check(domain):
        calls.clear()
        got = outcome(check_aspect_soundness, domain)
        searched = dict(calls)
        calls.clear()
        assert got == outcome(reference.soundness, domain)
        if not isinstance(got, tuple):
            # The search builds one state per valuation whose effects the
            # flat enumeration reads, and no other.
            assert searched.get("build_state", 0) == searched.get("_net_effects", 0) \
                == calls["changes"]
        seen.update(_features(domain, got))

    check()
    for feature in ("negated existential", "negation before its binder", "member guard",
                    "set-valued parameter", "missing aspect", "ambiguous aspect",
                    "overlapping rules", "violations at several leaves"):
        assert seen[feature] >= 10, seen


def test_stage_one_decides_the_preconditions_as_the_solver_on_generated_domains():
    # Per domain, whether some valuation fails a precondition.
    failing = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(domains())
    def check(domain):
        outcomes = assert_stage_one_decides_as_the_solver(domain)
        failing[bool(outcomes[False])] += 1

    check()
    assert failing[True] >= 10 and failing[False] >= 10, failing


def _reference_failed_precondition(domain, state, a):
    """The first precondition of a that `solve_guard` finds no solution of."""
    for pre, env0 in domain.bound("pre", a):
        if not solve_guard(domain, state, pre.guard, env0):
            return pre, env0
    return None


@st.composite
def domain_states(draw):
    """A generated domain and a state of it: random true fluents, at times
    with nothing modeled, or with a schema the state does not know."""
    domain = draw(domains())
    fluents = ground_fluents(domain)
    truths = [f for f, bit in zip(fluents, draw(st.lists(st.booleans(), min_size=len(fluents),
                                                          max_size=len(fluents)))) if bit]
    shape = draw(st.sampled_from(("total", "total", "unmodeled", "unknown schema")))
    if shape == "unmodeled":
        return domain, initial_state(domain, truths, only=[])
    state = initial_state(domain, truths)
    if shape == "unknown schema":
        state = dataclasses.replace(state, schemas=state.schemas - {draw(st.sampled_from(
            sorted(domain.fluents)))})
    return domain, state


def test_precondition_facts_decide_as_the_solver_on_generated_domains():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(domain_states())
    def check(case):
        domain, state = case
        for a in domain.ground_action_list:
            try:
                want = _reference_failed_precondition(domain, state, a)
            except SitAspectError as exc:
                seen["error"] += 1
                with pytest.raises(type(exc)) as raised:
                    frames._failed_precondition(domain, state, a)
                assert str(raised.value) == str(exc)
            else:
                seen["holds" if want is None else "fails"] += 1
                assert frames._failed_precondition(domain, state, a) == want
            # Each precondition, as split: its looked-up facts and solved rest.
            for _, _, facts, rest in domain._pres[a]:
                seen[("facts" if facts else "") + (" & rest" if rest else "")] += 1
        assert outcome(lambda d: frames.applicable_actions(d, state), domain) == outcome(
            lambda d: [a for a in d.ground_action_list
                       if _reference_failed_precondition(d, state, a) is None], domain)

    check()
    for feature in ("error", "fails", "holds", "facts", "facts & rest", " & rest"):
        assert seen[feature] >= 10, seen
