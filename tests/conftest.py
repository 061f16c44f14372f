from __future__ import annotations

import itertools
import re
from collections import Counter
from pathlib import Path

import pytest

from sitaspect import frames
from sitaspect.dsl import parse_domain, parse_model, parse_state
from sitaspect.errors import SchemaError, SitAspectError, UndefinedActionError
from sitaspect.frames import applicable_actions, progress
from sitaspect.state import build_state

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_runtest_logreport(report):
    """Emit the FAIL counterpart of the acceptance PASS lines."""
    if report.when != "call" or not report.failed:
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match:
        print(f"\nACCEPTANCE {int(match.group(1))}: FAIL - see the failure "
              f"details for this test")


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def sort_pool(domain, ref) -> list:
    """The ground terms a parameter of sort `ref` can take, built without the
    program's pools: the sort's objects, or its nonempty subsets by size,
    then by object order."""
    if ref.name not in domain.sorts:
        raise SchemaError(f"unknown sort '{ref.name}' in domain '{domain.name}'")
    objs = domain.sorts[ref.name]
    if not ref.is_set:
        return list(objs)
    return [frozenset(combo) for size in range(1, len(objs) + 1)
            for combo in itertools.combinations(objs, size)]


def reachable_states(domain, init, max_depth: int) -> list:
    """All states reachable from init by applicable sequences of length <=
    max_depth, breadth first, each once."""
    seen = {init}
    frontier = [init]
    out = [init]
    for _ in range(max_depth):
        nxt = []
        for s in frontier:
            for a in applicable_actions(domain, s):
                try:
                    s2 = progress(domain, s, a)
                except UndefinedActionError:
                    continue
                if s2 not in seen:
                    seen.add(s2)
                    nxt.append(s2)
                    out.append(s2)
        frontier = nxt
        if not frontier:
            break
    return out


def record_calls(monkeypatch, owner, attr: str, keep=lambda *args: args) -> list:
    """What `keep` makes of the positional arguments of each call of
    owner.`attr` from now on; the calls go on to the real `attr`."""
    calls, real = [], getattr(owner, attr)

    def recorded(*args, **kwargs):
        calls.append(keep(*args))
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, attr, recorded)
    return calls


def outcome(fn, *args):
    """fn's result, or the type and text of the SitAspectError it raises."""
    try:
        return fn(*args)
    except SitAspectError as exc:
        return type(exc), str(exc)


def assert_stage_one_decides_as_the_solver(domain) -> Counter:
    """For each action within the bound and each valuation of its
    `_relevant_fluents`, stage 1's precondition clauses hold exactly where
    `_failed_precondition` finds every precondition solvable in the
    valuation's state. Returns how many valuations passed and failed."""
    outcomes = Counter()
    schemas = frozenset(domain.fluents)
    for a in domain.ground_action_list:
        relevant = frames._relevant_fluents(domain, a)
        if len(relevant) > frames._GUARD_FLUENT_LIMIT:
            continue
        k = len(relevant)
        bits = {f: 1 << (k - 1 - i) for i, f in enumerate(relevant)}
        pres = [frames._guard_clauses(domain, pre.guard, env0, bits)[1]
                for pre, env0 in domain.bound("pre", a)]
        for truth in range(2 ** k):
            decided = all(any(truth & mask == want for mask, want, _ in clauses)
                          for clauses in pres)
            state = build_state({(): {f: bool(truth & b) for f, b in bits.items()}},
                                schemas=schemas)
            solved = frames._failed_precondition(domain, state, a) is None
            assert decided == solved, (a, truth)
            outcomes[decided] += 1
    return outcomes


def load_domain(name: str):
    return parse_domain(fixture_text(name), file=name)


def load_model(name: str):
    return parse_model(fixture_text(name), file=name)


@pytest.fixture(scope="session")
def blocks():
    return load_domain("blocks.dom")


@pytest.fixture(scope="session")
def blocks_nosupport():
    return load_domain("blocks_nosupport.dom")


@pytest.fixture(scope="session")
def rooms():
    return load_domain("rooms.dom")


@pytest.fixture(scope="session")
def display():
    return load_domain("display.dom")


@pytest.fixture(scope="session")
def economy():
    return load_domain("economy.dom")


@pytest.fixture(scope="session")
def heater_model():
    return load_model("heater.model")


@pytest.fixture(scope="session")
def heater_all_model():
    return load_model("heater_all.model")


@pytest.fixture(scope="session")
def university_model():
    return load_model("university.model")


BLOCKS_INIT = ("on(a,floor); on(b,floor); on(c,floor); "
               "clear(a); clear(b); clear(c); clear(floor)")

ROOMS_INIT = ("on(a,f1); on(b,f1); on(c,f2); "
              "clear(a); clear(b); clear(c); clear(f1); clear(f2); "
              "at_room(a,r1); at_room(b,r1); at_room(c,r2); "
              "at_room(f1,r1); at_room(f2,r2)")

DISPLAY_INIT = "pixel_lit(p1); cell_set(m1); window_open(); door_open()"


@pytest.fixture(scope="session")
def blocks_init(blocks):
    return parse_state(BLOCKS_INIT, blocks)


@pytest.fixture(scope="session")
def rooms_init(rooms):
    return parse_state(ROOMS_INIT, rooms)


@pytest.fixture(scope="session")
def display_init(display):
    return parse_state(DISPLAY_INIT, display)


def depth2(request, name):
    """The fixture domain `name` and the states within two steps of its
    initial state."""
    domain = request.getfixturevalue(name)
    return domain, reachable_states(domain, request.getfixturevalue(f"{name}_init"), 2)


# A negated literal is a negated existential: it binds nothing, so neither an
# aspect template nor an effect target may read a variable only it names.
NEGATION_ONLY = {
    "aspect": ("aspect move(x,y) ({y,z}) if on(x,z)", "aspect move(x,y) (z) if !on(z,y)",
               "blocks.dom:9:19: error: aspect template variable 'z' is bound by "
               "neither the pattern nor the guard (a negated literal binds nothing)"),
    "effect": ("effect move(x,y) add on(x,y)", "effect move(x,y) add on(x,z) if !on(z,y)",
               "blocks.dom:11:27: error: effect target variable 'z' is bound by "
               "neither the pattern nor the guard (a negated literal binds nothing)"),
}


def negation_only_text(rule: str) -> str:
    """blocks.dom with one rule whose variable z only a negated literal names."""
    old, new, _ = NEGATION_ONLY[rule]
    return fixture_text("blocks.dom").replace(old, new)


ILL_SORTED_TARGET = """domain ill
objects block: a, b
objects place: a, b, t
fluent on(block, place)
action move(block, place)
aspect on(x,w) (w)
aspect move(x,y) (y)
effect move(x,y) add on(x,y)
effect move(x,y) add on(z,y) if on(x,z)
disjoint by seq-diff
"""
