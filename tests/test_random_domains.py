"""Differential checks over randomly generated domains.

Two cross-checks that pit independent machinery against each other:

* If the static annotation soundness check is clean, no reachable state may
  show a disjoint pair whose fluent the action changes (the static check
  enumerates a superset of the reachable guard valuations).
* Aspect regression, SSA evaluation, and the progression oracle must agree
  on every defined query, whatever the (possibly badly annotated) domain's
  effects look like, as long as the annotations are sound.
"""

from __future__ import annotations

import random

from sitaspect.disjoint import SeqExistsDiff, d_eval
from sitaspect.domain import (
    AspectRule,
    Domain,
    EffectRule,
    Pat,
    Schema,
    ground_fluents,
    initial_state,
)
from sitaspect.frames import (
    applicable_actions,
    aspect_of_action,
    aspect_of_fluent,
    check_aspect_soundness,
    progress,
)
from sitaspect.reiter import compare_modes, random_workload
from sitaspect.state import eval_fluent
from sitaspect.terms import AspectAtom
from tests.conftest import reachable_states


def _random_domain(rng: random.Random) -> Domain:
    """A propositional domain with random aspects and random effects.

    Fluents p0..p3 and actions a0..a2 get aspect atoms drawn from a small
    pool; each action receives add/del effects on random fluents, guarded by
    a random fluent or unguarded. Annotations are by construction sound:
    every effect target's aspect atom is merged into the action's aspect set.
    """
    atoms = ["u", "v", "w"]
    fluents = {f"p{i}": Schema(f"p{i}") for i in range(4)}
    actions = {f"a{i}": Schema(f"a{i}") for i in range(3)}
    fluent_aspect = {name: rng.choice(atoms) for name in fluents}
    rules = [AspectRule(kind="fluent", target=Pat(name),
                        template=(AspectAtom(fluent_aspect[name]),))
             for name in fluents]
    effects = []
    action_atoms: dict[str, set[str]] = {name: set() for name in actions}
    for name in actions:
        for _ in range(rng.randint(0, 3)):
            target = rng.choice(sorted(fluents))
            guard = ()
            if rng.random() < 0.4:
                guard = (eval_guard(rng.choice(sorted(fluents)),
                                    positive=rng.random() < 0.8),)
            effects.append(EffectRule(action=Pat(name), add=rng.random() < 0.5,
                                      fluent=Pat(target), guard=guard))
            action_atoms[name].add(fluent_aspect[target])
    for name in actions:
        touched = sorted(action_atoms[name]) or [rng.choice(atoms)]
        template = (frozenset_template(touched),)
        rules.append(AspectRule(kind="action", target=Pat(name),
                                template=template))
    return Domain(name="random", sorts={}, fluents=fluents, actions=actions,
                  aspect_rules=tuple(rules), effects=tuple(effects),
                  disjointness=SeqExistsDiff())


def eval_guard(fluent_name: str, positive: bool):
    from sitaspect.domain import GuardLiteral

    return GuardLiteral(fluent=Pat(fluent_name), positive=positive)


def frozenset_template(names):
    from sitaspect.domain import SetTemplate

    return SetTemplate(frozenset(AspectAtom(n) for n in names))


def test_sound_domains_never_violate_noninterference():
    rng = random.Random(2061)
    for trial in range(60):
        domain = _random_domain(rng)
        assert check_aspect_soundness(domain).clean, trial
        init = initial_state(domain, [p for p in ground_fluents(domain)
                                      if rng.random() < 0.5])
        fluents = ground_fluents(domain)
        for state in reachable_states(domain, init, 3):
            for a in applicable_actions(domain, state):
                beta = aspect_of_action(domain, state, a)
                after = progress(domain, state, a)
                for p in fluents:
                    alpha = aspect_of_fluent(domain, state, p)
                    if d_eval(domain.disjointness, alpha, beta):
                        assert eval_fluent(after, p) == eval_fluent(state, p), \
                            (trial, str(a), str(p))


def test_modes_agree_on_random_domains():
    rng = random.Random(907)
    for trial in range(30):
        domain = _random_domain(rng)
        init = initial_state(domain, [p for p in ground_fluents(domain)
                                      if rng.random() < 0.5])
        workload = random_workload(domain, init, 25, seed=trial)
        report = compare_modes(domain, workload=workload)  # raises on mismatch
        assert report.all_agree, trial


def test_planted_overreach_is_caught():
    # Shrink one action's aspect below its effect targets: the static check
    # must notice.
    rng = random.Random(5)
    found = 0
    for _ in range(40):
        domain = _random_domain(rng)
        widest = max(domain.actions,
                     key=lambda n: sum(e.action.schema == n for e in domain.effects))
        if not any(e.action.schema == widest for e in domain.effects):
            continue
        narrowed = []
        for rule in domain.aspect_rules:
            if rule.kind == "action" and rule.target.schema == widest:
                narrowed.append(AspectRule(kind="action", target=rule.target,
                                           template=(AspectAtom("elsewhere"),)))
            else:
                narrowed.append(rule)
        broken = Domain(name=domain.name, sorts=domain.sorts,
                        fluents=domain.fluents, actions=domain.actions,
                        aspect_rules=tuple(narrowed), effects=domain.effects,
                        disjointness=domain.disjointness)
        report = check_aspect_soundness(broken)
        if any(v.action.schema == widest for v in report.violations):
            found += 1
    assert found > 20
