"""Successor state axioms compiled from the same effect rules.

Each fluent schema gets one axiom: after an applicable action, the fluent
holds iff some positive effect fired, or it already held and no negative
effect fired. Persistence therefore costs one action-identity test per
negative entry, which is what the recorded traces count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .domain import (Domain, EffectRule, check_ground, ground_fluents, match_args,
                     solve_guard)
from .errors import CrossModeSoundnessError, SchemaError
from .frames import (
    EFFECT_APPLICATION,
    EQUALITY_CHECK,
    INIT_LOOKUP,
    ProofTrace,
    TraceStep,
    applicable_actions,
    derive_frame_axioms,
    progress,
    progression,
    regress_query,
)
from .state import WorldState, eval_fluent
from .terms import GroundAction, GroundFluent


@dataclass(frozen=True)
class SuccessorStateAxiom:
    """The schema's adding (gamma_plus) and deleting (gamma_minus) effect rules."""

    gamma_plus: tuple[EffectRule, ...]
    gamma_minus: tuple[EffectRule, ...]


@dataclass(frozen=True)
class SSASet:
    domain: Domain
    axioms: dict[str, SuccessorStateAxiom]

    def __len__(self) -> int:
        return len(self.axioms)


def compile_ssa(domain: Domain) -> SSASet:
    """One successor state axiom per fluent schema, over every action."""
    axioms = {}
    for schema in sorted(domain.fluents):
        rules = [eff for eff in domain.effects if eff.fluent.schema == schema]
        axioms[schema] = SuccessorStateAxiom(
            gamma_plus=tuple(eff for eff in rules if eff.add),
            gamma_minus=tuple(eff for eff in rules if not eff.add))
    return SSASet(domain=domain, axioms=axioms)


def _entry_fires(domain: Domain, state: WorldState, rule: EffectRule,
                 a: GroundAction, p: GroundFluent) -> bool:
    """Whether the rule fires on p: its guard is solved under a's binding
    alone, as progression solves it, and some solution's target is p."""
    env = match_args(rule.action.args, a.args) if rule.action.schema == a.schema else None
    if env is None or match_args(rule.fluent.args, p.args, env) is None:
        return False
    return any(match_args(rule.fluent.args, p.args, sol) is not None
               for sol in solve_guard(domain, state, rule.guard, env))


def ssa_query(ssas: SSASet, states: Sequence[WorldState],
              acts: Sequence[GroundAction], p: GroundFluent):
    """Evaluate p after `acts` through the successor state axioms.

    `states` is the progression of `acts`, `progression(domain, init, acts)`;
    each step reads the state before its action. Returns (value,
    ProofTrace). Wherever persistence is used, the trace carries one
    equality check per negative entry of p's axiom.
    """
    domain = ssas.domain
    check_ground(domain, p)
    ssa = ssas.axioms[p.schema]
    steps: list[TraceStep] = []
    i = len(acts)
    while i > 0:
        a = acts[i - 1]
        pre = states[i - 1]
        fired_plus = any(_entry_fires(domain, pre, e, a, p) for e in ssa.gamma_plus)
        if fired_plus:
            steps.append(TraceStep(EFFECT_APPLICATION,
                                   "a positive entry makes {} true after {}", (p, a)))
            return True, ProofTrace(tuple(steps))
        fired_minus = False
        for e in ssa.gamma_minus:
            steps.append(TraceStep(EQUALITY_CHECK, "test {} against [{.entry}]", (a, e)))
            if _entry_fires(domain, pre, e, a, p):
                fired_minus = True
                break
        if fired_minus:
            steps.append(TraceStep(EFFECT_APPLICATION,
                                   "a negative entry makes {} false after {}", (p, a)))
            return False, ProofTrace(tuple(steps))
        i -= 1  # persistence: no entry fired
    value = eval_fluent(states[0], p)
    steps.append(TraceStep(INIT_LOOKUP, "{} = {} in the initial state", (p, value)))
    return value, ProofTrace(tuple(steps))


# ---------------------------------------------------------------------------
# Cross-mode comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryRecord:
    acts: tuple[GroundAction, ...]
    fluent: GroundFluent
    aspect_value: object
    ssa_value: object
    oracle_value: object
    aspect_trace_len: int
    ssa_trace_len: int
    agreement: bool


@dataclass(frozen=True)
class ComparisonReport:
    classical_axiom_count: int
    aspect_source_count: int
    ssa_count: int
    queries: tuple[QueryRecord, ...]
    all_agree: bool
    comparable: int
    notes: tuple[str, ...] = ()


def compare_modes(domain: Domain,
                  workload: Sequence[tuple[WorldState, Sequence[GroundAction], GroundFluent]] = ()) -> ComparisonReport:
    """Run each workload query in aspect, SSA, and oracle mode and compare.

    The oracle progresses each query, and the other two modes read its
    states. `frames.progress` computes each (state, action) step once per
    Domain, so the steps the walks already took are read, not recomputed.

    Raises CrossModeSoundnessError on the first disagreement among defined
    results, carrying the offending query as a witness.
    """
    economy = derive_frame_axioms(domain).economy
    classical = sum(r.derived_frame_axioms for r in economy)
    source = sum(r.source_axioms for r in economy)
    ssas = compile_ssa(domain)
    records = []
    comparable = 0
    for init, acts, p in workload:
        acts = tuple(acts)
        oracle_value, states = _oracle(domain, init, acts, p)
        aspect_value, aspect_trace = regress_query(domain, states, acts, p)
        ssa_value, ssa_trace = ssa_query(ssas, states, acts, p)
        defined = [v for v in (aspect_value, ssa_value, oracle_value)
                   if isinstance(v, bool)]
        agree = len(set(defined)) <= 1
        if len(defined) >= 2:
            comparable += 1
        records.append(QueryRecord(
            acts=acts, fluent=p, aspect_value=aspect_value, ssa_value=ssa_value,
            oracle_value=oracle_value, aspect_trace_len=len(aspect_trace),
            ssa_trace_len=len(ssa_trace), agreement=agree))
        if not agree:
            raise CrossModeSoundnessError(
                f"modes disagree on {p} after {[str(a) for a in acts]}: "
                f"aspect={aspect_value} ssa={ssa_value} oracle={oracle_value}",
                witness=(acts, p, aspect_value, ssa_value, oracle_value))
    notes = ("state constraints: none declared (the DSL cannot express them), "
             "so SSA mode participates in equivalence checking",)
    return ComparisonReport(
        classical_axiom_count=classical, aspect_source_count=source,
        ssa_count=len(ssas), queries=tuple(records),
        all_agree=all(r.agreement for r in records), comparable=comparable,
        notes=notes)


def _oracle(domain: Domain, init: WorldState, acts, p: GroundFluent):
    """p in the last state of the progression of `acts`, with the progression."""
    states = progression(domain, init, acts)
    return eval_fluent(states[-1], p), states


_WALK_LIMIT = 4


def random_workload(domain: Domain, init: WorldState, count: int, seed: int):
    """Seeded random applicable walks of 0 to _WALK_LIMIT actions, paired
    with random query fluents."""
    rng = random.Random(seed)
    fluents = ground_fluents(domain)
    if not fluents:
        raise SchemaError(f"domain '{domain.name}' has no ground fluent to query")
    # Walks share their states, so each state's options are computed once per
    # workload; `progress` keeps each step per Domain.
    options_of: dict[WorldState, list[GroundAction]] = {}
    out = []
    for _ in range(count):
        length = rng.randint(0, _WALK_LIMIT)
        state = init
        acts: list[GroundAction] = []
        for _ in range(length):
            if state not in options_of:
                options_of[state] = applicable_actions(domain, state)
            if not options_of[state]:
                break
            a = rng.choice(options_of[state])
            acts.append(a)
            state = progress(domain, state, a)
        out.append((init, tuple(acts), rng.choice(fluents)))
    return out
