"""Command-line front end.

Exit codes: 0 success/pass, 1 domain or model error, 2 soundness or
counterexample finding, 3 usage error. JSON reports are schema-stable,
sorted, newline-terminated, and embed the tool version and seed, so a
repeated invocation with the same seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .disjoint import CommutativeCanonical, SeqExistsDiff, check_monotonicity
from .dsl import parse_actions, parse_domain, parse_ground_fluent, parse_model, parse_state
from .domain import Domain
from .errors import CrossModeSoundnessError, DslError, SchemaError, SitAspectError
from .frames import (
    check_aspect_soundness,
    completeness_lint,
    derive_frame_axioms,
    progression,
    regress_query,
    static_aspect_samples,
)
from .reiter import compare_modes, compile_ssa, random_workload, ssa_query
from .search import reproduce_commutative_pitfall, search_counterexample
from .state import eval_fluent
from .validator import FORMALISMS, verify_theorem


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for `argv`: with only the invoked subcommand declared when
    `argv[0]` names one, else with all of them. The command list in the
    usage line is the same either way."""
    parser = _Parser(prog="sitaspect", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"sitaspect {__version__}")
    one = bool(argv) and argv[0] in _COMMANDS
    # The metavar keeps every command in the usage line of a one-command parser.
    sub = parser.add_subparsers(dest="command", required=True, **(
        {"metavar": "{" + ",".join(_COMMANDS) + "}"} if one else {}))
    for name in [argv[0]] if one else _COMMANDS:
        help_text, _, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--report", choices=("text", "json"), default="text")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except DslError as exc:
        for diag in exc.diagnostics:
            print(diag.render(), file=sys.stderr)
        return 1
    except (SitAspectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _read(path_or_text: str) -> str:
    if path_or_text.startswith("@"):
        return Path(path_or_text[1:]).read_text(encoding="utf-8")
    return path_or_text


def _load_domain(path: str):
    return parse_domain(Path(path).read_text(encoding="utf-8"), file=path)


def _emit(args, command: str, report: dict, text_lines: list[str],
          seed=None) -> None:
    if args.report == "json":
        envelope = {
            "tool": {"name": "sitaspect", "version": __version__},
            "command": command,
            "seed": seed,
            "report": report,
        }
        sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _with_universe(domain: Domain, text: str) -> Domain:
    """The domain with the sorts a `--universe` value ('sort: a, b; sort2: c')
    lists replaced; as in an `objects` line, each sort must be declared and
    given once, with at least one object and no object twice."""
    given: dict[str, tuple[str, ...]] = {}
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        sort, _, names = (s.strip() for s in chunk.partition(":"))
        objs = tuple(n.strip() for n in names.split(",") if n.strip())
        problem = (f"unknown sort '{sort}' in domain '{domain.name}'" if sort not in domain.sorts
                   else f"sort '{sort}' is given twice" if sort in given
                   else f"sort '{sort}' lists no objects" if not objs
                   else f"sort '{sort}' repeats an object" if len(set(objs)) < len(objs)
                   else None)
        if problem:
            raise SchemaError(f"--universe: {problem}")
        given[sort] = objs
    return replace(domain, sorts={**domain.sorts, **given})


def _cmd_check(args) -> int:
    domain = _load_domain(args.domain)
    soundness = check_aspect_soundness(domain)
    completeness = completeness_lint(domain)
    spec = domain.disjointness
    if isinstance(spec, (SeqExistsDiff, CommutativeCanonical)):
        samples = static_aspect_samples(domain)
        mono = check_monotonicity(spec, samples)
        mono_report = {
            "checked": mono.checked,
            "violations": [str(v) for v in mono.violations],
        }
        mono_lines = [f"monotonicity: {mono.checked} extensions checked, "
                      f"{len(mono.violations)} violations"]
        mono_lines += [f"  {v}" for v in mono_report["violations"]]
        mono_bad = bool(mono.violations)
    else:
        mono_report = {"checked": 0, "violations": [],
                       "note": "not applicable to this disjointness kind"}
        mono_lines = ["monotonicity: not applicable to this disjointness kind"]
        mono_bad = False
    violations = [str(v) for v in soundness.violations]
    uncovered = [f"({a}, {p})" for a, p in completeness.uncovered]
    report = {
        "domain": domain.name,
        "soundness": {
            "violations": violations,
            "unresolved": list(soundness.unresolved),
            "actions_checked": soundness.actions_checked,
            "valuations_checked": soundness.valuations_checked,
        },
        "monotonicity": mono_report,
        "completeness": {
            "uncovered_pairs": uncovered,
        },
    }
    lines = [f"domain {domain.name}: loaded",
             f"aspect soundness: {soundness.actions_checked} actions, "
             f"{soundness.valuations_checked} guard valuations, "
             f"{len(violations)} violations"]
    lines += [f"  {v}" for v in violations]
    lines += [f"  note: {u}" for u in soundness.unresolved]
    lines += mono_lines
    lines.append(f"completeness: {len(uncovered)} intersecting "
                 f"pairs without an effect rule or declared frame axiom")
    lines += [f"  {u}" for u in uncovered[:12]]
    if len(uncovered) > 12:
        lines.append(f"  ... and {len(uncovered) - 12} more")
    _emit(args, "check", report, lines)
    return 2 if (soundness.violations or mono_bad) else 0


def _cmd_frames(args) -> int:
    domain = _load_domain(args.domain)
    if args.universe:
        domain = _with_universe(domain, args.universe)
    result = derive_frame_axioms(domain)
    schematic = [ax.render() for ax in result.schematic]
    ground = [ax.render() for ax in result.ground]
    economy = [
        {"fluent_aspect": str(r.fluent_aspect),
         "action_aspect": str(r.action_aspect),
         "m": r.m, "n": r.n,
         "derived_frame_axioms": r.derived_frame_axioms,
         "source_axioms": r.source_axioms}
        for r in result.economy
    ]
    report = {
        "domain": domain.name,
        "schematic": schematic,
        "ground_count": len(ground),
        "ground": ground,
        "economy": economy,
        "errors": list(result.errors),
        "notes": list(result.notes),
    }
    lines = [f"frame axioms for domain {domain.name}", "schematic:"]
    lines += [f"  {ax}" for ax in schematic] or ["  (none)"]
    lines.append(f"ground: {len(ground)} axioms")
    lines += [f"  {ax}" for ax in ground]
    lines.append("economy:")
    if economy:
        lines += [f"  fluents at {r['fluent_aspect']}: {r['m']}, actions at "
                  f"{r['action_aspect']}: {r['n']} -> "
                  f"{r['derived_frame_axioms']} frame axioms from "
                  f"{r['source_axioms']} source axioms" for r in economy]
    else:
        lines.append("  (no unconditional disjoint aspect pairs)")
    for e in result.errors:
        lines.append(f"error: {e}")
    for n in result.notes:
        lines.append(f"note: {n}")
    _emit(args, "frames", report, lines)
    return 0


def _cmd_simulate(args) -> int:
    domain = _load_domain(args.domain)
    state = parse_state(_read(args.init), domain)
    acts = parse_actions(_read(args.acts), domain)
    state = progression(domain, state, acts)[-1]
    items = []
    for f, value, prefix in state.fluents():
        where = "/".join(a.name for a in prefix) or "."
        items.append({"component": where, "fluent": str(f), "value": value})
    report = {"domain": domain.name, "acts": [str(a) for a in acts],
              "final": items}
    lines = [f"final state after {len(acts)} actions:"]
    for item in items:
        lines.append(f"  [{item['component']}] {item['fluent']} = "
                     f"{'true' if item['value'] else 'false'}")
    _emit(args, "simulate", report, lines)
    return 0


def _cmd_query(args) -> int:
    domain = _load_domain(args.domain)
    init = parse_state(_read(args.init), domain)
    acts = parse_actions(_read(args.acts), domain)
    p = parse_ground_fluent(args.fluent, domain)
    states = progression(domain, init, acts)
    if args.mode == "aspect":
        value, trace = regress_query(domain, states, acts, p)
        trace_lines = [str(s) for s in trace.steps]
    elif args.mode == "ssa":
        value, trace = ssa_query(compile_ssa(domain), states, acts, p)
        trace_lines = [str(s) for s in trace.steps]
    else:
        value = eval_fluent(states[-1], p)
        trace_lines = []
    rendered = "undefined" if value is None else "true" if value else "false"
    report = {"fluent": str(p), "acts": [str(a) for a in acts],
              "mode": args.mode, "answer": rendered, "trace": trace_lines}
    lines = [f"{p} after [{'; '.join(str(a) for a in acts)}] = {rendered} "
             f"({args.mode} mode)"]
    lines += [f"  {t}" for t in trace_lines]
    _emit(args, "query", report, lines)
    return 0


def _cmd_compare(args) -> int:
    for flag in ("random", "init"):  # each workload line carries its own INIT
        if args.workload is not None and getattr(args, flag) is not None:
            print(f"error: --workload and --{flag} exclude each other", file=sys.stderr)
            return 3
    domain = _load_domain(args.domain)
    if args.workload is not None:
        workload = []
        for lineno, raw in enumerate(Path(args.workload).read_text(
                encoding="utf-8").splitlines(), start=1):
            raw = raw.split("#", 1)[0].strip()
            if not raw:
                continue
            parts = raw.split("|")
            try:
                if len(parts) != 3:
                    raise SitAspectError("expected INIT | ACTS | FLUENT")
                init = parse_state(parts[0], domain)
                acts = parse_actions(parts[1], domain)
                workload.append((init, acts, parse_ground_fluent(parts[2].strip(), domain)))
                progression(domain, init, acts)  # a failed step names its line
            except SitAspectError as exc:
                # A parse diagnostic's span counts within its field: keep its message.
                message = exc.diagnostics[0].message if isinstance(exc, DslError) else exc
                print(f"{args.workload}:{lineno}: error: {message}", file=sys.stderr)
                return 1
    elif args.random is not None:
        if args.random < 1:
            print(f"error: --random must be at least 1, got {args.random}",
                  file=sys.stderr)
            return 3
        if args.init is None:
            print("error: --random needs --init", file=sys.stderr)
            return 3
        init = parse_state(_read(args.init), domain)
        workload = random_workload(domain, init, args.random, args.seed)
    else:
        print("error: provide --workload or --random", file=sys.stderr)
        return 3
    try:
        result = compare_modes(domain, workload=workload)
    except CrossModeSoundnessError as exc:
        report = {"disagreement": str(exc)}
        _emit(args, "compare", report, [f"DISAGREEMENT: {exc}"], seed=args.seed)
        return 2
    report = {
        "axiom_counts": {
            "classical": result.classical_axiom_count,
            "aspect_source": result.aspect_source_count,
            "ssa": result.ssa_count,
        },
        "queries": len(result.queries),
        "comparable": result.comparable,
        "all_agree": result.all_agree,
        "trace_lengths": [
            {"fluent": str(r.fluent), "acts": [str(a) for a in r.acts],
             "aspect": r.aspect_trace_len, "ssa": r.ssa_trace_len}
            for r in result.queries
        ],
        "notes": list(result.notes),
    }
    lines = [
        f"axiom counts: classical={result.classical_axiom_count} "
        f"aspect-source={result.aspect_source_count} ssa={result.ssa_count}",
        f"queries: {len(result.queries)} ({result.comparable} comparable), "
        f"all agree: {result.all_agree}",
    ]
    _emit(args, "compare", report, lines, seed=args.seed)
    return 0


def _cmd_validate(args) -> int:
    model = parse_model(Path(args.model).read_text(encoding="utf-8"),
                        file=args.model)
    verdict = verify_theorem(args.formalism, model)
    report = {
        "model": model.name,
        "formalism": args.formalism,
        "verdict": verdict.verdict,
        "premises": [
            {"axiom": c.axiom, "subject": c.subject, "holds": c.holds,
             "note": c.note}
            for c in verdict.premises.checks
        ],
        "premise_notes": list(verdict.premises.notes),
        "conclusion_counterexamples": [
            {"fluent": p, "action": a, "situation": s}
            for p, a, s in (verdict.conclusion.counterexamples
                            if verdict.conclusion else ())
        ],
    }
    lines = [f"model {model.name}, formalism {args.formalism}: {verdict.verdict}"]
    for c in verdict.premises.checks:
        status = "holds" if c.holds else "VIOLATED"
        note = f" ({c.note})" if c.note else ""
        lines.append(f"  {c.axiom} [{c.subject}]: {status}{note}")
    for n in verdict.premises.notes:
        lines.append(f"  note: {n}")
    _emit(args, "validate", report, lines)
    return 0 if verdict.verdict == "pass" else 2


def _cmd_search(args) -> int:
    result = search_counterexample(
        args.formalism, max_situations=args.max_situations, seed=args.seed,
        random_samples=args.random_samples,
        random_max_situations=args.random_max_situations)
    report = {
        "formalism": result.formalism,
        "counterexample_found": result.counterexample is not None,
        "exhaustive_models": result.exhaustive_models,
        "exhaustive_premise_models": result.exhaustive_premise_models,
        "random_models": result.random_models,
        "random_premise_models": result.random_premise_models,
        "scope": list(result.scope),
    }
    lines = [
        f"{result.formalism}: "
        + ("COUNTEREXAMPLE FOUND" if result.counterexample else "no counterexample"),
        f"exhaustive: {result.exhaustive_models} models "
        f"({result.exhaustive_premise_models} satisfied the premises)",
        f"random: {result.random_models} models "
        f"({result.random_premise_models} satisfied the premises)",
    ]
    lines += [f"scope: {s}" for s in result.scope]
    _emit(args, "search", report, lines, seed=args.seed)
    return 2 if result.counterexample is not None else 0


def _cmd_pitfall(args) -> int:
    result = reproduce_commutative_pitfall(
        seed=args.seed, exhaustive_max=args.max_situations,
        functional_situations=args.functional_situations,
        random_samples=args.random_samples)
    report = {
        "reproduced": result.reproduced,
        "first_half": {
            "pairs_checked": result.first.pairs_checked,
            "commuting_pairs": result.first.commuting_pairs,
            "violations": result.first.violations,
            "effect_free_everywhere": result.first.effect_free_everywhere,
            "scope": list(result.first.scope),
        },
        "second_half": {
            "model": result.second.model.name,
            "commutativity_holds": result.second.commutativity_holds,
            "premises_hold": result.second.premises_hold,
            "changed_fluent": result.second.changed_fluent,
            "changed_at": result.second.changed_at,
            "naive_premises_hold": result.second.naive_premises_hold,
        },
        "corrected_d_rejects_swap": result.corrected_d_rejects_swap,
    }
    first = result.first
    second = result.second
    lines = [
        "commutativity trap: " + ("reproduced" if result.reproduced else "FAILED"),
        f"half 1 (naive d + commutativity): {first.pairs_checked} relation "
        f"pairs, {first.commuting_pairs} commuting, {first.violations} "
        f"violations of effect-freeness",
        f"half 2 (corrected d): model '{second.model.name}' commutes; premises "
        f"hold: {second.premises_hold}; action changes {second.changed_fluent} "
        f"at {second.changed_at}",
        f"  the same model violates the naive premises: "
        f"{not second.naive_premises_hold}",
        f"corrected d rejects the swapped pair: {result.corrected_d_rejects_swap}",
    ]
    _emit(args, "pitfall", report, lines, seed=args.seed)
    return 0 if result.reproduced else 2


# name -> (help, handler, [(argument, add_argument keywords)]); every
# command also takes --report.
_COMMANDS = {
    "check": ("load a domain and run the annotation lints", _cmd_check, [
        ("domain", {})]),
    "frames": ("derive frame axioms and the economy report", _cmd_frames, [
        ("domain", {}),
        ("--universe", dict(default=None,
                            help="override object universes: 'sort: a, b; sort2: c' "
                                 "(declared sorts only, each object once)"))]),
    "simulate": ("progress an action sequence and dump the final state", _cmd_simulate, [
        ("domain", {}),
        ("--init", dict(required=True, help="state items, or @file")),
        ("--acts", dict(default="",
                        help="actions separated by ';' or newlines, or @file"))]),
    "query": ("answer a fluent query about an action sequence", _cmd_query, [
        ("domain", {}),
        ("--init", dict(required=True)),
        ("--acts", dict(default="")),
        ("--fluent", dict(required=True)),
        ("--mode", dict(choices=("aspect", "ssa", "oracle"), default="aspect"))]),
    "compare": ("compare aspect regression, SSA evaluation, and the oracle", _cmd_compare, [
        ("domain", {}),
        ("--workload", dict(default=None, help="file with lines: INIT | ACTS | FLUENT")),
        ("--random", dict(type=int, default=None,
                          help="generate this many random queries instead")),
        ("--init", dict(default=None, help="base state for --random")),
        ("--seed", dict(type=int, default=0))]),
    "validate": ("verify a formalism's premises and conclusion on a model", _cmd_validate, [
        ("model", {}),
        ("--formalism", dict(required=True, choices=FORMALISMS))]),
    "search": ("bounded counterexample search for a formalism", _cmd_search, [
        ("formalism", dict(choices=FORMALISMS)),
        ("--max-situations", dict(type=int, default=3)),
        ("--seed", dict(type=int, default=0)),
        ("--random-samples", dict(type=int, default=0)),
        ("--random-max-situations", dict(type=int, default=6))]),
    "pitfall": ("reproduce the commutativity specification trap", _cmd_pitfall, [
        ("--seed", dict(type=int, default=0)),
        ("--max-situations", dict(type=int, default=3)),
        ("--functional-situations", dict(type=int, default=4)),
        ("--random-samples", dict(type=int, default=20000))]),
}


if __name__ == "__main__":
    raise SystemExit(main())
