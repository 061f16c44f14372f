"""Command-line behavior: subcommands, exit codes, report determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest

import sitaspect
from sitaspect import cli
from sitaspect.cli import _build_parser, main
from tests.conftest import (BLOCKS_INIT, DISPLAY_INIT, FIXTURES, ILL_SORTED_TARGET,
                            NEGATION_ONLY, ROOMS_INIT, negation_only_text, record_calls)

BLOCKS = str(FIXTURES / "blocks.dom")
ECONOMY = str(FIXTURES / "economy.dom")
HEATER = str(FIXTURES / "heater.model")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitaspect.__file__)))
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "sitaspect", "--version"],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.stdout == f"sitaspect {sitaspect.__version__}\n"


def test_check_blocks_exits_zero(capsys):
    code, out, _ = run(capsys, "check", BLOCKS)
    assert code == 0
    assert "0 violations" in out


def test_frames_matches_golden_file(capsys):
    code, out, _ = run(capsys, "frames", BLOCKS)
    assert code == 0
    golden = (FIXTURES / "frames_blocks.golden").read_text(encoding="utf-8")
    assert out == golden


PINNED_REPORTS = json.loads(
    (FIXTURES / "report_digests.json").read_text(encoding="utf-8"))["reports"]
PINNED_INITS = {"BLOCKS_INIT": BLOCKS_INIT, "DISPLAY_INIT": DISPLAY_INIT,
                "ROOMS_INIT": ROOMS_INIT}


def _pinned_id(pinned) -> str:
    argv = pinned["argv"]
    formalism = argv[argv.index("--formalism") + 1] if "--formalism" in argv else ""
    # A query names its mode and fluent; its walk is pinned by the digest.
    query = (f" {argv[argv.index('--mode') + 1]} {argv[argv.index('--fluent') + 1]}"
             if argv[0] == "query" else "")
    return (" ".join(a for a in argv[:2] if not a.startswith("--")) + query
            + (f" {formalism}" if formalism else "")
            + (" --universe" if "--universe" in argv else "")
            + ("" if "--report" in argv else " text"))


@pytest.mark.parametrize("pinned", PINNED_REPORTS,
                         ids=[_pinned_id(p) for p in PINNED_REPORTS])
def test_json_report_matches_pinned_digest(capsys, pinned):
    # The fixture reports must stay byte-identical; frames_blocks.golden
    # alone never reaches the multi-combination rules of rooms.dom.
    argv = [str(FIXTURES / a) if a.endswith((".dom", ".model")) else
            PINNED_INITS.get(a, a) for a in pinned["argv"]]
    code, out, _ = run(capsys, *argv)
    assert code == pinned["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == pinned["sha256"]


def test_simulate_final_state(capsys):
    code, out, _ = run(capsys, "simulate", BLOCKS, "--init", BLOCKS_INIT,
                       "--acts", "move(a,b)")
    assert code == 0
    assert "on(a,b) = true" in out
    assert "clear(b) = false" in out


def test_simulate_reads_one_action_per_line_from_a_file(tmp_path, capsys):
    acts = tmp_path / "acts.txt"
    acts.write_text("move(a,b)\nmove(c,a)\n", encoding="utf-8")
    code, out, err = run(capsys, "simulate", BLOCKS, "--init", BLOCKS_INIT,
                         "--acts", f"@{acts}")
    assert (code, err) == (0, "")
    assert out.startswith("final state after 2 actions:")
    assert "on(a,b) = true" in out
    assert "on(c,a) = true" in out


def test_query_aspect_mode(capsys):
    code, out, _ = run(capsys, "query", BLOCKS, "--init", BLOCKS_INIT,
                       "--acts", "move(a,b)", "--fluent", "clear(c)",
                       "--mode", "aspect")
    assert code == 0
    assert "= true" in out
    assert "d-evaluation" in out


def test_query_all_modes_agree(capsys):
    answers = []
    for mode in ("aspect", "ssa", "oracle"):
        code, out, _ = run(capsys, "query", BLOCKS, "--init", BLOCKS_INIT,
                           "--acts", "move(a,b)", "--fluent", "clear(b)",
                           "--mode", mode)
        assert code == 0
        answers.append("= false" in out)
    assert answers == [True, True, True]


@pytest.mark.parametrize("fluent, entry", [
    ("on(c,floor)", "move(x,y) -> on(x,z) if on(x,z)"),
    ("clear(c)", "move(x,y) -> clear(y)"),
], ids=["on(c,floor)", "clear(c)"])
def test_ssa_query_traces_name_each_negative_entry(capsys, fluent, entry):
    init = ("on(a,floor); on(b,floor); on(c,floor); clear(a); clear(b); "
            "clear(c); clear(floor)")
    code, out, err = run(capsys, "query", BLOCKS, "--init", init,
                         "--acts", "move(a,b)", "--fluent", fluent, "--mode", "ssa")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{fluent} after [move(a,b)] = true (ssa mode)",
        f"  [equality-check] test move(a,b) against [{entry}]",
        f"  [init-lookup] {fluent} = True in the initial state",
    ]


@pytest.mark.parametrize("command", [
    ["query", "--fluent", "clear(a)", "--mode", "aspect"],
    ["query", "--fluent", "clear(a)", "--mode", "ssa"],
    ["query", "--fluent", "clear(a)", "--mode", "oracle"],
    ["simulate"],
], ids=" ".join)
def test_inapplicable_step_is_named_in_every_mode(capsys, command):
    code, out, err = run(capsys, command[0], BLOCKS, "--init", BLOCKS_INIT,
                         "--acts", "move(a,b); move(b,c)", *command[1:])
    assert (code, out) == (1, "")
    assert err == "error: step 2 (move(b,c)): move(b,c): precondition does not hold\n"


def test_an_ill_sorted_precondition_fluent_is_not_outside_the_model(tmp_path, capsys):
    # !on(y,u) reads on(floor,u) under move(a,floor), yet floor is no block:
    # no such fluent exists, so only the precondition fails.
    text = (FIXTURES / "blocks.dom").read_text(encoding="utf-8").replace(
        "pre move(x,y) clear(x) & clear(y)", "pre move(x,y) clear(x) & !on(y,u)")
    domain = tmp_path / "blocks_pre.dom"
    domain.write_text(text, encoding="utf-8")
    for act in ("move(a,floor)", "move(a,c)"):
        code, out, err = run(capsys, "simulate", str(domain), "--init", "on(a,b)",
                             "--acts", act)
        assert (code, out) == (1, "")
        assert err == f"error: step 1 ({act}): {act}: precondition does not hold\n"


@pytest.mark.parametrize("command, target", [
    (["simulate", "--init", "on(a,t)", "--acts", "move(b,a); move(a,b)"],
     "step 2 (move(a,b)): move(a,b) affects on(t,b)"),
    (["query", "--init", "on(a,t)", "--acts", "move(a,b)", "--fluent", "on(a,b)",
      "--mode", "ssa"], "step 1 (move(a,b)): move(a,b) affects on(t,b)"),
    (["check"], "move(a,a) affects on(t,a)"),
], ids=["simulate", "query", "check"])
def test_an_ill_sorted_effect_target_is_named_with_its_action(
        tmp_path, capsys, command, target):
    # on(z,y) with z the place t names no fluent: t is no block.
    domain = tmp_path / "ill.dom"
    domain.write_text(ILL_SORTED_TARGET, encoding="utf-8")
    code, out, err = run(capsys, command[0], str(domain), *command[1:])
    assert (code, out) == (1, "")
    assert err == f"error: {target}: 't' is not an object of sort 'block'\n"


def test_validate_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "validate", HEATER, "--formalism", "rel-exists")
    assert code == 0
    assert "pass" in out
    # The same model checked against the functional variant is vacuous or a
    # model error; either way not a pass. r4 is not total, so model error.
    code, _, err = run(capsys, "validate", HEATER, "--formalism", "fun")
    assert code == 1
    assert "function" in err


def test_check_unsound_domain_exit_two(tmp_path, capsys):
    text = (FIXTURES / "blocks.dom").read_text(encoding="utf-8").replace(
        "aspect move(x,y) ({y,z}) if on(x,z)", "aspect move(x,y) ({y})")
    bad = tmp_path / "broken.dom"
    bad.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 2
    assert "disjoint" in out


@pytest.mark.parametrize("report", ["text", "json"])
def test_check_renders_a_monotonicity_suffix_as_a_path(tmp_path, capsys, report):
    domain = tmp_path / "mono.dom"
    domain.write_text("domain mono\nfluent p()\naction go()\naspect p() (b)\n"
                      "aspect go() (a, b)\neffect go() add p()\n"
                      "disjoint by commutative(a b)\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(domain), "--report", report)
    assert code == 2
    violations = (out.splitlines()[4:7] if report == "text" else
                  json.loads(out)["report"]["monotonicity"]["violations"])
    assert [v.strip() for v in violations] == [
        f"extend-fluent-path: d((b),(a,b)) holds but fails after extending with {suffix}"
        for suffix in ("(a)", "(a,b)", "(b,a)")]


def _economy_under(tmp_path, spec: str) -> str:
    domain = tmp_path / "economy.dom"
    domain.write_text((FIXTURES / "economy.dom").read_text(encoding="utf-8").replace(
        "disjoint by seq-diff", f"disjoint by {spec}"), encoding="utf-8")
    return str(domain)


@pytest.mark.parametrize("spec", ["simple", "table (alpha)(beta)"])
def test_check_says_monotonicity_does_not_apply_to_a_kind(tmp_path, capsys, spec):
    domain = _economy_under(tmp_path, spec)
    code, out, _ = run(capsys, "check", domain)
    assert code == 0
    assert "monotonicity: not applicable to this disjointness kind" in out.splitlines()
    code, out, _ = run(capsys, "check", domain, "--report", "json")
    assert code == 0
    assert json.loads(out)["report"]["monotonicity"] == {
        "checked": 0, "violations": [], "note": "not applicable to this disjointness kind"}


@pytest.mark.parametrize("spec", ["commutative(all)", "table (alpha)(beta)"])
def test_frames_derives_schematic_axioms_for_element_difference_only(tmp_path, capsys, spec):
    code, out, _ = run(capsys, "frames", _economy_under(tmp_path, spec))
    assert code == 0
    lines = out.splitlines()
    assert lines[1:4] == ["schematic:", "  (none)", "ground: 35 axioms"]
    assert lines[-1] == ("note: schematic axioms are derived for element-difference "
                         "specifications only; ground listing still applies")


def test_frames_names_atoms_whose_aspect_rules_never_apply(tmp_path, capsys):
    domain = tmp_path / "clash.dom"
    domain.write_text("domain clash\nobjects obj: a, b\nfluent on(obj, obj)\n"
                      "action never(obj)\naspect on(x,y) (x)\n"
                      "aspect never(x) (x) if on(x,y) & !on(x,y)\n"
                      "disjoint by seq-diff\n", encoding="utf-8")
    code, out, err = run(capsys, "frames", str(domain))
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "error: aspect rules for action never(a) have unsatisfiable guards",
        "error: aspect rules for action never(b) have unsatisfiable guards"]


def test_domain_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.dom"
    bad.write_text("domain bad\nfluent p()\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "has no aspect rule" in err


@pytest.mark.parametrize("rule", sorted(NEGATION_ONLY))
@pytest.mark.parametrize("command", [
    ["check"], ["frames"],
    ["query", "--init", BLOCKS_INIT, "--acts", "move(a,b)", "--fluent", "clear(c)"],
], ids=lambda command: command[0])
def test_a_variable_only_a_negated_literal_names_is_a_parse_error(
        tmp_path, capsys, command, rule):
    bad = tmp_path / "blocks.dom"
    bad.write_text(negation_only_text(rule), encoding="utf-8")
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out) == (1, "")
    assert err.startswith(f"{bad}:{NEGATION_ONLY[rule][2].split(':', 1)[1]}")


def test_usage_error_exit_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])  # missing required arguments
    assert exc.value.code == 3


COMMANDS = ("check", "frames", "simulate", "query", "compare", "validate",
            "search", "pitfall")

USAGE = ("usage: sitaspect [-h] [--version]\n"
         "                 {check,frames,simulate,query,compare,validate,search,pitfall}\n"
         "                 ...\n")


def _parse(capsys, read, argv):
    """(exit code or parsed arguments, stdout, stderr) of `read(argv)`."""
    try:
        result = vars(read(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _main_parse(argv):
    """The arguments `main` reads from argv, returned instead of run."""
    table = {name: (help_text, lambda args: args, arguments)
             for name, (help_text, _, arguments) in cli._COMMANDS.items()}
    with mock.patch.dict(cli._COMMANDS, table):
        return main(argv)


def _argparse(argv):
    return _build_parser().parse_args(argv)


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_prints_as_the_full_one(capsys, monkeypatch, command):
    # `main` reads each command's argv as the full parser does.
    monkeypatch.setenv("COLUMNS", "80")
    cases = {"help": [command, "--help"], "missing argument": [command],
             "unknown option": [command, "--nope"],
             "extra positional": [command, "x", "y", "z"]}
    seen = {}
    for what, argv in cases.items():
        seen[what] = _parse(capsys, _argparse, argv)
        assert _parse(capsys, _main_parse, argv) == seen[what], what
    assert seen["help"][0] == 0
    assert seen["help"][1].startswith(f"usage: sitaspect {command} ")
    assert seen["unknown option"][0] == seen["extra positional"][0] == 3


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'check', "
                "'frames', 'simulate', 'query', 'compare', 'validate', 'search', "
                "'pitfall')"),
])
def test_no_or_unknown_command_lists_every_command(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _parse(capsys, _main_parse, argv)
    # Where argparse breaks the usage line, and whether it quotes the
    # choices, varies with the Python version; the words and their order do not.
    def words(text):
        return text.replace("'", "").split()
    assert (code, out, words(err)) == (
        3, "", words(USAGE + f"sitaspect: error: {message}\n"))


def _specs(command):
    return (cli._REPORT, *cli._COMMANDS[command][2])


_FLAGS = sorted({flag for command in COMMANDS for flag, _ in _specs(command)
                 if flag.startswith("-")})
_VALUES = sorted({str(choice) for command in COMMANDS for _, kwargs in _specs(command)
                  for choice in kwargs.get("choices", ())}
                 | {"0", "3", "-1", "1.5", "x", "a b", "", "@f", "bogus", "-", "--"})
_WORDS = (*COMMANDS, *_FLAGS, *(flag[:5] for flag in _FLAGS), *_VALUES,
          "-h", "--help", "--version")


def test_main_reads_every_argv_as_argparse_does(capsys, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @st.composite
    def argvs(draw):
        """A command's argv: its arguments, each mostly given with a good value,
        an option sometimes abbreviated, joined by '=' or repeated; in any order,
        with at times a word from anywhere in the table put in."""
        command = draw(st.sampled_from(COMMANDS))
        items = []
        for flag, kwargs in _specs(command):
            good = [str(c) for c in kwargs.get("choices", ())] or (
                ["0", "3"] if "type" in kwargs else ["x", "@f", "a b"])
            if draw(st.integers(0, 7)):
                value = draw(st.sampled_from(_VALUES if not draw(st.integers(0, 5)) else good))
                if not flag.startswith("-"):
                    items.append([value])
                    continue
                form = draw(st.integers(0, 11))
                spelled = flag[:draw(st.integers(3, len(flag)))] if form == 1 else flag
                items.append([f"{spelled}={value}"] if form == 2 else [spelled, value])
                if form == 3:
                    items.append([flag, draw(st.sampled_from(good))])
        argv = [command, *(word for item in draw(st.permutations(items)) for word in item)]
        for _ in range(draw(st.integers(0, 2)) * (not draw(st.integers(0, 3)))):
            word = draw(st.sampled_from(_WORDS) | st.builds(
                "{}={}".format, st.sampled_from(_FLAGS), st.sampled_from(_VALUES)))
            argv.insert(draw(st.integers(1, len(argv))), word)
        return argv

    monkeypatch.setenv("COLUMNS", "80")
    paths = Counter()

    @settings(max_examples=1000, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs())
    def check(argv):
        expected = _parse(capsys, _argparse, argv)
        assert _parse(capsys, _main_parse, argv) == expected
        plain = cli._read_plain(argv)
        assert plain is None or vars(plain) == expected[0]
        paths["plain" if plain else "usage error" if expected[0] == 3 else "argparse"] += 1

    check()
    assert min(paths.values()) >= 100, paths


def test_a_plain_command_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, out, _ = run(capsys, "query", BLOCKS, "--init", BLOCKS_INIT,
                       "--acts", "move(a,b)", "--fluent", "on(a,b)")
    assert code == 0 and out.startswith("on(a,b) after [move(a,b)] = true (aspect mode)\n")
    assert built == []
    full = ["sitaspect", *(f"sitaspect {command}" for command in COMMANDS)]
    for argv in (["query", "--help"], ["query", BLOCKS, "--mode", "bogus"]):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == full, argv
        built.clear()
    capsys.readouterr()
    assert tuple(cli._COMMANDS) == COMMANDS


def test_search_exit_zero(capsys):
    code, out, _ = run(capsys, "search", "fun", "--max-situations", "2",
                       "--random-samples", "50")
    assert code == 0
    assert "no counterexample" in out


@pytest.mark.parametrize("argv, problem", [
    (["search", "rel-exists", "--random-samples", "5",
      "--random-max-situations", "1"], "random situations must be at least 2, got 1"),
    (["search", "rel-exists", "--random-samples", "-5"],
     "random samples must be at least 0, got -5"),
    (["search", "rel-exists", "--max-situations", "-1"],
     "exhaustive situations must be at least 1, got -1"),
    (["pitfall", "--max-situations", "0"],
     "exhaustive situations must be at least 1, got 0"),
    (["pitfall", "--functional-situations", "0"],
     "functional situations must be at least 1, got 0"),
    (["pitfall", "--random-samples", "-1"],
     "random samples must be at least 0, got -1"),
], ids=["search-random-size", "search-samples", "search-size", "pitfall-size",
        "pitfall-functional-size", "pitfall-samples"])
def test_search_and_pitfall_reject_out_of_range_sizes(capsys, argv, problem):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {problem}\n"


def test_search_ignores_the_random_size_without_samples(capsys):
    code, out, _ = run(capsys, "search", "rel-exists", "--max-situations", "1",
                       "--random-max-situations", "1")
    assert code == 0
    assert "no counterexample" in out


# Report paths that no pinned digest reaches, each pinned by its stdout.
PLANTED_SEARCH_TEXT = (
    "rel-exists: COUNTEREXAMPLE FOUND\n"
    "exhaustive: 6 models (6 satisfied the premises)\n"
    "random: 0 models (0 satisfied the premises)\n"
    "scope: exhaustive over 1..2 situations, one checked aspect, one action, "
    "all valuations, witnesses searched over all predicates\n")


def test_search_reports_a_planted_counterexample(monkeypatch, capsys):
    # Every valuation definable, as in test_search: a counterexample is found.
    monkeypatch.setattr(sitaspect.search, "_defined", lambda rows, q, universal: q)
    argv = ["search", "rel-exists", "--max-situations", "2"]
    assert run(capsys, *argv) == (2, PLANTED_SEARCH_TEXT, "")
    code, out, err = run(capsys, *argv, "--report", "json")
    assert (code, err) == (2, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5a17696bd07e956159e8b6b96753c806b09a887a95f4989d3e22d984be8bbc49")
    report = json.loads(out)["report"]
    assert report["counterexample_found"] is True
    assert "counterexample" not in report


def test_pitfall_reports_a_failed_first_half(monkeypatch, capsys):
    monkeypatch.setattr(sitaspect.search, "_naive_trap_violations", lambda n, r0, r1: 1)
    code, out, err = run(capsys, "pitfall", "--max-situations", "2",
                         "--functional-situations", "2", "--random-samples", "10",
                         "--report", "json")
    assert (code, err) == (2, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "65ebfde5623cf5ca61036bf48ecd432cc14fe4bee530844f93ec651394d8f93b")
    report = json.loads(out)["report"]
    assert report["reproduced"] is False
    assert report["first_half"]["effect_free_everywhere"] is False
    assert report["second_half"]["model"] == "mesh-witness"


def test_validate_reports_a_vacuous_verdict_in_json(capsys):
    code, out, err = run(capsys, "validate", HEATER, "--formalism", "rel-forall",
                         "--report", "json")
    assert (code, err) == (2, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "e4fe9a493f3ae29d5e696ddc5b7f7a636222bacb90fab9d8ea400dd2f8555885")
    report = json.loads(out)["report"]
    assert report["verdict"] == "vacuous"
    assert report["premises"]
    assert all(sorted(p) == ["axiom", "holds", "note", "subject"]
               for p in report["premises"])


def test_compare_random_workload(capsys):
    code, out, _ = run(capsys, "compare", BLOCKS, "--random", "20",
                       "--seed", "5", "--init", BLOCKS_INIT)
    assert code == 0
    assert "all agree: True" in out


def test_compare_random_accepts_the_empty_init_state(tmp_path, capsys):
    # '' is the all-false state, given inline or as an empty file.
    empty = tmp_path / "empty.state"
    empty.write_text("", encoding="utf-8")
    display = str(FIXTURES / "display.dom")
    reports = [run(capsys, "compare", display, "--random", "10", "--seed", "3",
                   "--init", init, "--report", "json") for init in ("", f"@{empty}")]
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and '"all_agree": true' in reports[0][1]
    code, out, err = run(capsys, "compare", display, "--random", "10")
    assert (code, out, err) == (3, "", "error: --random needs --init\n")


def test_compare_random_needs_a_fluent_to_query(tmp_path, capsys):
    domain = tmp_path / "z.dom"
    domain.write_text("domain z\nobjects o: a\naction go(o)\naspect go(x) (x)\n"
                      "disjoint by seq-diff\n", encoding="utf-8")
    code, out, err = run(capsys, "compare", str(domain), "--random", "2", "--init", "")
    assert (code, out, err) == (1, "", "error: domain 'z' has no ground fluent to query\n")


def test_query_in_aspect_mode_takes_an_intersecting_step_once(capsys, monkeypatch):
    # Regression reads the effects that the progression already resolved.
    calls = record_calls(monkeypatch, sitaspect.frames, "_net_effects",
                         lambda domain, state, a: str(a))
    code, out, _ = run(capsys, "query", BLOCKS, "--mode", "aspect", "--init",
                       "on(a,floor); on(b,floor); clear(a); clear(b); clear(floor)",
                       "--acts", "move(a,b)", "--fluent", "on(a,b)")
    assert code == 0
    assert "[effect-application] move(a,b) sets on(a,b) to True" in out
    assert calls == ["move(a,b)"]


# go()'s aspect resolves only while p() holds, and no init below makes it hold.
TWO_ACTIONS = ("domain two\nfluent p()\nfluent q()\naction go()\naction stay()\n"
               "aspect p() (a)\naspect q() (b)\naspect go() (a) if p()\naspect stay() (c)\n"
               "effect go() del p()\neffect stay() add q()\n")


@pytest.mark.parametrize("seed", ["1", "2"])
def test_compare_random_passes_a_step_whose_aspect_does_not_resolve(tmp_path, capsys, seed):
    domain = tmp_path / "two.dom"
    domain.write_text(TWO_ACTIONS, encoding="utf-8")
    code, out, err = run(capsys, "compare", str(domain), "--random", "20", "--init", "q()",
                         "--seed", seed)
    assert (code, err) == (0, "")
    assert "queries: 20 (20 comparable), all agree: True" in out


@pytest.mark.parametrize("acts, fluent, expected", [
    ("go(); stay()", "p()",
     ["p() after [go(); stay()] = false (aspect mode)",
      "  [d-evaluation] d((a),(c)) = True for p() vs stay()",
      "  [aspect-lookup] no aspect rule applies to go() in this state",
      "  [effect-application] go() sets p() to False"]),
    ("go()", "q()",
     ["q() after [go()] = undefined (aspect mode)",
      "  [aspect-lookup] no aspect rule applies to go() in this state",
      "  [no-axiom] no d was established for q() vs go() and no axiom resolves it"]),
], ids=["effect", "no-axiom"])
def test_query_records_an_aspect_lookup_that_fails_and_falls_through(
        tmp_path, capsys, acts, fluent, expected):
    domain = tmp_path / "two.dom"
    domain.write_text(TWO_ACTIONS, encoding="utf-8")
    code, out, err = run(capsys, "query", str(domain), "--mode", "aspect", "--init", "q()",
                         "--acts", acts, "--fluent", fluent)
    assert (code, err) == (0, "")
    assert out.splitlines() == expected


def test_compare_rejects_a_random_count_below_one(capsys):
    for count in ("-3", "0"):
        code, out, err = run(capsys, "compare", BLOCKS, "--random", count,
                             "--init", BLOCKS_INIT)
        assert (code, out) == (3, "")
        assert err == f"error: --random must be at least 1, got {count}\n"


def test_compare_needs_a_workload_or_a_random_count(capsys):
    code, out, err = run(capsys, "compare", BLOCKS)
    assert (code, out, err) == (3, "", "error: provide --workload or --random\n")


def test_compare_rejects_a_workload_with_random(capsys):
    code, out, err = run(capsys, "compare", BLOCKS, "--workload", "queries.txt",
                         "--random", "3", "--init", BLOCKS_INIT)
    assert (code, out, err) == (3, "", "error: --workload and --random exclude each other\n")


def test_compare_rejects_a_workload_with_init(capsys):
    # Each workload line carries its own INIT, so --init would go unread;
    # the check comes before any file is read, the domain included.
    code, out, err = run(capsys, "compare", "missing.dom", "--workload", "Q",
                         "--init", "zz(q)")
    assert (code, out, err) == (3, "", "error: --workload and --init exclude each other\n")


def test_compare_detects_unsound_domain(tmp_path, capsys):
    text = (FIXTURES / "blocks.dom").read_text(encoding="utf-8").replace(
        "aspect move(x,y) ({y,z}) if on(x,z)", "aspect move(x,y) ({y})")
    bad = tmp_path / "broken.dom"
    bad.write_text(text, encoding="utf-8")
    workload = tmp_path / "workload.txt"
    workload.write_text(f"{BLOCKS_INIT} | move(a,b) | on(a,floor)\n",
                        encoding="utf-8")
    code, out, _ = run(capsys, "compare", str(bad), "--workload", str(workload))
    assert code == 2
    assert "DISAGREEMENT" in out


@pytest.mark.parametrize("command", [
    ["frames"], ["compare", "--random", "3", "--init", DISPLAY_INIT]],
    ids=lambda command: command[0])
def test_a_spec_that_rejects_an_aspect_pair_exits_one(tmp_path, capsys, command):
    text = (FIXTURES / "display.dom").read_text(encoding="utf-8")
    bad = tmp_path / "display.dom"
    bad.write_text(text.replace("disjoint by seq-diff", "disjoint by simple"),
                   encoding="utf-8")
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out) == (1, "")
    # The economy's pairs are evaluated first, so one of them is named.
    assert err == ("error: simple inequality needs single-element paths, "
                   "got (computer,display,{p1}) and ()\n")


@pytest.mark.parametrize("line, problem", [
    (f"{BLOCKS_INIT} | move(a,zz) | on(a,floor)",
     "move(a,zz): 'zz' is not an object of sort 'place'"),
    (f"{BLOCKS_INIT} | move(a,b) | onn(a,floor)", "unknown fluent schema 'onn'"),
    (f"{BLOCKS_INIT} | move(a | on(a,floor)", "unexpected end of line"),
    (f"{BLOCKS_INIT} | move(a,b)", "expected INIT | ACTS | FLUENT"),
    ("on(a,floor) | move(a,b) | on(a,b)",
     "step 1 (move(a,b)): move(a,b): precondition does not hold"),
], ids=["object", "fluent", "syntax", "fields", "progression"])
def test_compare_names_the_workload_line_of_an_error(tmp_path, capsys, line, problem):
    workload = tmp_path / "workload.txt"
    workload.write_text(f"# queries\n{BLOCKS_INIT} | move(a,b) | on(a,b)\n{line}\n",
                        encoding="utf-8")
    code, out, err = run(capsys, "compare", BLOCKS, "--workload", str(workload))
    assert (code, out) == (1, "")
    assert err == f"{workload}:3: error: {problem}\n"


def test_json_reports_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "search", "rel-exists", "--report", "json",
                           "--max-situations", "2", "--seed", "9",
                           "--random-samples", "100")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    envelope = json.loads(outputs[0])
    assert envelope["tool"]["name"] == "sitaspect"
    assert envelope["seed"] == 9
    assert envelope["report"]["counterexample_found"] is False
    assert outputs[0].endswith("\n")


def test_json_report_for_pitfall_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "pitfall", "--report", "json",
                           "--max-situations", "2",
                           "--functional-situations", "3",
                           "--random-samples", "100")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["report"]["reproduced"] is True


def test_frames_economy_counts_in_json(capsys):
    code, out, _ = run(capsys, "frames", ECONOMY, "--report", "json")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["economy"][0]["derived_frame_axioms"] == 35
    assert report["economy"][0]["source_axioms"] == 14


def test_universe_override(capsys):
    code, out, _ = run(capsys, "frames", BLOCKS, "--report", "json",
                       "--universe", "block: a, b; place: a, b, floor")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["ground_count"] == 0


@pytest.mark.parametrize("universe, problem", [
    ("pixel: p1, p1, p2", "sort 'pixel' repeats an object"),
    ("pixl: p1", "unknown sort 'pixl' in domain 'display'"),
    ("pixel: p1; pixel: p2", "sort 'pixel' is given twice"),
    ("pixel:", "sort 'pixel' lists no objects"),
    ("pixel: p1 p2", "'p1 p2' in sort 'pixel' is not an object name"),
    ("pixel: p1,,p2", "'' in sort 'pixel' is not an object name"),
    ("pixel: p(1)", "'p(1)' in sort 'pixel' is not an object name"),
])
def test_universe_override_rejects_what_objects_lines_reject(capsys, universe, problem):
    code, out, err = run(capsys, "frames", str(FIXTURES / "display.dom"),
                         "--report", "json", "--universe", universe)
    assert code == 1
    assert out == ""
    assert err == f"error: --universe: {problem}\n"
