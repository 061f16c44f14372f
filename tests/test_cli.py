"""Command-line behavior: subcommands, exit codes, report determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import sitaspect
from sitaspect.cli import _build_parser, main
from tests.conftest import BLOCKS_INIT, DISPLAY_INIT, FIXTURES, ROOMS_INIT
from tests.test_dsl import NEGATION_ONLY, negation_only_text

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
    return (" ".join(a for a in argv[:2] if not a.startswith("--"))
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


def _parse(capsys, parser, argv):
    """(exit code or parsed arguments, stdout, stderr) of one parse."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_prints_as_the_full_one(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    cases = {"help": [command, "--help"], "missing argument": [command],
             "unknown option": [command, "--nope"],
             "extra positional": [command, "x", "y", "z"]}
    seen = {}
    for what, argv in cases.items():
        seen[what] = _parse(capsys, _build_parser([]), argv)
        assert _parse(capsys, _build_parser(argv), argv) == seen[what], what
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
    code, out, err = _parse(capsys, _build_parser(argv), argv)
    # Where argparse breaks the usage line, and whether it quotes the
    # choices, varies with the Python version; the words and their order do not.
    def words(text):
        return text.replace("'", "").split()
    assert (code, out, words(err)) == (
        3, "", words(USAGE + f"sitaspect: error: {message}\n"))


def test_a_command_builds_its_parser_only(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, out, _ = run(capsys, "query", BLOCKS, "--init", BLOCKS_INIT,
                       "--acts", "move(a,b)", "--fluent", "on(a,b)")
    assert code == 0 and out.startswith("on(a,b) after [move(a,b)] = true (aspect mode)\n")
    assert built == ["sitaspect", "sitaspect query"]
    assert tuple(sitaspect.cli._COMMANDS) == COMMANDS


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
    calls, real = [], sitaspect.frames._net_effects

    def recording(domain, state, a):
        calls.append(str(a))
        return real(domain, state, a)

    monkeypatch.setattr(sitaspect.frames, "_net_effects", recording)
    code, out, _ = run(capsys, "query", BLOCKS, "--mode", "aspect", "--init",
                       "on(a,floor); on(b,floor); clear(a); clear(b); clear(floor)",
                       "--acts", "move(a,b)", "--fluent", "on(a,b)")
    assert code == 0
    assert "[effect-application] move(a,b) sets on(a,b) to True" in out
    assert calls == ["move(a,b)"]


def test_compare_rejects_a_random_count_below_one(capsys):
    for count in ("-3", "0"):
        code, out, err = run(capsys, "compare", BLOCKS, "--random", count,
                             "--init", BLOCKS_INIT)
        assert (code, out) == (3, "")
        assert err == f"error: --random must be at least 1, got {count}\n"


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
])
def test_universe_override_rejects_what_objects_lines_reject(capsys, universe, problem):
    code, out, err = run(capsys, "frames", str(FIXTURES / "display.dom"),
                         "--report", "json", "--universe", universe)
    assert code == 1
    assert out == ""
    assert err == f"error: --universe: {problem}\n"
