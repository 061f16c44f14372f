"""Every column a diagnostic can carry, pinned against a recorded golden.

Each token of each line of every fixture domain and model, and of a few
`--init`, `--acts` and `--fluent` texts with `;` items, is deleted, then
replaced by `@`, and the diagnostics the parser renders for the result are
compared with `tests/fixtures/diagnostics.golden`. The golden holds one
SHA-256 prefix per line and kind of change, over the rendered diagnostics of
each of the line's changed texts in token order. Deleting a token moves
the end of the line and every column after it, and `@` is a token no rule
accepts, so every path that spans a token or the end of a line is reached.

To record the golden again: `PYTHONPATH=src python -m tests.test_diagnostics_golden`.
"""

from __future__ import annotations

import hashlib
import re

from sitaspect.dsl import (
    parse_actions,
    parse_domain,
    parse_ground_fluent,
    parse_model,
    parse_state,
)
from sitaspect.errors import DslError, SitAspectError
from tests.conftest import FIXTURES, DISPLAY_INIT, fixture_text

GOLDEN = FIXTURES / "diagnostics.golden"

# The surface lexer's tokens, written out here so that the golden does not
# depend on the module under test for where a token starts.
_TOKEN = re.compile(r"->|[A-Za-z0-9_]+(?:-[A-Za-z0-9_]+)*|[(){},:;!&]|\S")

FILES = sorted(p.name for p in FIXTURES.iterdir() if p.suffix in (".dom", ".model"))

# (name, parser, domain fixture, text): each a line of `--init`, `--acts` or
# `--fluent` text, the first two with `;` items over two lines.
GROUND_TEXTS = [
    ("init", parse_state, "blocks.dom", "on(a,floor); clear(a); !clear(b)\n  on(b,c) ;clear(c)"),
    ("init", parse_state, "display.dom", DISPLAY_INIT),
    ("acts", parse_actions, "blocks.dom", "move(a,b); move(b,c)\nmove(c,floor);"),
    ("acts", parse_actions, "display.dom", "light_pixels({p1,p2}); open_window()"),
    ("fluent", parse_ground_fluent, "blocks.dom", "on(a,b)"),
    ("fluent", parse_ground_fluent, "display.dom", "pixel_lit(p2) # a comment"),
]


def _rendered(parse, *args) -> str:
    try:
        parse(*args)
    except DslError as exc:
        return " | ".join(d.render() for d in exc.diagnostics)
    except SitAspectError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _mutants(text: str):
    """(line, kind, changed texts) for each nonblank line: each token
    deleted ('del'), or each replaced by '@' ('at'), in token order."""
    lines = text.split("\n")
    for n, line in enumerate(lines):
        spans = [m.span() for m in _TOKEN.finditer(line.split("#", 1)[0])]
        for kind, repl in (("del", ""), ("at", "@")):
            if spans:
                yield n + 1, kind, ["\n".join(lines[:n] + [line[:a] + repl + line[b:]]
                                              + lines[n + 1:]) for a, b in spans]


def cases():
    """(key, rendered diagnostics of each changed text) for each line and
    kind of change, in a fixed order."""
    for name in FILES:
        parse = parse_domain if name.endswith(".dom") else parse_model
        for line, kind, texts in _mutants(fixture_text(name)):
            yield f"{name} {line} {kind}", [_rendered(parse, t, name) for t in texts]
    domains = {}
    for what, parse, dom, text in GROUND_TEXTS:
        domain = domains.setdefault(dom, parse_domain(fixture_text(dom)))
        for line, kind, texts in _mutants(text):
            yield f"--{what} {dom} {line} {kind}", [_rendered(parse, t, domain) for t in texts]


def _digest(rendered: list[str]) -> str:
    return hashlib.sha256("\n".join(rendered).encode()).hexdigest()[:16]


def _record() -> None:
    GOLDEN.write_text("".join(f"{k}: {_digest(v)}\n" for k, v in cases()), encoding="utf-8")


def test_every_diagnostic_column_matches_the_golden():
    expected = dict(line.split(": ") for line in
                    GOLDEN.read_text(encoding="utf-8").splitlines())
    actual = dict(cases())
    assert list(actual) == list(expected)
    wrong = [f"{k}:\n  " + "\n  ".join(v) for k, v in actual.items()
             if _digest(v) != expected[k]]
    assert not wrong, "\n".join(wrong[:5])


if __name__ == "__main__":
    _record()
