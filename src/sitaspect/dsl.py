"""Line-oriented surface syntax for domains, finite models, and states.

One declaration per line; '#' starts a comment. Parse failures raise
DslError carrying spanned diagnostics. Parsing is deterministic: the same
text always yields the same structures, and unparse/parse round-trips.

Every list is written `(item, ...)`, possibly empty; the one exception is
the `objects SORT: name, ...` list, which is nonempty and unparenthesized.
Where a path or ground argument may be a set it is a nonempty
`{name, ...}`. Keys that may be declared only once: in a domain, the
`domain` header, each sort's `objects`, each schema name, each fluent's
`home`, and `disjoint by`; in a model, the `model` header, each
situation, each action's successor of a situation, each
`aspect fluent|action NAME`, each `witness F FORM` and each
`cwitness F FORM ELEM`.

In a model, a fluent with an `aspect fluent` line and no `val` line has the
empty valuation: it is false in every situation.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

from .disjoint import (
    CommutativeCanonical,
    DisjointnessSpec,
    ExplicitTable,
    SeqExistsDiff,
    SimpleInequality,
)
from .domain import (
    AspectRule,
    Domain,
    EffectRule,
    FrameDecl,
    GuardLiteral,
    MemberGuard,
    Pat,
    Precondition,
    Schema,
    SetTemplate,
    SortRef,
    Var,
    _template_members,
    check_ground,
    check_rule_exclusivity,
    initial_state,
)
from .errors import DslError
from .finite import FiniteModel
from .terms import AspectAtom, AspectPath, AspectSet, GroundAction, GroundFluent
from .validator import FORMALISMS


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str
    hint: str = ""

    def render(self) -> str:
        out = f"{self.span}: error: {self.message}"
        if self.hint:
            out += f" ({self.hint})"
        return out


_NAME_RE = re.compile(r"[A-Za-z0-9_]+(?:-[A-Za-z0-9_]+)*")
_TOKEN_RE = re.compile(r"->|(?P<name>" + _NAME_RE.pattern + r")|[(){},:;!&]|\S")


@dataclass
class _Token:
    text: str
    column: int
    is_name: bool  # whether `_NAME_RE` matches all of `text`


class _LineAbort(Exception):
    pass


class _Cursor:
    def __init__(self, tokens: list[_Token], file: str, line: int, sink: list):
        self.tokens = tokens
        self.i = 0
        self.file = file
        self.line = line
        self.sink = sink

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self) -> Optional[str]:
        return self.tokens[self.i].text if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        i = self.i
        if i >= len(self.tokens):
            self.fail("unexpected end of line")
        self.i = i + 1
        return self.tokens[i]

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected '{text}', found '{tok.text}'", at=tok)
        return tok

    def name(self, what: str = "name") -> _Token:
        tok = self.next()
        if not tok.is_name:
            self.fail(f"expected {what}, found '{tok.text}'", at=tok)
        return tok

    def span(self, tok: Optional[_Token] = None) -> SourceSpan:
        if tok is None:
            col = self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1
            return SourceSpan(self.file, self.line, col)
        return SourceSpan(self.file, self.line, tok.column)

    def fail(self, message: str, hint: str = "", at: Optional[_Token] = None):
        if at is None and not self.at_end():
            at = self.tokens[self.i]
        self.sink.append(ParseDiagnostic(self.span(at), message, hint))
        raise _LineAbort()

    def finish(self):
        if not self.at_end():
            tok = self.tokens[self.i]
            self.fail(f"trailing input '{tok.text}'", at=tok)


def _tokenize_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [_Token(m.group(0), m.start() + 1, m.lastgroup == "name")
                  for m in _TOKEN_RE.finditer(body)]
        if tokens:
            yield lineno, tokens


def _parse_lines(text: str, file: str, kind: str, b, parse_line) -> None:
    """Read the `KIND NAME` header of a domain or model file into `b.name`
    and run `parse_line(b, cursor, keyword token)` on each other nonblank
    line; a failed line adds its diagnostic to `b.diags` and parsing goes on."""
    lines = list(_tokenize_lines(text))
    if not lines:
        raise DslError([ParseDiagnostic(SourceSpan(file, 1, 1), f"empty {kind} file",
                                        f"a {kind} file starts with '{kind} NAME'")])
    for lineno, tokens in lines:
        cur = _Cursor(tokens, file, lineno, b.diags)
        try:
            head = cur.name("declaration keyword")
            if head.text == kind:
                if b.name is not None:
                    cur.fail(f"duplicate '{kind}' header", at=head)
                b.name = cur.name(f"{kind} name").text
                cur.finish()
            elif b.name is None:
                cur.fail(f"the first declaration must be '{kind} NAME'", at=head)
            else:
                parse_line(b, cur, head)
        except _LineAbort:
            pass


def _file_error(b, message: str, hint: str = "") -> None:
    b.diags.append(ParseDiagnostic(SourceSpan(b.file, 1, 1), message, hint))


def _word(cur: _Cursor, what: str) -> str:
    return cur.name(what).text


def _commas(cur: _Cursor, item, *args) -> list:
    """`item (',' item)*`, each read by `item(cur, *args)`."""
    items = [item(cur, *args)]
    while cur.peek() == ",":
        cur.next()
        items.append(item(cur, *args))
    return items


def _parens(cur: _Cursor, item, *args) -> list:
    """`'(' [item (',' item)*] ')'`."""
    cur.expect("(")
    if cur.peek() == ")":
        cur.next()
        return []
    items = _commas(cur, item, *args)
    cur.expect(")")
    return items


def _pair(cur: _Cursor, item, *args) -> tuple:
    return item(cur, *args), item(cur, *args)


def _element(cur: _Cursor, what: str, member: str):
    """A name, or a nonempty `{name, ...}` set as a frozenset."""
    if cur.peek() != "{":
        return _word(cur, what)
    cur.next()
    members = frozenset(_commas(cur, _word, member))
    cur.expect("}")
    return members


# ---------------------------------------------------------------------------
# Domain files
# ---------------------------------------------------------------------------

class _DomainBuilder:
    def __init__(self, file: str):
        self.file = file
        self.diags: list[ParseDiagnostic] = []
        self.name: Optional[str] = None
        self.sorts: dict[str, tuple[str, ...]] = {}
        self.fluents: dict[str, Schema] = {}
        self.actions: dict[str, Schema] = {}
        self.aspect_rules: list[AspectRule] = []
        # (kind, schema) of every aspect line whose head parsed, so a line
        # that fails later in its template or guard still covers its schema.
        self.aspect_heads: set[tuple[str, str]] = set()
        self.effects: list[EffectRule] = []
        self.preconditions: list[Precondition] = []
        self.frame_decls: list[FrameDecl] = []
        self.homes: dict[str, tuple[str, ...]] = {}
        self.disjointness: Optional[DisjointnessSpec] = None

    def is_object(self, name: str, sort: str) -> bool:
        return name in self.sorts.get(sort, ())


def parse_domain(text: str, file: str = "<domain>") -> Domain:
    b = _DomainBuilder(file)
    _parse_lines(text, file, "domain", b, _parse_domain_line)
    domain = _finish_domain(b)
    if b.diags:
        raise DslError(b.diags)
    return domain


def _parse_domain_line(b: _DomainBuilder, cur: _Cursor, head: _Token) -> None:
    if head.text == "objects":
        sort = cur.name("sort name").text
        cur.expect(":")
        names = _commas(cur, _word, "object name")
        cur.finish()
        if sort in b.sorts:
            cur.fail(f"sort '{sort}' is declared twice", at=head)
        if len(set(names)) != len(names):
            cur.fail(f"sort '{sort}' repeats an object", at=head)
        b.sorts[sort] = tuple(names)
    elif head.text in ("fluent", "action"):
        name_tok = cur.name("schema name")
        params = tuple(_parens(cur, _parse_param, b))
        cur.finish()
        if name_tok.text in b.fluents or name_tok.text in b.actions:
            cur.fail(f"schema '{name_tok.text}' is declared twice", at=name_tok)
        table = b.fluents if head.text == "fluent" else b.actions
        table[name_tok.text] = Schema(name_tok.text, params)
    elif head.text == "home":
        f_tok = cur.name("fluent name")
        if f_tok.text not in b.fluents:
            cur.fail(f"unknown fluent '{f_tok.text}'", at=f_tok)
        atoms = tuple(_parens(cur, _word, "atom"))
        cur.finish()
        if f_tok.text in b.homes:
            cur.fail(f"'home {f_tok.text}' is declared twice", at=f_tok)
        b.homes[f_tok.text] = atoms
    elif head.text == "aspect":
        rule = _parse_aspect_rule(b, cur)
        b.aspect_rules.append(rule)
    elif head.text == "effect":
        b.effects.append(_parse_effect(b, cur))
    elif head.text == "pre":
        pat, scope = _parse_head(b, cur, "action")
        guard = _parse_guard(b, cur, scope)
        cur.finish()
        b.preconditions.append(Precondition(action=pat, guard=guard))
    elif head.text == "frame":
        apat, scope = _parse_head(b, cur, "action")
        fpat, _ = _parse_head(b, cur, "fluent", scope)
        cur.finish()
        b.frame_decls.append(FrameDecl(action=apat, fluent=fpat))
    elif head.text == "disjoint":
        cur.expect("by")
        if b.disjointness is not None:
            cur.fail("the disjointness specification is declared twice", at=head)
        b.disjointness = _parse_disjoint_spec(cur)
    else:
        cur.fail(f"unknown declaration '{head.text}'",
                 "expected one of: domain, objects, fluent, action, home, "
                 "aspect, effect, pre, frame, disjoint", at=head)


def _parse_param(cur: _Cursor, b: _DomainBuilder) -> SortRef:
    tok = cur.name("sort name")
    if tok.text == "set":
        cur.expect("of")
        tok = cur.name("sort name")
        ref = SortRef(tok.text, is_set=True)
    else:
        ref = SortRef(tok.text)
    if ref.name not in b.sorts:
        cur.fail(f"unknown sort '{ref.name}'", at=tok)
    return ref


def _parse_head(b: _DomainBuilder, cur: _Cursor, kind: str,
                scope: Optional[dict[str, SortRef]] = None):
    """Parse NAME(args...) as a pattern; returns (Pat, var scope)."""
    name_tok = cur.name(f"{kind} name")
    table = b.fluents if kind == "fluent" else b.actions
    schema = table.get(name_tok.text)
    if schema is None:
        cur.fail(f"unknown {kind} '{name_tok.text}'", at=name_tok)
    args = _parens(cur, _word, "argument")
    scope = dict(scope) if scope else {}
    if len(args) != len(schema.params):
        cur.fail(f"'{name_tok.text}' expects {len(schema.params)} arguments, "
                 f"got {len(args)}", at=name_tok)
    resolved: list = []
    for arg, ref in zip(args, schema.params):
        if arg in scope:
            resolved.append(Var(arg))
        elif not ref.is_set and b.is_object(arg, ref.name):
            resolved.append(arg)
        else:
            scope[arg] = ref
            resolved.append(Var(arg))
    return Pat(name_tok.text, tuple(resolved)), scope


def _parse_guard(b: _DomainBuilder, cur: _Cursor,
                 scope: dict[str, SortRef]) -> tuple:
    atoms: list = []
    while True:
        if cur.peek() == "!":
            cur.next()
            atoms.append(_parse_guard_literal(b, cur, scope, positive=False))
        else:
            first = cur.name("guard")
            if cur.peek() == "in":
                cur.next()
                atoms.append(_parse_member(b, cur, scope, first))
            else:
                cur.i -= 1
                atoms.append(_parse_guard_literal(b, cur, scope, positive=True))
        if cur.peek() == "&":
            cur.next()
            continue
        return tuple(atoms)


def _parse_guard_literal(b: _DomainBuilder, cur: _Cursor,
                         scope: dict[str, SortRef], positive: bool) -> GuardLiteral:
    pat, extended = _parse_head(b, cur, "fluent", scope)
    scope.update(extended)
    return GuardLiteral(fluent=pat, positive=positive)


def _parse_member(b: _DomainBuilder, cur: _Cursor, scope: dict[str, SortRef],
                  member_tok: _Token) -> MemberGuard:
    coll_tok = cur.name("set variable")
    if coll_tok.text not in scope or not scope[coll_tok.text].is_set:
        cur.fail(f"'{coll_tok.text}' is not a set-valued variable in scope",
                 at=coll_tok)
    elem_sort = scope[coll_tok.text].name
    if member_tok.text in scope:
        member: object = Var(member_tok.text)
    elif b.is_object(member_tok.text, elem_sort):
        member = member_tok.text
    else:
        scope[member_tok.text] = SortRef(elem_sort)
        member = Var(member_tok.text)
    return MemberGuard(member=member, collection=Var(coll_tok.text))


def _parse_aspect_rule(b: _DomainBuilder, cur: _Cursor) -> AspectRule:
    name_tok = cur.name("fluent or action name")
    if name_tok.text in b.fluents:
        kind = "fluent"
    elif name_tok.text in b.actions:
        kind = "action"
    else:
        cur.fail(f"unknown fluent or action '{name_tok.text}'", at=name_tok)
    cur.i -= 1
    pat, scope = _parse_head(b, cur, kind)
    b.aspect_heads.add((kind, pat.schema))
    start = cur.i
    raw_path = _parse_raw_path(cur)
    guard: tuple = ()
    if cur.peek() == "if":
        cur.next()
        guard = _parse_guard(b, cur, scope)
    cur.finish()
    template = _resolve_template(raw_path, scope)
    _require_bound(cur, cur.tokens[start:], template, _binders(pat, guard), "aspect template")
    return AspectRule(kind=kind, target=pat, template=template, guard=guard)


def _parse_raw_path(cur: _Cursor) -> list:
    """A parenthesized path kept as raw names: elements are names or name sets."""
    return _parens(cur, _element, "atom or variable", "atom")


def _resolve_template(raw_path: list, scope: dict[str, SortRef]) -> tuple:
    template: list = []
    for elem in raw_path:
        if isinstance(elem, frozenset):
            members = frozenset(Var(m) if m in scope else AspectAtom(m)
                                for m in elem)
            template.append(SetTemplate(members))
        else:
            template.append(Var(elem) if elem in scope else AspectAtom(elem))
    return tuple(template)


def _parse_effect(b: _DomainBuilder, cur: _Cursor) -> EffectRule:
    apat, scope = _parse_head(b, cur, "action")
    op = cur.name("'add' or 'del'")
    if op.text not in ("add", "del"):
        cur.fail(f"expected 'add' or 'del', found '{op.text}'", at=op)
    fstart = cur.i
    _parse_head(b, cur, "fluent", scope)
    guard: tuple = ()
    if cur.peek() == "if":
        cur.next()
        guard = _parse_guard(b, cur, scope)
    cur.finish()
    # The target is resolved once the guard's variables are in scope.
    cur.i = fstart
    fpat, _ = _parse_head(b, cur, "fluent", scope)
    _require_bound(cur, cur.tokens[fstart:], fpat.args, _binders(apat, guard), "effect target")
    return EffectRule(action=apat, add=(op.text == "add"), fluent=fpat, guard=guard)


def _binders(pattern: Pat, guard: tuple) -> set[str]:
    """The variables of the head pattern, of positive literals and of member
    guards. A negated literal is a negated existential: it binds nothing."""
    args = list(pattern.args)
    for g in guard:
        args += [g.member] if isinstance(g, MemberGuard) else g.fluent.args if g.positive else []
    return {a.name for a in args if isinstance(a, Var)}


def _require_bound(cur: _Cursor, tokens: list, elems, bound: set, what: str) -> None:
    """Fail at the first variable of `elems` (pattern arguments or template
    elements) outside `bound`, spanning its first token in `tokens`."""
    for m in (m for elem in elems for m in _template_members(elem)):
        if isinstance(m, Var) and m.name not in bound:
            cur.fail(f"{what} variable '{m.name}' is bound by neither the pattern "
                     f"nor the guard", "a negated literal binds nothing",
                     at=next(t for t in tokens if t.text == m.name))


def _parse_disjoint_spec(cur: _Cursor) -> DisjointnessSpec:
    kind = cur.name("disjointness kind")
    if kind.text == "seq-diff":
        cur.finish()
        return SeqExistsDiff()
    if kind.text == "simple":
        cur.finish()
        return SimpleInequality()
    if kind.text == "commutative":
        cur.expect("(")
        if _word(cur, "'all' or atom") == "all":
            cur.expect(")")
            cur.finish()
            return CommutativeCanonical()
        cur.i -= 1
        pairs = _commas(cur, _pair, _word, "atom")
        cur.expect(")")
        cur.finish()
        return CommutativeCanonical.of(*pairs)
    if kind.text == "table":
        pairs = _commas(cur, _pair, _parse_path_value)
        cur.finish()
        return ExplicitTable(frozenset(pairs))
    cur.fail(f"unknown disjointness kind '{kind.text}'",
             "expected seq-diff, simple, commutative(...), or table", at=kind)


def _parse_path_value(cur: _Cursor) -> AspectPath:
    return AspectPath(tuple(
        AspectSet(frozenset(AspectAtom(m) for m in e)) if isinstance(e, frozenset)
        else AspectAtom(e) for e in _parse_raw_path(cur)))


def _finish_domain(b: _DomainBuilder) -> Optional[Domain]:
    """The built domain, or None when it is too incomplete to build; every
    problem found is added to `b.diags`."""
    if b.name is None:
        return None
    if not b.fluents and not b.actions:
        _file_error(b, "empty domain: no fluent or action schemas declared")
        return None
    for f in b.fluents:
        if ("fluent", f) not in b.aspect_heads:
            _file_error(b, f"fluent '{f}' has no aspect rule")
    for a in b.actions:
        if ("action", a) not in b.aspect_heads:
            _file_error(b, f"action '{a}' has no aspect rule")
    domain = Domain(
        name=b.name, sorts=b.sorts, fluents=b.fluents, actions=b.actions,
        aspect_rules=tuple(b.aspect_rules), effects=tuple(b.effects),
        preconditions=tuple(b.preconditions), frame_decls=tuple(b.frame_decls),
        disjointness=b.disjointness or SeqExistsDiff(), homes=b.homes)
    for problem in check_rule_exclusivity(domain):
        _file_error(b, problem, "guards of same-schema rules must exclude each "
                                "other through a complementary literal")
    return domain


# ---------------------------------------------------------------------------
# Unparsing
# ---------------------------------------------------------------------------

def unparse_domain(domain: Domain) -> str:
    lines = [f"domain {domain.name}"]
    for sort, objs in domain.sorts.items():
        lines.append(f"objects {sort}: " + ", ".join(objs))
    for f in domain.fluents.values():
        lines.append(f"fluent {f.name}({', '.join(str(p) for p in f.params)})")
    for a in domain.actions.values():
        lines.append(f"action {a.name}({', '.join(str(p) for p in a.params)})")
    for f, home in domain.homes.items():
        lines.append(f"home {f} ({','.join(home)})")
    for r in domain.aspect_rules:
        lines.append(str(r))
    for p in domain.preconditions:
        lines.append(f"pre {p.action} " + " & ".join(str(g) for g in p.guard))
    for e in domain.effects:
        lines.append(str(e))
    for fd in domain.frame_decls:
        lines.append(f"frame {fd.action} {fd.fluent}")
    lines.append("disjoint by " + _render_spec(domain.disjointness))
    return "\n".join(lines) + "\n"


def _render_spec(spec: DisjointnessSpec) -> str:
    if isinstance(spec, SeqExistsDiff):
        return "seq-diff"
    if isinstance(spec, SimpleInequality):
        return "simple"
    if isinstance(spec, CommutativeCanonical):
        if spec.constraints is None:
            return "commutative(all)"
        pairs = sorted(spec.constraints)
        return "commutative(" + ", ".join(f"{a} {b}" for a, b in pairs) + ")"
    if isinstance(spec, ExplicitTable):
        pairs = sorted(spec.pairs, key=str)
        return "table " + ", ".join(f"{a}{b}" for a, b in pairs)
    raise ValueError(f"unknown spec {spec!r}")


# ---------------------------------------------------------------------------
# Ground atoms and states
# ---------------------------------------------------------------------------

def _items(text: str, file: str):
    """A cursor over each item of `text`: the tokens of one line between
    `;` tokens. Blank items are skipped."""
    for lineno, tokens in _tokenize_lines(text):
        for sep, item in itertools.groupby(tokens, key=lambda t: t.text == ";"):
            if not sep:
                yield _Cursor(list(item), file, lineno, [])


def _ground_atom(cur: _Cursor, domain: Domain, cls):
    """The ground atom that the rest of `cur`'s item holds, checked against
    the domain's schemas and sorts."""
    try:
        if cur.at_end():  # a lone '!'
            cur.fail("expected a single ground atom, got ''")
        name = cur.name("schema name").text
        args = tuple(_parens(cur, _element, "object", "object"))
        cur.finish()
    except _LineAbort:
        raise DslError(cur.sink) from None
    atom = cls(name, args)
    check_ground(domain, atom)
    return atom


def parse_ground_fluent(text: str, domain: Domain, file: str = "<fluent>") -> GroundFluent:
    """The one ground fluent of `text`, which must fill exactly one line."""
    lines = list(_tokenize_lines(text))
    if len(lines) != 1:
        raise DslError([ParseDiagnostic(
            SourceSpan(file, 1, 1), f"expected a single ground atom, got {text!r}")])
    (lineno, tokens), = lines
    return _ground_atom(_Cursor(tokens, file, lineno, []), domain, GroundFluent)


def parse_actions(text: str, domain: Domain, file: str = "<acts>") -> tuple[GroundAction, ...]:
    """Ground actions separated by ';' or newlines; whitespace-only text
    means none."""
    return tuple(_ground_atom(cur, domain, GroundAction) for cur in _items(text, file))


def parse_state(text: str, domain: Domain, file: str = "<state>"):
    """A total initial state from ';'-separated items.

    `p(args)` marks the fluent true; `!p(args)` explicitly false; giving a
    fluent both ways is an error. All other ground instances default to
    false, placed at their home components.
    """
    given: dict[GroundFluent, bool] = {}
    for cur in _items(text, file):
        negate = cur.peek() == "!"
        cur.i += negate
        f = _ground_atom(cur, domain, GroundFluent)
        if given.setdefault(f, not negate) == negate:
            raise DslError([ParseDiagnostic(
                cur.span(cur.tokens[0]), f"fluent '{f}' is given both true and false")])
    return initial_state(domain, [f for f, true in given.items() if true])


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

class _ModelBuilder:
    def __init__(self, file: str):
        self.file = file
        self.diags: list[ParseDiagnostic] = []
        self.name: Optional[str] = None
        self.situations: dict[str, None] = {}  # in declared order
        self.aspect_rels: dict[str, set[tuple[str, str]]] = {}
        self.functional: set[str] = set()
        self.action_maps: dict[str, dict[str, str]] = {}
        self.valuations: dict[str, set[str]] = {}
        self.fluent_aspects: dict[str, AspectPath] = {}
        self.action_aspects: dict[str, AspectPath] = {}
        self.witnesses: dict[tuple[str, str], frozenset[str]] = {}
        self.collective_rels: dict[str, set[tuple[str, str]]] = {}
        self.collective_witnesses: dict[tuple[str, str, str], frozenset[str]] = {}
        self.d_table: set[tuple[AspectPath, AspectPath]] = set()


def parse_model(text: str, file: str = "<model>") -> FiniteModel:
    b = _ModelBuilder(file)
    _parse_lines(text, file, "model", b, _parse_model_line)
    model = FiniteModel(
        name=b.name or "", situations=tuple(b.situations),
        aspect_rels={k: frozenset(v) for k, v in b.aspect_rels.items()},
        functional=frozenset(b.functional),
        action_maps=b.action_maps,
        valuations={k: frozenset(v) for k, v in b.valuations.items()},
        fluent_aspects=b.fluent_aspects, action_aspects=b.action_aspects,
        witnesses=b.witnesses,
        collective_rels={k: frozenset(v) for k, v in b.collective_rels.items()},
        collective_witnesses=b.collective_witnesses,
        d_table=frozenset(b.d_table))
    if b.name is not None and not b.situations:
        _file_error(b, "a model needs at least one situation")
    elif b.name is not None:
        for message, hint in model.faults():
            _file_error(b, message, hint)
        for name in b.action_aspects:
            if name not in b.action_maps:
                _file_error(b, f"action '{name}' has an aspect but no action map",
                            "add 'act NAME s -> t' lines")
    if b.diags:
        raise DslError(b.diags)
    return model.with_derived_dtable() if not model.d_table else model


def _parse_model_line(b: _ModelBuilder, cur: _Cursor, head: _Token) -> None:
    def known_situation(tok: _Token) -> str:
        if tok.text not in b.situations:
            cur.fail(f"unknown situation '{tok.text}'", at=tok)
        return tok.text

    if head.text in ("situation", "situations"):
        while not cur.at_end():
            tok = cur.name("situation name")
            if tok.text in b.situations:
                cur.fail(f"situation '{tok.text}' is declared twice", at=tok)
            b.situations[tok.text] = None
    elif head.text in ("rel", "crel"):
        collective = head.text == "crel"
        name = cur.name("element" if collective else "aspect atom").text
        s = known_situation(cur.name("situation"))
        t = known_situation(cur.name("situation"))
        cur.finish()
        rels = b.collective_rels if collective else b.aspect_rels
        rels.setdefault(name, set()).add((s, t))
    elif head.text == "functional":
        atom = cur.name("aspect atom").text
        cur.finish()
        b.functional.add(atom)
        b.aspect_rels.setdefault(atom, set())
    elif head.text == "atoms":
        while not cur.at_end():
            b.aspect_rels.setdefault(cur.name("aspect atom").text, set())
    elif head.text == "act":
        name = cur.name("action name").text
        s_tok = cur.name("situation")
        s = known_situation(s_tok)
        cur.expect("->")
        t = known_situation(cur.name("situation"))
        cur.finish()
        mapping = b.action_maps.setdefault(name, {})
        if s in mapping:
            cur.fail(f"action '{name}' maps '{s}' twice", at=s_tok)
        mapping[s] = t
    elif head.text == "val":
        f = cur.name("fluent name").text
        b.valuations.setdefault(f, set())
        while not cur.at_end():
            b.valuations[f].add(known_situation(cur.name("situation")))
    elif head.text == "aspect":
        kind = cur.name("'fluent' or 'action'")
        if kind.text not in ("fluent", "action"):
            cur.fail("expected 'aspect fluent NAME PATH' or "
                     "'aspect action NAME PATH'", at=kind)
        name_tok = cur.name("name")
        apath = _parse_path_value(cur)
        cur.finish()
        table = b.fluent_aspects if kind.text == "fluent" else b.action_aspects
        if name_tok.text in table:
            cur.fail(f"'aspect {kind.text} {name_tok.text}' is declared twice",
                     at=name_tok)
        table[name_tok.text] = apath
        if kind.text == "fluent":
            b.valuations.setdefault(name_tok.text, set())
    elif head.text in ("witness", "cwitness"):
        f_tok = cur.name("fluent name")
        form_tok = cur.name("formalism")
        formalism = form_tok.text
        if formalism not in FORMALISMS:
            cur.fail(f"unknown formalism '{formalism}'",
                     "one of: " + ", ".join(FORMALISMS), at=form_tok)
        key: tuple = (f_tok.text, formalism)
        table = b.witnesses
        if head.text == "cwitness":
            key += (cur.name("element").text,)
            table = b.collective_witnesses
        sits = set()
        while not cur.at_end():
            sits.add(known_situation(cur.name("situation")))
        if key in table:
            cur.fail(f"'{head.text} {' '.join(key)}' is declared twice", at=f_tok)
        table[key] = frozenset(sits)
    elif head.text == "dpair":
        pair = _pair(cur, _parse_path_value)
        cur.finish()
        b.d_table.add(pair)
    else:
        cur.fail(f"unknown declaration '{head.text}'",
                 "expected one of: model, situations, rel, crel, functional, "
                 "atoms, act, val, aspect, witness, cwitness, dpair", at=head)
