"""Line-oriented surface syntax for domains, finite models, and states.

One declaration per line; '#' starts a comment. Parse failures raise
DslError carrying spanned diagnostics. Parsing is deterministic: the same
text always yields the same structures, and unparse/parse round-trips.
"""

from __future__ import annotations

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
    ActionSchema,
    AspectRule,
    Domain,
    EffectRule,
    FluentSchema,
    FrameDecl,
    GuardLiteral,
    MemberGuard,
    Pat,
    Precondition,
    SetTemplate,
    SortRef,
    Var,
    check_rule_exclusivity,
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
    length: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    span: SourceSpan
    message: str
    hint: str = ""

    def render(self) -> str:
        out = f"{self.span}: {self.severity}: {self.message}"
        if self.hint:
            out += f" ({self.hint})"
        return out


_TOKEN_RE = re.compile(r"->|[A-Za-z0-9_]+(?:-[A-Za-z0-9_]+)*|[(){},:;!&]|\S")


@dataclass
class _Token:
    text: str
    column: int


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
        if self.at_end():
            self.fail("unexpected end of line")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.fail(f"expected '{text}', found '{tok.text}'", at=tok)
        return tok

    def name(self, what: str = "name") -> _Token:
        tok = self.next()
        if not re.fullmatch(r"[A-Za-z0-9_]+(?:-[A-Za-z0-9_]+)*", tok.text):
            self.fail(f"expected {what}, found '{tok.text}'", at=tok)
        return tok

    def span(self, tok: Optional[_Token] = None) -> SourceSpan:
        if tok is None:
            col = self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1
            return SourceSpan(self.file, self.line, col, 1)
        return SourceSpan(self.file, self.line, tok.column, len(tok.text))

    def fail(self, message: str, hint: str = "", at: Optional[_Token] = None):
        if at is None and not self.at_end():
            at = self.tokens[self.i]
        self.sink.append(ParseDiagnostic("error", self.span(at), message, hint))
        raise _LineAbort()

    def finish(self):
        if not self.at_end():
            tok = self.tokens[self.i]
            self.fail(f"trailing input '{tok.text}'", at=tok)


def _tokenize_lines(text: str, file: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [_Token(m.group(0), m.start() + 1)
                  for m in _TOKEN_RE.finditer(body)]
        if tokens:
            yield lineno, tokens


# ---------------------------------------------------------------------------
# Domain files
# ---------------------------------------------------------------------------

class _DomainBuilder:
    def __init__(self, file: str):
        self.file = file
        self.diags: list[ParseDiagnostic] = []
        self.name: Optional[str] = None
        self.sorts: dict[str, tuple[str, ...]] = {}
        self.fluents: dict[str, FluentSchema] = {}
        self.actions: dict[str, ActionSchema] = {}
        self.aspect_rules: list[AspectRule] = []
        self.effects: list[EffectRule] = []
        self.preconditions: list[Precondition] = []
        self.frame_decls: list[FrameDecl] = []
        self.homes: dict[str, tuple[str, ...]] = {}
        self.disjointness: Optional[DisjointnessSpec] = None

    def objects_of(self, sort: str) -> tuple[str, ...]:
        return self.sorts.get(sort, ())

    def is_object(self, name: str, sort: str) -> bool:
        return name in self.objects_of(sort)


def parse_domain(text: str, file: str = "<domain>") -> Domain:
    b = _DomainBuilder(file)
    lines = list(_tokenize_lines(text, file))
    if not lines:
        raise DslError([ParseDiagnostic(
            "error", SourceSpan(file, 1, 1, 1), "empty domain file",
            "a domain file starts with 'domain NAME'")])
    for lineno, tokens in lines:
        cur = _Cursor(tokens, file, lineno, b.diags)
        try:
            _parse_domain_line(b, cur)
        except _LineAbort:
            continue
    domain = _finish_domain(b)
    if b.diags:
        raise DslError(b.diags)
    return domain


def _parse_domain_line(b: _DomainBuilder, cur: _Cursor) -> None:
    head = cur.name("declaration keyword")
    if b.name is None and head.text != "domain":
        cur.fail("the first declaration must be 'domain NAME'", at=head)
    if head.text == "domain":
        if b.name is not None:
            cur.fail("duplicate 'domain' header", at=head)
        b.name = cur.name("domain name").text
        cur.finish()
    elif head.text == "objects":
        sort = cur.name("sort name").text
        cur.expect(":")
        names = [cur.name("object name").text]
        while cur.peek() == ",":
            cur.next()
            names.append(cur.name("object name").text)
        cur.finish()
        if sort in b.sorts:
            cur.fail(f"sort '{sort}' is declared twice", at=head)
        if len(set(names)) != len(names):
            cur.fail(f"sort '{sort}' repeats an object", at=head)
        b.sorts[sort] = tuple(names)
    elif head.text in ("fluent", "action"):
        name_tok = cur.name("schema name")
        params = _parse_params(b, cur)
        cur.finish()
        table = b.fluents if head.text == "fluent" else b.actions
        other = b.actions if head.text == "fluent" else b.fluents
        if name_tok.text in table or name_tok.text in other:
            cur.fail(f"schema '{name_tok.text}' is declared twice", at=name_tok)
        if head.text == "fluent":
            table[name_tok.text] = FluentSchema(name_tok.text, params)
        else:
            table[name_tok.text] = ActionSchema(name_tok.text, params)
    elif head.text == "home":
        f_tok = cur.name("fluent name")
        if f_tok.text not in b.fluents:
            cur.fail(f"unknown fluent '{f_tok.text}'", at=f_tok)
        atoms = _parse_atom_path(cur)
        cur.finish()
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


def _parse_params(b: _DomainBuilder, cur: _Cursor) -> tuple[SortRef, ...]:
    cur.expect("(")
    params: list[SortRef] = []
    if cur.peek() == ")":
        cur.next()
        return ()
    while True:
        tok = cur.name("sort name")
        if tok.text == "set":
            cur.expect("of")
            base = cur.name("sort name")
            ref = SortRef(base.text, is_set=True)
            where = base
        else:
            ref = SortRef(tok.text)
            where = tok
        if ref.name not in b.sorts:
            cur.fail(f"unknown sort '{ref.name}'", at=where)
        params.append(ref)
        if cur.peek() == ",":
            cur.next()
            continue
        cur.expect(")")
        return tuple(params)


def _parse_head(b: _DomainBuilder, cur: _Cursor, kind: str,
                scope: Optional[dict[str, SortRef]] = None):
    """Parse NAME(args...) as a pattern; returns (Pat, var scope)."""
    name_tok = cur.name(f"{kind} name")
    table = b.fluents if kind == "fluent" else b.actions
    schema = table.get(name_tok.text)
    if schema is None:
        cur.fail(f"unknown {kind} '{name_tok.text}'", at=name_tok)
    cur.expect("(")
    scope = dict(scope) if scope else {}
    args: list = []
    if cur.peek() != ")":
        while True:
            tok = cur.name("argument")
            args.append(tok)
            if cur.peek() == ",":
                cur.next()
                continue
            break
    cur.expect(")")
    if len(args) != len(schema.params):
        cur.fail(f"'{name_tok.text}' expects {len(schema.params)} arguments, "
                 f"got {len(args)}", at=name_tok)
    resolved: list = []
    for tok, ref in zip(args, schema.params):
        if tok.text in scope:
            resolved.append(Var(tok.text))
        elif not ref.is_set and b.is_object(tok.text, ref.name):
            resolved.append(tok.text)
        else:
            scope[tok.text] = ref
            resolved.append(Var(tok.text))
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
    pat, _ = _parse_head(b, cur, "fluent", scope)
    # _parse_head copies the scope; re-resolve to extend the caller's scope.
    schema = b.fluents[pat.schema]
    for arg, ref in zip(pat.args, schema.params):
        if isinstance(arg, Var) and arg.name not in scope:
            scope[arg.name] = ref
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
    raw_path = _parse_raw_path(cur)
    guard: tuple = ()
    if cur.peek() == "if":
        cur.next()
        guard = _parse_guard(b, cur, scope)
    cur.finish()
    template = _resolve_template(raw_path, scope)
    return AspectRule(kind=kind, target=pat, template=template, guard=guard)


def _parse_raw_path(cur: _Cursor) -> list:
    """A parenthesized path kept as raw tokens: elements are names or name sets."""
    cur.expect("(")
    elems: list = []
    if cur.peek() == ")":
        cur.next()
        return elems
    while True:
        if cur.peek() == "{":
            cur.next()
            members = [cur.name("atom").text]
            while cur.peek() == ",":
                cur.next()
                members.append(cur.name("atom").text)
            cur.expect("}")
            elems.append(set(members))
        else:
            elems.append(cur.name("atom or variable").text)
        if cur.peek() == ",":
            cur.next()
            continue
        cur.expect(")")
        return elems


def _resolve_template(raw_path: list, scope: dict[str, SortRef]) -> tuple:
    template: list = []
    for elem in raw_path:
        if isinstance(elem, set):
            members = frozenset(Var(m) if m in scope else AspectAtom(m)
                                for m in elem)
            template.append(SetTemplate(members))
        else:
            template.append(Var(elem) if elem in scope else AspectAtom(elem))
    return tuple(template)


def _parse_atom_path(cur: _Cursor) -> tuple[str, ...]:
    cur.expect("(")
    atoms: list[str] = []
    if cur.peek() == ")":
        cur.next()
        return ()
    while True:
        atoms.append(cur.name("atom").text)
        if cur.peek() == ",":
            cur.next()
            continue
        cur.expect(")")
        return tuple(atoms)


def _parse_effect(b: _DomainBuilder, cur: _Cursor) -> EffectRule:
    apat, scope = _parse_head(b, cur, "action")
    op = cur.name("'add' or 'del'")
    if op.text not in ("add", "del"):
        cur.fail(f"expected 'add' or 'del', found '{op.text}'", at=op)
    guard: tuple = ()
    fstart = cur.i
    fpat, scope2 = _parse_head(b, cur, "fluent", scope)
    if cur.peek() == "if":
        cur.next()
        guard = _parse_guard(b, cur, scope)
        # Re-resolve the target now that guard variables are in scope.
        cur_save = cur.i
        cur.i = fstart
        fpat, _ = _parse_head(b, cur, "fluent", scope)
        cur.i = cur_save
    cur.finish()
    for v in fpat.variables():
        if v.name not in scope:
            cur.fail(f"effect target variable '{v.name}' is bound by neither "
                     f"the action pattern nor the guard", at=op)
    return EffectRule(action=apat, add=(op.text == "add"), fluent=fpat, guard=guard)


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
        tok = cur.name("'all' or atom")
        if tok.text == "all":
            cur.expect(")")
            cur.finish()
            return CommutativeCanonical()
        pairs = []
        first = tok.text
        second = cur.name("atom").text
        pairs.append((first, second))
        while cur.peek() == ",":
            cur.next()
            a = cur.name("atom").text
            bname = cur.name("atom").text
            pairs.append((a, bname))
        cur.expect(")")
        cur.finish()
        return CommutativeCanonical.of(*pairs)
    if kind.text == "table":
        pairs = []
        while True:
            alpha = _parse_path_value(cur)
            beta = _parse_path_value(cur)
            pairs.append((alpha, beta))
            if cur.peek() == ",":
                cur.next()
                continue
            break
        cur.finish()
        return ExplicitTable(frozenset(pairs))
    cur.fail(f"unknown disjointness kind '{kind.text}'",
             "expected seq-diff, simple, commutative(...), or table", at=kind)


def _parse_path_value(cur: _Cursor) -> AspectPath:
    raw = _parse_raw_path(cur)
    elems = []
    for e in raw:
        if isinstance(e, set):
            elems.append(AspectSet(frozenset(AspectAtom(m) for m in e)))
        else:
            elems.append(AspectAtom(e))
    return AspectPath(tuple(elems))


def _finish_domain(b: _DomainBuilder) -> Optional[Domain]:
    """The built domain, or None when it is too incomplete to build; every
    problem found is added to `b.diags`."""
    def diag(message: str, hint: str = ""):
        b.diags.append(ParseDiagnostic(
            "error", SourceSpan(b.file, 1, 1, 1), message, hint))

    if b.name is None:
        return None
    if not b.fluents and not b.actions:
        diag("empty domain: no fluent or action schemas declared")
        return None
    covered = {(r.kind, r.target.schema) for r in b.aspect_rules}
    for f in b.fluents:
        if ("fluent", f) not in covered:
            diag(f"fluent '{f}' has no aspect rule")
    for a in b.actions:
        if ("action", a) not in covered:
            diag(f"action '{a}' has no aspect rule")
    domain = Domain(
        name=b.name, sorts=b.sorts, fluents=b.fluents, actions=b.actions,
        aspect_rules=tuple(b.aspect_rules), effects=tuple(b.effects),
        preconditions=tuple(b.preconditions), frame_decls=tuple(b.frame_decls),
        disjointness=b.disjointness or SeqExistsDiff(), homes=b.homes)
    for problem in check_rule_exclusivity(domain):
        diag(problem, "guards of same-schema rules must exclude each other "
                      "through a complementary literal")
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

def _parse_ground_terms(cur: _Cursor) -> tuple:
    cur.expect("(")
    args: list = []
    if cur.peek() == ")":
        cur.next()
        return ()
    while True:
        if cur.peek() == "{":
            cur.next()
            members = [cur.name("object").text]
            while cur.peek() == ",":
                cur.next()
                members.append(cur.name("object").text)
            cur.expect("}")
            args.append(frozenset(members))
        else:
            args.append(cur.name("object").text)
        if cur.peek() == ",":
            cur.next()
            continue
        cur.expect(")")
        return tuple(args)


def parse_ground_fluent(text: str, domain: Domain, file: str = "<fluent>") -> GroundFluent:
    from .domain import check_ground_fluent

    f = _parse_ground_atom(text, file, GroundFluent)
    check_ground_fluent(domain, f)
    return f


def parse_ground_action(text: str, domain: Domain, file: str = "<action>") -> GroundAction:
    from .domain import check_ground_action

    a = _parse_ground_atom(text, file, GroundAction)
    check_ground_action(domain, a)
    return a


def _parse_ground_atom(text: str, file: str, cls):
    diags: list[ParseDiagnostic] = []
    lines = list(_tokenize_lines(text, file))
    if len(lines) != 1:
        raise DslError([ParseDiagnostic(
            "error", SourceSpan(file, 1, 1, 1),
            f"expected a single ground atom, got {text!r}")])
    lineno, tokens = lines[0]
    cur = _Cursor(tokens, file, lineno, diags)
    try:
        name = cur.name("schema name").text
        args = _parse_ground_terms(cur)
        cur.finish()
    except _LineAbort:
        raise DslError(diags) from None
    return cls(name, args)


def parse_actions(text: str, domain: Domain, file: str = "<acts>") -> tuple[GroundAction, ...]:
    """Semicolon-separated ground actions; whitespace-only text means none."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(parse_ground_action(chunk, domain, file))
    return tuple(out)


def parse_state(text: str, domain: Domain, file: str = "<state>"):
    """A total initial state from ';'-separated items.

    `p(args)` marks the fluent true; `!p(args)` explicitly false. All other
    ground instances default to false, placed at their home components.
    """
    from .domain import initial_state

    truths = []
    for chunk in text.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        negate = chunk.startswith("!")
        body = chunk[1:].strip() if negate else chunk
        f = parse_ground_fluent(body, domain, file)
        if not negate:
            truths.append(f)
    return initial_state(domain, truths)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

class _ModelBuilder:
    def __init__(self, file: str):
        self.file = file
        self.diags: list[ParseDiagnostic] = []
        self.name: Optional[str] = None
        self.situations: list[str] = []
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
    lines = list(_tokenize_lines(text, file))
    if not lines:
        raise DslError([ParseDiagnostic(
            "error", SourceSpan(file, 1, 1, 1), "empty model file",
            "a model file starts with 'model NAME'")])
    for lineno, tokens in lines:
        cur = _Cursor(tokens, file, lineno, b.diags)
        try:
            _parse_model_line(b, cur)
        except _LineAbort:
            continue
    _finish_model(b)
    if b.diags:
        raise DslError(b.diags)
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
    return model.with_derived_dtable() if not model.d_table else model


def _parse_model_line(b: _ModelBuilder, cur: _Cursor) -> None:
    head = cur.name("declaration keyword")
    if b.name is None and head.text != "model":
        cur.fail("the first declaration must be 'model NAME'", at=head)

    def known_situation(tok: _Token) -> str:
        if tok.text not in b.situations:
            cur.fail(f"unknown situation '{tok.text}'", at=tok)
        return tok.text

    if head.text == "model":
        if b.name is not None:
            cur.fail("duplicate 'model' header", at=head)
        b.name = cur.name("model name").text
        cur.finish()
    elif head.text in ("situation", "situations"):
        while not cur.at_end():
            tok = cur.name("situation name")
            if tok.text in b.situations:
                cur.fail(f"situation '{tok.text}' is declared twice", at=tok)
            b.situations.append(tok.text)
    elif head.text == "rel":
        atom = cur.name("aspect atom").text
        s = known_situation(cur.name("situation"))
        t = known_situation(cur.name("situation"))
        cur.finish()
        b.aspect_rels.setdefault(atom, set()).add((s, t))
    elif head.text == "crel":
        elem = cur.name("element").text
        s = known_situation(cur.name("situation"))
        t = known_situation(cur.name("situation"))
        cur.finish()
        b.collective_rels.setdefault(elem, set()).add((s, t))
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
        s = known_situation(cur.name("situation"))
        cur.expect("->")
        t = known_situation(cur.name("situation"))
        cur.finish()
        mapping = b.action_maps.setdefault(name, {})
        if s in mapping:
            cur.fail(f"action '{name}' maps '{s}' twice")
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
        name = cur.name("name").text
        apath = _parse_path_value(cur)
        cur.finish()
        if kind.text == "fluent":
            b.fluent_aspects[name] = apath
            b.valuations.setdefault(name, set())
        else:
            b.action_aspects[name] = apath
    elif head.text == "witness":
        f = cur.name("fluent name").text
        formalism = cur.name("formalism").text
        if formalism not in FORMALISMS:
            cur.fail(f"unknown formalism '{formalism}'",
                     "one of: " + ", ".join(FORMALISMS))
        sits = set()
        while not cur.at_end():
            sits.add(known_situation(cur.name("situation")))
        b.witnesses[(f, formalism)] = frozenset(sits)
    elif head.text == "cwitness":
        f = cur.name("fluent name").text
        formalism = cur.name("formalism").text
        if formalism not in FORMALISMS:
            cur.fail(f"unknown formalism '{formalism}'",
                     "one of: " + ", ".join(FORMALISMS))
        elem = cur.name("element").text
        sits = set()
        while not cur.at_end():
            sits.add(known_situation(cur.name("situation")))
        b.collective_witnesses[(f, formalism, elem)] = frozenset(sits)
    elif head.text == "dpair":
        alpha = _parse_path_value(cur)
        beta = _parse_path_value(cur)
        cur.finish()
        b.d_table.add((alpha, beta))
    else:
        cur.fail(f"unknown declaration '{head.text}'",
                 "expected one of: model, situations, rel, crel, functional, "
                 "atoms, act, val, aspect, witness, cwitness, dpair", at=head)


def _finish_model(b: _ModelBuilder) -> None:
    def diag(message: str, hint: str = ""):
        b.diags.append(ParseDiagnostic(
            "error", SourceSpan(b.file, 1, 1, 1), message, hint))

    if b.name is None:
        return
    if not b.situations:
        diag("a model needs at least one situation")
        return
    for act, mapping in b.action_maps.items():
        missing = [s for s in b.situations if s not in mapping]
        if missing:
            diag(f"action '{act}' is not total: no successor for "
                 f"{', '.join(missing)}", "add 'act NAME s -> t' lines")
    for atom in sorted(b.functional):
        rel = b.aspect_rels.get(atom, set())
        for s in b.situations:
            succ = [t for (u, t) in rel if u == s]
            if len(succ) != 1:
                diag(f"relation '{atom}' is flagged functional but situation "
                     f"'{s}' has {len(succ)} successors")
                break
    for name in b.fluent_aspects:
        if name not in b.valuations:
            diag(f"fluent '{name}' has an aspect but no valuation",
                 "add a 'val NAME ...' line")
    for name in b.action_aspects:
        if name not in b.action_maps:
            diag(f"action '{name}' has an aspect but no action map",
                 "add 'act NAME s -> t' lines")
