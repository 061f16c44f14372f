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

import re
import string
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
_TOKEN_RE = re.compile(r"->|" + _NAME_RE.pattern + r"|[(){},:;!&]|\S")
# A token is a name exactly when it starts with one of these: the name
# alternative of `_TOKEN_RE` comes before `\S`.
_NAME_START = frozenset(string.ascii_letters + string.digits + "_")


class _LineAbort(Exception):
    pass


class _Cursor:
    """Reads the tokens of one item: a line, or the tokens between `;` of
    one line starting at token `offset`. Tokens are plain strings; `span`
    finds a token's column in the line's body only for a diagnostic."""

    def __init__(self, file: str, sink: list):
        self.file = file
        self.sink = sink

    def at_line(self, line: int, body: str, tokens: list[str], offset: int = 0) -> "_Cursor":
        self.line, self.body, self.tokens, self.offset, self.i = line, body, tokens, offset, 0
        return self

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        i = self.i
        if i >= len(self.tokens):
            self.fail("unexpected end of line")
        self.i = i + 1
        return self.tokens[i]

    def expect(self, text: str) -> str:
        tok = self.next()
        if tok != text:
            self.fail(f"expected '{text}', found '{tok}'", at=self.i - 1)
        return tok

    def name(self, what: str = "name") -> str:
        i = self.i
        try:
            tok = self.tokens[i]
        except IndexError:
            self.fail("unexpected end of line")
        if tok[0] not in _NAME_START:
            self.fail(f"expected {what}, found '{tok}'", at=i)
        self.i = i + 1
        return tok

    def span(self, at: Optional[int] = None) -> SourceSpan:
        """The position of token `at` of the item, or of the item's end."""
        if not self.tokens:
            return SourceSpan(self.file, self.line, 1)
        m = list(_TOKEN_RE.finditer(self.body))[
            self.offset + (len(self.tokens) - 1 if at is None else at)]
        return SourceSpan(self.file, self.line, (m.end() if at is None else m.start()) + 1)

    def fail(self, message: str, hint: str = "", at: Optional[int] = None):
        if at is None and not self.at_end():
            at = self.i
        self.sink.append(ParseDiagnostic(self.span(at), message, hint))
        raise _LineAbort()

    def finish(self):
        if not self.at_end():
            self.fail(f"trailing input '{self.tokens[self.i]}'")


def _tokenize_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = _TOKEN_RE.findall(body)
        if tokens:
            yield lineno, body, tokens


def _parse_lines(text: str, file: str, kind: str, b, parse_line) -> None:
    """Read the `KIND NAME` header of a domain or model file into `b.name`
    and run `parse_line(b, cursor, keyword)` on each other nonblank line,
    the keyword being token 0; a failed line adds its diagnostic to
    `b.diags` and parsing goes on."""
    lines = list(_tokenize_lines(text))
    if not lines:
        raise DslError([ParseDiagnostic(SourceSpan(file, 1, 1), f"empty {kind} file",
                                        f"a {kind} file starts with '{kind} NAME'")])
    cur = _Cursor(file, b.diags)
    for lineno, body, tokens in lines:
        cur.at_line(lineno, body, tokens)
        try:
            head = cur.name("declaration keyword")
            if head == kind:
                if b.name is not None:
                    cur.fail(f"duplicate '{kind}' header", at=0)
                b.name = cur.name(f"{kind} name")
                cur.finish()
            elif b.name is None:
                cur.fail(f"the first declaration must be '{kind} NAME'", at=0)
            else:
                parse_line(b, cur, head)
        except _LineAbort:
            pass


def _file_error(b, message: str, hint: str = "") -> None:
    b.diags.append(ParseDiagnostic(SourceSpan(b.file, 1, 1), message, hint))


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
        return cur.name(what)
    cur.next()
    members = frozenset(_commas(cur, _Cursor.name, member))
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
        self.set_paths: list[AspectRule] = []  # aspect rules whose path may hold a set
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


def _parse_domain_line(b: _DomainBuilder, cur: _Cursor, head: str) -> None:
    # Diagnostics name the keyword (token 0) or the name after it (token 1).
    if head == "objects":
        sort = cur.name("sort name")
        cur.expect(":")
        names = _commas(cur, _Cursor.name, "object name")
        cur.finish()
        if sort in b.sorts:
            cur.fail(f"sort '{sort}' is declared twice", at=0)
        if len(set(names)) != len(names):
            cur.fail(f"sort '{sort}' repeats an object", at=0)
        b.sorts[sort] = tuple(names)
    elif head in ("fluent", "action"):
        name = cur.name("schema name")
        params = tuple(_parens(cur, _parse_param, b))
        cur.finish()
        if name in b.fluents or name in b.actions:
            cur.fail(f"schema '{name}' is declared twice", at=1)
        table = b.fluents if head == "fluent" else b.actions
        table[name] = Schema(name, params)
    elif head == "home":
        f = cur.name("fluent name")
        if f not in b.fluents:
            cur.fail(f"unknown fluent '{f}'", at=1)
        atoms = tuple(_parens(cur, _Cursor.name, "atom"))
        cur.finish()
        if f in b.homes:
            cur.fail(f"'home {f}' is declared twice", at=1)
        b.homes[f] = atoms
    elif head == "aspect":
        rule = _parse_aspect_rule(b, cur)
        b.aspect_rules.append(rule)
    elif head == "effect":
        b.effects.append(_parse_effect(b, cur))
    elif head == "pre":
        pat, scope = _parse_head(b, cur, "action")
        guard = _parse_guard(b, cur, scope)
        cur.finish()
        b.preconditions.append(Precondition(action=pat, guard=guard))
    elif head == "frame":
        apat, scope = _parse_head(b, cur, "action")
        fpat, _ = _parse_head(b, cur, "fluent", scope)
        cur.finish()
        b.frame_decls.append(FrameDecl(action=apat, fluent=fpat))
    elif head == "disjoint":
        cur.expect("by")
        if b.disjointness is not None:
            cur.fail("the disjointness specification is declared twice", at=0)
        b.disjointness = _parse_disjoint_spec(cur)
    else:
        cur.fail(f"unknown declaration '{head}'",
                 "expected one of: domain, objects, fluent, action, home, "
                 "aspect, effect, pre, frame, disjoint", at=0)


def _parse_param(cur: _Cursor, b: _DomainBuilder) -> SortRef:
    sort = cur.name("sort name")
    ref = SortRef(sort)
    if sort == "set":
        cur.expect("of")
        ref = SortRef(cur.name("sort name"), is_set=True)
    if ref.name not in b.sorts:
        cur.fail(f"unknown sort '{ref.name}'", at=cur.i - 1)
    return ref


def _parse_head(b: _DomainBuilder, cur: _Cursor, kind: str,
                scope: Optional[dict[str, SortRef]] = None):
    """Parse NAME(args...) as a pattern; returns (Pat, var scope)."""
    at = cur.i
    name = cur.name(f"{kind} name")
    table = b.fluents if kind == "fluent" else b.actions
    schema = table.get(name)
    if schema is None:
        cur.fail(f"unknown {kind} '{name}'", at=at)
    args = _parens(cur, _Cursor.name, "argument")
    scope = dict(scope) if scope else {}
    if len(args) != len(schema.params):
        cur.fail(f"'{name}' expects {len(schema.params)} arguments, "
                 f"got {len(args)}", at=at)
    resolved: list = []
    for arg, ref in zip(args, schema.params):
        if arg in scope:
            resolved.append(Var(arg))
        elif not ref.is_set and b.is_object(arg, ref.name):
            resolved.append(arg)
        else:
            scope[arg] = ref
            resolved.append(Var(arg))
    return Pat(name, tuple(resolved)), scope


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
                  name: str) -> MemberGuard:
    coll = cur.name("set variable")
    if coll not in scope or not scope[coll].is_set:
        cur.fail(f"'{coll}' is not a set-valued variable in scope", at=cur.i - 1)
    elem_sort = scope[coll].name
    if name in scope:
        member: object = Var(name)
    elif b.is_object(name, elem_sort):
        member = name
    else:
        scope[name] = SortRef(elem_sort)
        member = Var(name)
    return MemberGuard(member=member, collection=Var(coll))


def _parse_aspect_rule(b: _DomainBuilder, cur: _Cursor) -> AspectRule:
    name = cur.name("fluent or action name")
    if name in b.fluents:
        kind = "fluent"
    elif name in b.actions:
        kind = "action"
    else:
        cur.fail(f"unknown fluent or action '{name}'", at=1)
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
    _require_bound(cur, start, template, _binders(pat, guard), "aspect template")
    rule = AspectRule(kind=kind, target=pat, template=template, guard=guard)
    if any(isinstance(e, SetTemplate) or isinstance(e, Var) and scope[e.name].is_set
           for e in template):
        b.set_paths.append(rule)
    return rule


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
    if op not in ("add", "del"):
        cur.fail(f"expected 'add' or 'del', found '{op}'", at=cur.i - 1)
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
    _require_bound(cur, fstart, fpat.args, _binders(apat, guard), "effect target")
    return EffectRule(action=apat, add=(op == "add"), fluent=fpat, guard=guard)


def _binders(pattern: Pat, guard: tuple) -> set[str]:
    """The variables of the head pattern, of positive literals and of member
    guards. A negated literal is a negated existential: it binds nothing."""
    args = list(pattern.args)
    for g in guard:
        args += [g.member] if isinstance(g, MemberGuard) else g.fluent.args if g.positive else []
    return {a.name for a in args if isinstance(a, Var)}


def _require_bound(cur: _Cursor, start: int, elems, bound: set, what: str) -> None:
    """Fail at the first variable of `elems` (pattern arguments or template
    elements) outside `bound`, spanning its first token from token `start`."""
    for m in (m for elem in elems for m in _template_members(elem)):
        if isinstance(m, Var) and m.name not in bound:
            cur.fail(f"{what} variable '{m.name}' is bound by neither the pattern "
                     f"nor the guard", "a negated literal binds nothing",
                     at=cur.tokens.index(m.name, start))


def _parse_disjoint_spec(cur: _Cursor) -> DisjointnessSpec:
    kind = cur.name("disjointness kind")  # token 2 of 'disjoint by KIND'
    if kind == "seq-diff":
        cur.finish()
        return SeqExistsDiff()
    if kind == "simple":
        cur.finish()
        return SimpleInequality()
    if kind == "commutative":
        cur.expect("(")
        if _Cursor.name(cur, "'all' or atom") == "all":
            cur.expect(")")
            cur.finish()
            return CommutativeCanonical()
        cur.i -= 1
        pairs = _commas(cur, _pair, _Cursor.name, "atom")
        cur.expect(")")
        cur.finish()
        return CommutativeCanonical.of(*pairs)
    if kind == "table":
        pairs = _commas(cur, _pair, _parse_path_value)
        cur.finish()
        return ExplicitTable(frozenset(pairs))
    cur.fail(f"unknown disjointness kind '{kind}'",
             "expected seq-diff, simple, commutative(...), or table", at=2)


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
    if domain.disjointness == CommutativeCanonical():
        for rule in b.set_paths:
            _file_error(b, f"disjoint by commutative(all) reads atoms only, but [{rule}] "
                           "may hold a set", "list the atom pairs that commute")
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
    for lineno, body, tokens in _tokenize_lines(text):
        ends = [i for i, t in enumerate(tokens) if t == ";"]
        for start, end in zip([-1] + ends, ends + [len(tokens)]):
            if end > start + 1:
                yield _Cursor(file, []).at_line(lineno, body, tokens[start + 1:end], start + 1)


def _ground_atom(cur: _Cursor, domain: Domain, cls):
    """The ground atom that the rest of `cur`'s item holds, checked against
    the domain's schemas and sorts."""
    try:
        if cur.at_end():  # a lone '!'
            cur.fail("expected a single ground atom, got ''")
        name = cur.name("schema name")
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
    return _ground_atom(_Cursor(file, []).at_line(*lines[0]), domain, GroundFluent)


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
                cur.span(0), f"fluent '{f}' is given both true and false")])
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
    model._memo["valid"] = True  # a clean parse checked all that validate() checks
    return model.with_derived_dtable()


def _situation(b: _ModelBuilder, cur: _Cursor) -> str:
    s = cur.name("situation")
    if s not in b.situations:
        cur.fail(f"unknown situation '{s}'", at=cur.i - 1)
    return s


def _parse_model_line(b: _ModelBuilder, cur: _Cursor, head: str) -> None:
    # Diagnostics name the keyword (token 0) or a name at a fixed token.
    if head in ("situation", "situations"):
        while not cur.at_end():
            s = cur.name("situation name")
            if s in b.situations:
                cur.fail(f"situation '{s}' is declared twice", at=cur.i - 1)
            b.situations[s] = None
    elif head in ("rel", "crel"):
        collective = head == "crel"
        name = cur.name("element" if collective else "aspect atom")
        s = _situation(b, cur)
        t = _situation(b, cur)
        cur.finish()
        rels = b.collective_rels if collective else b.aspect_rels
        rels.setdefault(name, set()).add((s, t))
    elif head == "functional":
        atom = cur.name("aspect atom")
        cur.finish()
        b.functional.add(atom)
        b.aspect_rels.setdefault(atom, set())
    elif head == "atoms":
        while not cur.at_end():
            b.aspect_rels.setdefault(cur.name("aspect atom"), set())
    elif head == "act":
        name = cur.name("action name")
        s = _situation(b, cur)
        cur.expect("->")
        t = _situation(b, cur)
        cur.finish()
        mapping = b.action_maps.setdefault(name, {})
        if s in mapping:
            cur.fail(f"action '{name}' maps '{s}' twice", at=2)
        mapping[s] = t
    elif head == "val":
        f = cur.name("fluent name")
        b.valuations.setdefault(f, set())
        while not cur.at_end():
            b.valuations[f].add(_situation(b, cur))
    elif head == "aspect":
        kind = cur.name("'fluent' or 'action'")
        if kind not in ("fluent", "action"):
            cur.fail("expected 'aspect fluent NAME PATH' or "
                     "'aspect action NAME PATH'", at=1)
        name = cur.name("name")
        apath = _parse_path_value(cur)
        cur.finish()
        table = b.fluent_aspects if kind == "fluent" else b.action_aspects
        if name in table:
            cur.fail(f"'aspect {kind} {name}' is declared twice", at=2)
        table[name] = apath
        if kind == "fluent":
            b.valuations.setdefault(name, set())
    elif head in ("witness", "cwitness"):
        f = cur.name("fluent name")
        formalism = cur.name("formalism")
        if formalism not in FORMALISMS:
            cur.fail(f"unknown formalism '{formalism}'",
                     "one of: " + ", ".join(FORMALISMS), at=2)
        key: tuple = (f, formalism)
        table = b.witnesses
        if head == "cwitness":
            key += (cur.name("element"),)
            table = b.collective_witnesses
        sits = set()
        while not cur.at_end():
            sits.add(_situation(b, cur))
        if key in table:
            cur.fail(f"'{head} {' '.join(key)}' is declared twice", at=1)
        table[key] = frozenset(sits)
    elif head == "dpair":
        pair = _pair(cur, _parse_path_value)
        cur.finish()
        b.d_table.add(pair)
    else:
        cur.fail(f"unknown declaration '{head}'",
                 "expected one of: model, situations, rel, crel, functional, "
                 "atoms, act, val, aspect, witness, cwitness, dpair", at=0)
