"""Frontend for a STRIPS-plus-durative-actions subset of PDDL2.1.

Supported: typed parameters and objects, positive conjunctive preconditions
and goals, add/delete effects, equality and inequality parameter constraints,
durative actions with constant rational durations (`(= ?duration 3)`), with
`at start` / `over all` / `at end` annotations collapsed conservatively: all
condition atoms become preconditions, all positive effects adds, all negative
effects deletes.

Rejected with an unsupported-feature error: derived predicates, numeric
fluents, negative or disjunctive conditions, quantifiers, and conditional
effects.  Each section, action keyword, predicate and action name may appear
once, and a problem's `(:domain ..)` must name its domain.  All diagnostics
carry `file:line:col` positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import itertools
import re

from .model import Atom, GroundAction, Mode, Problem


class PddlError(Exception):
    """Syntax, type, or unsupported-feature error with a source position."""

    def __init__(self, message: str, filename: str = "<input>",
                 line: int = 0, col: int = 0) -> None:
        where = f"{filename}:{line}:{col}" if line else filename
        super().__init__(f"{where}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# s-expressions

@dataclass(frozen=True)
class Token:
    text: str
    line: int
    col: int


class SList(list):
    """A parenthesized group; remembers where it was opened."""

    def __init__(self, line: int, col: int) -> None:
        super().__init__()
        self.line = line
        self.col = col


def _pos(node) -> tuple[int, int]:
    return (node.line, node.col)


def _head(node) -> str | None:
    """The name heading `node` if it is a non-empty list that starts with a
    token, else None."""
    if isinstance(node, SList) and node and isinstance(node[0], Token):
        return node[0].text
    return None


# Newlines, other blanks and `;` comments are matched only to be skipped.
_LEXEME = re.compile(r"(\n)|[ \t\r]+|;[^\n]*|([()])|([^ \t\r\n();]+)")


def parse_sexprs(text: str, filename: str) -> list:
    stack: list[SList] = []
    top: list = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        newline, paren, name = m.groups()
        col = m.start() - line_start + 1
        if newline:
            line += 1
            line_start = m.end()
        elif paren == "(":
            stack.append(SList(line, col))
        elif paren:
            if not stack:
                raise PddlError("unmatched ')'", filename, line, col)
            done = stack.pop()
            (stack[-1] if stack else top).append(done)
        elif name:
            if not stack:
                raise PddlError(f"expected '(' before {name!r}", filename, line, col)
            stack[-1].append(Token(name, line, col))
    if stack:
        raise PddlError("unclosed '('", filename, stack[-1].line, stack[-1].col)
    return top


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Literal:
    pred: str
    args: tuple[str, ...]
    # Where the literal was read (0 for none); not part of its identity.
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, str], ...]  # (?var, type)
    pre: tuple[Literal, ...]
    add: tuple[Literal, ...]
    delete: tuple[Literal, ...]
    # parameter constraints: pairs required equal / required distinct
    eq: tuple[tuple[str, str], ...] = ()
    neq: tuple[tuple[str, str], ...] = ()
    dur: Fraction = Fraction(1)
    durative: bool = False
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class DomainAst:
    name: str
    requirements: tuple[str, ...]
    types: tuple[tuple[str, str], ...]  # (type, supertype)
    predicates: tuple[tuple[str, tuple[str, ...]], ...]  # (name, arg types)
    constants: tuple[tuple[str, str], ...]  # (object, type)
    actions: tuple[ActionSchema, ...]
    filename: str = "<domain>"


@dataclass(frozen=True)
class ProblemAst:
    name: str
    domain: Token  # the name in (:domain <name>), where it was read
    objects: tuple[tuple[str, str], ...]
    init: tuple[Literal, ...]
    goal: tuple[Literal, ...]
    filename: str = "<problem>"


_UNSUPPORTED_SECTIONS = {
    ":derived": "derived predicates",
    ":functions": "numeric fluents",
    ":constraints": "state trajectory constraints",
    ":axioms": "axioms",
}
_UNSUPPORTED_CONNECTIVES = {
    "or": "disjunctive condition",
    "imply": "implication",
    "forall": "universal quantifier",
    "exists": "existential quantifier",
    "when": "conditional effect",
    "increase": "numeric fluent",
    "decrease": "numeric fluent",
    "assign": "numeric fluent",
}
# The keywords each kind of action may hold, each at most once.
_ACTION_KEYWORDS = {
    ":action": (":parameters", ":precondition", ":effect"),
    ":durative-action": (":parameters", ":duration", ":condition", ":effect"),
}


def _expect_token(node, what: str, filename: str) -> Token:
    if not isinstance(node, Token):
        raise PddlError(f"expected {what}", filename, *_pos(node))
    return node


def _typed_list(nodes: list, filename: str, default: str = "object"):
    """Parse `x y - t z w - u v` into ((x,t),(y,t),(z,u),(w,u),(v,object))."""
    out: list[tuple[str, str]] = []
    pending: list[Token] = []
    it = iter(nodes)
    for node in it:
        tok = _expect_token(node, "a name", filename)
        if tok.text == "-":
            try:
                ty = _expect_token(next(it), "a type name", filename).text
            except StopIteration:
                raise PddlError("missing type after '-'", filename, tok.line, tok.col)
            out.extend((p.text, ty) for p in pending)
            pending = []
        else:
            pending.append(tok)
    out.extend((p.text, default) for p in pending)
    return tuple(out)


def _literal(node, filename: str) -> Literal:
    if not isinstance(node, SList) or not node:
        raise PddlError("expected a predicate application", filename, *_pos(node))
    head = _expect_token(node[0], "a predicate name", filename)
    if head.text in _UNSUPPORTED_CONNECTIVES:
        raise PddlError(
            f"unsupported feature: {_UNSUPPORTED_CONNECTIVES[head.text]} ({head.text})",
            filename, head.line, head.col,
        )
    args = tuple(_expect_token(a, "an argument", filename).text for a in node[1:])
    return Literal(head.text, args, node.line, node.col)


def _term_pair(node: SList, filename: str) -> tuple[str, str]:
    """The two terms of `(= a b)`."""
    if len(node) != 3:
        raise PddlError("expected (= <term> <term>)", filename, *_pos(node))
    a, b = (_expect_token(x, "a term", filename).text for x in node[1:])
    return a, b


def _conjuncts(node, what: str, filename: str):
    """Yield the conjuncts of `node` in order, nested `(and ..)` forms
    flattened.  Each is a non-empty list headed by a token; `what` names one
    in errors.  An explicit stack leaves the nesting depth unbounded."""
    stack = [node]
    while stack:
        n = stack.pop()
        if not isinstance(n, SList) or not n:
            raise PddlError(f"expected {what}", filename, *_pos(n))
        if _expect_token(n[0], f"{what} head", filename).text == "and":
            stack.extend(reversed(n[1:]))
        else:
            yield n


def _condition(node, filename: str):
    """Positive conjunctive condition plus equality/inequality constraints."""
    lits: list[Literal] = []
    eq: list[tuple[str, str]] = []
    neq: list[tuple[str, str]] = []
    for n in _conjuncts(node, "a condition", filename):
        head = n[0]
        if head.text == "not":
            if len(n) == 2 and _head(n[1]) == "=":
                neq.append(_term_pair(n[1], filename))
            else:
                raise PddlError(
                    "unsupported feature: negative condition (only (not (= ..)) allowed)",
                    filename, head.line, head.col,
                )
        elif head.text == "=":
            eq.append(_term_pair(n, filename))
        else:
            lits.append(_literal(n, filename))
    return tuple(lits), tuple(eq), tuple(neq)


def _effects(node, filename: str) -> tuple[tuple[Literal, ...], tuple[Literal, ...]]:
    add: list[Literal] = []
    delete: list[Literal] = []
    for n in _conjuncts(node, "an effect", filename):
        if n[0].text != "not":
            add.append(_literal(n, filename))
        elif len(n) == 2:
            delete.append(_literal(n[1], filename))
        else:
            raise PddlError("expected (not <atom>)", filename, *_pos(n))
    return tuple(add), tuple(delete)


def _strip_time_annotations(node, filename: str) -> SList:
    """Flatten `(and (at start X) (over all Y) (at end Z))` to `(and X Y Z)`."""
    out = SList(*_pos(node))
    out.append(Token("and", *_pos(node)))
    for n in _conjuncts(node, "an annotated formula", filename):
        if not (len(n) == 3 and isinstance(n[1], Token) and (n[0].text, n[1].text)
                in (("at", "start"), ("at", "end"), ("over", "all"))):
            raise PddlError(
                "expected (at start ..), (at end ..) or (over all ..)",
                filename, *_pos(n[0]),
            )
        out.append(n[2])
    return out


def _rational(tok: Token, filename: str) -> Fraction:
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError):
        raise PddlError(f"expected a rational constant, got {tok.text!r}",
                        filename, tok.line, tok.col)


def _duration(node, filename: str) -> Fraction:
    # Accepted form: (= ?duration <rational constant>)
    if (_head(node) == "=" and len(node) == 3
            and isinstance(node[1], Token) and node[1].text == "?duration"
            and isinstance(node[2], Token)):
        d = _rational(node[2], filename)
        if d < 0:
            raise PddlError("duration must be nonnegative", filename, *_pos(node))
        return d
    raise PddlError(
        "unsupported feature: duration must be a rational constant "
        "(= ?duration <number>)", filename, *_pos(node)
    )


def _sections(body: list, keywords: tuple[str, ...], filename: str) -> dict[str, object]:
    """The value after each keyword of an action body; each of `keywords`
    may appear once, and no other keyword may."""
    out: dict[str, object] = {}
    it = iter(body)
    for node in it:
        key = _expect_token(node, "a keyword like :parameters", filename)
        if key.text not in keywords:
            raise PddlError(f"expected one of {' '.join(keywords)}, got {key.text!r}",
                            filename, key.line, key.col)
        if key.text in out:
            raise PddlError(f"{key.text} given twice", filename, key.line, key.col)
        try:
            out[key.text] = next(it)
        except StopIteration:
            raise PddlError(f"missing value after {key.text}",
                            filename, key.line, key.col)
    return out


def _parse_action(node: SList, filename: str) -> ActionSchema:
    durative = node[0].text == ":durative-action"
    if len(node) < 2:
        raise PddlError("action needs a name", filename, *_pos(node))
    name = _expect_token(node[1], "an action name", filename).text
    sec = _sections(node[2:], _ACTION_KEYWORDS[node[0].text], filename)
    params_node = sec.get(":parameters")
    if isinstance(params_node, Token):
        raise PddlError("expected a parameter list", filename, *_pos(params_node))
    params = _typed_list(list(params_node), filename) if params_node else ()
    dur = _duration(sec[":duration"], filename) if ":duration" in sec else Fraction(1)
    # Only a durative action's :condition and :effect carry time annotations.
    timed = _strip_time_annotations if durative else lambda n, _: n
    cond = sec.get(":condition", sec.get(":precondition"))
    pre, eq, neq = ((), (), ())
    if cond is not None:
        pre, eq, neq = _condition(timed(cond, filename), filename)
    add, delete = ((), ())
    if ":effect" in sec:
        add, delete = _effects(timed(sec[":effect"], filename), filename)
    return ActionSchema(name, params, pre, add, delete, eq, neq, dur, durative,
                        *_pos(node))


def _define(text: str, filename: str, kind: str, sections: tuple[str, ...],
            repeatable: tuple[str, ...]) -> tuple[Token, dict[str, SList], list[SList]]:
    """Read the one `(define (<kind> <name>) ..)` form of `text`.

    Returns the name token, a dict from the keyword of each section present
    to its form, for the `sections` that may appear once, and the forms of
    the `repeatable` sections in file order.  A malformed, unsupported,
    unknown or repeated section is rejected at its keyword."""
    forms = parse_sexprs(text, filename)
    if len(forms) != 1:
        raise PddlError(f"expected a single (define ({kind} ..)) form", filename, 1, 1)
    form = forms[0]
    if _head(form) != "define":
        raise PddlError(f"expected (define ({kind} ..))", filename, *_pos(form))
    head = form[1] if len(form) > 1 else form
    if not (_head(head) == kind and len(head) == 2):
        raise PddlError(f"expected ({kind} <name>)", filename, *_pos(head))
    name = _expect_token(head[1], f"a {kind} name", filename)
    once: dict[str, SList] = {}
    repeated: list[SList] = []
    for node in form[2:]:
        if _head(node) is None:
            raise PddlError(f"expected a {kind} section", filename, *_pos(node))
        key = node[0]
        if key.text not in sections:
            what = _UNSUPPORTED_SECTIONS.get(key.text, "unknown section")
            raise PddlError(f"unsupported feature: {what} ({key.text})",
                            filename, key.line, key.col)
        if key.text in repeatable:
            repeated.append(node)
        elif key.text in once:
            raise PddlError(f"{key.text} section given twice", filename, key.line, key.col)
        else:
            once[key.text] = node
    return name, once, repeated


def parse_domain(text: str, filename: str = "<domain>") -> DomainAst:
    name, sec, action_nodes = _define(
        text, filename, "domain",
        (":requirements", ":types", ":constants", ":predicates", *_ACTION_KEYWORDS),
        tuple(_ACTION_KEYWORDS),
    )
    requirements = tuple(_expect_token(r, "a requirement", filename).text
                         for r in sec.get(":requirements", ())[1:])
    types = _typed_list(sec.get(":types", ())[1:], filename)
    constants = _typed_list(sec.get(":constants", ())[1:], filename)
    predicates: dict[str, tuple[str, ...]] = {}
    for p in sec.get(":predicates", ())[1:]:
        if _head(p) is None:
            raise PddlError("expected a predicate schema", filename, *_pos(p))
        if p[0].text in predicates:
            raise PddlError(f"predicate {p[0].text!r} declared twice", filename, *_pos(p[0]))
        predicates[p[0].text] = tuple(t for _, t in _typed_list(p[1:], filename))
    actions: dict[str, ActionSchema] = {}
    for node in action_nodes:
        action = _parse_action(node, filename)
        if action.name in actions:
            raise PddlError(f"action {action.name!r} declared twice", filename, *_pos(node[1]))
        actions[action.name] = action
    return DomainAst(name.text, requirements, types, tuple(predicates.items()), constants,
                     tuple(actions.values()), filename)


def parse_problem(text: str, filename: str = "<problem>") -> ProblemAst:
    # :requirements are the domain's to set and :metric is the mode's, so
    # both are read past.
    name, sec, _ = _define(
        text, filename, "problem",
        (":domain", ":requirements", ":objects", ":init", ":goal", ":metric"), (),
    )
    if ":domain" not in sec:
        raise PddlError(f"problem {name.text} has no (:domain <name>) section",
                        filename, *_pos(name))
    for key in (":domain", ":goal"):
        if key in sec and len(sec[key]) != 2:
            raise PddlError(f"expected ({key} <one argument>)", filename, *_pos(sec[key]))
    if ":goal" not in sec:
        raise PddlError(f"problem {name.text} has no (:goal <condition>) section",
                        filename, *_pos(name))
    domain = _expect_token(sec[":domain"][1], "a domain name", filename)
    objects = _typed_list(sec.get(":objects", ())[1:], filename)
    init: list[Literal] = []
    for lit in sec.get(":init", ())[1:]:
        if _head(lit) == "=":
            raise PddlError("unsupported feature: numeric fluent in :init",
                            filename, *_pos(lit))
        init.append(_literal(lit, filename))
    goal, eq, neq = _condition(sec[":goal"][1], filename)
    if eq or neq:
        raise PddlError("equality has no place in a ground goal",
                        filename, *_pos(sec[":goal"]))
    return ProblemAst(name.text, domain, objects, tuple(init), goal, filename)


def parse(domain_text: str, problem_text: str,
          domain_file: str = "<domain>", problem_file: str = "<problem>"
          ) -> tuple[DomainAst, ProblemAst]:
    return parse_domain(domain_text, domain_file), parse_problem(problem_text, problem_file)


# ---------------------------------------------------------------------------
# grounding

def _subtypes(types: tuple[tuple[str, str], ...], filename: str) -> dict[str, set[str]]:
    """type -> set of types assignable to it (itself and all descendants)."""
    parent = dict(types)
    known = {"object"} | set(parent) | set(parent.values())
    out = {t: {t} for t in known}
    for t in known:
        walk = t
        seen = {t}
        while walk in parent:
            walk = parent[walk]
            if walk in seen:
                raise PddlError(f"type cycle through {walk!r}", filename)
            seen.add(walk)
            out.setdefault(walk, {walk}).add(t)
    return out


def ground(domain: DomainAst, problem: ProblemAst,
           mode: Mode = Mode.SEQUENTIAL) -> Problem:
    """Instantiate every type-respecting parameter binding of every schema.

    Static facts in preconditions (predicates no action affects) are checked
    against the initial state and removed; instances failing them, or whose
    add and delete sets collide, are dropped.  Actions needing an atom that
    nothing adds and the initial state lacks are pruned to a fixpoint.
    """
    if problem.domain.text != domain.name:
        raise PddlError(f"problem is for domain {problem.domain.text!r}, not {domain.name!r}",
                        problem.filename, *_pos(problem.domain))
    assignable = _subtypes(domain.types, domain.filename)
    objects: dict[str, str] = {}
    declared = [(o, t, domain.filename) for o, t in domain.constants]
    declared += [(o, t, problem.filename) for o, t in problem.objects]
    for o, t, filename in declared:
        if o in objects:
            raise PddlError(f"object {o!r} declared twice", filename)
        if t not in assignable:
            raise PddlError(f"object {o!r} has undeclared type {t!r}", filename)
        objects[o] = t
    by_type: dict[str, list[str]] = {}
    for o, t in objects.items():
        for sup, subs in assignable.items():
            if t in subs:
                by_type.setdefault(sup, []).append(o)

    arities = dict(domain.predicates)
    affected = {lit.pred for a in domain.actions for lit in a.add + a.delete}

    def check_lit(lit: Literal, ctx: str, filename: str, variables=()) -> None:
        """Raise at the literal's position unless its predicate is declared
        with its arity, its variables are bound and its objects declared."""
        def fail(message: str) -> None:
            raise PddlError(f"{message} in {ctx}", filename, lit.line, lit.col)

        if lit.pred not in arities:
            fail(f"undeclared predicate {lit.pred!r}")
        if len(lit.args) != len(arities[lit.pred]):
            fail(f"wrong arity for {lit.pred!r}")
        for arg in lit.args:
            if arg.startswith("?"):
                if arg not in variables:
                    fail(f"unbound variable {arg}")
            elif arg not in objects:
                fail(f"undeclared object {arg!r}")

    for lit in problem.init + problem.goal:
        check_lit(lit, "problem", problem.filename)

    # A ground atom is (predicate, objects), without a source position.
    static_init = {(lit.pred, lit.args) for lit in problem.init
                   if lit.pred not in affected}

    # Deterministic atom ids: first occurrence order.
    atom_ids: dict[tuple[str, tuple[str, ...]], int] = {}

    def atom_of(atom: tuple[str, tuple[str, ...]]) -> int:
        return atom_ids.setdefault(atom, len(atom_ids))

    raw: list[tuple[str, frozenset, frozenset, frozenset, Fraction]] = []
    for schema in domain.actions:
        ctx = f"action {schema.name}"
        var_names = [v for v, _ in schema.params]
        for lit in schema.pre + schema.add + schema.delete:
            check_lit(lit, ctx, domain.filename, var_names)
        for x in itertools.chain.from_iterable(schema.eq + schema.neq):
            if x.startswith("?") and x not in var_names:
                raise PddlError(f"unbound variable {x} in {ctx}", domain.filename,
                                schema.line, schema.col)
        pools = []
        for v, t in schema.params:
            if t not in assignable:
                raise PddlError(f"undeclared type {t!r} in {ctx}", domain.filename,
                                schema.line, schema.col)
            pools.append(by_type.get(t, []))
        for binding in itertools.product(*pools):
            env = dict(zip(var_names, binding))
            term = lambda x: env.get(x, x)  # every variable is bound (checked)
            if any(term(x) != term(y) for x, y in schema.eq):
                continue
            if any(term(x) == term(y) for x, y in schema.neq):
                continue
            sub = lambda lit: (lit.pred, tuple(term(a) for a in lit.args))
            pre_lits = [sub(l) for l in schema.pre]
            add_lits = [sub(l) for l in schema.add]
            del_lits = [sub(l) for l in schema.delete]
            if any(l[0] not in affected and l not in static_init for l in pre_lits):
                continue  # a static precondition is false
            pre_lits = [l for l in pre_lits if l[0] in affected]
            if set(add_lits) & set(del_lits):
                continue  # contradictory instance
            if not add_lits:
                continue  # cannot establish anything; irrelevant to regression
            name = " ".join((schema.name,) + binding)
            pre_set = frozenset(atom_of(l) for l in pre_lits)
            add_set = frozenset(atom_of(l) for l in add_lits)
            del_set = frozenset(atom_of(l) for l in del_lits)
            raw.append((name, pre_set, add_set, del_set, schema.dur))

    init_atoms = frozenset(atom_of((l.pred, l.args)) for l in problem.init
                           if l.pred in affected)
    goal_atoms = frozenset(atom_of((l.pred, l.args)) for l in problem.goal
                           if l.pred in affected)
    for lit in problem.goal:
        if lit.pred not in affected and (lit.pred, lit.args) not in static_init:
            # A static goal no action can achieve: keep it as an atom with no
            # adder so the planner reports unsolvable rather than erroring.
            goal_atoms = goal_atoms | {atom_of((lit.pred, lit.args))}

    # Prune actions whose preconditions can never all become true.
    keep = list(range(len(raw)))
    while True:
        addable = set(init_atoms)
        for i in keep:
            addable |= raw[i][2]
        new_keep = [i for i in keep if raw[i][1] <= addable]
        if new_keep == keep:
            break
        keep = new_keep

    atoms = [Atom(i, " ".join((pred,) + args))
             for i, (pred, args) in enumerate(atom_ids)]
    actions = []
    for idx, i in enumerate(keep):
        name, pre, add, delete, dur = raw[i]
        if mode is not Mode.TEMPORAL:
            dur = Fraction(1)
        actions.append(GroundAction(idx, name, pre, add, delete, Fraction(1), dur))
    return Problem(atoms, actions, init_atoms, goal_atoms, mode, problem.name)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise PddlError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path) from None


def load(domain_path: str, problem_path: str, mode: Mode = Mode.SEQUENTIAL) -> Problem:
    domain = parse_domain(_read(domain_path), domain_path)
    problem = parse_problem(_read(problem_path), problem_path)
    return ground(domain, problem, mode)
